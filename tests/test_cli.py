"""Tests for the command-line surface: schema, determinism, round trips,
exit codes, and config precedence."""

import json
import math

import numpy as np

from oscbath import cli

REDUCED_HEADER = "theta,F,S,U,C,method,model"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepCSV:
    def test_schema_and_row_count(self, capsys):
        code, out, err = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1",
            "--theta-min", "0.01", "--theta-max", "10", "--points", "50",
            "--log", "--method", "exact_j"])
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == REDUCED_HEADER
        assert len(lines) == 51
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 7
            assert cells[5] == "exact_j" and cells[6] == "ohmic"

    def test_determinism(self, capsys):
        argv = ["sweep", "--model", "srt", "--gamma", "0.5", "--tau", "0.01",
                "--theta-min", "0.1", "--theta-max", "2", "--points", "7",
                "--method", "exact_j,low_T_series"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_both_exact_methods_agree(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1",
            "--theta-min", "0.05", "--theta-max", "5", "--points", "6",
            "--log", "--method", "exact_j,exact_quadrature"])
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 12
        by_theta = {}
        for line in lines:
            cells = line.split(",")
            by_theta.setdefault(cells[0], []).append(float(cells[1]))
        for theta, values in by_theta.items():
            assert len(values) == 2
            assert abs(values[0] - values[1]) < 1e-8

    def test_method_order_canonical(self, capsys):
        _, out, _ = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1", "--points", "1",
            "--theta-min", "1", "--theta-max", "1",
            "--method", "low_T_series,exact_j"])
        methods = [line.split(",")[5] for line in out.strip().split("\n")[1:]]
        assert methods == ["exact_j", "low_T_series"]

    def test_qed_low_t_free_energy_lacks_theta2(self, capsys):
        _, out, _ = run(capsys, [
            "sweep", "--model", "qed", "--gamma", "0.1",
            "--omega-prime", "1e6", "--theta-min", "0.01",
            "--theta-max", "0.05", "--points", "6", "--log",
            "--method", "exact_j"])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        thetas = np.array([float(r[0]) for r in rows])
        f_values = np.array([abs(float(r[1])) for r in rows])
        slope = np.polyfit(np.log(thetas), np.log(f_values), 1)[0]
        assert abs(slope - 4.0) < 0.2


class TestSweepJSON:
    def test_round_trip_exact(self, capsys):
        argv = ["sweep", "--model", "ohmic", "--gamma", "1",
                "--theta-min", "0.07", "--theta-max", "3", "--points", "5",
                "--log", "--method", "exact_j", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        document = json.loads(out)
        assert document["config"]["model"] == "ohmic"
        rows = document["rows"]
        assert len(rows) == 5
        # values rendered at 17 significant digits round-trip exactly
        from oscbath import baths, thermo
        bath = baths.canonicalize(baths.OhmicSpec(gamma=1.0))
        for row in rows:
            point = thermo.thermo_point(bath, row["theta"])
            assert row["F"] == point.F
            assert row["S"] == point.S
            assert row["U"] == point.U
            assert row["C"] == point.C

    def test_round_trip_csv(self, capsys):
        argv = ["sweep", "--model", "qed", "--gamma", "0.3",
                "--omega-prime", "1e3", "--theta-min", "0.07",
                "--theta-max", "3", "--points", "5", "--log",
                "--method", "exact_j", "--format", "csv"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        header, *lines = out.splitlines()
        assert header == "theta,F,S,U,C,method,model"
        assert len(lines) == 5
        # csv cells carry 17 significant digits too and round-trip exactly
        from oscbath import baths, thermo
        bath = baths.canonicalize(baths.QEDSpec(gamma=0.3, omega_prime=1e3))
        for line in lines:
            theta, F, S, U, C = map(float, line.split(",")[:5])
            point = thermo.thermo_point(bath, theta)
            assert (F, S, U, C) == (point.F, point.S, point.U, point.C)

    def test_float_formatting_17_digits(self, capsys):
        _, out, _ = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1", "--points", "1",
            "--theta-min", "0.1", "--theta-max", "0.1", "--format", "json"])
        assert "1.0000000000000001e-01" in out  # theta = 0.1 at 17 digits


class TestSweepSI:
    def test_si_columns_and_conversion(self, capsys):
        omega0 = 1e12
        code, out, _ = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1", "--points", "1",
            "--theta-min", "1", "--theta-max", "1", "--units", "si",
            "--omega0-hz", str(omega0)])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,T_kelvin,F,S,U,C,method,model"
        cells = lines[1].split(",")
        t_kelvin = float(cells[1])
        expected = cli.HBAR_SI * omega0 / cli.K_BOLTZMANN_SI
        assert abs(t_kelvin - expected) < 1e-12 * expected
        # F in joules = reduced F times hbar omega0
        _, reduced_out, _ = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1", "--points", "1",
            "--theta-min", "1", "--theta-max", "1"])
        f_reduced = float(reduced_out.strip().split("\n")[1].split(",")[1])
        assert abs(float(cells[2]) - f_reduced * cli.HBAR_SI * omega0) \
            < 1e-12 * abs(f_reduced * cli.HBAR_SI * omega0)

    def test_si_requires_omega0(self, capsys):
        code, _, err = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1", "--units", "si"])
        assert code == 2
        assert "omega0" in err


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# sample configuration\n"
            "model = ohmic\n"
            "gamma = 2.0\n"
            "theta-min = 0.5\n"
            "theta-max = 0.5\n"
            "points = 1\n"
            "method = exact_j\n")
        code, out, _ = run(capsys, ["sweep", "--config", str(config)])
        assert code == 0
        baseline = out.strip().split("\n")[1]
        code, out, _ = run(capsys, ["sweep", "--config", str(config),
                                    "--gamma", "1.0"])
        overridden = out.strip().split("\n")[1]
        assert baseline != overridden
        # and the override matches the pure-flag run
        code, out, _ = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1.0", "--points", "1",
            "--theta-min", "0.5", "--theta-max", "0.5"])
        assert overridden == out.strip().split("\n")[1]

    def test_bad_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("no_such_key = 1\n")
        code, _, err = run(capsys, ["sweep", "--config", str(config),
                                    "--model", "ohmic", "--gamma", "1"])
        assert code == 2 and "no_such_key" in err

    def test_missing_config_rejected(self, capsys):
        code, _, err = run(capsys, ["sweep", "--config", "/nonexistent.cfg",
                                    "--model", "ohmic", "--gamma", "1"])
        assert code == 2


class TestSweepValidation:
    def test_missing_model(self, capsys):
        code, _, err = run(capsys, ["sweep", "--gamma", "1"])
        assert code == 2 and "model" in err

    def test_srt_needs_tau(self, capsys):
        code, _, err = run(capsys, ["sweep", "--model", "srt", "--gamma", "1"])
        assert code == 2 and "tau" in err

    def test_bad_theta_range(self, capsys):
        code, _, err = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1",
            "--theta-min", "-1"])
        assert code == 2

    def test_unknown_method(self, capsys):
        code, _, err = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1",
            "--method", "exact_j,magic"])
        assert code == 2 and "magic" in err


class TestJfun:
    def test_loggamma_value(self, capsys):
        code, out, _ = run(capsys, ["jfun", "1", "0", "--method", "loggamma"])
        assert code == 0
        assert "8.10614667953272e-02" in out
        assert "method: loggamma" in out

    def test_asymptotic_reports_bound(self, capsys):
        code, out, _ = run(capsys, ["jfun", "10", "0", "--method",
                                    "asymptotic", "--terms", "3"])
        assert code == 0
        value_line, method_line, bound_line = out.strip().split("\n")
        assert "8.33056349206349e-03" in value_line
        assert bound_line.startswith("truncation bound:")
        assert abs(float(bound_line.split(":")[1]) - 5.952381e-11) < 1e-16

    def test_auto_reports_continuation(self, capsys):
        code, out, _ = run(capsys, ["jfun", "-1", "1", "--method", "auto"])
        assert code == 0
        assert "method: continuation" in out

    def test_auto_reports_lanczos(self, capsys):
        code, out, _ = run(capsys, ["jfun", "2", "3", "--method", "auto"])
        assert code == 0
        assert "method: lanczos" in out

    def test_domain_error_guides(self, capsys):
        code, _, err = run(capsys, ["jfun", "-1", "0", "--method", "auto"])
        assert code == 2
        assert "branch cut" in err


class TestZeropoint:
    def test_srt_free_oscillator(self, capsys):
        code, out, _ = run(capsys, ["zeropoint", "--model", "srt",
                                    "--gamma", "1e-9", "--tau", "1e-4"])
        assert code == 0
        value = float(out.split("=")[1])
        assert abs(value - 0.5) < 1e-6

    def test_ohmic_asymptotic_echoes_tau(self, capsys):
        code, out5, _ = run(capsys, ["zeropoint", "--model", "ohmic",
                                     "--gamma", "1", "--tau", "1e-5"])
        assert code == 0 and "tau = 1e-05" in out5
        code, out6, _ = run(capsys, ["zeropoint", "--model", "ohmic",
                                     "--gamma", "1", "--tau", "1e-6"])
        v5 = float(out5.split("=")[1].split()[0])
        v6 = float(out6.split("=")[1].split()[0])
        assert abs((v6 - v5) - math.log(10.0) / (2.0 * math.pi)) < 1e-12

    def test_qed_divergence_notice(self, capsys):
        code, out, err = run(capsys, ["zeropoint", "--model", "qed",
                                      "--gamma", "0.1",
                                      "--omega-prime", "1000"])
        assert code == 4
        assert "diverges for the QED model" in err

    def test_ohmic_requires_tau(self, capsys):
        code, _, err = run(capsys, ["zeropoint", "--model", "ohmic",
                                    "--gamma", "1"])
        assert code == 2 and "tau" in err
