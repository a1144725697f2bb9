"""Tests for the command-line surface: schema, determinism, round trips,
exit codes, and config precedence."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oscbath import cli, stieltjes

REDUCED_HEADER = "theta,F,S,U,C,method,model"


def run(capsys, argv):
    """cli.main as a process runs it: a usage error's SystemExit gives the
    exit code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_si_rejects_non_finite_omega0(self, tmp_path, capsys, value,
                                          source):
        argv = ["sweep", "--model", "ohmic", "--gamma", "1", "--units", "si"]
        if source == "flag":
            argv += ["--omega0-hz", value]
        else:
            config = tmp_path / "si.cfg"
            config.write_text(f"omega0_hz = {value}\n")
            argv += ["--config", str(config)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "omega0-hz" in err


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

    @pytest.mark.parametrize("key,value", [
        ("model", "bogus"), ("format", "xml"), ("units", "furlongs"),
        ("log", "maybe")])
    def test_bad_config_value_rejected(self, tmp_path, capsys, key, value):
        # checked as strictly as the matching flag, with the line named
        config = tmp_path / "bad.cfg"
        config.write_text("model = qed\ngamma = 0.1\nomega_prime = 1e3\n"
                          f"{key} = {value}\n")
        code, out, err = run(capsys, ["sweep", "--config", str(config)])
        assert code == 2 and out == ""
        assert f"{config}:4:" in err and value in err

    def test_config_log_words(self, tmp_path, capsys):
        outputs = []
        for word in ("yes", "On", "false", "0"):
            config = tmp_path / f"{word}.cfg"
            config.write_text(f"model = ohmic\ngamma = 1\npoints = 3\n"
                              f"log = {word}\n")
            code, out, _ = run(capsys, ["sweep", "--config", str(config)])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] != outputs[2] == outputs[3]

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

    @pytest.mark.parametrize("argv", [
        ["--model", "ohmic", "--gamma", "inf"],
        ["--model", "srt", "--gamma", "1", "--tau", "inf"],
        ["--model", "qed", "--gamma", "inf", "--omega-prime", "1e3"],
    ])
    def test_infinite_parameter_named(self, capsys, argv):
        code, out, err = run(capsys, ["sweep", *argv])
        name = argv[argv.index("inf") - 1].lstrip("-")
        assert code == 2 and out == ""
        assert f"{name} must be finite" in err

    def test_srt_read_as_blackbody_rejected(self, capsys):
        code, out, err = run(capsys, ["sweep", "--model", "srt", "--gamma",
                                      "1e-15", "--tau", "1", "--points", "1"])
        assert code == 2 and out == ""
        assert "gamma = 1e-15, tau = 1.0 cannot be told from a blackbody" in err

    def test_srt_tau_whose_reciprocal_overflows_named(self, capsys):
        code, out, err = run(capsys, ["sweep", "--model", "srt", "--gamma",
                                      "1", "--tau", "1e-310"])
        assert code == 2 and out == ""
        assert "tau = 1e-310 is too small" in err

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

    @pytest.mark.parametrize("flag, value, points", [
        ("theta-max", "inf", "3"), ("theta-max", "nan", "3"),
        ("theta-min", "inf", "1"), ("theta-min", "nan", "1"),
    ])
    def test_non_finite_theta_named(self, capsys, flag, value, points):
        code, out, err = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1", f"--{flag}", value,
            "--points", points, "--method", "low_T_series,high_T_series"])
        assert code == 2 and out == ""
        assert f"{flag} must be finite" in err and f"got {value}" in err

    def test_log_grid_spanning_the_float_range(self, capsys):
        # hi / lo overflows although both ends and every grid point are
        # finite
        code, out, err = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1",
            "--theta-min", "1e-300", "--theta-max", "1e300", "--points", "3",
            "--log", "--method", "exact_j"])
        assert code == 0 and err == ""
        thetas = [float(line.split(",")[0])
                  for line in out.strip().split("\n")[1:]]
        assert thetas[0] == 1e-300 and thetas[2] == 1e300
        assert abs(thetas[1] - 1.0) < 1e-12

    @pytest.mark.parametrize("argv", [
        ["--model", "ohmic", "--gamma", "0.1", "--theta-min", "1e-300",
         "--theta-max", "1e300", "--points", "13", "--log"],
        ["--model", "qed", "--gamma", "0.1", "--omega-prime", "1e3",
         "--theta-min", "1e-200", "--points", "1"],
    ])
    def test_exact_j_rows_finite_over_the_float_range(self, capsys, argv):
        # C was nan below theta ~ 1e-155 for an underdamped root near the
        # imaginary axis
        code, out, err = run(capsys, ["sweep", *argv, "--method", "exact_j"])
        assert code == 0 and err == ""
        assert "nan" not in out and "inf" not in out


class TestNumericalFailure:
    @pytest.mark.parametrize("method, theta, notice", [
        ("high_T_series", "1e-300", "high-temperature"),
        ("low_T_series", "1e+52", "low-temperature"),
    ])
    def test_series_overflow_exits_3_naming_theta(self, capsys, recwarn,
                                                  method, theta, notice):
        # far outside the series' regime, where no regime notice is given
        code, out, err = run(capsys, [
            "sweep", "--model", "ohmic", "--gamma", "1", "--points", "2",
            "--theta-min", theta, "--theta-max", theta, "--method", method])
        assert code == 3 and out == ""
        assert f"theta = {theta}" in err
        assert notice not in err and len(recwarn) == 0

    @pytest.mark.parametrize("theta", ["1e-150", "1e+306"])
    def test_quadrature_out_of_range_exits_3_naming_theta(self, capsys,
                                                          theta):
        # the blackbody weight underflows at 1e-150; F overflows at 1e306
        code, out, err = run(capsys, [
            "sweep", "--model", "qed", "--gamma", "0.1", "--omega-prime",
            "1e3", "--points", "1", "--theta-min", theta,
            "--method", "exact_quadrature"])
        assert code == 3 and out == ""
        assert f"theta = {theta}" in err


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

    @pytest.mark.parametrize("method", ["series", "asymptotic"])
    def test_terms_zero_rejected(self, capsys, method):
        code, out, err = run(capsys, ["jfun", "0.3", "0.1", "--method",
                                      method, "--terms", "0"])
        assert code == 2 and out == ""
        assert "n_terms" in err

    def test_series_takes_the_terms_given(self, capsys):
        z = complex(0.3, 0.1)
        value = stieltjes.j_series_small(z, 5)
        assert value != stieltjes.j_series_small(z)
        code, out, _ = run(capsys, ["jfun", "0.3", "0.1", "--method",
                                    "series", "--terms", "5"])
        assert code == 0
        assert f"{value.real:.14e} {value.imag:+.14e}j" in out
        assert "method: series" in out

    def test_series_sizes_its_sum_by_default(self, capsys):
        # 60 terms printed 8.63396764824439e-02 here, 5.5% off
        code, out, _ = run(capsys, ["jfun", "0.99", "0", "--method",
                                    "series"])
        value = float(out.split(" = ")[1].split()[0])
        assert code == 0
        assert abs(value - stieltjes.j_jet(0.99)[0].real) < 1e-15
        code, out, err = run(capsys, ["jfun", "0.999", "0", "--method",
                                      "series"])
        assert code == 2 and out == ""
        assert "z = (0.999+0j) needs > 10000 terms" in err

    @pytest.mark.parametrize("method",
                             ["auto", "quadrature", "loggamma", "lanczos"])
    def test_terms_rejected_where_unused(self, capsys, method):
        code, out, err = run(capsys, ["jfun", "2", "3", "--method", method,
                                      "--terms", "5"])
        assert code == 2 and out == ""
        assert "--terms" in err

    def test_domain_error_guides(self, capsys):
        code, _, err = run(capsys, ["jfun", "-1", "0", "--method", "auto"])
        assert code == 2
        assert "branch cut" in err

    @pytest.mark.parametrize("re_part,im_part,method", [
        ("inf", "0", "auto"), ("inf", "0", "lanczos"),
        ("inf", "0", "loggamma"), ("nan", "nan", "series"),
        ("nan", "0", "auto")])
    def test_non_finite_z_rejected(self, capsys, re_part, im_part, method):
        code, out, err = run(capsys, ["jfun", re_part, im_part,
                                      "--method", method])
        assert code == 2 and out == ""
        z = complex(float(re_part), float(im_part))
        assert f"z = {z!r} is not finite" in err

    @pytest.mark.parametrize("method", ["auto", "lanczos"])
    def test_overflow_exits_3_naming_z(self, capsys, method):
        # the Lanczos formula's (z + 1/2) log(1 + 5.5/z) overflows
        code, out, err = run(capsys, ["jfun", "1e-320", "0",
                                      "--method", method])
        assert code == 3 and out == ""
        assert "J is not finite at z = (1e-320+0j)" in err

    def test_top_of_the_float_range_meets_the_bound(self, capsys):
        # the quotient 5.5/z overflowed within to 0: J was -5.49999999980998
        # where it is ~4e-310
        code, out, err = run(capsys, ["jfun", "1e308", "1e308"])
        assert code == 0 and err == ""
        assert abs(float(out.split(" = ")[1].split()[0])) <= 1e-9

    def test_quadrature_outside_its_range_exits_2_naming_z(self, capsys):
        code, out, err = run(capsys, ["jfun", "1e-320", "0",
                                      "--method", "quadrature"])
        assert code == 2 and out == ""
        assert "j_quadrature: z = (1e-320+0j) is outside the range" in err

    def test_loggamma_far_left_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["jfun", "--method", "loggamma", "--",
                                      "-1e308", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "j_loggamma: z = (-1e+308+1j) has Re z <" in err

    def test_minus_led_exponent_usage_error_names_double_dash(self, capsys):
        # argparse reads -1e3 as an option, so im goes missing
        code, out, err = run(capsys, ["jfun", "-1e3", "1"])
        assert code == 2 and out == ""
        assert "required: im" in err and "oscbath jfun -- -1e3 1" in err

    def test_minus_led_exponent_after_double_dash(self, capsys):
        value = stieltjes.j_auto_named(complex(-1e3, 1.0))[0]
        code, out, _ = run(capsys, ["jfun", "--", "-1e3", "1"])
        assert code == 0
        assert f"J(-1000+1j) = {value.real:.14e} {value.imag:+.14e}j" in out

    def test_loggamma_far_right_exits_2_naming_z(self, capsys):
        code, out, err = run(capsys, ["jfun", "1e7", "0", "--method",
                                      "loggamma"])
        assert code == 2 and out == ""
        assert "j_loggamma: z = (10000000+0j) has |z| > 100000" in err

    @pytest.mark.parametrize("method", ["loggamma", "series"])
    def test_tiny_z_finite_by_the_other_routes(self, capsys, method):
        # J(z) ~ -log sqrt(2 pi) - log(z)/2 = 367.49...
        code, out, _ = run(capsys, ["jfun", "1e-320", "0",
                                    "--method", method])
        assert code == 0
        assert "= 3.67494681912282e+02 +0.00000000000000e+00j" in out


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

    def test_infinite_gamma_named(self, capsys):
        for model, extra in (("ohmic", ["--tau", "1e-5"]),
                             ("srt", ["--tau", "1e-2"]),
                             ("qed", ["--omega-prime", "1e3"])):
            code, out, err = run(capsys, ["zeropoint", "--model", model,
                                          "--gamma", "inf", *extra])
            assert code == 2 and out == ""
            assert "gamma must be finite" in err

    @pytest.mark.parametrize("tau", ["inf", "nan", "0"])
    def test_ohmic_rejects_a_bad_tau(self, capsys, tau):
        code, out, err = run(capsys, ["zeropoint", "--model", "ohmic",
                                      "--gamma", "1", "--tau", tau])
        assert code == 2 and out == ""
        assert "tau must be finite" in err

    def test_ohmic_requires_tau(self, capsys):
        code, _, err = run(capsys, ["zeropoint", "--model", "ohmic",
                                    "--gamma", "1"])
        assert code == 2 and "tau" in err


class TestParserReuse:
    """main builds its parser once per process; no call may leak state into
    the next."""

    def test_repeated_calls_match_a_fresh_process(self, tmp_path, capsys,
                                                   monkeypatch):
        config = tmp_path / "sweep.cfg"
        config.write_text("model = srt\ngamma = 0.5\ntau = 0.01\n"
                          "points = 3\nlog = yes\nformat = json\n")
        sweep = ["sweep", "--model", "ohmic", "--gamma", "1",
                 "--theta-min", "0.1", "--theta-max", "10", "--points", "3"]
        asymptotic = ["jfun", "8", "1", "--method", "asymptotic"]
        sequence = [
            sweep + ["--log"],
            asymptotic + ["--terms", "3"],
            ["jfun", "2", "3", "--method", "bogus"],           # usage error
            sweep,
            asymptotic,
            ["sweep", "--config", str(config)],
            ["sweep", "--model", "qed", "--points", "x"],     # usage error
            sweep + ["--method", "exact_j,low_T_series"],
            ["jfun", "inf", "0"],
            ["zeropoint", "--model", "srt", "--gamma", "1", "--tau", "0.01"],
        ]
        # usage text wraps at the terminal width; pin it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        in_process = [run(capsys, argv) for argv in sequence]
        assert [code for code, _, _ in in_process] == \
            [0, 0, 2, 0, 0, 0, 2, 0, 2, 0]
        for argv, result in zip(sequence, in_process):
            fresh = subprocess.run(
                [sys.executable, "-W", "ignore", "-m", "oscbath.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120)
            assert result == (fresh.returncode, fresh.stdout, fresh.stderr), \
                argv

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        cli._build_parser.cache_clear()
        for _ in range(5):
            assert run(capsys, ["jfun", "1", "0"])[0] == 0
            assert run(capsys, ["jfun", "1", "0", "--terms", "x"])[0] == 2
            assert run(capsys, ["zeropoint", "--model", "srt", "--gamma", "1",
                                "--tau", "0.01"])[0] == 0
        assert built == ["oscbath", "oscbath sweep", "oscbath jfun",
                         "oscbath zeropoint"]


# stdout of four layouts (csv and json, reduced and SI units), pinned byte
# for byte: the series routes' values do not depend on the J engine, so a
# change of these bytes is a change of the renderer, of the config line or
# of the column order.
PINNED_COMMON = ("--theta-min", "0.05", "--theta-max", "5", "--points", "3",
                 "--log", "--method", "low_T_series,high_T_series")
PINNED_SWEEPS = [
    (('--model', 'qed', '--gamma', '0.1', '--omega-prime', '1e3', '--format', 'csv'), """\
theta,F,S,U,C,method,model
5.0000000000000003e-02,-1.3521696273268241e-06,1.1057800808881132e-04,4.1767307771137416e-06,3.4616065168242632e-04,low_T_series,qed
5.0000000000000003e-02,-2.4333274113261383e-01,-3.0043798175961257e+02,-1.5265231829113242e+01,3.6071452514181351e+03,high_T_series,qed
5.0000000000000000e-01,-7.3031534364236886e-02,8.2469606518043503e-01,3.3931649822598065e-01,3.9167509371405442e+00,low_T_series,qed
5.0000000000000000e-01,-7.0174383468604010e-02,4.3092565701323482e-01,1.4528844503801339e-01,6.5721857917703952e-01,high_T_series,qed
5.0000000000000000e+00,-6.0240153434611013e+04,7.2236501774342803e+04,3.0094235543710302e+05,3.6097577948295238e+05,low_T_series,qed
5.0000000000000000e+00,-7.2749899142814272e+00,2.0906712229075102e+00,3.1783662002561242e+00,4.6993109884734163e-01,high_T_series,qed
"""),
    (('--model', 'srt', '--gamma', '0.5', '--tau', '0.01', '--format', 'json'), """\
{
  "config": {"model": "srt", "gamma": 5.0000000000000000e-01, "tau": 1.0000000000000000e-02, "omega_prime": null, "theta_min": 5.0000000000000003e-02, "theta_max": 5.0000000000000000e+00, "points": 3, "log": true, "method": "low_T_series,high_T_series", "units": "reduced", "omega0_hz": null},
  "rows": [
    {"theta": 5.0000000000000003e-02, "F": -6.6071707383856353e-04, "S": 2.6684055501736432e-02, "U": 6.7348570124825817e-04, "C": 2.7742583791281701e-02, "method": "low_T_series", "model": "srt"},
    {"theta": 5.0000000000000003e-02, "F": -4.1171706662627749e+01, "S": -5.1082115014281999e+03, "U": -2.9658228173403774e+02, "C": 3.6549124613503278e+04, "method": "high_T_series", "model": "srt"},
    {"theta": 5.0000000000000000e-01, "F": -3.5615790458671676e-01, "S": 3.5133899566407343e+00, "U": 1.4005370737336504e+00, "C": 1.5572232986785847e+01, "method": "low_T_series", "model": "srt"},
    {"theta": 5.0000000000000000e-01, "F": -1.2125270739515434e-01, "S": 5.7217840659968000e-01, "U": 1.6483649590468566e-01, "C": 6.6874639200780162e-01, "method": "high_T_series", "model": "srt"},
    {"theta": 5.0000000000000000e+00, "F": -2.3208678420260779e+05, "S": 2.7826205102933437e+05, "U": 1.1592234709440642e+06, "C": 1.3903523681194640e+06, "method": "low_T_series", "model": "srt"},
    {"theta": 5.0000000000000000e+00, "F": -8.7548649579210522e+00, "S": 2.6270384838385659e+00, "U": 4.3803274612717775e+00, "C": 9.8154084959327703e-01, "method": "high_T_series", "model": "srt"}
  ]
}
"""),
    (('--model', 'ohmic', '--gamma', '1', '--format', 'csv', '--units', 'si', '--omega0-hz', '1e12'), """\
theta,T_kelvin,F,S,U,C,method,model
5.0000000000000003e-02,3.8191162887888230e-01,-1.3896422175514157e-25,7.3262038246509001e-25,1.4083202186197075e-25,7.5245128198255224e-25,low_T_series,ohmic
5.0000000000000003e-02,3.8191162887888230e-01,1.0640777573709542e-21,1.9470051772015912e-20,8.4999169439777201e-21,-1.5189842469651993e-19,high_T_series,ohmic
5.0000000000000000e-01,3.8191162887888228e+00,-3.5693525255701401e-23,3.6861447034399871e-23,1.0508462754170159e-22,1.3636486351592350e-22,low_T_series,ohmic
5.0000000000000000e-01,3.8191162887888228e+00,-1.7006028103294294e-23,9.2002543454364174e-24,1.8130813128362076e-23,8.7227740841540444e-24,high_T_series,ohmic
5.0000000000000000e+00,3.8191162887888225e+01,-1.2898547860224131e-17,2.0215176004892204e-18,6.4305560100792636e-17,1.0088272713376892e-17,low_T_series,ohmic
5.0000000000000000e+00,3.8191162887888225e+01,-9.4360674088363061e-22,3.6477456263759191e-23,4.4950973302141541e-22,1.3346098217625382e-23,high_T_series,ohmic
"""),
    (('--model', 'qed', '--gamma', '0.1', '--omega-prime', '1e3', '--format', 'json', '--units', 'si', '--omega0-hz', '2.5e13'), """\
{
  "config": {"model": "qed", "gamma": 1.0000000000000001e-01, "tau": null, "omega_prime": 1.0000000000000000e+03, "theta_min": 5.0000000000000003e-02, "theta_max": 5.0000000000000000e+00, "points": 3, "log": true, "method": "low_T_series,high_T_series", "units": "si", "omega0_hz": 2.5000000000000000e+13},
  "rows": [
    {"theta": 5.0000000000000003e-02, "T_kelvin": 9.5477907219720564e+00, "F": -3.5648999519556542e-27, "S": 1.5266941628980926e-27, "U": 1.1011656411851651e-26, "C": 4.7792635758469027e-27, "method": "low_T_series", "model": "qed"},
    {"theta": 5.0000000000000003e-02, "T_kelvin": 9.5477907219720564e+00, "F": -6.4152962737952798e-22, "S": -4.1479939907842738e-21, "U": -4.0245708167385458e-20, "C": 4.9802014842251974e-20, "method": "high_T_series", "model": "qed"},
    {"theta": 5.0000000000000000e-01, "T_kelvin": 9.5477907219720564e+01, "F": -1.9254249473197807e-22, "S": 1.1386157976953025e-23, "U": 8.9458404018062420e-22, "C": 5.4076582646121554e-23, "method": "low_T_series", "model": "qed"},
    {"theta": 5.0000000000000000e-01, "T_kelvin": 9.5477907219720564e+01, "F": -1.8500981770335122e-22, "S": 5.9495707742966570e-24, "U": 3.8304274868210601e-22, "C": 9.0738817412220056e-24, "method": "high_T_series", "model": "qed"},
    {"theta": 5.0000000000000000e+00, "T_kelvin": 9.5477907219720566e+02, "F": -1.5881892015974131e-16, "S": 9.9733253938244627e-19, "U": 7.9341331646391384e-16, "C": 4.9838084896735874e-18, "method": "low_T_series", "model": "qed"},
    {"theta": 5.0000000000000000e+00, "T_kelvin": 9.5477907219720566e+02, "F": -1.9179998331401095e-20, "S": 2.8864831332360310e-23, "U": 8.3795385472387159e-21, "C": 6.4880990169248340e-24, "method": "high_T_series", "model": "qed"}
  ]
}
"""),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("layout,expected", PINNED_SWEEPS)
    def test_sweep_stdout_is_pinned(self, capsys, layout, expected):
        code, out, _ = run(capsys, ["sweep", *layout, *PINNED_COMMON])
        assert code == 0
        assert out == expected
