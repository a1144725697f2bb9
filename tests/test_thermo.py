"""Tests for the thermodynamic functions.

The two exact routes (J-function closed form, spectral quadrature) act as
each other's oracle; series are checked against the exact routes at the
residual order they promise, and printed low-order truncations are
re-derived independently inside the tests.
"""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from oscbath import baths, thermo
from oscbath.baths import CanonicalBath, OhmicSpec, QEDSpec, SingleRelaxationSpec
from oscbath.quadrature import integrate_semi_infinite
from panels import panel

EULER_GAMMA = 0.5772156649015328606


def ohmic(gamma):
    return baths.canonicalize(OhmicSpec(gamma=gamma))


def uncoupled_free_energy(theta):
    return theta * math.log(-math.expm1(-1.0 / theta))


class TestFreeEnergyExact:
    @pytest.mark.parametrize("theta", [0.2, 1.0, 5.0])
    def test_uncoupled_limit(self, theta):
        value = thermo.free_energy_exact(ohmic(1e-8), theta)
        assert abs(value - uncoupled_free_energy(theta)) < 1e-6

    def test_vanishes_at_low_temperature(self):
        # all J arguments diverge, J -> 0 (no zero-point term here)
        assert abs(thermo.free_energy_exact(ohmic(1.0), 1e-5)) < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            thermo.free_energy_exact(ohmic(1.0), 0.0)

    @pytest.mark.parametrize("bath,theta", [
        (CanonicalBath(gamma=1.0), 1.0),
        (CanonicalBath(gamma=4.0), 0.5),      # overdamped, real roots
        (baths.canonicalize(QEDSpec(gamma=0.1, omega_prime=1e3)), 0.2),
        (baths.canonicalize(SingleRelaxationSpec(gamma=0.3, tau=0.1)), 0.3),
    ])
    def test_against_quadrature_route(self, bath, theta):
        a = thermo.free_energy_exact(bath, theta)
        b = thermo.free_energy_quadrature(bath, theta)
        assert abs(a - b) < 1e-8

    def test_overdamped_continuity(self):
        for theta in (0.02, 0.05):
            below = thermo.free_energy_exact(ohmic(2.0 - 1e-6), theta)
            above = thermo.free_energy_exact(ohmic(2.0 + 1e-6), theta)
            assert abs(below - above) < 1e-8

    def test_large_cutoff_qed_single_term(self):
        # Omega' infinite: only the Omega term contributes
        bath = baths.canonicalize(QEDSpec(gamma=0.1, omega_prime=math.inf))
        a = thermo.free_energy_exact(bath, 0.3)
        b = thermo.free_energy_quadrature(bath, 0.3)
        assert abs(a - b) < 1e-8


class TestThermoPoint:
    def test_uncoupled_entropy(self):
        # S = -log(1-e^{-1}) + 1/(e-1) at theta = 1 for a free oscillator
        expected = -math.log(-math.expm1(-1.0)) + 1.0 / (math.e - 1.0)
        point = thermo.thermo_point(ohmic(1e-8), 1.0)
        assert abs(point.S - expected) < 1e-5

    def test_energy_identity_with_independent_differencing(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            gamma = rng.uniform(0.1, 3.0)
            theta = rng.uniform(0.05, 5.0)
            bath = ohmic(gamma)
            point = thermo.thermo_point(bath, theta)
            # re-difference S by another scheme (central differences in
            # log theta, one Richardson level); U must still close
            u = math.log(theta)

            def slope(h):
                return (thermo.free_energy_exact(bath, math.exp(u + h))
                        - thermo.free_energy_exact(bath, math.exp(u - h))) / (2.0 * h)

            s_check = -(4.0 * slope(1e-3) - slope(2e-3)) / (3.0 * theta)
            assert abs(point.U - point.F - theta * s_check) < 1e-9

    def test_low_temperature_entropy_slope(self):
        point = thermo.thermo_point(ohmic(0.2), 0.02)
        leading = math.pi * 0.02 * 0.2 / 3.0
        assert abs(point.S - leading) / leading < 0.05

    def test_entropy_nonnegative(self):
        for theta in np.geomspace(1e-3, 20.0, 12):
            assert thermo.thermo_point(ohmic(1.0), float(theta)).S >= 0.0

    def test_quadrature_method(self):
        a = thermo.thermo_point(ohmic(1.0), 1.0, "exact_j")
        b = thermo.thermo_point(ohmic(1.0), 1.0, "exact_quadrature")
        assert abs(a.F - b.F) < 1e-8
        assert abs(a.S - b.S) < 1e-6
        assert b.method == "exact_quadrature"
        # U and C are spectral moments of their own on the quadrature
        # route, so they check the exact_j differencing independently
        for bath, theta in [
                (ohmic(1.0), 1.0),                    # underdamped
                (CanonicalBath(gamma=4.0), 0.5),      # overdamped
                (baths.canonicalize(QEDSpec(gamma=0.1, omega_prime=1e3)), 0.2)]:
            a = thermo.thermo_point(bath, theta, "exact_j")
            b = thermo.thermo_point(bath, theta, "exact_quadrature")
            assert abs(a.U - b.U) < 1e-8
            assert abs(a.C - b.C) < 1e-6

    @pytest.mark.parametrize("theta", [1e-4, 1e-5])
    def test_quadrature_free_energy_low_temperature(self, theta):
        # the thermal kernel lives on the scale theta; once it was missed
        # here and the route returned exactly 0.0
        expected = -math.pi * theta**2 / 6.0
        value = thermo.free_energy_quadrature(ohmic(1.0), theta)
        series = thermo.ohmic_low_temperature(theta, 1.0).F
        assert value != 0.0
        assert abs(value - expected) / abs(expected) < 1e-6
        assert abs(value - series) <= 1e-12 * abs(series)

    def test_quadrature_tiny_values_keep_relative_accuracy(self):
        # F ~ -5e-15 here, far below the default absolute tolerance
        gamma, theta = 1e-6, 1e-4
        point = thermo.thermo_point(ohmic(gamma), theta, "exact_quadrature")
        series = thermo.ohmic_low_temperature(theta, gamma)
        for name in ("F", "S", "U", "C"):
            value, reference = getattr(point, name), getattr(series, name)
            assert abs(value - reference) <= 1e-10 * abs(reference), name

    @pytest.mark.parametrize("theta", [1e-13, 1e-14])
    def test_tiny_theta_matches_low_temperature_series(self, theta):
        # nothing is differenced, so tiny temperatures work: the theta^4
        # terms are ~1e-26 of the theta^2 terms here
        point = thermo.thermo_point(ohmic(1.0), theta)
        series = thermo.ohmic_low_temperature(theta, 1.0)
        for name in ("F", "S", "U", "C"):
            value, reference = getattr(point, name), getattr(series, name)
            assert abs(value - reference) <= 1e-14 * abs(reference), name

    def test_subnormal_theta_raises(self):
        # 2 pi x = c/theta overflows below the smallest normal float: an
        # error, not a nan
        for route in (thermo.thermo_point, thermo.free_energy_exact):
            for bath in (ohmic(1.0), ohmic(1e-8)):
                with pytest.raises(ValueError, match="subnormal"):
                    route(bath, 1e-309)

    @pytest.mark.parametrize("bath", [
        ohmic(1.0),
        baths.canonicalize(SingleRelaxationSpec(gamma=0.5, tau=0.01)),
        baths.canonicalize(QEDSpec(gamma=0.1, omega_prime=1e3)),
        baths.canonicalize(QEDSpec(gamma=10.0, omega_prime=1e3)),   # overdamped
    ])
    def test_theta_too_large_raises_naming_it(self, bath):
        # F = theta G overflows from theta ~ 2.6e305, and 2 pi theta from
        # ~2.9e307: an error that names theta, not -inf or "z = 0"
        routes = (thermo.thermo_point, thermo.free_energy_exact,
                  lambda bath, theta: thermo.sweep(bath, [1.0, theta]))
        for theta, error in ((3e305, OverflowError), (1e307, OverflowError),
                             (1.7e308, ValueError)):
            for route in routes:
                with pytest.raises(error, match=re.escape(f"theta = {theta!r}")):
                    route(bath, theta)
        point = thermo.thermo_point(bath, 1e305)
        assert all(math.isfinite(v) for v in (point.F, point.S, point.U, point.C))
        assert thermo.free_energy_exact(bath, 1e305) == point.F

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            thermo.thermo_point(ohmic(1.0), 1.0, "series")
        with pytest.raises(ValueError):
            thermo.sweep(ohmic(1.0), [1.0], "series")


# Baths for the sweep equivalence: every model, underdamped and overdamped,
# critical damping, and the overdamped blackbody bath whose Omega pair (Omega
# and the smaller root) is differenced from its gap at some temperatures
# and summed term by term where its arguments lie astride the series switch
# (theta ~ 0.2 to 0.23 here).
SWEEP_BATHS = [
    ohmic(0.3), ohmic(2.0), ohmic(40.0),
    baths.canonicalize(SingleRelaxationSpec(gamma=0.5, tau=0.01)),
    baths.canonicalize(SingleRelaxationSpec(gamma=2.0, tau=1e-3)),
    baths.canonicalize(QEDSpec(gamma=0.1, omega_prime=1e3)),
    baths.canonicalize(QEDSpec(gamma=2.0, omega_prime=1e6)),
    baths.canonicalize(QEDSpec(gamma=0.1, omega_prime=math.inf)),
    baths.canonicalize(QEDSpec(gamma=2.1, omega_prime=1.0)),
]
SWEEP_THETAS = [1e-4, 0.01, 0.1, 0.21, 0.22, 0.5, 3.0]


class TestSweep:
    @pytest.mark.parametrize("method", ["exact_j", "exact_quadrature"])
    @pytest.mark.parametrize("bath", SWEEP_BATHS)
    def test_sweep_is_thermo_point_bit_for_bit(self, bath, method):
        points = thermo.sweep(bath, SWEEP_THETAS, method)
        assert points == [thermo.thermo_point(bath, theta, method)
                          for theta in SWEEP_THETAS]

    @pytest.mark.parametrize("method, thetas", [
        ("low_T_series", [1e-4, 0.01, 0.1]),
        ("high_T_series", [0.5, 3.0, 40.0]),
    ])
    @pytest.mark.parametrize("bath", SWEEP_BATHS)
    def test_series_sweep_is_series_point(self, bath, method, thetas):
        regime = method.removesuffix("_series")
        points = thermo.sweep(bath, thetas, method)
        assert points == [thermo.series_point(bath, theta, regime)
                          for theta in thetas]
        assert points == [thermo.thermo_point(bath, theta, method)
                          for theta in thetas]

    def test_gap_pair_on_both_sides_of_its_switch(self, monkeypatch):
        bath = SWEEP_BATHS[-1]
        differenced = []
        for name in ("_series_difference", "_remainder_difference"):
            original = getattr(thermo, name)

            def counting(*args, original=original):
                differenced[-1] = True
                return original(*args)

            monkeypatch.setattr(thermo, name, counting)
        for theta in SWEEP_THETAS:
            differenced.append(False)
            thermo.thermo_point(bath, theta)
        assert True in differenced and False in differenced

    def test_names_the_first_failing_theta_of_either_kind(self):
        # F = theta G overflows at 1e307 only once the jet is formed, while
        # 2 pi theta overflows at 1.7e308 before any jet is: the list
        # raises what thermo_point raises at its first failing theta, in
        # either order
        bath = SWEEP_BATHS[5]
        for thetas, error in (([1.0, 1e307, 1.7e308], OverflowError),
                              ([1.0, 1.7e308, 1e307], ValueError)):
            with pytest.raises(error, match=re.escape(
                    f"theta = {thetas[1]!r} ")):
                thermo.sweep(bath, thetas)
            with pytest.raises(error, match=re.escape(
                    f"theta = {thetas[1]!r} ")):
                thermo.thermo_point(bath, thetas[1])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e-309])
    def test_rejects_a_bad_theta_in_any_position(self, bad):
        # a subnormal theta is the exact_j route's own limit
        methods = ["exact_j"] if bad == 1e-309 else thermo.METHODS
        for method in methods:
            for thetas in ([bad], [bad, 1.0], [1.0, 2.0, bad]):
                with pytest.raises(ValueError):
                    thermo.sweep(ohmic(1.0), thetas, method)
            with pytest.raises(ValueError):
                thermo.thermo_point(ohmic(1.0), bad, method)


def printed_low_t(theta, a, b, c):
    """F, S, U and C of the printed low-temperature series whose theta^2,
    theta^4 and theta^6 terms of F are -pi a/6, -pi^3 b/45 and
    -8 pi^5 c/315, in exact rationals (pi as its float)."""
    pi, t = Fraction(math.pi), Fraction(theta)
    return {
        "F": -(pi * t**2 * a / 6 + pi**3 * t**4 * b / 45
               + 8 * pi**5 * t**6 * c / 315),
        "S": (pi * t * a / 3 + 4 * pi**3 * t**3 * b / 45
              + 16 * pi**5 * t**5 * c / 105),
        "U": (pi * t**2 * a / 6 + pi**3 * t**4 * b / 15
              + 8 * pi**5 * t**6 * c / 63),
        "C": (pi * t * a / 3 + 4 * pi**3 * t**3 * b / 15
              + 16 * pi**5 * t**5 * c / 21),
    }


class TestOhmicLowTemperature:
    def test_gamma_zero_vanishes(self):
        point = thermo.ohmic_low_temperature(0.1, 0.0)
        assert point.F == point.S == point.U == point.C == 0.0

    @pytest.mark.parametrize("theta, series", [
        (1e52, thermo.ohmic_low_temperature),
        (1e70, thermo.ohmic_low_temperature),
        (1e77, thermo.qed_low_temperature),
        (1e154, thermo.qed_low_temperature)])
    def test_overflow_names_theta(self, series, theta):
        # Ohmic: F = theta G overflows at 1e52, theta^5 in G at 1e70; the
        # point-electron series at gamma = 1 has no theta^2 or theta^6 term,
        # so U = theta A overflows from ~7.3e76, (2 pi theta)^2 in G from
        # ~2.1e153
        with pytest.raises(OverflowError, match=re.escape(
                f"theta = {theta!r} is out of the range of the low_T_series")):
            series(theta, 1.0)

    @pytest.mark.parametrize("series, theta, a, b, c", [
        pytest.param(thermo.ohmic_low_temperature, 1e51, 1, 2, 1,
                     id="ohmic_low_temperature-1"),
        pytest.param(thermo.qed_low_temperature, 1e76, 0, 3, 0,
                     id="qed_low_temperature-0")])
    def test_finite_up_to_the_overflow(self, series, theta, a, b, c):
        # a decade below the overflow (the Ohmic F is ~-7.8e306 at 1e51, the
        # point electron's U ~6.2e304 at 1e76): the printed truncation,
        # evaluated in exact rationals (pi as its float), to 4 ulps.  At
        # gamma = 1 the coefficients a, b, c of theta^2, theta^4, theta^6
        # are gamma, gamma(3 - gamma^2), gamma(5 - 5 gamma^2 + gamma^4) for
        # the Ohmic bath, and 0, 3 gamma, 5 gamma(1 - gamma^2) for the point
        # electron
        point = series(theta, 1.0)
        for name, want in printed_low_t(theta, a, b, c).items():
            got = getattr(point, name)
            assert abs(Fraction(got) - want) <= 4 * math.ulp(float(want)), name

    @pytest.mark.parametrize("gamma", [1e-3, 1e-2, 0.1, 0.5, 1.0, 1.7, 1.9,
                                       2.0, 2.5, 4.0, 10.0])
    def test_the_printed_polynomial(self, gamma):
        # the route sums the power sums of the roots; the paper prints the
        # polynomials in gamma, the reference here
        g = Fraction(gamma)
        table = (g, g * (3 - g * g), g * (5 - 5 * g * g + g**4))
        for n_terms in (1, 2, 3):
            coefficients = table[:n_terms] + (0,) * (3 - n_terms)
            for theta in (1e-4, 1e-3, 1e-2):
                point = thermo.ohmic_low_temperature(theta, gamma, n_terms)
                for name, want in printed_low_t(theta,
                                                *coefficients).items():
                    got = Fraction(getattr(point, name))
                    assert abs(got - want) <= 1e-15 * abs(want), (
                        n_terms, theta, name)

    def test_leading_entropy_coefficient(self):
        # S = pi theta gamma / 3 at first order
        point = thermo.ohmic_low_temperature(0.01, 0.7, 1)
        assert abs(point.S - math.pi * 0.01 * 0.7 / 3.0) < 1e-18

    def test_residual_order(self):
        # truncation at n terms leaves a theta^(2n+2) residual
        gamma = 0.5
        bath = ohmic(gamma)
        theta = 0.05
        exact = thermo.free_energy_exact(bath, theta)
        series = thermo.ohmic_low_temperature(theta, gamma, 3)
        next_scale = 16.0 * math.pi**7 * theta**8   # coefficient O(gamma)
        assert abs(series.F - exact) < next_scale

    def test_thermodynamic_consistency(self):
        # U = F + theta S and C = theta dS/dtheta hold term by term
        theta, gamma, h = 0.03, 0.8, 1e-6
        point = thermo.ohmic_low_temperature(theta, gamma)
        assert abs(point.U - point.F - theta * point.S) < 1e-15
        s_plus = thermo.ohmic_low_temperature(theta + h, gamma).S
        s_minus = thermo.ohmic_low_temperature(theta - h, gamma).S
        assert abs(point.C - theta * (s_plus - s_minus) / (2 * h)) < 1e-8

    def test_term_budget(self):
        with pytest.raises(ValueError):
            thermo.ohmic_low_temperature(0.1, 1.0, 4)


class TestOhmicHighTemperature:
    @pytest.mark.parametrize("theta", [1e-46, 1e-300, 1e306])
    def test_overflow_names_theta(self, theta):
        # powers of 1/(2 pi theta) overflow at tiny theta, theta log theta
        # at huge theta
        with pytest.raises(OverflowError, match=re.escape(f"theta = {theta!r}")):
            thermo.ohmic_high_temperature(theta, 1.0)

    def test_gamma_zero_is_the_uncoupled_limit(self):
        # the arc term omega1 arccos(gamma/2) takes its limit pi/2; roots()
        # raised at gamma = 0
        point = thermo.ohmic_high_temperature(3.0, 0.0)
        assert abs(point.F - (-3.7819608145168244)) <= 1e-15
        assert point.F == thermo.ohmic_high_temperature(3.0, 1e-300).F

    def test_resums_to_uncoupled_oscillator(self):
        for theta in (0.3, 1.0):
            point = thermo.ohmic_high_temperature(theta, 1e-12, 40)
            assert abs(point.F - uncoupled_free_energy(theta)) < 1e-11

    def test_printed_truncations(self):
        # the two-term truncations written out with zeta(2), zeta(3)
        theta, gamma = 0.9, 1.3
        omega1 = math.sqrt(1.0 - gamma**2 / 4.0)
        arc = omega1 * math.acos(gamma / 2.0)
        z3 = 1.2020569031595942854
        log_2pt = math.log(2.0 * math.pi * theta)
        f_printed = (-theta * math.log(theta) - gamma / (2 * math.pi) * log_2pt
                     - arc / math.pi - gamma / (2 * math.pi) * (1 - EULER_GAMMA)
                     + (2.0 - gamma**2) / (48.0 * theta)
                     - z3 * gamma * (3.0 - gamma**2) / (24.0 * math.pi**3 * theta**2))
        s_printed = (math.log(theta) + 1.0 + gamma / (2 * math.pi * theta)
                     + (2.0 - gamma**2) / (48.0 * theta**2)
                     - z3 * gamma * (3.0 - gamma**2) / (12.0 * math.pi**3 * theta**3))
        u_printed = (theta - gamma / (2 * math.pi) * (log_2pt - EULER_GAMMA)
                     - arc / math.pi + (2.0 - gamma**2) / (24.0 * theta)
                     - z3 * gamma * (3.0 - gamma**2) / (8.0 * math.pi**3 * theta**2))
        c_printed = (1.0 - gamma / (2 * math.pi * theta)
                     - (2.0 - gamma**2) / (24.0 * theta**2)
                     + z3 * gamma * (3.0 - gamma**2) / (4.0 * math.pi**3 * theta**3))
        point = thermo.ohmic_high_temperature(theta, gamma, 2)
        assert abs(point.F - f_printed) < 1e-13
        assert abs(point.S - s_printed) < 1e-13
        assert abs(point.U - u_printed) < 1e-13
        assert abs(point.C - c_printed) < 1e-13

    def test_against_exact_route(self):
        point = thermo.ohmic_high_temperature(5.0, 1.0, 6)
        exact = thermo.thermo_point(ohmic(1.0), 5.0)
        assert abs(point.F - exact.F) < 1e-6 * abs(exact.F)
        assert abs(point.C - exact.C) < 1e-6

    def test_classical_limit(self):
        point = thermo.ohmic_high_temperature(200.0, 1.0, 6)
        assert abs(point.C - 1.0) < 1e-3
        assert abs(point.U / 200.0 - 1.0) < 0.01

    def test_equipartition_approached_from_below(self):
        for theta in (5.0, 20.0, 80.0):
            assert thermo.ohmic_high_temperature(theta, 1.0, 6).C < 1.0

    def test_overdamped_prescription_continuous(self):
        below = thermo.ohmic_high_temperature(2.0, 2.0 - 1e-7, 6)
        above = thermo.ohmic_high_temperature(2.0, 2.0 + 1e-7, 6)
        assert abs(below.F - above.F) < 1e-7

    def test_overdamped_against_exact(self):
        point = thermo.ohmic_high_temperature(5.0, 4.0, 6)
        exact = thermo.thermo_point(ohmic(4.0), 5.0)
        assert abs(point.F - exact.F) < 1e-5 * abs(exact.F)


class TestQEDSeries:
    def test_gamma_zero(self):
        low = thermo.qed_low_temperature(0.1, 0.0)
        assert low.F == low.S == low.U == low.C == 0.0
        high = thermo.qed_high_temperature(3.0, 0.0)
        assert abs(high.F - (-3.0 * math.log(3.0))) < 1e-15

    def test_low_t_theta2_cancellation_witnessed_exactly(self):
        # F_qed - F_ohmic = + pi theta^2 gamma / 6 from the exact routes
        gamma, theta = 0.1, 0.02
        qed = baths.canonicalize(QEDSpec(gamma=gamma, omega_prime=1e6))
        difference = (thermo.free_energy_exact(qed, theta)
                      - thermo.free_energy_exact(ohmic(gamma), theta))
        expected = math.pi * theta**2 * gamma / 6.0
        assert abs(difference - expected) / expected < 0.01

    def test_low_t_against_exact(self):
        gamma, theta = 0.1, 0.02
        qed = baths.canonicalize(QEDSpec(gamma=gamma, omega_prime=1e6))
        exact = thermo.free_energy_exact(qed, theta)
        series = thermo.qed_low_temperature(theta, gamma, 2)
        # residual: next series order plus the finite-cutoff remainder
        assert abs(series.F - exact) < 1e-9

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 1.9])
    def test_low_t_is_the_point_electron_series(self, gamma):
        # the Ohmic table gamma(3 - gamma^2) in place of 3 gamma was 0.33
        # off at gamma = 1 and had the wrong sign of F at 1.9
        bath = baths.canonicalize(QEDSpec(gamma=gamma, omega_prime=math.inf))
        exact = thermo.thermo_point(bath, 1e-3)
        series = thermo.qed_low_temperature(1e-3, gamma, 2)
        for name in "FSUC":
            want = getattr(exact, name)
            assert abs(getattr(series, name) - want) <= 1e-7 * abs(want), name

    def test_high_t_printed_forms(self):
        theta, gamma = 20.0, 0.01
        point = thermo.qed_high_temperature(theta, gamma)
        assert abs(point.F - (-theta * math.log(theta)
                              + math.pi * theta**2 * gamma / 6.0)) < 1e-12
        assert abs(point.S - (math.log(theta) + 1.0
                              - math.pi * theta * gamma / 3.0)) < 1e-12
        assert abs(point.U - (theta - math.pi * theta**2 * gamma / 3.0)) < 1e-12
        assert abs(point.C - (1.0 - 2.0 * math.pi * theta * gamma / 3.0)) < 1e-12

    def test_high_t_against_exact_to_dropped_order(self):
        # the printed truncation drops the O(hbar omega0) arc term and the
        # gamma log theta terms; the residual must sit at that scale
        theta, gamma = 20.0, 0.01
        qed = baths.canonicalize(QEDSpec(gamma=gamma, omega_prime=1e6))
        point = thermo.qed_high_temperature(theta, gamma)
        omega1 = math.sqrt(1.0 - gamma**2 / 4.0)
        dropped = (omega1 * math.acos(gamma / 2.0) / math.pi
                   + gamma / (2.0 * math.pi)
                   * (math.log(2.0 * math.pi * theta) + 1.0 - EULER_GAMMA))
        exact_f = thermo.free_energy_exact(qed, theta)
        assert abs(point.F - exact_f) < 1.2 * dropped
        # U drops additionally the pi theta^2 gamma/6 closure term
        exact = thermo.thermo_point(qed, theta)
        u_dropped = dropped + math.pi * theta**2 * gamma / 6.0
        assert abs(point.U - exact.U) < 1.2 * u_dropped

    def test_printed_truncation_orders_do_not_close(self):
        # U - F - theta S = -pi theta^2 gamma/6 for the printed forms:
        # they are truncations at different orders of one expansion
        theta, gamma = 5.0, 0.2
        point = thermo.qed_high_temperature(theta, gamma)
        gap = point.U - point.F - theta * point.S
        assert abs(gap + math.pi * theta**2 * gamma / 6.0) < 1e-12


def cutoff_shift(bath, theta):
    """The finite-cutoff shift of F/theta away from the Ohmic series,
    pi theta (1/Omega - 1/Omega')/6, rounded as series_point rounds it."""
    return math.pi / 6.0 * (1.0 / bath.Omega - 1.0 / bath.OmegaPrime) * theta


def low_t_cutoff_terms(bath, theta):
    """What the cutoffs add to the Ohmic low-temperature F through theta^6:
    theta times cutoff_shift, then the terms of sigma J(c/(2 pi theta))
    for c = Omega (sigma = +1) and Omega' (sigma = -1) in the theta^4 and
    theta^6 terms -(pi^3 theta^4/45) sum sigma c^-3 and
    (8 pi^5 theta^6/315) sum sigma c^-5 of F."""
    q, p = 1.0 / bath.Omega, 1.0 / bath.OmegaPrime
    return (theta * cutoff_shift(bath, theta)
            - math.pi**3 * theta**4 / 45.0 * (q**3 - p**3)
            + 8.0 * math.pi**5 * theta**6 / 315.0 * (q**5 - p**5))


class TestCutoffCorrection:
    """The finite-cutoff correction of the series route, which
    series_point applies inline."""

    @pytest.mark.parametrize("theta", [0.5, 1e200])
    def test_ohmic_is_zero(self, theta):
        # exactly the Ohmic series, also where theta^2 overflows
        point = thermo.series_point(ohmic(1.0), theta, "high_T")
        assert point == thermo.ohmic_high_temperature(theta, 1.0)

    def test_qed_value(self):
        # the blackbody static weight 0 cancels the Ohmic theta^2 term, a
        # shift of + pi theta^2 gamma / 6, and the cutoffs add their powers
        # to the theta^4 and theta^6 terms
        bath = baths.canonicalize(QEDSpec(gamma=0.1, omega_prime=1e3))
        theta = 0.03
        ohmic_F = thermo.ohmic_low_temperature(theta, 0.1).F
        point = thermo.series_point(bath, theta, "low_T")
        shift = point.F - ohmic_F
        expected = low_t_cutoff_terms(bath, theta)
        assert abs(expected - math.pi * theta**2 * 0.1 / 6.0) < 1e-4 * expected
        assert abs(shift - expected) <= 1e-15 * abs(ohmic_F)

    def test_srt_small_and_negative(self):
        bath = CanonicalBath(gamma=1.0, Omega=100.0, OmegaPrime=99.0,
                             relation="relaxation")
        theta = 0.3
        value = cutoff_shift(bath, theta)
        expected = math.pi * theta / 6.0 * (1.0 / 100.0 - 1.0 / 99.0)
        assert abs(value - expected) < 1e-18
        assert value < 0.0
        # the shift enters the jet of F/theta as (value, -value, 2 value)
        G, A, B = thermo._ohmic_high_t_jet(theta, 1.0, 6)
        point = thermo.series_point(bath, theta, "high_T")
        assert point == thermo._point(theta, G + value, A - value,
                                      B + 2.0 * value, "high_T_series")
        want = thermo.ohmic_high_temperature(theta, 1.0).F + theta * value
        assert abs(point.F - want) <= 4 * math.ulp(want)


class TestZeroPoint:
    def test_free_oscillator_limit(self):
        bath = baths.canonicalize(SingleRelaxationSpec(gamma=1e-9, tau=1e-4))
        assert abs(thermo.zero_point(bath) - 0.5) < 1e-6

    def test_against_quadrature_oracle(self):
        bath = baths.canonicalize(SingleRelaxationSpec(gamma=1.0, tau=0.01))
        closed = thermo.zero_point(bath)

        def integrand(w):
            return (w * baths.free_energy_integrand(bath, w) / (2.0 * math.pi),)

        (oracle,) = integrate_semi_infinite(panel(integrand)).value
        assert abs(closed - oracle) < 1e-8

    def test_zero_temperature_limit_of_modified_integrand(self):
        # adding hbar w/2 to the thermal factor and letting theta -> 0
        # reproduces the closed form
        bath = baths.canonicalize(SingleRelaxationSpec(gamma=1.0, tau=0.01))
        theta = 1e-3

        def integrand(w):
            thermal = theta * math.log(-math.expm1(-w / theta)) + 0.5 * w
            return (thermal * baths.free_energy_integrand(bath, w) / math.pi,)

        (total,) = integrate_semi_infinite(panel(integrand)).value
        assert abs(total - thermo.zero_point(bath)) < 2e-6

    def test_relaxation_relation_to_rounding_is_finite(self):
        # a hand-built bath with Omega = Omega' + gamma that states it
        bath = CanonicalBath(gamma=1.0, Omega=100.0, OmegaPrime=99.0,
                             relation="relaxation")
        srt = baths.canonicalize(SingleRelaxationSpec(gamma=1.0, tau=0.01))
        assert thermo.zero_point(bath) == thermo.zero_point(srt)

    def test_ohmic_diverges(self):
        with pytest.raises(thermo.DivergenceError, match="asymptotic"):
            thermo.zero_point(ohmic(1.0))

    def test_qed_diverges_any_cutoff(self):
        for omega_prime in (10.0, 1e3, 1e9):
            bath = baths.canonicalize(QEDSpec(gamma=0.1, omega_prime=omega_prime))
            with pytest.raises(thermo.DivergenceError, match="QED"):
                thermo.zero_point(bath)
        bath = baths.canonicalize(QEDSpec(gamma=0.1, omega_prime=math.inf))
        with pytest.raises(thermo.DivergenceError, match="QED"):
            thermo.zero_point(bath)


class TestZeroPointAsymptotic:
    def test_free_oscillator_limit(self):
        value = thermo.zero_point_ohmic_asymptotic(1e-12, 1e-5)
        assert abs(value - 0.5) < 1e-9

    def test_gamma_zero_is_half_a_quantum(self):
        assert thermo.zero_point_ohmic_asymptotic(0.0, 1e-3) == 0.5

    def test_logarithmic_scaling(self):
        gamma = 1.7
        step = (thermo.zero_point_ohmic_asymptotic(gamma, 1e-6)
                - thermo.zero_point_ohmic_asymptotic(gamma, 1e-5))
        assert abs(step - gamma * math.log(10.0) / (2.0 * math.pi)) < 1e-12

    def test_asymptotic_to_exact_gap_shrinks(self):
        gaps = []
        for tau in (1e-3, 1e-5, 1e-7):
            bath = baths.canonicalize(SingleRelaxationSpec(gamma=1.0, tau=tau))
            gaps.append(abs(thermo.zero_point(bath)
                            - thermo.zero_point_ohmic_asymptotic(1.0, tau)))
        assert gaps[0] > gaps[1] > gaps[2]


class TestSeriesPoint:
    """series_point takes its series from the bath's gamma, cutoffs and
    static weight, not from its model."""

    def test_unknown_regime(self):
        with pytest.raises(ValueError, match="mid_T"):
            thermo.series_point(ohmic(1.0), 0.05, "mid_T")

    @pytest.mark.parametrize("regime", ["low_T", "high_T"])
    @pytest.mark.parametrize("theta", [-0.01, 0.0, math.nan, math.inf])
    def test_theta_is_checked(self, regime, theta):
        # as sweep checks it, before any series term
        message = re.escape(f"theta must be finite and > 0 (got {theta!r})")
        with pytest.raises(ValueError, match=message):
            thermo.series_point(ohmic(1.0), theta, regime)
        with pytest.raises(ValueError, match=message):
            thermo.sweep(ohmic(1.0), [0.1, theta], f"{regime}_series")

    @pytest.mark.parametrize("series", [
        thermo.ohmic_low_temperature, thermo.qed_low_temperature,
        thermo.ohmic_high_temperature, thermo.qed_high_temperature])
    @pytest.mark.parametrize("theta, gamma", [
        (-1.0, 0.1), (0.0, 0.1), (math.nan, 0.1), (math.inf, 0.1),
        (0.1, -1.0), (0.1, math.nan), (0.1, math.inf)])
    def test_printed_series_check_their_inputs(self, series, theta, gamma):
        name, value = ("theta", theta) if theta != 0.1 else ("gamma", gamma)
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be finite and ") + ".* " + re.escape(
                f"(got {value!r})")):
            series(theta, gamma)

    def test_regime_warnings_advisory(self, recwarn):
        # no regime is checked, and nothing warns on either side of it
        thermo.series_point(ohmic(1.0), 1.0, "low_T")
        thermo.series_point(ohmic(1.0), 0.01, "high_T")
        assert len(recwarn) == 0

    @pytest.mark.parametrize("regime, theta, series", [
        ("low_T", 0.05, thermo.ohmic_low_temperature),
        ("high_T", 3.0, thermo.ohmic_high_temperature),
    ])
    def test_ohmic_bath_takes_the_ohmic_series(self, regime, theta, series):
        point = thermo.series_point(ohmic(0.3), theta, regime)
        assert point == series(theta, 0.3)

    @pytest.mark.parametrize("spec", [
        QEDSpec(gamma=0.3, omega_prime=1e3),
        QEDSpec(gamma=1.5, omega_prime=25.0),
        QEDSpec(gamma=0.3, omega_prime=math.inf),
    ])
    @pytest.mark.parametrize("regime, theta, series", [
        ("low_T", 0.05, thermo.qed_low_temperature),
        ("high_T", 3.0, thermo.qed_high_temperature),
    ])
    def test_blackbody_bath_takes_the_qed_series(self, spec, regime, theta,
                                                 series):
        # low T: the Ohmic table plus the cutoffs' terms, at Omega' = inf
        # the printed QED table; high T: the Ohmic series plus the cutoffs'
        # shift, which on the blackbody relation is the theta^2 term of the
        # printed QED series, pi theta^2 gamma/6
        bath = baths.canonicalize(spec)
        point = thermo.series_point(bath, theta, regime)
        if regime == "low_T":
            # the two parts cancel down to the theta^4 term
            ohmic_F = thermo.ohmic_low_temperature(theta, spec.gamma).F
            want = ohmic_F + low_t_cutoff_terms(bath, theta)
            assert abs(point.F - want) <= 1e-15 * abs(ohmic_F)
            if spec.omega_prime == math.inf:
                assert point == series(theta, spec.gamma)
            return
        value = cutoff_shift(bath, theta)
        printed = series(theta, spec.gamma)
        term = printed.F - series(theta, spec.gamma, 1).F
        assert abs(theta * value - term) <= 4 * math.ulp(printed.F)
        G, A, B = thermo._ohmic_high_t_jet(theta, spec.gamma, 6)
        assert point == thermo._point(theta, G + value, A - value,
                                      B + 2.0 * value, "high_T_series")

    @pytest.mark.parametrize("gamma", [1e-4, 1e-3])
    @pytest.mark.parametrize("omega_prime", [1e5, 1e6, math.inf])
    @pytest.mark.parametrize("theta", [3.0, 10.0])
    def test_blackbody_high_t_against_exact(self, gamma, omega_prime, theta):
        # the printed two-term QED series was 0.19 off in U (relative)
        # here: it drops the arc and gamma log theta terms
        bath = baths.canonicalize(QEDSpec(gamma=gamma,
                                          omega_prime=omega_prime))
        point = thermo.series_point(bath, theta, "high_T")
        exact = thermo.thermo_point(bath, theta)
        for name in "FSUC":
            want = getattr(exact, name)
            assert abs(getattr(point, name) - want) <= 2e-5 * abs(want), name

    @pytest.mark.parametrize("regime, theta, series", [
        ("low_T", 0.05, thermo.ohmic_low_temperature),
        ("high_T", 3.0, thermo.ohmic_high_temperature),
    ])
    def test_relaxation_bath_corrects_the_ohmic_series(self, regime, theta,
                                                       series):
        # the low-T table folds the shift into its theta^2 coefficient, the
        # static weight, and the cutoffs' powers into the theta^4 and
        # theta^6 terms; the high-T route adds the shift to the Ohmic series
        for tau in (0.01, 0.1):
            bath = baths.canonicalize(SingleRelaxationSpec(gamma=1.0, tau=tau))
            point = thermo.series_point(bath, theta, regime)
            delta = theta * cutoff_shift(bath, theta)
            assert delta < 0.0
            want = series(theta, 1.0).F + delta
            if regime == "low_T":
                want = series(theta, 1.0).F + low_t_cutoff_terms(bath, theta)
                assert abs(point.F - want) <= 1e-15 * abs(want)
            else:
                assert abs(point.F - want) <= 4 * math.ulp(want)

    @pytest.mark.parametrize("spec", [
        SingleRelaxationSpec(gamma=1.0, tau=0.1),
        QEDSpec(gamma=1.0, omega_prime=1e3),
    ], ids=repr)
    def test_high_temperature_overflow_names_theta(self, spec):
        # the cutoff shift and the QED theta^2 term leave the float range
        # here: the rows were -inf, inf, nan and inf
        bath = baths.canonicalize(spec)
        with pytest.raises(OverflowError, match=re.escape("theta = 1e+200")):
            thermo.series_point(bath, 1e200, "high_T")

    def test_series_point_closes_thermodynamically(self):
        bath = baths.canonicalize(SingleRelaxationSpec(gamma=1.0, tau=0.01))
        point = thermo.series_point(bath, 0.05, "low_T")
        assert abs(point.U - point.F - 0.05 * point.S) < 1e-15

    @pytest.mark.parametrize("t, bound", [(0.1, 5e-4), (0.05, 3e-5)])
    def test_low_t_series_of_every_bath_against_exact(self, t, bound):
        # t = 2 pi theta/least sets the truncation: the first omitted term
        # of F/theta is A_3 t^7 P_3; the Ohmic table that every bath took
        # read 33 off here (QED gamma = 10, Omega' = 1e3)
        gammas = [1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0, 2.0, 3.0, 10.0]
        grid = [ohmic(gamma) for gamma in gammas]
        for gamma in gammas:
            for prime in (1e-2, 0.1, 1.0, 10.0, 1e2, 1e3):
                grid.append(baths.canonicalize(QEDSpec(gamma, prime)))
                grid.append(CanonicalBath(gamma=gamma, Omega=prime + gamma,
                                          OmegaPrime=prime,
                                          relation="relaxation"))
        for bath in grid:
            theta = t * thermo._plan(bath).least / (2.0 * math.pi)
            point = thermo.series_point(bath, theta, "low_T")
            exact = thermo.thermo_point(bath, theta)
            for name in "FSUC":
                want = getattr(exact, name)
                assert abs(getattr(point, name) - want) <= bound * abs(want), \
                    (bath, name)


def closed_form_reference(model, gamma, theta, tau=None, omega_prime=None,
                          digits=None):
    """F, S, U, C from the closed form (mpmath), with the cutoffs derived
    exactly from the native parameters:

        F = theta G,  S = A - G,  U = theta A,  C = -B

    with G, A, B the signed sums of J(x), x J'(x), x^2 J''(x).  The
    precision grows with log(1/theta): log Gamma cancels more digits as the
    arguments grow, and the sums cancel like theta^2 (theta^4 for the
    blackbody bath), so 50 digits are too few below theta ~ 1e-8.
    ``digits`` sets the precision instead."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits or 50 + 8 * max(0, round(-math.log10(theta)))):
        g, th = mp.mpf(gamma), mp.mpf(theta)
        disc = 1 - g * g / 4
        if disc > 0:
            terms = [(-2, mp.mpc(g / 2, mp.sqrt(disc)))]
        else:
            larger = g / 2 + mp.sqrt(-disc)
            terms = [(-1, 1 / larger), (-1, larger)]
        if model == "srt":
            big = 1 / mp.mpf(tau)
            terms += [(1, big), (-1, big - g)]
        elif model == "qed":
            prime = mp.mpf(omega_prime)
            terms += [(1, 1 / (1 / prime + g))]
            if mp.isfinite(prime):      # J vanishes at an infinite argument
                terms.append((-1, prime))
        G = A = B = mp.mpf(0)
        for sign, c in terms:
            x = c / (2 * mp.pi * th)
            j0 = mp.loggamma(x + 1) - mp.log(2 * mp.pi) / 2 - (x + mp.mpf(1) / 2) * mp.log(x) + x
            j1 = mp.digamma(x + 1) - mp.log(x) - 1 / (2 * x)
            j2 = mp.psi(1, x + 1) - 1 / x + 1 / (2 * x * x)
            G += sign * mp.re(j0)
            A += sign * mp.re(x * j1)
            B += sign * mp.re(x * x * j2)
        return [float(v) for v in (th * G, A - G, th * A, -B)]


def bath_of(model, gamma, tau=None, omega_prime=None):
    if model == "ohmic":
        return ohmic(gamma)
    if model == "srt":
        return baths.canonicalize(SingleRelaxationSpec(gamma=gamma, tau=tau))
    return baths.canonicalize(QEDSpec(gamma=gamma, omega_prime=omega_prime))


# Points where the closed form cancels: blackbody baths at low temperature
# (the theta^2 terms cancel exactly), the strongly damped blackbody bath
# (Omega and the smaller root nearly coincide), and weak damping where the
# root argument is near the imaginary axis at moderate |x|.
HARD_POINTS = [
    ("qed", 0.5, 1e-5, None, 1e3),
    ("qed", 1e-6, 2.5e-5, None, 700.0),
    ("qed", 1e4, 1e-5, None, 1e12),
    ("qed", 1e4, 6.5e-5, None, 1e12),
    ("qed", 1e4, 1e3, None, 1e12),
    ("qed", 54.0, 8e-3, None, 9e5),
    ("qed", 2.0, 0.05, None, 1e3),
    ("qed", 1e-7, 0.02, None, 1e9),
    ("ohmic", 1e-6, 0.03, None, None),
    ("ohmic", 1e-8, 1e-5, None, None),
    ("ohmic", 1e4, 0.3, None, None),
    ("srt", 1e-6, 0.02, 1e-5, None),
    ("srt", 2.0, 0.4, 3e-4, None),
    # weak damping where the Boltzmann term e^{-1/theta} meets the
    # friction term gamma theta^2: a plain stencil of F loses S to ~1e-11
    ("qed", 1.7e-8, 0.036, None, 2.6e3),
    ("qed", 1e-8, 0.033, None, 1e6),
    # a weakly damped root argument with 1/4 <= |x1| < 1/2, where 2 Re J
    # cancels and the reflection identity runs on the series difference
    ("qed", 3.6136423841824986e-07, 0.32089392242469567, None,
     18699616.644693326),
    # far below the edge grid: the theta^4 regime of the blackbody bath
    ("qed", 1e-3, 1e-10, None, 1e6),
    ("qed", 1e-3, 1e-12, None, 1e6),
]


class TestExactRouteAccuracy:
    @pytest.mark.parametrize("model,gamma,theta,tau,prime", HARD_POINTS)
    def test_relative_accuracy_where_the_closed_form_cancels(
            self, model, gamma, theta, tau, prime):
        # F, S, U and C all to full precision: the jets of J carry the
        # derivatives, so nothing is differenced
        bath = bath_of(model, gamma, tau, prime)
        point = thermo.thermo_point(bath, theta)
        reference = closed_form_reference(model, gamma, theta, tau, prime)
        for name, want in zip("FSUC", reference):
            got = getattr(point, name)
            assert abs(got - want) <= 2e-14 * abs(want), (name, got, want)

    @pytest.mark.parametrize("model,gamma,theta,tau,prime", HARD_POINTS)
    def test_quadrature_route_relative_accuracy(
            self, model, gamma, theta, tau, prime):
        bath = bath_of(model, gamma, tau, prime)
        point = thermo.thermo_point(bath, theta, "exact_quadrature")
        reference = closed_form_reference(model, gamma, theta, tau, prime)
        for name, want in zip("FSUC", reference):
            got = getattr(point, name)
            assert abs(got - want) <= 1e-10 * abs(want), (name, got, want)

    def test_free_energy_exact_is_the_F_of_thermo_point(self):
        bath = bath_of("qed", 0.5, None, 1e3)
        thetas = (1e-4, 0.1, 3.0)
        for theta, point in zip(thetas, thermo.sweep(bath, thetas)):
            assert thermo.free_energy_exact(bath, theta) \
                == thermo.thermo_point(bath, theta).F == point.F


# Cutoffs at and below the oscillator frequency, where Omega lies close to
# one pole of alpha: Omega' at weak damping (1/Omega - 1/Omega' = gamma,
# Omega - Omega' = gamma), or an overdamped root.  The relaxation baths
# have tau gamma = 0.5, 0.9 and 0.99, so Omega' = Omega (1 - tau gamma).
SMALL_CUTOFF_GAMMAS = [1e-6, 1e-4, 1e-2, 1.0, 2.0, 3.0]
SMALL_CUTOFF_THETAS = [1e-3, 1e-2, 0.1, 1.0, 10.0]


class TestSmallCutoff:
    @pytest.mark.parametrize("model, gamma, tau, prime", [
        ("qed", gamma, None, prime) for gamma in SMALL_CUTOFF_GAMMAS
        for prime in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 10.0)] + [
        ("srt", gamma, tau_gamma / gamma, None)
        for gamma in SMALL_CUTOFF_GAMMAS for tau_gamma in (0.5, 0.9, 0.99)])
    def test_exact_j_relative_accuracy(self, model, gamma, tau, prime):
        # 80 digits: at 30 the reference itself is off by 3.5e-13 at
        # gamma = 1e-6, Omega' = 10, theta = 1e-3
        bath = bath_of(model, gamma, tau, prime)
        for point in thermo.sweep(bath, SMALL_CUTOFF_THETAS):
            reference = closed_form_reference(model, gamma, point.theta, tau,
                                              prime, digits=80)
            for name, want in zip("FSUC", reference):
                got = getattr(point, name)
                assert abs(got - want) <= 1e-14 * abs(want), \
                    (point.theta, name, got, want)


# Cold points: every characteristic argument c/(2 pi theta) at or above
# the asymptotic switch, where the closed form is summed from the plan's
# power sums.  gamma = 1e-8 and 0.3 put the root on the mirror pair.
COLD_BATHS = [("ohmic", gamma, None, None)
              for gamma in (1e-8, 0.3, 2.0, 1e4)] \
    + [("srt", gamma, 1.0 / (prime + gamma), prime)
       for gamma in (1e-8, 2.0, 1e4) for prime in (1e-3, 1e4, 1e12)] \
    + [("qed", gamma, None, prime) for gamma in (1e-8, 0.3, 2.0, 1e4)
       for prime in (1e-3, 1e4, 1e12, math.inf)]


class TestColdPoints:
    @pytest.mark.parametrize("model, gamma, tau, prime", COLD_BATHS)
    def test_against_the_closed_form(self, model, gamma, tau, prime):
        # from the warmest cold point, where the least argument is 10, down
        # a thousandfold
        bath = bath_of(model, gamma, tau, prime)
        plan = thermo._plan(bath)
        warmest = plan.least / (2.0 * math.pi * thermo._REMAINDER_ASYMPTOTIC)
        thetas = [warmest * f for f in (1.0, 0.5, 0.1, 1e-3)]
        for point in thermo.sweep(bath, thetas):
            assert plan.least / (2.0 * math.pi * point.theta) \
                >= thermo._REMAINDER_ASYMPTOTIC
            reference = closed_form_reference(model, gamma, point.theta, tau,
                                              prime)
            for name, want in zip("FSUC", reference):
                got = getattr(point, name)
                assert abs(got - want) <= 1e-15 * abs(want), \
                    (point.theta, name, got, want)

    def test_only_a_list_with_a_cold_point_forms_the_power_sums(
            self, monkeypatch):
        bath = bath_of("qed", 0.3, None, 1e4)
        formed = []
        original = thermo._power_rows

        def counting(plan):
            formed.append(plan)
            return original(plan)

        monkeypatch.setattr(thermo, "_power_rows", counting)
        thermo.sweep(bath, [0.5, 3.0])
        assert formed == []
        thermo.sweep(bath, [1e-4, 0.5, 3.0])
        assert len(formed) == 1


class TestSliver:
    """QED weak damping, swept where the underdamped root's argument
    x = c/(2 pi theta) lies in the sliver 10 <= |x| < 10/Im c (|c| = 1):
    past |x| = 10 while Im x < 10, where the mirror pair takes the mirror
    Taylor table.  Omega' <= 0.1 keeps every point warm.  The worst error
    over the 800 values is 1.2e-15."""

    @pytest.mark.parametrize("gamma", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_against_the_closed_form(self, gamma):
        c = complex(0.5 * gamma, math.sqrt(1.0 - 0.25 * gamma * gamma))
        low, high = 10.0, 10.0 / c.imag
        thetas = [1.0 / (2.0 * math.pi * (low + (high - low) * (k + 0.5) / 10))
                  for k in range(10)]
        for prime in (1e-4, 1e-3, 1e-2, 1e-1):
            for point in thermo.sweep(bath_of("qed", gamma, None, prime),
                                      thetas):
                x = c / (2.0 * math.pi * point.theta)
                assert abs(x) >= 10.0 and x.imag < 10.0
                reference = closed_form_reference("qed", gamma, point.theta,
                                                  None, prime)
                for name, want in zip("FSUC", reference):
                    got = getattr(point, name)
                    assert abs(got - want) <= 2e-15 * abs(want), \
                        (prime, point.theta, name, got, want)


class TestFloatRange:
    """Both exact routes over the whole float range of theta: each point is
    finite F, S, U and C or an error that names theta, never nan, inf or
    a silent 0.0."""

    SPECS = [OhmicSpec(gamma=0.1), OhmicSpec(gamma=1.0), OhmicSpec(gamma=1e4),
             QEDSpec(gamma=0.1, omega_prime=1e3),
             QEDSpec(gamma=0.1, omega_prime=math.inf),
             SingleRelaxationSpec(gamma=0.5, tau=0.1)]    # tau gamma = 0.05
    THETAS = [10.0 ** e for e in range(-300, 301, 15)]

    @staticmethod
    def point_or_error(bath, theta, method):
        try:
            point = thermo.thermo_point(bath, theta, method)
        except (ArithmeticError, ValueError) as exc:
            assert f"theta = {theta!r}" in str(exc), (method, exc)
            return None
        values = (point.F, point.S, point.U, point.C)
        assert all(map(math.isfinite, values)), (method, theta, values)
        return values

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_finite_or_named_and_the_routes_agree(self, spec):
        bath = baths.canonicalize(spec)
        for theta in self.THETAS:
            exact = self.point_or_error(bath, theta, "exact_j")
            quadrature = self.point_or_error(bath, theta, "exact_quadrature")
            if exact is None or quadrature is None:
                continue
            for name, a, b in zip("FSUC", exact, quadrature):
                if abs(a) >= sys.float_info.min:
                    assert abs(a - b) <= 1e-10 * abs(a), (theta, name, a, b)

    @pytest.mark.parametrize("spec", [OhmicSpec(gamma=0.1),
                                      QEDSpec(gamma=0.1, omega_prime=1e3)],
                             ids=repr)
    def test_exact_j_near_axis_root_at_tiny_theta(self, spec):
        # the root pair near the imaginary axis goes through the reflection
        # identity, whose (2 pi w)^2 overflows here; C was nan
        bath = baths.canonicalize(spec)
        point = thermo.thermo_point(bath, 1e-200)
        assert all(map(math.isfinite, (point.F, point.S, point.U, point.C)))
        if isinstance(spec, OhmicSpec):
            leading = math.pi * spec.gamma * 1e-200 / 3.0
            assert abs(point.C - leading) <= 1e-14 * leading
            assert abs(point.S - leading) <= 1e-14 * leading

    @pytest.mark.parametrize("gamma", [1e154, 1e200, 1e300, 1.7e308])
    def test_exact_j_at_friction_up_to_the_float_range(self, gamma):
        # gamma^2/4 overflows from ~1.3e154, where the roots were 0 and inf;
        # log Gamma cancels ~log10(gamma) digits, so the reference takes 40
        # more (at 80 digits it is wholly wrong at gamma = 1e154)
        bath = ohmic(gamma)
        digits = round(math.log10(gamma)) + 40
        for point in thermo.sweep(bath, [1e-5, 0.1, 1e3]):
            reference = closed_form_reference("ohmic", gamma, point.theta,
                                              digits=digits)
            for name, want in zip("FSUC", reference):
                got = getattr(point, name)
                assert abs(got - want) <= 1e-15 * abs(want), \
                    (point.theta, name, got, want)

    @pytest.mark.parametrize("spec, theta", [
        (SingleRelaxationSpec(gamma=1.0, tau=0.01), 1e20),
        (QEDSpec(gamma=0.1, omega_prime=1e3), 1e50),
        (OhmicSpec(gamma=1.0), 1e100),
        (OhmicSpec(gamma=1.0), 1e200),
        (OhmicSpec(gamma=1.0), 1e-200),
    ])
    def test_quadrature_far_from_theta_one(self, spec, theta):
        # C was 10% off at 1e20 and 1e100 and 0.0 at 1e200; 1e-200 raised
        # from an inf * 0 in the C kernel
        bath = baths.canonicalize(spec)
        exact = thermo.thermo_point(bath, theta)
        point = thermo.thermo_point(bath, theta, "exact_quadrature")
        for name in "SC":
            want = getattr(exact, name)
            assert abs(getattr(point, name) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("spec, theta, match", [
        (QEDSpec(gamma=0.1, omega_prime=1e3), 1e-150, "too small"),
        (OhmicSpec(gamma=1.0), 1e306,
         "out of the range of the exact_quadrature route"),
    ])
    def test_quadrature_out_of_range_names_theta(self, spec, theta, match):
        bath = baths.canonicalize(spec)
        with pytest.raises(OverflowError,
                           match=re.escape(f"theta = {theta!r} is {match}")):
            thermo.thermo_point(bath, theta, "exact_quadrature")

    @pytest.mark.parametrize("method, theta", [
        ("exact_j", 1e306), ("exact_quadrature", 1e306),
        ("low_T_series", 1e60), ("high_T_series", 1e306),
    ])
    def test_every_route_names_theta_and_itself_where_it_overflows(
            self, method, theta):
        bath = baths.canonicalize(OhmicSpec(gamma=1.0))
        # the low-T series overflows only far outside its regime
        with pytest.raises(OverflowError, match=re.escape(
                f"theta = {theta!r} is out of the range of the "
                f"{method} route")):
            thermo.thermo_point(bath, theta, method)


@pytest.fixture
def point_evaluations(monkeypatch):
    """Integrand evaluations of one exact_quadrature point, summed over
    every quadrature call that the point makes."""
    calls = []
    for name in ("integrate_log_endpoint", "integrate_interval",
                 "integrate_semi_infinite"):
        def counting(*args, _original=getattr(thermo, name), **kwargs):
            result = _original(*args, **kwargs)
            calls.append(result.evaluations)
            return result
        monkeypatch.setattr(thermo, name, counting)

    def evaluations(bath, theta):
        calls.clear()
        thermo.thermo_point(bath, theta, "exact_quadrature")
        return sum(calls)
    return evaluations


class TestQuadratureCost:
    def test_cost_does_not_jump_with_the_last_bit_of_theta(
            self, point_evaluations):
        # a sweep ending at theta = 1 can land one ulp either side of it
        counts = [point_evaluations(ohmic(1e-8), theta)
                  for theta in (1.0 - 2**-53, 1.0, 1.0 + 2**-52)]
        assert max(counts) - min(counts) <= 0.05 * min(counts)

    def test_log_singularity_costs_few_evaluations(self, point_evaluations):
        # the log singularity of the F kernel at w = 0 is integrated in
        # log(1/w), not by bisection toward it
        assert point_evaluations(ohmic(1.0), 1e-5) < 1000

    def test_weak_damping_cost_grows_with_log_of_friction(self, monkeypatch):
        counts = {}
        original = thermo.integrate_semi_infinite

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[gamma] = result.evaluations
            return result

        monkeypatch.setattr(thermo, "integrate_semi_infinite", counting)
        for gamma in (1e-2, 1e-5):
            thermo.thermo_point(ohmic(gamma), 0.5, "exact_quadrature")
        assert counts[1e-5] < 3 * counts[1e-2]


def test_package_exports_the_engine():
    from oscbath import METHODS, j_jet, series_point, sweep  # noqa: F401
