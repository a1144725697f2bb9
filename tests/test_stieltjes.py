"""Tests for the multi-route Stieltjes J-function engine.

Expected values are computed from gamma-function identities
(Gamma(2) = 1, Gamma(3) = 2, Gamma(3/2) = sqrt(pi)/2) or cross-checked
between routes; the quadrature route is the reference independent of the
shared Lanczos rational core.  Route agreement is asserted at one part per
billion on the gamma scale: J is the log-remainder of Gamma, so that means
absolute differences in J (the Lanczos coefficients carry an intrinsic
~2e-10 absolute floor, while |J| itself decays like 1/(12 z)).
"""

import cmath
import math
import random
import re
import struct
import sys
import time
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from oscbath import stieltjes as sj

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
J_AT_1 = 1.0 - LOG_SQRT_2PI
J_AT_HALF = (0.5 * math.log(math.pi) - math.log(2.0)) - LOG_SQRT_2PI \
    - 1.0 * math.log(0.5) + 0.5
J_AT_2 = math.log(2.0) - LOG_SQRT_2PI - 2.5 * math.log(2.0) + 2.0


def akiyama_tanigawa(n):
    """B_0 .. B_n as exact rationals (B_1 = +1/2 in this algorithm)."""
    row, numbers = [], []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        numbers.append(row[0])
    return numbers


def agreement(a, b):
    """Part-per-billion agreement on the gamma scale: absolute in J,
    relative once |J| exceeds 1."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestTables:
    def test_lanczos_coefficients_pinned(self):
        assert sj.LANCZOS_G == 5.0
        assert sj.LANCZOS_N == 6
        assert sj.LANCZOS_D == (
            1.000000000190015, 76.18009172947146, -86.50532032941677,
            24.01409824083091, -1.231739572450155, 0.001208650973866179,
            -0.000005395239384953)

    def test_bernoulli_numbers_exact(self):
        expected = {
            2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
            8: Fraction(-1, 30), 10: Fraction(5, 66),
            12: Fraction(-691, 2730), 14: Fraction(7, 6),
            16: Fraction(-3617, 510), 18: Fraction(43867, 798),
            20: Fraction(-174611, 330), 22: Fraction(854513, 138),
        }
        assert sj.BERNOULLI_EVEN == expected
        # and the private table beyond B_22, against the Akiyama-Tanigawa
        # algorithm over exact rationals
        generated = akiyama_tanigawa(34)
        assert {n: generated[n] for n in range(2, 23, 2)} == expected
        assert sj._BERNOULLI_BEYOND == {n: generated[n]
                                        for n in range(24, 35, 2)}

    def test_asymptotic_remainder_truncation_at_the_switch(self):
        # the remainder series stops at B_32: its first omitted term, with
        # B_34, is negligible against every component of the jet of R at
        # the smallest modulus it serves (R ~ A_1 t^3, A_1 = -1/360)
        z = sj._REMAINDER_ASYMPTOTIC
        omitted = abs(float(sj._BERNOULLI_BEYOND[34])) / (33 * 34) * z ** -33
        leading = z ** -3 / 360.0
        assert omitted * 33 * 34 <= 1e-16 * 3 * 4 * leading

    def test_asymptotic_reach_regenerates(self):
        # entry n - 1: the largest float s at which rows[-n:] leave a tail
        # below 2^-70 of the first row's term in each of the three series,
        # by bisection over the float grid of (0, 1); the tail is a Horner
        # sum of positive terms, monotone in s
        rows = sj._ASYMPTOTIC_HORNER

        def tail(n, s):
            worst = 0.0
            for k in range(3):
                total = 0.0
                for row in rows[:len(rows) - n]:
                    total = total * s + abs(row[k])
                worst = max(worst, total * s ** n / abs(rows[-1][k]))
            return worst

        def bits(x):
            return struct.unpack("<q", struct.pack("<d", x))[0]

        def real(i):
            return struct.unpack("<d", struct.pack("<q", i))[0]

        reach = []
        for n in range(1, len(rows)):
            low, high = 0, bits(1.0)
            while high - low > 1:
                middle = (low + high) // 2
                if tail(n, real(middle)) < 2.0 ** -70:
                    low = middle
                else:
                    high = middle
            reach.append(real(low))
        assert sj._ASYMPTOTIC_REACH == tuple(reach)
        assert list(reach) == sorted(set(reach))        # strictly rising
        assert reach[-1] < sj._REMAINDER_ASYMPTOTIC ** -2
        assert len(sj._ASYMPTOTIC_ROWS) == len(rows)
        assert all(sj._ASYMPTOTIC_ROWS[k] == rows[len(rows) - k - 1:]
                   for k in range(len(rows)))

    def test_zeta_against_closed_forms(self):
        assert abs(sj.zeta(2) - math.pi**2 / 6.0) < 1e-15
        assert abs(sj.zeta(4) - math.pi**4 / 90.0) < 1e-15
        assert abs(sj.zeta(6) - math.pi**6 / 945.0) < 1e-15
        # Apery's constant
        assert abs(sj.zeta(3) - 1.2020569031595942854) < 1e-15

    def test_zeta_beyond_table(self):
        assert sj.zeta(61) == 1.0 + 2.0**-61 + 3.0**-61
        with pytest.raises(ValueError):
            sj.zeta(1)

    def test_euler_gamma_full_precision(self):
        assert abs(sj.EULER_GAMMA - 0.5772156649015328606) < 1e-16


class TestLogGamma:
    def test_against_stdlib_on_positive_reals(self):
        for x in [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 41.5, 100.0]:
            ours = sj.log_gamma(x)
            assert ours.imag == 0.0
            assert abs(ours.real - math.lgamma(x)) < 1e-11 * max(
                1.0, abs(math.lgamma(x)))

    def test_reflection_free_recurrence_left_half(self):
        # Gamma(z+1) = z Gamma(z) checked across the shift boundary
        for z in [-2.3 + 0.7j, -0.4 - 1.2j, -7.6 + 0.05j]:
            lhs = sj.log_gamma(z + 1.0)
            rhs = sj.log_gamma(z) + cmath.log(z)
            assert abs(lhs - rhs) < 1e-10

    def test_branch_cut_rejected(self):
        for z in [0.0, -1.0, -3.5]:
            with pytest.raises(ValueError):
                sj.log_gamma(z)


class TestJLogGamma:
    def test_at_one(self):
        assert agreement(sj.j_loggamma(1.0), J_AT_1) < 1e-13

    def test_at_two(self):
        assert agreement(sj.j_loggamma(2.0), J_AT_2) < 1e-13

    def test_on_imaginary_axis_matches_lanczos(self):
        a, b = sj.j_loggamma(1j), sj.j_lanczos(1j)
        assert agreement(a, b) < 1e-9

    def test_cut_rejected(self):
        for z in [0.0, -0.5, -2.0]:
            with pytest.raises(ValueError):
                sj.j_loggamma(z)

    @pytest.mark.parametrize("im", [1e-3, 1.0, -300.0])
    def test_floor_meets_the_bound(self, im):
        z = complex(sj.LOGGAMMA_FLOOR, im)
        assert abs(sj.j_loggamma(z) - sj.j_jet(z)[0]) < 1e-9

    @pytest.mark.parametrize("z", [1e5, 1e5j, 7e4 - 7e4j, -1e4 + 99400j])
    def test_reach_meets_the_bound(self, z):
        assert abs(sj.j_loggamma(z) - sj.j_jet(z)[0]) < 1e-9

    @pytest.mark.parametrize("z", [1e7 + 0j, 1e5 + 1j, 1e12j, 1e308 - 1j])
    def test_beyond_the_reach_raises_naming_z(self, z):
        # log Gamma(z + 1) and the Stirling terms cancel: the value at 1e7
        # was 0, where J = 8.3e-9
        with pytest.raises(ValueError, match=re.escape(
                f"j_loggamma: z = {z!r} has |z| > 100000")):
            sj.j_loggamma(z)

    @pytest.mark.parametrize("z", [-1e308 + 1j, -1.0001e4 + 1j, -1e5 - 3j])
    def test_left_of_the_floor_raises_naming_z_at_once(self, z):
        # the shift takes one step per unit of Re z: at -1e308 + 1j it
        # would never return, and at -1e5 + 1j it is 4e-9 off
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(
                f"j_loggamma: z = {z!r} has Re z <")):
            sj.j_loggamma(z)
        with pytest.raises(ValueError, match=re.escape(
                f"log_gamma: w = {z!r} has Re w <")):
            sj.log_gamma(z)
        assert time.perf_counter() - start < 1.0


class TestJLanczos:
    def test_at_one(self):
        assert agreement(sj.j_lanczos(1.0), J_AT_1) < 1e-10

    def test_small_complex_matches_series(self):
        z = 0.01 + 0.01j
        assert agreement(sj.j_lanczos(z), sj.j_series_small(z, 40)) < 1e-9

    def test_large_matches_asymptotic(self):
        value, bound = sj.j_asymptotic(50.0, 11)
        assert agreement(sj.j_lanczos(50.0), value) < 1e-9

    def test_left_half_rejected(self):
        with pytest.raises(ValueError):
            sj.j_lanczos(-1.0 + 1.0j)
        with pytest.raises(ValueError):
            sj.j_lanczos(0.0)


class TestJSeriesSmall:
    def test_half(self):
        assert agreement(sj.j_series_small(0.5, 40), J_AT_HALF) < 1e-12

    def test_small_z_limit(self):
        # J(z) + log sqrt(2 pi) + (z + 1/2) log z - z -> 0 as z -> 0+
        z = 1e-8
        remainder = (sj.j_series_small(z, 10) + LOG_SQRT_2PI
                     + (z + 0.5) * math.log(z) - z)
        assert abs(remainder) < 1e-7

    def test_imaginary_axis_matches_lanczos(self):
        z = 0.3j
        assert abs(sj.j_series_small(z, 80) - sj.j_lanczos(z)) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            sj.j_series_small(1.0, 40)
        with pytest.raises(ValueError):
            sj.j_series_small(-0.5, 40)
        with pytest.raises(ValueError):
            sj.j_series_small(0.5, 1)


class TestJAsymptotic:
    def test_partial_sum_at_ten(self):
        expected = 1.0 / 120.0 - 1.0 / 360000.0 + 1.0 / 126000000.0
        value, bound = sj.j_asymptotic(10.0, 3)
        assert abs(value - expected) < 1e-18
        # first omitted term: |B8|/(7*8) * 10^-7
        assert abs(bound - (1.0 / 30.0) / 56.0 * 1e-7) < 1e-22
        # the bound is honest against the loggamma route
        assert abs(value - sj.j_loggamma(10.0)) <= bound + 1e-15

    def test_leading_coefficient(self):
        # z J(z) -> B2/2 = 1/12 along the reals
        value, _ = sj.j_asymptotic(1e6, 2)
        assert abs(value.real * 1e6 - 1.0 / 12.0) < 1e-12

    def test_divergent_regime_detected(self):
        with pytest.raises(ValueError, match="divergent"):
            sj.j_asymptotic(2.0, 11)

    def test_term_budget(self):
        with pytest.raises(ValueError):
            sj.j_asymptotic(50.0, 12)
        with pytest.raises(ValueError):
            sj.j_asymptotic(50.0, 0)


class TestJContinueLeft:
    def test_direct_transcription(self):
        w = -1.0 + 1.0j
        z = 1.0 - 1.0j
        expected = (-sj.j_jet(z)[0]
                    - cmath.log(1.0 - cmath.exp(-2j * math.pi * z)))
        assert abs(sj.j_continue_left(w) - expected) < 1e-14
        # the log-gamma form holds off the cut and must agree
        assert agreement(sj.j_continue_left(w), sj.j_loggamma(w)) < 1e-9

    def test_matches_loggamma(self):
        z = 2.0 - 0.5j
        w = z * cmath.exp(1j * math.pi)
        assert agreement(sj.j_continue_left(w), sj.j_loggamma(w)) < 1e-9

    def test_branch_structure_across_cut(self):
        above = sj.j_continue_left(-0.5 + 1e-4j)
        below = sj.j_continue_left(-0.5 - 1e-4j)
        assert cmath.isfinite(above) and cmath.isfinite(below)
        assert abs(above - below) > 1e-5

    def test_domain(self):
        with pytest.raises(ValueError):
            sj.j_continue_left(-1.0)       # on the cut
        with pytest.raises(ValueError):
            sj.j_continue_left(1.0 + 1j)   # right half plane
        with pytest.raises(ValueError):
            sj.j_continue_left(0.5j)       # natural boundary


class TestJQuadrature:
    def test_at_one(self):
        assert agreement(sj.j_quadrature(1.0), J_AT_1) < 1e-12

    def test_at_half(self):
        assert agreement(sj.j_quadrature(0.5), J_AT_HALF) < 1e-12

    def test_at_ten_leading_order(self):
        value = sj.j_quadrature(10.0)
        assert abs(value.real - 1.0 / 120.0) < 1e-5   # leading term only
        assert agreement(value, sj.j_loggamma(10.0)) < 1e-11

    def test_cost(self, monkeypatch):
        # the log singularity at t = 0 is integrated in log(1/t), not by
        # bisection toward it: evaluations summed over every quadrature call
        evaluations = []
        for name in ("integrate_log_endpoint", "integrate_semi_infinite"):
            def counting(*args, _original=getattr(sj, name), **kwargs):
                result = _original(*args, **kwargs)
                evaluations.append(result.evaluations)
                return result
            monkeypatch.setattr(sj, name, counting)
        sj.j_quadrature(0.5 + 3j)
        assert 0 < sum(evaluations) < 700

    @pytest.mark.parametrize("z", [
        1e-16, 2e-16 * cmath.exp(1.2j), 2e-16 * cmath.exp(-0.7j),
        1e11, 5e10 * cmath.exp(0.7j), 5e10 * cmath.exp(-1.5j)])
    def test_range_ends_meet_the_bound(self, z):
        # both ends of QUADRATURE_RANGE, against the jet engine
        want = sj.j_jet(z)[0]
        assert abs(sj.j_quadrature(z) - want) <= 6e-15 * abs(want)

    @pytest.mark.parametrize("z", [
        1e-17 + 0j, 1e-320 + 0j, 1e-17 + 1e-17j, 2e11 + 0j, 1e300 + 0j,
        1e20 - 3e20j])
    def test_outside_the_range_raises_naming_z(self, z):
        # the quadrature value there is silently wrong: ~4.49 z at tiny z,
        # 0 at huge z
        with pytest.raises(ValueError, match=re.escape(
                f"j_quadrature: z = {z!r} is outside the range")):
            sj.j_quadrature(z)

    def test_domain(self):
        with pytest.raises(ValueError):
            sj.j_quadrature(-1.0 + 1j)
        with pytest.raises(ValueError):
            sj.j_quadrature(1j)


class TestJAuto:
    def test_dispatch_right(self):
        value, name = sj.j_auto_named(1.0)
        assert value == sj.j_lanczos(1.0)
        assert name == "lanczos"

    def test_dispatch_left(self):
        w = -1.0 + 1.0j
        value, name = sj.j_auto_named(w)
        assert value == sj.j_continue_left(w)
        assert name == "continuation"

    def test_against_quadrature(self):
        z = 0.5 + 3.0j
        assert agreement(sj.j_auto_named(z)[0], sj.j_quadrature(z)) < 1e-9

    def test_natural_boundary_and_cut(self):
        with pytest.raises(ValueError):
            sj.j_auto_named(0.3j)
        with pytest.raises(ValueError):
            sj.j_auto_named(-2.0)


# every route a ``jfun`` method runs, as z -> J(z)
ROUTES = {
    "j_auto_named": lambda z: sj.j_auto_named(z)[0],
    "j_quadrature": sj.j_quadrature,
    "j_loggamma": sj.j_loggamma,
    "j_lanczos": sj.j_lanczos,
    "j_series_small": sj.j_series_small,
    "j_asymptotic": lambda z: sj.j_asymptotic(z)[0],
    "j_continue_left": sj.j_continue_left,
}


JET_ROUTES = {
    "j_jet": sj.j_jet,
    "j_remainder": sj.j_remainder,
    "j_reflection": sj.j_reflection,
    "j_difference": lambda z: sj.j_difference(z, 1.0, 0.1),
    "j_remainder_difference":
        lambda z: sj.j_remainder_difference(z, 1.0, 0.1),
}


class TestNonFinite:
    """Every route returns a finite J or raises: ValueError naming a
    non-finite z, OverflowError naming z where its value is not finite."""

    @pytest.mark.parametrize("name", ROUTES)
    @pytest.mark.parametrize("z", [
        complex(math.inf, 0.0), complex(-math.inf, 0.0),
        complex(math.nan, 0.0), complex(math.nan, math.nan),
        complex(0.5, math.inf), complex(-1.0, math.nan)])
    def test_non_finite_argument_named(self, name, z):
        with pytest.raises(ValueError, match=re.escape(
                f"{name}: z = {z!r} is not finite")):
            ROUTES[name](z)

    @pytest.mark.parametrize("name", ["j_auto_named", "j_lanczos"])
    def test_lanczos_overflow_named(self, name):
        with pytest.raises(OverflowError,
                           match=re.escape("J is not finite at z = (1e-320+0j)")):
            ROUTES[name](1e-320)

    def test_asymptotic_overflow_named(self):
        with pytest.raises(OverflowError,
                           match=re.escape("j_asymptotic: J is not finite")):
            sj.j_asymptotic(1e-320, n_terms=1)

    @pytest.mark.parametrize("name", ["j_loggamma", "j_series_small"])
    def test_tiny_argument_finite(self, name):
        expected = -sj.LOG_SQRT_2PI - 0.5 * math.log(1e-320)
        assert abs(ROUTES[name](1e-320) - expected) <= 1e-15 * expected

    @pytest.mark.parametrize("name", JET_ROUTES)
    @pytest.mark.parametrize("z", [
        complex(math.inf, 0.0), complex(-math.inf, 1.0),
        complex(math.nan, 0.0), complex(math.nan, 1.0),
        complex(1.0, math.inf), complex(-1.0, math.nan)])
    def test_non_finite_jet_argument_named(self, name, z):
        # the jets were nan, or raised a bare "cannot convert float NaN
        # (infinity) to integer"
        with pytest.raises(ValueError, match=re.escape(
                f"{name}: z = {z!r} is not finite")):
            JET_ROUTES[name](z)

    @pytest.mark.parametrize("name", ["j_difference", "j_remainder_difference"])
    def test_non_finite_step_named(self, name):
        with pytest.raises(ValueError, match=re.escape(
                f"{name}: delta = (nan+0j) is not finite")):
            getattr(sj, name)(1.1, 1.0, math.nan)

    @pytest.mark.parametrize("z", [
        1e308 + 1e308j, 1.5e308 + 1.5e308j, 1.7e308 - 3e307j,
        -1.5e308 + 1.5e308j, 1.79e308 + 1.79e308j])
    def test_top_of_the_float_range(self, z):
        # 12 z and Python's quotient overflowed: j_jet was nan at
        # 1e308 + 1e308j and raised "absolute value too large" beyond, and
        # j_lanczos was -5.5 where J ~ 4e-310.  The jet is 1/(12 z) times
        # (1, -1, 2) to within a few subnormal ulps.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            lead = 1 / (12 * mp.mpc(z))
        for got, want in zip(sj.j_jet(z), (lead, -lead, 2.0 * lead)):
            assert abs(got.real - float(want.real)) <= 4 * 2.0 ** -1074
            assert abs(got.imag - float(want.imag)) <= 4 * 2.0 ** -1074
        if z.real > 0.0:
            assert abs(sj.j_lanczos(z)) <= 1e-9


class TestInvariantsAndProperties:
    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(20240214)
        for _ in range(100):
            z = complex(rng.uniform(0.05, 50.0), rng.uniform(-50.0, 50.0))
            a = sj.j_lanczos(z.conjugate())
            b = sj.j_lanczos(z).conjugate()
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_three_route_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            z = complex(rng.uniform(0.1, 50.0), rng.uniform(-50.0, 50.0))
            quad = sj.j_quadrature(z)
            lanc = sj.j_lanczos(z)
            lgam = sj.j_loggamma(z)
            assert agreement(quad, lanc) < 1e-9
            assert agreement(quad, lgam) < 1e-9
            assert agreement(lanc, lgam) < 1e-9

    def test_series_joins_inside_unit_disk(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            r = rng.uniform(0.05, 0.9)
            phi = rng.uniform(-0.95 * math.pi, 0.95 * math.pi)
            z = cmath.rect(r, phi)
            assert abs(sj.j_series_small(z, 400) - sj.j_loggamma(z)) < 1e-10

    def test_asymptotic_joins_outside(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            r = rng.uniform(8.5, 60.0)
            phi = rng.uniform(-1.2, 1.2)
            z = cmath.rect(r, phi)
            value, bound = sj.j_asymptotic(z, 11)
            assert abs(value - sj.j_quadrature(z)) <= bound + 2e-13

    def test_positive_on_positive_axis(self):
        for x in np.logspace(-2.0, 3.0, 40):
            assert sj.j_lanczos(float(x)).real > 0.0

    def test_monotone_decay(self):
        grid = np.linspace(1.0, 60.0, 120)
        values = [sj.j_lanczos(float(x)).real for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_continuation_consistent_near_axis(self):
        # crossing the imaginary axis infinitesimally: the reflection
        # identity agrees with the log-gamma form
        for y in [0.3, 1.1, 2.7, 5.0]:
            w = complex(-1e-4, y)
            assert agreement(sj.j_continue_left(w), sj.j_loggamma(w)) < 1e-8
            w = complex(-1e-4, -y)
            assert agreement(sj.j_continue_left(w), sj.j_loggamma(w)) < 1e-8


def _mp_j(w):
    """J at the mpmath number w (reference only)."""
    mp = pytest.importorskip("mpmath")
    return (mp.loggamma(w + 1) - mp.log(2 * mp.pi) / 2
            - (w + mp.mpf(1) / 2) * mp.log(w) + w)


def _mp_jet(w):
    """(J, w J', w^2 J'') at the mpmath number w, from digamma and
    trigamma (reference only)."""
    mp = pytest.importorskip("mpmath")
    slope = mp.digamma(w + 1) - mp.log(w) - 1 / (2 * w)
    curvature = mp.psi(1, w + 1) - 1 / w + 1 / (2 * w * w)
    return _mp_j(w), w * slope, w * w * curvature


# the jet of the leading term 1/(12 z) is (1, -1, 2)/(12 z)
LEADING_JET = (1, -1, 2)

# Real, complex and near-imaginary-axis arguments on both sides of the
# switch to the asymptotic series at |z| = 10, and at |z| = 14.
SWITCH_POINTS = [cmath.rect(r, phi) for r in (9.99, 10.0, 10.01, 14.0)
                 for phi in (0.0, 0.8, -1.2, 1.5707, -1.5707)]


class TestRemainder:
    """J - 1/(12 z) and its scaled derivatives to full precision, against
    mpmath."""

    @staticmethod
    def check(z):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            w = mp.mpc(z.real, z.imag)
            jet = _mp_jet(w)
            parts = [complex(j) for j in jet]
            want = [complex(j - c / (12 * w)) for j, c in zip(jet, LEADING_JET)]
        got = sj.j_remainder(z)
        for i, c in enumerate(LEADING_JET):
            # here R = J - 1/(12 z) may cancel: error relative to the parts
            scale = max(abs(parts[i]), abs(c / (12.0 * z)))
            assert abs(got[i] - want[i]) <= 2e-15 * scale, (z, i)

    def test_remainder_keeps_relative_accuracy(self):
        # the remainder is tiny at large |z|; it must still carry its own
        # relative accuracy, and so must its derivatives
        rng = np.random.default_rng(2025)
        for _ in range(80):
            self.check(cmath.rect(10.0 ** rng.uniform(-0.3, 3.0),
                                  rng.uniform(-1.55, 1.55)))
        for z in SWITCH_POINTS:
            self.check(z)

    def test_small_arguments(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            self.check(cmath.rect(10.0 ** rng.uniform(-6.0, -0.31),
                                  rng.uniform(-1.55, 1.55)))

    def test_jet_of_j_itself(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2026)
        for _ in range(60):
            z = cmath.rect(10.0 ** rng.uniform(-6.0, 3.0),
                           rng.uniform(-1.55, 1.55))
            with mp.workdps(40):
                want = [complex(j) for j in _mp_jet(mp.mpc(z.real, z.imag))]
            got = sj.j_jet(z)
            for i in range(3):
                assert abs(got[i] - want[i]) <= 2e-15 * abs(want[i]), (z, i)

    def test_agrees_with_loggamma_route(self):
        for z in (0.3 + 0.1j, 1.0, 2.5 - 1.0j, 7.0 + 20.0j):
            value = sj.j_remainder(z)[0] + 1.0 / (12.0 * z)
            assert agreement(value, sj.j_loggamma(z)) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            sj.j_remainder(0.0)
        with pytest.raises(ValueError):
            sj.j_remainder(-1.0)
        with pytest.raises(ValueError):
            sj.j_jet(0.0)

    @pytest.mark.parametrize("z", [-0.7 + 0.05j, -2.5 + 0.01j, -0.3 + 0.45j])
    def test_shift_series_out_of_reach_raises(self, z):
        # near -1/2, -3/2, ... the shift series in v^2 = 1/(2w + 1)^2 leaves
        # its reach (|v^2| > 2/3): no value is better than a wrong one
        with pytest.raises(ValueError):
            sj.j_remainder(z)
        with pytest.raises(ValueError):
            sj.j_remainder_difference(z, z - 1e-9, 1e-9)
        with pytest.raises(ValueError):
            sj.j_difference(z, z - 1e-9, 1e-9)


class TestLeftHalfPlane:
    """J and its jet for Re w < 0 through the reflection identity, against
    mpmath, to full relative precision."""

    # near -1/2 and -5/2, where the shift series alone is out of reach;
    # far out along the cut, where the phase of e^{2 pi i w} must be
    # reduced exactly; near the imaginary axis and the cut
    POINTS = [-0.7 + 0.05j, -2.5 + 0.01j, -0.3 + 0.45j, -1000.0 + 1.0j,
              -1000.0 - 1.0j, -1e-4 + 0.3j, -3.0 + 1e-9j, -12.25 - 0.3j]

    @staticmethod
    def reference(w):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            return [complex(j) for j in _mp_jet(mp.mpc(w.real, w.imag))]

    def check(self, w):
        want = self.reference(w)
        got = sj.j_jet(w)
        for i in range(3):
            assert abs(got[i] - want[i]) <= 4e-15 * abs(want[i]), (w, i)
        assert abs(sj.j_continue_left(w) - want[0]) <= 4e-15 * abs(want[0])

    @pytest.mark.parametrize("w", POINTS)
    def test_hard_points(self, w):
        self.check(w)

    def test_random_points(self):
        rng = np.random.default_rng(2027)
        for _ in range(400):
            self.check(complex(rng.uniform(-30.0, -0.2),
                               rng.uniform(0.01, 30.0) * rng.choice([-1, 1])))

    def test_reflection_is_even_and_off_the_real_axis(self):
        w = 2.3 + 0.4j
        for a, b in zip(sj.j_reflection(w), sj.j_reflection(-w)):
            assert abs(a - b) <= 1e-15 * abs(a)
        with pytest.raises(ValueError):
            sj.j_reflection(-2.0)

    @pytest.mark.parametrize("w", [-1e308 + 1j, -1e200 + 0.001j,
                                   -1e100 + 0.001j, -1e200 - 0.001j,
                                   -1e5 + 1e-310j, -1e5 - 1e-310j,
                                   -1e308 + 1e-320j, -1e308 - 1e-320j])
    def test_huge_arguments_near_the_real_axis(self, w):
        # k w = 2 pi i w overflows here, and (k w)^2 where the jet's
        # imaginary part does not; at a subnormal Im w and integer Re w,
        # r = q/(1 - q) itself: each part is within 1e-15 of the
        # reference, or inf where the reference leaves the float range
        # (0 where it underflows, an ulp where it is subnormal); never nan
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            side = 1 if w.imag > 0 else -1
            a, b = mp.mpf(w.real), mp.mpf(w.imag)
            k = mp.mpc(0, 2 * side) * mp.pi
            # log q, with the phase reduced exactly; 1 - q by expm1
            log_q = 2 * mp.pi * mp.mpc(-abs(b), side * (a - mp.nint(a)))
            q, rest = mp.exp(log_q), -mp.expm1(log_q)
            r = q / rest
            kw = k * mp.mpc(a, b)
            # J(u) = 1/(12 u) to all digits at u = -w
            lead = 1 / (12 * mp.mpc(-a, -b))
            want = (-mp.log(rest) - lead, kw * r + lead,
                    kw * kw * r * (1 + r) - 2 * lead)
        for got, ref in zip(sj.j_jet(w), want):
            for part, exact in ((got.real, ref.real), (got.imag, ref.imag)):
                assert not math.isnan(part), (w, got)
                if abs(exact) > sys.float_info.max:
                    assert part == math.copysign(math.inf, exact), (w, got)
                elif abs(exact) < 5e-324:
                    assert part == 0.0, (w, got)
                elif abs(exact) < sys.float_info.min:   # subnormal: to an ulp
                    assert abs(part - exact) <= math.ulp(0.0), (w, got)
                else:
                    assert abs(part - exact) <= 1e-15 * abs(exact), (w, got)

    @pytest.mark.parametrize("w", [1e200 * (0.1 + 1j), -3e199 + 1e200j,
                                   1e200 * (0.2 - 1j)])
    def test_reflection_far_from_the_real_axis(self, w):
        # q = e^{2 pi i w} underflows to 0 while (2 pi w)^2 overflows: the
        # whole jet is 0, not inf * 0 = nan
        assert sj.j_reflection(w) == (0j, 0j, 0j)


class TestDifferences:
    """Differences between nearby arguments keep the relative accuracy of
    the step, where subtracting two evaluations would lose it; so do the
    differences of z J'(z) and z^2 J''(z)."""

    @staticmethod
    def reference(a, delta, remainder):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            wa = mp.mpc(a.real, a.imag)
            wb = wa - mp.mpc(delta.real, delta.imag)   # b exactly
            diff = [ja - jb for ja, jb in zip(_mp_jet(wa), _mp_jet(wb))]
            if remainder:
                lead = 1 / (12 * wa) - 1 / (12 * wb)
                diff = [d - c * lead for d, c in zip(diff, LEADING_JET)]
            return [complex(d) for d in diff], complex(wb)

    @staticmethod
    def close(got, want, tolerance, label):
        for i in range(3):
            assert abs(got[i] - want[i]) <= tolerance * abs(want[i]), (label, i)

    @staticmethod
    def clear_of_the_shifts(z):
        # |z + n| >= 10 for every n >= 0
        return abs(z.imag) >= 10.0 or z.real >= 0.0 and abs(z) >= 10.0

    def test_remainder_difference(self):
        # the pairs the closed form makes, real pairs from 1/4 up and mirror
        # pairs near the imaginary axis from |a| = 1/2 up, and complex pairs
        # clear of the shift region; every other complex pair raises
        rng = np.random.default_rng(77)
        pairs = []
        for _ in range(40):
            a = 10.0 ** rng.uniform(math.log10(0.26), 1.5)
            pairs.append((complex(a), complex(a * 10.0 ** rng.uniform(
                -12.0, -2.0))))
            a = cmath.rect(10.0 ** rng.uniform(-0.25, 1.5),
                           rng.uniform(-1.5, 1.5))
            pairs.append((a, a * 10.0 ** rng.uniform(-12.0, -2.0)))
            a = cmath.rect(10.0 ** rng.uniform(math.log10(0.5), 1.5),
                           0.5 * math.pi - math.atan(rng.uniform(0.0, 0.25)))
            pairs.append((a, complex(2.0 * a.real, 0.0)))      # mirror
        pairs += [(a, delta) for a in SWITCH_POINTS
                  for delta in (a * 1e-9, a * 3e-3)]
        kept = 0
        for a, delta in pairs:
            want, b = self.reference(a, delta, remainder=True)
            if (a.imag == b.imag == 0.0 or b == -a.conjugate()
                    or self.clear_of_the_shifts(a)
                    and self.clear_of_the_shifts(b)):
                kept += 1
                got = sj.j_remainder_difference(a, b, delta)
                self.close(got, want, 1e-14, (a, delta))
            else:
                with pytest.raises(ValueError, match=re.escape(
                        "j_remainder_difference: the pair")):
                    sj.j_remainder_difference(a, b, delta)
        assert 0 < kept < len(pairs)

    def test_remainder_difference_a_factor_two_apart(self):
        # the blackbody gap pair at critical damping, x_Omega ~ x_c1 / 2 from
        # 1/4 up: a^2 R''(a) - b^2 R''(b) nearly cancels there, so its two
        # parts must be formed with the smaller argument second
        rng = np.random.default_rng(80)
        pairs = [(0.2501, 0.2501 - 0.5002)]
        for _ in range(100):
            a = rng.uniform(0.25, 0.35)
            pairs.append((a, a * (1.0 - rng.uniform(1.9, 2.0))))
        for a, delta in pairs:
            want, b = self.reference(complex(a), complex(delta),
                                     remainder=True)
            self.close(sj.j_remainder_difference(a, b.real, delta), want,
                       3e-15, a)
            swapped = [-d for d in want]
            self.close(sj.j_remainder_difference(b.real, a, -delta), swapped,
                       3e-15, a)

    def test_difference_small_arguments(self):
        rng = np.random.default_rng(78)
        for _ in range(40):
            a = complex(10.0 ** rng.uniform(-8.0, -0.4))
            delta = a * 10.0 ** rng.uniform(-12.0, -2.0)
            want, b = self.reference(a, delta, remainder=False)
            got = sj.j_difference(a, b, delta)
            self.close(got, want, 1e-14, (a, delta))
        # at and above SMALL_ARGUMENT: the remainder difference plus the
        # differenced leading term
        for _ in range(10):
            a = complex(10.0 ** rng.uniform(math.log10(0.5), math.log10(30.0)))
            delta = a * 10.0 ** rng.uniform(-12.0, -2.0)
            want, b = self.reference(a, delta, remainder=False)
            got = sj.j_difference(a, b, delta)
            self.close(got, want, 1e-14, (a, delta))

    def test_mirror_pair_across_the_imaginary_axis(self):
        # the reflection identity of the thermodynamic route differences
        # e + i b against -e + i b, |x| >= 1/2 and e < b/4: with e << b; the
        # widest such pair, at Re x just below Im x/4 and |x| just above
        # 1/2; one past |x| = 10 whose image still has Im < 10; and one at
        # Im x >= 10, for the asymptotic series.  Below |x| = 1/2 the pair
        # is no pair of the engine.
        height = math.nextafter(0.5 / math.sqrt(1.0 + 1.0 / 16.0), 1.0)
        widest = complex(math.nextafter(0.25 * height, 0.0), height)
        assert abs(widest) >= 0.5 and widest.real < 0.25 * widest.imag
        for a in (complex(1e-9, 3.0), widest, complex(2.4, 9.9),
                  complex(1e-4, 12.0)):
            delta = complex(2.0 * a.real, 0.0)
            want, b = self.reference(a, delta, remainder=True)
            assert b == -a.conjugate()
            got = sj.j_remainder_difference(a, b, delta)
            self.close(got, want, 1e-14, a)
        narrow = complex(0.1, 0.45)
        with pytest.raises(ValueError, match=re.escape(
                "j_remainder_difference: the pair")):
            sj.j_remainder_difference(narrow, -narrow.conjugate(),
                                      complex(0.2, 0.0))

    def test_too_small_for_the_recurrence(self):
        with pytest.raises(ValueError):
            sj.j_remainder_difference(0.1, 0.1 - 1e-9, 1e-9)


class TestRowCut:
    """The asymptotic series stops at the last row whose tail adds 2^-70
    of its first term; every row beyond adds nothing a double can hold."""

    FULL = (0.0,) * 14          # every |s| > 0 lies beyond: all 15 rows

    @staticmethod
    def large(rng, real):
        size = 10.0 ** rng.uniform(1.0, 13.0)
        return size if real else cmath.rect(size, rng.uniform(-1.55, 1.55))

    def pairs(self, rng, real, count):
        for _ in range(count):
            a = self.large(rng, real)
            step = 10.0 ** rng.uniform(-16.0, -0.3)
            if real:
                b = a * (1.0 + step)
            elif rng.random() < 0.5 and abs(a.real) < 0.25 * abs(a.imag):
                b = -a.conjugate()                              # mirror
            else:
                b = a * (1.0 + step * cmath.exp(1j * rng.uniform(-3.1, 3.1)))
            if abs(b) >= 10.0 and a != b:
                yield a, b, a - b

    def without_cut(self, monkeypatch, route, *args):
        with monkeypatch.context() as patch:
            patch.setattr(sj, "_ASYMPTOTIC_REACH", self.FULL)
            return route(*args)

    @pytest.mark.parametrize("real", [True, False])
    def test_remainder_is_bit_identical(self, monkeypatch, real):
        rng = random.Random(2)
        for _ in range(2000):
            z = self.large(rng, real)
            assert sj.j_remainder(z) == \
                self.without_cut(monkeypatch, sj.j_remainder, z), z

    def test_real_difference_is_bit_identical(self, monkeypatch):
        for a, b, delta in self.pairs(random.Random(3), True, 2000):
            for pair in ((a, b, delta), (b, a, -delta)):
                assert sj.j_remainder_difference(*pair) == self.without_cut(
                    monkeypatch, sj.j_remainder_difference, *pair), pair

    def test_complex_difference_within_1e_18(self, monkeypatch):
        # complex products round their parts separately
        for a, b, delta in self.pairs(random.Random(4), False, 2000):
            got = sj.j_remainder_difference(a, b, delta)
            full = self.without_cut(monkeypatch, sj.j_remainder_difference,
                                    a, b, delta)
            for value, reference in zip(got, full):
                assert abs(value - reference) <= 1e-18 * abs(reference), \
                    (a, b)

    def test_one_row_far_out(self):
        # at |z| = 1e12 the tail of the first row alone is below 2^-70 of it
        assert bisect_left(sj._ASYMPTOTIC_REACH, 1e-24) == 0
        assert bisect_left(sj._ASYMPTOTIC_REACH, 0.01) == 14
