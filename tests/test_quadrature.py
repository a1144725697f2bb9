"""Tests for the adaptive semi-infinite quadrature oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbath import quadrature
from oscbath.baths import OhmicSpec, canonicalize, free_energy_integrand
from oscbath.quadrature import (
    IntegrandEvaluationError,
    QuadratureConvergenceError,
    integrate_interval,
    integrate_log_endpoint,
    integrate_semi_infinite,
)
from panels import one, panel

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def bose_log(t):
    # log(1 - e^{-t}), integrable log singularity at 0, exponential tail
    return math.log(-math.expm1(-t))


def basel_sum():
    """Independent oracle for the Bose integral: -sum 1/n^2, summed
    directly with an Euler-Maclaurin tail."""
    cut = 100000
    partial = sum(1.0 / (n * n) for n in range(1, cut))
    tail = 1.0 / cut + 1.0 / (2.0 * cut**2) + 1.0 / (6.0 * cut**3)
    return partial + tail


class TestExamples:
    def test_exponential(self):
        result = integrate_semi_infinite(one(lambda t: math.exp(-t)))
        (value,), (error,) = result.value, result.error
        assert abs(value - 1.0) < 1e-12
        assert abs(value - 1.0) <= error

    def test_j_at_one_integrand(self):
        # -(1/pi) log(1-e^{-2 pi t}) / (1+t^2) integrates to 1 - log sqrt(2 pi)
        expected = 1.0 - LOG_SQRT_2PI

        def f(t):
            return -math.log(-math.expm1(-2.0 * math.pi * t)) / (
                math.pi * (1.0 + t * t))

        result = integrate_semi_infinite(one(f))
        (value,), (error,) = result.value, result.error
        assert abs(value - expected) < 1e-12
        assert abs(value - expected) <= error

    def test_bose_integral(self):
        expected = -basel_sum()
        assert abs(expected + math.pi**2 / 6.0) < 1e-12  # oracle sanity
        result = integrate_semi_infinite(one(bose_log))
        (value,), (error,) = result.value, result.error
        assert abs(value - expected) < 1e-12
        assert abs(value - expected) <= error


class TestFailures:
    def test_non_finite_integrand_reports_abscissa(self):
        def f(t):
            return math.nan if t > 3.0 else math.exp(-t)

        with pytest.raises(IntegrandEvaluationError) as excinfo:
            integrate_semi_infinite(one(f))
        assert excinfo.value.abscissa > 3.0

    def test_non_convergence_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            integrate_semi_infinite(one(bose_log))
        (value,), (error,) = excinfo.value.best.value, excinfo.value.best.error
        assert math.isfinite(value)
        assert error > 0.0
        # crude but real: the carried estimate is in the right ballpark
        assert abs(value + math.pi**2 / 6.0) < 0.1

    def test_slow_tail_rejected(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_TAIL_PANELS", 10)
        with pytest.raises(QuadratureConvergenceError, match="10 panels"):
            integrate_semi_infinite(one(lambda t: 1.0 / (1.0 + t)))

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
    def test_first_panel_must_be_positive(self, width):
        with pytest.raises(ValueError, match="first_panel"):
            integrate_semi_infinite(one(lambda t: math.exp(-t)),
                                    first_panel=width)

    def test_round_off_stops_refinement_early(self):
        # the weak-damping resonance of the Ohmic gamma = 1e-6 free-energy
        # integrand sits inside one panel; its rounding noise (~1e-16/gamma
        # relative) keeps the error estimate above the 1e-12 target however
        # far the panel is bisected
        bath = canonicalize(OhmicSpec(gamma=1e-6))
        theta = 0.5

        def f(w):
            return (math.log(-math.expm1(-w / theta))
                    * free_energy_integrand(bath, w))

        with pytest.raises(QuadratureConvergenceError,
                           match="round-off") as excinfo:
            integrate_semi_infinite(one(f), first_panel=0.5)
        best = excinfo.value.best
        assert best.subdivisions <= 0.1 * quadrature._MAX_SUBDIVISIONS
        assert abs(best.value[0] + 0.456830530591) < 1e-9


class TestProperties:
    @given(a=st.floats(0.2, 5.0), b=st.floats(0.2, 5.0),
           ca=st.floats(-3.0, 3.0), cb=st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, ca, cb):
        f = lambda t: math.exp(-a * t)
        g = lambda t: math.exp(-b * t * t)
        combined = lambda t: ca * f(t) + cb * g(t)
        (i_f, e_f), (i_g, e_g), (i_c, e_c) = (
            (result.value[0], result.error[0]) for result in
            map(integrate_semi_infinite, (one(f), one(g), one(combined))))
        tol = 1e-12 * (1.0 + abs(ca) + abs(cb)) + \
            e_c + abs(ca) * e_f + abs(cb) * e_g
        assert abs(i_c - (ca * i_f + cb * i_g)) <= tol

    @given(c=st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_splitting_consistency(self, c):
        f = one(lambda t: math.exp(-0.7 * t) / (1.0 + t * t))
        (full,) = integrate_semi_infinite(f).value
        (left,) = integrate_interval(f, 0.0, c).value
        (right,) = integrate_semi_infinite(f, start=c).value
        tol = 10.0 * max(1e-15, 1e-12 * abs(full))
        assert abs(full - (left + right)) <= tol

    def test_monotone_refinement(self, monkeypatch):
        # tightening the relative tolerance never worsens the achieved
        # error against a closed form (above the double-precision floor)
        expected = 1.0
        previous = math.inf
        for exponent in range(4, 13):
            monkeypatch.setattr(quadrature, "_RELATIVE_TOLERANCE",
                                10.0**-exponent)
            achieved = abs(
                integrate_semi_infinite(one(lambda t: math.exp(-t))).value[0]
                - expected)
            assert achieved <= previous + 5e-16
            previous = achieved

    def test_error_estimate_is_a_bound_on_log_singularity(self):
        # the reported error bounds the true error even with the endpoint
        # singularity present
        result = integrate_semi_infinite(one(bose_log))
        assert abs(result.value[0] + math.pi**2 / 6.0) <= result.error[0]


class TestInterval:
    def test_interval_basic(self):
        result = integrate_interval(one(math.sin), 0.0, math.pi)
        assert abs(result.value[0] - 2.0) < 1e-13

    def test_error_bounds_a_cancelling_integral(self):
        # the true value is 0; rounding of the two cancelling halves must
        # show in the error, which scales with Integral |f| = 2
        result = integrate_interval(one(math.cos), 0.0, math.pi)
        (value,), (error,) = result.value, result.error
        assert error >= abs(value)
        assert error < 1e-12

    def test_interval_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate_interval(one(math.sin), 1.0, 1.0)


class TestLogEndpoint:
    """A log singularity at 0, integrated in the coordinate log(1/t)."""

    def test_log(self):
        result = integrate_log_endpoint(one(math.log), 1.0)
        (value,), (error,) = result.value, result.error
        assert abs(value + 1.0) <= 1e-14
        assert abs(value + 1.0) <= error
        # bisection toward t = 0 takes several times the work
        assert 3 * result.evaluations < \
            integrate_interval(one(math.log), 0.0, 1.0).evaluations

    def test_tuple_integrand(self):
        result = integrate_log_endpoint(
            panel(lambda t: (math.log(t), math.log(t) / (1.0 + t),
                             t * math.log(t))),
            1.0)
        for value, error, expected in zip(result.value, result.error,
                                          (-1.0, -math.pi**2 / 12.0, -0.25)):
            assert abs(value - expected) <= 1e-14 * abs(expected)
            assert abs(value - expected) <= error

    def test_width(self):
        expected = 2.0 * math.log(2.0) - 2.0
        (value,) = integrate_log_endpoint(one(math.log), 2.0).value
        assert abs(value - expected) <= 1e-14 * abs(expected)

    def test_width_where_t_underflows(self):
        # far out in log(1/t), t = width e^{-s} underflows to 0, where
        # log t is not defined
        width = 1e-300
        expected = math.log(width) - 1.0
        (value,) = integrate_log_endpoint(one(lambda t: math.log(t) / width),
                                          width).value
        assert abs(value - expected) <= 1e-14 * abs(expected)

    def test_bose_integral_in_two_pieces(self):
        (head,) = integrate_log_endpoint(one(bose_log), 1.0).value
        (tail,) = integrate_semi_infinite(one(bose_log), start=1.0).value
        expected = -math.pi**2 / 6.0
        assert abs(head + tail - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
    def test_width_must_be_finite_and_positive(self, width):
        with pytest.raises(ValueError, match="width"):
            integrate_log_endpoint(one(math.log), width)

    def test_non_finite_integrand_reports_t(self):
        def f(t):
            return math.nan if t < 1e-3 else math.log(t)

        with pytest.raises(IntegrandEvaluationError) as excinfo:
            integrate_log_endpoint(one(f), 1.0)
        assert 0.0 < excinfo.value.abscissa < 1e-3


class TestVector:
    """A tuple-valued integrand is one pass: every node evaluated once,
    each component converged to its own target."""

    @staticmethod
    def smooth(t):
        return math.exp(-t) / (1.0 + t * t)

    def test_components_match_one_component_integrals(self):
        # the log-singular component needs far more refinement than the
        # smooth one and drives it for both
        vector = integrate_semi_infinite(
            panel(lambda t: (self.smooth(t), bose_log(t))))
        smooth = integrate_semi_infinite(one(self.smooth))
        singular = integrate_semi_infinite(one(bose_log))
        assert isinstance(vector.value, tuple) and len(vector.value) == 2
        assert isinstance(vector.error, tuple) and len(vector.error) == 2
        for k, single in enumerate((smooth, singular)):
            assert abs(vector.value[k] - single.value[0]) <= \
                vector.error[k] + single.error[0]
        assert abs(vector.value[1] + math.pi**2 / 6.0) <= vector.error[1]
        # shared nodes: more work than the easy component alone, less than
        # two separate integrations
        assert smooth.evaluations < vector.evaluations
        assert vector.evaluations < smooth.evaluations + singular.evaluations

    def test_component_order_does_not_matter(self):
        forward = integrate_semi_infinite(
            panel(lambda t: (self.smooth(t), bose_log(t))))
        backward = integrate_semi_infinite(
            panel(lambda t: (bose_log(t), self.smooth(t))))
        assert forward.value == backward.value[::-1]
        assert forward.evaluations == backward.evaluations

    def test_one_component_result_is_a_one_tuple(self):
        single = integrate_semi_infinite(one(bose_log))
        assert isinstance(single.value, tuple) and len(single.value) == 1
        assert isinstance(single.error, tuple) and len(single.error) == 1
        assert abs(single.value[0] + math.pi**2 / 6.0) <= single.error[0]

    def test_interval(self):
        result = integrate_interval(panel(lambda t: (math.sin(t), t * t)),
                                    0.0, math.pi)
        assert abs(result.value[0] - 2.0) < 1e-13
        assert abs(result.value[1] - math.pi**3 / 3.0) < 1e-12

    def test_non_finite_component_reports_abscissa(self):
        def f(t):
            return math.exp(-t), (math.nan if t > 3.0 else math.exp(-t))

        with pytest.raises(IntegrandEvaluationError) as excinfo:
            integrate_semi_infinite(panel(f))
        assert excinfo.value.abscissa > 3.0

    def test_non_convergence_reports_every_component(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            integrate_semi_infinite(
                panel(lambda t: (math.exp(-t), bose_log(t))))
        best = excinfo.value.best
        assert len(best.value) == len(best.error) == 2
        assert abs(best.value[1] + math.pi**2 / 6.0) < 0.1


class TestPoints:
    """``points`` grade panels toward a sharp feature."""

    def test_narrow_lorentzian(self):
        # width 1e-6 at t = 1: graded edges resolve it in fewer panels than
        # bisection from the plain march, to the same value
        width = 1e-6

        def f(t):
            return width / ((t - 1.0) ** 2 + width * width) * math.exp(-t)

        edges = [1.0]
        offset = width
        while offset < 0.25:
            edges += [1.0 - offset, 1.0 + offset]
            offset *= 2.0
        graded = integrate_semi_infinite(one(f), points=edges)
        plain = integrate_semi_infinite(one(f))
        (graded_value,), (plain_value,) = graded.value, plain.value
        assert abs(graded_value - plain_value) <= 1e-10 * plain_value
        assert abs(graded_value - math.pi / math.e) < 10.0 * width
        assert graded.evaluations < plain.evaluations

    def test_tail_is_not_cut_before_the_last_point(self):
        # the integrand is zero until a bump at 50: without the point the
        # march would stop after two quiet panels
        def f(t):
            return math.exp(-((t - 50.0) ** 2)) if t > 40.0 else 0.0

        result = integrate_semi_infinite(one(f), points=[50.0])
        assert abs(result.value[0] - math.sqrt(math.pi)) < 1e-10
        assert integrate_semi_infinite(one(f)).value == (0.0,)

    def test_points_at_or_before_start_are_ignored(self):
        plain = integrate_semi_infinite(one(lambda t: math.exp(-t)))
        with_points = integrate_semi_infinite(one(lambda t: math.exp(-t)),
                                              points=[-1.0, 0.0])
        assert plain.value == with_points.value

    def test_points_must_be_finite(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(one(lambda t: math.exp(-t)),
                                    points=[math.inf])
