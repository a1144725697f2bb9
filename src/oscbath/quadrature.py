"""Adaptive Gauss-Kronrod quadrature on finite intervals and the half line.

Built for integrands that are smooth except at a few known points and that
decay exponentially or as an inverse power beyond some finite scale.  The
half line is covered by a first panel at its start followed by
geometrically growing panels; panels are then bisected adaptively, worst
error first, until every component meets its tolerance target; refinement
that stops gaining on the rounding noise raises.  The 7/15-point
Gauss-Kronrod pair is an open rule (no node sits on a panel edge), so an
endpoint singularity is never evaluated.  An integrable logarithmic
singularity at an endpoint is integrated by :func:`integrate_log_endpoint`
in the coordinate log(1/t), where it is smooth.

The panel, not the node, is the unit of work.  An integrand takes the 15
abscissae of one panel, as a list, and returns one column of 15 floats
per component (a sequence of lists or tuples, column k holding component
k at every abscissa in order); it is called once per panel.  All
components are integrated in one pass: each node is evaluated once, every
component gets its own Kronrod value, error estimate and tolerance target,
and the tail march and the refinement stop only when every component
meets its target.  A single integral is the one-component case, one
column.

All routines are pure functions of their arguments and are safe to call
concurrently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
from typing import Callable, Sequence

__all__ = [
    "QuadratureResult",
    "IntegrandEvaluationError",
    "QuadratureConvergenceError",
    "integrate_interval",
    "integrate_semi_infinite",
    "integrate_log_endpoint",
]

# Kronrod-15 nodes on [-1, 1] with Kronrod weights; the odd-indexed nodes are
# the embedded Gauss-7 points, whose Gauss weights follow.
_KRONROD_NODES = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
)
_KRONROD_WEIGHTS = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
)
_GAUSS_WEIGHTS = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
)

_EPS = 2.220446049250313e-16
_SMALLEST = math.ulp(0.0)   # the smallest positive float

# A component's tolerance target is the larger of the absolute tolerance and
# the relative tolerance times its current value.
_RELATIVE_TOLERANCE = 1e-12
_ABSOLUTE_TOLERANCE = 1e-15
_MAX_SUBDIVISIONS = 4000    # bisections per integral
_TAIL_GROWTH = 2.0          # width ratio of successive tail panels
_MAX_TAIL_PANELS = 400      # tail panels before the decay counts as too slow
# Round-off detection, as QUADPACK's qage: a bisection stagnates when the
# two halves reproduce their parent's value to _STAGNANT_CHANGE relative
# without shrinking its error below _STAGNANT_SHRINK of it, and it grows
# the error when made after the first _GROWTH_GRACE bisections.  Too many
# of either mean the error estimates are rounding noise, which no further
# bisection removes.
_STAGNANT_CHANGE = 1e-5
_STAGNANT_SHRINK = 0.99
_GROWTH_GRACE = 10
_MAX_STAGNANT = 6
_MAX_GROWING = 20


# One panel's 15 abscissae -> one column of 15 values per component.
Integrand = Callable[[list[float]], Sequence[Sequence[float]]]


@dataclass(frozen=True)
class QuadratureResult:
    """``value`` and ``error`` hold one entry per integrand component."""
    value: tuple[float, ...]
    error: tuple[float, ...]  # estimated bound on |value - true integral|
    evaluations: int      # abscissae evaluated: 15 per panel, all components
    subdivisions: int


class IntegrandEvaluationError(ValueError):
    """The integrand returned NaN or infinity at ``abscissa``."""

    def __init__(self, abscissa: float):
        self.abscissa = abscissa
        super().__init__(f"integrand is not finite at t = {abscissa!r}")


class QuadratureConvergenceError(RuntimeError):
    """Tolerance not met within the subdivision budget.

    ``best`` carries the estimate and error bound reached before giving up.
    """

    def __init__(self, best: QuadratureResult, message: str):
        self.best = best
        bound = ", ".join(f"{e:.3e}" for e in best.error)
        super().__init__(f"{message} (best value {best.value!r}, "
                         f"error bound {bound})")


def _eval_panel(f, a, b):
    """Gauss-Kronrod pair on [a, b] for every component of f, from one
    call of f on the panel's 15 abscissae.

    Returns (kronrod values, error estimates, resasc) per component;
    resasc + |kronrod| bounds Integral |f| over the panel and scales its
    rounding floor, and an error as large as resasc marks a panel the rule
    does not resolve.  A component whose Kronrod sum is not finite is
    scanned node by node, and the first non-finite value raises
    IntegrandEvaluationError naming its abscissa."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = [mid + half * t for t in _KRONROD_NODES]
    values, errors, variations = [], [], []
    for column in f(nodes):
        kronrod = sum(map(mul, _KRONROD_WEIGHTS, column))
        if not math.isfinite(kronrod):
            for x, y in zip(nodes, column):
                if not math.isfinite(y):
                    raise IntegrandEvaluationError(x)
        gauss = sum(map(mul, _GAUSS_WEIGHTS, column[1::2]))
        # QUADPACK-style estimate: sharpen |K - G| by the panel's own
        # variation scale resasc ~ Integral |f - mean|, so smooth panels get
        # the realistic (much smaller) Kronrod error while rough or singular
        # panels keep a conservative bound.
        mean = 0.5 * kronrod
        resasc = half * sum(map(mul, _KRONROD_WEIGHTS,
                                map(abs, map(sub, column, repeat(mean)))))
        kronrod *= half
        gauss *= half
        diff = abs(kronrod - gauss)
        err = diff
        if resasc > 0.0 and diff > 0.0:
            ratio = 200.0 * diff / resasc
            err = resasc * min(1.0, ratio ** 1.5)
        err += 10.0 * _EPS * abs(kronrod)
        values.append(kronrod)
        errors.append(err)
        variations.append(resasc)
    return values, errors, variations


class _PanelSet:
    """Mutable workspace: a heap of panels, worst first, where a panel's
    badness is its largest component error over that component's target.
    Running totals are kept per component; the result sums the panels
    afresh, exactly rounded, so that the rounding of the many updates of
    a running value does not reach it."""

    def __init__(self, f):
        self.f = f
        self.heap = []          # (-badness, seq, a, b, values, errors)
        self.retired = []       # values of panels too narrow to bisect
        self.seq = 0
        self.value = []
        self.error = []
        self.size = []          # bound on Integral |f|, for the rounding floor
        self.evaluations = 0

    def add(self, a, b):
        values, errors, variations = _eval_panel(self.f, a, b)
        if not self.value:
            self.value, self.error, self.size = ([0.0] * len(values)
                                                 for _ in range(3))
        for k, (val, err, resasc) in enumerate(zip(values, errors,
                                                   variations)):
            self.value[k] += val
            self.error[k] += err
            self.size[k] += resasc + abs(val)
        self.evaluations += 15
        heapq.heappush(self.heap, (-self.badness(errors), self.seq, a, b,
                                   values, errors))
        self.seq += 1
        return values, errors, variations

    def targets(self):
        return [max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * abs(value))
                for value in self.value]

    def badness(self, errors):
        return max(err / target for err, target in zip(errors, self.targets()))

    def converged(self):
        return all(err <= target
                   for err, target in zip(self.error, self.targets()))

    def result(self, subdivisions, tail_bound=None):
        tail_bound = tail_bound or [0.0] * len(self.value)
        panels = [entry[4] for entry in self.heap] + self.retired
        values = tuple(math.fsum(panel[k] for panel in panels)
                       for k in range(len(self.value)))
        errors = tuple(err + 50.0 * _EPS * size + tail for err, size, tail
                       in zip(self.error, self.size, tail_bound))
        return QuadratureResult(values, errors, self.evaluations, subdivisions)

    def refine(self, tail_bound=None):
        """Bisect worst panels until every component meets its target.

        Counts the bisections that fail on the component that chose the
        panel (the largest error over target) and raises once they show
        that rounding noise, not truncation, sets the error estimates."""
        # badness was keyed against the targets at push time; re-key it
        # against the targets as they stand now
        self.heap = [(-self.badness(errors), seq, a, b, values, errors)
                     for _, seq, a, b, values, errors in self.heap]
        heapq.heapify(self.heap)
        subdivisions = 0
        stagnant = growing = 0
        while not self.converged():
            if subdivisions >= _MAX_SUBDIVISIONS:
                raise QuadratureConvergenceError(
                    self.result(subdivisions, tail_bound),
                    f"no convergence within {_MAX_SUBDIVISIONS} "
                    "subdivisions")
            if stagnant >= _MAX_STAGNANT or growing >= _MAX_GROWING:
                raise QuadratureConvergenceError(
                    self.result(subdivisions, tail_bound),
                    "round-off error keeps the estimate above the "
                    f"tolerance target after {subdivisions} subdivisions")
            if not self.heap:
                raise QuadratureConvergenceError(
                    self.result(subdivisions, tail_bound),
                    "all panels at machine resolution before reaching "
                    "the tolerance target")
            _, _, a, b, values, errors = heapq.heappop(self.heap)
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                # panel narrower than machine resolution: it leaves the
                # heap and its error stays in the totals
                self.retired.append(values)
                continue
            for k, (val, err) in enumerate(zip(values, errors)):
                self.value[k] -= val
                self.error[k] -= err
            targets = self.targets()
            k = max(range(len(errors)), key=lambda j: errors[j] / targets[j])
            halves = self.add(a, mid), self.add(mid, b)
            subdivisions += 1
            if any(err[k] >= resasc[k] for _, err, resasc in halves):
                # a half the rule does not resolve yet: its error is its
                # variation and says nothing about round-off
                continue
            value = sum(vals[k] for vals, _, _ in halves)
            error = sum(err[k] for _, err, _ in halves)
            if (abs(values[k] - value) <= _STAGNANT_CHANGE * abs(value)
                    and error >= _STAGNANT_SHRINK * errors[k]):
                stagnant += 1
            if subdivisions > _GROWTH_GRACE and error > errors[k]:
                growing += 1
        return self.result(subdivisions, tail_bound)


def integrate_interval(f: Integrand, a: float, b: float,
                       *, points: Sequence[float] = ()) -> QuadratureResult:
    """Integrate every component of f over the finite interval [a, b];
    ``points`` inside it are the edges of the initial panels."""
    if not b > a:
        raise ValueError("requires b > a")
    panels = _PanelSet(f)
    edges = [a] + sorted(x for x in points if a < x < b) + [b]
    for left, right in zip(edges, edges[1:]):
        if right > left:
            panels.add(left, right)
    return panels.refine()


def integrate_semi_infinite(f: Integrand, *, start: float = 0.0,
                            points: Sequence[float] = (),
                            first_panel: float = 1.0) -> QuadratureResult:
    """Integrate every component of f over (start, infinity).

    The integrand must be bounded near ``start`` (for a logarithmic
    singularity there, see :func:`integrate_log_endpoint`) and must decay
    at least like an inverse power beyond a finite scale.  Panels
    march toward infinity from one of width ``first_panel`` (> 0) at
    ``start``, each twice as wide as the last, and the tail is cut once two
    in a row are negligible.  ``points`` beyond ``start`` become panel
    edges, as in QUADPACK's ``points``: a sharp feature is resolved in few
    panels when they are graded toward it.  The tail is cut only beyond the
    last of them.  Returns the estimate together with an error bound
    combining the panel estimates, the truncated-tail bound, and a
    floating-point accumulation floor, per component.  Raises
    :class:`QuadratureConvergenceError` when the budget is exhausted or
    round-off stalls the refinement, and :class:`IntegrandEvaluationError`
    on a non-finite integrand value.
    """
    if not first_panel > 0.0:
        raise ValueError("first_panel must be > 0")
    panels = _PanelSet(f)
    edges = sorted(x for x in points if x > start)
    if edges and not math.isfinite(edges[-1]):
        raise ValueError("integrate_semi_infinite: points must be finite")

    # March panels toward infinity until two consecutive ones are negligible
    # against the running tolerance target of every component.
    a = start
    width = first_panel
    quiet = 0
    next_edge = 0
    last_edge = edges[-1] if edges else start
    for _ in range(_MAX_TAIL_PANELS + len(edges)):
        while next_edge < len(edges) and edges[next_edge] <= a:
            next_edge += 1
        b = a + width
        if next_edge < len(edges) and edges[next_edge] < b:
            b = edges[next_edge]
        else:
            width *= _TAIL_GROWTH
        values, errors, _ = panels.add(a, b)
        a = b
        if a >= last_edge and all(
                abs(val) + err < 0.25 * target for val, err, target
                in zip(values, errors, panels.targets())):
            quiet += 1
            if quiet >= 2:
                tail_bound = [abs(val) + err
                              for val, err in zip(values, errors)]
                break
        else:
            quiet = 0
    else:
        raise QuadratureConvergenceError(
            panels.result(0),
            f"tail not negligible after {_MAX_TAIL_PANELS} panels "
            f"(reached t = {a:.3e}); integrand may decay too slowly")

    return panels.refine(tail_bound)


def integrate_log_endpoint(f: Integrand, width: float) -> QuadratureResult:
    """Integrate every component of f over (0, width), where f may have an
    integrable logarithmic singularity at 0.

    In the coordinate s = log(width/t) the integral is

        Integral_0^inf f(width e^{-s}) width e^{-s} ds,

    whose integrand is smooth wherever f is smooth in log t, a log t
    factor included, and decays like s e^{-s}: the half-line march of
    :func:`integrate_semi_infinite` resolves in a few panels what
    bisection toward t = 0 resolves in dozens.  Value and error are those
    of the integral over t; evaluations and subdivisions count the panels
    in s.  A non-finite integrand value raises
    :class:`IntegrandEvaluationError` naming its t.
    """
    if not 0.0 < width < math.inf:
        raise ValueError("integrate_log_endpoint: width must be finite "
                         "and > 0")

    def mapped(nodes: list[float]) -> list[list[float]]:
        # far out in s a small width underflows t to 0, where f may not
        # be defined; the smallest positive t leaves t f(t) as negligible
        ts = [max(width * math.exp(-s), _SMALLEST) for s in nodes]
        return [list(map(mul, ts, column)) for column in f(ts)]

    try:
        return integrate_semi_infinite(mapped)
    except IntegrandEvaluationError as exc:
        raise IntegrandEvaluationError(
            width * math.exp(-exc.abscissa)) from None
