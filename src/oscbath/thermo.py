"""Thermodynamic functions of the damped oscillator.

Everything is computed in reduced units: temperatures enter as
theta = k T / (hbar omega0), free energy and internal energy come out in
units of hbar omega0, entropy and heat capacity in units of k.  The
zero-point contribution hbar omega / 2 is omitted throughout except in the
dedicated zero-point routines.

Two independent exact routes are provided.  The closed form writes the
free energy through the Stieltjes J-function at the four characteristic
frequencies,

    F(theta) = theta [ J(W) - J(W') - J(x1) - J(x1*) ],

with W = Omega/(2 pi theta) etc. and x1 from the root pair of the
oscillator factor; for the Ohmic bath the cutoff terms are absent.  The
quadrature route integrates the spectral form

    F(theta) = (theta/pi) Integral dw log(1 - e^{-w/theta}) * bracket(w)

directly, with the matching moments in the same pass, and exists purely
to cross-check the closed form.  The series route (:func:`series_point`)
sums the printed low- and high-temperature expansions term by term.
Every route returns the jet (G, A, B) of F/theta, from which one rule
(:func:`_point`) makes F, S, U and C.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .baths import CanonicalBath, roots, spectral_weight, static_weight
from .quadrature import (IntegrandEvaluationError, integrate_interval,
                         integrate_log_endpoint, integrate_semi_infinite)
from .stieltjes import (_ASYMPTOTIC_HORNER, _ASYMPTOTIC_REACH, EULER_GAMMA,
                        SMALL_ARGUMENT, _NEAR_AXIS, _REMAINDER_ASYMPTOTIC,
                        _horner, _remainder_difference, _remainder_jet,
                        _series_difference, _series_jet, j_reflection, zeta)

__all__ = [
    "ThermoPoint", "DivergenceError", "METHODS",
    "free_energy_exact", "free_energy_quadrature", "thermo_point", "sweep",
    "ohmic_low_temperature", "ohmic_high_temperature",
    "qed_low_temperature", "qed_high_temperature", "series_point",
    "zero_point", "zero_point_ohmic_asymptotic",
]

# The routes of sweep() and thermo_point(), in the order rows list them.
METHODS = ("exact_j", "exact_quadrature", "low_T_series", "high_T_series")
# Thermal factors exp(-w/theta) below exp(-_RESONANCE_REACH) underflow
# against the resonance; colder points leave the resonance unresolved.
_RESONANCE_REACH = 700.0
# Panel edges graded toward the weak-damping resonance at w = 1 stop
# this far from it; broader resonances (gamma >= 2 x this) need none.
_RESONANCE_SPAN = 0.25
# Beyond x = w/theta ~ 745.2, exp(-x) is 0.0 and every thermal kernel is
# exactly 0: the quadrature route integrates nothing at w >= _DARK theta.
_DARK = 746.0


class DivergenceError(ValueError):
    """A requested quantity has no finite value for this bath."""


@dataclass(frozen=True)
class ThermoPoint:
    """One temperature sample: theta = kT/(hbar omega0), F and U in
    hbar omega0, S and C in k, and the route that produced them."""
    theta: float
    F: float
    S: float
    U: float
    C: float
    method: str


class _Plan(NamedTuple):
    """What the exact routes need of one bath, made once per call and
    shared by every temperature of a sweep; the closed form runs each of
    its terms over the whole temperature list in one pass (:func:`_j_sum`).

    ``terms`` lists the closed form's characteristic frequencies c as
    (sigma, c, mate, gap) for sigma J(c/(2 pi theta)): sigma = -1 for a
    pole of alpha (a root, Omega'), +1 for Omega, -2 for an underdamped
    root c standing for c and conj(c).  A mate marks a pair differenced
    over the exact step c - mate: Omega and its nearest real pole, with
    c - mate = -c mate gap (:func:`_plan`); or an underdamped root near
    the imaginary axis (Re c < _NEAR_AXIS Im c) and its mirror image
    mate = -conj(c), c - mate = 2 Re c: J(c) + J(conj c) is J(c) - J(mate)
    plus :func:`oscbath.stieltjes.j_reflection` at mate.  ``least`` is the
    smallest |c| of the terms and their mates, which sets where a
    temperature is cold: every argument c/(2 pi theta) at or above
    _REMAINDER_ASYMPTOTIC.  The power sums of the cold points,
    :func:`_power_rows`, are formed from the terms and ``least`` when a
    sweep has a cold point.  ``static`` is
    :func:`oscbath.baths.static_weight`, minus the sum of sigma/c with the
    cutoff relation's cancellation done exactly.
    """
    terms: tuple[tuple[float, complex | float, complex | float | None,
                       float | None], ...]
    least: float
    static: float


def _plan(bath: CanonicalBath) -> _Plan:
    """The :class:`_Plan` of a bath.  Omega pairs with its nearest real
    pole, the step from the sum rule over the poles p of alpha: on the
    blackbody relation 1/Omega = sum 1/p, mate = min p and gap is the
    other poles' sum of 1/p; on the relaxation relation Omega = sum p,
    mate = max p and gap = -(their sum of p)/(Omega mate).  A root pair
    sums to gamma either way, and 1/z1* = z1."""
    pair = roots(bath.gamma)
    c, terms = pair.z1, []
    if pair.regime == "underdamped":
        terms.append((-1.0, c, -c.conjugate(), None)
                     if c.real < _NEAR_AXIS * c.imag else (-2.0, c, None, None))
    poles = [c.real, pair.z1_conj.real] if pair.regime == "overdamped" else []
    if math.isfinite(bath.OmegaPrime):
        poles.append(bath.OmegaPrime)
    terms += [(-1.0, p, None, None) for p in poles]
    if math.isfinite(bath.Omega) and not poles:    # point electron, no real pole
        terms.append((1.0, bath.Omega, None, None))
    elif math.isfinite(bath.Omega):
        blackbody = bath.relation == "blackbody"
        mate = min(poles) if blackbody else max(poles)
        rest = bath.gamma if mate == bath.OmegaPrime else c.real + (
            1.0 / bath.OmegaPrime if blackbody else bath.OmegaPrime)
        gap = rest if blackbody else -rest / (bath.Omega * mate)
        terms[len(terms) - len(poles) + poles.index(mate)] = (
            1.0, bath.Omega, mate, gap)
    least = min(abs(z) for _, c, mate, _ in terms for z in (c, mate)
                if z is not None)
    return _Plan(tuple(terms), least, static_weight(bath))


def _power_rows(plan: _Plan) -> tuple[tuple[tuple[float, float, float],
                                            ...], ...]:
    """The rows of the cold points' series, cut as _ASYMPTOTIC_ROWS is.

    Where every argument x = c/(2 pi theta) has |x| >= 10, the sum over
    the plan of sigma R(x) is the asymptotic series of R summed term by
    term, sum_n A_n t^(2n+1) P_n with t = 2 pi theta/least and the scaled
    power sums P_n = sum sigma Re (least/c)^(2n+1), n = 1 .. 15: scaled
    so that no power under- or overflows where unscaled c^-31 would.  Each
    row of _ASYMPTOTIC_HORNER times its P_n gives the jet of the sum as
    t (Q0, -Q1, Q2)(t^2), one Horner chain per point.  A pair enters as
    sigma Re (alpha^m - beta^m), alpha = least/c and beta = least/mate,
    from D_1 = alpha - beta over its exact step by
    D_(m+2) = alpha^2 D_m + beta^m (alpha - beta)(alpha + beta): least gap
    for the Omega pair, least 2 Re c/|c|^2 for a mirror pair, whose
    reflection term the caller adds at each point."""
    sums = [0.0] * len(_ASYMPTOTIC_HORNER)
    for sign, c, mate, gap in plan.terms:
        alpha = plan.least / c
        square = alpha * alpha
        if mate is None:
            power = alpha * square
            for n in range(len(sums)):
                sums[n] += sign * power.real
                power *= square
            continue
        beta = plan.least / mate
        step = plan.least * (gap if gap is not None
                             else 2.0 * c.real / abs(c) ** 2)
        cross = step * (alpha + beta)
        difference, power = step, beta
        for n in range(len(sums)):
            difference = square * difference + power * cross
            power *= beta * beta
            sums[n] += sign * difference.real
    rows = tuple((r0 * p, r1 * p, r2 * p)
                 for (r0, r1, r2), p in zip(_ASYMPTOTIC_HORNER, sums[::-1]))
    return tuple(rows[-n:] for n in range(1, len(rows) + 1))


def _j_sum(plan: _Plan, thetas: list[float]
           ) -> list[tuple[float, float, float]]:
    """G, A and B at each temperature of ``thetas``: the sums of
    sigma J(x), sigma x J'(x) and sigma x^2 J''(x) over the characteristic
    arguments x = c/(2 pi theta) of the closed form, from the jets of J.

    A cold point, where every |x| >= _REMAINDER_ASYMPTOTIC, takes the sum
    of the remainders from the plan's power sums (:func:`_power_rows`,
    formed when the list has a cold point) in one Horner chain in
    t^2 = (2 pi theta/least)^2, cut as the asymptotic series of one
    argument is at the least |x|, plus a mirror pair's reflection term.

    The other points are summed term by term: each term of the plan runs
    over those points at once, with what does not depend on theta
    (whether a pair is a mirror pair) decided once for the term, and
    calls the jet cores of :mod:`oscbath.stieltjes` directly.  Every point
    still adds its terms in plan order, so it is the same to the bit as a
    pass over that one temperature.

    Arguments of modulus >= SMALL_ARGUMENT contribute remainders after the
    leading 1/(12 x) of J, whose sum L enters G, A and B as (L, -L, 2L);
    when all do, L is -(2 pi theta/12) times the plan's static weight.  A
    pair of the plan is differenced over x - b while both arguments lie
    at or above SMALL_ARGUMENT/2, the Omega pair also while both lie below
    SMALL_ARGUMENT; below SMALL_ARGUMENT/2, where 2 Re J(x) cancels
    little, a mirror pair is summed as that, from the power series.
    A subnormal theta, one where 2 pi theta overflows and one where an
    argument x is 0 raise ValueError naming the first such theta.
    """
    least = plan.least
    scales = []
    for theta in thetas:
        if theta < sys.float_info.min:          # 2 pi x overflows
            raise ValueError(f"theta = {theta!r} is subnormal")
        s = 1.0 / (2.0 * math.pi * theta)
        if s == 0.0:
            raise ValueError(f"theta = {theta!r} is too large: 2 pi theta "
                             "overflows")
        if least * s == 0.0:
            raise ValueError(f"theta = {theta!r} is out of the range of the "
                             "exact_j route: an argument c/(2 pi theta) "
                             "is 0")
        scales.append(s)
    count = len(scales)
    G, A, B = [0.0] * count, [0.0] * count, [0.0] * count
    inverse = [0.0] * count  # sum of sigma/x over the remainder terms
    whole = [False] * count  # some J entered whole, not as a remainder
    warm = []
    cold = []
    for i, s in enumerate(scales):
        (cold if least * s >= _REMAINDER_ASYMPTOTIC else warm).append((i, s))
    if cold:
        rows = _power_rows(plan)
        mirrors = [(sign, mate) for sign, c, mate, gap in plan.terms
                   if type(mate) is complex]
        for i, s in cold:
            t = 2.0 * math.pi * thetas[i] / least
            u = t * t
            q0, q1, q2 = _horner(rows[bisect_left(_ASYMPTOTIC_REACH, u)], u)
            G[i], A[i], B[i] = t * q0, -t * q1, t * q2
            for sign, mate in mirrors:
                g, a, b = j_reflection(mate * s)
                G[i] += sign * g.real
                A[i] += sign * a.real
                B[i] += sign * b.real

    def single(i, sign, x):
        if abs(x) < SMALL_ARGUMENT:
            whole[i] = True
            g, a, b = _series_jet(x)
        else:
            inverse[i] += sign * (1.0 / x).real
            g, a, b = _remainder_jet(x)
        G[i] += sign * g.real
        A[i] += sign * a.real
        B[i] += sign * b.real

    for sign, c, mate, gap in plan.terms:
        if mate is None:
            for i, s in warm:
                single(i, sign, c * s)
            continue
        mirror = type(mate) is complex
        for i, s in warm:
            x = c * s
            b = mate * s
            size = abs(x), abs(b)
            small = max(size) < SMALL_ARGUMENT
            if min(size) >= 0.5 * SMALL_ARGUMENT or small and not mirror:
                delta = x - b if mirror else -x * mate * gap
                if small:
                    whole[i] = True
                    jet = _series_difference(x, b, delta)
                else:
                    inverse[i] -= sign * (delta / (x * b)).real
                    jet = _remainder_difference(x, b, delta)
                if mirror:
                    jet = [d + k for d, k in zip(jet, j_reflection(b))]
                G[i] += sign * jet[0].real
                A[i] += sign * jet[1].real
                B[i] += sign * jet[2].real
            elif mirror:    # below the difference floor
                single(i, 2.0 * sign, x)
            else:           # astride the series switch
                single(i, -sign, b)
                single(i, sign, x)
    jets = []
    for theta, g, a, b, total, taken in zip(thetas, G, A, B, inverse, whole):
        if not taken:
            total = -2.0 * math.pi * theta * plan.static
        lead = total / 12.0
        jets.append((g + lead, a - lead, b + 2.0 * lead))
    return jets


def _check(theta: float, gamma: float = 0.0) -> None:
    """ValueError unless theta is finite and > 0 and gamma finite and >= 0."""
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be finite and > 0 (got {theta!r})")
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0 (got {gamma!r})")


def _point(theta: float, G: float, A: float, B: float,
           method: str) -> ThermoPoint:
    """The ThermoPoint of the jet (G, A, B) of F/theta, G = F/theta,
    A = -theta dG/dtheta and B = -A - theta dA/dtheta: F = theta G,
    S = A - G, U = theta A and C = -B.  Where one of them is not finite,
    raises OverflowError naming theta and the route."""
    point = ThermoPoint(theta, theta * G, A - G, theta * A, -B, method)
    if not all(map(math.isfinite, (point.F, point.S, point.U, point.C))):
        raise OverflowError(f"theta = {theta!r} is out of the range of the "
                            f"{method} route: it overflows")
    return point


def free_energy_exact(bath: CanonicalBath, theta: float) -> float:
    """Oscillator free energy by the closed J-function form: the F of
    :func:`thermo_point` on the ``exact_j`` route.

    F = theta G, with G the signed sum of J over the characteristic
    arguments.  Underdamped roots form one complex-conjugate pair and
    contribute twice the real part of one argument.  Infinite cutoffs
    contribute nothing (J -> 0 at infinity) and are skipped analytically.
    The theta = 0 limit is :func:`zero_point`.
    """
    return thermo_point(bath, theta).F


def _resonance_edges(gamma: float, theta: float) -> list[float]:
    """Panel edges in the detuning w - 1, graded geometrically toward the
    resonance at w = 1 from both sides, from half the weak-damping
    line width (gamma/2) out to _RESONANCE_SPAN, so that every panel is
    about as wide as its distance from the peak; none for a broad resonance
    or one the thermal factor has already extinguished."""
    half = 0.5 * gamma
    if half >= _RESONANCE_SPAN or theta * _RESONANCE_REACH < 1.0:
        return []
    edges = [0.0]
    offset = half
    while offset < _RESONANCE_SPAN:
        edges += [-offset, offset]
        offset *= 2.0
    return edges


def _moments(ws: list[float], weights: list[float], theta: float,
             norm: float) -> tuple[list[float], list[float], list[float]]:
    """The three thermal kernels of :func:`_spectral_moments` times
    norm b(w), one column each, at the abscissae ``ws`` with the spectral
    weights b(w) of ``weights``.  At x = w/theta beyond ~745.2 all three
    are exactly 0 (of either sign)."""
    exp, expm1, log, log1p = math.exp, math.expm1, math.log, math.log1p
    free, energy, heat = [], [], []
    for w, weight in zip(ws, weights):
        weight *= norm
        x = w / theta
        if x < 1e-150:  # x*x and 1/x leave the float range: log x, 1, 1
            free.append((log(w) - log(theta)) * weight)
            energy.append(weight)
            heat.append(weight)
            continue
        decay = exp(-x)
        rise = -expm1(-x)                            # 1 - e^{-x}
        # log(1 - e^{-x}): log(-expm1) keeps x -> 0 accurate; log1p keeps
        # large x from rounding to log 1 = 0
        log_factor = log(rise) if x < 1.0 else log1p(-decay)
        bose = decay / rise                          # 1 / (e^x - 1)
        # beyond x ~ 745 bose is 0, and x * x may overflow
        kernel = x * x * bose / rise if bose else 0.0
        free.append(log_factor * weight)
        energy.append(x * bose * weight)
        heat.append(kernel * weight)
    return free, energy, heat


def _spectral_moments(static: float,
                      weight_of: Callable[[float, float], float],
                      gamma: float, theta: float) -> tuple[float, float, float]:
    """The jet (G, A, B) of F/theta by one vector-valued quadrature of the
    spectral form, from the bath's static weight, spectral weight
    b(w) = weight_of(w, w - 1) and gamma, not from its roots.  With
    x = w/theta,

        G =  (1/pi) Integral dw log(1 - e^{-x}) b(w)             = F/theta
        A =  (1/pi) Integral dw x / (e^x - 1) b(w)               = U/theta
        B = -(1/pi) Integral dw x^2 e^{-x} / (1 - e^{-x})^2 b(w) = -C

    and the three kernels (:func:`_moments`) share every node.  The half
    line is integrated in three pieces: (0, h), h = min(theta, 1/2), in
    log(h/w), where the log singularity of the G kernel at w = 0 is smooth
    (:func:`oscbath.quadrature.integrate_log_endpoint`); (h, 1/2) in w,
    with panel edges doubling outward from h; and the detuning w - 1
    beyond, with panels doubling outward from the thermal scale
    t = min(1, theta) and edges graded toward a weak-damping resonance in
    thermal reach, so node positions near it keep their precision and the
    cost grows with log(1/gamma) only.  The dark cut: at w >= 746 theta
    every kernel is exactly 0 (e^{-x} underflows), so the march of
    (h, 1/2) ends at its first doubling edge at or beyond 746 theta, and
    the piece beyond 1/2 is skipped when 1/2 >= 746 theta; the panels
    left out would add 0 to every value, error and size total, so the
    result is the same to the bit.  Each component is divided by t times
    the size of b at w ~ t, so the absolute tolerance floor acts relative
    to the moments' own size.  A theta where that scale or a kernel leaves
    the float range raises OverflowError naming theta.
    """
    t = min(1.0, theta)
    # b on the thermal scale: the smallest nonzero size of the static value
    # and of b at t/2, t, 2t (so that one probe on the resonance cannot set it)
    sizes = [abs(static)] + [abs(weight_of(w, w - 1.0))
                             for w in (0.5 * t, t, 2.0 * t)]
    scale = min((size for size in sizes if size > 0.0), default=0.0) * t
    if scale < sys.float_info.min:
        raise OverflowError(f"theta = {theta!r} is too small for the "
                            "quadrature route: the spectral weight underflows")
    norm = 1.0 / scale                   # G = F/theta ~ scale

    def near_origin(ws: list[float]) -> tuple[list[float], ...]:
        return _moments(ws, [weight_of(w, w - 1.0) for w in ws], theta, norm)

    def by_detuning(us: list[float]) -> tuple[list[float], ...]:
        ws = [1.0 + u for u in us]
        return _moments(ws, list(map(weight_of, ws, us)), theta, norm)

    split = 0.5
    head = min(theta, split)
    dark = _DARK * theta
    try:
        pieces = [integrate_log_endpoint(near_origin, head)]
        if head < split:
            march = []
            edge = 2.0 * head
            while edge < split and edge < dark:
                march.append(edge)
                edge *= 2.0
            pieces.append(integrate_interval(near_origin, head,
                                             min(edge, split), points=march))
        if split < dark:
            pieces.append(integrate_semi_infinite(
                by_detuning, start=split - 1.0,
                points=_resonance_edges(gamma, theta), first_panel=t))
    except IntegrandEvaluationError as exc:
        raise OverflowError(f"theta = {theta!r} is out of the range of the "
                            f"quadrature route: {exc}") from None
    k = scale / math.pi
    G, A, heat = (k * sum(parts) for parts in zip(*(p.value for p in pieces)))
    return G, A, -heat


def free_energy_quadrature(bath: CanonicalBath, theta: float) -> float:
    """Oscillator free energy by direct quadrature of the spectral form;
    the independent cross-check of :func:`free_energy_exact`: the F of
    :func:`thermo_point` on the ``exact_quadrature`` route."""
    return thermo_point(bath, theta, "exact_quadrature").F


def sweep(bath: CanonicalBath, thetas: Iterable[float],
          method: str = "exact_j") -> list[ThermoPoint]:
    """F, S, U, C at each temperature of ``thetas``, in order, from one
    route of :data:`METHODS` (see :func:`thermo_point`).

    The two exact routes set up what they need of the bath once for the
    whole list: ``exact_j`` its plan (the characteristic frequencies and
    the static weight), and then runs term by term, each characteristic
    frequency over the whole list (:func:`_j_sum`); ``exact_quadrature``
    the static and spectral weights, and no root.  The two series routes
    run :func:`series_point` at each temperature.
    Every point is bit-identical to :func:`thermo_point` at its
    temperature, and a list holding temperatures where the route fails
    raises what :func:`thermo_point` raises at the first of them.  An
    unknown method, or a temperature that is not finite and > 0, raises
    ValueError before any point is computed.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    thetas = list(thetas)
    for theta in thetas:
        _check(theta)
    if method.endswith("_series"):
        regime = method.removesuffix("_series")
        return [series_point(bath, theta, regime) for theta in thetas]
    if method == "exact_quadrature":
        spectrum = static_weight(bath), spectral_weight(bath), bath.gamma
        return [_point(theta, *_spectral_moments(*spectrum, theta), method)
                for theta in thetas]
    plan = _plan(bath)
    try:
        jets = _j_sum(plan, thetas)
    except (ArithmeticError, ValueError):
        # some temperature fails: one at a time, so that the first failing
        # one of the list is named, as thermo_point names it
        jets = (_j_sum(plan, [theta])[0] for theta in thetas)
    return [_point(theta, *jet, method) for theta, jet in zip(thetas, jets)]


def thermo_point(bath: CanonicalBath, theta: float,
                 method: str = "exact_j") -> ThermoPoint:
    """F, S, U, C at one temperature: the one-point :func:`sweep`.

    Every route forms the jet (G, A, B) of F/theta (A = U/theta, B = -C),
    and one rule makes the point: F = theta G, S = A - G, U = theta A and
    C = -B; where one is not finite, OverflowError names theta and route.

    ``exact_j``: one pass over the characteristic arguments
    x = c/(2 pi theta) sums G = sum sigma J(x), A = sum sigma x J'(x) and
    B = sum sigma x^2 J''(x) from the jets of :mod:`oscbath.stieltjes`.
    Nothing is differenced and the closed form's cancellations are done
    analytically, so each is good to a few 1e-15 relative, tiny values
    included.  A subnormal theta, or one so large that 2 pi theta
    overflows, raises ValueError; F = theta G overflows above theta
    ~2.6e305.

    ``exact_quadrature``: G, A and B are three spectral moments from one
    quadrature pass over shared nodes, and S = A - G, which does not
    cancel because the thermal G is negative and A positive.  No
    differencing is involved, so S, U and C are cross-checked on their own
    rather than derived from F.

    ``low_T_series`` and ``high_T_series``: :func:`series_point` in the
    ``low_T`` or ``high_T`` regime.
    """
    return sweep(bath, [theta], method)[0]


def _power_jet(terms: Iterable[tuple[int, float]]
               ) -> tuple[float, float, float]:
    """The jet (G, A, B) of a sum of power terms c theta^p of G = F/theta,
    given as (p, c theta^p): each enters G, A and B with the factors 1, -p
    and p (p + 1)."""
    G = A = B = 0.0
    for p, term in terms:
        G += term
        A -= p * term
        B += p * (p + 1) * term
    return G, A, B


def _low_t_series(theta: float, gamma: float, a: float,
                  n_terms: int) -> ThermoPoint:
    """The first n_terms terms of the low-temperature series, with theta^2
    coefficient ``a`` of F: the bath's static weight, gamma for the Ohmic
    bath and 0 for the blackbody bath.  A theta so large that a term
    overflows raises OverflowError."""
    g2 = gamma * gamma
    pi = math.pi
    coefficients = (-pi * a / 6.0,
                    -pi**3 * gamma * (3.0 - g2) / 45.0,
                    -8.0 * pi**5 * gamma * (5.0 - 5.0 * g2 + g2 * g2) / 315.0)
    # theta^p as a product, which overflows to inf where ** would raise
    return _point(theta, *_power_jet(
        (p, c * math.prod([theta] * p))
        for p, c in zip((1, 3, 5), coefficients[:n_terms])), "low_T_series")


def ohmic_low_temperature(theta: float, gamma: float,
                          n_terms: int = 3) -> ThermoPoint:
    """Low-temperature series for the Ohmic bath (reduced units):

        F = -[ pi theta^2 gamma/6 + pi^3 theta^4 gamma(3-gamma^2)/45
               + 8 pi^5 theta^6 gamma(5-5 gamma^2+gamma^4)/315 ]

    and the matching term-by-term S, U = F + theta S and C.  Every term
    carries a factor gamma, so the uncoupled limit vanishes identically.
    A theta that is not finite and > 0, or a gamma that is not finite and
    >= 0, raises ValueError, here and in the other printed series.
    """
    if not 1 <= n_terms <= 3:
        raise ValueError("ohmic_low_temperature: n_terms must be 1..3")
    _check(theta, gamma)
    return _low_t_series(theta, gamma, gamma, n_terms)


def qed_low_temperature(theta: float, gamma: float,
                        n_terms: int = 2) -> ThermoPoint:
    """Low-temperature series for the blackbody (QED) bath: the Ohmic
    table with theta^2 coefficient 0, the static weight of the blackbody
    bath, leaving the theta^4 term in front."""
    if not 1 <= n_terms <= 2:
        raise ValueError("qed_low_temperature: n_terms must be 1..2")
    _check(theta, gamma)
    return _low_t_series(theta, gamma, 0.0, n_terms + 1)


def _chebyshev(n: int, x: float) -> float:
    """T_n(x) by the recurrence; for x > 1 this continues cos(n arccos x)
    to cosh(n arccosh x), which is what the overdamped case needs; n >= 1."""
    prev, cur = 1.0, x
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def _arc_term(gamma: float) -> float:
    """omega1 * arccos(gamma/2) continued through critical damping (where
    it is 0) as |omega1| * log(gamma/2 - |omega1|)."""
    if gamma == 0.0:                # its limit, the uncoupled oscillator
        return 0.5 * math.pi
    pair = roots(gamma)
    if pair.regime == "underdamped":
        return pair.omega1 * math.acos(0.5 * gamma)
    return pair.omega1 * math.log(pair.z1.real)


def ohmic_high_temperature(theta: float, gamma: float,
                           n_terms: int = 6) -> ThermoPoint:
    """High-temperature series for the Ohmic bath (reduced units).

    With x = 1/(2 pi theta) and T_n the Chebyshev polynomial at gamma/2,

        F = -theta log theta - (gamma/2 pi) log(2 pi theta)
            - arc/pi - (gamma/2 pi)(1 - gamma_E)
            - 2 theta sum_n (-1)^n (zeta(n)/n) x^n T_n,

    where arc = omega1 arccos(gamma/2), continued for overdamped friction
    as |omega1| log(gamma/2 - |omega1|); S, U, C are the term-by-term
    derivatives.  The sum runs over n = 2 .. n_terms+1.  As gamma -> 0 the
    series resums to the uncoupled result theta log(1 - e^{-1/theta}).
    A theta where the series overflows (its powers of x below theta ~ 1e-45
    with 6 terms, theta log theta above ~2.5e305) raises OverflowError.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    _check(theta, gamma)
    return _point(theta, *_ohmic_high_t_jet(theta, gamma, n_terms),
                  "high_T_series")


def _ohmic_high_t_jet(theta: float, gamma: float,
                      n_terms: int) -> tuple[float, float, float]:
    """The jet (G, A, B) of :func:`ohmic_high_temperature`'s F/theta: the
    sum by :func:`_power_jet` (its x^n is a power theta^-n), the log terms
    in closed form."""
    x = 1.0 / (2.0 * math.pi * theta)
    G, A, B = _power_jet((-n, -2.0 * zeta(n) * math.prod([-x] * n)
                          * _chebyshev(n, 0.5 * gamma) / n)
                         for n in range(2, n_terms + 2))
    half_g = gamma / (2.0 * math.pi)
    log_2pt = math.log(2.0 * math.pi * theta)
    constant = _arc_term(gamma) / math.pi + half_g * (1.0 - EULER_GAMMA)
    return (G - math.log(theta) - (half_g * log_2pt + constant) / theta,
            A + 1.0 + (half_g * (1.0 - log_2pt) - constant) / theta,
            B - 1.0 + half_g / theta)


def qed_high_temperature(theta: float, gamma: float,
                         n_terms: int = 2) -> ThermoPoint:
    """Leading high-temperature behavior of the blackbody (QED) bath:

        F = -theta log theta + pi theta^2 gamma / 6
        S = log theta + 1 - pi theta gamma / 3
        U = theta - pi theta^2 gamma / 3
        C = 1 - 2 pi theta gamma / 3        (= dU/dtheta)

    These are truncations at different orders of the same expansion, so
    U - F - theta S is not zero here but of the dropped order
    (pi theta^2 gamma / 6).  A theta where they overflow raises
    OverflowError.
    """
    if not 1 <= n_terms <= 2:
        raise ValueError("qed_high_temperature: n_terms must be 1..2")
    _check(theta, gamma)
    F, S, U, C = -theta * math.log(theta), math.log(theta) + 1.0, theta, 1.0
    if n_terms == 2:
        F += math.pi * theta * theta * gamma / 6.0
        S -= math.pi * theta * gamma / 3.0
        U -= math.pi * theta * theta * gamma / 3.0
        C -= 2.0 * math.pi * theta * gamma / 3.0
    if not all(map(math.isfinite, (F, S, U, C))):
        raise OverflowError(f"theta = {theta!r} is out of the range of the "
                            "high_T_series route: it overflows")
    return ThermoPoint(theta, F, S, U, C, "high_T_series")


def series_point(bath: CanonicalBath, theta: float,
                 regime: str) -> ThermoPoint:
    """Series-route ThermoPoint for a canonical bath, in the ``low_T`` or
    ``high_T`` regime.

    Low T: one table whose theta^2 coefficient is the bath's
    :func:`oscbath.baths.static_weight` (0 for the blackbody bath).  High
    T: the Ohmic series plus dF = pi theta^2 (1/Omega - 1/Omega')/6, a
    power term of F/theta: 0 for the Ohmic bath, the printed QED term
    pi theta^2 gamma/6 on the blackbody relation.  No regime is checked;
    a theta that is not finite and > 0 raises ValueError, and one where a
    series overflows OverflowError.
    """
    if regime not in ("low_T", "high_T"):
        raise ValueError(f"unknown regime {regime!r}")
    _check(theta)
    if regime == "low_T":
        return _low_t_series(theta, bath.gamma, static_weight(bath), 3)
    G, A, B = _ohmic_high_t_jet(theta, bath.gamma, 6)
    # dF/theta = pi theta (1/Omega - 1/Omega')/6, 0.0 for the Ohmic bath
    shift = math.pi / 6.0 * (1.0 / bath.Omega - 1.0 / bath.OmegaPrime) * theta
    return _point(theta, G + shift, A - shift, B + 2.0 * shift,
                  "high_T_series")


def zero_point(bath: CanonicalBath) -> float:
    """Zero-point free energy (= zero-point energy), units hbar omega0.

    Finite only for the single-relaxation-time bath, whose cutoffs obey
    the sum rule Omega = Omega' + gamma (``bath.relation ==
    "relaxation"``): the four-Lorentzian spectral integrand then decays
    fast enough.  The value is

        (1/2 pi) [ Omega' log((Omega'+gamma)/Omega')
                   + gamma log(Omega'+gamma) + 2 arc ],

    with arc = omega1 arccos(gamma/2) continued overdamped as for
    the high-temperature series.  The QED cutoff relation breaks the sum
    rule no matter how large the cutoffs are, and the Ohmic limit diverges
    logarithmically; both raise :class:`DivergenceError`.
    """
    if bath.relation is None:
        raise DivergenceError(
            "zero-point energy of the Ohmic bath is logarithmically "
            "divergent; use zero_point_ohmic_asymptotic for small tau")
    if bath.relation == "blackbody":
        raise DivergenceError(
            "zero-point energy diverges unless the cutoffs satisfy the "
            "spectral sum rule Omega = Omega' + gamma: it diverges for the "
            "QED model, for any value of the cutoff")
    op, g = bath.OmegaPrime, bath.gamma
    value = op * math.log1p(g / op) + g * math.log(op + g) + 2.0 * _arc_term(g)
    return value / (2.0 * math.pi)


def zero_point_ohmic_asymptotic(gamma: float, tau: float) -> float:
    """Small-tau zero-point energy of the Ohmic bath (gamma in units of
    omega0, tau in units of 1/omega0):

        (1/2 pi) [ gamma (1 - log tau) + 2 arc ]      (units hbar omega0)

    which diverges logarithmically as tau -> 0: shrinking tau tenfold adds
    exactly (gamma / 2 pi) log 10.
    """
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and > 0 (got {tau!r})")
    value = gamma * (1.0 - math.log(tau)) + 2.0 * _arc_term(gamma)
    return value / (2.0 * math.pi)
