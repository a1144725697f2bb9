"""The Stieltjes J-function, evaluated by several independent routes.

J(z) is the logarithmic remainder of the gamma function,

    J(z) = log Gamma(z+1) - log sqrt(2 pi) - (z + 1/2) log z + z,

equal on the right half plane to the integral

    J(z) = -(1/pi) * Integral_0^inf dt log(1 - exp(-2 pi t)) * z / (z^2 + t^2).

Conventions differ on the stated domain of that integral (Re z > 0 versus
Im z > 0); this module adopts Re z > 0, where the integral converges.  The
imaginary axis is a natural boundary of the integral: continuation into the
left half plane is *not* the continuation of the integral but follows from
the log-gamma form, which holds on the plane cut along the negative real
axis, and reduces to the reflection identity

    J(z e^{+-i pi}) = -J(z) - log(1 - e^{-+ 2 pi i z}),   Re z > 0.

Available routes:

* :func:`j_quadrature`  -- the defining integral, via adaptive quadrature.
  Independent of every series and of the Lanczos rational core, hence the
  cross-check for all the others.
* :func:`j_loggamma`    -- the log-gamma form, usable off the cut.
* :func:`j_lanczos`     -- the Lanczos rational approximation (g = 5, N = 6),
  right half plane, error below one part per billion on the gamma scale
  (i.e. absolute error on J below ~1e-9; note this is *not* a relative
  bound on J itself, which decays like 1/(12 z)).
* :func:`j_series_small` -- Taylor-type series for |z| < 1.
* :func:`j_asymptotic`  -- divergent large-|z| series in even Bernoulli
  numbers, with the first omitted term reported as the truncation bound.
* :func:`j_continue_left` -- J in the left half plane, from :func:`j_jet`.
* :func:`j_auto_named`  -- region dispatch over the routes, named.

Each of these routes rejects a non-finite z with ValueError naming z, and
the quadrature and log-gamma routes also a z outside the domain where they
were measured to meet their bounds (:data:`QUADRATURE_RANGE` of |z|;
:data:`LOGGAMMA_FLOOR` of Re z and :data:`LOGGAMMA_REACH` of |z|).  The
Lanczos, log-gamma, asymptotic and continuation routes raise OverflowError
naming z where their value of J is not finite; the series is finite on its
disk, and the quadrature raises IntegrandEvaluationError where its
integrand is not finite.

The thermodynamic functions need J and its first two derivatives to full
double precision, as jets (J, z J', z^2 J''): :func:`j_jet` for J whole,
:func:`j_remainder` with the leading 1/(12 z) term taken out,
:func:`j_remainder_difference` / :func:`j_difference` between nearby
arguments (see the section on remainders below), and :func:`j_reflection`
for J(w) + J(-w), which carries :func:`j_jet` into the left half plane.

Everything here is pure and thread-safe; the coefficient tables are built
once, at import time or, for the Taylor tables of :mod:`oscbath._jet_tables`,
on first use.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect, bisect_left
from fractions import Fraction

from .quadrature import integrate_log_endpoint, integrate_semi_infinite

__all__ = [
    "EULER_GAMMA", "LOG_SQRT_2PI",
    "LANCZOS_G", "LANCZOS_N", "LANCZOS_D",
    "BERNOULLI_EVEN", "zeta",
    "log_gamma", "LOGGAMMA_FLOOR", "LOGGAMMA_REACH", "QUADRATURE_RANGE",
    "j_quadrature", "j_loggamma", "j_lanczos", "j_series_small",
    "j_asymptotic", "j_continue_left", "j_auto_named",
    "SMALL_ARGUMENT", "j_jet", "j_reflection",
    "j_remainder", "j_remainder_difference", "j_difference",
]

EULER_GAMMA = 0.5772156649015328606
LOG_SQRT_2PI = 0.9189385332046727418

# Lanczos approximation, shift g = 5 with N = 6 correction terms.
LANCZOS_G = 5.0
LANCZOS_N = 6
LANCZOS_D = (
    1.000000000190015,
    76.18009172947146,
    -86.50532032941677,
    24.01409824083091,
    -1.231739572450155,
    0.001208650973866179,
    -0.000005395239384953,
)

# Even-index Bernoulli numbers B_2 .. B_22 as exact rationals.
BERNOULLI_EVEN = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
}
# B_24 .. B_34, kept private: the remainder engine's asymptotic series below
# takes its terms through B_32, and B_24 bounds the longest partial sum of
# j_asymptotic.
_BERNOULLI_BEYOND = {
    24: Fraction(-236364091, 2730),
    26: Fraction(8553103, 6),
    28: Fraction(-23749461029, 870),
    30: Fraction(8615841276005, 14322),
    32: Fraction(-7709321041217, 510),
    34: Fraction(2577687858367, 6),
}

_MAX_ASYMPTOTIC_TERMS = len(BERNOULLI_EVEN)  # 11

# The |z| range where j_quadrature is measured to stay within 5e-15 of J
# (relative) off the imaginary axis: below 1e-16 the peak of its kernel at
# t ~ |z| falls inside the first panel unseen, above 1e11 J ~ 1/(12 z)
# approaches the 1e-15 absolute tolerance of the quadrature.
QUADRATURE_RANGE = (1e-16, 1e11)
# Re z below which j_loggamma no longer meets its 1e-9 absolute bound:
# log_gamma shifts the argument right one unit per step, whose rounding
# (and time) grows with |Re z|; 6.4e-10 worst seen on (-1e4, -1e3).
LOGGAMMA_FLOOR = -1e4
# |z| above which j_loggamma no longer meets that bound: log Gamma(z + 1)
# and the Stirling terms, each ~|z log z|, cancel to J ~ 1/(12 z); 8e-10
# worst seen for |z| up to 1e5 against j_jet, 3.6e-9 at |z| = 1e6.
LOGGAMMA_REACH = 1e5


def _zeta_euler_maclaurin(s: int, cut: int = 50, corrections: int = 8) -> float:
    """zeta(s) for integer s >= 2: direct sum to ``cut`` plus the
    Euler-Maclaurin tail.  Accurate to well below 1e-16 for s >= 2."""
    total = sum(k ** (-float(s)) for k in range(1, cut))
    total += 0.5 * cut ** (-float(s))
    total += cut ** (1.0 - s) / (s - 1.0)
    rising = float(s)                       # s (s+1) ... (s + 2j - 2)
    for j in range(1, corrections + 1):
        b2j = float(BERNOULLI_EVEN[2 * j])
        total += (b2j / math.factorial(2 * j)) * rising * cut ** (-float(s + 2 * j - 1))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


_ZETA_TABLE_MAX = 60
_ZETA = {n: _zeta_euler_maclaurin(n) for n in range(2, _ZETA_TABLE_MAX + 1)}


def zeta(n: int) -> float:
    """Riemann zeta at integer n >= 2, from the precomputed table.

    Beyond the table zeta(n) - 1 - 2^-n - 3^-n < 4^-n, far below double
    precision, so the first three terms suffice.
    """
    if n < 2:
        raise ValueError("zeta table covers integer arguments n >= 2")
    if n <= _ZETA_TABLE_MAX:
        return _ZETA[n]
    return 1.0 + 2.0 ** (-n) + 3.0 ** (-n)


def _on_cut(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0


def _finite_argument(name, z, label="z"):
    """z as a complex number; ValueError naming it where it is not finite."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{name}: {label} = {z!r} is not finite")
    return z


# A part of z above this overflows 12 z, and may overflow Python's complex
# quotient c/z within (to 0 or nan): such quotients scale by 2^-5 first.
_HUGE = 2.0 ** 1018


def _huge(z):
    return abs(z.real) > _HUGE or abs(z.imag) > _HUGE


def _finite_value(name, z, value):
    """A route's value of J at z; OverflowError naming z where it is not
    finite, so that no route returns inf or nan."""
    if not cmath.isfinite(value):
        raise OverflowError(f"{name}: J is not finite at z = {z!r}")
    return value


def _log1p(z: complex) -> complex:
    """Principal log(1 + z) for complex z, accurate for small |z|."""
    if abs(z) > 0.5:
        return cmath.log(1.0 + z)
    # |1 + z|^2 - 1 and arg(1 + z) without forming 1 + z
    x, y = z.real, z.imag
    return complex(0.5 * math.log1p(x * (2.0 + x) + y * y),
                   math.atan2(y, 1.0 + x))


def _lanczos_series(z: complex) -> complex:
    acc = LANCZOS_D[0]
    for n in range(1, LANCZOS_N + 1):
        acc += LANCZOS_D[n] / (z + n)
    return acc


def log_gamma(w: complex) -> complex:
    """log Gamma(w), continuous on the plane cut along (-inf, 0].

    Lanczos form for Re w >= 0.5; smaller real parts are shifted right with
    the recurrence log Gamma(w) = log Gamma(w+n) - sum log(w+k), which
    preserves the continuous branch for w off the cut.  The shift takes
    one step per unit of Re w, so Re w < LOGGAMMA_FLOOR raises ValueError
    naming w.
    """
    w = complex(w)
    if _on_cut(w):
        raise ValueError("log_gamma: argument on the branch cut (-inf, 0]")
    if w.real < LOGGAMMA_FLOOR:
        raise ValueError(f"log_gamma: w = {w!r} has Re w < "
                         f"{LOGGAMMA_FLOOR:g}, beyond the reach of its shift")
    shift = 0.0 + 0.0j
    while w.real < 0.5:
        shift += cmath.log(w)
        w += 1.0
    g_half = LANCZOS_G + 0.5
    t = w + (g_half - 1.0)
    value = ((w - 0.5) * cmath.log(t) - t + LOG_SQRT_2PI
             + cmath.log(_lanczos_series(w - 1.0)))
    return value - shift


def j_loggamma(z: complex) -> complex:
    """J(z) from the log-gamma form, to 1e-9 absolute; valid off the cut
    (-inf, 0] with Re z >= LOGGAMMA_FLOOR and |z| <= LOGGAMMA_REACH.

    Left of the floor the shift of :func:`log_gamma` misses the bound
    (4e-9 at -1e5 + 1j), and beyond the reach the cancellation between the
    log-gamma and Stirling terms does (3.6e-9 at |z| = 1e6; the value is 0
    at 1e7, where J = 8.3e-9); either raises ValueError naming z.  Prefer
    :func:`j_lanczos` or :func:`j_asymptotic` at large |z|.
    """
    z = _finite_argument("j_loggamma", z)
    if _on_cut(z):
        raise ValueError("j_loggamma: z on the branch cut (-inf, 0]")
    if z.real < LOGGAMMA_FLOOR:
        raise ValueError(f"j_loggamma: z = {z!r} has Re z < "
                         f"{LOGGAMMA_FLOOR:g}, where the route misses its "
                         "1e-9 bound")
    if abs(z) > LOGGAMMA_REACH:
        raise ValueError(f"j_loggamma: z = {z!r} has |z| > "
                         f"{LOGGAMMA_REACH:g}, where the route misses its "
                         "1e-9 bound")
    return _finite_value("j_loggamma", z, log_gamma(z + 1.0) - LOG_SQRT_2PI
                         - (z + 0.5) * cmath.log(z) + z)


def j_lanczos(z: complex) -> complex:
    """J(z) by the Lanczos rational formula, closed right half plane.

    J(z) = (z + 1/2) log((z + g + 1/2)/z) - g - 1/2 + log(d0 + sum dn/(z+n))

    Absolute error stays below one part per billion for Re z >= 0 (the same
    rational core as :func:`log_gamma`, with the Stirling part cancelled
    analytically, so no large-|z| cancellation).  The imaginary axis
    (z != 0) is allowed: the formula remains finite and continuous there.
    """
    z = _finite_argument("j_lanczos", z)
    if z == 0:
        raise ValueError("j_lanczos: z = 0 is a singular point")
    if z.real < 0.0:
        raise ValueError("j_lanczos: requires Re z >= 0; use j_continue_left")
    g_half = LANCZOS_G + 0.5
    step = (g_half / 32.0) / (z / 32.0) if _huge(z) else g_half / z
    return _finite_value("j_lanczos", z, (z + 0.5) * _log1p(step)
                         - g_half + cmath.log(_lanczos_series(z)))


def j_series_small(z: complex, n_terms: int = 60) -> complex:
    """J(z) for |z| < 1 by the series

    J(z) = -log sqrt(2 pi) - (z + 1/2) log z + z - gamma_E z
           + sum_{n=2}^{n_terms} (-1)^n zeta(n)/n z^n.

    Terms shrink like |z|^n, so n_terms must grow as |z| -> 1 (about 300
    terms at |z| = 0.9 for full double precision).
    """
    z = _finite_argument("j_series_small", z)
    if n_terms < 2:
        raise ValueError("j_series_small: n_terms must be >= 2")
    if abs(z) >= 1.0:
        raise ValueError("j_series_small: series diverges for |z| >= 1")
    if _on_cut(z):
        raise ValueError("j_series_small: z on the branch cut (-inf, 0]")
    value = -LOG_SQRT_2PI - (z + 0.5) * cmath.log(z) + z - EULER_GAMMA * z
    power = z
    sign = 1.0
    for n in range(2, n_terms + 1):
        power *= z
        value += sign * (zeta(n) / n) * power
        sign = -sign
    return value


def j_asymptotic(z: complex, n_terms: int = 11) -> tuple[complex, float]:
    """Large-|z| asymptotic series for J(z), with its truncation bound.

    Returns the partial sum

        sum_{n=0}^{n_terms-1} B_{2n+2} / ((2n+1)(2n+2)) * z^{-(2n+1)}

    together with the magnitude of the first omitted term, the usual
    accuracy heuristic for an optimally truncated asymptotic series.  The
    series is divergent: if the first omitted term already exceeds the last
    kept one the requested order is in the divergent regime and a
    ValueError is raised instead.
    """
    z = _finite_argument("j_asymptotic", z)
    if z == 0:
        raise ValueError("j_asymptotic: z = 0 is a singular point")
    if not 1 <= n_terms <= _MAX_ASYMPTOTIC_TERMS:
        raise ValueError(
            f"j_asymptotic: n_terms must be in 1..{_MAX_ASYMPTOTIC_TERMS}")
    inv_z = 1.0 / z
    inv_z2 = inv_z * inv_z
    power = inv_z
    value = 0.0 + 0.0j
    last_magnitude = math.inf
    for n in range(n_terms):
        m = 2 * n + 2
        term = (float(BERNOULLI_EVEN[m]) / ((m - 1) * m)) * power
        value += term
        last_magnitude = abs(term)
        power *= inv_z2
    m = 2 * n_terms + 2
    b_next = _BERNOULLI_BEYOND[m] if m > 22 else BERNOULLI_EVEN[m]
    bound = abs((float(b_next) / ((m - 1) * m)) * power)
    if bound > last_magnitude:
        raise ValueError(
            "j_asymptotic: divergent regime at this order "
            f"(first omitted term {bound:.2e} exceeds last kept "
            f"{last_magnitude:.2e}); use fewer terms or another method")
    return _finite_value("j_asymptotic", z, value), bound


def j_continue_left(w: complex) -> complex:
    """J(w) for Re w < 0, off the negative real axis: the value of
    :func:`j_jet`, there from the reflection identity for |w| >= 1/2.
    Values from above and below the negative real axis genuinely differ
    (branch structure inherited from log Gamma)."""
    w = _finite_argument("j_continue_left", w)
    if w.imag == 0.0:
        raise ValueError("j_continue_left: negative real axis is the branch cut")
    if w.real >= 0.0:
        raise ValueError("j_continue_left: requires Re w < 0 "
                         "(the imaginary axis is a natural boundary)")
    return _finite_value("j_continue_left", w, j_jet(w)[0])


def j_quadrature(z: complex) -> complex:
    """J(z) from the defining integral, Re z > 0 and
    QUADRATURE_RANGE[0] <= |z| <= QUADRATURE_RANGE[1] only.

    Real and imaginary parts of the integrand are the two components of
    one adaptive pass over shared nodes, making this route independent of
    the Lanczos rational core used by every analytic formula here.  The
    log singularity of the integrand at t = 0 is integrated over (0, 1) in
    the coordinate log(1/t), the rest over (1, inf) in t.  Outside that
    range of |z| the kernel z / (z^2 + t^2) is a peak the panels miss or a
    value below the absolute tolerance, and the result would be silently
    wrong, so a z there raises ValueError naming it.  Within it the
    relative error is 5e-15 along rays arg z up to 1.55; nearer the
    imaginary axis at small |z|, where the peak at t ~ Im z has width
    Re z, it is up to 3.0e-14 at |z| = 0.1 and 4.1e-13 at |z| = 1e-16
    (arg z = 1.5707).
    """
    z = _finite_argument("j_quadrature", z)
    if not z.real > 0.0:
        raise ValueError("j_quadrature: the integral requires Re z > 0")
    low, high = QUADRATURE_RANGE
    if not low <= abs(z) <= high:
        raise ValueError(f"j_quadrature: z = {z!r} is outside the range "
                         f"{low:g} <= |z| <= {high:g} of the quadrature")
    z_sq = z * z
    inv_pi = 1.0 / math.pi

    def integrand(ts: list[float]) -> tuple[list[float], list[float]]:
        real, imag = [], []
        for t in ts:
            # log(1 - e^{-2 pi t}): log(-expm1) keeps t -> 0 accurate;
            # log1p keeps large t from rounding to log 1 = 0
            x = 2.0 * math.pi * t
            if x < 1.0:
                log_factor = math.log(-math.expm1(-x))
            else:
                log_factor = math.log1p(-math.exp(-x))
            kernel = z / (z_sq + t * t)
            weight = -inv_pi * log_factor
            real.append(weight * kernel.real)
            imag.append(weight * kernel.imag)
        return real, imag

    head = integrate_log_endpoint(integrand, 1.0).value
    tail = integrate_semi_infinite(integrand, start=1.0).value
    value_re, value_im = head[0] + tail[0], head[1] + tail[1]
    return complex(value_re, value_im if z.imag else 0.0)


def j_auto_named(z: complex) -> tuple[complex, str]:
    """J(z) by region dispatch, returning (value, route name).

    Re z > 0 goes to the Lanczos formula, Re z < 0 to the left-half-plane
    continuation.  Points exactly on the imaginary axis are rejected by the
    continuation route (natural boundary); call a formula route directly if
    a boundary value is wanted.
    """
    z = _finite_argument("j_auto_named", z)
    if _on_cut(z):
        raise ValueError("j_auto_named: z on the branch cut (-inf, 0]")
    if z.real > 0.0:
        return j_lanczos(z), "lanczos"
    return j_continue_left(z), "continuation"


# ------------------------------------------------------------ remainders ----
#
# The thermodynamic route needs J to full double precision, together with
# its first two derivatives, and needs it as the remainder after the
# leading term of the large-argument series,
#
#     R(z) = J(z) - 1/(12 z),
#
# because the leading terms of a bath's characteristic frequencies cancel at
# low temperature (exactly, for the blackbody bath); the route sums them
# analytically.  Every routine below returns a jet, (f, z f', z^2 f'').
#
# For |z| >= _REMAINDER_ASYMPTOTIC = 10 the asymptotic series through B_32
# without its first term, R = sum_{n=1}^{15} A_n t^(2n+1) with t = 1/z and
# A_n = B_(2n+2)/((2n+1)(2n+2)), gives the jet to ~1e-16 of its size: the
# first omitted term, with B_34, is ~1e-17 of z^2 R'' at |z| = 10 and less
# elsewhere.  z R' and z^2 R'' take the factors -(2n+1) and (2n+1)(2n+2),
# so no derivative under- or overflows at large |z|.  Only odd powers of t
# occur, so each of the three series is t Q(s), summed in s = t^2.  The sum
# stops at the last term n whose tail (terms n and up) still adds 2^-70 of
# the first term A_1 t^3 in one of the three series, far below the rounding
# of the first term: all 15 terms below |z| ~ 14.8, and one from
# |z| ~ 2.9e10 on (_ASYMPTOTIC_REACH).
#
# The middle band, SMALL_ARGUMENT <= |z| < 10, carries most of a sweep's
# work.  Real arguments and mirror pairs are summed from Taylor
# polynomials about fixed centers, whose coefficients tests/jet_tables.py
# computes with mpmath (_jet_tables; tests/test_jet_tables.py regenerates
# them to the bit).  Each component of the jet has its own polynomial in
# u = z - center, so no derivative is formed at run time, and the 17
# centers of a band are a ratio ~1.19 apart.  R is analytic in the disk of
# radius |center| about a center, and the terms run to
# _term_count(|u|/|center|) + 2.  A real z takes the nearest real center
# (the first one from 1/4 up): one Horner pass, to ~2e-16 of each
# component (the shift below: ~1.4e-15).  A real pair a > b >= 1/4 with
# a < _PAIR_RATIO b takes the center of (a + b)/2, whose rows reach both:
# delta times the divided differences at u_a and u_b, to ~3e-16 of each
# component (the shift: ~2.8e-15); astride 10 it splits its step there.  A
# pair farther apart cancels little and is the difference of two jets
# (~5e-16).  A mirror pair, a with |Re a| < _NEAR_AXIS Im a against
# b = -conj(a), takes the center i eta0 nearest to Im a while Im a < 10,
# past |a| = 10 too; the disk holds both a and b, and the difference is
# delta times the divided differences at u_a = a - center and
# u_b = b - center, to ~4e-16 of each component (the shift: ~2e-15).
# u, u_a and u_b are exact.  The closed form makes no other pair below
# 10; complex pairs are differenced only where neither end needs a shift
# step.  Complex singles take the recurrence
#
#     R(w) = h(w) + R(w + 1),   h(w) = J(w) - J(w + 1) - 1/(12 w (w + 1)),
#
# which shifts the argument outward.  From J(w) - J(w + 1) = atanh(v)/v - 1
# with v = 1/(2w + 1), and 1/(12 w (w + 1)) = v^2/(3 (1 - v^2)),
#
#     h(w) = sum_{k>=2} c_k y^k,   c_k = 1/(2k + 1) - 1/3,   y = v^2,
#
# a series of like-signed terms, and with dv/dw = -2 v^2
#
#     h'(w) = -4 v sum_k k c_k y^k,   h''(w) = 8 sum_k k (2k + 1) c_k y^(k+1).
#
# The coefficient table reaches |y| <= 2/3, i.e. |w + 1/2| >= sqrt(3/8) ~
# 0.61, which every w with Re w >= 0 and |w| >= 1/2 meets; nearer to -1/2,
# -3/2, ... the routines raise rather than return a truncated or divergent
# sum.  Below |z| = SMALL_ARGUMENT, J comes whole from its power series,
#
#     J(z)      = -log sqrt(2 pi) - (z + 1/2) log z + (1 - gamma_E) z + P(z),
#     z J'(z)   = -z log z - 1/2 - gamma_E z + sum_n n a_n z^n,
#     z^2 J''(z) = 1/2 - z + sum_n n (n - 1) a_n z^n,
#
# with P(z) = sum_{n>=2} a_n z^n, a_n = (-1)^n zeta(n)/n.
# A single argument sums each series by one Horner pass per polynomial.
# A difference between nearby arguments runs a second Horner chain per
# polynomial beside the first, which gives the divided difference of the
# series, so the difference keeps the relative accuracy of the exact step.

# Below this modulus J enters the closed form whole, from its power
# series; at and above it, as the remainder R after the leading 1/(12 z).
SMALL_ARGUMENT = 0.5
_REMAINDER_ASYMPTOTIC = 10.0
# Series run until the power falls below this (the derivative coefficients
# grow like k^2).
_SERIES_EPS = 1e-21
_SHIFT_REACH = 2.0 / 3.0
# A root x nearer the imaginary axis than this (|Re x| < _NEAR_AXIS Im x)
# is differenced against its mirror image -conj(x): the reflection identity
# then gives Re J(x) without the cancellation of the direct sum.
_NEAR_AXIS = 0.25
# A real pair a > b nearer than this ratio is differenced by the divided
# differences of the Taylor table; one this far apart or farther, where
# R(a) - R(b) cancels little, as the difference of the two jets.
_PAIR_RATIO = 1.5


def _horner_prefixes(rows):
    """For every n, rows[:n] highest power first, as a tuple: a Horner
    pass over the first n rows iterates it directly."""
    return tuple(tuple(reversed(rows[:n])) for n in range(len(rows) + 1))


# Coefficients of x^1, x^2, ... of three polynomials P0, P1, P2 per series,
# highest power first: h = P0(y), h' = -4 v P1(y), h'' = 8 y P2(y) up to
# y^131, enough for |y| <= _SHIFT_REACH, as prefixes; the jet of R is
# t (Q0, -Q1, Q2)(s), with A_1 .. A_15 at s^1 .. s^15; and the power series
# parts of the jet of J to z^80, as prefixes.
_SHIFT_HORNER = _horner_prefixes(tuple(
    (c, k * c, k * (2 * k + 1) * c) for k, c in (
        (k, 1.0 / (2 * k + 1) - 1.0 / 3.0) for k in range(1, 132))))
_ASYMPTOTIC_HORNER = tuple((a, p * a, p * (p + 1) * a) for p, a in (
    (p, float(_BERNOULLI_BEYOND.get(p + 1) or BERNOULLI_EVEN[p + 1])
     / (p * (p + 1))) for p in range(31, 1, -2)))
# The largest |s| = |t^2| at which the terms A_1 .. A_n of the asymptotic
# series leave a tail (A_(n+1) and up) below 2^-70 of the A_1 term in each
# of its three series, for n = 1 .. 14 (tests/test_stieltjes.py regenerates
# them from _ASYMPTOTIC_HORNER); beyond the last, all 15 terms count.
# _ASYMPTOTIC_ROWS[k] holds the rows of A_1 .. A_(k+1), highest power
# first, so the rows that count at s are
# _ASYMPTOTIC_ROWS[bisect_left(_ASYMPTOTIC_REACH, abs(s))].
_ASYMPTOTIC_REACH = (
    1.1858461261560204e-21, 2.9103830455771163e-11, 7.196438614090776e-08,
    3.249857255348209e-06, 2.9974408567014972e-05, 0.00012587209179990531,
    0.0003387577390871202, 0.0006925644394752556, 0.0011814334699833558,
    0.0017784384039422547, 0.002447424929420839, 0.0031521300763035134,
    0.0038638361469901833, 0.004594498119425457)
_ASYMPTOTIC_ROWS = tuple(_ASYMPTOTIC_HORNER[-n:]
                         for n in range(1, len(_ASYMPTOTIC_HORNER) + 1))
_SERIES_HORNER = _horner_prefixes(tuple(
    (a, n * a, n * (n - 1) * a) for n, a in (
        (n, (-1.0) ** n * zeta(n) / n if n >= 2 else 0.0)
        for n in range(1, 81))))


# The Taylor tables of the middle band, (edges, table) per band, read from
# _jet_tables on the first call that needs them (:func:`_taylor_bands`), so
# that importing the package does not pay the ~6 ms.
_REAL_TAYLOR = _MIRROR_TAYLOR = None


def _taylor_table(edges, centers, text, kind):
    """A band of _jet_tables as (edges, table): per center, the center, the
    jet of R there, the rows of u^1, u^2, ... as prefixes, and 1/|center|,
    the scale of |u| in the term count."""
    table = []
    for center, block in zip(centers, text.split("\n\n")):
        values = tuple(map(kind, block.split()))
        rows = tuple(zip(values[3::3], values[4::3], values[5::3]))
        table.append((center, values[:3], _horner_prefixes(rows),
                      1.0 / abs(center)))
    return edges, tuple(table)


def _taylor_bands():
    """(_REAL_TAYLOR, _MIRROR_TAYLOR), read from _jet_tables on the first
    call; a second reading in another thread builds the same tables."""
    global _REAL_TAYLOR, _MIRROR_TAYLOR
    from . import _jet_tables
    _REAL_TAYLOR = _taylor_table(_jet_tables.REAL_EDGES,
                                 _jet_tables.REAL_CENTERS,
                                 _jet_tables.REAL_ROWS, float)
    _MIRROR_TAYLOR = _taylor_table(_jet_tables.MIRROR_EDGES,
                                   _jet_tables.MIRROR_CENTERS,
                                   _jet_tables.MIRROR_ROWS, complex)
    return _REAL_TAYLOR, _MIRROR_TAYLOR


def _check_argument(z, name):
    z = _finite_argument(name, z)
    if z == 0:
        raise ValueError(f"{name}: z = 0 is a singular point")
    if z.imag == 0.0 and z.real < 0.0:
        raise ValueError(f"{name}: z on the branch cut (-inf, 0)")
    return z


def _real(z):
    """A real argument (a cutoff, an overdamped root) as a float."""
    return z.real if z.imag == 0.0 else z


def _plain(a, b, delta):
    """Real arguments (cutoffs, overdamped roots) as floats."""
    if a.imag == 0.0 and b.imag == 0.0 and delta.imag == 0.0:
        return a.real, b.real, delta.real
    return a, b, delta


def _complex(jet):
    """A jet of the cores below, in the complex type of the public routes."""
    return tuple(map(complex, jet))


def _term_count(ratio):
    """Terms of a series in powers of ``ratio`` (|ratio| < 1) until they
    fall below _SERIES_EPS of the first."""
    size = abs(ratio)
    if size < _SERIES_EPS:
        return 1
    return math.ceil(math.log(_SERIES_EPS) / math.log(size))


def _shift_count(z):
    """Unit shifts that take z to |z + n| >= _REMAINDER_ASYMPTOTIC."""
    reach = _REMAINDER_ASYMPTOTIC ** 2 - z.imag * z.imag
    if reach <= 0.0:
        return 0
    shift = math.sqrt(reach) - z.real               # -inf for z = inf
    return math.ceil(shift) if shift > 0.0 else 0


def _horner(rows, x):
    """P(x) for each of the three polynomials P(x) = sum_k c_k x^(k+1)
    whose coefficient rows (c_k for each) are given highest power first."""
    r0 = r1 = r2 = 0.0
    for c0, c1, c2 in rows:
        r0 = r0 * x + c0
        r1 = r1 * x + c1
        r2 = r2 * x + c2
    return r0 * x, r1 * x, r2 * x


def _divided_differences(rows, xa, xb):
    """P(xa) and (P(xa) - P(xb))/(xa - xb) for each of the three
    polynomials of :func:`_horner`, by one Horner pass: with
    r_k = sum_{j>=k} c_j xa^(j-k), P(xa) = r_0 xa and the quotient is
    sum_k r_k xb^k.  No two values of P are subtracted."""
    r0 = r1 = r2 = q0 = q1 = q2 = 0.0
    for c0, c1, c2 in rows:
        r0 = r0 * xa + c0
        r1 = r1 * xa + c1
        r2 = r2 * xa + c2
        q0 = q0 * xb + r0
        q1 = q1 * xb + r1
        q2 = q2 * xb + r2
    return (r0 * xa, r1 * xa, r2 * xa), (q0, q1, q2)


# The cores below take their arguments checked, a real argument as a float
# (:func:`_real`, :func:`_plain`), and return their jets as floats or
# complex numbers alike; the public routes at the end of the module check
# and convert, and thermo's closed form calls the cores directly.

def _real_quotient(a, b):
    """The divided differences (g(a) - g(b))/(a - b) of the three
    components g of the jet of R, for real a > b >= 1/4 with
    a < _PAIR_RATIO b and a <= _REMAINDER_ASYMPTOTIC: one
    :func:`_divided_differences` pass about the center of (a + b)/2, whose
    rows reach both."""
    edges, table = _REAL_TAYLOR or _taylor_bands()[0]
    center, _, prefixes, scale = table[bisect(edges, 0.5 * (a + b))]
    ua, ub = a - center, b - center                     # exact
    return _divided_differences(
        prefixes[_term_count(max(ua, -ub) * scale) + 2], ua, ub)[1]


def _remainder_jet(z):
    """The jet of R at z: for a real z below _REMAINDER_ASYMPTOTIC (from 1/4
    up) from the Taylor table, elsewhere by the asymptotic series, after the
    shift recurrence for a complex z (see the section comment)."""
    if type(z) is float and z < _REMAINDER_ASYMPTOTIC:
        edges, table = _REAL_TAYLOR or _taylor_bands()[0]
        center, jet, prefixes, scale = table[bisect(edges, z)]
        u = z - center                                  # exact
        p0, p1, p2 = _horner(prefixes[_term_count(u * scale) + 2], u)
        return jet[0] + p0, jet[1] + p1, jet[2] + p2
    shifts = 0 if type(z) is float else _shift_count(z)
    value = slope = curvature = 0.0
    w = z
    for _ in range(shifts):
        v = 1.0 / (2.0 * w + 1.0)
        y = v * v
        size = abs(y)
        if size > _SHIFT_REACH:
            raise ValueError(f"j_remainder: z = {z!r} is within sqrt(3/8) of "
                             "-n - 1/2 for a shift n >= 0, beyond the reach "
                             "of the shift series (|v^2| > 2/3)")
        h0, h1, h2 = _horner(_SHIFT_HORNER[_term_count(size) + 2], y)
        value += h0
        slope -= 4.0 * v * h1
        curvature += 8.0 * y * h2
        w += 1.0
    # the jet of R at w is t (Q0, -Q1, Q2)(t^2), scaled to z by r = z/w
    t = 1.0 / w
    s = t * t
    q0, q1, q2 = _horner(
        _ASYMPTOTIC_ROWS[bisect_left(_ASYMPTOTIC_REACH, abs(s))], s)
    if not shifts:
        return t * q0, -t * q1, t * q2
    r = z * t
    return (value + t * q0, z * slope - r * (t * q1),
            z * z * curvature + r * r * (t * q2))


def _remainder_difference(a, b, delta):
    """The jet of R(a) - R(b) for the pairs of the section comment: a real
    pair, a mirror pair near the imaginary axis, or a complex pair that
    needs no shift step at either end; any other pair raises ValueError
    naming it.  A pair with |b| > |a| is the negated jet of R(b) - R(a):
    the derivative components scale g(a) - g(b) by b and b^2, which would
    magnify its rounding where the two parts cancel (the blackbody gap
    pair, a factor 2 apart at critical damping).

    A real pair a >= b >= 1/4 at least a factor _PAIR_RATIO apart, where the
    difference cancels little, is the difference of the two jets.  Nearer:
    both at or above _REMAINDER_ASYMPTOTIC, the asymptotic series
    differenced term by term, delta times a jet that does not depend on
    delta; both below, delta times :func:`_real_quotient`; astride, the step
    splits there, R(a) - R(b) = qa (a - 10) + qb (10 - b) with the quotient
    qa of the asymptotic series (the difference at a and 10 for delta = 1)
    and qb of the table, formed as qb delta + (qa - qb)(a - 10) so that
    delta, not the float a - b, sets the step.  A mirror pair with Im a < 10
    is delta times the divided differences of the mirror table."""
    if abs(b) > abs(a):
        return [-d for d in _remainder_difference(b, a, -delta)]
    if type(a) is float:
        if a >= _PAIR_RATIO * b:
            return [ga - gb for ga, gb in zip(_remainder_jet(a),
                                              _remainder_jet(b))]
        if a < _REMAINDER_ASYMPTOTIC:
            return [delta * q for q in _real_quotient(a, b)]
        if b < _REMAINDER_ASYMPTOTIC:
            top = a - _REMAINDER_ASYMPTOTIC                 # exact
            upper = _remainder_difference(a, _REMAINDER_ASYMPTOTIC, 1.0)
            lower = _real_quotient(_REMAINDER_ASYMPTOTIC, b)
            return [delta * qb + (qa - qb) * top
                    for qa, qb in zip(upper, lower)]
    elif (abs(a.real) < _NEAR_AXIS * a.imag and b == -a.conjugate()
            and a.imag < _REMAINDER_ASYMPTOTIC and abs(a) >= SMALL_ARGUMENT):
        edges, table = _MIRROR_TAYLOR or _taylor_bands()[1]
        center, _, prefixes, scale = table[bisect(edges, a.imag)]
        ua = a - center                                 # exact, as is ub
        return [delta * q for q in _divided_differences(
            prefixes[_term_count(abs(ua) * scale) + 2], ua, b - center)[1]]
    elif _shift_count(a) or _shift_count(b):
        raise ValueError(f"j_remainder_difference: the pair a = {a!r}, "
                         f"b = {b!r} is not real, not a mirror pair near the "
                         "imaginary axis and not clear of the shift region")
    # the jet of R at a is (P0, -P1, P2)(ta) with P = t Q(t^2); the divided
    # difference of t Q(t^2) is Q(sa) + tb (ta + tb) DQ, with DQ that of Q
    # between sa and sb
    ta, tb = 1.0 / a, 1.0 / b
    dt = -(delta * ta) * tb                          # ta - tb
    sa, sb = ta * ta, tb * tb
    (q0, q1, q2), (e0, e1, e2) = _divided_differences(
        _ASYMPTOTIC_ROWS[bisect_left(_ASYMPTOTIC_REACH,
                                     max(abs(sa), abs(sb)))], sa, sb)
    tab = tb * (ta + tb)
    return [dt * (q0 + tab * e0), -dt * (q1 + tab * e1),
            dt * (q2 + tab * e2)]


def _series_jet(z):
    """The jet of J at z by the power series, for |z| < SMALL_ARGUMENT."""
    log_z = math.log(z) if isinstance(z, float) else cmath.log(z)
    p0, p1, p2 = _horner(_SERIES_HORNER[_term_count(z) + 2], z)
    return (-LOG_SQRT_2PI - (z + 0.5) * log_z + (1.0 - EULER_GAMMA) * z + p0,
            -z * log_z - 0.5 - EULER_GAMMA * z + p1,
            0.5 - z + p2)


def _series_difference(a, b, delta):
    """The jet of J(a) - J(b) by the power series, differenced term by
    term, for |a|, |b| < SMALL_ARGUMENT."""
    log, log1p = ((math.log, math.log1p) if isinstance(a, float)
                  else (cmath.log, _log1p))
    log_a, step = log(a), log1p(delta / b)             # step = log a - log b
    rows = _SERIES_HORNER[_term_count(max(abs(a), abs(b))) + 2]
    _, (e0, e1, e2) = _divided_differences(rows, a, b)
    return (-(delta * log_a + (b + 0.5) * step)
            + (1.0 - EULER_GAMMA + e0) * delta,
            -(delta * log_a + b * step) + (e1 - EULER_GAMMA) * delta,
            (e2 - 1.0) * delta)


def _leading(jet, lead):
    """jet plus the jet of a leading term lead = c/z, (1, -1, 2) lead."""
    return jet[0] + lead, jet[1] - lead, jet[2] + 2.0 * lead


def j_reflection(w: complex) -> tuple[complex, complex, complex]:
    """The jet of J(w) + J(-w) = -log(1 - q), q = e^{+-2 pi i w} for
    +-Im w > 0 (|q| < 1): the reflection identity of the module docstring,
    and the jet of J at w plus that at -w.  The phase of q comes from
    w - round(Re w), which is exact.  With k = +-2 pi i and r = q/(1 - q)
    the jet is (-log(1 - q), k w r, (k w)^2 r (1 + r)); where k w, (k w)^2
    or r overflows, k (w r) and k^2 (w r)(w + w r) with real products by k
    and k^2, so that no part is nan, and inf only beyond the float range;
    1 - q is scaled by 2^64 where Im w is subnormal, to keep its digits.
    """
    w = _finite_argument("j_reflection", w)
    if w.imag == 0.0:
        raise ValueError("j_reflection: w on the real axis")
    turn = math.copysign(2.0 * math.pi, w.imag)
    angle = turn * (w.real - round(w.real))
    q = cmath.rect(math.exp(-turn * w.imag), angle)
    # rest = scale (1 - q), 1 - q = 2 sin^2(angle/2) - (|q| - 1) cos(angle)
    # - i Im q: no cancelling; scale lifts a subnormal Im w (and 1 - q)
    scale = 2.0 ** 64 if abs(w.imag) < 2.0 ** -1022 else 1.0
    rest = complex(scale * 2.0 * math.sin(0.5 * angle) ** 2
                   - math.expm1(-turn * (w.imag * scale)) * math.cos(angle),
                   -scale * q.imag)
    r = q / rest * scale
    kw = complex(0.0, turn) * w
    first, second = kw * r, kw * kw * r * (1.0 + r)
    if not cmath.isfinite(first + second):     # k w, (k w)^2 or r overflowed
        wr = w * q / rest
        wr = complex(scale * wr.real, scale * wr.imag)   # no inf * 0
        curve = wr * (w + wr)                   # w^2 r (1 + r)
        first = complex(-turn * wr.imag, turn * wr.real)
        second = complex(-turn * turn * curve.real, -turn * turn * curve.imag)
    return (-(_log1p(-q) if abs(q) <= 0.5
              else cmath.log(rest) - math.log(scale)), first, second)


def j_jet(z: complex) -> tuple[complex, complex, complex]:
    """(J(z), z J'(z), z^2 J''(z)) on the plane cut along (-inf, 0].

    Below |z| = SMALL_ARGUMENT from the power series, to ~1e-16 of the
    size of its terms; elsewhere in the right half plane :func:`j_remainder`
    plus the leading 1/(12 z), and in the left half plane
    :func:`j_reflection` minus the jet at -z.
    """
    z = _check_argument(z, "j_jet")
    if not _huge(z) and abs(z) < SMALL_ARGUMENT:
        return _complex(_series_jet(_real(z)))
    if z.real < 0.0:
        return tuple(k - j for k, j in zip(j_reflection(z), j_jet(-z)))
    lead = (1.0 / 32.0) / (12.0 * (z / 32.0)) if _huge(z) else 1.0 / (12.0 * z)
    return _leading(_complex(_remainder_jet(_real(z))), lead)


def j_remainder(z: complex) -> tuple[complex, complex, complex]:
    """The jet (R, z R', z^2 R'') of R(z) = J(z) - 1/(12 z) on the plane
    cut along (-inf, 0].

    For real 1/2 <= z < 10 from the Taylor table of the middle band, to
    ~2e-16 of each component itself; at other |z| >= 1/2 by the
    asymptotic series, after the shift recurrence for a complex z, to
    ~1e-15 of each component (see the section comment); below that from
    the power series of :func:`j_jet`, with its absolute error (~1e-16 of
    the J jet and of the jet of 1/(12 z)).  For |z| >= 1/2 the valid
    domain is |z + n + 1/2| >= sqrt(3/8) ~ 0.61 for n = 0, 1, 2, ...,
    which holds in the whole right half plane; elsewhere it raises
    ValueError.
    """
    z = _check_argument(z, "j_remainder")
    if not _huge(z) and abs(z) < SMALL_ARGUMENT:
        return _leading(_complex(_series_jet(_real(z))), -1.0 / (12.0 * z))
    return _complex(_remainder_jet(_real(z)))


def j_remainder_difference(a: complex, b: complex,
                           delta: complex) -> tuple[complex, complex, complex]:
    """The jet of R(a) - R(b) for nearby a and b, given delta = a - b to
    full relative accuracy: (R(a) - R(b), a R'(a) - b R'(b),
    a^2 R''(a) - b^2 R''(b)).

    Every series term is differenced as a divided difference of its
    powers, so each component keeps the relative accuracy of delta however
    close a and b are, where the difference of two :func:`j_remainder`
    calls would lose it.  It takes the pairs of the closed form: a real
    pair, both >= 1/4, to ~6e-16 of each component (delta rounded once
    included; a factor 1.5 or more apart, where R(a) - R(b) cancels little,
    as the difference of the two jets); a mirror pair b = -conj(a) with
    |Re a| < Im a/4 and |a| >= 1/2, such as x and -conj(x) where
    :func:`j_reflection` serves a conjugate pair, to ~4e-16 of each
    component (through the Taylor table about a center on the imaginary
    axis while Im a < 10); and a complex pair with |z + n| >= 10 for every
    n >= 0 at both ends, by the asymptotic series, to ~1e-15.  Any other
    pair raises ValueError.
    """
    a = _check_argument(a, "j_remainder_difference")
    b = _check_argument(b, "j_remainder_difference")
    delta = _finite_argument("j_remainder_difference", delta, "delta")
    if min(abs(a), abs(b)) < 0.5 * SMALL_ARGUMENT:
        raise ValueError("j_remainder_difference: needs |a|, |b| >= 1/4")
    return _complex(_remainder_difference(*_plain(a, b, delta)))


def j_difference(a: complex, b: complex,
                 delta: complex) -> tuple[complex, complex, complex]:
    """The jet of J(a) - J(b) for nearby a and b, given delta = a - b to
    full relative accuracy: below |z| = SMALL_ARGUMENT the power series
    differenced term by term, elsewhere :func:`j_remainder_difference`
    plus the leading terms, for the pairs that it takes."""
    a = _check_argument(a, "j_difference")
    b = _check_argument(b, "j_difference")
    delta = _finite_argument("j_difference", delta, "delta")
    if max(abs(a), abs(b)) >= SMALL_ARGUMENT:
        # 1/(12 a) - 1/(12 b) = -delta/(12 a b)
        return _leading(j_remainder_difference(a, b, delta),
                        -delta / (12.0 * a * b))
    return _complex(_series_difference(*_plain(a, b, delta)))
