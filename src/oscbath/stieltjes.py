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
  The only route not built on the Lanczos rational core, hence the
  independent cross-check for all the others.
* :func:`j_loggamma`    -- the log-gamma form, usable off the cut.
* :func:`j_lanczos`     -- the Lanczos rational approximation (g = 5, N = 6),
  right half plane, error below one part per billion on the gamma scale
  (i.e. absolute error on J below ~1e-9; note this is *not* a relative
  bound on J itself, which decays like 1/(12 z)).
* :func:`j_series_small` -- Taylor-type series for |z| < 1.
* :func:`j_asymptotic`  -- divergent large-|z| series in even Bernoulli
  numbers, with the first omitted term reported as the truncation bound.
* :func:`j_continue_left` -- the reflection identity above, left half plane.
* :func:`j_auto`        -- region dispatch over the routes.

The thermodynamic functions need J to full double precision, with the
leading 1/(12 z) term taken out: :func:`j_remainder`, and
:func:`j_remainder_difference` / :func:`j_difference` between nearby
arguments (see the section on remainders below).

Everything here is pure and thread-safe; the coefficient tables are built
once at import time.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .quadrature import QuadratureSpec, integrate_semi_infinite

__all__ = [
    "EULER_GAMMA", "LOG_SQRT_2PI",
    "LANCZOS_G", "LANCZOS_N", "LANCZOS_D",
    "BERNOULLI_EVEN", "zeta",
    "log_gamma",
    "j_quadrature", "j_loggamma", "j_lanczos", "j_series_small",
    "j_asymptotic", "j_continue_left", "j_auto", "j_auto_named",
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
# B_24, kept private: only used for the truncation bound of the longest
# asymptotic partial sum, never as a series term.
_B24 = Fraction(-236364091, 2730)

_MAX_ASYMPTOTIC_TERMS = len(BERNOULLI_EVEN)  # 11


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
    preserves the continuous branch for w off the cut.
    """
    w = complex(w)
    if _on_cut(w):
        raise ValueError("log_gamma: argument on the branch cut (-inf, 0]")
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
    """J(z) from the log-gamma form; valid off the cut (-inf, 0].

    At very large |z| this route loses accuracy to cancellation between the
    log-gamma and Stirling terms; prefer :func:`j_lanczos` or
    :func:`j_asymptotic` there.
    """
    z = complex(z)
    if _on_cut(z):
        raise ValueError("j_loggamma: z on the branch cut (-inf, 0]")
    return log_gamma(z + 1.0) - LOG_SQRT_2PI - (z + 0.5) * cmath.log(z) + z


def j_lanczos(z: complex) -> complex:
    """J(z) by the Lanczos rational formula, closed right half plane.

    J(z) = (z + 1/2) log((z + g + 1/2)/z) - g - 1/2 + log(d0 + sum dn/(z+n))

    Absolute error stays below one part per billion for Re z >= 0 (the same
    rational core as :func:`log_gamma`, with the Stirling part cancelled
    analytically, so no large-|z| cancellation).  The imaginary axis
    (z != 0) is allowed: the formula remains finite and continuous there.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("j_lanczos: z = 0 is a singular point")
    if z.real < 0.0:
        raise ValueError("j_lanczos: requires Re z >= 0; use j_continue_left")
    g_half = LANCZOS_G + 0.5
    return ((z + 0.5) * _log1p(g_half / z) - g_half
            + cmath.log(_lanczos_series(z)))


def j_series_small(z: complex, n_terms: int = 60) -> complex:
    """J(z) for |z| < 1 by the series

    J(z) = -log sqrt(2 pi) - (z + 1/2) log z + z - gamma_E z
           + sum_{n=2}^{n_terms} (-1)^n zeta(n)/n z^n.

    Terms shrink like |z|^n, so n_terms must grow as |z| -> 1 (about 300
    terms at |z| = 0.9 for full double precision).
    """
    z = complex(z)
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
    z = complex(z)
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
    b_next = _B24 if m > 22 else BERNOULLI_EVEN[m]
    bound = abs((float(b_next) / ((m - 1) * m)) * power)
    if bound > last_magnitude:
        raise ValueError(
            "j_asymptotic: divergent regime at this order "
            f"(first omitted term {bound:.2e} exceeds last kept "
            f"{last_magnitude:.2e}); use fewer terms or another method")
    return value, bound


def j_continue_left(w: complex) -> complex:
    """J(w) for Re w < 0, off the negative real axis.

    Writes w = z e^{+i pi} (Im w > 0) or w = z e^{-i pi} (Im w < 0) with
    Re z > 0 and applies

        J(z e^{+-i pi}) = -J(z) - log(1 - e^{-+ 2 pi i z}).

    The sign choice keeps |e^{-+ 2 pi i z}| < 1, so the principal log is
    safe.  Values from above and below the negative real axis genuinely
    differ there (branch structure inherited from log Gamma).
    """
    w = complex(w)
    if w.imag == 0.0:
        raise ValueError("j_continue_left: negative real axis is the branch cut")
    if w.real >= 0.0:
        raise ValueError("j_continue_left: requires Re w < 0 "
                         "(the imaginary axis is a natural boundary)")
    z = -w
    right_value = j_auto(z)
    if w.imag > 0.0:
        correction = _log1p(-cmath.exp(-2j * math.pi * z))
    else:
        correction = _log1p(-cmath.exp(2j * math.pi * z))
    return -right_value - correction


def j_quadrature(z: complex, spec: QuadratureSpec | None = None) -> complex:
    """J(z) from the defining integral, Re z > 0 only.

    Real and imaginary parts of the integrand are the two components of one
    adaptive semi-infinite pass over shared nodes, making this route
    independent of the Lanczos rational core used by every analytic formula
    here.
    """
    z = complex(z)
    if not z.real > 0.0:
        raise ValueError("j_quadrature: the integral requires Re z > 0")
    if spec is None:
        spec = QuadratureSpec()
    z_sq = z * z
    inv_pi = 1.0 / math.pi

    def integrand(t: float) -> tuple[float, float]:
        # log(1 - e^{-2 pi t}): log(-expm1) keeps t -> 0 accurate; log1p
        # keeps large t from rounding to log 1 = 0
        x = 2.0 * math.pi * t
        if x < 1.0:
            log_factor = math.log(-math.expm1(-x))
        else:
            log_factor = math.log1p(-math.exp(-x))
        kernel = z / (z_sq + t * t)
        weight = -inv_pi * log_factor
        return weight * kernel.real, weight * kernel.imag

    value_re, value_im = integrate_semi_infinite(integrand, spec).value
    return complex(value_re, value_im if z.imag else 0.0)


def j_auto_named(z: complex) -> tuple[complex, str]:
    """J(z) by region dispatch, returning (value, route name).

    Re z > 0 goes to the Lanczos formula, Re z < 0 to the left-half-plane
    continuation.  Points exactly on the imaginary axis are rejected by the
    continuation route (natural boundary); call a formula route directly if
    a boundary value is wanted.
    """
    z = complex(z)
    if _on_cut(z):
        raise ValueError("j_auto: z on the branch cut (-inf, 0]")
    if z.real > 0.0:
        return j_lanczos(z), "lanczos"
    return j_continue_left(z), "continuation"


def j_auto(z: complex) -> complex:
    """J(z) by region dispatch (see :func:`j_auto_named`)."""
    return j_auto_named(z)[0]


# ------------------------------------------------------------ remainders ----
#
# The thermodynamic route needs J to full double precision, and needs it as
# the remainder after the leading term of the large-argument series,
#
#     R(z) = J(z) - 1/(12 z),
#
# because the leading terms of a bath's characteristic frequencies cancel at
# low temperature (exactly, for the blackbody bath); the route sums them
# analytically.
#
# For |z| >= _REMAINDER_ASYMPTOTIC the eleven-term asymptotic series without
# its first term gives R to ~1e-15 of its size.  Nearer the origin the
# recurrence
#
#     R(w) = h(w) + R(w + 1),   h(w) = J(w) - J(w + 1) - 1/(12 w (w + 1)),
#
# shifts the argument outward.  From J(w) - J(w + 1) = atanh(v)/v - 1 with
# v = 1/(2w + 1), and 1/(12 w (w + 1)) = v^2/(3 (1 - v^2)),
#
#     h(w) = sum_{k>=2} (1/(2k + 1) - 1/3) v^{2k},
#
# a series of like-signed terms in v^2.  Its coefficient table reaches
# |v^2| <= 2/3, i.e. |w + 1/2| >= sqrt(3/8) ~ 0.61, which every w with
# Re w >= 0 and |w| >= 1/2 meets; nearer to -1/2, -3/2, ... the routines
# raise rather than return a truncated or divergent sum.

_REMAINDER_ASYMPTOTIC = 10.0
_SMALL_ARGUMENT = 0.5
_SMALL_SERIES_TERMS = 60       # 2^-60 ~ 1e-18 below |z| = 1/2
_SERIES_EPS = 1e-17
# c_k of h for k = 2, 3, ...: enough terms for v^2 up to _SHIFT_REACH
_SHIFT_REACH = 2.0 / 3.0
_SHIFT_COEFFICIENTS = tuple(1.0 / (2 * k + 1) - 1.0 / 3.0 for k in range(2, 102))
# A_n = B_{2n+2}/((2n+1)(2n+2)) for n = 1 .. 10: R = sum A_n z^{-(2n+1)}
_ASYMPTOTIC_COEFFICIENTS = tuple(
    float(BERNOULLI_EVEN[2 * n + 2]) / ((2 * n + 1) * (2 * n + 2))
    for n in range(1, _MAX_ASYMPTOTIC_TERMS))
# (-1)^n zeta(n)/n for n = 1 .. 60, zero at n = 1: the power series part of J
_SMALL_POWERS = (0.0,) + tuple((-1.0) ** n * zeta(n) / n
                               for n in range(2, _ZETA_TABLE_MAX + 1))


def _check_argument(z, name):
    z = complex(z)
    if z == 0:
        raise ValueError(f"{name}: z = 0 is a singular point")
    if z.imag == 0.0 and z.real < 0.0:
        raise ValueError(f"{name}: z on the branch cut (-inf, 0)")
    return z


def _term_count(ratio):
    """Terms of a series in powers of ``ratio`` (|ratio| < 1) until they
    fall below _SERIES_EPS of the first."""
    size = abs(ratio)
    if size < _SERIES_EPS:
        return 1
    return math.ceil(math.log(_SERIES_EPS) / math.log(size))


def _beyond_shift_reach(name, z):
    """The error for an argument whose shift series leaves its reach."""
    return ValueError(
        f"{name}: z = {z!r} is within sqrt(3/8) of -n - 1/2 for a shift "
        "n >= 0, beyond the reach of the shift series (|v^2| > 2/3)")


def _shift_count(z):
    """Unit shifts that take z to |z + n| >= _REMAINDER_ASYMPTOTIC."""
    reach = _REMAINDER_ASYMPTOTIC ** 2 - z.imag * z.imag
    if reach <= 0.0:
        return 0
    return max(0, math.ceil(math.sqrt(reach) - z.real))


def j_remainder(z: complex) -> complex:
    """R(z) = J(z) - 1/(12 z) on the plane cut along (-inf, 0].

    For |z| >= 1/2 by the shift recurrence and the asymptotic series, to
    ~1e-15 of R itself; below that from :func:`j_series_small`, with its
    absolute error (~1e-16 of J and 1/(12 z)).  For |z| >= 1/2 the valid
    domain is |z + n + 1/2| >= sqrt(3/8) ~ 0.61 for n = 0, 1, 2, ..., which
    holds in the whole right half plane; elsewhere it raises ValueError.
    """
    z = _check_argument(z, "j_remainder")
    if abs(z) < _SMALL_ARGUMENT:
        return j_series_small(z, _SMALL_SERIES_TERMS) - 1.0 / (12.0 * z)
    # real arguments (cutoffs, overdamped roots) stay in float arithmetic
    w = z.real if z.imag == 0.0 else z
    total = 0.0
    for _ in range(_shift_count(z)):
        v = 1.0 / (2.0 * w + 1.0)
        v2 = v * v
        if abs(v2) > _SHIFT_REACH:
            raise _beyond_shift_reach("j_remainder", z)
        acc = 0.0
        for c in reversed(_SHIFT_COEFFICIENTS[:_term_count(v2)]):
            acc = acc * v2 + c
        total += acc * v2 * v2
        w += 1.0
    t = 1.0 / w
    t2 = t * t
    acc = 0.0
    for a in reversed(_ASYMPTOTIC_COEFFICIENTS):
        acc = acc * t2 + a
    return complex(total + acc * t2 * t)


def _divided_difference(coefficients, xa, xb):
    """(P(xa) - P(xb))/(xa - xb) for P(x) = sum_k coefficients[k] x^(k+1),
    by one Horner pass: with r_k = sum_{j>=k} c_j xa^(j-k), the quotient is
    sum_k r_k xb^(k-1).  No two values of P are subtracted."""
    r = q = 0.0
    for c in reversed(coefficients):
        r = r * xa + c
        q = q * xb + r
    return q


# The asymptotic remainder as a polynomial in t = 1/z: sum_n A_n t^(2n+1),
# coefficients of t^1 .. t^21 (zeros at the even powers).
_ASYMPTOTIC_POWERS = tuple(
    _ASYMPTOTIC_COEFFICIENTS[(p - 3) // 2] if p >= 3 and p % 2 else 0.0
    for p in range(1, 2 * len(_ASYMPTOTIC_COEFFICIENTS) + 2))
# h as a polynomial in v^2: coefficients of (v^2)^1, (v^2)^2, ...
_SHIFT_POWERS = (0.0,) + _SHIFT_COEFFICIENTS


def j_remainder_difference(a: complex, b: complex, delta: complex) -> complex:
    """R(a) - R(b) for nearby a and b, given delta = a - b to full relative
    accuracy.

    Every term of the recurrence and of the asymptotic series is
    differenced as a divided difference of its powers, so the result keeps
    the relative accuracy of delta however close a and b are, where the
    difference of two :func:`j_remainder` calls would lose it.  Both
    arguments need |z| >= 1/4 and, as for :func:`j_remainder`,
    |z + n + 1/2| >= sqrt(3/8) ~ 0.61 for n = 0, 1, 2, ...; otherwise
    ValueError.  So they may lie in the left half plane off the cut, near
    the imaginary axis, as in the reflection identity of
    :func:`j_continue_left`.
    """
    a = _check_argument(a, "j_remainder_difference")
    b = _check_argument(b, "j_remainder_difference")
    if min(abs(a), abs(b)) < 0.5 * _SMALL_ARGUMENT:
        raise ValueError("j_remainder_difference: needs |a|, |b| >= 1/4")
    delta = complex(delta)
    if a.imag == 0.0 and b.imag == 0.0 and delta.imag == 0.0:
        a, b, delta = a.real, b.real, delta.real
    total = 0.0
    wa, wb = a, b
    for _ in range(max(_shift_count(complex(a)), _shift_count(complex(b)))):
        va = 1.0 / (2.0 * wa + 1.0)
        vb = 1.0 / (2.0 * wb + 1.0)
        a2, b2 = va * va, vb * vb
        size = max(abs(a2), abs(b2))
        if size > _SHIFT_REACH:
            raise _beyond_shift_reach("j_remainder_difference",
                                      a if abs(a2) == size else b)
        # va^2 - vb^2 = (va - vb)(va + vb), va - vb = -2 delta va vb
        step = -2.0 * delta * va * vb * (va + vb)
        terms = _SHIFT_POWERS[:_term_count(size) + 2]
        total += step * _divided_difference(terms, a2, b2)
        wa += 1.0
        wb += 1.0
    ta, tb = 1.0 / wa, 1.0 / wb
    # ta - tb = -delta ta tb
    series = _divided_difference(_ASYMPTOTIC_POWERS, ta, tb)
    return complex(total - delta * ta * tb * series)


def j_difference(a: complex, b: complex, delta: complex) -> complex:
    """J(a) - J(b) for nearby a and b, given delta = a - b to full relative
    accuracy: below |z| = 1/2 the power series differenced term by term
    (a^n - b^n = delta d_n, log a - log b = log1p(delta/b)), elsewhere
    :func:`j_remainder_difference` plus the leading terms."""
    a = _check_argument(a, "j_difference")
    b = _check_argument(b, "j_difference")
    delta = complex(delta)
    if max(abs(a), abs(b)) >= _SMALL_ARGUMENT:
        return j_remainder_difference(a, b, delta) - delta / (12.0 * a * b)
    value = (-(delta * cmath.log(a) + (b + 0.5) * _log1p(delta / b))
             + (1.0 - EULER_GAMMA) * delta)
    # sum_{n>=2} (-1)^n zeta(n)/n z^n as a polynomial in z
    terms = _SMALL_POWERS[:_term_count(max(abs(a), abs(b))) + 2]
    return value + delta * _divided_difference(terms, a, b)
