"""High-precision reference values for the benchmark (mpmath).

F, S, U and C come from the paper's closed form at ORACLE_DPS digits.  With
the four characteristic frequencies c_k, signs sigma_k, x_k = c_k/(2 pi theta)
and G = sum sigma_k J(x_k):

    F = theta G
    S = -G + sum sigma x J'(x)
    U = theta sum sigma x J'(x)
    C = -sum sigma x^2 J''(x)

J needs log Gamma, J' digamma and J'' trigamma.  The canonical parameters are
derived here from the bath's native inputs (gamma, tau or Omega'), exactly as
floats handed to the program, so the oracle shares no code or rounding with
the package.  mpmath serves the benchmark only; the package does not use it.
"""

from __future__ import annotations

import mpmath as mp

ORACLE_DPS = 80

# The worst-conditioned point of the edge grid: the cutoff J terms reach
# |x| ~ 1e16, so log Gamma cancels ~35 digits, and the Stirling 1/(12 x)
# terms cancel across all four frequencies (the paper's T^2 cancellation).
EDGE_POINT = ("qed", 1e4, None, 1e12, 1e-5)


def _j_triple(z):
    """J(z), J'(z), J''(z) at the working precision."""
    half = mp.mpf(1) / 2
    j0 = mp.loggamma(z + 1) - mp.log(2 * mp.pi) / 2 - (z + half) * mp.log(z) + z
    j1 = mp.digamma(z + 1) - mp.log(z) - 1 / (2 * z)
    j2 = mp.psi(1, z + 1) - 1 / z + 1 / (2 * z * z)
    return j0, j1, j2


def _frequencies(model, gamma, tau, omega_prime):
    """(sign, c, weight) per characteristic frequency, omega0 = 1.  An
    underdamped root pair is one complex entry of weight 2 (real part only):
    J(conj z) = conj J(z)."""
    g = mp.mpf(gamma)
    disc = 1 - g * g / 4
    if disc > 0:
        terms = [(-1, mp.mpc(g / 2, mp.sqrt(disc)), 2)]
    else:
        larger = g / 2 + mp.sqrt(-disc)
        terms = [(-1, 1 / larger, 1), (-1, larger, 1)]
    if model == "srt":
        big = 1 / mp.mpf(tau)
        terms += [(1, big, 1), (-1, big - g, 1)]
    elif model == "qed":
        prime = mp.mpf(omega_prime)
        terms += [(1, 1 / (1 / prime + g), 1), (-1, prime, 1)]
    elif model != "ohmic":
        raise ValueError(f"unknown model {model!r}")
    return terms


def thermo(model, gamma, tau, omega_prime, theta, dps=ORACLE_DPS):
    """(F, S, U, C) in reduced units as mpf at ``dps`` digits."""
    with mp.workdps(dps):
        th = mp.mpf(theta)
        scale = 1 / (2 * mp.pi * th)
        G = A = B = mp.mpf(0)
        for sign, c, weight in _frequencies(model, gamma, tau, omega_prime):
            x = c * scale
            j0, j1, j2 = _j_triple(x)
            G += sign * weight * mp.re(j0)
            A += sign * weight * mp.re(x * j1)
            B += sign * weight * mp.re(x * x * j2)
        return (+(th * G), +(A - G), +(th * A), +(-B))


def j_value(z: complex, dps: int = ORACLE_DPS):
    """J(z) on the principal branch of log Gamma and log (the branch the
    package's continuation route follows off the negative real axis)."""
    with mp.workdps(dps):
        w = mp.mpc(z.real, z.imag)
        return complex(mp.loggamma(w + 1) - mp.log(2 * mp.pi) / 2
                       - (w + mp.mpf(1) / 2) * mp.log(w) + w)


def srt_zero_point(gamma, tau, dps=30):
    """Zero-point energy of the single-relaxation-time bath by quadrature of
    (1/pi) Int_0^inf (w/2) Im dlog alpha(w)/dw dw, independent of the
    package's closed form."""
    with mp.workdps(dps):
        g = mp.mpf(gamma)
        big = 1 / mp.mpf(tau)
        prime = big - g

        def integrand(w):
            w2 = w * w
            value = g * (w2 + 1) / ((w2 - 1) ** 2 + g * g * w2)
            value += prime / (w2 + prime ** 2) - big / (w2 + big ** 2)
            return w * value / (2 * mp.pi)

        points = sorted({mp.mpf(0), min(g, 1) / 2, mp.mpf(1), 2 + g,
                         prime, big, 10 * big})
        return mp.quad(integrand, points + [mp.inf])


def self_check():
    """Oracle agreement at ORACLE_DPS and 1.5x that precision at the edge
    point, and the deviation of a 40-digit evaluation (which is wrong there).

    Returns (agreement, deviation_at_40): the largest relative difference
    over F, S, U, C in each comparison."""
    model, gamma, tau, prime, theta = EDGE_POINT
    ref = thermo(model, gamma, tau, prime, theta, dps=ORACLE_DPS * 3 // 2)

    def worst(dps):
        values = thermo(model, gamma, tau, prime, theta, dps=dps)
        with mp.workdps(ORACLE_DPS * 3 // 2):
            return max(float(abs((v - r) / r)) for v, r in zip(values, ref))

    return worst(ORACLE_DPS), worst(40)
