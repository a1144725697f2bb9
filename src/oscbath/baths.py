"""Heat-bath models for a damped quantum oscillator.

Three standard baths are supported, each defined by its memory-friction
kernel mu(z) (the half-line Fourier transform of the memory function, per
unit oscillator mass):

* Ohmic:                  mu(z) = gamma                  (frequency independent)
* single relaxation time: mu(z) = zeta / (1 - i z tau)   (Drude cutoff 1/tau)
* blackbody radiation:    mu(z) ~ z Omega^2 / (z + i Omega)  (electron form factor)

Reduced units are the package's only units: frequencies are in units of
the oscillator frequency omega0, times in 1/omega0.  The spec types take
gamma/omega0, tau omega0 and Omega'/omega0.

All three give a generalized susceptibility of one canonical shape,

    alpha(z) = (z + i Omega) / ( -m (z + i Omega') (z^2 + i gamma z - 1) ),

parametrized by the triple (gamma, Omega, Omega'), with the cutoffs related
to the native parameters by

    single relaxation time:  tau = 1/Omega,  Omega = Omega' + gamma
    blackbody (QED):         1/Omega = 1/Omega' + gamma

and the Ohmic model the limit Omega, Omega' -> infinity: the three kinds
of triple that :class:`CanonicalBath` admits.  Infinite cutoffs are math.inf,
never large finite numbers: omega_prime = math.inf is the blackbody bath's
point-electron limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Union

__all__ = [
    "OhmicSpec", "SingleRelaxationSpec", "QEDSpec", "BathSpec",
    "CanonicalBath", "RootPair",
    "canonicalize", "roots", "susceptibility",
    "free_energy_integrand", "spectral_weight", "static_weight",
]


@dataclass(frozen=True)
class OhmicSpec:
    """Frequency-independent friction gamma = zeta / m, in units of omega0."""
    gamma: float

    def __post_init__(self):
        _require_finite_positive(gamma=self.gamma)


@dataclass(frozen=True)
class SingleRelaxationSpec:
    """Drude-type friction gamma (units of omega0) with relaxation time tau
    (units of 1/omega0).

    Construction fails where 1/tau overflows, or where the implied second
    cutoff Omega' = 1/tau - gamma would not be positive (tau * gamma >= 1);
    any shorter memory is computed exactly by both exact routes.
    """
    gamma: float
    tau: float

    def __post_init__(self):
        _require_finite_positive(gamma=self.gamma, tau=self.tau)
        if 1.0 / self.tau == math.inf:
            raise ValueError(f"tau = {self.tau!r} is too small: 1/tau is inf")
        tau_gamma = self.tau * self.gamma
        if tau_gamma >= 1.0:
            raise ValueError(
                f"single-relaxation-time bath needs 1/tau > gamma "
                f"(got tau*gamma = {tau_gamma:g}); Omega' would be <= 0")


@dataclass(frozen=True)
class QEDSpec:
    """Blackbody-radiation bath: friction gamma and form-factor cutoff
    ``omega_prime`` = Omega', both in units of omega0.  ``omega_prime =
    math.inf`` is the point-electron limit (bare mass -> 0), with
    Omega = 1/gamma.
    """
    gamma: float
    omega_prime: float

    def __post_init__(self):
        _require_finite_positive(gamma=self.gamma)
        _require_positive(omega_prime=self.omega_prime)


BathSpec = Union[OhmicSpec, SingleRelaxationSpec, QEDSpec]


@dataclass(frozen=True, kw_only=True)
class CanonicalBath:
    """The (gamma, Omega, Omega') triple of the canonical susceptibility,
    in units of omega0, and the cutoff relation it meets, keyword-only.
    Admitted are both cutoffs math.inf with ``relation`` None (Ohmic), and
    cutoffs that meet the stated ``relation`` to rounding:
    ``"relaxation"``, Omega = Omega' + gamma, or ``"blackbody"``,
    1/Omega = 1/Omega' + gamma (Omega' = inf only as the point-electron
    limit Omega = 1/gamma), all of them passive.  Any other triple or
    relation raises ValueError."""
    gamma: float
    Omega: float = math.inf
    OmegaPrime: float = math.inf
    relation: str | None = None

    def __post_init__(self):
        _require_finite_positive(gamma=self.gamma)
        _require_positive(Omega=self.Omega, OmegaPrime=self.OmegaPrime)
        if self.relation is None:
            if math.isfinite(self.Omega) or math.isfinite(self.OmegaPrime):
                raise ValueError(
                    f"{self!r} has a finite cutoff and no relation: state "
                    "relation='relaxation' (Omega = Omega' + gamma) or "
                    "relation='blackbody' (1/Omega = 1/Omega' + gamma)")
        elif self.relation not in _RELATIONS:
            raise ValueError(f"unknown cutoff relation {self.relation!r}: "
                             f"one of {', '.join(map(repr, _RELATIONS))}")
        elif not _meets(self.relation, self.gamma, self.Omega,
                        self.OmegaPrime):
            raise ValueError(
                f"{self!r} is not on the {_RELATIONS[self.relation]}")


@dataclass(frozen=True)
class RootPair:
    """Characteristic roots of z^2 + i gamma z - 1 (units of omega0)
    written as z = -i z1, -i z1*: z1 z1* = 1 and z1 + z1* = gamma.

    Underdamped (gamma < 2): z1 = gamma/2 + i omega1 with
    omega1 = sqrt(1 - gamma^2/4).  Overdamped (gamma >= 2): both roots real
    and positive, z1 = gamma/2 - |omega1| the smaller; ``omega1`` then holds
    the magnitude of the imaginary frequency.  ``regime`` is
    "underdamped" or "overdamped"; critical damping is the overdamped case
    z1 = z1* = 1, omega1 = 0.
    """
    z1: complex
    z1_conj: complex
    omega1: float
    regime: str


def _require_positive(**values: float):
    for name, value in values.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be > 0 (got {value!r})")


def _require_finite_positive(**values: float):
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0 (got {value!r})")


def canonicalize(spec: BathSpec) -> CanonicalBath:
    """Map a bath description onto the canonical (gamma, Omega, Omega')
    triple and its cutoff relation, applying the relation exactly.

    The single-relaxation-time Omega' = 1/tau - gamma is formed in exact
    integer arithmetic from the float tau and gamma and rounded once:
    fl(1/tau) - gamma would lose log10(1/(1 - gamma tau)) digits as
    gamma tau -> 1 (2e-13 relative at gamma = 3, Omega' = 1e-3).

    A single-relaxation-time spec whose triple also meets the blackbody
    relation to rounding raises ValueError naming gamma and tau: where
    gamma (Omega + 1/Omega) is below ~4e-15, the triple alone does not
    tell the two baths apart."""
    if isinstance(spec, OhmicSpec):
        return CanonicalBath(gamma=spec.gamma)
    if isinstance(spec, SingleRelaxationSpec):
        big_omega = 1.0 / spec.tau
        # 1/tau - gamma over the exact integer ratios of the two floats;
        # int / int rounds once
        tau_num, tau_den = spec.tau.as_integer_ratio()
        gamma_num, gamma_den = spec.gamma.as_integer_ratio()
        prime = ((tau_den * gamma_den - gamma_num * tau_num)
                 / (tau_num * gamma_den))
        if _meets("blackbody", spec.gamma, big_omega, prime):
            raise ValueError(
                f"single-relaxation-time bath with gamma = {spec.gamma!r}, "
                f"tau = {spec.tau!r} cannot be told from a blackbody bath: "
                "its cutoffs meet both relations to rounding")
        return CanonicalBath(gamma=spec.gamma, Omega=big_omega,
                             OmegaPrime=prime, relation="relaxation")
    if isinstance(spec, QEDSpec):
        big_omega = 1.0 / (1.0 / spec.omega_prime + spec.gamma)
        return CanonicalBath(gamma=spec.gamma, Omega=big_omega,
                             OmegaPrime=spec.omega_prime, relation="blackbody")
    raise TypeError(f"not a bath spec: {spec!r}")


# Friction above which roots() scales |omega1| by gamma/2; at and below it
# every root keeps the bits of the unscaled form.
_SCALED_ROOTS = 1e150


def roots(gamma: float) -> RootPair:
    """Characteristic root pair for friction gamma (units of omega0).

    The smaller overdamped root is computed as 1 / (gamma/2 + |omega1|)
    to avoid the cancellation in gamma/2 - |omega1|.  Above
    _SCALED_ROOTS, where gamma^2/4 would overflow (from ~1.3e154),
    |omega1| is (gamma/2) sqrt((1 - 2/gamma)(1 + 2/gamma)).
    """
    _require_finite_positive(gamma=gamma)
    if gamma > _SCALED_ROOTS:
        inverse = 2.0 / gamma
        omega1 = 0.5 * gamma * math.sqrt((1.0 - inverse) * (1.0 + inverse))
        larger = 0.5 * gamma + omega1
        return RootPair(complex(1.0 / larger, 0.0), complex(larger, 0.0),
                        omega1, "overdamped")
    disc = 1.0 - 0.25 * gamma * gamma
    omega1 = math.sqrt(abs(disc))
    if disc > 0.0:
        return RootPair(complex(0.5 * gamma, omega1),
                        complex(0.5 * gamma, -omega1), omega1, "underdamped")
    larger = 0.5 * gamma + omega1
    return RootPair(complex(1.0 / larger, 0.0), complex(larger, 0.0), omega1,
                    "overdamped")


def susceptibility(bath: CanonicalBath, z: complex) -> complex:
    """Generalized susceptibility alpha(z) in the canonical form, per unit
    mass (m = 1).

    For infinite cutoffs the ratio (z + i Omega)/(z + i Omega') is taken as
    1 analytically.  All poles lie in the open lower half plane.  Finite
    Omega with Omega' = inf, the point-electron limit (bare mass m = 0),
    raises ValueError; :mod:`oscbath.thermo` computes that bath all the same.
    """
    z = complex(z)
    osc = z * z + 1j * bath.gamma * z - 1.0
    finite_O = math.isfinite(bath.Omega)
    finite_Op = math.isfinite(bath.OmegaPrime)
    if finite_O != finite_Op:
        raise ValueError(
            "susceptibility needs both cutoffs finite or both infinite; "
            "the point-electron limit has zero bare mass")
    if finite_O:
        denominator = -(z + 1j * bath.OmegaPrime) * osc
        numerator = z + 1j * bath.Omega
    else:
        denominator = -osc
        numerator = 1.0 + 0.0j
    if denominator == 0:
        raise ValueError(f"susceptibility: z = {z!r} is a pole")
    return numerator / denominator


# Each relation, as the errors of CanonicalBath name it.
_RELATIONS = {"relaxation": "relaxation relation Omega = Omega' + gamma",
              "blackbody": "blackbody relation 1/Omega = 1/Omega' + gamma"}
# Both relations are applied by canonicalize() with two or three roundings.
_RELATION_ULPS = 16 * 2.220446049250313e-16


def _meets(relation, gamma, omega, prime):
    """Whether the triple meets the relation to _RELATION_ULPS."""
    if not math.isfinite(omega):
        return False
    if relation == "blackbody":
        inv_o = 1.0 / omega
        return abs(inv_o - 1.0 / prime - gamma) <= _RELATION_ULPS * inv_o
    return math.isfinite(prime) and (
        abs(omega - prime - gamma) <= _RELATION_ULPS * omega)


def static_weight(bath: CanonicalBath) -> float:
    """The spectral factor at zero frequency,

        gamma - 1/Omega + 1/Omega',

    which is minus the sum of sigma/c over the characteristic frequencies
    of the closed form.  The cutoff relation's cancellation is done
    exactly: 0 for the blackbody bath, gamma (1 + 1/(Omega Omega')) for
    the single-relaxation-time bath and so gamma for the Ohmic bath."""
    if bath.relation == "blackbody":
        return 0.0
    return bath.gamma * (1.0 + 1.0 / (bath.Omega * bath.OmegaPrime))


def spectral_weight(bath: CanonicalBath) -> Callable[[float, float], float]:
    """:func:`free_energy_integrand` of the bath as a function
    ``weight(w, detuning)`` of w > 0 and the detuning w - 1, with the
    bath's constants bound once.

    One formula per cutoff relation over the whole float range: the three
    Lorentzians over their common denominator (w^2 - 1)^2 + gamma^2 w^2
    times (1 + q^2 w^2)(1 + p^2 w^2), q = 1/Omega, p = 1/Omega', with a
    numerator polynomial in w^2, so the static values (which cancel for the
    blackbody bath) and the relaxation tails ~1/w^2 are never subtracted.
    The Ohmic bath takes the relaxation formula with p = q = 0.  It is
    evaluated on w = u/v, v = 1/w above 1 and 1 below, so that no power
    overflows, with (w^2 - 1) v^2 = detuning (u + v) v exact near a
    weak-damping resonance for a caller that integrates in the detuning.
    The two cutoff factors are never multiplied together: one that
    overflows alone leaves a weight below the normal range."""
    g = bath.gamma
    p = 1.0 / bath.OmegaPrime                   # 0 for an infinite cutoff
    blackbody = bath.relation == "blackbody"
    q = g + p if blackbody else 1.0 / bath.Omega            # 1/Omega
    pq, g2 = p * q, g * g

    if blackbody:
        # gamma (1 + pq) w^2 (pq w^4 + middle w^2 + 3)
        lead = g * (1.0 + pq)
        n2, n0 = lead * pq, 3.0 * lead
        n1 = lead * ((g - 1.0) * (g + 1.0) + p * (g + p))         # middle

        def weight(w: float, detuning: float) -> float:
            v = 1.0 / w if w > 1.0 else 1.0
            u = w * v
            u2, v2 = u * u, v * v
            diff = detuning * (u + v) * v
            # r = 1/(v^2 + (q u)^2) takes up the w^2 of the numerator; v (v r)
            # keeps a power of v from underflowing before it is divided
            r = 1.0 / (v2 + q * u * (q * u))
            return (u2 * (n2 * u2 * u2 * r + (n1 * u2 + n0 * v2) * v * (v * r))
                    / ((diff * diff + g2 * u2 * v2) * (1.0 + p * w * (p * w))))
        return weight
    # gamma (n2 w^4 + n1 w^2 + 1 + pq): the w^6 terms cancel exactly
    n2 = g * (q * q + pq * (2.0 + q * g + 3.0 * pq))
    n1 = g * (1.0 + pq * (g2 * (1.0 + pq) - pq))
    n0 = g * (1.0 + pq)

    def weight(w: float, detuning: float) -> float:
        v = 1.0 / w if w > 1.0 else 1.0
        u = w * v
        u2, v2 = u * u, v * v
        diff = detuning * (u + v) * v
        # (x v) v, not x v2: v2 is subnormal where gamma v^2 may not be
        return ((n2 * u2 * u2 + (n1 * u2 + n0 * v2) * v * v)
                / ((diff * diff + g2 * u2 * v2) * (1.0 + q * w * (q * w)))
                / (1.0 + p * w * (p * w)))
    return weight


def free_energy_integrand(bath: CanonicalBath, omega: float) -> float:
    """Spectral factor of the free-energy integral at frequency ``omega``
    (units of omega0; the thermal log factor is applied by the caller):

        -Omega/(w^2+Omega^2) + Omega'/(w^2+Omega'^2)
            + gamma (w^2 + 1) / ((w^2 - 1)^2 + gamma^2 w^2)

    which is Im d log alpha(w + i0+)/dw; infinite cutoffs drop their
    Lorentzians.  :func:`spectral_weight` evaluates it within 8 eps (1 +
    kappa), kappa = |w b'/b| (measured for gamma 1e-6 .. 1e3, Omega' 1e2 ..
    inf, w 1e-10 .. 1e20), and to 1e-15 from there to the largest float.
    A value not finite or below the smallest normal float raises
    OverflowError naming omega (the blackbody ~3 gamma w^2 at tiny omega).
    """
    if not omega > 0.0:
        raise ValueError("free_energy_integrand: omega must be > 0")
    value = spectral_weight(bath)(omega, omega - 1.0)
    if not sys.float_info.min <= abs(value) < math.inf:
        raise OverflowError(f"omega = {omega!r}: the spectral weight leaves "
                            "the float range")
    return value
