"""The paper's memory-friction kernels mu(z), for the tests.

Each bath is defined by its kernel mu(z), the half-line Fourier transform
of the memory function per unit oscillator mass.  The package computes
only from the canonical (gamma, Omega, Omega') triple; the tests use these
kernels to check that triple, through the susceptibility

    alpha(z) = 1 / (-z^2 - i z mu(z) + K/m),

against :func:`oscbath.baths.susceptibility`.  Also here: the blackbody
bath's mass ratio and its friction in the large-cutoff limit.
"""

import math

from oscbath.baths import (
    BathSpec,
    OhmicSpec,
    QEDSpec,
    SingleRelaxationSpec,
    _require_positive,
    canonicalize,
)

# Electron radiation-reaction time 2 e^2 / (3 M c^3); the large-cutoff limit
# of the blackbody bath has gamma/omega0 = omega0 * tau_e.
TAU_E_SECONDS = 6e-24


def _spring_rate(spec: BathSpec) -> float:
    """K/m, the oscillator spring constant per unit (bare) mass."""
    if isinstance(spec, OhmicSpec):
        return 1.0
    bath = canonicalize(spec)
    op, g = bath.OmegaPrime, bath.gamma
    if isinstance(spec, SingleRelaxationSpec):
        return op / (op + g)
    return 1.0 + g * op


def mu_tilde(spec: BathSpec, z: complex) -> complex:
    """Memory-friction kernel mu(z) per unit mass, upper half plane only.

    Ohmic: the constant gamma.  Single relaxation time: zeta/(1 - i z tau)
    with zeta and tau from the cutoff relations.  QED (finite cutoff):
    (gamma + Omega' - Omega) z / (z + i Omega), the form-factor kernel
    rewritten in the canonical parameters.
    """
    z = complex(z)
    if z.imag < 0.0:
        raise ValueError("mu_tilde: kernel is analytic for Im z >= 0 only")
    if isinstance(spec, OhmicSpec):
        return complex(spec.gamma, 0.0)
    if isinstance(spec, SingleRelaxationSpec):
        bath = canonicalize(spec)
        op, g = bath.OmegaPrime, bath.gamma
        # zeta/m, which tends to gamma in the Ohmic limit
        zeta = g * (op * op + g * op + 1.0) / (op + g) ** 2
        return zeta / (1.0 - 1j * z / bath.Omega)
    if isinstance(spec, QEDSpec):
        if math.isinf(spec.omega_prime):
            raise ValueError(
                "mu_tilde per unit bare mass is undefined in the "
                "point-electron limit (bare mass -> 0)")
        bath = canonicalize(spec)
        strength = bath.gamma + bath.OmegaPrime - bath.Omega
        return strength * z / (z + 1j * bath.Omega)
    raise TypeError(f"not a bath spec: {spec!r}")


def susceptibility_kernel_form(spec: BathSpec, z: complex) -> complex:
    """alpha(z) = 1 / (-z^2 - i z mu(z) + K/m) straight from the kernel;
    agrees with :func:`oscbath.baths.susceptibility` of the canonicalized
    bath (mass 1)."""
    z = complex(z)
    denominator = -z * z - 1j * z * mu_tilde(spec, z) + _spring_rate(spec)
    if denominator == 0:
        raise ValueError(f"susceptibility: z = {z!r} is a pole")
    return 1.0 / denominator


def qed_mass_ratio(spec: QEDSpec) -> float:
    """Renormalized over bare mass, M/m = (1 + gamma Omega') (Omega' + gamma)
    / Omega'; infinite in the point-electron limit."""
    if math.isinf(spec.omega_prime):
        return math.inf
    op, g = spec.omega_prime, spec.gamma
    return (1.0 + g * op) * (op + g) / op


def gamma_large_cutoff(omega0_si: float) -> float:
    """Reduced friction gamma/omega0 = omega0 * tau_e of the large-cutoff
    blackbody bath, for an oscillator frequency omega0 in rad/s."""
    _require_positive(omega0_si=omega0_si)
    return omega0_si * TAU_E_SECONDS
