"""oscbath: quantum thermodynamic functions of a damped oscillator.

A harmonic oscillator coupled to an Ohmic, single-relaxation-time, or
blackbody-radiation (QED) heat bath has an exact free energy expressible
through the Stieltjes J-function at the characteristic frequencies of its
susceptibility.  This package provides

* the J-function jet ``j_jet`` that the exact route runs on, and the
  independent J routes that cross-check it (:mod:`oscbath.stieltjes`),
* an adaptive quadrature oracle for the underlying spectral integrals
  (:mod:`oscbath.quadrature`),
* the bath models and their canonical susceptibility parameters
  (:mod:`oscbath.baths`),
* exact and series thermodynamics F, S, U, C plus zero-point energies
  (:mod:`oscbath.thermo`; ``sweep`` tabulates a temperature list by any of
  ``METHODS``, ``series_point`` gives one series point),
* a command-line interface (``oscbath sweep | jfun | zeropoint``).

Reduced units throughout: hbar = k = 1, frequencies in units of omega0,
temperature theta = k T / (hbar omega0).
"""

from .baths import (
    BathSpec,
    CanonicalBath,
    OhmicSpec,
    QEDSpec,
    RootPair,
    SingleRelaxationSpec,
    canonicalize,
    free_energy_integrand,
    roots,
    susceptibility,
)
from .quadrature import (
    IntegrandEvaluationError,
    QuadratureConvergenceError,
    QuadratureResult,
    integrate_interval,
    integrate_log_endpoint,
    integrate_semi_infinite,
)
from .stieltjes import (
    j_asymptotic,
    j_continue_left,
    j_jet,
    j_lanczos,
    j_loggamma,
    j_quadrature,
    j_series_small,
    log_gamma,
    zeta,
)
from .thermo import (
    METHODS,
    DivergenceError,
    ThermoPoint,
    free_energy_exact,
    free_energy_quadrature,
    ohmic_high_temperature,
    ohmic_low_temperature,
    qed_high_temperature,
    qed_low_temperature,
    series_point,
    sweep,
    thermo_point,
    zero_point,
    zero_point_ohmic_asymptotic,
)

__version__ = "0.1.0"
