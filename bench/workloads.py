"""Seeded input generators for the benchmark workloads.

Every workload is a fixed cycle of operations drawn from the seed; the run
replays the cycle in a closed loop (one client, one process).  Continuous
parameters are drawn by stratified sampling: the range is split into as many
equal strata (in log scale) as there are draws, and each draw falls in its
own stratum, so every seed covers the edge grid with the same density while
the exact values change.

The edge grid: gamma in [1e-8, 1e4] with critical damping
gamma = 2 pinned, theta in [1e-5, 1e3], Omega' up to 1e12.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GAMMA_RANGE = (1e-8, 1e4)
THETA_RANGE = (1e-5, 1e3)
OMEGA_PRIME_RANGE = (1e2, 1e12)
MODELS = ("ohmic", "srt", "qed")
ALL_METHODS = "exact_j,exact_quadrature,low_T_series,high_T_series"


@dataclass(frozen=True)
class Bath:
    model: str
    gamma: float
    tau: float | None = None
    omega_prime: float | None = None


# The worst-conditioned point of the edge grid (see oracle.EDGE_POINT).
EDGE_BATH = Bath("qed", 1e4, omega_prime=1e12)


@dataclass(frozen=True)
class SweepOp:
    """One in-process ``cli.run_sweep`` call."""
    bath: Bath
    theta_min: float
    theta_max: float
    points: int
    method: str
    format: str = "json"
    units: str = "reduced"
    omega0_hz: float | None = None

    def options(self) -> dict:
        """The complete option mapping ``run_sweep`` takes."""
        return {"model": self.bath.model, "gamma": self.bath.gamma,
                "tau": self.bath.tau, "omega_prime": self.bath.omega_prime,
                "theta_min": self.theta_min, "theta_max": self.theta_max,
                "points": self.points, "log": True, "method": self.method,
                "format": self.format, "units": self.units,
                "omega0_hz": self.omega0_hz}

    def argv(self) -> tuple[str, ...]:
        """The same sweep as ``oscbath sweep`` arguments (floats in repr, so
        the command line carries them exactly)."""
        bath = self.bath
        args = ["sweep", "--model", bath.model, "--gamma", repr(bath.gamma)]
        if bath.tau is not None:
            args += ["--tau", repr(bath.tau)]
        if bath.omega_prime is not None:
            args += ["--omega-prime", repr(bath.omega_prime)]
        args += ["--theta-min", repr(self.theta_min),
                 "--theta-max", repr(self.theta_max),
                 "--points", str(self.points), "--log",
                 "--method", self.method, "--format", self.format,
                 "--units", self.units]
        if self.omega0_hz is not None:
            args += ["--omega0-hz", repr(self.omega0_hz)]
        return tuple(args)


@dataclass(frozen=True)
class CliOp:
    """One ``oscbath`` command line."""
    argv: tuple[str, ...]
    expected_exit: int = 0
    sweep: SweepOp | None = None      # the sweep behind a ``sweep`` argv
    jfun: tuple[complex, str] | None = None   # (z, expected route name)
    srt_zero_point: Bath | None = None


def _strata(rng, count):
    """``count`` positions in [0, 1), one per equal stratum, shuffled."""
    positions = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(positions)
    return positions


def _stratified_log(rng, low, high, count):
    """``count`` log-uniform draws on [low, high], one per stratum."""
    low, high = math.log10(low), math.log10(high)
    return [10.0 ** (low + (high - low) * p) for p in _strata(rng, count)]


def _bath(rng, model, gamma, prime_position=None):
    """A bath of the given model and friction.  The cutoff Omega' is
    log-uniform up to 1e12 at ``prime_position`` in [0, 1) (drawn when not
    given); SRT keeps tau*gamma <= 0.1, the model's stated regime."""
    if model == "ohmic":
        return Bath(model, gamma)
    if prime_position is None:
        prime_position = rng.random()
    low, high = (math.log10(bound) for bound in OMEGA_PRIME_RANGE)
    if model == "srt":
        low = max(low, math.log10(10.0 * gamma))
    prime = 10.0 ** (low + (high - low) * prime_position)
    if model == "srt":
        return Bath(model, gamma, tau=1.0 / (prime + gamma))
    return Bath(model, gamma, omega_prime=prime)


def edge_baths(rng, per_model):
    """``per_model`` baths of each model, a Latin hypercube over (log gamma,
    log Omega'), then the pinned ones: critical damping for every model,
    and the worst-conditioned edge point (QED, gamma = 1e4, Omega' = 1e12)."""
    baths = []
    for model in MODELS:
        for gamma, prime in zip(_stratified_log(rng, *GAMMA_RANGE, per_model),
                                _strata(rng, per_model)):
            baths.append(_bath(rng, model, gamma, prime))
    baths += [_bath(rng, model, 2.0) for model in MODELS]
    baths.append(EDGE_BATH)
    return baths


def _theta_span(rng, bath):
    """A sweep range reaching both ends of the theta grid to within a factor
    of two; the pinned edge bath sweeps the grid exactly."""
    if bath == EDGE_BATH:
        return THETA_RANGE
    return (THETA_RANGE[0] * 2.0 ** rng.random(),
            THETA_RANGE[1] / 2.0 ** rng.random())


# ------------------------------------------------------------ workloads ----

def sweep_exact(seed: int) -> list[SweepOp]:
    """Long exact_j sweeps, one per bath: the tabulating use.  An Ohmic
    point evaluates two J terms and a cutoff model four, so Ohmic sweeps
    take twice the temperatures: every operation then does about the same
    work, and the latency percentiles follow the program, not the draw."""
    rng = random.Random(seed)
    ops = []
    for bath in edge_baths(rng, per_model=6):
        lo, hi = _theta_span(rng, bath)
        points = 80 if bath.model == "ohmic" else 40
        ops.append(SweepOp(bath, lo, hi, points=points, method="exact_j"))
    rng.shuffle(ops)
    return ops


def sweep_crosscheck(seed: int) -> list[SweepOp]:
    """Short sweeps through both exact routes: the cross-validation use.
    Two temperatures per bath: one in [1e-5, 1e-4], where the quadrature
    route is cheap, and one where it does its full work.

    The quadrature cost depends on friction and temperature together, so
    the drawn baths are a Latin hypercube over (log gamma, log theta) per
    model, with gamma over [1e-6, 1e4]: below 1e-6 the cost is erratic
    (10x between nearby frictions at theta >= 1).  The pinned baths sweep
    fixed temperatures: critical damping to theta = 1, the edge point to
    theta = 1e3, and the weak-damping edge gamma = 1e-8 to theta = 1, so
    every seed pays the same share for them."""
    rng = random.Random(seed)
    ops = []
    for model in MODELS:
        gammas = _stratified_log(rng, 1e-6, GAMMA_RANGE[1], 8)
        highs = _stratified_log(rng, 1e-3, THETA_RANGE[1], 8)
        for gamma, high, prime in zip(gammas, highs, _strata(rng, 8)):
            ops.append((_bath(rng, model, gamma, prime), high))
    ops += [(_bath(rng, model, 2.0), 1.0) for model in MODELS]
    ops += [(EDGE_BATH, THETA_RANGE[1]), (Bath("ohmic", GAMMA_RANGE[0]), 1.0)]
    ops = [SweepOp(bath, THETA_RANGE[0] * 10.0 ** rng.random(), high,
                   points=2, method="exact_j,exact_quadrature")
           for bath, high in ops]
    rng.shuffle(ops)
    return ops


def cli_batch(seed: int) -> list[CliOp]:
    """A mix of short ``oscbath`` command lines: sweeps over all four
    methods in csv and json, reduced and SI units; ``jfun`` by every method,
    including the left half plane; and ``zeropoint`` for every model."""
    rng = random.Random(seed)
    ops = []
    # Sweeps through all four methods, with friction in [0.5, 2] and one
    # temperature in [1e-5, 1e-4] and one in [0.5, 2]: there the quadrature
    # route's cost varies least, so these operations, with the two exact_j
    # sweeps after them, form one class of about equal cost and p90 does
    # not hang on a few draws.  The edge grid is the sweep workloads' job.
    layouts = [("csv", "reduced"), ("json", "reduced"), ("csv", "si"),
               ("json", "si"), ("csv", "reduced"), ("json", "si")]
    gammas = _stratified_log(rng, 0.5, 2.0, len(layouts))
    lows = _stratified_log(rng, 1e-5, 1e-4, len(layouts))
    highs = _stratified_log(rng, 0.5, 2.0, len(layouts))
    for k, (fmt, units) in enumerate(layouts):
        bath = _bath(rng, MODELS[k % 3], gammas[k])
        sweep = SweepOp(bath, lows[k], highs[k],
                        points=2, method=ALL_METHODS, format=fmt, units=units,
                        omega0_hz=10.0 ** rng.uniform(9.0, 15.0)
                        if units == "si" else None)
        ops.append(CliOp(sweep.argv(), sweep=sweep))
    # two longer exact_j sweeps: critical damping, and a drawn QED bath
    for bath, fmt in ((_bath(rng, "srt", 2.0), "csv"),
                      (_bath(rng, "qed", 10.0 ** rng.uniform(-8.0, 4.0)), "json")):
        sweep = SweepOp(bath, *_theta_span(rng, bath), points=40,
                        method="exact_j", format=fmt)
        ops.append(CliOp(sweep.argv(), sweep=sweep))

    def jfun(z, method, route, terms=None):
        argv = ("jfun", repr(z.real), repr(z.imag), "--method", method)
        if terms is not None:
            argv += ("--terms", str(terms))
        ops.append(CliOp(argv, jfun=(z, route)))

    def polar(r_low, r_high, angle_low, angle_high):
        r = 10.0 ** rng.uniform(math.log10(r_low), math.log10(r_high))
        angle = rng.uniform(angle_low, angle_high)
        return complex(r * math.cos(angle), r * math.sin(angle))

    half = math.pi / 2
    jfun(polar(0.1, 50.0, -1.4, 1.4), "auto", "lanczos")
    jfun(polar(0.1, 20.0, half + 0.1, math.pi - 0.1), "auto", "continuation")
    jfun(polar(0.1, 20.0, -math.pi + 0.1, -half - 0.1), "auto", "continuation")
    jfun(polar(0.2, 20.0, -1.3, 1.3), "quadrature", "quadrature")
    jfun(polar(0.2, 20.0, -1.4, 1.4), "loggamma", "loggamma")
    jfun(polar(0.1, 50.0, -1.4, 1.4), "lanczos", "lanczos")
    jfun(polar(0.05, 0.5, -2.5, 2.5), "series", "series")
    jfun(polar(10.0, 200.0, -1.4, 1.4), "asymptotic", "asymptotic")
    jfun(polar(4.0, 10.0, -1.0, 1.0), "asymptotic", "asymptotic", terms=3)

    srt = _bath(rng, "srt", 10.0 ** rng.uniform(-3.0, 1.0))
    ops.append(CliOp(("zeropoint", "--model", "srt", "--gamma", repr(srt.gamma),
                      "--tau", repr(srt.tau)), srt_zero_point=srt))
    ops.append(CliOp(("zeropoint", "--model", "ohmic",
                      "--gamma", repr(10.0 ** rng.uniform(-3.0, 1.0)),
                      "--tau", repr(10.0 ** rng.uniform(-8.0, -3.0)))))
    qed = _bath(rng, "qed", 10.0 ** rng.uniform(-3.0, 1.0))
    ops.append(CliOp(("zeropoint", "--model", "qed", "--gamma", repr(qed.gamma),
                      "--omega-prime", repr(qed.omega_prime)),
                     expected_exit=4))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"sweep_exact": sweep_exact,
             "sweep_crosscheck": sweep_crosscheck,
             "cli_batch": cli_batch}
