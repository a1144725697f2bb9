"""Command-line interface: temperature sweeps, J-function probes, and
zero-point values.

Subcommands:

* ``sweep``     -- tabulate F, S, U, C over a temperature grid, CSV or JSON
* ``jfun``      -- evaluate the Stieltjes J-function by a chosen route
* ``zeropoint`` -- zero-point energy of a bath (or its divergence notice)

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 divergent quantity requested.  Output for a fixed configuration is
byte-identical between runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import baths, stieltjes, thermo
from .quadrature import IntegrandEvaluationError, QuadratureConvergenceError

__all__ = ["main", "run_sweep"]

# CODATA values; k is exact in the SI, hbar follows from the exact h.
HBAR_SI = 1.054571817e-34     # J s
K_BOLTZMANN_SI = 1.380649e-23  # J / K

# Sweep option values for flags and config files alike (log: config only).
_CHOICES = {"model": ("ohmic", "srt", "qed"), "format": ("csv", "json"),
            "units": ("reduced", "si"),
            "log": {"1": True, "true": True, "yes": True, "on": True,
                    "0": False, "false": False, "no": False, "off": False}}

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGENT = 4


class _ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors end with ``note``."""
    note = ""

    def error(self, message):
        super().error(message + self.note)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then kept:
    parsing leaves it unchanged, and building it costs over ten times a
    parse."""
    parser = argparse.ArgumentParser(
        prog="oscbath",
        description="Thermodynamics of a damped quantum oscillator in "
                    "Ohmic, single-relaxation-time, and blackbody heat baths")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sweep = sub.add_parser("sweep", help="tabulate F, S, U, C over a "
                                         "temperature grid")
    sweep.add_argument("--config", help="key=value file; command-line flags "
                                        "take precedence")
    sweep.add_argument("--model", choices=_CHOICES["model"])
    sweep.add_argument("--gamma", type=float, help="friction, units of omega0")
    sweep.add_argument("--tau", type=float,
                       help="relaxation time times omega0 (srt)")
    sweep.add_argument("--omega-prime", type=float,
                       help="cutoff Omega'/omega0 (qed)")
    sweep.add_argument("--theta-min", type=float)
    sweep.add_argument("--theta-max", type=float)
    sweep.add_argument("--points", type=int)
    sweep.add_argument("--log", action="store_true", default=None,
                       help="log-spaced temperature grid")
    sweep.add_argument("--method", help="comma list from "
                                        f"{{{','.join(thermo.METHODS)}}}")
    sweep.add_argument("--format", choices=_CHOICES["format"])
    sweep.add_argument("--units", choices=_CHOICES["units"])
    sweep.add_argument("--omega0-hz", type=float,
                       help="omega0 in rad/s, required for SI units")

    # argparse reads a minus-led number in exponent form (-1e3, -inf) as an
    # option, so a usage error of jfun says how to pass one
    jfun = sub.add_parser("jfun", help="evaluate the Stieltjes J-function")
    jfun.note = ("; a negative re or im in exponent form, such as -1e3, goes "
                 "after --, as in: oscbath jfun -- -1e3 1")
    jfun.add_argument("re", type=float)
    jfun.add_argument("im", type=float)
    jfun.add_argument("--method", default="auto",
                      choices=("auto", "quadrature", "loggamma", "lanczos",
                               "series", "asymptotic"))
    jfun.add_argument("--terms", type=int, default=None,
                      help="term count of the series and asymptotic methods")

    zp = sub.add_parser("zeropoint", help="zero-point energy of a bath")
    zp.add_argument("--model", required=True, choices=_CHOICES["model"])
    zp.add_argument("--gamma", type=float, required=True)
    zp.add_argument("--tau", type=float)
    zp.add_argument("--omega-prime", type=float)
    return parser


# ---------------------------------------------------------------- sweep ----

_SWEEP_DEFAULTS = {
    "model": None, "gamma": None, "tau": None, "omega_prime": None,
    "theta_min": 0.1, "theta_max": 10.0, "points": 20, "log": False,
    "method": "exact_j", "format": "csv", "units": "reduced",
    "omega0_hz": None,
}
_CONFIG_TYPES = {
    "gamma": float, "tau": float, "omega_prime": float,
    "theta_min": float, "theta_max": float, "omega0_hz": float,
    "points": int,
}


def _config_value(key: str, value: str):
    """A config file's value for ``key``, checked as its flag would be."""
    if key not in _CHOICES:
        return _CONFIG_TYPES.get(key, str)(value)
    word = value.lower() if key == "log" else value
    if word not in _CHOICES[key]:
        raise ValueError(f"{key} must be one of "
                         f"{', '.join(_CHOICES[key])} (got {value!r})")
    return _CHOICES["log"][word] if key == "log" else word


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                value = value.strip()
                if key not in _SWEEP_DEFAULTS:
                    raise _ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _config_value(key, value)
                except ValueError as exc:
                    raise _ConfigError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise _ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _merge_sweep_options(args) -> dict:
    config = _read_config(args.config) if args.config else {}
    merged = {}
    for key, fallback in _SWEEP_DEFAULTS.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in config:
            merged[key] = config[key]
        else:
            merged[key] = fallback
    return merged


def _bath_from_options(opt) -> baths.CanonicalBath:
    model = opt["model"]
    if model is None:
        raise _ConfigError("--model is required (ohmic|srt|qed)")
    if opt["gamma"] is None:
        raise _ConfigError("--gamma is required")
    try:
        if model == "ohmic":
            spec = baths.OhmicSpec(gamma=opt["gamma"])
        elif model == "srt":
            if opt["tau"] is None:
                raise _ConfigError("--tau is required for the srt model")
            spec = baths.SingleRelaxationSpec(gamma=opt["gamma"], tau=opt["tau"])
        else:
            if opt["omega_prime"] is None:
                raise _ConfigError("--omega-prime is required for the qed model")
            spec = baths.QEDSpec(gamma=opt["gamma"],
                                 omega_prime=opt["omega_prime"])
        return baths.canonicalize(spec)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc


def _theta_grid(opt) -> list[float]:
    lo, hi, count = opt["theta_min"], opt["theta_max"], opt["points"]
    if not 0.0 < lo < math.inf:
        raise _ConfigError(f"theta-min must be finite and > 0 (got {lo!r})")
    if count < 1:
        raise _ConfigError(f"points must be >= 1 (got {count!r})")
    if count == 1:
        return [lo]
    if not lo <= hi < math.inf:
        raise _ConfigError("theta-max must be finite and >= theta-min "
                           f"(got {hi!r})")
    if opt["log"]:
        span = hi / lo
        if span < math.inf:
            ratio = span ** (1.0 / (count - 1))
            return [lo * ratio ** i for i in range(count)]
        # hi / lo overflows: weight the ends instead, each factor finite
        return [lo ** ((count - 1 - i) / (count - 1))
                * hi ** (i / (count - 1)) for i in range(count)]
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def _methods(opt) -> list[str]:
    requested = {name.strip() for name in opt["method"].split(",") if name.strip()}
    unknown = requested.difference(thermo.METHODS)
    if unknown:
        raise _ConfigError(f"unknown method(s): {', '.join(sorted(unknown))}")
    if not requested:
        raise _ConfigError("no methods requested")
    return [name for name in thermo.METHODS if name in requested]


def run_sweep(opt) -> str:
    """Compute a sweep from merged options and render it; returns the full
    output text (deterministic for a fixed configuration).

    Each requested method runs as one :func:`oscbath.thermo.sweep` over
    the whole grid, which picks the route and, for the series, the bath's
    series.  Rows are in theta-major order, the methods in canonical order
    within a theta, and every row of a layout (csv or json, reduced or SI
    units) is rendered from one format string, floats as %.16e: 17
    significant digits, an exact float round trip."""
    bath = _bath_from_options(opt)
    grid = _theta_grid(opt)
    methods = _methods(opt)
    model = opt["model"]
    si = opt["units"] == "si"
    if si:
        omega0 = opt["omega0_hz"]
        if omega0 is None or not 0.0 < omega0 < math.inf:
            raise _ConfigError("SI units need a finite --omega0-hz > 0 "
                               f"(got {omega0!r})")
        energy = HBAR_SI * omega0                  # hbar omega0 in J
        kelvin_per_theta = energy / K_BOLTZMANN_SI

    columns = [thermo.sweep(bath, grid, method) for method in methods]
    floats = ["theta", "T_kelvin", "F", "S", "U", "C"] if si \
        else ["theta", "F", "S", "U", "C"]
    if opt["format"] == "csv":
        lines = [",".join(floats + ["method", "model"])]
        row_format = ",".join(["%.16e"] * len(floats) + ["%s", "%s"])
    else:
        lines = []
        row_format = "    {" + ", ".join(
            [f'"{name}": %.16e' for name in floats]
            + ['"method": "%s"', '"model": "%s"']) + "}"
    for points in zip(*columns):
        for point in points:
            theta = point.theta
            if si:
                values = (theta, theta * kelvin_per_theta, point.F * energy,
                          point.S * K_BOLTZMANN_SI, point.U * energy,
                          point.C * K_BOLTZMANN_SI, point.method, model)
            else:
                values = (theta, point.F, point.S, point.U, point.C,
                          point.method, model)
            lines.append(row_format % values)
    if opt["format"] == "csv":
        return "\n".join(lines) + "\n"
    return ("{\n  \"config\": {" + _json_config(opt) + "},\n"
            "  \"rows\": [\n" + ",\n".join(lines) + "\n  ]\n}\n")


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return "%.16e" % value


def _json_config(opt) -> str:
    config_keys = ("model", "gamma", "tau", "omega_prime", "theta_min",
                   "theta_max", "points", "log", "method", "units",
                   "omega0_hz")
    return ", ".join(f'"{key}": {_json_scalar(opt[key])}'
                     for key in config_keys)


def _cmd_sweep(args) -> int:
    output = run_sweep(_merge_sweep_options(args))
    sys.stdout.write(output)
    return EXIT_OK


# ----------------------------------------------------------------- jfun ----

def _cmd_jfun(args) -> int:
    z = complex(args.re, args.im)
    name, bound = args.method, None
    terms = {} if args.terms is None else {"n_terms": args.terms}
    if terms and name not in ("series", "asymptotic"):
        raise _ConfigError(f"--terms does not apply to --method {name}")
    if name == "auto":
        value, name = stieltjes.j_auto_named(z)
    elif name == "series":
        value = stieltjes.j_series_small(z, **terms)
    elif name == "asymptotic":
        value, bound = stieltjes.j_asymptotic(z, **terms)
    else:
        value = {"quadrature": stieltjes.j_quadrature, "lanczos":
                 stieltjes.j_lanczos, "loggamma": stieltjes.j_loggamma}[name](z)
    print(f"J({args.re:g}{args.im:+g}j) = {value.real:.14e} {value.imag:+.14e}j")
    print(f"method: {name}")
    if bound is not None:
        print(f"truncation bound: {bound:.6e}")
    return EXIT_OK


# ------------------------------------------------------------ zeropoint ----

def _cmd_zeropoint(args) -> int:
    bath = _bath_from_options(vars(args))
    if args.model == "ohmic":
        if args.tau is None:
            raise _ConfigError("--tau is required for the ohmic zero point "
                               "(log-divergent limit)")
        value = thermo.zero_point_ohmic_asymptotic(bath.gamma, args.tau)
        print(f"zero_point_asymptotic = {value:.14e}  "
              f"(tau = {args.tau:g}; diverges like -log tau as tau -> 0)")
        return EXIT_OK
    print(f"zero_point = {thermo.zero_point(bath):.14e}")
    return EXIT_OK


# ----------------------------------------------------------------- main ----

_HANDLERS = {"sweep": _cmd_sweep, "jfun": _cmd_jfun,
             "zeropoint": _cmd_zeropoint}


def main(argv=None) -> int:
    """Run one ``oscbath`` command line (``sys.argv[1:]`` when ``argv`` is
    None) and return its exit code: stdout carries the result, stderr an
    ``error:`` line for exit codes 2, 3 and 4, and argparse usage errors
    raise SystemExit(2) as in a fresh process.  The parser is built once
    per process, so repeated calls in one process give the same stdout,
    stderr and exit code as ``python -m oscbath.cli`` with the same argv."""
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except thermo.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except (QuadratureConvergenceError, IntegrandEvaluationError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (_ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
