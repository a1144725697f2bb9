"""oscbath benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload sweep_exact --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workload's operations are generated from the seed (see workloads.py) and
replayed in a closed loop for ``--seconds``; ``cli_batch`` command lines go
through ``cli.main`` in-process.  After the loop, outside the timed region,
every distinct output is checked: finite values, byte-identical repeats,
expected exit codes, the same output from ``python -m oscbath.cli`` in a
subprocess, and the F, S, U, C rows against the mpmath oracle (oracle.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice in turn, once plain and once with the public functions of
every layer wrapped by the span recorder (spans.py), over whole cycles of
the workload, and prints the per-layer metrics and the tracing overhead.
Human-readable notes go to stdout first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
SUBPROCESS_TIMEOUT = 60.0

# Machine-speed calibration.  On shared CPUs the speed of this process drifts
# by up to 1.5x over seconds to minutes, which no length of run averages out.
# A fixed pure-Python numeric kernel is timed right before every measured
# operation and set-up run, and each timing is reported in reference time:
# wall time x CALIBRATION_REF_S / the kernel's wall time.  The kernel does
# no package work, so a faster or slower program still shows in full.
CALIBRATION_REF_S = 0.004
PACKAGE_MODULES = ("oscbath", "oscbath.baths", "oscbath.cli",
                   "oscbath.quadrature", "oscbath.stieltjes", "oscbath.thermo")

# Documented error budgets (README): exact_j F, S, U, C to ~1e-9 in reduced
# units (relative above 1), J by a formula route to 1e-9 absolute (the
# asymptotic route to its printed truncation bound).  Values beyond a budget
# are reported, not failed: the accuracy metrics carry them.  A value beyond
# the gross limit is a wrong answer and makes the run incorrect.  The seed
# misses the exact_j budget on C by up to ~3e3 where the root J arguments
# cross |x| = 10 (where thermo switches J routes), hence the wide limit.
# exact_quadrature rows have no limit: at theta <= 1e-4 the seed returns
# F = S = U = C = 0, which only the metrics record.
EXACT_J_BUDGET, EXACT_J_GROSS = 1e-9, 1e-4
J_BUDGET, J_GROSS = 1e-9, 1e-6
HBAR_SI = 1.054571817e-34
K_BOLTZMANN_SI = 1.380649e-23
EXACT_METHODS = ("exact_j", "exact_quadrature")
QUANTITIES = ("F", "S", "U", "C")
WARNING_LINE = re.compile(r"Warning: ")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args, **kwargs):
    return subprocess.run([sys.executable, *args], env=child_env(),
                          capture_output=True, timeout=SUBPROCESS_TIMEOUT,
                          cwd=ROOT, **kwargs)


def calibration_kernel():
    """Fixed numeric work in the style of the package (complex logarithms,
    exponentials, divisions)."""
    total = 0j
    z = 0.3 + 0.7j
    for k in range(1, 6000):
        w = z * k / (k + 1.5)
        total += cmath.log(1 + w) / (w + 2.0) + math.exp(-k * 1e-3)
    return total


def speed_scale():
    """CALIBRATION_REF_S over the kernel's wall time now: the factor that
    turns a wall time measured next to it into reference time."""
    start = time.perf_counter()
    calibration_kernel()
    return CALIBRATION_REF_S / (time.perf_counter() - start)


def wall_times(args, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = run_child(args)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"{args}: exit {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')}")
    return times


def measure_setup():
    """Median time, in reference time, of a fresh interpreter importing the
    package and its command line (one untimed run first compiles the
    bytecode)."""
    args = ["-c", "import oscbath, oscbath.cli"]
    wall_times(args, 1)
    return statistics.median(speed_scale() * wall_times(args, 1)[0]
                             for _ in range(SETUP_REPEATS))


def measure_imports():
    """Per-module import self time (us, median over runs) from
    ``-X importtime`` for the package's modules, with every other module
    the import pulls in summed as "other"; and bare interpreter start-up
    wall time."""
    def parse(stderr):
        selfs = {}
        for line in stderr.decode().splitlines():
            if line.startswith("import time:") and "|" in line:
                cells = line[len("import time:"):].split("|")
                if cells[0].strip().isdigit():
                    selfs[cells[2].strip()] = int(cells[0])
        return selfs

    bare = parse(run_child(["-X", "importtime", "-c", "pass"]).stderr)
    runs = [parse(run_child(["-X", "importtime", "-c",
                             "import oscbath, oscbath.cli"]).stderr)
            for _ in range(IMPORT_REPEATS)]
    result = {name: statistics.median(run.get(name, 0) for run in runs)
              for name in PACKAGE_MODULES}
    result["other"] = statistics.median(
        sum(us for name, us in run.items()
            if name not in bare and name not in result) for run in runs)
    startup = statistics.median(wall_times(["-c", "pass"], IMPORT_REPEATS))
    return result, startup * 1e6


# ------------------------------------------------------------ operations ----

class InProcessSweep:
    """Runs SweepOps through ``cli.run_sweep``."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, op):
        return 0, self.cli.run_sweep(op.options()), 0


class InProcessCli:
    """Runs CliOps through ``cli.main(argv)`` with captured output;
    warnings are recorded (and counted), not printed."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = self.cli.main(list(op.argv))
        return code, out.getvalue(), len(caught)


def subprocess_cli(op):
    """Runs a CliOp as ``python -m oscbath.cli``."""
    proc = run_child(["-m", "oscbath.cli", *op.argv])
    stderr = proc.stderr.decode(errors="replace")
    return (proc.returncode, proc.stdout.decode(errors="replace"),
            len(WARNING_LINE.findall(stderr)))


def expected_exit(op):
    return getattr(op, "expected_exit", 0)


class Loop:
    """Closed-loop replay of a cycle of operations with failure accounting.

    An execution fails if it raised, exited with another code than
    expected, or printed output that differs from the first execution of
    the same operation."""

    def __init__(self, ops):
        self.ops = ops
        self.first = {}           # op index -> (code, stdout, warnings)
        self.errors = {}          # op index -> first failure message
        self.runs = [0] * len(ops)
        self.fails = [0] * len(ops)
        self.rows = 0
        self.last_wall = 0.0      # wall time of the latest execution

    @property
    def attempted(self):
        return sum(self.runs)

    @property
    def failed(self):
        return sum(self.fails)

    def reject(self, index, message):
        """Count every execution of an operation whose output was found
        invalid (not finite or malformed) as failed."""
        self.errors.setdefault(index, message)
        self.fails[index] = self.runs[index]

    def execute(self, index, runner):
        """Run one operation; returns its time in reference time."""
        op = self.ops[index]
        scale = speed_scale()
        start = time.perf_counter()
        try:
            outcome = runner(op)
        except Exception as exc:            # recorded as a failed operation
            elapsed = time.perf_counter() - start
            outcome = None
            message = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            message = None
        self.runs[index] += 1
        self.last_wall = elapsed
        if outcome is not None:
            first = self.first.setdefault(index, outcome)
            if outcome[0] != expected_exit(op):
                message = f"exit {outcome[0]}, expected {expected_exit(op)}"
            elif outcome[1] != first[1]:
                message = "output differs from its first run"
        if message is None:
            self.rows += row_count(op)
        else:
            self.fails[index] += 1
            self.errors.setdefault(index, message)
        return elapsed * scale


def row_count(op):
    sweep = op if isinstance(op, workloads.SweepOp) else op.sweep
    if sweep is None:
        return 0
    return sweep.points * len(sweep.method.split(","))


# ---------------------------------------------------------------- checks ----

class Checker:
    """Checks distinct outputs and collects, per quantity, the relative
    error of every exact row against the oracle."""

    def __init__(self):
        import oracle             # mpmath is needed only after the loop
        self.oracle = oracle
        self.cache = {}
        self.relative = {q: [] for q in QUANTITIES}
        self.worst_row = dict.fromkeys(QUANTITIES)
        self.beyond_budget = []   # (error / budget, description)
        self.problems = []        # wrong answers
        self.malformed = []       # outputs not finite or not as specified
        self.stderr_warnings = 0  # warning lines of the cli subprocesses

    def reference(self, bath, theta):
        key = (bath, theta)
        if key not in self.cache:
            values = self.oracle.thermo(bath.model, bath.gamma, bath.tau,
                                        bath.omega_prime, theta)
            self.cache[key] = [float(v) for v in values]
        return self.cache[key]

    def budget(self, error, budget, gross, description):
        """Note an error beyond its documented budget; one beyond the gross
        limit is a problem."""
        if error > budget:
            self.beyond_budget.append((error / budget, description))
        if not error <= gross:
            self.problems.append(f"{description}: error {error:.3e} exceeds "
                                 f"the limit {gross:.3g}")

    def sweep(self, sweep, text, label):
        """Parse a sweep's csv or json text and check every row."""
        methods = [m for m in workloads.ALL_METHODS.split(",")
                   if m in sweep.method.split(",")]
        if sweep.format == "json":
            rows = json.loads(text)["rows"]
        else:
            lines = text.splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        thetas = grid(sweep)
        if len(rows) != len(thetas) * len(methods):
            self.malformed.append(f"{label}: {len(rows)} rows, expected "
                                 f"{len(thetas) * len(methods)}")
            return
        si = sweep.units == "si"
        energy = HBAR_SI * sweep.omega0_hz if si else 1.0
        entropy = K_BOLTZMANN_SI if si else 1.0
        scale = {"F": energy, "U": energy, "S": entropy, "C": entropy}
        for k, row in enumerate(rows):
            theta = thetas[k // len(methods)]
            method = methods[k % len(methods)]
            if row["method"] != method or row["model"] != sweep.bath.model:
                self.malformed.append(f"{label} row {k}: labelled "
                                     f"{row['method']}, {row['model']}")
                continue
            values = {q: float(row[q]) / scale[q] for q in QUANTITIES}
            if not all(math.isfinite(v) for v in values.values()) or \
                    abs(float(row["theta"]) - theta) > 1e-11 * theta:
                self.malformed.append(f"{label} row {k}: not finite or not on "
                                     f"the grid: {row}")
                continue
            if method not in EXACT_METHODS:
                continue
            reference = self.reference(sweep.bath, theta)
            for q, ref in zip(QUANTITIES, reference):
                error = abs(values[q] - ref)
                relative = error / abs(ref) if ref else math.inf
                self.relative[q].append(relative)
                if relative >= max(self.relative[q]):
                    self.worst_row[q] = (sweep.bath, theta, method)
                if method == "exact_j":
                    size = max(1.0, abs(ref))
                    self.budget(error, EXACT_J_BUDGET * size,
                                EXACT_J_GROSS * size,
                                f"{label} exact_j {q} at theta={theta!r}")

    def cli(self, op, text, label):
        if op.sweep is not None:
            self.sweep(op.sweep, text, label)
        elif op.jfun is not None:
            z, route = op.jfun
            match = re.search(r"= (\S+) (\S+)j\nmethod: (\S+)", text)
            if not match or match.group(3) != route:
                self.malformed.append(f"{label}: unexpected output {text!r}")
                return
            value = complex(float(match.group(1)), float(match.group(2)))
            bound = re.search(r"truncation bound: (\S+)", text)
            # plus the rounding of the 15 printed significant digits
            budget = (float(bound.group(1)) if bound else J_BUDGET) \
                + 1e-14 * abs(value)
            self.budget(abs(value - self.oracle.j_value(z)), budget,
                        max(budget, J_GROSS), f"{label} jfun {route} at {z!r}")
        elif op.srt_zero_point is not None:
            bath = op.srt_zero_point
            value = float(text.split("=")[1])
            ref = float(self.oracle.srt_zero_point(bath.gamma, bath.tau))
            size = max(1.0, abs(ref))
            self.budget(abs(value - ref), EXACT_J_BUDGET * size,
                        EXACT_J_GROSS * size, f"{label} srt zero point")
        elif op.expected_exit == 0:
            numbers = re.findall(r"= (\S+)", text)
            if not numbers or not math.isfinite(float(numbers[0])):
                self.malformed.append(f"{label}: unexpected output {text!r}")

    def digits_lost(self):
        """Per quantity, the decimal digits a row loses against the oracle,
        17 + log10(relative error) clamped to [0, 17]: the worst row's, and
        the mean over rows."""
        worst, mean = {}, {}
        for q, errors in self.relative.items():
            lost = [min(17.0, max(0.0, 17.0 + math.log10(max(e, 1e-300))))
                    for e in errors]
            worst[q], mean[q] = max(lost), statistics.fmean(lost)
        return worst, mean


def grid(sweep):
    """The log-spaced temperature grid the CLI documents."""
    lo, hi, count = sweep.theta_min, sweep.theta_max, sweep.points
    if count == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio ** i for i in range(count)]


def check_outputs(name, loop):
    """Check every distinct output; an operation whose output is malformed
    fails in every execution.  Each ``cli_batch`` argv also runs once as
    ``python -m oscbath.cli``, whose exit code and stdout must equal the
    in-process ones.  Returns the Checker."""
    checker = Checker()
    agreement, deviation40 = checker.oracle.self_check()
    print(f"oracle self-check at the edge point: {checker.oracle.ORACLE_DPS} "
          f"vs {checker.oracle.ORACLE_DPS * 3 // 2} digits differ by "
          f"{agreement:.1e}; 40 digits by {deviation40:.1e}")
    if not agreement < 1e-30:
        checker.problems.append(f"oracle self-check failed ({agreement:.3e})")
    for index, (code, text, _) in sorted(loop.first.items()):
        op = loop.ops[index]
        label = f"{name}[{index}]"
        malformed = len(checker.malformed)
        if name == "cli_batch":
            sub_code, sub_text, sub_warnings = subprocess_cli(op)
            checker.stderr_warnings += sub_warnings
            if (sub_code, sub_text) != (code, text):
                checker.malformed.append(
                    f"{label}: subprocess (exit {sub_code}) and in-process "
                    f"cli.main (exit {code}) outputs differ")
        try:
            if name == "cli_batch":
                checker.cli(op, text, label)
            else:
                checker.sweep(op, text, label)
        except (ValueError, KeyError, IndexError) as exc:
            checker.malformed.append(f"{label}: cannot parse output ({exc!r})")
        if len(checker.malformed) > malformed:
            loop.reject(index, checker.malformed[-1])
    return checker


# ------------------------------------------------------------------ runs ----

def percentile_summary(times):
    cuts = statistics.quantiles(times, n=10)
    p90 = cuts[8]
    return (statistics.median(times) * 1e3, p90 * 1e3,
            sum(1 for t in times if t > p90))


def end_to_end(name, ops, seconds, cli):
    setup_s = measure_setup()
    runner = InProcessCli(cli) if name == "cli_batch" else InProcessSweep(cli)
    loop = Loop(ops)
    times = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        times.append(loop.execute(len(times) % len(ops), runner))
    wall = time.perf_counter() - start
    elapsed = math.fsum(times)          # reference time spent in operations
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = check_outputs(name, loop)
    p50, p90, above = percentile_summary(times)
    warned = sum(w for _, _, w in loop.first.values())
    if name == "cli_batch":
        print(f"{name}: warnings per cycle: {warned} in-process, "
              f"{checker.stderr_warnings} lines on subprocess stderr")
    print(f"{name}: {loop.attempted} operations in {wall:.2f} s of wall time "
          f"({elapsed:.2f} s of reference time in operations), op_ms p50 "
          f"{p50:.3f} and p90 {p90:.3f} over {len(times)} samples "
          f"({above} above p90)")
    if above < 10:
        print(f"NOTE only {above} samples above p90; p90 is not resolved")
    print(f"{name}: {len(checker.relative['F'])} distinct exact rows checked "
          f"against the oracle")
    for q in QUANTITIES:
        print(f"  {q}: worst relative error {max(checker.relative[q]):.3e} at "
              f"{checker.worst_row[q]}")
    worst, mean = checker.digits_lost()
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.attempted / elapsed, "1/s"),
        "op_ms.p50": (p50, "ms"),
        "op_ms.p90": (p90, "ms"),
        "rows_per_s": (loop.rows / elapsed, "1/s"),
        **{f"digits_lost.{q}": (worst[q], "digits") for q in QUANTITIES},
        **{f"digits_lost_mean.{q}": (mean[q], "digits") for q in QUANTITIES},
        "ok_frac": (1.0 - loop.failed / loop.attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return loop, checker, metrics


def traced(name, ops, seconds, cli, seed):
    """Paired plain and traced executions over whole cycles of the
    workload (at least one); per-layer numbers are per traced operation."""
    import oracle
    from spans import J_ROUTES, LAYERS, SpanRecorder

    imports, startup_us = measure_imports()
    runner = InProcessCli(cli) if name == "cli_batch" else InProcessSweep(cli)
    recorder = SpanRecorder(seed)
    loop = Loop(ops)
    plain = traced_time = traced_wall = 0.0
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles == 0 or time.perf_counter() < deadline:
        for index in range(len(ops)):
            plain += loop.execute(index, runner)
            recorder.install()
            try:
                traced_time += loop.execute(index, runner)
                traced_wall += loop.last_wall
            finally:
                recorder.uninstall()
        cycles += 1
    traced_ops = cycles * len(ops)
    checker = check_outputs(name, loop)

    by_name, layer_self = recorder.totals()
    per_op = 1.0 / traced_ops
    metrics = {}

    def put(key, value, unit):
        metrics[key] = (value, unit)

    def calls(name_):
        return by_name[name_][0] * per_op

    for fn in ("thermo_point", "free_energy_exact", "free_energy_quadrature",
               "series_point"):
        put(f"thermo.{fn}.calls", calls(f"thermo.{fn}"), "calls/op")
        put(f"thermo.{fn}.self_s", by_name[f"thermo.{fn}"][1] * per_op, "s/op")
    points = by_name["thermo.thermo_point"][0]
    f_evals = (by_name["thermo.free_energy_exact"][0]
               + by_name["thermo.free_energy_quadrature"][0])
    put("thermo.F_evals_per_point", f_evals / points if points else 0.0, "1/point")
    warned = sum(warnings_ for _, _, warnings_ in loop.first.values())
    put("thermo.warnings", warned / len(ops), "1/op")

    for route in J_ROUTES:
        count, self_s, durations, _ = by_name[f"stieltjes.{route}"]
        put(f"stieltjes.{route}.calls", count * per_op, "calls/op")
        put(f"stieltjes.{route}.self_s", self_s * per_op, "s/op")
        put(f"stieltjes.{route}.us_p50",
            statistics.median(durations) * 1e6 if durations else 0.0, "us")
        worst = 0.0
        for fn, args, kwargs in recorder.arg_samples[route][1]:
            value = fn(*args, **kwargs)
            if isinstance(value, tuple):
                value = value[0]
            worst = max(worst, abs(complex(value) - oracle.j_value(complex(args[0]))))
        put(f"stieltjes.{route}.max_abs_err", worst, "1")

    q_calls, q_self, _, q_errors = by_name["quadrature.integrate_semi_infinite"]
    prefix = "quadrature.integrate_semi_infinite"
    put(f"{prefix}.calls", q_calls * per_op, "calls/op")
    put(f"{prefix}.self_s", q_self * per_op, "s/op")
    put(f"{prefix}.evals", recorder.evaluations * per_op, "1/op")
    put(f"{prefix}.subdivisions", recorder.subdivisions * per_op, "1/op")
    put(f"{prefix}.errors", q_errors * per_op, "1/op")
    put("quadrature.evals_per_call",
        recorder.evaluations / q_calls if q_calls else 0.0, "1/call")

    for fn in ("canonicalize", "roots", "free_energy_integrand"):
        put(f"baths.{fn}.calls", calls(f"baths.{fn}"), "calls/op")
    put("baths.free_energy_integrand.self_s",
        by_name["baths.free_energy_integrand"][1] * per_op, "s/op")

    put("cli.main.calls", calls("cli.main"), "calls/op")
    put("cli.main.self_s", by_name["cli.main"][1] * per_op, "s/op")
    put("cli.run_sweep.self_s", by_name["cli.run_sweep"][1] * per_op, "s/op")
    for module, us in imports.items():
        put(f"import.{module}.self_us", us, "us")
    put("startup.interpreter_us", startup_us, "us")

    covered = recorder.top_level_time
    for layer in LAYERS:
        put(f"self_share.{layer}", layer_self[layer] / traced_wall, "frac")
    put("self_share.untraced", (traced_wall - covered) / traced_wall, "frac")
    put("trace.overhead_frac", traced_time / plain - 1.0, "frac")
    put("trace.spans", recorder.spans * per_op, "1/op")

    print(f"{name}: {cycles} traced cycles of {len(ops)} operations; "
          f"plain {plain:.2f} s, traced {traced_time:.2f} s, "
          f"{recorder.spans} spans")
    shares = ", ".join(f"{layer} {layer_self[layer] / traced_wall:.1%}"
                       for layer in LAYERS)
    print(f"{name}: self time share by layer: {shares}")
    return loop, checker, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oscbath" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'oscbath'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from oscbath import cli

    ops = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        loop, checker, metrics = traced(args.workload, ops, args.seconds,
                                        cli, args.seed)
    else:
        loop, checker, metrics = end_to_end(args.workload, ops, args.seconds,
                                            cli)
    for index, message in sorted(loop.errors.items()):
        print(f"FAILED {args.workload}[{index}] {ops[index]}: {message}")
    if checker.beyond_budget:
        ratio, where = max(checker.beyond_budget)
        print(f"NOTE {len(checker.beyond_budget)} values beyond their documented "
              f"error budget; the worst, {ratio:.3g} x budget: {where}")
    for problem in checker.problems:
        print(f"CHECK {problem}")
    result = {
        "correct": loop.failed == 0 and not checker.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
