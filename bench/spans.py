"""In-memory span recorder for the traced benchmark run.

Public functions of the package are wrapped at every module binding that
holds them (``thermo`` imports ``j_lanczos`` by name, so ``thermo.j_lanczos``
is replaced as well as ``stieltjes.j_lanczos``).  Each call records one span:
name, start, end, parent span and operation id, in flat arrays.  After each
operation the spans are folded into per-function totals and dropped, which
bounds memory by the largest operation: self time is a span's duration minus
the durations of its children.
"""

from __future__ import annotations

import random
import sys
import time
from array import array

# (layer, module, function) for every traced public function.
TRACED = (
    ("cli", "oscbath.cli", "main"),
    ("cli", "oscbath.cli", "run_sweep"),
    ("thermo", "oscbath.thermo", "thermo_point"),
    ("thermo", "oscbath.thermo", "free_energy_exact"),
    ("thermo", "oscbath.thermo", "free_energy_quadrature"),
    ("thermo", "oscbath.thermo", "series_point"),
    ("baths", "oscbath.baths", "canonicalize"),
    ("baths", "oscbath.baths", "roots"),
    ("baths", "oscbath.baths", "free_energy_integrand"),
    ("stieltjes", "oscbath.stieltjes", "j_lanczos"),
    ("stieltjes", "oscbath.stieltjes", "j_series_small"),
    ("stieltjes", "oscbath.stieltjes", "j_asymptotic"),
    ("stieltjes", "oscbath.stieltjes", "j_quadrature"),
    ("stieltjes", "oscbath.stieltjes", "j_loggamma"),
    ("stieltjes", "oscbath.stieltjes", "j_continue_left"),
    ("stieltjes", "oscbath.stieltjes", "j_auto_named"),
    ("quadrature", "oscbath.quadrature", "integrate_semi_infinite"),
)
J_ROUTES = tuple(name for layer, _, name in TRACED if layer == "stieltjes")
LAYERS = ("cli", "thermo", "baths", "stieltjes", "quadrature")

# J arguments kept per route for the accuracy sample.
ARG_SAMPLE = 12


class SpanRecorder:
    """Wraps the traced functions while active and records their spans."""

    def __init__(self, seed: int):
        self.names = [f"{module.rsplit('.', 1)[1]}.{name}"
                      for _, module, name in TRACED]
        self.layer_of = [layer for layer, _, _ in TRACED]
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = 0
        self._stack = [-1]
        # totals folded from the spans of finished operations
        self.calls = [0] * len(TRACED)
        self.self_time = [0.0] * len(TRACED)
        self.errors = [0] * len(TRACED)
        self.durations = {nid: array("d") for nid, (layer, _, _)
                          in enumerate(TRACED) if layer == "stieltjes"}
        self.spans = 0
        self.top_level_time = 0.0
        self.evaluations = 0
        self.subdivisions = 0
        self._rng = random.Random(seed)
        # route name -> [calls seen, sampled (original fn, args, kwargs)]
        self.arg_samples = {name: [0, []] for name in J_ROUTES}
        self._patches = []   # (module, attribute, original)

    # -------------------------------------------------------- wrapping ----

    def install(self):
        """Replace every binding of each traced function in the loaded
        oscbath modules by a recording wrapper, and start a new operation."""
        self.op_id += 1
        modules = [m for key, m in sys.modules.items()
                   if key == "oscbath" or key.startswith("oscbath.")]
        for nid, (_, module_name, name) in enumerate(TRACED):
            original = getattr(sys.modules[module_name], name)
            wrapper = self._wrap(nid, name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self):
        """Restore the original bindings and fold the operation's spans."""
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()
        self._fold()

    def _wrap(self, nid, name, fn):
        clock = time.perf_counter
        stack = self._stack
        name_ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends = self.start, self.end
        sample = self.arg_samples.get(name)
        is_quadrature = name == "integrate_semi_infinite"

        def traced(*args, **kwargs):
            if sample is not None:
                self._sample_args(sample, fn, args, kwargs)
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if is_quadrature:
                self.evaluations += result.evaluations
                self.subdivisions += result.subdivisions
            return result

        traced.__wrapped__ = fn
        return traced

    def _sample_args(self, sample, fn, args, kwargs):
        """Reservoir sample of the arguments one route was called with."""
        sample[0] += 1
        kept = sample[1]
        if len(kept) < ARG_SAMPLE:
            kept.append((fn, args, kwargs))
        else:
            slot = self._rng.randrange(sample[0])
            if slot < ARG_SAMPLE:
                kept[slot] = (fn, args, kwargs)

    # -------------------------------------------------------- reduction ----

    def _fold(self):
        """Add the recorded spans to the totals and drop them.  Children
        end before their parents but start after them, so a reverse pass
        sees every child before its parent."""
        child_time = [0.0] * len(self.start)
        for index in range(len(self.start) - 1, -1, -1):
            duration = self.end[index] - self.start[index]
            nid = self.name_id[index]
            self.calls[nid] += 1
            self.self_time[nid] += duration - child_time[index]
            if nid in self.durations:
                self.durations[nid].append(duration)
            parent = self.parent[index]
            if parent >= 0:
                child_time[parent] += duration
            else:
                self.top_level_time += duration
        self.spans += len(self.start)
        for column in (self.name_id, self.parent, self.op, self.start, self.end):
            del column[:]

    def totals(self):
        """Per traced function name: (calls, self time, call durations or
        None, errors); and per layer: total self time."""
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, seconds in enumerate(self.self_time):
            layer_self[self.layer_of[nid]] += seconds
        by_name = {self.names[nid]: (self.calls[nid], self.self_time[nid],
                                     self.durations.get(nid), self.errors[nid])
                   for nid in range(len(TRACED))}
        return by_name, layer_self
