"""Spans around the calls into each ``leafquant`` layer.

The tracer patches from outside: every public function of a layer
module is wrapped in every ``leafquant`` namespace that bound it (a
module that did ``from .operators import quantize_affine`` holds its
own reference, so patching ``operators`` alone would miss those calls),
together with ``Expression.evaluate`` on the base class, the four
``ParameterPath`` samplers, ``ScenarioConfig.driven``,
``numpy.linalg.eigh`` and ``Path.write_text`` (the runner's artifact
writes).  ``install`` and ``uninstall`` bracket one traced operation;
spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import inspect
import json
import pathlib
import sys
import time
import types

import numpy as np

LAYERS = ("expressions", "observables", "bundle", "operators", "evolution",
          "scenarios", "runner")

# work counted from an argument: span name -> (argument, counter)
WORK_ARGUMENTS = {
    "evolution.propagate_state": ("steps", "evolution.state_steps"),
    "evolution.evolve_time_ordered": ("steps", "evolution.dense_steps"),
    "evolution.geometric_factor": ("segments",
                                   "evolution.geometric_segments"),
}

EIGH = "numpy.linalg.eigh"
WRITE = "runner.write_text"


class Tracer:
    """Span recorder; one span is (name, start, end, parent, work)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._active: list[int] = []   # open spans per name id
        self.outer: list[bool] = []    # span not nested in its own name
        self._patches: list = []
        self._wrapped: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, active, outer = (self.spans, self._stack,
                                       self._active, self.outer)
        clock = time.perf_counter
        work = None
        if name in WORK_ARGUMENTS:
            signature = inspect.signature(fn)
            argument = WORK_ARGUMENTS[name][0]

            def work(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return int(bound.arguments[argument])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            outer.append(active[nid] == 0)
            parent = stack[-1] if stack else -1
            amount = work(args, kwargs) if work is not None else 0
            stack.append(idx)
            active[nid] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[nid] -= 1
                stack.pop()
                spans[idx] = (nid, start, end, parent, amount)

        return traced

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _plan(self):
        """(owner, attribute, span name) for everything to wrap."""
        from leafquant.bundle import ParameterPath
        from leafquant.expressions import Expression
        from leafquant.scenarios import ScenarioConfig

        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "leafquant" or name.startswith("leafquant.")]
        plan = []
        for layer in LAYERS:
            module = sys.modules[f"leafquant.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != module.__name__):
                    continue
                for ns in namespaces:
                    for bound_as, value in sorted(vars(ns).items()):
                        if value is obj:
                            plan.append((ns, bound_as, f"{layer}.{attr}"))
        plan.append((Expression, "evaluate", "expressions.Expression.evaluate"))
        for attr in ("value", "velocity", "values", "velocities"):
            plan.append((ParameterPath, attr, f"bundle.ParameterPath.{attr}"))
        plan.append((ScenarioConfig, "driven", "scenarios.ScenarioConfig.driven"))
        plan.append((np.linalg, "eigh", EIGH))
        plan.append((pathlib.Path, "write_text", WRITE))
        return plan

    def install(self):
        if not self._wrapped:
            wrappers: dict[int, object] = {}
            for owner, attr, name in self._plan():
                fn = getattr(owner, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._wrapped.append((owner, attr, wrappers[id(fn)]))
        for owner, attr, wrapper in self._wrapped:
            self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: pathlib.Path):
        """Dump every span: name, start and end (s), parent index, work."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, fh)


def summarize(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of the spans with indices in [first, last)."""
    names = tracer.names
    spans = tracer.spans[first:last]
    outer = tracer.outer[first:last]
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    work: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for (nid, start, end, parent, amount), is_outer in zip(spans, outer):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        if is_outer:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        if name in WORK_ARGUMENTS:
            counter = WORK_ARGUMENTS[name][1]
            work[counter] = work.get(counter, 0) + amount
        if parent >= first:
            child_time[parent - first] += end - start
    self_time = {layer: 0.0 for layer in LAYERS}
    for (nid, start, end, _, _), below in zip(spans, child_time):
        layer = names[nid].split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += (end - start) - below

    def count(*keys):
        return sum(calls.get(k, 0) for k in keys)

    def secs(*keys):
        return sum(inclusive.get(k, 0.0) for k in keys)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    path = [f"bundle.ParameterPath.{a}"
            for a in ("value", "velocity", "values", "velocities")]
    state_steps = work.get("evolution.state_steps", 0)
    segments = work.get("evolution.geometric_segments", 0)
    out = {
        "scenarios.parse_s": secs("scenarios.parse_scenario"),
        "expressions.evaluate_calls": count("expressions.Expression.evaluate"),
        "expressions.evaluate_s": secs("expressions.Expression.evaluate"),
        "bundle.path_calls": count(*path),
        "bundle.path_s": secs(*path),
        "observables.decompose_calls":
            count("observables.decompose_polynomial"),
        "observables.decompose_s": secs("observables.decompose_polynomial"),
        "operators.quantize_affine_calls": count("operators.quantize_affine"),
        "operators.quantize_affine_s": secs("operators.quantize_affine"),
        "operators.quantize_polynomial_calls":
            count("operators.quantize_polynomial"),
        "operators.quantize_polynomial_s":
            secs("operators.quantize_polynomial"),
        "operators.expectations_s": secs("operators.position_expectations",
                                         "operators.momentum_expectations"),
        "evolution.propagate_state_s": secs("evolution.propagate_state"),
        "evolution.state_steps": state_steps,
        "evolution.state_steps_per_s":
            rate(state_steps, secs("evolution.propagate_state")),
        "evolution.classical_flow_s": secs("evolution.classical_hamilton_flow"),
        "evolution.geometric_factor_s": secs("evolution.geometric_factor"),
        "evolution.geometric_segments": segments,
        "evolution.segments_per_s":
            rate(segments, secs("evolution.geometric_factor")),
        "evolution.evolve_time_ordered_s":
            secs("evolution.evolve_time_ordered"),
        "evolution.split_evolution_s": secs("evolution.split_evolution"),
        "evolution.dense_steps": work.get("evolution.dense_steps", 0),
        "evolution.eigh_calls": count(EIGH),
        "evolution.eigh_s": secs(EIGH),
        "runner.artifact_write_s": secs("runner.trajectory_csv",
                                        "runner.write_matrix_dump", WRITE),
        "runner.run_s": secs("runner.run"),
    }
    for layer, seconds in self_time.items():
        out[f"{layer}.self_s"] = seconds
    return out
