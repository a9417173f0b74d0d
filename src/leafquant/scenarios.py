"""Scenario configs: JSON schema, eager parsing, and preset access.

A scenario file fixes everything a run needs: the parameter/fiber
dimensions, the connection components, the parameter path, the
polynomial Hamiltonian, grid, integrator settings, the initial packet,
and the tolerance block used by reports.  Validation is eager; every
expression is parsed at load time against the variable scope of its
slot, so a bad config never reaches the propagators.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

import jsonschema
import numpy as np

from .bundle import BundleModel, ParameterPath, reparametrize_path
from .expressions import EvaluationError, Expression, ParseError, parse_expr
from .observables import BumpCover, PolynomialObservable
from .operators import FiberGrid
from .evolution import DrivenHamiltonian

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "SCENARIO_SCHEMA",
    "DEFAULT_TOLERANCES",
    "load_scenario",
    "parse_scenario",
    "preset_names",
    "preset_text",
    "load_preset",
]


class ScenarioError(ValueError):
    """Config rejected; ``pointer`` locates the offending field."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


DEFAULT_TOLERANCES: dict[str, float] = {
    "unitarity": 1e-10,
    "hermiticity": 1e-12,
    "dirac_symbol": 1e-12,
    "decomposition": 1e-12,
    "flat_holonomy": 1e-7,
    "nontriviality": 1e-2,
    "convergence_ratio": 3.5,
    "richardson": 1e-6,
    "reparametrization": 5e-6,
    "ehrenfest": 1e-3,
    "split_commuting": 1e-8,
    "split_defect_floor": 1e-3,
}

_OUTPUT_KINDS = ["expectations", "phases", "unitary", "diagnostics",
                 "ehrenfest", "convergence", "reparametrization"]

SCENARIO_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["dims", "connection", "path", "hamiltonian", "grid",
                 "integrator", "initial"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "dims": {
            "type": "object",
            "required": ["m", "n"],
            "additionalProperties": False,
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 1, "maximum": 2},
            },
        },
        "connection": {
            "type": "object",
            "required": ["lambda"],
            "additionalProperties": False,
            "properties": {
                "lambda": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "string"}},
                },
                "drift": {"type": "array", "items": {"type": "string"}},
            },
        },
        "path": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["closed_form", "samples"]},
                "components": {"type": "array",
                               "items": {"type": "string"}},
                "span": {"type": "array", "minItems": 2, "maxItems": 2,
                         "items": {"type": "number"}},
                "times": {"type": "array", "items": {"type": "number"}},
                "values": {"type": "array",
                           "items": {"type": "array",
                                     "items": {"type": "number"}}},
                "closed": {"type": "boolean"},
            },
        },
        "hamiltonian": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "coeff"],
                "additionalProperties": False,
                "properties": {
                    "index": {"type": "array",
                              "items": {"type": "integer", "minimum": 1}},
                    "coeff": {"type": "string"},
                },
            },
        },
        "grid": {
            "type": "object",
            "required": ["N", "L"],
            "additionalProperties": False,
            "properties": {
                "N": {"anyOf": [{"type": "integer", "minimum": 8},
                                {"type": "array",
                                 "items": {"type": "integer", "minimum": 8}}]},
                "L": {"anyOf": [{"type": "number"},
                                {"type": "array",
                                 "items": {"type": "number"}}]},
            },
        },
        "integrator": {
            "type": "object",
            "required": ["steps"],
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "ordering": {"enum": ["symmetric"]},
                "unitary_steps": {"type": "integer", "minimum": 1},
                "segments": {"type": "integer", "minimum": 1},
                "segment_counts": {"type": "array",
                                   "items": {"type": "integer",
                                             "minimum": 1}},
                "record_every": {"type": "integer", "minimum": 1},
            },
        },
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "center": {"anyOf": [{"type": "number"},
                                     {"type": "array",
                                      "items": {"type": "number"}}]},
                "width": {"anyOf": [{"type": "number"},
                                    {"type": "array",
                                     "items": {"type": "number"}}]},
                "kick": {"anyOf": [{"type": "number"},
                                   {"type": "array",
                                    "items": {"type": "number"}}]},
            },
        },
        "cover": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "array", "minItems": 2, "maxItems": 2,
                          "items": {"type": "number"}},
            },
        },
        "reparam": {
            "type": "object",
            "required": ["warp"],
            "additionalProperties": False,
            "properties": {"warp": {"type": "string"}},
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "outputs": {
            "type": "array",
            "items": {"enum": _OUTPUT_KINDS},
        },
    },
}


@dataclass
class ScenarioConfig:
    name: str
    bundle: BundleModel
    path: ParameterPath
    hamiltonian: PolynomialObservable
    grid: FiberGrid
    steps: int
    unitary_steps: int
    segments: int
    segment_counts: tuple[int, ...]
    record_every: int
    initial_center: np.ndarray
    initial_width: np.ndarray
    initial_kick: np.ndarray
    cover: BumpCover | None
    warp: Expression | None
    tolerances: dict[str, float]
    outputs: tuple[str, ...]

    def driven(self) -> DrivenHamiltonian:
        return DrivenHamiltonian(self.bundle, self.path, self.hamiltonian,
                                 self.grid, cover=self.cover)


def _pointer(parts) -> str:
    return "/" + "/".join(str(p) for p in parts) if parts else ""


def _finite_check(value: Any, parts: tuple = ()):
    """Raise ScenarioError at the first NaN or infinity, which json reads."""
    if isinstance(value, float) and not math.isfinite(value):
        pointer = _pointer(parts)
        raise ScenarioError(
            f"non-finite number {value} at {pointer or '/'}", pointer)
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        _finite_check(item, (*parts, key))


def _schema_check(doc: Any):
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(doc),
                    key=lambda e: (list(e.absolute_path), e.message))
    if not errors:
        return
    err = errors[0]
    pointer = _pointer(err.absolute_path)
    if err.validator == "required":
        missing = err.message.split("'")[1]
        pointer = f"{pointer}/{missing}"
        raise ScenarioError(f"missing required field at {pointer}", pointer)
    raise ScenarioError(f"schema violation at {pointer or '/'}: "
                        f"{err.message}", pointer)


def _parse_field(src: str, names, pointer: str) -> Expression:
    try:
        return parse_expr(src, allowed_vars=names)
    except ParseError as exc:
        raise ScenarioError(
            f"bad expression at {pointer} (offset {exc.offset}): {exc}",
            pointer) from None


def _vector(value, n, pointer, default) -> np.ndarray:
    if value is None:
        value = default
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1 and n > 1:
        arr = np.repeat(arr, n)
    if arr.shape != (n,):
        raise ScenarioError(
            f"{pointer} needs 1 or {n} numbers, got {arr.size}", pointer)
    return arr


def parse_scenario(doc: dict, name: str = "scenario") -> ScenarioConfig:
    """Validate a config document and build all domain objects."""
    _finite_check(doc)
    _schema_check(doc)
    m = doc["dims"]["m"]
    n = doc["dims"]["n"]
    scope = ["t"] + [f"s{i+1}" for i in range(m)] \
        + [f"q{k+1}" for k in range(n)]

    lam_rows = doc["connection"]["lambda"]
    if len(lam_rows) != n or any(len(r) != m for r in lam_rows):
        raise ScenarioError(
            f"/connection/lambda must be {n} rows of {m} expressions",
            "/connection/lambda")
    coupling = tuple(
        tuple(_parse_field(src, scope, f"/connection/lambda/{k}/{lam}")
              for lam, src in enumerate(row))
        for k, row in enumerate(lam_rows))
    drift_rows = doc["connection"].get("drift")
    drift = None
    if drift_rows is not None:
        if len(drift_rows) != n:
            raise ScenarioError(f"/connection/drift must have {n} entries",
                                "/connection/drift")
        drift = tuple(_parse_field(src, scope, f"/connection/drift/{k}")
                      for k, src in enumerate(drift_rows))
    try:
        bundle = BundleModel(m, n, coupling, drift) if drift is not None \
            else BundleModel(m, n, coupling)
    except ValueError as exc:
        raise ScenarioError(f"/connection: {exc}", "/connection") from None

    pdoc = doc["path"]
    try:
        if pdoc["kind"] == "closed_form":
            comps = pdoc.get("components")
            if comps is None:
                raise ScenarioError(
                    "missing required field at /path/components",
                    "/path/components")
            if len(comps) != m:
                raise ScenarioError(
                    f"/path/components must have {m} entries",
                    "/path/components")
            span = pdoc.get("span")
            if span is None:
                raise ScenarioError("missing required field at /path/span",
                                    "/path/span")
            trees = [_parse_field(src, ["t"], f"/path/components/{i}")
                     for i, src in enumerate(comps)]
            path = ParameterPath.from_expressions(
                trees, span=tuple(span), closed=pdoc.get("closed", False))
        else:
            times = pdoc.get("times")
            values = pdoc.get("values")
            if times is None or values is None:
                raise ScenarioError(
                    "sampled path needs /path/times and /path/values",
                    "/path/times")
            path = ParameterPath.from_samples(
                np.asarray(times, float), np.asarray(values, float),
                closed=pdoc.get("closed", False))
    except ScenarioError:
        raise
    except (ValueError, EvaluationError) as exc:
        raise ScenarioError(f"/path: {exc}", "/path") from None
    if path.n_parameters != m:
        raise ScenarioError(
            f"/path supplies {path.n_parameters} components, dims say {m}",
            "/path")

    terms: dict[tuple[int, ...], Expression] = {}
    for i, term in enumerate(doc["hamiltonian"]):
        idx = tuple(sorted(term["index"]))
        if any(k > n for k in idx):
            raise ScenarioError(
                f"/hamiltonian/{i}/index references momentum "
                f"p_{max(idx)} but n = {n}", f"/hamiltonian/{i}/index")
        tree = _parse_field(term["coeff"], scope, f"/hamiltonian/{i}/coeff")
        terms[idx] = terms[idx] + tree if idx in terms else tree
    hamiltonian = PolynomialObservable(n, terms)

    gdoc = doc["grid"]
    try:
        grid = FiberGrid(gdoc["N"], gdoc["L"])
    except ValueError as exc:
        raise ScenarioError(f"/grid: {exc}", "/grid") from None
    if grid.dim != n:
        raise ScenarioError(
            f"/grid/N supplies {grid.dim} axes, dims say n = {n}", "/grid/N")

    idoc = doc["integrator"]
    steps = idoc["steps"]
    unitary_steps = idoc.get("unitary_steps", min(steps, 512))
    segments = idoc.get("segments", min(steps, 2048))
    segment_counts = tuple(idoc.get("segment_counts", ()))
    record_every = idoc.get("record_every", 1)

    init = doc["initial"]
    center = _vector(init.get("center"), n, "/initial/center", 0.0)
    width = _vector(init.get("width"), n, "/initial/width", 1.0)
    kick = _vector(init.get("kick"), n, "/initial/kick", 0.0)
    if np.any(width <= 0):
        raise ScenarioError("/initial/width must be positive",
                            "/initial/width")

    cover = None
    if "cover" in doc:
        charts = []
        for ci, chart in enumerate(doc["cover"]):
            if len(chart) != n:
                raise ScenarioError(
                    f"/cover/{ci} needs one window per fiber axis ({n})",
                    f"/cover/{ci}")
            charts.append(tuple((float(w[0]), float(w[1])) for w in chart))
        try:
            cover = BumpCover(n, tuple(charts))
        except ValueError as exc:
            raise ScenarioError(f"/cover: {exc}", "/cover") from None

    warp = None
    if "reparam" in doc:
        warp = _parse_field(doc["reparam"]["warp"], ["t"], "/reparam/warp")
        try:
            reparametrize_path(path, warp)
        except (ValueError, EvaluationError) as exc:
            raise ScenarioError(f"/reparam/warp: {exc}",
                                "/reparam/warp") from None

    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update(doc.get("tolerances", {}))
    outputs = tuple(doc.get("outputs", ["expectations", "phases"]))

    return ScenarioConfig(
        name=doc.get("name", name),
        bundle=bundle, path=path, hamiltonian=hamiltonian, grid=grid,
        steps=steps, unitary_steps=unitary_steps,
        segments=segments, segment_counts=segment_counts,
        record_every=record_every,
        initial_center=center, initial_width=width, initial_kick=kick,
        cover=cover, warp=warp, tolerances=tolerances, outputs=outputs,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"no such scenario file: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from None
    return parse_scenario(doc, name=path.stem)


def preset_names() -> list[str]:
    root = resources.files("leafquant") / "presets"
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".json"))


def preset_text(name: str) -> str:
    root = resources.files("leafquant") / "presets"
    entry = root / f"{name}.json"
    if not entry.is_file():
        raise ScenarioError(
            f"unknown preset '{name}'; available: "
            f"{', '.join(preset_names())}")
    return entry.read_text()


def load_preset(name: str) -> ScenarioConfig:
    return parse_scenario(json.loads(preset_text(name)), name=name)
