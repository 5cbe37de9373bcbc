"""JSON run-configuration schema and parameter construction.

A config names an experiment kind, a seed, replicate and worker counts, and
a parameter bundle.  Measures are written either as atom lists
``{"atoms": [[y, weight], ...]}`` or as named densities
``{"density": "uniform" | "beta", "a": ..., "b": ..., "mass": m,
"nodes": n}``; kernels as ``{"variant": "geometric" | "binary" | "table",
"pmf": {...}, "inf_mass": ...}``.

``SCHEMA`` is the one declaration of the format.  ``violations`` checks a
config against it in-package, with the meaning JSON Schema (Draft 2020-12)
gives the few keywords ``SCHEMA`` uses, so the runtime needs no schema
library; the tests hold it to ``jsonschema`` as the oracle.
"""

from __future__ import annotations

import json
import operator
import re

import numpy as np

from .errors import ConfigError, InvariantViolation
from .measures import FiniteMeasure, SelectionKernel
from .params import N_MAX, FiniteModelParams, LimitParams

#: Keys each experiment reads without a default.
REQUIRED_KEYS = {
    "simulate-x": ["limit", "x0", "T"],
    "simulate-z": ["limit", "T"],
    "simulate-finite": ["finite", "x0", "generations"],
    "duality-quenched": ["finite", "env", "x", "n"],
    "duality-annealed": ["finite", "horizon", "x", "n"],
    "duality-moment": ["limit", "x", "n", "t"],
    "thresholds": ["limit"],
    "fixation": ["limit", "x_grid"],
    "convergence": ["limit", "N_list", "x", "n", "t"],
}

#: Largest config seed: a signed 64-bit integer, which JSON readers agree
#: on.  Streams are keyed by the config seed itself, never by a shifted
#: seed (see ``rngstreams.substream``).
MAX_SEED = 2**63 - 1

_MEASURE_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "atoms": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
            "required": ["atoms"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "density": {"enum": ["uniform", "beta"]},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "b": {"type": "number", "exclusiveMinimum": 0},
                "mass": {"type": "number", "exclusiveMinimum": 0},
                "nodes": {"type": "integer", "minimum": 1},
            },
            "required": ["density", "mass"],
            "additionalProperties": False,
        },
    ],
}

_KERNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "variant": {"enum": ["geometric", "binary", "table"]},
        "pmf": {
            "type": "object",
            "patternProperties": {"^[0-9]+$": {"type": "number"}},
            "additionalProperties": False,
        },
        "inf_mass": {"type": "number", "minimum": 0, "maximum": 1},
    },
    "required": ["variant"],
    "additionalProperties": False,
}

_LIMIT_SCHEMA = {
    "type": "object",
    "properties": {
        "kernel": _KERNEL_SCHEMA,
        "lambda_s": _MEASURE_SCHEMA,
        "w": {"type": "number", "minimum": 0},
        "lambda_c": _MEASURE_SCHEMA,
        "c": {"type": "number", "minimum": 0},
        "sigma": {"type": "number", "minimum": 0},
    },
    "required": ["kernel", "lambda_s", "lambda_c"],
    "additionalProperties": False,
}

_FINITE_SCHEMA = {
    "type": "object",
    "properties": {
        "N": {"type": "integer", "minimum": 2, "maximum": N_MAX},
        "kernel": _KERNEL_SCHEMA,
        "env_law": _MEASURE_SCHEMA,
        "c_N": {"type": "number", "minimum": 0, "maximum": 1},
        "lambda_c": _MEASURE_SCHEMA,
    },
    "required": ["N", "kernel", "env_law"],
    "additionalProperties": False,
}

SCHEMA = {
    "type": "object",
    "properties": {
        "experiment": {"enum": list(REQUIRED_KEYS)},
        "seed": {"type": "integer", "minimum": 0, "maximum": MAX_SEED},
        "replicates": {"type": "integer", "minimum": 1},
        "workers": {"type": "integer", "minimum": 1},
        "z_threshold": {"type": "number", "exclusiveMinimum": 0},
        "limit": _LIMIT_SCHEMA,
        "finite": _FINITE_SCHEMA,
        "x": {"type": "number", "minimum": 0, "maximum": 1},
        "x0": {"type": "number", "minimum": 0, "maximum": 1},
        "x_grid": {
            "type": "array",
            "items": {"type": "number", "minimum": 0, "maximum": 1},
            "minItems": 1,
        },
        "n": {"type": "integer", "minimum": 0},
        "n0": {"type": "integer", "minimum": 1},
        "t": {"type": "number", "minimum": 0},
        "T": {"type": "number", "minimum": 0},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "horizon": {"type": "integer", "minimum": 0},
        "generations": {"type": "integer", "minimum": 0},
        "env": {
            "type": "array",
            "items": {"type": "number", "minimum": -1, "maximum": 1},
            "minItems": 1,
        },
        "N_list": {
            "type": "array",
            "items": {"type": "integer", "minimum": 2, "maximum": N_MAX},
            "minItems": 1,
        },
        "burn_in": {"type": "number", "minimum": 0},
        "T_stat": {"type": "number", "exclusiveMinimum": 0},
        "eps0": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["experiment", "seed"],
    "additionalProperties": False,
    "allOf": [
        {"if": {"properties": {"experiment": {"const": kind}}},
         "then": {"required": keys}}
        for kind, keys in REQUIRED_KEYS.items()
    ],
}

#: The JSON types ``SCHEMA`` names, read as Draft 2020-12 reads them: a
#: bool is neither a number nor an integer, and an integral float such as
#: 2.0 is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}

#: Numeric bounds: (test that fails a number, message).  Plain comparisons,
#: as in jsonschema, so NaN passes every bound.
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
}


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _conforms(value, schema: dict) -> bool:
    return next(violations(value, schema), None) is None


def violations(value, schema: dict = SCHEMA, path: str = ""):
    """Yield ``(path, message)`` for each rule of ``schema`` that ``value``
    breaks, in the order of the schema's keys.

    Implements the keywords ``SCHEMA`` uses, with string-valued ``enum``
    and ``const``, and the messages of ``jsonschema``; any other keyword
    raises ``InvariantViolation``, so the schema cannot outgrow the check.
    ``path`` names the key path of ``value``, e.g. ``limit.c``.
    """
    is_dict, is_list = isinstance(value, dict), isinstance(value, list)
    for key, rule in schema.items():
        if key == "type":
            if not _TYPES[rule](value):
                yield path, f"{value!r} is not of type {rule!r}"
        elif key in _BOUNDS:
            fails, words = _BOUNDS[key]
            if _TYPES["number"](value) and fails(value, rule):
                yield path, f"{value!r} is {words} {rule!r}"
        elif key == "enum":
            if value not in rule:
                yield path, f"{value!r} is not one of {rule!r}"
        elif key == "const":
            if value != rule:
                yield path, f"{rule!r} was expected"
        elif key == "required":
            for name in rule:
                if is_dict and name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in rule.items():
                if is_dict and name in value:
                    yield from violations(value[name], sub, _join(path, name))
        elif key == "patternProperties":
            for name, item in (value.items() if is_dict else ()):
                for pattern, sub in rule.items():
                    if re.search(pattern, name):
                        yield from violations(item, sub, _join(path, name))
        elif key == "additionalProperties" and rule is False:
            patterns = schema.get("patternProperties", {})
            extra = sorted(name for name in (value if is_dict else ())
                           if name not in schema.get("properties", {})
                           and not any(re.search(p, name) for p in patterns))
            if extra:
                verb = "was" if len(extra) == 1 else "were"
                yield path, ("Additional properties are not allowed ("
                             f"{', '.join(map(repr, extra))} {verb} unexpected)")
        elif key == "items":
            for i, item in enumerate(value if is_list else ()):
                yield from violations(item, rule, f"{path}[{i}]")
        elif key == "minItems":
            if is_list and len(value) < rule:
                words = "should be non-empty" if rule == 1 else "is too short"
                yield path, f"{value!r} {words}"
        elif key == "maxItems":
            if is_list and len(value) > rule:
                yield path, f"{value!r} is too long"
        elif key == "oneOf":
            matches = sum(_conforms(value, branch) for branch in rule)
            if matches != 1:
                words = "not valid under any" if matches == 0 else \
                    "valid under more than one"
                yield path, f"{value!r} is {words} of the given schemas"
        elif key == "allOf":
            for sub in rule:
                yield from violations(value, sub, path)
        elif key == "if":
            if _conforms(value, rule):
                yield from violations(value, schema.get("then", {}), path)
        elif key != "then":
            raise InvariantViolation(
                f"config schema keyword {key!r}: {rule!r} is not implemented")


def _non_finite(name: str):
    """``parse_constant`` hook: NaN and the infinities are not JSON, and
    they pass schema bounds that every finite number must meet."""
    raise ValueError(f"non-finite number {name} is not allowed")


def load_config(path: str, seed: int | None = None) -> dict:
    """Parse and schema-validate a config file.

    A ``seed`` replaces the file's seed before the schema check, so an
    override is held to the same range.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_non_finite)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    for key_path, message in violations(raw):  # raises on the first
        where = f" at {key_path}" if key_path else ""
        raise ConfigError(f"config schema violation{where}: {message}")
    return raw


def build_kernel(obj: dict) -> SelectionKernel:
    variant = obj["variant"]
    if variant == "geometric":
        return SelectionKernel.geometric()
    if variant == "binary":
        return SelectionKernel.binary()
    pmf = {int(k): float(v) for k, v in obj.get("pmf", {}).items()}
    if not pmf and obj.get("inf_mass", 0.0) < 1.0:
        raise ConfigError("table kernel needs a pmf")
    return SelectionKernel.table(pmf, float(obj.get("inf_mass", 0.0)))


def build_measure(obj: dict, allow_negative: bool = False) -> FiniteMeasure:
    if "atoms" in obj:
        atoms = obj["atoms"]
        locs = np.array([float(y) for y, _ in atoms])
        wts = np.array([float(w) for _, w in atoms])
        return FiniteMeasure(locs, wts, _allow_negative=allow_negative)
    name = obj["density"]
    nodes = int(obj.get("nodes", 256))
    mass = float(obj["mass"])
    if name == "uniform":
        return FiniteMeasure.from_density(lambda y: 1.0, mass, nodes)
    a = float(obj.get("a", 1.0))
    b = float(obj.get("b", 1.0))
    return FiniteMeasure.from_density(
        lambda y: y ** (a - 1.0) * (1.0 - y) ** (b - 1.0), mass, nodes
    )


def build_limit_params(obj: dict) -> LimitParams:
    return LimitParams(
        kernel=build_kernel(obj["kernel"]),
        lambda_s=build_measure(obj["lambda_s"]),
        w=float(obj.get("w", 0.0)),
        lambda_c=build_measure(obj["lambda_c"]),
        c=float(obj.get("c", 0.0)),
        sigma=float(obj.get("sigma", 0.0)),
    )


def build_finite_params(obj: dict) -> FiniteModelParams:
    env = build_measure(obj["env_law"], allow_negative=True)
    return FiniteModelParams(
        N=int(obj["N"]),
        kernel=build_kernel(obj["kernel"]),
        env_law=env,
        c_N=float(obj.get("c_N", 0.0)),
        lambda_c=build_measure(obj["lambda_c"]) if "lambda_c" in obj else None,
    )
