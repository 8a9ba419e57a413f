"""Job descriptions: a single JSON file drives every CLI workflow.

The file is validated against a JSON Schema with ``additionalProperties:
false`` throughout, so misspelled or unknown keys are rejected with the
offending path instead of being silently ignored.  Regions and rigid
motions are written in the coordinate system of the input geometry file;
they are mapped into the net's normalized domain internally.

Workflows:

* ``elastic``  handles + volumetric elastic energy (needs ``input.geometry``,
  ``constraints``, ``output.checkpoint``);
* ``fit``      known correspondences source -> target (needs
  ``input.geometry``, ``input.target_geometry``, ``output.checkpoint``);
* ``apply``    map geometry forward through a checkpoint;
* ``invert``   map geometry through the exact inverse;
* ``check``    re-verify invariants of a checkpoint;
* ``report``   write distortion / diagnostic statistics as CSV.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from jsonschema import Draft202012Validator

from .energy import LossWeights
from .errors import DeformError
from .fileio import _parse_json
from .optim import LearningRate, NetSpec
from .prism import frame_from_axis_angle


class ConfigError(DeformError):
    """Invalid job file, unresolvable path, or inconsistent configuration."""


_VEC3 = {"type": "array", "items": {"type": "number"},
         "minItems": 3, "maxItems": 3}

# Cap on lengths that get squared: the sphere radius in Region.contains, a
# motion's offsets in the handle loss.
_MAX_LENGTH = 1e150

_REGION = {
    "type": "object", "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["sphere", "box", "halfspace"]},
        "center": _VEC3, "radius": {"type": "number", "exclusiveMinimum": 0,
                                    "maximum": _MAX_LENGTH},
        "min": _VEC3, "max": _VEC3,
        "normal": _VEC3, "offset": {"type": "number"},
    },
}

_MOTION = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "axis": _VEC3,
        "angle_degrees": {"type": "number"},
        "pivot": _VEC3,
        "translation": _VEC3,
    },
}

_CONSTRAINT = {
    "type": "object", "additionalProperties": False,
    "required": ["region"],
    "properties": {
        "region": _REGION,
        "motion": _MOTION,
        "static": {"type": "boolean"},
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object", "additionalProperties": False,
    "required": ["workflow"],
    "properties": {
        "workflow": {"enum": ["elastic", "fit", "apply", "invert",
                              "check", "report"]},
        "seed": {"type": "integer", "minimum": 0},
        "net": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "layers": {"type": "integer", "minimum": 1},
                "resolution": {"type": "integer", "minimum": 2},
                "frames": {"enum": ["triplane"]},
            },
        },
        "optimizer": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "learning_rate": {
                    "type": "object", "additionalProperties": False,
                    "properties": {
                        "initial": {"type": "number", "exclusiveMinimum": 0},
                        "final": {"type": "number", "exclusiveMinimum": 0},
                        "decay_steps": {"type": "integer", "minimum": 0},
                    },
                },
                "max_steps": {"type": "integer", "minimum": 0},
                "stop_rel_tol": {"type": "number", "minimum": 0},
                "stop_window": {"type": "integer", "minimum": 1},
                "log_every": {"type": "integer", "minimum": 1},
            },
        },
        "loss": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "handle": {"type": "number", "minimum": 0},
                "regularization": {"type": "number", "minimum": 0},
                "elastic": {
                    "type": "object", "additionalProperties": False,
                    "properties": {
                        "initial": {"type": "number", "minimum": 0},
                        "decrement": {"type": "number", "minimum": 0},
                        "interval": {"type": "integer", "minimum": 0},
                        "floor": {"type": "number", "minimum": 0},
                    },
                },
                "gradient_weight": {"type": "number", "minimum": 0},
            },
        },
        "samples": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "moving": {"type": "integer", "minimum": 1},
                "static": {"type": "integer", "minimum": 1},
                "free": {"type": "integer", "minimum": 1},
                "grid_threshold": {"type": "number"},
            },
        },
        "constraints": {"type": "array", "items": _CONSTRAINT, "minItems": 1},
        "input": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "geometry": {"type": "string"},
                "target_geometry": {"type": "string"},
                "checkpoint": {"type": "string"},
            },
        },
        "output": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "checkpoint": {"type": "string"},
                "geometry": {"type": "string"},
                "report": {"type": "string"},
            },
        },
    },
}

_VALIDATOR = Draft202012Validator(SCHEMA)

# default sample budgets: moving handle, static handle, free space
DEFAULT_BUDGETS = {"moving": 10000, "static": 15000, "free": 10000}


@dataclass(frozen=True)
class Region:
    kind: str
    center: np.ndarray = None
    radius: float = 0.0
    lo: np.ndarray = None
    hi: np.ndarray = None
    normal: np.ndarray = None
    offset: float = 0.0

    def contains(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        if self.kind == "sphere":
            # A squared distance that overflows to inf is beyond any radius
            # the schema allows, so the point is correctly outside.
            with np.errstate(over="ignore"):
                d2 = np.sum((p - self.center) ** 2, axis=1)
            return d2 <= self.radius ** 2
        if self.kind == "box":
            return np.all((p >= self.lo) & (p <= self.hi), axis=1)
        return p @ self.normal >= self.offset


def _parse_region(d, path) -> Region:
    kind = d["kind"]
    if kind == "sphere":
        if "center" not in d or "radius" not in d:
            raise ConfigError(f"{path}: sphere region needs center and radius")
        return Region(kind, center=_vector(d, "center", None, path),
                      radius=float(d["radius"]))
    if kind == "box":
        if "min" not in d or "max" not in d:
            raise ConfigError(f"{path}: box region needs min and max")
        lo, hi = _vector(d, "min", None, path), _vector(d, "max", None, path)
        if np.any(lo >= hi):
            raise ConfigError(f"{path}: box min must be strictly below max")
        return Region(kind, lo=lo, hi=hi)
    if "normal" not in d or "offset" not in d:
        raise ConfigError(f"{path}: halfspace region needs normal and offset")
    n = _vector(d, "normal", None, path)
    with np.errstate(over="ignore"):
        norm = _finite(np.linalg.norm(n), f"{path}.normal norm")
        if norm == 0:
            raise ConfigError(f"{path}: halfspace normal must be nonzero")
        offset = _finite(float(_number(d, "offset", None, path)) / norm,
                         f"{path}.offset over the normal's norm")
    return Region(kind, normal=n / norm, offset=offset)


@dataclass(frozen=True)
class Motion:
    """Rigid motion ``p -> R (p - pivot) + pivot + translation`` in the raw
    coordinates of the input file."""

    rotation: np.ndarray
    translation: np.ndarray  # full affine offset, pivot already folded in

    def in_normalized(self, transform):
        """Conjugate by ``q = (p - center) * scale``; rotation is unchanged."""
        R, c, s = self.rotation, transform.center, transform.scale
        with np.errstate(over="ignore", invalid="ignore"):
            t = s * (R @ c + self.translation - c)
        return R, _squarable(t, "motion translation in normalized coordinates")


def _finite(v, what):
    """``v`` if every entry is finite, else ConfigError naming ``what``.  An
    int no float can hold, which the job-file parser keeps, overflows too."""
    try:
        finite = np.all(np.isfinite(np.asarray(v, dtype=np.float64)))
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{what} overflows float64")
    return v


def _number(d, key, default, path):
    """Number field ``key`` of the job-file object ``d`` at JSON ``path``,
    or ``default`` when it is absent; see :func:`_finite`."""
    return _finite(d.get(key, default), f"{path}.{key}")


def _vector(d, key, default, path):
    """Vector field ``key`` of ``d`` as a float64 array; see :func:`_number`."""
    return np.asarray(_number(d, key, default, path), dtype=np.float64)


def _squarable(v, what):
    """``v`` if its length is at most _MAX_LENGTH, else ConfigError naming ``what``."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.linalg.norm(v) <= _MAX_LENGTH:
            raise ConfigError(
                f"{what} is longer than {_MAX_LENGTH:g}: its square overflows float64")
    return v


def _parse_motion(d, path) -> Motion:
    axis = _vector(d, "axis", [0.0, 0.0, 1.0], path)
    angle = _finite(float(_number(d, "angle_degrees", 0.0, path)) * np.pi / 180.0,
                    f"{path}.angle_degrees in radians")
    pivot = _vector(d, "pivot", [0.0, 0.0, 0.0], path)
    tr = _vector(d, "translation", [0.0, 0.0, 0.0], path)
    if angle != 0.0:
        with np.errstate(over="ignore"):
            if _finite(np.linalg.norm(axis), f"{path}.axis norm") == 0:
                raise ConfigError(f"{path}: rotation axis must be nonzero")
    R = frame_from_axis_angle(axis, angle).rotation if angle != 0.0 else np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        offset = R @ (-pivot) + pivot
    offset = _squarable(offset, f"{path}.pivot's rotation offset (I - R) pivot")
    tr = _squarable(tr, f"{path}.translation")
    return Motion(rotation=R, translation=offset + tr)


@dataclass(frozen=True)
class ConstraintSpec:
    region: Region
    motion: Optional[Motion]  # None marks a static handle

    @property
    def is_static(self):
        return self.motion is None


@dataclass
class JobFile:
    workflow: str
    seed: int
    net: NetSpec
    lr: LearningRate
    max_steps: int
    stop_rel_tol: float
    stop_window: int
    log_every: int
    weights: LossWeights
    gradient_weight: float
    budgets: dict
    grid_threshold: float
    constraints: Sequence[ConstraintSpec]
    inputs: dict    # resolved absolute paths
    outputs: dict   # resolved absolute paths
    raw: dict = field(repr=False, default=None)


_NEEDS = {
    "elastic": (["geometry"], ["checkpoint"]),
    "fit": (["geometry", "target_geometry"], ["checkpoint"]),
    "apply": (["geometry", "checkpoint"], ["geometry"]),
    "invert": (["geometry", "checkpoint"], ["geometry"]),
    "check": (["checkpoint"], []),
    "report": (["checkpoint"], ["report"]),
}

# workflow-specific optimizer defaults: (lr_initial, lr_final, decay, steps)
_OPT_DEFAULTS = {
    "elastic": (0.02, 0.0002, 4000, 4000),
    "fit": (0.02, 0.002, 5000, 5000),
}


def load_jobfile(path) -> JobFile:
    """Parse, schema-validate, and resolve a job file.

    Raises ConfigError for any schema violation (including unknown keys)
    and for a number that overflows float64, each named by its JSON path;
    for the non-standard literals ``NaN``, ``Infinity`` and ``-Infinity``;
    and for missing inputs the workflow requires.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = _parse_json(fh.read(), path, allow_overflow=True)
    except OSError as e:
        raise ConfigError(f"cannot read job file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    except ValueError as e:  # a NaN or Infinity literal; a schema "minimum" lets NaN pass
        raise ConfigError(str(e)) from e

    errors = sorted(_VALIDATOR.iter_errors(raw), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigError(f"{first.json_path}: {first.message}")

    workflow = raw["workflow"]
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    inputs = {k: resolve(v) for k, v in raw.get("input", {}).items()}
    outputs = {k: resolve(v) for k, v in raw.get("output", {}).items()}
    need_in, need_out = _NEEDS[workflow]
    for key in need_in:
        if key not in inputs:
            raise ConfigError(f"workflow {workflow!r} requires input.{key}")
        if not os.path.isfile(inputs[key]):
            raise ConfigError(f"input.{key}: no such file: {inputs[key]}")
    for key in need_out:
        if key not in outputs:
            raise ConfigError(f"workflow {workflow!r} requires output.{key}")

    net_d = raw.get("net", {})
    default_res = 11 if workflow == "fit" else 25
    net = NetSpec(layers=net_d.get("layers", 24),
                  resolution=net_d.get("resolution", default_res))

    li, lf, ld, ms = _OPT_DEFAULTS.get(workflow, _OPT_DEFAULTS["elastic"])
    opt = raw.get("optimizer", {})
    lr_d = opt.get("learning_rate", {})
    lr_path = "$.optimizer.learning_rate"
    lr = LearningRate(initial=_number(lr_d, "initial", li, lr_path),
                      final=_number(lr_d, "final", lf, lr_path),
                      decay_steps=lr_d.get("decay_steps", ld))

    loss_d = raw.get("loss", {})
    el = loss_d.get("elastic", {})
    el_path = "$.loss.elastic"
    weights = LossWeights(
        handle=_number(loss_d, "handle", 1.0, "$.loss"),
        reg=_number(loss_d, "regularization", 0.005, "$.loss"),
        elastic=_number(el, "initial", 0.004, el_path),
        elastic_decrement=_number(el, "decrement", 0.001, el_path),
        elastic_interval=el.get("interval", 600),
        elastic_floor=_number(el, "floor", 0.001, el_path),
    )

    samples_d = raw.get("samples", {})
    budgets = {k: samples_d.get(k, v) for k, v in DEFAULT_BUDGETS.items()}

    constraints = []
    for i, c in enumerate(raw.get("constraints", [])):
        p = f"$.constraints[{i}]"
        if c.get("static", False) and "motion" in c:
            raise ConfigError(f"{p}: a constraint cannot be both static and moving")
        region = _parse_region(c["region"], p + ".region")
        motion = None if "motion" not in c else _parse_motion(c["motion"], p + ".motion")
        constraints.append(ConstraintSpec(region=region, motion=motion))
    if workflow == "elastic" and not constraints:
        raise ConfigError("workflow 'elastic' requires at least one constraint")

    return JobFile(
        workflow=workflow,
        seed=raw.get("seed", 0),
        net=net,
        lr=lr,
        max_steps=opt.get("max_steps", ms),
        stop_rel_tol=_number(opt, "stop_rel_tol", 0.0, "$.optimizer"),
        stop_window=opt.get("stop_window", 100),
        log_every=opt.get("log_every", 50),
        weights=weights,
        gradient_weight=_number(loss_d, "gradient_weight", 0.1, "$.loss"),
        budgets=budgets,
        grid_threshold=_number(samples_d, "grid_threshold", 1.0, "$.samples"),
        constraints=constraints,
        inputs=inputs,
        outputs=outputs,
        raw=raw,
    )
