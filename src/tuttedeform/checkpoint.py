"""Versioned checkpoint files.

A checkpoint stores everything needed to rebuild a deformation net and map
user geometry through it: resolution, frame specification, the raw
(unconstrained) parameters of every layer, and the coordinate normalization
that was applied to the training geometry.  Serialization is canonical JSON
(sorted keys, fixed separators, repr-exact floats), so saving the same net
twice produces byte-identical files and a load/save round trip preserves
every bit.  No timestamps or environment data are recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .deform import DeformationNet, realize
from .fileio import Normalization, atomic_write_text, _parse_json
from .mesh2d import build_mesh
from .prism import Frame, triplane_frames
from .tutte import TutteLayerParams

FORMAT_NAME = "tuttedeform-checkpoint"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    resolution: int
    frames: Sequence[Frame]
    params: Sequence[TutteLayerParams]
    frames_kind: str = "explicit"  # "triplane" | "explicit"
    normalization: Normalization = field(default_factory=Normalization.identity)
    seed: Optional[int] = None
    config_hash: Optional[str] = None

    @property
    def layers(self):
        return len(self.params)

    def realize(self) -> DeformationNet:
        mesh = build_mesh(self.resolution)
        return realize(mesh, list(self.params), list(self.frames))


def from_net(net: DeformationNet, normalization=None, seed=None,
             config_hash=None, frames_kind=None) -> Checkpoint:
    if frames_kind is None:
        frames_kind = "triplane" if _is_triplane(net.frames) else "explicit"
    return Checkpoint(
        resolution=net.mesh.resolution,
        frames=list(net.frames),
        params=list(net.params),
        frames_kind=frames_kind,
        normalization=normalization or Normalization.identity(),
        seed=seed,
        config_hash=config_hash,
    )


def _is_triplane(frames):
    ref = triplane_frames(len(frames))
    return all(np.array_equal(f.rotation, r.rotation) for f, r in zip(frames, ref))


def _floats(a):
    return [float(x) for x in np.asarray(a, dtype=np.float64).ravel()]


def to_dict(ck: Checkpoint) -> dict:
    d = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "resolution": int(ck.resolution),
        "layers": int(ck.layers),
        "normalization": ck.normalization.to_dict(),
        "raw_edge_weights": [_floats(p.raw_edge_weights) for p in ck.params],
        "raw_boundary_increments": [_floats(p.raw_boundary_increments)
                                    for p in ck.params],
    }
    if ck.frames_kind == "triplane":
        d["frames"] = {"kind": "triplane"}
    else:
        d["frames"] = {"kind": "explicit",
                       "matrices": [_floats(f.rotation) for f in ck.frames]}
    if ck.seed is not None:
        d["seed"] = int(ck.seed)
    if ck.config_hash is not None:
        d["config_hash"] = str(ck.config_hash)
    return d


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _field(d, key, types, where=""):
    """``d[key]`` if its type is one of ``types`` (a boolean is not a
    number), else ValueError naming the key."""
    if key not in d:
        raise ValueError(f"missing key {where}{key}")
    value = d[key]
    if type(value) not in types:
        raise ValueError(f"key {where}{key} holds {_JSON_TYPES[type(value)]}, "
                         f"not {_JSON_TYPES[types[0]]}")
    return value


def _numbers(value, what, width=None):
    """``value``, an array of numbers (``width`` of them unless None), as a
    float64 array, else ValueError naming the key ``what``."""
    if (type(value) is not list or not set(map(type, value)) <= {int, float}
            or width not in (None, len(value))):
        length = "" if width is None else f"{width} "
        raise ValueError(f"key {what} must hold an array of {length}numbers")
    return np.asarray(value, dtype=np.float64)


def _rows(d, key, count, width=None, where=""):
    """``d[key]``, an array of ``count`` arrays of numbers, as float64 arrays."""
    rows = _field(d, key, (list,), where)
    if len(rows) != count:
        raise ValueError(f"key {where}{key} holds {len(rows)} rows for {count} layers")
    return [_numbers(row, f"{where}{key}[{i}]", width) for i, row in enumerate(rows)]


def from_dict(d) -> Checkpoint:
    """The checkpoint held in parsed JSON.  A missing key, a value of the
    wrong JSON type or length, or a normalization scale without a finite
    inverse raises ValueError naming the key."""
    if type(d) is not dict:
        raise ValueError(f"a checkpoint holds a JSON object, not {_JSON_TYPES[type(d)]}")
    if d.get("format") != FORMAT_NAME:
        raise ValueError(f"not a checkpoint file (format={d.get('format')!r})")
    if type(d.get("version")) is not int or d["version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {d.get('version')!r}")
    res = _field(d, "resolution", (int,))
    layers = _field(d, "layers", (int,))
    # Row counts bound ``layers``, and the rows' widths (the mesh's edge
    # and boundary vertex counts) the resolution, by the file's size before
    # any frame or mesh is built.
    ew = _rows(d, "raw_edge_weights", layers, (res - 1) * (3 * res - 1))
    bi = _rows(d, "raw_boundary_increments", layers, 4 * (res - 1))
    fr = _field(d, "frames", (dict,))
    kind = _field(fr, "kind", (str,), "frames.")
    if kind == "triplane":
        frames = triplane_frames(layers)
    elif kind == "explicit":
        frames = [Frame(m.reshape(3, 3)) for m in _rows(fr, "matrices", layers, 9, "frames.")]
    else:
        raise ValueError(f"unknown frames kind {kind!r}")
    norm = _field(d, "normalization", (dict,))
    center = _numbers(_field(norm, "center", (list,), "normalization."),
                      "normalization.center", 3)
    scale = float(_field(norm, "scale", (float, int), "normalization."))
    if not (scale > 0.0 and math.isfinite(1.0 / scale)):  # invert divides by it
        raise ValueError(f"key normalization.scale must be positive with a finite "
                         f"inverse, got {scale!r}")
    return Checkpoint(
        resolution=res, frames=frames, frames_kind=kind,
        params=[TutteLayerParams(raw_edge_weights=w, raw_boundary_increments=b)
                for w, b in zip(ew, bi)],
        normalization=Normalization(center=center, scale=scale),
        seed=_field(d, "seed", (int,)) if "seed" in d else None,
        config_hash=_field(d, "config_hash", (str,)) if "config_hash" in d else None,
    )


def dumps(ck: Checkpoint) -> str:
    return json.dumps(to_dict(ck), sort_keys=True, separators=(",", ":")) + "\n"


def save_checkpoint(path, ck: Checkpoint):
    atomic_write_text(path, dumps(ck))


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint in the file at ``path``; a malformed file raises
    ValueError naming ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    d = _parse_json(text, path)
    try:
        return from_dict(d)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
