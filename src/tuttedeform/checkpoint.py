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


def from_dict(d: dict) -> Checkpoint:
    if d.get("format") != FORMAT_NAME:
        raise ValueError(f"not a checkpoint file (format={d.get('format')!r})")
    if d.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {d.get('version')!r}")
    res = int(d["resolution"])
    layers = int(d["layers"])
    fr = d["frames"]
    if fr["kind"] == "triplane":
        frames = triplane_frames(layers)
        kind = "triplane"
    elif fr["kind"] == "explicit":
        mats = fr["matrices"]
        if len(mats) != layers:
            raise ValueError("frame count does not match layer count")
        frames = [Frame(np.asarray(m, dtype=np.float64).reshape(3, 3)) for m in mats]
        kind = "explicit"
    else:
        raise ValueError(f"unknown frames kind {fr['kind']!r}")
    ew = d["raw_edge_weights"]
    bi = d["raw_boundary_increments"]
    if len(ew) != layers or len(bi) != layers:
        raise ValueError("parameter arrays do not match layer count")
    params = [TutteLayerParams(raw_edge_weights=np.asarray(w, dtype=np.float64),
                               raw_boundary_increments=np.asarray(b, dtype=np.float64))
              for w, b in zip(ew, bi)]
    return Checkpoint(
        resolution=res, frames=frames, params=params, frames_kind=kind,
        normalization=Normalization.from_dict(d["normalization"]),
        seed=d.get("seed"), config_hash=d.get("config_hash"),
    )


def dumps(ck: Checkpoint) -> str:
    return json.dumps(to_dict(ck), sort_keys=True, separators=(",", ":")) + "\n"


def save_checkpoint(path, ck: Checkpoint):
    atomic_write_text(path, dumps(ck))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return from_dict(_parse_json(text, path))
