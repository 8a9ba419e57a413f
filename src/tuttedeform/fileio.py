"""Geometry file formats and coordinate normalization.

Supported inputs:

* Wavefront OBJ (``v`` and ``f`` records; faces of more than three vertices
  are fan-triangulated);
* ascii PLY (vertex ``x y z`` plus an optional scalar property named
  ``density`` or ``weight`` that becomes the per-point weight, and optional
  faces);
* dense scalar grids as JSON (``dims``, ``origin``, ``spacing``,
  ``values``): every cell whose value exceeds a threshold yields one point
  at the cell center, weighted by the value.  Values are flattened in C
  order with z fastest: ``index = (ix * ny + iy) * nz + iz``.

Deformation nets operate inside [-0.7, 0.7]^3, so loaded geometry is
uniformly rescaled and centered into that box and the transform is kept for
exact round trips on export.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

TARGET_HALF_EXTENT = 0.7


@dataclass(frozen=True)
class Normalization:
    """Uniform scale about a center: ``q = (p - center) * scale``."""

    center: np.ndarray
    scale: float

    def apply(self, points):
        return (np.asarray(points, dtype=np.float64) - self.center) * self.scale

    def invert(self, points):
        return np.asarray(points, dtype=np.float64) / self.scale + self.center

    def to_dict(self):
        return {"center": [float(c) for c in self.center], "scale": float(self.scale)}

    @staticmethod
    def identity():
        return Normalization(center=np.zeros(3), scale=1.0)


def fit_normalization(points) -> Normalization:
    """Transform putting the bounding box of ``points`` into the target box.

    Raises ValueError when the box's center, extent or the scale overflows,
    or the scale underflows to 0.
    """
    p = np.asarray(points, dtype=np.float64)
    lo, hi = p.min(axis=0), p.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        center = 0.5 * (lo + hi)
        half = float(np.max(hi - lo)) * 0.5
    scale = TARGET_HALF_EXTENT / half if half > 0 else 1.0
    if not (np.all(np.isfinite(center)) and np.isfinite(half)
            and np.isfinite(scale) and scale > 0):
        raise ValueError(f"geometry cannot be normalized: bounding box "
                         f"[{lo}, {hi}] gives center {center} and scale {scale}")
    return Normalization(center=center, scale=scale)


@dataclass
class Geometry:
    """Loaded geometry: points, optional weights and faces, and how the
    points were normalized (identity if they were not)."""

    points: np.ndarray
    weights: Optional[np.ndarray] = None
    triangles: Optional[np.ndarray] = None
    transform: Normalization = None

    def __post_init__(self):
        if self.transform is None:
            self.transform = Normalization.identity()


def _numbers(cast, tokens, where):
    """``tokens`` read by ``cast`` (float or int); a bad one raises
    ValueError naming ``where``, the file's format and line."""
    try:
        return [cast(x) for x in tokens]
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _check_faces(faces, count, fmt):
    """(F, 3) int64 faces, or None.  The indices are checked as Python ints,
    so a huge one is out of range rather than an OverflowError in NumPy."""
    if faces and not 0 <= min(map(min, faces)) <= max(map(max, faces)) < count:
        raise ValueError(f"{fmt} face index out of range")
    return np.asarray(faces, dtype=np.int64) if faces else None


def _parse_obj(text):
    verts, faces = [], []
    for ln, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise ValueError(f"OBJ line {ln}: vertex needs 3 coordinates")
            verts.append(_numbers(float, parts[1:4], f"OBJ line {ln}"))
        elif parts[0] == "f":
            idx = []
            for i in _numbers(int, [tok.split("/")[0] for tok in parts[1:]],
                              f"OBJ line {ln}"):
                if i < 0:
                    i = len(verts) + 1 + i
                idx.append(i - 1)
            if len(idx) < 3:
                raise ValueError(f"OBJ line {ln}: face needs at least 3 vertices")
            for k in range(1, len(idx) - 1):
                faces.append([idx[0], idx[k], idx[k + 1]])
    if not verts:
        raise ValueError("OBJ file contains no vertices")
    return np.asarray(verts, dtype=np.float64), _check_faces(faces, len(verts), "OBJ")


def _parse_ply(text):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ValueError("not a PLY file")
    i = 1
    fmt = None
    elements = []  # (name, count, [properties])
    while i < len(lines):
        parts = lines[i].split()
        i += 1
        if not parts:
            continue
        if parts[0] == "format":
            if len(parts) < 2:
                raise ValueError(f"PLY line {i}: format needs a name")
            fmt = parts[1]
        elif parts[0] == "element":
            if len(parts) != 3 or not parts[2].isdigit():
                raise ValueError(f"PLY line {i}: element needs a name and a count, "
                                 f"got {lines[i - 1]!r}")
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise ValueError("PLY property before any element")
            if len(parts) < 3:
                raise ValueError(f"PLY line {i}: property needs a type and a name")
            elements[-1][2].append(parts[1:])
        elif parts[0] == "end_header":
            break
        elif parts[0] == "comment":
            continue
    else:
        raise ValueError("PLY header has no end_header")
    if fmt != "ascii":
        raise ValueError(f"only ascii PLY is supported, got format {fmt!r}")

    verts = weights = faces = None
    for name, count, props in elements:
        rows = lines[i:i + count]
        if len(rows) < count:
            raise ValueError(f"PLY element {name}: expected {count} rows")
        first = i + 1  # line number of the element's first row
        i += count
        if name == "vertex":
            names = [p[-1] for p in props]
            for axis in "xyz":
                if axis not in names:
                    raise ValueError(f"PLY vertex element lacks property {axis!r}")
            split = [r.split() for r in rows]
            for j, xs in enumerate(split):
                if len(xs) != len(names):
                    raise ValueError(f"PLY line {first + j}: vertex row width "
                                     f"does not match header")
            data = np.array([_numbers(float, xs, f"PLY line {first + j}")
                             for j, xs in enumerate(split)])
            data = data.reshape(count, len(names))
            verts = data[:, [names.index(a) for a in "xyz"]]
            for wname in ("density", "weight"):
                if wname in names:
                    weights = data[:, names.index(wname)]
                    bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0.0)))
                    if bad.size:
                        raise ValueError(f"PLY line {first + int(bad[0])}: {wname} "
                                         "must be finite and nonnegative")
                    break
        elif name == "face":
            faces = []
            for j, r in enumerate(rows):
                xs = _numbers(int, r.split(), f"PLY line {first + j}")
                if not xs or xs[0] != len(xs) - 1 or xs[0] < 3:
                    raise ValueError(f"PLY line {first + j}: malformed face row {r!r}")
                for k in range(2, xs[0]):
                    faces.append([xs[1], xs[k], xs[k + 1]])
    if verts is None or not len(verts):
        raise ValueError("PLY file has no vertices")
    return verts, weights, _check_faces(faces, len(verts), "PLY")


def _parse_json(text, source, allow_overflow=False):
    """Parse JSON ``text`` read from ``source`` (a path, for messages).

    Python's json reads ``NaN``, ``Infinity`` and ``-Infinity`` as floats,
    though they are not JSON numbers; every input file of the package is
    read here, and these literals raise ValueError naming the literal and
    ``source``.  A number that overflows float64, such as ``1e999``, reads
    as inf (or as an int no float can hold); unless ``allow_overflow``, it
    raises ValueError naming the literal and ``source`` too.  Job files
    allow it: their reader names the overflowing field instead.  A syntax
    error raises ValueError naming ``source``, the line and the column, with
    json's error as its ``__cause__``.
    """
    def reject_constant(literal):
        raise ValueError(f"{source}: {literal} is not a JSON number")

    try:
        value = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as e:
        raise ValueError(f"{source}: invalid JSON at line {e.lineno} column "
                         f"{e.colno}: {e.msg}") from e
    if not allow_overflow and _may_overflow(value):
        # The slow exact pass, on the rare file the screen flags; it only
        # raises, and the values it parses are discarded.
        def reject_overflow(literal):
            if math.isinf(float(literal)):
                raise ValueError(f"{source}: {literal} overflows float64")
        json.loads(text, parse_float=reject_overflow, parse_int=reject_overflow)
    return value


def _may_overflow(node):
    """Whether parsed JSON holds a number beyond float64.  A screen: a flat
    list of numbers is summed in C, so a finite list whose sum overflows is
    flagged too."""
    if isinstance(node, dict):
        return any(_may_overflow(v) for v in node.values())
    try:
        if isinstance(node, list):
            return not math.isfinite(sum(node))
        return isinstance(node, (int, float)) and not math.isfinite(node)
    except TypeError:  # a list that holds more than numbers
        return any(_may_overflow(v) for v in node)
    except OverflowError:  # an int no float can hold
        return True


def _parse_grid(text, threshold, source):
    d = _parse_json(text, source)
    if not isinstance(d, dict):
        raise ValueError("grid file must hold a JSON object")
    for key in ("dims", "origin", "spacing", "values"):
        if key not in d:
            raise ValueError(f"grid file missing key {key!r}")

    def numbers(key, three=False):
        try:
            a = np.asarray(d[key])
        except ValueError:  # a ragged nesting
            a = np.asarray(None)
        # Numbers only (a string would convert); _parse_json made them finite.
        if a.dtype.kind not in "iuf" or (three and a.shape != (3,)):
            raise ValueError(f"grid key {key!r} must hold {'3 ' * three}numbers, "
                             f"got {d[key]!r}")
        return a.astype(np.float64)

    dims = numbers("dims", three=True)
    if dims.min() < 1 or np.any(dims != np.floor(dims)):
        raise ValueError(f"grid key 'dims' must hold three positive ints, got {d['dims']!r}")
    dims = [int(x) for x in dims]
    origin = numbers("origin", three=True)
    spacing = numbers("spacing", three=True)
    values = numbers("values")
    if values.size != dims[0] * dims[1] * dims[2]:
        raise ValueError(f"grid key 'values' has {values.size} numbers but dims "
                         f"imply {dims[0]*dims[1]*dims[2]}")
    values = values.reshape(dims)  # C order, z fastest
    kept = np.argwhere(values > threshold)
    if kept.size == 0:
        raise ValueError(f"no grid cells exceed threshold {threshold}")
    with np.errstate(over="ignore", invalid="ignore"):  # load_geometry rejects inf
        points = origin + (kept + 0.5) * spacing
    weights = values[kept[:, 0], kept[:, 1], kept[:, 2]]
    return points, weights


def load_geometry(path, grid_threshold: float = 1.0, normalize: bool = True) -> Geometry:
    """Load OBJ / PLY / grid geometry, normalized into the net's domain.

    The normalization transform is recorded on the returned object;
    ``transform.invert`` restores original coordinates to within 1e-9.
    With ``normalize=False`` the identity transform is recorded instead.
    Every ValueError it raises starts with ``path``.
    """
    lower = str(path).lower()
    weights = triangles = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if lower.endswith(".obj"):
            points, triangles = _parse_obj(text)
        elif lower.endswith(".ply"):
            points, weights, triangles = _parse_ply(text)
        elif lower.endswith(".json"):
            points, weights = _parse_grid(text, grid_threshold, path)
        else:
            raise ValueError("unsupported geometry extension")
        if not np.all(np.isfinite(points)):
            raise ValueError("geometry contains non-finite coordinates")
        geo = Geometry(points=points, weights=weights, triangles=triangles)
        if normalize:
            geo.transform = fit_normalization(points)
            geo.points = geo.transform.apply(points)
    except ValueError as e:
        if str(e).startswith(f"{path}: "):  # _parse_json names the file itself
            raise
        raise ValueError(f"{path}: {e}") from None
    return geo


def normalize_jointly(*geometries):
    """Re-normalize several geometries with one shared transform (the union
    bounding box), so correspondences live in a common space."""
    raw = [g.transform.invert(g.points) for g in geometries]
    transform = fit_normalization(np.concatenate(raw))
    for g, p in zip(geometries, raw):
        g.points = transform.apply(p)
        g.transform = transform
    return transform


def atomic_write_text(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_geometry(path, points, triangles=None, weights=None):
    """Write points (+ faces / weights) as OBJ or ascii PLY by extension."""
    points = np.asarray(points, dtype=np.float64)
    lower = str(path).lower()
    if lower.endswith(".obj"):
        lines = [f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in points]
        if triangles is not None:
            lines += [f"f {t[0]+1} {t[1]+1} {t[2]+1}" for t in np.asarray(triangles)]
        atomic_write_text(path, "\n".join(lines) + "\n")
    elif lower.endswith(".ply"):
        head = ["ply", "format ascii 1.0", f"element vertex {len(points)}",
                "property float64 x", "property float64 y", "property float64 z"]
        if weights is not None:
            head.append("property float64 weight")
        nf = 0 if triangles is None else len(triangles)
        head += [f"element face {nf}", "property list uchar int vertex_indices",
                 "end_header"]
        body = []
        for k, p in enumerate(points):
            row = f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}"
            if weights is not None:
                row += f" {weights[k]:.17g}"
            body.append(row)
        if triangles is not None:
            body += [f"3 {t[0]} {t[1]} {t[2]}" for t in np.asarray(triangles)]
        atomic_write_text(path, "\n".join(head + body) + "\n")
    else:
        raise ValueError(f"unsupported output extension: {path}")
