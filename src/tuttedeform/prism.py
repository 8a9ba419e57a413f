"""Prismatic 3D layers: a 2D mesh deformation extruded along a rotated axis.

A layer deforms 3D space by rotating into a local frame, applying the 2D
piecewise-linear map to the local xy coordinates while the local z passes
through unchanged, and rotating back:

    layer(p) = R @ lift(R^T @ p),   lift(x, y, z) = (plmap(x, y), z)

Because the 2D map is injective on the square and z is preserved, each layer
is injective on its slab domain.  Its Jacobian at p is the constant matrix
``R @ lifted(A_t) @ R^T`` of the prism cell containing p, with singular
value exactly 1 along the frame's extrusion axis; ``apply_lifted`` applies
it through the 2x2 block ``A_t`` alone.

The layer walk carries a point batch as a (3, N) block of rows, one per
coordinate, and records each point's cell as (3, N) barycentric rows;
Jacobian chains are (3, k, N) row stacks.  Every entry is a contiguous
column over the points.  ``forward_step`` and ``inverse_step`` are the same
steps on (N, 3) batches, written as plain products with ``R``: the oracle
the tests hold the row walk to.  Triplane frames, the only kind a job file
can ask for, are unsigned permutation matrices: products with them pick
rows of a block or stack, exact and free of BLAS calls.  Every other
rotation, signed permutations included, multiplies: the library API and
explicit checkpoint frames accept any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import mesh2d
from .mesh2d import PLMap2D, _readonly


@dataclass(frozen=True)
class Frame:
    """A proper rotation fixing a layer's extrusion axis (local z).

    When the rotation is an unsigned permutation, as every triplane frame
    is, ``_rows`` holds the row of X that each row of ``R^T X`` is, and the
    walk (``_step_rows``), ``plane_rows`` and ``apply_lifted`` pick rows
    instead of multiplying: the same values, without a BLAS call.  Any
    other rotation keeps the matmul.
    """

    rotation: np.ndarray  # (3, 3)
    _rows: Optional[tuple] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64)
        if R.shape != (3, 3):
            raise ValueError(f"frame rotation must be 3x3, got {R.shape}")
        if np.abs(R @ R.T - np.eye(3)).max() > 1e-10 or np.linalg.det(R) < 0.0:
            raise ValueError("frame rotation must be a proper rotation (R R^T = I, det +1)")
        object.__setattr__(self, "rotation", _readonly(R))
        # Orthogonal with entries in {0, 1}: row m of R^T X is X[argmax R[:, m]].
        if set(R.flat) <= {0.0, 1.0}:
            object.__setattr__(self, "_rows", tuple(int(c) for c in R.argmax(axis=0)))

    @property
    def axis(self):
        """The extrusion axis in world coordinates (local z)."""
        return self.rotation[:, 2]

    def plane_rows(self, X):
        """Rows 0 and 1 of ``R^T X`` for a row stack ``X`` (3, ...): views of
        two of its rows for an unsigned permutation."""
        if self._rows is None:
            return np.tensordot(self.rotation[:, :2], X, axes=(0, 0))
        return X[self._rows[0]], X[self._rows[1]]


def frame_from_axis_angle(axis, angle_rad: float) -> Frame:
    """Rotation about ``axis`` by ``angle_rad`` (Rodrigues), as a Frame."""
    a = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(a)
    if not np.isfinite(norm) or norm == 0.0:
        raise ValueError("rotation axis must be a nonzero finite vector")
    a = a / norm
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    R = np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)
    return Frame(rotation=R)


# Proper rotations whose local z-axis is the world x, y, z axis respectively.
# Frames are immutable, so every triplane net shares these three.
_TRIPLANE = tuple(Frame(rotation=np.array(R)) for R in (
    [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    np.eye(3),
))


def triplane_frames(count: int):
    """``count`` frames cycling the world x, y, z axes as extrusion axis."""
    if count < 1:
        raise ValueError(f"frame count must be >= 1, got {count}")
    return [_TRIPLANE[i % 3] for i in range(count)]


@dataclass(frozen=True)
class PrismLayer:
    """One injective 3D layer: a frame plus a realized 2D map."""

    frame: Frame
    plmap: PLMap2D
    layer_index: int = 0


def forward_step(layer: PrismLayer, points):
    """Images of an (N, 3) batch plus the cell ``(tri, bary)`` of each point."""
    R, plmap = layer.frame.rotation, layer.plmap
    local = np.asarray(points, dtype=np.float64) @ R  # row-wise R^T p, a new array
    tri, bary = mesh2d.locate_points(plmap.mesh, local[:, :2],
                                     layer_index=layer.layer_index)
    local[:, :2] = mesh2d.interpolate(plmap.vertex_positions, plmap.mesh.triangles,
                                      tri, bary)
    return local @ R.T, tri, bary


def inverse_step(layer: PrismLayer, points):
    """Preimages of an (N, 3) batch in the layer's image, plus each cell ``tri``."""
    R, plmap = layer.frame.rotation, layer.plmap
    local = np.asarray(points, dtype=np.float64) @ R
    tri, bary = mesh2d.locate_image_points(plmap, local[:, :2],
                                           layer_index=layer.layer_index)
    local[:, :2] = mesh2d.interpolate(plmap.mesh.vertices, plmap.mesh.triangles,
                                      tri, bary)
    return local @ R.T, tri


def _row_pair(X, a, b):
    """Rows ``a`` and ``b`` (a != b) of a (3, ...) block as one (2, ...) view."""
    return X[a::b - a][:2]


def _step_rows(layer: PrismLayer, X, corners, locate, out=None):
    """One layer on a (3, N) block of rows: ``(image rows, tri, bary)``.

    ``locate`` places the (N, 2) local points in cells ``(tri, bary)``, and
    ``corners`` are the (2, 3, T) corner columns the barycentrics combine.
    For an unsigned permutation the local plane is a view of two rows of X;
    the image goes straight into the output's rows, and the local z row is
    copied.  The output is ``out``, a (3, N) block that must not overlap X,
    when it is given; any other rotation returns new rows.
    """
    frame = layer.frame
    if frame._rows is None:  # any other rotation: through the frame by matmul
        local = frame.rotation.T @ X
        tri, bary = locate(local[:2].T)  # locate has done reading local here
        mesh2d.combine(corners, tri, bary.T, out=local[:2])
        return frame.rotation @ local, tri, bary
    c0, c1, c2 = frame._rows
    tri, bary = locate(_row_pair(X, c0, c1).T)
    out = np.empty(X.shape) if out is None else out
    mesh2d.combine(corners, tri, bary.T, out=_row_pair(out, c0, c1))
    out[c2] = X[c2]
    return out, tri, bary


def forward_rows(layer: PrismLayer, X, cells=None, out=None):
    """:func:`forward_step` on a (3, N) block of rows: the image rows, and
    ``(tri, bary)`` with ``bary`` the (N, 3) view of (3, N) rows.  ``cells``,
    a pair of an (N,) int64 array and a (3, N) block, takes the cells in
    place of new arrays, and ``out`` the image rows (see ``_step_rows``)."""
    plmap = layer.plmap
    return _step_rows(layer, X, plmap.corners, lambda p: mesh2d.locate_points(
        plmap.mesh, p, layer_index=layer.layer_index, out=cells), out)


def inverse_rows(layer: PrismLayer, X, out=None):
    """:func:`inverse_step` on a (3, N) block of rows: the preimage rows,
    ``tri`` and the (N, 3) barycentrics.  ``out`` takes the preimage rows,
    as in ``forward_rows``."""
    plmap = layer.plmap
    return _step_rows(layer, X, plmap.mesh.corners, lambda p: mesh2d.locate_image_points(
        plmap, p, layer_index=layer.layer_index), out)


def apply_lifted(frame: Frame, A, X, out=None):
    """``R lift(A) R^T X`` for (N, 2, 2) blocks ``A`` and (3, k, N) row stacks
    ``X`` (or (3, k, 1), one matrix for all points), as a row stack: the
    only product with a layer Jacobian (``A_t``), its inverse or transpose.
    It is written into ``out`` (3, k, N) when given, which must not overlap
    X.  ``A`` mixes rows 0 and 1 of ``R^T X``; for an unsigned permutation,
    local row m is row ``c_m`` of both X and the result, written there in
    place.  ``A`` reads fastest as the view of (2, 2, N) entry rows that
    ``PLMap2D.factors`` gives."""
    if frame._rows is not None:
        return _mix(A, X, frame._rows, out)
    local = _mix(A, np.tensordot(frame.rotation, X, axes=(0, 0)), (0, 1, 2))  # R^T X
    world = np.tensordot(frame.rotation, local, axes=1)
    if out is None:
        return world
    out[...] = world
    return out


def _mix(A, X, rows, out=None):
    """X with rows ``c0``, ``c1`` replaced by their mix through ``A``."""
    c0, c1, c2 = rows
    if out is None:
        out = np.empty((3, X.shape[1], len(A)))
    # out[c0] = a00 x0 + a01 x1 and out[c1] = a10 x0 + a11 x1, in place with
    # one temporary: every fresh large array costs page faults.
    t = A[:, 0, 1] * X[c1]
    np.add(np.multiply(A[:, 0, 0], X[c0], out=out[c0]), t, out=out[c0])
    np.multiply(A[:, 1, 0], X[c0], out=t)
    np.add(np.multiply(A[:, 1, 1], X[c1], out=out[c1]), t, out=out[c1])
    out[c2] = X[c2]
    return out


def map_points(layer: PrismLayer, points):
    """Apply the layer to an (N, 3) batch of world-space points."""
    return forward_step(layer, points)[0]


def jacobians(layer: PrismLayer, points):
    """Per-point 3x3 Jacobians ``R lift(A_t) R^T`` for an (N, 3) batch."""
    tri = forward_step(layer, points)[1]
    return apply_lifted(layer.frame, layer.plmap.A.take(tri, axis=0),
                        np.eye(3)[:, :, None]).transpose(2, 0, 1)


def invert_points(layer: PrismLayer, points):
    """Preimages of an (N, 3) batch; points must lie in the layer's image."""
    return inverse_step(layer, points)[0]
