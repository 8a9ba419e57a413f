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

A layer is a frame and a realized 2D map, held by the net as
``frames[l]`` and ``maps[l]``; the steps take both, and the layer's index
for their errors.  The layer walk carries a point batch as a (3, N) block
of rows, one per coordinate, and records each point's cell as (3, N)
barycentric rows; Jacobian chains are (3, k, N) row stacks.  Every entry
is a contiguous column over the points.  ``map_points``, ``jacobians`` and
``invert_points`` are the same steps on one layer's (N, 3) batches.
Triplane frames, the only kind a job file can ask for, are unsigned
permutation matrices: products with them pick rows of a block or stack,
exact and free of BLAS calls.  Every other rotation, signed permutations
included, multiplies: the library API and explicit checkpoint frames
accept any.
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
        if not np.all(np.isfinite(R)):
            raise ValueError("frame rotation must be finite")
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
        """Rows 0 and 1 of ``R^T X`` for a row stack ``X`` (3, ...), as one
        (2, ...) array: for an unsigned permutation, the view of X's rows
        ``c0`` and ``c1`` (a slice of step ``c1 - c0``)."""
        if self._rows is None:
            return np.tensordot(self.rotation[:, :2], X, axes=(0, 0))
        c0, c1 = self._rows[:2]
        return X[c0::c1 - c0][:2]


def frame_from_axis_angle(axis, angle_rad: float) -> Frame:
    """Rotation about ``axis`` by ``angle_rad`` (Rodrigues), as a Frame."""
    a = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(a)
    if not np.isfinite(norm) or norm == 0.0:
        raise ValueError("rotation axis must be a nonzero finite vector")
    if not np.isfinite(angle_rad):
        raise ValueError(f"rotation angle must be finite, got {angle_rad}")
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


def _step_rows(frame: Frame, X, corners, locate, out=None):
    """One layer on a (3, N) block of rows: ``(image rows, tri, bary)``.

    ``locate`` places the (N, 2) local points in cells ``(tri, bary)``, and
    ``corners`` are the (2, 3, T) corner columns the barycentrics combine.
    For an unsigned permutation the local plane is the ``plane_rows`` view
    of X; the image goes straight into the output's plane rows, and the
    local z row is copied.  The output is ``out``, a (3, N) block that must
    not overlap X, when it is given; any other rotation returns new rows.
    """
    if frame._rows is None:  # any other rotation: through the frame by matmul
        local = frame.rotation.T @ X
        tri, bary = locate(local[:2].T)  # locate has done reading local here
        mesh2d.combine(corners, tri, bary.T, out=local[:2])
        return frame.rotation @ local, tri, bary
    tri, bary = locate(frame.plane_rows(X).T)
    out = np.empty(X.shape) if out is None else out
    mesh2d.combine(corners, tri, bary.T, out=frame.plane_rows(out))
    z = frame._rows[2]
    out[z] = X[z]
    return out, tri, bary


def forward_rows(frame: Frame, plmap: PLMap2D, layer_index, X, cells=None, out=None):
    """The layer of ``frame`` and ``plmap`` on a (3, N) block of rows: the
    image rows, and ``(tri, bary)`` with ``bary`` the (N, 3) view of (3, N)
    rows.  ``layer_index`` names the layer in location errors.  ``cells``,
    a pair of an (N,) int64 array and a (3, N) block, takes the cells in
    place of new arrays, and ``out`` the image rows (see ``_step_rows``)."""
    return _step_rows(frame, X, plmap.corners, lambda p: mesh2d.locate_points(
        plmap.mesh, p, layer_index=layer_index, out=cells), out)


def inverse_rows(frame: Frame, plmap: PLMap2D, layer_index, X, out=None):
    """The inverse of :func:`forward_rows` on a (3, N) block of image rows:
    the preimage rows, ``tri`` and the (N, 3) barycentrics.  ``out`` takes
    the preimage rows, as in ``forward_rows``."""
    return _step_rows(frame, X, plmap.mesh.corners, lambda p: mesh2d.locate_image_points(
        plmap, p, layer_index=layer_index), out)


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


def _point_array(points):
    """``points`` as a float64 array; ValueError unless its shape is (N, 3)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
    return pts


# The (N, 3) forms of the row steps, for one layer.  The points come second:
# bench/tracing.py wraps these three by name and counts their second argument.
def map_points(frame: Frame, points, plmap: PLMap2D, layer_index=0):
    """Apply the layer of ``frame`` and ``plmap`` to an (N, 3) batch."""
    return forward_rows(frame, plmap, layer_index, _point_array(points).T)[0].T


def jacobians(frame: Frame, points, plmap: PLMap2D, layer_index=0):
    """Per-point 3x3 Jacobians ``R lift(A_t) R^T`` for an (N, 3) batch."""
    tri = forward_rows(frame, plmap, layer_index, _point_array(points).T)[1]
    return apply_lifted(frame, plmap.factors(tri), np.eye(3)[:, :, None]).transpose(2, 0, 1)


def invert_points(frame: Frame, points, plmap: PLMap2D, layer_index=0):
    """Preimages of an (N, 3) batch; points must lie in the layer's image."""
    return inverse_rows(frame, plmap, layer_index, _point_array(points).T)[0].T
