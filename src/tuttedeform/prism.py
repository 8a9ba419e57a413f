"""Prismatic 3D layers: a 2D mesh deformation extruded along a rotated axis.

A layer deforms 3D space by rotating into a local frame, applying the 2D
piecewise-linear map to the local xy coordinates while the local z passes
through unchanged, and rotating back:

    layer(p) = R @ lift(R^T @ p),   lift(x, y, z) = (plmap(x, y), z)

Because the 2D map is injective on the square and z is preserved, each layer
is injective on its slab domain.  Its Jacobian at p is the constant matrix
``R @ lifted(A_t) @ R^T`` of the prism cell containing p, with singular
value exactly 1 along the frame's extrusion axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh2d
from .mesh2d import PLMap2D, _readonly


@dataclass(frozen=True)
class Frame:
    """A proper rotation fixing a layer's extrusion axis (local z)."""

    rotation: np.ndarray  # (3, 3)

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64)
        if R.shape != (3, 3):
            raise ValueError(f"frame rotation must be 3x3, got {R.shape}")
        if np.abs(R @ R.T - np.eye(3)).max() > 1e-10 or np.linalg.det(R) < 0.0:
            raise ValueError("frame rotation must be a proper rotation (R R^T = I, det +1)")
        object.__setattr__(self, "rotation", _readonly(R))

    @property
    def axis(self):
        """The extrusion axis in world coordinates (local z)."""
        return self.rotation[:, 2]


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
_TRIPLANE = (
    np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
    np.eye(3),
)


def triplane_frames(count: int):
    """``count`` frames cycling the world x, y, z axes as extrusion axis."""
    if count < 1:
        raise ValueError(f"frame count must be >= 1, got {count}")
    return [Frame(rotation=_TRIPLANE[i % 3].copy()) for i in range(count)]


@dataclass(frozen=True)
class PrismLayer:
    """One injective 3D layer: a frame plus a realized 2D map."""

    frame: Frame
    plmap: PLMap2D
    layer_index: int = 0


def forward_step(layer: PrismLayer, points):
    """Images of an (N, 3) batch plus the cell ``(tri, bary)`` of each point."""
    R = layer.frame.rotation
    local = np.asarray(points, dtype=np.float64) @ R  # row-wise R^T p
    tri, bary = mesh2d.locate_points(layer.plmap.mesh, local[:, :2],
                                     layer_index=layer.layer_index)
    xy = mesh2d.interpolate(layer.plmap.vertex_positions,
                            layer.plmap.mesh.triangles, tri, bary)
    return np.column_stack([xy, local[:, 2]]) @ R.T, tri, bary


def inverse_step(layer: PrismLayer, points):
    """Preimages of an (N, 3) batch in the layer's image, plus each cell ``tri``."""
    R = layer.frame.rotation
    local = np.asarray(points, dtype=np.float64) @ R
    tri, bary = mesh2d.locate_image_points(layer.plmap, local[:, :2],
                                           layer_index=layer.layer_index)
    xy = mesh2d.interpolate(layer.plmap.mesh.vertices,
                            layer.plmap.mesh.triangles, tri, bary)
    return np.column_stack([xy, local[:, 2]]) @ R.T, tri


def cell_jacobians(layer: PrismLayer, tri):
    """(N, 3, 3) Jacobians ``R lift(A_t) R^T`` of the prism cells ``tri``."""
    A = layer.plmap.A[tri]
    lifted = np.zeros((A.shape[0], 3, 3))
    lifted[:, :2, :2] = A
    lifted[:, 2, 2] = 1.0
    R = layer.frame.rotation
    return np.einsum("ij,njk,lk->nil", R, lifted, R)


def map_points(layer: PrismLayer, points):
    """Apply the layer to an (N, 3) batch of world-space points."""
    return forward_step(layer, points)[0]


def jacobians(layer: PrismLayer, points):
    """Per-point 3x3 Jacobians ``R lift(A_t) R^T`` for an (N, 3) batch."""
    return cell_jacobians(layer, forward_step(layer, points)[1])


def invert_points(layer: PrismLayer, points):
    """Preimages of an (N, 3) batch; points must lie in the layer's image."""
    return inverse_step(layer, points)[0]
