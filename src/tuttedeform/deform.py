"""Deep composition of prismatic layers into one injective 3D deformation.

A deformation net is an ordered list of prismatic layers; the net applies
layer 0 first.  Injectivity of the composite follows from injectivity of
every layer, and the chain rule gives its Jacobian as the product of the
per-layer Jacobians evaluated along the orbit of the point, multiplied out
as (3, 3, N) row stacks and returned as their (N, 3, 3) transposed views.
The inverse composes the per-layer inverses in reverse order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import prism
from .mesh2d import Mesh2D, _inv22, _readonly, _reject_non_finite
from .prism import Frame, PrismLayer
from .tutte import TutteLayerParams, TutteSystem, solve_tutte_with_system


@dataclass(frozen=True)
class PointSet:
    """A batch of 3D points with optional nonnegative per-point weights."""

    points: np.ndarray             # (N, 3)
    weights: Optional[np.ndarray] = None  # (N,)

    def __post_init__(self):
        pts = _point_array(self.points)
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite values")
        object.__setattr__(self, "points", _readonly(pts))
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (pts.shape[0],):
                raise ValueError(
                    f"weights must have shape ({pts.shape[0]},), got {w.shape}")
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValueError("weights must be finite and nonnegative")
            object.__setattr__(self, "weights", _readonly(w))

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class DeformationNet:
    """Composition of prismatic layers; layer 0 is applied first.

    ``layers`` and ``system`` are a pure cache of ``params``: re-realizing
    the stored parameters reproduces them exactly.  ``system`` is the one
    ``TutteSystem`` of all layers: the band factor the adjoint solves reuse,
    and the stacked raw parameters, weights, positions, ``A`` and ``det``
    that each layer's map views and the backward reads.
    """

    mesh: Mesh2D
    params: tuple                  # tuple[TutteLayerParams]
    frames: tuple                  # tuple[Frame]
    layers: tuple                  # tuple[PrismLayer]
    system: TutteSystem

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def realize(mesh: Mesh2D, params: Sequence[TutteLayerParams],
            frames: Sequence[Frame]) -> DeformationNet:
    """Solve every layer and assemble the composite net.

    Validates shapes, then solves all layers with one stacked call that
    certifies injectivity over every triangle of every layer (strictly
    positive determinants).  Raises ValueError on empty or mismatched
    inputs.
    """
    params = tuple(params)
    frames = tuple(frames)
    if len(params) == 0:
        raise ValueError("a deformation net needs at least one layer")
    if len(params) != len(frames):
        raise ValueError(
            f"got {len(params)} parameter sets but {len(frames)} frames")
    maps, system = solve_tutte_with_system(mesh, params)
    layers = tuple(PrismLayer(frame=f, plmap=plmap, layer_index=idx)
                   for idx, (plmap, f) in enumerate(zip(maps, frames)))
    return DeformationNet(mesh=mesh, params=params, frames=frames,
                          layers=layers, system=system)


def _point_array(points):
    """``points`` as a float64 array; ValueError unless its shape is (N, 3)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
    return pts


def _as_array(points):
    if isinstance(points, PointSet):
        return points.points, points.weights
    pts = _point_array(points)
    _reject_non_finite(pts)
    return pts, None


def _walk(net: DeformationNet, pts):
    """Yield ``(layer, tri, bary, out)`` per layer: input cells and outputs.

    A generator, so ``forward`` and ``jacobians`` hold one layer's cells at a time.
    """
    out = pts
    for layer in net.layers:
        out, tri, bary = prism.forward_step(layer, out)
        yield layer, tri, bary, out


def forward(net: DeformationNet, points):
    """Apply the full composition to a PointSet (or (N, 3) array).

    Returns the same container kind as the input; weights pass through
    untouched.
    """
    pts, weights = _as_array(points)
    for _, _, _, out in _walk(net, pts):
        pass
    if isinstance(points, PointSet):
        return PointSet(points=out, weights=weights)
    return out


def _walk_back(net: DeformationNet, pts):
    """Yield ``(layer, tri, out)`` per layer, last layer first: the image-side
    cell of each point and its preimage.  The reverse of ``_walk``."""
    out = pts
    for layer in reversed(net.layers):
        out, tri = prism.inverse_step(layer, out)
        yield layer, tri, out


def inverse(net: DeformationNet, points):
    """Apply the inverse composition (layers inverted in reverse order)."""
    pts, weights = _as_array(points)
    for _, _, out in _walk_back(net, pts):
        pass
    if isinstance(points, PointSet):
        return PointSet(points=out, weights=weights)
    return out


def jacobians(net: DeformationNet, points):
    """(N, 3, 3) Jacobians of the composite map along each point's orbit."""
    pts, _ = _as_array(points)
    J = np.eye(3)[:, :, None]
    for layer, tri, _, _ in _walk(net, pts):
        # ``take`` gathers the same rows as ``A[tri]``, several times faster.
        J = prism.apply_lifted(layer.frame, layer.plmap.A.take(tri, axis=0), J)
    return J.transpose(2, 0, 1)


def inverse_jacobians(net: DeformationNet, points):
    """(N, 3, 3) Jacobians of the inverse map at image-space points.

    Each layer contributes the inverse Jacobian of the cell its image-side
    locator found; the chain multiplies out as M_1^-1 ... M_k^-1.
    """
    pts, _ = _as_array(points)
    J = np.eye(3)[:, :, None]
    for layer, tri, _ in _walk_back(net, pts):
        J = prism.apply_lifted(layer.frame, _inv22(layer.plmap.A.take(tri, axis=0)), J)
    return J.transpose(2, 0, 1)


@dataclass
class OrbitTrace:
    """Per-layer location data recorded during a forward pass.

    Everything the backward pass needs to turn output/Jacobian cotangents
    into per-layer vertex-position cotangents: the triangle and barycentric
    coordinates of every point at every layer, and (when Jacobian losses are
    in play) the running Jacobian products entering each layer, as row
    stacks: ``prefixes[l, i, j]`` holds entry (i, j) for every point.
    """

    points: np.ndarray     # (N, 3) inputs
    outputs: np.ndarray    # (N, 3) final images
    tris: np.ndarray       # (L, N) triangle index per layer
    barys: np.ndarray      # (L, N, 3)
    jac: Optional[np.ndarray] = None       # (N, 3, 3) full-composite Jacobians
    prefixes: Optional[np.ndarray] = None  # (L, 3, 3, N) product before layer l


def forward_trace(net: DeformationNet, points, need_jacobian: bool = False) -> OrbitTrace:
    """Forward pass that records orbits (and optionally Jacobian prefixes)."""
    pts, _ = _as_array(points)
    n = pts.shape[0]
    L = net.num_layers
    tris = np.empty((L, n), dtype=np.int64)
    barys = np.empty((L, n, 3))
    prefixes = np.empty((L, 3, 3, n)) if need_jacobian else None
    J = np.eye(3)[:, :, None]

    for l, (layer, tri, bary, out) in enumerate(_walk(net, pts)):
        tris[l] = tri
        barys[l] = bary
        if need_jacobian:
            prefixes[l] = J
            J = prism.apply_lifted(layer.frame, layer.plmap.A.take(tri, axis=0), J)
    return OrbitTrace(points=pts, outputs=out, tris=tris, barys=barys,
                      jac=J.transpose(2, 0, 1) if need_jacobian else None,
                      prefixes=prefixes)
