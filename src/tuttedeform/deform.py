"""Deep composition of prismatic layers into one injective 3D deformation.

A deformation net is an ordered list of prismatic layers; the net applies
layer 0 first.  Injectivity of the composite follows from injectivity of
every layer, and the chain rule gives its Jacobian as the product of the
per-layer Jacobians evaluated along the orbit of the point, multiplied out
as (3, 3, N) row stacks and returned as their (N, 3, 3) transposed views.
The inverse composes the per-layer inverses in reverse order.

Inside, a batch walks the layers as a (3, N) block of rows, one per
coordinate (``prism.forward_rows``); the (N, 3) arrays the functions take
are read through their transposed view, and the ones they return are the
(N, 3) transposed views of the last block.
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


def _walk(net: DeformationNet, pts, cells=None):
    """Yield ``(layer, tri, out)`` per layer: each point's input cell, and the
    (3, N) rows of the layer's images.  ``cells``, a pair of (L, N) and
    (L, 3, N) arrays, takes every layer's triangles and barycentric rows.

    A generator, so ``forward`` and ``jacobians`` hold one layer's cells at a time.
    """
    out = pts.T
    for l, layer in enumerate(net.layers):
        out, tri, _ = prism.forward_rows(
            layer, out, None if cells is None else (cells[0][l], cells[1][l]))
        yield layer, tri, out


def forward(net: DeformationNet, points):
    """Apply the full composition to a PointSet (or (N, 3) array).

    Returns the same container kind as the input; weights pass through
    untouched.
    """
    pts, weights = _as_array(points)
    for _, _, out in _walk(net, pts):
        pass
    if isinstance(points, PointSet):
        return PointSet(points=out.T, weights=weights)
    return out.T


def _walk_back(net: DeformationNet, pts):
    """Yield ``(layer, tri, out)`` per layer, last layer first: the image-side
    cell of each point and the (3, N) rows of its preimages.  The reverse
    of ``_walk``."""
    out = pts.T
    for layer in reversed(net.layers):
        out, tri, _ = prism.inverse_rows(layer, out)
        yield layer, tri, out


def inverse(net: DeformationNet, points):
    """Apply the inverse composition (layers inverted in reverse order)."""
    pts, weights = _as_array(points)
    for _, _, out in _walk_back(net, pts):
        pass
    if isinstance(points, PointSet):
        return PointSet(points=out.T, weights=weights)
    return out.T


def _chain(steps, factors):
    """The (3, 3, N) row stack of the Jacobian product over ``steps``, with
    ``factors(layer, tri)`` each layer's (N, 2, 2) blocks.  Two buffers
    take turns holding the product."""
    J = spare = None
    for layer, tri, _ in steps:
        X = np.eye(3)[:, :, None] if J is None else J
        J, spare = prism.apply_lifted(layer.frame, factors(layer, tri), X, out=spare), J
    return J


def jacobians(net: DeformationNet, points):
    """(N, 3, 3) Jacobians of the composite map along each point's orbit."""
    pts, _ = _as_array(points)
    return _chain(_walk(net, pts),
                  lambda layer, tri: layer.plmap.factors(tri)).transpose(2, 0, 1)


def inverse_jacobians(net: DeformationNet, points):
    """(N, 3, 3) Jacobians of the inverse map at image-space points.

    Each layer contributes the inverse Jacobian of the cell its image-side
    locator found; the chain multiplies out as M_1^-1 ... M_k^-1.
    """
    pts, _ = _as_array(points)
    return _chain(_walk_back(net, pts),
                  lambda layer, tri: _inv22(layer.plmap.factors(tri))).transpose(2, 0, 1)


@dataclass
class OrbitTrace:
    """Per-layer location data recorded during a forward pass.

    Everything the backward pass needs to turn output/Jacobian cotangents
    into per-layer vertex-position cotangents: the triangle and barycentric
    coordinates of every point at every layer, and (when Jacobian losses are
    in play) the running Jacobian products entering each layer, as row
    stacks: ``prefixes[l, i, j]`` holds entry (i, j) for every point.
    ``outputs`` and ``barys`` are transposed views of row blocks, so
    ``outputs.T`` and ``barys[l].T`` are contiguous (3, N) rows.
    """

    points: np.ndarray     # (N, 3) inputs
    outputs: np.ndarray    # (N, 3) final images: the view of (3, N) rows
    tris: np.ndarray       # (L, N) triangle index per layer
    barys: np.ndarray      # (L, N, 3): the view of (L, 3, N) rows
    jac: Optional[np.ndarray] = None       # (N, 3, 3) full-composite Jacobians
    prefixes: Optional[np.ndarray] = None  # (L, 3, 3, N) product before layer l


def forward_trace(net: DeformationNet, points, need_jacobian: bool = False) -> OrbitTrace:
    """Forward pass that records orbits (and optionally Jacobian prefixes).

    The walk writes each layer's cells straight into the trace, and each
    Jacobian product straight into the next prefix."""
    pts, _ = _as_array(points)
    n = pts.shape[0]
    L = net.num_layers
    tris = np.empty((L, n), dtype=np.int64)
    barys = np.empty((L, 3, n))
    chain = np.empty((L + 1, 3, 3, n)) if need_jacobian else None
    if need_jacobian:
        chain[0] = np.eye(3)[:, :, None]

    for l, (layer, tri, out) in enumerate(_walk(net, pts, (tris, barys))):
        if need_jacobian:
            prism.apply_lifted(layer.frame, layer.plmap.factors(tri), chain[l],
                               out=chain[l + 1])
    return OrbitTrace(points=pts, outputs=out.T, tris=tris,
                      barys=barys.transpose(0, 2, 1),
                      jac=chain[L].transpose(2, 0, 1) if need_jacobian else None,
                      prefixes=chain[:L] if need_jacobian else None)
