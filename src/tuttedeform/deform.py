"""Deep composition of prismatic layers into one injective 3D deformation.

A deformation net is an ordered list of prismatic layers, each a frame and
a realized 2D map (``frames[l]``, ``maps[l]``); the net applies layer 0
first.  Injectivity of the composite follows from injectivity of
every layer, and the chain rule gives its Jacobian as the product of the
per-layer Jacobians evaluated along the orbit of the point, multiplied out
as (3, 3, N) row stacks and returned as their (N, 3, 3) transposed views.
The inverse composes the per-layer inverses in reverse order.

Inside, a batch walks the layers as a (3, N) block of rows, one per
coordinate (``prism.forward_rows``); the (N, 3) arrays the functions take
are read through their transposed view, and the ones they return are the
(N, 3) transposed views of the last block.  The maps and their Jacobians
walk a batch of more than ``_BLOCK`` points in blocks of that many, each
through every layer, so that a block's rows and its per-layer temporaries
fit in cache.  A walk writes each layer's rows, cells and Jacobian
products into buffers that every layer and every block of the call reuses,
instead of faulting in fresh pages.  Points are independent, so the bits
are those of one walk over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import prism
from .errors import DeformError
from .mesh2d import Mesh2D, PLMap2D, _readonly, _reject_non_finite
from .prism import Frame, _point_array
from .tutte import TutteLayerParams, TutteSystem, solve_tutte_with_system, stack_params


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

    Layer l is ``frames[l]`` and ``maps[l]``.  ``system``, the one
    ``TutteSystem`` of all layers, holds the net's only copy of its raw
    parameters (``params``, one stack), the band factor the adjoint solves
    reuse, and the stacked weights, positions, ``A`` and ``det`` that the
    maps view and the backward reads.  ``maps`` is a pure cache:
    re-realizing ``params`` reproduces it exactly.
    """

    mesh: Mesh2D
    frames: tuple                  # tuple[Frame]
    maps: tuple                    # tuple[PLMap2D]
    system: TutteSystem

    @property
    def params(self) -> TutteLayerParams:
        return self.system.params

    @property
    def num_layers(self) -> int:
        return len(self.maps)


def realize(mesh: Mesh2D, params, frames: Sequence[Frame]) -> DeformationNet:
    """Solve every layer and assemble the composite net.

    ``params`` is one stacked TutteLayerParams, or a sequence of per-layer
    ones to stack.  One stacked solve certifies injectivity over every
    triangle of every layer (strictly positive determinants).  Raises
    ValueError on empty or mismatched inputs.
    """
    params, frames = stack_params(params), tuple(frames)
    L = len(params.raw_edge_weights)
    if L != len(frames):
        raise ValueError(f"got {L} parameter sets but {len(frames)} frames")
    maps, system = solve_tutte_with_system(mesh, params)
    return DeformationNet(mesh=mesh, frames=frames, maps=maps, system=system)


def _as_array(points):
    if isinstance(points, PointSet):
        return points.points, points.weights
    pts = _point_array(points)
    _reject_non_finite(pts)
    return pts, None


# Batches above this many points walk in blocks of this many.  Medians on a
# shared 2-core x86 box, one BLAS thread, with the walks' reused buffers:
# 1e5 points through 24 res-25 layers take 88-123 ms in blocks of 4096 to
# 65536, 120 ms in one walk and 176 ms in blocks of 2048.  Paired against
# 16384, blocks of 8192 tie on that forward (78.3 vs 77.9 ms, 6 of 12 wins)
# and lose on 1e4 Jacobians (15.2 vs 13.1 ms) and 1e4 inverses (35.2 vs
# 29.4 ms), which they split in two.
_BLOCK = 1 << 14


def _in_blocks(walk, pts):
    """``walk(pts, scratch)``, the (..., N) array of a walk of the (N, 3)
    ``pts``, in blocks of ``_BLOCK`` points written into slices of one
    output.  Every block's walk is handed the same ``scratch`` dict, whose
    buffers (see ``_buffer``) it reuses; a block's result is copied out
    before the next block overwrites them.

    A point that fails in a block fails in one walk over the batch too,
    which is then run to raise that walk's error: the first failing layer
    in walk order and its first failing point, indexed in the batch."""
    n = len(pts)
    scratch = {}
    if n <= _BLOCK:
        return walk(pts, scratch)
    out = None
    try:
        for lo in range(0, n, _BLOCK):
            rows = walk(pts[lo:lo + _BLOCK], scratch)
            if out is None:
                out = np.empty(rows.shape[:-1] + (n,))
            out[..., lo:lo + _BLOCK] = rows
    except DeformError:
        walk(pts, {})
        raise
    return out


def _buffer(scratch, key, shape, dtype=np.float64):
    """An array of ``shape`` from the ``scratch`` dict of a walk: the first
    ``shape[-1]`` columns of the one held under ``key``, which the first
    request (a batch's first block, its largest) allocates."""
    if key not in scratch:
        scratch[key] = np.empty(shape, dtype)
    return scratch[key][..., :shape[-1]]


def _walk(net: DeformationNet, pts, cells=None, scratch=None):
    """Yield ``(l, tri, out)`` per layer l: each point's input cell, and the
    (3, N) rows of the layer's images.  ``cells``, a pair of (L, N) and
    (L, 3, N) arrays, takes every layer's triangles and barycentric rows;
    without it, every layer's cells go to one scratch pair.

    A generator, so ``forward`` and ``jacobians`` hold one layer's cells at a
    time.  The images alternate between two scratch row blocks, and the
    scratch cells are overwritten by the next layer: a step's ``tri`` and
    ``out`` hold until the walk resumes, and the last ``out`` until
    ``scratch`` is handed to another walk.
    """
    scratch = {} if scratch is None else scratch
    n = len(pts)
    rows = [_buffer(scratch, k, (3, n)) for k in ("rows0", "rows1")]
    if cells is None:
        cell = (_buffer(scratch, "tri", (n,), np.int64), _buffer(scratch, "bary", (3, n)))
    out = pts.T
    for l, (frame, plmap) in enumerate(zip(net.frames, net.maps)):
        if cells is not None:
            cell = (cells[0][l], cells[1][l])
        out, tri, _ = prism.forward_rows(frame, plmap, l, out, cell, out=rows[l % 2])
        yield l, tri, out


def _last(steps):
    """The (3, N) rows of the last step of a walk."""
    for _, _, out in steps:
        pass
    return out


def forward(net: DeformationNet, points):
    """Apply the full composition to a PointSet (or (N, 3) array).

    Returns the same container kind as the input; weights pass through
    untouched.  A batch of more than ``_BLOCK`` points walks in blocks of
    that many, with the same bits and the same errors as one walk.
    """
    pts, weights = _as_array(points)
    out = _in_blocks(lambda p, scratch: _last(_walk(net, p, scratch=scratch)), pts)
    if isinstance(points, PointSet):
        return PointSet(points=out.T, weights=weights)
    return out.T


def _walk_back(net: DeformationNet, pts, scratch=None):
    """Yield ``(l, tri, out)`` per layer l, last layer first: the image-side
    cell of each point and the (3, N) rows of its preimages.  The reverse
    of ``_walk``, with its two scratch row blocks."""
    scratch = {} if scratch is None else scratch
    rows = [_buffer(scratch, k, (3, len(pts))) for k in ("rows0", "rows1")]
    out = pts.T
    for l in reversed(range(net.num_layers)):
        out, tri, _ = prism.inverse_rows(net.frames[l], net.maps[l], l, out, out=rows[l % 2])
        yield l, tri, out


def inverse(net: DeformationNet, points):
    """Apply the inverse composition (layers inverted in reverse order).

    Walks a batch of more than ``_BLOCK`` points in blocks, as ``forward``
    does."""
    pts, weights = _as_array(points)
    out = _in_blocks(lambda p, scratch: _last(_walk_back(net, p, scratch)), pts)
    if isinstance(points, PointSet):
        return PointSet(points=out.T, weights=weights)
    return out.T


def _chain(net, steps, factors, scratch):
    """The (3, 3, N) row stack of the Jacobian product over the ``steps`` of
    a walk of ``net``, with ``factors(plmap, tri)`` each layer's (N, 2, 2)
    blocks.  Two ``scratch`` buffers take turns holding the product."""
    J = None
    for l, tri, _ in steps:
        X = np.eye(3)[:, :, None] if J is None else J
        J = prism.apply_lifted(net.frames[l], factors(net.maps[l], tri), X,
                               out=_buffer(scratch, f"J{l % 2}", (3, 3, len(tri))))
    return J


def jacobians(net: DeformationNet, points):
    """(N, 3, 3) Jacobians of the composite map along each point's orbit.

    Walks a batch of more than ``_BLOCK`` points in blocks, as ``forward``
    does, into one (3, 3, N) row stack."""
    pts, _ = _as_array(points)
    return _in_blocks(lambda p, scratch: _chain(net, _walk(net, p, scratch=scratch),
                                                PLMap2D.factors, scratch),
                      pts).transpose(2, 0, 1)


def inverse_jacobians(net: DeformationNet, points):
    """(N, 3, 3) Jacobians of the inverse map at image-space points.

    Each layer contributes the inverse Jacobian of the cell its image-side
    locator found, from the ``inv(A)`` rows that locator holds; the chain
    multiplies out as M_1^-1 ... M_k^-1.  Walks
    a batch of more than ``_BLOCK`` points in blocks, as ``jacobians`` does.
    """
    pts, _ = _as_array(points)
    return _in_blocks(lambda p, scratch: _chain(net, _walk_back(net, p, scratch),
                                                PLMap2D.inverse_factors, scratch),
                      pts).transpose(2, 0, 1)


@dataclass
class OrbitTrace:
    """Per-layer location data recorded during a forward pass.

    Everything the backward pass needs to turn output/Jacobian cotangents
    into per-layer vertex-position cotangents: the triangle and barycentric
    coordinates of every point at every layer, and (when Jacobian losses are
    in play) the running Jacobian products entering each layer, as row
    stacks: ``prefixes[l, i, j]`` holds entry (i, j) for every point.
    ``outputs`` and ``barys`` are transposed views of row blocks, so
    ``outputs.T`` and ``barys[l].T`` are contiguous (3, N) rows;
    ``prefixes`` and ``jac`` are views of one (L + 1, 3, 3, N) block.
    """

    points: np.ndarray     # (N, 3) inputs
    outputs: np.ndarray    # (N, 3) final images: the view of (3, N) rows
    tris: np.ndarray       # (L, N) triangle index per layer
    barys: np.ndarray      # (L, N, 3): the view of (L, 3, N) rows
    jac: Optional[np.ndarray] = None       # (N, 3, 3) full-composite Jacobians
    prefixes: Optional[np.ndarray] = None  # (L, 3, 3, N) product before layer l
    _products: Optional[np.ndarray] = field(  # the prefixes, then jac's rows
        default=None, init=False, repr=False, compare=False)


def forward_trace(net: DeformationNet, points, need_jacobian: bool = False,
                  out: Optional[OrbitTrace] = None) -> OrbitTrace:
    """Forward pass that records orbits (and optionally Jacobian prefixes).

    The walk writes each layer's cells straight into the trace, and each
    Jacobian product straight into the next prefix.  The batch walks at
    once, however large: the trace holds every layer's cells anyway.

    ``out``, an earlier trace, takes this one in place when it has as many
    layers and points and Jacobians alike: its ``tris``, ``barys`` and
    prefix block are overwritten, and ``out`` is returned.  Otherwise the
    call allocates new arrays and leaves ``out`` as it was.  An optimizer
    passes its last step's trace, so that each step refills the same pages.
    """
    pts, _ = _as_array(points)
    n = pts.shape[0]
    L = net.num_layers
    if (out is not None and out.tris.shape == (L, n)
            and (out._products is not None) == need_jacobian):
        tris, barys, chain = out.tris, out.barys.transpose(0, 2, 1), out._products
    else:
        out = None
        tris = np.empty((L, n), dtype=np.int64)
        barys = np.empty((L, 3, n))
        chain = np.empty((L + 1, 3, 3, n)) if need_jacobian else None
    if need_jacobian:
        chain[0] = np.eye(3)[:, :, None]

    for l, tri, rows in _walk(net, pts, (tris, barys)):
        if need_jacobian:
            prism.apply_lifted(net.frames[l], net.maps[l].factors(tri), chain[l],
                               out=chain[l + 1])
    if out is not None:  # its views of the arrays refilled above stand
        out.points, out.outputs = pts, rows.T
        return out
    trace = OrbitTrace(points=pts, outputs=rows.T, tris=tris,
                       barys=barys.transpose(0, 2, 1),
                       jac=chain[L].transpose(2, 0, 1) if need_jacobian else None,
                       prefixes=chain[:L] if need_jacobian else None)
    trace._products = chain
    return trace
