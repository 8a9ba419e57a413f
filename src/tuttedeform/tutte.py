"""Injective 2D mesh deformations from convex-boundary harmonic solves.

A layer's 2D deformation is produced by pinning the mesh boundary onto a
convex polygon inscribed in the unit square and solving, for every interior
vertex, the convex-combination balance

    sum_j w_ij (u_j - u_i) = 0

with strictly positive edge weights.  The classical embedding theorem for
such systems guarantees the resulting piecewise-linear map is injective;
this module certifies that guarantee numerically (all per-triangle
determinants strictly positive) on every solve.

All L layers of a net are solved by one call over a leading layer axis,
:func:`solve_tutte_with_system`: one assembly of the L interior blocks into
one block-diagonal band, one banded Cholesky factor of it, and one
certificate over every triangle of every layer.  Each layer is then solved
against its own column slice of that factor by one LAPACK ``pbtrs`` call;
:func:`tutte_backward` reuses the factor the same way for the adjoint solves
that yield the raw-parameter gradients.  Any exact solve keeps the guarantee
(Floater 2003).  The solves stay one per layer: a single ``pbtrs`` over the
whole stacked factor moves some vertices by one ulp at resolution 19 and
above, while the per-layer solves are bit-identical to solving each layer
on its own.

Parameterization
----------------
Both the edge weights and the boundary polygon come from unconstrained raw
parameters through the bounded sigmoid ``squash``:

* edge weights: ``w = squash(raw, 0.2)``, one per mesh edge, range (0.2, 0.8);
* boundary: one raw increment per boundary vertex.  Increments are squashed
  with eps 0.1, normalized side by side so each side of the square spans a
  quarter turn, accumulated into angles, and intersected with the square.

The per-side normalization pins the four mesh corners onto the four square
corners.  A single global normalization (all increments summing to one full
turn) would let three consecutive boundary vertices land on one straight
edge of the square; the two mesh triangles whose vertices are three
consecutive boundary vertices would then degenerate to zero area and the
injectivity certificate would fail.  Pinning the corners removes that case
while keeping the same raw parameter count and the same squashed bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, get_lapack_funcs
from scipy.special import expit

from .errors import InternalError
from .mesh2d import Mesh2D, PLMap2D, _det22, _edge_matrices, _readonly, corner_columns
# Not called here: bench/tracing.py wraps ``tutte.realize_plmap`` by name.
from .mesh2d import realize_plmap  # noqa: F401

EDGE_WEIGHT_EPS = 0.2
BOUNDARY_EPS = 0.1
# LAPACK's banded Cholesky solve, called directly: SciPy's cho_solve_banded
# wrapper costs twice the solve itself at the sizes of one layer.
_PBTRS, = get_lapack_funcs(("pbtrs",), dtype=np.float64)


def squash(x, eps):
    """Bounded sigmoid ``sigmoid(x) * (1 - 2 eps) + eps``, range (eps, 1-eps)."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 0.5), got {eps}")
    return expit(np.asarray(x, dtype=np.float64)) * (1.0 - 2.0 * eps) + eps


def squash_derivative(x, eps):
    """Exact derivative of :func:`squash` with respect to ``x``."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 0.5), got {eps}")
    s = expit(np.asarray(x, dtype=np.float64))
    return s * (1.0 - s) * (1.0 - 2.0 * eps)


@dataclass(frozen=True)
class TutteLayerParams:
    """Raw (unconstrained) parameters of one layer's 2D deformation, or of
    L layers stacked along a leading axis."""

    raw_edge_weights: np.ndarray         # (E,) or (L, E)
    raw_boundary_increments: np.ndarray  # (4(n-1),) or (L, 4(n-1))

    def __post_init__(self):
        object.__setattr__(self, "raw_edge_weights",
                           _readonly(np.asarray(self.raw_edge_weights, dtype=np.float64)))
        object.__setattr__(self, "raw_boundary_increments",
                           _readonly(np.asarray(self.raw_boundary_increments, dtype=np.float64)))
        e, b = self.raw_edge_weights, self.raw_boundary_increments
        if e.ndim not in (1, 2) or e.shape[:-1] != b.shape[:-1]:
            raise ValueError("layer parameters must be 1D arrays, or 2D with one row per layer")
        if not (np.all(np.isfinite(self.raw_edge_weights))
                and np.all(np.isfinite(self.raw_boundary_increments))):
            raise ValueError("layer parameters contain non-finite values")


def validate_params(mesh: Mesh2D, params: TutteLayerParams):
    e, m = mesh.edges.shape[0], mesh.boundary_loop.size
    if params.raw_edge_weights.shape[-1] != e:
        raise ValueError(
            f"expected {e} raw edge weights for resolution {mesh.resolution}, "
            f"got {params.raw_edge_weights.shape[-1]}")
    if params.raw_boundary_increments.shape[-1] != m:
        raise ValueError(
            f"expected {m} raw boundary increments for resolution {mesh.resolution}, "
            f"got {params.raw_boundary_increments.shape[-1]}")


@dataclass(frozen=True)
class ConvexBoundary:
    """Boundary polygon of one layer (or of each of L stacked layers):
    angles and positions per loop vertex."""

    angles: np.ndarray  # (..., m) strictly increasing, anchored at -3*pi/4
    points: np.ndarray  # (..., m, 2) on the boundary of [-1, 1]^2


def _ray_square(angles):
    """Intersection of the ray at each angle from origin with the unit square."""
    d = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return d / np.max(np.abs(d), axis=-1, keepdims=True)


def _boundary_angles(mesh: Mesh2D, raw):
    """Boundary angles of raw increments (..., m), the per-side partial sums
    ``below`` each vertex (..., 4, q) and the side totals (..., 4, 1)."""
    q = mesh.resolution - 1
    s = squash(raw, BOUNDARY_EPS).reshape(raw.shape[:-1] + (4, q))
    below = np.concatenate(
        [np.zeros(s.shape[:-1] + (1,)), np.cumsum(s, axis=-1)[..., :-1]], axis=-1)
    totals = s.sum(axis=-1, keepdims=True)
    corners = -0.75 * np.pi + 0.5 * np.pi * np.arange(4)
    angles = (corners[:, None] + 0.5 * np.pi * below / totals).reshape(raw.shape)
    return angles, below, totals


def build_boundary(mesh: Mesh2D, params: TutteLayerParams) -> ConvexBoundary:
    """Boundary polygon from raw increments.

    Squashed increments are normalized within each side of the loop so that
    each side spans pi/2 (total 2*pi) and accumulated into angles anchored
    at the first boundary vertex's rest direction (-3*pi/4, corner (-1,-1)).
    Every point lands exactly on the boundary of the square; mesh corners
    land exactly on square corners.
    """
    validate_params(mesh, params)
    angles = _boundary_angles(mesh, params.raw_boundary_increments)[0]
    return ConvexBoundary(angles=_readonly(angles), points=_readonly(_ray_square(angles)))


def boundary_rest_angles(mesh: Mesh2D):
    """Unwrapped polar angles of the rest boundary loop, starting at -3*pi/4."""
    v = mesh.vertices[mesh.boundary_loop]
    return np.unwrap(np.arctan2(v[:, 1], v[:, 0]))


def identity_params(mesh: Mesh2D) -> TutteLayerParams:
    """Parameters whose solve reproduces the rest grid (the identity layer).

    Uniform weights make the rest lattice harmonic under the symmetric
    six-neighbor stencil, so it suffices to place the boundary at its rest
    positions: raw increments are chosen so the squashed, side-normalized
    angles equal the rest directions exactly (the common scale cancels in
    the normalization).
    """
    theta = boundary_rest_angles(mesh)
    theta = np.append(theta, -0.75 * np.pi + 2.0 * np.pi)
    inc = np.diff(theta).reshape(4, mesh.resolution - 1)
    s = 0.5 * inc / inc.mean(axis=1, keepdims=True)  # within (0.1, 0.9)
    p = (s - BOUNDARY_EPS) / (1.0 - 2.0 * BOUNDARY_EPS)
    raw_boundary = np.log(p / (1.0 - p)).ravel()
    return TutteLayerParams(
        raw_edge_weights=np.zeros(mesh.edges.shape[0]),
        raw_boundary_increments=raw_boundary,
    )


def _layer_solve(factor, l, rhs):
    """Solve layer ``l``'s interior system for a ``(k, c)`` right-hand side:
    one LAPACK ``pbtrs`` on columns ``l k`` to ``l k + k - 1`` of the stacked
    factor, a zero-copy slice because the factor is Fortran-ordered.  Nothing
    is checked, so a non-finite cotangent surfaces as a NumericalError."""
    k = len(rhs)
    if k == 0:  # resolution 2 has no interior vertex; LAPACK rejects n = 0
        return np.empty(rhs.shape)
    return _PBTRS(factor[:, l * k:(l + 1) * k], rhs)[0]


@dataclass
class TutteSystem:
    """The factored interior systems of L layers and their stacked solution.

    ``factor`` is the banded Cholesky factor of the block-diagonal interior
    Laplacian of all L layers; each block is symmetric positive definite,
    so one factor serves the forward and the adjoint solves.  ``solver``
    solves one given layer against that layer's column slice of it.  The
    raw parameters, weights, positions, ``A`` and ``det`` are the stacks
    the per-layer maps and the backward read, all read-only.
    """

    params: TutteLayerParams     # raw parameters, (L, E) and (L, m)
    weights: np.ndarray          # (L, E) squashed edge weights
    factor: np.ndarray           # (u + 1, L k) upper band storage, Fortran order
    positions: np.ndarray        # (L, V, 2) solved vertex positions
    A: np.ndarray                # (L, T, 2, 2) per-triangle linear factors
    det: np.ndarray              # (L, T) their determinants

    def solver(self, l, rhs):
        """Apply the inverse of layer ``l``'s interior block to ``rhs`` (k, c)."""
        return _layer_solve(self.factor, l, rhs)


def assemble_laplacian(mesh: Mesh2D, params: TutteLayerParams):
    """Squashed edge weights and the interior-interior Laplacian blocks.

    Returns ``(weights, band)``: ``weights`` (..., E) holds one strictly
    positive entry per mesh edge (and layer), and ``band`` the symmetric
    positive-definite matrix ``K`` of the interior unknowns (boundary terms
    go to the right-hand side) in Fortran-ordered LAPACK upper band storage,
    ``band[u + a - b, b] = K[a, b]``.  Interior unknowns are row-major, so
    ``u = resolution - 1``.  For L stacked layers ``K`` is block diagonal:
    layer l's k unknowns are columns ``l k`` to ``l k + k - 1``, and every
    slot that would couple two layers is zero.
    """
    validate_params(mesh, params)
    w = squash(params.raw_edge_weights, EDGE_WEIGHT_EPS)
    wl = w.reshape(-1, w.shape[-1])
    k = mesh.interior_ids.size
    n = wl.shape[0] * k
    u = mesh.resolution - 1
    ofs = k * np.arange(wl.shape[0])[:, None]  # layer offsets of the keys
    e, a, b = mesh.interior_edges.T
    r, c, _ = mesh.rim_edges.T
    we = wl[:, e].ravel()
    band = np.zeros((u + 1, n), order="F")
    band[u] = (np.bincount((a + ofs).ravel(), weights=we, minlength=n)
               + np.bincount((b + ofs).ravel(), weights=we, minlength=n)
               + np.bincount((c + ofs).ravel(), weights=wl[:, r].ravel(), minlength=n))
    band[u + a - b, b + ofs] = -wl[:, e]
    return w, band


def tutte_backward(mesh: Mesh2D, system: TutteSystem, dU, lo=0):
    """Raw-parameter gradients (L - lo, E) and (L - lo, m) of layers ``lo``
    to L - 1 of the factored ``system``, from the cotangents ``dU``
    (L, V, 2) of its solved vertices; rows of ``dU`` below ``lo`` are not read.

    Only the adjoint solves run per layer; each row of the results is
    bit-identical to a call on that layer alone.  With the adjoint ``lam``
    (zero on the boundary), edge (i, j) gets ``dL/dw = -(lam_i - lam_j) .
    (U_i - U_j)`` and boundary vertex p gets ``w_cp lam_c`` from each
    interior neighbor c on top of ``dU_p``.
    """
    m = mesh.boundary_loop.size
    dU = dU[lo:]
    L = len(dU)
    lam = np.zeros(dU.shape)
    for l in range(L):
        lam[l, mesh.interior_ids] = system.solver(lo + l, dU[l, mesh.interior_ids])
    U = system.positions[lo:]
    i, j = mesh.edges.T
    # np.sum's dot products, signed zeros included, at a third of the cost.
    d_w = -np.einsum("...k,...k->...", lam.take(i, axis=1) - lam.take(j, axis=1),
                     U.take(i, axis=1) - U.take(j, axis=1))
    d_w *= squash_derivative(system.params.raw_edge_weights[lo:], EDGE_WEIGHT_EPS)

    # Rim terms, keyed by layer and loop position, one bincount per axis.
    r, c, p = mesh.rim_edges.T
    rim = system.weights[lo:, r, None] * lam.take(mesh.interior_ids[c], axis=1)
    keys = (p + m * np.arange(L)[:, None]).ravel()
    d_b = dU.take(mesh.boundary_loop, axis=1) + np.stack([
        np.bincount(keys, rim[..., k].ravel(), L * m).reshape(L, m) for k in range(2)], -1)
    return d_w, _boundary_chain(mesh, system.params.raw_boundary_increments[lo:], d_b)


def _boundary_chain(mesh: Mesh2D, raw, d_b):
    """Chain boundary-position gradients (..., m, 2) back to raw increments."""
    beta, below, totals = _boundary_angles(mesh, raw)

    # d(point)/d(angle) on the square: the coordinate pinned at +-1 is
    # locally constant, the other moves as the ray sweeps.  The selected
    # branch always has denominator >= 1/2, so no guard is needed beyond
    # evaluating each branch only where it applies.
    c, sn = np.cos(beta), np.sin(beta)
    on_vertical = np.abs(c) >= np.abs(sn)  # left/right edges of the square
    db_dbeta = np.zeros(beta.shape + (2,))
    v, h = on_vertical, ~on_vertical
    db_dbeta[v, 1] = np.sign(c[v]) / c[v] ** 2
    db_dbeta[h, 0] = -np.sign(sn[h]) / sn[h] ** 2
    g_beta = np.einsum("...k,...k->...", d_b, db_dbeta).reshape(below.shape)

    # beta_j = corner + (pi/2) C_j / T with C_j the partial sum below j.
    rev = np.cumsum(g_beta[..., ::-1], axis=-1)[..., ::-1]
    tail = np.concatenate([rev[..., 1:], np.zeros(below.shape[:-1] + (1,))], axis=-1)
    weighted = np.sum(g_beta * below, axis=-1, keepdims=True)
    d_s = 0.5 * np.pi * (tail / totals - weighted / totals ** 2)
    return d_s.reshape(raw.shape) * squash_derivative(raw, BOUNDARY_EPS)


def solve_tutte_with_system(mesh: Mesh2D, params: Sequence[TutteLayerParams]):
    """Solve L layers at once: their PL maps plus one factored system.

    ``params`` holds one TutteLayerParams per layer.  One assembly, one
    boundary construction, one banded Cholesky factor of the block-diagonal
    band and one injectivity certificate run over the layer axis; each
    layer's interior solve is one LAPACK ``pbtrs`` against its column slice
    of the factor.  The maps are read-only views into the system's stacked
    positions, ``A`` and ``det``.  A triangle without a strictly positive
    determinant raises InternalError naming the lowest such layer.
    """
    for p in params:
        validate_params(mesh, p)
    stacked = TutteLayerParams(np.stack([p.raw_edge_weights for p in params]),
                               np.stack([p.raw_boundary_increments for p in params]))
    w, band = assemble_laplacian(mesh, stacked)
    boundary = build_boundary(mesh, stacked)
    L, k = len(w), mesh.interior_ids.size

    # RHS: for interior c, sum over boundary neighbors p of w_cp b_p.
    r, c, p = mesh.rim_edges.T
    keys = (c + k * np.arange(L)[:, None]).ravel()
    rhs = np.stack([
        np.bincount(keys, (w[:, r] * boundary.points[:, p, i]).ravel(), L * k).reshape(L, k)
        for i in range(2)], -1)

    try:
        factor = cholesky_banded(band, overwrite_ab=True, check_finite=False)
    except LinAlgError as exc:  # pragma: no cover - cannot occur for valid input
        raise InternalError(f"Tutte system factorization failed: {exc}") from exc

    U = np.empty((L, mesh.num_vertices, 2))
    U[:, mesh.boundary_loop] = boundary.points
    for l in range(L):
        U[l, mesh.interior_ids] = _layer_solve(factor, l, rhs[l])
    A = _edge_matrices(U, mesh.triangles) @ mesh.edge_inverse
    det = _det22(A)
    failed = ~np.all(det > 0.0, axis=1)
    if failed.any():
        l = int(np.flatnonzero(failed)[0])
        raise InternalError(
            f"injectivity certificate failed in layer {l}: min determinant "
            f"{det[l].min():.3e}; this indicates a bug in the boundary or weight "
            "construction")
    system = TutteSystem(params=stacked, weights=_readonly(w), factor=factor,
                         positions=_readonly(U), A=_readonly(A), det=_readonly(det))
    # Each map's rows over the triangles, gathered once for all layers.
    corners = _readonly(corner_columns(U, mesh.triangles))
    A_rows = _readonly(np.moveaxis(A, 1, -1))
    maps = tuple(PLMap2D(mesh=mesh, vertex_positions=system.positions[l], A=system.A[l],
                         det=system.det[l], corners=corners[l], A_rows=A_rows[l])
                 for l in range(L))
    return maps, system


def solve_tutte(mesh: Mesh2D, params: TutteLayerParams) -> PLMap2D:
    """Injective PL map of the square from raw layer parameters.

    The one-layer call of :func:`solve_tutte_with_system`.  The returned map
    carries strictly positive per-triangle determinants; a violation raises
    InternalError because the construction is supposed to make it
    impossible.
    """
    return solve_tutte_with_system(mesh, [params])[0][0]
