"""Injective 2D mesh deformations from convex-boundary harmonic solves.

A layer's 2D deformation is produced by pinning the mesh boundary onto a
convex polygon inscribed in the unit square and solving, for every interior
vertex, the convex-combination balance

    sum_j w_ij (u_j - u_i) = 0

with strictly positive edge weights.  The classical embedding theorem for
such systems guarantees the resulting piecewise-linear map is injective;
this module certifies that guarantee numerically (all per-triangle
determinants strictly positive) on every solve.

The interior system is factored once by banded Cholesky (any exact solve
keeps the guarantee, Floater 2003); :func:`tutte_backward` reuses the factor
for the adjoint solve that yields the raw-parameter gradients.

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
from functools import partial

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.special import expit

from .errors import InternalError
from .mesh2d import Mesh2D, PLMap2D, realize_plmap, _readonly

EDGE_WEIGHT_EPS = 0.2
BOUNDARY_EPS = 0.1


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
    """Raw (unconstrained) parameters of one layer's 2D deformation."""

    raw_edge_weights: np.ndarray         # (E,)
    raw_boundary_increments: np.ndarray  # (4(n-1),)

    def __post_init__(self):
        object.__setattr__(self, "raw_edge_weights",
                           _readonly(np.asarray(self.raw_edge_weights, dtype=np.float64)))
        object.__setattr__(self, "raw_boundary_increments",
                           _readonly(np.asarray(self.raw_boundary_increments, dtype=np.float64)))
        if self.raw_edge_weights.ndim != 1 or self.raw_boundary_increments.ndim != 1:
            raise ValueError("layer parameters must be 1D arrays")
        if not (np.all(np.isfinite(self.raw_edge_weights))
                and np.all(np.isfinite(self.raw_boundary_increments))):
            raise ValueError("layer parameters contain non-finite values")


def validate_params(mesh: Mesh2D, params: TutteLayerParams):
    e, m = mesh.edges.shape[0], mesh.boundary_loop.size
    if params.raw_edge_weights.size != e:
        raise ValueError(
            f"expected {e} raw edge weights for resolution {mesh.resolution}, "
            f"got {params.raw_edge_weights.size}")
    if params.raw_boundary_increments.size != m:
        raise ValueError(
            f"expected {m} raw boundary increments for resolution {mesh.resolution}, "
            f"got {params.raw_boundary_increments.size}")


@dataclass(frozen=True)
class ConvexBoundary:
    """Boundary polygon of one layer: angles and positions per loop vertex."""

    angles: np.ndarray  # (m,) strictly increasing, anchored at -3*pi/4
    points: np.ndarray  # (m, 2) on the boundary of [-1, 1]^2


def _ray_square(angles):
    """Intersection of the ray at each angle from origin with the unit square."""
    d = np.column_stack([np.cos(angles), np.sin(angles)])
    return d / np.max(np.abs(d), axis=1, keepdims=True)


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


@dataclass
class TutteSystem:
    """Factorized interior system of one solve, kept for adjoint reuse.

    ``solver`` applies the inverse of the interior-interior Laplacian block
    to a ``(k, c)`` right-hand side from its banded Cholesky factor; the
    block is symmetric positive definite, so the same factor serves both
    the forward solve and the adjoint solve.
    """

    weights: np.ndarray          # (E,) squashed edge weights
    solver: object               # callable (k, c) -> (k, c) solve


def assemble_laplacian(mesh: Mesh2D, params: TutteLayerParams):
    """Squashed edge weights and the interior-interior Laplacian block.

    Returns ``(weights, band)`` where ``weights`` has one strictly positive
    entry per mesh edge and ``band`` is the symmetric positive-definite
    matrix ``K`` of the interior unknowns (boundary terms go to the
    right-hand side) in LAPACK upper band storage, ``band[u + a - b, b] =
    K[a, b]``.  Interior unknowns are row-major, so ``u = resolution - 1``.
    """
    validate_params(mesh, params)
    w = squash(params.raw_edge_weights, EDGE_WEIGHT_EPS)
    n_int = mesh.interior_ids.size
    u = mesh.resolution - 1
    e, a, b = mesh.interior_edges.T
    r, c, _ = mesh.rim_edges.T
    band = np.zeros((u + 1, n_int))
    band[u] = (np.bincount(a, weights=w[e], minlength=n_int)
               + np.bincount(b, weights=w[e], minlength=n_int)
               + np.bincount(c, weights=w[r], minlength=n_int))
    band[u + a - b, b] = -w[e]
    return w, band


def _solve_system(mesh: Mesh2D, params: TutteLayerParams):
    w, band = assemble_laplacian(mesh, params)
    boundary = build_boundary(mesh, params)

    # RHS: for interior c, sum over boundary neighbors p of w_cp b_p.
    r, c, p = mesh.rim_edges.T
    rhs = np.column_stack([
        np.bincount(c, weights=w[r] * boundary.points[p, k],
                    minlength=mesh.interior_ids.size) for k in range(2)])

    try:
        factor = cholesky_banded(band, check_finite=False)
    except LinAlgError as exc:  # pragma: no cover - cannot occur for valid input
        raise InternalError(f"Tutte system factorization failed: {exc}") from exc
    # Unchecked, so a non-finite cotangent surfaces as a NumericalError.
    solver = partial(cho_solve_banded, (factor, False), check_finite=False)

    U = np.empty((mesh.num_vertices, 2))
    U[mesh.boundary_loop] = boundary.points
    U[mesh.interior_ids] = solver(rhs)
    return U, TutteSystem(weights=w, solver=solver)


def tutte_backward(mesh: Mesh2D, params, systems, U, dU):
    """Raw-parameter gradients (L, E) and (L, m) of L layers: raw ``params``,
    factored ``systems``, solved vertices ``U`` and their cotangents ``dU``.

    Only the adjoint solves run per layer; each row of the results is
    bit-identical to a call on that layer alone.  With the adjoint ``lam``
    (zero on the boundary), edge (i, j) gets ``dL/dw = -(lam_i - lam_j) .
    (U_i - U_j)`` and boundary vertex p gets ``w_cp lam_c`` from each
    interior neighbor c on top of ``dU_p``.
    """
    L, m = len(systems), mesh.boundary_loop.size
    lam = np.zeros(dU.shape)
    for l, system in enumerate(systems):
        lam[l, mesh.interior_ids] = system.solver(dU[l, mesh.interior_ids])
    i, j = mesh.edges.T
    # np.sum's dot products, signed zeros included, at a third of the cost.
    d_w = -np.einsum("...k,...k->...", lam.take(i, axis=1) - lam.take(j, axis=1),
                     U.take(i, axis=1) - U.take(j, axis=1))
    d_w *= squash_derivative(np.stack([q.raw_edge_weights for q in params]),
                             EDGE_WEIGHT_EPS)

    # Rim terms, keyed by layer and loop position, one bincount per axis.
    r, c, p = mesh.rim_edges.T
    rim = (np.stack([system.weights for system in systems])[:, r, None]
           * lam.take(mesh.interior_ids[c], axis=1))
    keys = (p + m * np.arange(L)[:, None]).ravel()
    d_b = dU.take(mesh.boundary_loop, axis=1) + np.stack([
        np.bincount(keys, rim[..., k].ravel(), L * m).reshape(L, m) for k in range(2)], -1)
    return d_w, _boundary_chain(
        mesh, np.stack([q.raw_boundary_increments for q in params]), d_b)


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


def solve_tutte_with_system(mesh: Mesh2D, params: TutteLayerParams):
    """Solve one layer, returning the PL map plus the factorized system."""
    U, system = _solve_system(mesh, params)
    plmap = realize_plmap(mesh, U)
    if not np.all(plmap.det > 0.0):
        worst = float(plmap.det.min())
        raise InternalError(
            f"injectivity certificate failed: min determinant {worst:.3e}; "
            "this indicates a bug in the boundary or weight construction")
    return plmap, system


def solve_tutte(mesh: Mesh2D, params: TutteLayerParams) -> PLMap2D:
    """Injective PL map of the square from raw layer parameters.

    Factorizes the interior system once (banded Cholesky) and solves both
    coordinates against it.  The returned map carries strictly positive
    per-triangle determinants; a violation raises InternalError because the
    construction is supposed to make it impossible.
    """
    plmap, _ = solve_tutte_with_system(mesh, params)
    return plmap
