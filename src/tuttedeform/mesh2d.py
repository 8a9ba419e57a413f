"""Triangulated square domain and piecewise-linear maps over it.

Every deformation layer shares the same 2D domain: the square [-1, 1]^2
triangulated as a regular (n-1) x (n-1) grid of cells, each cell split along
its bottom-left to top-right diagonal.  Vertices are ordered row-major with
x varying fastest, cells row-major, and each cell contributes its lower
triangle before its upper one, so every ordering is a deterministic function
of the resolution alone.

A :class:`PLMap2D` carries the realized piecewise-linear map for one layer:
the deformed vertex positions, per-triangle linear factors ``A_t`` and their
determinants.  Meshes and maps are immutable after construction (arrays are
marked read-only), which makes them safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InternalError, NotInImageError, OutOfDomainError

# Slack before a query point is rejected as out of domain; points within
# this distance of the square are clamped onto it.
DOMAIN_TOL = 1e-9
# Containment slack (barycentric units) for image-side point location.
_BARY_STRICT = 1e-12
_BARY_FALLBACK = 1e-9
# The image-side walk's full Newton steps, then its half steps, before a
# point falls back to the scan over every triangle.
_NEWTON_STEPS = 4
_HALF_STEPS = 8
# (point, triangle) pairs that scan scores at once: each of its (points, T)
# temporaries stays at 256 KB.
_SCAN_PAIRS = 1 << 15


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Mesh2D:
    """Regular triangulation of [-1, 1]^2.  Immutable after construction."""

    resolution: int
    vertices: np.ndarray       # (V, 2) float64
    triangles: np.ndarray      # (T, 3) int64, counter-clockwise
    edges: np.ndarray          # (E, 2) int64, i < j, lexicographically sorted
    boundary_loop: np.ndarray  # (4(n-1),) int64, CCW from corner (-1, -1)
    interior_ids: np.ndarray   # (V - 4(n-1),) int64, ascending
    grid: np.ndarray           # (n,) axis coordinates
    cell_widths: np.ndarray    # (n-1,) np.diff(grid)
    edge_inverse: np.ndarray   # (T, 2, 2) inverses of rest edge matrices
    areas: np.ndarray          # (T,) rest triangle areas
    # Edges with an interior end, (edge index, ends): an end is numbered by
    # its position in ``interior_ids`` or in ``boundary_loop``.
    interior_edges: np.ndarray # (Ei, 3) int64: edge, interior a < interior b
    rim_edges: np.ndarray      # (Er, 3) int64: edge, interior end, loop position
    # Rows over the triangles: corner k's vertex, and its rest coordinates.
    triangle_rows: np.ndarray  # (3, T) int64, triangles.T
    corners: np.ndarray        # (2, 3, T) coordinate c of corner k

    @property
    def cell_size(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


@lru_cache(maxsize=8)
def build_mesh(resolution: int) -> Mesh2D:
    """Build the regular triangulated square at the given resolution.

    ``resolution`` is the vertex count per axis; must be >= 2.  The mesh has
    resolution^2 vertices, 2 (resolution-1)^2 triangles, and a boundary loop
    of 4 (resolution-1) vertices.  Meshes are immutable: recent ones are shared.
    """
    n = int(resolution)
    if n < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")

    axis = np.linspace(-1.0, 1.0, n)
    vertices = np.column_stack([np.tile(axis, n), np.repeat(axis, n)])

    # Cells row-major; lower triangle (below the diagonal) first in each cell.
    ix = np.tile(np.arange(n - 1), n - 1)
    iy = np.repeat(np.arange(n - 1), n - 1)
    v00 = iy * n + ix
    v10 = v00 + 1
    v01 = v00 + n
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * (n - 1) ** 2, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    pairs = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [0, 2]]])
    pairs.sort(axis=1)
    edges = np.unique(pairs, axis=0)

    boundary_loop = np.concatenate([
        np.arange(0, n),                          # bottom, left to right
        np.arange(1, n) * n + (n - 1),            # right, bottom to top
        (n - 1) * n + np.arange(n - 2, -1, -1),   # top, right to left
        np.arange(n - 2, 0, -1) * n,              # left, top to bottom
    ]).astype(np.int64)

    interior_ids = np.setdiff1d(np.arange(n * n), boundary_loop)
    # Each vertex's position among the interior ids, or -1 - its loop position.
    slot = np.empty(n * n, dtype=np.int64)
    slot[interior_ids] = np.arange(interior_ids.size)
    slot[boundary_loop] = -1 - np.arange(boundary_loop.size)
    a, b = slot[edges].T
    inner = (a >= 0) & (b >= 0)
    rim = (a >= 0) != (b >= 0)  # the interior end has the larger slot
    interior_edges = np.column_stack([np.flatnonzero(inner), a[inner], b[inner]])
    rim_edges = np.column_stack(
        [np.flatnonzero(rim), np.maximum(a, b)[rim], -1 - np.minimum(a, b)[rim]])

    rest_edges = _edge_matrices(vertices, triangles)
    edge_inverse = _inv22(rest_edges)
    areas = 0.5 * _det22(rest_edges)
    if not np.all(areas > 0):
        raise InternalError("regular mesh produced a non-positive triangle area")

    return Mesh2D(
        resolution=n,
        vertices=_readonly(vertices),
        triangles=_readonly(triangles),
        edges=_readonly(edges),
        boundary_loop=_readonly(boundary_loop),
        interior_ids=_readonly(interior_ids),
        grid=_readonly(axis),
        cell_widths=_readonly(np.diff(axis)),
        edge_inverse=_readonly(edge_inverse),
        areas=_readonly(areas),
        interior_edges=_readonly(interior_edges),
        rim_edges=_readonly(rim_edges),
        triangle_rows=_readonly(triangles.T),
        corners=_readonly(corner_columns(vertices, triangles)),
    )


def _edge_matrices(positions, triangles):
    """(..., T, d, 2) edge matrices ``[v1 - v0, v2 - v0]`` of ``triangles``,
    with corners taken from the (..., V, d) ``positions``."""
    tv = positions[..., triangles, :]
    return np.stack([tv[..., 1, :] - tv[..., 0, :], tv[..., 2, :] - tv[..., 0, :]], axis=-1)


def _det22(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _inv22(m):
    det = _det22(m)
    out = np.empty_like(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[..., 0, 0] = m[..., 1, 1] / det
        out[..., 0, 1] = -m[..., 0, 1] / det
        out[..., 1, 0] = -m[..., 1, 0] / det
        out[..., 1, 1] = m[..., 0, 0] / det
    return out


def _reject_non_finite(pts):
    """Raise ValueError naming the first row of ``pts`` with a NaN or inf."""
    finite = np.isfinite(pts)
    if not finite.all():  # the per-row search runs only on the error path
        rows = np.atleast_2d(pts)
        i = int(np.flatnonzero(~np.all(np.atleast_2d(finite), axis=1))[0])
        raise ValueError(f"point {i} is not finite: {rows[i]}")


def _axis_cells(mesh, coords):
    """Cell index and local fraction along each axis of a (2, N) block of
    coordinates in [-1, 1], with exact gridline ties.

    A coordinate exactly on an interior gridline is assigned to the cell on
    its lower side, with local fraction ``w / w == 1.0`` for that cell's
    width w, which realizes the lowest-index tie-break of
    :func:`locate_points`.
    """
    grid = mesh.grid
    t = coords + 1.0
    t /= mesh.cell_size
    idx = t.astype(np.int64)  # >= 0, as coords >= -1
    np.minimum(idx, mesh.resolution - 2, out=idx)
    # The floor can land one cell off near a gridline; snap back in place,
    # a point on the cell's lower line down to the cell below (-1 stays).
    idx -= coords <= grid.take(idx)
    np.maximum(idx, 0, out=idx)
    idx += coords > grid[1:].take(idx)
    frac = coords - grid.take(idx)
    frac /= mesh.cell_widths.take(idx)
    return idx, frac


def _grid_cells(mesh, xy, tri=None):
    """Rest triangle of each point of the square, with the lowest-index
    tie-break, plus its (2, N) cell fractions ``(fx, fy)`` and the ``upper``
    mask.

    ``xy`` is a (2, N) block of coordinates already clamped to [-1, 1]; the
    triangles are written into ``tri`` when it is given.
    """
    idx, f = _axis_cells(mesh, xy)
    upper = f[0] < f[1]
    tri = np.multiply(idx[1], mesh.resolution - 1, out=tri)
    tri += idx[0]
    tri *= 2
    tri += upper
    return tri, f, upper


def _clamped(pts):
    """The (N, 2) ``pts`` as a new (2, N) block clamped onto [-1, 1]^2."""
    xy = np.minimum(pts.T, 1.0, out=np.empty((2, len(pts))))
    return np.maximum(xy, -1.0, out=xy)


def locate_points(mesh, points, layer_index=None, out=None):
    """Vectorized triangle location for points in [-1, 1]^2.

    Returns ``(tri, bary)`` with ``tri`` of shape (N,) and ``bary`` of shape
    (N, 3) giving barycentric coordinates w.r.t. the located triangle's
    vertex order; ``bary`` is the transposed view of a (3, N) block of
    rows.  ``out``, a pair of an (N,) int64 array and a (3, N) block, takes
    the triangles and the barycentric rows in place of new arrays.  For a
    point incident to several triangles (on a shared edge or vertex) the
    lowest-index incident triangle is returned.  Points within DOMAIN_TOL
    outside the square are clamped; beyond that an OutOfDomainError
    identifies the first offender.  A non-finite point raises ValueError.
    A single point (shape (2,)) gives an ``int`` triangle and a (3,)
    barycentric vector.
    """
    pts = np.asarray(points, dtype=np.float64)
    scalar_input = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != 2:
        raise ValueError(f"expected 2D points, got shape {pts.shape}")

    low, high = pts.min(initial=0.0), pts.max(initial=0.0)
    if not (-low - 1.0 <= DOMAIN_TOL and high - 1.0 <= DOMAIN_TOL):  # or a NaN
        _reject_non_finite(pts)
        over = np.abs(pts) - 1.0
        i = int(np.flatnonzero(np.any(over > DOMAIN_TOL, axis=1))[0])
        raise OutOfDomainError(
            f"point {pts[i]} lies outside [-1,1]^2 by {float(np.max(over[i])):.3e}",
            point=pts[i].copy(), layer_index=layer_index, point_index=i,
        )
    tri, rows = (None, np.empty((3, pts.shape[0]))) if out is None else out
    tri, (fx, fy), upper = _grid_cells(mesh, _clamped(pts), tri)

    # Lower triangle (v00, v10, v11): bary = (1-fx, fx-fy, fy).
    # Upper triangle (v00, v11, v01): bary = (1-fy, fx, fy-fx).
    # One contiguous row per barycentric; a product with the 0/1 mask
    # subtracts an exact 0.0 where a term does not apply.
    np.subtract(1.0, np.maximum(fx, fy, out=rows[0]), out=rows[0])
    np.subtract(fx, np.multiply(fy, ~upper, out=rows[1]), out=rows[1])
    np.subtract(fy, np.multiply(fx, upper, out=rows[2]), out=rows[2])
    bary = rows.T

    if scalar_input:
        return int(tri[0]), bary[0]
    return tri, bary


@dataclass
class PLMap2D:
    """Realized piecewise-linear map of the square, one entry per triangle.

    On each rest triangle t the map is affine with linear part ``A[t]``; it
    is evaluated by barycentric interpolation of ``vertex_positions``.
    ``det`` holds the per-triangle determinants; a map realized from a Tutte
    embedding has all determinants strictly positive.  Instances are frozen
    in practice: arrays are read-only and the image-side locator is the only
    lazily built (cached) member.

    ``corners`` and ``A_rows`` hold the positions and ``A`` again as rows
    over the triangles, so that a point batch gathers whole rows; they are
    built from the other two unless given.
    """

    mesh: Mesh2D
    vertex_positions: np.ndarray  # (V, 2) deformed vertex positions
    A: np.ndarray                 # (T, 2, 2)
    det: np.ndarray               # (T,)
    corners: np.ndarray = field(default=None, repr=False, compare=False)  # (2, 3, T)
    A_rows: np.ndarray = field(default=None, repr=False, compare=False)   # (2, 2, T)
    _locator: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.corners is None:
            self.corners = _readonly(corner_columns(self.vertex_positions,
                                                    self.mesh.triangles))
        if self.A_rows is None:
            self.A_rows = _readonly(np.moveaxis(self.A, 0, -1))

    def factors(self, tri):
        """``A[tri]`` as an (N, 2, 2) view of (2, 2, N) entry rows: each
        entry is one contiguous column over the points."""
        return self.A_rows.take(tri, axis=2).transpose(2, 0, 1)

    def image_locator(self):
        # Benign race under concurrent first use: both builds agree.
        if self._locator is None:
            object.__setattr__(self, "_locator", _ImageLocator(self))
        return self._locator


def realize_plmap(mesh: Mesh2D, vertex_positions) -> PLMap2D:
    """Realize per-triangle linear factors from deformed vertex positions.

    ``A_t`` maps each rest triangle's two edge vectors onto its deformed
    ones.
    """
    U = np.asarray(vertex_positions, dtype=np.float64)
    if U.shape != (mesh.num_vertices, 2):
        raise ValueError(
            f"vertex positions must have shape {(mesh.num_vertices, 2)}, got {U.shape}")
    if not np.all(np.isfinite(U)):
        raise ValueError("vertex positions contain non-finite values")

    A = _edge_matrices(U, mesh.triangles) @ mesh.edge_inverse
    return PLMap2D(
        mesh=mesh,
        vertex_positions=_readonly(U.copy()),
        A=_readonly(A),
        det=_readonly(_det22(A)),
    )


def corner_columns(positions, triangles):
    """Corner coordinates of every triangle as rows, (..., 2, 3, T) from
    (..., V, 2) ``positions``: entry (c, k, t) is coordinate c of corner k
    of triangle t."""
    rows = np.ascontiguousarray(np.swapaxes(positions, -1, -2))  # (..., 2, V)
    return rows.take(triangles.T, axis=-1)


def combine(corners, tri, bary, out=None):
    """Barycentric combinations of triangle corners, as (2, N) rows.

    ``corners`` are :func:`corner_columns` (2, 3, T), ``tri`` the (N,)
    triangles and ``bary`` their (3, N) barycentric rows.  Each output
    coordinate is ``b0*p0 + b1*p1 + b2*p2``, summed left to right on 1-D
    rows: the order ``einsum("nk,nkd->nd")`` uses, so the bits match it.
    Exact on vertices, so shared edges evaluate identically from either
    side.  Writes into the (2, N) ``out`` when it is given.
    """
    c = corners.take(tri, axis=2)  # (2, 3, N): the corners of each point's cell
    out = np.multiply(c[:, 0], bary[0], out=out)
    out += np.multiply(c[:, 1], bary[1], out=c[:, 1])
    out += np.multiply(c[:, 2], bary[2], out=c[:, 2])
    return out


def interpolate(positions, triangles, tri, bary):
    """:func:`combine` on the corners of ``triangles`` taken from the
    (V, 2) ``positions``, for (N, 3) barycentrics ``bary``; returns an
    (N, 2) transposed view of two rows."""
    return combine(corner_columns(positions, triangles), tri, np.asarray(bary).T).T


class _ImageLocator:
    """Image-side point location: a certified walk on the rest grid, with a
    scan over every triangle as the fallback.

    **The rule.**  A triangle t scores an image point y by its smallest
    barycentric, computed from six per-triangle columns (the first image
    corner ``u0`` and the inverse deformed edge matrix ``B``) as
    ``l1 = b00*dx + b01*dy``, ``l2 = b10*dx + b11*dy``, ``l0 = 1 - l1 - l2``
    with ``(dx, dy) = y - u0``.  y goes to the first (lowest-index) triangle
    scoring at least ``min(best, -_BARY_STRICT)``, where ``best`` is the
    largest score over all triangles: the first that holds y within
    _BARY_STRICT, which matches the forward locator's tie-break, or failing
    that the first with the best score, if that is within _BARY_FALLBACK.

    **The walk** is Newton's method on the piecewise-linear map.  It starts
    at x = y clamped to the square, takes x's rest triangle t (O(1) on the
    regular grid), scores y in t with the rule's expressions, and accepts t
    if the score s reaches ``thr[t]``; otherwise it moves x to t's affine
    preimage of y, ``v0 + l1 e1 + l2 e2`` over t's rest corner and edges,
    clamped.  After _NEWTON_STEPS such moves it moves only halfway there,
    for _HALF_STEPS more scores: clamping and the kinks of the map make
    some walks near the boundary jump back and forth between two triangles
    on either side of y's, and the half steps land between them.  Points
    it leaves (ties on deformed edges and vertices, points outside the
    image, walks that still cycle) take the scan, which applies the rule
    itself: it scores every triangle, so it is complete by definition, at
    a cost of O(T) per point.

    **The certificate.**  ``s >= thr[t]`` proves that no other triangle
    scores >= -eps (eps = _BARY_STRICT), so t is the rule's pick, and its
    barycentrics are the rule's bits.  With D(t') = |e1|_1 + |e2|_1 over
    the edges of an image triangle t' from its first corner, which bounds
    its diameter, and h(t) the smallest altitude of t:

    - if y's exact barycentrics in t' are all >= -eta, then with q the
      point of t' whose barycentrics are the positive parts, normalized,
      ``y - q = sum_i |l_i| (q - v_i)`` over the (at most two) negative
      ones, so dist(y, t') <= 2 eta D(t');
    - computed barycentrics are within delta(t') of the exact ones (below),
      so a computed score >= -eps means eta = eps + delta(t');
    - if y's exact smallest barycentric in t is s > 0, y is at least
      ``s h(t)`` from t's edges, and the map is injective, so every other
      triangle lies outside t and at least that far from y.

    So ``s h(t) > K = max_t' 2 (eps + delta(t')) D(t')`` rules out every
    t', and ``thr[t] = delta(t) + 2 K / h_lo(t)`` with ``h_lo`` a lower
    bound on h(t) suffices; the factor 2 absorbs the rounding of D, h_lo
    and thr.  delta bounds the rounding, with u the unit roundoff.  A
    triangle's ``B`` is not the exact inverse of its edge matrix E: the
    residual ``B E - I``, computed and padded by its own rounding, gives
    ``rho >= |B E - I|_inf``, so for a point within ``2 eta D`` of the
    triangle (where |l| <= 2; farther away every error grows with |l|, so
    no far point scores high) ``B d`` is within ``2 rho`` of (l1, l2).  The
    roundings of d, of the products and of the sum put the computed l1 and
    l2 within ``3u beta |d|`` of ``B d``, with ``beta = |B|_inf`` and
    ``|d| <= 2D``, and l0 adds both errors and rounds twice more; ``delta
    = 5 rho + 16 u (beta D + 1)`` covers all three.  Injectivity is checked, not
    assumed: the walk runs only when every image triangle is positively
    oriented beyond its rounding and the boundary polygon is simple (see
    ``_star_shaped_loop``), which makes the map injective; otherwise every
    point takes the scan.
    """

    def __init__(self, plmap: PLMap2D):
        mesh = self.mesh = plmap.mesh
        self.positions = plmap.vertex_positions
        # Per-triangle (2, T) and (4, T) rows: the first image corner, and
        # the inverse of the deformed edge matrix, B_rest @ inv(A), entry by
        # entry (b00, b01, b10, b11).
        self.u0 = np.ascontiguousarray(plmap.corners[:, 0])
        B = mesh.edge_inverse @ _inv22(plmap.A)
        self.B = np.ascontiguousarray(B.reshape(-1, 4).T)
        # The walk's rest rows: the first corner and the two edges.
        rest = mesh.corners
        self.r0 = np.ascontiguousarray(rest[:, 0])
        self.e1, self.e2 = rest[:, 1] - rest[:, 0], rest[:, 2] - rest[:, 0]
        self.thr = self._thresholds(*(plmap.corners[:, 1:] - plmap.corners[:, :1]))

    def _thresholds(self, ex, ey):
        """Per-triangle walk thresholds from the (2, T) image edge columns,
        or None when the map is not certified injective (see the class
        docstring)."""
        u = 0.5 * np.finfo(np.float64).eps
        (e1x, e2x), (e1y, e2y) = ex, ey
        p, q = e1x * e2y, e1y * e2x
        cross_lo = p - q - 8.0 * u * (np.abs(p) + np.abs(q))  # 2 area, low side
        if not np.all(cross_lo > 0.0) or not _star_shaped_loop(
                self.positions[self.mesh.boundary_loop]):
            return None
        b00, b01, b10, b11 = self.B
        with np.errstate(over="ignore", invalid="ignore"):
            D = np.abs(e1x) + np.abs(e1y) + np.abs(e2x) + np.abs(e2y)
            beta = np.maximum(np.abs(b00) + np.abs(b01), np.abs(b10) + np.abs(b11))
            rho = np.maximum(
                np.abs(b00 * e1x + b01 * e1y - 1.0) + np.abs(b00 * e2x + b01 * e2y),
                np.abs(b10 * e1x + b11 * e1y) + np.abs(b10 * e2x + b11 * e2y - 1.0))
            rho += 16.0 * u * beta * D
            delta = 5.0 * rho + 16.0 * u * (beta * D + 1.0)
            K = 2.0 * np.max((_BARY_STRICT + delta) * D)
            thr = delta + 2.0 * K * D / cross_lo
        return thr if np.all(np.isfinite(thr)) else None

    def query(self, points, layer_index=None):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        _reject_non_finite(pts)
        n = pts.shape[0]
        tri = np.empty(n, dtype=np.int64)
        cols = np.empty((3, n))  # l0, l1, l2
        rows = np.arange(n)  # the points not yet located
        at = slice(None)  # where this step's results go: all, then ``rows``
        if self.thr is not None and n:
            # Each step writes every point it scores; a later step or the
            # fallback overwrites the ones it does not accept.  ``q`` holds
            # the image points and ``xy`` the walk's positions, as (2, n) rows.
            q = np.array(pts.T, order="C")
            xy = _clamped(pts)
            for step in range(_NEWTON_STEPS + _HALF_STEPS):
                t = _grid_cells(self.mesh, xy)[0]
                # The rule's expressions, in the scan's order: the same bits.
                dx, dy = q - self.u0.take(t, axis=1)
                b00, b01, b10, b11 = self.B.take(t, axis=1)
                l1 = b00 * dx
                l1 += b01 * dy
                l2 = b10 * dx
                l2 += b11 * dy
                l0 = 1.0 - l1
                l0 -= l2
                tri[at] = t
                for col, l in zip(cols, (l0, l1, l2)):
                    col[at] = l
                left = np.flatnonzero(np.minimum(np.minimum(l0, l1), l2) < self.thr[t])
                rows = at = rows[left]
                if not rows.size:
                    break
                q, t, l1, l2 = q[:, left], t[left], l1[left], l2[left]
                to = self.r0.take(t, axis=1)
                to += l1 * self.e1.take(t, axis=1)
                to += l2 * self.e2.take(t, axis=1)
                np.minimum(to, 1.0, out=to)
                np.maximum(to, -1.0, out=to)
                if step >= _NEWTON_STEPS:  # go halfway: breaks two-cycles
                    to += xy[:, left]
                    to *= 0.5
                xy = to
        if rows.size:
            tri[rows], cols[:, rows] = self._scan_query(pts[rows], rows, layer_index)
        return tri, cols.T

    def _scan_query(self, pts, rows, layer_index):
        """The rule over every triangle, in blocks of about _SCAN_PAIRS
        (point, triangle) pairs: ``(tri, (l0, l1, l2))`` as a (3, N) array.

        ``rows`` are the points' indices in the caller's batch, for the
        error; they ascend, so the first point outside the image is the
        batch's first.
        """
        tri, ls = np.empty(len(pts), dtype=np.int64), np.empty((3, len(pts)))
        (u0x, u0y), (b00, b01, b10, b11) = self.u0, self.B
        step = max(1, _SCAN_PAIRS // u0x.size)
        for lo in range(0, len(pts), step):
            block = slice(lo, lo + step)
            # (points, T) scores, by the walk's expressions in its order.
            dx = pts[block, :1] - u0x
            dy = pts[block, 1:] - u0y
            l1 = b00 * dx
            l1 += b01 * dy
            l2 = b10 * dx
            l2 += b11 * dy
            l0 = 1.0 - l1
            l0 -= l2
            score = np.minimum(np.minimum(l0, l1), l2)
            # fmax skips a degenerate triangle's NaN scores: it holds nothing.
            best = np.fmax.reduce(score, axis=1)
            bad = np.flatnonzero(~(best >= -_BARY_FALLBACK))
            if bad.size:
                i = lo + int(bad[0])
                raise NotInImageError(
                    f"point {pts[i]} is outside the deformed mesh "
                    f"(best containment violation {-best[i - lo]:.3e})",
                    point=pts[i].copy(), layer_index=layer_index,
                    point_index=int(rows[i]))
            # A point's triangles at or above its threshold are its strict
            # hits if it has one, else its best-score ones; take the first.
            pick = np.argmax(score >= np.minimum(best, -_BARY_STRICT)[:, None], axis=1)
            tri[block] = pick
            ls[:, block] = [l[np.arange(pick.size), pick] for l in (l0, l1, l2)]
        return tri, ls


def _star_shaped_loop(P):
    """True when every edge of the closed polygon P turns counterclockwise
    about P's vertex mean c, beyond rounding, and P goes round c once: then
    each ray from c crosses P once, so P is simple."""
    u = 0.5 * np.finfo(np.float64).eps
    ax, ay = (P - P.mean(axis=0)).T
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    p, q = ax * by, ay * bx
    if not np.all(p - q - 8.0 * u * (np.abs(p) + np.abs(q)) > 0.0):
        return False
    return bool(np.arctan2(p - q, ax * bx + ay * by).sum() < 3.0 * np.pi)


def locate_image_points(plmap: PLMap2D, points, layer_index=None):
    """Triangle indices and barycentrics of points in the deformed mesh."""
    return plmap.image_locator().query(points, layer_index=layer_index)
