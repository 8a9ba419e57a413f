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
import numpy as np

from .errors import InternalError, NotInImageError, OutOfDomainError

# Slack before a query point is rejected as out of domain; points within
# this distance of the square are clamped onto it.
DOMAIN_TOL = 1e-9
# Containment slack (barycentric units) for image-side point location.
_BARY_STRICT = 1e-12
_BARY_FALLBACK = 1e-9


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
    edge_inverse: np.ndarray   # (T, 2, 2) inverses of rest edge matrices
    areas: np.ndarray          # (T,) rest triangle areas
    # Edges with an interior end, (edge index, ends): an end is numbered by
    # its position in ``interior_ids`` or in ``boundary_loop``.
    interior_edges: np.ndarray # (Ei, 3) int64: edge, interior a < interior b
    rim_edges: np.ndarray      # (Er, 3) int64: edge, interior end, loop position

    @property
    def cell_size(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


def build_mesh(resolution: int) -> Mesh2D:
    """Build the regular triangulated square at the given resolution.

    ``resolution`` is the vertex count per axis; must be >= 2.  The mesh has
    resolution^2 vertices, 2 (resolution-1)^2 triangles, and a boundary loop
    of 4 (resolution-1) vertices.
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

    tri_v = vertices[triangles]
    rest_edges = np.stack([tri_v[:, 1] - tri_v[:, 0], tri_v[:, 2] - tri_v[:, 0]], axis=-1)
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
        edge_inverse=_readonly(edge_inverse),
        areas=_readonly(areas),
        interior_edges=_readonly(interior_edges),
        rim_edges=_readonly(rim_edges),
    )


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


def _axis_cells(mesh, coords):
    """Cell index and local fraction along one axis, with exact gridline ties.

    A coordinate exactly on an interior gridline is assigned to the cell on
    its lower side with local fraction 1.0, which realizes the lowest-index
    tie-break of :func:`locate_points`.
    """
    n = mesh.resolution
    grid = mesh.grid
    step = mesh.cell_size
    idx = np.clip(((coords + 1.0) / step).astype(np.int64), 0, n - 2)
    # Floating-point floor can land one cell off near gridlines; snap back.
    idx = np.where(coords < grid[idx], idx - 1, idx)
    idx = np.where(coords > grid[idx + 1], idx + 1, idx)
    frac = (coords - grid[idx]) / (grid[idx + 1] - grid[idx])
    on_lower_line = (coords == grid[idx]) & (idx > 0)
    idx = np.where(on_lower_line, idx - 1, idx)
    frac = np.where(on_lower_line, 1.0, frac)
    return idx, frac


def locate_points(mesh, points, layer_index=None):
    """Vectorized triangle location for points in [-1, 1]^2.

    Returns ``(tri, bary)`` with ``tri`` of shape (N,) and ``bary`` of shape
    (N, 3) giving barycentric coordinates w.r.t. the located triangle's
    vertex order.  For a point incident to several triangles (on a shared
    edge or vertex) the lowest-index incident triangle is returned.  Points
    within DOMAIN_TOL outside the square are clamped; beyond that an
    OutOfDomainError identifies the first offender.  A single point (shape
    (2,)) gives an ``int`` triangle and a (3,) barycentric vector.
    """
    pts = np.asarray(points, dtype=np.float64)
    scalar_input = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != 2:
        raise ValueError(f"expected 2D points, got shape {pts.shape}")

    over = np.abs(pts) - 1.0
    bad = np.flatnonzero(np.any(over > DOMAIN_TOL, axis=1))
    if bad.size:
        i = int(bad[0])
        raise OutOfDomainError(
            f"point {pts[i]} lies outside [-1,1]^2 by {float(np.max(over[i])):.3e}",
            point=pts[i].copy(), layer_index=layer_index, point_index=i,
        )
    x = np.clip(pts[:, 0], -1.0, 1.0)
    y = np.clip(pts[:, 1], -1.0, 1.0)

    ix, fx = _axis_cells(mesh, x)
    iy, fy = _axis_cells(mesh, y)
    lower = fx >= fy
    tri = 2 * (iy * (mesh.resolution - 1) + ix) + np.where(lower, 0, 1)

    # Lower triangle (v00, v10, v11): bary = (1-fx, fx-fy, fy).
    # Upper triangle (v00, v11, v01): bary = (1-fy, fx, fy-fx).
    bary = np.empty((pts.shape[0], 3))
    bary[:, 0] = np.where(lower, 1.0 - fx, 1.0 - fy)
    bary[:, 1] = np.where(lower, fx - fy, fx)
    bary[:, 2] = np.where(lower, fy, fy - fx)

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
    """

    mesh: Mesh2D
    vertex_positions: np.ndarray  # (V, 2) deformed vertex positions
    A: np.ndarray                 # (T, 2, 2)
    det: np.ndarray               # (T,)
    _locator: object = field(default=None, repr=False, compare=False)

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

    tri_u = U[mesh.triangles]
    deformed_edges = np.stack(
        [tri_u[:, 1] - tri_u[:, 0], tri_u[:, 2] - tri_u[:, 0]], axis=-1)
    A = deformed_edges @ mesh.edge_inverse
    return PLMap2D(
        mesh=mesh,
        vertex_positions=_readonly(U.copy()),
        A=_readonly(A),
        det=_readonly(_det22(A)),
    )


def interpolate(positions, triangles, tri, bary):
    """Barycentric combination of triangle corners taken from ``positions``.

    Exact on vertices, so shared edges evaluate identically from either side.
    """
    return np.einsum("nk,nkd->nd", bary, positions[triangles[tri]])


def map_points(plmap: PLMap2D, points, layer_index=None):
    """Apply the PL map to a batch of points; returns (N, 2) images."""
    tri, bary = locate_points(plmap.mesh, points, layer_index=layer_index)
    return interpolate(plmap.vertex_positions, plmap.mesh.triangles,
                       np.atleast_1d(tri), np.atleast_2d(bary))


class _ImageLocator:
    """Uniform bin grid over the deformed mesh for image-side point location.

    Each background cell stores the ascending indices of the triangles whose
    padded image bounding box touches it.  A query tests every candidate in
    its point's cell and takes the first (lowest-index) one that holds the
    point within _BARY_STRICT, which matches the forward locator's
    tie-break; failing that, the candidate whose smallest barycentric is
    largest (lowest index on ties), if that is within _BARY_FALLBACK.

    The padding makes the cell's candidates cover every triangle that could
    be accepted: if all barycentrics of p are >= -eps then, per axis,
    ``p - max = sum_i l_i (x_i - max)`` takes only the (at most two)
    negative ``l_i``, so p lies at most ``2 eps width`` outside the
    triangle's bounding box, and ``width <= span`` (the 1e-12 absorbs
    rounding).  So a scan over all triangles would pick the same one, and a
    point whose cell is empty is outside the mesh.
    """

    def __init__(self, plmap: PLMap2D):
        mesh = plmap.mesh
        U = plmap.vertex_positions
        tri_u = U[mesh.triangles]  # (T, 3, 2)
        self.tri_u0 = np.ascontiguousarray(tri_u[:, 0])
        # Inverse of the deformed edge matrix: B_rest @ inv(A).
        self.B_img = mesh.edge_inverse @ _inv22(plmap.A)

        self.lo = U.min(axis=0)
        hi = U.max(axis=0)
        span = np.maximum(hi - self.lo, 1e-30)
        self.ncell = max(mesh.resolution - 1, 1)
        self.cell = span / self.ncell

        pad = 1e-12 + 2.0 * _BARY_FALLBACK * span
        blo = np.floor((tri_u.min(axis=1) - pad - self.lo) / self.cell).astype(np.int64)
        bhi = np.floor((tri_u.max(axis=1) + pad - self.lo) / self.cell).astype(np.int64)
        blo = np.clip(blo, 0, self.ncell - 1)
        bhi = np.clip(bhi, 0, self.ncell - 1)

        nx = bhi[:, 0] - blo[:, 0] + 1
        ny = bhi[:, 1] - blo[:, 1] + 1
        counts = nx * ny
        tri_ids = np.repeat(np.arange(mesh.num_triangles), counts)
        # Enumerate covered cells per triangle without a Python loop.
        offsets = np.concatenate([[0], np.cumsum(counts)])
        local = np.arange(counts.sum()) - offsets[tri_ids]
        cx = blo[tri_ids, 0] + local % nx[tri_ids]
        cy = blo[tri_ids, 1] + local // nx[tri_ids]
        cell_ids = cy * self.ncell + cx

        order = np.lexsort((tri_ids, cell_ids))
        self.bucket_tris = tri_ids[order]
        self.bucket_start = np.searchsorted(
            cell_ids[order], np.arange(self.ncell * self.ncell + 1))

    def query(self, points, layer_index=None):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n = pts.shape[0]
        cidx = np.clip(
            np.floor((pts - self.lo) / self.cell).astype(np.int64), 0, self.ncell - 1)
        cells = cidx[:, 1] * self.ncell + cidx[:, 0]
        start = self.bucket_start[cells]
        length = self.bucket_start[cells + 1] - start

        # One row per (point, candidate): points in order, each point's
        # candidates in ascending triangle index.
        owner = np.repeat(np.arange(n), length)
        head = np.cumsum(length) - length  # each point's first row
        m = owner.size
        rows = np.arange(m)
        cand = self.bucket_tris[np.repeat(start - head, length) + rows]
        local = np.einsum(
            "nij,nj->ni", self.B_img[cand], pts[owner] - self.tri_u0[cand])
        bary = np.column_stack([1.0 - local[:, 0] - local[:, 1], local])
        score = bary.min(axis=1)

        best = np.full(n, -np.inf)  # stays -inf for a point with no candidate
        filled = length > 0
        best[filled] = np.maximum.reduceat(score, head[filled])
        bad = np.flatnonzero(best < -_BARY_FALLBACK)
        if bad.size:
            i = int(bad[0])
            raise NotInImageError(
                f"point {pts[i]} is outside the deformed mesh "
                f"(best containment violation {-best[i]:.3e})",
                point=pts[i].copy(), layer_index=layer_index, point_index=i)

        # A strict hit keys as its row, a best-score row as row + m, so the
        # smallest key is the first strict hit, else the first best score.
        key = np.where(score >= -_BARY_STRICT, rows,
                       np.where(score == best[owner], rows + m, 2 * m))
        pick = np.minimum.reduceat(key, head) % max(m, 1)
        return cand[pick], bary[pick]


def locate_image_points(plmap: PLMap2D, points, layer_index=None):
    """Triangle indices and barycentrics of points in the deformed mesh."""
    return plmap.image_locator().query(points, layer_index=layer_index)


def invert_points(plmap: PLMap2D, points, layer_index=None):
    """Preimages of image-space points under the PL map, batched."""
    tri, bary = locate_image_points(plmap, points, layer_index=layer_index)
    return interpolate(plmap.mesh.vertices, plmap.mesh.triangles, tri, bary)
