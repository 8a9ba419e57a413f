import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tuttedeform import mesh2d
from tuttedeform.errors import NotInImageError, OutOfDomainError
from tuttedeform.mesh2d import (_BARY_FALLBACK, _BARY_STRICT, _SCAN_PAIRS, DOMAIN_TOL,
                                _axis_cells, _grid_cells, _star_shaped_loop, _walk_cells,
                                build_mesh, locate_image_points, locate_points,
                                realize_plmap, realize_plmaps)
from tuttedeform.tutte import solve_tutte

from conftest import (oracle_image_tables, oracle_interpolate, oracle_star_shaped_loop,
                      random_net, random_params)


def brute_force_locate(positions, triangles, q, tol=1e-12):
    """All triangles containing q, by solving for barycentrics directly.

    ``positions`` are the vertex positions: the rest vertices for the
    domain side, a realized map's deformed vertices for the image side.
    """
    va, vb, vc = (positions[triangles[:, k]] for k in range(3))
    M = np.stack([vb - va, vc - va], axis=-1)
    lam = np.linalg.solve(M, (q - va)[:, :, None])[:, :, 0]
    bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
    return [(t, bary[t]) for t in np.flatnonzero(np.all(bary >= -tol, axis=1))]


def image_reference(plmap, q):
    """All-triangle image-side location of one point, or None outside.

    The lowest-index triangle holding q within _BARY_STRICT, else the
    triangle whose smallest barycentric is largest (lowest index on ties)
    if that is within _BARY_FALLBACK.
    """
    hits = brute_force_locate(plmap.vertex_positions, plmap.mesh.triangles, q,
                              tol=_BARY_FALLBACK)
    strict = [h for h in hits if h[1].min() >= -_BARY_STRICT]
    if strict:
        return strict[0]
    return max(hits, key=lambda h: h[1].min()) if hits else None


def assert_matches_image_reference(plmap, pts):
    refs = [image_reference(plmap, q) for q in pts]
    inside = np.array([r is not None for r in refs], dtype=bool)
    tri, bary = locate_image_points(plmap, pts[inside])
    assert np.array_equal(tri, [r[0] for r in refs if r is not None])
    ref_bary = np.reshape([r[1] for r in refs if r is not None], (-1, 3))
    assert np.allclose(bary, ref_bary, atol=1e-12, rtol=0)
    if not inside.all():
        with pytest.raises(NotInImageError) as ei:
            locate_image_points(plmap, pts, layer_index=4)
        assert ei.value.point_index == int(np.argmin(inside))
        assert ei.value.layer_index == 4


def test_counts_and_structure():
    for n in (2, 3, 5, 8):
        mesh = build_mesh(n)
        assert mesh.num_vertices == n * n
        assert mesh.num_triangles == 2 * (n - 1) ** 2
        assert mesh.edges.shape[0] == 2 * n * (n - 1) + (n - 1) ** 2
        assert mesh.boundary_loop.size == 4 * (n - 1)
        assert np.isclose(mesh.areas.sum(), 4.0)
        assert np.all(mesh.areas > 0)
        # Meshes are shared between callers, so none may be written.
        assert build_mesh(n) is mesh
        assert not any(a.flags.writeable for a in (mesh.vertices, mesh.triangles,
                                                   mesh.edge_inverse, mesh.grid))


def test_boundary_loop_ccw_from_corner():
    mesh = build_mesh(6)
    loop = mesh.vertices[mesh.boundary_loop]
    assert np.allclose(loop[0], [-1.0, -1.0])
    x, y = loop[:, 0], loop[:, 1]
    # shoelace; positive means counterclockwise
    area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area2 > 0
    assert np.all(np.abs(loop).max(axis=1) == 1.0)


def test_triangles_counterclockwise():
    mesh = build_mesh(7)
    v = mesh.vertices[mesh.triangles]
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    assert np.all(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0)


def test_interior_boundary_partition():
    mesh = build_mesh(5)
    assert set(mesh.boundary_loop) | set(mesh.interior_ids) == set(range(25))
    assert set(mesh.boundary_loop) & set(mesh.interior_ids) == set()


def test_locate_matches_brute_force():
    mesh = build_mesh(6)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(300, 2))
    tri, bary = locate_points(mesh, pts)
    for k in range(len(pts)):
        hits = brute_force_locate(mesh.vertices, mesh.triangles, pts[k])
        assert tri[k] in [h[0] for h in hits]
        corners = mesh.vertices[mesh.triangles[tri[k]]]
        assert np.allclose(bary[k] @ corners, pts[k], atol=1e-12)
        assert np.all(bary[k] >= -1e-12) and np.isclose(bary[k].sum(), 1.0)


def test_gridline_points_take_lowest_triangle():
    # all vertices, edge midpoints, and random points pinned to gridlines
    mesh = build_mesh(5)
    special = [mesh.vertices]
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    special.append(mids)
    rng = np.random.default_rng(1)
    g = mesh.grid
    onx = np.column_stack([g[rng.integers(0, 5, 50)], rng.uniform(-1, 1, 50)])
    ony = np.column_stack([rng.uniform(-1, 1, 50), g[rng.integers(0, 5, 50)]])
    pts = np.concatenate(special + [onx, ony])
    tri, bary = locate_points(mesh, pts)
    for k in range(len(pts)):
        hits = brute_force_locate(mesh.vertices, mesh.triangles, pts[k])
        assert tri[k] == min(h[0] for h in hits)


def test_out_of_domain_raises_with_point():
    mesh = build_mesh(4)
    with pytest.raises(OutOfDomainError) as ei:
        locate_points(mesh, np.array([[0.0, 0.0], [1.5, 0.0]]))
    assert ei.value.point_index == 1
    # within tolerance of the boundary is clamped, not rejected
    tri, bary = locate_points(mesh, np.array([1.0 + 1e-10, 0.3]))
    assert np.all(bary >= -1e-9)


def test_scalar_point_roundtrip():
    mesh = build_mesh(4)
    p = np.array([0.1, -0.2])
    t, bary = locate_points(mesh, p)
    assert isinstance(t, int) and 0 <= t < mesh.num_triangles
    assert bary.shape == (3,)
    assert np.array_equal(bary, locate_points(mesh, p[None])[1][0])


def map_points(plmap, pts):
    """Images of 2D points: forward location, then interpolation."""
    tri, bary = locate_points(plmap.mesh, pts)
    return oracle_interpolate(plmap.vertex_positions, plmap.mesh.triangles, tri, bary)


def test_rest_realization_is_identity():
    mesh = build_mesh(6)
    plmap = realize_plmap(mesh, mesh.vertices)
    assert np.allclose(plmap.A, np.eye(2), atol=1e-14)
    assert np.allclose(plmap.det, 1.0)
    pts = np.random.default_rng(2).uniform(-1, 1, size=(64, 2))
    assert np.allclose(map_points(plmap, pts), pts, atol=1e-15)


def test_image_location_roundtrip():
    from tuttedeform.tutte import solve_tutte, TutteLayerParams
    mesh = build_mesh(7)
    rng = np.random.default_rng(3)
    params = TutteLayerParams(rng.normal(0, 2, mesh.edges.shape[0]),
                              rng.normal(0, 2, mesh.boundary_loop.size))
    plmap = solve_tutte(mesh, params)
    pts = rng.uniform(-1, 1, size=(500, 2))
    images = map_points(plmap, pts)
    tri, bary = locate_image_points(plmap, images)
    back = oracle_interpolate(mesh.vertices, mesh.triangles, tri, bary)
    assert np.abs(back - pts).max() < 1e-10


def face_points(rng, k):
    """``k`` points on each face of the square, the four corners first."""
    t = rng.uniform(-1, 1, k)
    one = np.ones(k)
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    return np.concatenate([corners, np.column_stack([t, -one]), np.column_stack([one, t]),
                           np.column_stack([t, one]), np.column_stack([-one, t])])


def probe_points(mesh, rng):
    """Random points, every vertex, edge midpoints, points on gridlines and
    points on the faces of the square."""
    g = mesh.grid
    k = 200
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    on_x = np.column_stack([g[rng.integers(0, g.size, k)], rng.uniform(-1, 1, k)])
    on_y = np.column_stack([rng.uniform(-1, 1, k), g[rng.integers(0, g.size, k)]])
    return np.concatenate([rng.uniform(-1, 1, (1000, 2)), mesh.vertices, mids,
                           on_x, on_y, face_points(rng, k)])


@pytest.mark.parametrize("res", [2, 5, 25])
def test_interpolate_matches_einsum_bit_for_bit(res):
    rng = np.random.default_rng(20 + res)
    mesh = build_mesh(res)
    pts = probe_points(mesh, rng)
    tri, bary = locate_points(mesh, pts)
    # Arbitrary weights on arbitrary triangles too, where rounding differs more.
    n = 2000
    tri = np.concatenate([tri, rng.integers(0, mesh.num_triangles, n)])
    bary = np.concatenate([bary, rng.dirichlet(np.ones(3), n)])
    deformed = solve_tutte(mesh, random_params(rng, mesh, scale=2.0)).vertex_positions
    for positions in (mesh.vertices, deformed):
        oracle = np.einsum("nk,nkd->nd", bary, positions[mesh.triangles[tri]])
        assert np.array_equal(oracle_interpolate(positions, mesh.triangles, tri, bary), oracle)


@pytest.mark.parametrize("res", [2, 5, 25])
def test_locate_barycentrics_are_exact_on_ties(res):
    rng = np.random.default_rng(30 + res)
    mesh = build_mesh(res)
    tri, bary = locate_points(mesh, probe_points(mesh, rng))
    assert np.abs(bary.sum(axis=1) - 1.0).max() <= 1e-15
    assert np.all(bary >= 0.0)

    # A vertex gets one weight of exactly 1 and two of exactly 0.
    _, bary = locate_points(mesh, mesh.vertices)
    assert np.array_equal(np.sort(bary, axis=1),
                          np.tile([0.0, 0.0, 1.0], (mesh.num_vertices, 1)))
    # On a cell's diagonal the lower triangle (v00, v10, v11) is taken, and
    # the weight of v10, opposite the shared edge, is exactly 0.
    c = np.concatenate([rng.uniform(-1, 1, 300), mesh.grid])
    tri, bary = locate_points(mesh, np.column_stack([c, c]))
    assert np.all(tri % 2 == 0)
    assert np.all(bary[:, 1] == 0.0)
    # On an interior gridline the cell below or to the left is taken, and
    # the weight of its v00, opposite the shared edge, is exactly 0.
    inner = mesh.grid[1:-1]
    if inner.size:
        line = inner[rng.integers(0, inner.size, 300)]
        free = rng.uniform(-1, 1, 300)
        for pts, parity in ((np.column_stack([line, free]), 0),
                            (np.column_stack([free, line]), 1)):
            tri, bary = locate_points(mesh, pts)
            assert np.all(tri % 2 == parity)
            assert np.all(bary[:, 0] == 0.0)


def test_image_location_matches_all_triangle_reference():
    rng = np.random.default_rng(5)
    for res in (2, 3, 7, 25):
        mesh = build_mesh(res)
        plmap = solve_tutte(mesh, random_params(rng, mesh, scale=2.0))
        faces = face_points(rng, 40)
        on_image = np.concatenate([
            map_points(plmap, rng.uniform(-1, 1, (400, 2))),
            map_points(plmap, faces),
            plmap.vertex_positions,
        ])
        assert_matches_image_reference(plmap, on_image)
        # The image is the square, so pushing face points outward crosses the
        # strict, the fallback and the rejection tolerance in turn.
        for d in (1e-12, 1e-11, 1e-10, 3e-10):
            assert_matches_image_reference(plmap, faces * (1.0 + d))
        tri, bary = locate_image_points(plmap, np.zeros((0, 2)))
        assert tri.shape == (0,) and bary.shape == (0, 3)


def sheared_map():
    """A rotated, sheared res-25 map, whose image leaves the corners of its
    bounding box empty."""
    mesh = build_mesh(25)
    x, y = mesh.vertices.T
    return realize_plmap(
        mesh, np.column_stack([0.7 * x - 0.7 * y + 0.1 * x * y, 0.7 * x + 0.5 * y]))


def wedge_map():
    """A res-4 map whose triangle 0 is a wedge (v0, v1, v5) wider than half
    the image, with its apex v1 on the bottom boundary just short of
    x = 2/3."""
    mesh = build_mesh(4)
    apex = 2.0 / 3.0 - 1.1e-9
    U = np.array([[0, 0], [apex, 0], [0.75, 0.3], [1, 0.4],
                  [0, 0.35], [0.05, 0.1], [0.55, 0.45], [1, 0.6],
                  [0, 0.7], [0.3, 0.7], [0.65, 0.7], [1, 0.8],
                  [0, 1], [0.33, 1], [0.66, 1], [1, 1]])
    return realize_plmap(mesh, U)


def test_image_location_with_empty_bins():
    plmap = sheared_map()
    warped = plmap.vertex_positions
    assert np.all(plmap.det > 0)
    rng = np.random.default_rng(6)
    lo, hi = warped.min(axis=0), warped.max(axis=0)
    pts = np.concatenate([
        map_points(plmap, rng.uniform(-1, 1, (300, 2))),
        rng.uniform(lo, hi, (300, 2)),
        warped,
    ])
    assert_matches_image_reference(plmap, pts)


def test_image_fallback_reaches_past_a_bin_edge():
    # The point beyond the wedge's apex v1 has barycentrics (-0.99e-9,
    # 1 + 1.98e-9, -0.99e-9) in it, but lies 1.2e-9 past the wedge's
    # bounding box.
    plmap = wedge_map()
    U = plmap.vertex_positions
    assert np.all(plmap.det > 0)
    p = U[1] + 0.99e-9 * (2 * U[1] - U[0] - U[5])
    assert image_reference(plmap, p)[0] == 0
    assert_matches_image_reference(plmap, p[None])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                min_size=1, max_size=8))
def test_locate_property(coords):
    mesh = build_mesh(5)
    pts = np.array(coords, dtype=np.float64)
    tri, bary = locate_points(mesh, pts)
    tri, bary = np.atleast_1d(tri), np.atleast_2d(bary)
    corners = mesh.vertices[mesh.triangles[tri]]
    rebuilt = np.einsum("nk,nkd->nd", bary, corners)
    assert np.abs(rebuilt - pts).max() <= 1e-12
    assert np.all(bary >= -1e-12)
    assert np.allclose(bary.sum(axis=1), 1.0)


# ------------------------------------- grid cells: fast path vs the oracle

def oracle_axis_cells(mesh, coords):
    """``_axis_cells`` without its fast path: the floor guess, then both
    gridline corrections on every coordinate.  Frozen as the oracle."""
    grid = mesh.grid
    t = coords + 1.0
    t /= mesh.cell_size
    idx = t.astype(np.int64)  # >= 0, as coords >= -1
    np.minimum(idx, mesh.resolution - 2, out=idx)
    idx -= coords <= grid.take(idx)
    np.maximum(idx, 0, out=idx)
    idx += coords > grid[1:].take(idx)
    frac = coords - grid.take(idx)
    frac /= mesh.cell_widths.take(idx)
    return idx, frac


def oracle_grid_cells(mesh, xy):
    idx, (fx, fy) = oracle_axis_cells(mesh, xy)
    upper = fx < fy
    return (idx[1] * (mesh.resolution - 1) + idx[0]) * 2 + upper, np.stack([fx, fy]), upper


def oracle_locate(mesh, pts):
    """``locate_points`` on a copy clamped onto the square, by the oracle."""
    xy = np.maximum(np.minimum(pts.T, 1.0), -1.0)
    tri, (fx, fy), upper = oracle_grid_cells(mesh, xy)
    return tri, np.stack([1.0 - np.maximum(fx, fy), fx - fy * ~upper, fy - fx * upper], axis=1)


def _bits(*arrays):
    return [(a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()) for a in arrays]


def assert_cells_match_oracle(mesh, pts):
    """``_axis_cells``, ``_grid_cells`` and ``locate_points`` on the (N, 2)
    ``pts`` against the oracle, byte for byte."""
    xy = np.maximum(np.minimum(pts.T, 1.0), -1.0)
    assert _bits(*_axis_cells(mesh, xy)) == _bits(*oracle_axis_cells(mesh, xy))
    assert _bits(*_grid_cells(mesh, xy)) == _bits(*oracle_grid_cells(mesh, xy))
    assert _bits(*locate_points(mesh, pts)) == _bits(*oracle_locate(mesh, pts))


def axis_probes(mesh):
    """Every gridline and its float neighbours on both sides, +-1, +-0.0,
    subnormals, and coordinates within DOMAIN_TOL outside the square."""
    g = mesh.grid
    tiny = np.finfo(np.float64).smallest_subnormal
    return np.concatenate([
        g, np.nextafter(g, -np.inf), np.nextafter(g, np.inf),
        [-1.0, 1.0, 0.0, -0.0, tiny, -tiny, 1e-310, -1e-310],
        [1.0 + 0.99 * DOMAIN_TOL, -1.0 - 0.99 * DOMAIN_TOL, 1.0 + 1e-15, -1.0 - 1e-15],
    ])


# At 12 a coordinate one float above a gridline can have a fraction of
# exactly 1 in the cell below, so the fast path must reject frac == 1.
RESOLUTIONS = [2, 3, 5, 7, 11, 12, 13, 25, 64]


@pytest.mark.parametrize("res", RESOLUTIONS)
def test_grid_cells_match_the_oracle_bit_for_bit(res):
    # Every pair of probe coordinates, so ties on both axes at once and the
    # box's corners are covered, then random points, where the fast path
    # holds for the whole batch.
    mesh = build_mesh(res)
    c = axis_probes(mesh)
    x, y = np.meshgrid(c, c)
    assert_cells_match_oracle(mesh, np.column_stack([x.ravel(), y.ravel()]))
    # Each probe alone, next to a point inside a cell: the whole-batch test
    # of the fast path then turns on that one coordinate.
    rng = np.random.default_rng(res)
    for v in c:
        assert_cells_match_oracle(mesh, np.array([[v, rng.uniform(-1, 1)]]))
    assert_cells_match_oracle(mesh, rng.uniform(-1, 1, (5000, 2)))
    empty = np.zeros((0, 2))
    assert_cells_match_oracle(mesh, empty)
    tri, bary = locate_points(mesh, empty)
    assert tri.shape == (0,) and bary.shape == (0, 3)


@pytest.mark.parametrize("res", [3, 25])
def test_image_walk_positions_on_box_faces_match_the_oracle(res):
    # The image walk clamps its positions onto the square, so most of its
    # misses of the fast path are coordinates of exactly +-1; some sit on a
    # gridline as well.
    mesh = build_mesh(res)
    rng = np.random.default_rng(40 + res)
    on_face = rng.uniform(-1.2, 1.2, (4000, 2))
    on_line = rng.random((4000, 2)) < 0.1
    on_face[on_line] = rng.choice(mesh.grid, on_line.sum())
    xy = np.maximum(np.minimum(on_face.T, 1.0), -1.0)
    assert np.mean(np.abs(xy) == 1.0) > 0.1
    assert _bits(*_grid_cells(mesh, xy)) == _bits(*oracle_grid_cells(mesh, xy))
    tri = np.empty(xy.shape[1], dtype=np.int64)
    assert _grid_cells(mesh, xy, tri)[0] is tri


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RESOLUTIONS),
       st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(-6, 6),
                          st.integers(0, 1 << 20), st.integers(-6, 6)),
                min_size=1, max_size=12))
def test_gridlines_give_or_take_some_ulps_match_the_oracle(res, picks):
    # Each coordinate is a gridline stepped k floats up or down, clamped.
    mesh = build_mesh(res)

    def near_line(i, k):
        v = mesh.grid[i % res]
        for _ in range(abs(k)):
            v = np.nextafter(v, np.inf if k > 0 else -np.inf)
        return float(np.clip(v, -1.0, 1.0))

    pts = np.array([[near_line(i, k), near_line(j, m)] for i, k, j, m in picks])
    assert_cells_match_oracle(mesh, pts)


def test_locate_reads_in_box_rows_without_writing_them():
    # In-box points are read where they lie; their cells equal those of the
    # clamp path, taken when one point lies just outside the box.
    mesh = build_mesh(7)
    rng = np.random.default_rng(41)
    rows = rng.uniform(-1, 1, (2, 3000))
    rows[:, :50] = rng.choice(mesh.grid, (2, 50))
    before = rows.copy()
    tri, bary = locate_points(mesh, rows.T)
    assert np.array_equal(rows, before)
    assert not np.shares_memory(bary, rows)
    out_tri, out_bary = locate_points(mesh, np.column_stack([rows, [1.0 + 1e-10, 0.0]]).T)
    assert _bits(tri, bary) == _bits(out_tri[:-1], out_bary[:-1])


# --------------------------------------------- image-side walk vs the scan

def bin_oracle(plmap, pts, layer_index=None):
    """The locator's scan over every triangle run on every row: its
    fallback called directly, with no walk in front.  Returns ``(tri, bary)``."""
    loc = plmap.image_locator()
    tri, ls = loc._scan_query(pts, np.arange(len(pts)), layer_index)
    return tri, np.column_stack(ls)


def assert_walk_matches_bins(plmap, pts):
    """``locate_image_points`` equals the scan oracle bit for bit, or both
    raise at the same point with the same message."""
    try:
        want_tri, want_bary = bin_oracle(plmap, pts, layer_index=7)
    except NotInImageError as want:
        with pytest.raises(NotInImageError) as got:
            locate_image_points(plmap, pts, layer_index=7)
        assert (got.value.point_index, got.value.layer_index) == (want.point_index, 7)
        assert str(got.value) == str(want)
        return False
    tri, bary = locate_image_points(plmap, pts, layer_index=7)
    assert np.array_equal(tri, want_tri)
    assert np.ascontiguousarray(bary).tobytes() == want_bary.tobytes()
    return True


def near_threshold_points(plmap, rng, factor, k=300):
    """Points inside random triangles whose smallest barycentric is about
    ``factor`` times the triangle's walk threshold."""
    mesh, thr = plmap.mesh, plmap.image_locator().thr
    tri = rng.integers(0, mesh.num_triangles, k)
    s = factor * thr[tri]
    a = rng.uniform(0.2, 0.6, k)
    bary = np.column_stack([s, a, 1.0 - s - a])
    for row, shift in zip(bary, rng.integers(0, 3, k)):
        row[:] = np.roll(row, shift)
    return oracle_interpolate(plmap.vertex_positions, mesh.triangles, tri, bary)


def walk_probe_sets(plmap, rng):
    """The point sets the image walk is held to on ``plmap``: random
    images; ties (deformed vertices, edge midpoints, images of gridline
    points); face points pushed outward past the strict, the fallback and
    the rejection tolerance in turn (for the Tutte maps, whose image is the
    square); and, on a certified map, points near their triangle's
    threshold.  Returns the four lists ``random, ties, pushed, near``."""
    mesh, U = plmap.mesh, plmap.vertex_positions
    random_images = map_points(plmap, rng.uniform(-1, 1, (2000, 2)))
    g = mesh.grid
    on_x = np.column_stack([g[rng.integers(0, g.size, 200)], rng.uniform(-1, 1, 200)])
    on_y = np.column_stack([rng.uniform(-1, 1, 200), g[rng.integers(0, g.size, 200)]])
    mids = 0.5 * (U[mesh.edges[:, 0]] + U[mesh.edges[:, 1]])
    ties = [U, mids, map_points(plmap, np.concatenate([on_x, on_y]))]
    faces = map_points(plmap, face_points(rng, 40))
    pushed = [faces * (1.0 + d) for d in (1e-12, 1e-11, 1e-10, 3e-10)]
    near = []
    if plmap.image_locator().thr is not None:
        near = [near_threshold_points(plmap, rng, factor) for factor in (0.5, 1.0, 2.0)]
    return [random_images], ties, pushed, near


ORACLE_MAPS = [(res, scale) for res in (3, 7, 11, 25) for scale in (0.3, 1.0, 2.0)]


def oracle_map_id(which):
    return which if isinstance(which, str) else "res%d-scale%g" % which


@pytest.mark.parametrize("which", ORACLE_MAPS + ["sheared", "wedge", "folded"],
                         ids=oracle_map_id)
def test_image_walk_matches_bin_query_bit_for_bit(which, monkeypatch):
    rng = np.random.default_rng(40)
    if which == "sheared":
        plmap = sheared_map()
    elif which == "wedge":
        plmap = wedge_map()
    elif which == "folded":
        mesh = build_mesh(5)
        U = mesh.vertices.copy()
        U[12] = [0.9, 0.2]  # the center vertex, pulled over its neighbors
        plmap = realize_plmap(mesh, U)
        assert np.any(plmap.det < 0)
    else:
        res, scale = which
        mesh = build_mesh(res)
        plmap = solve_tutte(mesh, random_params(rng, mesh, scale=scale))
    loc = plmap.image_locator()
    # The folded map is not injective, so its points all take the scan.
    assert (loc.thr is None) == (which == "folded")
    (random_images,), ties, pushed, near = walk_probe_sets(plmap, rng)

    fallback_rows = []
    scan_query = type(loc)._scan_query

    def counted(self, pts, rows, layer_index):
        fallback_rows.append(len(rows))
        return scan_query(self, pts, rows, layer_index)

    monkeypatch.setattr(type(loc), "_scan_query", counted)
    locate_image_points(plmap, random_images)
    if loc.thr is not None:  # the walk located (almost) every random image
        assert sum(fallback_rows) <= 20
    assert assert_walk_matches_bins(plmap, random_images)
    for pts in ties + near:
        assert assert_walk_matches_bins(plmap, pts)
    for pts in pushed:
        assert_walk_matches_bins(plmap, pts)


def located(plmap, pts):
    """``locate_image_points`` as bytes: the triangles and barycentrics, or
    the NotInImageError's message, point and indices."""
    try:
        tri, bary = locate_image_points(plmap, pts, layer_index=7)
    except NotInImageError as e:
        return str(e), e.point.tobytes(), e.point_index, e.layer_index
    return _bits(tri, bary)


@pytest.mark.parametrize("which", ORACLE_MAPS, ids=oracle_map_id)
def test_the_walk_start_moves_no_bit(which, monkeypatch):
    # The walk starts each step from the guess of _walk_cells; started from
    # the exact rest triangle instead, every output is the same, byte for
    # byte, since only the certificate accepts a triangle.
    rng = np.random.default_rng(40)
    res, scale = which
    mesh = build_mesh(res)
    plmap = solve_tutte(mesh, random_params(rng, mesh, scale=scale))
    sets = [pts for kind in walk_probe_sets(plmap, rng) for pts in kind]
    sets.append(np.array([[0.2, 0.1], [1.5, 0.0], [1.7e308, 0.0]]))  # leaves the image
    guessed = [located(plmap, pts) for pts in sets]
    exact_starts = []

    def exact(mesh, xy):
        exact_starts.append(xy.shape[1])
        return _grid_cells(mesh, xy)[0]

    monkeypatch.setattr(mesh2d, "_walk_cells", exact)
    assert [located(plmap, pts) for pts in sets] == guessed
    assert len(exact_starts) >= len(sets)
    assert guessed[-1][2] == 1


@pytest.mark.parametrize("res", [2, 3, 12, 25])
def test_walk_cells_guess_a_neighbour_of_the_exact_triangle(res):
    # Every pair of probe coordinates (gridlines, one float either side,
    # +-1), clamped as the walk clamps, then random points.
    mesh = build_mesh(res)
    c = np.clip(axis_probes(mesh), -1.0, 1.0)
    x, y = np.meshgrid(c, c)
    rng = np.random.default_rng(60 + res)
    random_xy = rng.uniform(-1, 1, (2, 5000))
    xy = np.concatenate([np.stack([x.ravel(), y.ravel()]), random_xy], axis=1)
    guess, exact = _walk_cells(mesh, xy), _grid_cells(mesh, xy)[0]
    assert guess.dtype == np.int64
    assert np.all((guess >= 0) & (guess < mesh.num_triangles))
    tris = mesh.triangles
    assert np.all(np.any(tris[guess][:, :, None] == tris[exact][:, None, :], axis=(1, 2)))
    # Off gridlines and diagonals the guess is the exact triangle.
    assert np.mean(guess[-5000:] == exact[-5000:]) > 0.99


def test_image_walk_keeps_the_first_outside_point():
    rng = np.random.default_rng(41)
    mesh = build_mesh(11)
    plmap = solve_tutte(mesh, random_params(rng, mesh, scale=1.0))
    inside = map_points(plmap, rng.uniform(-1, 1, (300, 2)))
    outside = np.array([[1.5, 0.0], [0.0, -1.0 - 1e-6]])
    pts = np.concatenate([inside[:100], outside[:1], inside[100:], outside[1:]])
    for query in (locate_image_points, bin_oracle):
        with pytest.raises(NotInImageError) as ei:
            query(plmap, pts, layer_index=9)
        assert (ei.value.point_index, ei.value.layer_index) == (100, 9)
        assert np.array_equal(ei.value.point, outside[0])

    tri, bary = locate_image_points(plmap, np.zeros((0, 2)))
    assert tri.shape == (0,) and bary.shape == (0, 3)
    pts = inside.copy()
    pts[3, 1] = np.nan
    with pytest.raises(ValueError, match="point 3 is not finite"):
        locate_image_points(plmap, pts)


@pytest.mark.parametrize("point", [[1.7e308, 0.0], [1e308, 1e308], [-1.7e308, 1.7e308]])
def test_huge_finite_points_are_not_in_the_image(point, monkeypatch):
    # Their scores overflow to inf and NaN.  A NaN score certifies nothing,
    # no walk position leaves the square, and the scan rejects the point;
    # a RuntimeWarning fails the test.
    rng = np.random.default_rng(43)
    mesh = build_mesh(25)
    plmap = solve_tutte(mesh, random_params(rng, mesh))
    positions = []
    walk_cells = mesh2d._walk_cells

    def checked(mesh, xy):
        positions.append(xy.copy())
        return walk_cells(mesh, xy)

    monkeypatch.setattr(mesh2d, "_walk_cells", checked)
    pts = np.concatenate([map_points(plmap, rng.uniform(-1, 1, (5, 2))), [point]])
    with pytest.raises(NotInImageError, match="is outside the deformed mesh") as ei:
        locate_image_points(plmap, pts, layer_index=6)
    assert (ei.value.point_index, ei.value.layer_index) == (5, 6)
    assert np.array_equal(ei.value.point, point)
    assert len(positions) > 1 and all(np.all(np.abs(xy) <= 1.0) for xy in positions)


def test_image_scan_spans_several_blocks():
    # A folded map is not certified, so every point takes the scan, which
    # scores _SCAN_PAIRS // T points at a time.
    mesh = build_mesh(25)
    U = mesh.vertices.copy()
    U[312] += [0.2, 0.1]  # the center vertex, pulled over its neighbors
    plmap = realize_plmap(mesh, U)
    assert np.any(plmap.det < 0) and plmap.image_locator().thr is None
    block = _SCAN_PAIRS // mesh.num_triangles
    rng = np.random.default_rng(42)
    pts = map_points(plmap, rng.uniform(-1, 1, (3 * block + 5, 2)))
    # Rows on both sides of every block boundary, against the reference.
    near = np.concatenate([np.arange(b - 2, b + 2) for b in (block, 2 * block, 3 * block)])
    tri, bary = locate_image_points(plmap, pts)
    refs = [image_reference(plmap, q) for q in pts[near]]
    assert np.array_equal(tri[near], [r[0] for r in refs])
    assert np.allclose(bary[near], [r[1] for r in refs], atol=1e-12, rtol=0)

    # The first outside point lies in the second block, a later one in the third.
    first = block + 3
    pts[first] = [1.5, 0.0]
    pts[2 * block + 1] = [0.0, -2.0]
    with pytest.raises(NotInImageError) as ei:
        locate_image_points(plmap, pts, layer_index=2)
    assert (ei.value.point_index, ei.value.layer_index) == (first, 2)
    assert np.array_equal(ei.value.point, [1.5, 0.0])


def test_image_scan_skips_a_degenerate_triangle():
    # Triangle 0's corner v1 moved onto its v0-v6 diagonal: its inverse edge
    # matrix is not finite, and it holds no point.
    mesh = build_mesh(5)
    U = mesh.vertices.copy()
    U[1] = 0.5 * (U[0] + U[6])
    with np.errstate(invalid="ignore"):
        plmap = realize_plmap(mesh, U)
        assert plmap.det[0] == 0.0
        pts = np.array([[0.6, 0.6], [0.0, 0.1], [-0.75, -0.75], [-0.5, -0.7]])
        tri, bary = locate_image_points(plmap, pts)
        with pytest.raises(NotInImageError) as ei:  # below the collapsed triangle
            locate_image_points(plmap, np.concatenate([pts, [[-0.9, -0.95]]]))
    assert ei.value.point_index == 4
    for t, b, q in zip(tri, bary, pts):  # the first hit among the other triangles
        want_t, want_b = brute_force_locate(U, mesh.triangles[1:], q)[0]
        assert t == want_t + 1 and np.allclose(b, want_b, atol=1e-12, rtol=0)


def test_star_shaped_loop():
    square = np.array([[-1.0, -1.0], [0.0, -1.0], [1.0, -1.0], [1.0, 0.0],
                       [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0]])
    assert _star_shaped_loop(square)                    # collinear sides pass
    assert not _star_shaped_loop(square[::-1])          # clockwise
    assert not _star_shaped_loop(np.concatenate([square, square]))  # twice round
    arrow = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.0]])
    assert _star_shaped_loop(arrow)                     # not convex, but star-shaped
    hook = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-0.9, 1.0],
                     [-0.9, -0.8], [0.8, -0.8], [0.8, 0.8], [-1.0, 0.8]])
    assert not _star_shaped_loop(hook)                  # crosses itself
    c_shape = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, -0.6], [-0.6, -0.6],
                        [-0.6, 0.6], [1.0, 0.6], [1.0, 1.0], [-1.0, 1.0]])
    assert not _star_shaped_loop(c_shape)               # simple; its mean is outside
    # A stack of loops gives one answer each, the oracle's: each loop turns
    # about its own mean (the last one is far from the stack's).
    loops = [square, square[::-1], hook, c_shape, np.roll(square, 3, axis=0),
             5.0 + 0.1 * square]
    assert _star_shaped_loop(np.stack(loops)).tolist() == [
        oracle_star_shaped_loop(P) for P in loops] == [True, False, False, False, True, True]


# ----------------------------- image-locator tables: stacked vs per layer

def assert_tables_match_oracle(maps):
    """Each map's locator tables, built for the whole stack at once, equal
    the per-layer oracle's byte for byte, and so does ``thr is None``."""
    for plmap in maps:
        loc = plmap.image_locator()
        u0, B, A_inv, thr = oracle_image_tables(plmap)
        assert [loc.u0.tobytes(), loc.B.tobytes(), loc.A_inv.tobytes()] == [
            u0.tobytes(), B.tobytes(), A_inv.tobytes()]
        assert (loc.thr is None) == (thr is None)
        assert thr is None or loc.thr.tobytes() == thr.tobytes()


@pytest.mark.parametrize("res", [3, 7, 11, 25])
def test_stacked_locator_tables_match_the_per_layer_oracle(res):
    rng = np.random.default_rng(50 + res)
    for scale in (0.3, 1.0, 2.0):
        net = random_net(rng, res, layers=4, scale=scale)
        assert_tables_match_oracle(net.maps)


def test_a_layer_that_fails_its_certificate_reaches_no_other_layer():
    # One stack of five layers: certified, folded (det < 0), positively
    # oriented with a boundary that is not star-shaped, collapsed to a
    # point (NaN B and thresholds), certified again.
    mesh = build_mesh(7)
    rng = np.random.default_rng(51)
    good = [solve_tutte(mesh, random_params(rng, mesh)).vertex_positions for _ in range(2)]
    folded = mesh.vertices.copy()
    folded[24] = [0.9, 0.2]  # the center vertex, pulled over its neighbors
    x, y = mesh.vertices.T
    theta, r = 0.9 * np.pi * x, 1.5 - 0.25 * (y + 1.0)  # an annular sector
    sector = 0.5 * np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    maps, A, det = realize_plmaps(mesh, np.stack(
        [good[0], folded, sector, np.zeros_like(folded), good[1]]))
    assert np.any(det[1] < 0) and np.all(det[2] > 0)
    assert not oracle_star_shaped_loop(sector[mesh.boundary_loop])
    assert_tables_match_oracle(maps)
    assert [m.image_locator().thr is None for m in maps] == [False, True, True, True, False]
    for plmap, U in ((maps[0], good[0]), (maps[4], good[1])):
        alone = realize_plmap(mesh, U).image_locator()
        assert plmap.image_locator().thr.tobytes() == alone.thr.tobytes()
