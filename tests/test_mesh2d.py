import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tuttedeform.errors import NotInImageError, OutOfDomainError
from tuttedeform.mesh2d import (_BARY_FALLBACK, _BARY_STRICT, build_mesh,
                                locate_image_points, locate_points, map_points,
                                realize_plmap)
from tuttedeform.tutte import solve_tutte

from conftest import random_params


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
    t, bary = locate_points(mesh, np.array([0.1, -0.2]))
    assert isinstance(t, int) and 0 <= t < mesh.num_triangles
    assert bary.shape == (3,)


def test_rest_realization_is_identity():
    mesh = build_mesh(6)
    plmap = realize_plmap(mesh, mesh.vertices)
    assert np.allclose(plmap.A, np.eye(2), atol=1e-14)
    assert np.allclose(plmap.det, 1.0)
    pts = np.random.default_rng(2).uniform(-1, 1, size=(64, 2))
    assert np.allclose(map_points(plmap, pts), pts, atol=1e-15)


def test_image_location_roundtrip():
    from tuttedeform.mesh2d import invert_points
    from tuttedeform.tutte import solve_tutte, TutteLayerParams
    mesh = build_mesh(7)
    rng = np.random.default_rng(3)
    params = TutteLayerParams(rng.normal(0, 2, mesh.edges.shape[0]),
                              rng.normal(0, 2, mesh.boundary_loop.size))
    plmap = solve_tutte(mesh, params)
    pts = rng.uniform(-1, 1, size=(500, 2))
    images = map_points(plmap, pts)
    back = invert_points(plmap, images)
    assert np.abs(back - pts).max() < 1e-10


def face_points(rng, k):
    """``k`` points on each face of the square, the four corners first."""
    t = rng.uniform(-1, 1, k)
    one = np.ones(k)
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    return np.concatenate([corners, np.column_stack([t, -one]), np.column_stack([one, t]),
                           np.column_stack([t, one]), np.column_stack([-one, t])])


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


def test_image_location_with_empty_bins():
    # A rotated, sheared image leaves the bin grid's corners empty.
    mesh = build_mesh(25)
    x, y = mesh.vertices.T
    warped = np.column_stack([0.7 * x - 0.7 * y + 0.1 * x * y, 0.7 * x + 0.5 * y])
    plmap = realize_plmap(mesh, warped)
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
    # Triangle 0 is a wedge (v0, v1, v5) wider than half the image, with its
    # apex v1 on the bottom boundary just short of the last bin column.  The
    # point beyond v1 has barycentrics (-0.99e-9, 1 + 1.98e-9, -0.99e-9) there,
    # but lies 1.2e-9 past the wedge's bounding box, in the next bin.
    mesh = build_mesh(4)
    apex = 2.0 / 3.0 - 1.1e-9
    U = np.array([[0, 0], [apex, 0], [0.75, 0.3], [1, 0.4],
                  [0, 0.35], [0.05, 0.1], [0.55, 0.45], [1, 0.6],
                  [0, 0.7], [0.3, 0.7], [0.65, 0.7], [1, 0.8],
                  [0, 1], [0.33, 1], [0.66, 1], [1, 1]])
    plmap = realize_plmap(mesh, U)
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
