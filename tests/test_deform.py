import re
import sys
import threading
import warnings

import numpy as np
import pytest

from tuttedeform import deform, mesh2d, optim
from tuttedeform.deform import (DeformationNet, PointSet, forward, forward_trace,
                                inverse, inverse_jacobians, jacobians, realize)
from tuttedeform.errors import NotInImageError, OutOfDomainError
from tuttedeform.mesh2d import (_ImageLocator, _inv22, build_mesh, locate_image_points,
                                locate_points, realize_plmap)
from tuttedeform.prism import Frame, apply_lifted, frame_from_axis_angle, triplane_frames
from tuttedeform.optim import pack_params
from tuttedeform.tutte import (TutteLayerParams, identity_params, solve_tutte_with_system,
                               stack_params)

from conftest import (oracle_forward_step, oracle_interpolate, oracle_inverse_step,
                      random_net, random_params, signed_permutations)


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, 0.0, np.inf]]))
    with pytest.raises(ValueError):
        PointSet(np.zeros((3, 3)), weights=np.array([1.0, -1.0, 0.0]))
    ps = PointSet(np.zeros((3, 3)), weights=np.ones(3))
    assert len(ps) == 3


def test_identity_net_is_identity():
    mesh = build_mesh(7)
    params = [identity_params(mesh)] * 4
    net = realize(mesh, params, triplane_frames(4))
    pts = np.random.default_rng(0).uniform(-0.9, 0.9, size=(300, 3))
    assert np.abs(forward(net, pts) - pts).max() < 1e-8


def test_realize_validates_counts():
    mesh = build_mesh(5)
    params = [identity_params(mesh)] * 2
    with pytest.raises(ValueError):
        realize(mesh, params, triplane_frames(3))


def test_realize_on_a_list_and_on_its_stack_agree():
    mesh = build_mesh(7)
    rng = np.random.default_rng(12)
    params = [random_params(rng, mesh, 1.5) for _ in range(3)]
    frames = triplane_frames(3)
    a = realize(mesh, params, frames)
    b = realize(mesh, stack_params(params), frames)
    assert a.params is a.system.params  # the net holds its parameters once
    for name in ("raw_edge_weights", "raw_boundary_increments"):
        assert getattr(a.params, name).tobytes() == getattr(b.params, name).tobytes()
    for name in ("weights", "factor", "positions", "A", "det"):
        assert getattr(a.system, name).tobytes() == getattr(b.system, name).tobytes()
    for ma, mb in zip(a.maps, b.maps):
        for name in ("vertex_positions", "A", "det", "corners", "A_rows"):
            assert getattr(ma, name).tobytes() == getattr(mb, name).tobytes()


def test_a_stack_is_required_where_one_is_expected():
    mesh = build_mesh(5)
    one = random_params(np.random.default_rng(13), mesh)
    for call in (lambda: realize(mesh, one, triplane_frames(1)),
                 lambda: solve_tutte_with_system(mesh, one),
                 lambda: pack_params(one)):
        with pytest.raises(ValueError, match="stacked along a leading layer axis"):
            call()
    for params in ([one, one], stack_params([one, one])):
        with pytest.raises(ValueError, match="got 2 parameter sets but 3 frames"):
            realize(mesh, params, triplane_frames(3))
    empty = TutteLayerParams(np.zeros((0, mesh.edges.shape[0])),
                             np.zeros((0, mesh.boundary_loop.size)))
    for params in ([], empty):
        with pytest.raises(ValueError, match="at least one layer"):
            realize(mesh, params, [])


def test_forward_inverse_roundtrip():
    rng = np.random.default_rng(1)
    net = random_net(rng, resolution=7, layers=5, scale=1.5)
    pts = rng.uniform(-1, 1, size=(2000, 3))
    err = np.abs(inverse(net, forward(net, pts)) - pts).max()
    assert err < 1e-9


def test_pointset_passthrough():
    rng = np.random.default_rng(2)
    net = random_net(rng, resolution=5, layers=2)
    ps = PointSet(rng.uniform(-0.5, 0.5, size=(10, 3)))
    out = forward(net, ps)
    assert isinstance(out, PointSet)
    assert np.array_equal(out.points, forward(net, ps.points))


def test_jacobian_matches_finite_differences():
    # triplane frames, then frames off every permutation (the matmul path)
    rng = np.random.default_rng(3)

    def tilted():
        frames = [frame_from_axis_angle(rng.normal(size=3), rng.uniform(-3, 3))
                  for _ in range(4)]
        return random_net(rng, resolution=7, layers=4, scale=1.2, frames=frames)

    for make in (lambda: random_net(rng, resolution=7, layers=6, scale=1.2), tilted):
        net = make()
        pts = rng.uniform(-0.5, 0.5, size=(25, 3))
        J = jacobians(net, pts)
        h = 1e-7
        for k in range(len(pts)):
            fd = np.empty((3, 3))
            for c in range(3):
                e = np.zeros(3)
                e[c] = h
                fd[:, c] = (forward(net, (pts[k] + e)[None])[0]
                            - forward(net, (pts[k] - e)[None])[0]) / (2 * h)
            rel = np.abs(J[k] - fd).max() / max(1.0, np.abs(fd).max())
            assert rel < 1e-5


def test_inverse_jacobians_invert_forward_jacobians():
    rng = np.random.default_rng(4)
    net = random_net(rng, resolution=7, layers=4, scale=1.5)
    pts = rng.uniform(-0.8, 0.8, size=(50, 3))
    out = forward(net, pts)
    J = jacobians(net, pts)
    Ji = inverse_jacobians(net, out)
    prod = np.einsum("nij,njk->nik", Ji, J)
    assert np.abs(prod - np.eye(3)).max() < 1e-8


def test_inverse_jacobians_on_grid_aligned_points():
    # Every coordinate on a gridline: the orbit meets cell boundaries at
    # several layers, and both Jacobians must pick the same cell there.
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        res = (5, 7, 9)[seed % 3]
        net = random_net(rng, resolution=res, layers=4, scale=1.5)
        g = net.mesh.grid[1:-1]
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        J = jacobians(net, pts)
        Ji = inverse_jacobians(net, forward(net, pts))
        assert np.abs(Ji @ J - np.eye(3)).max() < 1e-8


def test_inverse_jacobians_keep_the_bits_of_per_block_inverses():
    # Oracle: the same walk and chain with every gathered 2x2 block inverted
    # by _inv22, as inverse_jacobians did before it gathered the locator's
    # inv(A) rows.
    rng = np.random.default_rng(105)
    net = random_net(rng, resolution=7, layers=5, scale=1.5)
    g = net.mesh.grid[1:-1]
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    for pts in (rng.uniform(-0.9, 0.9, size=(500, 3)), grid):
        images = forward(net, pts)
        want = deform._chain(net, deform._walk_back(net, images),
                             lambda plmap, tri: _inv22(plmap.factors(tri)), {})
        got = inverse_jacobians(net, images)
        assert got.tobytes() == np.ascontiguousarray(want.transpose(2, 0, 1)).tobytes()
    tri = rng.integers(0, net.mesh.num_triangles, 300)
    for plmap in net.maps:
        assert plmap.inverse_factors(tri).tobytes() == _inv22(plmap.factors(tri)).tobytes()


def test_inverse_errors_on_a_fresh_net():
    # The first inverse of a net builds its locators; a point outside the
    # image still raises the walk's error, naming the point and the layer.
    rng = np.random.default_rng(106)
    mesh = build_mesh(5)
    params = stack_params([random_params(rng, mesh) for _ in range(4)])
    pts = rng.uniform(-0.5, 0.5, size=(40, 3))
    pts[7] = [0.0, 0.0, 1.5]
    errors = []
    for fn in (inverse, inverse_jacobians):
        net = realize(mesh, params, triplane_frames(4))
        with pytest.raises(NotInImageError) as info:
            fn(net, pts)
        e = info.value
        assert (e.point_index, e.layer_index, e.point.tolist()) == (7, 3, [0.0, 1.5])
        errors.append(str(e))
    assert errors[0] == errors[1]
    assert re.fullmatch(r"point \[0\. +1\.5\] is outside the deformed mesh "
                        r"\(best containment violation \S+\)", errors[0])


@pytest.fixture(scope="module")
def res25_net():
    """A seeded res-25 x 24 net and the forward images of 1e4 box points."""
    rng = np.random.default_rng(25)
    net = random_net(rng, 25, 24)
    return net, forward(net, rng.uniform(-1, 1, (10_000, 3)))


def test_a_huge_finite_point_is_not_in_the_image(res25_net):
    # Its scores in the last layer overflow to inf and NaN; it is rejected
    # there, not passed on as a NaN barycentric to the next layer.
    net, images = res25_net
    for fn in (inverse, inverse_jacobians):
        with pytest.raises(NotInImageError, match="is outside the deformed mesh") as info:
            fn(net, np.concatenate([images[:3], [[1e308, 1e308, 0.0]]]))
        e = info.value
        assert (e.point_index, e.layer_index) == (3, net.num_layers - 1)
        assert np.all(np.abs(e.point) >= 1e308)


# The walk's work on ``res25_net``'s images when each step started from the
# exact rest triangle: points scored, and rows that fell back to the scan.
WALK_SCORES, SCAN_ROWS = 397_102, 0


def test_inverse_walk_work_does_not_grow(res25_net, monkeypatch):
    net, images = res25_net
    work = {"scored": 0, "scan": 0}
    barycentrics, scan_query = mesh2d._barycentrics, _ImageLocator._scan_query

    def scored(dx, *rest):
        if dx.ndim == 1:  # the walk; the scan scores (points, T) blocks
            work["scored"] += dx.size
        return barycentrics(dx, *rest)

    def scanned(self, pts, rows, layer_index):
        work["scan"] += len(rows)
        return scan_query(self, pts, rows, layer_index)

    monkeypatch.setattr(mesh2d, "_barycentrics", scored)
    monkeypatch.setattr(_ImageLocator, "_scan_query", scanned)
    counts = []
    for _ in range(2):
        work.update(scored=0, scan=0)
        inverse(net, images)
        counts.append(dict(work))
    assert counts[0] == counts[1]  # the counts repeat exactly
    assert counts[0]["scored"] <= WALK_SCORES and counts[0]["scan"] <= SCAN_ROWS


def test_one_locator_build_per_realize(monkeypatch):
    builds = []
    build = mesh2d._build_image_locators

    def counted(*args):
        builds.append(len(args[3]))
        return build(*args)

    monkeypatch.setattr(mesh2d, "_build_image_locators", counted)
    rng = np.random.default_rng(107)
    mesh = build_mesh(5)
    params = stack_params([random_params(rng, mesh) for _ in range(4)])
    net = realize(mesh, params, triplane_frames(4))
    pts = rng.uniform(-0.8, 0.8, size=(200, 3))
    images = forward(net, pts)
    jacobians(net, pts)
    forward_trace(net, pts, need_jacobian=True)
    assert builds == []
    inverse(net, images)
    inverse_jacobians(net, images)
    for l, plmap in enumerate(net.maps):
        locate_image_points(plmap, pts[:, :2], layer_index=l)
    assert builds == [4]  # one stacked build of all four layers
    inverse(realize(mesh, params, triplane_frames(4)), images)
    assert builds == [4, 4]
    job = optim.FitJob(source=PointSet(pts), target_vertices=images,
                       spec=optim.NetSpec(layers=3, resolution=5), max_steps=2, log_every=0)
    optim.run_fit(job)
    assert builds == [4, 4]


def test_concurrent_first_inverses_agree():
    # Threads racing to a fresh net's first inverse may each build the
    # stacked tables; every build is complete and equal, so every thread
    # gets the one-thread answer.
    rng = np.random.default_rng(108)
    mesh = build_mesh(7)
    params = stack_params([random_params(rng, mesh) for _ in range(6)])
    images = forward(realize(mesh, params, triplane_frames(6)), rng.uniform(-0.8, 0.8, (300, 3)))
    want = inverse(realize(mesh, params, triplane_frames(6)), images).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            net = realize(mesh, params, triplane_frames(6))
            got = [None] * 6
            barrier = threading.Barrier(len(got))

            def run(i):
                barrier.wait(timeout=30)
                got[i] = inverse(net, images).tobytes()

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(got))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * len(got)
    finally:
        sys.setswitchinterval(interval)


def test_tie_heavy_inverse_takes_the_bin_rule(monkeypatch):
    # Identity layers put every lattice point on a vertex, edge or cell
    # diagonal of every layer's image mesh, where no triangle can be
    # certified: each point at each layer takes the locator's fallback scan.
    mesh = build_mesh(7)
    frames = triplane_frames(6)
    maps = tuple(realize_plmap(mesh, mesh.vertices) for _ in frames)
    net = DeformationNet(mesh=mesh, frames=tuple(frames), maps=maps, system=None)
    g = mesh.grid
    axis = np.concatenate([g, 0.5 * (g[1:] + g[:-1])])
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)

    # The rule alone: the scan on every row, layer by layer.
    want, want_J = pts, np.eye(3)[:, :, None]
    for l in reversed(range(len(maps))):
        frame, plmap = frames[l], maps[l]
        local = want @ frame.rotation
        tri, ls = plmap.image_locator()._scan_query(local[:, :2], np.arange(len(pts)), l)
        local[:, :2] = oracle_interpolate(mesh.vertices, mesh.triangles, tri,
                                          np.column_stack(ls))
        want = local @ frame.rotation.T
        want_J = apply_lifted(frame, _inv22(plmap.A[tri]), want_J)

    fallback_rows = []
    scan_query = _ImageLocator._scan_query

    def counted(self, pts, rows, layer_index):
        fallback_rows.append(len(rows))
        return scan_query(self, pts, rows, layer_index)

    monkeypatch.setattr(_ImageLocator, "_scan_query", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = inverse(net, pts)
        got_J = inverse_jacobians(net, pts)
    assert fallback_rows == [len(pts)] * (2 * len(maps))
    assert got.tobytes() == want.tobytes()
    assert got_J.tobytes() == np.ascontiguousarray(want_J.transpose(2, 0, 1)).tobytes()


def _lifted(frame, A):
    """The full 3x3 layer Jacobians R lift(A_t) R^T of an (N, 2, 2) stack."""
    M = np.zeros((len(A), 3, 3))
    M[:, :2, :2] = A
    M[:, 2, 2] = 1.0
    return frame.rotation @ M @ frame.rotation.T


@pytest.mark.parametrize("resolution", [3, 7, 11])
@pytest.mark.parametrize("scale", [0.3, 1.0, 2.0])
def test_jacobian_chains_match_explicit_3x3_products(resolution, scale):
    # Oracle: the chains multiplied out as stacked 3x3 matmuls, each layer's
    # full Jacobian formed explicitly.  The row-stack chains round in another
    # order, hence 2e-15 of max|J|.  Tilted frames take the tensordot path;
    # their points stay near the center, where every layer's local
    # coordinates are inside the square.
    rng = np.random.default_rng(resolution + int(10 * scale))
    tilted = [frame_from_axis_angle(rng.normal(size=3), rng.uniform(-3, 3))
              for _ in range(4)]
    for frames, half in ((triplane_frames(4), 0.9), (tilted, 0.3)):
        net = random_net(rng, resolution, layers=4, scale=scale, frames=frames)
        pts = rng.uniform(-half, half, size=(300, 3))
        images = forward(net, pts)
        want = want_inv = np.broadcast_to(np.eye(3), (len(pts), 3, 3))
        x, y = pts, images
        for l, (frame, plmap) in enumerate(zip(net.frames, net.maps)):
            x, tri, _ = oracle_forward_step(frame, plmap, x, l)
            want = _lifted(frame, plmap.A[tri]) @ want
        for l in reversed(range(net.num_layers)):
            y, tri = oracle_inverse_step(net.frames[l], net.maps[l], y, l)
            want_inv = _lifted(net.frames[l], _inv22(net.maps[l].A[tri])) @ want_inv
        for got, w in ((jacobians(net, pts), want),
                       (forward_trace(net, pts, need_jacobian=True).jac, want),
                       (inverse_jacobians(net, images), want_inv)):
            assert got.shape == w.shape
            assert np.abs(got - w).max() <= 2e-15 * np.abs(w).max()


def test_box_face_points():
    rng = np.random.default_rng(9)
    net = random_net(rng, resolution=7, layers=6, scale=1.5)
    pts = rng.uniform(-1, 1, size=(600, 3))
    face = rng.integers(0, 3, size=len(pts))
    pts[np.arange(len(pts)), face] = rng.choice([-1.0, 1.0], size=len(pts))
    corners = np.stack(np.meshgrid(*[[-1.0, 1.0]] * 3, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    pts = np.concatenate([pts, corners])
    out = forward(net, pts)
    assert np.abs(out).max() <= 1.0
    assert np.abs(inverse(net, out) - pts).max() <= 1e-12
    assert np.all(np.linalg.det(jacobians(net, pts)) > 0)


def test_all_layer_determinants_positive():
    rng = np.random.default_rng(5)
    net = random_net(rng, resolution=9, layers=8, scale=2.0)
    for plmap in net.maps:
        assert np.all(plmap.det > 0)


def test_forward_trace_consistency():
    rng = np.random.default_rng(6)
    net = random_net(rng, resolution=5, layers=3, scale=1.0)
    pts = rng.uniform(-0.7, 0.7, size=(40, 3))
    trace = forward_trace(net, pts, need_jacobian=True)
    assert np.array_equal(trace.outputs, forward(net, pts))
    assert np.array_equal(trace.jac, jacobians(net, pts))
    assert trace.prefixes.shape == (3, 3, 3, len(pts))
    assert np.array_equal(trace.prefixes[0],
                          np.broadcast_to(np.eye(3)[:, :, None], (3, 3, len(pts))))
    assert trace.tris.shape == (3, len(pts))
    assert np.allclose(trace.barys.sum(axis=2), 1.0)


def test_out_of_domain_reports_index():
    rng = np.random.default_rng(7)
    net = random_net(rng, resolution=5, layers=1)
    bad = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    with pytest.raises(OutOfDomainError) as ei:
        forward(net, bad)
    assert ei.value.point_index == 1


def test_non_finite_points_are_rejected():
    net = random_net(np.random.default_rng(9), resolution=5, layers=2)
    # Row 1 is out of domain, but the first non-finite row is named first.
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.1, np.nan, 0.3],
                    [np.inf, 0.0, 0.0]])
    for fn in (forward, inverse, jacobians, inverse_jacobians):
        with pytest.raises(ValueError, match=r"point 2 is not finite: \[0\.1 +nan +0\.3\]"):
            fn(net, pts)
    local = np.array([[0.0, 0.0], [-np.inf, 0.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="point 1 is not finite"):
        locate_image_points(net.maps[0], local)
    with pytest.raises(ValueError, match="point 1 is not finite"):
        locate_points(net.mesh, local)


@pytest.mark.parametrize("shape", [(5, 4), (3,), (5, 2)])
@pytest.mark.parametrize("fn", [forward, inverse, jacobians, inverse_jacobians,
                                forward_trace])
def test_malformed_point_arrays_are_rejected(fn, shape):
    net = random_net(np.random.default_rng(10), resolution=5, layers=3)
    with pytest.raises(ValueError, match=re.escape(f"shape (N, 3), got {shape}")):
        fn(net, np.zeros(shape))


def test_forward_is_deterministic():
    rng = np.random.default_rng(8)
    mesh = build_mesh(7)
    from conftest import random_params
    params = [random_params(rng, mesh) for _ in range(3)]
    pts = rng.uniform(-1, 1, size=(500, 3))
    a = forward(realize(mesh, params, triplane_frames(3)), pts)
    b = forward(realize(mesh, params, triplane_frames(3)), pts)
    assert np.array_equal(a, b)


def _step_chains(net, pts, images):
    """The oracle of the row walk: chains of (N, 3) ``oracle_forward_step``
    and ``oracle_inverse_step`` calls, with the Jacobian products on their
    cells."""
    x, J, cells, prefixes = pts, np.eye(3)[:, :, None], [], []
    for l, (frame, plmap) in enumerate(zip(net.frames, net.maps)):
        prefixes.append(np.broadcast_to(J, (3, 3, len(pts))))
        x, tri, bary = oracle_forward_step(frame, plmap, x, l)
        cells.append((tri, bary))
        J = apply_lifted(frame, plmap.A[tri], J)
    y, Ji = images, np.eye(3)[:, :, None]
    for l in reversed(range(net.num_layers)):
        y, tri = oracle_inverse_step(net.frames[l], net.maps[l], y, l)
        Ji = apply_lifted(net.frames[l], _inv22(net.maps[l].A[tri]), Ji)
    return dict(forward=x, inverse=y, jacobians=J.transpose(2, 0, 1),
                inverse_jacobians=Ji.transpose(2, 0, 1),
                tris=np.stack([t for t, _ in cells]),
                barys=np.stack([b for _, b in cells]), prefixes=np.stack(prefixes))


def _walk_outputs(net, pts, images):
    trace = forward_trace(net, pts, need_jacobian=True)
    assert np.array_equal(trace.jac, jacobians(net, pts))
    assert np.array_equal(trace.outputs, forward(net, pts))
    return dict(forward=forward(net, pts), inverse=inverse(net, images),
                jacobians=jacobians(net, pts),
                inverse_jacobians=inverse_jacobians(net, images),
                tris=trace.tris, barys=trace.barys, prefixes=trace.prefixes)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("order", ["listed", "shuffled"])
def test_row_walk_matches_the_step_chain_bit_for_bit(order):
    # Every signed permutation frame once, in two orders (a sign slip on one
    # layer can be undone by a later one in a given order), on points that
    # sit on gridlines, box faces and box corners, where ties decide the cells.
    rng = np.random.default_rng(20)
    frames = [Frame(R) for R in signed_permutations()]
    if order == "shuffled":
        frames = [frames[i] for i in rng.permutation(len(frames))]
    net = random_net(rng, resolution=7, layers=len(frames), scale=1.5, frames=frames)
    g = net.mesh.grid
    on_grid = rng.choice(g, size=(300, 3))
    on_grid[:, 0] = rng.uniform(-1, 1, 300)  # one free coordinate per point
    faces = rng.uniform(-1, 1, size=(300, 3))
    faces[np.arange(300), rng.integers(0, 3, 300)] = rng.choice([-1.0, 1.0], 300)
    corners = np.stack(np.meshgrid(*[[-1.0, 1.0]] * 3, indexing="ij"), -1).reshape(-1, 3)
    pts = np.concatenate([on_grid, faces, corners, rng.uniform(-1, 1, (300, 3))])
    images = pts
    for l, (frame, plmap) in enumerate(zip(net.frames, net.maps)):
        images = oracle_forward_step(frame, plmap, images, l)[0]
    want, got = _step_chains(net, pts, images), _walk_outputs(net, pts, images)
    for key, w in want.items():
        assert got[key].shape == w.shape, key
        assert _bits(got[key]) == _bits(w), key


def test_row_walk_on_tilted_frames_is_within_rounding():
    # Frames off every permutation rotate by matmul in both layouts, which
    # may round differently: each output agrees within 4e-15 of its largest
    # entry, and every point lands in the same cells.
    rng = np.random.default_rng(21)
    for seed in range(4):
        frames = [frame_from_axis_angle(rng.normal(size=3), rng.uniform(-3, 3))
                  for _ in range(4)]
        net = random_net(rng, resolution=7, layers=4, scale=1.2, frames=frames)
        pts = rng.uniform(-0.3, 0.3, size=(400, 3))
        images = forward(net, pts)
        want, got = _step_chains(net, pts, images), _walk_outputs(net, pts, images)
        assert np.array_equal(got["tris"], want["tris"])
        for key, w in want.items():
            assert got[key].shape == w.shape, key
            assert np.abs(got[key] - w).max() <= 4e-15 * np.abs(w).max(), key


def test_empty_batches_keep_their_shapes():
    net = random_net(np.random.default_rng(22), resolution=5, layers=3)
    empty = np.zeros((0, 3))
    for fn in (forward, inverse):
        assert fn(net, empty).shape == (0, 3)
        assert len(fn(net, PointSet(empty))) == 0
    for fn in (jacobians, inverse_jacobians):
        assert fn(net, empty).shape == (0, 3, 3)
    for need in (False, True):
        trace = forward_trace(net, empty, need_jacobian=need)
        assert trace.outputs.shape == (0, 3)
        assert trace.tris.shape == (3, 0) and trace.barys.shape == (3, 0, 3)
        if need:
            assert trace.jac.shape == (0, 3, 3) and trace.prefixes.shape == (3, 3, 3, 0)
        else:
            assert trace.jac is None and trace.prefixes is None


def _blocked_and_one_walk(monkeypatch, fn):
    """``fn()`` with the batch in blocks of ``_BLOCK``, then in one walk."""
    blocked = fn()
    with monkeypatch.context() as m:
        m.setattr(deform, "_BLOCK", 1 << 30)
        return blocked, fn()


def test_blocked_walks_match_one_walk_bit_for_bit(monkeypatch):
    # Two full blocks and a ragged one: rows written at a wrong offset, or a
    # block left out, change the bytes.
    rng = np.random.default_rng(23)
    net = random_net(rng, resolution=7, layers=4, scale=1.5)
    n = 2 * deform._BLOCK + 17
    pts = rng.uniform(-1, 1, size=(n, 3))
    weights = rng.uniform(0, 2, n)
    images = forward(net, pts[:, ::-1].copy())  # points in the image, inverted below
    for name, fn in [
            ("forward", lambda: forward(net, pts)),
            ("pointset", lambda: forward(net, PointSet(pts, weights)).points),
            ("jacobians", lambda: jacobians(net, pts)),
            ("inverse", lambda: inverse(net, images)),
            ("inverse_pointset", lambda: inverse(net, PointSet(images, weights)).points),
            ("inverse_jacobians", lambda: inverse_jacobians(net, images))]:
        blocked, whole = _blocked_and_one_walk(monkeypatch, fn)
        assert blocked.shape == whole.shape == (n,) + whole.shape[1:], name
        assert _bits(blocked) == _bits(whole), name
    mapped = forward(net, PointSet(pts, weights))
    assert mapped.weights.tobytes() == weights.tobytes()


def test_blocked_walk_raises_the_one_walk_error(monkeypatch):
    # Block 1's point ``mid`` leaves the box at layer 2, whose frame turns 45
    # degrees about z, walked either way; block 2's point ``late`` lies
    # outside the box and fails at the first layer walked, 0 forward and 3
    # inverse.  One walk meets that layer first, and names the point by its
    # index in the whole batch, not in its block.
    mesh = build_mesh(5)
    frames = triplane_frames(2) + [frame_from_axis_angle([0, 0, 1], np.pi / 4)] + \
        triplane_frames(1)
    net = realize(mesh, [identity_params(mesh)] * 4, frames)
    n = 2 * deform._BLOCK + 17
    pts = np.random.default_rng(24).uniform(-0.5, 0.5, size=(n, 3))
    mid, late = deform._BLOCK + 100, 2 * deform._BLOCK + 5
    pts[mid] = [0.95, 0.95, 0.0]
    pts[late] = [0.0, 0.0, 1.5]

    def error(fn, kind, batch):
        with pytest.raises(kind) as info:
            fn(net, batch)
        e = info.value
        return type(e), str(e), e.point_index, e.layer_index, e.point.tobytes()

    for fn, kind, first in (
            (forward, OutOfDomainError, 0),
            (jacobians, OutOfDomainError, 0),
            (lambda net, p: forward(net, PointSet(p)), OutOfDomainError, 0),
            (inverse, NotInImageError, 3),
            (inverse_jacobians, NotInImageError, 3),
            (lambda net, p: inverse(net, PointSet(p)), NotInImageError, 3)):
        blocked, whole = _blocked_and_one_walk(monkeypatch, lambda: error(fn, kind, pts))
        assert blocked == whole
        assert blocked[2:4] == (late, first)
        # Without the outside point, block 1's fails at layer 2.
        inside = np.delete(pts, late, axis=0)
        blocked, whole = _blocked_and_one_walk(monkeypatch, lambda: error(fn, kind, inside))
        assert blocked == whole
        assert blocked[2:4] == (mid, 2)


def test_forward_trace_refills_a_trace_of_the_same_shape():
    rng = np.random.default_rng(25)
    net = random_net(rng, resolution=7, layers=3)
    a, b = rng.uniform(-1, 1, size=(2, 300, 3))
    fields = ("points", "outputs", "tris", "barys", "jac", "prefixes")

    def bits(trace):
        return [_bits(getattr(trace, k)) for k in fields]

    first = forward_trace(net, a, need_jacobian=True)
    kept = bits(first)
    spare = forward_trace(net, b, need_jacobian=True)
    arrays = spare.tris, spare.barys, spare.prefixes
    again = forward_trace(net, a, need_jacobian=True, out=spare)
    assert again is spare
    assert all(x is y for x, y in zip(arrays, (again.tris, again.barys, again.prefixes)))
    assert bits(again) == bits(forward_trace(net, a, need_jacobian=True)) == kept
    assert bits(first) == kept  # a trace no call was handed is never written

    # Another N, or Jacobians on one side only: new arrays, ``out`` untouched.
    before = bits(spare)
    for batch, need in ((a[:-1], True), (a, False)):
        other = forward_trace(net, batch, need_jacobian=need, out=spare)
        assert other is not spare
        assert not np.shares_memory(other.tris, spare.tris)
        assert not np.shares_memory(other.barys, spare.barys)
        assert bits(spare) == before
    plain = forward_trace(net, b)
    assert forward_trace(net, a, need_jacobian=True, out=plain) is not plain
    assert forward_trace(net, a, out=plain) is plain


def _aliasing_net(rng):
    # A tilted first frame (the matmul path), then every signed permutation
    # (row picks, negated rows): each layer kind writes its own rows.
    frames = [frame_from_axis_angle([0.3, -0.2, 1.0], 0.7)] + \
        [Frame(R) for R in signed_permutations()]
    return random_net(rng, resolution=7, layers=len(frames), scale=1.2, frames=frames)


def _four_walks(net, pts, images):
    return [forward(net, pts), jacobians(net, pts), inverse(net, images),
            inverse_jacobians(net, images)]


def test_reused_buffers_never_alias_a_result():
    # The walks keep their row blocks, cells and Jacobian products from layer
    # to layer and from block to block: no result may be one of them, or
    # share memory with one a later call writes.
    rng = np.random.default_rng(26)
    net = _aliasing_net(rng)
    for n in (300, deform._BLOCK + 1000):
        a, b = rng.uniform(-0.55, 0.55, size=(2, n, 3))
        first = _four_walks(net, a, forward(net, a))
        kept = [_bits(r) for r in first]
        for batch in (b, b[:n // 2], a):
            later = _four_walks(net, batch, forward(net, batch))
            assert [_bits(r) for r in first] == kept, n
            for x in first:
                assert not any(np.shares_memory(x, y) for y in later)


def test_a_ragged_last_block_equals_the_chunks_walked_alone():
    # A batch of _BLOCK + 1000 points walks a full block, then a ragged one
    # in the first columns of the same buffers: byte for byte the results of
    # the two chunks walked as batches of their own.
    rng = np.random.default_rng(27)
    net = _aliasing_net(rng)
    n = deform._BLOCK + 1000
    pts = rng.uniform(-0.55, 0.55, size=(n, 3))
    images = forward(net, pts[::-1].copy())
    whole = _four_walks(net, pts, images)
    head = _four_walks(net, pts[:deform._BLOCK], images[:deform._BLOCK])
    tail = _four_walks(net, pts[deform._BLOCK:], images[deform._BLOCK:])
    for w, h, t in zip(whole, head, tail):
        assert w.shape[0] == n
        assert _bits(w) == _bits(np.concatenate([h, t]))
