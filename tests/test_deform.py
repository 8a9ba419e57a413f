import re
import warnings

import numpy as np
import pytest

from tuttedeform.deform import (DeformationNet, PointSet, forward, forward_trace,
                                inverse, inverse_jacobians, jacobians, realize)
from tuttedeform.errors import OutOfDomainError
from tuttedeform.mesh2d import (_ImageLocator, _inv22, build_mesh, interpolate,
                                locate_image_points, locate_points, realize_plmap)
from tuttedeform.prism import (Frame, PrismLayer, apply_lifted, forward_step,
                               frame_from_axis_angle, inverse_step, triplane_frames)
from tuttedeform.tutte import identity_params

from conftest import random_net, signed_permutations


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


def test_tie_heavy_inverse_takes_the_bin_rule(monkeypatch):
    # Identity layers put every lattice point on a vertex, edge or cell
    # diagonal of every layer's image mesh, where no triangle can be
    # certified: each point at each layer takes the locator's fallback scan.
    mesh = build_mesh(7)
    frames = triplane_frames(6)
    layers = tuple(PrismLayer(frame=f, plmap=realize_plmap(mesh, mesh.vertices),
                              layer_index=i) for i, f in enumerate(frames))
    net = DeformationNet(mesh=mesh, params=(), frames=tuple(frames),
                         layers=layers, system=None)
    g = mesh.grid
    axis = np.concatenate([g, 0.5 * (g[1:] + g[:-1])])
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)

    # The rule alone: the scan on every row, layer by layer.
    want, want_J = pts, np.eye(3)[:, :, None]
    for layer in reversed(layers):
        local = layer.frame.to_local(want)
        tri, ls = layer.plmap.image_locator()._scan_query(
            local[:, :2], np.arange(len(pts)), layer.layer_index)
        local[:, :2] = interpolate(mesh.vertices, mesh.triangles, tri, np.column_stack(ls))
        want = layer.frame.to_world(local)
        want_J = apply_lifted(layer.frame, _inv22(layer.plmap.A[tri]), want_J)

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
    assert fallback_rows == [len(pts)] * (2 * len(layers))
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
        for layer in net.layers:
            x, tri, _ = forward_step(layer, x)
            want = _lifted(layer.frame, layer.plmap.A[tri]) @ want
        for layer in reversed(net.layers):
            y, tri = inverse_step(layer, y)
            want_inv = _lifted(layer.frame, _inv22(layer.plmap.A[tri])) @ want_inv
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
    for layer in net.layers:
        assert np.all(layer.plmap.det > 0)


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
        locate_image_points(net.layers[0].plmap, local)
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
    """The oracle of the row walk: chains of (N, 3) ``forward_step`` and
    ``inverse_step`` calls, with the Jacobian products on their cells."""
    x, J, cells, prefixes = pts, np.eye(3)[:, :, None], [], []
    for layer in net.layers:
        prefixes.append(np.broadcast_to(J, (3, 3, len(pts))))
        x, tri, bary = forward_step(layer, x)
        cells.append((tri, bary))
        J = apply_lifted(layer.frame, layer.plmap.A[tri], J)
    y, Ji = images, np.eye(3)[:, :, None]
    for layer in reversed(net.layers):
        y, tri = inverse_step(layer, y)
        Ji = apply_lifted(layer.frame, _inv22(layer.plmap.A[tri]), Ji)
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
    images = forward_step(net.layers[0], pts)[0]
    for layer in net.layers[1:]:
        images = forward_step(layer, images)[0]
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
