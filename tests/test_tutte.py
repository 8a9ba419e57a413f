import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded

from tuttedeform.mesh2d import build_mesh, realize_plmap
from tuttedeform.tutte import (BOUNDARY_EPS, EDGE_WEIGHT_EPS, TutteLayerParams,
                               _boundary_angles, assemble_laplacian, build_boundary,
                               identity_params, solve_tutte, solve_tutte_with_system,
                               squash, squash_derivative, stack_params, tutte_backward,
                               validate_params)

from conftest import random_params


@settings(max_examples=200, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20),
       st.sampled_from([0.1, 0.2, 0.35]))
def test_squash_bounded_and_monotone(a, b, eps):
    ya, yb = squash(a, eps), squash(b, eps)
    assert eps < ya < 1 - eps
    if a < b:
        # strict only for gaps a float64 output can resolve; at |x| = 20 the
        # slope is ~2e-9, so sub-1e-5 input gaps may round to equal outputs
        assert ya <= yb
        if b - a > 1e-5:
            assert ya < yb


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10), st.sampled_from([0.1, 0.2]))
def test_squash_derivative_matches_fd(x, eps):
    h = 1e-6
    fd = (squash(x + h, eps) - squash(x - h, eps)) / (2 * h)
    assert abs(squash_derivative(x, eps) - fd) <= 1e-8 * max(1.0, abs(fd))


def test_identity_params_reproduce_rest_mesh():
    for n in (2, 3, 5, 9):
        mesh = build_mesh(n)
        plmap = solve_tutte(mesh, identity_params(mesh))
        assert np.abs(plmap.vertex_positions - mesh.vertices).max() < 1e-9
        assert np.abs(plmap.A - np.eye(2)).max() < 1e-8


def test_boundary_vertices_on_square_and_ccw():
    mesh = build_mesh(8)
    rng = np.random.default_rng(0)
    for _ in range(10):
        params = random_params(rng, mesh, scale=3.0)
        bnd = build_boundary(mesh, params)
        pos = bnd.points
        assert pos.shape == (mesh.boundary_loop.size, 2)
        # every vertex exactly on the unit-square outline
        assert np.all(np.isclose(np.abs(pos).max(axis=1), 1.0, atol=1e-12))
        x, y = pos[:, 0], pos[:, 1]
        assert np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0
        # weak convexity of the polygon
        d = np.roll(pos, -1, axis=0) - pos
        cross = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
        assert np.all(cross >= -1e-12)


def test_boundary_corners_pinned():
    mesh = build_mesh(6)
    rng = np.random.default_rng(1)
    q = mesh.resolution - 1
    corners = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    for _ in range(5):
        bnd = build_boundary(mesh, random_params(rng, mesh, scale=4.0))
        for s in range(4):
            assert np.allclose(bnd.points[s * q], corners[s], atol=1e-12)


def test_interior_equilibrium():
    # the solve must satisfy the weighted mean-value property exactly
    for n in (7, 25):
        mesh = build_mesh(n)
        rng = np.random.default_rng(2)
        params = random_params(rng, mesh, scale=2.0)
        plmap = solve_tutte(mesh, params)
        w = squash(params.raw_edge_weights, EDGE_WEIGHT_EPS)
        U = plmap.vertex_positions
        residual = np.zeros_like(U)
        for (i, j), wij in zip(mesh.edges, w):
            residual[i] += wij * (U[j] - U[i])
            residual[j] += wij * (U[i] - U[j])
        assert np.abs(residual[mesh.interior_ids]).max() < 1e-10


def test_edge_weights_in_open_interval():
    w = squash(np.array([-50.0, -1.0, 0.0, 1.0, 50.0]), EDGE_WEIGHT_EPS)
    assert np.all(w >= EDGE_WEIGHT_EPS) and np.all(w <= 1 - EDGE_WEIGHT_EPS)
    b = squash(np.array([0.0]), BOUNDARY_EPS)
    assert BOUNDARY_EPS < b[0] < 1 - BOUNDARY_EPS


def test_injectivity_certificate_over_random_draws():
    rng = np.random.default_rng(3)
    worst = np.inf
    for n in (3, 5, 9, 13, 2):
        mesh = build_mesh(n)
        for _ in range(12):
            plmap = solve_tutte(mesh, random_params(rng, mesh, scale=1.5))
            worst = min(worst, plmap.det.min())
            assert np.all(plmap.det > 0)
    assert worst > 0


def test_extreme_parameters_stay_injective():
    mesh = build_mesh(5)
    rng = np.random.default_rng(4)
    for scale in (10.0, 30.0):
        plmap = solve_tutte(mesh, random_params(rng, mesh, scale=scale))
        assert np.all(plmap.det > 0)


def test_validate_params_rejects_wrong_sizes():
    mesh = build_mesh(5)
    good = identity_params(mesh)
    with pytest.raises(ValueError):
        validate_params(mesh, TutteLayerParams(
            good.raw_edge_weights[:-1], good.raw_boundary_increments))
    with pytest.raises(ValueError):
        validate_params(mesh, TutteLayerParams(
            good.raw_edge_weights, good.raw_boundary_increments[:-1]))
    with pytest.raises(ValueError):
        TutteLayerParams(np.array([np.nan]), np.zeros(4))


def test_laplacian_interior_block_spd():
    rng = np.random.default_rng(5)
    for n_res in (6, 3):
        mesh = build_mesh(n_res)
        w, band = assemble_laplacian(mesh, random_params(rng, mesh, scale=2.0))
        assert np.all(w > 0)
        n = mesh.interior_ids.size
        u = mesh.resolution - 1
        assert band.shape == (u + 1, n)

        # Oracle: the interior block assembled edge by edge.
        pos = {int(v): k for k, v in enumerate(mesh.interior_ids)}
        oracle = np.zeros((n, n))
        for (i, j), wij in zip(mesh.edges, w):
            for a, b in ((int(i), int(j)), (int(j), int(i))):
                if a in pos:
                    oracle[pos[a], pos[a]] += wij
                    if b in pos:
                        oracle[pos[a], pos[b]] -= wij

        # Upper band storage: band[u + a - b, b] = K[a, b] for b - u <= a <= b;
        # the slots above the matrix are unused and stay zero.
        dense = np.zeros((n, n))
        for d in range(u + 1):
            cols = np.arange(d, n)
            dense[cols - d, cols] = band[u - d, d:]
            assert np.all(band[u - d, :d] == 0)
        dense = np.triu(dense) + np.triu(dense, 1).T
        assert np.abs(dense - oracle).max() < 1e-14
        assert np.array_equal(dense, dense.T)
        assert np.linalg.eigvalsh(dense).min() > 0


def test_import_loads_no_sparse_module():
    code = ("import sys, tuttedeform; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("scale", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("res", [3, 7, 11])
def test_stacked_backward_equals_each_layer_alone(res, scale):
    mesh = build_mesh(res)
    rng = np.random.default_rng(10 * res + int(10 * scale))
    for L in (1, 2, 5):
        params = [random_params(rng, mesh, scale) for _ in range(L)]
        plmaps, system = solve_tutte_with_system(mesh, stack_params(params))
        U = np.stack([m.vertex_positions for m in plmaps])
        dU = rng.normal(size=U.shape)
        dU[:, ::5] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_edges, d_boundary = tutte_backward(mesh, system, dU)
            assert d_edges.shape == (L, mesh.edges.shape[0])
            assert d_boundary.shape == (L, mesh.boundary_loop.size)
            for l in range(L):
                alone = solve_tutte_with_system(mesh, stack_params(params[l:l + 1]))[1]
                one = tutte_backward(mesh, alone, dU[l:l + 1])
                assert d_edges[l].tobytes() == one[0][0].tobytes()
                assert d_boundary[l].tobytes() == one[1][0].tobytes()


def _one_layer_reference(mesh, params):
    """One layer assembled, factored and solved on its own: ``(U, A, det,
    factor)``, the per-layer path that the stacked solve replaced."""
    w = squash(params.raw_edge_weights, EDGE_WEIGHT_EPS)
    k, u = mesh.interior_ids.size, mesh.resolution - 1
    e, a, b = mesh.interior_edges.T
    r, c, q = mesh.rim_edges.T
    band = np.zeros((u + 1, k))
    band[u] = np.bincount(a, w[e], k) + np.bincount(b, w[e], k) + np.bincount(c, w[r], k)
    band[u + a - b, b] = -w[e]
    angles = _boundary_angles(mesh, params.raw_boundary_increments)[0]
    d = np.column_stack([np.cos(angles), np.sin(angles)])
    points = d / np.max(np.abs(d), axis=1, keepdims=True)
    rhs = np.column_stack([np.bincount(c, w[r] * points[q, i], k) for i in range(2)])
    factor = cholesky_banded(band, check_finite=False)
    U = np.empty((mesh.num_vertices, 2))
    U[mesh.boundary_loop] = points
    U[mesh.interior_ids] = cho_solve_banded((factor, False), rhs, check_finite=False)
    tv = U[mesh.triangles]
    A = np.stack([tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]], axis=-1) @ mesh.edge_inverse
    return U, A, A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0], factor


@pytest.mark.parametrize("L", [1, 2, 24])
@pytest.mark.parametrize("res", [3, 11, 19, 25])
def test_stacked_realize_matches_per_layer_solves(res, L):
    # The forward and adjoint solves stay one LAPACK pbtrs per layer, on that
    # layer's slice of the one factor: a single solve over the whole stacked
    # factor moves U by one ulp at resolution 19 and above.
    mesh = build_mesh(res)
    rng = np.random.default_rng(100 * res + L)
    sizes = (mesh.edges.shape[0], mesh.boundary_loop.size)
    # Scales up to 40, clipped to |40|: both squashes saturate.
    params = [TutteLayerParams(*(np.clip(rng.normal(0.0, scale, n), -40.0, 40.0)
                                 for n in sizes))
              for scale in np.resize([1.0, 5.0, 40.0], L)]
    maps, system = solve_tutte_with_system(mesh, stack_params(params))
    k = mesh.interior_ids.size
    for l, p in enumerate(params):
        U, A, det, factor = _one_layer_reference(mesh, p)
        assert maps[l].vertex_positions.tobytes() == U.tobytes()
        assert maps[l].A.tobytes() == A.tobytes()
        assert maps[l].det.tobytes() == det.tobytes()
        # The stacked maps and a map of one layer's positions come from the
        # same constructor, and agree in every row they carry.
        one = realize_plmap(mesh, U)
        for name in ("A", "det", "corners", "A_rows"):
            assert getattr(maps[l], name).tobytes() == getattr(one, name).tobytes(), name
        assert maps[l].A.tobytes() == system.A[l].tobytes()
        assert maps[l].det.tobytes() == system.det[l].tobytes()
        assert system.factor[:, l * k:(l + 1) * k].tobytes() == factor.tobytes()
        rhs = rng.normal(size=(k, 2))
        want = cho_solve_banded((factor, False), rhs, check_finite=False)
        assert system.solver(l, rhs).tobytes() == want.tobytes()
