import itertools

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from tuttedeform.deform import PointSet, jacobians, realize
from tuttedeform.energy import (HandleConstraint, LossWeights, _quarter_strain_gradient,
                                distortion_multipliers, layer_regularization,
                                strain_energy_density, triangle_gradient_frames)
from tuttedeform.grad import FitTarget, LossConfig, evaluate
from tuttedeform.mesh2d import build_mesh, locate_points
from tuttedeform.prism import triplane_frames
from tuttedeform.tutte import identity_params

from conftest import random_net


def test_strain_zero_for_rotations():
    R = Rotation.random(32, random_state=0).as_matrix()
    assert np.abs(strain_energy_density(R)).max() < 1e-12


def test_strain_known_value_for_scaling():
    for s in (0.5, 1.3, 2.0):
        J = (s * np.eye(3))[None]
        expected = 3.0 * (s * s - 1.0) ** 2
        assert np.isclose(strain_energy_density(J)[0], expected)


def test_strain_rotation_invariance():
    rng = np.random.default_rng(1)
    J = rng.normal(size=(16, 3, 3))
    R = Rotation.random(16, random_state=2).as_matrix()
    # E(R J) == E(J): the measure depends on J^T J only
    assert np.allclose(strain_energy_density(np.einsum("nij,njk->nik", R, J)),
                       strain_energy_density(J))


@pytest.mark.parametrize("d", [2, 3])
def test_strain_terms_match_the_frobenius_formula(d):
    # Reference: ||J^T J - I||_F^2 and J (J^T J - I) from stacked matmuls in
    # extended precision.  Both terms keep the batch shape, for a single
    # matrix, a stack, a stack of stacks and a transposed row-stack view.
    rng = np.random.default_rng(d)
    batch = rng.normal(size=(4, 50, d, d))
    rows = np.ascontiguousarray(np.moveaxis(batch[0], 0, -1))  # (d, d, N)
    for J in (batch[0, 0], batch[0], batch, np.moveaxis(rows, -1, 0)):
        Jl = J.astype(np.longdouble)
        G = np.swapaxes(Jl, -1, -2) @ Jl - np.eye(d)
        e_ref, Q_ref = np.sum(G * G, axis=(-2, -1)), Jl @ G
        e, Q = strain_energy_density(J), _quarter_strain_gradient(J)
        assert np.shape(e) == J.shape[:-2] and Q.shape == J.shape
        assert np.abs(e - e_ref).max() <= 1e-15 * np.abs(e_ref).max()
        assert np.abs(Q - Q_ref).max() <= 1e-15 * np.abs(Q_ref).max()
    # Signed permutations, proper or not, are orthogonal: exactly zero.
    perms = [np.diag(s)[list(p)] for p in itertools.permutations(range(d))
             for s in itertools.product((1.0, -1.0), repeat=d)]
    for J in (perms[-1], np.array(perms)):
        assert np.all(strain_energy_density(J) == 0.0)
        assert np.all(_quarter_strain_gradient(J) == 0.0)


def test_distortion_multiplier_buckets():
    e = np.array([0.0, 0.019, 0.02, 0.0201, 0.05, 0.0501, 3.0])
    m = distortion_multipliers(e)
    assert np.array_equal(m, [1, 1, 1, 2, 2, 5, 5])


def test_elastic_loss_matches_manual_computation():
    rng = np.random.default_rng(2)
    net = random_net(rng, resolution=7, layers=3)
    pts = rng.uniform(-0.5, 0.5, size=(64, 3))
    w = rng.uniform(0.5, 2.0, size=64)
    e = strain_energy_density(jacobians(net, pts))
    manual = np.mean(distortion_multipliers(e) * w * e)

    def elastic(samples):
        config = LossConfig(elastic_samples=samples, use_regularization=False)
        return evaluate(net, config).elastic

    assert np.isclose(elastic(PointSet(pts, w)), manual)
    # samples without weights weigh 1 each
    assert np.isclose(elastic(PointSet(pts)), np.mean(distortion_multipliers(e) * e))


def test_handle_loss_identity_net():
    mesh = build_mesh(5)
    net = realize(mesh, [identity_params(mesh)] * 2, triplane_frames(2))
    pts = np.random.default_rng(3).uniform(-0.4, 0.4, size=(20, 3))
    R = Rotation.from_rotvec([0, 0, 0.3]).as_matrix()
    t = np.array([0.05, 0.0, -0.02])
    c = HandleConstraint(points=PointSet(pts), rotation=R, translation=t)

    def handle(constraint):
        config = LossConfig(constraints=[constraint], use_regularization=False)
        return evaluate(net, config).handle

    # identity net leaves points in place, so the loss is the mean squared
    # distance to the rigidly moved targets
    expected = np.mean(np.sum((pts - (pts @ R.T + t)) ** 2, axis=1))
    assert np.isclose(handle(c), expected, atol=1e-10)
    static = HandleConstraint(points=PointSet(pts))
    assert static.is_static
    assert handle(static) < 1e-16


def test_layer_regularization_against_monte_carlo():
    rng = np.random.default_rng(4)
    net = random_net(rng, resolution=7, layers=1, scale=2.0)
    plmap = net.maps[0]
    exact = layer_regularization(net)[0]
    samples = rng.uniform(-1, 1, size=(400_000, 2))
    tri, _ = locate_points(net.mesh, samples)
    A = plmap.A[tri]
    AtA = np.einsum("nji,njk->nik", A, A)
    dev = AtA - np.eye(2)
    vals = np.einsum("nij,nij->n", dev, dev)
    mc = 4.0 * vals.mean()                       # square area is 4
    se = 4.0 * vals.std() / np.sqrt(len(vals))
    assert abs(exact - mc) < 4 * se


def test_net_regularization_is_layer_mean():
    rng = np.random.default_rng(5)
    net = random_net(rng, resolution=5, layers=4)
    per_layer = layer_regularization(net)
    assert np.isclose(evaluate(net, LossConfig()).reg, np.mean(per_layer))


def test_elastic_weight_schedule():
    w = LossWeights()
    assert w.elastic_at(0) == 0.004
    assert w.elastic_at(599) == 0.004
    assert w.elastic_at(600) == 0.003
    assert w.elastic_at(1200) == 0.002
    assert w.elastic_at(1800) == 0.001
    assert w.elastic_at(5000) == 0.001  # floor


def test_total_loss_combination():
    rng = np.random.default_rng(6)
    net = random_net(rng, resolution=5, layers=2)
    pts = rng.uniform(-0.3, 0.3, size=(16, 3))
    c = HandleConstraint(points=PointSet(pts))
    samples = PointSet(pts, np.ones(16))
    w = LossWeights()
    br = evaluate(net, LossConfig(weights=w, step=700, constraints=[c],
                                  elastic_samples=samples))
    assert br.elastic_weight == w.elastic_at(700)
    assert np.isclose(br.total, br.elastic_weight * br.elastic
                      + w.handle * br.handle + w.reg * br.reg)


def test_deformation_gradients_affine_oracle():
    rng = np.random.default_rng(7)
    rest = rng.uniform(-1, 1, size=(30, 3))
    tris = np.array([[i, i + 1, i + 2] for i in range(0, 27, 3)])
    M = Rotation.from_rotvec([0.2, -0.1, 0.4]).as_matrix() @ np.diag([1.2, 0.9, 1.1])
    deformed = rest @ M.T + np.array([0.1, 0.2, -0.3])
    _, P = triangle_gradient_frames(rest, tris)
    tv = deformed[tris]
    F = np.stack([tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]], axis=-1) @ P
    # F acts like M on vectors inside each triangle's plane
    e1 = rest[tris[:, 1]] - rest[tris[:, 0]]
    e2 = rest[tris[:, 2]] - rest[tris[:, 0]]
    for E in (e1, e2):
        lhs = np.einsum("nij,nj->ni", F, E)
        assert np.abs(lhs - E @ M.T).max() < 1e-9
    # The fit term on an identity net: the mapped gradient is the projector
    # onto each triangle's plane, the target's is M times that projector.
    mesh = build_mesh(5)
    net = realize(mesh, [identity_params(mesh)] * 2, triplane_frames(2))
    fit = FitTarget(source=PointSet(rest), target_vertices=deformed, triangles=tris)
    n = np.cross(e1, e2)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    proj = np.eye(3) - n[:, :, None] * n[:, None, :]
    expected = np.mean(np.sum(((np.eye(3) - M) @ proj) ** 2, axis=(1, 2)))
    got = evaluate(net, LossConfig(fit=fit, use_regularization=False)).fit_gradient
    assert abs(got - expected) < 1e-9


def test_fitting_loss_zero_on_exact_identity():
    mesh = build_mesh(7)
    net = realize(mesh, [identity_params(mesh)] * 2, triplane_frames(2))
    rng = np.random.default_rng(8)
    src = rng.uniform(-0.5, 0.5, size=(60, 3))
    tris = np.array([[i, i + 1, i + 2] for i in range(0, 57, 3)])
    fit = FitTarget(source=PointSet(src), target_vertices=src, triangles=tris)
    fl = evaluate(net, LossConfig(fit=fit, use_regularization=False))
    assert fl.fit_vertex < 1e-16
    assert fl.fit_gradient < 1e-12
    assert np.isclose(fl.total, fl.fit_vertex + 0.1 * fl.fit_gradient)


def test_fitting_loss_shape_mismatch():
    rng = np.random.default_rng(9)
    net = random_net(rng, resolution=5, layers=1)
    src = rng.uniform(-0.3, 0.3, size=(10, 3))
    with pytest.raises(ValueError):
        evaluate(net, LossConfig(fit=FitTarget(source=PointSet(src),
                                               target_vertices=src[:5])))
