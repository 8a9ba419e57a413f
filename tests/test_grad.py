import warnings

import numpy as np
import pytest

import tuttedeform
from tuttedeform import grad as grad_module
from tuttedeform.deform import PointSet, forward, forward_trace, jacobians, realize
from tuttedeform.energy import (HandleConstraint, LossWeights,
                                layer_regularization, strain_energy_density)
from tuttedeform.errors import NumericalError
from tuttedeform.grad import FitTarget, LossConfig, evaluate, evaluate_with_gradient
from tuttedeform.mesh2d import build_mesh
from tuttedeform.optim import pack_params, unpack_params
from tuttedeform.prism import frame_from_axis_angle, triplane_frames
from tuttedeform.tutte import TutteLayerParams, stack_params

from conftest import random_params


def build_setup(seed=0, resolution=5, layers=2, scale=0.8):
    rng = np.random.default_rng(seed)
    mesh = build_mesh(resolution)
    params = [random_params(rng, mesh, scale) for _ in range(layers)]
    frames = triplane_frames(layers)
    return rng, mesh, params, frames


def fd_gradient_check(mesh, params, frames, config, probe_points,
                      n_checks=12, h=1e-6, rtol=2e-5, seed=100):
    """Central-difference check on a random subset of raw parameters.

    Parameters whose perturbation changes any probe point's triangle orbit
    (a piecewise-linear breakpoint) are skipped and resampled; the losses
    are only piecewise smooth there and both sides of the comparison would
    be measuring different branches.
    """
    rng = np.random.default_rng(seed)
    flat = pack_params(params)
    L = len(params)

    def rebuild(vec):
        return realize(mesh, unpack_params(mesh, vec, L), frames)

    def orbit(vec):
        return forward_trace(rebuild(vec), probe_points).tris

    loss, grad = evaluate_with_gradient(rebuild(flat), config)
    value = loss.total
    gflat = grad.flat()
    assert gflat.shape == flat.shape

    checked = 0
    tried = 0
    order = rng.permutation(flat.size)
    for idx in order:
        if checked >= n_checks or tried > 8 * n_checks:
            break
        tried += 1
        ep = flat.copy(); ep[idx] += h
        em = flat.copy(); em[idx] -= h
        if not (np.array_equal(orbit(ep), orbit(em))):
            continue  # membership flip: resample another parameter
        fp = evaluate_with_gradient(rebuild(ep), config)[0].total
        fm = evaluate_with_gradient(rebuild(em), config)[0].total
        fd = (fp - fm) / (2 * h)
        scale = max(abs(fd), abs(gflat[idx]), 1e-7)
        assert abs(fd - gflat[idx]) <= rtol * scale, (
            f"param {idx}: fd={fd:.10g} adjoint={gflat[idx]:.10g}")
        checked += 1
    assert checked >= n_checks
    return value


def test_pack_unpack_roundtrip():
    _, mesh, params, _ = build_setup(seed=1, layers=3)
    flat = pack_params(params)
    back = unpack_params(mesh, flat, 3)
    for p, q, r in zip(params, back.raw_edge_weights, back.raw_boundary_increments):
        assert np.array_equal(p.raw_edge_weights, q)
        assert np.array_equal(p.raw_boundary_increments, r)
    # One stack of rows, which packs back to every byte, as the stack of
    # the sequence does.
    assert back.raw_edge_weights.shape == (3, mesh.edges.shape[0])
    assert back.raw_boundary_increments.shape == (3, mesh.boundary_loop.size)
    assert pack_params(back).tobytes() == flat.tobytes()
    assert pack_params(stack_params(params)).tobytes() == flat.tobytes()
    with pytest.raises(ValueError):
        unpack_params(mesh, flat[:-1], 3)


def test_gradient_flat_lays_out_rows_like_pack_params():
    rng, mesh, params, frames = build_setup(seed=7, layers=3)
    net = realize(mesh, params, frames)
    pts = rng.uniform(-0.5, 0.5, size=(20, 3))
    c = HandleConstraint(points=PointSet(pts), translation=np.array([0.05, 0.0, 0.0]))
    g = evaluate_with_gradient(net, LossConfig(constraints=[c]))[1]
    assert g.edge_weights.shape == (3, mesh.edges.shape[0])
    assert g.boundary_increments.shape == (3, mesh.boundary_loop.size)
    rows = [TutteLayerParams(e, b) for e, b in zip(g.edge_weights, g.boundary_increments)]
    assert g.flat().tobytes() == pack_params(rows).tobytes()


def test_handle_gradient_matches_fd():
    rng, mesh, params, frames = build_setup(seed=2)
    pts = rng.uniform(-0.4, 0.4, size=(15, 3))
    c = HandleConstraint(points=PointSet(pts),
                         rotation=np.eye(3), translation=np.array([0.05, 0, 0.02]))
    config = LossConfig(constraints=[c], use_regularization=False)
    fd_gradient_check(mesh, params, frames, config, pts)


def test_elastic_gradient_matches_fd():
    # triplane frames, then frames off every permutation (the matmul path)
    rng, mesh, params, frames = build_setup(seed=3)
    for frames in (frames, [frame_from_axis_angle([1, 2, 3], 0.9),
                            frame_from_axis_angle([0.3, -1.0, 2.0], -1.2)]):
        pts = rng.uniform(-0.5, 0.5, size=(20, 3))
        samples = PointSet(pts, rng.uniform(0.5, 1.5, size=20))
        config = LossConfig(elastic_samples=samples, use_regularization=False,
                            weights=LossWeights(elastic=1.0))
        fd_gradient_check(mesh, params, frames, config, pts)


def test_regularization_gradient_matches_fd():
    _, mesh, params, frames = build_setup(seed=4)
    config = LossConfig(use_regularization=True)
    # regularization is independent of any points; orbit check on a token point
    token = np.zeros((1, 3)) + 0.123
    fd_gradient_check(mesh, params, frames, config, token)


def test_fitting_gradient_matches_fd():
    rng, mesh, params, frames = build_setup(seed=5)
    src = rng.uniform(-0.45, 0.45, size=(24, 3))
    tris = np.array([[i, i + 1, i + 2] for i in range(0, 21, 3)])
    target = src * 1.05 + np.array([0.01, -0.02, 0.0])
    fit = FitTarget(source=PointSet(src), target_vertices=target, triangles=tris)
    config = LossConfig(fit=fit, use_regularization=False)
    fd_gradient_check(mesh, params, frames, config, src)


def test_combined_gradient_matches_fd():
    rng, mesh, params, frames = build_setup(seed=6)
    hp = rng.uniform(-0.3, 0.3, size=(10, 3))
    ep = rng.uniform(-0.5, 0.5, size=(12, 3))
    c = HandleConstraint(points=PointSet(hp), translation=np.array([0, 0.03, 0]))
    config = LossConfig(constraints=[c],
                        elastic_samples=PointSet(ep, np.ones(12)),
                        use_regularization=True,
                        weights=LossWeights(elastic=0.5, handle=1.0, reg=0.1))
    fd_gradient_check(mesh, params, frames, config, np.concatenate([hp, ep]))


def test_gradient_zero_losses():
    _, mesh, params, frames = build_setup(seed=7)
    net = realize(mesh, params, frames)
    loss, grad = evaluate_with_gradient(net, LossConfig(use_regularization=False))
    assert loss.total == 0.0
    assert np.all(grad.flat() == 0.0)


def test_gradient_values_match_total_loss():
    rng, mesh, params, frames = build_setup(seed=8)
    net = realize(mesh, params, frames)
    pts = rng.uniform(-0.3, 0.3, size=(18, 3))
    free = rng.uniform(-0.3, 0.3, size=(18, 3))
    c = HandleConstraint(points=PointSet(pts))
    samples = PointSet(free, np.ones(18))
    w = LossWeights()
    config = LossConfig(weights=w, step=650, constraints=[c],
                        elastic_samples=samples, use_regularization=True)
    value = evaluate_with_gradient(net, config)[0].total
    # Oracle: the elastic term covers the handle points, then the samples;
    # every weight is 1, and the multiplier is 2 above 0.02 and 5 above 0.05.
    d = forward(net, pts) - pts
    handle = np.mean(np.sum(d * d, axis=1))
    e = strain_energy_density(jacobians(net, np.concatenate([pts, free])))
    elastic = np.mean(np.where(e > 0.05, 5.0, np.where(e > 0.02, 2.0, 1.0)) * e)
    reg = np.mean(layer_regularization(net))
    reference = w.elastic_at(650) * elastic + w.handle * handle + w.reg * reg
    assert np.isclose(value, reference, rtol=1e-12)


def test_one_trace_and_one_sweep_per_evaluation(monkeypatch):
    rng, mesh, params, frames = build_setup(seed=9)
    net = realize(mesh, params, frames)
    calls = {"forward_trace": 0, "_backward_sweep": 0}
    for name in calls:
        def counted(*args, _fn=getattr(grad_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(grad_module, name, counted)
    c = HandleConstraint(points=PointSet(rng.uniform(-0.3, 0.3, size=(10, 3))),
                         translation=np.array([0, 0.03, 0]))
    config = LossConfig(constraints=[c], use_regularization=True,
                        elastic_samples=PointSet(rng.uniform(-0.5, 0.5, size=(12, 3))))
    loss, _ = evaluate_with_gradient(net, config)
    assert calls == {"forward_trace": 1, "_backward_sweep": 1}
    assert evaluate(net, config) == loss
    assert calls == {"forward_trace": 2, "_backward_sweep": 1}


def test_combined_gradient_is_the_sum_of_the_terms():
    rng, mesh, params, frames = build_setup(seed=12, layers=3)
    net = realize(mesh, params, frames)
    handle = HandleConstraint(points=PointSet(rng.uniform(-0.3, 0.3, size=(15, 3))),
                              translation=np.array([0.02, 0.0, -0.01]))
    samples = PointSet(rng.uniform(-0.5, 0.5, size=(20, 3)), rng.uniform(0.2, 3.0, 20))
    src = rng.uniform(-0.4, 0.4, size=(12, 3))
    tris = np.array([[i, (i + 1) % 12, (i + 5) % 12] for i in range(12)])
    fit = FitTarget(PointSet(src), 1.1 * src + 0.02, triangles=tris, gradient_weight=0.4)
    w = LossWeights(handle=1.5, elastic=0.3, reg=0.05)
    alone = [
        LossConfig(weights=w, constraints=[handle], use_regularization=False),
        # handle=0 leaves the handle points in the elastic term only.
        LossConfig(weights=LossWeights(handle=0.0, elastic=0.3), constraints=[handle],
                   elastic_samples=samples, use_regularization=False),
        LossConfig(weights=w, fit=fit, use_regularization=False),
        LossConfig(weights=w),
    ]
    combined = LossConfig(weights=w, constraints=[handle], elastic_samples=samples,
                          fit=fit)
    loss, grad = evaluate_with_gradient(net, combined)
    parts = [evaluate_with_gradient(net, c) for c in alone]
    assert np.isclose(loss.total, sum(p[0].total for p in parts), rtol=1e-12, atol=0)
    total = grad.flat()
    summed = np.sum([p[1].flat() for p in parts], axis=0)
    assert np.all(np.array([np.abs(p[1].flat()).max() for p in parts]) > 0)
    assert np.abs(total - summed).max() <= 1e-12 * np.abs(total).max()


@pytest.mark.parametrize("d", [2, 3])
def test_edge_cotangent_scatter_matches_add_at(d):
    rng = np.random.default_rng(d)
    V, T = 9, 25
    triangles = rng.integers(0, V, size=(T, 3))
    dE = rng.normal(size=(T, d, 2))
    out = rng.normal(size=(V, d))
    expected = out.copy()
    np.add.at(expected, triangles[:, 1], dE[:, :, 0])
    np.add.at(expected, triangles[:, 2], dE[:, :, 1])
    np.add.at(expected, triangles[:, 0], -(dE[:, :, 0] + dE[:, :, 1]))
    assert grad_module._add_edge_cotangents(out, triangles, dE) is out
    assert np.allclose(out, expected, rtol=1e-13, atol=1e-13)


def test_package_exports_resolve():
    namespace = {}
    exec("from tuttedeform import *", namespace)
    assert set(tuttedeform.__all__) <= set(namespace)
    # The loss API is the pointwise math in energy plus the one evaluator.
    loss_api = {name for name in tuttedeform.__all__
                if getattr(getattr(tuttedeform, name), "__module__", None)
                in ("tuttedeform.energy", "tuttedeform.grad")}
    assert loss_api == {"HandleConstraint", "LossWeights", "distortion_multipliers",
                        "layer_regularization", "strain_energy_density",
                        "FitTarget", "LossConfig", "LossValues", "ParamGradient",
                        "evaluate", "evaluate_with_gradient"}


def test_layer_backward_rejects_non_finite_cotangents():
    _, mesh, params, frames = build_setup(seed=3)
    net = realize(mesh, params, frames)
    for vertex, value in ((mesh.interior_ids[0], np.nan), (mesh.boundary_loop[2], np.inf)):
        dU = np.zeros((2, mesh.num_vertices, 2))
        dU[1, vertex, 0] = value
        with pytest.raises(NumericalError, match="layer 1"), warnings.catch_warnings():
            warnings.simplefilter("error")
            grad_module._parameter_half(net, dU, None, None)


def test_parameter_half_names_the_highest_bad_layer():
    _, mesh, params, frames = build_setup(seed=3, layers=4)
    net = realize(mesh, params, frames)
    V, T = mesh.num_vertices, mesh.num_triangles
    dU = np.zeros((4, V, 2))
    dU[1, mesh.interior_ids[0], 0] = np.nan
    dU[3, mesh.interior_ids[1], 1] = np.nan
    # With the regularizer and a Jacobian cotangent the edge scatter runs
    # first; under the training loop's error state nothing may raise a
    # FloatingPointError before the check names the layer.
    for dA, reg_coef in ((None, None), (np.ones((4, T, 2, 2)), 0.01)):
        with pytest.raises(NumericalError, match="layer 3$"), \
                np.errstate(over="raise", invalid="raise", divide="raise"):
            grad_module._parameter_half(net, dU, dA, reg_coef)
    # A finite cotangent whose adjoint overflows, above a non-finite one.
    dU[3] = 0.0
    dU[3, mesh.interior_ids] = 1e308
    with pytest.raises(NumericalError, match="layer 3$"), np.errstate(all="ignore"):
        grad_module._parameter_half(net, dU, None, None)
    dU[3] = 0.0
    with pytest.raises(NumericalError, match="layer 1$"), np.errstate(all="ignore"):
        grad_module._parameter_half(net, dU, None, None)
