import numpy as np
import pytest

from tuttedeform import grad, optim
from tuttedeform.deform import PointSet, forward, realize
from tuttedeform.energy import HandleConstraint, LossWeights
from tuttedeform.errors import NumericalError
from tuttedeform.mesh2d import build_mesh
from tuttedeform.optim import (AdamState, ElasticJob, FitJob, LearningRate,
                               NetSpec, StopRule, adam_step, init_params,
                               pack_params, run_elastic, run_fit)
from tuttedeform.prism import triplane_frames
from tuttedeform.tutte import TutteLayerParams

from conftest import fibonacci_sphere, random_net, twist_about_z


def test_learning_rate_linear_decay():
    lr = LearningRate(0.02, 0.002, 1000)
    assert np.isclose(lr.at(0), 0.02)
    assert np.isclose(lr.at(500), 0.011)
    assert np.isclose(lr.at(1000), 0.002)
    assert np.isclose(lr.at(5000), 0.002)  # clamped past the end


def test_adam_first_step_is_signed_lr():
    state = AdamState(size=3)
    x = np.zeros(3)
    g = np.array([1e-3, -2.0, 5.0])
    x1 = adam_step(state, x, g, lr=0.1)
    # bias-corrected first step moves by ~lr * sign(g)
    assert np.allclose(x1, -0.1 * np.sign(g), atol=1e-4)
    assert state.t == 1


def test_adam_minimizes_quadratic():
    state = AdamState(size=4)
    x = np.array([2.0, -1.5, 0.7, 3.0])
    target = np.array([0.5, 0.5, -0.25, 1.0])
    for _ in range(400):
        x = adam_step(state, x, 2 * (x - target), lr=0.05)
    assert np.abs(x - target).max() < 1e-3


def test_adam_overflow_raises_and_keeps_the_state():
    state = AdamState(size=2)
    x = adam_step(state, np.zeros(2), np.array([1.0, -1.0]), lr=0.1)
    m, v = state.m.copy(), state.v.copy()
    # finite, but its square overflows the second moment
    with pytest.raises(NumericalError):
        adam_step(state, x, np.array([1e300, 0.0]), lr=0.1)
    assert state.t == 1
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


def test_run_elastic_rejects_an_overflowing_loss():
    pts = np.random.default_rng(3).uniform(-0.4, 0.4, size=(60, 3))
    far = HandleConstraint(points=PointSet(pts[:20]),
                           translation=np.array([1e200, 0.0, 0.0]))
    for steps, where in ((3, "at step 0"), (0, "on the final net")):
        job = ElasticJob(constraints=[far], free_samples=PointSet(pts[20:]),
                         spec=NetSpec(layers=1, resolution=3),
                         max_steps=steps, log_every=1000)
        with pytest.raises(NumericalError, match=where):
            run_elastic(job)


def test_stop_rule():
    stop = StopRule(max_steps=100, rel_tol=1e-3, window=5)
    flat = [1.0] * 10
    assert stop.should_stop(flat)
    improving = list(np.linspace(1.0, 0.5, 10))
    assert not stop.should_stop(improving)
    assert not StopRule(100).should_stop(flat)  # disabled by default


def test_zero_init_is_near_identity_and_injective():
    mesh = build_mesh(9)
    params = init_params(mesh, 3)
    assert all(np.all(p == 0) for p in params.raw_edge_weights)
    net = realize(mesh, params, triplane_frames(3))
    assert all(np.all(plmap.det > 0) for plmap in net.maps)
    pts = np.random.default_rng(0).uniform(-0.8, 0.8, size=(200, 3))
    assert np.abs(forward(net, pts) - pts).max() < 0.2


def test_run_fit_reduces_vertex_error():
    # fit a target that a same-size net can represent exactly
    rng = np.random.default_rng(3)
    src = fibonacci_sphere(400)
    truth = random_net(rng, resolution=7, layers=3, scale=0.6)
    tgt = forward(truth, src)
    job = FitJob(source=PointSet(src), target_vertices=tgt, triangles=None,
                 spec=NetSpec(layers=3, resolution=7),
                 lr=LearningRate(0.02, 0.005, 80), max_steps=80, log_every=1000)
    net, report = run_fit(job)
    initial = np.mean(np.sum((src - tgt) ** 2, axis=1))
    assert report.injective
    assert report.fit_vertex < 0.1 * initial
    assert report.steps_run == 80
    assert len(report.loss_history) == 80


def test_run_elastic_static_handle_stays_and_reports():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.4, 0.4, size=(200, 3))
    held = pts[:60]
    # The second free set is empty: the handles take every sample.
    for free in (PointSet(pts[60:], np.ones(140)), PointSet(np.zeros((0, 3)))):
        job = ElasticJob(
            constraints=[HandleConstraint(points=PointSet(held))],
            free_samples=free,
            spec=NetSpec(layers=2, resolution=7),
            weights=LossWeights(),
            lr=LearningRate(0.01, 0.001, 40),
            max_steps=40, log_every=1000)
        net, report = run_elastic(job)
        assert report.injective
        assert report.handle_rms is not None and report.handle_rms < 0.05
        assert report.max_distortion is not None
        counts, edges = report.distortion_histogram
        assert len(counts) == len(edges) - 1
        assert sum(counts) == len(held) + len(free)
        assert report.elapsed_seconds > 0


def test_early_stop_triggers():
    # a static-handle problem at the identity has almost nothing to improve
    mesh_free = np.random.default_rng(2).uniform(-0.3, 0.3, size=(50, 3))
    job = ElasticJob(
        constraints=[HandleConstraint(points=PointSet(mesh_free[:20]))],
        free_samples=PointSet(mesh_free[20:], np.ones(30)),
        spec=NetSpec(layers=1, resolution=5),
        lr=LearningRate(1e-5, 1e-6, 100),
        max_steps=500, rel_tol=0.5, window=3, log_every=1000)
    net, report = run_elastic(job)
    assert report.steps_run < 500


def test_run_fit_zero_steps_reports_the_initial_net():
    rng = np.random.default_rng(4)
    src = fibonacci_sphere(100)
    tgt = forward(random_net(rng, resolution=5, layers=2, scale=0.6), src)
    fit = dict(source=PointSet(src), target_vertices=tgt,
               spec=NetSpec(layers=2, resolution=5), log_every=1000)
    _, zero = run_fit(FitJob(max_steps=0, **fit))
    _, one = run_fit(FitJob(max_steps=1, **fit))
    assert zero.steps_run == 0 and zero.loss_history == []
    assert zero.final_loss == pytest.approx(one.loss_history[0], rel=1e-12)


def test_run_elastic_zero_steps_reports_the_initial_net():
    pts = np.random.default_rng(5).uniform(-0.4, 0.4, size=(80, 3))
    elastic = dict(
        constraints=[HandleConstraint(points=PointSet(pts[:30]),
                                      translation=np.array([0.0, 0.0, 0.05]))],
        free_samples=PointSet(pts[30:], np.ones(50)),
        spec=NetSpec(layers=2, resolution=5), log_every=1000)
    _, zero = run_elastic(ElasticJob(max_steps=0, **elastic))
    _, one = run_elastic(ElasticJob(max_steps=1, **elastic))
    assert zero.steps_run == 0 and zero.loss_history == []
    assert zero.final_loss == pytest.approx(one.loss_history[0], rel=1e-9)
    assert one.steps_run == 1 and one.final_loss == one.loss_history[-1]


def test_run_fit_rejects_a_mismatched_target_before_step_0(monkeypatch):
    steps = []

    def counted(*args, _fn=optim.evaluate_with_gradient):
        steps.append(args)
        return _fn(*args)

    monkeypatch.setattr(optim, "evaluate_with_gradient", counted)
    src = fibonacci_sphere(50)
    job = FitJob(source=PointSet(src), target_vertices=src[:1],
                 spec=NetSpec(layers=2, resolution=5), max_steps=3, log_every=1000)
    with pytest.raises(ValueError):
        run_fit(job)
    assert steps == []


def test_carried_trace_leaves_every_step_bit_for_bit(monkeypatch):
    # 25 steps of each loop, carrying one trace from step to step and then
    # tracing afresh each step: the same loss history and final parameters,
    # byte for byte.  Every step after the first refills the carried trace.
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.4, 0.4, size=(200, 3))
    src = fibonacci_sphere(150)
    jobs = [
        (run_elastic, ElasticJob(
            constraints=[HandleConstraint(points=PointSet(pts[:40]),
                                          translation=np.array([0.0, 0.05, 0.0]))],
            free_samples=PointSet(pts[40:], rng.uniform(0.5, 2.0, 160)),
            spec=NetSpec(layers=3, resolution=5), lr=LearningRate(0.02, 0.002, 25),
            max_steps=25, log_every=1000)),
        (run_fit, FitJob(
            source=PointSet(src),
            target_vertices=forward(random_net(rng, resolution=5, layers=2, scale=0.6), src),
            spec=NetSpec(layers=3, resolution=5), max_steps=25, log_every=1000)),
    ]
    traces = []

    def recorded(net, points, need_jacobian=False, out=None, _fn=grad.forward_trace):
        trace = _fn(net, points, need_jacobian=need_jacobian, out=out)
        traces.append((out, trace))
        return trace

    def fresh(net, config, _carry=None, _fn=optim.evaluate_with_gradient):
        return _fn(net, config)

    monkeypatch.setattr(grad, "forward_trace", recorded)
    for run, job in jobs:
        traces.clear()
        net, carried = run(job)
        outs = [out for out, _ in traces[:25]]
        assert outs[0] is None
        assert all(out is trace for out, (_, trace) in zip(outs[1:], traces[:25]))
        assert all(trace is out for out, trace in traces[1:25])  # refilled
        with monkeypatch.context() as m:
            m.setattr(optim, "evaluate_with_gradient", fresh)
            traces.clear()
            again, alone = run(job)
            assert all(out is None for out, _ in traces)
        assert np.array(carried.loss_history).tobytes() == \
            np.array(alone.loss_history).tobytes()
        assert carried.final_loss == alone.final_loss
        assert pack_params(net.params).tobytes() == pack_params(again.params).tobytes()


def test_a_run_builds_parameter_stacks_not_layers(monkeypatch):
    # The raw parameters travel as one (L, E)/(L, m) stack from Adam's flat
    # vector through realize, the gradient and the final net: a 3-step run
    # builds one TutteLayerParams at the start, one per step and one for
    # the final net, however many layers it has.
    built = []
    post_init = TutteLayerParams.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TutteLayerParams, "__post_init__", counted)
    pts = fibonacci_sphere(40)
    counts = {}
    for layers in (2, 5):
        built.clear()
        run_fit(FitJob(source=PointSet(pts), target_vertices=twist_about_z(pts),
                       spec=NetSpec(layers=layers, resolution=5), max_steps=3,
                       log_every=0))
        counts[layers] = len(built)
    assert counts == {2: 5, 5: 5}
