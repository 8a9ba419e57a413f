"""The benchmark's tracer (bench/tracing.py) wraps library names by module
attribute; a refactor that drops or renames one breaks traced benchmark runs
with a KeyError, so the contract is checked here as well."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import ADJOINT, OP, SPANS, STEP, Tracer  # noqa: E402
from tuttedeform import deform, grad, optim, prism  # noqa: E402
from tuttedeform.deform import PointSet  # noqa: E402
from tuttedeform.energy import HandleConstraint  # noqa: E402

from conftest import fibonacci_sphere, random_net, twist_about_z  # noqa: E402


def test_tracer_wraps_and_restores_every_name():
    targets = [(optim, "unpack_params"), (optim, "adam_step")]
    targets += [t for owners, _ in SPANS.values() for t in owners]
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = Tracer(layers=True)
    with tracer.installed():
        for (owner, attr), fn in zip(targets, before):
            assert owner.__dict__[attr] is not fn, f"{owner.__name__}.{attr}"
        net = random_net(np.random.default_rng(0), resolution=5, layers=2)
        with tracer.root(OP):
            images = deform.forward(net, np.zeros((4, 3)))
            deform.inverse(net, images)
    for (owner, attr), fn in zip(targets, before):
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr}"
    names = {span[0] for span in tracer.spans}
    assert {OP, "deform.forward", "mesh2d.locate_points", "deform.inverse",
            "mesh2d.locate_image_points", "mesh2d.image_locator"} <= names


def test_a_traced_inverse_locates_once_per_layer():
    # The first of the L locator calls builds every layer's tables, but the
    # tracer still sees one call per layer under each name.
    tracer = Tracer(layers=True)
    with tracer.installed():
        net = random_net(np.random.default_rng(2), resolution=5, layers=4)
        images = deform.forward(net, fibonacci_sphere(50))
        with tracer.root(OP):
            deform.inverse(net, images)
    names = [span[0] for span in tracer.spans]
    assert names.count("mesh2d.image_locator") == 4
    assert names.count("mesh2d.locate_image_points") == 4


def test_one_adjoint_span_per_layer():
    tracer = Tracer(layers=True)
    with tracer.installed():
        net = random_net(np.random.default_rng(1), resolution=5, layers=2)
        handle = HandleConstraint(PointSet(fibonacci_sphere(20)),
                                  translation=np.array([0.05, 0.0, 0.0]))
        config = grad.LossConfig(constraints=[handle])
        with tracer.root(OP):
            grad.evaluate_with_gradient(net, config)
    names = [span[0] for span in tracer.spans]
    assert names.count(ADJOINT) == 2


def test_one_stacked_solve_per_realize():
    pts = fibonacci_sphere(30)
    job = optim.FitJob(source=PointSet(pts), target_vertices=twist_about_z(pts),
                       spec=optim.NetSpec(layers=3, resolution=5), max_steps=2,
                       log_every=0)
    tracer = Tracer(layers=True)
    with tracer.installed():
        tracer.steps_left = job.max_steps
        optim.run_fit(job)
    names = [span[0] for span in tracer.spans]
    assert names.count(STEP) == 2 and names.count("deform.realize") == 2
    solves = [i for i, name in enumerate(names) if name == "tutte.solve_tutte_with_system"]
    assert [tracer.spans[i][3] for i in solves] == [
        i for i, name in enumerate(names) if name == "deform.realize"]
    for stage in ("tutte.assemble_laplacian", "tutte.build_boundary"):
        assert [span[3] for span in tracer.spans if span[0] == stage] == solves
    adjoint_ops = [span[4] for span in tracer.spans if span[0] == ADJOINT]
    assert sorted(adjoint_ops.count(op) for op in set(adjoint_ops)) == [3, 3]


def test_the_per_layer_forms_count_their_points():
    # The tracer counts the points of a span as ``len(args[1])``: each of
    # the three per-layer forms must take its batch second.
    net = random_net(np.random.default_rng(3), resolution=5, layers=3)
    batch = 0.5 * fibonacci_sphere(37)
    images = prism.map_points(net.frames[1], batch, net.maps[1], 1)
    tracer = Tracer(layers=True)
    with tracer.installed():
        with tracer.root(OP):
            prism.map_points(net.frames[1], batch, net.maps[1], 1)
            prism.jacobians(net.frames[1], batch, net.maps[1], 1)
            prism.invert_points(net.frames[1], images, net.maps[1], 1)
    for name in ("prism.map_points", "prism.jacobians", "prism.invert_points"):
        spans = [span for span in tracer.spans if span[0] == name]
        assert [span[5] for span in spans] == [len(batch)], name
