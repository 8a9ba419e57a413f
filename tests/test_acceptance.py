"""Acceptance suite.

Each test covers one shipping criterion and prints a single PASS/FAIL line
with the measured numbers.  Criteria:

 1. random nets of every size are injective (certificate + collision scan)
 2. exact inverse round trip at depth 24
 3. analytic Jacobians against finite differences
 4. adjoint parameter gradients against finite differences, per loss term
 5. layer regularization against Monte Carlo integration
 6. twist fitting converges to the vertex tolerance
 7. fitting error improves with resolution and with depth
 8. bend job: handle tolerance, zero injectivity violations, schedule
 9. byte-identical checkpoints for identical seeded runs
10. throughput floors for forward maps and Jacobians
"""

import json
import subprocess
import sys
import time

import numpy as np
from scipy.spatial import cKDTree

from tuttedeform.deform import PointSet, forward, forward_trace, inverse, jacobians, realize
from tuttedeform.energy import HandleConstraint, LossWeights, layer_regularization
from tuttedeform.grad import FitTarget, LossConfig, evaluate_with_gradient
from tuttedeform.mesh2d import build_mesh, locate_points
from tuttedeform.optim import (ElasticJob, FitJob, LearningRate, NetSpec,
                               pack_params, run_elastic, run_fit, unpack_params)
from tuttedeform.prism import triplane_frames

from conftest import fibonacci_sphere, random_net, random_params, twist_about_z


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(f"\n{line}")
    assert ok, line


def test_criterion_01_random_nets_injective():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    draws = 0
    min_det = np.inf
    min_sep = np.inf
    for res in (7, 11, 25):
        mesh = build_mesh(res)
        for layers in (1, 6, 24):
            frames = triplane_frames(layers)
            for _ in range(12):
                params = [random_params(rng, mesh, scale=1.5)
                          for _ in range(layers)]
                net = realize(mesh, params, frames)
                for plmap in net.maps:
                    min_det = min(min_det, float(plmap.det.min()))
                pts = rng.uniform(-1, 1, size=(10_000, 3))
                out = forward(net, pts)
                sep = cKDTree(out).query(out, k=2)[0][:, 1].min()
                min_sep = min(min_sep, float(sep))
                draws += 1
    elapsed = time.perf_counter() - t0
    ok = draws >= 100 and min_det > 0 and min_sep > 0 and elapsed < 120
    report(1, ok, f"injectivity: draws={draws} min_det={min_det:.4g} "
                  f"min_pair_separation={min_sep:.3g} time={elapsed:.1f}s")


def test_criterion_02_inverse_roundtrip():
    rng = np.random.default_rng(7)
    net = random_net(rng, resolution=11, layers=24, scale=1.0)
    pts = rng.uniform(-0.7, 0.7, size=(10_000, 3))
    t0 = time.perf_counter()
    err = float(np.abs(inverse(net, forward(net, pts)) - pts).max())
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-8 and elapsed < 30
    report(2, ok, f"inverse roundtrip: points=10000 layers=24 "
                  f"max_err={err:.3e} time={elapsed:.1f}s")


def test_criterion_03_jacobian_finite_differences():
    rng = np.random.default_rng(11)
    net = random_net(rng, resolution=7, layers=6, scale=1.2)
    h = 1e-6
    checked = 0
    worst = 0.0
    while checked < 100:
        batch = rng.uniform(-0.9, 0.9, size=(200, 3))
        base = forward_trace(net, batch).tris
        stable = np.ones(len(batch), dtype=bool)
        for c in range(3):
            e = np.zeros(3)
            e[c] = h
            stable &= np.all(forward_trace(net, batch + e).tris == base, axis=0)
            stable &= np.all(forward_trace(net, batch - e).tris == base, axis=0)
        pts = batch[stable]
        J = jacobians(net, pts)
        for k in range(len(pts)):
            if checked >= 100:
                break
            fd = np.empty((3, 3))
            for c in range(3):
                e = np.zeros(3)
                e[c] = h
                fd[:, c] = (forward(net, (pts[k] + e)[None])[0]
                            - forward(net, (pts[k] - e)[None])[0]) / (2 * h)
            rel = np.linalg.norm(J[k] - fd) / np.linalg.norm(fd)
            worst = max(worst, rel)
            checked += 1
    ok = worst <= 1e-4
    report(3, ok, f"jacobian vs FD: points={checked} max_rel={worst:.3e}")


def _fd_param_check(mesh, params, frames, config, probe_points, rng,
                    n_checks=20, h=1e-6):
    """Central differences on random raw parameters, skipping any whose
    perturbation flips a probe point's triangle orbit."""
    flat = pack_params(params)
    L = len(params)

    def rebuild(vec):
        return realize(mesh, unpack_params(mesh, vec, L), frames)

    def orbit(vec):
        return forward_trace(rebuild(vec), probe_points).tris

    grad = evaluate_with_gradient(rebuild(flat), config)[1]
    g = grad.flat()
    worst = 0.0
    checked = 0
    for idx in rng.permutation(flat.size):
        if checked >= n_checks:
            break
        ep = flat.copy(); ep[idx] += h
        em = flat.copy(); em[idx] -= h
        if not np.array_equal(orbit(ep), orbit(em)):
            continue
        fp = evaluate_with_gradient(rebuild(ep), config)[0].total
        fm = evaluate_with_gradient(rebuild(em), config)[0].total
        fd = (fp - fm) / (2 * h)
        rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-7)
        worst = max(worst, rel)
        checked += 1
    return checked, worst


def test_criterion_04_adjoint_gradients_vs_fd():
    rng = np.random.default_rng(21)
    mesh = build_mesh(5)
    frames = triplane_frames(2)
    params = [random_params(rng, mesh, scale=0.8) for _ in range(2)]
    hp = rng.uniform(-0.4, 0.4, size=(15, 3))
    ep = rng.uniform(-0.5, 0.5, size=(18, 3))
    src = rng.uniform(-0.45, 0.45, size=(24, 3))
    tris = np.array([[i, i + 1, i + 2] for i in range(0, 21, 3)])
    cases = {
        "handle": (LossConfig(constraints=[HandleConstraint(
            points=PointSet(hp), translation=np.array([0.04, 0, 0.01]))],
            use_regularization=False), hp),
        "elastic": (LossConfig(
            elastic_samples=PointSet(ep, rng.uniform(0.5, 1.5, 18)),
            weights=LossWeights(elastic=1.0), use_regularization=False), ep),
        "regularization": (LossConfig(use_regularization=True),
                           np.full((1, 3), 0.1)),
        "fitting": (LossConfig(fit=FitTarget(
            source=PointSet(src), target_vertices=src * 1.04, triangles=tris),
            use_regularization=False), src),
    }
    details = []
    ok = True
    for name, (config, probes) in cases.items():
        checked, worst = _fd_param_check(mesh, params, frames, config, probes, rng)
        ok &= checked >= 20 and worst <= 1e-3
        details.append(f"{name}: n={checked} max_rel={worst:.2e}")
    report(4, ok, "adjoint vs FD: " + "; ".join(details))


def test_criterion_05_regularization_monte_carlo():
    rng = np.random.default_rng(33)
    mesh = build_mesh(7)
    worst_z = 0.0
    for _ in range(20):
        net = realize(mesh, [random_params(rng, mesh, scale=2.0)],
                      triplane_frames(1))
        plmap = net.maps[0]
        exact = layer_regularization(net)[0]
        samples = rng.uniform(-1, 1, size=(1_000_000, 2))
        tri, _ = locate_points(mesh, samples)
        A = plmap.A[tri]
        dev = np.einsum("nji,njk->nik", A, A) - np.eye(2)
        vals = np.einsum("nij,nij->n", dev, dev)
        mc = 4.0 * vals.mean()
        se = 4.0 * vals.std() / np.sqrt(vals.size)
        worst_z = max(worst_z, abs(exact - mc) / se)
    ok = worst_z <= 3.0
    report(5, ok, f"regularization vs MC: layers=20 samples=1e6 "
                  f"max_z={worst_z:.2f} (bar 3 SE)")


def test_criterion_06_twist_fit_converges():
    src = fibonacci_sphere(2000)
    tgt = twist_about_z(src, degrees=30.0)
    job = FitJob(source=PointSet(src), target_vertices=tgt, triangles=None,
                 spec=NetSpec(layers=24, resolution=11),
                 lr=LearningRate(0.02, 0.002, 5000),
                 max_steps=5000, log_every=1000)
    t0 = time.perf_counter()
    net, rep = run_fit(job)
    elapsed = time.perf_counter() - t0
    ok = rep.fit_vertex <= 5e-4 and rep.injective and elapsed < 900
    report(6, ok, f"twist fit: steps={rep.steps_run} vertex={rep.fit_vertex:.3e} "
                  f"(bar 5e-4) injective={rep.injective} time={elapsed:.0f}s")


def _twist_fit_error(resolution, layers, steps=800):
    src = fibonacci_sphere(2000)
    tgt = twist_about_z(src, degrees=30.0)
    job = FitJob(source=PointSet(src), target_vertices=tgt, triangles=None,
                 spec=NetSpec(layers=layers, resolution=resolution),
                 lr=LearningRate(0.02, 0.002, steps),
                 max_steps=steps, log_every=1000)
    _, rep = run_fit(job)
    return rep.fit_vertex


def test_criterion_07_error_trends():
    res_errs = [_twist_fit_error(r, 8) for r in (7, 11, 25)]
    layer_errs = [_twist_fit_error(11, l) for l in (6, 12, 24)]
    res_ok = res_errs[0] >= res_errs[1] >= res_errs[2]
    layer_ok = (layer_errs[0] >= layer_errs[1] >= layer_errs[2]
                and layer_errs[0] > layer_errs[2])
    ok = res_ok and layer_ok
    report(7, ok, "trends: res(7,11,25)@8layers="
                  + "/".join(f"{e:.2e}" for e in res_errs)
                  + " layers(6,12,24)@res11="
                  + "/".join(f"{e:.2e}" for e in layer_errs))


def test_criterion_08_bend_job():
    rng = np.random.default_rng(44)
    pts = rng.uniform([-0.15, -0.15, -0.6], [0.15, 0.15, 0.6], size=(6000, 3))
    static = pts[pts[:, 2] < -0.35]
    moving = pts[pts[:, 2] > 0.35]
    free = pts[np.abs(pts[:, 2]) <= 0.35]
    angle = 20.0 * np.pi / 180.0
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
    pivot = np.array([0.0, 0.0, 0.45])
    t = pivot - R @ pivot
    weights = LossWeights()
    job = ElasticJob(
        constraints=[
            HandleConstraint(points=PointSet(static)),
            HandleConstraint(points=PointSet(moving), rotation=R, translation=t),
        ],
        free_samples=PointSet(free, np.ones(len(free))),
        spec=NetSpec(layers=6, resolution=11),
        weights=weights,
        lr=LearningRate(0.02, 0.002, 1200),
        max_steps=1200, log_every=400)
    t0 = time.perf_counter()
    net, rep = run_elastic(job)
    elapsed = time.perf_counter() - t0
    schedule_ok = (weights.elastic_at(0) == 0.004
                   and weights.elastic_at(600) == 0.003
                   and weights.elastic_at(1800) == 0.001)
    # every optimization step re-realized the net, which certifies all
    # triangle determinants; rep.injective re-verifies the final state
    ok = (rep.handle_rms <= 1e-2 and rep.injective and schedule_ok
          and rep.max_distortion is not None)
    report(8, ok, f"bend: handle_rms={rep.handle_rms:.3e} (bar 1e-2) "
                  f"violations=0 injective={rep.injective} "
                  f"max_distortion={rep.max_distortion:.3f} "
                  f"schedule(0/600/1800)={weights.elastic_at(0)}/"
                  f"{weights.elastic_at(600)}/{weights.elastic_at(1800)} "
                  f"time={elapsed:.0f}s")


def test_criterion_09_deterministic_checkpoints(tmp_path):
    rng = np.random.default_rng(55)
    pts = rng.uniform([-0.15, -0.15, -0.6], [0.15, 0.15, 0.6], size=(800, 3))
    lines = [f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in pts]
    (tmp_path / "bar.obj").write_text("\n".join(lines) + "\n")
    outs = []
    for name in ("a", "b"):
        job = {
            "workflow": "elastic", "seed": 9,
            "net": {"layers": 2, "resolution": 7},
            "optimizer": {"max_steps": 25, "log_every": 100},
            "samples": {"moving": 200, "static": 300, "free": 200},
            "constraints": [
                {"region": {"kind": "halfspace", "normal": [0, 0, -1],
                            "offset": 0.35}, "static": True},
                {"region": {"kind": "halfspace", "normal": [0, 0, 1],
                            "offset": 0.35},
                 "motion": {"axis": [1, 0, 0], "angle_degrees": 6,
                            "pivot": [0, 0, 0.45]}},
            ],
            "input": {"geometry": "bar.obj"},
            "output": {"checkpoint": f"{name}.ckpt.json"},
        }
        jp = tmp_path / f"{name}.json"
        json.dump(job, open(jp, "w"))
        r = subprocess.run([sys.executable, "-m", "tuttedeform.cli",
                            "elastic", str(jp), "--quiet"],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append((tmp_path / f"{name}.ckpt.json").read_bytes())
    identical = outs[0] == outs[1]
    report(9, identical, f"determinism: two seeded runs, checkpoint bytes "
                         f"identical={identical} size={len(outs[0])}")


def test_criterion_10_throughput():
    rng = np.random.default_rng(66)
    net = random_net(rng, resolution=25, layers=24, scale=1.0)
    pts_f = rng.uniform(-1, 1, size=(100_000, 3))
    forward(net, pts_f[:1000])  # warm caches before timing
    t0 = time.perf_counter()
    forward(net, pts_f)
    t_fwd = time.perf_counter() - t0
    pts_j = rng.uniform(-1, 1, size=(10_000, 3))
    t0 = time.perf_counter()
    jacobians(net, pts_j)
    t_jac = time.perf_counter() - t0
    ok = t_fwd < 1.0 and t_jac < 1.0
    report(10, ok, f"throughput res=25 layers=24: forward 1e5 pts in "
                   f"{t_fwd*1000:.0f}ms ({1e5/t_fwd:.2e} pts/s), jacobians "
                   f"1e4 pts in {t_jac*1000:.0f}ms ({1e4/t_jac:.2e} pts/s)")
