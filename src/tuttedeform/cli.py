"""Command-line front end.

One subcommand per workflow, each driven by a job file::

    tuttedeform elastic job.json
    tuttedeform fit     job.json [--seed 7]
    tuttedeform apply   job.json
    tuttedeform invert  job.json
    tuttedeform check   job.json
    tuttedeform report  job.json

Exit codes: 0 success, 1 invariant failure, 2 configuration error,
3 numerical failure.  Set TUTTEDEFORM_THREADS before launching to cap the
BLAS thread pools.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import sys

import numpy as np

from . import checkpoint as ckpt
from .deform import PointSet, forward, inverse, jacobians
from .energy import HandleConstraint, strain_energy_density
from .errors import InternalError, NotInImageError, NumericalError, OutOfDomainError
from .fileio import (atomic_write_text, load_geometry, normalize_jointly,
                     save_geometry)
from .jobfile import ConfigError, JobFile, load_jobfile
from .optim import ElasticJob, FitJob, run_elastic, run_fit

log = logging.getLogger("tuttedeform")

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _config_hash(job: JobFile) -> str:
    # Only result-affecting configuration; file locations are excluded so
    # identical runs saved to different paths hash (and so byte-compare)
    # identically.
    science = {k: v for k, v in job.raw.items() if k not in ("input", "output")}
    blob = json.dumps({"job": science, "seed": job.seed},
                      sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def _subsample(rng, n_budget, points, weights=None):
    n = len(points)
    if n <= n_budget:
        idx = np.arange(n)
    else:
        idx = np.sort(rng.choice(n, size=n_budget, replace=False))
    w = None if weights is None else weights[idx]
    return points[idx], w


def _split_by_constraints(job: JobFile, geo):
    """Assign geometry samples to handles (first matching constraint wins)
    and the free remainder, subsampled to the budgets in raw order."""
    raw_points = geo.transform.invert(geo.points)
    taken = np.zeros(len(raw_points), dtype=bool)
    rng = np.random.default_rng(job.seed)
    constraints = []
    for spec in job.constraints:
        mask = spec.region.contains(raw_points) & ~taken
        taken |= mask
        if not mask.any():
            raise ConfigError("a constraint region selects no geometry samples")
        budget = job.budgets["static" if spec.is_static else "moving"]
        w = None if geo.weights is None else geo.weights[mask]
        pts, w = _subsample(rng, budget, geo.points[mask], w)
        if spec.is_static:
            R, t = np.eye(3), np.zeros(3)
        else:
            R, t = spec.motion.in_normalized(geo.transform)
        constraints.append(HandleConstraint(points=PointSet(pts, w),
                                            rotation=R, translation=t))
    free_mask = ~taken
    w = None if geo.weights is None else geo.weights[free_mask]
    pts, w = _subsample(rng, job.budgets["free"], geo.points[free_mask], w)
    free = PointSet(pts, w) if len(pts) else PointSet(np.zeros((0, 3)))
    return constraints, free


def _write_report_csv(path, rows):
    buf = io.StringIO()
    csv.writer(buf).writerows([["metric", "value"]] + rows)
    atomic_write_text(path, buf.getvalue())


def _report_rows(net, report=None, sample_points=None):
    rows = []
    dets = net.system.det.min(axis=1)
    rows.append(["layers", net.num_layers])
    rows.append(["resolution", net.mesh.resolution])
    rows.append(["min_triangle_det", float(dets.min())])
    for i, d in enumerate(dets):
        rows.append([f"layer{i}_min_det", float(d)])
    if report is not None:
        for name in ("steps_run", "final_loss", "elapsed_seconds", "handle_rms",
                     "max_distortion", "fit_vertex", "fit_gradient"):
            val = getattr(report, name, None)
            if val is not None:
                rows.append([name, val])
        if report.distortion_histogram is not None:
            counts, edges = report.distortion_histogram
            for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
                rows.append([f"distortion[{lo:.4g},{hi:.4g})", int(c)])
    if sample_points is not None and len(sample_points):
        J = jacobians(net, sample_points)
        E = strain_energy_density(J)
        rows.append(["sample_count", len(sample_points)])
        rows.append(["strain_energy_mean", float(E.mean())])
        rows.append(["strain_energy_max", float(E.max())])
    return rows


def _cmd_elastic(job: JobFile) -> int:
    geo = load_geometry(job.inputs["geometry"], grid_threshold=job.grid_threshold)
    constraints, free = _split_by_constraints(job, geo)
    run = ElasticJob(constraints=constraints, free_samples=free, spec=job.net,
                     weights=job.weights, lr=job.lr, max_steps=job.max_steps,
                     rel_tol=job.stop_rel_tol, window=job.stop_window,
                     log_every=job.log_every)
    net, report = run_elastic(run)
    ck = ckpt.from_net(net, normalization=geo.transform, seed=job.seed,
                       config_hash=_config_hash(job))
    ckpt.save_checkpoint(job.outputs["checkpoint"], ck)
    log.info("checkpoint=%s handle_rms=%.6g max_distortion=%.6g injective=%s",
             job.outputs["checkpoint"], report.handle_rms,
             report.max_distortion, report.injective)
    if "report" in job.outputs:
        _write_report_csv(job.outputs["report"], _report_rows(net, report))
    return EXIT_OK if report.injective else EXIT_INVARIANT


def _cmd_fit(job: JobFile) -> int:
    src = load_geometry(job.inputs["geometry"], normalize=False,
                        grid_threshold=job.grid_threshold)
    tgt = load_geometry(job.inputs["target_geometry"], normalize=False,
                        grid_threshold=job.grid_threshold)
    if len(src.points) != len(tgt.points):
        raise ConfigError(
            f"source has {len(src.points)} vertices, target {len(tgt.points)}; "
            "fitting needs one-to-one correspondence")
    transform = normalize_jointly(src, tgt)
    tris = src.triangles if src.triangles is not None else tgt.triangles
    run = FitJob(source=PointSet(src.points), target_vertices=tgt.points,
                 triangles=tris, gradient_weight=job.gradient_weight,
                 spec=job.net, lr=job.lr, max_steps=job.max_steps,
                 rel_tol=job.stop_rel_tol, window=job.stop_window,
                 log_every=job.log_every)
    net, report = run_fit(run)
    ck = ckpt.from_net(net, normalization=transform, seed=job.seed,
                       config_hash=_config_hash(job))
    ckpt.save_checkpoint(job.outputs["checkpoint"], ck)
    log.info("checkpoint=%s vertex=%.6g gradient=%.6g injective=%s",
             job.outputs["checkpoint"], report.fit_vertex,
             report.fit_gradient, report.injective)
    if "report" in job.outputs:
        _write_report_csv(job.outputs["report"], _report_rows(net, report))
    return EXIT_OK if report.injective else EXIT_INVARIANT


def _checkpoint_points(job: JobFile, ck):
    """The job's geometry and its points through the checkpoint's
    normalization, which must keep them finite."""
    path = job.inputs["geometry"]
    geo = load_geometry(path, normalize=False, grid_threshold=job.grid_threshold)
    with np.errstate(over="ignore", invalid="ignore"):
        q = ck.normalization.apply(geo.points)
    bad = np.flatnonzero(~np.isfinite(q).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}: point {bad[0]} overflows float64 under the "
                          "checkpoint's normalization")
    return geo, q


def _apply_or_invert(job: JobFile, invert_map: bool) -> int:
    ck = ckpt.load_checkpoint(job.inputs["checkpoint"])
    net = ck.realize()
    geo, q = _checkpoint_points(job, ck)
    out = inverse(net, q) if invert_map else forward(net, q)
    result = ck.normalization.invert(out)
    save_geometry(job.outputs["geometry"], result,
                  triangles=geo.triangles, weights=geo.weights)
    log.info("wrote %s points=%d", job.outputs["geometry"], len(result))
    return EXIT_OK


def _cmd_check(job: JobFile) -> int:
    ck = ckpt.load_checkpoint(job.inputs["checkpoint"])
    try:
        net = ck.realize()
    except InternalError as e:
        print(f"check=FAIL name=injectivity_certificate error={e}")
        return EXIT_INVARIANT
    ok = True

    min_det = float(net.system.det.min())
    good = min_det > 0
    ok &= good
    print(f"check={'PASS' if good else 'FAIL'} name=triangle_orientation "
          f"min_det={min_det:.6g}")

    rng = np.random.default_rng(job.seed)
    pts = rng.uniform(-0.7, 0.7, size=(2000, 3))
    err = float(np.abs(inverse(net, forward(net, pts)) - pts).max())
    good = err <= 1e-8
    ok &= good
    print(f"check={'PASS' if good else 'FAIL'} name=inverse_roundtrip "
          f"max_err={err:.3e}")

    b = net.system.positions[:, net.mesh.boundary_loop]
    bmax = float(np.abs(np.abs(b).max(axis=2) - 1.0).max())
    good = bmax <= 1e-12
    ok &= good
    print(f"check={'PASS' if good else 'FAIL'} name=boundary_on_square "
          f"max_dev={bmax:.3e}")
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_report(job: JobFile) -> int:
    ck = ckpt.load_checkpoint(job.inputs["checkpoint"])
    net = ck.realize()
    if "geometry" in job.inputs:
        samples = _checkpoint_points(job, ck)[1]
    else:
        rng = np.random.default_rng(job.seed)
        samples = rng.uniform(-0.7, 0.7, size=(5000, 3))
    _write_report_csv(job.outputs["report"], _report_rows(net, sample_points=samples))
    log.info("wrote %s", job.outputs["report"])
    return EXIT_OK


_COMMANDS = {
    "elastic": _cmd_elastic,
    "fit": _cmd_fit,
    "apply": lambda job: _apply_or_invert(job, invert_map=False),
    "invert": lambda job: _apply_or_invert(job, invert_map=True),
    "check": _cmd_check,
    "report": _cmd_report,
}


def _seed(text):
    """A ``--seed`` value: an int >= 0, as the job file's ``seed`` must be."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tuttedeform",
        description="Injective volumetric deformations from stacked "
                    "planar mesh maps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name!r} workflow")
        p.add_argument("jobfile", help="path to the job description (JSON)")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the seed recorded in the job file")
        p.add_argument("--quiet", action="store_true",
                       help="log warnings and errors only")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(message)s", stream=sys.stderr)
    try:
        job = load_jobfile(args.jobfile)
        if job.workflow != args.command:
            raise ConfigError(
                f"job file declares workflow {job.workflow!r} but the "
                f"{args.command!r} command was invoked")
        if args.seed is not None:
            job.seed = args.seed
        return _COMMANDS[args.command](job)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalError as e:
        print(f"invariant failure: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (NumericalError, OutOfDomainError, NotInImageError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
