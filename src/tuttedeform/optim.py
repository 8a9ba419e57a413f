"""Adam optimization loops for elastic deformation and direct fitting.

Both loops are deterministic: given the same configuration and seed they
perform bit-identical arithmetic (fixed reduction orders, seeded sampling,
no wall-clock dependence in any computed quantity), so checkpoints written
by two identical runs compare equal byte for byte.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .deform import PointSet, forward_trace, realize
from .energy import HandleConstraint, LossWeights, strain_energy_density
from .errors import NumericalError
from .grad import FitTarget, LossConfig, evaluate, evaluate_with_gradient
from .mesh2d import Mesh2D, build_mesh
from .prism import Frame, triplane_frames
from .tutte import TutteLayerParams, flat_layout, stack_params

log = logging.getLogger("tuttedeform")


@dataclass(frozen=True)
class LearningRate:
    """Linear decay from ``initial`` to ``final`` over ``decay_steps``."""

    initial: float = 0.02
    final: float = 0.0002
    decay_steps: int = 4000

    def at(self, step: int) -> float:
        if self.decay_steps <= 0:
            return self.final
        t = min(step, self.decay_steps) / self.decay_steps
        return self.initial + (self.final - self.initial) * t


class AdamState:
    """Standard Adam with bias correction over a flat parameter vector."""

    def __init__(self, size: int, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps


def adam_step(state: AdamState, params, grad, lr: float):
    """One Adam update; returns the new parameter vector.

    Aborts with NumericalError on non-finite gradients, and on an update
    whose moments or parameters overflow (the state is then left as it
    was), so a diverged run fails loudly instead of writing garbage
    checkpoints.
    """
    grad = np.asarray(grad)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient passed to the optimizer")
    t = state.t + 1
    with np.errstate(over="ignore", invalid="ignore"):
        m = state.beta1 * state.m + (1.0 - state.beta1) * grad
        v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        new = params - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(new))):
        raise NumericalError(f"Adam update {t} overflows float64")
    state.t, state.m, state.v = t, m, v
    return new


@contextmanager
def _numerically_checked(when: str):
    """Turn a floating-point overflow, invalid operation or division by zero
    inside the block into NumericalError instead of a NumPy warning."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as e:
        raise NumericalError(f"{e} {when}") from None


def _check_total(loss, when: str):
    if not np.isfinite(loss.total):
        raise NumericalError(f"loss total is {loss.total} {when}")
    return loss.total


def pack_params(params):
    """The flat Adam vector (``tutte.flat_layout``) of one stacked
    TutteLayerParams, or of a sequence of per-layer ones."""
    p = stack_params(params)
    return flat_layout(p.raw_edge_weights, p.raw_boundary_increments)


def unpack_params(mesh: Mesh2D, flat, num_layers: int) -> TutteLayerParams:
    """The stack of ``num_layers`` layers whose flat vector is ``flat``."""
    e, m = mesh.edges.shape[0], mesh.boundary_loop.size
    if len(flat) != num_layers * (e + m):
        raise ValueError(f"flat parameter vector has length {len(flat)}, "
                         f"expected {num_layers * (e + m)}")
    rows = np.reshape(flat, (num_layers, e + m))
    return TutteLayerParams(rows[:, :e], rows[:, e:])


@dataclass(frozen=True)
class NetSpec:
    """Architecture of a deformation net."""

    layers: int = 24
    resolution: int = 25
    frames: Optional[Sequence[Frame]] = None  # None: triplane cycle

    def make_frames(self):
        return list(self.frames) if self.frames is not None else triplane_frames(self.layers)


def init_params(mesh: Mesh2D, num_layers: int) -> TutteLayerParams:
    """One stack of all-zero raw parameters, the start of every run: edge
    weights 0.5 and boundary vertices at equal angles within each side.
    This is not the identity (:func:`tutte.identity_params`): at resolution
    11 each layer moves vertices by up to 0.09 and its regularization reads 0.48."""
    e, m = mesh.edges.shape[0], mesh.boundary_loop.size
    return TutteLayerParams(np.zeros((num_layers, e)), np.zeros((num_layers, m)))


@dataclass(frozen=True)
class StopRule:
    """Optional early stop on relative improvement of the total loss."""

    max_steps: int
    rel_tol: float = 0.0   # disabled when 0
    window: int = 100

    def should_stop(self, history) -> bool:
        if self.rel_tol <= 0 or len(history) <= self.window:
            return False
        prev, cur = history[-self.window - 1], history[-1]
        if prev == 0.0:
            return cur == 0.0
        return abs(prev - cur) / abs(prev) < self.rel_tol


@dataclass
class RunReport:
    """Summary of one optimization run."""

    steps_run: int
    final_loss: float
    injective: bool
    elapsed_seconds: float
    handle_rms: Optional[float] = None
    max_distortion: Optional[float] = None
    distortion_histogram: Optional[tuple] = None  # (counts, bin_edges)
    fit_vertex: Optional[float] = None
    fit_gradient: Optional[float] = None
    loss_history: list = field(default_factory=list)


def _log_line(step, loss, lr, extra=""):
    log.info("step=%d total=%.8g elastic=%.6g handle=%.6g reg=%.6g lr=%.5g%s",
             step, loss.total, loss.elastic, loss.handle, loss.reg, lr, extra)


def _run(mesh, spec: NetSpec, make_config: Callable[[int], LossConfig],
         lr: LearningRate, stop: StopRule, log_every: int):
    """Adam from the initial parameters until ``stop``; returns the final
    net, the loss history (one entry per step run) and the elapsed seconds.

    Each step's orbit trace refills the last step's arrays, whose batch has
    the same size, instead of faulting in fresh pages; that trace never
    leaves this loop."""
    frames = spec.make_frames()
    flat = pack_params(init_params(mesh, spec.layers))
    adam = AdamState(flat.size)
    history = []
    carry = [None]  # the last step's trace
    t0 = time.perf_counter()
    for step in range(stop.max_steps):
        params = unpack_params(mesh, flat, spec.layers)
        net = realize(mesh, params, frames)
        with _numerically_checked(f"at step {step}"):
            loss, grad = evaluate_with_gradient(net, make_config(step), _carry=carry)
            history.append(_check_total(loss, f"at step {step}"))
            rate = lr.at(step)
            if log_every and step % log_every == 0:
                _log_line(step, loss, rate,
                          f" max_distortion={loss.max_distortion:.6g}")
            flat = adam_step(adam, flat, grad.flat(), rate)
        if stop.should_stop(history):
            break

    net = realize(mesh, unpack_params(mesh, flat, spec.layers), frames)
    return net, history, time.perf_counter() - t0


@dataclass(frozen=True)
class ElasticJob:
    """An elastic deformation problem: handles plus free-space samples."""

    constraints: Sequence[HandleConstraint]
    free_samples: PointSet          # density-weighted
    spec: NetSpec = field(default_factory=NetSpec)
    weights: LossWeights = field(default_factory=LossWeights)
    lr: LearningRate = field(default_factory=LearningRate)
    max_steps: int = 4000
    rel_tol: float = 0.0
    window: int = 100
    log_every: int = 50


def run_elastic(job: ElasticJob):
    """Optimize handle + elastic + regularization; returns (net, report).

    The elastic term integrates over the handle points and the free
    samples, with the distortion-adaptive reweighting recomputed every step.
    The injectivity certificate holds at every step by construction; the
    report re-verifies it on the final net.
    """
    mesh = build_mesh(job.spec.resolution)

    def make_config(step):
        return LossConfig(weights=job.weights, step=step,
                          constraints=job.constraints,
                          elastic_samples=job.free_samples)

    net, history, elapsed = _run(
        mesh, job.spec, make_config, job.lr,
        StopRule(job.max_steps, job.rel_tol, job.window), job.log_every)
    steps = len(history)

    # One trace of the final net over the elastic term's points, handle
    # points first, gives the handle residuals and the strain energies.
    pts = np.concatenate([c.points.points for c in job.constraints]
                         + [job.free_samples.points])
    with _numerically_checked("on the final net"):
        trace = forward_trace(net, pts, need_jacobian=True)
        energies = strain_energy_density(trace.jac)
        hist = np.histogram(energies, bins=20)
        n = len(pts) - len(job.free_samples)
        handle_rms = 0.0
        if n:
            d = trace.outputs[:n] - np.concatenate([c.targets() for c in job.constraints])
            handle_rms = float(np.sqrt(np.mean(np.sum(d * d, axis=1))))
        # With zero steps no step loss exists; report the initial net's loss.
        final_loss = history[-1] if history else _check_total(
            evaluate(net, make_config(0)), "on the final net")
    injective = bool(np.all(net.system.det > 0))
    report = RunReport(
        steps_run=steps, final_loss=final_loss, injective=injective,
        elapsed_seconds=elapsed, handle_rms=handle_rms,
        max_distortion=float(energies.max()) if energies.size else 0.0,
        distortion_histogram=(hist[0].tolist(), hist[1].tolist()),
        loss_history=history)
    log.info("elastic done steps=%d handle_rms=%.6g max_distortion=%.6g "
             "injective=%s seconds=%.1f", steps, report.handle_rms,
             report.max_distortion, injective, elapsed)
    return net, report


@dataclass(frozen=True)
class FitJob:
    """Direct fitting of known correspondences source -> target."""

    source: PointSet
    target_vertices: np.ndarray
    triangles: Optional[np.ndarray] = None
    gradient_weight: float = 0.1
    spec: NetSpec = field(default_factory=lambda: NetSpec(layers=24, resolution=11))
    lr: LearningRate = field(default_factory=lambda: LearningRate(0.02, 0.002, 5000))
    max_steps: int = 5000
    rel_tol: float = 0.0
    window: int = 100
    log_every: int = 100


def run_fit(job: FitJob):
    """Optimize the fitting loss; returns (net, report).

    The report carries the final vertex and gradient terms (mean squared
    units); multiply by 1e3 when comparing against tabulated values.
    """
    mesh = build_mesh(job.spec.resolution)
    fit = FitTarget(source=job.source, target_vertices=job.target_vertices,
                    triangles=job.triangles,
                    gradient_weight=job.gradient_weight)

    def make_config(step):
        return LossConfig(weights=LossWeights(), step=step, fit=fit,
                          use_regularization=False)

    net, history, elapsed = _run(
        mesh, job.spec, make_config, job.lr,
        StopRule(job.max_steps, job.rel_tol, job.window), job.log_every)
    steps = len(history)

    with _numerically_checked("on the final net"):
        final = evaluate(net, make_config(steps))
    _check_total(final, "on the final net")
    injective = bool(np.all(net.system.det > 0))
    report = RunReport(
        steps_run=steps, final_loss=final.total, injective=injective,
        elapsed_seconds=elapsed, fit_vertex=final.fit_vertex,
        fit_gradient=final.fit_gradient, loss_history=history)
    log.info("fit done steps=%d vertex=%.6g gradient=%.6g injective=%s seconds=%.1f",
             steps, final.fit_vertex, final.fit_gradient, injective, elapsed)
    return net, report
