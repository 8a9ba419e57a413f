"""Exact gradients of the losses with respect to raw layer parameters.

The backward has a sequential half, one sweep from the last layer to the
first, and a parameter half that runs once over the layer axis.

1.  The sweep pulls point and Jacobian cotangents back through each layer
    to cotangents on its deformed vertex positions (``dL/dU``, an (L, V, 2)
    stack).  A point's triangle memberships are piecewise constant in the
    parameters, so away from cell crossings the exact gradient treats them
    as fixed; barycentric weights recorded in the forward trace do the
    bookkeeping.  For the Jacobian loss the sweep carries ``H``, the
    cotangent of the Jacobian product ``M_l ... M_0`` leaving layer l
    (``dL/dJ`` at the last layer).  Layer l's affine factors get ``H P_l^T``
    with the traced prefix ``P_l = M_{l-1} ... M_0`` (``dA``, an (L, T, 2, 2)
    stack), and H moves on as ``M_l^T H``, through the transposed 2x2
    block, as g does.

2.  The parameter half adds the regularizer's cotangent to ``dA`` and
    scatters ``dA`` onto the vertices through the edge matrices, both
    skipped when zero.  Parameters of different layers never mix here:
    perturbing one layer's weights changes other layers' losses only
    through the transported points, which the sweep accounts for.

3.  :func:`tutte.tutte_backward` turns ``dL/dU`` into raw-parameter
    gradients: one LAPACK ``pbtrs`` adjoint solve per layer against that
    layer's slice of the net's one banded Cholesky factor (the matrix is
    symmetric, so the factor serves both directions), then the chain
    through the ray-square intersection, the per-side angle normalization
    and the bounded sigmoids.

A non-finite gradient is reported at the highest layer that has one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import prism
from .deform import DeformationNet, OrbitTrace, PointSet, forward_trace
from .energy import (HandleConstraint, LossWeights, _quarter_strain_gradient,
                     distortion_multipliers, layer_regularization,
                     strain_energy_density, triangle_gradient_frames)
from .errors import NumericalError
from .mesh2d import _edge_matrices
from .tutte import flat_layout, tutte_backward


@dataclass(frozen=True)
class ParamGradient:
    """Gradient in the stacked raw parameters' shapes: row l is layer l's."""

    edge_weights: np.ndarray         # (L, E)
    boundary_increments: np.ndarray  # (L, m)

    def flat(self):
        """The gradient in the flat layout of ``optim.pack_params``."""
        return flat_layout(self.edge_weights, self.boundary_increments)


@dataclass(frozen=True)
class FitTarget:
    """Source geometry and its target for direct fitting."""

    source: PointSet
    target_vertices: np.ndarray
    triangles: Optional[np.ndarray] = None
    gradient_weight: float = 0.1

    def __post_init__(self):
        target = np.asarray(self.target_vertices, dtype=np.float64)
        if target.shape != self.source.points.shape:
            raise ValueError(
                f"target vertices must match source shape "
                f"{self.source.points.shape}, got {target.shape}")
        object.__setattr__(self, "target_vertices", target)


@dataclass(frozen=True)
class LossConfig:
    """What to differentiate: any combination of the supported terms.

    The handle term is the sum over constraints of the mean squared distance
    to the targets.  The elastic term is on when ``elastic_samples`` is set:
    it is the weighted mean strain energy over every handle point followed
    by the elastic samples, where a set without weights weighs each point
    by 1.  The fit term is the mean squared vertex error plus
    ``gradient_weight`` times the mean squared deformation-gradient error.
    The regularizer is the mean of the per-layer regularization.
    """

    weights: LossWeights = field(default_factory=LossWeights)
    step: int = 0
    constraints: Sequence[HandleConstraint] = ()
    elastic_samples: Optional[PointSet] = None
    fit: Optional[FitTarget] = None
    use_regularization: bool = True


@dataclass(frozen=True)
class LossValues:
    total: float
    elastic: float = 0.0
    handle: float = 0.0
    reg: float = 0.0
    fit_vertex: float = 0.0
    fit_gradient: float = 0.0
    elastic_weight: float = 0.0
    max_distortion: float = 0.0


def _add_edge_cotangents(out, triangles, dE):
    """Add cotangents ``dE`` (T, d, 2) of the edge matrices
    ``[v1 - v0, v2 - v0]`` of ``triangles`` to vertex cotangents ``out``
    (V, d), in place; returns ``out``.  Like every scatter-add here it uses
    bincount: deterministic, and much faster than np.add.at for our sizes."""
    n = out.shape[0]
    for c in range(out.shape[1]):
        out[:, c] += np.bincount(triangles[:, 1], weights=dE[:, c, 0], minlength=n)
        out[:, c] += np.bincount(triangles[:, 2], weights=dE[:, c, 1], minlength=n)
        out[:, c] -= np.bincount(triangles[:, 0], weights=dE[:, c, 0] + dE[:, c, 1],
                                 minlength=n)
    return out


def _backward_sweep(net: DeformationNet, trace: Optional[OrbitTrace], g_out, g_jac):
    """The sequential half: cotangents ``(dU, dA)`` of every layer's vertices
    and affine factors.  ``g_out`` is dL/d(final points), None with
    ``trace`` when there are no points; ``g_jac``, a (3, 3, N) row stack, is
    dL/d(composite Jacobian) or None, and then so is ``dA``."""
    mesh = net.mesh
    L, V, T = net.num_layers, mesh.num_vertices, mesh.num_triangles
    dU = np.zeros((L, V, 2))
    dA = None if g_jac is None else np.zeros((L, T, 2, 2))
    if trace is None:
        return dU, dA
    g = g_out.T[:, None]  # a (3, 1, N) row stack, pulled back like H
    H = g_jac  # the Jacobian's cotangent, pulled back layer by layer

    for l in range(L - 1, -1, -1):
        frame = net.frames[l]
        tri = trace.tris[l]
        bary = trace.barys[l].T
        A = net.maps[l].factors(tri)

        # Direct contribution to this layer's deformed vertices.
        verts = mesh.triangle_rows.take(tri, axis=1)
        gxy = frame.plane_rows(g[:, 0])
        for k in range(3):
            for c, gc in enumerate(gxy):
                dU[l, :, c] += np.bincount(verts[k], bary[k] * gc, V)
        # Continue the chain: g moves on as M_l^T g, like H below.
        AT = A.transpose(0, 2, 1)
        g = prism.apply_lifted(frame, AT, g)

        if H is not None:
            # H P^T's in-plane block in the frame, P the traced prefix.
            h, p = frame.plane_rows(H), frame.plane_rows(trace.prefixes[l])
            for a, b in itertools.product(range(2), repeat=2):
                dA[l, :, a, b] += np.bincount(tri, np.einsum("kn,kn->n", h[a], p[b]), T)
            H = prism.apply_lifted(frame, AT, H)
    return dU, dA


def _parameter_half(net: DeformationNet, dU, dA, reg_coef):
    """Raw-parameter gradients (L, E) and (L, m) from the sweep's ``dU`` and
    ``dA``; ``reg_coef`` scales the regularizer's cotangent, None when off.
    Cotangents are checked before the Tutte stage, which runs only on the
    layers above the highest non-finite one."""
    mesh = net.mesh
    L, V = dU.shape[:2]
    if reg_coef is not None:
        reg = reg_coef * mesh.areas[:, None, None] * _quarter_strain_gradient(net.system.A)
        dA = reg if dA is None else dA + reg
    if dA is not None:
        # dA @ edge_inverse^T is dL/d[u1 - u0, u2 - u0]; layer l's vertices
        # are rows l V to l V + V - 1 of the flattened stack.
        dE = (dA @ np.swapaxes(mesh.edge_inverse, -1, -2)).reshape(-1, 2, 2)
        tris = (mesh.triangles + V * np.arange(L)[:, None, None]).reshape(-1, 3)
        dU = dU + _add_edge_cotangents(np.zeros((L * V, 2)), tris, dE).reshape(L, V, 2)

    bad = np.flatnonzero(~np.isfinite(dU).all(axis=(1, 2)))
    lo = bad[-1] + 1 if bad.size else 0
    if lo < L:
        d_edges, d_boundary = tutte_backward(mesh, net.system, dU, lo)
        finite = np.isfinite(d_edges).all(axis=1) & np.isfinite(d_boundary).all(axis=1)
        bad = np.append(bad, lo + np.flatnonzero(~finite))
    if bad.size:
        raise NumericalError(f"non-finite gradient in layer {bad[-1]}")
    return d_edges, d_boundary


def _trace_terms(net: DeformationNet, config: LossConfig, carry=None):
    """Every loss value under ``config`` from one orbit trace.

    The batch holds the handle points, then the elastic samples, then the
    fit source; Jacobian prefixes are traced only when the elastic term is
    on.  Returns ``(values, trace, g_out, g_jac)``: the cotangents of the
    total with respect to the batch's images and Jacobians.  ``trace`` and
    ``g_out`` are None when no term has points, ``g_jac`` when the elastic
    term is off.  ``carry``, a one-item list, holds a trace that the
    forward pass may overwrite (``forward_trace``'s ``out``), and then
    this call's trace.
    """
    w = config.weights
    w_el = w.elastic_at(config.step)
    fit = config.fit
    handles = [c for c in config.constraints if len(c.points)]
    handle_sets = [c.points for c in handles]
    elastic_sets = ([] if config.elastic_samples is None
                    else handle_sets + [config.elastic_samples])
    sets = (elastic_sets or handle_sets) + ([fit.source] if fit else [])
    n_el = sum(len(s) for s in elastic_sets)
    values = dict(elastic=0.0, handle=0.0, reg=0.0,
                  fit_vertex=0.0, fit_gradient=0.0, max_distortion=0.0)
    trace = g_out = g_jac = None

    batch = np.concatenate([s.points for s in sets]) if sets else np.zeros((0, 3))
    if len(batch):
        trace = forward_trace(net, batch, need_jacobian=n_el > 0,
                              out=None if carry is None else carry[0])
        if carry is not None:
            carry[0] = trace
        g_out = np.zeros((3, len(batch))).T  # the (N, 3) view of rows

    ofs = 0
    for c in handles:
        n = len(c.points)
        d = trace.outputs[ofs:ofs + n] - c.targets()
        values["handle"] += float(np.mean(np.sum(d * d, axis=1)))
        g_out[ofs:ofs + n] = (w.handle * 2.0 / n) * d
        ofs += n

    if n_el:
        weights = np.concatenate([s.weights if s.weights is not None
                                  else np.ones(len(s)) for s in elastic_sets])
        J = trace.jac[:n_el]
        e = strain_energy_density(J)
        m = distortion_multipliers(e, w.thresholds, w.multipliers)
        values["elastic"] = float(np.mean(m * weights * e))
        values["max_distortion"] = float(e.max())
        coef = (w_el * m * weights / e.size)
        g_jac = np.zeros(trace.prefixes.shape[1:])  # a (3, 3, N) row stack
        g_jac[:, :, :n_el] = _quarter_strain_gradient(J).transpose(1, 2, 0) * (4.0 * coef)

    if fit is not None:
        f0 = len(batch) - len(fit.source)
        target = fit.target_vertices
        mapped = trace.outputs[f0:]
        n = mapped.shape[0]
        d = mapped - target
        values["fit_vertex"] = float(np.mean(np.sum(d * d, axis=1)))
        g_fit = g_out[f0:]
        g_fit[:] = (2.0 / n) * d
        if fit.triangles is not None and len(fit.triangles):
            tris = np.asarray(fit.triangles, dtype=np.int64)
            _, P = triangle_gradient_frames(fit.source.points, tris)
            F = _edge_matrices(mapped, tris) @ P
            F_target = _edge_matrices(target, tris) @ P
            diff = F - F_target
            values["fit_gradient"] = float(np.mean(np.sum(diff ** 2, axis=(1, 2))))
            dEd = (fit.gradient_weight * 2.0 / tris.shape[0]) * (
                diff @ np.swapaxes(P, -1, -2))  # (T, 3, 2)
            _add_edge_cotangents(g_fit, tris, dEd)

    if config.use_regularization:
        for r in layer_regularization(net):
            values["reg"] += float(r) / net.num_layers

    total = (w_el * values["elastic"] + w.handle * values["handle"]
             + w.reg * values["reg"]
             + values["fit_vertex"]
             + (fit.gradient_weight if fit else 0.0) * values["fit_gradient"])
    return (LossValues(total=total, elastic_weight=w_el, **values),
            trace, g_out, g_jac)


def evaluate(net: DeformationNet, config: LossConfig) -> LossValues:
    """Loss values under ``config``, without a gradient."""
    return _trace_terms(net, config)[0]


def evaluate_with_gradient(net: DeformationNet, config: LossConfig, *, _carry=None):
    """Loss values and the exact gradient of their weighted total.

    Returns ``(LossValues, ParamGradient)``.  The gradient is exact for the
    piecewise definition of the losses: triangle memberships and distortion
    multipliers are treated as locally constant, which matches the losses
    almost everywhere.  ``_carry`` is internal to the optimizer loop: a
    one-item list whose trace each call overwrites and replaces (see
    ``_trace_terms``), so that steps reuse its buffers.
    """
    loss, trace, g_out, g_jac = _trace_terms(net, config, _carry)
    reg_coef = (4.0 * config.weights.reg / net.num_layers
                if config.use_regularization else None)
    d_edges, d_boundary = _parameter_half(
        net, *_backward_sweep(net, trace, g_out, g_jac), reg_coef)
    return loss, ParamGradient(edge_weights=d_edges, boundary_increments=d_boundary)
