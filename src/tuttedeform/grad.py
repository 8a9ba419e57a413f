"""Exact gradients of the losses with respect to raw layer parameters.

The chain has three stages.  Stage 1 lives here:

1.  Point and Jacobian cotangents are pulled back through the layer stack to
    per-layer cotangents on deformed vertex positions (``dL/dU``).  A
    point's triangle memberships are piecewise constant in the parameters,
    so away from cell crossings the exact gradient treats them as fixed;
    barycentric weights recorded in the forward trace do the bookkeeping.

Stages 2 and 3 belong to the Tutte solve and live in
:func:`tutte.tutte_backward`, called once per layer:

2.  Each layer's ``dL/dU`` is converted into gradients of its edge weights
    and boundary positions by an adjoint solve against the layer's stored
    banded Cholesky factor (the matrix is symmetric, so one factor serves
    both directions).

3.  Boundary-position gradients chain through the ray-square intersection,
    the per-side angle normalization, and the bounded sigmoid back to the
    raw parameters; weight gradients chain through the sigmoid alone.

Parameters of different layers never mix outside stage 1: perturbing one
layer's weights changes other layers' losses only through the transported
points, which is exactly what the stage-1 sweep accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import prism
from .deform import DeformationNet, OrbitTrace, PointSet, forward_trace
from .energy import (HandleConstraint, LossWeights, distortion_multipliers,
                     layer_regularization, strain_energy_density,
                     triangle_gradient_frames)
from .errors import NumericalError
from .mesh2d import Mesh2D
from .tutte import tutte_backward


@dataclass(frozen=True)
class ParamGradient:
    """Gradient with the same per-layer structure as the raw parameters."""

    edge_weights: tuple      # tuple of (E,) arrays, one per layer
    boundary_increments: tuple  # tuple of (m,) arrays

    def flat(self):
        parts = []
        for e, b in zip(self.edge_weights, self.boundary_increments):
            parts.extend([e, b])
        return np.concatenate(parts)


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


class _Accumulator:
    """Per-layer cotangent stores shared by all loss terms."""

    def __init__(self, net: DeformationNet):
        V = net.mesh.num_vertices
        T = net.mesh.num_triangles
        self.dU = [np.zeros((V, 2)) for _ in range(net.num_layers)]
        self.dA = [np.zeros((T, 2, 2)) for _ in range(net.num_layers)]


def _scatter_rows(out, idx, vals):
    # out: (V, 2); idx: (N,); vals: (N, 2).  bincount is deterministic and
    # much faster than np.add.at for our sizes.
    out[:, 0] += np.bincount(idx, weights=vals[:, 0], minlength=out.shape[0])
    out[:, 1] += np.bincount(idx, weights=vals[:, 1], minlength=out.shape[0])


def _backward_points(net: DeformationNet, trace: OrbitTrace, acc: _Accumulator,
                     g_out, g_jac):
    """Pull point/Jacobian cotangents back through the layers.

    ``g_out`` is dL/d(final points), ``g_jac`` dL/d(composite Jacobian) or
    None.  Accumulates into ``acc`` in place.
    """
    n = trace.points.shape[0]
    g = g_out.copy()
    S = None
    if g_jac is not None:
        S = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()

    tris3 = net.mesh.triangles
    for l in range(net.num_layers - 1, -1, -1):
        layer = net.layers[l]
        R = layer.frame.rotation
        tri = trace.tris[l]
        bary = trace.barys[l]
        A = layer.plmap.A[tri]

        g_loc = g @ R
        # Direct contribution to this layer's deformed vertices.
        vals = bary[:, :, None] * g_loc[:, None, :2]  # (N, 3, 2)
        verts = tris3[tri]
        for k in range(3):
            _scatter_rows(acc.dU[l], verts[:, k], vals[:, k])
        # Continue the chain: local-out xy = q_xy @ A^T + delta.
        g_xy = np.einsum("ni,nij->nj", g_loc[:, :2], A)
        g = np.column_stack([g_xy, g_loc[:, 2]]) @ R.T

        if g_jac is not None:
            M = prism.cell_jacobians(layer, tri)
            P = trace.prefixes[l]
            dM = np.einsum("nji,njk,nlk->nil", S, g_jac, P)
            dA_loc = np.einsum("ji,njk,kl->nil", R, dM, R)[:, :2, :2]
            for a in range(2):
                for b in range(2):
                    acc.dA[l][:, a, b] += np.bincount(
                        tri, weights=dA_loc[:, a, b],
                        minlength=acc.dA[l].shape[0])
            S = S @ M


def _affine_to_vertices(mesh: Mesh2D, dA):
    """Convert per-triangle affine cotangents (T, 2, 2) to vertex ones."""
    dUe = dA @ np.swapaxes(mesh.edge_inverse, -1, -2)  # dL/d[u1-u0, u2-u0]
    out = np.zeros((mesh.num_vertices, 2))
    t = mesh.triangles
    _scatter_rows(out, t[:, 1], dUe[:, :, 0])
    _scatter_rows(out, t[:, 2], dUe[:, :, 1])
    _scatter_rows(out, t[:, 0], -(dUe[:, :, 0] + dUe[:, :, 1]))
    return out


def _finalize_layer(net, l, dU_total):
    """Raw-parameter gradients of layer ``l`` from its vertex cotangents."""
    if not np.all(np.isfinite(dU_total)):
        raise NumericalError(f"non-finite gradient in layer {l}")
    d_raw_edges, d_raw_boundary = tutte_backward(
        net.mesh, net.params[l], net.systems[l],
        net.layers[l].plmap.vertex_positions, dU_total)
    if not (np.all(np.isfinite(d_raw_edges)) and np.all(np.isfinite(d_raw_boundary))):
        raise NumericalError(f"non-finite gradient in layer {l}")
    return d_raw_edges, d_raw_boundary


def _trace_terms(net: DeformationNet, config: LossConfig):
    """Every loss value under ``config`` from one orbit trace.

    The batch holds the handle points, then the elastic samples, then the
    fit source; Jacobian prefixes are traced only when the elastic term is
    on.  Returns ``(values, trace, g_out, g_jac)``: the cotangents of the
    total with respect to the batch's images and Jacobians.  ``trace`` and
    ``g_out`` are None when no term has points, ``g_jac`` when the elastic
    term is off.
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
        trace = forward_trace(net, batch, need_jacobian=n_el > 0)
        g_out = np.zeros_like(batch)

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
        JtJ = np.swapaxes(J, -1, -2) @ J - np.eye(3)
        g_jac = np.zeros(trace.jac.shape)
        g_jac[:n_el] = 4.0 * coef[:, None, None] * (J @ JtJ)

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
            def edges_of(v):
                tv = v[tris]
                return np.stack([tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]], axis=-1)
            F = edges_of(mapped) @ P
            F_target = edges_of(target) @ P
            diff = F - F_target
            values["fit_gradient"] = float(np.mean(np.sum(diff ** 2, axis=(1, 2))))
            dEd = (fit.gradient_weight * 2.0 / tris.shape[0]) * (
                diff @ np.swapaxes(P, -1, -2))  # (T, 3, 2)
            for k, col in ((1, 0), (2, 1)):
                for c in range(3):
                    g_fit[:, c] += np.bincount(
                        tris[:, k], weights=dEd[:, c, col], minlength=n)
            for c in range(3):
                g_fit[:, c] -= np.bincount(
                    tris[:, 0], weights=dEd[:, c, 0] + dEd[:, c, 1], minlength=n)

    if config.use_regularization:
        for layer in net.layers:
            values["reg"] += layer_regularization(layer) / net.num_layers

    total = (w_el * values["elastic"] + w.handle * values["handle"]
             + w.reg * values["reg"]
             + values["fit_vertex"]
             + (fit.gradient_weight if fit else 0.0) * values["fit_gradient"])
    return (LossValues(total=total, elastic_weight=w_el, **values),
            trace, g_out, g_jac)


def evaluate(net: DeformationNet, config: LossConfig) -> LossValues:
    """Loss values under ``config``, without a gradient."""
    return _trace_terms(net, config)[0]


def evaluate_with_gradient(net: DeformationNet, config: LossConfig):
    """Loss values and the exact gradient of their weighted total.

    Returns ``(LossValues, ParamGradient)``.  The gradient is exact for the
    piecewise definition of the losses: triangle memberships and distortion
    multipliers are treated as locally constant, which matches the losses
    almost everywhere.
    """
    loss, trace, g_out, g_jac = _trace_terms(net, config)
    acc = _Accumulator(net)
    if trace is not None:
        _backward_points(net, trace, acc, g_out, g_jac)

    if config.use_regularization:
        w = config.weights
        L = net.num_layers
        for l, layer in enumerate(net.layers):
            A = layer.plmap.A
            G = A @ (np.swapaxes(A, -1, -2) @ A - np.eye(2))
            acc.dA[l] += (4.0 * w.reg / L) * net.mesh.areas[:, None, None] * G

    edge_grads, boundary_grads = [], []
    for l in range(net.num_layers):
        dU_total = acc.dU[l] + _affine_to_vertices(net.mesh, acc.dA[l])
        de, db = _finalize_layer(net, l, dU_total)
        edge_grads.append(de)
        boundary_grads.append(db)
    grad = ParamGradient(edge_weights=tuple(edge_grads),
                         boundary_increments=tuple(boundary_grads))
    return loss, grad
