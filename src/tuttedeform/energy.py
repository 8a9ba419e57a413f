"""Pointwise pieces of the losses: strain energy, reweighting, handles.

The losses themselves, their values and their gradients, are assembled in
``grad``.  All integral-type losses are estimated as (weighted) means over
their sample sets rather than sums, so magnitudes do not scale with sample
counts.  The per-layer regularization is the one exception that needs no
sampling at all: a layer's Jacobian is constant per triangle, so its strain
integral over the square is the exact area-weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .deform import DeformationNet, PointSet
from .mesh2d import _det22, _edge_matrices, _inv22, _readonly

# Distortion-adaptive reweighting: samples whose strain energy exceeds the
# first threshold count double, beyond the second they count five-fold.
DISTORTION_THRESHOLDS = (0.02, 0.05)
DISTORTION_MULTIPLIERS = (2.0, 5.0)


def strain_energy_density(J):
    """Deviation of the metric from identity: ``||J^T J - I||_F^2``.

    Accepts a single (d, d) matrix or a batch (..., d, d); zero exactly on
    rotations, symmetric in orientation, dimension-agnostic (2D and 3D).
    """
    G = _metric_minus_identity(np.asarray(J, dtype=np.float64))
    return np.einsum("ab...,ab...->...", G, G)


def _quarter_strain_gradient(J):
    """``J (J^T J - I)``: a quarter of the derivative of
    :func:`strain_energy_density` with respect to ``J``, for a batch."""
    return np.einsum("...ia,ab...->...ib", J, _metric_minus_identity(J))


def _metric_minus_identity(J):
    """``J^T J - I`` of a (..., d, d) batch as (d, d, ...), from J as it lies."""
    G = np.einsum("...ka,...kb->ab...", J, J)
    G[np.diag_indices(J.shape[-1])] -= 1.0
    return G


def distortion_multipliers(energies,
                           thresholds=DISTORTION_THRESHOLDS,
                           multipliers=DISTORTION_MULTIPLIERS):
    """Per-sample weight multiplier from measured strain energy."""
    e = np.asarray(energies)
    m = np.ones_like(e)
    m[e > thresholds[0]] = multipliers[0]
    m[e > thresholds[1]] = multipliers[1]
    return m


@dataclass(frozen=True)
class HandleConstraint:
    """A region of points tied to a rigid motion ``p -> R p + t``."""

    points: PointSet
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if R.shape == (3, 3) and not np.all(np.isfinite(R)):
            raise ValueError("handle rotation must be finite")
        if R.shape != (3, 3) or np.abs(R @ R.T - np.eye(3)).max() > 1e-8:
            raise ValueError("handle rotation must be a 3x3 rotation matrix")
        if t.shape != (3,):
            raise ValueError("handle translation must be a 3-vector")
        if not np.all(np.isfinite(t)):
            raise ValueError("handle translation must be finite")
        object.__setattr__(self, "rotation", _readonly(R))
        object.__setattr__(self, "translation", _readonly(t))

    @property
    def is_static(self) -> bool:
        return (np.array_equal(self.rotation, np.eye(3))
                and np.array_equal(self.translation, np.zeros(3)))

    def targets(self):
        return self.points.points @ self.rotation.T + self.translation


def layer_regularization(net: DeformationNet):
    """Exact strain integral of each layer's 2D map over the square, an (L,)
    array computed from the net's stacked ``A``.

    Each map is affine per triangle, so its integral is the sum of rest
    triangle areas times per-triangle strain energy; no sampling error.
    """
    return np.sum(net.mesh.areas * strain_energy_density(net.system.A), axis=-1)


@dataclass(frozen=True)
class LossWeights:
    """Weights of the composite objective, with the elastic schedule.

    The elastic weight starts at ``elastic`` and drops by
    ``elastic_decrement`` every ``elastic_interval`` steps until it reaches
    ``elastic_floor``.
    """

    handle: float = 1.0
    reg: float = 0.005
    elastic: float = 0.004
    elastic_decrement: float = 0.001
    elastic_interval: int = 600
    elastic_floor: float = 0.001
    thresholds: tuple = DISTORTION_THRESHOLDS
    multipliers: tuple = DISTORTION_MULTIPLIERS

    def elastic_at(self, step: int) -> float:
        if self.elastic_interval <= 0:
            return self.elastic
        value = self.elastic - self.elastic_decrement * (step // self.elastic_interval)
        return max(value, self.elastic_floor)


def triangle_gradient_frames(vertices, triangles):
    """Per-triangle edge matrices and their pseudo-inverses for a 3D mesh.

    Returns ``(E, P)`` with ``E`` of shape (T, 3, 2) holding the two edge
    vectors and ``P = (E^T E)^-1 E^T`` of shape (T, 2, 3); degenerate rest
    triangles are rejected.
    """
    v = np.asarray(vertices, dtype=np.float64)
    t = np.asarray(triangles, dtype=np.int64)
    E = _edge_matrices(v, t)
    G = np.swapaxes(E, -1, -2) @ E  # (T, 2, 2) Gram matrices
    det = _det22(G)
    if np.any(det <= 0) or not np.all(np.isfinite(det)):
        raise ValueError("source mesh contains degenerate triangles")
    P = _inv22(G) @ np.swapaxes(E, -1, -2)
    return E, P
