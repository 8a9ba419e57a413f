import itertools

import numpy as np
import pytest

from tuttedeform import mesh2d
from tuttedeform.deform import realize
from tuttedeform.mesh2d import _BARY_STRICT, _inv22, build_mesh
from tuttedeform.prism import triplane_frames
from tuttedeform.tutte import TutteLayerParams


def signed_permutations():
    """The 24 proper rotations with entries in {-1, 0, 1}."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            R = np.zeros((3, 3))
            R[range(3), perm] = signs
            if np.linalg.det(R) > 0:
                out.append(R)
    return out


def random_params(rng, mesh, scale=1.0):
    e, m = mesh.edges.shape[0], mesh.boundary_loop.size
    return TutteLayerParams(rng.normal(0.0, scale, e), rng.normal(0.0, scale, m))


def random_net(rng, resolution, layers, scale=1.0, frames=None):
    mesh = build_mesh(resolution)
    params = [random_params(rng, mesh, scale) for _ in range(layers)]
    if frames is None:
        frames = triplane_frames(layers)
    return realize(mesh, params, frames)


def oracle_star_shaped_loop(P):
    """``mesh2d._star_shaped_loop`` on one (m, 2) polygon as it was before
    the locators were built over the layer axis.  Frozen as the oracle."""
    u = 0.5 * np.finfo(np.float64).eps
    ax, ay = (P - P.mean(axis=0)).T
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    p, q = ax * by, ay * bx
    if not np.all(p - q - 8.0 * u * (np.abs(p) + np.abs(q)) > 0.0):
        return False
    return bool(np.arctan2(p - q, ax * bx + ay * by).sum() < 3.0 * np.pi)


def oracle_image_tables(plmap):
    """One map's image-locator tables built on their own, ``(u0, B, A_inv,
    thr)``: the per-layer ``_ImageLocator.__init__`` and ``_thresholds`` as
    they were before the locators were built over the layer axis, with
    ``A_inv`` the ``_inv22(A)`` that ``inverse_jacobians`` took per block.
    Frozen as the oracle."""
    mesh = plmap.mesh
    u0 = np.ascontiguousarray(plmap.corners[:, 0])
    B = np.ascontiguousarray((mesh.edge_inverse @ _inv22(plmap.A)).reshape(-1, 4).T)
    A_inv = np.ascontiguousarray(np.moveaxis(_inv22(plmap.A), 0, -1))
    u = 0.5 * np.finfo(np.float64).eps
    (e1x, e2x), (e1y, e2y) = plmap.corners[:, 1:] - plmap.corners[:, :1]
    p, q = e1x * e2y, e1y * e2x
    cross_lo = p - q - 8.0 * u * (np.abs(p) + np.abs(q))
    if not np.all(cross_lo > 0.0) or not oracle_star_shaped_loop(
            plmap.vertex_positions[mesh.boundary_loop]):
        return u0, B, A_inv, None
    b00, b01, b10, b11 = B
    with np.errstate(over="ignore", invalid="ignore"):
        D = np.abs(e1x) + np.abs(e1y) + np.abs(e2x) + np.abs(e2y)
        beta = np.maximum(np.abs(b00) + np.abs(b01), np.abs(b10) + np.abs(b11))
        rho = np.maximum(
            np.abs(b00 * e1x + b01 * e1y - 1.0) + np.abs(b00 * e2x + b01 * e2y),
            np.abs(b10 * e1x + b11 * e1y) + np.abs(b10 * e2x + b11 * e2y - 1.0))
        rho += 16.0 * u * beta * D
        delta = 5.0 * rho + 16.0 * u * (beta * D + 1.0)
        K = 2.0 * np.max((_BARY_STRICT + delta) * D)
        thr = delta + 2.0 * K * D / cross_lo
    return u0, B, A_inv, (thr if np.all(np.isfinite(thr)) else None)


def oracle_interpolate(positions, triangles, tri, bary):
    """``mesh2d.combine`` on the corners of ``triangles`` taken from the
    (V, 2) ``positions``, for (N, 3) barycentrics ``bary``; returns an
    (N, 2) transposed view of two rows.  Frozen as the oracle."""
    return mesh2d.combine(mesh2d.corner_columns(positions, triangles), tri,
                          np.asarray(bary).T).T


def oracle_forward_step(frame, plmap, points, layer_index=0):
    """One layer on an (N, 3) batch, written as plain products with ``R``:
    the images plus each point's cell ``(tri, bary)``.  The step the row
    walk replaced, frozen as its oracle."""
    R = frame.rotation
    local = np.asarray(points, dtype=np.float64) @ R  # row-wise R^T p, a new array
    tri, bary = mesh2d.locate_points(plmap.mesh, local[:, :2], layer_index=layer_index)
    local[:, :2] = oracle_interpolate(plmap.vertex_positions, plmap.mesh.triangles,
                                      tri, bary)
    return local @ R.T, tri, bary


def oracle_inverse_step(frame, plmap, points, layer_index=0):
    """Preimages of an (N, 3) batch in one layer's image, plus each cell
    ``tri``, as :func:`oracle_forward_step` computes them.  Frozen."""
    R = frame.rotation
    local = np.asarray(points, dtype=np.float64) @ R
    tri, bary = mesh2d.locate_image_points(plmap, local[:, :2], layer_index=layer_index)
    local[:, :2] = oracle_interpolate(plmap.mesh.vertices, plmap.mesh.triangles,
                                      tri, bary)
    return local @ R.T, tri


def fibonacci_sphere(n, radius=0.5):
    k = np.arange(n)
    phi = np.arccos(1.0 - 2.0 * (k + 0.5) / n)
    theta = np.pi * (1.0 + 5.0 ** 0.5) * k
    return radius * np.stack([np.sin(phi) * np.cos(theta),
                              np.sin(phi) * np.sin(theta),
                              np.cos(phi)], axis=1)


def twist_about_z(points, degrees=30.0, half_height=0.5):
    """Height-proportional rotation about z, the standard fitting target."""
    ang = (degrees * np.pi / 180.0) * points[:, 2] / half_height
    c, s = np.cos(ang), np.sin(ang)
    out = points.copy()
    out[:, 0] = c * points[:, 0] - s * points[:, 1]
    out[:, 1] = s * points[:, 0] + c * points[:, 1]
    return out


@pytest.fixture(scope="session")
def mesh7():
    return build_mesh(7)


@pytest.fixture(scope="session")
def mesh11():
    return build_mesh(11)
