import itertools

import numpy as np
import pytest

from tuttedeform.deform import realize
from tuttedeform.mesh2d import build_mesh
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
