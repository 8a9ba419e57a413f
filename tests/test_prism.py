import re
import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from tuttedeform.deform import PointSet
from tuttedeform.energy import HandleConstraint
from tuttedeform.errors import NotInImageError
from tuttedeform.mesh2d import build_mesh
from tuttedeform.prism import (Frame, apply_lifted, frame_from_axis_angle, invert_points,
                               jacobians, map_points, triplane_frames)
from tuttedeform.tutte import identity_params, solve_tutte

from conftest import (oracle_forward_step, oracle_inverse_step, random_params,
                      signed_permutations)


def is_permutation(R):
    return set(R.flat) <= {-1.0, 0.0, 1.0}


PERMUTATIONS = signed_permutations()
# A quarter turn about z is a permutation only up to cos(pi/2) = 6e-17, so
# it must take the matmul path; the others are far from any permutation.
NON_PERMUTATIONS = [frame_from_axis_angle([0, 0, 1], np.pi / 2).rotation,
                    frame_from_axis_angle([1, 2, 3], 0.9).rotation,
                    frame_from_axis_angle([0.3, -1.0, 2.0], -1.2).rotation]
ALL_FRAMES = PERMUTATIONS + NON_PERMUTATIONS


def make_layer(rng=None, resolution=7, frame=None, scale=1.5):
    """A layer's frame and map: ``(frame, plmap)``."""
    mesh = build_mesh(resolution)
    params = identity_params(mesh) if rng is None else random_params(rng, mesh, scale)
    plmap = solve_tutte(mesh, params)
    if frame is None:
        frame = Frame(np.eye(3))
    return frame, plmap


def test_frame_rejects_non_rotation():
    with pytest.raises(ValueError):
        Frame(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(ValueError):
        Frame(2 * np.eye(3))


def test_axis_angle_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        axis = rng.normal(size=3)
        angle = rng.uniform(-np.pi, np.pi)
        ours = frame_from_axis_angle(axis, angle).rotation
        ref = Rotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_matrix()
        assert np.abs(ours - ref).max() < 1e-12


def test_triplane_cycle():
    frames = triplane_frames(7)
    for i, f in enumerate(frames):
        # local z axis cycles through the world axes x, y, z
        expected = np.eye(3)[i % 3]
        assert np.allclose(f.axis, expected)
        assert np.allclose(f.rotation @ f.rotation.T, np.eye(3), atol=1e-14)
        assert np.isclose(np.linalg.det(f.rotation), 1.0)
    assert np.allclose(frames[2].rotation, np.eye(3))


def test_signed_permutations_are_the_24_proper_ones():
    assert len(PERMUTATIONS) == 24
    assert len({R.tobytes() for R in PERMUTATIONS}) == 24
    assert all(triplane.rotation.tobytes() in {R.tobytes() for R in PERMUTATIONS}
               for triplane in triplane_frames(3))


def test_row_picks_are_kept_for_unsigned_permutations_only():
    # The identity and the two 3-cycles pick rows.  The 21 signed
    # permutations multiply, as do the quarter turn and a 3-cycle by
    # axis-angle, each within 3e-16 of a permutation.
    cycle = frame_from_axis_angle([1, 1, 1], 2 * np.pi / 3).rotation
    picked = [R for R in ALL_FRAMES + [cycle] if Frame(R)._rows is not None]
    assert len(picked) == 3 and all(np.all(R >= 0) for R in picked)
    for R in picked:
        X = np.arange(3.0)
        assert np.array_equal(X[list(Frame(R)._rows)], R.T @ X)


def test_apply_lifted_equals_conjugated_lift():
    # R lift(A) R^T X on row stacks X (3, k, N), with lift(A) the 3x3 that
    # holds A and a 1 on local z.  Exact on the identity through permutation
    # frames; elsewhere the helper rounds in another order than the 3x3
    # products.
    rng = np.random.default_rng(8)
    A = rng.normal(size=(40, 2, 2))
    lifted = np.zeros((40, 3, 3))
    lifted[:, :2, :2] = A
    lifted[:, 2, 2] = 1.0
    for R in ALL_FRAMES:
        M = R @ lifted @ R.T
        for k in (1, 3):
            X = rng.normal(size=(3, k, 40))
            want = np.einsum("nij,jkn->ikn", M, X)
            got = apply_lifted(Frame(R), A, X)
            assert got.shape == X.shape
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        got = apply_lifted(Frame(R), A, np.eye(3)[:, :, None])
        want = M.transpose(1, 2, 0)
        if is_permutation(R):
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_plane_rows_are_the_in_plane_rows_in_the_frame():
    # Rows 0 and 1 of R^T X for row stacks X (3, ...): views of X's rows for
    # unsigned permutations, equal to the product for all permutations.
    rng = np.random.default_rng(12)
    for R in ALL_FRAMES:
        frame = Frame(R)
        for shape in ((3, 50), (3, 3, 50)):
            X = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
            got = np.array(frame.plane_rows(X))
            want = np.einsum("ij,i...->j...", R, X)[:2]
            if is_permutation(R):
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-15 * np.abs(X).max()
        unsigned = is_permutation(R) and np.all(R >= 0)
        assert np.shares_memory(frame.plane_rows(X)[0], X) == unsigned


def test_identity_layer_is_identity():
    pts = np.random.default_rng(1).uniform(-1, 1, size=(200, 3))
    for R in ALL_FRAMES:
        frame, plmap = make_layer(frame=Frame(R))
        # half the box keeps rotated frames' local coordinates in the square
        p = pts if is_permutation(R) else 0.5 * pts
        assert np.abs(map_points(frame, p, plmap) - p).max() < 1e-9


def test_frame_axis_coordinate_preserved():
    # the coordinate along the frame's local z never changes
    rng = np.random.default_rng(2)
    for R in ALL_FRAMES + [frame_from_axis_angle([1.0, 1.0, 0.0], 0.7).rotation]:
        frame, plmap = make_layer(rng, frame=Frame(R))
        pts = rng.uniform(-0.6, 0.6, size=(100, 3))
        out = map_points(frame, pts, plmap)
        assert np.abs(out @ frame.axis - pts @ frame.axis).max() < 1e-12


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for R in [PERMUTATIONS[5], PERMUTATIONS[17]] + NON_PERMUTATIONS:
        frame, plmap = make_layer(rng, frame=Frame(R))
        pts = rng.uniform(-0.5, 0.5, size=(40, 3))
        J = jacobians(frame, pts, plmap)
        h = 1e-7
        for k in range(len(pts)):
            fd = np.empty((3, 3))
            for c in range(3):
                e = np.zeros(3)
                e[c] = h
                fd[:, c] = (map_points(frame, (pts[k] + e)[None], plmap)[0]
                            - map_points(frame, (pts[k] - e)[None], plmap)[0]) / (2 * h)
            rel = np.abs(J[k] - fd).max() / max(1.0, np.abs(fd).max())
            assert rel < 5e-7


def test_invert_roundtrip():
    rng = np.random.default_rng(4)
    for R in [frame_from_axis_angle([0, 1, 0], 1.1).rotation] + ALL_FRAMES:
        frame, plmap = make_layer(rng, frame=Frame(R), scale=2.0)
        # a rotated frame maps the box to a rotated box; sample inside the
        # inscribed ball so local coordinates stay in [-1, 1]^2
        pts = rng.uniform(-1, 1, size=(500, 3))
        pts = 0.9 * pts / np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True))
        out = map_points(frame, pts, plmap)
        back = invert_points(frame, out, plmap)
        assert np.abs(back - pts).max() < 1e-10


def test_out_of_image_error_carries_layer_index():
    rng = np.random.default_rng(5)
    frame, plmap = make_layer(rng)
    with pytest.raises(NotInImageError) as ei:
        invert_points(frame, np.array([[3.0, 0.0, 0.0]]), plmap, 4)
    assert ei.value.layer_index == 4


def test_box_preserved():
    # prism layers are bijections of the box; outputs stay inside it
    rng = np.random.default_rng(6)
    for R in PERMUTATIONS:
        frame, plmap = make_layer(rng, frame=Frame(R), scale=2.5)
        pts = rng.uniform(-1, 1, size=(400, 3))
        out = map_points(frame, pts, plmap)
        assert np.abs(out).max() <= 1.0 + 1e-12


def test_per_layer_forms_match_the_step_oracle():
    # map_points, jacobians and invert_points against the frozen (N, 3)
    # steps: the same bits on permutation frames (equal as numbers: a
    # product with R may give -0.0 where a row pick keeps +0.0), and on
    # tilted frames the same cells within rounding.
    rng = np.random.default_rng(7)
    for R in ALL_FRAMES:
        frame, plmap = make_layer(rng, frame=Frame(R), scale=2.0)
        pts = rng.uniform(-1, 1, size=(500, 3))
        if not is_permutation(R):
            pts = 0.6 * pts / np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True))
        want, tri, _ = oracle_forward_step(frame, plmap, pts, 3)
        want_J = apply_lifted(frame, plmap.A[tri], np.eye(3)[:, :, None]).transpose(2, 0, 1)
        want_back = oracle_inverse_step(frame, plmap, want, 3)[0]
        got = (map_points(frame, pts, plmap, 3), jacobians(frame, pts, plmap, 3),
               invert_points(frame, want, plmap, 3))
        for g, w in zip(got, (want, want_J, want_back)):
            assert g.shape == w.shape
            if is_permutation(R):
                assert np.array_equal(g, w)
            else:
                assert np.abs(g - w).max() <= 4e-15 * np.abs(w).max()



def test_per_layer_forms_reject_malformed_batches():
    frame, plmap = make_layer()
    for fn in (map_points, jacobians, invert_points):
        for shape in ((5, 4), (5, 2), (3,)):
            with pytest.raises(ValueError, match=re.escape(f"shape (N, 3), got {shape}")):
                fn(frame, np.zeros(shape), plmap)

def test_non_finite_rotations_and_motions_are_rejected_by_name():
    # Each is a ValueError naming the field, raised before any arithmetic
    # on it could warn.
    nan = np.full((3, 3), np.nan)
    points = PointSet(np.zeros((2, 3)))
    cases = [
        (lambda: Frame(np.diag([np.nan, 1.0, 1.0])), "frame rotation must be finite"),
        (lambda: Frame(np.full((3, 3), np.inf)), "frame rotation must be finite"),
        (lambda: frame_from_axis_angle([0, 0, 1], np.inf), "rotation angle must be finite"),
        (lambda: frame_from_axis_angle([0, 0, 1], np.nan), "rotation angle must be finite"),
        (lambda: HandleConstraint(points, rotation=nan), "handle rotation must be finite"),
        (lambda: HandleConstraint(points, translation=[0.0, np.inf, 0.0]),
         "handle translation must be finite"),
        (lambda: HandleConstraint(points, translation=[np.nan] * 3),
         "handle translation must be finite"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make, message in cases:
            with pytest.raises(ValueError, match=message):
                make()
