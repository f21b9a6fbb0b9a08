import numpy as np
import pytest

from typing import NamedTuple, Optional

from covox.geometry import (
    CameraIntrinsics,
    InvalidPoseError,
    Pose,
    compose,
    invert,
    planar_parts,
    project_points,
    relative,
    transform_points,
)

from conftest import random_pose


INTR = CameraIntrinsics(fx=100.0, fy=80.0, u0=32.0, v0=24.0, width=64, height=48)


class PixelDepth(NamedTuple):
    """Integer pixel plus the metric depth observed there."""

    u: int
    v: int
    d: float


def _round_half_away(x):
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def project(intr: CameraIntrinsics, cam_pt: np.ndarray) -> Optional[PixelDepth]:
    """Scalar oracle for `project_points`: one camera-frame point to an integer
    pixel, rounded half away from zero; None behind the camera or off the image."""
    x, y, z = np.asarray(cam_pt, dtype=np.float64)
    if z <= 0.0:
        return None
    u = _round_half_away(intr.fx * x / z + intr.u0)
    v = _round_half_away(intr.fy * y / z + intr.v0)
    if not (0 <= u < intr.width and 0 <= v < intr.height):
        return None
    return PixelDepth(int(u), int(v), float(z))


def unproject(intr: CameraIntrinsics, px: PixelDepth) -> np.ndarray:
    """Invert the projection for a pixel-center ray at the given depth."""
    x = (px.u - intr.u0) * px.d / intr.fx
    y = (px.v - intr.v0) * px.d / intr.fy
    return np.array([x, y, float(px.d)])


class TestPose:
    def test_identity_compose(self):
        eye = Pose(np.eye(4))
        assert np.array_equal(compose(eye, eye).matrix, np.eye(4))

    def test_inverse_law(self, rng):
        t = random_pose(rng)
        assert np.max(np.abs(compose(t, invert(t)).matrix - np.eye(4))) < 1e-9

    def test_commuting_translations(self):
        a = Pose.from_translation(1, 0, 0)
        b = Pose.from_translation(0, 2, 0)
        assert np.allclose(compose(a, b).matrix, Pose.from_translation(1, 2, 0).matrix)

    def test_compose_associative(self, rng):
        for _ in range(50):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = compose(compose(a, b), c).matrix
            right = compose(a, compose(b, c)).matrix
            assert np.max(np.abs(left - right)) < 1e-12

    def test_rejects_bad_bottom_row(self):
        m = np.eye(4)
        m[3, 0] = 1e-12
        with pytest.raises(InvalidPoseError):
            Pose(m)

    def test_rejects_non_orthonormal(self):
        m = np.eye(4)
        m[0, 0] = 1.001
        with pytest.raises(InvalidPoseError):
            Pose(m)

    def test_planar_parts(self):
        pose = Pose.from_planar(3.0, -2.0, 0.7)
        x, y, yaw = planar_parts(pose)
        assert (x, y) == (3.0, -2.0)
        assert abs(yaw - 0.7) < 1e-12


class TestTransformPoints:
    def test_identity(self):
        pts = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(transform_points(Pose(np.eye(4)), pts), pts)

    def test_pure_translation(self):
        pose = Pose.from_translation(0, 0, 5)
        assert np.allclose(transform_points(pose, np.zeros(3)), [0, 0, 5])

    def test_yaw_quarter_turn(self):
        pose = Pose.from_planar(0, 0, np.pi / 2)
        out = transform_points(pose, np.array([1.0, 0.0, 0.0]))
        assert np.max(np.abs(out - np.array([0.0, 1.0, 0.0]))) < 1e-12

    def test_invert_roundtrip(self, rng):
        pose = random_pose(rng)
        pts = rng.uniform(-5, 5, (40, 3))
        back = transform_points(invert(pose), transform_points(pose, pts))
        assert np.max(np.abs(back - pts)) < 1e-9


class TestProjection:
    def test_principal_ray(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 4, 4)
        px = project(intr, np.array([0.0, 0.0, 2.0]))
        assert px == PixelDepth(0, 0, 2.0)

    def test_behind_camera_absent(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 4, 4)
        assert project(intr, np.array([0.0, 0.0, -1.0])) is None

    def test_boundary_rounds_out(self):
        # u = round(100 * 1/2 + 50) = 100, one past the last column.
        intr = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)
        assert project(intr, np.array([1.0, 0.0, 2.0])) is None

    def test_unproject_principal(self):
        out = unproject(INTR, PixelDepth(int(INTR.u0), int(INTR.v0), 3.0))
        assert np.allclose(out, [0.0, 0.0, 3.0])

    def test_unproject_formula(self):
        intr = CameraIntrinsics(2.0, 2.0, 0.0, 0.0, 8, 8)
        out = unproject(intr, PixelDepth(2, 0, 4.0))
        assert np.allclose(out, [4.0, 0.0, 4.0])

    def test_roundtrip_thousand_points(self, rng):
        for _ in range(1000):
            u = int(rng.integers(0, INTR.width))
            v = int(rng.integers(0, INTR.height))
            d = float(rng.uniform(0.5, 50.0))
            px = PixelDepth(u, v, d)
            back = project(INTR, unproject(INTR, px))
            assert back is not None
            assert (back.u, back.v) == (u, v)
            assert abs(back.d - d) <= 1e-9

    def test_project_points_matches_scalar(self, rng):
        pts = rng.uniform(-10, 10, (500, 3))
        pix, depth, idx = project_points(INTR, pts)
        singles = {}
        for i, p in enumerate(pts):
            px = project(INTR, p)
            if px is not None:
                singles[i] = px
        assert set(idx.tolist()) == set(singles)
        for (u, v), d, i in zip(pix, depth, idx):
            assert singles[i] == (u, v, d)

    def test_depth_frame_invariance(self, rng):
        cam_from_agent = random_pose(rng, span=2.0)
        agent_from_world = random_pose(rng, span=2.0)
        cam_from_world = compose(cam_from_agent, agent_from_world)
        pts = rng.uniform(-3, 3, (50, 3))
        direct = transform_points(cam_from_world, pts)
        chained = transform_points(cam_from_agent, transform_points(agent_from_world, pts))
        for p_direct, p_chained in zip(direct, chained):
            a = project(INTR, p_direct)
            b = project(INTR, p_chained)
            if a is None or b is None:
                # Rounding at the frustum boundary may differ by a ULP.
                continue
            assert (a.u, a.v) == (b.u, b.v)
            assert abs(a.d - b.d) < 1e-9


def test_relative_pose():
    a = Pose.from_planar(1.0, 2.0, 0.3)
    b = Pose.from_planar(-4.0, 0.5, 1.1)
    rel = relative(a, b)
    pts = np.array([[0.5, -0.25, 0.0]])
    via_world = transform_points(invert(a), transform_points(b, pts))
    assert np.max(np.abs(transform_points(rel, pts) - via_world)) < 1e-12
