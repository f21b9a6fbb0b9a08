"""Rigid-transform algebra and the pinhole camera projection stack.

Conventions used throughout the package:

* World / agent frames are right-handed: x forward, y left, z up.
* Camera frames follow the computer-vision convention: z forward,
  x right (image u), y down (image v).
* Poses are full 4x4 homogeneous matrices so the same type serves agents,
  sensor mounts and relative transforms; planar code extracts (x, y, yaw).
* Pixel coordinates are integers; the continuous projection is rounded
  half-away-from-zero, so pixel (u, v) corresponds to the continuous image
  point (u, v) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_POSE_TOL = 1e-9
_BOTTOM_ROW = [0.0, 0.0, 0.0, 1.0]


class InvalidPoseError(ValueError):
    """Raised when a matrix is not a proper rigid transform."""


@dataclass(frozen=True)
class Pose:
    """4x4 homogeneous rigid transform: rotation block R, translation t."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise InvalidPoseError(f"pose matrix must be 4x4, got {m.shape}")
        # The checks run on Python floats: numpy's per-call overhead on a 4x4
        # matrix costs several times the arithmetic, and every compose,
        # invert and relative builds a Pose.
        rows = m.tolist()
        if not all(map(math.isfinite, rows[0] + rows[1] + rows[2] + rows[3])):
            raise InvalidPoseError("pose matrix has non-finite entries")
        if rows[3] != _BOTTOM_ROW:
            raise InvalidPoseError("bottom row must be exactly (0, 0, 0, 1)")
        (a, b, c, _), (d, e, f, _), (g, h, i, _) = rows[:3]
        # |R^T R - I|, entry by entry; the Gram matrix is symmetric.
        gram_error = max(
            abs(a * a + d * d + g * g - 1.0),
            abs(b * b + e * e + h * h - 1.0),
            abs(c * c + f * f + i * i - 1.0),
            abs(a * b + d * e + g * h),
            abs(a * c + d * f + g * i),
            abs(b * c + e * f + h * i),
        )
        if gram_error > _POSE_TOL:
            raise InvalidPoseError("rotation block is not orthonormal")
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if abs(det - 1.0) > _POSE_TOL:
            raise InvalidPoseError("rotation block must have determinant +1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:3, 3]

    @staticmethod
    def from_rt(rotation: np.ndarray, translation) -> "Pose":
        m = np.eye(4)
        m[:3, :3] = rotation
        m[:3, 3] = translation
        return Pose(m)

    @staticmethod
    def from_translation(x: float, y: float, z: float = 0.0) -> "Pose":
        return Pose.from_rt(np.eye(3), (x, y, z))

    @staticmethod
    def from_planar(x: float, y: float, yaw: float) -> "Pose":
        """Pose rotated by `yaw` about +z and translated to (x, y, 0)."""
        c, s = np.cos(yaw), np.sin(yaw)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return Pose.from_rt(r, (x, y, 0.0))


def compose(a: Pose, b: Pose) -> Pose:
    """Chain two transforms: the result maps b-input coordinates through b then a."""
    return Pose(a.matrix @ b.matrix)


def invert(pose: Pose) -> Pose:
    # Rigid inverse: transpose the rotation, counter-rotate the translation.
    r = pose.rotation.T
    return Pose.from_rt(r, -r @ pose.translation)


def planar_parts(pose: Pose) -> tuple[float, float, float]:
    """Extract (x, y, yaw) of the pose, ignoring z / roll / pitch."""
    m = pose.matrix
    return float(m[0, 3]), float(m[1, 3]), float(np.arctan2(m[1, 0], m[0, 0]))


def transform_points(pose: Pose, pts: np.ndarray) -> np.ndarray:
    """Apply R.p + t to one (3,) point or an (N, 3) array of points."""
    return np.asarray(pts, dtype=np.float64) @ pose.rotation.T + pose.translation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters: focal lengths, principal point, image size (pixels)."""

    fx: float
    fy: float
    u0: float
    v0: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (math.isfinite(self.u0) and math.isfinite(self.v0)):
            raise ValueError("principal point must be finite")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be at least 1x1")


def _round_half_away(x):
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def project_points(intr: CameraIntrinsics, cam_pts: np.ndarray):
    """Vectorised projection of an (N, 3) camera-frame cloud.

    Returns (pixels (M, 2) int array of kept (u, v), depths (M,), kept index
    into the input). Points behind the camera or off the image are dropped.
    """
    pts = np.asarray(cam_pts, dtype=np.float64).reshape(-1, 3)
    z = pts[:, 2]
    front = z > 0.0
    zf = np.where(front, z, 1.0)
    u = _round_half_away(intr.fx * pts[:, 0] / zf + intr.u0)
    v = _round_half_away(intr.fy * pts[:, 1] / zf + intr.v0)
    keep = front & (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
    idx = np.flatnonzero(keep)
    pix = np.stack([u[idx], v[idx]], axis=1).astype(np.int64)
    return pix, z[idx], idx


def pixel_rays(intr: CameraIntrinsics) -> np.ndarray:
    """Unit-depth camera-frame directions through every pixel center.

    Shape (H, W, 3) with z = 1, so a scalar t along the ray equals pinhole
    depth at that pixel.
    """
    u = np.arange(intr.width, dtype=np.float64)
    v = np.arange(intr.height, dtype=np.float64)
    xn = (u - intr.u0) / intr.fx
    yn = (v - intr.v0) / intr.fy
    dirs = np.empty((intr.height, intr.width, 3))
    dirs[:, :, 0] = xn[None, :]
    dirs[:, :, 1] = yn[:, None]
    dirs[:, :, 2] = 1.0
    return dirs
