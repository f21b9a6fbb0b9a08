"""Seeded synthetic worlds and ray-cast sensor simulators.

A scene is a flat ground plane (z = 0) with oriented box objects, opaque
vertical walls acting as occluders, and agents carrying a spinning LiDAR
and/or a forward camera mounted 1.5 m above the agent origin.  Everything
is deterministic given the scenario seed: object sampling, agent placement
and per-agent sensor noise each consume their own counter-based stream.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import _POSE_TOL, CameraIntrinsics, Pose, compose, pixel_rays, planar_parts
from .robust import perturb_pose

_EPS = 1e-12
# (box, ray) pairs per block of the box slab test (`_ray_box_t`).
_SLAB_PAIRS = 2048

# Hit classes reported by the ray caster (and one-hot encoded per pixel).
HIT_NONE = 0
HIT_GROUND = 1
HIT_WALL = 2
HIT_OBJECT = 3
_N_HIT_CLASSES = 4

# Sub-stream tags hung off the scenario seed.
_STREAM_OBJECTS = 0
_STREAM_AGENTS = 1
_STREAM_POSE_NOISE = 2
_STREAM_LIDAR = 3

AGENT_RADIUS = 1.5  # footprint clearance used when placing agents
_PLACEMENT_MARGIN = 0.2

DEFAULT_LIDAR_MOUNT = Pose.from_translation(0.0, 0.0, 1.5)
# Camera at the same perch, z axis looking along the agent's +x,
# image x to the agent's right (-y), image y down (-z).
DEFAULT_CAMERA_MOUNT = Pose.from_rt(
    np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
    (0.0, 0.0, 1.5),
)


class GenerationFailure(RuntimeError):
    """Rejection sampling could not place the requested scene content."""


class SensorAbsent(RuntimeError):
    """A simulator was invoked for a sensor the agent does not carry."""


@dataclass(frozen=True)
class Wall:
    """Opaque vertical rectangle from p1 to p2, spanning z0 .. z0 + height."""

    p1: tuple[float, float]
    p2: tuple[float, float]
    height: float
    z0: float = 0.0

    def __post_init__(self):
        if not self.height > 0:
            raise ValueError("wall height must be positive")
        if not all(map(math.isfinite, (*self.p1, *self.p2, self.z0))):
            raise ValueError("wall end points and z0 must be finite")


@dataclass(frozen=True)
class BoxObject:
    """Ground-standing oriented box; extent is (length, width, height)."""

    center: tuple[float, float]
    yaw: float
    extent: tuple[float, float, float]

    def __post_init__(self):
        if not all(e > 0 for e in self.extent):
            raise ValueError("box extent components must be positive")
        if not all(map(math.isfinite, (*self.center, self.yaw))):
            raise ValueError("box center and yaw must be finite")


@dataclass(frozen=True)
class LidarSpec:
    n_azimuth: int = 360
    elevation_angles: tuple[float, ...] = tuple(np.deg2rad(np.linspace(-12.0, 4.0, 12)))
    max_range: float = 45.0
    range_noise_sigma: float = 0.0

    def __post_init__(self):
        if self.n_azimuth < 4:
            raise ValueError("need at least 4 azimuth steps")
        if not self.max_range > 0:
            raise ValueError("max_range must be positive")
        if not self.range_noise_sigma >= 0:
            raise ValueError("range_noise_sigma must be non-negative")
        object.__setattr__(self, "elevation_angles", tuple(self.elevation_angles))


@dataclass
class AgentState:
    id: int
    true_pose: Pose
    believed_pose: Pose
    has_lidar: bool = True
    has_camera: bool = True

    def __post_init__(self):
        if not (self.has_lidar or self.has_camera):
            raise ValueError("an agent must keep at least one sensor")
        # The sensors' ray fans are turned by the yaw alone (_AzimuthFan).
        r = self.true_pose.rotation
        tilt = max(abs(r[0, 2]), abs(r[1, 2]), abs(r[2, 0]), abs(r[2, 1]), abs(r[2, 2] - 1.0))
        if tilt > _POSE_TOL:
            raise ValueError("true_pose must be a rotation about +z and a translation")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    n_agents: int = 2
    area: tuple[float, float, float, float] = (-20.0, 20.0, -20.0, 20.0)
    n_objects: int = 6
    occluders: tuple[Wall, ...] = ()
    lidar: LidarSpec = field(default_factory=LidarSpec)
    camera: CameraIntrinsics = field(
        default_factory=lambda: CameraIntrinsics(70.0, 70.0, 48.0, 32.0, 96, 64)
    )
    comm_range: float = 40.0
    dropout: Mapping[int, tuple[str, ...]] = field(default_factory=dict)
    pose_noise_sigma_xy: float = 0.0
    pose_noise_sigma_yaw: float = 0.0

    def __post_init__(self):
        x0, x1, y0, y1 = self.area
        if not (x1 > x0 and y1 > y0):
            raise ValueError("area must be non-degenerate")
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if self.n_objects < 0:
            raise ValueError("n_objects cannot be negative")
        if not self.comm_range > 0:
            raise ValueError("comm_range must be positive")
        if not (self.pose_noise_sigma_xy >= 0 and self.pose_noise_sigma_yaw >= 0):
            raise ValueError("pose noise sigmas must be non-negative")
        object.__setattr__(self, "occluders", tuple(self.occluders))
        object.__setattr__(
            self, "dropout", {int(k): tuple(v) for k, v in dict(self.dropout).items()}
        )


def _sample_free_spot(rng, area, radius, taken, n_attempts):
    """Uniform rejection sampling of a disc that clears every taken disc."""
    x0, x1, y0, y1 = area
    for attempt in range(n_attempts):
        x = rng.uniform(x0 + radius, x1 - radius)
        y = rng.uniform(y0 + radius, y1 - radius)
        ok = all(
            np.hypot(x - tx, y - ty) > radius + tr + _PLACEMENT_MARGIN
            for tx, ty, tr in taken
        )
        if ok:
            return x, y, attempt + 1
    raise GenerationFailure(
        f"could not place content after {n_attempts} rejection attempts"
    )


def generate_scene(cfg: ScenarioConfig) -> tuple[list[AgentState], list[BoxObject]]:
    """Sample a deterministic scene: non-overlapping objects, agents on free
    ground, believed poses perturbed per the configured noise sigmas."""
    budget = 10_000
    obj_rng = np.random.default_rng((cfg.seed, _STREAM_OBJECTS))
    objects: list[BoxObject] = []
    taken: list[tuple[float, float, float]] = []
    for _ in range(cfg.n_objects):
        length = obj_rng.uniform(3.6, 5.0)
        width = obj_rng.uniform(1.7, 2.2)
        height = obj_rng.uniform(1.4, 1.9)
        yaw = obj_rng.uniform(-np.pi, np.pi)
        radius = float(np.hypot(length, width) / 2.0)
        x, y, used = _sample_free_spot(obj_rng, cfg.area, radius, taken, budget)
        budget -= used - 1
        objects.append(BoxObject((x, y), yaw, (length, width, height)))
        taken.append((x, y, radius))

    agent_rng = np.random.default_rng((cfg.seed, _STREAM_AGENTS))
    agents: list[AgentState] = []
    for aid in range(cfg.n_agents):
        x, y, used = _sample_free_spot(agent_rng, cfg.area, AGENT_RADIUS, taken, budget)
        budget -= used - 1
        yaw = agent_rng.uniform(-np.pi, np.pi)
        true_pose = Pose.from_planar(x, y, yaw)
        believed = perturb_pose(
            true_pose,
            cfg.pose_noise_sigma_xy,
            cfg.pose_noise_sigma_yaw,
            np.random.default_rng((cfg.seed, _STREAM_POSE_NOISE, aid)),
        )
        dropped = cfg.dropout.get(aid, ())
        agents.append(
            AgentState(
                aid,
                true_pose,
                believed,
                has_lidar="lidar" not in dropped,
                has_camera="camera" not in dropped,
            )
        )
        taken.append((x, y, AGENT_RADIUS))
    return agents, objects


def lidar_rng(seed: int, agent_id: int) -> np.random.Generator:
    """Per-agent LiDAR noise stream; parallel simulation stays reproducible."""
    return np.random.default_rng((seed, _STREAM_LIDAR, agent_id))


class _AzimuthFan:
    """A ray bundle sorted by azimuth in its own frame, to find the rays
    that can reach a box or a wall without testing the others.

    A ray meets a ground-standing box or a vertical wall only if its
    horizontal direction meets the circle circumscribing the box's footprint
    or the wall's segment.  The box slab test treats a direction component
    below _EPS as zero, which turns a ray by at most _EPS / (horizontal
    length) radians, so rays shorter than _STEEP horizontally are always
    candidates and every angular window is widened by _CULL_ANGLE >
    _EPS / _STEEP; _CULL_PAD absorbs rounding in position.

    A sensor's fan is built once over its bundle in the agent frame
    (`_lidar_bundle`, `_camera_bundle`) and turned to each agent's yaw
    (`turned`): in the world, a ray of an agent rotated by `yaw` about +z
    has its agent-frame azimuth plus `yaw`, to within rounding far below
    _CULL_ANGLE.  So the windows still hold every ray that can hit.
    """

    _STEEP = 1e-6
    _CULL_ANGLE = 1e-5
    _CULL_PAD = 1e-6

    def __init__(self, dirs: np.ndarray):
        self.n = dirs.shape[0]
        self.yaw = 0.0
        flat = np.hypot(dirs[:, 0], dirs[:, 1]) >= self._STEEP
        idx = np.flatnonzero(flat)
        az = np.arctan2(dirs[idx, 1], dirs[idx, 0])
        order = np.argsort(az, kind="stable")
        self.az = az[order]
        self.rays = idx[order]
        self.steep = np.flatnonzero(~flat)
        for arr in (self.az, self.rays, self.steep):
            arr.setflags(write=False)

    def turned(self, yaw: float) -> "_AzimuthFan":
        """The same bundle on a sensor turned by `yaw` about +z; the sorted
        arrays are shared, not copied."""
        fan = copy.copy(self)
        fan.yaw = yaw
        return fan

    def toward(self, origin, center, radius: float) -> np.ndarray:
        """Indices of every ray from `origin` that can meet the planar circle
        (`center`, `radius`), and some that cannot: all rays when the origin
        is inside the circle.  Positions are in the world; the bearing to
        the circle is taken into the fan's frame by subtracting its yaw."""
        dx = center[0] - float(origin[0])
        dy = center[1] - float(origin[1])
        dist = math.hypot(dx, dy)
        radius += self._CULL_PAD
        if dist <= radius:
            return np.arange(self.n)
        half = math.asin(radius / dist) + self._CULL_ANGLE
        bearing = math.atan2(dy, dx) - self.yaw
        if bearing > math.pi:
            bearing -= 2.0 * math.pi
        elif bearing < -math.pi:
            bearing += 2.0 * math.pi
        lo, hi = bearing - half, bearing + half
        spans = [(max(lo, -math.pi), min(hi, math.pi))]
        if lo < -math.pi:
            spans.append((lo + 2.0 * math.pi, math.pi))
        if hi > math.pi:
            spans.append((-math.pi, hi - 2.0 * math.pi))
        parts = [
            self.rays[np.searchsorted(self.az, a, "left") : np.searchsorted(self.az, b, "right")]
            for a, b in spans
        ]
        return np.concatenate([*parts, self.steep])


def _ray_box_t(origin, dirs, objects: Sequence[BoxObject], fan: _AzimuthFan) -> np.ndarray:
    """Each ray's least slab-method entry distance over the boxes (inf where
    it enters none).

    Each box multiplies only its candidate rays into its frame.  The slab
    test then runs over every box's (box, ray) pairs, one axis per row, in
    blocks of _SLAB_PAIRS pairs: its temporaries take about 170 bytes per
    pair, and a camera bundle can hold ten thousand pairs.
    """
    origin = np.asarray(origin, dtype=np.float64)
    best = np.full(len(dirs), np.inf)
    rays, frame_dirs, frame_origins, lo, hi = [], [], [], [], []
    for box in objects:
        cand = fan.toward(origin, box.center, math.hypot(box.extent[0], box.extent[1]) / 2.0)
        if not cand.size:
            continue
        c, s = np.cos(box.yaw), np.sin(box.yaw)
        rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])  # world -> box
        rays.append(cand)
        frame_dirs.append(dirs.take(cand, axis=0) @ rot.T)
        frame_origins.append(rot @ (origin - np.array([*box.center, 0.0])))
        lo.append((-box.extent[0] / 2, -box.extent[1] / 2, 0.0))
        hi.append((box.extent[0] / 2, box.extent[1] / 2, box.extent[2]))
    if not rays:
        return best
    # Rows are axes and columns boxes, then (box, ray) pairs.  A ray
    # parallel to a slab stays inside it for good or never enters it.
    o, lo, hi = (np.array(v).T.copy() for v in (frame_origins, lo, hi))
    to_lo, to_hi = lo - o, hi - o
    parallel = np.where((lo <= o) & (o <= hi), -np.inf, np.inf)
    box_of = np.repeat(np.arange(len(rays)), [len(r) for r in rays])
    rays, frame_dirs = np.concatenate(rays), np.concatenate(frame_dirs)
    for start in range(0, rays.size, _SLAB_PAIRS):
        block = slice(start, start + _SLAB_PAIRS)
        b = box_of[block]
        d = frame_dirs[block].T
        near = parallel.take(b, axis=1)
        far = -near
        moving = np.abs(d) > _EPS
        step = np.where(moving, d, 1.0)
        t1 = np.divide(to_lo.take(b, axis=1), step)
        t2 = np.divide(to_hi.take(b, axis=1), step)
        np.minimum(t1, t2, out=near, where=moving)
        np.maximum(t1, t2, out=far, where=moving)
        near = np.maximum(np.maximum(near[0], near[1]), near[2])
        far = np.minimum(np.minimum(far[0], far[1]), far[2])
        hit = (near <= far) & (near > _EPS)
        np.minimum.at(best, rays[block], np.where(hit, near, np.inf))
    return best


def _ray_wall_t(origin, dirs, wall: Wall, rays: np.ndarray) -> np.ndarray:
    """First intersection of each ray in `rays` with an opaque vertical
    rectangle (inf = miss).

    The normal components come from one product over every ray, sliced
    afterwards, and the along-edge coordinate is summed elementwise, so a
    ray's distance, and whether it hits at the wall's ends, does not depend
    on which rays are asked.
    """
    p1 = np.array(wall.p1, dtype=np.float64)
    edge = np.array(wall.p2, dtype=np.float64) - p1
    n = np.array([-edge[1], edge[0], 0.0])
    o = np.asarray(origin, dtype=np.float64)
    if not edge @ edge:  # zero-length wall: no face for any ray to hit
        return np.full(len(rays), np.inf)
    d = dirs[rays]
    denom = (dirs @ n)[rays]
    moving = np.abs(denom) > _EPS
    t = np.where(
        moving,
        ((np.array([*p1, 0.0]) - o) @ n) / np.where(moving, denom, 1.0),
        np.inf,
    )
    q = o + np.where(np.isfinite(t), t, 0.0)[:, None] * d
    rel = q[:, :2] - p1
    along = (rel * edge).sum(axis=1) / (edge @ edge)
    ok = (
        moving
        & (t > _EPS)
        & (along >= 0.0)
        & (along <= 1.0)
        & (q[:, 2] >= wall.z0)
        & (q[:, 2] <= wall.z0 + wall.height)
    )
    return np.where(ok, t, np.inf)


def _ray_ground_t(origin, dirs) -> np.ndarray:
    dz = np.asarray(dirs)[:, 2]
    falling = dz < -_EPS
    t = np.where(falling, -origin[2] / np.where(falling, dz, 1.0), np.inf)
    return np.where(t > _EPS, t, np.inf)


def raycast(
    origin,
    dirs: np.ndarray,
    fan: _AzimuthFan,
    objects: Sequence[BoxObject],
    occluders: Sequence[Wall],
    max_range: float = np.inf,
):
    """First-hit distances for a bundle of rays from one origin.

    Returns (t, kind): t is the scalar along each direction (inf = no hit
    within max_range; directions need not be unit length, so t is in units
    of the direction vector), kind is one of the HIT_* classes.  The ground
    is tested on all rays and each wall on the rays whose azimuth can reach
    it; the boxes share one slab test over every box's such rays.  Surfaces
    are taken in that order, a later one winning only when strictly closer.

    `fan` sorts the same bundle by azimuth: an `_AzimuthFan` of `dirs`
    themselves, or one of the bundle in the sensor's agent frame turned by
    the agent's yaw, when the agent is rotated about +z only.
    """
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    if fan.n != len(dirs):
        raise ValueError("the fan must sort the same bundle as dirs")
    best = _ray_ground_t(origin, dirs)
    kind = np.where(best < np.inf, HIT_GROUND, HIT_NONE).astype(np.uint8)

    def nearer(rays, t, cls):
        closer = t < best[rays]
        best[rays[closer]] = t[closer]
        kind[rays[closer]] = cls

    for wall in occluders:
        mid = ((wall.p1[0] + wall.p2[0]) / 2.0, (wall.p1[1] + wall.p2[1]) / 2.0)
        rays = fan.toward(origin, mid, math.dist(wall.p1, wall.p2) / 2.0)
        if rays.size:
            nearer(rays, _ray_wall_t(origin, dirs, wall, rays), HIT_WALL)
    if objects:
        # Boxes tested after the walls win only when strictly closer, so each
        # ray keeps the least of its box distances if it beats the rest.
        box_best = _ray_box_t(origin, dirs, objects, fan)
        closer = box_best < best
        best[closer] = box_best[closer]
        kind[closer] = HIT_OBJECT
    out_of_range = best > max_range
    best[out_of_range] = np.inf
    kind[out_of_range] = HIT_NONE
    return best, kind


@functools.lru_cache(maxsize=8)
def _lidar_bundle(spec: LidarSpec) -> tuple[np.ndarray, _AzimuthFan]:
    """Unit ray directions in the sensor frame, elevation-major order and
    shared read-only, and their fan in the agent frame; the mount does not
    rotate."""
    az = 2.0 * np.pi * np.arange(spec.n_azimuth) / spec.n_azimuth
    el = np.asarray(spec.elevation_angles, dtype=np.float64)
    ce, se = np.cos(el)[:, None], np.sin(el)[:, None]
    ca, sa = np.cos(az)[None, :], np.sin(az)[None, :]
    dirs = np.stack(
        [ce * ca, ce * sa, np.broadcast_to(se, (el.size, az.size))], axis=-1
    ).reshape(-1, 3)
    dirs.setflags(write=False)
    return dirs, _AzimuthFan(dirs)


@functools.lru_cache(maxsize=8)
def _camera_bundle(intr: CameraIntrinsics) -> tuple[np.ndarray, _AzimuthFan]:
    """Pixel-center rays in the camera frame, shared read-only, and their
    fan in the agent frame."""
    dirs = pixel_rays(intr).reshape(-1, 3)
    dirs.setflags(write=False)
    return dirs, _AzimuthFan(dirs @ DEFAULT_CAMERA_MOUNT.rotation.T)


def simulate_lidar(
    agent: AgentState,
    objects: Sequence[BoxObject],
    occluders: Sequence[Wall],
    spec: LidarSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Spin the LiDAR once; returns hit points (N, 3) in the sensor frame.

    Every (azimuth, elevation) ray keeps its first intersection with an
    object, wall or the ground within max_range, plus Gaussian range noise.
    Rays that hit nothing contribute no point.
    """
    if not agent.has_lidar:
        raise SensorAbsent(f"agent {agent.id} carries no lidar")
    sensor = compose(agent.true_pose, DEFAULT_LIDAR_MOUNT)
    dirs_local, fan = _lidar_bundle(spec)
    dirs_world = dirs_local @ sensor.rotation.T
    t, kind = raycast(
        sensor.translation, dirs_world, fan.turned(planar_parts(agent.true_pose)[2]),
        objects, occluders, spec.max_range,
    )
    hit = kind != HIT_NONE
    ranges = t[hit]
    if spec.range_noise_sigma > 0:  # a zero-sigma draw would add +0.0 to every range
        ranges = ranges + rng.normal(0.0, spec.range_noise_sigma, size=ranges.size)
    return dirs_local[hit] * ranges[:, None]


def simulate_camera(
    agent: AgentState,
    objects: Sequence[BoxObject],
    occluders: Sequence[Wall],
    intr: CameraIntrinsics,
    channels: int,
):
    """Render ground-truth depth plus a deterministic per-pixel feature image.

    Depth is the first-hit pinhole depth per pixel-center ray (inf where
    nothing is hit).  Features are [hit-class one-hot (4), clipped inverse
    depth, constant bias, zero padding to `channels`].
    """
    if not agent.has_camera:
        raise SensorAbsent(f"agent {agent.id} carries no camera")
    if channels < _N_HIT_CLASSES + 2:
        raise ValueError("feature image needs at least 6 channels")
    cam = compose(agent.true_pose, DEFAULT_CAMERA_MOUNT)
    dirs_cam, fan = _camera_bundle(intr)
    dirs_world = dirs_cam @ cam.rotation.T
    t, kind = raycast(
        cam.translation, dirs_world, fan.turned(planar_parts(agent.true_pose)[2]),
        objects, occluders,
    )
    depth = np.where(kind != HIT_NONE, t, np.inf).reshape(intr.height, intr.width)
    kind = kind.reshape(intr.height, intr.width)

    feats = np.zeros((intr.height, intr.width, channels))
    for cls in range(_N_HIT_CLASSES):
        feats[:, :, cls] = kind == cls
    with np.errstate(divide="ignore"):
        feats[:, :, _N_HIT_CLASSES] = np.where(
            np.isfinite(depth), np.minimum(1.0, 1.0 / depth), 0.0
        )
    feats[:, :, _N_HIT_CLASSES + 1] = 1.0
    return depth, feats
