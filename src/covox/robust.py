"""Localisation-noise tooling: pose perturbation, a heuristic BEV detector,
and pairwise relative-pose correction by rigid alignment of detected boxes.

The corrector assumes two agents each detected (some of) the same objects.
Greedy gated matching pairs the box centers; with at least two pairs the
planar least-squares transform between them is solved in closed form and
composed onto the initial relative pose estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Pose, compose, planar_parts
from .metrics import Detection
from .voxel import GridSpec, VoxelGrid

_REL_THRESHOLD = 0.15
_MIN_CELLS = 2


@dataclass(frozen=True)
class NoiseModel:
    """Planar Gaussian pose noise (translation in meters, yaw in radians)."""

    sigma_xy: float
    sigma_yaw: float

    def __post_init__(self):
        if self.sigma_xy < 0 or self.sigma_yaw < 0:
            raise ValueError("noise sigmas must be non-negative")


def perturb_pose(pose: Pose, noise: NoiseModel, rng: np.random.Generator) -> Pose:
    """Perturb x, y and yaw; z, roll and pitch stay untouched.

    With all sigmas zero the result is bit-identical to the input.
    """
    dx = rng.normal(0.0, noise.sigma_xy)
    dy = rng.normal(0.0, noise.sigma_xy)
    dyaw = rng.normal(0.0, noise.sigma_yaw)
    m = np.array(pose.matrix)
    c, s = np.cos(dyaw), np.sin(dyaw)
    yaw_rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    m[:3, :3] = yaw_rot @ m[:3, :3]
    m[0, 3] += dx
    m[1, 3] += dy
    return Pose(m)


def occupancy_from_grid(grid: VoxelGrid) -> np.ndarray:
    """Column occupancy (nx, ny): the point-count channel summed over z."""
    return grid.features[:, :, :, 0].sum(axis=2)


def occupancy_from_bev(bev: np.ndarray) -> np.ndarray:
    """Occupancy proxy for an opaque BEV feature plane: per-cell L2 norm."""
    return np.linalg.norm(np.asarray(bev, dtype=np.float64), axis=2)


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns hull vertices in CCW order."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if np.any((pts == 0.0) & np.signbit(pts)):
        # Which of -0.0 and 0.0 survives is up to np.unique's unstable sort.
        pts = np.unique(pts, axis=0)
    else:
        # Rows in lexicographic order without repeats, as np.unique gives.
        pts = pts[np.lexsort(pts.T[::-1])]
        new_row = np.ones(len(pts), dtype=bool)
        np.any(pts[1:] != pts[:-1], axis=1, out=new_row[1:])
        pts = pts[new_row]
    if pts.shape[0] <= 2:
        return pts

    def half(seq):
        chain: list[list[float]] = []
        for px, py in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                    break
                chain.pop()
            chain.append([px, py])
        return chain

    seq = pts.tolist()
    hull = np.array(half(seq)[:-1] + half(seq[::-1])[:-1])
    return hull if hull.shape[0] >= 3 else pts


def _min_area_rect(points: np.ndarray):
    """Minimum-area oriented rectangle over 2D points.

    Returns (center (2,), yaw, (length, width)) with length >= width and
    yaw of the long axis normalised to [-pi/2, pi/2).
    """
    pts = np.asarray(points, dtype=np.float64)
    hull = _convex_hull(pts)
    if hull.shape[0] == 1:
        return hull[0], 0.0, (0.0, 0.0)
    if hull.shape[0] == 2:
        edges = hull[1:] - hull[:1]
    else:
        edges = np.diff(np.vstack([hull, hull[:1]]), axis=0)

    # The hull rotated onto every edge direction at once: local[k] is
    # hull @ rots[k].T. Each rots[k] is C-contiguous like a literal 2x2, so
    # the products take the same BLAS path and round alike.
    thetas = np.arctan2(edges[:, 1], edges[:, 0])
    c, s = np.cos(-thetas), np.sin(-thetas)
    rots = np.empty((len(thetas), 2, 2))
    rots[:, 0, 0] = rots[:, 1, 1] = c
    rots[:, 0, 1], rots[:, 1, 0] = -s, s
    local = hull @ rots.transpose(0, 2, 1)
    lo, hi = local.min(axis=1), local.max(axis=1)
    areas = np.prod(hi - lo, axis=1).tolist()
    k = 0
    for i, area in enumerate(areas):
        if area < areas[k] - 1e-12:
            k = i
    center = rots[k].T @ ((lo[k] + hi[k]) / 2.0)
    theta = thetas[k]
    ex, ey = hi[k] - lo[k]
    if ex >= ey:
        length, width, yaw = ex, ey, theta
    else:
        length, width, yaw = ey, ex, theta + np.pi / 2.0
    yaw = (yaw + np.pi / 2.0) % np.pi - np.pi / 2.0
    return center, float(yaw), (float(length), float(width))


def _connected_components(mask: np.ndarray):
    """8-connected components of a boolean grid, in scan order.

    Breadth-first from each unvisited set cell, over Python lists: `todo`
    holds the set cells not yet reached, and each component's cells list is
    also its queue."""
    mask = np.asarray(mask, dtype=bool)
    nx, ny = mask.shape
    todo = mask.tolist()
    comps: list[np.ndarray] = []
    for sx, sy in zip(*(axis.tolist() for axis in np.nonzero(mask))):
        if not todo[sx][sy]:
            continue
        todo[sx][sy] = False
        cells = [(sx, sy)]
        head = 0
        while head < len(cells):
            x, y = cells[head]
            head += 1
            for nx_ in (x - 1, x, x + 1):
                if not 0 <= nx_ < nx:
                    continue
                row = todo[nx_]
                for ny_ in (y - 1, y, y + 1):
                    if 0 <= ny_ < ny and row[ny_]:
                        row[ny_] = False
                        cells.append((nx_, ny_))
        comps.append(np.array(cells, dtype=np.int64))
    return comps


def detect_local(bev_occupancy: np.ndarray, spec: GridSpec) -> list[Detection]:
    """Heuristic box detector on a BEV occupancy map.

    Cells above _REL_THRESHOLD * max(occupancy) are grouped into 8-connected
    components of at least _MIN_CELLS cells; each component yields the
    minimum-area oriented rectangle of its cell centers, inflated by one cell
    pitch to undo center shrinkage.
    The score is a bounded transform of the component's mean occupancy.
    """
    occ = np.asarray(bev_occupancy, dtype=np.float64)
    if occ.shape != (spec.nx, spec.ny):
        raise ValueError("occupancy shape does not match the grid spec")
    peak = occ.max(initial=0.0)
    if peak <= 0.0:
        return []
    mask = occ > _REL_THRESHOLD * peak
    pitch = (spec.dx + spec.dy) / 2.0
    dets = []
    for cells in _connected_components(mask):
        if cells.shape[0] < _MIN_CELLS:
            continue
        centers = spec.bev_cell_centers(cells[:, 0], cells[:, 1])
        center, yaw, (length, width) = _min_area_rect(centers)
        score = float(1.0 - np.exp(-occ[cells[:, 0], cells[:, 1]].mean()))
        dets.append(
            Detection(
                center=(float(center[0]), float(center[1])),
                yaw=yaw,
                extent=(length + pitch, width + pitch),
                score=score,
            )
        )
    return dets


def fit_planar_alignment(src: np.ndarray, dst: np.ndarray):
    """Closed-form planar rigid fit minimising sum ||R src + t - dst||^2.

    Rotation comes from the polar factor of the 2x2 cross-covariance
    (SVD with a reflection guard); translation aligns the centroids.
    Returns (R (2, 2), t (2,)).
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    if src.shape != dst.shape or src.shape[0] < 2:
        raise ValueError("need at least two point pairs")
    sc, dc = src.mean(axis=0), dst.mean(axis=0)
    cov = (dst - dc).T @ (src - sc)
    u, _, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(u @ vt))
    rot = u @ np.diag([1.0, d]) @ vt
    t = dc - rot @ sc
    return rot, t


def _greedy_matches(
    ego_dets: Sequence[Detection],
    neighbor_dets: Sequence[Detection],
    gate_radius: float,
):
    """Pair detections by proximity; higher-scored ego boxes choose first.

    Among equally distant neighbours the lowest index wins."""
    if not ego_dets or not neighbor_dets:
        return []
    ego_order = sorted(range(len(ego_dets)), key=lambda i: -ego_dets[i].score)
    ego = np.array([d.center for d in ego_dets], dtype=np.float64)
    nbr = np.array([d.center for d in neighbor_dets], dtype=np.float64)
    gap = nbr[None, :, :] - ego[:, None, :]
    # The dot product np.linalg.norm takes, as (1, 2) @ (2, 1) products: a
    # sum of squares rounds differently (BLAS fuses multiply-adds), which
    # could move a tie or a pair at the gate.
    dists = np.sqrt((gap[..., None, :] @ gap[..., :, None])[..., 0, 0]).tolist()
    free = list(range(len(neighbor_dets)))
    pairs = []
    for i in ego_order:
        if not free:
            break
        row = dists[i]
        cand = min(free, key=row.__getitem__)
        if row[cand] <= gate_radius:
            pairs.append((i, cand))
            free.remove(cand)
    return pairs


def correct_relative_pose(
    init_rel: Pose,
    ego_dets: Sequence[Detection],
    neighbor_dets_in_ego_frame: Sequence[Detection],
    gate_radius: float = 2.0,
) -> Pose:
    """Refine a relative pose from co-detected box centers.

    `neighbor_dets_in_ego_frame` must already be mapped through init_rel.
    Fewer than two gated matches leave the estimate unchanged.
    """
    pairs = _greedy_matches(ego_dets, neighbor_dets_in_ego_frame, gate_radius)
    if len(pairs) < 2:
        return init_rel
    dst = np.array([ego_dets[i].center for i, _ in pairs])
    src = np.array([neighbor_dets_in_ego_frame[j].center for _, j in pairs])
    rot, t = fit_planar_alignment(src, dst)
    yaw = float(np.arctan2(rot[1, 0], rot[0, 0]))
    correction = Pose.from_planar(float(t[0]), float(t[1]), yaw)
    return compose(correction, init_rel)


def transform_detections(dets: Sequence[Detection], pose: Pose) -> list[Detection]:
    """Map planar detections through the planar part of a pose."""
    x, y, yaw = planar_parts(pose)
    c, s = np.cos(yaw), np.sin(yaw)
    out = []
    for det in dets:
        px = c * det.center[0] - s * det.center[1] + x
        py = s * det.center[0] + c * det.center[1] + y
        out.append(
            Detection(
                center=(float(px), float(py)),
                yaw=float(det.yaw + yaw),
                extent=det.extent,
                score=det.score,
            )
        )
    return out


def relative_pose_error(estimate: Pose, truth: Pose) -> tuple[float, float]:
    """(planar translation error, absolute yaw error) between two poses."""
    ex, ey, eyaw = planar_parts(estimate)
    tx, ty, tyaw = planar_parts(truth)
    dyaw = (eyaw - tyaw + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.hypot(ex - tx, ey - ty)), float(abs(dyaw))
