"""Localisation-noise tooling: pose perturbation, a heuristic BEV detector,
and pairwise relative-pose correction by rigid alignment of detected boxes.

The detector reads a sparse occupancy map, flat BEV cells (ix * ny + iy)
and a value per cell, from a LiDAR grid (`occupancy_from_grid`) or the rows
of an aggregated BEV (`occupancy_from_bev`); no (nx, ny) map is built.

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
from .voxel import GridSpec, VoxelGrid, collapse

_REL_THRESHOLD = 0.15
_MIN_CELLS = 2


@dataclass(frozen=True)
class NoiseModel:
    """Planar Gaussian pose noise (translation in meters, yaw in radians)."""

    sigma_xy: float
    sigma_yaw: float

    def __post_init__(self):
        if not (self.sigma_xy >= 0 and self.sigma_yaw >= 0):
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


def occupancy_from_grid(grid: VoxelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Column occupancy of a voxelized LiDAR grid: channel 0, log(1 + point
    count), summed over z.

    Returns the flat cells of the tagged columns, ascending, as `collapse`
    gives them, and each one's sum over its nz channel-0 values, zero for
    an unlisted voxel; every other column sums to exactly 0.
    """
    s = grid.spec
    columns, rows = collapse(grid)
    return columns, rows.reshape(-1, s.nz, s.channels)[:, :, 0].sum(axis=1)


def occupancy_from_bev(rows: np.ndarray) -> np.ndarray:
    """Occupancy proxy for an opaque BEV feature plane: the L2 norm of each
    of its (n, F) `rows`.  A per-row reduction gives each row the same bits
    whichever other rows it runs with."""
    return np.linalg.norm(np.asarray(rows, dtype=np.float64), axis=1)


def _convex_hull(points: list) -> list:
    """Andrew's monotone chain; returns hull vertices in CCW order.

    `points` are [x, y] pairs in lexicographic order without repeats, as
    detect_local lists a component's cell centres.  Fewer than three points,
    or points on one line, come back as they are.
    """
    if len(points) <= 2:
        return points

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

    hull = half(points)[:-1] + half(points[::-1])[:-1]
    return hull if len(hull) >= 3 else points


def _min_area_rects(hulls: list) -> list:
    """Minimum-area oriented rectangle of each hull, as _convex_hull gives
    them (two or more vertices).

    Returns (center (2,), yaw, (length, width)) per hull, with length >=
    width and yaw of the long axis normalised to [-pi/2, pi/2).  A
    two-vertex hull is one edge; any other closes on its first vertex.

    The hulls run as one batch, each padded to the longest by repeating its
    first vertex, so that the edges after its own are zero.  One stacked
    product rotates each hull onto every one of its edges.  It runs through
    BLAS, which fuses multiply-adds, so a rotation written out elementwise
    would round differently.
    """
    n, longest = len(hulls), max(len(h) for h in hulls)
    pad = [xy for h in hulls for vertex in h + h[:1] * (longest - len(h)) for xy in vertex]
    pad = np.array(pad).reshape(n, longest, 2)
    edges = np.roll(pad, -1, axis=1) - pad
    thetas = np.arctan2(edges[..., 1], edges[..., 0])  # (n, E)
    c, s = np.cos(-thetas), np.sin(-thetas)
    rots = np.empty((n, longest, 2, 2))
    rots[..., 0, 0] = rots[..., 1, 1] = c
    rots[..., 0, 1], rots[..., 1, 0] = -s, s
    # Column pair (2e, 2e + 1) of a hull's right factor is edge e's rotation, transposed.
    local = pad @ rots.transpose(0, 3, 1, 2).reshape(n, 2, 2 * longest)
    local = local.reshape(n, longest, longest, 2)  # (n, V, E, 2)
    lo, hi = local.min(axis=1), local.max(axis=1)  # (n, E, 2)
    extent = hi - lo
    best = []
    for hull, areas in zip(hulls, (extent[..., 0] * extent[..., 1]).tolist()):
        k = 0
        for e, area in enumerate(areas[: 1 if len(hull) == 2 else len(hull)]):
            if area < areas[k] - 1e-12:
                k = e
        best.append(k)
    own = np.arange(n)
    lo, hi, extent, thetas, rots = (a[own, best] for a in (lo, hi, extent, thetas, rots))
    centers = (rots.transpose(0, 2, 1) @ ((lo + hi) / 2.0)[:, :, None])[:, :, 0]
    ex, ey = extent[:, 0], extent[:, 1]
    along = ex >= ey
    yaws = np.where(along, thetas, thetas + np.pi / 2.0)
    yaws = (yaws + np.pi / 2.0) % np.pi - np.pi / 2.0
    lengths, widths = np.where(along, ex, ey), np.where(along, ey, ex)
    return list(zip(centers, yaws.tolist(), zip(lengths.tolist(), widths.tolist())))


def _connected_components(xs: np.ndarray, ys: np.ndarray, shape: tuple[int, int]) -> list[list[int]]:
    """8-connected components of a set of cells of a grid of `shape`, in
    scan order.

    `xs` and `ys` are the set cells' coordinates, in scan order.  Each
    component lists its cells breadth-first from its first cell, each cell
    given by its index in `xs`.  Each cell's neighbours are read from one
    index array of the grid padded by one empty cell on every side, so that
    no step wraps onto another row; an empty cell reads index n, which the
    visit treats as already seen.
    """
    n, width = xs.size, shape[1] + 2
    at = (xs + 1) * width + ys + 1
    index = np.full((shape[0] + 2) * width, n)
    index[at] = np.arange(n)
    steps = np.array((-width - 1, -width, -width + 1, -1, 1, width - 1, width, width + 1))
    near = index[at[:, None] + steps].tolist()
    seen = [False] * n + [True]
    comps: list[list[int]] = []
    for first in range(n):
        if seen[first]:
            continue
        seen[first] = True
        members = [first]
        for k in members:
            for m in near[k]:
                if not seen[m]:
                    seen[m] = True
                    members.append(m)
        comps.append(members)
    return comps


def _box_extent(length: float, breadth: float, spec: GridSpec) -> tuple[float, float]:
    """The extent of a component's box from the rectangle of its cell
    centres: each side inflated by one cell pitch to undo centre shrinkage,
    so a one-row component gets a breadth of one pitch."""
    pitch = (spec.dx + spec.dy) / 2.0
    return length + pitch, breadth + pitch


def detect_local(cells: np.ndarray, values: np.ndarray, spec: GridSpec) -> list[Detection]:
    """Heuristic box detector on a sparse BEV occupancy map of `spec`: the
    flat cells `cells`, ascending, hold `values`, and every other cell 0.

    Cells above _REL_THRESHOLD * max(occupancy) are grouped into 8-connected
    components of at least _MIN_CELLS cells; each component yields the
    minimum-area oriented rectangle of its cell centers, its extent
    inflated as `_box_extent` says.
    The score is a bounded transform of the component's mean occupancy.
    Only the listed cells are read, in scan order, which is also the
    lexicographic order of the centres, and the rectangles of a map are
    fitted in one batch.
    """
    occ = np.asarray(values, dtype=np.float64)
    if occ.shape != np.shape(cells):
        raise ValueError("occupancy needs one value per cell")
    peak = occ.max(initial=0.0)
    if peak <= 0.0:
        return []
    mask = occ > _REL_THRESHOLD * peak
    xs, ys = np.divmod(cells[mask], spec.ny)
    comps = [m for m in _connected_components(xs, ys, (spec.nx, spec.ny)) if len(m) >= _MIN_CELLS]
    if not comps:
        return []
    centers = spec.bev_cell_centers(xs, ys).tolist()
    rects = _min_area_rects([_convex_hull([centers[k] for k in sorted(m)]) for m in comps])
    # Each mean is numpy's pairwise sum of the component's values in
    # breadth-first order, as np.mean takes them.
    sizes = np.array([len(m) for m in comps])
    values = np.split(occ[mask][np.concatenate(comps)], np.cumsum(sizes[:-1]))
    sums = np.array([np.add.reduce(part) for part in values])
    scores = (1.0 - np.exp(-(sums / sizes))).tolist()
    return [
        Detection(
            center=(float(center[0]), float(center[1])),
            yaw=yaw,
            extent=_box_extent(length, breadth, spec),
            score=score,
        )
        for (center, yaw, (length, breadth)), score in zip(rects, scores)
    ]


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
    neighbor_centers: np.ndarray,
    gate_radius: float,
):
    """Pair ego detections with neighbor box centers (n, 2) by proximity;
    higher-scored ego boxes choose first.

    Among equally distant neighbours the lowest index wins."""
    nbr = np.asarray(neighbor_centers, dtype=np.float64).reshape(-1, 2)
    if not ego_dets or not nbr.shape[0]:
        return []
    ego_order = sorted(range(len(ego_dets)), key=lambda i: -ego_dets[i].score)
    ego = np.array([d.center for d in ego_dets], dtype=np.float64)
    gap = nbr[None, :, :] - ego[:, None, :]
    # The dot product np.linalg.norm takes, as (1, 2) @ (2, 1) products: a
    # sum of squares rounds differently (BLAS fuses multiply-adds), which
    # could move a tie or a pair at the gate.
    dists = np.sqrt((gap[..., None, :] @ gap[..., :, None])[..., 0, 0]).tolist()
    free = list(range(nbr.shape[0]))
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
    neighbor_centers: np.ndarray,
    gate_radius: float,
) -> Pose:
    """Refine a relative pose from co-detected box centers.

    `neighbor_centers` are the neighbor's (n, 2) box centers, already
    mapped through init_rel (`transform_centers`).  Fewer than two gated
    matches leave the estimate unchanged.
    """
    nbr = np.asarray(neighbor_centers, dtype=np.float64).reshape(-1, 2)
    pairs = _greedy_matches(ego_dets, nbr, gate_radius)
    if len(pairs) < 2:
        return init_rel
    dst = np.array([ego_dets[i].center for i, _ in pairs])
    src = nbr[[j for _, j in pairs]]
    rot, t = fit_planar_alignment(src, dst)
    yaw = float(np.arctan2(rot[1, 0], rot[0, 0]))
    correction = Pose.from_planar(float(t[0]), float(t[1]), yaw)
    return compose(correction, init_rel)


def transform_centers(centers: np.ndarray, pose: Pose) -> np.ndarray:
    """Map (n, 2) planar points through the planar part of a pose.

    One array pass: each point gets the same IEEE operations, in the same
    order, as it would alone.
    """
    pts = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    x, y, yaw = planar_parts(pose)
    c, s = np.cos(yaw), np.sin(yaw)
    cx, cy = pts[:, 0], pts[:, 1]
    return np.stack([c * cx - s * cy + x, s * cx + c * cy + y], axis=1)


def transform_detections(dets: Sequence[Detection], pose: Pose) -> list[Detection]:
    """Map planar detections through the planar part of a pose: each
    center as `transform_centers` moves it, each yaw turned by the pose's."""
    if not dets:
        return []
    centers = transform_centers([det.center for det in dets], pose)
    yaw = planar_parts(pose)[2]
    yaws = np.array([det.yaw for det in dets], dtype=np.float64) + yaw
    return [
        Detection(center=(u, v), yaw=a, extent=det.extent, score=det.score)
        for det, (u, v), a in zip(dets, centers.tolist(), yaws.tolist())
    ]


def relative_pose_error(estimate: Pose, truth: Pose) -> tuple[float, float]:
    """(planar translation error, absolute yaw error) between two poses."""
    ex, ey, eyaw = planar_parts(estimate)
    tx, ty, tyaw = planar_parts(truth)
    dyaw = (eyaw - tyaw + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.hypot(ex - tx, ey - ty)), float(abs(dyaw))
