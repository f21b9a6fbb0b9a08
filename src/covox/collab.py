"""Modality-guided collaboration: preference thresholds, importance masking,
sparse message packing, BEV warping, attention aggregation and the
synchronous two-phase exchange round.

`run_round` runs five stages in lockstep over one record per agent:

1. sense — LiDAR and camera capture, LiDAR voxelization;
2. relative poses — believed relative poses, optionally corrected by
   matching shared local detections.  Believed poses are read from the
   agent states: they are not sent in any message and not charged;
3. phase 1 — each agent that runs cooperative depth sends each LiDAR
   neighbor a request carrying the pose it projects that neighbor with,
   and the neighbor replies with the points of its downsampled cloud that
   the requester's depth map would keep, in the requester's camera frame;
4. perceive — cooperative depth, camera lift, modal fusion, then the
   confidence mask and the sparse message;
5. phase 2 / receive — each agent warps its neighbors' messages into its
   own frame and aggregates them.

The `RoundLedger` is the only place communication is counted: every
transmitted scalar is charged there per edge and phase, in the order
detections, depth, feature.  A `depth` record is either a request (the
receiver's planar pose for the edge, 3 scalars, receiver to neighbor) or
the neighbor's reply to it (3 scalars per point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import nnkit
from .depth import (
    DepthBins,
    DepthMap,
    UniformPredictor,
    finalize_distribution,
    merge_cooperative,
    nearest_per_pixel,
    predict_depth,
    project_cloud_to_depthmap,
)
from .fusion import (
    FusionParams,
    fuse_modalities,
    fuse_modalities_equal,
    make_equal_params,
    make_fusion_params,
)
from .geometry import Pose, compose, invert, planar_parts, relative, transform_points
from .robust import (
    correct_relative_pose,
    detect_local,
    occupancy_from_grid,
    relative_pose_error,
    transform_detections,
)
from .scene import (
    DEFAULT_CAMERA_MOUNT,
    DEFAULT_LIDAR_MOUNT,
    AgentState,
    BoxObject,
    ScenarioConfig,
    Wall,
    lidar_rng,
    simulate_camera,
    simulate_lidar,
)
from .voxel import Category, GridSpec, VoxelGrid, categorize, collapse, lift_camera, voxelize_points

# Importance surrogate: logistic in the normalised feature norm.
_IMPORTANCE_GAIN = 4.0
_IMPORTANCE_SHIFT = 1.0

# Scalars charged per shared detection box (cx, cy, yaw, l, w, score).
_DETECTION_ELEMENTS = 6

# Phase 1 shares one point per cube of this edge length (m), 3 scalars each.
_PAYLOAD_CELL = 0.5
# A phase-1 request carries the requester's planar pose (x, y, yaw).
_REQUEST_ELEMENTS = 3

_AGG_HEADS = 4
# BLAS multiplies a handful of rows with other kernels (gemv for one row,
# small-matrix kernels for a few) whose rounding differs from the kernel used
# on a whole grid, so `aggregate` runs at least this many cells to stay
# bit-identical to attention over every cell.
_MIN_ATTENTION_CELLS = 64
_CONCAT_SLOTS = 4  # token budget of the concat aggregation ablation

_CAM_FROM_AGENT = invert(DEFAULT_CAMERA_MOUNT)
_CAM_FROM_LIDAR = compose(_CAM_FROM_AGENT, DEFAULT_LIDAR_MOUNT)

FUSION_MODES = ("none", "equal", "biased")
DEPTH_PROJECTIONS = ("no", "ego", "all")
COLLAB_MODES = ("max", "concat", "attention")


@dataclass
class Message:
    """One broadcast payload: the sender's masked sparse BEV cells.

    It carries no pose: a receiver reads the sender's believed pose from the
    agent states, and the ledger charges only `feature_elements`.
    """

    indices: np.ndarray  # (K, 2) BEV cell indices
    vectors: np.ndarray  # (K, F) cell features, each row has a nonzero entry
    feature_elements: int


@dataclass(frozen=True)
class EdgeRecord:
    sender: int
    receiver: int
    phase: str  # "depth" | "feature" | "detections"
    elements: int

    @property
    def log2(self) -> float:
        return comm_volume_log(self.elements)


@dataclass
class RoundLedger:
    records: list[EdgeRecord] = field(default_factory=list)

    def add(self, sender: int, receiver: int, phase: str, elements: int) -> None:
        self.records.append(EdgeRecord(sender, receiver, phase, int(elements)))

    def total(self, phase: str) -> int:
        return sum(r.elements for r in self.records if r.phase == phase)


@dataclass
class WarpResult:
    bev: np.ndarray
    cells: np.ndarray  # flat indices of the written cells, ascending
    collisions: int
    dropped: int


@dataclass
class AgentRound:
    """Everything one agent produced during a round."""

    bev: np.ndarray  # own collapsed BEV feature plane
    aggregated: np.ndarray  # post-collaboration BEV
    mask: np.ndarray
    message: Message
    depth_map: Optional[DepthMap] = None
    warp_collisions: int = 0
    # per neighbor id: (error of believed rel pose, error of the pose used)
    pose_errors: dict[int, tuple[tuple[float, float], tuple[float, float]]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Per-run processing knobs shared by every agent."""

    grid: GridSpec
    bins: DepthBins
    predictor: object = field(default_factory=UniformPredictor)
    mass_threshold: float = 0.05
    fusion_mode: str = "biased"
    depth_projection: str = "all"
    collab_mode: str = "attention"
    robust: bool = False
    gate_radius: float = 2.0

    def __post_init__(self):
        if self.fusion_mode not in FUSION_MODES:
            raise ValueError(f"unknown fusion mode {self.fusion_mode!r}")
        if self.depth_projection not in DEPTH_PROJECTIONS:
            raise ValueError(f"unknown depth projection {self.depth_projection!r}")
        if self.collab_mode not in COLLAB_MODES:
            raise ValueError(f"unknown collaboration mode {self.collab_mode!r}")


@dataclass(frozen=True)
class PipelineParams:
    """Frozen seeded weights for every learned-surrogate component."""

    fusion: FusionParams
    equal_lin: nnkit.LinearMap
    agg_mha: nnkit.MhaParams
    concat_lin: nnkit.LinearMap


def make_pipeline_params(grid: GridSpec, seed: int) -> PipelineParams:
    f = grid.bev_channels
    return PipelineParams(
        fusion=make_fusion_params(grid.channels, seed),
        equal_lin=make_equal_params(grid.channels, seed),
        agg_mha=nnkit.init_mha(f, _AGG_HEADS, (seed, 20)),
        concat_lin=nnkit.init_linear(_CONCAT_SLOTS * f, f, (seed, 21)),
    )


def build_comm_graph(
    agents: Sequence[AgentState], comm_range: float
) -> dict[int, tuple[int, ...]]:
    """Symmetric neighbor sets: planar believed-pose distance <= comm_range."""
    if comm_range <= 0:
        raise ValueError("comm_range must be positive")
    graph: dict[int, tuple[int, ...]] = {}
    for a in agents:
        ax, ay, _ = planar_parts(a.believed_pose)
        near = []
        for b in agents:
            if b.id == a.id:
                continue
            bx, by, _ = planar_parts(b.believed_pose)
            if np.hypot(ax - bx, ay - by) <= comm_range:
                near.append(b.id)
        graph[a.id] = tuple(sorted(near))
    return graph


def preference_map(grid: VoxelGrid) -> np.ndarray:
    """Per-column transmission threshold: 0 for columns with a hybrid cell
    (always worth sharing), 0.5 for everything else."""
    return np.where(np.any(grid.category == Category.HYBRID, axis=2), 0.0, 0.5)


def importance_scores(bev: np.ndarray) -> np.ndarray:
    """Surrogate classification head: logistic in the cell's RMS feature size.

    All-zero cells score sigma(-1) ~ 0.269; scores always lie in (0, 1).
    """
    bev = np.asarray(bev, dtype=np.float64)
    level = np.linalg.norm(bev, axis=2) / np.sqrt(bev.shape[2])
    return 1.0 / (1.0 + np.exp(-(_IMPORTANCE_GAIN * level - _IMPORTANCE_SHIFT)))


def confidence_mask(scores: np.ndarray, preference: np.ndarray) -> np.ndarray:
    """Transmit a cell iff its importance strictly exceeds its threshold."""
    if scores.shape != preference.shape:
        raise ValueError("scores and preference map must share a shape")
    return (scores > preference).astype(np.uint8)


def pack_message(bev: np.ndarray, mask: np.ndarray) -> Message:
    """Sparse-pack the masked BEV cells and tally the transmitted scalars.

    Only mask=1 cells with at least one nonzero scalar are included;
    `feature_elements` counts their nonzero scalars.
    """
    idx = np.argwhere(np.asarray(mask) == 1)
    vecs = np.asarray(bev)[idx[:, 0], idx[:, 1]]
    keep = np.any(vecs != 0.0, axis=1) if vecs.size else np.zeros(0, dtype=bool)
    idx, vecs = idx[keep], vecs[keep]
    return Message(
        indices=idx,
        vectors=np.array(vecs),
        feature_elements=int(np.count_nonzero(vecs)),
    )


def comm_volume_log(total_elements: int) -> float:
    """log2 of the element count; 0 maps to 0.0 by convention."""
    if total_elements < 0:
        raise ValueError("element count cannot be negative")
    if total_elements == 0:
        return 0.0
    return float(np.log2(total_elements))


def dense_ratio(directed_edges: int, grid: GridSpec, total_elements: int) -> float:
    """The paper's saving: the scalars a dense exchange would send (the whole
    nx x ny x nz x C volume per directed edge) over the scalars sent.

    0.0 when nothing is sent, which covers a round without edges.
    """
    if directed_edges < 0 or total_elements < 0:
        raise ValueError("edge and element counts cannot be negative")
    if total_elements == 0:
        return 0.0
    return directed_edges * grid.nx * grid.ny * grid.bev_channels / total_elements


def downsample_cloud(points: np.ndarray, cell: float) -> np.ndarray:
    """Voxel-dedup filter: keep the first point per `cell`-sized cube."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        return pts
    keys = np.floor(pts / cell).astype(np.int64)
    lo = keys.min(axis=0)
    span = keys.max(axis=0) - lo + 1
    flat = np.ravel_multi_index(tuple((keys - lo).T), tuple(span))
    _, first = np.unique(flat, return_index=True)
    return pts[np.sort(first)]


def warp_sparse(
    indices: np.ndarray, vectors: np.ndarray, rel_pose: Pose, spec: GridSpec
) -> WarpResult:
    """Resample sparse sender cells into the receiver's BEV lattice.

    Cell centers are mapped through the planar part of the relative pose and
    written to the containing destination cell; on collision the later entry
    wins (collisions are counted), out-of-grid cells are dropped.
    """
    f = spec.bev_channels
    bev = np.zeros((spec.nx, spec.ny, f))
    no_cells = np.zeros(0, dtype=np.int64)
    indices = np.asarray(indices).reshape(-1, 2)
    if indices.shape[0] == 0:
        return WarpResult(bev, no_cells, 0, 0)
    vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, f)
    centers = spec.bev_cell_centers(indices[:, 0], indices[:, 1])
    x, y, yaw = planar_parts(rel_pose)
    c, s = np.cos(yaw), np.sin(yaw)
    px = c * centers[:, 0] - s * centers[:, 1] + x
    py = s * centers[:, 0] + c * centers[:, 1] + y
    ix = np.floor((px - spec.x_range[0]) / spec.dx).astype(np.int64)
    iy = np.floor((py - spec.y_range[0]) / spec.dy).astype(np.int64)
    inb = (ix >= 0) & (ix < spec.nx) & (iy >= 0) & (iy < spec.ny)
    dropped = int(np.count_nonzero(~inb))
    ix, iy, vecs = ix[inb], iy[inb], vectors[inb]
    if ix.size == 0:
        return WarpResult(bev, no_cells, 0, dropped)
    flat = ix * spec.ny + iy
    # Later writer wins: keep the last arrival targeting each cell.
    uniq, first_in_rev = np.unique(flat[::-1], return_index=True)
    last = flat.size - 1 - first_in_rev
    bev.reshape(-1, f)[uniq] = vecs[last]
    return WarpResult(bev, uniq, int(flat.size - uniq.size), dropped)


def aggregate(
    params: nnkit.MhaParams,
    ego: np.ndarray,
    warped: Sequence[np.ndarray],
    written: Sequence[np.ndarray],
) -> np.ndarray:
    """Attention aggregation over the per-cell token stack [ego, neighbors...].

    The stack acts as queries, keys and values; the output is the ego
    token's attention result.  All-zero neighbor tokens carry no signal and
    are excluded from the softmax.  `written[k]` holds the flat indices of
    exactly the nonzero cells of `warped[k]` (`WarpResult.cells`).

    Only the cells with a nonzero token are computed.  Every other cell has
    the same all-zero stack and so the same result, which is taken from one
    computed representative.
    """
    ego = np.asarray(ego, dtype=np.float64)
    nx, ny, f = ego.shape
    n_cells = nx * ny
    stack = [ego.reshape(n_cells, f)]
    stack += [np.asarray(w, dtype=np.float64).reshape(n_cells, f) for w in warped]
    nonzero = np.zeros((len(stack), n_cells), dtype=bool)
    nonzero[0] = np.any(stack[0] != 0.0, axis=1)
    for row, cells in zip(nonzero[1:], written):
        row[cells] = True
    busy = np.any(nonzero, axis=0)
    # Busy cells first, then one idle representative and padding.
    n_cells_run = max(int(np.count_nonzero(busy)) + 1, _MIN_ATTENTION_CELLS)
    cells = np.argsort(~busy, kind="stable")[:n_cells_run]
    tokens = np.stack([tok[cells] for tok in stack])
    t, n = tokens.shape[:2]
    valid = nonzero[:, cells]
    valid[0] = True

    h, dh = params.n_heads, params.head_dim
    q = params.wq.apply(tokens[0]).reshape(n, h, dh)
    k = params.wk.apply(tokens).reshape(t, n, h, dh)
    v = params.wv.apply(tokens).reshape(t, n, h, dh)
    scores = np.einsum("chd,tchd->tch", q, k) / np.sqrt(dh)
    scores[~valid] = -np.inf
    weights = nnkit.softmax(scores, axis=0)
    ctx = np.einsum("tch,tchd->chd", weights, v).reshape(n, f)
    result = params.wo.apply(ctx)
    out = np.empty((n_cells, f))
    out[...] = result[-1]  # every cell not run is idle, like the last one run
    out[cells] = result
    return out.reshape(nx, ny, f)


def aggregate_max(ego: np.ndarray, warped: Sequence[np.ndarray]) -> np.ndarray:
    """Ablation baseline: elementwise max over the token stack."""
    out = np.array(ego, dtype=np.float64)
    for w in warped:
        out = np.maximum(out, w)
    return out


def aggregate_concat(
    lin: nnkit.LinearMap, ego: np.ndarray, warped: Sequence[np.ndarray]
) -> np.ndarray:
    """Ablation baseline: channel-concatenate a fixed token budget + linear."""
    toks = [np.asarray(ego, dtype=np.float64)]
    toks += [np.asarray(w, dtype=np.float64) for w in warped[: _CONCAT_SLOTS - 1]]
    while len(toks) < _CONCAT_SLOTS:
        toks.append(np.zeros_like(toks[0]))
    return lin.apply(np.concatenate(toks, axis=2))


@dataclass
class _AgentWork:
    """One agent's state as the round's stages fill it in."""

    state: AgentState
    neighbors: tuple[int, ...]
    lidar_grid: VoxelGrid
    cloud_sensor: Optional[np.ndarray] = None  # LiDAR hits, sensor frame
    cloud: Optional[np.ndarray] = None  # the same hits, agent frame
    images: Optional[tuple[np.ndarray, np.ndarray]] = None  # camera depth, features
    detections: list = field(default_factory=list)
    rel: dict[int, Pose] = field(default_factory=dict)  # neighbor -> pose used
    pose_errors: dict[int, tuple] = field(default_factory=dict)
    payload: Optional[np.ndarray] = None  # downsampled cloud, agent frame
    shared: list[np.ndarray] = field(default_factory=list)  # replies, camera frame
    depth_map: Optional[DepthMap] = None
    bev: Optional[np.ndarray] = None
    mask: Optional[np.ndarray] = None
    message: Optional[Message] = None


def _sense(
    agent: AgentState,
    neighbors: tuple[int, ...],
    objects: Sequence[BoxObject],
    occluders: Sequence[Wall],
    scenario: ScenarioConfig,
    pipe: PipelineConfig,
) -> _AgentWork:
    """Capture the agent's sensors and voxelize its LiDAR cloud."""
    if not agent.has_lidar:
        work = _AgentWork(agent, neighbors, VoxelGrid.empty(pipe.grid))
    else:
        pts = simulate_lidar(
            agent, objects, occluders, scenario.lidar, lidar_rng(scenario.seed, agent.id)
        )
        cloud = transform_points(DEFAULT_LIDAR_MOUNT, pts)
        work = _AgentWork(
            agent, neighbors, voxelize_points(cloud, pipe.grid), cloud_sensor=pts, cloud=cloud
        )
    if agent.has_camera and pipe.fusion_mode != "none":
        work.images = simulate_camera(
            agent, objects, occluders, scenario.camera, pipe.grid.channels
        )
    return work


def _relative_poses(
    works: dict[int, _AgentWork], pipe: PipelineConfig, ledger: RoundLedger
) -> None:
    """Set the relative pose each agent uses per neighbor, and its error.

    With `robust`, connected agents share their local detections and each
    believed relative pose is corrected by matching them.
    """
    if pipe.robust:
        for w in works.values():
            if w.neighbors and w.state.has_lidar:
                w.detections = detect_local(occupancy_from_grid(w.lidar_grid), pipe.grid)
    for w in works.values():
        for j in w.neighbors:
            other = works[j]
            believed = relative(w.state.believed_pose, other.state.believed_pose)
            used = believed
            if pipe.robust:
                nbr = transform_detections(other.detections, believed)
                used = correct_relative_pose(believed, w.detections, nbr, pipe.gate_radius)
                sent = _DETECTION_ELEMENTS * len(other.detections)
                ledger.add(j, w.state.id, "detections", sent)
            truth = relative(w.state.true_pose, other.state.true_pose)
            w.rel[j] = used
            w.pose_errors[j] = (
                relative_pose_error(believed, truth),
                relative_pose_error(used, truth),
            )


def _share_clouds(
    works: dict[int, _AgentWork],
    scenario: ScenarioConfig,
    pipe: PipelineConfig,
    ledger: RoundLedger,
) -> None:
    """Phase 1: each agent with camera images requests depth points from
    each LiDAR neighbor.

    The request carries the pose the receiver projects that neighbor with.
    The neighbor downsamples its cloud once, on the first request, and
    replies with the points the receiver's depth map keeps: those nearest
    at a pixel of its image, below d_max.  They are sent in the receiver's
    camera frame, so the receiver's map is the one the whole cloud gives.
    """
    if pipe.depth_projection != "all":
        return
    for w in works.values():
        if w.images is None:
            continue
        for j in w.neighbors:
            sender = works[j]
            if not sender.state.has_lidar:
                continue
            if sender.payload is None:
                sender.payload = downsample_cloud(sender.cloud, _PAYLOAD_CELL)
            ledger.add(w.state.id, j, "depth", _REQUEST_ELEMENTS)
            cam = transform_points(compose(_CAM_FROM_AGENT, w.rel[j]), sender.payload)
            _, _, rows = nearest_per_pixel(cam, scenario.camera, pipe.bins)
            reply = cam[np.sort(rows)]
            ledger.add(j, w.state.id, "depth", 3 * reply.shape[0])
            w.shared.append(reply)


def _perceive(
    w: _AgentWork,
    scenario: ScenarioConfig,
    pipe: PipelineConfig,
    params: PipelineParams,
) -> None:
    """Depth -> lift -> fuse -> collapse, then mask and pack the message."""
    camera_grid = VoxelGrid.empty(pipe.grid)
    if w.images is not None:
        depth_img, feat_img = w.images
        if pipe.depth_projection != "no" and w.state.has_lidar:
            cloud_cam = transform_points(_CAM_FROM_LIDAR, w.cloud_sensor)
            dmap = project_cloud_to_depthmap(cloud_cam, scenario.camera, pipe.bins)
        else:
            dmap = DepthMap.empty(pipe.bins, scenario.camera.height, scenario.camera.width)
        if pipe.depth_projection == "all":
            dmap = merge_cooperative(dmap, w.shared, scenario.camera, pipe.bins)
        pred = predict_depth(depth_img, pipe.predictor, pipe.bins)
        dist = finalize_distribution(dmap, pred)
        camera_grid = lift_camera(
            feat_img, dist, scenario.camera, DEFAULT_CAMERA_MOUNT,
            pipe.grid, pipe.mass_threshold, pipe.bins.centers(),
        ).grid
        w.depth_map = dmap
    cat = categorize(w.lidar_grid, camera_grid)
    if pipe.fusion_mode == "equal":
        fused = fuse_modalities_equal(params.equal_lin, cat)
    else:
        fused = fuse_modalities(params.fusion, cat)
    w.bev = collapse(fused)
    w.mask = confidence_mask(importance_scores(w.bev), preference_map(fused))
    w.message = pack_message(w.bev, w.mask)


def _receive(
    w: _AgentWork,
    works: dict[int, _AgentWork],
    pipe: PipelineConfig,
    params: PipelineParams,
    ledger: RoundLedger,
) -> AgentRound:
    """Phase 2: warp each neighbor's message into this agent's frame and aggregate."""
    warped, written = [], []
    collisions = 0
    for j in w.neighbors:
        msg = works[j].message
        wr = warp_sparse(msg.indices, msg.vectors, w.rel[j], pipe.grid)
        warped.append(wr.bev)
        written.append(wr.cells)  # each packed row has a nonzero scalar
        collisions += wr.collisions
        ledger.add(j, w.state.id, "feature", msg.feature_elements)
    if pipe.collab_mode == "attention":
        agg = aggregate(params.agg_mha, w.bev, warped, written)
    elif pipe.collab_mode == "max":
        agg = aggregate_max(w.bev, warped)
    else:
        agg = aggregate_concat(params.concat_lin, w.bev, warped)
    return AgentRound(
        bev=w.bev,
        aggregated=agg,
        mask=w.mask,
        message=w.message,
        depth_map=w.depth_map,
        warp_collisions=collisions,
        pose_errors=w.pose_errors,
    )


def run_round(
    agents: Sequence[AgentState],
    objects: Sequence[BoxObject],
    occluders: Sequence[Wall],
    scenario: ScenarioConfig,
    pipe: PipelineConfig,
    params: PipelineParams,
) -> tuple[dict[int, AgentRound], RoundLedger]:
    """Execute one synchronous perception + communication round.

    Degraded agents (dropped sensors) follow identity fallbacks instead of
    aborting; a single agent simply skips both exchange phases.
    """
    agents = sorted(agents, key=lambda a: a.id)
    graph = build_comm_graph(agents, scenario.comm_range)
    works = {
        a.id: _sense(a, graph[a.id], objects, occluders, scenario, pipe) for a in agents
    }
    ledger = RoundLedger()
    _relative_poses(works, pipe, ledger)
    _share_clouds(works, scenario, pipe, ledger)
    for w in works.values():
        _perceive(w, scenario, pipe, params)
    rounds = {aid: _receive(w, works, pipe, params, ledger) for aid, w in works.items()}
    return rounds, ledger
