"""Modality-guided collaboration: preference thresholds, importance masking,
sparse message packing, BEV warping, attention aggregation and the
synchronous two-phase exchange round.

`run_round` runs five stages in lockstep over one record per agent, an
`AgentRound`, and returns the records the stages filled:

1. sense — LiDAR and camera capture, LiDAR voxelization;
2. relative poses — believed relative poses, optionally corrected by
   matching the local detections that two LiDAR agents share.  Believed
   poses are read from the agent states: they are not sent in any message
   and not charged;
3. phase 1 — each agent that runs cooperative depth sends each LiDAR
   neighbor a request carrying the pose it projects that neighbor with.
   The neighbor projects its downsampled cloud into the requester's image
   and replies with the pixels the requester's depth map would fill from
   it, each as a (pixel index, depth) pair.  A sender answers all of its
   requesters in one pass;
4. perceive — cooperative depth, camera lift, modal fusion, the collapse
   to BEV rows, then the confidence mask and the sparse message.  An agent's
   BEV is its nonzero rows and their cells (`bev_rows`, `bev_cells`); no
   stage before the aggregation builds an (nx, ny, F) plane of it;
5. phase 2 / receive — each agent warps all of its neighbors' messages
   into its own frame in one pass, as the cells they land on and the
   message rows written there, and aggregates them.  Attention reads Q, K
   and V from one projection per round of every agent's nonzero BEV rows,
   and max reads the message rows.  The record keeps the aggregated BEV as
   its nonzero rows and their cells (`aggregated_rows`,
   `aggregated_cells`), which scoring reads.

The `RoundLedger` is the only place communication is counted, per edge and
phase, in the order detections, depth, feature.  Each exchange sends only
the scalars its receiver reads.  Detections and phase-1 replies are
charged every scalar, pixel index included: a `detections` record 2 per
box (its centre), a `depth` record either a request (the receiver's planar
pose for the edge, 3 scalars, receiver to neighbor) or the neighbor's reply
to it (2 per pixel: its index and depth).  A `feature` record is charged
the message's nonzero values, not the indices of its cells.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

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
    _GUIDANCE_HEADS,
    FusionParams,
    fuse_modalities,
    fuse_modalities_equal,
    make_equal_params,
    make_fusion_params,
)
from .geometry import Pose, compose, invert, planar_parts, transform_points
from .robust import (
    correct_relative_pose,
    detect_local,
    occupancy_from_grid,
    relative_pose_error,
    transform_centers,
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

# Scalars charged per shared detection: its box centre (cx, cy), all that
# the pose corrector reads.
_DETECTION_ELEMENTS = 2

# Phase 1 draws on one point per cube of this edge length (m).
_PAYLOAD_CELL = 0.5
# A phase-1 request carries the requester's planar pose (x, y, yaw).
_REQUEST_ELEMENTS = 3
# A phase-1 reply carries a (pixel index, depth) pair per pixel it fills.
_REPLY_ELEMENTS = 2

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


@dataclass
class RoundLedger:
    records: list[EdgeRecord] = field(default_factory=list)

    def add(self, sender: int, receiver: int, phase: str, elements: int) -> None:
        self.records.append(EdgeRecord(sender, receiver, phase, int(elements)))

    def total(self, phase: str) -> int:
        return sum(r.elements for r in self.records if r.phase == phase)


@dataclass
class WarpResult:
    cells: list[np.ndarray]  # per plane: flat indices of the written cells, ascending
    rows: list[np.ndarray]  # per plane: the message row written to each of those cells
    collisions: int
    dropped: int


@dataclass(frozen=True, eq=False)
class WarpedPlanes(Sequence):
    """Neighbor messages warped into a receiver's lattice, as a read-only
    sequence of (nx, ny, F) planes of `spec`.  Plane k holds the rows
    `vectors[k][rows[k]]` at the cells `cells[k]` and zeros elsewhere; it
    is built afresh each time it is read, so that only a reader that wants
    whole planes pays for them."""

    spec: GridSpec
    cells: Sequence[np.ndarray]  # per neighbor: flat indices of the written cells, ascending
    vectors: Sequence[np.ndarray]  # per neighbor: its message's (K, F) rows
    rows: Sequence[np.ndarray]  # per neighbor: the row of `vectors[k]` written to each cell

    def __len__(self) -> int:
        return len(self.cells)

    def features(self, k: int) -> np.ndarray:
        """The (n, F) rows neighbor k wrote, one per cell of `cells[k]`."""
        return self.vectors[k][self.rows[k]]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        return _plane(self.spec, self.cells[k], self.features(k))


def _plane(spec: GridSpec, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A fresh (nx, ny, F) plane of `spec` with `rows` at the flat indices
    `cells` and zeros elsewhere."""
    f = spec.bev_channels
    plane = np.zeros((spec.nx, spec.ny, f))
    plane.reshape(-1, f)[cells] = rows
    return plane


@dataclass
class Tokens:
    """Attention's Q, K and V of a round's token rows, one row each, and a
    zero row last: the projection of a slot that holds no token."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray


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
        # Camera features take 6 channels; the fusion and aggregation heads
        # must divide the channels they attend over.
        g = self.grid
        if g.channels < 6 or g.channels % _GUIDANCE_HEADS:
            raise ValueError(f"grid.channels must be at least 6 and a multiple of "
                             f"{_GUIDANCE_HEADS}, got {g.channels}")
        if g.bev_channels % _AGG_HEADS:
            raise ValueError(f"grid.nz x grid.channels must be a multiple of "
                             f"{_AGG_HEADS}, got {g.nz} x {g.channels}")


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
    """Per-column transmission threshold: 0 for columns with a hybrid voxel
    (always worth sharing), 0.5 for everything else."""
    s = grid.spec
    pref = np.full(s.nx * s.ny, 0.5)
    pref[grid.voxels[grid.category == Category.HYBRID] // s.nz] = 0.0
    return pref.reshape(s.nx, s.ny)


def importance_scores(cells: np.ndarray, rows: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Surrogate classification head: logistic in the cell's RMS feature size.

    Returns the (nx, ny) scores of a BEV whose nonzero cells are `cells`
    (flat indices) with their (n, F) `rows`; only those are scored one by
    one.  Every other cell scores sigma(-1) ~ 0.269, the score of a zero
    row.  Scores always lie in (0, 1).
    """
    rows = np.asarray(rows, dtype=np.float64)
    level = np.zeros(cells.size + 1)  # the last entry is the zero row's
    level[:-1] = np.linalg.norm(rows, axis=1) / np.sqrt(rows.shape[1])
    score = 1.0 / (1.0 + np.exp(-(_IMPORTANCE_GAIN * level - _IMPORTANCE_SHIFT)))
    scores = np.full(grid.nx * grid.ny, score[-1])
    scores[cells] = score[:-1]
    return scores.reshape(grid.nx, grid.ny)


def confidence_mask(scores: np.ndarray, preference: np.ndarray) -> np.ndarray:
    """Transmit a cell iff its importance strictly exceeds its threshold."""
    if scores.shape != preference.shape:
        raise ValueError("scores and preference map must share a shape")
    return (scores > preference).astype(np.uint8)


def pack_message(cells: np.ndarray, rows: np.ndarray, mask: np.ndarray) -> Message:
    """Sparse-pack the masked BEV cells and tally the transmitted scalars.

    `cells` holds the flat indices of the nonzero cells of a BEV, ascending,
    and `rows` their rows.  Only those with mask=1 in the (nx, ny) `mask`
    are included, in that order; `feature_elements` counts their nonzero
    scalars.
    """
    mask = np.asarray(mask)
    ny = mask.shape[1]
    keep = mask.reshape(-1)[cells] == 1
    sent = cells[keep]
    vecs = rows[keep]
    return Message(
        indices=np.stack([sent // ny, sent % ny], axis=1),
        vectors=vecs,
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
    messages: Sequence[Message], rel_poses: Sequence[Pose], spec: GridSpec
) -> WarpResult:
    """Resample each message's sparse cells into the receiver's BEV lattice.

    Message k's cell centers are mapped through the planar part of
    `rel_poses[k]` to the containing cell of the receiver's grid; on
    collision the later entry wins (collisions are counted), out-of-grid
    cells are dropped.  All messages go in one pass, keyed on message x
    cell.  Nothing is written: the result lists, per message, the cells it
    lands on and the message row that lands on each (`WarpedPlanes` reads
    them as planes).
    """
    if not messages:
        return WarpResult([], [], 0, 0)
    n_cells = spec.nx * spec.ny
    sizes = [m.indices.shape[0] for m in messages]
    starts = np.cumsum([0] + sizes)
    indices = np.concatenate([m.indices.reshape(-1, 2) for m in messages])
    plane = np.repeat(np.arange(len(messages)), sizes)
    x, y, yaw = np.array([planar_parts(p) for p in rel_poses]).T
    # cos and sin of each yaw on its own, as a single message takes them.
    c = np.array([np.cos(a) for a in yaw])
    s = np.array([np.sin(a) for a in yaw])
    c, s, x, y = (a[plane] for a in (c, s, x, y))
    centers = spec.bev_cell_centers(indices[:, 0], indices[:, 1])
    px = c * centers[:, 0] - s * centers[:, 1] + x
    py = s * centers[:, 0] + c * centers[:, 1] + y
    ix = np.floor((px - spec.x_range[0]) / spec.dx).astype(np.int64)
    iy = np.floor((py - spec.y_range[0]) / spec.dy).astype(np.int64)
    inside = np.flatnonzero((ix >= 0) & (ix < spec.nx) & (iy >= 0) & (iy < spec.ny))
    key = plane[inside] * n_cells + ix[inside] * spec.ny + iy[inside]
    # Later writer wins: keep the last arrival targeting each plane cell.
    uniq, first_in_rev = np.unique(key[::-1], return_index=True)
    src = inside[key.size - 1 - first_in_rev]
    bounds = np.searchsorted(uniq, np.arange(1, len(messages)) * n_cells)
    cells = [u - k * n_cells for k, u in enumerate(np.split(uniq, bounds))]
    rows = [r - starts[k] for k, r in enumerate(np.split(src, bounds))]
    return WarpResult(cells, rows, int(key.size - uniq.size), int(ix.size - inside.size))


def project_tokens(params: nnkit.MhaParams, rows: np.ndarray, n_cells: int) -> Tokens:
    """Q, K and V of `rows`, the token rows of a round on grids of
    `n_cells` cells.

    BLAS multiplies a handful of rows with other kernels (gemv for one row,
    small-matrix kernels for a few) whose rounding differs from the kernel
    used on a whole grid.  So at least `_MIN_ATTENTION_CELLS` rows are
    projected, padded with zero rows, and a grid under that many cells
    projects them `n_cells` rows per BLAS call, as attention over every
    cell of it does token by token.  Each row then gets the bits that
    attention over every cell gives it.  The zero row that `Tokens` ends
    with is one of the padding rows.
    """
    n, f = rows.shape
    block = n_cells if n_cells < _MIN_ATTENTION_CELLS else max(n + 1, _MIN_ATTENTION_CELLS)
    padded = np.zeros((-(-(n + 1) // block), block, f))  # one BLAS call per block
    padded.reshape(-1, f)[:n] = rows
    q, k, v = (lin.apply(padded).reshape(-1, f)[: n + 1] for lin in (params.wq, params.wk, params.wv))
    for proj in (q, k, v):
        proj[n] = 0.0  # +0.0, whatever sign BLAS gives a zero row
    return Tokens(q, k, v)


def aggregate(
    params: nnkit.MhaParams,
    grid: GridSpec,
    warped: WarpedPlanes,
    ego_cells: np.ndarray,
    tokens: Tokens,
    ego_tokens: np.ndarray,
    sources: Sequence[np.ndarray],
) -> np.ndarray:
    """Attention aggregation over the per-cell token stack [ego, neighbors...].

    The stack acts as queries, keys and values; the output is the ego
    token's attention result, as a fresh (nx, ny, F) plane of `grid`.
    All-zero neighbor tokens carry no signal and are excluded from the
    softmax.  `warped.cells[k]` holds the flat indices of exactly the
    nonzero cells of neighbor k's plane, and `ego_cells` those of the ego's
    BEV.

    Q, K and V come projected in `tokens` (`project_tokens`): row
    `ego_tokens[i]` is the token of cell `ego_cells[i]`, and row
    `sources[k][i]` the token neighbor k wrote to cell `warped.cells[k][i]`.
    Only the cells with a nonzero token are computed; the bias-free maps
    take every other cell's all-zero stack to a zero output.  The slot of a
    token no neighbor sent reads the zero row of `tokens` and gets zero
    softmax weight.  No plane of `warped` is built.
    """
    nx, ny, f = grid.nx, grid.ny, grid.bev_channels
    n_cells = nx * ny
    t = len(warped) + 1
    busy = np.zeros(n_cells, dtype=bool)
    for c in (ego_cells, *warped.cells):
        busy[c] = True
    # Busy cells first, then idle padding, so that the output projection
    # multiplies as many rows as `project_tokens` does.
    n_cells_run = max(int(np.count_nonzero(busy)), _MIN_ATTENTION_CELLS)
    cells = np.argsort(~busy, kind="stable")[:n_cells_run]
    n = cells.size
    slot = np.empty(n_cells, dtype=np.intp)
    slot[cells] = np.arange(n)
    empty = tokens.q.shape[0] - 1  # the zero row
    index = np.full((t, n), empty)
    index[0, slot[ego_cells]] = ego_tokens
    for token, c, src in zip(range(1, t), warped.cells, sources):
        index[token, slot[c]] = src
    valid = index != empty
    valid[0] = True

    h, dh = params.n_heads, params.head_dim
    q = tokens.q[index[0]].reshape(n, h, dh)
    k = tokens.k[index].reshape(t, n, h, dh)
    v = tokens.v[index].reshape(t, n, h, dh)
    scores = np.einsum("chd,tchd->tch", q, k) / np.sqrt(dh)
    scores[~valid] = -np.inf
    weights = nnkit.softmax(scores, axis=0)
    ctx = np.einsum("tch,tchd->chd", weights, v).reshape(n, f)
    result = params.wo.apply(ctx)
    out = np.zeros((n_cells, f))
    out[cells] = result
    return out.reshape(nx, ny, f)


def aggregate_max(
    grid: GridSpec,
    warped: WarpedPlanes,
    ego_cells: np.ndarray,
    ego_rows: np.ndarray,
) -> np.ndarray:
    """Ablation baseline: elementwise max over the token stack [ego, neighbors...].

    As in `aggregate`, all-zero neighbor tokens carry no signal and take no
    part, so only the cells neighbor k wrote, `warped.cells[k]`, are
    compared, with the message rows it wrote there; no plane of `warped` is
    built.  The ego's BEV is its nonzero cells `ego_cells` and their
    `ego_rows`; every other ego cell is +0.0.  The result is a fresh
    (nx, ny, F) plane of `grid`.
    """
    out = _plane(grid, ego_cells, ego_rows)
    rows = out.reshape(-1, grid.bev_channels)
    for k, cells in enumerate(warped.cells):
        rows[cells] = np.maximum(rows[cells], warped.features(k))
    return out


def aggregate_concat(
    lin: nnkit.LinearMap,
    grid: GridSpec,
    warped: Sequence[np.ndarray],
    ego_cells: np.ndarray,
    ego_rows: np.ndarray,
) -> np.ndarray:
    """Ablation baseline: channel-concatenate a fixed token budget + linear.

    The ego's BEV (nonzero cells `ego_cells`, their `ego_rows`) and the
    first neighbors' planes of `warped` are spread into dense planes of
    `grid` first.
    """
    toks = [_plane(grid, ego_cells, ego_rows)]
    toks += [np.asarray(w, dtype=np.float64) for w in warped[: _CONCAT_SLOTS - 1]]
    while len(toks) < _CONCAT_SLOTS:
        toks.append(np.zeros_like(toks[0]))
    return lin.apply(np.concatenate(toks, axis=2))


@dataclass
class AgentRound:
    """One agent's record of a round: the stages fill it in, in order, and
    `run_round` returns it.

    A field is set back to None once its last reader is done, so that a
    round holds no agent's sensor data or token rows longer than it needs
    them: `images`, `cloud_sensor` and `shared` at the end of `_perceive`,
    `cloud` after phase 1, `token_rows` and `sent_rows` at the end of the
    round.  The records `run_round` returns keep the rest: `state`,
    `neighbors`, `lidar_grid`, `detections`, `rel`, `pose_errors`,
    `depth_map`, `bev_cells`, `bev_rows`, `mask`, `message`,
    `aggregated_cells`, `aggregated_rows` and `warp_collisions`.  No field
    holds a whole (nx, ny, F) plane; `aggregated` builds one on request.
    """

    state: AgentState
    neighbors: tuple[int, ...]
    lidar_grid: VoxelGrid  # the voxelized LiDAR cloud; empty without a LiDAR
    cloud_sensor: Optional[np.ndarray] = None  # LiDAR hits, sensor frame
    cloud: Optional[np.ndarray] = None  # the same hits, agent frame
    images: Optional[tuple[np.ndarray, np.ndarray]] = None  # camera depth, features
    detections: list = field(default_factory=list)
    rel: dict[int, Pose] = field(default_factory=dict)  # neighbor -> pose used
    # per neighbor id: (error of believed rel pose, error of the pose used)
    pose_errors: dict[int, tuple[tuple[float, float], tuple[float, float]]] = field(
        default_factory=dict
    )
    # phase-1 replies, one (pixel indices, depths) pair per LiDAR neighbor
    shared: Optional[list[tuple[np.ndarray, np.ndarray]]] = field(default_factory=list)
    depth_map: Optional[DepthMap] = None
    bev_cells: Optional[np.ndarray] = None  # own BEV: flat indices of its nonzero cells, ascending
    bev_rows: Optional[np.ndarray] = None  # (n, F): the BEV row of each of `bev_cells`
    mask: Optional[np.ndarray] = None
    message: Optional[Message] = None
    token_rows: Optional[np.ndarray] = None  # round token row of each of `bev_cells`
    sent_rows: Optional[np.ndarray] = None  # round token row of each message row
    # post-collaboration BEV: flat indices of its nonzero cells, ascending
    aggregated_cells: Optional[np.ndarray] = None
    aggregated_rows: Optional[np.ndarray] = None  # (n, F): the row of each of `aggregated_cells`
    warp_collisions: int = 0

    @property
    def aggregated(self) -> np.ndarray:
        """The post-collaboration BEV as a fresh (nx, ny, F) plane: the
        `aggregated_rows` at the `aggregated_cells`, zeros elsewhere.  No
        stage reads it."""
        return _plane(self.lidar_grid.spec, self.aggregated_cells, self.aggregated_rows)


def _sense(
    agent: AgentState,
    neighbors: tuple[int, ...],
    objects: Sequence[BoxObject],
    occluders: Sequence[Wall],
    scenario: ScenarioConfig,
    pipe: PipelineConfig,
) -> AgentRound:
    """Capture the agent's sensors and voxelize its LiDAR cloud."""
    if not agent.has_lidar:
        record = AgentRound(agent, neighbors, VoxelGrid.empty(pipe.grid))
    else:
        pts = simulate_lidar(
            agent, objects, occluders, scenario.lidar, lidar_rng(scenario.seed, agent.id)
        )
        cloud = transform_points(DEFAULT_LIDAR_MOUNT, pts)
        grid = voxelize_points(cloud, pipe.grid)
        record = AgentRound(agent, neighbors, grid, cloud_sensor=pts, cloud=cloud)
    if agent.has_camera and pipe.fusion_mode != "none":
        record.images = simulate_camera(
            agent, objects, occluders, scenario.camera, pipe.grid.channels
        )
    return record


def _relative_poses(
    rounds: dict[int, AgentRound], pipe: PipelineConfig, ledger: RoundLedger
) -> None:
    """Set the relative pose each agent uses per neighbor, and its error.

    With `robust`, connected LiDAR agents share their local detections and
    each believed relative pose between two of them is corrected by
    matching them.  A neighbor sends only its box centers, which is all the
    corrector reads; the receiver moves them into its frame with the
    believed pose.  An agent without LiDAR has no detections to send or to
    match against, so its edges send none.  Each agent's believed and true
    poses are inverted once, not once per edge.
    """
    lidar = {aid for aid, w in rounds.items() if w.state.has_lidar}
    if pipe.robust:
        for w in rounds.values():
            if w.state.id in lidar and lidar.intersection(w.neighbors):
                occupancy = occupancy_from_grid(w.lidar_grid)
                w.detections = detect_local(occupancy, pipe.grid)
    inverse = {
        aid: (invert(w.state.believed_pose), invert(w.state.true_pose))
        for aid, w in rounds.items()
    }
    for w in rounds.values():
        inv_believed, inv_true = inverse[w.state.id]
        for j in w.neighbors:
            other = rounds[j]
            believed = compose(inv_believed, other.state.believed_pose)
            used = believed
            if pipe.robust and {w.state.id, j} <= lidar:
                nbr = transform_centers([d.center for d in other.detections], believed)
                used = correct_relative_pose(believed, w.detections, nbr, pipe.gate_radius)
                ledger.add(j, w.state.id, "detections", _DETECTION_ELEMENTS * len(nbr))
            truth = compose(inv_true, other.state.true_pose)
            w.rel[j] = used
            w.pose_errors[j] = (
                relative_pose_error(believed, truth),
                relative_pose_error(used, truth),
            )


def _share_clouds(
    rounds: dict[int, AgentRound],
    scenario: ScenarioConfig,
    pipe: PipelineConfig,
    ledger: RoundLedger,
) -> None:
    """Phase 1: each agent with camera images requests depths from each
    LiDAR neighbor.

    The request carries the pose the receiver projects that neighbor with.
    The neighbor downsamples its cloud once, projects it into the
    receiver's image and replies with the pixels the receiver's depth map
    keeps, each once: a pixel's flat index v * W + u and the depth of the
    nearest point there, below d_max, in pixel order.  The receiver's map is
    the one the whole cloud gives, and it projects nothing again.

    A neighbor answers all of its requests in one pass: it stacks the
    payload in each requester's camera frame, projects the stack once and
    keeps the nearest point per (requester, pixel).  Requests, replies and
    `shared` keep the order of the requests.
    """
    if pipe.depth_projection != "all":
        return
    requests = [
        (w, j) for w in rounds.values() if w.images is not None
        for j in w.neighbors if rounds[j].state.has_lidar
    ]
    by_sender: dict[int, list[AgentRound]] = {}
    for w, j in requests:
        by_sender.setdefault(j, []).append(w)
    n_pixels = scenario.camera.height * scenario.camera.width
    replies = {}
    for j, requesters in by_sender.items():
        payload = downsample_cloud(rounds[j].cloud, _PAYLOAD_CELL)
        cams = np.concatenate([
            transform_points(compose(_CAM_FROM_AGENT, w.rel[j]), payload) for w in requesters
        ])
        key, depth, _ = nearest_per_pixel(cams, scenario.camera, pipe.bins, views=len(requesters))
        bounds = np.searchsorted(key, np.arange(1, len(requesters)) * n_pixels)
        parts = zip(requesters, np.split(key % n_pixels, bounds), np.split(depth, bounds))
        for w, pixels, depths in parts:
            replies[w.state.id, j] = (pixels, depths)
    for w, j in requests:
        pixels, depths = replies[w.state.id, j]
        ledger.add(w.state.id, j, "depth", _REQUEST_ELEMENTS)
        ledger.add(j, w.state.id, "depth", _REPLY_ELEMENTS * pixels.size)
        w.shared.append((pixels, depths))


def _perceive(
    w: AgentRound,
    scenario: ScenarioConfig,
    pipe: PipelineConfig,
    params: PipelineParams,
) -> None:
    """Depth -> lift -> fuse -> collapse, then mask and pack the message.

    An agent without camera images fuses an empty camera grid.  Only the
    fused grid's tagged columns can be nonzero in the BEV, because unlisted
    voxels hold zeros, so `collapse` gives only their rows.  Those rows are
    checked one by one; the nonzero ones and their cells are the agent's
    BEV (`w.bev_rows`, `w.bev_cells`), which the importance scores and the
    message read.  The camera images, the LiDAR hits in the sensor frame
    and the phase-1 replies have no reader after this stage and are
    dropped.
    """
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
    w.bev_cells, w.bev_rows = _nonzero_rows(*collapse(fused))
    scores = importance_scores(w.bev_cells, w.bev_rows, pipe.grid)
    w.mask = confidence_mask(scores, preference_map(fused))
    w.message = pack_message(w.bev_cells, w.bev_rows, w.mask)
    w.images = w.cloud_sensor = w.shared = None


def _nonzero_rows(cells: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells whose row holds a nonzero scalar, and those rows."""
    keep = np.any(rows != 0.0, axis=1)
    return cells[keep], rows[keep]


def _aggregated_rows(
    agg: np.ndarray, ego_cells: np.ndarray, written: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero cells of an aggregated plane, ascending, and a copy of
    their rows.

    Every aggregator gives a cell with an all-zero token stack a zero
    output, so only the ego's nonzero cells and the cells neighbors wrote
    can be nonzero; their rows are checked one by one.
    """
    busy = np.zeros(agg.shape[0] * agg.shape[1], dtype=bool)
    for cells in (ego_cells, *written):
        busy[cells] = True
    candidates = np.flatnonzero(busy)
    return _nonzero_rows(candidates, agg.reshape(-1, agg.shape[2])[candidates])


def _project_round_tokens(
    rounds: dict[int, AgentRound], grid: GridSpec, params: nnkit.MhaParams
) -> Tokens:
    """Q, K and V of every agent's nonzero BEV rows, projected once per
    round.  Sets each agent's `token_rows` and `sent_rows`: a message row is
    a nonzero BEV row, so it has a token row too."""
    blocks, start = [], 0
    for w in rounds.values():
        blocks.append(w.bev_rows)
        w.token_rows = np.arange(start, start + w.bev_cells.size)
        start += w.bev_cells.size
        sent = w.message.indices[:, 0] * grid.ny + w.message.indices[:, 1]
        w.sent_rows = w.token_rows[np.searchsorted(w.bev_cells, sent)]
    return project_tokens(params, np.concatenate(blocks), grid.nx * grid.ny)


def _receive(
    w: AgentRound,
    rounds: dict[int, AgentRound],
    pipe: PipelineConfig,
    params: PipelineParams,
    ledger: RoundLedger,
    tokens: Optional[Tokens],
) -> None:
    """Phase 2: warp the neighbors' messages into this agent's frame, in one
    pass, and aggregate them.  Sets `w.aggregated_cells`,
    `w.aggregated_rows` and `w.warp_collisions`.

    The aggregators get the warp as `WarpedPlanes`: attention reads the
    round's `tokens` (`_project_round_tokens`) and max the message rows, so
    neither builds a neighbor's plane.  The aggregated plane is dropped
    once its nonzero rows are taken.
    """
    messages = [rounds[j].message for j in w.neighbors]
    warp = warp_sparse(messages, [w.rel[j] for j in w.neighbors], pipe.grid)
    for j, msg in zip(w.neighbors, messages):
        ledger.add(j, w.state.id, "feature", msg.feature_elements)
    # Each packed row has a nonzero scalar, so the written cells are
    # exactly the nonzero cells of each plane.
    warped = WarpedPlanes(pipe.grid, warp.cells, [m.vectors for m in messages], warp.rows)
    if pipe.collab_mode == "attention":
        sources = [rounds[j].sent_rows[rows] for j, rows in zip(w.neighbors, warp.rows)]
        agg = aggregate(params.agg_mha, pipe.grid, warped, w.bev_cells, tokens,
                        w.token_rows, sources)
    elif pipe.collab_mode == "max":
        agg = aggregate_max(pipe.grid, warped, w.bev_cells, w.bev_rows)
    else:
        agg = aggregate_concat(params.concat_lin, pipe.grid, warped, w.bev_cells, w.bev_rows)
    w.aggregated_cells, w.aggregated_rows = _aggregated_rows(agg, w.bev_cells, warp.cells)
    w.warp_collisions = warp.collisions


def run_round(
    agents: Sequence[AgentState],
    objects: Sequence[BoxObject],
    occluders: Sequence[Wall],
    scenario: ScenarioConfig,
    pipe: PipelineConfig,
    params: PipelineParams,
) -> tuple[dict[int, AgentRound], RoundLedger]:
    """Execute one synchronous perception + communication round.

    Returns each agent's record, keyed and ordered by agent id, and the
    round's ledger.  Degraded agents (dropped sensors) follow identity
    fallbacks instead of aborting; a single agent simply skips both
    exchange phases.
    """
    agents = sorted(agents, key=lambda a: a.id)
    graph = build_comm_graph(agents, scenario.comm_range)
    rounds = {
        a.id: _sense(a, graph[a.id], objects, occluders, scenario, pipe) for a in agents
    }
    ledger = RoundLedger()
    _relative_poses(rounds, pipe, ledger)
    _share_clouds(rounds, scenario, pipe, ledger)
    for w in rounds.values():
        w.cloud = None  # phase 1 was its last reader
        _perceive(w, scenario, pipe, params)
    tokens = None
    if pipe.collab_mode == "attention":
        tokens = _project_round_tokens(rounds, pipe.grid, params.agg_mha)
    for w in rounds.values():
        _receive(w, rounds, pipe, params, ledger, tokens)
    for w in rounds.values():
        w.token_rows = w.sent_rows = None
    return rounds, ledger
