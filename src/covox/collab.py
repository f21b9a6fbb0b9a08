"""Modality-guided collaboration: preference thresholds, importance masking,
sparse message packing, BEV warping, attention aggregation and the
synchronous two-phase exchange round.

`run_round` runs five stages in lockstep over one record per agent, an
`AgentRound`, and returns the records the stages filled:

1. sense — LiDAR capture and voxelization;
2. relative poses — believed relative poses, optionally corrected by
   matching the local detections that two LiDAR agents share.  Believed
   poses are read from the agent states: they are not sent in any message
   and not charged;
3. phase 1 — with cooperative depth, each agent that will render its
   camera sends each LiDAR neighbor a request carrying the pose it projects
   that neighbor with.  The neighbor projects its downsampled cloud into
   the requester's image and replies with the pixels the requester's depth
   map would fill from it, as per-bin pixel lists: the depth bin each pixel
   falls in, which is all the requester reads, and no depth.  A sender
   answers all of its requesters in one pass;
4. perceive — camera render, cooperative depth, camera lift, modal fusion,
   the collapse to BEV rows, then the confidence mask and the sparse
   message.  Each agent's camera images live only while it perceives, so a
   round holds one agent's at a time.  An agent's BEV is its nonzero rows
   and their cells (`bev_rows`, `bev_cells`); no stage before the
   aggregation builds an (nx, ny, F) plane of it;
5. phase 2 / receive — each agent warps all of its neighbors' messages
   into its own frame in one pass, as the cells they land on and the
   message rows written there (`WarpedPlanes`), and aggregates them on
   the cells the ego or a neighbor holds.  Attention reads Q, K and V from
   one projection per round of every agent's nonzero BEV rows, and max
   reads the message rows; each returns the aggregated BEV as its nonzero
   cells and their rows (`AggregatedBEV`), which the record keeps
   (`aggregated_cells`, `aggregated_rows`) and scoring reads.  No stage
   builds an (nx, ny, F) plane: only the two views that the benchmark's
   checks read do, a neighbor's plane of `WarpedPlanes` and
   `AgentRound.aggregated`.

Every list of BEV cells is flat and ascending: cell (ix, iy) is
ix * ny + iy.  `bev_cells`, a message's `indices`, the warp's `cells` and
`aggregated_cells` all take that form.

The `RoundLedger` is the only place communication is counted, per edge and
phase, in the order detections, depth, feature.  Each exchange sends only
the scalars its receiver reads.  Detections and phase-1 replies are
charged every scalar, pixel index included: a `detections` record 2 per
box (its centre), a `depth` record either a request (the receiver's planar
pose for the edge, 3 scalars, receiver to neighbor) or the neighbor's reply
to it (D + P for D depth bins and P pixels: its per-bin pixel counts and
the pixel indices; a reply without pixels is not sent and charged 0).  A
`feature` record is charged the message's nonzero values, not the indices
of its cells.
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
    DepthReply,
    UniformPredictor,
    encode_replies,
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
from .voxel import (
    Category,
    GridSpec,
    VoxelGrid,
    _union,
    categorize,
    collapse,
    lift_camera,
    voxelize_points,
)

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

_AGG_HEADS = 4
_CONCAT_SLOTS = 4  # token budget of the concat aggregation ablation

_CAM_FROM_AGENT = invert(DEFAULT_CAMERA_MOUNT)
_CAM_FROM_LIDAR = compose(_CAM_FROM_AGENT, DEFAULT_LIDAR_MOUNT)

FUSION_MODES = ("none", "equal", "biased")
DEPTH_PROJECTIONS = ("no", "ego", "all")
COLLAB_MODES = ("max", "concat", "attention")


@dataclass
class Message:
    """One broadcast payload: the sender's masked sparse BEV cells, as flat
    indices into its own grid, and their rows.

    It carries no pose: a receiver reads the sender's believed pose from the
    agent states, and the ledger charges only `feature_elements`.
    """

    indices: np.ndarray  # (K,) flat BEV cells, ascending
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


@dataclass(frozen=True, eq=False)
class WarpedPlanes(Sequence):
    """Neighbor messages warped into a receiver's lattice, as a read-only
    sequence of (nx, ny, F) planes of `spec`.  Plane k holds the rows
    `vectors[k][rows[k]]` at the cells `cells[k]` and zeros elsewhere; it
    is built afresh each time it is read, so that only a reader that wants
    whole planes pays for them.  `collisions` counts the message rows a
    later row overwrote on a shared cell, and `dropped` those that landed
    outside the grid."""

    spec: GridSpec
    cells: Sequence[np.ndarray]  # per neighbor: flat indices of the written cells, ascending
    vectors: Sequence[np.ndarray]  # per neighbor: its message's (K, F) rows
    rows: Sequence[np.ndarray]  # per neighbor: the row of `vectors[k]` written to each cell
    collisions: int
    dropped: int

    def __len__(self) -> int:
        return len(self.cells)

    def features(self, k: int) -> np.ndarray:
        """The (n, F) rows neighbor k wrote, one per cell of `cells[k]`."""
        return self.vectors[k][self.rows[k]]

    def __getitem__(self, k: int) -> np.ndarray:
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
        if not (self.mass_threshold >= 0 and self.gate_radius >= 0):
            raise ValueError("mass_threshold and gate_radius must be non-negative")
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
    if not comm_range > 0:
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
    keep = np.asarray(mask).reshape(-1)[cells] == 1
    vecs = rows[keep]
    return Message(
        indices=cells[keep],
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
) -> WarpedPlanes:
    """Resample each message's sparse cells into the receiver's BEV lattice.

    Message k's flat cells, read on the lattice of `spec`, have their
    centers mapped through the planar part of `rel_poses[k]` to the
    containing cell of the receiver's grid; on collision the later entry
    wins (collisions are counted), out-of-grid cells are dropped.  All
    messages go in one pass, keyed on message x cell.  Nothing is written:
    the result lists, per message, the flat cells it lands on, ascending,
    and the message row that lands on each.
    """
    vectors = [m.vectors for m in messages]
    if not messages:
        return WarpedPlanes(spec, [], vectors, [], 0, 0)
    n_cells = spec.nx * spec.ny
    sizes = [m.indices.size for m in messages]
    starts = np.cumsum([0] + sizes)
    indices = np.concatenate([m.indices for m in messages])
    plane = np.repeat(np.arange(len(messages)), sizes)
    x, y, yaw = np.array([planar_parts(p) for p in rel_poses]).T
    # cos and sin of each yaw on its own, as a single message takes them.
    c = np.array([np.cos(a) for a in yaw])
    s = np.array([np.sin(a) for a in yaw])
    c, s, x, y = (a[plane] for a in (c, s, x, y))
    centers = spec.bev_cell_centers(indices // spec.ny, indices % spec.ny)
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
    return WarpedPlanes(spec, cells, vectors, rows, int(key.size - uniq.size),
                        int(ix.size - inside.size))


def project_tokens(params: nnkit.MhaParams, rows: np.ndarray) -> Tokens:
    """Q, K and V of `rows`, the token rows of a round, and of a zero row
    after them."""
    q, k, v = (np.vstack([lin.apply(rows), np.zeros((1, params.dim))])
               for lin in (params.wq, params.wk, params.wv))
    return Tokens(q, k, v)


@dataclass(frozen=True, eq=False)
class AggregatedBEV:
    """An aggregator's result: the nonzero cells of the aggregated BEV, flat
    and ascending, and their (n, F) rows.  `shape` is the (nx, ny, F) of the
    grid's planes, the shape the BEV would take as one."""

    cells: np.ndarray
    rows: np.ndarray
    shape: tuple[int, int, int]


def _aggregated_bev(grid: GridSpec, cells: np.ndarray, rows: np.ndarray) -> AggregatedBEV:
    """The `AggregatedBEV` of candidate `cells` and their `rows`: only the
    rows with a nonzero scalar are kept."""
    cells, rows = _nonzero_rows(cells, rows)
    return AggregatedBEV(cells, rows, (grid.nx, grid.ny, grid.bev_channels))


def aggregate(
    params: nnkit.MhaParams,
    grid: GridSpec,
    warped: WarpedPlanes,
    ego_cells: np.ndarray,
    tokens: Tokens,
    ego_tokens: np.ndarray,
    sources: Sequence[np.ndarray],
) -> AggregatedBEV:
    """Attention aggregation over the per-cell token stack [ego, neighbors...].

    The stack acts as queries, keys and values; the output is the ego
    token's attention result.  All-zero neighbor tokens carry no signal and
    are excluded from the softmax.  `warped.cells[k]` holds the flat indices
    of exactly the nonzero cells of neighbor k's plane, and `ego_cells`
    those of the ego's BEV.

    Q, K and V come projected in `tokens` (`project_tokens`): row
    `ego_tokens[i]` is the token of cell `ego_cells[i]`, and row
    `sources[k][i]` the token neighbor k wrote to cell `warped.cells[k][i]`.
    Only the cells with a nonzero token are computed; the bias-free maps
    take every other cell's all-zero stack to a zero output.  The slot of a
    token no neighbor sent reads the zero row of `tokens` and gets zero
    softmax weight.  No plane of `warped` is built.
    """
    t = len(warped) + 1
    cells, at = _union([ego_cells, *warped.cells])
    n = cells.size
    empty = tokens.q.shape[0] - 1  # the zero row
    index = np.full((t, n), empty)
    for token, pos, src in zip(index, at, [ego_tokens, *sources]):
        token[pos] = src
    valid = index != empty
    valid[0] = True

    h, dh = params.n_heads, params.head_dim
    q = tokens.q[index[0]].reshape(n, h, dh)
    k = tokens.k[index].reshape(t, n, h, dh)
    v = tokens.v[index].reshape(t, n, h, dh)
    scores = np.einsum("chd,tchd->tch", q, k) / np.sqrt(dh)
    scores[~valid] = -np.inf
    weights = nnkit.softmax(scores, axis=0)
    ctx = np.einsum("tch,tchd->chd", weights, v).reshape(n, grid.bev_channels)
    return _aggregated_bev(grid, cells, params.wo.apply(ctx))


def aggregate_max(
    grid: GridSpec,
    warped: WarpedPlanes,
    ego_cells: np.ndarray,
    ego_rows: np.ndarray,
) -> AggregatedBEV:
    """Ablation baseline: elementwise max over the token stack [ego, neighbors...].

    As in `aggregate`, all-zero neighbor tokens carry no signal and take no
    part, so only the cells neighbor k wrote, `warped.cells[k]`, are
    compared, with the message rows it wrote there; no plane of `warped` is
    built.  The ego's BEV is its nonzero cells `ego_cells` and their
    `ego_rows`; every other ego cell is +0.0.  The max runs on the rows of
    the cells the ego or a neighbor holds.
    """
    cells, (ego_at, *at) = _union([ego_cells, *warped.cells])
    rows = np.zeros((cells.size, grid.bev_channels))
    rows[ego_at] = ego_rows
    for k, pos in enumerate(at):
        rows[pos] = np.maximum(rows[pos], warped.features(k))
    return _aggregated_bev(grid, cells, rows)


def aggregate_concat(
    lin: nnkit.LinearMap,
    grid: GridSpec,
    warped: WarpedPlanes,
    ego_cells: np.ndarray,
    ego_rows: np.ndarray,
) -> AggregatedBEV:
    """Ablation baseline: channel-concatenate a fixed token budget + linear.

    The slots hold the ego's BEV (nonzero cells `ego_cells`, their
    `ego_rows`), the rows the first neighbors of `warped` wrote, and zeros.
    Only the cells the ego or one of those neighbors holds are mapped, as
    one (n, slots x F) row stack.
    """
    sent = min(len(warped), _CONCAT_SLOTS - 1)
    cells, at = _union([ego_cells, *warped.cells[:sent]])
    stack = np.zeros((cells.size, _CONCAT_SLOTS, grid.bev_channels))
    for slot, (pos, rows) in enumerate(zip(at, [ego_rows, *map(warped.features, range(sent))])):
        stack[pos, slot] = rows
    return _aggregated_bev(grid, cells, lin.apply(stack.reshape(-1, lin.n_in)))


@dataclass
class AgentRound:
    """One agent's record of a round: the stages fill it in, in order, and
    `run_round` returns it.

    A field is set back to None once its last reader is done, so that a
    round holds no agent's sensor data or token rows longer than it needs
    them: `cloud_sensor` and `shared` at the end of `_perceive`,
    `cloud` after phase 1, `token_rows` and `sent_rows` at the end of the
    round.  The records `run_round` returns keep the rest: `state`,
    `neighbors`, `lidar_grid`, `detections`, `rel`, `pose_errors`,
    `depth_map`, `bev_cells`, `bev_rows`, `mask`, `message`,
    `aggregated_cells`, `aggregated_rows` and `warp_collisions`.  No field
    holds a whole (nx, ny, F) plane, and no stage builds one; `aggregated`
    builds one on request, for the benchmark's checks.  No field holds
    camera images: `_perceive` renders them and drops them.
    """

    state: AgentState
    neighbors: tuple[int, ...]
    lidar_grid: VoxelGrid  # the voxelized LiDAR cloud; empty without a LiDAR
    cloud_sensor: Optional[np.ndarray] = None  # LiDAR hits, sensor frame
    cloud: Optional[np.ndarray] = None  # the same hits, agent frame
    detections: list = field(default_factory=list)
    rel: dict[int, Pose] = field(default_factory=dict)  # neighbor -> pose used
    # per neighbor id: (error of believed rel pose, error of the pose used)
    pose_errors: dict[int, tuple[tuple[float, float], tuple[float, float]]] = field(
        default_factory=dict
    )
    # phase-1 replies, one per LiDAR neighbor
    shared: Optional[list[DepthReply]] = field(default_factory=list)
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
    """Capture the agent's LiDAR and voxelize its cloud.  The camera is
    rendered later, by `_perceive`."""
    if not agent.has_lidar:
        return AgentRound(agent, neighbors, VoxelGrid.empty(pipe.grid))
    pts = simulate_lidar(
        agent, objects, occluders, scenario.lidar, lidar_rng(scenario.seed, agent.id)
    )
    cloud = transform_points(DEFAULT_LIDAR_MOUNT, pts)
    grid = voxelize_points(cloud, pipe.grid)
    return AgentRound(agent, neighbors, grid, cloud_sensor=pts, cloud=cloud)


def _renders_camera(agent: AgentState, pipe: PipelineConfig) -> bool:
    """Whether the agent renders its camera in a round: it carries one and
    the pipeline fuses camera features.  Phase 1 requests depths for
    exactly these agents, and `_perceive` renders for them."""
    return agent.has_camera and pipe.fusion_mode != "none"


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
                w.detections = detect_local(*occupancy_from_grid(w.lidar_grid), pipe.grid)
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
    """Phase 1: each agent that will render its camera (`_renders_camera`)
    requests depths from each LiDAR neighbor.  No image exists yet: the
    request and the reply depend only on the camera's intrinsics, so
    `_perceive` renders it afterwards.

    The request carries the pose the receiver projects that neighbor with.
    The neighbor downsamples its cloud once, projects it into the
    receiver's image and finds the pixels the receiver's depth map keeps,
    each once, with the depth of the nearest point there, below d_max.  The
    receiver's map reads only the bin of that depth, so the reply is a
    `DepthReply`: per-bin pixel counts and the flat pixel indices
    v * W + u, bin by bin and in pixel order within a bin.  It is charged
    D + P scalars, and a reply without pixels 0.  The receiver's map is the
    one the whole cloud gives, and it projects nothing again.

    A neighbor answers all of its requests in one pass: it stacks the
    payload in each requester's camera frame, projects the stack once,
    keeps the nearest point per (requester, pixel) and encodes every reply
    at once (`encode_replies`).  Requests, replies and `shared` keep the
    order of the requests.
    """
    if pipe.depth_projection != "all":
        return
    requests = [
        (w, j) for w in rounds.values() if _renders_camera(w.state, pipe)
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
        key, depth = nearest_per_pixel(cams, scenario.camera, pipe.bins, views=len(requesters))
        encoded = encode_replies(key, depth, pipe.bins, n_pixels, views=len(requesters))
        for w, reply in zip(requesters, encoded):
            replies[w.state.id, j] = reply
    for w, j in requests:
        reply = replies[w.state.id, j]
        ledger.add(w.state.id, j, "depth", _REQUEST_ELEMENTS)
        ledger.add(j, w.state.id, "depth", reply.elements)
        w.shared.append(reply)


def _perceive(
    w: AgentRound,
    objects: Sequence[BoxObject],
    occluders: Sequence[Wall],
    scenario: ScenarioConfig,
    pipe: PipelineConfig,
    params: PipelineParams,
) -> None:
    """Render -> depth -> lift -> fuse -> collapse, then mask and pack the
    message.

    An agent that renders its camera (`_renders_camera`) renders it here,
    and its images are dropped when this stage returns, so a round holds
    one agent's images at a time.  Any other agent fuses an empty camera
    grid.  Only the fused grid's tagged columns can be nonzero in the BEV,
    because unlisted voxels hold zeros, so `collapse` gives only their rows.
    Those rows are checked one by one; the nonzero ones and their cells are
    the agent's BEV (`w.bev_rows`, `w.bev_cells`), which the importance
    scores and the message read.  The LiDAR hits in the sensor frame and
    the phase-1 replies have no reader after this stage and are dropped.
    """
    camera_grid = VoxelGrid.empty(pipe.grid)
    if _renders_camera(w.state, pipe):
        depth_img, feat_img = simulate_camera(
            w.state, objects, occluders, scenario.camera, pipe.grid.channels
        )
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
    w.cloud_sensor = w.shared = None


def _nonzero_rows(cells: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells whose row holds a nonzero scalar, and those rows."""
    keep = np.any(rows != 0.0, axis=1)
    return cells[keep], rows[keep]


def _project_round_tokens(rounds: dict[int, AgentRound], params: nnkit.MhaParams) -> Tokens:
    """Q, K and V of every agent's nonzero BEV rows, projected once per
    round.  Sets each agent's `token_rows` and `sent_rows`: a message row is
    a nonzero BEV row, so it has a token row too."""
    blocks, start = [], 0
    for w in rounds.values():
        blocks.append(w.bev_rows)
        w.token_rows = np.arange(start, start + w.bev_cells.size)
        start += w.bev_cells.size
        w.sent_rows = w.token_rows[np.searchsorted(w.bev_cells, w.message.indices)]
    return project_tokens(params, np.concatenate(blocks))


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

    Attention reads the round's `tokens` (`_project_round_tokens`), and max
    and concat the message rows; none builds a neighbor's plane.  Each
    packed row has a nonzero scalar, so the cells the warp writes are
    exactly the nonzero cells of each plane.  The record keeps the
    aggregator's cells and rows as they come.
    """
    messages = [rounds[j].message for j in w.neighbors]
    warped = warp_sparse(messages, [w.rel[j] for j in w.neighbors], pipe.grid)
    for j, msg in zip(w.neighbors, messages):
        ledger.add(j, w.state.id, "feature", msg.feature_elements)
    if pipe.collab_mode == "attention":
        sources = [rounds[j].sent_rows[rows] for j, rows in zip(w.neighbors, warped.rows)]
        agg = aggregate(params.agg_mha, pipe.grid, warped, w.bev_cells, tokens,
                        w.token_rows, sources)
    elif pipe.collab_mode == "max":
        agg = aggregate_max(pipe.grid, warped, w.bev_cells, w.bev_rows)
    else:
        agg = aggregate_concat(params.concat_lin, pipe.grid, warped, w.bev_cells, w.bev_rows)
    w.aggregated_cells, w.aggregated_rows = agg.cells, agg.rows
    w.warp_collisions = warped.collisions


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
        _perceive(w, objects, occluders, scenario, pipe, params)
    tokens = None
    if pipe.collab_mode == "attention":
        tokens = _project_round_tokens(rounds, params.agg_mha)
    for w in rounds.values():
        _receive(w, rounds, pipe, params, ledger, tokens)
    for w in rounds.values():
        w.token_rows = w.sent_rows = None
    return rounds, ledger
