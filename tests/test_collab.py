import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covox import collab, nnkit
from covox.collab import (
    Message,
    PipelineConfig,
    aggregate,
    aggregate_concat,
    aggregate_max,
    build_comm_graph,
    comm_volume_log,
    confidence_mask,
    dense_ratio,
    downsample_cloud,
    importance_scores,
    make_pipeline_params,
    pack_message,
    preference_map,
    project_tokens,
    run_round,
    warp_sparse,
)
from covox.depth import DepthBins, NoisyOraclePredictor, nearest_per_pixel
from covox.geometry import Pose, compose, invert, transform_points
from covox.robust import correct_relative_pose, transform_detections
from covox.scene import (
    DEFAULT_CAMERA_MOUNT,
    DEFAULT_LIDAR_MOUNT,
    AgentState,
    ScenarioConfig,
    generate_scene,
    lidar_rng,
    simulate_lidar,
)
from covox.voxel import Category, GridSpec

from oracles import (
    aggregate_dense,
    aggregate_max_dense,
    concat_dense,
    dense_zeros,
    equivalent,
    mha,
    nonzero_cells,
    project_cloud_to_depthmap_by_image,
    rows_of,
    share_whole_clouds,
    sparse,
    spec_of,
    warped_of,
)

GRID = GridSpec((-20.0, 20.0), (-20.0, 20.0), (0.5, 3.7), 64, 64, 8, 8)
BINS = DepthBins(1.0, 33.0, 16)
PARAMS = make_pipeline_params(GRID, seed=2024)


def agent_at(aid, x, y, yaw=0.0, **kw):
    pose = Pose.from_planar(x, y, yaw)
    return AgentState(aid, pose, pose, **kw)


class TestCommGraph:
    def test_single_agent(self):
        graph = build_comm_graph([agent_at(0, 0, 0)], 40.0)
        assert graph == {0: ()}

    def test_pair_within_range(self):
        graph = build_comm_graph([agent_at(0, 0, 0), agent_at(1, 10, 0)], 40.0)
        assert graph == {0: (1,), 1: (0,)}

    def test_chain_topology(self):
        agents = [agent_at(0, 0, 0), agent_at(1, 35, 0), agent_at(2, 70, 0)]
        graph = build_comm_graph(agents, 40.0)
        assert graph == {0: (1,), 1: (0, 2), 2: (1,)}

    def test_uses_believed_poses(self):
        drifted = AgentState(1, Pose.from_planar(10, 0, 0), Pose.from_planar(500, 0, 0))
        graph = build_comm_graph([agent_at(0, 0, 0), drifted], 40.0)
        assert graph == {0: (), 1: ()}

    @pytest.mark.parametrize("comm_range", [0.0, -1.0, float("nan")])
    def test_range_must_be_positive(self, comm_range):
        """A NaN range fails the check too, instead of linking no agents."""
        with pytest.raises(ValueError, match="comm_range"):
            build_comm_graph([agent_at(0, 0, 0), agent_at(1, 10, 0)], comm_range)


@pytest.mark.parametrize("field, value", [
    ("mass_threshold", float("nan")), ("mass_threshold", -0.1),
    ("gate_radius", float("nan")), ("gate_radius", -1.0),
])
def test_pipeline_rejects_what_the_loader_rejects(field, value):
    """`mass_threshold` and `gate_radius` must be non-negative numbers, as
    `load_experiment` reads them; an infinity still constructs."""
    with pytest.raises(ValueError, match=field):
        PipelineConfig(grid=GRID, bins=BINS, **{field: value})
    assert getattr(PipelineConfig(grid=GRID, bins=BINS, **{field: np.inf}), field) == np.inf


class TestPreference:
    def _grid_with_column(self, cats):
        spec = GridSpec((-1, 1), (-1, 1), (0, 3), 1, 1, 3, 8)
        feats, category = dense_zeros(spec)
        category[0, 0, :] = cats
        return sparse(spec, feats, category)

    def test_hybrid_column_zero_threshold(self):
        grid = self._grid_with_column([Category.HYBRID, Category.CAMERA, Category.NORMAL])
        assert preference_map(grid)[0, 0] == 0.0

    def test_lidar_column_half_threshold(self):
        grid = self._grid_with_column([Category.LIDAR, Category.NORMAL, Category.NORMAL])
        assert preference_map(grid)[0, 0] == 0.5

    def test_all_normal(self):
        grid = self._grid_with_column([Category.NORMAL] * 3)
        assert preference_map(grid)[0, 0] == 0.5

    def test_uniform_when_no_hybrid(self):
        feats, category = dense_zeros(GRID)
        category[:10, :10, 0] = Category.LIDAR
        category[20:30, 20:30, 1] = Category.CAMERA
        grid = sparse(GRID, feats, category)
        assert np.all(preference_map(grid) == 0.5)


def scores_of(bev):
    """`importance_scores` of an (nx, ny, F) plane."""
    return importance_scores(*rows_of(bev), spec_of(bev))


class TestImportance:
    def test_zero_cell_value(self):
        scores = scores_of(np.zeros((2, 2, 64)))
        assert scores.shape == (2, 2)
        assert np.allclose(scores, 0.26894, atol=1e-5)

    def test_monotone_in_norm(self, rng):
        v = rng.standard_normal(64)
        small = scores_of(v[None, None, :] * 0.5)
        large = scores_of(v[None, None, :] * 5.0)
        assert large[0, 0] > small[0, 0]

    def test_range_open_unit(self, rng):
        scores = scores_of(rng.standard_normal((8, 8, 64)) * 5)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)
        # Extreme norms saturate to 1.0 in float64 but never exceed it.
        assert scores_of(np.full((1, 1, 64), 1e9))[0, 0] <= 1.0


class TestConfidenceMask:
    def test_above_threshold(self):
        mask = confidence_mask(np.array([[0.6]]), np.array([[0.5]]))
        assert mask[0, 0] == 1

    def test_zero_cell_with_zero_threshold(self):
        mask = confidence_mask(scores_of(np.zeros((1, 1, 64))), np.zeros((1, 1)))
        assert mask[0, 0] == 1

    def test_equality_is_excluded(self):
        mask = confidence_mask(np.array([[0.5]]), np.array([[0.5]]))
        assert mask[0, 0] == 0


class TestPackMessage:
    def test_zero_mask_empty(self, rng):
        bev = rng.standard_normal((GRID.nx, GRID.ny, GRID.bev_channels))
        msg = pack_message(*rows_of(bev), np.zeros((GRID.nx, GRID.ny)))
        assert msg.indices.shape[0] == 0
        assert msg.feature_elements == 0

    def test_counts_nonzero_scalars(self):
        bev = np.zeros((GRID.nx, GRID.ny, GRID.bev_channels))
        bev[3, 4, [0, 7, 20]] = 1.5
        mask = np.zeros((GRID.nx, GRID.ny))
        mask[3, 4] = 1
        msg = pack_message(*rows_of(bev), mask)
        assert msg.feature_elements == 3

    def test_full_mask_equals_l0(self, rng):
        bev = np.zeros((GRID.nx, GRID.ny, GRID.bev_channels))
        sparse = rng.uniform(size=bev.shape) < 0.01
        bev[sparse] = rng.standard_normal(int(sparse.sum()))
        msg = pack_message(*rows_of(bev), np.ones((GRID.nx, GRID.ny)))
        assert msg.feature_elements == np.count_nonzero(bev)


class TestCommVolumeLog:
    def test_values(self):
        assert comm_volume_log(8) == 3.0
        assert comm_volume_log(1) == 0.0
        assert comm_volume_log(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            comm_volume_log(-1)


class TestDenseRatio:
    def test_dense_volume_per_directed_edge(self):
        per_edge = GRID.nx * GRID.ny * GRID.nz * GRID.channels
        assert dense_ratio(2, GRID, per_edge) == 2.0
        assert dense_ratio(1, GRID, 1024) == 256.0

    def test_nothing_sent_is_zero(self):
        assert dense_ratio(0, GRID, 0) == 0.0  # no edges
        assert dense_ratio(6, GRID, 0) == 0.0  # edges, but every message empty

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dense_ratio(-1, GRID, 10)
        with pytest.raises(ValueError):
            dense_ratio(1, GRID, -10)


def as_message(indices, vectors, spec):
    """A message of the (ix, iy) cells `indices`, sent as flat cells."""
    vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, spec.bev_channels)
    ix, iy = np.asarray(indices).reshape(-1, 2).T
    return Message(ix * spec.ny + iy, vectors, int(np.count_nonzero(vectors)))


def warp_into_zeros(indices, vectors, rel_pose, spec):
    """The plane that `WarpedPlanes` builds of one warped message, and the
    `WarpedPlanes` of that message."""
    res = warp_sparse([as_message(indices, vectors, spec)], [rel_pose], spec)
    return res[0], res


class TestWarp:
    def _sparse(self, rng, k=40):
        idx = np.unique(rng.integers(5, 60, (k, 2)), axis=0)
        vecs = rng.standard_normal((idx.shape[0], GRID.bev_channels))
        return idx, vecs

    def test_identity_densifies_losslessly(self, rng):
        idx, vecs = self._sparse(rng)
        bev, res = warp_into_zeros(idx, vecs, Pose(np.eye(4)), GRID)
        dense = np.zeros((GRID.nx, GRID.ny, GRID.bev_channels))
        dense[idx[:, 0], idx[:, 1]] = vecs
        assert np.array_equal(bev, dense)
        assert res.collisions == 0 and res.dropped == 0

    @pytest.mark.parametrize("pose", [(0.0, 0.0, 0.0), (3.1, -2.0, 0.4), (30.0, -30.0, 2.2)])
    def test_cells_are_the_written_cells(self, rng, pose):
        idx, vecs = self._sparse(rng, k=400)
        bev, res = warp_into_zeros(idx, vecs, Pose.from_planar(*pose), GRID)
        written = np.flatnonzero(np.any(bev.reshape(-1, GRID.bev_channels) != 0, axis=1))
        assert np.array_equal(res.cells[0], written)
        assert np.array_equal(bev.reshape(-1, GRID.bev_channels)[written], vecs[res.rows[0]])

    def test_no_cells_when_nothing_lands(self, rng):
        idx, vecs = self._sparse(rng)
        for _, res in (
            warp_into_zeros(idx[:0], vecs[:0], Pose(np.eye(4)), GRID),
            warp_into_zeros(idx, vecs, Pose.from_translation(500.0, 0.0), GRID),
        ):
            assert res.cells[0].shape == (0,) and res.rows[0].shape == (0,)

    def test_one_pitch_translation_shifts_indices(self, rng):
        idx, vecs = self._sparse(rng)
        bev, _ = warp_into_zeros(idx, vecs, Pose.from_translation(GRID.dx, 0.0), GRID)
        got = np.argwhere(np.any(bev != 0, axis=2))
        expected = idx + np.array([1, 0])
        assert set(map(tuple, got.tolist())) == set(map(tuple, expected.tolist()))

    def test_far_sender_all_dropped(self, rng):
        idx, vecs = self._sparse(rng)
        bev, res = warp_into_zeros(idx, vecs, Pose.from_translation(500.0, 0.0), GRID)
        assert np.all(bev == 0)
        assert res.dropped == idx.shape[0]

    def test_collision_later_writer_wins(self):
        spec = GridSpec((-2, 2), (-2, 2), (0, 1), 4, 4, 1, 8)
        idx = np.array([[0, 0], [0, 1]])
        vecs = np.stack([np.full(8, 1.0), np.full(8, 2.0)])
        # Rotate 90 deg so both source cells land in one destination? Use a
        # shift of one pitch along y instead: cell (0,1) -> (0,2), (0,0) -> (0,1).
        bev, _ = warp_into_zeros(idx, vecs, Pose.from_translation(0.0, spec.dy), spec)
        assert np.all(bev[0, 1] == 1.0) and np.all(bev[0, 2] == 2.0)
        # Genuine collision: scale down so two cells map into one.
        tiny = GridSpec((-2, 2), (-2, 2), (0, 1), 2, 2, 1, 8)
        _, res2 = warp_into_zeros(np.array([[0, 0], [0, 1]]), vecs, Pose(np.eye(4)), tiny)
        assert res2.collisions == 0
        wide = np.array([[0, 0], [1, 0]])
        _, res3 = warp_into_zeros(
            wide, vecs, Pose.from_planar(0.0, 0.0, 0.0), tiny
        )
        assert res3.collisions == 0

    def test_collisions_counted_under_rotation(self, rng):
        idx = np.array([[10, 10], [10, 11], [10, 12], [11, 10]])
        vecs = rng.standard_normal((4, GRID.bev_channels))
        bev, res = warp_into_zeros(idx, vecs, Pose.from_planar(30.0, -30.0, 2.2), GRID)
        written = int(np.count_nonzero(np.any(bev != 0, axis=2)))
        assert written + res.collisions + res.dropped == 4

    def test_relative_pose_of_equal_believed_poses(self, rng):
        idx, vecs = self._sparse(rng)
        pose = Pose.from_planar(5.0, 0.0, 0.0)
        bev, _ = warp_into_zeros(idx, vecs, compose(invert(pose), pose), GRID)
        dense = np.zeros_like(bev)
        dense[idx[:, 0], idx[:, 1]] = vecs
        assert np.array_equal(bev, dense)


def aggregate_planes(params, ego, warped, others=()):
    """`aggregate` over an ego plane and neighbor planes, with Q, K and V
    projected as a round projects them: once, on one stack of the nonzero
    rows of every plane, between the rows of the `others` planes (agents
    outside this receiver's neighborhood).  Returns its `AggregatedBEV`."""
    ego = np.asarray(ego, dtype=np.float64)
    nx, ny, f = ego.shape
    planes = [ego, *warped, *others]
    cells = [nonzero_cells(p) for p in planes]
    blocks = [p.reshape(-1, f)[c] for p, c in zip(planes, cells)]
    order = list(range(len(planes)))[::-1]  # the ego's rows last, others' first
    starts = dict(zip(order, np.cumsum([0] + [blocks[i].shape[0] for i in order])))
    tokens = project_tokens(params, np.concatenate([blocks[i] for i in order]))
    rows = [starts[i] + np.arange(c.size) for i, c in enumerate(cells)]
    n = len(warped) + 1
    spec = spec_of(ego)
    return aggregate(params, spec, warped_of(spec, warped), cells[0], tokens, rows[0], rows[1:n])


def assert_same_rows(got, want_plane):
    """An aggregator's `AggregatedBEV` against a reference's whole plane,
    converted to its nonzero cells and their rows: the same cells, and rows
    within the tolerance of `equivalent`."""
    assert got.shape == np.shape(want_plane)
    assert equivalent((got.cells, got.rows), rows_of(want_plane))


class TestAggregate:
    def test_no_neighbors_matches_single_token_mha(self, rng):
        bev = np.zeros((4, 4, 64))
        bev[rng.uniform(size=(4, 4)) < 0.5] = rng.standard_normal(64)
        out = aggregate_planes(PARAMS.agg_mha, bev, [])
        ref = np.zeros_like(bev)
        for i in range(4):
            for j in range(4):
                ref[i, j] = mha(
                    PARAMS.agg_mha, bev[i, j][None], bev[i, j][None], bev[i, j][None]
                )[0][0]
        assert_same_rows(out, ref)

    def test_identical_neighbor_equals_single(self, rng):
        bev = rng.standard_normal((4, 4, 64))
        out_pair = aggregate_planes(PARAMS.agg_mha, bev, [bev.copy()])
        out_single = aggregate_planes(PARAMS.agg_mha, bev, [])
        assert np.array_equal(out_pair.cells, out_single.cells)
        assert np.allclose(out_pair.rows, out_single.rows, atol=1e-9)

    def test_zero_neighbor_excluded_bit_exact(self, rng):
        bev = rng.standard_normal((6, 6, 64))
        out_zero = aggregate_planes(PARAMS.agg_mha, bev, [np.zeros_like(bev)])
        out_none = aggregate_planes(PARAMS.agg_mha, bev, [])
        assert np.array_equal(out_zero.cells, out_none.cells)
        assert out_zero.rows.tobytes() == out_none.rows.tobytes()

    def test_neighbor_signal_reaches_empty_ego_cell(self, rng):
        bev = np.zeros((4, 4, 64))
        nbr = np.zeros((4, 4, 64))
        nbr[2, 2] = rng.standard_normal(64)
        out = aggregate_planes(PARAMS.agg_mha, bev, [nbr])
        assert np.array_equal(out.cells, [2 * 4 + 2])
        assert np.linalg.norm(out.rows[0]) > 0

    def test_shape_preserved(self, rng):
        bev = rng.standard_normal((5, 7, 64))
        assert aggregate_planes(PARAMS.agg_mha, bev, [bev]).shape == bev.shape

    def test_max_and_concat_variants(self, rng):
        bev = rng.standard_normal((4, 4, 64))
        nbr = rng.standard_normal((4, 4, 64))
        spec, ego = spec_of(bev), rows_of(bev)
        out_max = aggregate_max(spec, warped_of(spec, [nbr]), *ego)  # every cell busy
        assert_same_rows(out_max, np.maximum(bev, nbr))
        out_cat = aggregate_concat(PARAMS.concat_lin, spec, warped_of(spec, [nbr]), *ego)
        assert_same_rows(out_cat, concat_dense(PARAMS.concat_lin, spec, [nbr], *ego))

    @pytest.mark.parametrize("mode", collab.COLLAB_MODES)
    @pytest.mark.parametrize("shape, n_neighbors", [((3, 2), 2), ((4, 5), 0), ((9, 9), 0)],
                             ids=["grid-under-64-cells", "no-neighbors", "no-neighbors-81-cells"])
    def test_rows_match_dense(self, rng, mode, shape, n_neighbors):
        """Every aggregator returns the nonzero cells of the dense result and
        their rows, on a grid under 64 cells and for an agent without
        neighbors; an all-zero ego cell stays out."""
        ego, *warped = _sparse_planes(rng, 1 + n_neighbors, shape + (GRID.bev_channels,), 0.3)
        spec, rows = spec_of(ego), rows_of(ego)
        if mode == "attention":
            got = aggregate_planes(PARAMS.agg_mha, ego, warped)
            want = aggregate_dense(PARAMS.agg_mha, spec, warped, *rows)
        elif mode == "max":
            got = aggregate_max(spec, warped_of(spec, warped), *rows)
            want = aggregate_max_dense(spec, warped, *rows)
        else:
            got = aggregate_concat(PARAMS.concat_lin, spec, warped_of(spec, warped), *rows)
            want = concat_dense(PARAMS.concat_lin, spec, warped, *rows)
        assert_same_rows(got, want)
        assert 0 < got.cells.size < shape[0] * shape[1]


def _sparse_planes(rng, n, shape, density):
    """`n` BEV planes whose cells are nonzero with probability `density`."""
    return [
        rng.standard_normal(shape) * (rng.uniform(size=shape[:2] + (1,)) < density)
        for _ in range(n)
    ]


class TestAggregateOracle:
    """`aggregate` computes only cells with a nonzero token; it must give the
    dense reference's cells, and its rows within the tolerance."""

    SHAPE = (16, 16, GRID.bev_channels)

    @pytest.fixture(params=[pytest.param(PARAMS.agg_mha, id="unbiased")])
    def mha(self, request):
        return request.param

    def _check(self, mha, ego, warped):
        got = aggregate_planes(mha, ego, warped)
        assert_same_rows(got, aggregate_dense(mha, spec_of(ego), warped, *rows_of(ego)))

    def test_no_neighbors(self, rng, mha):
        (ego,) = _sparse_planes(rng, 1, self.SHAPE, 0.3)
        self._check(mha, ego, [])

    def test_all_zero_neighbor_planes(self, rng, mha):
        (ego,) = _sparse_planes(rng, 1, self.SHAPE, 0.3)
        self._check(mha, ego, [np.zeros(self.SHAPE), np.zeros(self.SHAPE)])

    def test_one_active_cell(self, rng, mha):
        # One busy cell: a product of one row.
        ego, nbr = np.zeros(self.SHAPE), np.zeros(self.SHAPE)
        ego[5, 9] = rng.standard_normal(self.SHAPE[2])
        nbr[5, 9] = rng.standard_normal(self.SHAPE[2])
        self._check(mha, ego, [np.zeros(self.SHAPE), nbr])

    def test_every_cell_active(self, rng, mha):
        ego, nbr = _sparse_planes(rng, 2, self.SHAPE, 1.0)
        self._check(mha, ego, [nbr])

    def test_random_sparse_stack(self, rng, mha):
        ego, *warped = _sparse_planes(rng, 8, self.SHAPE, 0.05)
        self._check(mha, ego, warped)

    def test_grid_smaller_than_padding(self, rng, mha):
        ego, *warped = _sparse_planes(rng, 3, (3, 2, GRID.bev_channels), 0.5)
        self._check(mha, ego, warped)


WRITES = st.sampled_from(["none", "one", "some", "all"])


def _written_plane(rng, shape, writes):
    """A neighbor plane in which no cell, one cell, a random subset or every
    cell was written."""
    plane = np.zeros(shape)
    on = np.zeros(shape[:2], dtype=bool)
    if writes == "one":
        on[rng.integers(shape[0]), rng.integers(shape[1])] = True
    elif writes == "some":
        on = rng.uniform(size=shape[:2]) < 0.2
    elif writes == "all":
        on[...] = True
    plane[on] = rng.standard_normal((int(on.sum()), shape[2]))
    return plane


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    ego_density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    writes=st.lists(WRITES, max_size=4),
    others=st.lists(WRITES, max_size=3),
)
@example(seed=1, shape=(9, 9), ego_density=0.0, writes=["none", "one", "all"], others=[])
@example(seed=2, shape=(12, 12), ego_density=0.0, writes=[], others=[])
@example(seed=3, shape=(2, 3), ego_density=0.0, writes=["one", "none"], others=["all"])
@example(seed=4, shape=(1, 1), ego_density=1.0, writes=["all"], others=["all", "all"])
@example(seed=5, shape=(8, 8), ego_density=0.05, writes=["one"], others=[])
@settings(max_examples=80, deadline=None)
def test_aggregate_matches_dense_for_any_writes(seed, shape, ego_density, writes, others):
    """Q, K and V are projected once per round, on a stack of the nonzero
    rows of every agent, the receiver's, its neighbors' and others'; the
    result must still be the dense stack's, on grids of 1 to 144 cells
    alike, whether no, one, some or every cell was written."""
    rng = np.random.default_rng(seed)
    params = PARAMS.agg_mha
    shape = shape + (GRID.bev_channels,)
    ego = np.zeros(shape)
    busy = rng.uniform(size=shape[:2]) < ego_density
    ego[busy] = rng.standard_normal((int(busy.sum()), shape[2]))
    warped = [_written_plane(rng, shape, w) for w in writes]
    rest = [_written_plane(rng, shape, w) for w in others]
    got = aggregate_planes(params, ego, warped, rest)
    assert_same_rows(got, aggregate_dense(params, spec_of(ego), warped, *rows_of(ego)))


@functools.cache
def _params_at(seed):
    return make_pipeline_params(GRID, seed)


@given(
    params_seed=st.sampled_from([0, 1, 2024, 7919]),
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    ego_density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    writes=st.lists(WRITES, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_cells_with_an_all_zero_stack_aggregate_to_zero(params_seed, seed, shape, ego_density,
                                                        writes):
    """Every aggregator maps an all-zero token stack to a zero row, so every
    cell outside the ego's nonzero cells and the written cells is 0.0:
    no aggregator returns such a cell, and the dense references give it
    zeros.  The aggregators compute only the other cells; a bias or offset
    in any map breaks this."""
    params = _params_at(params_seed)
    rng = np.random.default_rng(seed)
    shape = shape + (GRID.bev_channels,)
    ego = np.zeros(shape)
    on = rng.uniform(size=shape[:2]) < ego_density
    ego[on] = rng.standard_normal((int(on.sum()), shape[2]))
    warped = [_written_plane(rng, shape, w) for w in writes]
    idle = np.ones(shape[0] * shape[1], dtype=bool)
    for cells in (nonzero_cells(ego), *map(nonzero_cells, warped)):
        idle[cells] = False
    spec = spec_of(ego)
    for agg in (
        aggregate_planes(params.agg_mha, ego, warped),
        aggregate_max(spec, warped_of(spec, warped), *rows_of(ego)),
        aggregate_concat(params.concat_lin, spec, warped_of(spec, warped), *rows_of(ego)),
    ):
        assert not np.any(idle[agg.cells])
    for plane in (
        aggregate_dense(params.agg_mha, spec, warped, *rows_of(ego)),
        aggregate_max_dense(spec, warped, *rows_of(ego)),
        concat_dense(params.concat_lin, spec, warped, *rows_of(ego)),
    ):
        assert np.all(plane.reshape(-1, shape[2])[idle] == 0.0)


def test_downsample_cloud_dedups():
    pts = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [1.7, 0.0, 0.0]])
    out = downsample_cloud(pts, cell=0.5)
    assert out.shape[0] == 2
    assert np.array_equal(out[0], pts[0])  # first point of the cube wins


def test_downsample_cloud_matches_row_unique(rng):
    pts = rng.uniform(-30.0, 30.0, (3000, 3))
    pts = np.concatenate([pts, pts[rng.integers(0, 3000, 1500)] + 0.01])
    keys = np.floor(pts / 0.5).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    assert np.array_equal(downsample_cloud(pts, 0.5), pts[np.sort(first)])


class TestRunRound:
    def _cfg(self, **kw):
        return ScenarioConfig(seed=9, n_agents=2, n_objects=3, **kw)

    def _pipe(self, **kw):
        defaults = dict(grid=GRID, bins=BINS, predictor=NoisyOraclePredictor(0.5, 0))
        defaults.update(kw)
        return PipelineConfig(**defaults)

    def test_single_agent_ledger_empty(self):
        scn = ScenarioConfig(seed=4, n_agents=1, n_objects=2)
        agents, objects = generate_scene(scn)
        rounds, ledger = run_round(agents, objects, (), scn, self._pipe(), PARAMS)
        assert ledger.records == []
        assert rounds[0].aggregated.shape == (GRID.nx, GRID.ny, GRID.bev_channels)

    def test_two_agents_exchange(self):
        scn = self._cfg()
        agents, objects = generate_scene(scn)
        rounds, ledger = run_round(agents, objects, (), scn, self._pipe(), PARAMS)
        assert ledger.total("feature") > 0
        assert ledger.total("depth") > 0
        senders = {(r.sender, r.receiver) for r in ledger.records}
        assert (0, 1) in senders and (1, 0) in senders

    def test_masked_volume_below_full_broadcast(self):
        scn = self._cfg()
        agents, objects = generate_scene(scn)
        rounds, _ = run_round(agents, objects, (), scn, self._pipe(), PARAMS)
        for r in rounds.values():
            full = pack_message(r.bev_cells, r.bev_rows, np.ones_like(r.mask))
            assert r.message.feature_elements <= full.feature_elements

    def test_camera_dropout_participates(self):
        scn = self._cfg(dropout={0: ("camera",)})
        agents, objects = generate_scene(scn)
        rounds, ledger = run_round(agents, objects, (), scn, self._pipe(), PARAMS)
        assert rounds[0].depth_map is None
        assert rounds[0].message.feature_elements >= 0
        assert ledger.total("feature") > 0

    def test_deterministic(self):
        scn = self._cfg()
        agents, objects = generate_scene(scn)
        a, _ = run_round(agents, objects, (), scn, self._pipe(), PARAMS)
        b, _ = run_round(agents, objects, (), scn, self._pipe(), PARAMS)
        for aid in a:
            assert np.array_equal(a[aid].aggregated, b[aid].aggregated)
            assert np.array_equal(a[aid].mask, b[aid].mask)

    def test_robust_mode_records_corrections(self):
        scn = ScenarioConfig(seed=12, n_agents=2, n_objects=5, pose_noise_sigma_xy=0.3)
        agents, objects = generate_scene(scn)
        rounds, ledger = run_round(
            agents, objects, (), scn, self._pipe(robust=True), PARAMS
        )
        assert any(r.phase == "detections" for r in ledger.records)
        errs = rounds[0].pose_errors
        assert errs and all(len(v) == 2 for v in errs.values())

    def test_detections_travel_only_between_lidar_agents(self):
        """An agent without LiDAR has no detections to send and none to
        match against: no detections record names it, and the edge keeps
        its believed pose."""
        scn = ScenarioConfig(seed=3, n_agents=3, n_objects=6, pose_noise_sigma_xy=0.3,
                             dropout={1: ("lidar",)})
        agents, objects = generate_scene(scn)
        rounds, ledger = run_round(agents, objects, (), scn, self._pipe(robust=True), PARAMS)
        sent = {(r.sender, r.receiver) for r in ledger.records if r.phase == "detections"}
        assert sent == {(0, 2), (2, 0)}
        for a, b in ((0, 1), (1, 0), (1, 2), (2, 1)):
            before, after = rounds[a].pose_errors[b]
            assert before == after

    def test_exchange_runs_per_agent(self, monkeypatch):
        """Attention mode makes one warp per receiver, one reply projection
        per LiDAR agent with a camera requester and one Q, K and V
        projection per round."""
        scn = ScenarioConfig(seed=5, n_agents=4, n_objects=5,
                             dropout={0: ("camera",), 2: ("lidar",)})
        agents, objects = generate_scene(scn)
        calls = {"warp": 0, "reply": 0}
        applied = []
        warp, nearest, apply = collab.warp_sparse, collab.nearest_per_pixel, nnkit.LinearMap.apply

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        def recording_apply(lin, x):
            applied.append(lin)
            return apply(lin, x)

        monkeypatch.setattr(collab, "warp_sparse", counting("warp", warp))
        monkeypatch.setattr(collab, "nearest_per_pixel", counting("reply", nearest))
        monkeypatch.setattr(nnkit.LinearMap, "apply", recording_apply)
        rounds, _ = run_round(agents, objects, (), scn, self._pipe(), PARAMS)
        mha = PARAMS.agg_mha
        names = {id(mha.wq): "q", id(mha.wk): "k", id(mha.wv): "v", id(mha.wo): "o"}
        assert calls == {"warp": 4, "reply": 3}  # LiDAR agents 0, 1 and 3
        assert [names[id(lin)] for lin in applied if id(lin) in names] == list("qkvoooo")

    def test_collab_modes_run(self):
        scn = self._cfg()
        agents, objects = generate_scene(scn)
        for mode in ("max", "concat", "attention"):
            rounds, _ = run_round(
                agents, objects, (), scn, self._pipe(collab_mode=mode), PARAMS
            )
            assert rounds[0].aggregated.shape == (GRID.nx, GRID.ny, GRID.bev_channels)

    def test_depth_records_charge_shared_clouds(self):
        scn = ScenarioConfig(seed=9, n_agents=3, n_objects=3)
        agents, objects = generate_scene(scn)
        by_id = {a.id: a for a in agents}
        _, ledger = run_round(agents, objects, (), scn, self._pipe(), PARAMS)
        depth = [r for r in ledger.records if r.phase == "depth"]
        # Every ordered pair of three linked agents: a request, then its reply.
        assert len(depth) == 12
        for request, reply in zip(depth[::2], depth[1::2]):
            assert request.elements == 3
            assert (reply.sender, reply.receiver) == (request.receiver, request.sender)
            receiver, sender = by_id[reply.receiver], by_id[reply.sender]
            pts = simulate_lidar(sender, objects, (), scn.lidar, lidar_rng(scn.seed, sender.id))
            cloud = downsample_cloud(transform_points(DEFAULT_LIDAR_MOUNT, pts), 0.5)
            cam_from_sender = compose(
                invert(DEFAULT_CAMERA_MOUNT),
                compose(invert(receiver.believed_pose), sender.believed_pose),
            )
            pixels, _ = nearest_per_pixel(
                transform_points(cam_from_sender, cloud), scn.camera, BINS
            )
            assert 0 < reply.elements == BINS.n_bins + len(pixels) < 3 * len(cloud)

    def test_agent_order_invariant(self):
        scn = ScenarioConfig(seed=5, n_agents=3, n_objects=4, pose_noise_sigma_xy=0.2)
        agents, objects = generate_scene(scn)
        pipe = self._pipe(robust=True)
        a, ledger_a = run_round(agents, objects, (), scn, pipe, PARAMS)
        b, ledger_b = run_round(agents[::-1], objects, (), scn, pipe, PARAMS)
        assert ledger_a.records == ledger_b.records
        assert list(a) == list(b)
        for aid in a:
            assert np.array_equal(a[aid].aggregated, b[aid].aggregated)


def _chain_scene():
    """Three agents in a line, each linked only to the next."""
    scn = ScenarioConfig(seed=3, n_agents=1, n_objects=6, area=(-20.0, 60.0, -20.0, 20.0),
                         comm_range=30.0)
    _, objects = generate_scene(scn)
    agents = [agent_at(0, 0.0, 0.0), agent_at(1, 25.0, 2.0, 3.0), agent_at(2, 50.0, -1.0, 0.5)]
    return scn, agents, objects


ORACLE_CASES = {
    "base": (dict(seed=9, n_agents=3, n_objects=4), {}),
    "robust": (dict(seed=9, n_agents=3, n_objects=4), dict(robust=True)),
    "noisy_poses": (dict(seed=5, n_agents=3, n_objects=5, pose_noise_sigma_xy=0.4,
                         pose_noise_sigma_yaw=0.04), {}),
    "noisy_poses_robust": (dict(seed=12, n_agents=3, n_objects=6, pose_noise_sigma_xy=0.3),
                           dict(robust=True)),
    "camera_dropout": (dict(seed=9, n_agents=3, n_objects=4, dropout={0: ("camera",)}), {}),
    "lidar_dropout": (dict(seed=9, n_agents=3, n_objects=4, dropout={1: ("lidar",)}),
                      dict(robust=True)),
    "one_agent": (dict(seed=4, n_agents=1, n_objects=3), {}),
    "chain": (None, {}),
    "five_agents_equal_max": (dict(seed=21, n_agents=5, n_objects=6, pose_noise_sigma_xy=0.2),
                              dict(fusion_mode="equal", collab_mode="max", robust=True)),
    "no_fusion": (dict(seed=9, n_agents=3, n_objects=4), dict(fusion_mode="none")),
}


class TestPhaseOneOracle:
    """Phase 1 sends each receiver only the pixels its depth map keeps, as
    per-bin pixel lists.  The reference sends whole downsampled clouds,
    charged 3 scalars per point, and merges every point that lands in the
    image; every depth map and BEV must come out bit for bit the same, and
    every reply no larger than the whole cloud."""

    @pytest.fixture(params=sorted(ORACLE_CASES))
    def case(self, request):
        scenario_kw, pipe_kw = ORACLE_CASES[request.param]
        if scenario_kw is None:
            scn, agents, objects = _chain_scene()
        else:
            scn = ScenarioConfig(**scenario_kw)
            agents, objects = generate_scene(scn)
        pipe = PipelineConfig(
            grid=GRID, bins=BINS, predictor=NoisyOraclePredictor(1.0, 1), **pipe_kw
        )
        return agents, objects, scn, pipe

    def _runs(self, case, monkeypatch):
        agents, objects, scn, pipe = case
        got = run_round(agents, objects, (), scn, pipe, PARAMS)
        with monkeypatch.context() as m:
            m.setattr(collab, "_share_clouds", share_whole_clouds)
            m.setattr(collab, "project_cloud_to_depthmap", project_cloud_to_depthmap_by_image)
            want = run_round(agents, objects, (), scn, pipe, PARAMS)
        return got, want, agents

    def test_rounds_bit_identical(self, case, monkeypatch):
        (rounds, _), (ref, _), _ = self._runs(case, monkeypatch)
        assert list(rounds) == list(ref)
        for aid, r in rounds.items():
            if ref[aid].depth_map is None:
                assert r.depth_map is None
            else:
                assert np.array_equal(r.depth_map.bin_idx, ref[aid].depth_map.bin_idx)
                assert np.array_equal(r.depth_map.source, ref[aid].depth_map.source)
            for name in ("bev_cells", "bev_rows", "aggregated", "mask"):
                assert np.array_equal(getattr(r, name), getattr(ref[aid], name)), name
            assert np.array_equal(r.message.vectors, ref[aid].message.vectors)

    def test_ledger_against_whole_clouds(self, case, monkeypatch):
        (_, ledger), (_, ref), agents = self._runs(case, monkeypatch)
        others = [r for r in ledger.records if r.phase != "depth"]
        assert others == [r for r in ref.records if r.phase != "depth"]
        whole = {(r.sender, r.receiver): r.elements for r in ref.records if r.phase == "depth"}
        cameras = {a.id for a in agents if a.has_camera}
        lidars = {a.id for a in agents if a.has_lidar}
        depth_records = [r for r in ledger.records if r.phase == "depth"]
        requests, replies = depth_records[::2], depth_records[1::2]
        for request, reply in zip(requests, replies):
            assert request.elements == 3
            assert (reply.sender, reply.receiver) == (request.receiver, request.sender)
            assert reply.elements <= whole[reply.sender, reply.receiver]
        # Exactly one request per edge that has a payload to ask for, and
        # none from a receiver that renders no camera.
        fused = case[3].fusion_mode != "none"
        expected = sorted(
            (rx, tx) for tx, rx in whole if rx in cameras and tx in lidars and fused
        )
        assert sorted((r.sender, r.receiver) for r in requests) == expected

    def test_each_reply_charges_its_counts_and_pixels(self, case, monkeypatch):
        """A reply record charges the scalars of the reply its receiver
        got, `counts.size + pixels.size`, and 0 for a reply without pixels.
        The reply holds D bin counts that sum to its pixels, and names each
        pixel of the receiver's image at most once, in pixel order within a
        bin."""
        agents, objects, scn, pipe = case
        shared = {}
        perceive = collab._perceive

        def recording(w, *args):
            shared[w.state.id] = list(w.shared)
            perceive(w, *args)

        monkeypatch.setattr(collab, "_perceive", recording)
        _, ledger = run_round(agents, objects, (), scn, pipe, PARAMS)
        replies = [r for r in ledger.records if r.phase == "depth"][1::2]
        for aid, received in shared.items():
            records = [r for r in replies if r.receiver == aid]
            assert len(records) == len(received)
            for record, (counts, pixels) in zip(records, received):
                assert record.elements == (counts.size + pixels.size if pixels.size else 0)
                assert counts.size == BINS.n_bins and counts.min() >= 0
                assert counts.sum() == pixels.size
                assert np.unique(pixels).size == pixels.size
                assert np.all((pixels >= 0) & (pixels < scn.camera.height * scn.camera.width))
                for part in np.split(pixels, np.cumsum(counts)[:-1]):
                    assert np.all(np.diff(part) > 0)
        assert not replies or any(r.elements for r in replies)


ROBUST_CASES = sorted(name for name, (_, pipe_kw) in ORACLE_CASES.items() if pipe_kw.get("robust"))


def robust_round(name):
    scenario_kw, pipe_kw = ORACLE_CASES[name]
    scn = ScenarioConfig(**scenario_kw)
    agents, objects = generate_scene(scn)
    pipe = PipelineConfig(grid=GRID, bins=BINS, predictor=NoisyOraclePredictor(1.0, 1), **pipe_kw)
    return run_round(agents, objects, (), scn, pipe, PARAMS)


@pytest.mark.parametrize("name", ROBUST_CASES)
def test_detection_records_charge_two_per_box(name):
    """A neighbor sends its box centers: 2 scalars per box it detected."""
    rounds, ledger = robust_round(name)
    records = [r for r in ledger.records if r.phase == "detections"]
    assert records
    for r in records:
        assert r.elements == 2 * len(rounds[r.sender].detections)


@pytest.mark.parametrize("name", ["robust", "noisy_poses_robust"])
def test_corrections_from_centers_match_whole_boxes(name):
    """Each pose the round uses is, bit for bit, the correction of the
    neighbor's whole boxes moved through the believed pose by
    `transform_detections`: sending only the centers changes no pose."""
    rounds, _ = robust_round(name)
    changed = 0
    for w in rounds.values():
        for j in w.neighbors:
            believed = compose(invert(w.state.believed_pose), rounds[j].state.believed_pose)
            boxes = transform_detections(rounds[j].detections, believed)
            want = correct_relative_pose(believed, w.detections, [b.center for b in boxes], 2.0)
            assert w.rel[j].matrix.tobytes() == want.matrix.tobytes()
            changed += not np.array_equal(want.matrix, believed.matrix)
    assert changed


SWEEP_GRID = GridSpec((-20.0, 20.0), (-20.0, 20.0), (0.5, 3.7), 32, 32, 4, 8)
SWEEP_PARAMS = make_pipeline_params(SWEEP_GRID, seed=2024)


@pytest.fixture(scope="module")
def sweep_scene():
    scn = ScenarioConfig(seed=6, n_agents=3, n_objects=6, comm_range=60.0, pose_noise_sigma_xy=0.2)
    agents, objects = generate_scene(scn)
    return scn, agents, objects


@pytest.mark.parametrize("robust", [False, True])
@pytest.mark.parametrize("collab_mode", collab.COLLAB_MODES)
@pytest.mark.parametrize("depth_projection", collab.DEPTH_PROJECTIONS)
@pytest.mark.parametrize("fusion_mode", collab.FUSION_MODES)
def test_mode_sweep_keeps_round_invariants(sweep_scene, fusion_mode, depth_projection,
                                           collab_mode, robust):
    """Every (fusion, depth projection, collab, robust) combination gives a
    finite BEV per agent and a ledger that charges exactly what was sent."""
    scn, agents, objects = sweep_scene
    pipe = PipelineConfig(
        grid=SWEEP_GRID, bins=BINS, predictor=NoisyOraclePredictor(1.0, 1),
        fusion_mode=fusion_mode, depth_projection=depth_projection,
        collab_mode=collab_mode, robust=robust,
    )
    rounds, ledger = run_round(agents, objects, (), scn, pipe, SWEEP_PARAMS)
    shape = (SWEEP_GRID.nx, SWEEP_GRID.ny, SWEEP_GRID.bev_channels)
    for r in rounds.values():
        assert r.aggregated.shape == shape
        assert np.all(np.isfinite(r.aggregated))
    sent = sum(rounds[j].message.feature_elements for r in rounds.values() for j in r.pose_errors)
    assert ledger.total("feature") == sent
    phases = ("detections", "depth", "feature")
    assert sum(r.elements for r in ledger.records) == sum(ledger.total(p) for p in phases)
    used = {r.phase for r in ledger.records}
    assert ("depth" in used) == (depth_projection == "all" and fusion_mode != "none")
    assert ("detections" in used) == robust
