import numpy as np
import pytest

from covox import collab, depth, nnkit
from covox.collab import (
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
    run_round,
    warp_sparse,
)
from covox.depth import DepthBins, NoisyOraclePredictor, nearest_per_pixel
from covox.geometry import Pose, compose, invert, project_points, relative, transform_points
from covox.scene import (
    DEFAULT_CAMERA_MOUNT,
    DEFAULT_LIDAR_MOUNT,
    AgentState,
    ScenarioConfig,
    generate_scene,
    lidar_rng,
    simulate_lidar,
)
from covox.voxel import Category, GridSpec, VoxelGrid

from conftest import biased_mha, mha

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


class TestPreference:
    def _grid_with_column(self, cats):
        spec = GridSpec((-1, 1), (-1, 1), (0, 3), 1, 1, 3, 8)
        grid = VoxelGrid.empty(spec)
        grid.category[0, 0, :] = cats
        return grid

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
        grid = VoxelGrid.empty(GRID)
        grid.category[:10, :10, 0] = Category.LIDAR
        grid.category[20:30, 20:30, 1] = Category.CAMERA
        assert np.all(preference_map(grid) == 0.5)


class TestImportance:
    def test_zero_cell_value(self):
        scores = importance_scores(np.zeros((2, 2, 64)))
        assert np.allclose(scores, 0.26894, atol=1e-5)

    def test_monotone_in_norm(self, rng):
        v = rng.standard_normal(64)
        small = importance_scores(v[None, None, :] * 0.5)
        large = importance_scores(v[None, None, :] * 5.0)
        assert large[0, 0] > small[0, 0]

    def test_range_open_unit(self, rng):
        bev = rng.standard_normal((8, 8, 64)) * 5
        scores = importance_scores(bev)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)
        # Extreme norms saturate to 1.0 in float64 but never exceed it.
        assert importance_scores(np.full((1, 1, 64), 1e9))[0, 0] <= 1.0


class TestConfidenceMask:
    def test_above_threshold(self):
        mask = confidence_mask(np.array([[0.6]]), np.array([[0.5]]))
        assert mask[0, 0] == 1

    def test_zero_cell_with_zero_threshold(self):
        scores = importance_scores(np.zeros((1, 1, 64)))
        mask = confidence_mask(scores, np.zeros((1, 1)))
        assert mask[0, 0] == 1

    def test_equality_is_excluded(self):
        mask = confidence_mask(np.array([[0.5]]), np.array([[0.5]]))
        assert mask[0, 0] == 0


class TestPackMessage:
    def test_zero_mask_empty(self, rng):
        bev = rng.standard_normal((GRID.nx, GRID.ny, GRID.bev_channels))
        msg = pack_message(bev, np.zeros((GRID.nx, GRID.ny)))
        assert msg.indices.shape[0] == 0
        assert msg.feature_elements == 0

    def test_counts_nonzero_scalars(self):
        bev = np.zeros((GRID.nx, GRID.ny, GRID.bev_channels))
        bev[3, 4, [0, 7, 20]] = 1.5
        mask = np.zeros((GRID.nx, GRID.ny))
        mask[3, 4] = 1
        msg = pack_message(bev, mask)
        assert msg.feature_elements == 3

    def test_full_mask_equals_l0(self, rng):
        bev = np.zeros((GRID.nx, GRID.ny, GRID.bev_channels))
        sparse = rng.uniform(size=bev.shape) < 0.01
        bev[sparse] = rng.standard_normal(int(sparse.sum()))
        msg = pack_message(bev, np.ones((GRID.nx, GRID.ny)))
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


class TestWarp:
    def _sparse(self, rng, k=40):
        idx = np.unique(rng.integers(5, 60, (k, 2)), axis=0)
        vecs = rng.standard_normal((idx.shape[0], GRID.bev_channels))
        return idx, vecs

    def test_identity_densifies_losslessly(self, rng):
        idx, vecs = self._sparse(rng)
        res = warp_sparse(idx, vecs, Pose(np.eye(4)), GRID)
        dense = np.zeros((GRID.nx, GRID.ny, GRID.bev_channels))
        dense[idx[:, 0], idx[:, 1]] = vecs
        assert np.array_equal(res.bev, dense)
        assert res.collisions == 0 and res.dropped == 0

    @pytest.mark.parametrize("pose", [(0.0, 0.0, 0.0), (3.1, -2.0, 0.4), (30.0, -30.0, 2.2)])
    def test_cells_are_the_written_cells(self, rng, pose):
        idx, vecs = self._sparse(rng, k=400)
        res = warp_sparse(idx, vecs, Pose.from_planar(*pose), GRID)
        written = np.flatnonzero(np.any(res.bev.reshape(-1, GRID.bev_channels) != 0, axis=1))
        assert np.array_equal(res.cells, written)

    def test_no_cells_when_nothing_lands(self, rng):
        idx, vecs = self._sparse(rng)
        for res in (
            warp_sparse(idx[:0], vecs[:0], Pose(np.eye(4)), GRID),
            warp_sparse(idx, vecs, Pose.from_translation(500.0, 0.0), GRID),
        ):
            assert res.cells.shape == (0,)

    def test_one_pitch_translation_shifts_indices(self, rng):
        idx, vecs = self._sparse(rng)
        res = warp_sparse(idx, vecs, Pose.from_translation(GRID.dx, 0.0), GRID)
        got = np.argwhere(np.any(res.bev != 0, axis=2))
        expected = idx + np.array([1, 0])
        assert set(map(tuple, got.tolist())) == set(map(tuple, expected.tolist()))

    def test_far_sender_all_dropped(self, rng):
        idx, vecs = self._sparse(rng)
        res = warp_sparse(idx, vecs, Pose.from_translation(500.0, 0.0), GRID)
        assert np.all(res.bev == 0)
        assert res.dropped == idx.shape[0]

    def test_collision_later_writer_wins(self):
        spec = GridSpec((-2, 2), (-2, 2), (0, 1), 4, 4, 1, 8)
        idx = np.array([[0, 0], [0, 1]])
        vecs = np.stack([np.full(8, 1.0), np.full(8, 2.0)])
        # Rotate 90 deg so both source cells land in one destination? Use a
        # shift of one pitch along y instead: cell (0,1) -> (0,2), (0,0) -> (0,1).
        res = warp_sparse(idx, vecs, Pose.from_translation(0.0, spec.dy), spec)
        assert np.all(res.bev[0, 1] == 1.0) and np.all(res.bev[0, 2] == 2.0)
        # Genuine collision: scale down so two cells map into one.
        tiny = GridSpec((-2, 2), (-2, 2), (0, 1), 2, 2, 1, 8)
        res2 = warp_sparse(np.array([[0, 0], [0, 1]]), vecs, Pose(np.eye(4)), tiny)
        assert res2.collisions == 0
        wide = np.array([[0, 0], [1, 0]])
        res3 = warp_sparse(
            wide, vecs, Pose.from_planar(0.0, 0.0, 0.0), tiny
        )
        assert res3.collisions == 0

    def test_collisions_counted_under_rotation(self, rng):
        idx = np.array([[10, 10], [10, 11], [10, 12], [11, 10]])
        vecs = rng.standard_normal((4, GRID.bev_channels))
        res = warp_sparse(idx, vecs, Pose.from_planar(30.0, -30.0, 2.2), GRID)
        written = int(np.count_nonzero(np.any(res.bev != 0, axis=2)))
        assert written + res.collisions + res.dropped == 4

    def test_relative_pose_of_equal_believed_poses(self, rng):
        idx, vecs = self._sparse(rng)
        pose = Pose.from_planar(5.0, 0.0, 0.0)
        res = warp_sparse(idx, vecs, relative(pose, pose), GRID)
        dense = np.zeros_like(res.bev)
        dense[idx[:, 0], idx[:, 1]] = vecs
        assert np.array_equal(res.bev, dense)


def _with_cells(planes):
    """(planes, flat indices of each plane's nonzero cells), as `aggregate` takes them."""
    return planes, [np.flatnonzero(np.any(p.reshape(-1, p.shape[2]) != 0, axis=1)) for p in planes]


class TestAggregate:
    def test_no_neighbors_matches_single_token_mha(self, rng):
        bev = np.zeros((4, 4, 64))
        bev[rng.uniform(size=(4, 4)) < 0.5] = rng.standard_normal(64)
        out = aggregate(PARAMS.agg_mha, bev, [], [])
        for i in range(4):
            for j in range(4):
                ref, _ = mha(
                    PARAMS.agg_mha, bev[i, j][None], bev[i, j][None], bev[i, j][None]
                )
                assert np.allclose(out[i, j], ref[0], atol=1e-12)

    def test_identical_neighbor_equals_single(self, rng):
        bev = rng.standard_normal((4, 4, 64))
        out_pair = aggregate(PARAMS.agg_mha, bev, *_with_cells([bev.copy()]))
        out_single = aggregate(PARAMS.agg_mha, bev, [], [])
        assert np.allclose(out_pair, out_single, atol=1e-9)

    def test_zero_neighbor_excluded_bit_exact(self, rng):
        bev = rng.standard_normal((6, 6, 64))
        out_zero = aggregate(PARAMS.agg_mha, bev, *_with_cells([np.zeros_like(bev)]))
        out_none = aggregate(PARAMS.agg_mha, bev, [], [])
        assert np.array_equal(out_zero, out_none)

    def test_neighbor_signal_reaches_empty_ego_cell(self, rng):
        bev = np.zeros((4, 4, 64))
        nbr = np.zeros((4, 4, 64))
        nbr[2, 2] = rng.standard_normal(64)
        out = aggregate(PARAMS.agg_mha, bev, *_with_cells([nbr]))
        assert np.linalg.norm(out[2, 2]) > 0

    def test_shape_preserved(self, rng):
        bev = rng.standard_normal((5, 7, 64))
        assert aggregate(PARAMS.agg_mha, bev, *_with_cells([bev])).shape == bev.shape

    def test_max_and_concat_variants(self, rng):
        bev = rng.standard_normal((4, 4, 64))
        nbr = rng.standard_normal((4, 4, 64))
        out_max = aggregate_max(bev, [nbr])
        assert np.array_equal(out_max, np.maximum(bev, nbr))
        out_cat = aggregate_concat(PARAMS.concat_lin, bev, [nbr])
        stacked = np.concatenate([bev, nbr, np.zeros_like(bev), np.zeros_like(bev)], axis=2)
        assert np.allclose(out_cat, PARAMS.concat_lin.apply(stacked))


def _dense_aggregate(params, ego, warped):
    """Reference: attention over every cell's full token stack."""
    ego = np.asarray(ego, dtype=np.float64)
    nx, ny, f = ego.shape
    n_cells = nx * ny
    tokens = np.stack([ego] + [np.asarray(w, dtype=np.float64) for w in warped])
    t = tokens.shape[0]
    flat = tokens.reshape(t, n_cells, f)
    valid = np.ones((t, n_cells), dtype=bool)
    if t > 1:
        valid[1:] = np.any(flat[1:] != 0.0, axis=2)
    h, dh = params.n_heads, params.head_dim
    q = params.wq.apply(flat[0]).reshape(n_cells, h, dh)
    k = params.wk.apply(flat).reshape(t, n_cells, h, dh)
    v = params.wv.apply(flat).reshape(t, n_cells, h, dh)
    scores = np.einsum("chd,tchd->tch", q, k) / np.sqrt(dh)
    scores[~valid] = -np.inf
    weights = nnkit.softmax(scores, axis=0)
    ctx = np.einsum("tch,tchd->chd", weights, v).reshape(n_cells, f)
    return params.wo.apply(ctx).reshape(nx, ny, f)


def _sparse_planes(rng, n, shape, density):
    """`n` BEV planes whose cells are nonzero with probability `density`."""
    return [
        rng.standard_normal(shape) * (rng.uniform(size=shape[:2] + (1,)) < density)
        for _ in range(n)
    ]


class TestAggregateOracle:
    """`aggregate` computes only cells with a nonzero token; it must give the
    dense reference's bits for every cell, with and without biases."""

    SHAPE = (16, 16, GRID.bev_channels)

    @pytest.fixture(params=["unbiased", "biased"])
    def mha(self, request):
        if request.param == "unbiased":
            return PARAMS.agg_mha
        return biased_mha(PARAMS.agg_mha, (7, 1))

    def _check(self, mha, ego, warped):
        got = aggregate(mha, ego, *_with_cells(warped))
        assert np.array_equal(got, _dense_aggregate(mha, ego, warped))

    def test_no_neighbors(self, rng, mha):
        (ego,) = _sparse_planes(rng, 1, self.SHAPE, 0.3)
        self._check(mha, ego, [])

    def test_all_zero_neighbor_planes(self, rng, mha):
        (ego,) = _sparse_planes(rng, 1, self.SHAPE, 0.3)
        self._check(mha, ego, [np.zeros(self.SHAPE), np.zeros(self.SHAPE)])

    def test_one_active_cell(self, rng, mha):
        # One busy cell: the fewest rows BLAS can be asked to multiply.
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
            full = pack_message(r.bev, np.ones_like(r.mask))
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
                relative(receiver.believed_pose, sender.believed_pose),
            )
            _, _, rows = nearest_per_pixel(
                transform_points(cam_from_sender, cloud), scn.camera, BINS
            )
            assert 0 < reply.elements == 3 * len(rows) < 3 * len(cloud)

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


def _min_depth_image_by_minimum_at(cloud, intr, bins):
    """Reference: scatter every projected depth with np.minimum.at."""
    img = np.full(intr.height * intr.width, np.inf)
    pix, dist, _ = project_points(intr, np.asarray(cloud, dtype=np.float64).reshape(-1, 3))
    keep = dist < bins.d_max
    np.minimum.at(img, pix[keep, 1] * intr.width + pix[keep, 0], dist[keep])
    return img.reshape(intr.height, intr.width)


def _share_whole_clouds(works, scenario, pipe, ledger):
    """Reference phase 1: every connected LiDAR agent sends its whole
    downsampled cloud to every neighbor, which moves it into its camera
    frame with the pose it uses for that neighbor."""
    if pipe.depth_projection != "all":
        return
    for w in works.values():
        if w.neighbors and w.state.has_lidar:
            w.payload = downsample_cloud(w.cloud, 0.5)
    for w in works.values():
        for j in w.neighbors:
            cloud = works[j].payload
            if cloud is None:
                continue
            ledger.add(j, w.state.id, "depth", 3 * cloud.shape[0])
            if w.images is not None:
                cam_from_sender = compose(invert(DEFAULT_CAMERA_MOUNT), w.rel[j])
                w.shared.append(transform_points(cam_from_sender, cloud))


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
    """Phase 1 sends each receiver only the points its depth map keeps. The
    reference sends whole downsampled clouds and projects them with
    np.minimum.at; every depth map and BEV must come out bit for bit the
    same, and every reply no larger than the whole cloud."""

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
            m.setattr(collab, "_share_clouds", _share_whole_clouds)
            m.setattr(depth, "_min_depth_image", _min_depth_image_by_minimum_at)
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
            for name in ("bev", "aggregated", "mask"):
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
        # none from a receiver without camera images.
        fused = case[3].fusion_mode != "none"
        expected = sorted(
            (rx, tx) for tx, rx in whole if rx in cameras and tx in lidars and fused
        )
        assert sorted((r.sender, r.receiver) for r in requests) == expected


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
