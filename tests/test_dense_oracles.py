"""The stages from voxelization to detection touch only the voxels and
cells that hold data, the depth head runs once per distinct window, and
the exchange runs per agent, not per edge.  Every stage, and every trial
end to end, must match the references in `oracles.py` as the contract in
that module's docstring asks.  The references hold every voxel of the grid
in dense arrays, scan whole grids and planes, predict depth pixel by pixel,
answer each phase-1 request on its own, warp every message on its own into
a fresh zero plane, run attention on whole token stacks, scan the
aggregated plane for its nonzero cells, test every box on every ray and
fit each rectangle on its own.
"""

import dataclasses
import json
import runpy
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from covox import cli, collab, fusion, metrics, scene
from covox.collab import (
    PipelineConfig,
    aggregate_max,
    build_comm_graph,
    importance_scores,
    make_pipeline_params,
    run_round,
    warp_sparse,
)
from covox.config import load_experiment
from covox.depth import DepthBins, NoisyOraclePredictor, predict_depth
from covox.fusion import (
    fuse_modalities,
    fuse_modalities_equal,
    make_equal_params,
    make_fusion_params,
)
from covox.geometry import Pose, planar_parts
from covox.robust import occupancy_from_grid
from covox.scene import AgentState, BoxObject, LidarSpec, ScenarioConfig, generate_scene
from covox.voxel import Category, GridSpec, categorize, collapse, voxelize_points

from oracles import (
    REFERENCE_SWAPS,
    aggregate_max_dense,
    categorize_dense,
    collapse_dense,
    dense_categorized,
    dense_zeros,
    equivalent,
    fuse_modalities_equal_masked,
    fuse_modalities_masked,
    importance_scores_dense,
    land_fresh,
    nonzero_cells,
    occupancy_from_grid_dense,
    pack_message_dense,
    plane_of,
    predict_depth_full_image,
    preference_map_dense,
    rows_of,
    share_clouds_per_edge,
    sparse,
    spec_of,
    use_reference_pipeline,
    voxelize_points_dense,
    warp_message_fresh,
    warped_of,
    window_counts,
)


def assert_rounds_equal(got, want, same=np.array_equal):
    """Every array of two runs' rounds is `same`: equal, as whole-trial
    replays compare them, unless another comparison is given."""
    assert list(got) == list(want)
    for aid, r in got.items():
        ref = want[aid]
        for name in ("bev_cells", "bev_rows", "aggregated_cells", "aggregated_rows"):
            assert same(getattr(r, name), getattr(ref, name)), (aid, name)
        assert same(r.message.indices, ref.message.indices)
        assert same(r.message.vectors, ref.message.vectors)
        assert r.message.feature_elements == ref.message.feature_elements
        assert (r.depth_map is None) == (ref.depth_map is None)
        if r.depth_map is not None:
            assert same(r.depth_map.bin_idx, ref.depth_map.bin_idx)
            assert same(r.depth_map.source, ref.depth_map.source)
        assert r.warp_collisions == ref.warp_collisions
        assert r.pose_errors == ref.pose_errors


# --- the equivalence contract ---------------------------------------------------

CELLS = np.array([3, 7, 12])
ROWS = np.array([[1.5, -2.0], [0.0, 4.0], [np.inf, 0.25]])


def _with(rows, at, value):
    rows = rows.copy()
    rows[at] = value
    return rows


def _one_ulp(rows, toward):
    """Each finite value moved one ulp toward `toward`."""
    return np.where(np.isfinite(rows), np.nextafter(rows, toward), rows)


@pytest.mark.parametrize("got", [
    (CELLS.copy(), ROWS.copy()),
    (CELLS, _with(ROWS, (1, 0), -0.0)),
    (CELLS, _one_ulp(ROWS, np.inf)),
    (CELLS, _one_ulp(ROWS, -np.inf)),
], ids=["same", "negative-zero", "one-ulp-up", "one-ulp-down"])
def test_equivalent_accepts_signed_zeros_and_one_ulp(got):
    """The tolerance of the contract takes a sign of zero and a one-ulp
    gap; integer arrays and infinities are compared exactly."""
    assert equivalent(got, (CELLS, ROWS))


@pytest.mark.parametrize("got", [
    (np.array([3, 8, 12]), ROWS),
    (CELLS[:2], ROWS[:2]),
    (CELLS.astype(np.float64), ROWS),
    (CELLS, _with(ROWS, (0, 1), np.nan)),
    (CELLS, _with(ROWS, (2, 0), np.nan)),
    (CELLS, _with(ROWS, (2, 0), -np.inf)),
    (CELLS, _with(ROWS, (0, 0), np.inf)),
    (CELLS, ROWS * (1.0 + 1e-9)),
    (CELLS, _with(ROWS, (1, 1), 4.0 * (1.0 + 1e-9))),
], ids=["other-cell", "fewer-cells", "float-cells", "nan", "nan-for-inf", "other-inf",
        "inf-for-finite", "relative-1e-9", "one-value-1e-9"])
def test_equivalent_rejects_other_cells_nan_and_a_1e9_gap(got):
    """A changed cell set, a NaN, another infinity and a relative gap of
    1e-9 all fail, so the tolerance cannot be loosened unnoticed."""
    assert not equivalent(got, (CELLS, ROWS))


# --- stage by stage, on generated sparse grids --------------------------------

DENSITIES = st.sampled_from([0.0, 0.05, 0.3, 1.0])


def branch_grids(seed, shape, channels, p_lidar, p_camera):
    """A LiDAR and a camera branch grid tagged with the given densities;
    untagged cells hold zeros, as the branches leave them."""
    rng = np.random.default_rng(seed)
    spec = GridSpec((-3.0, 3.0), (-3.0, 3.0), (0.0, 2.0), *shape, channels)
    grids = []
    for p, tag in ((p_lidar, Category.LIDAR), (p_camera, Category.CAMERA)):
        feats, category = dense_zeros(spec)
        on = rng.uniform(size=category.shape) < p
        category[on] = tag
        feats[on] = rng.standard_normal((int(on.sum()), channels))
        grids.append(sparse(spec, feats, category))
    return grids


def assert_grids_equal(got, want):
    """Same voxel list, bit for bit, and a well-formed one: ascending,
    unique, and never NORMAL."""
    assert got.voxels.tobytes() == want.voxels.tobytes()
    assert got.features.tobytes() == want.features.tobytes()
    assert got.category.tobytes() == want.category.tobytes()
    assert np.all(np.diff(got.voxels) > 0) and np.all(got.category != Category.NORMAL)


GRID_ARGS = dict(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3)),
    channels=st.sampled_from([2, 4, 8]),
    p_lidar=DENSITIES,
    p_camera=DENSITIES,
)
# Empty, all-camera, no-LiDAR and all-hybrid grids.
EDGE_GRIDS = [(0.0, 0.0), (0.0, 1.0), (0.0, 0.3), (1.0, 1.0)]


def with_edge_grids(**extra):
    def decorate(test):
        for p_lidar, p_camera in EDGE_GRIDS:
            test = example(seed=3, shape=(5, 4, 2), channels=8, p_lidar=p_lidar,
                           p_camera=p_camera, **extra)(test)
        return test
    return decorate


class TestStagesMatchDenseReferences:
    @with_edge_grids()
    @given(**GRID_ARGS)
    @settings(max_examples=60, deadline=None)
    def test_categorize_matches_dense(self, seed, shape, channels, p_lidar, p_camera):
        lidar, camera = branch_grids(seed, shape, channels, p_lidar, p_camera)
        got = categorize(lidar, camera)
        want = categorize_dense(lidar, camera)
        got_lidar, got_camera, got_category = dense_categorized(got)
        assert np.array_equal(got_category, want.category)
        assert np.array_equal(got.voxels, np.flatnonzero(want.category))
        assert got_lidar.tobytes() == want.lidar.tobytes()
        assert got_camera.tobytes() == want.camera.tobytes()

    @with_edge_grids(max_tokens=3, threshold=0.5)
    @example(seed=3, shape=(5, 4, 2), channels=8, p_lidar=0.3, p_camera=0.3, max_tokens=512,
             threshold=1.0)
    @given(max_tokens=st.sampled_from([512, 3]), threshold=st.sampled_from([0.5, 1.0]),
           **GRID_ARGS)
    @settings(max_examples=60, deadline=None)
    def test_fusion_matches_mask_based(self, seed, shape, channels, p_lidar, p_camera,
                                       max_tokens, threshold):
        """Both fusions; a guidance threshold of 1 drops every camera voxel
        of a grid with LiDAR voxels."""
        lidar, camera = branch_grids(seed, shape, channels, p_lidar, p_camera)
        params = make_fusion_params(channels, seed=7)
        lin = make_equal_params(channels, seed=7)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(fusion, "_MAX_TOKENS", max_tokens)
            m.setattr(fusion, "_GUIDANCE_THRESHOLD", threshold)
            biased = fuse_modalities(params, categorize(lidar, camera))
            want = fuse_modalities_masked(params, categorize_dense(lidar, camera))
        assert_grids_equal(biased, want)
        assert_grids_equal(fuse_modalities_equal(lin, categorize(lidar, camera)),
                           fuse_modalities_equal_masked(lin, categorize_dense(lidar, camera)))
        if threshold == 1.0 and lidar.voxels.size:
            assert not np.any(biased.category == Category.CAMERA)

    @with_edge_grids()
    @given(**GRID_ARGS)
    @settings(max_examples=30, deadline=None)
    def test_collapse_matches_dense(self, seed, shape, channels, p_lidar, p_camera):
        grid, _ = branch_grids(seed, shape, channels, p_lidar, p_camera)
        columns, rows = collapse(grid)
        want_columns, want_rows = collapse_dense(grid)
        assert columns.tobytes() == want_columns.tobytes()
        assert rows.tobytes() == want_rows.tobytes()
        assert rows.shape == want_rows.shape
        assert not np.shares_memory(rows, grid.features)

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 70)),
        density=DENSITIES,
        special=st.sampled_from([0.0, -0.0, 1e-200, 1e200, np.inf]),
    )
    @example(seed=0, shape=(4, 4, 8), density=0.0, special=0.0)
    @settings(max_examples=80, deadline=None)
    def test_norms_match_dense(self, seed, shape, density, special):
        rng = np.random.default_rng(seed)
        rows = np.zeros((shape[0] * shape[1], shape[2]))
        on = rng.uniform(size=rows.shape[0]) < density
        rows[on] = rng.standard_normal((int(on.sum()), shape[2]))
        # A row of the special value: signed zeros, squares that underflow
        # or overflow, infinities.
        rows[rng.integers(rows.shape[0])] = special
        with np.errstate(over="ignore"):
            assert np.array_equal(importance_scores(rows), importance_scores_dense(rows))

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 80), max_size=5),
        poses=st.lists(
            st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0), st.floats(-3.2, 3.2)),
            max_size=5,
        ),
    )
    @example(seed=1, sizes=[], poses=[])
    @example(seed=2, sizes=[40, 0, 40], poses=[(3.1, -2.0, 0.4), (0.0, 0.0, 0.0), (500.0, 0.0, 0.0)])
    @settings(max_examples=80, deadline=None)
    def test_warp_into_out_matches_fresh_plane(self, seed, sizes, poses):
        """Messages warped in one pass, read as `WarpedPlanes`, give each
        plane what its message alone gives a fresh zero plane, and each
        plane is built afresh on every read."""
        spec = GridSpec((-8.0, 8.0), (-8.0, 8.0), (0.0, 2.0), 12, 12, 2, 3)
        rng = np.random.default_rng(seed)
        msgs = [
            collab.Message(rng.integers(0, 144, n), rng.standard_normal((n, spec.bev_channels)), 0)
            for n in sizes
        ]
        rels = [Pose.from_planar(*pose) for pose in poses[: len(msgs)]]
        msgs = msgs[: len(rels)]
        warped = warp_sparse(msgs, rels, spec)
        want = [warp_message_fresh(m, rel, spec) for m, rel in zip(msgs, rels)]
        assert len(warped.cells) == len(warped.rows) == len(warped) == len(msgs)
        for k, (plane, one) in enumerate(want):
            assert np.array_equal(warped[k], plane)
            assert np.array_equal(warped.cells[k], one.cells[0])
            assert np.array_equal(warped.rows[k], one.rows[0])
        assert warped.collisions == sum(one.collisions for _, one in want)
        assert warped.dropped == sum(one.dropped for _, one in want)
        assert all(np.array_equal(a, p) for a, (p, _) in zip(warped, want))
        if msgs:
            warped[0][...] = 1.0
            assert np.array_equal(warped[0], want[0][0])

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 8)),
        n_neighbors=st.integers(0, 4),
        density=DENSITIES,
    )
    @settings(max_examples=80, deadline=None)
    def test_max_matches_dense(self, seed, shape, n_neighbors, density):
        rng = np.random.default_rng(seed)
        ego = rng.standard_normal(shape)
        ego[rng.uniform(size=shape[:2]) < 0.3] = 0.0
        warped = []
        for _ in range(n_neighbors):
            plane = np.zeros(shape)
            on = rng.uniform(size=shape[:2]) < density
            plane[on] = rng.standard_normal((int(on.sum()), shape[2]))
            warped.append(plane)
        spec, (cells, rows) = spec_of(ego), rows_of(ego)
        before = rows.copy()
        got = aggregate_max(spec, warped_of(spec, warped), cells, rows)
        want_cells, want_rows = rows_of(aggregate_max_dense(spec, warped, cells, rows))
        assert got.shape == shape
        assert np.array_equal(got.cells, want_cells)
        assert got.rows.tobytes() == want_rows.tobytes()
        assert not np.shares_memory(got.rows, rows)
        assert np.array_equal(rows, before)

    def test_max_keeps_negative_ego_scalars_no_neighbor_wrote(self):
        """A neighbor's unsent cells are no signal: they must not lift the
        ego's negative scalars to 0."""
        rng = np.random.default_rng(5)
        ego = -rng.uniform(0.5, 1.0, (4, 5, 6))
        plane = np.zeros_like(ego)
        plane[1, 2] = rng.standard_normal(6)
        before = ego.copy()
        spec = spec_of(ego)
        out = aggregate_max(spec, warped_of(spec, [plane]), np.arange(4 * 5), ego.reshape(-1, 6))
        assert not np.shares_memory(out.rows, ego)
        assert np.array_equal(ego, before)
        want = ego.copy()
        want[1, 2] = np.maximum(ego[1, 2], plane[1, 2])
        cells, rows = rows_of(want)
        assert np.array_equal(out.cells, cells)
        assert np.array_equal(out.rows, rows)
        untouched = cells != 1 * 5 + 2
        assert untouched.sum() == 19 and np.all(out.rows[untouched] < 0.0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 8)),
        density=DENSITIES,
        keep_density=DENSITIES,
        p_hybrid=DENSITIES,
    )
    @settings(max_examples=60, deadline=None)
    def test_mask_path_matches_dense(self, seed, shape, density, keep_density, p_hybrid):
        """The preference map reads only hybrid columns and the message packs
        the kept rows; both must equal the row-by-row and whole-grid
        references."""
        rng = np.random.default_rng(seed)
        bev = np.zeros(shape)
        on = rng.uniform(size=shape[:2]) < density
        bev[on] = rng.standard_normal((int(on.sum()), shape[2]))
        bev[on & (rng.uniform(size=shape[:2]) < 0.2)] = -0.0
        cells, rows = rows_of(bev)
        keep = rng.uniform(size=cells.size) < keep_density
        got = collab.pack_message(cells, rows, keep)
        want = pack_message_dense(cells, rows, keep)
        assert np.array_equal(got.indices, want.indices) and got.indices.dtype == want.indices.dtype
        assert np.array_equal(got.vectors, want.vectors)
        assert got.vectors.shape == want.vectors.shape
        assert got.feature_elements == want.feature_elements
        spec = GridSpec((-3.0, 3.0), (-3.0, 3.0), (0.0, 2.0), shape[0], shape[1], 3, 2)
        feats, category = dense_zeros(spec)
        category[rng.uniform(size=category.shape) < density] = Category.LIDAR
        category[rng.uniform(size=category.shape) < p_hybrid] = Category.HYBRID
        grid = sparse(spec, feats, category)
        # Every cell, and the cells of a BEV: ascending, some of them hybrid.
        for at in (np.arange(shape[0] * shape[1]), cells):
            assert np.array_equal(collab.preference_map(grid, at), preference_map_dense(grid, at))


# --- nonzero cells carried with the planes -------------------------------------


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    nz=st.sampled_from([1, 8, 9, 17]),
    density=DENSITIES,
)
@example(seed=5, shape=(3, 4), nz=9, density=1.0)
@example(seed=6, shape=(3, 4), nz=17, density=1.0)
@settings(max_examples=80, deadline=None)
def test_occupancy_from_grid_matches_dense(seed, shape, nz, density):
    """The z-sum over the tagged columns only.  Values span 16 orders of
    magnitude, so a sum taken in another order than numpy's, which unrolls
    runs of 8 or more, gives other bits."""
    rng = np.random.default_rng(seed)
    spec = GridSpec((-3.0, 3.0), (-3.0, 3.0), (0.0, 2.0), *shape, nz, 5)
    feats, category = dense_zeros(spec)
    on = rng.uniform(size=category.shape) < density
    category[on] = Category.LIDAR
    scale = 10.0 ** rng.integers(-8, 9, (int(on.sum()), 1))
    feats[on] = rng.uniform(0.0, 1.0, (int(on.sum()), 5)) * scale
    grid = sparse(spec, feats, category)
    cells, values = occupancy_from_grid(grid)
    want_cells, want_values = occupancy_from_grid_dense(grid)
    assert np.array_equal(cells, want_cells)
    assert values.tobytes() == want_values.tobytes()


@st.composite
def clouds(draw):
    """A grid and a cloud of clusters: each cluster puts 1 to 40 points in
    one voxel, at offsets within it that span 16 orders of magnitude, so a
    sum taken in another order than one by one, such as numpy's pairwise
    sum of 8 or more values, gives other bits.  Some clusters lie just
    outside the grid."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)))
    spec = GridSpec((-3.0, 3.0), (-2.0, 4.0), (0.0, 2.0), *shape, draw(st.sampled_from([5, 8])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = np.array([spec.x_range[0], spec.y_range[0], spec.z_range[0]])
    size = np.array([spec.dx, spec.dy, spec.dz])
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, 40))
        cell = rng.integers(-1, np.array(shape) + 1)  # one step past each side
        frac = rng.uniform(0.0, 1.0, (n, 3)) * 10.0 ** rng.integers(-16, 1, (n, 1))
        parts.append(lo + (cell + frac) * size)
    cloud = np.concatenate(parts) if parts else np.zeros((0, 3))
    return spec, cloud[rng.permutation(len(cloud))]


@given(clouds())
@example((GridSpec((-3.0, 3.0), (-3.0, 3.0), (0.0, 2.0), 4, 4, 2, 5), np.zeros((0, 3))))
@example((GridSpec((-3.0, 3.0), (-3.0, 3.0), (0.0, 2.0), 4, 4, 2, 5),
          np.array([[9.0, 0.0, 1.0], [0.0, -3.5, 1.0], [0.0, 0.0, 2.0]])))
@settings(max_examples=150, deadline=None)
def test_voxelize_points_matches_dense(case):
    """The voxel list equals the whole-grid bincount's, for empty clouds,
    clouds wholly outside the grid and voxels of 9 or more points."""
    spec, cloud = case
    assert_grids_equal(voxelize_points(cloud, spec), voxelize_points_dense(cloud, spec))


SMALL_GRID = GridSpec((-20.0, 20.0), (-20.0, 20.0), (0.5, 3.7), 24, 24, 4, 8)


@pytest.mark.parametrize(
    "params", [pytest.param(make_pipeline_params(SMALL_GRID, 2024), id="unbiased")]
)
@pytest.mark.parametrize("collab_mode", collab.COLLAB_MODES)
@given(seed=st.integers(0, 2**16), n_agents=st.integers(1, 3))
@example(seed=3, n_agents=1)
@example(seed=2616, n_agents=1)
@settings(max_examples=8, deadline=None)
def test_round_cells_are_the_nonzero_cells(collab_mode, params, seed, n_agents):
    """Each AgentRound's `bev_cells` and `bev_rows` are the nonzero cells of
    the whole plane of its fused grid and their rows, and its
    `aggregated_cells` and `aggregated_rows` those of the plane that its
    aggregator's cells and rows spread into; one agent has no neighbors.  A
    scene whose every BEV is empty checks that the records are empty too,
    but cannot show aggregated cells
    (`test_round_of_an_empty_cloud_has_no_cells`)."""
    scn, pipe = _small_round(seed, n_agents, collab_mode)
    agents, objects = generate_scene(scn)
    planes, aggregated = [], []
    name = {"attention": "aggregate", "max": "aggregate_max", "concat": "aggregate_concat"}
    aggregator = getattr(collab, name[collab_mode])

    def recorded_collapse(grid):
        planes.append(plane_of(grid.spec, *collapse_dense(grid)))
        return collapse(grid)

    def recorded_aggregator(*args):
        aggregated.append(aggregator(*args))
        return aggregated[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(collab, "collapse", recorded_collapse)
        m.setattr(collab, name[collab_mode], recorded_aggregator)
        rounds, _ = run_round(agents, objects, scn, pipe, params)
    assert len(rounds) == n_agents == len(planes) == len(aggregated)
    for r, plane, agg in zip(rounds.values(), planes, aggregated):
        cells, rows = rows_of(plane)
        assert np.array_equal(r.bev_cells, cells)
        assert r.bev_rows.tobytes() == rows.tobytes()
        assert agg.shape == (SMALL_GRID.nx, SMALL_GRID.ny, SMALL_GRID.bev_channels)
        cells, rows = rows_of(plane_of(SMALL_GRID, agg.cells, agg.rows))
        assert np.array_equal(r.aggregated_cells, cells)
        assert r.aggregated_rows.tobytes() == rows.tobytes()
    assume(any(r.bev_cells.size for r in rounds.values()))
    assert any(r.aggregated_cells.size for r in rounds.values())


def _small_round(seed, n_agents, collab_mode):
    """The scenario and pipeline of `test_round_cells_are_the_nonzero_cells`."""
    pipe = PipelineConfig(grid=SMALL_GRID, bins=DepthBins(1.0, 33.0, 16),
                          predictor=NoisyOraclePredictor(1.0, 1), fusion_mode="none",
                          depth_projection="no", collab_mode=collab_mode)
    return ScenarioConfig(seed=seed, n_agents=n_agents, n_objects=6, comm_range=60.0), pipe


@pytest.mark.parametrize("collab_mode", collab.COLLAB_MODES)
def test_round_of_an_empty_cloud_has_no_cells(collab_mode):
    """Seed 2616 leaves its one agent's LiDAR grid empty: the round completes
    with no BEV cells, no message rows and no aggregated cells."""
    scn, pipe = _small_round(2616, 1, collab_mode)
    agents, objects = generate_scene(scn)
    rounds, ledger = run_round(agents, objects, scn, pipe,
                               make_pipeline_params(SMALL_GRID, 2024))
    (r,) = rounds.values()
    assert r.lidar_grid.voxels.size == 0
    assert r.bev_cells.size == r.bev_rows.size == 0
    assert r.message.indices.size == r.message.feature_elements == 0
    assert r.aggregated_cells.size == r.aggregated_rows.size == 0
    assert r.aggregated_rows.shape == (0, SMALL_GRID.bev_channels)
    assert ledger.records == []


def test_max_of_nonzero_tokens_can_be_a_zero_cell():
    """Ego and neighbor rows that are both nonzero can max to a zero row,
    which the round's cells must leave out."""
    ego = np.zeros((2, 3, 2))
    ego[0, 1] = (0.0, -1.0)
    plane = np.zeros_like(ego)
    plane[0, 1] = (-1.0, 0.0)
    plane[1, 2] = (0.5, 0.0)
    before = ego.copy()
    warped = warped_of(spec_of(ego), [plane])
    assert np.array_equal(warped.cells[0], [1, 5])
    agg = aggregate_max(spec_of(ego), warped, np.array([1]), ego.reshape(-1, 2)[1:2])
    assert not np.shares_memory(agg.rows, ego)
    assert np.array_equal(ego, before)
    assert np.array_equal(agg.cells, [5])
    assert np.array_equal(agg.rows, [(0.5, 0.0)])


@pytest.mark.parametrize("name", ["lidar4", "fleet8", "camera_missing", "fusion_equal"])
def test_untagged_cells_hold_zeros(bench_run, tmp_path, name):
    """`_perceive` looks for a BEV's nonzero cells only in columns with a
    tagged voxel.  That is exact only while every voxel a fused grid leaves
    out is untagged and zero, so its list must hold every tagged voxel once
    and nothing else, under each fusion: none, biased and equal, and a mix
    of camera and LiDAR-only agents."""
    grids = []

    def checked_collapse(grid):
        grids.append(grid)
        s = grid.spec
        assert np.all(np.diff(grid.voxels) > 0) and np.all(grid.category != Category.NORMAL)
        assert np.all((grid.voxels >= 0) & (grid.voxels < s.nx * s.ny * s.nz))
        return collapse(grid)

    for seed in (0, 7919):
        exp, params = experiment(bench_run, tmp_path, name, seed)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(collab, "collapse", checked_collapse)
            cli.run_trial(exp, 0, None, params)
    assert len(grids) == 2 * exp.scenario.n_agents
    assert all(g.voxels.size for g in grids)


# --- whole trials ---------------------------------------------------------------

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench_run():
    return SimpleNamespace(**runpy.run_path(str(BENCH_RUN), run_name="covox_bench_run"))


def trial_config(bench_run, name, seed):
    """A bench workload's config, or fleet8's with a mix of camera and
    LiDAR-only agents (agents 1, 4 and 6 lack a camera, agent 2 its LiDAR),
    or fleet8's with the equal fusion."""
    config = bench_run.experiment_config(
        bench_run.WORKLOADS["lidar4" if name == "lidar4" else "fleet8"], seed
    )
    if name == "camera_missing":
        config["experiment"].update(mode="camera_missing", missing_agents=[1, 4, 6])
        config["scenario"]["dropout"] = {"2": ["lidar"]}
    elif name == "fusion_equal":
        config["pipeline"]["fusion"] = "equal"
    return config


def experiment(bench_run, tmp_path, name, seed, collab_mode=None):
    """The experiment of `trial_config`, under another collaboration mode if
    one is given, and its pipeline parameters."""
    config = trial_config(bench_run, name, seed)
    if collab_mode is not None:
        config["pipeline"]["collab"] = collab_mode
    path = tmp_path / f"{name}-{collab_mode}-{seed}.json"
    path.write_text(json.dumps(config))
    exp = load_experiment(path)
    return exp, make_pipeline_params(exp.pipeline.grid, exp.params_seed)


# fleet8's shape, with camera-less and LiDAR-less agents, and lidar4's
# under every collaboration mode, and fleet8's with the equal fusion.
TRIAL_SHAPES = [(workload, mode) for workload in ("fleet8", "lidar4", "camera_missing")
                for mode in collab.COLLAB_MODES] + [("fusion_equal", "attention")]
# Scenario seeds 0-3 (trials 0-3 of base seed 0) and 7919 for every shape,
# and 7920 (trial 1 of base seed 7919) for the benchmark's own two shapes.
SEED_TRIALS = ((0, 0), (0, 1), (0, 2), (0, 3), (7919, 0))
BENCH_SHAPES = (("fleet8", "attention"), ("lidar4", "max"))


@pytest.fixture(scope="module")
def replays(bench_run, tmp_path_factory):
    """Every trial of TRIAL_SHAPES x SEED_TRIALS, and two more, run by the
    program and by the reference pipeline.  Returns, per shape, the
    (seed, trial) pairs run and the first difference of those whose outputs
    differ, and the calls each swapped reference took over all of them."""
    tmp_path = tmp_path_factory.mktemp("replays")
    calls, runs = Counter(), {}
    for workload, mode in TRIAL_SHAPES:
        runs[workload, mode] = {}
        extra = ((7919, 1),) if (workload, mode) in BENCH_SHAPES else ()
        for seed, trial in SEED_TRIALS + extra:
            exp, params = experiment(bench_run, tmp_path, workload, seed, mode)
            got = cli.run_trial(exp, trial, None, params)
            with pytest.MonkeyPatch.context() as m:
                ran = use_reference_pipeline(m)
                want = cli.run_trial(exp, trial, None, params)
            calls.update(ran)
            runs[workload, mode][seed, trial] = None
            try:
                assert got.row == want.row
                assert got.log_lines == want.log_lines
                assert_rounds_equal(got.rounds, want.rounds)
            except AssertionError as exc:
                runs[workload, mode][seed, trial] = str(exc)
    return runs, calls


def mismatches(runs, shape, seed_trials=None):
    """The differing trials of one shape, of the given (seed, trial) pairs
    or of all it ran; every given pair must have been run."""
    ran = runs[shape]
    keys = ran if seed_trials is None else seed_trials
    assert set(keys) <= set(ran)
    return [f"seed {seed}, trial {trial}: {ran[seed, trial]}"
            for seed, trial in keys if ran[seed, trial] is not None]


@pytest.mark.parametrize("workload, collab_mode", TRIAL_SHAPES,
                         ids=[f"{workload}-{mode}" for workload, mode in TRIAL_SHAPES])
def test_trials_match_dense_pipeline(replays, workload, collab_mode):
    """CSV rows, message logs and every AgentRound array equal those of the
    reference pipeline, on every seed.  The swap is live: every name it
    swaps exists, and every reference it swaps in ran in some shape."""
    runs, calls = replays
    swapped = [f"{owner.__name__}.{name}" for owner, name, _ in REFERENCE_SWAPS]
    assert all(callable(getattr(owner, name, None)) for owner, name, _ in REFERENCE_SWAPS)
    assert [key for key in swapped if not calls[key]] == []
    assert mismatches(runs, (workload, collab_mode)) == []


@pytest.mark.parametrize("workload", ["fleet8", "lidar4"])
def test_trials_match_parent_box_path(bench_run, replays, workload):
    """The benchmark workloads' trials 0 and 1 of seeds 0 and 7919, under
    their own collaboration mode, equal those of the reference pipeline,
    whose ray cast, detector and clip are the per-stage references."""
    runs, calls = replays
    for owner, name in ((scene, "raycast"), (collab, "detect_local"),
                        (cli, "detect_local"), (metrics, "clip_polygon")):
        assert calls[f"{owner.__name__}.{name}"]
    mode = trial_config(bench_run, workload, 0)["pipeline"]["collab"]
    pairs = ((0, 0), (0, 1), (7919, 0), (7919, 1))
    assert mismatches(runs, (workload, mode), pairs) == []


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("name", ["lidar4", "fleet8", "camera_missing", "fusion_equal"])
def test_trials_match_every_grid_and_token(bench_run, replays, name, seed):
    """Trial 0 of each shape under its own collaboration mode equals that
    of the reference pipeline, whose perceive stage reads whole planes and
    grids and whose aggregation projects the whole token stack."""
    runs, calls = replays
    assert calls[f"{collab.__name__}._perceive"] and calls[f"{collab.__name__}._receive"]
    mode = trial_config(bench_run, name, seed)["pipeline"]["collab"]
    assert mismatches(runs, (name, mode), [(seed, 0)]) == []


# --- phase 2 with empty and unlanded messages -------------------------------------

GRID = GridSpec((-20.0, 20.0), (-20.0, 20.0), (0.5, 3.7), 64, 64, 8, 8)
PARAMS = make_pipeline_params(GRID, seed=2024)


def _agent(aid, x, y):
    pose = Pose.from_planar(x, y, 0.0)
    return AgentState(aid, pose, pose)


def reuse_scene():
    """Five LiDAR agents whose receivers have one to three neighbors.

    With a 30 m range agent 0 has three neighbors, agent 1 one and agents
    2-4 two each.  Agent 4 sees nothing, so its message is empty.  Agent 1's
    message lies wholly outside agent 0's grid and agent 0's wholly outside
    agent 1's; agent 4 gets nothing in its grid from either neighbor.
    """
    scn = ScenarioConfig(seed=1, n_agents=5, n_objects=0, comm_range=30.0,
                         lidar=LidarSpec(max_range=15.0))
    agents = [_agent(0, 0.0, 0.0), _agent(1, 28.0, 0.0), _agent(2, 0.0, 25.0),
              _agent(3, -25.0, 0.0), _agent(4, -25.0, 25.0)]
    objects = [
        BoxObject((3.0, 13.0), 0.3, (4.0, 1.8, 1.6)),
        BoxObject((-13.0, 2.0), -0.2, (4.0, 1.8, 1.6)),
        BoxObject((41.0, 0.0), 0.1, (4.0, 1.8, 1.6)),
    ]
    return scn, agents, objects


@pytest.mark.parametrize("collab_mode", collab.COLLAB_MODES)
def test_empty_and_unlanded_messages_match_the_reference(monkeypatch, collab_mode):
    """Receivers of one, two and three neighbors, an empty message and
    messages that land wholly outside a receiver's grid aggregate as the
    reference pipeline does, within the tolerance of `equivalent`."""
    scn, agents, objects = reuse_scene()
    pipe = PipelineConfig(grid=GRID, bins=DepthBins(1.0, 33.0, 16),
                          predictor=NoisyOraclePredictor(1.0, 1), fusion_mode="none",
                          depth_projection="no", collab_mode=collab_mode)
    degrees = {len(n) for n in build_comm_graph(agents, scn.comm_range).values()}
    assert degrees == {1, 2, 3}

    calls = []

    def checked_warp(messages, rel_poses, spec):
        result = warp_sparse(messages, rel_poses, spec)
        calls.extend((len(m.indices), c.size) for m, c in zip(messages, result.cells))
        return result

    with monkeypatch.context() as m:
        m.setattr(collab, "warp_sparse", checked_warp)
        got, _ = run_round(agents, objects, scn, pipe, PARAMS)
    assert (0, 0) in calls  # an empty message
    assert any(sent > 0 and landed == 0 for sent, landed in calls)  # one wholly outside
    assert any(landed > 0 for _, landed in calls)

    with monkeypatch.context() as m:
        use_reference_pipeline(m)
        want, _ = run_round(agents, objects, scn, pipe, PARAMS)
    assert_rounds_equal(got, want, equivalent)


def test_replies_per_sender_match_replies_per_edge(monkeypatch):
    """Phase 1 answers all of a sender's requests in one pass; the ledger,
    the replies, the depth maps and every AgentRound array must equal those
    of one projection and one encoding per request, with a sender whose
    scan came back empty."""
    scn, agents, objects = reuse_scene()
    pipe = PipelineConfig(grid=GRID, bins=DepthBins(1.0, 33.0, 16),
                          predictor=NoisyOraclePredictor(1.0, 1), robust=True)
    simulate = collab.simulate_lidar

    def empty_scan_for_agent_4(agent, *args):
        return np.zeros((0, 3)) if agent.id == 4 else simulate(agent, *args)

    monkeypatch.setattr(collab, "simulate_lidar", empty_scan_for_agent_4)
    perceive, shared = collab._perceive, []

    def recording(w, *args):
        shared.append([(c.copy(), p.copy()) for c, p in w.shared])
        perceive(w, *args)

    monkeypatch.setattr(collab, "_perceive", recording)
    got, got_ledger = run_round(agents, objects, scn, pipe, PARAMS)
    got_shared = list(shared)
    shared.clear()
    assert (4, 2, "depth", 0) in {(r.sender, r.receiver, r.phase, r.elements)
                                  for r in got_ledger.records}
    with monkeypatch.context() as m:
        m.setattr(collab, "_share_clouds", share_clouds_per_edge)
        want, want_ledger = run_round(agents, objects, scn, pipe, PARAMS)
    assert got_ledger.records == want_ledger.records
    assert_rounds_equal(got, want)
    assert len(got_shared) == len(shared) == len(agents)
    for got_replies, want_replies in zip(got_shared, shared):
        assert len(got_replies) == len(want_replies)
        for (counts, pixels), (want_counts, want_pixels) in zip(got_replies, want_replies):
            assert np.array_equal(counts, want_counts)
            assert np.array_equal(pixels, want_pixels)


def test_second_round_leaves_the_first_unchanged():
    scn, agents, objects = reuse_scene()
    pipe = PipelineConfig(grid=GRID, bins=DepthBins(1.0, 33.0, 16),
                          predictor=NoisyOraclePredictor(1.0, 1), collab_mode="max")
    first, _ = run_round(agents, objects, scn, pipe, PARAMS)
    kept = {
        aid: [np.copy(a) for a in (r.aggregated, r.bev_rows, r.message.indices, r.message.vectors)]
        for aid, r in first.items()
    }
    moved = [_agent(a.id, *(np.array(planar_parts(a.true_pose)[:2]) + 3.0)) for a in agents]
    run_round(moved, objects, scn, pipe, PARAMS)
    for aid, r in first.items():
        now = (r.aggregated, r.bev_rows, r.message.indices, r.message.vectors)
        assert all(np.array_equal(a, b) for a, b in zip(now, kept[aid]))


# --- only rows some neighbor places go on the wire --------------------------------


def test_every_packed_row_lands_in_some_neighbors_grid(bench_run, tmp_path):
    """A sender packs only the cells that land in at least one neighbor's
    grid under the pose that neighbor warps them with.  Trial 2 of lidar4 at
    seed 0 once packed 41 rows that every receiver dropped."""
    exp, params = experiment(bench_run, tmp_path, "lidar4", 0)
    rounds = cli.run_trial(exp, 2, None, params).rounds
    for i, w in rounds.items():
        placed = np.zeros(w.message.indices.size, dtype=bool)
        for j in w.neighbors:
            placed |= land_fresh(w.message.indices, rounds[j].rel[i], exp.pipeline.grid)[2]
        assert placed.all(), i


COMM_COLUMNS = ("feature_elements", "total_elements", "comm_log2", "dense_ratio")


@pytest.mark.parametrize("name, trials", [("fleet8", (0, 1)), ("lidar4", (0, 2, 45))])
def test_unplaced_rows_change_only_the_feature_charge(bench_run, tmp_path, name, trials):
    """Receivers drop the rows no neighbor places, so leaving them out of
    the message changes nothing but the message and the communication
    columns: every other array of the records, the collisions and the rest
    of the CSV row are those of a message that keeps every row that beats
    its threshold."""
    exp, params = experiment(bench_run, tmp_path, name, 0)
    names = cli.CSV_HEADER.split(",")
    lost = 0
    for trial in trials:
        got = cli.run_trial(exp, trial, None, params)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(collab, "_placeable", lambda cells, poses, spec: np.ones(cells.size, bool))
            full = cli.run_trial(exp, trial, None, params)
        for aid, r in got.rounds.items():
            ref = full.rounds[aid]
            kept = np.isin(ref.message.indices, r.message.indices)
            assert np.array_equal(ref.message.indices[kept], r.message.indices)
            assert np.array_equal(ref.message.vectors[kept], r.message.vectors)
            lost += np.count_nonzero(~kept)
            ref.message = r.message
        assert_rounds_equal(got.rounds, full.rounds)
        rows = [{k: v for k, v in zip(names, o.row.split(",")) if k not in COMM_COLUMNS}
                for o in (got, full)]
        assert rows[0] == rows[1]
    assert lost


# --- one depth distribution per distinct window ----------------------------------


def check_window_code(img, predictor, bins):
    """`predict_depth` against the pixel-by-pixel reference; returns the
    number of distinct windows.  Each pixel gets its window's row, bit for
    bit, and the rows match the reference's within the tolerance."""
    got = predict_depth(img, predictor, bins)
    want = predict_depth_full_image(img, predictor, bins)
    assert equivalent(got, want)
    d = bins.n_bins
    counts = window_counts(img, predictor, bins).reshape(-1, d)
    _, first, window = np.unique(counts, axis=0, return_index=True, return_inverse=True)
    got = got.reshape(-1, d)
    assert got.tobytes() == got[first][window.reshape(-1)].tobytes()
    return first.size


@st.composite
def depth_images(draw):
    """A depth image, 2-48 bins and a noisy oracle of blur radius 0-4, so
    that some codes take two or more int64 words.  Images are 1 x N, N x 1
    or blocks; depths include inf, d_max and beyond, and below d_min; a few
    levels in blobs give a few distinct windows, many levels scattered give
    hundreds."""
    n_bins = draw(st.integers(2, 48))
    bins = DepthBins(1.0, 1.0 + 0.5 * n_bins, n_bins)
    layout = draw(st.sampled_from(["row", "column", "block"]))
    n = draw(st.integers(1, 70))
    h, w = {"row": (1, n), "column": (n, 1)}.get(
        layout, (draw(st.integers(1, 30)), draw(st.integers(1, 30))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = [np.inf, bins.d_max, 1.5 * bins.d_max, 0.5 * bins.d_min, bins.d_min]
    levels = np.concatenate([
        specials, rng.uniform(bins.d_min, bins.d_max, draw(st.integers(1, 2 * n_bins)))
    ])
    if draw(st.booleans()):  # scattered
        img = rng.choice(levels, (h, w))
    else:  # blobs: a coarse image scaled up
        coarse = rng.choice(levels, (-(-h // 4), -(-w // 4)))
        img = np.repeat(np.repeat(coarse, 4, axis=0), 4, axis=1)[:h, :w]
    sigma = draw(st.sampled_from([0.0, 0.4, 1.0, 2.5]))
    return img, NoisyOraclePredictor(sigma, draw(st.integers(0, 4))), bins


@given(depth_images())
@settings(max_examples=300, deadline=None)
def test_predict_depth_matches_full_image(case):
    check_window_code(*case)


def test_window_code_cases_cover_block_sizes():
    """Distinct-window counts below 64, above it and not a multiple of 8,
    on 1 x N and N x 1 images, with codes of one and of several words."""
    rng = np.random.default_rng(11)
    bins16, bins48 = DepthBins(1.0, 33.0, 16), DepthBins(1.0, 25.0, 48)
    ramp = np.linspace(0.5, 40.0, 96)
    seen = []
    for img, predictor, bins in (
        (ramp[None, :], NoisyOraclePredictor(1.0, 1), bins16),
        (ramp[:, None], NoisyOraclePredictor(0.0, 4), bins48),
        (rng.uniform(0.5, 40.0, (24, 32)), NoisyOraclePredictor(1.0, 1), bins16),
        (rng.uniform(0.5, 30.0, (24, 32)), NoisyOraclePredictor(2.5, 4), bins48),
        (np.full((5, 7), np.inf), NoisyOraclePredictor(0.0, 0), bins16),
        # Camera-sized images.
        (np.repeat(rng.uniform(0.5, 15.0, (16, 24)), 4, axis=0).repeat(4, axis=1),
         NoisyOraclePredictor(1.0, 1), DepthBins(1.0, 13.0, 17)),
        (np.repeat(rng.uniform(0.5, 30.0, (16, 24)), 4, axis=0).repeat(4, axis=1),
         NoisyOraclePredictor(1.0, 2), DepthBins(1.0, 23.0, 44)),
    ):
        seen.append(check_window_code(img, predictor, bins))
    assert min(seen) < 64 < max(seen)
    assert any(u > 64 and u % 8 for u in seen)


# --- counters and allocation of the sparse chain ---------------------------------

PERCEIVE_COUNTERS = ("voxel.cells_lidar", "voxel.cells_camera", "voxel.cells_hybrid",
                     "fusion.camera_cells_dropped", "voxel.lift_dropped_mass")


@pytest.mark.parametrize("name", ["fleet8", "lidar4", "camera_missing", "fusion_equal"])
def test_traced_counters_match_dense_pipeline(bench_run, tracing, tmp_path, monkeypatch, name):
    """The benchmark's per-layer voxel and fusion counters read the same on
    the sparse grids as on the reference grids.  Every agent is categorized
    and fused, camera images or not, so each LiDAR voxel of the trial is
    counted once, as a LiDAR or a hybrid cell."""
    exp, params = experiment(bench_run, tmp_path, name, 0)

    def traced_counts():
        tracer = tracing.Tracer()
        tracer.trial = 0
        with tracing.patched(tracer):
            outcome = cli.run_trial(exp, 0, None, params)
        return {key: tracer.counts[0][key] for key in PERCEIVE_COUNTERS}, outcome

    got, outcome = traced_counts()
    with monkeypatch.context() as m:
        use_reference_pipeline(m)
        want, _ = traced_counts()
    assert got == want
    lidar_voxels = sum(r.lidar_grid.voxels.size for r in outcome.rounds.values())
    assert got["voxel.cells_lidar"] + got["voxel.cells_hybrid"] == lidar_voxels > 0
    if name == "lidar4":
        assert got["voxel.cells_lidar"] == lidar_voxels
    if name == "fleet8":
        assert all(got.values()), got


def call_peaks(bench_run, tmp_path, monkeypatch, owner, name, trials, collab_mode=None):
    """tracemalloc's peak over each call of `owner.name` in the given trials
    of the fleet8 shape at seed 0, under another collaboration mode if one
    is given, above what was allocated when the call began.  Trial 0 runs
    first, untraced, to warm up."""
    exp, params = experiment(bench_run, tmp_path, "fleet8", 0, collab_mode)
    cli.run_trial(exp, 0, None, params)
    fn, peaks = getattr(owner, name), []

    def measured(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(owner, name, measured)
    tracemalloc.start()
    try:
        for trial in trials:
            cli.run_trial(exp, trial, None, params)
    finally:
        tracemalloc.stop()
    return exp, peaks


def one_grid(exp):
    """The bytes of one dense float64 feature grid of the experiment."""
    g = exp.pipeline.grid
    return g.nx * g.ny * g.nz * g.channels * 8


def test_sense_allocates_less_than_one_grid(bench_run, tmp_path, monkeypatch):
    """After a warm-up trial, sensing any agent of the fleet8 shape's
    trials 1-7, its LiDAR capture and voxelization, peaks below the size of
    one dense feature grid."""
    exp, peaks = call_peaks(bench_run, tmp_path, monkeypatch, collab, "_sense", range(1, 8))
    assert len(peaks) == 7 * exp.scenario.n_agents
    assert max(peaks) < one_grid(exp), peaks


def test_camera_render_allocates_less_than_one_grid(bench_run, tmp_path, monkeypatch):
    """After a warm-up trial, each camera render of the fleet8 shape's
    trials 1-7 peaks below the size of one dense feature grid.  Boxes near
    a camera give its bundle up to about ten thousand (box, ray) pairs, so
    the slab test must run them in blocks."""
    exp, peaks = call_peaks(bench_run, tmp_path, monkeypatch, collab, "simulate_camera",
                            range(1, 8))
    assert len(peaks) == 7 * exp.scenario.n_agents
    assert max(peaks) < one_grid(exp), peaks


def arrays_in(value):
    """Every array a record field holds, through tuples, lists, dicts and
    dataclass instances."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays_in(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from arrays_in(getattr(value, f.name))


def test_records_keep_no_dense_plane(bench_run, tmp_path, monkeypatch):
    """An agent's BEV travels as its nonzero rows from `collapse` to the
    message, and its aggregated BEV as its nonzero rows from the aggregator
    to scoring.  No field of a returned fleet8 AgentRound holds an array of
    one grid's nx*ny*nz*C scalars; the `aggregated` property spreads the
    aggregated rows into a fresh plane.  After a warm-up trial each
    `_perceive` call of trials 1-3 leaves less than one such plane of
    float64 allocated."""
    exp, params = experiment(bench_run, tmp_path, "fleet8", 0)
    g = exp.pipeline.grid
    plane = g.nx * g.ny * g.nz * g.channels
    outcome = cli.run_trial(exp, 0, None, params)
    for aid, r in outcome.rounds.items():
        for f in dataclasses.fields(r):
            sizes = [a.size for a in arrays_in(getattr(r, f.name))]
            assert max(sizes, default=0) < plane, (aid, f.name, max(sizes))
        whole = r.aggregated
        assert np.array_equal(whole, plane_of(g, r.aggregated_cells, r.aggregated_rows))
        assert not np.shares_memory(whole, r.aggregated_rows)
        assert r.aggregated is not whole
    assert any(r.aggregated_cells.size for r in outcome.rounds.values())
    del outcome
    perceive, kept = collab._perceive, []

    def measured_perceive(*args):
        before = tracemalloc.get_traced_memory()[0]
        perceive(*args)
        kept.append(tracemalloc.get_traced_memory()[0] - before)

    monkeypatch.setattr(collab, "_perceive", measured_perceive)
    tracemalloc.start()
    try:
        for trial in range(1, 4):
            cli.run_trial(exp, trial, None, params)
    finally:
        tracemalloc.stop()
    assert len(kept) == 3 * exp.scenario.n_agents
    assert max(kept) < plane * 8, kept


@pytest.mark.parametrize("collab_mode", ["max", "concat"])
def test_receive_builds_no_plane(bench_run, tmp_path, monkeypatch, collab_mode):
    """Under max and concat aggregation a receiver works on the rows of the
    cells it or a neighbor holds: each `_receive` call of the fleet8
    shape's trials 1-3 peaks below one (nx, ny, F) float64 plane."""
    exp, peaks = call_peaks(bench_run, tmp_path, monkeypatch, collab, "_receive", range(1, 4),
                            collab_mode=collab_mode)
    g = exp.pipeline.grid
    assert len(peaks) == 3 * exp.scenario.n_agents
    assert max(peaks) < g.nx * g.ny * g.bev_channels * 8, peaks


def test_round_peaks_below_16_mib(bench_run, tmp_path, monkeypatch):
    """Phase 2 works on rows, from the warp to the records: after a warm-up
    trial, tracemalloc's peak over each round of the fleet8 shape's trials
    1-3 stays below 16 MiB.  A stack of one (nx, ny, F) plane per neighbor
    takes 14 MiB there, and the eight records' aggregated planes 16 MiB."""
    _, peaks = call_peaks(bench_run, tmp_path, monkeypatch, cli, "run_round", range(1, 4))
    assert len(peaks) == 3
    assert max(peaks) < 16 << 20, peaks


def test_round_peaks_below_9_mib(bench_run, tmp_path, monkeypatch):
    """Guidance attention runs its queries in blocks, and each agent's
    camera images live only while it perceives: after a warm-up trial,
    tracemalloc's peak over each round of the fleet8 shape's trials 1-25
    stays below 9 MiB.  Whole (heads x queries x camera cells) guidance
    arrays took a round to 13.3 MiB there."""
    _, peaks = call_peaks(bench_run, tmp_path, monkeypatch, cli, "run_round", range(1, 26))
    assert len(peaks) == 25
    assert max(peaks) < 9 << 20, peaks
