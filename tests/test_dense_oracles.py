"""The stages from voxelization to detection touch only the voxels and
cells that hold data, the depth head runs once per distinct window, and
the exchange runs per agent, not per edge.  The references here are the
versions they replace: they hold every voxel of the grid in dense arrays,
count points into every voxel, lift, categorize, fuse, collapse, mask and
scan whole grids, predict depth pixel by pixel over the whole image,
score, mask and pack every cell, answer each phase-1 request on its own,
warp every message on its own into a fresh zero plane, run attention on
whole token stacks, take the max aggregation over a copy of the ego plane
and find nonzero cells by scanning whole planes.  The grid references take
and return the program's sparse grids, converting at their edges, so that
they can stand in for the program's stages.  Every stage, and every trial
end to end, must match them bit for bit.  Whole trials must also match the
box path as it ran box by box: the ray cast, the detector's components and
rectangles and the IoU clip; and the perceive stage as it ran on whole
grids.
"""

import importlib.util
import json
import runpy
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covox import cli, collab, depth, metrics, nnkit, scene
from covox.collab import (
    AgentRound,
    PipelineConfig,
    aggregate_concat,
    aggregate_max,
    build_comm_graph,
    importance_scores,
    make_pipeline_params,
    run_round,
    warp_sparse,
)
from covox.config import load_experiment
from covox.depth import DepthBins, DepthMap, NoisyOraclePredictor, predict_depth
from covox.fusion import (
    compute_guidance,
    fuse_hybrid_cells,
    fuse_modalities,
    fuse_modalities_equal,
    make_equal_params,
    make_fusion_params,
)
from covox.depth import nearest_per_pixel
from covox.geometry import Pose, compose, planar_parts
from covox.robust import occupancy_from_bev, occupancy_from_grid
from covox.scene import AgentState, BoxObject, LidarSpec, ScenarioConfig, generate_scene
from covox.voxel import (
    Category,
    GridSpec,
    VoxelGrid,
    categorize,
    collapse,
    voxelize_points,
)

from test_collab import nonzero_cells
from test_metrics import clip_polygon_of_vectors
from test_robust import detect_local_per_component
from test_scene import raycast_per_box
from test_voxel import _dense_lift_camera, dense, dense_categorized, dense_zeros, sparse

# --- dense references --------------------------------------------------------


def voxelize_points_dense(cloud, spec):
    """Pillar encoding with one bincount over every voxel of the grid per
    sum, and the occupied voxels found by a scan of the counts."""
    feats, category = dense_zeros(spec)
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    idx, inside = spec.cell_of(pts)
    pts, idx = pts[inside], idx[inside]
    if pts.shape[0] == 0:
        return sparse(spec, feats, category)
    flat = (idx[:, 0] * spec.ny + idx[:, 1]) * spec.nz + idx[:, 2]
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], flat))
    pts, flat = pts[order], flat[order]
    n_cells = spec.nx * spec.ny * spec.nz
    counts = np.bincount(flat, minlength=n_cells)
    sums = np.stack(
        [np.bincount(flat, weights=pts[:, k], minlength=n_cells) for k in range(3)], axis=1
    )
    occupied = np.flatnonzero(counts)
    means = sums[occupied] / counts[occupied, None]
    centers = spec.cell_center(*np.unravel_index(occupied, (spec.nx, spec.ny, spec.nz)))
    rows = feats.reshape(n_cells, spec.channels)
    rows[occupied, 0] = np.log1p(counts[occupied])
    rows[occupied, 1:4] = means - centers
    rows[occupied, 4] = means[:, 2]
    category.reshape(n_cells)[occupied] = Category.LIDAR
    return sparse(spec, feats, category)


def categorize_dense(lidar_grid, camera_grid):
    """Both branches and the tags as dense arrays over every voxel; the
    dense fusions below take this."""
    lidar, has_l = dense(lidar_grid)
    camera, has_c = dense(camera_grid)
    category = np.zeros_like(has_l)
    category[has_l == Category.LIDAR] = Category.LIDAR
    category[has_c == Category.CAMERA] = Category.CAMERA
    category[(has_l == Category.LIDAR) & (has_c == Category.CAMERA)] = Category.HYBRID
    return SimpleNamespace(spec=lidar_grid.spec, lidar=lidar, camera=camera, category=category)


def collapse_dense(grid):
    s = grid.spec
    return dense(grid)[0].reshape(s.nx, s.ny, s.nz * s.channels)


def fuse_modalities_masked(params, cat):
    features = np.zeros_like(cat.lidar)
    category = cat.category.copy()
    lidar_mask = cat.category == Category.LIDAR
    features[lidar_mask] = cat.lidar[lidar_mask]
    hybrid_mask = cat.category == Category.HYBRID
    if np.any(hybrid_mask):
        features[hybrid_mask] = fuse_hybrid_cells(
            params, cat.lidar[hybrid_mask], cat.camera[hybrid_mask]
        )
    camera_mask = cat.category == Category.CAMERA
    if np.any(camera_mask):
        guidance_pool = cat.lidar[lidar_mask | hybrid_mask]
        keep = compute_guidance(params, guidance_pool, cat.camera[camera_mask])
        cam_idx = np.argwhere(camera_mask)
        kept = cam_idx[keep == 1]
        dropped = cam_idx[keep == 0]
        features[kept[:, 0], kept[:, 1], kept[:, 2]] = cat.camera[
            kept[:, 0], kept[:, 1], kept[:, 2]
        ]
        category[dropped[:, 0], dropped[:, 1], dropped[:, 2]] = Category.NORMAL
    return sparse(cat.spec, features, category)


def fuse_modalities_equal_masked(lin, cat):
    features = np.zeros_like(cat.lidar)
    lidar_mask = cat.category == Category.LIDAR
    features[lidar_mask] = cat.lidar[lidar_mask]
    camera_mask = cat.category == Category.CAMERA
    features[camera_mask] = cat.camera[camera_mask]
    hybrid_mask = cat.category == Category.HYBRID
    if np.any(hybrid_mask):
        pair = np.concatenate([cat.lidar[hybrid_mask], cat.camera[hybrid_mask]], axis=1)
        features[hybrid_mask] = lin.apply(pair)
    return sparse(cat.spec, features, cat.category)


def window_counts(true_depth_image, predictor, bins):
    """(H, W, D) per-bin pixel counts of each pixel's window, clipped to
    the image, with the bin of an out-of-range depth the farthest."""
    h, w = np.asarray(true_depth_image).shape
    d = bins.n_bins
    k, valid = bins.bin_of(true_depth_image)
    k = np.where(valid, k, d - 1)
    r = predictor.blur_radius
    onehot = np.zeros((h + 2 * r, w + 2 * r, d), dtype=np.int32)  # zero-padded
    np.put_along_axis(onehot[r : r + h, r : r + w], k[:, :, None], 1, axis=2)
    rows = sum(onehot[i : i + h] for i in range(2 * r + 1))
    return sum(rows[:, j : j + w] for j in range(2 * r + 1))


def predict_depth_full_image(true_depth_image, predictor, bins):
    """The noisy oracle pixel by pixel: every pixel's window counts times
    the Gaussian table, normalised."""
    if not isinstance(predictor, NoisyOraclePredictor):
        return predict_depth(true_depth_image, predictor, bins)
    h, w = np.asarray(true_depth_image).shape
    d = bins.n_bins
    counts = window_counts(true_depth_image, predictor, bins)
    table = depth._bin_gaussian_table(predictor.sigma_bins, d)
    vol = counts.reshape(h * w, d).astype(np.float64) @ table
    vol /= vol.sum(axis=1, keepdims=True)
    return vol.reshape(h, w, d)


def occupancy_from_bev_dense(bev, cells=None):
    """Every cell's norm; `cells` is not read."""
    return np.linalg.norm(np.asarray(bev, dtype=np.float64), axis=2)


def occupancy_from_grid_dense(grid):
    """Every column's z-sum."""
    return dense(grid)[0][:, :, :, 0].sum(axis=2)


def importance_scores_dense(bev, cells=None):
    """Every cell's score; `cells` is not read."""
    bev = np.asarray(bev, dtype=np.float64)
    level = np.linalg.norm(bev, axis=2) / np.sqrt(bev.shape[2])
    return 1.0 / (1.0 + np.exp(-(collab._IMPORTANCE_GAIN * level - collab._IMPORTANCE_SHIFT)))


def warp_message_fresh(message, rel_pose, spec):
    """One message warped on its own into a fresh zero plane: the plane and
    the WarpResult of that plane alone."""
    f = spec.bev_channels
    bev = np.zeros((spec.nx, spec.ny, f))
    no_cells = np.zeros(0, dtype=np.int64)
    indices = np.asarray(message.indices).reshape(-1, 2)
    if indices.shape[0] == 0:
        return bev, collab.WarpResult([no_cells], [no_cells], 0, 0)
    vectors = np.asarray(message.vectors, dtype=np.float64).reshape(-1, f)
    centers = spec.bev_cell_centers(indices[:, 0], indices[:, 1])
    x, y, yaw = planar_parts(rel_pose)
    c, s = np.cos(yaw), np.sin(yaw)
    px = c * centers[:, 0] - s * centers[:, 1] + x
    py = s * centers[:, 0] + c * centers[:, 1] + y
    ix = np.floor((px - spec.x_range[0]) / spec.dx).astype(np.int64)
    iy = np.floor((py - spec.y_range[0]) / spec.dy).astype(np.int64)
    inb = (ix >= 0) & (ix < spec.nx) & (iy >= 0) & (iy < spec.ny)
    dropped = int(np.count_nonzero(~inb))
    rows = np.flatnonzero(inb)
    if rows.size == 0:
        return bev, collab.WarpResult([no_cells], [no_cells], 0, dropped)
    flat = ix[rows] * spec.ny + iy[rows]
    uniq, first_in_rev = np.unique(flat[::-1], return_index=True)
    last = rows[flat.size - 1 - first_in_rev]
    bev.reshape(-1, f)[uniq] = vectors[last]
    return bev, collab.WarpResult([uniq], [last], int(flat.size - uniq.size), dropped)


def preference_map_dense(grid):
    """Every column's threshold."""
    return np.where(np.any(dense(grid)[1] == Category.HYBRID, axis=2), 0.0, 0.5)


def pack_message_dense(bev, mask, cells=None):
    """Every masked cell, then its nonzero rows; `cells` is not read."""
    idx = np.argwhere(np.asarray(mask) == 1)
    vecs = np.asarray(bev)[idx[:, 0], idx[:, 1]]
    keep = np.any(vecs != 0.0, axis=1) if vecs.size else np.zeros(0, dtype=bool)
    idx, vecs = idx[keep], vecs[keep]
    return collab.Message(idx, np.array(vecs), int(np.count_nonzero(vecs)))


def share_clouds_per_edge(works, scenario, pipe, ledger):
    """Phase 1 with each request answered on its own: a projection and a
    nearest-point search per edge."""
    if pipe.depth_projection != "all":
        return
    payloads = {}
    for w in works.values():
        if w.images is None:
            continue
        for j in w.neighbors:
            sender = works[j]
            if not sender.state.has_lidar:
                continue
            if j not in payloads:
                payloads[j] = collab.downsample_cloud(sender.cloud, collab._PAYLOAD_CELL)
            ledger.add(w.state.id, j, "depth", collab._REQUEST_ELEMENTS)
            cam = collab.transform_points(compose(collab._CAM_FROM_AGENT, w.rel[j]), payloads[j])
            _, _, rows = nearest_per_pixel(cam, scenario.camera, pipe.bins)
            reply = cam[np.sort(rows)]
            ledger.add(j, w.state.id, "depth", 3 * reply.shape[0])
            w.shared.append(reply)


def aggregate_max_dense(ego, warped):
    """Max over every cell's token stack [ego, neighbors...], an all-zero
    (unsent) neighbor token counting as -inf."""
    tokens = [np.asarray(ego, dtype=np.float64)]
    tokens += [np.where(np.any(w != 0.0, axis=2, keepdims=True), w, -np.inf) for w in warped]
    return np.max(np.stack(tokens), axis=0)


def receive_fresh(w, works, pipe, params, ledger, planes, tokens):
    """Phase 2 with each message warped on its own into a fresh zero plane
    and attention on whole token stacks; `planes` and `tokens` are ignored."""
    warped, written = [], []
    collisions = 0
    for j in w.neighbors:
        msg = works[j].message
        plane, wr = warp_message_fresh(msg, w.rel[j], pipe.grid)
        warped.append(plane)
        written.append(wr.cells[0])
        collisions += wr.collisions
        ledger.add(j, w.state.id, "feature", msg.feature_elements)
    if pipe.collab_mode == "attention":
        agg = aggregate_token_stack(params.agg_mha, w.bev, warped, written)
    elif pipe.collab_mode == "max":
        agg = aggregate_max_dense(w.bev, warped)
    else:
        agg = aggregate_concat(params.concat_lin, w.bev, warped)
    return AgentRound(
        bev=w.bev,
        aggregated=agg,
        cells=nonzero_cells(agg),
        mask=w.mask,
        message=w.message,
        depth_map=w.depth_map,
        warp_collisions=collisions,
        pose_errors=w.pose_errors,
    )


def lift_camera_dense(features, dist, intr, cam_pose_in_ego, spec, mass_threshold, bin_centers):
    feats, category, _, dropped = _dense_lift_camera(
        features, dist, intr, cam_pose_in_ego, spec, mass_threshold, bin_centers
    )
    return SimpleNamespace(grid=sparse(spec, feats, category), dropped_mass=dropped)


def use_dense_pipeline(m):
    """Swap every sparse stage of a round and of its scoring for its reference."""
    m.setattr(collab, "voxelize_points", voxelize_points_dense)
    m.setattr(collab, "predict_depth", predict_depth_full_image)
    m.setattr(collab, "lift_camera", lift_camera_dense)
    m.setattr(collab, "categorize", categorize_dense)
    m.setattr(collab, "fuse_modalities", fuse_modalities_masked)
    m.setattr(collab, "fuse_modalities_equal", fuse_modalities_equal_masked)
    m.setattr(collab, "collapse", collapse_dense)
    m.setattr(collab, "importance_scores", importance_scores_dense)
    m.setattr(collab, "preference_map", preference_map_dense)
    m.setattr(collab, "pack_message", pack_message_dense)
    m.setattr(collab, "_share_clouds", share_clouds_per_edge)
    m.setattr(collab, "_receive", receive_fresh)
    m.setattr(collab, "occupancy_from_grid", occupancy_from_grid_dense)
    m.setattr(cli, "occupancy_from_bev", occupancy_from_bev_dense)


def assert_rounds_equal(got, want):
    assert list(got) == list(want)
    for aid, r in got.items():
        ref = want[aid]
        for name in ("bev", "aggregated", "cells", "mask"):
            assert np.array_equal(getattr(r, name), getattr(ref, name)), (aid, name)
        assert np.array_equal(r.message.indices, ref.message.indices)
        assert np.array_equal(r.message.vectors, ref.message.vectors)
        assert r.message.feature_elements == ref.message.feature_elements
        assert (r.depth_map is None) == (ref.depth_map is None)
        if r.depth_map is not None:
            assert np.array_equal(r.depth_map.bin_idx, ref.depth_map.bin_idx)
            assert np.array_equal(r.depth_map.source, ref.depth_map.source)
        assert r.warp_collisions == ref.warp_collisions
        assert r.pose_errors == ref.pose_errors


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
        params = replace(make_fusion_params(channels, seed=7), max_tokens=max_tokens,
                         guidance_threshold=threshold)
        lin = make_equal_params(channels, seed=7)
        biased = fuse_modalities(params, categorize(lidar, camera))
        assert_grids_equal(biased, fuse_modalities_masked(params, categorize_dense(lidar, camera)))
        assert_grids_equal(fuse_modalities_equal(lin, categorize(lidar, camera)),
                           fuse_modalities_equal_masked(lin, categorize_dense(lidar, camera)))
        if threshold == 1.0 and lidar.voxels.size:
            assert not np.any(biased.category == Category.CAMERA)

    @with_edge_grids()
    @given(**GRID_ARGS)
    @settings(max_examples=30, deadline=None)
    def test_collapse_matches_dense(self, seed, shape, channels, p_lidar, p_camera):
        grid, _ = branch_grids(seed, shape, channels, p_lidar, p_camera)
        bev = collapse(grid)
        assert bev.tobytes() == collapse_dense(grid).tobytes()
        assert not np.shares_memory(bev, grid.features)

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
        bev = np.zeros(shape)
        rows = bev.reshape(-1, shape[2])
        on = rng.uniform(size=rows.shape[0]) < density
        rows[on] = rng.standard_normal((int(on.sum()), shape[2]))
        # A row of the special value: signed zeros, squares that underflow
        # or overflow, infinities.
        rows[rng.integers(rows.shape[0])] = special
        cells = nonzero_cells(bev)
        with np.errstate(over="ignore"):
            assert np.array_equal(occupancy_from_bev(bev, cells), occupancy_from_bev_dense(bev))
            assert np.array_equal(importance_scores(bev, cells), importance_scores_dense(bev))

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
        """Messages warped in one pass into a stack of planes, one more
        plane than messages, give each plane what its message alone gives a
        fresh zero plane; clearing the listed cells empties the stack."""
        spec = GridSpec((-8.0, 8.0), (-8.0, 8.0), (0.0, 2.0), 12, 12, 2, 3)
        rng = np.random.default_rng(seed)
        msgs = [
            collab.Message(rng.integers(0, 12, (n, 2)), rng.standard_normal((n, spec.bev_channels)), 0)
            for n in sizes
        ]
        rels = [Pose.from_planar(*pose) for pose in poses[: len(msgs)]]
        msgs = msgs[: len(rels)]
        out = np.zeros((len(msgs) + 1, spec.nx, spec.ny, spec.bev_channels))
        got = warp_sparse(msgs, rels, spec, out)
        want = [warp_message_fresh(m, rel, spec) for m, rel in zip(msgs, rels)]
        assert len(got.cells) == len(got.rows) == len(msgs)
        for k, (plane, one) in enumerate(want):
            assert np.array_equal(out[k], plane)
            assert np.array_equal(got.cells[k], one.cells[0])
            assert np.array_equal(got.rows[k], one.rows[0])
        assert got.collisions == sum(one.collisions for _, one in want)
        assert got.dropped == sum(one.dropped for _, one in want)
        for plane, cells in zip(out, got.cells):
            plane.reshape(-1, spec.bev_channels)[cells] = 0.0
        assert not np.any(out)

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
        warped, written = [], []
        for _ in range(n_neighbors):
            plane = np.zeros(shape)
            on = rng.uniform(size=shape[:2]) < density
            plane[on] = rng.standard_normal((int(on.sum()), shape[2]))
            warped.append(plane)
            written.append(np.flatnonzero(on))
        before = ego.copy()
        got = aggregate_max(ego, warped, written, nonzero_cells(ego))
        assert np.array_equal(got, aggregate_max_dense(ego, warped))
        assert not np.shares_memory(got, ego)
        assert np.array_equal(ego, before)

    def test_max_keeps_negative_ego_scalars_no_neighbor_wrote(self):
        """A neighbor's unsent cells are no signal: they must not lift the
        ego's negative scalars to 0."""
        rng = np.random.default_rng(5)
        ego = -rng.uniform(0.5, 1.0, (4, 5, 6))
        plane = np.zeros_like(ego)
        plane[1, 2] = rng.standard_normal(6)
        before = ego.copy()
        out = aggregate_max(ego, [plane], [np.array([1 * 5 + 2])], np.arange(4 * 5))
        assert not np.shares_memory(out, ego)
        assert np.array_equal(ego, before)
        assert np.array_equal(out[1, 2], np.maximum(ego[1, 2], plane[1, 2]))
        untouched = np.ones((4, 5), dtype=bool)
        untouched[1, 2] = False
        assert np.array_equal(out[untouched], ego[untouched])
        assert np.all(out[untouched] < 0.0)

    def test_warp_rejects_a_plane_of_another_shape(self):
        spec = GridSpec((-8.0, 8.0), (-8.0, 8.0), (0.0, 2.0), 12, 12, 2, 3)
        msg = collab.Message(np.zeros((1, 2), dtype=int), np.ones((1, 6)), 6)
        for msgs, out in (
            ([msg], np.zeros((1, 12, 11, 6))),
            ([msg], np.zeros((1, 12, 12, 5))),
            ([msg, msg], np.zeros((1, 12, 12, 6))),  # fewer planes than messages
        ):
            with pytest.raises(ValueError, match="out planes"):
                warp_sparse(msgs, [Pose(np.eye(4))] * len(msgs), spec, out)

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 8)),
        density=DENSITIES,
        mask_density=DENSITIES,
        p_hybrid=DENSITIES,
    )
    @settings(max_examples=60, deadline=None)
    def test_mask_path_matches_dense(self, seed, shape, density, mask_density, p_hybrid):
        """The preference map reads only tagged columns and the message
        packs only nonzero cells; both must equal the whole-grid scans."""
        rng = np.random.default_rng(seed)
        bev = np.zeros(shape)
        on = rng.uniform(size=shape[:2]) < density
        bev[on] = rng.standard_normal((int(on.sum()), shape[2]))
        bev[on & (rng.uniform(size=shape[:2]) < 0.2)] = -0.0
        mask = (rng.uniform(size=shape[:2]) < mask_density).astype(np.uint8)
        got = collab.pack_message(bev, mask, nonzero_cells(bev))
        want = pack_message_dense(bev, mask)
        assert np.array_equal(got.indices, want.indices) and got.indices.dtype == want.indices.dtype
        assert np.array_equal(got.vectors, want.vectors)
        assert got.feature_elements == want.feature_elements
        spec = GridSpec((-3.0, 3.0), (-3.0, 3.0), (0.0, 2.0), shape[0], shape[1], 3, 2)
        feats, category = dense_zeros(spec)
        category[rng.uniform(size=category.shape) < density] = Category.LIDAR
        category[rng.uniform(size=category.shape) < p_hybrid] = Category.HYBRID
        grid = sparse(spec, feats, category)
        assert np.array_equal(collab.preference_map(grid), preference_map_dense(grid))


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
    got = occupancy_from_grid(grid)
    assert np.array_equal(got, occupancy_from_grid_dense(grid))


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
@settings(max_examples=8, deadline=None)
def test_round_cells_are_the_nonzero_cells(collab_mode, params, seed, n_agents):
    """Each BEV's cells and each AgentRound's `cells` are the nonzero cells
    of their planes; one agent has no neighbors."""
    pipe = PipelineConfig(grid=SMALL_GRID, bins=DepthBins(1.0, 33.0, 16),
                          predictor=NoisyOraclePredictor(1.0, 1), fusion_mode="none",
                          depth_projection="no", collab_mode=collab_mode)
    scn = ScenarioConfig(seed=seed, n_agents=n_agents, n_objects=6, comm_range=60.0)
    agents, objects = generate_scene(scn)
    perceive = collab._perceive
    bevs = []

    def checked_perceive(w, *args):
        perceive(w, *args)
        bevs.append(w.bev)
        assert np.array_equal(w.cells, nonzero_cells(w.bev))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(collab, "_perceive", checked_perceive)
        rounds, _ = run_round(agents, objects, (), scn, pipe, params)
    assert len(bevs) == n_agents and any(r.cells.size for r in rounds.values())
    for r in rounds.values():
        assert np.array_equal(r.cells, nonzero_cells(r.aggregated))


def test_max_of_nonzero_tokens_can_be_a_zero_cell():
    """Ego and neighbor rows that are both nonzero can max to a zero row,
    which the round's cells must leave out."""
    ego = np.zeros((2, 3, 2))
    ego[0, 1] = (0.0, -1.0)
    plane = np.zeros_like(ego)
    plane[0, 1] = (-1.0, 0.0)
    plane[1, 2] = (0.5, 0.0)
    written = [np.array([1, 5])]
    before = ego.copy()
    agg = aggregate_max(ego, [plane], written, np.array([1]))
    assert not np.any(agg[0, 1])
    assert not np.shares_memory(agg, ego)
    assert np.array_equal(ego, before)
    assert np.array_equal(collab._aggregated_cells(agg, np.array([1]), written), [5])


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
        path = tmp_path / f"{name}-{seed}.json"
        path.write_text(json.dumps(trial_config(bench_run, name, seed)))
        exp = load_experiment(path)
        params = make_pipeline_params(exp.pipeline.grid, exp.params_seed)
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


# Scenario seeds 0-3 (trials 0-3 of base seed 0) and 7919.
SEED_TRIALS = ((0, 0), (0, 1), (0, 2), (0, 3), (7919, 0))


TRIAL_SHAPES = [(workload, mode) for workload in ("fleet8", "lidar4", "camera_missing")
                for mode in collab.COLLAB_MODES] + [("fusion_equal", "attention")]


@pytest.mark.parametrize("workload, collab_mode", TRIAL_SHAPES,
                         ids=[f"{workload}-{mode}" for workload, mode in TRIAL_SHAPES])
def test_trials_match_dense_pipeline(bench_run, tmp_path, monkeypatch, workload, collab_mode):
    """The benchmark's workload shapes, fleet8's with camera-less and
    LiDAR-less agents under every collaboration mode, and fleet8's with the
    equal fusion: CSV rows, message logs and every AgentRound array equal
    the dense, per-edge pipeline's."""
    for seed, trial in SEED_TRIALS:
        config = trial_config(bench_run, workload, seed)
        config["pipeline"]["collab"] = collab_mode
        path = tmp_path / f"{workload}-{seed}.json"
        path.write_text(json.dumps(config))
        exp = load_experiment(path)
        params = make_pipeline_params(exp.pipeline.grid, exp.params_seed)
        got = cli.run_trial(exp, trial, None, params)
        with monkeypatch.context() as m:
            use_dense_pipeline(m)
            want = cli.run_trial(exp, trial, None, params)
        assert got.row == want.row
        assert got.log_lines == want.log_lines
        assert_rounds_equal(got.rounds, want.rounds)


def use_parent_box_path(m):
    """Swap the batched box path for its parent: boxes ray-cast one at a
    time, a detector that labels components on an array and fits each
    rectangle on its own with a hull that sorts the centres itself, and the
    clip on numpy 2-vectors."""
    m.setattr(scene, "raycast", raycast_per_box)
    m.setattr(collab, "detect_local", detect_local_per_component)
    m.setattr(cli, "detect_local", detect_local_per_component)
    m.setattr(metrics, "clip_polygon", clip_polygon_of_vectors)


@pytest.mark.parametrize("workload", ["fleet8", "lidar4"])
def test_trials_match_parent_box_path(bench_run, tmp_path, monkeypatch, workload):
    """CSV rows, message logs and every AgentRound array equal those of the
    per-box ray cast, the sorting hull and the vector clip."""
    for seed, trial in ((0, 0), (0, 1), (7919, 0), (7919, 1)):
        path = tmp_path / f"{workload}-{seed}.json"
        path.write_text(json.dumps(bench_run.experiment_config(bench_run.WORKLOADS[workload], seed)))
        exp = load_experiment(path)
        params = make_pipeline_params(exp.pipeline.grid, exp.params_seed)
        got = cli.run_trial(exp, trial, None, params)
        with monkeypatch.context() as m:
            use_parent_box_path(m)
            want = cli.run_trial(exp, trial, None, params)
        assert got.row == want.row
        assert got.log_lines == want.log_lines
        assert_rounds_equal(got.rounds, want.rounds)


def perceive_every_grid(w, scenario, pipe, params):
    """`_perceive` with a zero camera grid for every agent without camera
    images, which it then categorizes and fuses like any other."""
    camera_grid = VoxelGrid.empty(pipe.grid)
    if w.images is not None:
        depth_img, feat_img = w.images
        if pipe.depth_projection != "no" and w.state.has_lidar:
            cloud_cam = collab.transform_points(collab._CAM_FROM_LIDAR, w.cloud_sensor)
            dmap = collab.project_cloud_to_depthmap(cloud_cam, scenario.camera, pipe.bins)
        else:
            dmap = DepthMap.empty(pipe.bins, scenario.camera.height, scenario.camera.width)
        if pipe.depth_projection == "all":
            dmap = collab.merge_cooperative(dmap, w.shared, scenario.camera, pipe.bins)
        pred = collab.predict_depth(depth_img, pipe.predictor, pipe.bins)
        dist = collab.finalize_distribution(dmap, pred)
        camera_grid = collab.lift_camera(
            feat_img, dist, scenario.camera, scene.DEFAULT_CAMERA_MOUNT,
            pipe.grid, pipe.mass_threshold, pipe.bins.centers(),
        ).grid
        w.depth_map = dmap
    cat = collab.categorize(w.lidar_grid, camera_grid)
    if pipe.fusion_mode == "equal":
        fused = collab.fuse_modalities_equal(params.equal_lin, cat)
    else:
        fused = collab.fuse_modalities(params.fusion, cat)
    w.bev = collab.collapse(fused)
    w.cells = nonzero_cells(w.bev)
    w.mask = collab.confidence_mask(
        importance_scores_dense(w.bev), preference_map_dense(fused)
    )
    w.message = pack_message_dense(w.bev, w.mask)


def aggregate_token_stack(params, ego, warped, written, *unread):
    """`aggregate` projecting Q, K and V on the whole token stack of the
    cells it runs, per receiver, unsent neighbor tokens included.  It scans
    the ego plane for its nonzero cells and reads neither `ego_cells` nor
    the round's tokens."""
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
    n_cells_run = max(int(np.count_nonzero(busy)) + 1, collab._MIN_ATTENTION_CELLS)
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
    out[...] = result[-1]
    out[cells] = result
    return out.reshape(nx, ny, f)


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


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("name", ["lidar4", "fleet8", "camera_missing", "fusion_equal"])
def test_trials_match_every_grid_and_token(bench_run, tmp_path, monkeypatch, name, seed):
    """CSV rows, message logs and every AgentRound array equal those of a
    perceive stage that fuses a zero camera grid into every camera-less
    agent and an aggregation that projects the whole token stack."""
    path = tmp_path / f"{name}-{seed}.json"
    path.write_text(json.dumps(trial_config(bench_run, name, seed)))
    exp = load_experiment(path)
    params = make_pipeline_params(exp.pipeline.grid, exp.params_seed)
    got = cli.run_trial(exp, 0, None, params)
    with monkeypatch.context() as m:
        m.setattr(collab, "_perceive", perceive_every_grid)
        m.setattr(collab, "aggregate", aggregate_token_stack)
        want = cli.run_trial(exp, 0, None, params)
    assert got.row == want.row
    assert got.log_lines == want.log_lines
    assert_rounds_equal(got.rounds, want.rounds)


# --- reuse of the phase-2 planes ------------------------------------------------

GRID = GridSpec((-20.0, 20.0), (-20.0, 20.0), (0.5, 3.7), 64, 64, 8, 8)
PARAMS = make_pipeline_params(GRID, seed=2024)


def _agent(aid, x, y):
    pose = Pose.from_planar(x, y, 0.0)
    return AgentState(aid, pose, pose)


def reuse_scene():
    """Five LiDAR agents whose phase 2 reuses planes across receivers.

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
def test_reused_planes_carry_no_stale_rows(monkeypatch, collab_mode):
    scn, agents, objects = reuse_scene()
    pipe = PipelineConfig(grid=GRID, bins=DepthBins(1.0, 33.0, 16),
                          predictor=NoisyOraclePredictor(1.0, 1), fusion_mode="none",
                          depth_projection="no", collab_mode=collab_mode)
    degrees = {len(n) for n in build_comm_graph(agents, scn.comm_range).values()}
    assert degrees == {1, 2, 3}

    calls = []

    def checked_warp(messages, rel_poses, spec, out):
        assert not np.any(out), "a plane arrived with stale rows"
        result = warp_sparse(messages, rel_poses, spec, out)
        calls.extend((len(m.indices), c.size) for m, c in zip(messages, result.cells))
        return result

    with monkeypatch.context() as m:
        m.setattr(collab, "warp_sparse", checked_warp)
        got, _ = run_round(agents, objects, (), scn, pipe, PARAMS)
    assert (0, 0) in calls  # an empty message
    assert any(sent > 0 and landed == 0 for sent, landed in calls)  # one wholly outside
    assert any(landed > 0 for _, landed in calls)

    with monkeypatch.context() as m:
        use_dense_pipeline(m)
        want, _ = run_round(agents, objects, (), scn, pipe, PARAMS)
    assert_rounds_equal(got, want)


def test_replies_per_sender_match_replies_per_edge(monkeypatch):
    """Phase 1 answers all of a sender's requests in one pass; the ledger,
    the depth maps and every AgentRound array must equal those of one
    projection per request, with a sender whose scan came back empty."""
    scn, agents, objects = reuse_scene()
    pipe = PipelineConfig(grid=GRID, bins=DepthBins(1.0, 33.0, 16),
                          predictor=NoisyOraclePredictor(1.0, 1), robust=True)
    simulate = collab.simulate_lidar

    def empty_scan_for_agent_4(agent, *args):
        return np.zeros((0, 3)) if agent.id == 4 else simulate(agent, *args)

    monkeypatch.setattr(collab, "simulate_lidar", empty_scan_for_agent_4)
    got, got_ledger = run_round(agents, objects, (), scn, pipe, PARAMS)
    assert (4, 2, "depth", 0) in {(r.sender, r.receiver, r.phase, r.elements)
                                  for r in got_ledger.records}
    with monkeypatch.context() as m:
        m.setattr(collab, "_share_clouds", share_clouds_per_edge)
        want, want_ledger = run_round(agents, objects, (), scn, pipe, PARAMS)
    assert got_ledger.records == want_ledger.records
    assert_rounds_equal(got, want)


def test_second_round_leaves_the_first_unchanged():
    scn, agents, objects = reuse_scene()
    pipe = PipelineConfig(grid=GRID, bins=DepthBins(1.0, 33.0, 16),
                          predictor=NoisyOraclePredictor(1.0, 1), collab_mode="max")
    first, _ = run_round(agents, objects, (), scn, pipe, PARAMS)
    kept = {
        aid: [np.copy(a) for a in (r.aggregated, r.bev, r.message.indices, r.message.vectors)]
        for aid, r in first.items()
    }
    moved = [_agent(a.id, *(np.array(planar_parts(a.true_pose)[:2]) + 3.0)) for a in agents]
    run_round(moved, objects, (), scn, pipe, PARAMS)
    for aid, r in first.items():
        now = (r.aggregated, r.bev, r.message.indices, r.message.vectors)
        assert all(np.array_equal(a, b) for a, b in zip(now, kept[aid]))


# --- one depth distribution per distinct window ----------------------------------


def check_window_code(img, predictor, bins):
    """`predict_depth` against the pixel-by-pixel reference; returns the
    number of distinct windows.

    Each pixel gets its window's row, and that row is the one the whole
    image's product gives a pixel of that window.  The reference's rows
    can depend on where a pixel sits in the image: BLAS kernels for some
    bin counts round a row differently by its position in the block.  Where
    they do not, this amounts to equality with the reference.
    """
    got = predict_depth(img, predictor, bins)
    want = predict_depth_full_image(img, predictor, bins)
    assert got.shape == want.shape
    d = bins.n_bins
    got, want = got.reshape(-1, d), want.reshape(-1, d)
    counts = window_counts(img, predictor, bins).reshape(-1, d)
    _, first, window = np.unique(counts, axis=0, return_index=True, return_inverse=True)
    window = window.reshape(-1)
    assert got.tobytes() == got[first][window].tobytes()
    for u, pixel in enumerate(first):
        same = want[window == u]
        assert np.any(np.all(same == got[pixel], axis=1)), u
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
        # Camera-sized images: a block of the distinct windows alone would
        # take another BLAS kernel than the whole image for these bin counts.
        (np.repeat(rng.uniform(0.5, 15.0, (16, 24)), 4, axis=0).repeat(4, axis=1),
         NoisyOraclePredictor(1.0, 1), DepthBins(1.0, 13.0, 17)),
        (np.repeat(rng.uniform(0.5, 30.0, (16, 24)), 4, axis=0).repeat(4, axis=1),
         NoisyOraclePredictor(1.0, 2), DepthBins(1.0, 23.0, 44)),
    ):
        seen.append(check_window_code(img, predictor, bins))
    assert min(seen) < 64 < max(seen)
    assert any(u > 64 and u % 8 for u in seen)


# --- counters and allocation of the sparse chain ---------------------------------

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
PERCEIVE_COUNTERS = ("voxel.cells_lidar", "voxel.cells_camera", "voxel.cells_hybrid",
                     "fusion.camera_cells_dropped", "voxel.lift_dropped_mass")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("covox_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["fleet8", "camera_missing", "fusion_equal"])
def test_traced_counters_match_dense_pipeline(bench_run, tracing, tmp_path, monkeypatch, name):
    """The benchmark's per-layer voxel and fusion counters read the same on
    the sparse grids as on the dense reference pipeline."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(trial_config(bench_run, name, 0)))
    exp = load_experiment(path)
    params = make_pipeline_params(exp.pipeline.grid, exp.params_seed)

    def traced_counts():
        tracer = tracing.Tracer()
        tracer.trial = 0
        with tracing.patched(tracer):
            cli.run_trial(exp, 0, None, params)
        return {key: tracer.counts[0][key] for key in PERCEIVE_COUNTERS}

    got = traced_counts()
    with monkeypatch.context() as m:
        use_dense_pipeline(m)
        want = traced_counts()
    assert got == want
    if name == "fleet8":
        assert all(got.values()), got


def test_sense_allocates_less_than_one_grid(bench_run, tmp_path, monkeypatch):
    """After a warm-up trial, sensing an agent of the fleet8 shape, camera
    and LiDAR, peaks below the size of one dense feature grid."""
    path = tmp_path / "fleet8.json"
    path.write_text(json.dumps(trial_config(bench_run, "fleet8", 0)))
    exp = load_experiment(path)
    params = make_pipeline_params(exp.pipeline.grid, exp.params_seed)
    cli.run_trial(exp, 0, None, params)
    sense, peaks = collab._sense, []

    def measured_sense(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        work = sense(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return work

    monkeypatch.setattr(collab, "_sense", measured_sense)
    tracemalloc.start()
    try:
        cli.run_trial(exp, 1, None, params)
    finally:
        tracemalloc.stop()
    g = exp.pipeline.grid
    assert len(peaks) == exp.scenario.n_agents
    assert max(peaks) < g.nx * g.ny * g.nz * g.channels * 8, peaks
