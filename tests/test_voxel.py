import math

import numpy as np
import pytest

from covox.depth import DepthBins
from covox.geometry import CameraIntrinsics, Pose, pixel_rays, transform_points
from covox.voxel import (
    Category,
    GridSpec,
    SpecMismatch,
    VoxelGrid,
    categorize,
    collapse,
    lift_camera,
    voxelize_points,
)

SPEC = GridSpec((-8.0, 8.0), (-8.0, 8.0), (0.0, 4.0), 16, 16, 4, 8)


class TestVoxelize:
    def test_empty_cloud(self):
        grid = voxelize_points(np.zeros((0, 3)), SPEC)
        assert np.all(grid.features == 0)
        assert np.all(grid.category == Category.NORMAL)

    def test_single_point_at_cell_center(self):
        center = SPEC.cell_center(3, 4, 1)
        grid = voxelize_points(center[None, :], SPEC)
        assert grid.category[3, 4, 1] == Category.LIDAR
        feat = grid.features[3, 4, 1]
        assert abs(feat[0] - math.log(2)) < 1e-12
        assert np.max(np.abs(feat[1:4])) < 1e-12
        assert abs(feat[4] - center[2]) < 1e-12
        assert np.all(feat[5:] == 0)

    def test_count_channel_log(self, rng):
        center = SPEC.cell_center(2, 2, 0)
        pts = center + rng.uniform(-0.2, 0.2, (10, 3))
        grid = voxelize_points(pts, SPEC)
        assert abs(grid.features[2, 2, 0][0] - math.log(11)) < 1e-12

    def test_permutation_invariant_exactly(self, rng):
        pts = rng.uniform(-8, 8, (300, 3)) * np.array([1, 1, 0.25])
        a = voxelize_points(pts, SPEC)
        b = voxelize_points(pts[rng.permutation(300)], SPEC)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.category, b.category)

    def test_out_of_range_points_ignored(self):
        grid = voxelize_points(np.array([[100.0, 0.0, 1.0]]), SPEC)
        assert np.all(grid.category == Category.NORMAL)


class TestLift:
    INTR = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 4, 4)

    def _one_pixel_setup(self, n_bins: int):
        # Grid whose z axis contains the whole useful depth range; identity
        # camera pose means the optical axis runs along +z of the grid.
        spec = GridSpec((-2.0, 2.0), (-2.0, 2.0), (0.0, 10.0), 4, 4, 10, 8)
        bins = DepthBins(1.0, 9.0, n_bins)
        feats = np.zeros((4, 4, 8))
        dist = np.zeros((4, 4, n_bins))
        return spec, bins, feats, dist

    def test_one_hot_single_pixel(self):
        spec, bins, feats, dist = self._one_pixel_setup(4)
        feats[0, 0] = np.arange(8)
        dist[0, 0, 2] = 1.0  # bin center 6.0
        res = lift_camera(feats, dist, self.INTR, Pose(np.eye(4)), spec, 0.05, bins.centers())
        assert np.count_nonzero(res.grid.category == Category.CAMERA) == 1
        cell = res.grid.features[res.grid.category == Category.CAMERA][0]
        assert np.allclose(cell, np.arange(8))

    def test_uniform_distribution_splats_every_bin(self):
        spec, bins, feats, dist = self._one_pixel_setup(4)
        feats[0, 0] = 1.0
        dist[0, 0, :] = 0.25
        res = lift_camera(feats, dist, self.INTR, Pose(np.eye(4)), spec, 0.0, bins.centers())
        assert np.count_nonzero(res.grid.category == Category.CAMERA) == 4
        occupied = res.grid.features[res.grid.category == Category.CAMERA]
        assert np.allclose(occupied, 0.25)
        assert res.dropped_mass == 0.0

    def test_zero_features_still_tag_cells(self):
        spec, bins, feats, dist = self._one_pixel_setup(4)
        dist[0, 0, 1] = 1.0
        res = lift_camera(feats, dist, self.INTR, Pose(np.eye(4)), spec, 0.05, bins.centers())
        assert np.count_nonzero(res.grid.category == Category.CAMERA) == 1
        assert np.all(res.grid.features == 0)

    def test_mass_conservation(self, rng):
        spec = GridSpec((-2.0, 2.0), (-2.0, 2.0), (0.0, 6.0), 4, 4, 6, 8)
        bins = DepthBins(1.0, 17.0, 8)
        h = w = 6
        intr = CameraIntrinsics(2.0, 2.0, 3.0, 3.0, w, h)
        feats = rng.uniform(0, 1, (h, w, 8))
        dist = rng.uniform(0, 1, (h, w, 8))
        dist /= dist.sum(axis=2, keepdims=True)
        res = lift_camera(feats, dist, intr, Pose(np.eye(4)), spec, 0.0, bins.centers())
        total = res.cell_mass.sum() + res.dropped_mass
        assert abs(total - h * w) < 1e-9

    def test_subthreshold_cells_zeroed(self, rng):
        spec, bins, feats, dist = self._one_pixel_setup(4)
        feats[0, 0] = 1.0
        dist[0, 0, :] = 0.25
        res = lift_camera(feats, dist, self.INTR, Pose(np.eye(4)), spec, 0.3, bins.centers())
        assert np.count_nonzero(res.grid.category == Category.CAMERA) == 0
        assert np.all(res.grid.features == 0)
        # The accumulated mass is still measured before thresholding.
        assert abs(res.cell_mass.sum() - 1.0) < 1e-12


def _dense_lift_camera(features, dist, intr, cam_pose_in_ego, spec, mass_threshold, bin_centers):
    """Reference: transform and bin every (pixel, depth bin) entry per call."""
    dist = np.asarray(dist, dtype=np.float64)
    h, w, d = dist.shape
    pts = pixel_rays(intr)[:, :, None, :] * np.asarray(bin_centers)[None, None, :, None]
    pts = transform_points(cam_pose_in_ego, pts.reshape(-1, 3))
    idx, inside = spec.cell_of(pts)
    mass = dist.reshape(-1)
    dropped = float(mass[~inside].sum())
    n_cells = spec.nx * spec.ny * spec.nz
    flat = (idx[inside, 0] * spec.ny + idx[inside, 1]) * spec.nz + idx[inside, 2]
    cell_mass = np.bincount(flat, weights=mass[inside], minlength=n_cells)
    contrib = (features[:, :, None, :] * dist[..., None]).reshape(-1, spec.channels)
    feats = np.zeros((n_cells, spec.channels))
    np.add.at(feats, flat, contrib[inside])
    tagged = (cell_mass >= mass_threshold) & (cell_mass > 0.0)
    feats[~tagged] = 0.0
    category = np.where(tagged, Category.CAMERA, Category.NORMAL).astype(np.uint8)
    shape = (spec.nx, spec.ny, spec.nz)
    return feats.reshape(shape + (spec.channels,)), category.reshape(shape), cell_mass.reshape(shape), dropped


class TestLiftOracle:
    """`lift_camera` caches its pixel-to-cell map and skips zero mass; it must
    match the per-call dense reference bit for bit."""

    INTR = CameraIntrinsics(8.0, 8.0, 6.0, 5.0, 12, 10)
    BINS = DepthBins(1.0, 17.0, 8)
    # The frustum leaves both grids through their sides and far faces.
    SPECS = (
        GridSpec((-4.0, 4.0), (-4.0, 4.0), (0.0, 10.0), 8, 8, 10, 4),
        GridSpec((-3.0, 5.0), (-5.0, 3.0), (-1.0, 12.0), 5, 7, 6, 4),
    )

    def _mounts(self):
        c, s = math.cos(0.3), math.sin(0.3)
        tilted = Pose.from_rt(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]), [0.5, -0.3, 1.0])
        return (Pose(np.eye(4)), tilted)

    def _inputs(self, rng):
        feats = rng.standard_normal((10, 12, 4))
        dist = rng.uniform(size=(10, 12, 8)) * (rng.uniform(size=(10, 12, 8)) < 0.4)
        dist /= np.maximum(dist.sum(axis=2, keepdims=True), 1e-12)
        return feats, dist

    def _check(self, feats, dist, pose, spec, threshold):
        centers = self.BINS.centers()
        res = lift_camera(feats, dist, self.INTR, pose, spec, threshold, centers)
        ref_feats, ref_cat, ref_mass, ref_dropped = _dense_lift_camera(
            feats, dist, self.INTR, pose, spec, threshold, centers
        )
        assert np.array_equal(res.grid.features, ref_feats)
        assert np.array_equal(res.grid.category, ref_cat)
        assert np.array_equal(res.cell_mass, ref_mass)
        assert res.dropped_mass == ref_dropped
        return res

    def test_zero_mass_and_out_of_grid_mass(self, rng):
        feats, dist = self._inputs(rng)
        assert np.any(dist == 0.0)
        res = self._check(feats, dist, Pose(np.eye(4)), self.SPECS[0], 0.05)
        assert res.dropped_mass > 0.0
        assert np.count_nonzero(res.grid.category == Category.CAMERA) > 0

    def test_mounts_and_grids_share_one_process(self, rng):
        # Two rounds over every (grid, mount): a cached map reused for the
        # wrong grid or mount would break the match.
        for _ in range(2):
            for spec in self.SPECS:
                for pose in self._mounts():
                    feats, dist = self._inputs(rng)
                    self._check(feats, dist, pose, spec, 0.05)


class TestCategorize:
    def test_all_normal(self):
        cat = categorize(VoxelGrid.empty(SPEC), VoxelGrid.empty(SPEC))
        assert np.all(cat.category == Category.NORMAL)

    def test_hybrid_where_both(self):
        lidar = VoxelGrid.empty(SPEC)
        camera = VoxelGrid.empty(SPEC)
        lidar.category[1, 1, 1] = Category.LIDAR
        camera.category[1, 1, 1] = Category.CAMERA
        cat = categorize(lidar, camera)
        assert cat.category[1, 1, 1] == Category.HYBRID

    def test_partition_counts(self, rng):
        lidar = VoxelGrid.empty(SPEC)
        camera = VoxelGrid.empty(SPEC)
        lidar.category[rng.uniform(size=lidar.category.shape) < 0.3] = Category.LIDAR
        camera.category[rng.uniform(size=camera.category.shape) < 0.3] = Category.CAMERA
        cat = categorize(lidar, camera)
        counts = [int(np.count_nonzero(cat.category == c)) for c in Category]
        assert sum(counts) == SPEC.nx * SPEC.ny * SPEC.nz

    def test_disjoint_occupancy(self):
        lidar = VoxelGrid.empty(SPEC)
        camera = VoxelGrid.empty(SPEC)
        lidar.category[0, 0, 0] = Category.LIDAR
        camera.category[1, 0, 0] = Category.CAMERA
        cat = categorize(lidar, camera)
        assert int(np.count_nonzero(cat.category == Category.HYBRID)) == 0
        occupied = int(np.count_nonzero(cat.category != Category.NORMAL))
        assert occupied == 2

    def test_spec_mismatch(self):
        other = GridSpec((-8.0, 8.0), (-8.0, 8.0), (0.0, 4.0), 8, 8, 4, 8)
        with pytest.raises(SpecMismatch):
            categorize(VoxelGrid.empty(SPEC), VoxelGrid.empty(other))


class TestCollapse:
    def test_zero_grid(self):
        assert np.all(collapse(VoxelGrid.empty(SPEC)) == 0)

    def test_single_cell_block_placement(self):
        grid = VoxelGrid.empty(SPEC)
        k = 2
        grid.features[5, 6, k] = np.arange(1, 9)
        bev = collapse(grid)
        block = slice(k * SPEC.channels, (k + 1) * SPEC.channels)
        assert np.allclose(bev[5, 6, block], np.arange(1, 9))
        other = np.delete(bev[5, 6], np.r_[block])
        assert np.all(other == 0)

    def test_lossless_roundtrip(self, rng):
        grid = VoxelGrid.empty(SPEC)
        grid.features[...] = rng.standard_normal(grid.features.shape)
        bev = collapse(grid)
        restored = bev.reshape(SPEC.nx, SPEC.ny, SPEC.nz, SPEC.channels)
        assert np.array_equal(restored, grid.features)

    def test_l0_preserved(self, rng):
        grid = VoxelGrid.empty(SPEC)
        sparse = rng.uniform(size=grid.features.shape) < 0.05
        grid.features[sparse] = 1.0
        assert np.count_nonzero(collapse(grid)) == np.count_nonzero(grid.features)


def test_grid_budget_guard():
    with pytest.raises(ValueError):
        GridSpec((-1, 1), (-1, 1), (0, 1), 4096, 4096, 64, 64)
