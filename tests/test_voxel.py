import math

import numpy as np
import pytest

from covox.depth import DepthBins
from covox.geometry import CameraIntrinsics, Pose
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
        res = lift_camera(feats, dist, self.INTR, Pose.identity(), spec, 0.05, bins.centers())
        assert res.grid.count(Category.CAMERA) == 1
        cell = res.grid.features[res.grid.category == Category.CAMERA][0]
        assert np.allclose(cell, np.arange(8))

    def test_uniform_distribution_splats_every_bin(self):
        spec, bins, feats, dist = self._one_pixel_setup(4)
        feats[0, 0] = 1.0
        dist[0, 0, :] = 0.25
        res = lift_camera(feats, dist, self.INTR, Pose.identity(), spec, 0.0, bins.centers())
        assert res.grid.count(Category.CAMERA) == 4
        occupied = res.grid.features[res.grid.category == Category.CAMERA]
        assert np.allclose(occupied, 0.25)
        assert res.dropped_mass == 0.0

    def test_zero_features_still_tag_cells(self):
        spec, bins, feats, dist = self._one_pixel_setup(4)
        dist[0, 0, 1] = 1.0
        res = lift_camera(feats, dist, self.INTR, Pose.identity(), spec, 0.05, bins.centers())
        assert res.grid.count(Category.CAMERA) == 1
        assert np.all(res.grid.features == 0)

    def test_mass_conservation(self, rng):
        spec = GridSpec((-2.0, 2.0), (-2.0, 2.0), (0.0, 6.0), 4, 4, 6, 8)
        bins = DepthBins(1.0, 17.0, 8)
        h = w = 6
        intr = CameraIntrinsics(2.0, 2.0, 3.0, 3.0, w, h)
        feats = rng.uniform(0, 1, (h, w, 8))
        dist = rng.uniform(0, 1, (h, w, 8))
        dist /= dist.sum(axis=2, keepdims=True)
        res = lift_camera(feats, dist, intr, Pose.identity(), spec, 0.0, bins.centers())
        total = res.cell_mass.sum() + res.dropped_mass
        assert abs(total - h * w) < 1e-9

    def test_subthreshold_cells_zeroed(self, rng):
        spec, bins, feats, dist = self._one_pixel_setup(4)
        feats[0, 0] = 1.0
        dist[0, 0, :] = 0.25
        res = lift_camera(feats, dist, self.INTR, Pose.identity(), spec, 0.3, bins.centers())
        assert res.grid.count(Category.CAMERA) == 0
        assert np.all(res.grid.features == 0)
        # The accumulated mass is still measured before thresholding.
        assert abs(res.cell_mass.sum() - 1.0) < 1e-12


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
