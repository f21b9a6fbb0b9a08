import math

import numpy as np
import pytest

from covox.depth import DepthBins
from covox.geometry import CameraIntrinsics, Pose, pixel_rays, transform_points
from covox.scene import DEFAULT_CAMERA_MOUNT, ScenarioConfig
from covox.voxel import (
    Category,
    GridSpec,
    SpecMismatch,
    VoxelGrid,
    _lift_geometry,
    categorize,
    collapse,
    lift_camera,
    voxelize_points,
)

from oracles import cell_of, dense, dense_zeros, lift_camera_dense, sparse

SPEC = GridSpec((-8.0, 8.0), (-8.0, 8.0), (0.0, 4.0), 16, 16, 4, 8)


class TestVoxelize:
    def test_empty_cloud(self):
        grid = voxelize_points(np.zeros((0, 3)), SPEC)
        assert grid.voxels.size == grid.features.shape[0] == grid.category.size == 0

    def test_single_point_at_cell_center(self):
        center = SPEC.cell_center(3, 4, 1)
        feats, category = dense(voxelize_points(center[None, :], SPEC))
        assert category[3, 4, 1] == Category.LIDAR
        assert np.count_nonzero(category) == 1
        feat = feats[3, 4, 1]
        assert abs(feat[0] - math.log(2)) < 1e-12
        assert np.max(np.abs(feat[1:4])) < 1e-12
        assert abs(feat[4] - center[2]) < 1e-12
        assert np.all(feat[5:] == 0)

    def test_count_channel_log(self, rng):
        center = SPEC.cell_center(2, 2, 0)
        pts = center + rng.uniform(-0.2, 0.2, (10, 3))
        feats, _ = dense(voxelize_points(pts, SPEC))
        assert abs(feats[2, 2, 0][0] - math.log(11)) < 1e-12

    def test_permutation_invariant_exactly(self, rng):
        pts = rng.uniform(-8, 8, (300, 3)) * np.array([1, 1, 0.25])
        a = voxelize_points(pts, SPEC)
        b = voxelize_points(pts[rng.permutation(300)], SPEC)
        assert np.array_equal(a.voxels, b.voxels)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.category, b.category)
        assert np.all(np.diff(a.voxels) > 0) and np.all(a.category == Category.LIDAR)

    def test_out_of_range_points_ignored(self):
        grid = voxelize_points(np.array([[100.0, 0.0, 1.0]]), SPEC)
        assert grid.voxels.size == 0


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
        assert np.array_equal(res.grid.category, [Category.CAMERA])
        assert np.allclose(res.grid.features[0], np.arange(8))

    def test_uniform_distribution_splats_every_bin(self):
        spec, bins, feats, dist = self._one_pixel_setup(4)
        feats[0, 0] = 1.0
        dist[0, 0, :] = 0.25
        res = lift_camera(feats, dist, self.INTR, Pose(np.eye(4)), spec, 0.0, bins.centers())
        assert np.count_nonzero(res.grid.category == Category.CAMERA) == 4
        assert np.allclose(res.grid.features, 0.25)
        assert res.dropped_mass == 0.0

    def test_zero_features_still_tag_cells(self):
        spec, bins, feats, dist = self._one_pixel_setup(4)
        dist[0, 0, 1] = 1.0
        res = lift_camera(feats, dist, self.INTR, Pose(np.eye(4)), spec, 0.05, bins.centers())
        assert np.array_equal(res.grid.category, [Category.CAMERA])
        assert np.all(res.grid.features == 0)

    def test_mass_conservation(self, rng):
        spec = GridSpec((-2.0, 2.0), (-2.0, 2.0), (0.0, 6.0), 4, 4, 6, 8)
        bins = DepthBins(1.0, 17.0, 8)
        h = w = 6
        intr = CameraIntrinsics(2.0, 2.0, 3.0, 3.0, w, h)
        feats = rng.uniform(0, 1, (h, w, 8))
        dist = rng.uniform(0, 1, (h, w, 8))
        dist /= dist.sum(axis=2, keepdims=True)
        args = (feats, dist, intr, Pose(np.eye(4)), spec, 0.0, bins.centers())
        res = lift_camera(*args)
        ref = lift_camera_dense(*args)
        assert res.dropped_mass == ref.dropped_mass
        mass = ref.mass
        assert abs(mass.sum() + res.dropped_mass - h * w) < 1e-9
        # With no threshold every cell that gained mass is tagged.
        assert np.array_equal(dense(res.grid)[1] == Category.CAMERA, mass > 0.0)

    def test_subthreshold_cells_zeroed(self, rng):
        spec, bins, feats, dist = self._one_pixel_setup(4)
        feats[0, 0] = 1.0
        dist[0, 0, :] = 0.25
        args = (feats, dist, self.INTR, Pose(np.eye(4)), spec, 0.3, bins.centers())
        res = lift_camera(*args)
        assert res.grid.voxels.size == 0
        # The whole mass landed in the grid, each cell below the threshold.
        ref = lift_camera_dense(*args)
        assert res.dropped_mass == ref.dropped_mass == 0.0
        assert abs(ref.mass.sum() - 1.0) < 1e-12 and np.all(ref.mass < 0.3)


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
        ref = lift_camera_dense(feats, dist, self.INTR, pose, spec, threshold, centers)
        got_feats, got_cat = dense(res.grid)
        ref_feats, ref_cat = dense(ref.grid)
        assert np.array_equal(got_feats, ref_feats)
        assert np.array_equal(got_cat, ref_cat)
        assert np.all(np.diff(res.grid.voxels) > 0)
        assert np.all(res.grid.category == Category.CAMERA)
        assert res.dropped_mass == ref.dropped_mass
        return res

    def test_zero_mass_and_out_of_grid_mass(self, rng):
        feats, dist = self._inputs(rng)
        assert np.any(dist == 0.0)
        res = self._check(feats, dist, Pose(np.eye(4)), self.SPECS[0], 0.05)
        assert res.dropped_mass > 0.0
        assert np.count_nonzero(res.grid.category == Category.CAMERA) > 0

    def test_mass_at_the_threshold_is_tagged_and_zero_mass_is_not(self):
        """A voxel whose mass equals the threshold exactly is tagged; with a
        threshold of 0, a voxel the frustum reaches with zero mass is not."""
        spec = GridSpec((-2.0, 2.0), (-2.0, 2.0), (0.0, 10.0), 4, 4, 10, 8)
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 4, 4)
        centers = DepthBins(1.0, 9.0, 4).centers()
        feats = np.ones((4, 4, 8))
        for pixel, threshold, listed in (([0.25, 0.25, 0.25, 0.25], 0.25, 4),
                                         ([0.0, 1.0, 0.0, 0.0], 0.0, 1)):
            dist = np.zeros((4, 4, 4))
            dist[0, 0] = pixel
            res = lift_camera(feats, dist, intr, Pose(np.eye(4)), spec, threshold, centers)
            ref = lift_camera_dense(feats, dist, intr, Pose(np.eye(4)), spec, threshold, centers)
            assert res.grid.voxels.size == ref.grid.voxels.size == listed
            assert np.array_equal(res.grid.voxels, ref.grid.voxels)
            assert np.array_equal(res.grid.features, ref.grid.features)
            assert np.all(res.grid.category == Category.CAMERA)

    def test_mounts_and_grids_share_one_process(self, rng):
        # Two rounds over every (grid, mount): a cached map reused for the
        # wrong grid or mount would break the match.
        for _ in range(2):
            for spec in self.SPECS:
                for pose in self._mounts():
                    feats, dist = self._inputs(rng)
                    self._check(feats, dist, pose, spec, 0.05)


class TestLiftCache:
    """On the benchmark's camera and grid, the map `_lift_geometry` keeps for
    the whole process holds only what `lift_camera` reads: no list of the
    out-of-grid entries, which only `dropped_mass` needs."""

    INTR = ScenarioConfig().camera
    SPEC = GridSpec((-20.0, 20.0), (-20.0, 20.0), (0.5, 3.7), 64, 64, 8, 8)
    BINS = DepthBins(1.0, 33.0, 16)

    def test_cache_holds_the_in_grid_entries_only(self):
        cached = _lift_geometry(self.INTR, DEFAULT_CAMERA_MOUNT.matrix.tobytes(), self.SPEC,
                                self.BINS.centers().tobytes())
        inside, voxels, rank = cached
        assert inside.size == rank.size > 0
        assert np.all(np.diff(inside) > 0) and np.all(np.diff(voxels) > 0)
        # 0.42 MB; the out-of-grid list made it 1.0 MB.
        assert sum(arr.nbytes for arr in cached) < 0.5e6

    def test_dropped_mass_sums_the_out_of_grid_entries(self, rng):
        h, w, d = self.INTR.height, self.INTR.width, self.BINS.n_bins
        dist = rng.uniform(size=(h, w, d))
        dist /= dist.sum(axis=2, keepdims=True)
        feats = rng.standard_normal((h, w, self.SPEC.channels))
        res = lift_camera(feats, dist, self.INTR, DEFAULT_CAMERA_MOUNT, self.SPEC, 0.05, self.BINS.centers())
        rays = pixel_rays(self.INTR)[:, :, None, :] * self.BINS.centers()[None, None, :, None]
        _, in_grid = cell_of(self.SPEC, transform_points(DEFAULT_CAMERA_MOUNT, rays.reshape(-1, 3)))
        want = float(dist.reshape(-1)[~in_grid].sum())
        assert want > 0.0
        assert res.dropped_mass == want


def tagged(spec, tag, *cells, features=None):
    """A branch grid with `tag` on the given (ix, iy, iz) cells."""
    feats, category = dense_zeros(spec)
    for cell in map(tuple, cells):
        category[cell] = tag
        feats[cell] = 1.0 if features is None else features
    return sparse(spec, feats, category)


class TestCategorize:
    def test_all_normal(self):
        cat = categorize(VoxelGrid.empty(SPEC), VoxelGrid.empty(SPEC))
        assert cat.voxels.size == cat.category.size == 0
        assert cat.lidar.shape == cat.camera.shape == (0, SPEC.channels)

    def test_hybrid_where_both(self):
        lidar = tagged(SPEC, Category.LIDAR, (1, 1, 1), features=2.0)
        camera = tagged(SPEC, Category.CAMERA, (1, 1, 1), features=3.0)
        cat = categorize(lidar, camera)
        assert np.array_equal(cat.category, [Category.HYBRID])
        assert np.all(cat.lidar == 2.0) and np.all(cat.camera == 3.0)

    def test_partition_counts(self, rng):
        shape = (SPEC.nx, SPEC.ny, SPEC.nz)
        has_l = rng.uniform(size=shape) < 0.3
        has_c = rng.uniform(size=shape) < 0.3
        lidar = tagged(SPEC, Category.LIDAR, *np.argwhere(has_l).tolist())
        camera = tagged(SPEC, Category.CAMERA, *np.argwhere(has_c).tolist())
        cat = categorize(lidar, camera)
        assert np.array_equal(cat.voxels, np.flatnonzero(has_l | has_c))
        counts = [int(np.count_nonzero(cat.category == c)) for c in Category]
        assert counts == [0, np.count_nonzero(has_l & ~has_c),
                          np.count_nonzero(has_c & ~has_l), np.count_nonzero(has_l & has_c)]

    def test_disjoint_occupancy(self):
        lidar = tagged(SPEC, Category.LIDAR, (0, 0, 0))
        camera = tagged(SPEC, Category.CAMERA, (1, 0, 0))
        cat = categorize(lidar, camera)
        assert np.array_equal(cat.category, [Category.LIDAR, Category.CAMERA])
        # Each branch's row is zero where the other branch tagged the voxel.
        assert np.array_equal(cat.lidar[:, 0], [1.0, 0.0])
        assert np.array_equal(cat.camera[:, 0], [0.0, 1.0])

    def test_spec_mismatch(self):
        other = GridSpec((-8.0, 8.0), (-8.0, 8.0), (0.0, 4.0), 8, 8, 4, 8)
        with pytest.raises(SpecMismatch):
            categorize(VoxelGrid.empty(SPEC), VoxelGrid.empty(other))


class TestVoxelGrid:
    def test_rejects_lists_of_other_lengths(self):
        c = SPEC.channels
        for voxels, features, category in (
            (np.arange(2), np.zeros((3, c)), np.ones(2, dtype=np.uint8)),
            (np.arange(2), np.zeros((2, c + 1)), np.ones(2, dtype=np.uint8)),
            (np.arange(2), np.zeros((2, c)), np.ones(3, dtype=np.uint8)),
            (np.zeros((2, 1), dtype=int), np.zeros((2, c)), np.ones(2, dtype=np.uint8)),
        ):
            with pytest.raises(ValueError):
                VoxelGrid(SPEC, voxels, features, category)

    def test_tagged_columns(self):
        grid = tagged(SPEC, Category.LIDAR, (0, 0, 3), (0, 1, 0), (0, 1, 2), (5, 6, 1))
        assert np.array_equal(collapse(grid)[0], [0, 1, 5 * SPEC.ny + 6])
        assert collapse(VoxelGrid.empty(SPEC))[0].size == 0


class TestCollapse:
    def test_zero_grid(self):
        columns, rows = collapse(VoxelGrid.empty(SPEC))
        assert columns.size == 0
        assert rows.shape == (0, SPEC.bev_channels)

    def test_single_cell_block_placement(self):
        k = 2
        grid = tagged(SPEC, Category.LIDAR, (5, 6, k), features=np.arange(1, 9))
        columns, rows = collapse(grid)
        assert np.array_equal(columns, [5 * SPEC.ny + 6])
        block = slice(k * SPEC.channels, (k + 1) * SPEC.channels)
        assert np.allclose(rows[0, block], np.arange(1, 9))
        other = np.delete(rows[0], np.r_[block])
        assert np.all(other == 0)

    def test_lossless_roundtrip(self, rng):
        feats = rng.standard_normal((SPEC.nx, SPEC.ny, SPEC.nz, SPEC.channels))
        grid = sparse(SPEC, feats, np.full(feats.shape[:3], Category.LIDAR, dtype=np.uint8))
        columns, rows = collapse(grid)
        assert np.array_equal(columns, np.arange(SPEC.nx * SPEC.ny))
        restored = rows.reshape(SPEC.nx, SPEC.ny, SPEC.nz, SPEC.channels)
        assert np.array_equal(restored, feats)
        assert not np.shares_memory(rows, grid.features)

    def test_l0_preserved(self, rng):
        feats, category = dense_zeros(SPEC)
        on = rng.uniform(size=feats.shape) < 0.05
        feats[on] = 1.0
        category[np.any(on, axis=3)] = Category.LIDAR
        grid = sparse(SPEC, feats, category)
        columns, rows = collapse(grid)
        assert np.array_equal(columns, np.unique(grid.voxels // SPEC.nz))
        assert np.count_nonzero(rows) == np.count_nonzero(grid.features)


def test_grid_budget_guard():
    with pytest.raises(ValueError):
        GridSpec((-1, 1), (-1, 1), (0, 1), 4096, 4096, 64, 64)
