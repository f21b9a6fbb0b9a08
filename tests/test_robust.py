import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covox.geometry import Pose, invert, planar_parts
from covox.metrics import Detection, iou_table
from covox.robust import (
    _connected_components,
    _convex_hull,
    _greedy_matches,
    _min_area_rects,
    correct_relative_pose,
    detect_local,
    fit_planar_alignment,
    occupancy_from_grid,
    perturb_pose,
    relative_pose_error,
    transform_centers,
    transform_detections,
)
from covox.voxel import GridSpec, voxelize_points

from oracles import (
    components_by_label_array,
    convex_hull_of_arrays,
    detect_local_per_component,
    greedy_matches_per_pair,
    min_area_rect_per_set,
    transform_detections_per_box,
)

GRID = GridSpec((-20.0, 20.0), (-20.0, 20.0), (0.0, 4.0), 64, 64, 4, 8)


def assert_same_rects(got, want):
    assert len(got) == len(want)
    for (center, yaw, extent), (ref_center, ref_yaw, ref_extent) in zip(got, want):
        ref_center = np.asarray(ref_center)
        assert center.dtype == ref_center.dtype
        assert center.tobytes() == ref_center.tobytes()
        assert (yaw, extent) == (ref_yaw, ref_extent)


def assert_same_rect(points):
    # The hull takes its points in lexicographic order without repeats.
    ordered = hull_input(points)
    hull, ref_hull = np.array(_convex_hull(ordered)), convex_hull_of_arrays(points)
    assert hull.dtype == ref_hull.dtype and hull.shape == ref_hull.shape
    assert hull.tobytes() == ref_hull.tobytes()
    if len(ordered) >= 2:  # a component has two cells or more
        assert_same_rects(_min_area_rects([_convex_hull(ordered)]), [min_area_rect_per_set(points)])


def hull_input(points):
    """`points` as _convex_hull takes them: lexicographic order, no repeats."""
    return np.unique(np.asarray(points, dtype=np.float64), axis=0).tolist()


def assert_same_batch(point_sets):
    """The rectangles of one batch equal those fitted one set at a time."""
    ordered = [hull_input(points) for points in point_sets]
    got = _min_area_rects([_convex_hull(points) for points in ordered])
    assert_same_rects(got, [min_area_rect_per_set(points) for points in point_sets])


def components_of(mask):
    """_connected_components of a boolean grid, called as detect_local calls it."""
    return _connected_components(*np.nonzero(mask), mask.shape)


def assert_same_components(mask):
    mask = np.asarray(mask, dtype=bool)
    got = components_of(mask)
    scan = np.argwhere(mask)
    comps = [scan[members] for members in got]
    ref = components_by_label_array(mask)
    assert len(comps) == len(ref)
    for got, want in zip(comps, ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


class TestDetectorOracles:
    @given(
        st.integers(1, 64), st.integers(1, 64), st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_components_match_label_array_bfs(self, nx, ny, density, seed):
        mask = np.random.default_rng(seed).uniform(size=(nx, ny)) < density
        assert_same_components(mask)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (64, 64)])
    def test_components_of_full_and_empty_masks(self, shape):
        assert_same_components(np.ones(shape, dtype=bool))
        assert_same_components(np.zeros(shape, dtype=bool))

    def test_components_touching_every_border(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[0, :] = mask[:, 0] = mask[8, 3:] = mask[4:, 8] = True
        mask[4, 4] = mask[5, 5] = mask[2, 6] = True
        assert_same_components(mask)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.01, 100.0))
    @settings(max_examples=150, deadline=None)
    def test_rect_matches_per_edge_loop(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, scale, (n, 2))
        assert_same_rect(pts)
        assert_same_rect(np.round(pts))  # grid-like sets with equal-area edges
        assert_same_rect(np.vstack([pts, pts[: n // 2]]))  # duplicate points

    @pytest.mark.parametrize(
        "points",
        [
            [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.5, 3.5]],  # collinear, diagonal
            [[0.0, 2.0], [1.0, 2.0], [5.0, 2.0]],  # one row
            [[3.0, -1.0], [3.0, 4.0], [3.0, 0.5]],  # one column
            [[1.0, 1.0], [1.0, 1.0]],  # one point, twice
            [[0.0, 0.0], [2.0, 1.0]],  # two points
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]],  # square
        ],
    )
    def test_rect_degenerate_sets(self, points):
        assert_same_rect(np.array(points))

    def test_rect_with_signed_zero_ties(self):
        # Rounding makes -0.0 and 0.0 rows that tie; past 16 rows np.unique's
        # sort does not keep the first of a tie.
        for seed in range(10):
            assert_same_rect(np.round(np.random.default_rng(seed).normal(0.0, 1.0, (20, 2))))

    def test_rect_on_grid_cell_rows(self):
        for ny in range(1, 6):
            cells = [(x, y) for x in range(4) for y in range(ny)]
            assert_same_rect(GRID.bev_cell_centers(*np.array(cells).T))

    @staticmethod
    def assert_same_detections(occ, spec=GRID):
        """The detector on the nonzero cells of a whole (nx, ny) map and
        their values, against the reference; listing every cell, zeros
        included, gives the same boxes."""
        occ = np.asarray(occ, dtype=np.float64).reshape(-1)
        cells = np.flatnonzero(occ)
        dets = detect_local(cells, occ[cells], spec)
        assert dets == detect_local_per_component(cells, occ[cells], spec)
        assert detect_local(np.arange(occ.size), occ, spec) == dets
        return dets

    @given(
        st.integers(1, 40), st.integers(1, 40), st.floats(0.0, 0.6),
        st.integers(0, 2**32 - 1), st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_detections_match_parent_detector(self, nx, ny, density, seed, counts):
        """Random maps, with point counts (many tied values) or real values."""
        rng = np.random.default_rng(seed)
        spec = GridSpec((-7.0, 9.0), (-3.0, 3.0), (0.0, 1.0), nx, ny, 1, 1)
        on = rng.uniform(size=(nx, ny)) < density
        values = rng.integers(1, 9, (nx, ny)) if counts else rng.exponential(1.0, (nx, ny))
        self.assert_same_detections(np.where(on, values, 0.0), spec)

    @pytest.mark.parametrize(
        "cells",
        [
            [(3, 3), (3, 4)],  # two cells in a row
            [(3, 3), (4, 4)],  # two cells on a diagonal
            [(5, y) for y in range(2, 9)],  # one row
            [(x, 6) for x in range(1, 7)],  # one column
            [(x, x) for x in range(2, 8)],  # one diagonal
            [(x, 10 - x) for x in range(2, 8)],  # the other diagonal
            [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)],  # an L, found from its corner
        ],
    )
    def test_two_cell_and_collinear_components(self, cells):
        occ = np.zeros((GRID.nx, GRID.ny))
        for k, (x, y) in enumerate(cells):
            occ[x, y] = 1.0 + 0.1 * k  # breadth-first and scan order differ
        assert len(self.assert_same_detections(occ)) == 1

    @given(
        st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 40), st.booleans()),
                 min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_one_set_at_a_time(self, sets):
        """Hulls of different lengths padded into one batch: round point
        sets (hulls of up to 40 vertices) mixed with random and grid-like ones."""
        point_sets = []
        for seed, n, round_ in sets:
            rng = np.random.default_rng(seed)
            if round_:
                angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
                pts = 5.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            else:
                pts = np.round(rng.normal(0.0, 3.0, (n, 2)), int(rng.integers(0, 3)))
            if len(hull_input(pts)) >= 2:
                point_sets.append(pts + rng.normal(0.0, 20.0, 2))
        if point_sets:
            assert_same_batch(point_sets)

    @pytest.mark.parametrize("n", [20, 21, 33, 64])
    def test_rect_of_hulls_with_many_vertices(self, n):
        rng = np.random.default_rng(n)
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        pts = rng.uniform(1.0, 9.0) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert len(_convex_hull(hull_input(pts))) >= 20
        assert_same_rect(pts)
        assert_same_batch([pts, pts[:3], pts[:2] + 1.0])

    @pytest.mark.parametrize("radius, vertices", [(3.5, 9), (11.3, 18), (15.0, 22), (25.0, 30)])
    def test_round_components(self, radius, vertices):
        """Lattice discs, whose hulls have up to 30 vertices."""
        x, y = np.mgrid[: GRID.nx, : GRID.ny]
        disc = np.hypot(x - 30.2, y - 31.7) <= radius
        xs, ys = np.nonzero(disc)  # scan order: the centres in lexicographic order
        assert len(_convex_hull(GRID.bev_cell_centers(xs, ys).tolist())) == vertices
        assert len(self.assert_same_detections(disc * (1.0 + 0.01 * x))) == 1

    @pytest.mark.parametrize("along", ["row", "column"])
    def test_one_row_and_one_column_components_of_every_length(self, along):
        for fixed in (0, 17, GRID.nx - 1):
            for length in range(1, GRID.ny + 1):
                occ = np.zeros((GRID.nx, GRID.ny))
                if along == "row":
                    occ[fixed, GRID.ny - length:] = 1.0
                else:
                    occ[:length, fixed] = 1.0
                assert len(self.assert_same_detections(occ)) == (length >= 2)

    def test_components_on_each_grid_border(self):
        rng = np.random.default_rng(11)
        occ = np.zeros((GRID.nx, GRID.ny))
        last_x, last_y = GRID.nx - 1, GRID.ny - 1
        occ[0, 5:12] = occ[1, 7:9] = 1.0  # top edge
        occ[last_x, 40:45] = occ[last_x - 1, 41] = 1.0  # bottom edge
        occ[20:31, 0] = occ[25, 1] = 1.0  # left edge
        occ[50:54, last_y] = occ[52:57, last_y - 1] = 1.0  # right edge
        occ[0, 0] = occ[1, 1] = 1.0  # a corner, diagonally
        occ[last_x - 2:, last_y - 2:] = 1.0  # the opposite corner
        occ[0, last_y] = occ[last_x, 0] = 1.0  # the other corners, one cell each
        occ *= rng.uniform(0.5, 1.0, occ.shape)
        assert len(self.assert_same_detections(occ)) == 6

    def test_maps_with_no_or_one_component(self):
        occ = np.zeros((GRID.nx, GRID.ny))
        assert self.assert_same_detections(occ) == []
        occ[10, 10] = 2.0  # one component, below the size floor
        assert self.assert_same_detections(occ) == []
        occ[9:12, 11] = 1.0
        assert len(self.assert_same_detections(occ)) == 1
        occ[30, 30] = 0.1  # below the relative threshold: still one component
        assert len(self.assert_same_detections(occ)) == 1
        assert components_of(np.zeros((3, 4), dtype=bool)) == []

    @staticmethod
    def _dets(centers, scores=None):
        scores = scores or [1.0] * len(centers)
        return [Detection(tuple(c), 0.0, (4.0, 2.0), s) for c, s in zip(centers, scores)]

    def test_greedy_ties_pick_lowest_index(self):
        ego = self._dets([(0.0, 0.0), (0.0, 0.0)], [0.5, 0.5])
        nbr = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        pairs = _greedy_matches(ego, nbr, 2.0)
        assert pairs == greedy_matches_per_pair(ego, nbr, 2.0) == [(0, 0), (1, 1)]

    def test_greedy_empty_inputs(self):
        some = [(0.0, 0.0)]
        for ego, nbr in [([], []), (self._dets(some), []), ([], some)]:
            assert _greedy_matches(ego, nbr, 2.0) == greedy_matches_per_pair(ego, nbr, 2.0) == []

    def test_greedy_gate_equal_to_norm_is_inside(self, rng):
        """A gate equal to np.linalg.norm of the gap admits the pair, also
        where a sum of squares would round the distance up past the gate."""
        for _ in range(300):
            e, n = rng.normal(0.0, 3.0, (2, 2))
            gate = float(np.linalg.norm(n - e))
            assert _greedy_matches(self._dets([e]), [n], gate) == [(0, 0)]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_greedy_matches_per_pair_oracle(self, seed, n_ego, n_nbr):
        rng = np.random.default_rng(seed)
        # Integer centers and repeated scores give many exact distance ties.
        ego = self._dets(rng.integers(-3, 4, (n_ego, 2)).astype(float).tolist(),
                         rng.choice([0.3, 0.6], n_ego).tolist())
        nbr = rng.normal(0.0, 2.0, (n_nbr, 2)).tolist()
        nbr += rng.integers(-3, 4, (n_nbr, 2)).astype(float).tolist()
        for gate in (0.5, 1.0, 2.0, 10.0):
            assert _greedy_matches(ego, nbr, gate) == greedy_matches_per_pair(ego, nbr, gate)


class TestPerturbPose:
    def test_zero_sigma_bit_exact(self):
        pose = Pose.from_planar(3.0, -1.0, 0.7)
        out = perturb_pose(pose, 0.0, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.matrix, pose.matrix)

    def test_reproducible(self):
        pose = Pose.from_planar(3.0, -1.0, 0.7)
        a = perturb_pose(pose, 0.3, 0.05, np.random.default_rng(9))
        b = perturb_pose(pose, 0.3, 0.05, np.random.default_rng(9))
        assert np.array_equal(a.matrix, b.matrix)

    def test_sample_std(self):
        pose = Pose(np.eye(4))
        rng = np.random.default_rng(5)
        xs = np.array([perturb_pose(pose, 0.4, 0.0, rng).translation[0] for _ in range(10_000)])
        assert abs(xs.std() - 0.4) / 0.4 < 0.05

    def test_z_and_tilt_untouched(self):
        pose = Pose.from_rt(Pose.from_planar(0.0, 0.0, 0.3).rotation, (1.0, 2.0, 1.5))
        out = perturb_pose(pose, 0.5, 0.2, np.random.default_rng(2))
        assert out.translation[2] == 1.5
        # The rotated z column must stay (0, 0, 1): yaw-only perturbation.
        assert np.allclose(out.rotation[:, 2], [0, 0, 1], atol=1e-12)


def rasterize_box(det: Detection, spec: GridSpec, pts_per_edge: int = 400):
    """Fill a box footprint with synthetic points (z centered in the grid)."""
    rng = np.random.default_rng(0)
    l, w = det.extent
    local = rng.uniform(-0.5, 0.5, (pts_per_edge, 2)) * np.array([l, w])
    c, s = np.cos(det.yaw), np.sin(det.yaw)
    rot = np.array([[c, -s], [s, c]])
    xy = local @ rot.T + np.asarray(det.center)
    z = np.full((pts_per_edge, 1), 0.5 * (spec.z_range[0] + spec.z_range[1]))
    return np.hstack([xy, z])


class TestDetectLocal:
    def test_empty_grid(self):
        assert detect_local(np.zeros(0, dtype=np.int64), np.zeros(0), GRID) == []
        cells = np.arange(GRID.nx * GRID.ny)
        assert detect_local(cells, np.zeros(cells.size), GRID) == []

    def test_one_value_per_cell(self):
        with pytest.raises(ValueError, match="one value per cell"):
            detect_local(np.array([3, 4]), np.ones(3), GRID)

    def test_rasterized_box_recovered(self):
        truth = Detection(center=(4.0, -3.0), yaw=0.5, extent=(4.4, 2.0))
        grid = voxelize_points(rasterize_box(truth, GRID), GRID)
        dets = detect_local(*occupancy_from_grid(grid), GRID)
        assert len(dets) == 1
        det = dets[0]
        pitch = (GRID.dx + GRID.dy) / 2
        assert np.hypot(det.center[0] - 4.0, det.center[1] + 3.0) <= pitch
        yaw_err = abs((det.yaw - truth.yaw + np.pi / 2) % np.pi - np.pi / 2)
        assert np.degrees(yaw_err) < 10.0
        assert iou_table([det], [truth])[0, 0] > 0.5

    def test_two_separated_boxes(self):
        a = Detection(center=(-8.0, -8.0), yaw=0.0, extent=(4.0, 2.0))
        b = Detection(center=(8.0, 8.0), yaw=1.0, extent=(4.0, 2.0))
        pts = np.vstack([rasterize_box(a, GRID), rasterize_box(b, GRID)])
        grid = voxelize_points(pts, GRID)
        dets = detect_local(*occupancy_from_grid(grid), GRID)
        assert len(dets) == 2

    @pytest.mark.parametrize("step", [1, GRID.ny], ids=["one-row", "one-column"])
    def test_one_line_component_is_a_pitch_broad(self, step):
        """Five cells in a line have collinear centres, a rectangle of zero
        breadth; their box, in the detector and in its reference, is still
        at least one cell pitch broad."""
        pitch = (GRID.dx + GRID.dy) / 2
        cells = 10 * GRID.ny + 20 + step * np.arange(5)
        for dets in (detect_local(cells, np.ones(5), GRID),
                     detect_local_per_component(cells, np.ones(5), GRID)):
            (det,) = dets
            assert det.extent[1] >= pitch
            assert det.extent[0] >= 4 * pitch

    def test_scores_in_unit_interval(self):
        truth = Detection(center=(0.0, 0.0), yaw=0.0, extent=(4.0, 2.0))
        grid = voxelize_points(rasterize_box(truth, GRID), GRID)
        for det in detect_local(*occupancy_from_grid(grid), GRID):
            assert 0.0 <= det.score <= 1.0


class TestPlanarAlignment:
    def test_pure_translation_recovery(self, rng):
        pts = rng.uniform(-10, 10, (6, 2))
        t = np.array([1.3, -0.8])
        rot, trans = fit_planar_alignment(pts + t, pts + 2 * t)
        assert np.allclose(rot, np.eye(2), atol=1e-9)
        assert np.allclose(trans, t, atol=1e-9)

    def test_rotation_recovery(self, rng):
        pts = rng.uniform(-10, 10, (8, 2))
        theta = 0.3
        c, s = np.cos(theta), np.sin(theta)
        rot_true = np.array([[c, -s], [s, c]])
        dst = pts @ rot_true.T + np.array([0.5, 2.0])
        rot, trans = fit_planar_alignment(pts, dst)
        assert np.allclose(rot, rot_true, atol=1e-9)
        assert np.allclose(trans, [0.5, 2.0], atol=1e-9)

    def test_matches_grid_search_oracle(self, rng):
        """Closed form vs dense-theta search with per-theta optimal shift."""
        for _ in range(10):
            src = rng.uniform(-5, 5, (5, 2))
            dst = rng.uniform(-5, 5, (5, 2))
            rot, trans = fit_planar_alignment(src, dst)
            closed = np.sum((src @ rot.T + trans - dst) ** 2)

            thetas = np.linspace(-np.pi, np.pi, 20_001)
            c, s = np.cos(thetas), np.sin(thetas)
            r = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
            t = dst.mean(axis=0) - r @ src.mean(axis=0)
            res = np.sum((src @ r.transpose(0, 2, 1) + t[:, None, :] - dst) ** 2, axis=(1, 2))
            assert closed <= res.min() + 1e-4

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            fit_planar_alignment(np.zeros((1, 2)), np.zeros((1, 2)))


class TestCorrectRelativePose:
    @staticmethod
    def _dets(centers):
        return [Detection(center=tuple(c), yaw=0.0, extent=(4.0, 2.0)) for c in centers]

    def test_zero_noise_near_identity(self, rng):
        centers = rng.uniform(-15, 15, (5, 2))
        init = Pose.from_planar(2.0, -1.0, 0.2)
        ego = self._dets(centers)
        nbr = centers  # already aligned in the ego frame
        out = correct_relative_pose(init, ego, nbr, gate_radius=2.0)
        terr, yerr = relative_pose_error(out, init)
        assert terr < 1e-6 and yerr < 1e-6

    def test_translation_offset_recovered(self, rng):
        centers = rng.uniform(-15, 15, (6, 2))
        t = np.array([0.8, -0.5])
        init = Pose(np.eye(4))
        out = correct_relative_pose(
            init, self._dets(centers), centers + t, gate_radius=2.0
        )
        x, y, yaw = planar_parts(out)
        assert np.allclose([x, y], -t, atol=1e-6)
        assert abs(yaw) < 1e-6

    def test_single_match_falls_back(self):
        init = Pose.from_planar(1.0, 1.0, 0.1)
        out = correct_relative_pose(
            init, self._dets([(0, 0)]), [(0.5, 0.5)], gate_radius=2.0
        )
        assert np.array_equal(out.matrix, init.matrix)

    def test_two_matches_fall_back(self):
        """Two pairs fit any rigid offset exactly; the gate needs three."""
        init = Pose.from_planar(1.0, 1.0, 0.1)
        ego = self._dets([(0, 0), (8, 3)])
        out = correct_relative_pose(init, ego, [(-1, 0), (7, 3)], gate_radius=2.0)
        assert np.array_equal(out.matrix, init.matrix)

    def test_zero_mean_jitter_falls_back(self, rng):
        """Matched centers that differ only by zero-mean jitter leave the
        pose as it is, although their fit is not the identity."""
        centers = rng.uniform(-15, 15, (6, 2))
        jitter = rng.normal(0.0, 0.3, (6, 2))
        nbr = centers + jitter - jitter.mean(axis=0)
        rot, t = fit_planar_alignment(nbr, centers)
        assert abs(np.arctan2(rot[1, 0], rot[0, 0])) > 1e-4 or np.hypot(*t) > 1e-4
        init = Pose.from_planar(2.0, -1.0, 0.2)
        out = correct_relative_pose(init, self._dets(centers), nbr, gate_radius=2.0)
        assert np.array_equal(out.matrix, init.matrix)

    def test_out_of_gate_ignored(self):
        init = Pose(np.eye(4))
        ego = self._dets([(0, 0), (10, 0)])
        nbr = [(0, 5), (10, 5)]  # 5 m away, outside the 2 m gate
        out = correct_relative_pose(init, ego, nbr, gate_radius=2.0)
        assert np.array_equal(out.matrix, init.matrix)

    def test_monotone_benefit(self):
        """Correction beats the noisy initial estimate in >= 90% of trials."""
        rng = np.random.default_rng(77)
        wins = 0
        trials = 100
        for _ in range(trials):
            n = int(rng.integers(3, 7))
            centers = rng.uniform(-15, 15, (n, 2))
            true_rel = Pose.from_planar(*rng.uniform(-5, 5, 2), rng.uniform(-0.3, 0.3))
            noisy_rel = perturb_pose(true_rel, 0.4, 0.03, rng)
            ego_dets = self._dets(centers + rng.normal(0, 0.1, (n, 2)))
            # Neighbor sees the same objects in its own frame, with jitter.
            nbr_local = transform_centers(centers + rng.normal(0, 0.1, (n, 2)), invert(true_rel))
            nbr_in_ego = transform_centers(nbr_local, noisy_rel)
            corrected = correct_relative_pose(noisy_rel, ego_dets, nbr_in_ego, 2.0)
            before, _ = relative_pose_error(noisy_rel, true_rel)
            after, _ = relative_pose_error(corrected, true_rel)
            wins += after <= before
        assert wins >= 90


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 12),
    pose=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-np.pi, np.pi)),
)
@settings(max_examples=100, deadline=None)
def test_transform_detections_matches_per_box(seed, n, pose):
    """The array pass gives every box the bits of the per-box loop, and
    keeps each box's extent and score."""
    rng = np.random.default_rng(seed)
    dets = [
        Detection(center=tuple(rng.uniform(-40.0, 40.0, 2) * 10.0 ** rng.integers(-12, 2)),
                  yaw=float(rng.uniform(-np.pi, np.pi)),
                  extent=tuple(rng.uniform(0.5, 5.0, 2)), score=float(rng.uniform()))
        for _ in range(n)
    ]
    rel = Pose.from_planar(*pose)
    got, want = transform_detections(dets, rel), transform_detections_per_box(dets, rel)
    assert got == want
    for g, w in zip(got, want):
        assert [type(v) for v in (*g.center, g.yaw)] == [float] * 3
        assert np.array([*g.center, g.yaw]).tobytes() == np.array([*w.center, w.yaw]).tobytes()


def test_relative_pose_error_wraps_yaw():
    a = Pose.from_planar(0, 0, np.pi - 0.05)
    b = Pose.from_planar(0, 0, -np.pi + 0.05)
    terr, yerr = relative_pose_error(a, b)
    assert terr == 0.0
    assert abs(yerr - 0.1) < 1e-9
