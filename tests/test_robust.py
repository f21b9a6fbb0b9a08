from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covox.geometry import Pose, invert, planar_parts
from covox.metrics import Detection, rotated_iou
from covox.robust import (
    NoiseModel,
    _connected_components,
    _convex_hull,
    _greedy_matches,
    _min_area_rect,
    correct_relative_pose,
    detect_local,
    fit_planar_alignment,
    occupancy_from_grid,
    perturb_pose,
    relative_pose_error,
    transform_detections,
)
from covox.voxel import GridSpec, voxelize_points

GRID = GridSpec((-20.0, 20.0), (-20.0, 20.0), (0.0, 4.0), 64, 64, 4, 8)


# Oracles: the per-edge, per-cell and per-pair implementations over numpy
# scalars that the batched and list-based ones in covox.robust must
# reproduce bit for bit.


def convex_hull_of_arrays(points):
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if pts.shape[0] <= 2:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                a, b = chain[-1] - chain[-2], p - chain[-2]
                if a[0] * b[1] - a[1] * b[0] > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    hull = np.array(half(pts)[:-1] + half(pts[::-1])[:-1])
    return hull if hull.shape[0] >= 3 else pts


def min_area_rect_per_edge(points):
    pts = np.asarray(points, dtype=np.float64)
    hull = convex_hull_of_arrays(pts)
    if hull.shape[0] == 1:
        return hull[0], 0.0, (0.0, 0.0)
    if hull.shape[0] == 2:
        edges = [hull[1] - hull[0]]
    else:
        edges = list(np.diff(np.vstack([hull, hull[:1]]), axis=0))
    best = None
    for e in edges:
        theta = np.arctan2(e[1], e[0])
        c, s = np.cos(-theta), np.sin(-theta)
        rot = np.array([[c, -s], [s, c]])
        local = hull @ rot.T
        lo, hi = local.min(axis=0), local.max(axis=0)
        area = float(np.prod(hi - lo))
        if best is None or area < best[0] - 1e-12:
            best = (area, rot.T @ ((lo + hi) / 2.0), theta, tuple(hi - lo))
    _, center, theta, (ex, ey) = best
    if ex >= ey:
        length, width, yaw = ex, ey, theta
    else:
        length, width, yaw = ey, ex, theta + np.pi / 2.0
    yaw = (yaw + np.pi / 2.0) % np.pi - np.pi / 2.0
    return center, float(yaw), (float(length), float(width))


def components_by_label_array(mask):
    mask = np.asarray(mask, dtype=bool)
    labels = np.full(mask.shape, -1, dtype=np.int32)
    comps = []
    for sx, sy in zip(*np.nonzero(mask)):
        if labels[sx, sy] >= 0:
            continue
        label = len(comps)
        queue = deque([(sx, sy)])
        labels[sx, sy] = label
        cells = []
        while queue:
            x, y = queue.popleft()
            cells.append((x, y))
            for nx_ in (x - 1, x, x + 1):
                for ny_ in (y - 1, y, y + 1):
                    if (
                        0 <= nx_ < mask.shape[0]
                        and 0 <= ny_ < mask.shape[1]
                        and mask[nx_, ny_]
                        and labels[nx_, ny_] < 0
                    ):
                        labels[nx_, ny_] = label
                        queue.append((nx_, ny_))
        comps.append(np.array(cells, dtype=np.int64))
    return comps


def greedy_matches_per_pair(ego_dets, neighbor_dets, gate_radius):
    ego_order = sorted(range(len(ego_dets)), key=lambda i: -ego_dets[i].score)
    free = set(range(len(neighbor_dets)))
    pairs = []
    for i in ego_order:
        if not free:
            break
        e = np.asarray(ego_dets[i].center)
        cand = min(
            free, key=lambda j: float(np.linalg.norm(np.asarray(neighbor_dets[j].center) - e))
        )
        dist = float(np.linalg.norm(np.asarray(neighbor_dets[cand].center) - e))
        if dist <= gate_radius:
            pairs.append((i, cand))
            free.remove(cand)
    return pairs


def assert_same_rect(points):
    hull, ref_hull = _convex_hull(points), convex_hull_of_arrays(points)
    assert hull.dtype == ref_hull.dtype and hull.shape == ref_hull.shape
    assert hull.tobytes() == ref_hull.tobytes()
    center, yaw, extent = _min_area_rect(points)
    ref_center, ref_yaw, ref_extent = min_area_rect_per_edge(points)
    assert center.tobytes() == np.asarray(ref_center).tobytes()
    assert center.dtype == np.asarray(ref_center).dtype
    assert (yaw, extent) == (ref_yaw, ref_extent)


def assert_same_components(mask):
    comps, ref = _connected_components(mask), components_by_label_array(mask)
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
    def _dets(centers, scores=None):
        scores = scores or [1.0] * len(centers)
        return [Detection(tuple(c), 0.0, (4.0, 2.0), s) for c, s in zip(centers, scores)]

    def test_greedy_ties_pick_lowest_index(self):
        ego = self._dets([(0.0, 0.0), (0.0, 0.0)], [0.5, 0.5])
        nbr = self._dets([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
        pairs = _greedy_matches(ego, nbr, 2.0)
        assert pairs == greedy_matches_per_pair(ego, nbr, 2.0) == [(0, 0), (1, 1)]

    def test_greedy_empty_inputs(self):
        some = self._dets([(0.0, 0.0)])
        for ego, nbr in [([], []), (some, []), ([], some)]:
            assert _greedy_matches(ego, nbr, 2.0) == greedy_matches_per_pair(ego, nbr, 2.0) == []

    def test_greedy_gate_equal_to_norm_is_inside(self, rng):
        """A gate equal to np.linalg.norm of the gap admits the pair, also
        where a sum of squares would round the distance up past the gate."""
        for _ in range(300):
            e, n = rng.normal(0.0, 3.0, (2, 2))
            gate = float(np.linalg.norm(n - e))
            assert _greedy_matches(self._dets([e]), self._dets([n]), gate) == [(0, 0)]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_greedy_matches_per_pair_oracle(self, seed, n_ego, n_nbr):
        rng = np.random.default_rng(seed)
        # Integer centers and repeated scores give many exact distance ties.
        ego = self._dets(rng.integers(-3, 4, (n_ego, 2)).astype(float).tolist(),
                         rng.choice([0.3, 0.6], n_ego).tolist())
        nbr = self._dets(rng.normal(0.0, 2.0, (n_nbr, 2)).tolist())
        nbr += self._dets(rng.integers(-3, 4, (n_nbr, 2)).astype(float).tolist())
        for gate in (0.5, 1.0, 2.0, 10.0):
            assert _greedy_matches(ego, nbr, gate) == greedy_matches_per_pair(ego, nbr, gate)


class TestPerturbPose:
    def test_zero_sigma_bit_exact(self):
        pose = Pose.from_planar(3.0, -1.0, 0.7)
        out = perturb_pose(pose, NoiseModel(0.0, 0.0), np.random.default_rng(0))
        assert np.array_equal(out.matrix, pose.matrix)

    def test_reproducible(self):
        pose = Pose.from_planar(3.0, -1.0, 0.7)
        noise = NoiseModel(0.3, 0.05)
        a = perturb_pose(pose, noise, np.random.default_rng(9))
        b = perturb_pose(pose, noise, np.random.default_rng(9))
        assert np.array_equal(a.matrix, b.matrix)

    def test_sample_std(self):
        pose = Pose(np.eye(4))
        noise = NoiseModel(0.4, 0.0)
        rng = np.random.default_rng(5)
        xs = np.array(
            [perturb_pose(pose, noise, rng).translation[0] for _ in range(10_000)]
        )
        assert abs(xs.std() - 0.4) / 0.4 < 0.05

    def test_z_and_tilt_untouched(self):
        pose = Pose.from_planar(1.0, 2.0, 0.3, z=1.5)
        out = perturb_pose(pose, NoiseModel(0.5, 0.2), np.random.default_rng(2))
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
        assert detect_local(np.zeros((GRID.nx, GRID.ny)), GRID) == []

    def test_rasterized_box_recovered(self):
        truth = Detection(center=(4.0, -3.0), yaw=0.5, extent=(4.4, 2.0))
        grid = voxelize_points(rasterize_box(truth, GRID), GRID)
        dets = detect_local(occupancy_from_grid(grid), GRID)
        assert len(dets) == 1
        det = dets[0]
        pitch = (GRID.dx + GRID.dy) / 2
        assert np.hypot(det.center[0] - 4.0, det.center[1] + 3.0) <= pitch
        yaw_err = abs((det.yaw - truth.yaw + np.pi / 2) % np.pi - np.pi / 2)
        assert np.degrees(yaw_err) < 10.0
        assert rotated_iou(det, truth) > 0.5

    def test_two_separated_boxes(self):
        a = Detection(center=(-8.0, -8.0), yaw=0.0, extent=(4.0, 2.0))
        b = Detection(center=(8.0, 8.0), yaw=1.0, extent=(4.0, 2.0))
        pts = np.vstack([rasterize_box(a, GRID), rasterize_box(b, GRID)])
        dets = detect_local(occupancy_from_grid(voxelize_points(pts, GRID)), GRID)
        assert len(dets) == 2

    def test_scores_in_unit_interval(self):
        truth = Detection(center=(0.0, 0.0), yaw=0.0, extent=(4.0, 2.0))
        grid = voxelize_points(rasterize_box(truth, GRID), GRID)
        for det in detect_local(occupancy_from_grid(grid), GRID):
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

            best = np.inf
            thetas = np.linspace(-np.pi, np.pi, 20_001)
            for th in thetas:
                c, s = np.cos(th), np.sin(th)
                r = np.array([[c, -s], [s, c]])
                t = dst.mean(axis=0) - r @ src.mean(axis=0)
                res = np.sum((src @ r.T + t - dst) ** 2)
                best = min(best, res)
            assert closed <= best + 1e-4

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
        nbr = self._dets(centers)  # already aligned in the ego frame
        out = correct_relative_pose(init, ego, nbr, gate_radius=2.0)
        terr, yerr = relative_pose_error(out, init)
        assert terr < 1e-6 and yerr < 1e-6

    def test_translation_offset_recovered(self, rng):
        centers = rng.uniform(-15, 15, (6, 2))
        t = np.array([0.8, -0.5])
        init = Pose(np.eye(4))
        out = correct_relative_pose(
            init, self._dets(centers), self._dets(centers + t), gate_radius=2.0
        )
        x, y, yaw = planar_parts(out)
        assert np.allclose([x, y], -t, atol=1e-6)
        assert abs(yaw) < 1e-6

    def test_single_match_falls_back(self):
        init = Pose.from_planar(1.0, 1.0, 0.1)
        out = correct_relative_pose(
            init, self._dets([(0, 0)]), self._dets([(0.5, 0.5)]), gate_radius=2.0
        )
        assert np.array_equal(out.matrix, init.matrix)

    def test_out_of_gate_ignored(self):
        init = Pose(np.eye(4))
        ego = self._dets([(0, 0), (10, 0)])
        nbr = self._dets([(0, 5), (10, 5)])  # 5 m away, outside the 2 m gate
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
            noisy_rel = perturb_pose(true_rel, NoiseModel(0.4, 0.03), rng)
            ego_dets = self._dets(centers + rng.normal(0, 0.1, (n, 2)))
            # Neighbor sees the same objects in its own frame, with jitter.
            nbr_local = transform_detections(
                self._dets(centers + rng.normal(0, 0.1, (n, 2))), invert(true_rel)
            )
            nbr_in_ego = transform_detections(nbr_local, noisy_rel)
            corrected = correct_relative_pose(noisy_rel, ego_dets, nbr_in_ego, 2.0)
            before, _ = relative_pose_error(noisy_rel, true_rel)
            after, _ = relative_pose_error(corrected, true_rel)
            wins += after <= before
        assert wins >= 90


def test_relative_pose_error_wraps_yaw():
    a = Pose.from_planar(0, 0, np.pi - 0.05)
    b = Pose.from_planar(0, 0, -np.pi + 0.05)
    terr, yerr = relative_pose_error(a, b)
    assert terr == 0.0
    assert abs(yerr - 0.1) < 1e-9
