import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covox import depth
from covox.depth import (
    DepthBins,
    DepthMap,
    DepthSource,
    NoisyOraclePredictor,
    UniformPredictor,
    encode_replies,
    finalize_distribution,
    merge_cooperative,
    nearest_per_pixel,
    predict_depth,
    project_cloud_to_depthmap,
)
from covox.geometry import CameraIntrinsics, project_points

from oracles import (
    merge_cooperative_pairs,
    min_depth_image_by_minimum_at,
    oracle_noisy_predict,
    project_cloud_to_depthmap_by_image,
    reply_of,
)

BINS = DepthBins(1.0, 33.0, 16)
INTR = CameraIntrinsics(50.0, 50.0, 16.0, 12.0, 32, 24)
N_PIXELS = INTR.height * INTR.width


def cloud_for_pixels(pixel_depths):
    """Build a camera-frame cloud that projects exactly onto given pixels."""
    u, v, d = np.asarray(pixel_depths, dtype=np.float64).reshape(-1, 3).T
    return np.stack([(u - INTR.u0) * d / INTR.fx, (v - INTR.v0) * d / INTR.fy, d], axis=1)


def reply_for_pixels(pixel_depths):
    """The encoded phase-1 reply of given (u, v, depth)."""
    u, v, d = np.asarray(pixel_depths, dtype=np.float64).reshape(-1, 3).T
    pixels = v.astype(np.int64) * INTR.width + u.astype(np.int64)
    (reply,) = encode_replies(pixels, d, BINS, N_PIXELS)
    return reply


class TestBins:
    def test_hand_binning(self):
        k, valid = BINS.bin_of(np.array([10.0]))
        assert valid[0] and k[0] == 4  # floor((10 - 1) / 2)

    def test_below_range_clamps_to_first(self):
        k, valid = BINS.bin_of(np.array([0.2]))
        assert valid[0] and k[0] == 0

    def test_beyond_range_invalid(self):
        _, valid = BINS.bin_of(np.array([33.0, np.inf]))
        assert not valid.any()

    def test_centers(self):
        c = BINS.centers()
        assert len(c) == 16 and c[0] == 2.0 and c[-1] == 32.0


class TestProjectCloud:
    def test_min_rule(self):
        cloud = cloud_for_pixels([(5, 7, 3.0), (5, 7, 1.5), (5, 7, 7.2)])
        dmap = project_cloud_to_depthmap(cloud, INTR, BINS)
        k, _ = BINS.bin_of(np.array([1.5]))
        assert dmap.bin_idx[7, 5] == k[0]
        assert dmap.source[7, 5] == DepthSource.EGO_PROJECTED

    def test_empty_cloud_all_absent(self):
        dmap = project_cloud_to_depthmap(np.zeros((0, 3)), INTR, BINS)
        assert np.all(dmap.bin_idx == -1)
        assert np.all(dmap.source == DepthSource.ABSENT)

    def test_depth_beyond_bins_discarded(self):
        cloud = cloud_for_pixels([(3, 3, 40.0)])
        dmap = project_cloud_to_depthmap(cloud, INTR, BINS)
        assert dmap.bin_idx[3, 3] == -1

    def test_min_rule_spans_discarded_candidates(self):
        cloud = cloud_for_pixels([(3, 3, 40.0), (3, 3, 5.0)])
        dmap = project_cloud_to_depthmap(cloud, INTR, BINS)
        k, _ = BINS.bin_of(np.array([5.0]))
        assert dmap.bin_idx[3, 3] == k[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_minimum_depth_image(self, seed):
        """Points off the image, beyond d_max, tied and on bin edges."""
        rng = np.random.default_rng(seed)
        n = 2000
        pixels = np.stack([rng.integers(-3, 36, n), rng.integers(-3, 28, n),
                           rng.choice([0.5, 1.0, 3.0, 5.5, 32.99, 33.0, 40.0], n)], axis=1)
        cloud = cloud_for_pixels(pixels) * rng.choice([1.0, 1.0 + 1e-9], (n, 1))
        got = project_cloud_to_depthmap(cloud, INTR, BINS)
        want = project_cloud_to_depthmap_by_image(cloud, INTR, BINS)
        assert got.bin_idx.dtype == want.bin_idx.dtype and got.source.dtype == want.source.dtype
        assert np.array_equal(got.bin_idx, want.bin_idx)
        assert np.array_equal(got.source, want.source)


class TestNearestPerPixel:
    def test_nearest_wins_and_lowest_row_breaks_ties(self):
        cloud = cloud_for_pixels(
            [(5, 7, 3.0), (5, 7, 1.5), (2, 2, 4.0), (5, 7, 1.5), (9, 1, 40.0), (2, 2, 4.0)]
        )
        flat, dist, rows = nearest_per_pixel(cloud, INTR, BINS)
        assert flat.tolist() == [2 * INTR.width + 2, 7 * INTR.width + 5]
        assert dist.tolist() == [4.0, 1.5]
        assert rows.tolist() == [2, 1]  # (9, 1) lies beyond d_max

    def test_keeps_the_minimum_depth_image(self, rng):
        # Many points per pixel, exact depth ties, points off the image and
        # beyond d_max.
        n = 3000
        pixels = np.stack([rng.integers(-3, 36, n), rng.integers(-3, 28, n),
                           rng.choice([2.0, 5.5, 9.0, 31.0, 40.0], n)], axis=1)
        cloud = cloud_for_pixels(pixels) * rng.choice([1.0, 1.0 + 1e-9], (n, 1))
        flat, dist, rows = nearest_per_pixel(cloud, INTR, BINS)
        assert len(np.unique(flat)) == len(flat)

        pix, dist_all, rows_all = project_points(INTR, cloud)
        within = dist_all < BINS.d_max
        flat_all = (pix[:, 1] * INTR.width + pix[:, 0])[within]
        dist_all, rows_all = dist_all[within], rows_all[within]
        want = min_depth_image_by_minimum_at(cloud, INTR, BINS).reshape(-1)
        got = np.full(INTR.height * INTR.width, np.inf)
        got[flat] = dist
        assert np.array_equal(got, want)
        for f, row in zip(flat.tolist(), rows.tolist()):
            assert row == rows_all[(flat_all == f) & (dist_all == want[f])].min()

    def test_empty_cloud(self):
        flat, dist, rows = nearest_per_pixel(np.zeros((0, 3)), INTR, BINS)
        assert flat.shape == dist.shape == rows.shape == (0,)


def reply_past_last_bin(pixel):
    """A reply that sends `pixel` in a bin past the last one, where a
    sender that did not check the range would put a depth with no bin."""
    counts = np.zeros(BINS.n_bins + 1, dtype=np.int64)
    counts[-1] = 1
    return depth.DepthReply(counts, np.array([pixel], dtype=np.int64))


@pytest.mark.parametrize("stage", ["project_cloud_to_depthmap", "merge_cooperative", "encode_replies"])
def test_out_of_range_depth_raises(monkeypatch, stage):
    """A projected depth past the last bin, a shared one at or past it or
    not finite, or a reply bin past the last one, is an error, also under
    `python -O`."""
    if stage == "encode_replies":
        for d in (BINS.d_max, np.inf, np.nan):
            with pytest.raises(ValueError, match=stage):
                encode_replies(np.array([4, 7]), np.array([5.0, d]), BINS, N_PIXELS)
        return
    if stage == "merge_cooperative":
        empty = DepthMap.empty(BINS, INTR.height, INTR.width)
        with pytest.raises(ValueError, match=stage):
            merge_cooperative(empty, [reply_past_last_bin(3 * INTR.width + 4)], INTR, BINS)
        return

    def beyond_last_bin(cloud, intr, bins):
        return np.array([3 * intr.width + 4]), np.array([bins.d_max]), np.array([0])

    monkeypatch.setattr(depth, "nearest_per_pixel", beyond_last_bin)
    with pytest.raises(ValueError, match=stage):
        project_cloud_to_depthmap(cloud_for_pixels([(4, 3, 5.0)]), INTR, BINS)


@pytest.mark.parametrize("pixel, dist", [(-1, 5.0), (N_PIXELS, 5.0), (7, np.inf), (7, np.nan)])
def test_merge_rejects_replies_outside_image_or_bins(pixel, dist):
    """A reply pixel outside the image, or a depth with no bin (at or past
    d_max, or not finite) sent past the last bin, is an error, even where
    the ego map already holds the pixel."""
    ego = project_cloud_to_depthmap(cloud_for_pixels([(7, 0, 10.0)]), INTR, BINS)
    good = reply_for_pixels([(2, 2, 6.0)])
    in_bins = BINS.bin_of(np.array([dist]))[1][0]
    bad = reply_of([pixel], [dist], BINS) if in_bins else reply_past_last_bin(pixel)
    with pytest.raises(ValueError, match="merge_cooperative"):
        merge_cooperative(ego, [good, bad], INTR, BINS)


@pytest.mark.parametrize("counts", [
    pytest.param([0] * 15, id="fewer_bins"),
    pytest.param([1] + [0] * 16, id="more_bins"),
    pytest.param([2, -1] + [0] * 14, id="negative"),
    pytest.param([2] + [0] * 15, id="sum_above_pixels"),
    pytest.param([0] * 16, id="sum_below_pixels"),
])
def test_merge_rejects_malformed_counts(counts):
    """Bin counts that are not D non-negative entries summing to the
    reply's pixels are an error, even where the ego map already holds the
    pixels."""
    ego = project_cloud_to_depthmap(cloud_for_pixels([(7, 0, 10.0)]), INTR, BINS)
    good = reply_for_pixels([(2, 2, 6.0)])
    with pytest.raises(ValueError, match="merge_cooperative"):
        merge_cooperative(ego, [good, (counts, np.array([7]))], INTR, BINS)


class TestMerge:
    def test_ego_pixels_untouched(self):
        ego = project_cloud_to_depthmap(cloud_for_pixels([(5, 5, 10.0)]), INTR, BINS)
        neighbor = reply_for_pixels([(5, 5, 3.0)])
        merged = merge_cooperative(ego, [neighbor], INTR, BINS)
        k, _ = BINS.bin_of(np.array([10.0]))
        assert merged.bin_idx[5, 5] == k[0]
        assert merged.source[5, 5] == DepthSource.EGO_PROJECTED

    def test_no_neighbors_identity(self):
        ego = project_cloud_to_depthmap(cloud_for_pixels([(5, 5, 10.0)]), INTR, BINS)
        merged = merge_cooperative(ego, [], INTR, BINS)
        assert np.array_equal(merged.bin_idx, ego.bin_idx)
        assert np.array_equal(merged.source, ego.source)

    def test_neighbor_fills_absent(self):
        ego = DepthMap.empty(BINS, INTR.height, INTR.width)
        neighbor = reply_for_pixels([(2, 2, 6.0)])
        merged = merge_cooperative(ego, [neighbor], INTR, BINS)
        k, _ = BINS.bin_of(np.array([6.0]))
        assert merged.bin_idx[2, 2] == k[0]
        assert merged.source[2, 2] == DepthSource.NEIGHBOR_PROJECTED

    def test_neighbor_conflicts_use_min(self):
        ego = DepthMap.empty(BINS, INTR.height, INTR.width)
        n1 = reply_for_pixels([(2, 2, 9.0)])
        n2 = reply_for_pixels([(2, 2, 5.0)])
        merged = merge_cooperative(ego, [n1, n2], INTR, BINS)
        k, _ = BINS.bin_of(np.array([5.0]))
        assert merged.bin_idx[2, 2] == k[0]

    def test_monotone_coverage(self, rng):
        ego_cloud = cloud_for_pixels(
            [(int(u), int(v), float(d)) for u, v, d in zip(
                rng.integers(0, 32, 60), rng.integers(0, 24, 60), rng.uniform(2, 30, 60)
            )]
        )
        ego = project_cloud_to_depthmap(ego_cloud, INTR, BINS)
        nbr_reply = reply_for_pixels(
            [(int(u), int(v), float(d)) for u, v, d in zip(
                rng.integers(0, 32, 60), rng.integers(0, 24, 60), rng.uniform(2, 30, 60)
            )]
        )
        merged = merge_cooperative(ego, [nbr_reply], INTR, BINS)
        n_ego = np.count_nonzero(ego.projected_mask())
        assert np.count_nonzero(merged.projected_mask()) >= n_ego
        ego_mask = ego.source == DepthSource.EGO_PROJECTED
        assert np.array_equal(merged.bin_idx[ego_mask], ego.bin_idx[ego_mask])

    def test_disjoint_coverage_adds_up(self):
        ego_pixels = [(u, v, 5.0) for u in range(0, 16) for v in range(0, 8)]
        nbr_pixels = [(u, v, 7.0) for u in range(16, 32) for v in range(8, 16)]
        ego = project_cloud_to_depthmap(cloud_for_pixels(ego_pixels), INTR, BINS)
        merged = merge_cooperative(ego, [reply_for_pixels(nbr_pixels)], INTR, BINS)
        assert np.count_nonzero(ego.projected_mask()) == len(ego_pixels)
        assert np.count_nonzero(merged.projected_mask()) == len(ego_pixels) + len(nbr_pixels)


@given(seed=st.integers(0, 2**32 - 1), n_replies=st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_encoded_merge_matches_pairs_merge(seed, n_replies):
    """Replies binned and encoded in one pass, then merged, give the depth
    map of the (pixel, depth) merge bit for bit, with pixels that several
    neighbors send, depths below d_min (bin 0), on bin edges and just below
    d_max, and pixels the ego map already holds.  Each reply equals the
    reply encoded on its own, and is charged D + P, or 0 without pixels."""
    rng = np.random.default_rng(seed)
    shared_area = N_PIXELS // 4  # replies overlap each other and the ego's pixels
    ego_pixels = rng.integers(0, shared_area, rng.integers(0, 150))
    ego = project_cloud_to_depthmap(cloud_for_pixels(np.stack(
        [ego_pixels % INTR.width, ego_pixels // INTR.width, rng.uniform(1.5, 31.0, ego_pixels.size)],
        axis=1)), INTR, BINS)
    special = np.concatenate([
        BINS.d_min + np.arange(BINS.n_bins) * BINS.width,  # bin edges
        [0.0, 0.5, np.nextafter(BINS.d_min, 0.0), np.nextafter(BINS.d_max, 0.0)],
    ])
    pairs = []
    for _ in range(n_replies):
        pixels = np.unique(rng.integers(0, shared_area, rng.integers(0, 120)))
        depths = np.where(rng.random(pixels.size) < 0.3, rng.choice(special, pixels.size),
                          rng.uniform(0.0, BINS.d_max, pixels.size))
        pairs.append((pixels, depths))
    keys = [view * N_PIXELS + pixels for view, (pixels, _) in enumerate(pairs)]
    replies = encode_replies(np.concatenate(keys + [np.zeros(0, dtype=np.int64)]),
                             np.concatenate([d for _, d in pairs] + [np.zeros(0)]),
                             BINS, N_PIXELS, views=n_replies)
    assert len(replies) == n_replies
    for reply, (pixels, depths) in zip(replies, pairs):
        alone = reply_of(pixels, depths, BINS)
        assert np.array_equal(reply.counts, alone.counts)
        assert np.array_equal(reply.pixels, alone.pixels)
        assert reply.elements == (BINS.n_bins + pixels.size if pixels.size else 0)
    got = merge_cooperative(ego, replies, INTR, BINS)
    want = merge_cooperative_pairs(ego, pairs, INTR, BINS)
    assert got.bin_idx.dtype == want.bin_idx.dtype and got.source.dtype == want.source.dtype
    assert np.array_equal(got.bin_idx, want.bin_idx)
    assert np.array_equal(got.source, want.source)


class TestPredict:
    @pytest.mark.parametrize("sigma, radius", [(np.nan, 0), (-1.0, 0), (1.0, -1)])
    def test_bad_noise_is_rejected(self, sigma, radius):
        """A NaN sigma fails at construction, not in `predict_depth`."""
        with pytest.raises(ValueError, match="non-negative"):
            NoisyOraclePredictor(sigma, radius)

    def test_uniform(self):
        depth = np.full((4, 4), np.inf)
        dist = predict_depth(depth, UniformPredictor(), DepthBins(1, 9, 4))
        assert np.allclose(dist, 0.25)

    def test_degenerate_oracle_is_exact(self):
        bins = DepthBins(1.0, 9.0, 4)
        depth = np.array([[2.0, 4.5], [7.0, 8.5]])
        dist = predict_depth(depth, NoisyOraclePredictor(0.0, 0), bins)
        k, _ = bins.bin_of(depth)
        for i in range(2):
            for j in range(2):
                expected = np.zeros(4)
                expected[k[i, j]] = 1.0
                assert np.array_equal(dist[i, j], expected)

    def test_out_of_range_peaks_at_last_bin(self):
        bins = DepthBins(1.0, 9.0, 4)
        depth = np.full((2, 2), np.inf)
        dist = predict_depth(depth, NoisyOraclePredictor(0.0, 0), bins)
        assert np.allclose(dist[..., -1], 1.0)

    def test_sigma_keeps_true_bin_dominant(self):
        bins = DepthBins(1.0, 33.0, 16)
        depth = np.full((3, 3), 14.0)
        dist = predict_depth(depth, NoisyOraclePredictor(1.0, 0), bins)
        k, _ = bins.bin_of(np.array([14.0]))
        assert np.all(np.argmax(dist, axis=2) == k[0])
        top = dist[..., k[0]]
        others = np.delete(dist, k[0], axis=2)
        assert np.all(top[..., None] > others)

    def test_rows_normalised(self, rng):
        depth = rng.uniform(1, 40, (6, 6))
        dist = predict_depth(depth, NoisyOraclePredictor(1.5, 2), BINS)
        assert np.allclose(dist.sum(axis=2), 1.0, atol=1e-6)
        assert np.all(dist >= 0)


@st.composite
def depth_cases(draw):
    """A depth image (some pixels inf, below d_min or past d_max), its bins
    and a predictor; images may be smaller than the blur window."""
    n_bins = draw(st.integers(2, 32))
    bins = DepthBins(1.0, 1.0 + n_bins * draw(st.floats(0.25, 2.0)), n_bins)
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    values = st.one_of(
        st.floats(0.0, bins.d_max * 1.5),
        st.sampled_from([np.inf, bins.d_min, bins.d_max, 0.5 * bins.d_min]),
    )
    img = np.array(draw(st.lists(values, min_size=h * w, max_size=h * w))).reshape(h, w)
    if draw(st.booleans()):  # one surface: rows concentrate on a few bins
        img[:] = img.flat[0]
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    return img, NoisyOraclePredictor(sigma, draw(st.integers(0, 3))), bins


class TestPredictOracle:
    @given(depth_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_blur_then_convolve(self, case):
        img, predictor, bins = case
        dist = predict_depth(img, predictor, bins)
        expected = oracle_noisy_predict(img, predictor, bins)
        assert dist.shape == expected.shape
        assert np.max(np.abs(dist - expected)) <= 1e-15

    def test_image_smaller_than_window(self):
        img = np.array([[2.0, 30.0]])
        dist = predict_depth(img, NoisyOraclePredictor(0.0, 3), BINS)
        k, _ = BINS.bin_of(img)
        assert np.array_equal(dist[0, 0], dist[0, 1])
        assert dist[0, 0, k[0, 0]] == dist[0, 0, k[0, 1]] == 0.5


class TestFinalize:
    def test_all_projected_is_one_hot(self):
        pixels = [(u, v, 5.0) for u in range(32) for v in range(24)]
        dmap = project_cloud_to_depthmap(cloud_for_pixels(pixels), INTR, BINS)
        pred = np.full((24, 32, 16), 1.0 / 16)
        dist = finalize_distribution(dmap, pred)
        assert np.allclose(dist.max(axis=2), 1.0)
        assert np.allclose(dist.sum(axis=2), 1.0)

    def test_no_projection_returns_prediction(self, rng):
        dmap = DepthMap.empty(BINS, 24, 32)
        pred = rng.uniform(0.1, 1.0, (24, 32, 16))
        pred /= pred.sum(axis=2, keepdims=True)
        dist = finalize_distribution(dmap, pred)
        assert np.allclose(dist, pred)

    def test_mixed_entropy_by_source(self):
        dmap = project_cloud_to_depthmap(cloud_for_pixels([(4, 4, 9.0)]), INTR, BINS)
        pred = np.full((24, 32, 16), 1.0 / 16)
        dist = finalize_distribution(dmap, pred)
        safe = np.where(dist > 0, dist, 1.0)
        ent = -np.sum(safe * np.log(safe), axis=2)
        assert ent[4, 4] == 0.0
        assert abs(ent[0, 0] - np.log(16)) < 1e-9

    def test_does_not_mutate_prediction(self):
        dmap = project_cloud_to_depthmap(cloud_for_pixels([(4, 4, 9.0)]), INTR, BINS)
        pred = np.full((24, 32, 16), 1.0 / 16)
        before = pred.copy()
        finalize_distribution(dmap, pred)
        assert np.array_equal(pred, before)


def test_min_rule_invariant_fuzz(rng):
    """Every projected pixel ends at or below all of its candidates."""
    candidates = {}
    rows = []
    for _ in range(300):
        u = int(rng.integers(0, 32))
        v = int(rng.integers(0, 24))
        d = float(rng.uniform(1.5, 31.0))
        rows.append((u, v, d))
        candidates.setdefault((u, v), []).append(d)
    dmap = project_cloud_to_depthmap(cloud_for_pixels(rows), INTR, BINS)
    for (u, v), ds in candidates.items():
        k, _ = BINS.bin_of(np.array([min(ds)]))
        assert dmap.bin_idx[v, u] == k[0]
