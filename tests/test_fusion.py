import numpy as np

from covox import fusion
from covox.fusion import (
    compute_guidance,
    fuse_hybrid_cells,
    fuse_modalities,
    fuse_modalities_equal,
    make_equal_params,
    guidance_raw_scores,
    make_fusion_params,
    mask_from_scores,
)
from covox.voxel import Category, GridSpec, VoxelGrid, categorize

from oracles import dense, dense_categorized, dense_zeros, equivalent, mha, sparse

C = 8
SPEC = GridSpec((-4.0, 4.0), (-4.0, 4.0), (0.0, 2.0), 8, 8, 2, C)
PARAMS = make_fusion_params(C, seed=42)


class TestHybridCell:
    def test_zero_camera_passes_lidar_only(self, rng):
        v_l = rng.standard_normal(C)
        out = fuse_hybrid_cells(PARAMS, v_l, np.zeros(C))[0]
        expected = PARAMS.lin2.apply(np.concatenate([np.zeros(C), v_l]))
        assert np.allclose(out, expected, atol=1e-12)

    def test_zero_both_zero_biases_is_zero(self):
        out = fuse_hybrid_cells(PARAMS, np.zeros(C), np.zeros(C))[0]
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_linear_in_camera_branch(self, rng):
        v_l = rng.standard_normal(C)
        v_c = rng.standard_normal(C)
        base = fuse_hybrid_cells(PARAMS, v_l, np.zeros(C))[0]
        single = fuse_hybrid_cells(PARAMS, v_l, v_c)[0] - base
        double = fuse_hybrid_cells(PARAMS, v_l, 2.0 * v_c)[0] - base
        assert np.allclose(double, 2.0 * single, atol=1e-9)

    def test_batch_matches_single(self, rng):
        v_l = rng.standard_normal((5, C))
        v_c = rng.standard_normal((5, C))
        batch = fuse_hybrid_cells(PARAMS, v_l, v_c)
        for k in range(5):
            assert np.allclose(batch[k], fuse_hybrid_cells(PARAMS, v_l[k], v_c[k])[0])


class TestGuidance:
    def test_threshold_on_given_scores(self):
        mask = mask_from_scores(np.array([1.0, 0.6, 0.4]), 0.5)
        assert mask.tolist() == [1, 1, 0]

    def test_single_query_single_key(self, rng):
        mask = compute_guidance(
            PARAMS, rng.standard_normal((1, C)), rng.standard_normal((1, C))
        )
        assert mask.tolist() == [1]

    def test_no_lidar_all_ones(self, rng):
        mask = compute_guidance(PARAMS, np.zeros((0, C)), rng.standard_normal((7, C)))
        assert mask.tolist() == [1] * 7

    def test_threshold_monotonicity(self, rng, monkeypatch):
        lidar = rng.standard_normal((20, C))
        camera = rng.standard_normal((30, C))
        masks = []
        for thr in (0.2, 0.5, 0.8):
            monkeypatch.setattr(fusion, "_GUIDANCE_THRESHOLD", thr)
            masks.append(compute_guidance(PARAMS, lidar, camera))
        assert np.all(masks[1] <= masks[0])
        assert np.all(masks[2] <= masks[1])

    def test_subsampling_cap_is_deterministic(self, rng, monkeypatch):
        monkeypatch.setattr(fusion, "_MAX_TOKENS", 16)
        lidar = rng.standard_normal((100, C))
        camera = rng.standard_normal((10, C))
        a = compute_guidance(PARAMS, lidar, camera)
        b = compute_guidance(PARAMS, lidar, camera)
        assert np.array_equal(a, b)

    def test_raw_scores_match_full_attention(self):
        """Blocked guidance gives whole-matrix attention's scores, within
        the tolerance, on every GUIDANCE_SHAPES case."""
        assert guidance_mismatches() == []


# (queries, keys) of the guidance cases: below, at and around one and two
# query blocks and 64 rows, fleet8's largest call (325 x 444) and more
# queries than `_MAX_TOKENS`, which samples them.  Each shape runs under ten
# parameter seeds.
GUIDANCE_SHAPES = [(1, 1), (5, 9), (40, 3)] + [
    (n_lidar, n_camera)
    for n_lidar in (47, 48, 49, 63, 64, 65, 95, 96, 97, 128, 129, 325, 600)
    for n_camera in (1, 250, 444)
]
GUIDANCE_SEEDS = range(10)


def guidance_mismatches():
    """The (params seed, queries, keys) cases of GUIDANCE_SHAPES whose raw
    guidance scores are not `equivalent` to `oracles.mha`'s head-mean
    weights over the queries guidance reads, maxed over those queries."""
    rng = np.random.default_rng(1234)
    bad = []
    for seed in GUIDANCE_SEEDS:
        params = make_fusion_params(C, seed)
        for n_lidar, n_camera in GUIDANCE_SHAPES:
            lidar = rng.standard_normal((n_lidar, C))
            camera = rng.standard_normal((n_camera, C))
            queries = lidar
            if n_lidar > fusion._MAX_TOKENS:
                pick = np.random.default_rng((params.sample_seed, n_lidar)).choice(
                    n_lidar, size=fusion._MAX_TOKENS, replace=False)
                queries = lidar[np.sort(pick)]
            _, attn = mha(params.guidance_mha, queries, camera, camera)
            if not equivalent(guidance_raw_scores(params, lidar, camera), attn.max(axis=0)):
                bad.append((seed, n_lidar, n_camera))
    return bad


def _tagged_grids(rng):
    pick = rng.uniform(size=(8, 8, 2))
    grids = []
    for tag, on in ((Category.LIDAR, pick < 0.4), (Category.CAMERA, (pick > 0.25) & (pick < 0.7))):
        feats, category = dense_zeros(SPEC)
        category[on] = tag
        feats[on] = rng.standard_normal((int(on.sum()), C))
        grids.append(sparse(SPEC, feats, category))
    return grids


class TestFuseModalities:
    def test_camera_missing_is_bitexact_identity(self, rng):
        lidar, _ = _tagged_grids(rng)
        cat = categorize(lidar, VoxelGrid.empty(SPEC))
        out = fuse_modalities(PARAMS, cat)
        assert np.array_equal(out.voxels, lidar.voxels)
        assert np.array_equal(out.features, lidar.features)
        assert np.all(out.category == Category.LIDAR)

    def test_lidar_missing_identity_via_fallback(self, rng):
        _, camera = _tagged_grids(rng)
        cat = categorize(VoxelGrid.empty(SPEC), camera)
        out = fuse_modalities(PARAMS, cat)
        assert np.array_equal(out.voxels, camera.voxels)
        assert np.array_equal(out.features, camera.features)

    def test_all_hybrid_grid_matches_per_cell(self, rng):
        small = GridSpec((-2.0, 2.0), (-2.0, 2.0), (0.0, 1.0), 2, 2, 1, C)
        grids = []
        for tag in (Category.LIDAR, Category.CAMERA):
            feats, category = dense_zeros(small)
            category[...] = tag
            feats[...] = rng.standard_normal(feats.shape)
            grids.append((feats, sparse(small, feats, category)))
        (lidar, lidar_grid), (camera, camera_grid) = grids
        feats, category = dense(fuse_modalities(PARAMS, categorize(lidar_grid, camera_grid)))
        for i in range(2):
            for j in range(2):
                expected = fuse_hybrid_cells(PARAMS, lidar[i, j, 0], camera[i, j, 0])[0]
                assert np.allclose(feats[i, j, 0], expected)
                assert category[i, j, 0] == Category.HYBRID

    def test_identity_paths_bit_exact(self, rng):
        lidar, camera = _tagged_grids(rng)
        cat = categorize(lidar, camera)
        lidar_feats, _, category = dense_categorized(cat)
        out, _ = dense(fuse_modalities(PARAMS, cat))
        lidar_mask = category == Category.LIDAR
        assert np.array_equal(out[lidar_mask], lidar_feats[lidar_mask])
        normal_mask = category == Category.NORMAL
        assert np.all(out[normal_mask] == 0.0)

    def test_dropped_camera_cells_zeroed_and_retagged(self, rng):
        lidar, camera = _tagged_grids(rng)
        cat = categorize(lidar, camera)
        _, camera_feats, category = dense_categorized(cat)
        fused = fuse_modalities(PARAMS, cat)
        out, out_category = dense(fused)
        was_camera = category == Category.CAMERA
        now_normal = was_camera & (out_category == Category.NORMAL)
        assert np.any(now_normal)
        assert np.all(out[now_normal] == 0.0)
        kept = was_camera & (out_category == Category.CAMERA)
        assert np.array_equal(out[kept], camera_feats[kept])
        # Dropped voxels leave the list; every listed voxel keeps its tag.
        assert np.array_equal(fused.voxels, np.flatnonzero(out_category))
        assert np.all(fused.category != Category.NORMAL)
        assert np.array_equal(out_category[~now_normal], category[~now_normal])

    def test_equal_fusion_is_symmetric_identity_elsewhere(self, rng):
        lidar, camera = _tagged_grids(rng)
        cat = categorize(lidar, camera)
        lidar_feats, camera_feats, category = dense_categorized(cat)
        lin = make_equal_params(C, seed=42)
        fused = fuse_modalities_equal(lin, cat)
        out, out_category = dense(fused)
        assert np.array_equal(out_category, category)
        lidar_mask = category == Category.LIDAR
        camera_mask = category == Category.CAMERA
        assert np.array_equal(out[lidar_mask], lidar_feats[lidar_mask])
        assert np.array_equal(out[camera_mask], camera_feats[camera_mask])
        hybrid_mask = category == Category.HYBRID
        assert np.any(hybrid_mask)
        pair = np.concatenate([lidar_feats[hybrid_mask], camera_feats[hybrid_mask]], axis=1)
        assert np.allclose(out[hybrid_mask], lin.apply(pair))
