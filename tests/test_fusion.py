from dataclasses import replace

import numpy as np

from covox import nnkit
from covox.fusion import (
    FusionParams,
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

from conftest import biased, mha

C = 8
SPEC = GridSpec((-4.0, 4.0), (-4.0, 4.0), (0.0, 2.0), 8, 8, 2, C)
PARAMS = make_fusion_params(C, seed=42)


def biased_params() -> FusionParams:
    """Params with nonzero biases, to exercise the bias terms explicitly."""
    return FusionParams(
        lin1=biased(nnkit.init_linear(C, C, (1, 0)), (1, 3)),
        lin2=biased(nnkit.init_linear(2 * C, C, (1, 1)), (1, 4)),
        guidance_mha=nnkit.init_mha(C, 2, (1, 2)),
    )


class TestHybridCell:
    def test_zero_camera_passes_lidar_only(self, rng):
        v_l = rng.standard_normal(C)
        out = fuse_hybrid_cells(PARAMS, v_l, np.zeros(C))[0]
        expected = PARAMS.lin2.apply(np.concatenate([np.zeros(C), v_l]))
        assert np.allclose(out, expected, atol=1e-12)

    def test_zero_lidar_with_biases_gives_output_bias(self, rng):
        params = biased_params()
        v_c = rng.standard_normal(C)
        gate = nnkit.relu(params.lin1.apply(np.zeros(C)))  # = relu(bias1)
        expected = params.lin2.apply(np.concatenate([gate * v_c, np.zeros(C)]))
        assert np.allclose(fuse_hybrid_cells(params, np.zeros(C), v_c)[0], expected)

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

    def test_threshold_monotonicity(self, rng):
        lidar = rng.standard_normal((20, C))
        camera = rng.standard_normal((30, C))
        masks = []
        for thr in (0.2, 0.5, 0.8):
            p = replace(PARAMS, guidance_threshold=thr)
            masks.append(compute_guidance(p, lidar, camera))
        assert np.all(masks[1] <= masks[0])
        assert np.all(masks[2] <= masks[1])

    def test_subsampling_cap_is_deterministic(self, rng):
        p = replace(PARAMS, max_tokens=16)
        lidar = rng.standard_normal((100, C))
        camera = rng.standard_normal((10, C))
        a = compute_guidance(p, lidar, camera)
        b = compute_guidance(p, lidar, camera)
        assert np.array_equal(a, b)

    def test_raw_scores_match_full_attention(self, rng):
        for params in (PARAMS, biased_params()):
            for n_lidar, n_camera in ((1, 1), (5, 9), (40, 3)):
                lidar = rng.standard_normal((n_lidar, C))
                camera = rng.standard_normal((n_camera, C))
                _, attn = mha(params.guidance_mha, lidar, camera, camera)
                scores = guidance_raw_scores(params, lidar, camera)
                assert np.array_equal(scores, attn.max(axis=0))


def _tagged_grids(rng):
    lidar = VoxelGrid.empty(SPEC)
    camera = VoxelGrid.empty(SPEC)
    pick = rng.uniform(size=(8, 8, 2))
    lidar.category[pick < 0.4] = Category.LIDAR
    camera.category[(pick > 0.25) & (pick < 0.7)] = Category.CAMERA
    lidar.features[lidar.category == Category.LIDAR] = rng.standard_normal(
        (int((lidar.category == Category.LIDAR).sum()), C)
    )
    camera.features[camera.category == Category.CAMERA] = rng.standard_normal(
        (int((camera.category == Category.CAMERA).sum()), C)
    )
    return lidar, camera


class TestFuseModalities:
    def test_camera_missing_is_bitexact_identity(self, rng):
        lidar, _ = _tagged_grids(rng)
        cat = categorize(lidar, VoxelGrid.empty(SPEC))
        out = fuse_modalities(PARAMS, cat)
        assert np.array_equal(out.features, lidar.features)
        assert set(np.unique(out.category)) <= {int(Category.NORMAL), int(Category.LIDAR)}

    def test_lidar_missing_identity_via_fallback(self, rng):
        _, camera = _tagged_grids(rng)
        cat = categorize(VoxelGrid.empty(SPEC), camera)
        out = fuse_modalities(PARAMS, cat)
        assert np.array_equal(out.features, camera.features)

    def test_all_hybrid_grid_matches_per_cell(self, rng):
        small = GridSpec((-2.0, 2.0), (-2.0, 2.0), (0.0, 1.0), 2, 2, 1, C)
        lidar, camera = VoxelGrid.empty(small), VoxelGrid.empty(small)
        lidar.category[...] = Category.LIDAR
        camera.category[...] = Category.CAMERA
        lidar.features[...] = rng.standard_normal(lidar.features.shape)
        camera.features[...] = rng.standard_normal(camera.features.shape)
        out = fuse_modalities(PARAMS, categorize(lidar, camera))
        for i in range(2):
            for j in range(2):
                expected = fuse_hybrid_cells(
                    PARAMS, lidar.features[i, j, 0], camera.features[i, j, 0]
                )[0]
                assert np.allclose(out.features[i, j, 0], expected)
                assert out.category[i, j, 0] == Category.HYBRID

    def test_identity_paths_bit_exact(self, rng):
        lidar, camera = _tagged_grids(rng)
        cat = categorize(lidar, camera)
        out = fuse_modalities(PARAMS, cat)
        lidar_mask = cat.category == Category.LIDAR
        assert np.array_equal(out.features[lidar_mask], lidar.features[lidar_mask])
        normal_mask = cat.category == Category.NORMAL
        assert np.all(out.features[normal_mask] == 0.0)

    def test_dropped_camera_cells_zeroed_and_retagged(self, rng):
        lidar, camera = _tagged_grids(rng)
        cat = categorize(lidar, camera)
        out = fuse_modalities(PARAMS, cat)
        was_camera = cat.category == Category.CAMERA
        now_normal = was_camera & (out.category == Category.NORMAL)
        assert np.all(out.features[now_normal] == 0.0)
        kept = was_camera & (out.category == Category.CAMERA)
        assert np.array_equal(out.features[kept], cat.camera[kept])
        # Partition invariant: every cell still carries exactly one tag.
        assert out.category.shape == cat.category.shape
        assert set(np.unique(out.category)) <= {int(c) for c in Category}

    def test_equal_fusion_is_symmetric_identity_elsewhere(self, rng):
        lidar, camera = _tagged_grids(rng)
        cat = categorize(lidar, camera)
        lin = make_equal_params(C, seed=42)
        out = fuse_modalities_equal(lin, cat)
        lidar_mask = cat.category == Category.LIDAR
        camera_mask = cat.category == Category.CAMERA
        assert np.array_equal(out.features[lidar_mask], cat.lidar[lidar_mask])
        assert np.array_equal(out.features[camera_mask], cat.camera[camera_mask])
        hybrid_mask = cat.category == Category.HYBRID
        if np.any(hybrid_mask):
            pair = np.concatenate(
                [cat.lidar[hybrid_mask], cat.camera[hybrid_mask]], axis=1
            )
            assert np.allclose(out.features[hybrid_mask], lin.apply(pair))
