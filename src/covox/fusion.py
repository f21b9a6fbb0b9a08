"""Biased multi-modal voxel fusion.

Point-cloud features lead: hybrid voxels are fused through a gate computed
from the LiDAR vector, camera-only voxels survive only where global
attention against the LiDAR content scores them highly, and LiDAR-only
voxels pass through identically.  When an entire modality is missing
the surviving branch passes through untouched, so a degraded agent runs
the same code path as a single-modality one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnkit
from .voxel import Category, CategorizedGrid, VoxelGrid

_GUIDANCE_HEADS = 2
# A camera-only voxel is kept where its guidance score, over the peak score,
# exceeds this.
_GUIDANCE_THRESHOLD = 0.5
# At most this many LiDAR voxels, drawn at random, query the camera voxels.
_MAX_TOKENS = 512
# Guidance attention runs the queries this many rows at a time, which bounds
# its (H, rows, Nk) temporaries.
_QUERY_BLOCK = 48


@dataclass(frozen=True)
class FusionParams:
    lin1: nnkit.LinearMap  # C -> C, gate transform
    lin2: nnkit.LinearMap  # 2C -> C, output transform
    guidance_mha: nnkit.MhaParams
    sample_seed: int = 0

    def __post_init__(self):
        if self.lin2.n_in != 2 * self.lin1.n_in:
            raise ValueError("output transform must accept the concat pair")


def make_fusion_params(channels: int, seed: int) -> FusionParams:
    return FusionParams(
        lin1=nnkit.init_linear(channels, channels, (seed, 10)),
        lin2=nnkit.init_linear(2 * channels, channels, (seed, 11)),
        guidance_mha=nnkit.init_mha(channels, _GUIDANCE_HEADS, (seed, 12)),
        sample_seed=seed,
    )


def fuse_hybrid_cells(
    params: FusionParams, v_lidar: np.ndarray, v_camera: np.ndarray
) -> np.ndarray:
    """Gated fusion for cells seen by both sensors (batched over rows).

    out = lin2([relu(lin1(v_lidar)) * v_camera, v_lidar])
    """
    v_lidar = np.atleast_2d(np.asarray(v_lidar, dtype=np.float64))
    v_camera = np.atleast_2d(np.asarray(v_camera, dtype=np.float64))
    gate = nnkit.relu(params.lin1.apply(v_lidar))
    return params.lin2.apply(np.concatenate([gate * v_camera, v_lidar], axis=1))


def mask_from_scores(raw_scores: np.ndarray, threshold: float) -> np.ndarray:
    """Binary mask from raw attention scores.

    Raw attention weights scale with the key count, so they are normalised
    by the maximum raw score (giving values in (0, 1]) before the strict
    threshold comparison.
    """
    raw = np.asarray(raw_scores, dtype=np.float64)
    peak = raw.max(initial=0.0)
    if peak <= 0.0:
        return np.ones(raw.shape, dtype=np.uint8)
    return (raw / peak > threshold).astype(np.uint8)


def guidance_raw_scores(
    params: FusionParams, lidar_cells: np.ndarray, camera_cells: np.ndarray
) -> np.ndarray:
    """Per-camera-cell relevance: max over LiDAR queries of head-mean attention.

    Queries and keys are projected once.  The scores, softmax weights and
    head mean then run on blocks of `_QUERY_BLOCK` query rows, each folded
    into one running max per key, so no (H, Nq, Nk) array is built.
    """
    queries = np.atleast_2d(np.asarray(lidar_cells, dtype=np.float64))
    keys = np.atleast_2d(np.asarray(camera_cells, dtype=np.float64))
    if keys.shape[0] == 0:
        raise nnkit.EmptyKeySet("guidance requires at least one camera cell")
    if queries.shape[0] > _MAX_TOKENS:
        rng = np.random.default_rng((params.sample_seed, queries.shape[0]))
        pick = np.sort(rng.choice(queries.shape[0], size=_MAX_TOKENS, replace=False))
        queries = queries[pick]
    mha = params.guidance_mha
    q = nnkit.split_heads(mha.wq.apply(queries), mha.n_heads)  # (H, Nq, dh)
    k_t = np.swapaxes(nnkit.split_heads(mha.wk.apply(keys), mha.n_heads), -1, -2)
    best = np.full(keys.shape[0], -np.inf)
    for lo in range(0, queries.shape[0], _QUERY_BLOCK):
        scores = q[:, lo : lo + _QUERY_BLOCK] @ k_t / np.sqrt(mha.head_dim)
        weights = nnkit.softmax(scores, axis=-1).mean(axis=0)  # (block, Nk)
        np.maximum(best, weights.max(axis=0), out=best)
    return best


def compute_guidance(
    params: FusionParams, lidar_cells: np.ndarray, camera_cells: np.ndarray
) -> np.ndarray:
    """Keep/drop flags for camera-only cells.

    Without any LiDAR cells there is nothing to guide by, so every camera
    cell is kept.
    """
    camera_cells = np.atleast_2d(camera_cells)
    if camera_cells.shape[0] == 0:
        return np.zeros(0, dtype=np.uint8)
    lidar_cells = np.atleast_2d(lidar_cells)
    if lidar_cells.shape[0] == 0:
        return np.ones(camera_cells.shape[0], dtype=np.uint8)
    raw = guidance_raw_scores(params, lidar_cells, camera_cells)
    return mask_from_scores(raw, _GUIDANCE_THRESHOLD)


def _rows(cat: CategorizedGrid, tag: Category) -> np.ndarray:
    """Rows of the voxels of `cat` with the given tag, ascending."""
    return np.flatnonzero(cat.category == tag)


def fuse_modalities(params: FusionParams, cat: CategorizedGrid) -> VoxelGrid:
    """Apply the full biased per-voxel fusion routine to a categorized grid.

    Hybrid voxels are gate-fused; camera voxels are kept verbatim where the
    guidance mask allows and otherwise leave the list (untagged and zero);
    LiDAR voxels map through identically.  The guidance pool is every voxel
    the LiDAR branch tagged, ascending.
    """
    feats = cat.lidar.copy()  # camera rows are zero here until set below
    camera_rows, hybrid_rows = _rows(cat, Category.CAMERA), _rows(cat, Category.HYBRID)
    if hybrid_rows.size:
        feats[hybrid_rows] = fuse_hybrid_cells(
            params, cat.lidar[hybrid_rows], cat.camera[hybrid_rows]
        )
    listed = np.ones(cat.voxels.size, dtype=bool)
    if camera_rows.size:
        guidance_pool = cat.lidar[cat.category != Category.CAMERA]
        keep = compute_guidance(params, guidance_pool, cat.camera[camera_rows])
        kept = camera_rows[keep == 1]
        feats[kept] = cat.camera[kept]
        listed[camera_rows[keep == 0]] = False
    return VoxelGrid(cat.spec, cat.voxels[listed], feats[listed], cat.category[listed])


def make_equal_params(channels: int, seed: int) -> nnkit.LinearMap:
    """Symmetric fusion transform for the ablation baseline: 2C -> C."""
    return nnkit.init_linear(2 * channels, channels, (seed, 13))


def fuse_modalities_equal(lin: nnkit.LinearMap, cat: CategorizedGrid) -> VoxelGrid:
    """Ablation: hybrid voxels fuse symmetrically, nothing is filtered."""
    feats = cat.lidar.copy()  # camera rows are zero here until set below
    camera_rows, hybrid_rows = _rows(cat, Category.CAMERA), _rows(cat, Category.HYBRID)
    feats[camera_rows] = cat.camera[camera_rows]
    if hybrid_rows.size:
        pair = np.concatenate([cat.lidar[hybrid_rows], cat.camera[hybrid_rows]], axis=1)
        feats[hybrid_rows] = lin.apply(pair)
    return VoxelGrid(cat.spec, cat.voxels, feats, cat.category)
