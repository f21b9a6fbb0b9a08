"""Biased multi-modal voxel fusion.

Point-cloud features lead: hybrid cells are fused through a gate computed
from the LiDAR vector, camera-only cells survive only where global
attention against the LiDAR content scores them highly, and LiDAR-only /
empty cells pass through identically.  When an entire modality is missing
the surviving branch passes through untouched, so a degraded agent runs
the same code path as a single-modality one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnkit
from .voxel import Category, CategorizedGrid, VoxelGrid

_GUIDANCE_HEADS = 2


@dataclass(frozen=True)
class FusionParams:
    lin1: nnkit.LinearMap  # C -> C, gate transform
    lin2: nnkit.LinearMap  # 2C -> C, output transform
    guidance_mha: nnkit.MhaParams
    guidance_threshold: float = 0.5
    max_tokens: int = 512
    sample_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.guidance_threshold <= 1.0:
            raise ValueError("guidance threshold must lie in [0, 1]")
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
    """Per-camera-cell relevance: max over LiDAR queries of head-mean attention."""
    lidar_cells = np.atleast_2d(lidar_cells)
    camera_cells = np.atleast_2d(camera_cells)
    queries = lidar_cells
    if queries.shape[0] > params.max_tokens:
        rng = np.random.default_rng((params.sample_seed, queries.shape[0]))
        pick = np.sort(
            rng.choice(queries.shape[0], size=params.max_tokens, replace=False)
        )
        queries = queries[pick]
    weights = nnkit.attention_weights(params.guidance_mha, queries, camera_cells)
    return weights.mean(axis=0).max(axis=0)


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
    return mask_from_scores(raw, params.guidance_threshold)


def fuse_modalities(params: FusionParams, cat: CategorizedGrid) -> VoxelGrid:
    """Apply the full biased per-cell fusion routine to a categorized grid.

    Hybrid cells are gate-fused; camera cells are kept verbatim where the
    guidance mask allows and otherwise zeroed and retagged NORMAL; LiDAR and
    NORMAL cells map through identically.
    """
    out = VoxelGrid.empty(cat.spec)
    out.category[...] = cat.category

    lidar_mask = cat.category == Category.LIDAR
    out.features[lidar_mask] = cat.lidar[lidar_mask]

    hybrid_mask = cat.category == Category.HYBRID
    if np.any(hybrid_mask):
        out.features[hybrid_mask] = fuse_hybrid_cells(
            params, cat.lidar[hybrid_mask], cat.camera[hybrid_mask]
        )

    camera_mask = cat.category == Category.CAMERA
    if np.any(camera_mask):
        guidance_pool = cat.lidar[lidar_mask | hybrid_mask]
        keep = compute_guidance(params, guidance_pool, cat.camera[camera_mask])
        cam_idx = np.argwhere(camera_mask)
        kept = cam_idx[keep == 1]
        dropped = cam_idx[keep == 0]
        out.features[kept[:, 0], kept[:, 1], kept[:, 2]] = cat.camera[
            kept[:, 0], kept[:, 1], kept[:, 2]
        ]
        out.category[dropped[:, 0], dropped[:, 1], dropped[:, 2]] = Category.NORMAL
    return out


def make_equal_params(channels: int, seed: int) -> nnkit.LinearMap:
    """Symmetric fusion transform for the ablation baseline: 2C -> C."""
    return nnkit.init_linear(2 * channels, channels, (seed, 13))


def fuse_modalities_equal(lin: nnkit.LinearMap, cat: CategorizedGrid) -> VoxelGrid:
    """Ablation: hybrid cells fuse symmetrically, nothing is filtered."""
    out = VoxelGrid.empty(cat.spec)
    out.category[...] = cat.category
    lidar_mask = cat.category == Category.LIDAR
    out.features[lidar_mask] = cat.lidar[lidar_mask]
    camera_mask = cat.category == Category.CAMERA
    out.features[camera_mask] = cat.camera[camera_mask]
    hybrid_mask = cat.category == Category.HYBRID
    if np.any(hybrid_mask):
        pair = np.concatenate(
            [cat.lidar[hybrid_mask], cat.camera[hybrid_mask]], axis=1
        )
        out.features[hybrid_mask] = lin.apply(pair)
    return out
