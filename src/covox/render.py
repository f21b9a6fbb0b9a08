"""Dependency-free image export: binary PGM/PPM writers plus the standard
debug renders (depth graymaps, BEV occupancy with box overlays, masks)."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .depth import DepthMap
from .metrics import Detection
from .voxel import GridSpec

GT_COLOR = (40, 220, 40)
DET_COLOR = (230, 50, 50)


def write_pgm16(path, img: np.ndarray) -> Path:
    """16-bit binary portable graymap (P5, maxval 65535, big-endian)."""
    img = np.asarray(img)
    if img.dtype != np.uint16 or img.ndim != 2:
        raise ValueError("expected a 2-D uint16 image")
    path = Path(path)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(img.astype(">u2").tobytes())
    return path


def write_ppm(path, img: np.ndarray) -> Path:
    """8-bit binary portable pixmap (P6)."""
    img = np.asarray(img)
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) uint8 image")
    path = Path(path)
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
    return path


def depth_map_gray(dmap: DepthMap) -> np.ndarray:
    """Scale bin indices onto the 16-bit gray range; absent pixels are 0."""
    scale = 65535.0 / (dmap.bins.n_bins - 1)
    present = dmap.bin_idx >= 0
    gray = np.zeros(dmap.shape, dtype=np.uint16)
    gray[present] = np.round(dmap.bin_idx[present] * scale).astype(np.uint16)
    return gray


def occupancy_image(occ: np.ndarray) -> np.ndarray:
    """Grayscale RGB render of a BEV occupancy map (row i = grid x index)."""
    occ = np.asarray(occ, dtype=np.float64)
    peak = occ.max(initial=0.0)
    level = np.zeros_like(occ) if peak <= 0 else occ / peak
    gray = np.round(level * 255.0).astype(np.uint8)
    return np.repeat(gray[:, :, None], 3, axis=2)


def mask_image(mask: np.ndarray) -> np.ndarray:
    img = np.where(np.asarray(mask)[:, :, None] > 0, 255, 0).astype(np.uint8)
    return np.repeat(img, 3, axis=2)


def draw_box(img: np.ndarray, spec: GridSpec, det: Detection, color) -> None:
    """Rasterise a box outline onto a BEV image in place."""
    corners = det.corners()
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        ts = np.linspace(0.0, 1.0, 120)
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        _, cells = spec.bev_cell_of(pts[:, 0], pts[:, 1])
        img[np.divmod(cells, spec.ny)] = color


def render_bev(
    occ: np.ndarray,
    spec: GridSpec,
    gt_boxes: Sequence[Detection] = (),
    det_boxes: Sequence[Detection] = (),
) -> np.ndarray:
    img = occupancy_image(occ)
    for det in gt_boxes:
        draw_box(img, spec, det, GT_COLOR)
    for det in det_boxes:
        draw_box(img, spec, det, DET_COLOR)
    return img
