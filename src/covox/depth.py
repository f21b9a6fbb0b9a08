"""Cooperative depth generation.

The camera branch needs per-pixel depth.  Reliable values come from
projecting LiDAR clouds into the image (ego first, then neighbors); a
surrogate predictor fills the rest.  Maps track the provenance of every
pixel so projected ego depths are never overwritten by shared ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .geometry import CameraIntrinsics, project_points


class DepthSource(IntEnum):
    ABSENT = 0
    EGO_PROJECTED = 1
    NEIGHBOR_PROJECTED = 2


@dataclass(frozen=True)
class DepthBins:
    """Uniform discretisation of [d_min, d_max) into n_bins intervals."""

    d_min: float
    d_max: float
    n_bins: int

    def __post_init__(self):
        if not 0 < self.d_min < self.d_max:
            raise ValueError("need 0 < d_min < d_max")
        if self.n_bins < 2:
            raise ValueError("need at least two depth bins")

    @property
    def width(self) -> float:
        return (self.d_max - self.d_min) / self.n_bins

    def bin_of(self, depths: np.ndarray):
        """Bin indices for an array of metric depths.

        Depths below d_min clamp to bin 0; depths at or beyond d_max are
        reported invalid (they carry no projection information).
        """
        d = np.asarray(depths, dtype=np.float64)
        valid = np.isfinite(d) & (d < self.d_max)
        clamped = np.where(valid, np.maximum(d, self.d_min), self.d_min)
        k = np.floor((clamped - self.d_min) / self.width).astype(np.int64)
        k = np.clip(k, 0, self.n_bins - 1)
        return k, valid

    def centers(self) -> np.ndarray:
        return self.d_min + (np.arange(self.n_bins) + 0.5) * self.width


@dataclass
class DepthMap:
    """Per-pixel depth bin (-1 where absent) plus its provenance tag."""

    bins: DepthBins
    bin_idx: np.ndarray  # (H, W) int16, -1 = absent
    source: np.ndarray  # (H, W) uint8 DepthSource

    @staticmethod
    def empty(bins: DepthBins, height: int, width: int) -> "DepthMap":
        return DepthMap(
            bins,
            np.full((height, width), -1, dtype=np.int16),
            np.zeros((height, width), dtype=np.uint8),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.bin_idx.shape

    def projected_mask(self) -> np.ndarray:
        return self.source != DepthSource.ABSENT

    def copy(self) -> "DepthMap":
        return DepthMap(self.bins, self.bin_idx.copy(), self.source.copy())


def nearest_per_pixel(cloud: np.ndarray, intr: CameraIntrinsics, bins: DepthBins):
    """The points of a camera-frame cloud that a depth map keeps.

    These are the points that project into the image with a depth below
    d_max and are the nearest at their pixel, the lowest row on a tie.
    Returns (flat pixel index, depth, row) with one entry per hit pixel,
    in pixel order.
    """
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    pix, depth, rows = project_points(intr, pts)
    keep = depth < bins.d_max  # beyond the last bin counts as no projection
    pix, depth, rows = pix[keep], depth[keep], rows[keep]
    flat = pix[:, 1] * intr.width + pix[:, 0]
    nearest = np.full(intr.height * intr.width, np.inf)
    np.minimum.at(nearest, flat, depth)
    ties = np.flatnonzero(depth == nearest[flat])
    first = np.full(nearest.size, rows.size)
    np.minimum.at(first, flat[ties], ties)
    pick = first[first < rows.size]
    return flat[pick], depth[pick], rows[pick]


def _min_depth_image(
    cloud: np.ndarray, intr: CameraIntrinsics, bins: DepthBins
) -> np.ndarray:
    """Per-pixel minimum projected depth of a camera-frame cloud (inf = none)."""
    img = np.full(intr.height * intr.width, np.inf)
    flat, depth, _ = nearest_per_pixel(cloud, intr, bins)
    img[flat] = depth
    return img.reshape(intr.height, intr.width)


def project_cloud_to_depthmap(
    cloud: np.ndarray, intr: CameraIntrinsics, bins: DepthBins
) -> DepthMap:
    """Project a camera-frame cloud; pixels keep the minimum depth seen.

    A pixel hit by several points takes the smallest depth (nearest surface
    wins, the rest are occluded).  Hit pixels are tagged EGO_PROJECTED.
    """
    dmap = DepthMap.empty(bins, intr.height, intr.width)
    img = _min_depth_image(cloud, intr, bins)
    hit = np.isfinite(img)
    k, valid = bins.bin_of(img[hit])
    if not np.all(valid):
        raise ValueError("project_cloud_to_depthmap: projected depth outside the bin range")
    dmap.bin_idx[hit] = k.astype(np.int16)
    dmap.source[hit] = DepthSource.EGO_PROJECTED
    return dmap


def merge_cooperative(
    ego_map: DepthMap,
    neighbor_clouds: Sequence[np.ndarray],
    intr: CameraIntrinsics,
    bins: DepthBins,
) -> DepthMap:
    """Fill gaps in the ego map with depths projected from neighbor clouds.

    Each neighbor cloud is already in the ego camera frame.  Shared depths
    only ever land on absent pixels; pixels projected from the ego cloud are
    authoritative and stay untouched.  Conflicts among neighbors resolve by
    the same minimum rule as ego projection.
    """
    merged = ego_map.copy()
    if not neighbor_clouds:
        return merged
    # The minimum over all neighbors' points is the minimum of their minima.
    clouds = [np.asarray(c, dtype=np.float64).reshape(-1, 3) for c in neighbor_clouds]
    best = _min_depth_image(np.concatenate(clouds), intr, bins)
    write = (merged.source == DepthSource.ABSENT) & np.isfinite(best)
    k, valid = bins.bin_of(best[write])
    if not np.all(valid):
        raise ValueError("merge_cooperative: projected depth outside the bin range")
    merged.bin_idx[write] = k.astype(np.int16)
    merged.source[write] = DepthSource.NEIGHBOR_PROJECTED
    return merged


@dataclass(frozen=True)
class UniformPredictor:
    """Maximum-entropy placeholder: every pixel gets the uniform distribution."""


@dataclass(frozen=True)
class NoisyOraclePredictor:
    """Surrogate depth head: the true bin blurred spatially and across bins.

    blur_radius is the half-width of a spatial box blur over the one-hot
    true bins; sigma_bins is the std (in bins) of a Gaussian then applied
    along the bin axis.  Both at zero reproduce the exact ground-truth
    one-hot.  Pixels whose true depth lies beyond the bin range (sky, far
    background) count as the farthest bin, the closest representable
    statement.
    """

    sigma_bins: float = 1.0
    blur_radius: int = 0

    def __post_init__(self):
        if self.sigma_bins < 0 or self.blur_radius < 0:
            raise ValueError("noise parameters must be non-negative")


def _bin_gaussian_table(sigma: float, n_bins: int) -> np.ndarray:
    """(D, D) table whose row k is the discrete Gaussian around bin k,
    truncated at 4 sigma and zero past the bin range (not renormalised)."""
    if sigma == 0:
        return np.eye(n_bins)
    half = min(n_bins - 1, int(np.ceil(4 * sigma)))
    k = np.arange(-half, half + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # a tiny sigma leaves only the centre
        g = np.exp(-0.5 * (k / sigma) ** 2)
    g /= g.sum()
    offset = np.arange(n_bins)[:, None] - np.arange(n_bins)[None, :] + half
    inside = (offset >= 0) & (offset <= 2 * half)
    return np.where(inside, g[np.clip(offset, 0, 2 * half)], 0.0)


def predict_depth(true_depth_image: np.ndarray, predictor, bins: DepthBins) -> np.ndarray:
    """Surrogate per-pixel depth distribution, shape (H, W, D).

    UniformPredictor gives every pixel the uniform distribution.
    NoisyOraclePredictor gives each pixel the normalised row of: the
    one-hot true bin (the farthest bin where the true depth is out of
    range), box-blurred over the pixel's (2r+1)^2 window clipped to the
    image, then convolved along the bin axis with a zero-padded discrete
    Gaussian.  Both steps are linear and the normalisation cancels the
    blur's 1/count, so this is computed as the window's per-bin pixel
    counts (exact integers) times the (D, D) Gaussian table.  Fully
    deterministic.
    """
    h, w = np.asarray(true_depth_image).shape
    d = bins.n_bins
    if isinstance(predictor, UniformPredictor):
        return np.full((h, w, d), 1.0 / d)
    if not isinstance(predictor, NoisyOraclePredictor):
        raise TypeError(f"unknown predictor {predictor!r}")

    k, valid = bins.bin_of(true_depth_image)
    k = np.where(valid, k, d - 1)
    r = predictor.blur_radius
    onehot = np.zeros((h + 2 * r, w + 2 * r, d), dtype=np.int32)  # zero-padded
    np.put_along_axis(onehot[r : r + h, r : r + w], k[:, :, None], 1, axis=2)
    rows = sum(onehot[i : i + h] for i in range(2 * r + 1))
    counts = sum(rows[:, j : j + w] for j in range(2 * r + 1))
    table = _bin_gaussian_table(predictor.sigma_bins, d)
    vol = counts.reshape(h * w, d).astype(np.float64) @ table
    vol /= vol.sum(axis=1, keepdims=True)
    return vol.reshape(h, w, d)


def finalize_distribution(dmap: DepthMap, predicted: np.ndarray) -> np.ndarray:
    """Blend projections and prediction into the final (H, W, D) distribution.

    Projected pixels become exact one-hots at their bin; the rest take the
    predicted row as given (rows must already sum to one).  The prediction
    is copied, not modified.
    """
    h, w = dmap.shape
    d = dmap.bins.n_bins
    if predicted.shape != (h, w, d):
        raise ValueError("prediction shape does not match the depth map")
    out = np.array(predicted, dtype=np.float64)
    proj = dmap.projected_mask()
    out[proj] = 0.0
    ys, xs = np.nonzero(proj)
    out[ys, xs, dmap.bin_idx[proj]] = 1.0
    return out
