"""Cooperative depth generation.

The camera branch needs per-pixel depth.  Reliable values come from
projecting LiDAR clouds into the image (ego first, then neighbors); a
surrogate predictor fills the rest.  Maps track the provenance of every
pixel so projected ego depths are never overwritten by shared ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import CameraIntrinsics, project_points
from .voxel import _run_firsts


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


def nearest_per_pixel(
    cloud: np.ndarray, intr: CameraIntrinsics, bins: DepthBins, views: int = 1
):
    """The pixels a camera-frame cloud hits, and the depth a depth map keeps
    at each.

    A point counts where it projects into the image with a depth below
    d_max, and a pixel keeps the minimum depth of its points.  `cloud` may
    stack `views` clouds of equal length, each for a depth map of its own:
    a point of view k then keys pixel p as k * H * W + p.  Returns (key,
    depth) with one entry per hit key, in key order.
    """
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    pix, depth, rows = project_points(intr, pts)
    keep = depth < bins.d_max  # beyond the last bin counts as no projection
    pix, depth, rows = pix[keep], depth[keep], rows[keep]
    n_pixels = intr.height * intr.width
    key = pix[:, 1] * intr.width + pix[:, 0]
    if views > 1:
        key += rows // (pts.shape[0] // views) * n_pixels
    nearest = np.full(views * n_pixels, np.inf)
    np.minimum.at(nearest, key, depth)
    hit = np.flatnonzero(nearest < np.inf)
    return hit, nearest[hit]


def project_cloud_to_depthmap(
    cloud: np.ndarray, intr: CameraIntrinsics, bins: DepthBins
) -> DepthMap:
    """Project a camera-frame cloud; pixels keep the minimum depth seen.

    A pixel hit by several points takes the smallest depth (nearest surface
    wins, the rest are occluded, `nearest_per_pixel`).  Hit pixels are
    tagged EGO_PROJECTED.
    """
    dmap = DepthMap.empty(bins, intr.height, intr.width)
    hit, depth = nearest_per_pixel(cloud, intr, bins)
    k, valid = bins.bin_of(depth)
    if not np.all(valid):
        raise ValueError("project_cloud_to_depthmap: projected depth outside the bin range")
    dmap.bin_idx.reshape(-1)[hit] = k
    dmap.source.reshape(-1)[hit] = DepthSource.EGO_PROJECTED
    return dmap


class DepthReply(NamedTuple):
    """A phase-1 reply: the pixels of the requester's image a neighbor's
    cloud fills, sent as the depth bin the requester reads.

    `counts[k]` is the number of pixels in bin k, and `pixels` holds their
    flat indices v * W + u grouped by ascending bin.  No depth travels: a
    pixel's bin is where it falls in `pixels`.
    """

    counts: np.ndarray  # (D,) pixels per depth bin
    pixels: np.ndarray  # (P,) flat pixel indices, bin by bin

    @property
    def elements(self) -> int:
        """Scalars on the wire: D counts and P pixels, or none for a reply
        without pixels, which is not sent."""
        return self.counts.size + self.pixels.size if self.pixels.size else 0


def encode_replies(
    keys: np.ndarray, depths: np.ndarray, bins: DepthBins, n_pixels: int, views: int
) -> list[DepthReply]:
    """Bin the depths of `views` replies and encode each as a `DepthReply`.

    Entry i is pixel keys[i] % n_pixels of reply keys[i] // n_pixels, at
    depths[i], as `nearest_per_pixel` keys them; a pixel keeps its input
    order within its bin, so keys in ascending order give pixel order.  All
    replies go in one pass: one binning, one stable sort on reply x bin and
    one count.  A depth at or beyond d_max, or not finite, is an error.
    """
    k, valid = bins.bin_of(depths)
    if not np.all(valid):
        raise ValueError("encode_replies: depth outside the bin range")
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    group = keys // n_pixels * bins.n_bins + k
    pixels = (keys % n_pixels)[np.argsort(group, kind="stable")]
    counts = np.bincount(group, minlength=views * bins.n_bins).reshape(views, bins.n_bins)
    parts = np.split(pixels, np.cumsum(counts.sum(axis=1))[:-1])
    return [DepthReply(c, p) for c, p in zip(counts, parts)]


def merge_cooperative(
    ego_map: DepthMap,
    replies: Sequence[DepthReply],
    intr: CameraIntrinsics,
    bins: DepthBins,
) -> DepthMap:
    """Fill gaps in the ego map with the depth bins neighbors sent.

    Each reply is a pair (counts, pixels), as `encode_replies` gives it:
    D per-bin counts and the flat pixel indices v * W + u of the ego image,
    grouped by ascending bin.  Shared bins only ever land on absent pixels;
    pixels projected from the ego cloud are authoritative and stay
    untouched.  Conflicts among neighbors resolve to the smallest bin, which
    `bin_of` being monotone makes the bin of the smallest depth: the same
    minimum rule as ego projection.  Counts that are not D non-negative
    entries summing to the reply's pixels, or a pixel outside the image,
    are an error.
    """
    merged = ego_map.copy()
    if not replies:
        return merged
    n_pixels = intr.height * intr.width
    d = bins.n_bins
    pixels, pixel_bins = [], []
    for counts, pix in replies:
        counts = np.asarray(counts).reshape(-1)
        pix = np.asarray(pix, dtype=np.int64).reshape(-1)
        if counts.size != d:
            raise ValueError(f"merge_cooperative: reply has {counts.size} bin counts, not {d}")
        if np.any(counts < 0):
            raise ValueError("merge_cooperative: negative bin count")
        if counts.sum() != pix.size:
            raise ValueError("merge_cooperative: bin counts do not sum to the reply's pixels")
        pixels.append(pix)
        pixel_bins.append(np.repeat(np.arange(d, dtype=np.int16), counts))
    pixels = np.concatenate(pixels)
    if np.any((pixels < 0) | (pixels >= n_pixels)):
        raise ValueError("merge_cooperative: reply pixel outside the image")
    best = np.full(n_pixels, d, dtype=np.int16)  # d = no neighbor sent the pixel
    np.minimum.at(best, pixels, np.concatenate(pixel_bins))
    best = best.reshape(intr.height, intr.width)
    write = (merged.source == DepthSource.ABSENT) & (best < d)
    merged.bin_idx[write] = best[write]
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
        if isinstance(self.blur_radius, bool) or not isinstance(self.blur_radius, (int, np.integer)):
            raise TypeError(f"blur_radius must be an integer, got {self.blur_radius!r}")
        if not (math.isfinite(self.sigma_bins) and self.sigma_bins >= 0) or self.blur_radius < 0:
            raise ValueError("noise parameters must be finite and non-negative")


@functools.lru_cache(maxsize=8)
def _bin_gaussian_table(sigma: float, n_bins: int) -> np.ndarray:
    """(D, D) table whose row k is the discrete Gaussian around bin k,
    truncated at 4 sigma and zero past the bin range (not renormalised).
    Cached per argument pair, so read-only."""
    if sigma == 0:
        table = np.eye(n_bins)
    else:
        half = min(n_bins - 1, int(np.ceil(4 * sigma)))
        k = np.arange(-half, half + 1, dtype=np.float64)
        with np.errstate(over="ignore"):  # a tiny sigma leaves only the centre
            g = np.exp(-0.5 * (k / sigma) ** 2)
        g /= g.sum()
        offset = np.arange(n_bins)[:, None] - np.arange(n_bins)[None, :] + half
        inside = (offset >= 0) & (offset <= 2 * half)
        table = np.where(inside, g[np.clip(offset, 0, 2 * half)], 0.0)
    table.setflags(write=False)
    return table


def predict_depth(true_depth_image: np.ndarray, predictor, bins: DepthBins) -> np.ndarray:
    """Surrogate per-pixel depth distribution, shape (H, W, D).

    UniformPredictor gives every pixel the uniform distribution.
    NoisyOraclePredictor gives each pixel the normalised row of: the
    one-hot true bin (the farthest bin where the true depth is out of
    range), box-blurred over the pixel's (2r+1)^2 window clipped to the
    image, then convolved along the bin axis with a zero-padded discrete
    Gaussian.  Both steps are linear and the normalisation cancels the
    blur's 1/count, so a row is the window's per-bin pixel counts (exact
    integers) times the (D, D) Gaussian table, normalised.  Fully
    deterministic.

    A row depends only on the window's counts, and an image holds few
    distinct ones, so each is computed once.  The counts are coded as the
    digits of base b = min((2r+1)^2, H*W) + 1, more than any count, so no
    digit carries: the code of a window is the window sum of b^k over the
    pixels whose bin is k.  The bins are split over as many int64 words as
    that needs.
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
    base = min((2 * r + 1) ** 2, h * w) + 1
    digits = 1  # per word: the largest code, base**digits - 1, must fit
    while base ** (digits + 1) <= 2**63:
        digits += 1
    spans = [(lo, min(d, lo + digits)) for lo in range(0, d, digits)]  # bins per word
    # value[j, k]: what a pixel of bin k adds to the code of word j.
    value = np.zeros((len(spans), d), dtype=np.int64)
    for row, (lo, hi) in zip(value, spans):
        row[lo:hi] = base ** np.arange(hi - lo, dtype=np.int64)
    codes = []
    for word_value in value:
        img = np.zeros((h + 2 * r, w + 2 * r), dtype=np.int64)  # zero-padded
        img[r : r + h, r : r + w] = word_value[k]
        rows = sum(img[i : i + h] for i in range(2 * r + 1))
        codes.append(sum(rows[:, j : j + w] for j in range(2 * r + 1)).reshape(-1))

    key = codes[0]
    for code in codes[1:]:
        key = _ranks(key)[0] * key.size + _ranks(code)[0]
    window, at = _ranks(key)
    counts = np.zeros((at.size, d))
    for code, word_value, (lo, hi) in zip(codes, value, spans):
        counts[:, lo:hi] = (code[at, None] // word_value[lo:hi]) % base
    vol = counts @ _bin_gaussian_table(predictor.sigma_bins, d)
    vol /= vol.sum(axis=1, keepdims=True)
    return np.take(vol, window, axis=0).reshape(h, w, d)


def _ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's rank among the distinct keys, and for each distinct key,
    ascending, the position of one key equal to it.

    Only the first key of each run of equal neighbours is sorted: the codes
    of a smooth image come in far fewer runs than pixels.
    """
    start = np.flatnonzero(_run_firsts(keys))
    order = np.argsort(keys[start])
    first = _run_firsts(keys[start[order]])
    rank = np.empty(start.size, dtype=np.intp)
    rank[order] = np.cumsum(first) - 1
    return np.repeat(rank, np.diff(start, append=keys.size)), start[order[first]]


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
