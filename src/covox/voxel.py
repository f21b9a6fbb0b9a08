"""Voxel grids: point-cloud pillar encoding, camera feature lifting,
per-cell modality categorisation and the collapse to BEV feature rows.

A voxel carries a C-vector feature and one of four modality tags.  Grids
list only their tagged voxels; an untagged (normal) voxel holds an all-zero
feature, so the work of every stage up to the BEV scales with the tagged
voxels, not with the grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .geometry import CameraIntrinsics, Pose, pixel_rays, transform_points

# Hard budget on grid allocation; guards against config typos.
_MAX_ELEMENTS = 1 << 26


class SpecMismatch(ValueError):
    """Two grids with different specs were combined."""


class Category(IntEnum):
    NORMAL = 0
    LIDAR = 1
    CAMERA = 2
    HYBRID = 3


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned voxel lattice in the owning agent's frame."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    nx: int
    ny: int
    nz: int
    channels: int

    def __post_init__(self):
        for lo, hi in (self.x_range, self.y_range, self.z_range):
            if not hi > lo:
                raise ValueError("grid ranges must be non-degenerate")
        if min(self.nx, self.ny, self.nz, self.channels) < 1:
            raise ValueError("grid dimensions must be positive")
        if self.nx * self.ny * self.nz * self.channels > _MAX_ELEMENTS:
            raise ValueError("grid exceeds the allocation budget")
        object.__setattr__(self, "x_range", tuple(float(v) for v in self.x_range))
        object.__setattr__(self, "y_range", tuple(float(v) for v in self.y_range))
        object.__setattr__(self, "z_range", tuple(float(v) for v in self.z_range))

    @property
    def dx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_range[1] - self.y_range[0]) / self.ny

    @property
    def dz(self) -> float:
        return (self.z_range[1] - self.z_range[0]) / self.nz

    @property
    def bev_channels(self) -> int:
        return self.channels * self.nz

    def bev_cell_of(self, x, y, where=True) -> tuple[np.ndarray, np.ndarray]:
        """Which of the planar points (x, y) fall inside the grid's columns
        and pass `where`, as a boolean mask, and the flat BEV cell
        ix * ny + iy of each of those, in point order.  Cells are half-open:
        x_range[0] is inside, x_range[1] is not."""
        ix = np.floor((x - self.x_range[0]) / self.dx).astype(np.int64)
        iy = np.floor((y - self.y_range[0]) / self.dy).astype(np.int64)
        inside = (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny) & where
        return inside, ix[inside] * self.ny + iy[inside]

    def voxel_of(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of the (N, 3) points fall inside the grid, as a boolean
        mask, and the flat voxel index (ix * ny + iy) * nz + iz of each of
        those, in point order."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        iz = np.floor((pts[:, 2] - self.z_range[0]) / self.dz).astype(np.int64)
        inside, cells = self.bev_cell_of(pts[:, 0], pts[:, 1], (iz >= 0) & (iz < self.nz))
        return inside, cells * self.nz + iz[inside]

    def cell_center(self, ix, iy, iz) -> np.ndarray:
        z = self.z_range[0] + (np.asarray(iz, dtype=np.float64) + 0.5) * self.dz
        return np.concatenate([self.bev_cell_centers(ix, iy), z[..., None]], axis=-1)

    def bev_cell_centers(self, ix, iy) -> np.ndarray:
        """Planar (x, y) centers for BEV cell indices (any matching shapes)."""
        x = self.x_range[0] + (np.asarray(ix, dtype=np.float64) + 0.5) * self.dx
        y = self.y_range[0] + (np.asarray(iy, dtype=np.float64) + 0.5) * self.dy
        return np.stack([x, y], axis=-1)


@dataclass
class VoxelGrid:
    """The tagged voxels of a grid, listed by flat index.

    Voxel (ix, iy, iz) has the flat index (ix * ny + iy) * nz + iz, so the
    voxels of one (x, y) column are consecutive.  A voxel that is not listed
    is untagged (NORMAL) and holds an all-zero feature.
    """

    spec: GridSpec
    voxels: np.ndarray  # (K,) flat indices, ascending and unique
    features: np.ndarray  # (K, C)
    category: np.ndarray  # (K,) uint8, never NORMAL

    def __post_init__(self):
        k = self.voxels.shape[0]
        if self.voxels.shape != (k,) or self.category.shape != (k,):
            raise ValueError("voxel and category lists must be one entry per voxel")
        if self.features.shape != (k, self.spec.channels):
            raise ValueError("feature rows do not match the voxel list and the grid spec")

    @staticmethod
    def empty(spec: GridSpec) -> "VoxelGrid":
        return VoxelGrid(
            spec,
            np.zeros(0, dtype=np.int64),
            np.zeros((0, spec.channels)),
            np.zeros(0, dtype=np.uint8),
        )


def _run_firsts(keys: np.ndarray) -> np.ndarray:
    """Flags the first entry of each run of equal neighbours in `keys`."""
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array, in order."""
    return keys[_run_firsts(keys)]


def _union(cell_lists: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The ascending union of lists of flat indices, and the positions of
    each list's indices in it.  The union is taken by sorting: a plain
    `np.unique` takes numpy's hash path, which imports `numpy.ma` on its
    first call."""
    cells = _run_starts(np.sort(np.concatenate(cell_lists)))
    return cells, [np.searchsorted(cells, c) for c in cell_lists]


@dataclass
class CategorizedGrid:
    """Per-voxel modality tags with both branch features side by side.

    `voxels` lists every voxel either branch tagged, ascending.  Row i of
    `lidar` and of `camera` holds voxel i's feature in that branch, zero
    where the branch did not tag it.
    """

    spec: GridSpec
    voxels: np.ndarray  # (K,) flat indices, ascending and unique
    category: np.ndarray  # (K,) uint8: LIDAR, CAMERA or HYBRID
    lidar: np.ndarray  # (K, C)
    camera: np.ndarray  # (K, C)


@dataclass
class LiftResult:
    """A lifted camera grid and the distribution it was lifted from.

    The pipeline reads only `grid`.  The mass that fell outside the grid is
    summed when `dropped_mass` is first read, over the entries `inside` does
    not list, in entry order.
    """

    grid: VoxelGrid
    mass: np.ndarray  # the flat distribution; read, never written
    inside: np.ndarray  # ascending flat indices of its entries whose splat target is in the grid

    @functools.cached_property
    def dropped_mass(self) -> float:
        return float(np.delete(self.mass, self.inside).sum())


def voxelize_points(cloud: np.ndarray, spec: GridSpec) -> VoxelGrid:
    """Pillar-style analytic encoding of a point cloud.

    Per occupied voxel the feature is
    [log(1 + count), mean offset from the voxel center (x, y, z), mean
    height, zero padding up to C]; occupied voxels are tagged LIDAR.

    The in-grid points are sorted by voxel, then by x, y and z, and each
    occupied voxel sums its points one by one in that order, so the encoding
    is exactly permutation-invariant in the input cloud.  The work scales
    with the points and the occupied voxels, not with the grid.
    """
    if spec.channels < 5:
        raise ValueError("pillar encoding needs at least 5 channels")
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        return VoxelGrid.empty(spec)
    inside, flat = spec.voxel_of(pts)
    pts = pts[inside]
    if pts.shape[0] == 0:
        return VoxelGrid.empty(spec)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], flat))
    pts, flat = pts[order], flat[order]

    # Number the occupied voxels in ascending order.  bincount adds each
    # bin's weights in input order; np.add.reduceat would sum runs of 8 or
    # more pairwise, which rounds differently.
    first = _run_firsts(flat)
    occupied = flat[first]
    rank = np.cumsum(first) - 1
    counts = np.bincount(rank)
    sums = np.stack([np.bincount(rank, weights=pts[:, k]) for k in range(3)], axis=1)
    means = sums / counts[:, None]
    centers = spec.cell_center(*np.unravel_index(occupied, (spec.nx, spec.ny, spec.nz)))

    feats = np.zeros((occupied.size, spec.channels))
    feats[:, 0] = np.log1p(counts)
    feats[:, 1:4] = means - centers
    feats[:, 4] = means[:, 2]
    return VoxelGrid(spec, occupied, feats, np.full(occupied.size, Category.LIDAR, dtype=np.uint8))


@functools.lru_cache(maxsize=8)
def _lift_geometry(
    intr: CameraIntrinsics, pose_matrix: bytes, spec: GridSpec, bin_centers: bytes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each (pixel, depth bin) entry of a distribution lands in the grid.

    Takes the camera pose matrix and the bin-center depths as float64 bytes.
    Returns the flat indices of the in-grid entries (ascending), the voxels
    they reach (flat indices, ascending) and each in-grid entry's rank in
    that list.  The out-of-grid entries are the rest; no list of them is
    kept.  The map depends only on these arguments, so it is computed once
    per combination and shared read-only.
    """
    pose = Pose(np.frombuffer(pose_matrix).reshape(4, 4))
    centers = np.frombuffer(bin_centers)
    # Unit-depth rays scaled by each bin-center depth: (H, W, D, 3).
    pts = pixel_rays(intr)[:, :, None, :] * centers[None, None, :, None]
    in_grid, flat = spec.voxel_of(transform_points(pose, pts.reshape(-1, 3)))
    inside = np.flatnonzero(in_grid)
    voxels, rank = np.unique(flat, return_inverse=True)
    for arr in (inside, voxels, rank):
        arr.setflags(write=False)
    return inside, voxels, rank


def lift_camera(
    features: np.ndarray,
    dist: np.ndarray,
    intr: CameraIntrinsics,
    cam_pose_in_ego: Pose,
    spec: GridSpec,
    mass_threshold: float,
    bin_centers: np.ndarray,
) -> LiftResult:
    """Splat image features into the grid along per-pixel depth distributions.

    For every pixel and depth bin, the pixel-center point at the bin-center
    depth is transformed into the ego frame and its containing voxel
    accumulates feature * p.  Voxels whose total probability mass reaches
    `mass_threshold` are tagged CAMERA and listed; the rest are left out, so
    they stay untagged and zero.

    Only the entries with nonzero mass are splatted: each voxel adds its
    entries one by one in entry order, as a bincount over the whole grid
    would.

    `bin_centers` gives the metric depth of each bin; pass the owning
    DepthBins.centers() (kept as a plain array here to avoid a cycle).
    """
    features = np.asarray(features, dtype=np.float64)
    dist = np.asarray(dist, dtype=np.float64)
    h, w, d = dist.shape
    if features.shape[:2] != (h, w):
        raise ValueError("feature image and depth distribution disagree on size")
    if features.shape[2] != spec.channels:
        raise ValueError("feature channels must match the grid channels")
    if len(bin_centers) != d:
        raise ValueError("bin_centers must give one depth per distribution bin")
    bin_centers = np.asarray(bin_centers, dtype=np.float64)

    if (intr.height, intr.width) != (h, w):
        raise ValueError("camera intrinsics and depth distribution disagree on size")

    inside, voxels, rank = _lift_geometry(
        intr, cam_pose_in_ego.matrix.tobytes(), spec, bin_centers.tobytes()
    )
    mass = dist.reshape(-1)
    weight = mass[inside]
    # Zero-mass entries add exact zeros; skipping them changes no bit.
    keep = weight != 0.0
    entry, rank, weight = inside[keep], rank[keep], weight[keep]
    c = spec.channels
    voxel_mass = np.bincount(rank, weights=weight, minlength=voxels.size)
    # One bin per (voxel, channel); each bin sums its entries in entry order.
    contrib = features.reshape(h * w, c)[entry // d] * weight[:, None]
    slot = (rank[:, None] * c + np.arange(c)).reshape(-1)
    feats = np.bincount(slot, weights=contrib.reshape(-1), minlength=voxels.size * c)

    tagged = (voxel_mass >= mass_threshold) & (voxel_mass > 0.0)
    grid = VoxelGrid(
        spec,
        voxels[tagged],
        feats.reshape(voxels.size, c)[tagged],
        np.full(int(np.count_nonzero(tagged)), Category.CAMERA, dtype=np.uint8),
    )
    return LiftResult(grid, mass, inside)


def categorize(lidar_grid: VoxelGrid, camera_grid: VoxelGrid) -> CategorizedGrid:
    """Merge the two branch grids into one tagged list of voxels.

    HYBRID where both branches tagged a voxel, LIDAR / CAMERA where exactly
    one did; a voxel neither tagged stays unlisted (NORMAL).
    """
    if lidar_grid.spec != camera_grid.spec:
        raise SpecMismatch("cannot categorize grids with different specs")
    voxels, (at_l, at_c) = _union([lidar_grid.voxels, camera_grid.voxels])
    category = np.zeros(voxels.size, dtype=np.uint8)
    category[at_l] = Category.LIDAR
    category[at_c] += np.uint8(Category.CAMERA)  # LIDAR + CAMERA == HYBRID
    lidar = np.zeros((voxels.size, lidar_grid.spec.channels))
    lidar[at_l] = lidar_grid.features
    camera = np.zeros_like(lidar)
    camera[at_c] = camera_grid.features
    return CategorizedGrid(lidar_grid.spec, voxels, category, lidar, camera)


def collapse(grid: VoxelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Fold the z axis into channels, one BEV row per tagged column.

    Returns the flat BEV cells (ix * ny + iy), ascending, of the columns
    that hold a tagged voxel, and their fresh (n, nz*C) rows of the
    (nx, ny, nz*C) BEV plane.  Voxel (ix, iy, iz) fills the channel block
    [iz*C, (iz+1)*C) of its column's row; every other scalar is +0.0.
    Every other column holds only zeros, so the columns and rows are the
    whole plane, and the plane itself is never built.  The operation is
    lossless: a row reshaped to (nz, C) gives its column of the grid.
    """
    s = grid.spec
    columns = _run_starts(grid.voxels // s.nz)
    rows = np.zeros((columns.size, s.nz * s.channels))
    at = np.searchsorted(columns, grid.voxels // s.nz) * s.nz + grid.voxels % s.nz
    rows.reshape(-1, s.channels)[at] = grid.features
    return columns, rows
