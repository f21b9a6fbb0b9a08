"""Voxel grids: point-cloud pillar encoding, camera feature lifting,
per-cell modality categorisation and the collapse to a BEV feature plane.

A grid cell carries a C-vector feature and one of four modality tags.
Untagged (normal) cells always hold all-zero features.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum

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

    def cell_of(self, pts: np.ndarray):
        """Map (N, 3) points to integer cell indices plus an in-bounds mask."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        ix = np.floor((pts[:, 0] - self.x_range[0]) / self.dx).astype(np.int64)
        iy = np.floor((pts[:, 1] - self.y_range[0]) / self.dy).astype(np.int64)
        iz = np.floor((pts[:, 2] - self.z_range[0]) / self.dz).astype(np.int64)
        inside = (
            (ix >= 0) & (ix < self.nx)
            & (iy >= 0) & (iy < self.ny)
            & (iz >= 0) & (iz < self.nz)
        )
        return np.stack([ix, iy, iz], axis=1), inside

    def cell_center(self, ix, iy, iz) -> np.ndarray:
        return np.array([
            self.x_range[0] + (np.asarray(ix) + 0.5) * self.dx,
            self.y_range[0] + (np.asarray(iy) + 0.5) * self.dy,
            self.z_range[0] + (np.asarray(iz) + 0.5) * self.dz,
        ]).T

    def bev_cell_centers(self, ix, iy) -> np.ndarray:
        """Planar (x, y) centers for BEV cell indices (any matching shapes)."""
        x = self.x_range[0] + (np.asarray(ix, dtype=np.float64) + 0.5) * self.dx
        y = self.y_range[0] + (np.asarray(iy, dtype=np.float64) + 0.5) * self.dy
        return np.stack([x, y], axis=-1)


@dataclass
class VoxelGrid:
    spec: GridSpec
    features: np.ndarray  # (nx, ny, nz, C)
    category: np.ndarray  # (nx, ny, nz) uint8

    def __post_init__(self):
        s = self.spec
        if self.features.shape != (s.nx, s.ny, s.nz, s.channels):
            raise ValueError("feature array does not match the grid spec")
        if self.category.shape != (s.nx, s.ny, s.nz):
            raise ValueError("category array does not match the grid spec")

    @staticmethod
    def empty(spec: GridSpec) -> "VoxelGrid":
        return VoxelGrid(
            spec,
            np.zeros((spec.nx, spec.ny, spec.nz, spec.channels)),
            np.zeros((spec.nx, spec.ny, spec.nz), dtype=np.uint8),
        )


@dataclass
class CategorizedGrid:
    """Per-cell modality tags with both branch features kept side by side."""

    spec: GridSpec
    lidar: np.ndarray  # (nx, ny, nz, C)
    camera: np.ndarray  # (nx, ny, nz, C)
    category: np.ndarray  # (nx, ny, nz) uint8


@dataclass
class LiftResult:
    grid: VoxelGrid
    cell_mass: np.ndarray  # (nx, ny, nz) accumulated probability mass
    dropped_mass: float  # mass whose splat target fell outside the grid


def voxelize_points(cloud: np.ndarray, spec: GridSpec) -> VoxelGrid:
    """Pillar-style analytic encoding of a point cloud.

    Per occupied cell the feature is
    [log(1 + count), mean offset from the cell center (x, y, z), mean height,
     zero padding up to C]; occupied cells are tagged LIDAR.
    """
    if spec.channels < 5:
        raise ValueError("pillar encoding needs at least 5 channels")
    grid = VoxelGrid.empty(spec)
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        return grid
    idx, inside = spec.cell_of(pts)
    pts, idx = pts[inside], idx[inside]
    if pts.shape[0] == 0:
        return grid
    flat = (idx[:, 0] * spec.ny + idx[:, 1]) * spec.nz + idx[:, 2]
    # Canonical accumulation order makes the encoding exactly
    # permutation-invariant in the input cloud.
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], flat))
    pts, flat = pts[order], flat[order]

    n_cells = spec.nx * spec.ny * spec.nz
    counts = np.bincount(flat, minlength=n_cells)
    sums = np.stack(
        [np.bincount(flat, weights=pts[:, k], minlength=n_cells) for k in range(3)],
        axis=1,
    )
    occupied = np.flatnonzero(counts)
    means = sums[occupied] / counts[occupied, None]
    ons = np.unravel_index(occupied, (spec.nx, spec.ny, spec.nz))
    centers = spec.cell_center(*ons)

    feats = grid.features.reshape(n_cells, spec.channels)
    feats[occupied, 0] = np.log1p(counts[occupied])
    feats[occupied, 1:4] = means - centers
    feats[occupied, 4] = means[:, 2]
    grid.category.reshape(n_cells)[occupied] = Category.LIDAR
    return grid


@functools.lru_cache(maxsize=8)
def _lift_geometry(
    intr: CameraIntrinsics, pose_matrix: bytes, spec: GridSpec, bin_centers: bytes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each (pixel, depth bin) entry of a distribution lands in the grid.

    Takes the camera pose matrix and the bin-center depths as float64 bytes.
    Returns the flat indices of the in-grid entries, those of the
    out-of-grid entries, and the flat cell index of each in-grid entry.
    The map depends only on these arguments, so it is computed once per
    combination and shared read-only.
    """
    pose = Pose(np.frombuffer(pose_matrix).reshape(4, 4))
    centers = np.frombuffer(bin_centers)
    # Unit-depth rays scaled by each bin-center depth: (H, W, D, 3).
    pts = pixel_rays(intr)[:, :, None, :] * centers[None, None, :, None]
    idx, in_grid = spec.cell_of(transform_points(pose, pts.reshape(-1, 3)))
    inside = np.flatnonzero(in_grid)
    outside = np.flatnonzero(~in_grid)
    cell = (idx[inside, 0] * spec.ny + idx[inside, 1]) * spec.nz + idx[inside, 2]
    for arr in (inside, outside, cell):
        arr.setflags(write=False)
    return inside, outside, cell


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
    depth is transformed into the ego frame and its containing cell
    accumulates feature * p.  Cells whose total probability mass reaches
    `mass_threshold` are tagged CAMERA; accumulated features below the
    threshold are zeroed so untagged cells stay exactly zero.

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

    inside, outside, cell = _lift_geometry(
        intr, cam_pose_in_ego.matrix.tobytes(), spec, bin_centers.tobytes()
    )
    mass = dist.reshape(-1)
    dropped = float(mass[outside].sum())

    # Zero-mass entries add exact zeros; skipping them changes no bit.
    keep = mass[inside] != 0.0
    entry, cell = inside[keep], cell[keep]
    weight = mass[entry]
    n_cells, c = spec.nx * spec.ny * spec.nz, spec.channels
    cell_mass = np.bincount(cell, weights=weight, minlength=n_cells)
    # One bin per (cell, channel); each bin sums its entries in entry order.
    contrib = features.reshape(h * w, c)[entry // d] * weight[:, None]
    slot = (cell[:, None] * c + np.arange(c)).reshape(-1)
    feats = np.bincount(slot, weights=contrib.reshape(-1), minlength=n_cells * c)

    tagged = (cell_mass >= mass_threshold) & (cell_mass > 0.0)
    feats.reshape(n_cells, c)[~tagged] = 0.0
    category = np.where(tagged, Category.CAMERA, Category.NORMAL).astype(np.uint8)
    grid = VoxelGrid(
        spec,
        feats.reshape(spec.nx, spec.ny, spec.nz, c),
        category.reshape(spec.nx, spec.ny, spec.nz),
    )
    return LiftResult(grid, cell_mass.reshape(spec.nx, spec.ny, spec.nz), dropped)


def categorize(lidar_grid: VoxelGrid, camera_grid: VoxelGrid) -> CategorizedGrid:
    """Merge the two branch grids into one tagged grid.

    HYBRID where both branches contributed, LIDAR / CAMERA where exactly one
    did, NORMAL otherwise.
    """
    if lidar_grid.spec != camera_grid.spec:
        raise SpecMismatch("cannot categorize grids with different specs")
    has_l = lidar_grid.category == Category.LIDAR
    has_c = camera_grid.category == Category.CAMERA
    category = np.zeros_like(lidar_grid.category)
    category[has_l] = Category.LIDAR
    category[has_c] = Category.CAMERA
    category[has_l & has_c] = Category.HYBRID
    return CategorizedGrid(
        lidar_grid.spec,
        lidar_grid.features.copy(),
        camera_grid.features.copy(),
        category,
    )


def collapse(grid: VoxelGrid) -> np.ndarray:
    """Fold the z axis into channels: (nx, ny, nz, C) -> (nx, ny, nz*C).

    z slice k occupies the channel block [k*C, (k+1)*C); the operation is
    lossless: reshaping back to (nx, ny, nz, C) restores the features.
    """
    s = grid.spec
    return grid.features.reshape(s.nx, s.ny, s.nz * s.channels).copy()
