"""Reference implementations of the pipeline's stages, one per stage.

Each reference is the plainest version of its stage: it holds every voxel
of a grid in dense arrays, scans whole grids and planes, predicts depth
pixel by pixel, tests every box on every ray, fits each rectangle on its
own, answers each phase-1 request on its own, warps each message into a
fresh zero plane and runs attention on whole token stacks.  The
references take and return what the program's stages do, converting at
their edges, so that `use_reference_pipeline` can swap them in for a whole
trial: the grid references take sparse grids, and the BEV references take
an agent's BEV as its nonzero cells and their rows (`collapse_dense`,
`importance_scores_dense`, `pack_message_dense`, `aggregate_dense`,
`aggregate_max_dense`, `concat_dense`), spread them into a whole
(nx, ny, F) plane and scan that.  `perceive_whole_plane` finds the BEV's
nonzero cells by a scan of the whole plane (`rows_of`), and `receive_fresh`
gives the aggregators whole planes and finds the aggregated BEV's nonzero
cells by a scan of the whole plane.  The detector's references take its
sparse occupancy, cells and a value per cell: `occupancy_from_grid_dense`
finds the cells by a scan of the whole grid, and
`detect_local_per_component` spreads them into a whole (nx, ny) map.
`project_cloud_to_depthmap_by_image` bins a whole (H, W) image of
minimum depths.

The detector's map is a policy, not a mechanism: the replays run the
program's `occupancy_from_bev`, as they take `_REL_THRESHOLD`, `_MIN_CELLS`
and `_box_extent` from `robust`, so that a change of the policy is one
edit and its own tests.  `occupancy_from_bev_dense` takes each row's norm
by its definition, and only `test_norms_match_dense` compares it.

The rule: one reference per stage.  A faster version of a stage adds its
cases to the tests against the stage's reference here, never a new
reference: the version it replaces is deleted, not kept as a second
oracle.  A second function stays only where it checks another behaviour:

- `oracle_noisy_predict` is the written definition of the noisy depth
  oracle (box blur, then a Gaussian over the bins), within 1e-15, beside
  the reference `predict_depth_full_image`;
- `share_whole_clouds` sends every neighbor its whole cloud, which bounds
  the size of each reply, beside the bit reference `share_clouds_per_edge`,
  which pins the ledger's reply sizes edge by edge.

`merge_cooperative_pairs` is the reference of the cooperative merge: it
takes each reply as the (pixel, depth) pairs a neighbor found, before they
are binned and encoded, and keeps the minimum depth per pixel.

The equivalence contract has three levels:

- Same code, config and seed: `metrics.csv` is byte-identical.
- Program against reference: integer outputs match exactly (cells,
  counts, categories, hit kinds, the number of detections), and floats
  match within FLOAT_TOLERANCE (`equivalent`).  A stage may multiply other
  rows in one product than its reference does, and a product's rounding
  can depend on its shape.
- Whole-trial replays (`use_reference_pipeline`) compare bit for bit,
  with BLAS on one thread (`conftest.py`).

Where one rounding decides a discrete outcome, the program computes it as
its reference does, and their results are compared exactly:
`robust._greedy_matches`' (1, 2) @ (2, 1) norms decide which pairs pass
the gate, `robust._min_area_rects`' stacked product chooses each
rectangle's edge, and `scene._ray_wall_t` sums a ray's along-edge
coordinate elementwise, which decides a hit at a wall's end.
"""

from __future__ import annotations

import functools
from collections import Counter, deque
from types import SimpleNamespace

import numpy as np

from covox import cli, collab, depth, metrics, nnkit, scene
from covox.depth import DepthMap, NoisyOraclePredictor, predict_depth
from covox.fusion import compute_guidance, fuse_hybrid_cells
from covox.geometry import compose, invert, pixel_rays, planar_parts, project_points, transform_points
from covox.metrics import Detection, _by_descending_score, clip_polygon, polygon_area
from covox.nnkit import EmptyKeySet, MhaParams, softmax, split_heads
from covox.robust import _MIN_CELLS, _REL_THRESHOLD, _box_extent
from covox.voxel import Category, GridSpec, VoxelGrid

# Program against reference: the largest gap a float may show, as a share of
# the largest finite magnitude in the reference's array.
FLOAT_TOLERANCE = 1e-12


def equivalent(got, want) -> bool:
    """Whether `got`, a stage's output, matches `want`, its reference's, as
    the contract asks: arrays, or sequences of them in the same order.
    Integer and boolean arrays must be equal.  Float arrays must hold no
    NaN, the same infinities, and finite values at most FLOAT_TOLERANCE
    times the largest finite magnitude of `want` apart."""
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(map(equivalent, got, want))
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    if want.dtype.kind != "f":
        return got.dtype.kind in "biu" and np.array_equal(got, want)
    finite = np.isfinite(want)  # a NaN in either array fails one of the checks below
    if got.dtype.kind != "f" or not np.array_equal(np.isfinite(got), finite):
        return False
    if not np.array_equal(got[~finite], want[~finite]):
        return False
    gap = np.abs(got[finite] - want[finite]).max(initial=0.0)
    return bool(gap <= FLOAT_TOLERANCE * np.abs(want[finite]).max(initial=0.0))


# --- dense and sparse grids -------------------------------------------------------


def dense(grid):
    """A grid as dense (nx, ny, nz, C) features and (nx, ny, nz) tags; its
    unlisted voxels are untagged and zero."""
    s = grid.spec
    feats = np.zeros((s.nx * s.ny * s.nz, s.channels))
    feats[grid.voxels] = grid.features
    category = np.zeros(s.nx * s.ny * s.nz, dtype=np.uint8)
    category[grid.voxels] = grid.category
    return feats.reshape(s.nx, s.ny, s.nz, s.channels), category.reshape(s.nx, s.ny, s.nz)


def dense_categorized(cat):
    """A categorized grid as dense LiDAR features, camera features and tags."""
    s = cat.spec
    lidar, camera = (np.zeros((s.nx * s.ny * s.nz, s.channels)) for _ in range(2))
    lidar[cat.voxels] = cat.lidar
    camera[cat.voxels] = cat.camera
    category = np.zeros(s.nx * s.ny * s.nz, dtype=np.uint8)
    category[cat.voxels] = cat.category
    shape = (s.nx, s.ny, s.nz)
    return lidar.reshape(shape + (s.channels,)), camera.reshape(shape + (s.channels,)), category.reshape(shape)


def dense_zeros(spec):
    """Dense features and tags of a grid with no tagged voxel."""
    return dense(VoxelGrid.empty(spec))


def sparse(spec, features, category):
    """The grid that lists the tagged voxels of dense features and tags."""
    voxels = np.flatnonzero(category)
    return VoxelGrid(spec, voxels, features.reshape(-1, spec.channels)[voxels],
                     category.reshape(-1)[voxels])


def nonzero_cells(plane):
    """Flat indices of the nonzero cells of an (nx, ny, F) plane, by a scan
    of the whole plane."""
    plane = np.asarray(plane)
    return np.flatnonzero(np.any(plane.reshape(-1, plane.shape[2]) != 0, axis=1))


def rows_of(plane):
    """The nonzero cells of an (nx, ny, F) plane, by a scan of the whole
    plane, and a copy of their rows: the BEV as the program carries it."""
    plane = np.asarray(plane, dtype=np.float64)
    cells = nonzero_cells(plane)
    return cells, plane.reshape(-1, plane.shape[2])[cells]


def plane_of(spec, cells, rows):
    """The fresh (nx, ny, F) plane of `spec` whose cells `cells` hold `rows`
    and whose other cells are zero."""
    f = spec.bev_channels
    plane = np.zeros((spec.nx, spec.ny, f))
    plane.reshape(-1, f)[cells] = np.asarray(rows).reshape(-1, f)
    return plane


def warped_of(spec, planes):
    """`collab.WarpedPlanes` of neighbor planes of `spec`, each written at
    its nonzero cells, by a scan of the whole plane."""
    cells = [nonzero_cells(p) for p in planes]
    vectors = [np.asarray(p, dtype=np.float64).reshape(-1, spec.bev_channels)[c]
               for p, c in zip(planes, cells)]
    return collab.WarpedPlanes(spec, cells, vectors, [np.arange(c.size) for c in cells], 0, 0)


def spec_of(plane):
    """A grid spec whose BEV planes have the shape of `plane` (one z level)."""
    nx, ny, f = np.shape(plane)
    return GridSpec((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), nx, ny, 1, f)


# --- sense -------------------------------------------------------------------------


def oracle_ray_box_t(origin, dirs, box):
    """Slab-method entry distance of every ray (inf where the box is missed)."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])  # world -> box
    o = rot @ (np.asarray(origin, dtype=np.float64) - np.array([*box.center, 0.0]))
    d = np.asarray(dirs, dtype=np.float64) @ rot.T
    lo = np.array([-box.extent[0] / 2, -box.extent[1] / 2, 0.0])
    hi = np.array([box.extent[0] / 2, box.extent[1] / 2, box.extent[2]])
    near = np.full(d.shape[0], -np.inf)
    far = np.full(d.shape[0], np.inf)
    for ax in range(3):
        da = d[:, ax]
        moving = np.abs(da) > scene._EPS
        with np.errstate(divide="ignore"):
            t1 = (lo[ax] - o[ax]) / np.where(moving, da, 1.0)
            t2 = (hi[ax] - o[ax]) / np.where(moving, da, 1.0)
        a_near = np.minimum(t1, t2)
        a_far = np.maximum(t1, t2)
        inside = lo[ax] <= o[ax] <= hi[ax]
        a_near = np.where(moving, a_near, -np.inf if inside else np.inf)
        a_far = np.where(moving, a_far, np.inf if inside else -np.inf)
        near = np.maximum(near, a_near)
        far = np.minimum(far, a_far)
    hit = (near <= far) & (near > scene._EPS)
    return np.where(hit, near, np.inf)


def oracle_ray_wall_t(origin, dirs, wall):
    """First intersection of every ray with an opaque vertical rectangle."""
    p1 = np.array(wall.p1, dtype=np.float64)
    edge = np.array(wall.p2, dtype=np.float64) - p1
    n = np.array([-edge[1], edge[0], 0.0])
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(dirs, dtype=np.float64)
    if not edge @ edge:
        return np.full(len(d), np.inf)
    denom = d @ n
    moving = np.abs(denom) > scene._EPS
    t = np.where(
        moving,
        ((np.array([*p1, 0.0]) - o) @ n) / np.where(moving, denom, 1.0),
        np.inf,
    )
    q = o + np.where(np.isfinite(t), t, 0.0)[:, None] * d
    along = ((q[:, :2] - p1) * edge).sum(axis=1) / (edge @ edge)
    ok = (
        moving
        & (t > scene._EPS)
        & (along >= 0.0)
        & (along <= 1.0)
        & (q[:, 2] >= wall.z0)
        & (q[:, 2] <= wall.z0 + wall.height)
    )
    return np.where(ok, t, np.inf)


def oracle_raycast(origin, dirs, fan, objects, occluders, max_range=np.inf):
    """`scene.raycast` with every wall and every box tested on every ray;
    `fan` is not read."""
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    best = scene._ray_ground_t(origin, dirs)
    kind = np.where(best < np.inf, scene.HIT_GROUND, scene.HIT_NONE).astype(np.uint8)
    hits = [(oracle_ray_wall_t(origin, dirs, w), scene.HIT_WALL) for w in occluders]
    hits += [(oracle_ray_box_t(origin, dirs, b), scene.HIT_OBJECT) for b in objects]
    for t, cls in hits:
        closer = t < best
        best[closer] = t[closer]
        kind[closer] = cls
    out_of_range = best > max_range
    best[out_of_range] = np.inf
    kind[out_of_range] = scene.HIT_NONE
    return best, kind


def cell_of(spec, pts):
    """Each of the (N, 3) points' integer (ix, iy, iz) cell of `spec`, and
    whether it lies inside the grid."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    lo = np.array([spec.x_range[0], spec.y_range[0], spec.z_range[0]])
    idx = np.floor((pts - lo) / np.array([spec.dx, spec.dy, spec.dz])).astype(np.int64)
    inside = np.all((idx >= 0) & (idx < np.array([spec.nx, spec.ny, spec.nz])), axis=1)
    return idx, inside


def voxelize_points_dense(cloud, spec):
    """Pillar encoding with one bincount over every voxel of the grid per
    sum, and the occupied voxels found by a scan of the counts."""
    feats, category = dense_zeros(spec)
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    idx, inside = cell_of(spec, pts)
    pts, idx = pts[inside], idx[inside]
    if pts.shape[0] == 0:
        return sparse(spec, feats, category)
    flat = (idx[:, 0] * spec.ny + idx[:, 1]) * spec.nz + idx[:, 2]
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], flat))
    pts, flat = pts[order], flat[order]
    n_cells = spec.nx * spec.ny * spec.nz
    counts = np.bincount(flat, minlength=n_cells)
    sums = np.stack(
        [np.bincount(flat, weights=pts[:, k], minlength=n_cells) for k in range(3)], axis=1
    )
    occupied = np.flatnonzero(counts)
    means = sums[occupied] / counts[occupied, None]
    centers = spec.cell_center(*np.unravel_index(occupied, (spec.nx, spec.ny, spec.nz)))
    rows = feats.reshape(n_cells, spec.channels)
    rows[occupied, 0] = np.log1p(counts[occupied])
    rows[occupied, 1:4] = means - centers
    rows[occupied, 4] = means[:, 2]
    category.reshape(n_cells)[occupied] = Category.LIDAR
    return sparse(spec, feats, category)


# --- depth -------------------------------------------------------------------------


def min_depth_image_by_minimum_at(cloud, intr, bins):
    """The (H, W) image of each pixel's minimum projected depth below d_max
    (inf = none): every projected depth scattered with np.minimum.at."""
    img = np.full(intr.height * intr.width, np.inf)
    pix, dist, _ = project_points(intr, np.asarray(cloud, dtype=np.float64).reshape(-1, 3))
    keep = dist < bins.d_max
    np.minimum.at(img, pix[keep, 1] * intr.width + pix[keep, 0], dist[keep])
    return img.reshape(intr.height, intr.width)


def project_cloud_to_depthmap_by_image(cloud, intr, bins):
    """`depth.project_cloud_to_depthmap`: the bins of the whole image of
    minimum depths, at the pixels it holds a depth."""
    dmap = DepthMap.empty(bins, intr.height, intr.width)
    img = min_depth_image_by_minimum_at(cloud, intr, bins)
    hit = np.isfinite(img)
    k, valid = bins.bin_of(img[hit])
    if not np.all(valid):
        raise ValueError("project_cloud_to_depthmap: projected depth outside the bin range")
    dmap.bin_idx[hit] = k.astype(np.int16)
    dmap.source[hit] = depth.DepthSource.EGO_PROJECTED
    return dmap


def window_counts(true_depth_image, predictor, bins):
    """(H, W, D) per-bin pixel counts of each pixel's window, clipped to
    the image, with the bin of an out-of-range depth the farthest."""
    h, w = np.asarray(true_depth_image).shape
    d = bins.n_bins
    k, valid = bins.bin_of(true_depth_image)
    k = np.where(valid, k, d - 1)
    r = predictor.blur_radius
    onehot = np.zeros((h + 2 * r, w + 2 * r, d), dtype=np.int32)  # zero-padded
    np.put_along_axis(onehot[r : r + h, r : r + w], k[:, :, None], 1, axis=2)
    rows = sum(onehot[i : i + h] for i in range(2 * r + 1))
    return sum(rows[:, j : j + w] for j in range(2 * r + 1))


def predict_depth_full_image(true_depth_image, predictor, bins):
    """`predict_depth` pixel by pixel: every pixel's window counts times
    the Gaussian table, normalised."""
    if not isinstance(predictor, NoisyOraclePredictor):
        return predict_depth(true_depth_image, predictor, bins)
    h, w = np.asarray(true_depth_image).shape
    d = bins.n_bins
    counts = window_counts(true_depth_image, predictor, bins)
    table = depth._bin_gaussian_table(predictor.sigma_bins, d)
    vol = counts.reshape(h * w, d).astype(np.float64) @ table
    vol /= vol.sum(axis=1, keepdims=True)
    return vol.reshape(h, w, d)


def _box_blur_2d(vol, radius):
    """Mean filter over a (2r+1)^2 window, edge windows renormalised."""
    if radius == 0:
        return vol
    h, w = vol.shape[:2]
    out = np.zeros_like(vol)
    norm = np.zeros((h, w))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            # Stops clamp at 0: a shift wider than the image overlaps nothing.
            ys = slice(max(0, dy), max(0, h + min(0, dy)))
            yd = slice(max(0, -dy), max(0, h + min(0, -dy)))
            xs = slice(max(0, dx), max(0, w + min(0, dx)))
            xd = slice(max(0, -dx), max(0, w + min(0, -dx)))
            out[yd, xd] += vol[ys, xs]
            norm[yd, xd] += 1.0
    return out / norm.reshape(h, w, *([1] * (vol.ndim - 2)))


def _bin_gaussian_kernel(sigma, n_bins):
    if sigma == 0:
        return np.array([1.0])
    half = min(n_bins - 1, int(np.ceil(4 * sigma)))
    k = np.arange(-half, half + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # a tiny sigma leaves only the centre
        g = np.exp(-0.5 * (k / sigma) ** 2)
    return g / g.sum()


def oracle_noisy_predict(true_depth_image, predictor, bins):
    """The noisy depth oracle as written down, checked within 1e-15 rather
    than bit for bit: a one-hot volume, box-blurred as a mean over shifted
    copies, then a stack of shifted copies of the zero-padded bin axis
    weighted by the Gaussian, then renormalised."""
    h, w = true_depth_image.shape
    d = bins.n_bins
    k, valid = bins.bin_of(true_depth_image)
    k = np.where(valid, k, d - 1)
    vol = np.zeros((h, w, d))
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    vol[ys, xs, k] = 1.0
    vol = _box_blur_2d(vol, predictor.blur_radius)
    kern = _bin_gaussian_kernel(predictor.sigma_bins, d)
    if kern.size > 1:
        half = kern.size // 2
        padded = np.concatenate([np.zeros((h, w, half)), vol, np.zeros((h, w, half))], axis=2)
        vol = np.stack([padded[:, :, i : i + d] * kern[i] for i in range(kern.size)]).sum(axis=0)
    vol /= vol.sum(axis=2, keepdims=True)
    return vol


def merge_cooperative_pairs(ego_map, replies, intr, bins):
    """`depth.merge_cooperative` on replies of (pixel, depth) pairs: each
    absent pixel of the ego map takes the bin of the smallest depth any
    neighbor sent for it.  A pixel outside the image or a depth not below
    d_max is an error."""
    merged = ego_map.copy()
    if not replies:
        return merged
    n_pixels = intr.height * intr.width
    pixels = np.concatenate([np.asarray(p, dtype=np.int64).reshape(-1) for p, _ in replies])
    depths = np.concatenate([np.asarray(d, dtype=np.float64).reshape(-1) for _, d in replies])
    if np.any((pixels < 0) | (pixels >= n_pixels)):
        raise ValueError("merge_cooperative_pairs: reply pixel outside the image")
    if not np.all(depths < bins.d_max):
        raise ValueError("merge_cooperative_pairs: shared depth outside the bin range")
    best = np.full(n_pixels, np.inf)
    np.minimum.at(best, pixels, depths)
    best = best.reshape(intr.height, intr.width)
    write = (merged.source == depth.DepthSource.ABSENT) & np.isfinite(best)
    k, _ = bins.bin_of(best[write])
    merged.bin_idx[write] = k.astype(np.int16)
    merged.source[write] = depth.DepthSource.NEIGHBOR_PROJECTED
    return merged


def reply_of(pixels, depths, bins):
    """One phase-1 reply encoded on its own: the per-bin counts of the
    depths and the pixels sorted by bin, in their given order within a
    bin."""
    k, valid = bins.bin_of(depths)
    assert np.all(valid)
    counts = np.array([np.count_nonzero(k == b) for b in range(bins.n_bins)], dtype=np.int64)
    pixels = np.asarray(pixels, dtype=np.int64)
    return depth.DepthReply(counts, np.concatenate([pixels[k == b] for b in range(bins.n_bins)]))


# --- lift, categorize, fuse, collapse ------------------------------------------------


def lift_camera_dense(features, dist, intr, cam_pose_in_ego, spec, mass_threshold, bin_centers):
    """`lift_camera` transforming and binning every (pixel, depth bin)
    entry per call.  Returns the lifted grid, the mass that fell outside
    it and the dense (nx, ny, nz) mass of every voxel."""
    dist = np.asarray(dist, dtype=np.float64)
    pts = pixel_rays(intr)[:, :, None, :] * np.asarray(bin_centers)[None, None, :, None]
    pts = transform_points(cam_pose_in_ego, pts.reshape(-1, 3))
    idx, inside = cell_of(spec, pts)
    mass = dist.reshape(-1)
    dropped = float(mass[~inside].sum())
    n_cells = spec.nx * spec.ny * spec.nz
    flat = (idx[inside, 0] * spec.ny + idx[inside, 1]) * spec.nz + idx[inside, 2]
    cell_mass = np.bincount(flat, weights=mass[inside], minlength=n_cells)
    contrib = (features[:, :, None, :] * dist[..., None]).reshape(-1, spec.channels)
    feats = np.zeros((n_cells, spec.channels))
    np.add.at(feats, flat, contrib[inside])
    tagged = (cell_mass >= mass_threshold) & (cell_mass > 0.0)
    feats[~tagged] = 0.0
    category = np.where(tagged, Category.CAMERA, Category.NORMAL).astype(np.uint8)
    return SimpleNamespace(grid=sparse(spec, feats, category), dropped_mass=dropped,
                           mass=cell_mass.reshape(spec.nx, spec.ny, spec.nz))


def categorize_dense(lidar_grid, camera_grid):
    """Both branches and the tags as dense arrays over every voxel; the
    dense fusions below take this."""
    lidar, has_l = dense(lidar_grid)
    camera, has_c = dense(camera_grid)
    category = np.zeros_like(has_l)
    category[has_l == Category.LIDAR] = Category.LIDAR
    category[has_c == Category.CAMERA] = Category.CAMERA
    category[(has_l == Category.LIDAR) & (has_c == Category.CAMERA)] = Category.HYBRID
    return SimpleNamespace(spec=lidar_grid.spec, lidar=lidar, camera=camera, category=category)


def fuse_modalities_masked(params, cat):
    features = np.zeros_like(cat.lidar)
    category = cat.category.copy()
    lidar_mask = cat.category == Category.LIDAR
    features[lidar_mask] = cat.lidar[lidar_mask]
    hybrid_mask = cat.category == Category.HYBRID
    if np.any(hybrid_mask):
        features[hybrid_mask] = fuse_hybrid_cells(
            params, cat.lidar[hybrid_mask], cat.camera[hybrid_mask]
        )
    camera_mask = cat.category == Category.CAMERA
    if np.any(camera_mask):
        guidance_pool = cat.lidar[lidar_mask | hybrid_mask]
        keep = compute_guidance(params, guidance_pool, cat.camera[camera_mask])
        cam_idx = np.argwhere(camera_mask)
        kept = cam_idx[keep == 1]
        dropped = cam_idx[keep == 0]
        features[kept[:, 0], kept[:, 1], kept[:, 2]] = cat.camera[
            kept[:, 0], kept[:, 1], kept[:, 2]
        ]
        category[dropped[:, 0], dropped[:, 1], dropped[:, 2]] = Category.NORMAL
    return sparse(cat.spec, features, category)


def fuse_modalities_equal_masked(lin, cat):
    features = np.zeros_like(cat.lidar)
    lidar_mask = cat.category == Category.LIDAR
    features[lidar_mask] = cat.lidar[lidar_mask]
    camera_mask = cat.category == Category.CAMERA
    features[camera_mask] = cat.camera[camera_mask]
    hybrid_mask = cat.category == Category.HYBRID
    if np.any(hybrid_mask):
        pair = np.concatenate([cat.lidar[hybrid_mask], cat.camera[hybrid_mask]], axis=1)
        features[hybrid_mask] = lin.apply(pair)
    return sparse(cat.spec, features, cat.category)


def collapse_dense(grid):
    """The dense plane's columns that hold a tagged voxel, and their rows."""
    s = grid.spec
    features, category = dense(grid)
    columns = np.flatnonzero(np.any(category != Category.NORMAL, axis=2))
    return columns, features.reshape(s.nx * s.ny, s.nz * s.channels)[columns]


# --- mask and message ----------------------------------------------------------------


def importance_scores_dense(cells, rows, grid):
    """Every cell's score, read from the whole plane."""
    bev = plane_of(grid, cells, rows)
    level = np.linalg.norm(bev, axis=2) / np.sqrt(bev.shape[2])
    return 1.0 / (1.0 + np.exp(-(collab._IMPORTANCE_GAIN * level - collab._IMPORTANCE_SHIFT)))


def preference_map_dense(grid):
    """Every column's threshold."""
    return np.where(np.any(dense(grid)[1] == Category.HYBRID, axis=2), 0.0, 0.5)


def pack_message_dense(cells, rows, mask):
    """Every masked cell of the whole plane, then its nonzero rows."""
    mask = np.asarray(mask)
    bev = np.zeros(mask.shape + (np.shape(rows)[1],))
    bev.reshape(-1, bev.shape[2])[cells] = rows
    idx = np.flatnonzero(mask == 1)
    vecs = bev.reshape(-1, bev.shape[2])[idx]
    keep = np.any(vecs != 0.0, axis=1) if vecs.size else np.zeros(0, dtype=bool)
    idx, vecs = idx[keep], vecs[keep]
    return collab.Message(idx, np.array(vecs), int(np.count_nonzero(vecs)))


# --- exchange ------------------------------------------------------------------------


def share_clouds_per_edge(works, scenario, pipe, ledger):
    """`collab._share_clouds` with each request answered on its own: a
    projection and a nearest-point search per edge, whose pixels and depths
    are encoded on their own (`reply_of`), charged D + P scalars for D bins
    and P pixels, and 0 without pixels."""
    if pipe.depth_projection != "all":
        return
    payloads = {}
    for w in works.values():
        if not collab._renders_camera(w.state, pipe):
            continue
        for j in w.neighbors:
            sender = works[j]
            if not sender.state.has_lidar:
                continue
            if j not in payloads:
                payloads[j] = collab.downsample_cloud(sender.cloud, collab._PAYLOAD_CELL)
            ledger.add(w.state.id, j, "depth", collab._REQUEST_ELEMENTS)
            cam = collab.transform_points(compose(collab._CAM_FROM_AGENT, w.rel[j]), payloads[j])
            pixels, depths = depth.nearest_per_pixel(cam, scenario.camera, pipe.bins)
            ledger.add(j, w.state.id, "depth", pipe.bins.n_bins + pixels.size if pixels.size else 0)
            w.shared.append(reply_of(pixels, depths, pipe.bins))


def share_whole_clouds(works, scenario, pipe, ledger):
    """Phase 1 as an upper bound on the replies, not a bit reference for
    the ledger: every connected LiDAR agent sends its whole downsampled
    cloud to every neighbor, charged 3 scalars per point.  The neighbor
    moves it into its camera frame with the pose it uses for that neighbor
    and merges every point that projects into its image below d_max,
    encoded as a reply of its own (`reply_of`)."""
    if pipe.depth_projection != "all":
        return
    payloads = {
        aid: collab.downsample_cloud(w.cloud, collab._PAYLOAD_CELL)
        for aid, w in works.items() if w.neighbors and w.state.has_lidar
    }
    intr = scenario.camera
    for w in works.values():
        for j in w.neighbors:
            cloud = payloads.get(j)
            if cloud is None:
                continue
            ledger.add(j, w.state.id, "depth", 3 * cloud.shape[0])
            if collab._renders_camera(w.state, pipe):
                cam_from_sender = compose(invert(scene.DEFAULT_CAMERA_MOUNT), w.rel[j])
                pix, dist, _ = project_points(intr, transform_points(cam_from_sender, cloud))
                keep = dist < pipe.bins.d_max
                w.shared.append(
                    reply_of(pix[keep, 1] * intr.width + pix[keep, 0], dist[keep], pipe.bins))


def warp_message_fresh(message, rel_pose, spec):
    """One message warped on its own into a fresh zero plane: the plane and
    the `collab.WarpedPlanes` of that message alone."""
    f = spec.bev_channels
    bev = np.zeros((spec.nx, spec.ny, f))
    no_cells = np.zeros(0, dtype=np.int64)
    indices = np.asarray(message.indices).reshape(-1)
    vectors = np.asarray(message.vectors, dtype=np.float64).reshape(-1, f)

    def result(cells, rows, collisions, dropped):
        return bev, collab.WarpedPlanes(spec, [cells], [vectors], [rows], collisions, dropped)

    if indices.size == 0:
        return result(no_cells, no_cells, 0, 0)
    ix, iy = np.unravel_index(indices, (spec.nx, spec.ny))
    centers = spec.bev_cell_centers(ix, iy)
    x, y, yaw = planar_parts(rel_pose)
    c, s = np.cos(yaw), np.sin(yaw)
    px = c * centers[:, 0] - s * centers[:, 1] + x
    py = s * centers[:, 0] + c * centers[:, 1] + y
    ix = np.floor((px - spec.x_range[0]) / spec.dx).astype(np.int64)
    iy = np.floor((py - spec.y_range[0]) / spec.dy).astype(np.int64)
    inb = (ix >= 0) & (ix < spec.nx) & (iy >= 0) & (iy < spec.ny)
    dropped = int(np.count_nonzero(~inb))
    rows = np.flatnonzero(inb)
    if rows.size == 0:
        return result(no_cells, no_cells, 0, dropped)
    flat = ix[rows] * spec.ny + iy[rows]
    uniq, first_in_rev = np.unique(flat[::-1], return_index=True)
    last = rows[flat.size - 1 - first_in_rev]
    bev.reshape(-1, f)[uniq] = vectors[last]
    return result(uniq, last, int(flat.size - uniq.size), dropped)


def attention_weights(params: MhaParams, queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per-head scaled dot-product softmax weights, shape (H, Nq, Nk).

    queries: (Nq, D); keys: (Nk, D) with Nk >= 1.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    if keys.shape[0] == 0:
        raise EmptyKeySet("attention requires at least one key")
    h = params.n_heads
    q = split_heads(params.wq.apply(queries), h)  # (H, Nq, dh)
    k = split_heads(params.wk.apply(keys), h)  # (H, Nk, dh)
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(params.head_dim)  # (H, Nq, Nk)
    return softmax(scores, axis=-1)


def mha(params: MhaParams, queries: np.ndarray, keys: np.ndarray, values: np.ndarray):
    """Scaled dot-product multi-head attention.

    The projections are bias-free, so an all-zero value row contributes
    nothing and all-zero values give an all-zero output.
    queries: (Nq, D); keys/values: (Nk, D) with Nk >= 1.
    Returns (outputs (Nq, D), attn (Nq, Nk)) where attn is the head-mean
    attention weight matrix.
    """
    weights = attention_weights(params, queries, keys)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if weights.shape[-1] != values.shape[0]:
        raise ValueError("keys and values must pair up")
    v = split_heads(params.wv.apply(values), params.n_heads)
    ctx = weights @ v  # (H, Nq, dh)
    ctx = np.moveaxis(ctx, 0, 1).reshape(weights.shape[1], params.dim)
    out = params.wo.apply(ctx)
    return out, weights.mean(axis=0)


def aggregate_dense(params, grid, warped, ego_cells, ego_rows):
    """`collab.aggregate`: attention over every cell's full token stack, an
    all-zero neighbor token left out of the softmax."""
    ego = plane_of(grid, ego_cells, ego_rows)
    nx, ny, f = ego.shape
    n_cells = nx * ny
    tokens = np.stack([ego] + [np.asarray(w, dtype=np.float64) for w in warped])
    t = tokens.shape[0]
    flat = tokens.reshape(t, n_cells, f)
    valid = np.ones((t, n_cells), dtype=bool)
    if t > 1:
        valid[1:] = np.any(flat[1:] != 0.0, axis=2)
    h, dh = params.n_heads, params.head_dim
    q = params.wq.apply(flat[0]).reshape(n_cells, h, dh)
    k = params.wk.apply(flat).reshape(t, n_cells, h, dh)
    v = params.wv.apply(flat).reshape(t, n_cells, h, dh)
    scores = np.einsum("chd,tchd->tch", q, k) / np.sqrt(dh)
    scores[~valid] = -np.inf
    weights = nnkit.softmax(scores, axis=0)
    ctx = np.einsum("tch,tchd->chd", weights, v).reshape(n_cells, f)
    return params.wo.apply(ctx).reshape(nx, ny, f)


def aggregate_max_dense(grid, warped, ego_cells, ego_rows):
    """Max over every cell's token stack [ego, neighbors...], an all-zero
    (unsent) neighbor token counting as -inf."""
    tokens = [plane_of(grid, ego_cells, ego_rows)]
    tokens += [np.where(np.any(w != 0.0, axis=2, keepdims=True), w, -np.inf) for w in warped]
    return np.max(np.stack(tokens), axis=0)


def concat_dense(lin, grid, warped, ego_cells, ego_rows):
    """`collab.aggregate_concat` on whole planes: the ego's and the first
    three neighbor planes, zero planes for the missing ones, stacked on the
    channel axis and mapped."""
    ego = plane_of(grid, ego_cells, ego_rows)
    planes = [ego, *warped[:3]] + [np.zeros_like(ego)] * (3 - len(warped[:3]))
    return lin.apply(np.concatenate(planes, axis=2))


# --- perceive and receive ------------------------------------------------------------


def perceive_whole_plane(w, objects, occluders, scenario, pipe, params):
    """`collab._perceive` with the BEV's nonzero cells, scores, thresholds
    and message read from the whole plane and grid.  It calls its stages by
    their names in `collab`, so a swap of those reaches it."""
    camera_grid = VoxelGrid.empty(pipe.grid)
    if collab._renders_camera(w.state, pipe):
        depth_img, feat_img = collab.simulate_camera(
            w.state, objects, occluders, scenario.camera, pipe.grid.channels
        )
        if pipe.depth_projection != "no" and w.state.has_lidar:
            cloud_cam = collab.transform_points(collab._CAM_FROM_LIDAR, w.cloud_sensor)
            dmap = collab.project_cloud_to_depthmap(cloud_cam, scenario.camera, pipe.bins)
        else:
            dmap = DepthMap.empty(pipe.bins, scenario.camera.height, scenario.camera.width)
        if pipe.depth_projection == "all":
            dmap = collab.merge_cooperative(dmap, w.shared, scenario.camera, pipe.bins)
        pred = collab.predict_depth(depth_img, pipe.predictor, pipe.bins)
        dist = collab.finalize_distribution(dmap, pred)
        camera_grid = collab.lift_camera(
            feat_img, dist, scenario.camera, scene.DEFAULT_CAMERA_MOUNT,
            pipe.grid, pipe.mass_threshold, pipe.bins.centers(),
        ).grid
        w.depth_map = dmap
    cat = collab.categorize(w.lidar_grid, camera_grid)
    if pipe.fusion_mode == "equal":
        fused = collab.fuse_modalities_equal(params.equal_lin, cat)
    else:
        fused = collab.fuse_modalities(params.fusion, cat)
    w.bev_cells, w.bev_rows = rows_of(plane_of(pipe.grid, *collab.collapse(fused)))
    w.mask = collab.confidence_mask(
        collab.importance_scores(w.bev_cells, w.bev_rows, pipe.grid),
        collab.preference_map(fused))
    w.message = collab.pack_message(w.bev_cells, w.bev_rows, w.mask)
    w.cloud_sensor = w.shared = None


def receive_fresh(w, rounds, pipe, params, ledger, tokens):
    """`collab._receive` with each message warped on its own into a fresh
    zero plane, attention on whole token stacks and the aggregated BEV's
    nonzero rows found by a scan of the whole plane; `tokens` is not
    read."""
    warped = []
    collisions = 0
    for j in w.neighbors:
        msg = rounds[j].message
        plane, wr = warp_message_fresh(msg, w.rel[j], pipe.grid)
        warped.append(plane)
        collisions += wr.collisions
        ledger.add(j, w.state.id, "feature", msg.feature_elements)
    ego = (pipe.grid, warped, w.bev_cells, w.bev_rows)
    if pipe.collab_mode == "attention":
        agg = aggregate_dense(params.agg_mha, *ego)
    elif pipe.collab_mode == "max":
        agg = aggregate_max_dense(*ego)
    else:
        agg = concat_dense(params.concat_lin, *ego)
    w.aggregated_cells, w.aggregated_rows = rows_of(agg)
    w.warp_collisions = collisions


# --- detection and pose correction ---------------------------------------------------


def occupancy_from_grid_dense(grid):
    """Every column's z-sum, and the columns with a tagged voxel, by a scan
    of the whole grid, with their sums."""
    feats, category = dense(grid)
    columns = np.flatnonzero(np.any(category != 0, axis=2))
    return columns, feats[:, :, :, 0].sum(axis=2).reshape(-1)[columns]


def occupancy_from_bev_dense(rows):
    """Each row's norm, by its definition: the square root of its sum of
    squares."""
    rows = np.asarray(rows, dtype=np.float64)
    return np.sqrt(np.sum(rows * rows, axis=1))


def components_by_label_array(mask):
    """8-connected components of a boolean grid in scan order, each as its
    (x, y) cells breadth-first from its first cell, by a queue over a label
    array."""
    mask = np.asarray(mask, dtype=bool)
    labels = np.full(mask.shape, -1, dtype=np.int32)
    comps = []
    for sx, sy in zip(*np.nonzero(mask)):
        if labels[sx, sy] >= 0:
            continue
        label = len(comps)
        queue = deque([(sx, sy)])
        labels[sx, sy] = label
        cells = []
        while queue:
            x, y = queue.popleft()
            cells.append((x, y))
            for nx_ in (x - 1, x, x + 1):
                for ny_ in (y - 1, y, y + 1):
                    if (
                        0 <= nx_ < mask.shape[0]
                        and 0 <= ny_ < mask.shape[1]
                        and mask[nx_, ny_]
                        and labels[nx_, ny_] < 0
                    ):
                        labels[nx_, ny_] = label
                        queue.append((nx_, ny_))
        comps.append(np.array(cells, dtype=np.int64))
    return comps


def convex_hull_of_arrays(points):
    """Andrew's monotone chain over numpy rows, which it sorts and
    de-duplicates itself."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if pts.shape[0] <= 2:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                a, b = chain[-1] - chain[-2], p - chain[-2]
                if a[0] * b[1] - a[1] * b[0] > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    hull = np.array(half(pts)[:-1] + half(pts[::-1])[:-1])
    return hull if hull.shape[0] >= 3 else pts


def min_area_rect_per_set(points):
    """The minimum-area oriented rectangle of one point set: its hull
    rotated onto every hull edge in one (E, H, 2) product, then the first
    edge of least area.  Returns (center (2,), yaw, (length, width))."""
    hull = convex_hull_of_arrays(points)
    if hull.shape[0] == 1:
        return hull[0], 0.0, (0.0, 0.0)
    if hull.shape[0] == 2:
        edges = hull[1:] - hull[:1]
    else:
        edges = np.diff(np.vstack([hull, hull[:1]]), axis=0)
    thetas = np.arctan2(edges[:, 1], edges[:, 0])
    c, s = np.cos(-thetas), np.sin(-thetas)
    rots = np.empty((len(thetas), 2, 2))
    rots[:, 0, 0] = rots[:, 1, 1] = c
    rots[:, 0, 1], rots[:, 1, 0] = -s, s
    local = hull @ rots.transpose(0, 2, 1)
    lo, hi = local.min(axis=1), local.max(axis=1)
    areas = np.prod(hi - lo, axis=1).tolist()
    k = 0
    for i, area in enumerate(areas):
        if area < areas[k] - 1e-12:
            k = i
    center = rots[k].T @ ((lo[k] + hi[k]) / 2.0)
    theta = thetas[k]
    ex, ey = hi[k] - lo[k]
    if ex >= ey:
        length, width, yaw = ex, ey, theta
    else:
        length, width, yaw = ey, ex, theta + np.pi / 2.0
    yaw = (yaw + np.pi / 2.0) % np.pi - np.pi / 2.0
    return center, float(yaw), (float(length), float(width))


def detect_local_per_component(cells, values, spec):
    """`robust.detect_local` on the whole (nx, ny) map that `values` at
    `cells` spread into, with each component's rectangle fitted on its own,
    from its centres in breadth-first order."""
    occ = np.zeros(spec.nx * spec.ny)
    occ[cells] = values
    occ = occ.reshape(spec.nx, spec.ny)
    peak = occ.max(initial=0.0)
    if peak <= 0.0:
        return []
    mask = occ > _REL_THRESHOLD * peak
    dets = []
    for cells in components_by_label_array(mask):
        if cells.shape[0] < _MIN_CELLS:
            continue
        centers = spec.bev_cell_centers(cells[:, 0], cells[:, 1])
        center, yaw, (length, width) = min_area_rect_per_set(centers)
        score = float(1.0 - np.exp(-occ[cells[:, 0], cells[:, 1]].mean()))
        dets.append(
            Detection(
                center=(float(center[0]), float(center[1])),
                yaw=yaw,
                extent=_box_extent(length, width, spec),
                score=score,
            )
        )
    return dets


def greedy_matches_per_pair(ego_dets, neighbor_centers, gate_radius):
    """`robust._greedy_matches` with each distance taken by
    np.linalg.norm when it is needed."""
    ego_order = sorted(range(len(ego_dets)), key=lambda i: -ego_dets[i].score)
    free = set(range(len(neighbor_centers)))
    pairs = []
    for i in ego_order:
        if not free:
            break
        e = np.asarray(ego_dets[i].center)
        cand = min(free, key=lambda j: float(np.linalg.norm(np.asarray(neighbor_centers[j]) - e)))
        dist = float(np.linalg.norm(np.asarray(neighbor_centers[cand]) - e))
        if dist <= gate_radius:
            pairs.append((i, cand))
            free.remove(cand)
    return pairs


def transform_detections_per_box(dets, pose):
    """`robust.transform_detections` one box at a time."""
    x, y, yaw = planar_parts(pose)
    c, s = np.cos(yaw), np.sin(yaw)
    out = []
    for det in dets:
        px = c * det.center[0] - s * det.center[1] + x
        py = s * det.center[0] + c * det.center[1] + y
        out.append(
            Detection(center=(float(px), float(py)), yaw=float(det.yaw + yaw),
                      extent=det.extent, score=det.score)
        )
    return out


# --- scoring -------------------------------------------------------------------------


def clip_polygon_of_vectors(subject, clipper):
    """`metrics.clip_polygon`: the same Sutherland-Hodgman steps on numpy
    2-vectors."""

    def cross2(a, b):
        return a[0] * b[1] - a[1] * b[0]

    output = [np.asarray(p, dtype=np.float64) for p in subject]
    clipper = np.asarray(clipper, dtype=np.float64)
    n = clipper.shape[0]
    for i in range(n):
        if not output:
            break
        a, b = clipper[i], clipper[(i + 1) % n]
        edge = b - a
        inputs, output = output, []
        prev = inputs[-1]
        prev_in = cross2(edge, prev - a) >= 0
        for cur in inputs:
            cur_in = cross2(edge, cur - a) >= 0
            if cur_in != prev_in:
                denom = cross2(edge, cur - prev)
                t = cross2(edge, a - prev) / denom if denom else 0.0
                t = min(max(t, 0.0), 1.0)
                output.append(prev + t * (cur - prev))
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return np.array(output) if output else np.zeros((0, 2))


def rotated_iou(a, b):
    """The IoU of one pair, boxes whose circumscribed circles do not meet
    giving 0.0."""
    reach = np.hypot(*a.extent) / 2.0 + np.hypot(*b.extent) / 2.0
    if np.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1]) > reach:
        return 0.0
    inter = polygon_area(clip_polygon(a.corners(), b.corners()))
    union = a.extent[0] * a.extent[1] + b.extent[0] * b.extent[1] - inter
    if union <= 0:
        return 0.0
    return float(min(1.0, max(0.0, inter / union)))


def all_pairs_match(dets, gts, iou_thresh):
    """`metrics.match_detections`: greedy matching that scores every
    det x gt pair afresh."""
    order = _by_descending_score(dets)
    taken = [False] * len(gts)
    tp = np.zeros(len(dets), dtype=bool)
    for rank, di in enumerate(order):
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            iou = rotated_iou(dets[di], gt)
            if iou >= iou_thresh and iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0:
            taken[best_j] = True
            tp[rank] = True
    return tp, order


def scores_of_matching(tp, n_gts):
    """`metrics.pr_curve`, `average_precision` and `recall_at` of a
    matching's true positives, in score order: (curve, AP, recall)."""
    if not n_gts:
        return [], 0.0, 0.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_gts
    precision = cum_tp / np.arange(1, len(tp) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return list(zip(recall.tolist(), precision.tolist())), float(ap), float(tp.sum() / n_gts)


# --- whole trials --------------------------------------------------------------------

# (module, name, reference): every stage a trial runs, from the ray cast to
# the clip of its scoring, except the detector's map, a policy.
REFERENCE_SWAPS = (
    (scene, "raycast", oracle_raycast),
    (collab, "voxelize_points", voxelize_points_dense),
    (collab, "occupancy_from_grid", occupancy_from_grid_dense),
    (collab, "detect_local", detect_local_per_component),
    (collab, "_share_clouds", share_clouds_per_edge),
    (collab, "_perceive", perceive_whole_plane),
    (collab, "project_cloud_to_depthmap", project_cloud_to_depthmap_by_image),
    (collab, "predict_depth", predict_depth_full_image),
    (collab, "lift_camera", lift_camera_dense),
    (collab, "categorize", categorize_dense),
    (collab, "fuse_modalities", fuse_modalities_masked),
    (collab, "fuse_modalities_equal", fuse_modalities_equal_masked),
    (collab, "collapse", collapse_dense),
    (collab, "importance_scores", importance_scores_dense),
    (collab, "preference_map", preference_map_dense),
    (collab, "pack_message", pack_message_dense),
    (collab, "_receive", receive_fresh),
    (cli, "detect_local", detect_local_per_component),
    (metrics, "clip_polygon", clip_polygon_of_vectors),
)


def use_reference_pipeline(m):
    """Swap every stage of a trial for its reference, on the monkeypatch
    `m`.  Returns a Counter of the calls each reference takes, keyed by
    the module and name it stands in for."""
    calls = Counter()
    for owner, name, ref in REFERENCE_SWAPS:
        m.setattr(owner, name, _counted(ref, calls, f"{owner.__name__}.{name}"))
    return calls


def _counted(fn, calls, key):
    @functools.wraps(fn)
    def counting(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return counting
