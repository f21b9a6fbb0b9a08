"""Detection quality metrics: rotated-box IoU, greedy matching, PR curves
and all-point average precision on planar oriented boxes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Detection:
    """BEV oriented box: planar center, yaw, (length, width), confidence."""

    center: tuple[float, float]
    yaw: float
    extent: tuple[float, float]
    score: float = 1.0

    def __post_init__(self):
        if min(self.extent) <= 0:
            raise ValueError("box extent must be positive")

    def corners(self) -> np.ndarray:
        """(4, 2) corner coordinates in CCW order."""
        l2, w2 = self.extent[0] / 2.0, self.extent[1] / 2.0
        local = np.array([[l2, w2], [-l2, w2], [-l2, -w2], [l2, -w2]])
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.asarray(self.center)


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a simple polygon (absolute value).

    The sum runs over vertices taken relative to the first one, so a
    degenerate polygon far from the origin, such as the line segment two
    edge-sharing boxes clip to, gives 0.0 rather than a rounding sliver.
    """
    p = np.asarray(poly, dtype=np.float64)
    if p.shape[0] < 3:
        return 0.0
    d = p[1:] - p[0]
    return float(abs(np.dot(d[:-1, 0], d[1:, 1]) - np.dot(d[:-1, 1], d[1:, 0])) / 2.0)


def clip_polygon(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of `subject` against a convex CCW `clipper`.

    Runs over Python floats.  Each step is one IEEE operation, so the
    vertices are bit for bit those of the same steps on numpy 2-vectors.
    """
    output = np.asarray(subject, dtype=np.float64).tolist()
    clipper = np.asarray(clipper, dtype=np.float64).tolist()
    n = len(clipper)
    for i in range(n):
        if not output:
            break
        (ax, ay), (bx, by) = clipper[i], clipper[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inputs, output = output, []
        px, py = inputs[-1]
        prev_in = ex * (py - ay) - ey * (px - ax) >= 0
        for cx, cy in inputs:
            cur_in = ex * (cy - ay) - ey * (cx - ax) >= 0
            if cur_in != prev_in:
                # Where an edge of the subject is collinear with this edge,
                # the sides disagree only by rounding: the denominator can
                # be 0 and t can leave [0, 1], so it is clamped to the segment.
                denom = ex * (cy - py) - ey * (cx - px)
                t = (ex * (ay - py) - ey * (ax - px)) / denom if denom else 0.0
                t = min(max(t, 0.0), 1.0)
                output.append([px + t * (cx - px), py + t * (cy - py)])
            if cur_in:
                output.append([cx, cy])
            px, py, prev_in = cx, cy, cur_in
    return np.array(output) if output else np.zeros((0, 2))


def _clipped_iou(a: Detection, b: Detection, ca: np.ndarray, cb: np.ndarray) -> float:
    """Intersection-over-union of two oriented rectangles whose circumscribed
    circles meet, from their `corners()`."""
    inter = polygon_area(clip_polygon(ca, cb))
    area_a = a.extent[0] * a.extent[1]
    area_b = b.extent[0] * b.extent[1]
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return float(min(1.0, max(0.0, inter / union)))


def _by_descending_score(dets: Sequence[Detection]) -> list[int]:
    # Stable sort keeps insertion order among score ties (documented).
    scores = np.array([d.score for d in dets])
    return list(np.argsort(-scores, kind="stable"))


def _may_overlap(dets: Sequence[Detection], gts: Sequence[Detection]) -> np.ndarray:
    """(len(dets), len(gts)) flags: the boxes' circumscribed circles meet.

    A box lies inside the circle of radius hypot(l, w) / 2 about its center,
    so boxes whose circles do not meet are disjoint: their IoU is 0.0.
    """
    def circles(boxes):
        arr = np.array([(*b.center, *b.extent) for b in boxes], dtype=np.float64)
        arr = arr.reshape(-1, 4)
        return arr[:, :2], np.hypot(arr[:, 2], arr[:, 3]) / 2.0

    (dc, dr), (gc, gr) = circles(dets), circles(gts)
    gap = dc[:, None, :] - gc[None, :, :]
    return np.hypot(gap[..., 0], gap[..., 1]) <= dr[:, None] + gr[None, :]


def iou_table(dets: Sequence[Detection], gts: Sequence[Detection]) -> np.ndarray:
    """(len(dets), len(gts)) rotated IoUs of every det x gt pair.

    Only pairs whose circumscribed circles meet are clipped; any other pair
    is disjoint and gets 0.0 without clipping, which could leave a rounding
    sliver where corners nearly touch.  Each box of a clipped pair computes
    its corners once.
    """
    ious = np.zeros((len(dets), len(gts)))
    near = _may_overlap(dets, gts)
    det_corners = {i: dets[i].corners() for i in np.flatnonzero(near.any(axis=1)).tolist()}
    gt_corners = {j: gts[j].corners() for j in np.flatnonzero(near.any(axis=0)).tolist()}
    for i, j in zip(*np.nonzero(near)):
        ious[i, j] = _clipped_iou(dets[i], gts[j], det_corners[i], gt_corners[j])
    return ious


def match_detections(dets: Sequence[Detection], ious: np.ndarray, iou_thresh: float):
    """Greedy matching in descending score order; each gt is used once.

    `ious` is the `iou_table` of `dets` against the gts.  Each detection
    takes the free gt of highest IoU at or above the threshold, the lowest
    index among equal IoUs.  Returns (tp flags aligned with the sorted
    order, sorted order indices).
    """
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError("iou_thresh must lie in (0, 1)")
    if ious.ndim != 2 or ious.shape[0] != len(dets):
        raise ValueError("ious must be a (len(dets), len(gts)) table")
    order = _by_descending_score(dets)
    free = np.ones(ious.shape[1], dtype=bool)
    tp = np.zeros(len(dets), dtype=bool)
    if not free.size:
        return tp, order
    for rank, di in enumerate(order):
        # Taken gts read 0.0, below any threshold; argmax takes the first
        # of equal maxima.
        row = np.where(free, ious[di], 0.0)
        j = int(np.argmax(row))
        if row[j] >= iou_thresh:
            free[j] = False
            tp[rank] = True
    return tp, order


def pr_curve(
    dets: Sequence[Detection], ious: np.ndarray, iou_thresh: float
) -> list[tuple[float, float]]:
    """(recall, precision) after each detection, descending score."""
    tp, _ = match_detections(dets, ious, iou_thresh)
    n_gts = ious.shape[1]
    if not n_gts:
        return []
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(dets) + 1)
    recall = cum_tp / n_gts
    precision = cum_tp / ranks
    return list(zip(recall.tolist(), precision.tolist()))


def average_precision(
    dets: Sequence[Detection], ious: np.ndarray, iou_thresh: float
) -> float:
    """Area under the precision envelope over recall (all-point)."""
    curve = pr_curve(dets, ious, iou_thresh)
    if not curve:
        return 0.0
    recall = np.array([r for r, _ in curve])
    precision = np.array([p for _, p in curve])
    # Precision envelope: best precision achievable at recall >= r.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def recall_at(dets: Sequence[Detection], ious: np.ndarray, iou_thresh: float) -> float:
    """Fraction of ground-truth boxes matched by any detection."""
    tp, _ = match_detections(dets, ious, iou_thresh)
    n_gts = ious.shape[1]
    return float(tp.sum() / n_gts) if n_gts else 0.0
