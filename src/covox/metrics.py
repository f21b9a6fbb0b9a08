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


def _cross2(a: np.ndarray, b: np.ndarray) -> float:
    return a[0] * b[1] - a[1] * b[0]


def clip_polygon(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of `subject` against a convex CCW `clipper`."""
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
        prev_in = _cross2(edge, prev - a) >= 0
        for cur in inputs:
            cur_in = _cross2(edge, cur - a) >= 0
            if cur_in != prev_in:
                # Where an edge of the subject is collinear with this edge,
                # the sides disagree only by rounding: the denominator can
                # be 0 and t can leave [0, 1], so it is clamped to the segment.
                denom = _cross2(edge, cur - prev)
                t = _cross2(edge, a - prev) / denom if denom else 0.0
                t = min(max(t, 0.0), 1.0)
                output.append(prev + t * (cur - prev))
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return np.array(output) if output else np.zeros((0, 2))


def rotated_iou(a: Detection, b: Detection) -> float:
    """Intersection-over-union of two oriented rectangles.

    Boxes whose circumscribed circles do not meet are disjoint and get 0.0
    without clipping, which could leave a rounding sliver where corners
    nearly touch.
    """
    reach = np.hypot(*a.extent) / 2.0 + np.hypot(*b.extent) / 2.0
    if np.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1]) > reach:
        return 0.0
    ca, cb = a.corners(), b.corners()
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
    so boxes whose circles do not meet are disjoint, and rotated_iou gives
    them 0.0.
    """
    def circles(boxes):
        arr = np.array([(*b.center, *b.extent) for b in boxes], dtype=np.float64)
        arr = arr.reshape(-1, 4)
        return arr[:, :2], np.hypot(arr[:, 2], arr[:, 3]) / 2.0

    (dc, dr), (gc, gr) = circles(dets), circles(gts)
    gap = dc[:, None, :] - gc[None, :, :]
    return np.hypot(gap[..., 0], gap[..., 1]) <= dr[:, None] + gr[None, :]


def match_detections(
    dets: Sequence[Detection], gts: Sequence[Detection], iou_thresh: float
):
    """Greedy matching in descending score order; each gt is used once.

    Returns (tp flags aligned with the sorted order, sorted order indices).
    Only pairs whose circumscribed circles meet are scored; any other pair
    has an IoU of 0.0, so the result equals scoring all pairs.
    """
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError("iou_thresh must lie in (0, 1)")
    order = _by_descending_score(dets)
    near = _may_overlap(dets, gts)
    taken = [False] * len(gts)
    tp = np.zeros(len(dets), dtype=bool)
    for rank, di in enumerate(order):
        best_iou, best_j = 0.0, -1
        for j in np.flatnonzero(near[di]).tolist():
            if taken[j]:
                continue
            iou = rotated_iou(dets[di], gts[j])
            if iou >= iou_thresh and iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0:
            taken[best_j] = True
            tp[rank] = True
    return tp, order


def pr_curve(
    dets: Sequence[Detection], gts: Sequence[Detection], iou_thresh: float
) -> list[tuple[float, float]]:
    """(recall, precision) after each detection, descending score."""
    tp, _ = match_detections(dets, gts, iou_thresh)
    if not gts:
        return []
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(dets) + 1)
    recall = cum_tp / len(gts)
    precision = cum_tp / ranks
    return list(zip(recall.tolist(), precision.tolist()))


def average_precision(
    dets: Sequence[Detection], gts: Sequence[Detection], iou_thresh: float
) -> float:
    """Area under the precision envelope over recall (all-point)."""
    curve = pr_curve(dets, gts, iou_thresh)
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


def recall_at(
    dets: Sequence[Detection], gts: Sequence[Detection], iou_thresh: float
) -> float:
    """Fraction of ground-truth boxes matched by any detection."""
    tp, _ = match_detections(dets, gts, iou_thresh)
    return float(tp.sum() / len(gts)) if gts else 0.0
