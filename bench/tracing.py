"""Span tracing for the benchmark's traced pass.

The pipeline is timed from outside: `patched` swaps the module-level names
that covox.cli, covox.collab and covox.nnkit look up at call time for
wrappers that record a span and update per-trial counters, and restores the
originals on exit, even after an exception.  Nothing under src/ changes.

Counters are computed only from a wrapped call's arguments and return value,
inside a `trace.counters` span so that their cost stays out of the self time
of the stage that made the call.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from covox import cli, collab, nnkit
from covox.depth import DepthSource
from covox.voxel import Category

COUNTER_SPAN = "trace.counters"


class Tracer:
    """In-memory span and counter store; spans of one trial share its id."""

    def __init__(self) -> None:
        # [trial, span_id, parent_id, name, start_s, end_s]
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.trial: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [self.trial, sid, parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, value) -> None:
        self.counts[self.trial][key] += float(value)

    def stage_ms(self, fold: str | None = None) -> dict[int, tuple[dict, dict]]:
        """Per trial: total and self milliseconds per span name.

        Spans whose name starts with `fold` count as their parent's own time
        instead of as a child, e.g. nnkit kernels inside a stage.
        """
        child: dict[int, float] = defaultdict(float)
        for _, _, parent, name, start, end in self.spans:
            if parent is not None and not (fold and name.startswith(fold)):
                child[parent] += end - start
        out: dict = defaultdict(lambda: (defaultdict(float), defaultdict(float)))
        for trial, sid, _, name, start, end in self.spans:
            total, own = out[trial]
            total[name] += (end - start) * 1e3
            own[name] += (end - start - child[sid]) * 1e3
        return out


# --- counters: (count, bound arguments, return value) -> None --------------


def _lidar(count, a, out):
    count("scene.lidar_points", len(out))


def _finalize(count, a, out):
    source = a["dmap"].source
    ego = np.count_nonzero(source == DepthSource.EGO_PROJECTED)
    neighbor = np.count_nonzero(source == DepthSource.NEIGHBOR_PROJECTED)
    count("depth.px_ego", ego)
    count("depth.px_neighbor", neighbor)
    count("depth.px_predicted", source.size - ego - neighbor)


def _predict(count, a, out):
    count("depth.predict_depth.calls", 1)


def _lift(count, a, out):
    # LiftResult carries the mass that fell outside the grid; every mass
    # entry of the distribution is splatted, so the rest landed inside.
    mass = float(np.sum(a["dist"]))
    count("voxel.lift_camera.calls", 1)
    count("voxel.lift_mass", mass)
    count("voxel.lift_dropped_mass", out.dropped_mass)


def _categorize(count, a, out):
    for key, cat in (
        ("voxel.cells_lidar", Category.LIDAR),
        ("voxel.cells_camera", Category.CAMERA),
        ("voxel.cells_hybrid", Category.HYBRID),
    ):
        count(key, np.count_nonzero(out.category == cat))


def _fusion(count, a, out):
    before = np.count_nonzero(a["cat"].category == Category.CAMERA)
    count("fusion.camera_cells_dropped", before - np.count_nonzero(out.category == Category.CAMERA))


def _mask(count, a, out):
    count("collab.mask_on", np.count_nonzero(out))
    count("collab.mask_cells", out.size)


def _pack(count, a, out):
    count("collab.message_cells", len(out.indices))


def _warp(count, a, out):
    count("collab.warp_collisions", out.collisions)
    count("collab.warp_dropped", out.dropped)


def _neighbor_tokens(count, a, out):
    warped = a["warped"]
    cells = out.shape[0] * out.shape[1]
    count("collab.agg_pairs", len(warped) * cells)
    count("collab.agg_valid", sum(np.count_nonzero(np.any(w != 0.0, axis=2)) for w in warped))


def _attention(count, a, out):
    count("collab.aggregate_attention.calls", 1)
    _neighbor_tokens(count, a, out)


def _robust_dets(count, a, out):
    count("robust.detections", len(out))


def _correction(count, a, out):
    count("robust.corrections_changed", not np.array_equal(out.matrix, a["init_rel"].matrix))


def _round(count, a, out):
    rounds, ledger = out
    count("collab.feature_elements", ledger.total("feature"))
    count("collab.depth_elements", ledger.total("depth"))
    count("collab.detection_elements", ledger.total("detections"))
    for r in rounds.values():
        for (before, _), _ in r.pose_errors.values():
            count("robust.pose_edges", 1)
            count("robust.pose_err_before_sum", before)


def _eval_dets(count, a, out):
    count("metrics.detect_calls", 1)
    count("metrics.dets", len(out))


# (module, attribute, span name, counter).  Every variant of a stage shares
# the stage's span name, so `collab.aggregate` is whichever aggregator runs.
TARGETS = (
    (cli, "generate_scene", "scene.generate_scene", None),
    (cli, "run_round", "collab.run_round", _round),
    (cli, "evaluate_round", "cli.evaluate_round", None),
    (cli, "detect_local", "cli.detect_local", _eval_dets),
    (cli, "average_precision", "metrics.average_precision", None),
    (cli, "recall_at", "metrics.recall_at", None),
    (collab, "simulate_lidar", "scene.simulate_lidar", _lidar),
    (collab, "simulate_camera", "scene.simulate_camera", None),
    (collab, "voxelize_points", "voxel.voxelize_points", None),
    (collab, "detect_local", "robust.detect_local", _robust_dets),
    (collab, "correct_relative_pose", "robust.correct_relative_pose", _correction),
    (collab, "downsample_cloud", "collab.downsample_cloud", None),
    (collab, "project_cloud_to_depthmap", "depth.project_cloud_to_depthmap", None),
    (collab, "merge_cooperative", "depth.merge_cooperative", None),
    (collab, "predict_depth", "depth.predict_depth", _predict),
    (collab, "finalize_distribution", "depth.finalize_distribution", _finalize),
    (collab, "lift_camera", "voxel.lift_camera", _lift),
    (collab, "categorize", "voxel.categorize", _categorize),
    (collab, "fuse_modalities", "fusion.fuse_modalities", _fusion),
    (collab, "fuse_modalities_equal", "fusion.fuse_modalities", _fusion),
    (collab, "collapse", "voxel.collapse", None),
    (collab, "preference_map", "collab.mask", None),
    (collab, "importance_scores", "collab.mask", None),
    (collab, "confidence_mask", "collab.mask", _mask),
    (collab, "pack_message", "collab.mask", _pack),
    (collab, "warp_sparse", "collab.warp_sparse", _warp),
    (collab, "aggregate", "collab.aggregate", _attention),
    (collab, "aggregate_max", "collab.aggregate", _neighbor_tokens),
    (collab, "aggregate_concat", "collab.aggregate", _neighbor_tokens),
    (nnkit, "softmax", "nnkit.softmax", None),
    (nnkit.LinearMap, "apply", "nnkit.LinearMap.apply", None),
)


def _wrap(tracer: Tracer, name: str, fn, counter):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if counter is not None:
            with tracer.span(COUNTER_SPAN):
                counter(tracer.count, signature.bind(*args, **kwargs).arguments, out)
        return out

    return traced


@contextmanager
def patched(tracer: Tracer):
    """Swap every TARGETS name for a traced wrapper for the block's duration."""
    saved = []
    try:
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, counter))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced_trials, counter_trials) -> dict[str, float]:
    """Per-layer metrics: stage times are medians over `traced_trials` of the
    per-trial total; counters are per-trial means over `counter_trials`."""
    by_trial = tracer.stage_ms()
    totals = [by_trial[trial][0] for trial in traced_trials]
    selfs = [by_trial[trial][1] for trial in traced_trials]

    def median_ms(name, table):
        return statistics.median(t.get(name, 0.0) for t in table)

    stage_names = sorted({name for _, _, name, _ in TARGETS} | {"cli.run_trial", COUNTER_SPAN})
    out = {f"{name}.ms": median_ms(name, totals) for name in stage_names}
    for name in ("collab.run_round", "cli.evaluate_round", "collab.aggregate", "fusion.fuse_modalities"):
        out[f"{name}.self_ms"] = median_ms(name, selfs)

    n = len(counter_trials)
    summed: dict[str, float] = defaultdict(float)
    for trial in counter_trials:
        for key, value in tracer.counts[trial].items():
            summed[key] += value

    for key in (
        "scene.lidar_points",
        "depth.px_ego",
        "depth.px_neighbor",
        "depth.px_predicted",
        "depth.predict_depth.calls",
        "voxel.lift_camera.calls",
        "voxel.lift_dropped_mass",
        "voxel.cells_lidar",
        "voxel.cells_camera",
        "voxel.cells_hybrid",
        "fusion.camera_cells_dropped",
        "collab.aggregate_attention.calls",
        "collab.warp_collisions",
        "collab.warp_dropped",
        "collab.message_cells",
        "collab.feature_elements",
        "collab.depth_elements",
        "collab.detection_elements",
        "robust.detections",
        "robust.corrections_changed",
    ):
        out[key] = summed[key] / n
    out["voxel.lift_useful_frac"] = _ratio(
        summed["voxel.lift_mass"] - summed["voxel.lift_dropped_mass"], summed["voxel.lift_mass"]
    )
    out["collab.agg_valid_frac"] = _ratio(summed["collab.agg_valid"], summed["collab.agg_pairs"])
    out["collab.mask_density"] = _ratio(summed["collab.mask_on"], summed["collab.mask_cells"])
    out["robust.pose_err_before_m"] = _ratio(
        summed["robust.pose_err_before_sum"], summed["robust.pose_edges"]
    )
    out["metrics.dets_per_agent"] = _ratio(summed["metrics.dets"], summed["metrics.detect_calls"])
    return out


def top_stages(tracer: Tracer, traced_trials, k: int = 6) -> list[tuple[str, float]]:
    """The k stages with the largest median self time per trial, counting
    the nnkit kernels a stage calls as part of that stage."""
    by_trial = tracer.stage_ms(fold="nnkit.")
    selfs = [by_trial[trial][1] for trial in traced_trials]
    names = {name for table in selfs for name in table if not name.startswith("nnkit.")}
    ranked = [(name, statistics.median(t.get(name, 0.0) for t in selfs)) for name in names]
    return sorted(ranked, key=lambda item: -item[1])[:k]
