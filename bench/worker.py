"""Measurement process for bench/run.py.

Sets up one workload through the public covox API, runs an untimed warm-up
trial, then runs trials one at a time through covox.cli.run_trial with
rendering off, checking every outcome.  The reference kernel
(bench/reference.py) is timed after set-up and after every trial, and the
times are divided by the slowdown it shows.  With --trace 1 each trial is
also run a second time under tracing.  Prints one JSON record as its last
line.

run.py starts this script with the BLAS thread count pinned; it is not
meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REFERENCE_RUNS = 5


class CheckFailed(RuntimeError):
    """A trial's outputs failed a benchmark sanity check."""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced pass writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    return parser


def tail_percentile(n_trials: int) -> int:
    """Highest integer percentile with at least 10 of n_trials beyond it."""
    return max(0, math.floor(100 * (n_trials - 10) / n_trials))


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def check_outcome(cli, outcome, exp) -> dict[str, str]:
    """Sanity checks on one trial; returns its CSV row as a field dict."""
    names = cli.CSV_HEADER.split(",")
    values = outcome.row.split(",")
    if len(values) != len(names):
        raise CheckFailed(f"CSV row has {len(values)} fields, header has {len(names)}")
    fields = dict(zip(names, values))
    grid = exp.pipeline.grid
    shape = (grid.nx, grid.ny, grid.nz * grid.channels)
    for aid, result in outcome.rounds.items():
        if result.aggregated.shape != shape:
            raise CheckFailed(f"agent {aid}: aggregated BEV shape {result.aggregated.shape} != {shape}")
        if not np.all(np.isfinite(result.aggregated)):
            raise CheckFailed(f"agent {aid}: aggregated BEV is not finite")
    sent = sum(
        outcome.rounds[sender].message.feature_elements
        for result in outcome.rounds.values()
        for sender in result.pose_errors
    )
    if int(fields["feature_elements"]) != sent:
        raise CheckFailed(f"ledger feature total {fields['feature_elements']} != {sent} sent")
    parts = sum(int(fields[k]) for k in ("feature_elements", "depth_elements", "detection_elements"))
    if int(fields["total_elements"]) != parts:
        raise CheckFailed("total_elements is not the sum of its phases")
    if not 0.0 <= float(fields["ap50"]) <= 1.0:
        raise CheckFailed(f"ap50 {fields['ap50']} outside [0, 1]")
    return fields


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import covox

    if Path(covox.__file__).resolve().parent != (ROOT / "src" / "covox").resolve():
        print(f"covox imported from {covox.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from covox import cli, collab, config

    failures: list[dict] = []

    def run(trial: int, expect_row: str | None = None, span=contextlib.nullcontext):
        """One checked trial; returns (row, row fields, ms) or None on failure."""
        try:
            start = time.perf_counter()
            with span("cli.run_trial"):
                outcome = cli.run_trial(exp, trial, None, params)
            ms = (time.perf_counter() - start) * 1e3
            fields = check_outcome(cli, outcome, exp)
            if expect_row is not None and outcome.row != expect_row:
                raise CheckFailed(f"row differs from an earlier run of the same trial:\n{outcome.row}\n{expect_row}")
        except Exception:  # noqa: BLE001 - every failure is counted and reported
            failures.append({"trial": trial, "traceback": traceback.format_exc()})
            return None
        return outcome.row, fields, ms

    start = time.perf_counter()
    exp = config.load_experiment(args.config)
    load_ms = (time.perf_counter() - start) * 1e3
    params = collab.make_pipeline_params(exp.pipeline.grid, exp.params_seed)
    warm = run(0)
    ready = time.monotonic()
    import reference  # after `ready`: its inputs are not the program's set-up

    reference.run()  # untimed: first touch of the kernel's pages
    record = {
        "ready": ready,
        "setup_slowdown": reference.slowdown([reference.run() for _ in range(SETUP_REFERENCE_RUNS)]),
        "warm_row": warm[0] if warm else None,
        "load_experiment_ms": load_ms,
        "numpy": np.__version__,
    }
    if args.setup_only:
        record["failures"] = failures
        print(json.dumps(record))
        return 0

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]

    rows: dict[int, str] = {}
    quality: dict[int, dict[str, str]] = {}
    times: list[float] = []
    reference_ms: list[dict[str, float]] = []
    attempted = failed = 0
    start = time.perf_counter()
    trial = 0
    while trial < args.trials or time.perf_counter() - start < args.seconds:
        attempted += 1
        done = run(trial, record["warm_row"] if trial == 0 else None)
        if done is None:
            failed += 1
        else:
            rows[trial], fields, ms = done
            times.append(ms)
            reference_ms.append(reference.run())
            if trial < args.trials:
                quality[trial] = fields
        if args.trace:
            attempted += 1
            tracer.trial = trial
            with tracing.patched(tracer):
                failed += run(trial, rows.get(trial), tracer.span) is None
        trial += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = max(1, len(quality))
    record.update(
        attempted=attempted,
        failed=failed,
        trials=trial,
        scheduled=args.trials,
        trial_ms=times,
        reference_ms=reference_ms,
        tail_pct=tail_percentile(args.trials),
        quality={
            "ap50": sum(float(f["ap50"]) for f in quality.values()) / n,
            "recall50": sum(float(f["recall50"]) for f in quality.values()) / n,
            "comm_elements": sum(int(f["total_elements"]) for f in quality.values()) / n,
            "pose_err_after_m": sum(float(f["pose_err_after"]) for f in quality.values()) / n,
        },
    )
    if times:
        # One factor for the whole run: pairing each trial with its own
        # kernel run made the tail noisier and the median no steadier.
        speed = 1.0 / reference.slowdown(reference_ms)
        record["slowdown"] = 1.0 / speed
        record["wall_trial_ms_p50"] = statistics.median(times)
        record["end_to_end"] = {
            "trial_ms_p50": statistics.median(times) * speed,
            "trial_ms_tail": nearest_rank(times, record["tail_pct"]) * speed,
            "trials_per_s": 1e3 * len(times) / (sum(times) * speed),
            "peak_rss_mb": peak_rss_mb,
            "comm_elements": record["quality"]["comm_elements"],
        }

    if args.trace:
        # The counters repeat exactly: trace trial 0 once more and compare.
        tracer.trial = -1
        with tracing.patched(tracer):
            run(0, rows.get(0), tracer.span)
        if dict(tracer.counts[-1]) != dict(tracer.counts[0]):
            failures.append({"trial": 0, "traceback": "per-layer counters differ between two traced runs"})
        if [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS] != originals:
            failures.append({"trial": None, "traceback": "a traced name was not restored"})
        traced_trials = sorted(rows)
        counter_trials = sorted(quality)
        layers = tracing.per_layer(tracer, traced_trials, counter_trials)
        untraced_p50 = statistics.median(times) if times else 0.0
        layers["trace.overhead_ms"] = layers["cli.run_trial.ms"] - untraced_p50
        layers["config.load_experiment.ms"] = load_ms
        layers["metrics.ap50"] = record["quality"]["ap50"]
        layers["metrics.recall50"] = record["quality"]["recall50"]
        layers["robust.pose_err_after_m"] = record["quality"]["pose_err_after_m"]
        record["per_layer"] = layers
        record["top_stages"] = tracing.top_stages(tracer, traced_trials)
        if args.spans:
            with open(args.spans, "w") as fh:
                for trial_id, sid, parent, name, t0, t1 in tracer.spans:
                    fh.write(json.dumps({
                        "trial": trial_id, "span": sid, "parent": parent,
                        "name": name, "start_s": t0, "end_s": t1,
                    }) + "\n")

    record["failures"] = failures
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
