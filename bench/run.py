#!/usr/bin/env python3
"""covox benchmark: seeded experiment workloads run trial by trial.

Run from the repository root:

    python3 bench/run.py --workload fleet8 --seed 0 --seconds 45 --trace 0

The benchmark generates the workload's experiment config from --seed (the
scenario seed of trial t is seed + t), loads it with
covox.config.load_experiment and runs trials one at a time, in one process,
through covox.cli.run_trial with rendering off: a closed loop with a single
client.  It starts SETUP_PROCESSES fresh worker processes in turn; each times
its set-up (interpreter start to the end of one untimed warm-up trial), and
the last one goes on to the measured loop.  That loop runs the workload's
fixed trial count and keeps going with further trials until --seconds have
passed.  Quality and communication metrics cover the fixed trials only, so
they do not depend on machine speed.

The host's speed drifts by 20% or more over minutes, so every reported time
is scaled to a fixed machine speed: the worker times a fixed reference
kernel (bench/reference.py) after each trial and after set-up, and a time is
reported divided by the slowdown the kernel showed in the same process.
trial_ms_p50 and trial_ms_tail are quantiles of the trial times and
trials_per_s is their count over their sum, all scaled so; setup_s is the
median over the set-up processes of the scaled set-up times.  Unscaled wall
times and the slowdown are printed on a comment line.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass (bench/tracing.py) that reruns every trial with each stage
wrapped in a span.  Metric names, units and directions are declared in
BENCHMARK.json; the run fails if what it measured does not match them.
Every metric line is printed by name; the last line of stdout is one JSON
object.  Spans and a result record are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_PROCESSES = 5
BLAS_THREADS = 1
DEADLINE_S = 170.0

WALLS = (
    {"p1": [-6.0, 9.0], "p2": [6.0, 9.0], "height": 2.5},
    {"p1": [-10.0, -12.0], "p2": [-10.0, -2.0], "height": 2.0},
)


@dataclass(frozen=True)
class Workload:
    """One experiment shape; BENCHMARK.json says why each is in the set."""

    trials: int  # fixed trial count; sized to finish within run_seconds here
    agents: int
    grid: int
    objects: int
    walls: int
    fusion: str
    depth_projection: str
    collab: str
    sigma_xy: float = 0.0
    sigma_yaw: float = 0.0


WORKLOADS = {
    "fleet8": Workload(26, agents=8, grid=64, objects=8, walls=1, fusion="biased",
                       depth_projection="all", collab="attention"),
    "lidar4": Workload(144, agents=4, grid=64, objects=12, walls=2, fusion="none",
                       depth_projection="no", collab="max", sigma_xy=0.4, sigma_yaw=0.04),
}


def experiment_config(w: Workload, seed: int) -> dict:
    """The covox experiment file for a workload, as a YAML-compatible tree."""
    return {
        "experiment": {"mode": "full", "trials": w.trials, "params_seed": 2024, "render": False},
        "scenario": {
            "seed": seed,
            "n_agents": w.agents,
            "n_objects": w.objects,
            "occluders": list(WALLS[: w.walls]),
            # Wider than the area's diagonal: every pair of agents is linked.
            "comm_range": 60.0,
            "pose_noise": {"sigma_xy": w.sigma_xy, "sigma_yaw": w.sigma_yaw},
        },
        "pipeline": {
            "grid": {"nx": w.grid, "ny": w.grid, "nz": 8, "channels": 8},
            "bins": {"count": 16},
            "predictor": {"kind": "noisy_oracle", "sigma_bins": 1.0, "blur_radius": 1},
            "fusion": w.fusion,
            "depth_projection": w.depth_projection,
            "collab": w.collab,
            "robust": True,
        },
    }


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; returns (start time, its JSON record)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in time: {exc}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return started, json.loads(lines[-1])


def _measure(name: str, seed: int, seconds: float, trace: int, trials: int | None) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name]
    trials = trials or workload.trials
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    fd, config_path = tempfile.mkstemp(dir=OUT_DIR, prefix=f".{tag}-", suffix=".yaml")
    with os.fdopen(fd, "w") as fh:
        json.dump(experiment_config(workload, seed), fh)  # JSON is valid YAML
    base = ["--config", config_path, "--trials", str(trials), "--seconds", str(seconds)]
    try:
        setups, wall_setups, warm_rows = [], [], []
        for k in range(SETUP_PROCESSES):
            extra = ["--setup-only"]
            if k == SETUP_PROCESSES - 1:
                extra = ["--trace", str(trace), "--spans", str(OUT_DIR / f"{tag}-spans.jsonl")]
            started, record = _worker(base + extra, deadline)
            setups.append((record["ready"] - started) / record["setup_slowdown"])
            wall_setups.append(record["ready"] - started)
            warm_rows.append(record["warm_row"])
    finally:
        os.unlink(config_path)
    if len(set(warm_rows)) != 1:
        record["failures"].append({"trial": 0, "traceback": f"warm-up rows differ between processes: {warm_rows}"})
    record["setup_s"] = statistics.median(setups)
    record["wall_setup_s"] = statistics.median(wall_setups)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, help="override the workload's fixed trial count (smoke runs)")
    args = parser.parse_args(argv)
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")

    if not (ROOT / "src" / "covox" / "__init__.py").is_file():
        print(f"no covox sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        record = _measure(args.workload, args.seed, args.seconds, args.trace, args.trials)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, kind = record.get("per_layer", {}), "per_layer"
    else:
        values, kind = dict(record.get("end_to_end", {}), setup_s=record["setup_s"]), "end_to_end"
    wanted = {m["name"]: m for m in declared[kind]}
    if set(values) != set(wanted):
        print(f"measured {kind} metrics do not match BENCHMARK.json: "
              f"missing {sorted(set(wanted) - set(values))}, "
              f"undeclared {sorted(set(values) - set(wanted))}", file=sys.stderr)
        return 1

    failures = record["failures"]
    for failure in failures:
        print(f"--- trial {failure['trial']} failed\n{failure['traceback']}", file=sys.stderr)
    n = record["scheduled"]
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, 1 client; "
          f"{record['trials']} trials run, {n} fixed (scenario seeds {args.seed}..{args.seed + n - 1})")
    print(f"# environment: nproc {len(os.sched_getaffinity(0))}, BLAS threads {BLAS_THREADS}, "
          f"python {platform.python_version()}, numpy {record['numpy']}")
    if not args.trace:
        print(f"# trial_ms_tail is p{record['tail_pct']} over n={record['trials']} trials")
        print(f"# unscaled wall time: trial p50 {record['wall_trial_ms_p50']:.6g} ms, "
              f"setup {record['wall_setup_s']:.6g} s; slowdown {record['slowdown']:.4g}")
    else:
        print("# top stages by self time per trial, nnkit kernels folded in: "
              + ", ".join(f"{k} {v:.1f} ms" for k, v in record["top_stages"]))
    q = record["quality"]
    print(f"# quality over the fixed trials: ap50 {q['ap50']:.10g}, recall50 {q['recall50']:.10g}, "
          f"comm_elements {q['comm_elements']:.10g}, pose_err_after_m {q['pose_err_after_m']:.10g}, "
          f"failed_frac {record['failed'] / record['attempted']:.10g}")
    for name in sorted(values):
        m = wanted[name]
        print(f"{name:36s} {values[name]:>16.6f} {m['unit']:6s} ({m['better']} is better)")

    result = {
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": wanted[name]["unit"]} for name in sorted(values)},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(dict(record, result=result), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
