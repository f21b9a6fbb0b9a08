"""Smoke test of the benchmark: tiny runs of every workload, both passes.

Run from the repository root:

    python -m pytest -q bench/test_smoke.py

Checks that each run emits exactly the workload and metric names declared
in BENCHMARK.json, with their units and directions, and that the traced and
untraced passes agree.  It asserts no timing bounds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--trials", "2"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_declared_workloads_are_the_benchmarks():
    import run

    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_both_passes_emit_declared_metrics_and_agree(workload):
    passes = {kind: _result(workload, trace) for trace, kind in ((0, "end_to_end"), (1, "per_layer"))}
    for kind, (lines, result) in passes.items():
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 2
        declared = {m["name"]: m for m in DECLARED[kind]}
        assert set(result["metrics"]) == set(declared)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == declared[name]["unit"]
            assert math.isfinite(metric["value"])
            line = next(text for text in lines if text.split(" ", 1)[0] == name)
            assert f" {metric['unit']} " in line and f"({declared[name]['better']} is better)" in line

    (lines0, untraced), (lines1, traced) = passes["end_to_end"], passes["per_layer"]
    quality = [[text for text in lines if text.startswith("# quality")] for lines in (lines0, lines1)]
    assert len(quality[0]) == 1 and quality[0] == quality[1]
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    comm = layers["collab.feature_elements"] + layers["collab.depth_elements"] + layers["collab.detection_elements"]
    assert untraced["metrics"]["comm_elements"]["value"] == comm


def test_lidar_only_workload_bypasses_camera_and_attention():
    _, traced = _result("lidar4", 1)
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    for name in ("voxel.lift_camera.calls", "depth.predict_depth.calls", "collab.aggregate_attention.calls"):
        assert layers[name] == 0


def test_counters_repeat_across_runs():
    _, first = _result("fleet8", 1)
    _, second = _result("fleet8", 1)
    counters = [m["name"] for m in DECLARED["per_layer"] if m["unit"] != "ms"]
    assert {n: first["metrics"][n] for n in counters} == {n: second["metrics"][n] for n in counters}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("lidar4", 0, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_percentile_leaves_ten_trials_beyond():
    from worker import nearest_rank, tail_percentile

    for n in (11, 30, 80, 160):
        pct = tail_percentile(n)
        values = list(range(n))
        assert n - 1 - nearest_rank(values, pct) >= 10
        assert n - 1 - nearest_rank(values, pct + 1) < 10


def test_patched_names_are_restored_after_an_exception():
    import tracing

    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    run_round = tracing.cli.run_round
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            assert tracing.cli.run_round is not run_round
            raise RuntimeError("stage failed")
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS] == originals


def test_slowdown_is_the_root_of_the_median_part():
    import reference

    nominal = dict(reference.NOMINAL_MS)
    assert reference.slowdown([nominal]) == pytest.approx(1.0)
    one_part_slow = dict(nominal, matmul=3 * nominal["matmul"])
    assert reference.slowdown([one_part_slow, one_part_slow]) == pytest.approx(1.0)
    all_slow = {name: 4 * ms for name, ms in nominal.items()}
    assert reference.slowdown([all_slow]) == pytest.approx(4**reference.SENSITIVITY)
    assert set(reference.run()) == set(nominal)
