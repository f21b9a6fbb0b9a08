import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

import covox
from covox import cli, metrics
from covox.collab import EdgeRecord, comm_volume_log, make_pipeline_params, run_round
from covox.config import load_experiment
from covox.scene import generate_scene


def experiment_tree(**experiment):
    """A small, fast experiment: equal fusion, concat aggregation, one camera dropped."""
    return {
        "experiment": dict({"mode": "full", "trials": 2, "render": False}, **experiment),
        "scenario": {
            "seed": 3,
            "n_agents": 3,
            "n_objects": 3,
            "dropout": {1: ["camera"]},
        },
        "pipeline": {
            "grid": {"nx": 32, "ny": 32, "nz": 4, "channels": 8},
            "predictor": {"kind": "noisy_oracle", "sigma_bins": 1.0},
            "fusion": "equal",
            "collab": "concat",
        },
    }


def run(tmp_path, tree, *extra, name="out"):
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    out = tmp_path / name
    code = cli.main([str(cfg), "--out", str(out), "--no-render", *extra])
    return code, out


def csv_lines(out):
    return (out / "metrics.csv").read_text().splitlines()


def test_success_writes_header_and_one_row_per_trial(tmp_path):
    code, out = run(tmp_path, experiment_tree())
    assert code == 0
    lines = csv_lines(out)
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 3
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "1"]
    assert (out / "messages.log").read_text()


def test_noise_sweep_rows_are_trials_times_sigmas(tmp_path):
    tree = experiment_tree(mode="noise_sweep", noise_sigmas=[0.0, 0.3, 0.6])
    code, out = run(tmp_path, tree)
    assert code == 0
    rows = [line.split(",") for line in csv_lines(out)[1:]]
    assert len(rows) == 2 * 3
    assert sorted({row[3] for row in rows}) == ["0", "0.3", "0.6"]


def test_bad_field_exits_1_and_names_the_path(tmp_path, capsys):
    tree = experiment_tree()
    tree["pipeline"]["fusion"] = "bogus"
    code, out = run(tmp_path, tree)
    assert code == 1
    assert "pipeline.fusion" in capsys.readouterr().err
    assert not out.exists()


def test_bad_type_exits_1_and_names_the_path(tmp_path, capsys):
    tree = experiment_tree()
    tree["scenario"]["n_agents"] = "three"
    code, _ = run(tmp_path, tree)
    assert code == 1
    assert "scenario.n_agents" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid, field",
    [({"channels": 7}, "grid.channels"), ({"nz": 3, "channels": 6}, "grid.nz")],
    ids=["channels=7", "nz=3,channels=6"],
)
def test_unbuildable_grid_exits_1_and_names_the_field(tmp_path, capsys, grid, field):
    tree = experiment_tree()
    tree["pipeline"]["grid"] = grid
    code, out = run(tmp_path, tree)
    assert code == 1
    assert f"config error: pipeline: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_failed_trial_exits_2(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("sensor fault")

    monkeypatch.setattr(cli, "run_round", broken)
    code, out = run(tmp_path, experiment_tree())
    assert code == 2
    err = capsys.readouterr().err
    assert "sensor fault" in err
    assert "Traceback" in err
    assert csv_lines(out) == [cli.CSV_HEADER]


def test_a_trial_is_freed_before_the_next_starts(tmp_path, monkeypatch):
    """run_experiment keeps no finished trial's records while the next trial
    runs: a weak reference to each trial's record is dead when the next
    trial starts."""
    run_trial, records, alive = cli.run_trial, [], []

    def tracked_trial(*args):
        alive.append([ref() is not None for ref in records])
        outcome = run_trial(*args)
        records.append(weakref.ref(outcome.rounds[0]))
        return outcome

    monkeypatch.setattr(cli, "run_trial", tracked_trial)
    code, _ = run(tmp_path, experiment_tree(trials=3))
    assert code == 0
    assert alive == [[], [False], [False, False]]


def test_rerun_is_byte_identical(tmp_path):
    tree = experiment_tree()
    code_a, a = run(tmp_path, tree, name="a")
    code_b, b = run(tmp_path, tree, name="b")
    assert code_a == code_b == 0
    for name in ("metrics.csv", "messages.log"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def log_lines_by_json(trial, mode, records):
    """Reference: `json.dumps` of each record's dict, keys sorted."""
    return [
        json.dumps(
            {"trial": trial, "mode": mode, "sender": r.sender, "receiver": r.receiver,
             "phase": r.phase, "elements": r.elements, "log2": float(comm_volume_log(r.elements))},
            sort_keys=True,
        )
        for r in records
    ]


def test_log_lines_match_json_dumps():
    """The message log is formatted without `json.dumps` per record; its
    bytes, log2 included, must be the ones `json.dumps` writes, for element
    counts from 0 to 2**40 and every phase."""
    rng = np.random.default_rng(0)
    elements = np.concatenate([
        np.arange(0, 20_000), rng.integers(0, 2**40, 5_000), 2 ** np.arange(41),
    ])
    phases = ("detections", "depth", "feature")
    records = [
        EdgeRecord(int(k % 9), int(k % 7), phases[k % 3], int(e))
        for k, e in enumerate(elements)
    ]
    for mode in ("full", "camera_missing"):
        assert cli._log_lines(11, mode, records) == log_lines_by_json(11, mode, records)
    assert cli._log_lines(0, "full", []) == []


def test_command_line_overrides(tmp_path):
    code, out = run(tmp_path, experiment_tree(), "--trials", "1", "--seed", "11")
    assert code == 0
    rows = csv_lines(out)[1:]
    assert len(rows) == 1
    assert rows[0].split(",")[2] == "11"


def test_negative_seed_override_exits_1_and_names_the_option(tmp_path, capsys):
    code, out = run(tmp_path, experiment_tree(), "--seed", "-1")
    assert code == 1
    assert "config error: --seed: expected an integer of at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_non_mapping_dropout_exits_1_and_names_the_path(tmp_path, capsys):
    tree = experiment_tree()
    tree["scenario"]["dropout"] = [1]
    code, out = run(tmp_path, tree)
    assert code == 1
    assert "scenario.dropout" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, dropout, path",
    [
        ("lidar_missing", {1: ["camera"]}, "scenario.dropout.1"),
        ("full", {1: ["camera", "lidar"]}, "scenario.dropout.1"),
        ("full", {3: ["camera"]}, "scenario.dropout.3"),
    ],
)
def test_unrunnable_dropout_exits_1_and_names_the_path(tmp_path, capsys, mode, dropout, path):
    tree = experiment_tree(mode=mode)
    tree["scenario"]["dropout"] = dropout
    code, out = run(tmp_path, tree)
    assert code == 1
    assert f"config error: {path}:" in capsys.readouterr().err
    assert not out.exists()


def test_mode_override_is_checked_against_the_dropout(tmp_path, capsys):
    code, out = run(tmp_path, experiment_tree(), "--mode", "lidar_missing")
    assert code == 1
    assert "config error: scenario.dropout.1:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [(), ("--mode", "noise_sweep")])
def test_noise_sweep_without_sigmas_exits_1_and_names_the_field(tmp_path, capsys, override):
    tree = experiment_tree(noise_sigmas=[])
    if not override:
        tree["experiment"]["mode"] = "noise_sweep"
    code, out = run(tmp_path, tree, *override)
    assert code == 1
    assert "config error: experiment.noise_sigmas:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below_file", [True, False])
def test_uncreatable_out_dir_exits_1_in_one_line(tmp_path, capsys, below_file):
    """An --out below a regular file, or naming one, is reported in one
    line that names the directory; no trial runs and no traceback prints."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if below_file else blocker
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(experiment_tree(trials=1)))
    code = cli.main([str(cfg), "--out", str(out), "--no-render"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and str(out) in err
    assert "Traceback" not in err


def read_ppm(path):
    """The (H, W, 3) uint8 pixels of a binary P6 file `write_ppm` wrote."""
    magic, size, maxval, pixels = path.read_bytes().split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    w, h = map(int, size.split())
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


def test_mask_image_is_white_exactly_at_the_message_cells(tmp_path, monkeypatch):
    """Each agent's mask image of a rendered trial is the cells its message
    carried: white there and black everywhere else."""
    outcomes = []
    run_trial = cli.run_trial

    def kept(*args):
        outcomes.append(run_trial(*args))
        return outcomes[-1]

    monkeypatch.setattr(cli, "run_trial", kept)
    tree = experiment_tree(trials=1, render=True)
    tree["pipeline"]["grid"] = {"nx": 24, "ny": 16, "nz": 4, "channels": 8}
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    out = tmp_path / "out"
    assert cli.main([str(cfg), "--out", str(out)]) == 0
    (outcome,) = outcomes
    assert any(r.message.indices.size for r in outcome.rounds.values())
    for aid, r in outcome.rounds.items():
        img = read_ppm(out / "trial_000" / f"agent_{aid}_mask.ppm")
        assert img.shape == (24, 16, 3)
        assert set(np.unique(img)) <= {0, 255}
        assert np.array_equal(img, np.repeat(img[:, :, :1], 3, axis=2))
        assert np.array_equal(np.flatnonzero(img[:, :, 0]), r.message.indices), aid


# (experiment overrides, the output path taken, what takes it)
BLOCKED_OUTPUTS = [
    ({"render": True}, "trial_000", "file"),
    ({"render": True}, "_stage_trial_000", "file"),
    ({"render": True, "mode": "noise_sweep", "noise_sigmas": [0.0, 0.3], "trials": 2},
     "sigma_0.3_trial_001", "file"),
    ({}, "metrics.csv", "directory"),
    ({}, "messages.log", "directory"),
]


@pytest.mark.parametrize("experiment, taken, kind", BLOCKED_OUTPUTS,
                         ids=[taken for _, taken, _ in BLOCKED_OUTPUTS])
def test_output_path_of_the_wrong_type_exits_1_in_one_line(
        tmp_path, monkeypatch, capsys, experiment, taken, kind):
    """A render directory, or its stage, taken by a regular file, and a
    metrics or message file taken by a directory, are reported before the
    first trial in one line that names the path: exit 1, no trial runs,
    nothing is written or deleted."""
    out = tmp_path / "out"
    out.mkdir()
    blocker = out / taken
    if kind == "file":
        blocker.write_text("keep")
    else:
        blocker.mkdir()
        (blocker / "inside").write_text("keep")
    run_trial, ran = cli.run_trial, []

    def counted(*args):
        ran.append(args[1])
        return run_trial(*args)

    monkeypatch.setattr(cli, "run_trial", counted)
    tree = experiment_tree(**dict({"trials": 1}, **experiment))
    tree["scenario"] = {"n_agents": 2}
    tree["pipeline"] = {"grid": {"nx": 16, "ny": 16}}
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    code = cli.main([str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("output error:") and err.count("\n") == 1 and str(blocker) in err
    assert ran == []
    assert sorted(p.name for p in out.iterdir()) == [taken]
    assert (blocker.read_text() if kind == "file" else (blocker / "inside").read_text()) == "keep"

def python_m_covox(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(covox.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "covox", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_python_m_covox_runs_a_config(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("experiment: {trials: 1}\nscenario: {n_agents: 2}\n"
                   "pipeline: {grid: {nx: 16, ny: 16}}\n")
    result = python_m_covox(str(cfg), "--out", "out", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = csv_lines(tmp_path / "out")
    assert lines[0] == cli.CSV_HEADER and len(lines) == 2


def test_python_m_covox_missing_config_exits_1(tmp_path):
    result = python_m_covox(str(tmp_path / "absent.yaml"), cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("config error:") and "Traceback" not in result.stderr


def test_failed_write_keeps_previous_metrics(tmp_path, monkeypatch):
    code, out = run(tmp_path, experiment_tree())
    assert code == 0
    before = (out / "metrics.csv").read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        # One trial in place of two: the new file would differ from the old one.
        run(tmp_path, experiment_tree(), "--trials", "1")
    assert (out / "metrics.csv").read_bytes() == before
    assert not list(out.glob(".metrics.csv.*"))


def lidar_round(tmp_path):
    """One round of four LiDAR-only agents under max aggregation: its
    experiment, objects and records."""
    tree = {
        "experiment": {"mode": "full", "trials": 1, "render": False},
        "scenario": {"seed": 0, "n_agents": 4, "n_objects": 12},
        "pipeline": {"fusion": "none", "depth_projection": "no", "collab": "max"},
    }
    cfg = tmp_path / "lidar.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    exp = load_experiment(cfg)
    agents, objects = generate_scene(exp.scenario)
    params = make_pipeline_params(exp.pipeline.grid, exp.params_seed)
    rounds, _ = run_round(agents, objects, exp.scenario, exp.pipeline, params)
    return exp, objects, rounds


def test_detector_map_is_binary_on_aggregated_cells(tmp_path):
    """The map `_scored` hands the detector holds 1.0 at each aggregated
    cell, whatever the cell's row, and lists no other cell."""
    exp, objects, rounds = lidar_round(tmp_path)
    assert all(result.aggregated_cells.size for result in rounds.values())
    for result in rounds.values():
        occ, _, _ = cli._scored(result, objects, exp.pipeline.grid)
        assert occ.shape == result.aggregated_cells.shape
        assert np.array_equal(occ, np.ones(result.aggregated_cells.size))


def test_evaluate_round_scores_each_near_pair_once(tmp_path, monkeypatch):
    """AP50, AP70 and recall50 share one IoU table per agent: each det x gt
    pair whose circles meet is scored once, and no other pair is."""
    exp, objects, rounds = lidar_round(tmp_path)
    boxes, calls = [], []
    detect, gt_in_view, iou = cli.detect_local, cli._gt_in_view, metrics._clipped_iou

    def detect_spy(cells, values, grid):
        boxes.append([detect(cells, values, grid)])
        return boxes[-1][0]

    def gt_spy(agent, objects, grid):
        boxes[-1].append(gt_in_view(agent, objects, grid))
        return boxes[-1][1]

    def iou_spy(a, b):
        calls.append((len(boxes) - 1, id(a), id(b)))
        return iou(a, b)

    monkeypatch.setattr(cli, "detect_local", detect_spy)
    monkeypatch.setattr(cli, "_gt_in_view", gt_spy)
    monkeypatch.setattr(metrics, "_clipped_iou", iou_spy)
    cli.evaluate_round(rounds, objects, exp.pipeline.grid)

    assert len(boxes) == len(rounds)
    near = {
        (k, id(dets[i]), id(gts[j]))
        for k, (dets, gts) in enumerate(boxes)
        for i, j in zip(*np.nonzero(metrics._may_overlap(dets, gts)))
    }
    assert near, "the scene gives no near pair to score"
    assert len(calls) == len(set(calls))
    assert set(calls) == near
