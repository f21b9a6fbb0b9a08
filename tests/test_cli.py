import os

import pytest
import yaml

from covox import cli


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


def test_rerun_is_byte_identical(tmp_path):
    tree = experiment_tree()
    code_a, a = run(tmp_path, tree, name="a")
    code_b, b = run(tmp_path, tree, name="b")
    assert code_a == code_b == 0
    for name in ("metrics.csv", "messages.log"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_command_line_overrides(tmp_path):
    code, out = run(tmp_path, experiment_tree(), "--trials", "1", "--seed", "11")
    assert code == 0
    rows = csv_lines(out)[1:]
    assert len(rows) == 1
    assert rows[0].split(",")[2] == "11"


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
