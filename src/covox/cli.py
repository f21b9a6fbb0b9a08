"""Scenario runner: executes experiment suites over seeded synthetic scenes
and writes metrics (CSV), per-message logs (JSON lines) and debug renders.

Usage: runner <config.yaml> [--seed N] [--mode M] [--trials K] [--out DIR]
Exit codes: 0 success, 1 bad configuration, an output directory that
cannot be created or an output path taken by the wrong kind of file, 2 at
least one trial failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .collab import AgentRound, comm_volume_log, dense_ratio, make_pipeline_params, run_round
from .config import MODES, ConfigError, ExperimentSpec, load_experiment, read_seed, resolve_out_dir
from .geometry import invert
from .metrics import Detection, average_precision, iou_table, recall_at
from .render import depth_map_gray, mask_image, render_bev, write_pgm16, write_ppm
from .robust import detect_local, transform_detections
from .scene import AgentState, BoxObject, generate_scene

CSV_HEADER = (
    "mode,trial,seed,sigma_xy,n_agents,ap50,ap70,recall50,"
    "feature_elements,depth_elements,detection_elements,total_elements,"
    "comm_log2,dense_ratio,pose_err_before,pose_err_after,warp_collisions"
)


@dataclass
class TrialOutcome:
    row: str
    log_lines: list[str]
    rounds: dict[int, AgentRound]
    objects: list[BoxObject]


def _fmt(value: float) -> str:
    return format(float(value), ".10g")


def gt_detections(objects: Sequence[BoxObject]) -> list[Detection]:
    return [
        Detection(center=o.center, yaw=o.yaw, extent=(o.extent[0], o.extent[1]))
        for o in objects
    ]


def _gt_in_view(agent: AgentState, objects, grid) -> list[Detection]:
    """Ground truth restricted to boxes whose center lies in the agent's grid."""
    local = transform_detections(gt_detections(objects), invert(agent.true_pose))
    centers = np.array([det.center for det in local]).reshape(-1, 2)
    inside, _ = grid.bev_cell_of(centers[:, 0], centers[:, 1])
    return [det for det, keep in zip(local, inside) if keep]


def _scored(result: AgentRound, objects, grid):
    """An agent's detector map, 1.0 at each of its aggregated cells, its
    boxes and the ground truth in view, all in its own frame."""
    occ = np.ones(result.aggregated_cells.size)
    dets = detect_local(result.aggregated_cells, occ, grid)
    return occ, dets, _gt_in_view(result.state, objects, grid)


def evaluate_round(rounds, objects, grid):
    """Mean detection metrics across agents, each scored in its own frame
    and summed in the order of `rounds`, which `run_round` keys by agent id.

    Each agent's det x gt IoUs are computed once and shared by every score.
    """
    ap50s, ap70s, recs = [], [], []
    for result in rounds.values():
        _, dets, gts = _scored(result, objects, grid)
        ious = iou_table(dets, gts)
        ap50s.append(average_precision(dets, ious, 0.5))
        ap70s.append(average_precision(dets, ious, 0.7))
        recs.append(recall_at(dets, ious, 0.5))
    n = max(1, len(rounds))
    return sum(ap50s) / n, sum(ap70s) / n, sum(recs) / n


def _log_lines(trial: int, mode: str, records) -> list[str]:
    """One JSON line per ledger record, keys sorted, as `json.dumps` writes
    them; `log2` is `comm_volume_log` of the record's elements."""
    log2 = comm_volume_log([r.elements for r in records])
    mode = json.dumps(mode)
    phases = {phase: json.dumps(phase) for phase in {r.phase for r in records}}
    return [
        f'{{"elements": {r.elements}, "log2": {value!r}, "mode": {mode}, '
        f'"phase": {phases[r.phase]}, "receiver": {r.receiver}, "sender": {r.sender}, '
        f'"trial": {trial}}}'
        for r, value in zip(records, log2.tolist())
    ]


def run_trial(exp: ExperimentSpec, trial: int, sigma_xy: float | None, params) -> TrialOutcome:
    scenario = replace(
        exp.scenario,
        seed=exp.scenario.seed + trial,
        dropout=exp.sensor_dropout(),
    )
    if sigma_xy is not None:
        scenario = replace(scenario, pose_noise_sigma_xy=sigma_xy)
    agents, objects = generate_scene(scenario)
    rounds, ledger = run_round(agents, objects, scenario, exp.pipeline, params)
    ap50, ap70, rec = evaluate_round(rounds, objects, exp.pipeline.grid)

    errs_before = [e[0][0] for r in rounds.values() for e in r.pose_errors.values()]
    errs_after = [e[1][0] for r in rounds.values() for e in r.pose_errors.values()]
    feature = ledger.total("feature")
    depth = ledger.total("depth")
    detections = ledger.total("detections")
    total = feature + depth + detections
    collisions = sum(r.warp_collisions for r in rounds.values())
    edges = sum(len(r.pose_errors) for r in rounds.values())

    row = ",".join(
        [
            exp.mode,
            str(trial),
            str(scenario.seed),
            _fmt(sigma_xy if sigma_xy is not None else scenario.pose_noise_sigma_xy),
            str(scenario.n_agents),
            _fmt(ap50),
            _fmt(ap70),
            _fmt(rec),
            str(feature),
            str(depth),
            str(detections),
            str(total),
            _fmt(comm_volume_log(total)),
            _fmt(dense_ratio(edges, exp.pipeline.grid, total)),
            _fmt(float(np.mean(errs_before)) if errs_before else 0.0),
            _fmt(float(np.mean(errs_after)) if errs_after else 0.0),
            str(collisions),
        ]
    )
    log_lines = _log_lines(trial, exp.mode, ledger.records)
    return TrialOutcome(row, log_lines, rounds, objects)


def render_outputs(outcome: TrialOutcome, grid, out_dir: Path) -> list[Path]:
    """Write the debug images for one finished trial."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    scene_img = render_bev(
        np.zeros((grid.nx, grid.ny)), grid, gt_detections(outcome.objects), []
    )
    written.append(write_ppm(out_dir / "scene.ppm", scene_img))

    for aid, result in outcome.rounds.items():
        tag = f"agent_{aid}"
        if result.depth_map is not None:
            written.append(
                write_pgm16(out_dir / f"{tag}_depth.pgm", depth_map_gray(result.depth_map))
            )
        occ, dets, gts = _scored(result, outcome.objects, grid)
        image = np.zeros(grid.nx * grid.ny)
        image[result.aggregated_cells] = occ
        bev = render_bev(image.reshape(grid.nx, grid.ny), grid, gts, dets)
        written.append(write_ppm(out_dir / f"{tag}_bev.ppm", bev))
        sent = np.zeros((grid.nx, grid.ny))  # the cells the message carried
        sent.flat[result.message.indices] = 1
        written.append(write_ppm(out_dir / f"{tag}_mask.ppm", mask_image(sent)))
    return written


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_label(trial: int, sigma: float | None) -> str:
    """The name of a trial's render directory under the output directory."""
    if sigma is None:
        return f"trial_{trial:03d}"
    return f"sigma_{_fmt(sigma)}_trial_{trial:03d}"


def _blocked_output(exp: ExperimentSpec, out_dir: Path, sweeps) -> str | None:
    """Why a path the run will write is taken by the wrong kind of file, or
    None.  With rendering on, each trial's render directory and its
    `_stage_` directory must be directories if they exist (not a file, nor
    a link, which the run could not clear); `metrics.csv` and
    `messages.log` must not be directories."""
    if exp.render:
        for sigma in sweeps:
            for trial in range(exp.trials):
                label = _render_label(trial, sigma)
                for path in (out_dir / f"_stage_{label}", out_dir / label):
                    if os.path.lexists(path) and (path.is_symlink() or not path.is_dir()):
                        return f"{path} exists and is not a directory"
    for path in (out_dir / "metrics.csv", out_dir / "messages.log"):
        if path.is_dir():
            return f"{path} is a directory"
    return None


def run_experiment(exp: ExperimentSpec) -> int:
    """Run every trial of the experiment; returns the process exit code.

    Trial failures are logged and skipped; the remaining trials and the
    metrics file are still produced.  An output directory that cannot be
    created, or an output path taken by the wrong kind of file, is
    reported in one line, and nothing runs.
    """
    out_dir = Path(exp.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot create {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 1

    sweeps: list[float | None]
    if exp.mode == "noise_sweep":
        sweeps = list(exp.noise_sigmas)
    else:
        sweeps = [None]
    blocked = _blocked_output(exp, out_dir, sweeps)
    if blocked is not None:
        print(f"output error: {blocked}", file=sys.stderr)
        return 1
    params = make_pipeline_params(exp.pipeline.grid, exp.params_seed)

    rows, log_lines = [], []
    failures = 0
    for sigma in sweeps:
        for trial in range(exp.trials):
            try:
                outcome = run_trial(exp, trial, sigma, params)
            except Exception as exc:  # noqa: BLE001 - trial isolation
                failures += 1
                print(
                    f"trial {trial} (sigma={sigma}) failed: {exc}", file=sys.stderr
                )
                traceback.print_exc(file=sys.stderr)
                continue
            rows.append(outcome.row)
            log_lines.extend(outcome.log_lines)
            if exp.render:
                label = _render_label(trial, sigma)
                stage = out_dir / f"_stage_{label}"
                if stage.exists():
                    shutil.rmtree(stage)
                render_outputs(outcome, exp.pipeline.grid, stage)
                final = out_dir / label
                if final.exists():
                    shutil.rmtree(final)
                os.replace(stage, final)
            # Free this trial's records before the next trial runs.
            del outcome

    _atomic_write_text(out_dir / "metrics.csv", "\n".join([CSV_HEADER] + rows) + "\n")
    _atomic_write_text(
        out_dir / "messages.log",
        ("\n".join(log_lines) + "\n") if log_lines else "",
    )
    return 2 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runner", description="Run a collaborative-perception experiment suite."
    )
    parser.add_argument("config", help="path to the YAML experiment file")
    parser.add_argument("--seed", type=int, help="override scenario.seed")
    parser.add_argument("--mode", choices=MODES, help="override experiment.mode")
    parser.add_argument("--trials", type=int, help="override experiment.trials")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument(
        "--no-render", action="store_true", help="skip image outputs"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        exp = load_experiment(args.config)
        if args.seed is not None:
            seed = read_seed(args.seed, "--seed")
            exp = replace(exp, scenario=replace(exp.scenario, seed=seed))
        if args.mode is not None:
            exp = replace(exp, mode=args.mode)
        if args.trials is not None:
            exp = replace(exp, trials=args.trials)
        if args.out is not None:
            exp = replace(exp, out_dir=resolve_out_dir(args.out))
        if args.no_render:
            exp = replace(exp, render=False)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run_experiment(exp)


if __name__ == "__main__":
    sys.exit(main())
