"""Scenario runner: executes experiment suites over seeded synthetic scenes
and writes metrics (CSV), per-message logs (JSON lines) and debug renders.

Usage: runner <config.yaml> [--seed N] [--mode M] [--trials K] [--out DIR]
Exit codes: 0 success, 1 bad configuration, 2 at least one trial failed.
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
from .config import MODES, ConfigError, ExperimentSpec, load_experiment, resolve_out_dir
from .geometry import invert
from .metrics import Detection, average_precision, recall_at
from .render import depth_map_gray, mask_image, render_bev, write_pgm16, write_ppm
from .robust import detect_local, occupancy_from_bev, transform_detections
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
    agents: list[AgentState]
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
    kept = [
        det
        for det in local
        if grid.x_range[0] <= det.center[0] < grid.x_range[1]
        and grid.y_range[0] <= det.center[1] < grid.y_range[1]
    ]
    return kept


def evaluate_round(rounds, agents, objects, grid):
    """Mean detection metrics across agents, each scored in its own frame."""
    ap50s, ap70s, recs = [], [], []
    for agent in agents:
        dets = detect_local(occupancy_from_bev(rounds[agent.id].aggregated), grid)
        gts = _gt_in_view(agent, objects, grid)
        ap50s.append(average_precision(dets, gts, 0.5) if gts else 0.0)
        ap70s.append(average_precision(dets, gts, 0.7) if gts else 0.0)
        recs.append(recall_at(dets, gts, 0.5) if gts else 0.0)
    n = max(1, len(agents))
    return sum(ap50s) / n, sum(ap70s) / n, sum(recs) / n


def run_trial(exp: ExperimentSpec, trial: int, sigma_xy: float | None, params) -> TrialOutcome:
    scenario = replace(
        exp.scenario,
        seed=exp.scenario.seed + trial,
        dropout=exp.sensor_dropout(),
    )
    if sigma_xy is not None:
        scenario = replace(scenario, pose_noise_sigma_xy=sigma_xy)
    agents, objects = generate_scene(scenario)
    rounds, ledger = run_round(
        agents, objects, scenario.occluders, scenario, exp.pipeline, params
    )
    ap50, ap70, rec = evaluate_round(rounds, agents, objects, exp.pipeline.grid)

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
    log_lines = [
        json.dumps(
            {
                "trial": trial,
                "mode": exp.mode,
                "sender": rec_.sender,
                "receiver": rec_.receiver,
                "phase": rec_.phase,
                "elements": rec_.elements,
                "log2": rec_.log2,
            },
            sort_keys=True,
        )
        for rec_ in ledger.records
    ]
    return TrialOutcome(row, log_lines, rounds, agents, objects)


def render_outputs(outcome: TrialOutcome, grid, out_dir: Path) -> list[Path]:
    """Write the debug images for one finished trial."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    scene_img = render_bev(
        np.zeros((grid.nx, grid.ny)), grid, gt_detections(outcome.objects), []
    )
    written.append(write_ppm(out_dir / "scene.ppm", scene_img))

    for agent in outcome.agents:
        result = outcome.rounds[agent.id]
        tag = f"agent_{agent.id}"
        if result.depth_map is not None:
            written.append(
                write_pgm16(out_dir / f"{tag}_depth.pgm", depth_map_gray(result.depth_map))
            )
        occ = occupancy_from_bev(result.aggregated)
        dets = detect_local(occ, grid)
        gts = _gt_in_view(agent, outcome.objects, grid)
        written.append(
            write_ppm(out_dir / f"{tag}_bev.ppm", render_bev(occ, grid, gts, dets))
        )
        written.append(write_ppm(out_dir / f"{tag}_mask.ppm", mask_image(result.mask)))
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


def run_experiment(exp: ExperimentSpec) -> int:
    """Run every trial of the experiment; returns the process exit code.

    Trial failures are logged and skipped; the remaining trials and the
    metrics file are still produced.
    """
    out_dir = Path(exp.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = make_pipeline_params(exp.pipeline.grid, exp.params_seed)

    sweeps: list[float | None]
    if exp.mode == "noise_sweep":
        sweeps = list(exp.noise_sigmas)
    else:
        sweeps = [None]

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
                label = f"trial_{trial:03d}" if sigma is None else (
                    f"sigma_{_fmt(sigma)}_trial_{trial:03d}"
                )
                stage = out_dir / f"_stage_{label}"
                if stage.exists():
                    shutil.rmtree(stage)
                render_outputs(outcome, exp.pipeline.grid, stage)
                final = out_dir / label
                if final.exists():
                    shutil.rmtree(final)
                os.replace(stage, final)

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
            exp = replace(exp, scenario=replace(exp.scenario, seed=args.seed))
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
