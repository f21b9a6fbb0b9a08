"""Experiment configuration: a YAML key/value tree mapped onto the scenario,
pipeline and experiment dataclasses, with field-path error reporting."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .collab import COLLAB_MODES, DEPTH_PROJECTIONS, FUSION_MODES, PipelineConfig
from .depth import DepthBins, NoisyOraclePredictor, UniformPredictor
from .geometry import CameraIntrinsics
from .scene import LidarSpec, ScenarioConfig, Wall
from .voxel import GridSpec

OUT_ROOT_ENV = "COVOX_OUT_ROOT"

MODES = ("full", "camera_missing", "lidar_missing", "noise_sweep")


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending field path."""


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: ScenarioConfig
    pipeline: PipelineConfig
    mode: str = "full"
    trials: int = 1
    out_dir: Path = Path("runs/out")
    params_seed: int = 2024
    missing_agents: tuple[int, ...] | str = "all"
    noise_sigmas: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6)
    render: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"experiment.mode: unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ConfigError("experiment.trials: need at least one trial")


_REQUIRED = object()


def _get(tree: dict, path: str, default=_REQUIRED):
    node = tree
    walked = []
    for key in path.split("."):
        walked.append(key)
        if not isinstance(node, dict) or key not in node:
            if default is not _REQUIRED:
                return default
            raise ConfigError(f"{'.'.join(walked)}: missing required field")
        node = node[key]
    return node


def _number(tree, path, default=_REQUIRED) -> float:
    value = _get(tree, path, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _int(tree, path, default=_REQUIRED) -> int:
    value = _get(tree, path, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _choice(tree, path, default, choices: tuple[str, ...]) -> str:
    value = _get(tree, path, default)
    if value not in choices:
        raise ConfigError(f"{path}: expected one of {', '.join(choices)}, got {value!r}")
    return value


def _pair(tree, path, default=_REQUIRED) -> tuple[float, float]:
    value = _get(tree, path, default)
    if isinstance(value, tuple):
        return value
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected [low, high]")
    return float(value[0]), float(value[1])


def _load_walls(tree) -> tuple[Wall, ...]:
    raw = _get(tree, "scenario.occluders", [])
    if raw is None:
        return ()
    walls = []
    for k, item in enumerate(raw):
        prefix = f"scenario.occluders[{k}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{prefix}: expected a mapping")
        try:
            walls.append(
                Wall(
                    p1=tuple(_pair(item, "p1")),
                    p2=tuple(_pair(item, "p2")),
                    height=_number(item, "height"),
                    z0=_number(item, "z0", 0.0),
                )
            )
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{prefix}: {exc}") from exc
    return tuple(walls)


def _load_dropout(tree) -> dict[int, tuple[str, ...]]:
    raw = _get(tree, "scenario.dropout", {})
    if raw is None:
        return {}
    out = {}
    for key, sensors in raw.items():
        try:
            aid = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"scenario.dropout.{key}: agent id must be an integer")
        if not isinstance(sensors, list) or not all(
            s in ("lidar", "camera") for s in sensors
        ):
            raise ConfigError(
                f"scenario.dropout.{key}: expected a list drawn from [lidar, camera]"
            )
        out[aid] = tuple(sensors)
    return out


def _load_lidar(tree) -> LidarSpec:
    sub = _get(tree, "scenario.lidar", {})
    if "elevations_deg" in sub:
        el = sub["elevations_deg"]
        try:
            angles = tuple(
                np.deg2rad(
                    np.linspace(float(el["start"]), float(el["stop"]), int(el["count"]))
                )
            )
        except (KeyError, TypeError, ValueError):
            raise ConfigError(
                "scenario.lidar.elevations_deg: expected {start, stop, count}"
            )
    else:
        angles = LidarSpec().elevation_angles
    return LidarSpec(
        n_azimuth=_int({"lidar": sub}, "lidar.n_azimuth", LidarSpec().n_azimuth),
        elevation_angles=angles,
        max_range=_number({"lidar": sub}, "lidar.max_range", LidarSpec().max_range),
        range_noise_sigma=_number({"lidar": sub}, "lidar.range_noise_sigma", 0.0),
    )


def _load_camera(tree) -> CameraIntrinsics:
    sub = {"camera": _get(tree, "scenario.camera", {})}
    width = _int(sub, "camera.width", 96)
    height = _int(sub, "camera.height", 64)
    return CameraIntrinsics(
        fx=_number(sub, "camera.fx", 70.0),
        fy=_number(sub, "camera.fy", 70.0),
        u0=_number(sub, "camera.u0", width / 2.0),
        v0=_number(sub, "camera.v0", height / 2.0),
        width=width,
        height=height,
    )


def _load_predictor(tree):
    sub = _get(tree, "pipeline.predictor", {"kind": "uniform"})
    kind = sub.get("kind", "uniform") if isinstance(sub, dict) else sub
    if kind == "uniform":
        return UniformPredictor()
    if kind == "noisy_oracle":
        return NoisyOraclePredictor(
            sigma_bins=_number({"p": sub}, "p.sigma_bins", 1.0),
            blur_radius=_int({"p": sub}, "p.blur_radius", 0),
        )
    raise ConfigError(f"pipeline.predictor.kind: unknown predictor {kind!r}")


def _load_grid(tree) -> GridSpec:
    sub = {"grid": _get(tree, "pipeline.grid", {})}
    try:
        return GridSpec(
            x_range=_pair(sub, "grid.x", (-20.0, 20.0)),
            y_range=_pair(sub, "grid.y", (-20.0, 20.0)),
            z_range=_pair(sub, "grid.z", (0.5, 3.7)),
            nx=_int(sub, "grid.nx", 64),
            ny=_int(sub, "grid.ny", 64),
            nz=_int(sub, "grid.nz", 8),
            channels=_int(sub, "grid.channels", 8),
        )
    except ValueError as exc:
        raise ConfigError(f"pipeline.grid: {exc}") from exc


def _load_scenario(tree) -> ScenarioConfig:
    area_raw = _get(tree, "scenario.area", [-20.0, 20.0, -20.0, 20.0])
    if not isinstance(area_raw, list) or len(area_raw) != 4:
        raise ConfigError("scenario.area: expected [x_min, x_max, y_min, y_max]")
    try:
        return ScenarioConfig(
            seed=_int(tree, "scenario.seed", 0),
            n_agents=_int(tree, "scenario.n_agents", 2),
            area=tuple(float(v) for v in area_raw),
            n_objects=_int(tree, "scenario.n_objects", 6),
            occluders=_load_walls(tree),
            lidar=_load_lidar(tree),
            camera=_load_camera(tree),
            comm_range=_number(tree, "scenario.comm_range", 40.0),
            dropout=_load_dropout(tree),
            pose_noise_sigma_xy=_number(tree, "scenario.pose_noise.sigma_xy", 0.0),
            pose_noise_sigma_yaw=_number(tree, "scenario.pose_noise.sigma_yaw", 0.0),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def _load_pipeline(tree) -> PipelineConfig:
    bins_sub = {"bins": _get(tree, "pipeline.bins", {})}
    try:
        bins = DepthBins(
            d_min=_number(bins_sub, "bins.d_min", 1.0),
            d_max=_number(bins_sub, "bins.d_max", 33.0),
            n_bins=_int(bins_sub, "bins.count", 16),
        )
    except ValueError as exc:
        raise ConfigError(f"pipeline.bins: {exc}") from exc
    try:
        return PipelineConfig(
            grid=_load_grid(tree),
            bins=bins,
            predictor=_load_predictor(tree),
            mass_threshold=_number(tree, "pipeline.mass_threshold", 0.05),
            fusion_mode=_choice(tree, "pipeline.fusion", "biased", FUSION_MODES),
            depth_projection=_choice(
                tree, "pipeline.depth_projection", "all", DEPTH_PROJECTIONS
            ),
            collab_mode=_choice(tree, "pipeline.collab", "attention", COLLAB_MODES),
            robust=bool(_get(tree, "pipeline.robust", False)),
            gate_radius=_number(tree, "pipeline.gate_radius", 2.0),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"pipeline: {exc}") from exc


def resolve_out_dir(raw: str) -> Path:
    path = Path(raw)
    if not path.is_absolute():
        root = os.environ.get(OUT_ROOT_ENV)
        if root:
            path = Path(root) / path
    return path


def load_experiment(path) -> ExperimentSpec:
    """Parse a YAML experiment file into a validated ExperimentSpec."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        tree = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if tree is None:
        tree = {}
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    missing = _get(tree, "experiment.missing_agents", "all")
    if missing != "all":
        if not isinstance(missing, list) or not all(isinstance(v, int) for v in missing):
            raise ConfigError(
                "experiment.missing_agents: expected 'all' or a list of agent ids"
            )
        missing = tuple(missing)
    sigmas = _get(tree, "experiment.noise_sigmas", [0.0, 0.2, 0.4, 0.6])
    if not isinstance(sigmas, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in sigmas
    ):
        raise ConfigError("experiment.noise_sigmas: expected a list of numbers")

    return ExperimentSpec(
        scenario=_load_scenario(tree),
        pipeline=_load_pipeline(tree),
        mode=_get(tree, "experiment.mode", "full"),
        trials=_int(tree, "experiment.trials", 1),
        out_dir=resolve_out_dir(_get(tree, "experiment.out", "runs/out")),
        params_seed=_int(tree, "experiment.params_seed", 2024),
        missing_agents=missing,
        noise_sigmas=tuple(float(v) for v in sigmas),
        render=bool(_get(tree, "experiment.render", True)),
    )
