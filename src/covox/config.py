"""Experiment configuration: a YAML key/value tree mapped onto the scenario,
pipeline and experiment dataclasses, with field-path error reporting.

Each YAML section is one table of key -> (constructor argument, parser). A
key missing from the file is left out of the call, so the dataclass default
applies."""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
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
_MISSING_SENSOR = {"camera_missing": "camera", "lidar_missing": "lidar"}


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
        if self.mode == "noise_sweep" and not self.noise_sigmas:
            raise ConfigError("experiment.noise_sigmas: noise_sweep needs at least one sigma")
        n = self.scenario.n_agents
        for aid in self.scenario.dropout:
            if not 0 <= aid < n:
                raise ConfigError(f"scenario.dropout.{aid}: no agent {aid} among {n} agents")
        if self.mode in _MISSING_SENSOR and self.missing_agents != "all":
            for aid in self.missing_agents:
                if not 0 <= aid < n:
                    raise ConfigError(f"experiment.missing_agents: no agent {aid} among {n} agents")
        for aid, sensors in self.sensor_dropout().items():
            if set(sensors) >= {"lidar", "camera"}:
                why = "an agent must keep at least one sensor"
                if set(self.scenario.dropout.get(aid, ())) != set(sensors):
                    why = f"experiment.mode {self.mode} drops the other sensor of this agent too"
                raise ConfigError(f"scenario.dropout.{aid}: {why}")

    def sensor_dropout(self) -> dict[int, tuple[str, ...]]:
        """The sensors each agent lacks: the scenario's dropout, plus the
        mode's missing sensor on its missing agents."""
        dropout = {k: tuple(v) for k, v in self.scenario.dropout.items()}
        if self.mode not in _MISSING_SENSOR:
            return dropout
        sensor = _MISSING_SENSOR[self.mode]
        targets = (
            range(self.scenario.n_agents) if self.missing_agents == "all" else self.missing_agents
        )
        for aid in targets:
            dropout[aid] = tuple(sorted(set(dropout.get(aid, ())) | {sensor}))
        return dropout


@contextmanager
def _at(path: str):
    """Report any TypeError or ValueError raised inside as a ConfigError at `path`."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _scalar(kinds: tuple[type, ...], what: str):
    """A value of one of `kinds`, as kinds[0]; a YAML bool only if bool is one."""

    def parse(value, path):
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise TypeError(f"expected {what}, got {value!r}")
        return kinds[0](value)

    return parse


_real = _scalar((float, int), "a number")
_int = _scalar((int,), "an integer")
_bool = _scalar((bool,), "true or false")
_str = _scalar((str,), "a string")


def _number(value, path):
    """A finite number, as a float.  In any numeric field NaN or an
    infinity either fails every trial or runs a meaningless experiment (a
    NaN comm_range links no agents), so neither loads."""
    try:
        number = _real(value, path)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _non_negative(value, path):
    number = _number(value, path)
    if not number >= 0.0:
        raise ValueError(f"expected a non-negative number, got {value!r}")
    return number


def _at_least(minimum: int):
    """An integer of at least `minimum`."""

    def parse(value, path):
        number = _int(value, path)
        if number < minimum:
            raise ValueError(f"expected an integer of at least {minimum}, got {value!r}")
        return number

    return parse


# Seeds key numpy generators, which take only non-negative integers.
_SEED = _at_least(0)


def read_seed(value, path: str) -> int:
    """A seed given outside the YAML file; a bad one is a ConfigError at
    `path`."""
    with _at(path):
        return _SEED(value, path)


def _choice(*options: str):
    def parse(value, path):
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {value!r}")
        return value

    return parse


def _numbers(count: int | None, what: str, item=_number):
    """A list of `count` numbers (any length when None), each read by `item`,
    as a tuple of floats."""

    def parse(value, path):
        if not isinstance(value, list) or count not in (None, len(value)):
            raise TypeError(f"expected {what}, got {value!r}")
        return tuple(item(v, path) for v in value)

    return parse


_pair = _numbers(2, "[low, high]")


def _depth_projection(value, path):
    # YAML 1.1 reads the unquoted value `no` as false.
    return _choice(*DEPTH_PROJECTIONS)("no" if value is False else value, path)


def _agent_ids(value, path):
    if value == "all":
        return value
    if not isinstance(value, list):
        raise TypeError(f"expected 'all' or a list of agent ids, got {value!r}")
    return tuple(_int(v, path) for v in value)


def _out_dir(value, path):
    return resolve_out_dir(_str(value, path))


def _mapping(value) -> dict:
    """A section's YAML mapping; a bare `key:` (null) reads as an empty one."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise TypeError(f"expected a mapping, got {value!r}")
    return value


def _section(build, fields: dict, defaults=None, required=()):
    """Parser for a YAML mapping. `fields` maps each allowed key to (argument
    of `build`, parser); a `None` argument merges the parsed mapping into this
    section's. `defaults` are YAML values for absent keys. Every parser takes
    (YAML value, its path) and raises TypeError or ValueError for a bad value;
    the caller adds the path through `_at`."""

    def parse(value, path):
        tree = {**(defaults or {}), **_mapping(value)}
        for key in required:
            if key not in tree:
                raise ConfigError(f"{path}.{key}: missing required field")
        kwargs = {}
        for key, item in tree.items():
            sub = f"{path}.{key}" if path else str(key)
            if key not in fields:
                raise ConfigError(f"{sub}: unknown key, expected one of {', '.join(fields)}")
            name, parse_item = fields[key]
            with _at(sub):
                parsed = parse_item(item, sub)
            if name is None:
                kwargs.update(parsed)
            else:
                kwargs[name] = parsed
        return build(**kwargs)

    return parse


def _dropout(value, path):
    out = {}
    for key, sensors in _mapping(value).items():
        with _at(f"{path}.{key}"):
            if isinstance(key, bool) or not str(key).isdigit():
                raise ValueError("agent id must be an integer")
            if not isinstance(sensors, list) or not all(
                s in ("lidar", "camera") for s in sensors
            ):
                raise ValueError("expected a list drawn from [lidar, camera]")
            out[int(key)] = tuple(sensors)
    return out


def _camera(width, height, u0=None, v0=None, **focal):
    u0 = width / 2.0 if u0 is None else u0
    v0 = height / 2.0 if v0 is None else v0
    return CameraIntrinsics(u0=u0, v0=v0, width=width, height=height, **focal)


def _elevations(start, stop, count):
    return tuple(np.deg2rad(np.linspace(start, stop, count)))


_PREDICTORS = {"uniform": UniformPredictor, "noisy_oracle": NoisyOraclePredictor}


def _predictor(kind="uniform", **params):
    return _PREDICTORS[kind](**params)


_WALL = _section(Wall, {
    "p1": ("p1", _pair),
    "p2": ("p2", _pair),
    "height": ("height", _number),
    "z0": ("z0", _number),
}, required=("p1", "p2", "height"))


def _walls(value, path):
    if value is None:
        return ()
    if not isinstance(value, list):
        raise TypeError(f"expected a list of walls, got {value!r}")
    walls = []
    for k, item in enumerate(value):
        with _at(f"{path}[{k}]"):
            walls.append(_WALL(item, f"{path}[{k}]"))
    return tuple(walls)


_LIDAR = _section(LidarSpec, {
    "n_azimuth": ("n_azimuth", _int),
    "elevations_deg": ("elevation_angles", _section(_elevations, {
        "start": ("start", _number),
        "stop": ("stop", _number),
        "count": ("count", _at_least(1)),
    }, required=("start", "stop", "count"))),
    "max_range": ("max_range", _number),
    "range_noise_sigma": ("range_noise_sigma", _non_negative),
})

_CAMERA = _section(
    _camera,
    {key: (key, _number) for key in ("fx", "fy", "u0", "v0")}
    | {key: (key, _int) for key in ("width", "height")},
    defaults={"fx": 70.0, "fy": 70.0, "width": 96, "height": 64},
)

_SCENARIO = _section(ScenarioConfig, {
    "seed": ("seed", _SEED),
    "n_agents": ("n_agents", _int),
    "area": ("area", _numbers(4, "[x_min, x_max, y_min, y_max]")),
    "n_objects": ("n_objects", _at_least(0)),
    "occluders": ("occluders", _walls),
    "lidar": ("lidar", _LIDAR),
    "camera": ("camera", _CAMERA),
    "comm_range": ("comm_range", _number),
    "dropout": ("dropout", _dropout),
    "pose_noise": (None, _section(dict, {
        "sigma_xy": ("pose_noise_sigma_xy", _non_negative),
        "sigma_yaw": ("pose_noise_sigma_yaw", _non_negative),
    })),
})

_GRID = _section(
    GridSpec,
    {axis: (f"{axis}_range", _pair) for axis in "xyz"}
    | {key: (key, _int) for key in ("nx", "ny", "nz", "channels")},
    defaults={"x": [-20.0, 20.0], "y": [-20.0, 20.0], "z": [0.5, 3.7],
              "nx": 64, "ny": 64, "nz": 8, "channels": 8},
)

_PIPELINE = _section(PipelineConfig, {
    "grid": ("grid", _GRID),
    "bins": ("bins", _section(DepthBins, {
        "d_min": ("d_min", _number),
        "d_max": ("d_max", _number),
        "count": ("n_bins", _int),
    }, defaults={"d_min": 1.0, "d_max": 33.0, "count": 16})),
    "predictor": ("predictor", _section(_predictor, {
        "kind": ("kind", _choice(*_PREDICTORS)),
        "sigma_bins": ("sigma_bins", _number),
        "blur_radius": ("blur_radius", _int),
    })),
    "mass_threshold": ("mass_threshold", _non_negative),
    "fusion": ("fusion_mode", _choice(*FUSION_MODES)),
    "depth_projection": ("depth_projection", _depth_projection),
    "collab": ("collab_mode", _choice(*COLLAB_MODES)),
    "robust": ("robust", _bool),
    "gate_radius": ("gate_radius", _non_negative),
}, defaults={"grid": {}, "bins": {}})

_EXPERIMENT = _section(ExperimentSpec, {
    "experiment": (None, _section(dict, {
        "mode": ("mode", _choice(*MODES)),
        "trials": ("trials", _int),
        "out": ("out_dir", _out_dir),
        "params_seed": ("params_seed", _SEED),
        "missing_agents": ("missing_agents", _agent_ids),
        "noise_sigmas": ("noise_sigmas", _numbers(None, "a list of numbers", _non_negative)),
        "render": ("render", _bool),
    }, defaults={"out": "runs/out"})),  # the output root applies to the default too
    "scenario": ("scenario", _SCENARIO),
    "pipeline": ("pipeline", _PIPELINE),
}, defaults={"experiment": {}, "scenario": {}, "pipeline": {}})


def resolve_out_dir(raw: str) -> Path:
    path = Path(raw)
    if not path.is_absolute():
        root = os.environ.get(OUT_ROOT_ENV)
        if root:
            path = Path(root) / path
    return path


class _Loader(yaml.SafeLoader):
    """The safe loader, but `1e-3`, `5e2`, `1E+3` and `1.5e3` read as floats,
    as in YAML 1.2: YAML 1.1 wants a dot and a signed exponent."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))


def load_experiment(path) -> ExperimentSpec:
    """Parse a YAML experiment file into a validated ExperimentSpec."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        tree = yaml.load(raw, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    with _at(str(path)):
        if tree is not None and not isinstance(tree, dict):
            raise ValueError("top level must be a mapping")
        return _EXPERIMENT(tree, "")
