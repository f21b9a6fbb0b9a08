import copy
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from covox.collab import PipelineConfig, make_pipeline_params
from covox.config import OUT_ROOT_ENV, ConfigError, ExperimentSpec, load_experiment
from covox.depth import DepthBins, NoisyOraclePredictor, UniformPredictor
from covox.geometry import CameraIntrinsics
from covox.scene import ScenarioConfig, Wall
from covox.voxel import GridSpec

# Every field below is set on top of this tree, so that fields nested under a
# predictor kind or a wall have a parent to live in.
BASE = {
    "scenario": {"occluders": [{"p1": [0.0, 5.0], "p2": [4.0, 5.0], "height": 2.0}]},
    "pipeline": {"predictor": {"kind": "noisy_oracle"}},
}

# (YAML path, good value, spec attribute path, expected value, bad value)
FIELDS = [
    ("experiment.mode", "camera_missing", "mode", "camera_missing", "bogus"),
    ("experiment.trials", 3, "trials", 3, 1.5),
    ("experiment.out", "runs/x", "out_dir", Path("runs/x"), 5),
    ("experiment.params_seed", 7, "params_seed", 7, "7"),
    ("experiment.missing_agents", [0, 2], "missing_agents", (0, 2), "some"),
    ("experiment.noise_sigmas", [0.1, 1], "noise_sigmas", (0.1, 1.0), [0.1, "x"]),
    ("experiment.render", False, "render", False, "no"),
    ("scenario.seed", 5, "scenario.seed", 5, "5"),
    ("scenario.n_agents", 3, "scenario.n_agents", 3, 2.5),
    ("scenario.area", [-10, 10, -5, 5], "scenario.area", (-10.0, 10.0, -5.0, 5.0), [0, 1, 2]),
    ("scenario.n_objects", 4, "scenario.n_objects", 4, True),
    ("scenario.comm_range", 25, "scenario.comm_range", 25.0, "far"),
    ("scenario.dropout", {1: ["camera"]}, "scenario.dropout", {1: ("camera",)}, [1]),
    ("scenario.pose_noise.sigma_xy", 0.3, "scenario.pose_noise_sigma_xy", 0.3, "x"),
    ("scenario.pose_noise.sigma_yaw", 0.05, "scenario.pose_noise_sigma_yaw", 0.05, None),
    ("scenario.lidar.n_azimuth", 90, "scenario.lidar.n_azimuth", 90, 90.0),
    ("scenario.lidar.max_range", 30, "scenario.lidar.max_range", 30.0, "x"),
    ("scenario.lidar.range_noise_sigma", 0.1, "scenario.lidar.range_noise_sigma", 0.1, [0.1]),
    ("scenario.lidar.elevations_deg", {"start": -10, "stop": 2, "count": 3},
     "scenario.lidar.elevation_angles", tuple(np.deg2rad(np.linspace(-10.0, 2.0, 3))), 5),
    ("scenario.lidar.elevations_deg.start", -8, "scenario.lidar.elevation_angles",
     tuple(np.deg2rad(np.linspace(-8.0, 2.0, 3))), "low"),
    ("scenario.lidar.elevations_deg.stop", 6, "scenario.lidar.elevation_angles",
     tuple(np.deg2rad(np.linspace(-10.0, 6.0, 3))), "high"),
    ("scenario.lidar.elevations_deg.count", 5, "scenario.lidar.elevation_angles",
     tuple(np.deg2rad(np.linspace(-10.0, 2.0, 5))), 2.5),
    ("scenario.camera.fx", 50, "scenario.camera.fx", 50.0, "x"),
    ("scenario.camera.fy", 55, "scenario.camera.fy", 55.0, False),
    ("scenario.camera.u0", 40, "scenario.camera.u0", 40.0, "x"),
    ("scenario.camera.v0", 30, "scenario.camera.v0", 30.0, "x"),
    ("scenario.camera.width", 80, "scenario.camera.width", 80, 80.5),
    ("scenario.camera.height", 60, "scenario.camera.height", 60, "tall"),
    ("scenario.occluders[0].p1", [1, 6], "scenario.occluders.0.p1", (1.0, 6.0), [1, "x"]),
    ("scenario.occluders[0].p2", [5, 6], "scenario.occluders.0.p2", (5.0, 6.0), 3),
    ("scenario.occluders[0].height", 3, "scenario.occluders.0.height", 3.0, "tall"),
    ("scenario.occluders[0].z0", 0.5, "scenario.occluders.0.z0", 0.5, "x"),
    ("pipeline.grid.x", [-10, 10], "pipeline.grid.x_range", (-10.0, 10.0), [1]),
    ("pipeline.grid.y", [-8, 8], "pipeline.grid.y_range", (-8.0, 8.0), "wide"),
    ("pipeline.grid.z", [0, 2], "pipeline.grid.z_range", (0.0, 2.0), [0, 1, 2]),
    ("pipeline.grid.nx", 32, "pipeline.grid.nx", 32, "x"),
    ("pipeline.grid.ny", 16, "pipeline.grid.ny", 16, 16.0),
    ("pipeline.grid.nz", 4, "pipeline.grid.nz", 4, None),
    ("pipeline.grid.channels", 12, "pipeline.grid.channels", 12, "x"),
    ("pipeline.bins.d_min", 2, "pipeline.bins.d_min", 2.0, "x"),
    ("pipeline.bins.d_max", 40, "pipeline.bins.d_max", 40.0, "x"),
    ("pipeline.bins.count", 8, "pipeline.bins.n_bins", 8, 8.5),
    ("pipeline.predictor.kind", "uniform", "pipeline.predictor", UniformPredictor(), "oracle"),
    ("pipeline.predictor.sigma_bins", 2, "pipeline.predictor.sigma_bins", 2.0, "x"),
    ("pipeline.predictor.blur_radius", 2, "pipeline.predictor.blur_radius", 2, 1.5),
    ("pipeline.mass_threshold", 0.1, "pipeline.mass_threshold", 0.1, "x"),
    ("pipeline.fusion", "equal", "pipeline.fusion_mode", "equal", "bogus"),
    ("pipeline.depth_projection", "ego", "pipeline.depth_projection", "ego", "some"),
    ("pipeline.collab", "max", "pipeline.collab_mode", "max", "mean"),
    ("pipeline.robust", True, "pipeline.robust", True, "false"),
    ("pipeline.gate_radius", 3, "pipeline.gate_radius", 3.0, [3]),
]


def _steps(path):
    """'scenario.occluders[0].p1' -> ['scenario', 'occluders', 0, 'p1']."""
    steps = []
    for part in path.split("."):
        name, *index = re.split(r"\[(\d+)\]", part)[:2]
        steps.append(name)
        steps += [int(i) for i in index]
    return steps


def tree_with(path, value, base=BASE):
    tree = copy.deepcopy(base)
    node = tree
    *parents, last = _steps(path)
    for step in parents:
        if isinstance(node, dict):
            node = node.setdefault(step, {})
        else:
            node = node[step]
    node[last] = value
    return tree


def load(tmp_path, tree):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    return load_experiment(cfg)


def attribute(spec, path):
    obj = spec
    for step in path.split("."):
        obj = obj[int(step)] if step.isdigit() else getattr(obj, step)
    return obj


@pytest.fixture(autouse=True)
def _no_out_root(monkeypatch):
    monkeypatch.delenv(OUT_ROOT_ENV, raising=False)


def _with_elevations(path, value):
    tree = tree_with("scenario.lidar.elevations_deg", {"start": -10, "stop": 2, "count": 3})
    return tree_with(path, value, tree)


def _field_tree(path, value):
    if path.startswith("scenario.lidar.elevations_deg."):
        return _with_elevations(path, value)
    return tree_with(path, value)


@pytest.mark.parametrize(
    "path, good, attr, expected, bad", FIELDS, ids=[row[0] for row in FIELDS]
)
class TestField:
    def test_good_value_lands_on_spec(self, tmp_path, path, good, attr, expected, bad):
        spec = load(tmp_path, _field_tree(path, good))
        assert attribute(spec, attr) == expected

    def test_bad_value_names_full_path(self, tmp_path, path, good, attr, expected, bad):
        with pytest.raises(ConfigError) as info:
            load(tmp_path, _field_tree(path, bad))
        assert str(info.value).startswith(f"{path}:"), str(info.value)


# Noise sigmas that load when negative would fail every trial at run time.
# (YAML path, zero value, negative value)
NON_NEGATIVE = [
    ("scenario.pose_noise.sigma_xy", 0, -0.5),
    ("scenario.pose_noise.sigma_yaw", 0, -0.5),
    ("scenario.lidar.range_noise_sigma", 0, -0.5),
    ("experiment.noise_sigmas", [0, 0.2], [0.2, -0.5]),
]


@pytest.mark.parametrize("path, zero, negative", NON_NEGATIVE, ids=[row[0] for row in NON_NEGATIVE])
def test_negative_sigma_names_full_path(tmp_path, path, zero, negative):
    load(tmp_path, tree_with(path, zero))
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree_with(path, negative))
    assert str(info.value).startswith(f"{path}:"), str(info.value)


# Values of the right type that load no runnable experiment: a negative
# seed fails in numpy's generators, a negative radius, mass threshold or
# object count runs a meaningless one, and so does a LiDAR without beams.
# (YAML path, smallest good value, bad value)
OUT_OF_RANGE = [
    ("experiment.params_seed", 0, -1),
    ("scenario.seed", 0, -1),
    ("pipeline.gate_radius", 0, -0.5),
    ("pipeline.mass_threshold", 0, -0.05),
    ("scenario.lidar.elevations_deg.count", 1, 0),
    ("scenario.n_objects", 0, -1),
]


@pytest.mark.parametrize("path, good, bad", OUT_OF_RANGE, ids=[row[0] for row in OUT_OF_RANGE])
def test_out_of_range_value_names_full_path(tmp_path, path, good, bad):
    load(tmp_path, _field_tree(path, good))
    with pytest.raises(ConfigError) as info:
        load(tmp_path, _field_tree(path, bad))
    assert str(info.value).startswith(f"{path}:"), str(info.value)


def test_nan_sigma_is_rejected(tmp_path):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree_with("scenario.pose_noise.sigma_xy", float("nan")))
    assert str(info.value).startswith("scenario.pose_noise.sigma_xy:"), str(info.value)


# Every field read as a number; a list field gets the bad value as its last item.
NUMERIC = [
    "experiment.noise_sigmas",
    "scenario.area",
    "scenario.comm_range",
    "scenario.pose_noise.sigma_xy",
    "scenario.pose_noise.sigma_yaw",
    "scenario.lidar.max_range",
    "scenario.lidar.range_noise_sigma",
    "scenario.lidar.elevations_deg.start",
    "scenario.lidar.elevations_deg.stop",
    "scenario.camera.fx",
    "scenario.camera.fy",
    "scenario.camera.u0",
    "scenario.camera.v0",
    "scenario.occluders[0].p1",
    "scenario.occluders[0].p2",
    "scenario.occluders[0].height",
    "scenario.occluders[0].z0",
    "pipeline.grid.x",
    "pipeline.grid.y",
    "pipeline.grid.z",
    "pipeline.bins.d_min",
    "pipeline.bins.d_max",
    "pipeline.predictor.sigma_bins",
    "pipeline.mass_threshold",
    "pipeline.gate_radius",
]
GOOD = {row[0]: row[1] for row in FIELDS}


def _with_number(path, number):
    good = GOOD[path]
    return _field_tree(path, good[:-1] + [number] if isinstance(good, list) else number)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=[".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("path", NUMERIC)
def test_non_finite_number_names_full_path(tmp_path, path, bad):
    load(tmp_path, _field_tree(path, GOOD[path]))
    with pytest.raises(ConfigError) as info:
        load(tmp_path, _with_number(path, bad))
    assert str(info.value).startswith(f"{path}:"), str(info.value)
    assert "finite" in str(info.value) or "non-negative" in str(info.value), str(info.value)


def test_integer_beyond_the_float_range_names_full_path(tmp_path):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree_with("scenario.comm_range", 10**400))
    assert str(info.value).startswith("scenario.comm_range:"), str(info.value)


@pytest.mark.parametrize("text, number", [("1e-3", 1e-3), ("5e2", 500.0), ("1E+3", 1000.0),
                                          ("1.5e3", 1500.0)])
def test_exponent_without_a_dot_reads_as_a_float(tmp_path, text, number):
    """YAML 1.1 reads these as strings, the last for its unsigned exponent;
    the loader reads them as floats."""
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"scenario:\n  pose_noise: {{sigma_xy: {text}}}\n")
    value = load_experiment(cfg).scenario.pose_noise_sigma_xy
    assert type(value) is float and value == number


def test_quoted_exponent_is_still_rejected(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("scenario:\n  pose_noise: {sigma_xy: '1e-3'}\n")
    with pytest.raises(ConfigError) as info:
        load_experiment(cfg)
    assert str(info.value) == "scenario.pose_noise.sigma_xy: expected a number, got '1e-3'"


def test_exponent_beyond_the_float_range_names_full_path(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("scenario:\n  comm_range: 1e400\n")
    with pytest.raises(ConfigError) as info:
        load_experiment(cfg)
    assert str(info.value).startswith("scenario.comm_range:"), str(info.value)
    assert "finite" in str(info.value), str(info.value)


def test_unquoted_depth_projection_no(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("pipeline:\n  depth_projection: no\n")
    assert load_experiment(cfg).pipeline.depth_projection == "no"
    cfg.write_text("pipeline:\n  depth_projection: true\n")
    with pytest.raises(ConfigError) as info:
        load_experiment(cfg)
    assert str(info.value).startswith("pipeline.depth_projection:"), str(info.value)


SECTIONS = [
    "experiment",
    "scenario",
    "scenario.lidar",
    "scenario.lidar.elevations_deg",
    "scenario.camera",
    "scenario.pose_noise",
    "scenario.occluders[0]",
    "pipeline",
    "pipeline.grid",
    "pipeline.bins",
    "pipeline.predictor",
]


@pytest.mark.parametrize("value", [[1, 2], 5, "text"])
@pytest.mark.parametrize("path", SECTIONS)
def test_non_mapping_section_is_rejected(tmp_path, path, value):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree_with(path, value))
    assert str(info.value).startswith(f"{path}:"), str(info.value)


@pytest.mark.parametrize(
    "path",
    [
        "pipeline.fusoin",
        "experiment.trails",
        "scenario.lidar.n_azimth",
        "scenario.camera.focal",
        "scenario.occluders[0].hieght",
        "pipeline.grid.n",
        "pipeline.predictor.sigma",
        "scenario.pose_noise.sigma",
        "pipelines",
    ],
)
def test_unknown_key_is_rejected(tmp_path, path):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree_with(path, 1))
    assert str(info.value).startswith(f"{path}:"), str(info.value)


@pytest.mark.parametrize(
    "path, value",
    [("pipeline.robust", "false"), ("experiment.render", "no"), ("pipeline.robust", 1)],
)
def test_bool_fields_take_only_booleans(tmp_path, path, value):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree_with(path, value))
    assert str(info.value).startswith(f"{path}:")


@pytest.mark.parametrize(
    "path, value",
    [
        ("scenario.lidar", 5),
        ("scenario.dropout", [1]),
        ("scenario.occluders", 3),
        ("experiment.out", 5),
        ("scenario.dropout.x", ["camera"]),
        ("scenario.dropout.1", ["radar"]),
        ("scenario.occluders[0]", "wall"),
        ("pipeline.predictor", "noisy_oracle"),
    ],
)
def test_malformed_inputs_raise_config_error(tmp_path, path, value):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree_with(path, value))
    assert str(info.value).startswith(f"{path}:"), str(info.value)


# Sensor sets no agent can run with; each used to fail every trial at run
# time, or to be ignored.  (experiment section, scenario section, YAML path)
UNRUNNABLE_DROPOUT = [
    ({"mode": "lidar_missing"}, {"n_agents": 3, "dropout": {1: ["camera"]}}, "scenario.dropout.1"),
    ({"mode": "camera_missing", "missing_agents": [1]}, {"n_agents": 3, "dropout": {1: ["lidar"]}},
     "scenario.dropout.1"),
    ({}, {"n_agents": 3, "dropout": {1: ["camera", "lidar"]}}, "scenario.dropout.1"),
    ({}, {"n_agents": 3, "dropout": {3: ["camera"]}}, "scenario.dropout.3"),
    ({"mode": "lidar_missing", "missing_agents": [0, 3]}, {"n_agents": 3}, "experiment.missing_agents"),
]


@pytest.mark.parametrize(
    "experiment, scenario, path", UNRUNNABLE_DROPOUT, ids=[row[2] for row in UNRUNNABLE_DROPOUT]
)
def test_unrunnable_dropout_is_a_load_error(tmp_path, experiment, scenario, path):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, {"experiment": experiment, "scenario": scenario})
    assert str(info.value).startswith(f"{path}:"), str(info.value)


def test_mode_dropout_merges_with_the_scenario(tmp_path):
    tree = {
        "experiment": {"mode": "camera_missing", "missing_agents": [0, 1]},
        "scenario": {"n_agents": 3, "dropout": {1: ["camera"], 2: ["lidar"]}},
    }
    spec = load(tmp_path, tree)
    assert spec.sensor_dropout() == {0: ("camera",), 1: ("camera",), 2: ("lidar",)}
    # missing_agents names agents only where the mode drops a sensor.
    spec = load(tmp_path, {"experiment": {"missing_agents": [7]}, "scenario": {"n_agents": 3}})
    assert spec.sensor_dropout() == {}


@pytest.mark.parametrize("key", ["p1", "p2", "height"])
def test_wall_required_fields(tmp_path, key):
    tree = copy.deepcopy(BASE)
    del tree["scenario"]["occluders"][0][key]
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree)
    assert str(info.value).startswith(f"scenario.occluders[0].{key}:"), str(info.value)


def test_elevations_need_every_key(tmp_path):
    tree = tree_with("scenario.lidar.elevations_deg", {"start": -10, "stop": 2})
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree)
    assert str(info.value).startswith("scenario.lidar.elevations_deg.count:")


def test_constructor_checks_name_their_section(tmp_path):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree_with("pipeline.grid.x", [5, 1]))
    assert str(info.value).startswith("pipeline.grid:")
    with pytest.raises(ConfigError) as info:
        load(tmp_path, tree_with("experiment.trials", 0))
    assert str(info.value).startswith("experiment.trials:")


# Grids the pipeline cannot build weights or camera features for; each used
# to fail with a traceback or fail every trial.  (grid section, field named)
UNBUILDABLE_GRIDS = [
    ({"channels": 4}, "grid.channels"),
    ({"channels": 7}, "grid.channels"),
    ({"nz": 1, "channels": 6}, "grid.nz"),
    ({"nz": 3, "channels": 6}, "grid.nz"),
]


def grid_id(grid):
    return ",".join(f"{key}={value}" for key, value in grid.items())


@pytest.mark.parametrize("grid, field", UNBUILDABLE_GRIDS, ids=[grid_id(row[0]) for row in UNBUILDABLE_GRIDS])
def test_unbuildable_grid_is_a_load_error(tmp_path, grid, field):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, {"pipeline": {"grid": grid}})
    assert str(info.value).startswith(f"pipeline: {field}"), str(info.value)


@pytest.mark.parametrize("grid", [{"nz": 2, "channels": 6}, {"nz": 1, "channels": 8}], ids=grid_id)
def test_smallest_grids_build_their_params(tmp_path, grid):
    spec = load(tmp_path, {"pipeline": {"grid": grid}})
    params = make_pipeline_params(spec.pipeline.grid, 0)
    assert params.agg_mha.dim == spec.pipeline.grid.bev_channels


def test_empty_file_gives_the_defaults(tmp_path):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("")
    expected = ExperimentSpec(
        scenario=ScenarioConfig(),
        pipeline=PipelineConfig(
            grid=GridSpec((-20.0, 20.0), (-20.0, 20.0), (0.5, 3.7), 64, 64, 8, 8),
            bins=DepthBins(1.0, 33.0, 16),
        ),
        out_dir=Path("runs/out"),
    )
    assert repr(load_experiment(cfg)) == repr(expected)
    assert repr(load(tmp_path, {})) == repr(expected)


def test_null_sections_read_as_empty(tmp_path):
    tree = {"scenario": None, "pipeline": {"grid": None}, "experiment": None}
    assert repr(load(tmp_path, tree)) == repr(load(tmp_path, {}))


def test_camera_principal_point_defaults_to_image_center(tmp_path):
    spec = load(tmp_path, {"scenario": {"camera": {"width": 80, "height": 60}}})
    assert spec.scenario.camera == CameraIntrinsics(70.0, 70.0, 40.0, 30.0, 80, 60)


def test_wall_and_predictor_defaults(tmp_path):
    spec = load(tmp_path, BASE)
    assert spec.scenario.occluders == (Wall((0.0, 5.0), (4.0, 5.0), 2.0, 0.0),)
    assert spec.pipeline.predictor == NoisyOraclePredictor()


def test_out_root_applies_to_default_and_relative_out(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path / "root"))
    assert load(tmp_path, {}).out_dir == tmp_path / "root" / "runs" / "out"
    assert load(tmp_path, tree_with("experiment.out", "a")).out_dir == tmp_path / "root" / "a"
    absolute = str(tmp_path / "abs")
    assert load(tmp_path, tree_with("experiment.out", absolute)).out_dir == Path(absolute)


def test_unreadable_or_invalid_files(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [1, 2\n")
    with pytest.raises(ConfigError):
        load_experiment(bad)
    bad.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_experiment(bad)
