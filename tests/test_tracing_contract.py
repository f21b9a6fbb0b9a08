"""The benchmark's traced pass (bench/tracing.py) times stages by swapping
module-level names in covox.  These tests keep that contract in the tier-1
suite: a refactor that renames or inlines a traced stage fails here instead
of silently zeroing a per-layer benchmark metric."""

import importlib.util
from pathlib import Path

import pytest

from covox import cli
from covox.collab import PipelineConfig, make_pipeline_params
from covox.config import ExperimentSpec
from covox.depth import DepthBins, NoisyOraclePredictor
from covox.scene import ScenarioConfig
from covox.voxel import GridSpec

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("covox_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists(tracing):
    for owner, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_trial_records_every_stage(tracing):
    grid = GridSpec((-20.0, 20.0), (-20.0, 20.0), (0.5, 3.7), 32, 32, 4, 8)
    pipe = PipelineConfig(
        grid=grid,
        bins=DepthBins(1.0, 33.0, 16),
        predictor=NoisyOraclePredictor(1.0, 1),
        fusion_mode="biased",
        depth_projection="all",
        collab_mode="attention",
        robust=True,
    )
    scenario = ScenarioConfig(seed=4, n_agents=3, n_objects=6, pose_noise_sigma_xy=0.2)
    exp = ExperimentSpec(scenario=scenario, pipeline=pipe, render=False)
    params = make_pipeline_params(grid, 2024)
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]

    tracer = tracing.Tracer()
    tracer.trial = 0
    with tracing.patched(tracer):
        cli.run_trial(exp, 0, None, params)

    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS] == originals
    recorded = {span[3] for span in tracer.spans}
    # This config runs one variant of every stage, so every span name appears.
    assert {name for _, _, name, _ in tracing.TARGETS} <= recorded
    counts = tracer.counts[0]
    for key in (
        "depth.predict_depth.calls",
        "voxel.lift_camera.calls",
        "collab.aggregate_attention.calls",
    ):
        assert counts[key] == scenario.n_agents, key
    assert counts["collab.depth_elements"] > 0
    assert counts["collab.feature_elements"] > 0
    assert counts["collab.detection_elements"] > 0
