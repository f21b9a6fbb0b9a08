"""The benchmark's traced pass (bench/tracing.py) times stages by swapping
module-level names in covox.  These tests keep that contract in the tier-1
suite: a refactor that renames or inlines a traced stage fails here instead
of silently zeroing a per-layer benchmark metric."""

from collections import Counter
from dataclasses import replace

from covox import cli, collab
from covox.collab import PipelineConfig, make_pipeline_params
from covox.config import ExperimentSpec
from covox.depth import DepthBins, NoisyOraclePredictor
from covox.scene import ScenarioConfig
from covox.voxel import GridSpec

from oracles import warp_message_fresh


def test_every_target_exists(tracing):
    for owner, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def _experiment(**scenario_kw):
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
    scenario = ScenarioConfig(**dict(dict(seed=4, n_agents=3, n_objects=6,
                                          pose_noise_sigma_xy=0.2), **scenario_kw))
    exp = ExperimentSpec(scenario=scenario, pipeline=pipe, render=False)
    return exp, make_pipeline_params(grid, 2024)


def test_traced_trial_records_every_stage(tracing):
    exp, params = _experiment(dropout={2: ("lidar",)})
    scenario = exp.scenario
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]

    tracer = tracing.Tracer()
    tracer.trial = 0
    with tracing.patched(tracer):
        outcome = cli.run_trial(exp, 0, None, params)

    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS] == originals
    recorded = Counter(span[3] for span in tracer.spans)
    # This config runs one variant of every stage, so every span name appears.
    assert {name for _, _, name, _ in tracing.TARGETS} <= recorded.keys()
    counts = tracer.counts[0]
    for key in (
        "depth.predict_depth.calls",
        "voxel.lift_camera.calls",
        "collab.aggregate_attention.calls",
        "metrics.detect_calls",
    ):
        assert counts[key] == scenario.n_agents, key
    # The box path's per-layer metrics are per call: each agent is scored
    # by one recall and two APs, and each link between two LiDAR agents is
    # corrected once, by its lower id.
    assert recorded["metrics.recall_at"] == scenario.n_agents
    assert recorded["metrics.average_precision"] == 2 * scenario.n_agents
    rounds = outcome.rounds
    lidar_links = sum(
        rounds[j].state.has_lidar
        for i, r in rounds.items() if r.state.has_lidar
        for j in r.neighbors if i < j
    )
    assert lidar_links > 0
    assert recorded["robust.correct_relative_pose"] == lidar_links
    assert counts["collab.depth_elements"] > 0
    assert counts["collab.feature_elements"] > 0
    assert counts["collab.detection_elements"] > 0


def test_traced_counters_equal_the_trials_totals(tracing, monkeypatch):
    """The exchange runs per receiver and per round, so a wrapped call
    covers many edges.  The per-layer counters that sum over calls must
    still equal the trial's totals: collisions and message cells from the
    untraced AgentRounds, feature elements from its ledger, dropped cells
    from each message warped on its own, and, under attention and max,
    the neighbor tokens from each receiver's warp: `collab.agg_valid` its
    written cells, `collab.agg_pairs` its degree times the grid's cells.
    Both detectors' counters read only the length of what they return:
    `robust.detections` must equal the local detections the records keep,
    and `metrics.dets` the boxes each agent is scored on."""
    exp, params = _experiment(n_agents=5, comm_range=35.0, pose_noise_sigma_xy=0.4,
                              dropout={1: ("camera",), 3: ("lidar",)})
    for mode in ("attention", "max"):
        exp = replace(exp, pipeline=replace(exp.pipeline, collab_mode=mode))
        dropped, written, pairs = [], [], []
        receive, warp = collab._receive, collab.warp_sparse
        grid = exp.pipeline.grid

        def receive_counting_drops(w, works, pipe, *rest):
            for j in w.neighbors:
                _, alone = warp_message_fresh(works[j].message, w.rel[j], pipe.grid)
                dropped.append(alone.dropped)
            pairs.append(len(w.neighbors) * grid.nx * grid.ny)
            return receive(w, works, pipe, *rest)

        def warp_counting_cells(*args):
            result = warp(*args)
            written.append(sum(c.size for c in result.cells))
            return result

        with monkeypatch.context() as m:
            m.setattr(collab, "_receive", receive_counting_drops)
            m.setattr(collab, "warp_sparse", warp_counting_cells)
            outcome = cli.run_trial(exp, 0, None, params)
        tracer = tracing.Tracer()
        tracer.trial = 0
        with tracing.patched(tracer):
            traced = cli.run_trial(exp, 0, None, params)
        assert traced.row == outcome.row

        counts = tracer.counts[0]
        fields = dict(zip(cli.CSV_HEADER.split(","), outcome.row.split(",")))
        rounds = outcome.rounds.values()
        want = {
            "collab.warp_collisions": sum(r.warp_collisions for r in rounds),
            "collab.warp_dropped": sum(dropped),
            "collab.message_cells": sum(len(r.message.indices) for r in rounds),
            "collab.feature_elements": int(fields["feature_elements"]),
            "collab.agg_valid": sum(written),
            "collab.agg_pairs": sum(pairs),
            "robust.detections": sum(len(r.detections) for r in rounds),
            "metrics.dets": sum(len(cli._scored(r, outcome.objects, grid)[1]) for r in rounds),
        }
        assert len(written) == len(pairs) == exp.scenario.n_agents
        assert {key: counts[key] for key in want} == want, mode
        assert all(want.values()), mode  # every counter is exercised


def test_every_aggregator_result_has_the_grid_shape(monkeypatch):
    """The traced pass reads `out.shape[:2]` of whichever aggregator runs to
    count neighbor token slots, so each one's result carries the grid's
    (nx, ny, F) although it holds only the nonzero rows."""
    exp, params = _experiment(n_agents=3, comm_range=60.0)
    grid = exp.pipeline.grid
    names = {"attention": "aggregate", "max": "aggregate_max", "concat": "aggregate_concat"}
    for mode, name in names.items():
        shapes = []
        aggregator = getattr(collab, name)

        def recorded(*args, aggregator=aggregator, shapes=shapes):
            out = aggregator(*args)
            shapes.append(out.shape)
            return out

        with monkeypatch.context() as m:
            m.setattr(collab, name, recorded)
            cli.run_trial(replace(exp, pipeline=replace(exp.pipeline, collab_mode=mode)), 0, None, params)
        assert shapes == [(grid.nx, grid.ny, grid.bev_channels)] * exp.scenario.n_agents, mode
