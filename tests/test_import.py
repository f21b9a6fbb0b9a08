"""Importing covox changes no process-wide setting: the host process's
allocator behaves after `import covox` as it does without it.  Once set up,
a trial imports nothing further."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import covox

SRC = Path(covox.__file__).resolve().parent.parent

# Allocate, touch and free twenty 2 MiB grids per cycle, as a trial does;
# print the minor page faults per cycle after one warm-up cycle.
CYCLES = """
import resource
{setup}
import numpy as np


def cycle():
    grids = [np.zeros((64, 64, 8, 8)) for _ in range(20)]
    for grid in grids:
        grid[...] = 1.0


cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    cycle()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


def faults_per_cycle(setup: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", CYCLES.format(setup=setup)],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(out.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the probe reads glibc's thresholds")
def test_freed_grids_fault_back_in_after_import():
    """glibc's dynamic thresholds hand the freed grids back to the kernel,
    so each cycle faults them in again; a library that fixed the malloc
    thresholds on import would keep them mapped."""
    bare = faults_per_cycle("")
    with_covox = faults_per_cycle("import covox")
    # Twenty grids are 10k pages: measured on Linux x86-64 with glibc 2.36,
    # a process faults in about 10.2k pages per cycle with or without the
    # import, and none where the import fixes the thresholds.
    assert with_covox >= bare / 2, (with_covox, bare)


# Set up as bench/worker.py does (load the experiment, make the parameters)
# under each collaboration mode, then run one small trial of each; print the
# modules the trials imported.
TRIALS = """
import json
import sys
from pathlib import Path

from covox import cli, collab, config

setups = []
for mode in ("attention", "max", "concat"):
    tree = {{
        "experiment": {{"mode": "full", "trials": 1, "render": False}},
        "scenario": {{"seed": 0, "n_agents": 3, "n_objects": 4}},
        "pipeline": {{"grid": {{"nx": 32, "ny": 32}}, "fusion": "biased",
                      "depth_projection": "all", "collab": mode}},
    }}
    path = Path({out!r}) / (mode + ".yaml")
    path.write_text(json.dumps(tree))  # JSON is valid YAML
    exp = config.load_experiment(path)
    setups.append((exp, collab.make_pipeline_params(exp.pipeline.grid, exp.params_seed)))
loaded = set(sys.modules)
for exp, params in setups:
    cli.run_trial(exp, 0, None, params)
print(json.dumps(sorted(set(sys.modules) - loaded)))
"""


def test_a_trial_imports_nothing_the_set_up_did_not(tmp_path):
    """A module first imported inside a trial is paid for by the warm-up
    trial of every worker; plain `np.unique` imported `numpy.ma` so."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", TRIALS.format(out=str(tmp_path))],
        env=env, capture_output=True, text=True, check=True,
    )
    imported = json.loads(out.stdout)
    assert "numpy.ma" not in imported
    assert imported == []
