"""Importing covox fixes glibc's malloc thresholds, so that grids a trial
frees stay mapped for the next trial instead of being faulted in again."""

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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_freed_grids_stay_mapped_after_import():
    bare = faults_per_cycle("")
    with_covox = faults_per_cycle("import covox")
    # Twenty grids are 10k pages: measured on Linux x86-64 with glibc 2.36,
    # a bare process faults in about 10.2k pages per cycle, and none after
    # the import.
    assert with_covox < bare / 3, (with_covox, bare)
