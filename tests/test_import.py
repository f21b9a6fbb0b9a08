"""Importing covox changes no process-wide setting: the host process's
allocator behaves after `import covox` as it does without it."""

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
