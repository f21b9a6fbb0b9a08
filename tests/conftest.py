import importlib.util
import os
from pathlib import Path

# The equivalence contract (tests/oracles.py): a stage matches its
# reference with integer outputs exact and floats within one tolerance, and
# whole-trial replays match bit for bit.  The replays hold only with BLAS on
# one thread.  OpenBLAS reads this when numpy is first imported, and pytest
# and Hypothesis import no numpy before this file runs.  A value set in the
# environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from covox.geometry import Pose

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random proper rotation via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose(rng: np.random.Generator, span: float = 10.0) -> Pose:
    return Pose.from_rt(random_rotation(rng), rng.uniform(-span, span, 3))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def tracing():
    """bench/tracing.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("covox_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
