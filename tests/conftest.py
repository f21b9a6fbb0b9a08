import numpy as np
import pytest

from covox.geometry import Pose
from covox.nnkit import LinearMap, MhaParams, attention_weights, split_heads


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


def biased(lin: LinearMap, seed) -> LinearMap:
    """`lin` with a seeded nonzero bias, uniform in (-1, 1) / sqrt(n_in) like
    its weights; the pipeline's own maps all have a zero bias."""
    rng = np.random.default_rng(seed)
    return LinearMap(lin.weight, rng.uniform(-1.0, 1.0, lin.n_out) / np.sqrt(lin.n_in))


def biased_mha(params: MhaParams, seed) -> MhaParams:
    lins = (params.wq, params.wk, params.wv, params.wo)
    return MhaParams(params.n_heads, *(biased(lin, (*seed, k)) for k, lin in enumerate(lins)))


def mha(params: MhaParams, queries: np.ndarray, keys: np.ndarray, values: np.ndarray):
    """Attention oracle: scaled dot-product multi-head attention.

    queries: (Nq, D); keys/values: (Nk, D) with Nk >= 1.
    Returns (outputs (Nq, D), attn (Nq, Nk)) where attn is the head-mean
    attention weight matrix.
    """
    weights = attention_weights(params, queries, keys)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if weights.shape[-1] != values.shape[0]:
        raise ValueError("keys and values must pair up")
    v = split_heads(params.wv.apply(values), params.n_heads)
    ctx = weights @ v  # (H, Nq, dh)
    ctx = np.moveaxis(ctx, 0, 1).reshape(weights.shape[1], params.dim)
    out = params.wo.apply(ctx)
    return out, weights.mean(axis=0)
