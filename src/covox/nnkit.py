"""Minimal deterministic neural primitives.

All weights are frozen seeded values (no training loop); the pipeline's
behaviour is a pure function of the seeds.  Initialisation uses numpy's
PCG64 counter-based generator, so the drawn doubles are bit-identical
across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EmptyKeySet(ValueError):
    """Attention was asked to attend over zero keys."""


@dataclass(frozen=True)
class LinearMap:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("weight must be (out, in) with matching bias")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def n_in(self) -> int:
        return self.weight.shape[1]

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x @ W.T + b on the last axis; leading axes are batch."""
        return np.asarray(x, dtype=np.float64) @ self.weight.T + self.bias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax; -inf entries get exactly zero weight."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def init_linear(n_in: int, n_out: int, seed) -> LinearMap:
    """Seeded linear map with weights uniform in (-1, 1) / sqrt(n_in) and a
    zero bias.

    `seed` may be an int or a tuple of ints (used to derive independent
    streams per component).
    """
    if n_in <= 0 or n_out <= 0:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(n_in)
    w = rng.uniform(-1.0, 1.0, size=(n_out, n_in)) * scale
    return LinearMap(w, np.zeros(n_out))


@dataclass(frozen=True)
class MhaParams:
    n_heads: int
    wq: LinearMap
    wk: LinearMap
    wv: LinearMap
    wo: LinearMap

    def __post_init__(self):
        dim = self.wq.n_in
        if dim % self.n_heads != 0:
            raise ValueError("head count must divide the model dimension")
        for lin in (self.wq, self.wk, self.wv, self.wo):
            if lin.n_in != dim or lin.n_out != dim:
                raise ValueError("all projections must be square in the model dim")

    @property
    def dim(self) -> int:
        return self.wq.n_in

    @property
    def head_dim(self) -> int:
        return self.dim // self.n_heads


def init_mha(dim: int, n_heads: int, seed) -> MhaParams:
    if isinstance(seed, (tuple, list)):
        base = tuple(seed)
    else:
        base = (int(seed),)
    lins = [init_linear(dim, dim, base + (k,)) for k in range(4)]
    return MhaParams(n_heads, *lins)


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., N, D) -> (..., H, N, D/H)."""
    *lead, n, d = x.shape
    x = x.reshape(*lead, n, n_heads, d // n_heads)
    return np.moveaxis(x, -2, -3)


def attention_weights(params: MhaParams, queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per-head scaled dot-product softmax weights, shape (H, Nq, Nk).

    queries: (Nq, D); keys: (Nk, D) with Nk >= 1.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    if keys.shape[0] == 0:
        raise EmptyKeySet("attention requires at least one key")
    h = params.n_heads
    q = split_heads(params.wq.apply(queries), h)  # (H, Nq, dh)
    k = split_heads(params.wk.apply(keys), h)  # (H, Nk, dh)
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(params.head_dim)  # (H, Nq, Nk)
    return softmax(scores, axis=-1)
