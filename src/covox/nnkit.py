"""Minimal deterministic neural primitives.

All weights are frozen seeded values (no training loop); the pipeline's
behaviour is a pure function of the seeds.  Initialisation uses numpy's
PCG64 counter-based generator, so the drawn doubles are bit-identical
across runs and platforms.

Every linear map is bias-free, so it maps an all-zero input to an all-zero
output.  The sparse stages rely on that: they skip the cells whose tokens
are all zero, because those cells' results are zero too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EmptyKeySet(ValueError):
    """Attention was asked to attend over zero keys."""


@dataclass(frozen=True)
class LinearMap:
    weight: np.ndarray  # (out, in)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        if w.ndim != 2 or not np.all(np.isfinite(w)):
            raise ValueError("weight must be a finite (out, in) matrix")
        object.__setattr__(self, "weight", w)

    @property
    def n_in(self) -> int:
        return self.weight.shape[1]

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x @ W.T on the last axis; leading axes are batch.  There is no
        bias: an all-zero input gives an all-zero output."""
        return np.asarray(x, dtype=np.float64) @ self.weight.T


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax; -inf entries get exactly zero weight."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def init_linear(n_in: int, n_out: int, seed) -> LinearMap:
    """Seeded linear map with weights uniform in (-1, 1) / sqrt(n_in).

    `seed` may be an int or a tuple of ints (used to derive independent
    streams per component).
    """
    if n_in <= 0 or n_out <= 0:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(n_in)
    w = rng.uniform(-1.0, 1.0, size=(n_out, n_in)) * scale
    return LinearMap(w)


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


def init_mha(dim: int, n_heads: int, seed: tuple[int, ...]) -> MhaParams:
    """Seeded attention weights; projection k draws from the stream
    `seed + (k,)`."""
    lins = [init_linear(dim, dim, seed + (k,)) for k in range(4)]
    return MhaParams(n_heads, *lins)


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., N, D) -> (..., H, N, D/H)."""
    *lead, n, d = x.shape
    x = x.reshape(*lead, n, n_heads, d // n_heads)
    return np.moveaxis(x, -2, -3)
