"""Micro-architecture NAS controller: trainable prior, MLP, per-sub-block softmax.

The controller's only input is the trainable prior vector z (the optional
data-conditioning branch is not implemented). Exploration noise is uniform,
scaled by the shared temperature and renormalized so every output stays a
valid probability vector.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

HIDDEN = 256


class Controller:
    """Owns the a_micro parameters: z, two MLP layers, one projection per (layer, sub-block)."""

    def __init__(self, store, head_sizes, rng, hidden=HIDDEN):
        """``head_sizes``: {(layer, sub_block): num_candidates}."""
        self.store = store
        self.head_sizes = dict(head_sizes)
        self.hidden = hidden
        self.z = store.add("controller/z", 0.01 * rng.standard_normal((1, hidden)),
                           group="a_micro")
        self.w1 = store.add("controller/mlp/W1", T.glorot(rng, hidden, hidden), group="a_micro")
        self.w2 = store.add("controller/mlp/W2", T.glorot(rng, hidden, hidden), group="a_micro")
        self.proj = {}
        for (layer, kind), size in sorted(self.head_sizes.items()):
            self.proj[(layer, kind)] = store.add(
                f"controller/proj/layer{layer}/{kind}", T.glorot(rng, hidden, size),
                group="a_micro")

    def forward(self):
        """Probability vectors P-bar per (layer, sub-block), each a (1, T) Tensor."""
        h = T.relu(T.matmul(self.z, self.w1))
        h = T.relu(T.matmul(h, self.w2))
        return {key: T.softmax_rows(T.matmul(h, p)) for key, p in self.proj.items()}

    def sample_noise(self, rng):
        """One Uniform(0, 1) draw per candidate, per (layer, sub-block) in sorted order."""
        return {key: rng.random(n) for key, n in sorted(self.head_sizes.items())}


def add_noise(pbar, tau, uniforms):
    """P = (P-bar + tau * U) / Z, with U the pre-drawn Uniform(0, 1) draws.

    ``uniforms`` maps each key of ``pbar`` to one draw per entry, in any shape
    of that size. Z renormalizes so the result sums to one exactly; tau=0
    returns P-bar. The draws stay in the tape as constants, so gradients flow
    through P-bar.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    noisy = {}
    for key, p in sorted(pbar.items()):
        if tau == 0.0:
            noisy[key] = p
            continue
        numer = p + Tensor(tau * np.reshape(uniforms[key], p.data.shape))
        noisy[key] = T.div(numer, T.tsum(numer))
    return noisy


def extract_indices(probs):
    """Argmax candidate per (layer, sub-block); ties break to the lowest index.

    Each value must be a probability vector: non-empty, with no negative or
    NaN entry, summing to 1 within 1e-9. Anything else raises ValueError.
    """
    indices = {}
    for key, p in probs.items():
        v = p.data.reshape(-1)
        if v.size == 0 or not (v >= 0).all() or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"extract_indices: {key} is not a probability vector")
        indices[key] = int(np.argmax(v))
    return indices
