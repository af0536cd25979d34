"""Macro-architecture routing: Gumbel-sigmoid gated shortcut connections.

Shortcut (i, j) with i <= j routes the input of block i into the output of
block j through a bias-free linear map. Gate priors live in an upper
triangular matrix of unconstrained log-priors; the lower triangle is
permanently inactive (no backward connections). Diagonal entries are
residual skips over a single block.

The gates' temperature tau comes from the caller: ``search.temp_anneal``
anneals it and is the only place that bounds it.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor, glorot


def sample_gumbel(rng, size=None):
    """g = -log(-log(u)), u ~ Uniform(0, 1)."""
    u = rng.random(size)
    return -np.log(-np.log(u))


GATE_EPS = 1e-12


def gumbel_sigmoid(theta, tau, g):
    """sigmoid((theta + g) / tau) on a Tensor, with the noise g as a constant.

    The gate value is nudged into the open interval (0, 1): at low tau the
    sigmoid saturates to exactly 0 or 1 in floats even though the true value
    never reaches either bound; the local gradient there is already ~0.
    """
    s = T.sigmoid(T.mul(theta + Tensor(g), Tensor(1.0 / tau)))
    # clipped into a fresh node, whose gradient passes straight through to s: theta's
    # keeps the unclipped y (1 - y) / tau, and the closure saves no value
    ns = s._node
    return Tensor(np.clip(s.data, GATE_EPS, 1.0 - GATE_EPS), _parents=(s,),
                  _backward=lambda grad: T._accum(ns, grad))


class Router:
    """Owns the shortcut linear maps g_ij (w-parameters) and their gates' theta (a_macro).

    ``shortcuts=None`` searches every pair i <= j, each behind a gate with
    log-prior theta_ij. A list of pairs fixes the routing to those shortcuts,
    always on and with no theta, as in a derived genotype's network. The maps
    are drawn in shortcut order.
    """

    def __init__(self, store, input_dims, output_dims, rng, shortcuts=None):
        self.store = store
        self.num_blocks = n = len(input_dims)
        self.theta = None
        if shortcuts is None:
            self.theta = store.add("router/theta", np.zeros((n, n)), group="a_macro")
            shortcuts = [(i, j) for i in range(n) for j in range(i, n)]
        self._shortcuts = [tuple(p) for p in shortcuts]
        for (i, j) in self._shortcuts:
            store.add(f"router/shortcut/{i}_{j}/W", glorot(rng, output_dims[j], input_dims[i]).T)

    def shortcut(self, i, j):
        return self.store[f"router/shortcut/{i}_{j}/W"]

    def pairs(self):
        return list(self._shortcuts)

    def _theta_values(self):
        """theta's values, or none for a router without theta that owns no shortcut to read."""
        if self.theta is None and self._shortcuts:
            raise ValueError("a router without theta has no gates")
        return np.empty((0, 0)) if self.theta is None else self.theta.data

    def gate_expectations(self):
        """Noise-free expected gates sigmoid(theta) on the active triangle."""
        s = T._sigmoid_np(self._theta_values())
        return {(i, j): float(s[i, j]) for (i, j) in self.pairs()}

    def derive_binary_routing(self):
        """Keep (i, j) iff sigmoid(theta_ij) > 0.5, i.e. theta_ij > 0 (strict)."""
        return [(i, j) for (i, j) in self.pairs() if self._theta_values()[i, j] > 0.0]

    def sample_noise(self, rng):
        return sample_gumbel(rng, (self.num_blocks, self.num_blocks))

    def gates(self, tau, noise=None):
        """All L x L gates as one Tensor: gumbel_sigmoid(theta, tau, noise).

        Without noise the gates are the deterministic sigmoid(theta / tau).
        """
        if self.theta is None:
            raise ValueError("a router without theta has no gates")
        return gumbel_sigmoid(self.theta, tau, 0.0 if noise is None else noise)

    def route_step(self, j, inputs, output, gates=None):
        """Routed output O_j = O'_j + sum_{i<=j} gate_ij * g_ij(I_i) for one block.

        ``gates`` is an L x L Tensor from ``gates``; without it every shortcut
        this router owns has weight 1. Shortcuts into block j are added in
        shortcut order. A gate multiplies inside its shortcut's matmul, whose
        node keeps I_i and g_ij rather than their n x D product.
        """
        acc = output
        for i in [i for (i, k) in self._shortcuts if k == j]:
            gate = None if gates is None else T.pick(gates, i * self.num_blocks + j)
            contrib = T.matmul(inputs[i], self.shortcut(i, j), gate)
            # an ungated shortcut from an input without gradient feeds only w's gradient:
            # as the first operand, its backward runs before the block's and frees its
            # gradient early, and no sum changes order (a + b is b + a)
            acc = contrib + acc if gates is None and not inputs[i].requires_grad else acc + contrib
        return acc
