"""Per-layer operator superset (Graph Block) and single-path forward.

A block is five searchable sub-blocks: the transformation's expansion
multiplier, the attention mechanism, the head count, the aggregator and the
output activation. Each candidate owns disjoint parameters. Forward always
evaluates exactly one candidate per sub-block (single-path), optionally
scaling each sub-block's output by its selected probability so gradients
reach the controller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, ParameterStore, glorot

EXPANSIONS = (1, 2, 4, 8)
ATTENTIONS = ("const", "gcn", "gat", "sym_gat", "cos", "linear", "gene_linear")
HEAD_COUNTS = (1, 2, 4, 8, 16)
AGGREGATORS = ("sum", "mean", "max")
ACTIVATION_KINDS = ("none", "sigmoid", "tanh", "softplus", "relu", "leaky_relu", "relu6", "elu")

SUB_BLOCKS = ("expansion", "attention", "heads", "aggregate", "activation")

# slope inside GAT-style attention scoring (GAT convention); the searchable
# leaky-relu activation candidate uses 0.01 instead
ATTN_LEAKY_SLOPE = 0.2


def is_int(v):
    """The integer rule of every config and genotype field: an int, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class BlockSpace:
    """Candidate lists for one layer's five sub-blocks."""
    layer: int
    in_dim: int
    out_dim: int
    expansions: tuple = EXPANSIONS
    attentions: tuple = ATTENTIONS
    head_counts: tuple = HEAD_COUNTS
    aggregators: tuple = AGGREGATORS
    activations: tuple = ACTIVATION_KINDS

    def __post_init__(self):
        for name in ("expansions", "attentions", "head_counts", "aggregators", "activations"):
            if not getattr(self, name):
                raise ValueError(f"empty candidate list {name!r}")
        for name, known in (("attentions", ATTENTIONS), ("aggregators", AGGREGATORS),
                            ("activations", ACTIVATION_KINDS)):
            unknown = [v for v in getattr(self, name) if v not in known]
            if unknown:
                raise ValueError(f"unknown {name} {unknown}; known: {list(known)}")
        for name, values in (("dimensions", (self.in_dim, self.out_dim)),
                             ("expansions", self.expansions), ("head_counts", self.head_counts)):
            bad = [v for v in values if not (is_int(v) and v >= 1)]
            if bad:
                raise ValueError(f"layer {self.layer}: {name} must be integers >= 1, got {bad}")
        for h in self.head_counts:
            if self.out_dim % h:
                raise ValueError(f"out_dim {self.out_dim} not divisible by head count {h}")

    def candidates(self, kind):
        return {
            "expansion": self.expansions,
            "attention": self.attentions,
            "heads": self.head_counts,
            "aggregate": self.aggregators,
            "activation": self.activations,
        }[kind]


@dataclass(frozen=True)
class BlockChoice:
    """One concrete operator per sub-block."""
    expansion: int
    attention: str
    heads: int
    aggregate: str
    activation: str


_ATTN_WEIGHTS = {
    "gat": ("Wa_dst", "Wa_src"),
    "sym_gat": ("Wa_dst", "Wa_src"),
    "cos": ("Wa1", "Wa2"),
    "linear": ("Wa",),
    "gene_linear": ("Wa1", "Wa2", "Wg"),
}


def _attention_param_names(kind, layer, heads):
    """Names of one (layer, kind, head count)'s weight stacks, each shaped (H, ., .)."""
    base = f"layer{layer}/attn/{kind}/h{heads}"
    return {k: f"{base}/{k}" for k in _ATTN_WEIGHTS.get(kind, ())}


def _draw_head(kind, hd, rng):
    """One head's attention weights; the draw order fixes the initial values and later draws."""
    if kind in ("gat", "sym_gat"):
        wa = glorot(rng, 2 * hd, 1)      # a in a^T [Wh_i || Wh_j], split at the ||
        return {"Wa_dst": wa[:hd], "Wa_src": wa[hd:]}
    if kind in ("cos", "gene_linear"):
        maps = {"Wa1": glorot(rng, hd, hd).T, "Wa2": glorot(rng, hd, hd).T}
        return maps if kind == "cos" else dict(maps, Wg=glorot(rng, hd, 1))
    if kind == "linear":
        return {"Wa": glorot(rng, hd, 1)}
    return {}


def init_block_params(space, store, rng):
    """Register every candidate operator's weights for one layer.

    Transform candidates: W1 (D_I x e*D_I) and W2 (e*D_I x D_O) per expansion e.
    Attention candidates: one stack per (kind, head count) whose block h holds
    head h's weights; heads are drawn one after another, then stacked. No
    biases anywhere.
    """
    L = space.layer
    for e in space.expansions:
        de = e * space.in_dim
        store.add(f"layer{L}/transform/x{e}/W1", glorot(rng, de, space.in_dim).T)
        store.add(f"layer{L}/transform/x{e}/W2", glorot(rng, space.out_dim, de).T)
    for kind in space.attentions:
        for H in space.head_counts:
            heads = [_draw_head(kind, space.out_dim // H, rng) for _ in range(H)]
            for key, name in _attention_param_names(kind, L, H).items():
                store.add(name, np.stack([w[key] for w in heads]))


def transform_forward(x, w1, w2, p=None):
    """F(x) = relu(x W1) W2 on the rows of x, with W1 and W2 stored (in, out).

    Returns (F(x), h) with h = relu(x W1), the e*D_I-wide hidden rows that
    block_forward aggregates instead of F(x) when they are the narrower side.
    A scalar ``p`` multiplies F(x) inside the second matmul, whose node keeps
    h and W2 rather than F(x).
    """
    h = T.relu(T.matmul(x, w1))
    return T.matmul(h, w2, p), h


def attention_coefficients(kind, feats, graph, params):
    """Per-edge attention coefficients of every head at once (shape E x H).

    ``feats`` holds the block's transformed node features, n x D, with head h
    on columns [h*D/H, (h+1)*D/H). Each entry of ``params`` stacks the H
    heads' weights as (H, ., .). Learned kinds (gat, sym_gat, cos, linear,
    gene_linear) are softmax-normalized per head over each destination's
    in-neighborhood; gcn is used raw and returns one E x 1 column that every
    head shares. const has no coefficients: its block passes none to
    T.propagate.
    """
    arcs = graph.arcs
    if kind == "gcn":
        return Tensor(graph.gcn_coefficients)
    if kind not in _ATTN_WEIGHTS:
        raise ValueError(f"unknown attention kind {kind!r}")

    if kind in ("gat", "sym_gat"):
        # a^T [Wh_i || Wh_j] = a_dst^T Wh_i + a_src^T Wh_j: score nodes, then gather
        s_dst = T.matmul(feats, T.block_diag(params["Wa_dst"]))     # n x H
        s_src = T.matmul(feats, T.block_diag(params["Wa_src"]))
        raw = T.leaky_relu(T.gather_rows(s_dst, arcs, "dst") + T.gather_rows(s_src, arcs, "src"),
                           ATTN_LEAKY_SLOPE)
        if kind == "sym_gat":
            raw = raw + T.leaky_relu(T.gather_rows(s_dst, arcs, "src")
                                     + T.gather_rows(s_src, arcs, "dst"), ATTN_LEAKY_SLOPE)
    elif kind == "linear":
        per_src = T.matmul(feats, T.block_diag(params["Wa"]))       # n x H scores
        summed = T.propagate(per_src, None, arcs, "sum")
        raw = T.gather_rows(T.tanh(summed), arcs, "dst")            # same value for all j in N(i)
    else:
        # cos and gene_linear map the n node rows per head
        left = T.matmul(feats, T.block_diag(params["Wa1"]))
        right = T.matmul(feats, T.block_diag(params["Wa2"]))
        if kind == "cos":
            raw = T.edge_dot(left, right, arcs, params["Wa1"].data.shape[0])
        else:
            pair = T.gather_rows(left, arcs, "dst") + T.gather_rows(right, arcs, "src")
            raw = T.matmul(T.tanh(pair), T.block_diag(params["Wg"]))
    return T.edge_softmax(raw, arcs)


# aggregator candidate -> the ``agg`` argument of T.propagate; perfbench/tracer.py
# looks this table up by name, so it stays a dict
_AGG = {"sum": "sum", "mean": "mean", "max": "max"}


@dataclass
class BlockParamsView:
    """Resolves this layer's parameter names inside a shared store."""
    space: BlockSpace
    store: ParameterStore

    def transform(self, expansion):
        L = self.space.layer
        return self.store[f"layer{L}/transform/x{expansion}/W1"], \
            self.store[f"layer{L}/transform/x{expansion}/W2"]

    def attention(self, kind, heads):
        names = _attention_param_names(kind, self.space.layer, heads)
        return {k: self.store[v] for k, v in names.items()}


def block_forward(graph, x, choice, params, scales=None):
    """Single-path Graph Block forward.

    Heads are column blocks of one n x out_dim tensor: messages are the
    selected transform of source features, each head's block weighted by that
    head's attention coefficient, aggregated over in-neighbors by one
    T.propagate call for every head; COMBINE is ADD with the node's own
    transform; the selected activation finishes the layer.

    When every column shares one coefficient (none, or E x 1) and the
    aggregator is linear (sum, mean), aggregating F(x) = h W2 equals
    aggregating h and then mapping by W2. The block then aggregates
    whichever side is narrower, as DGL's GraphConv does.

    ``scales`` maps sub-block kind -> scalar Tensor (the controller's
    probability value). When None the scale factor is a constant 1, which
    is the pure weight-training path. The expansion probability scales F(x)
    (and (A h) W2 on the narrow side), the activation probability the
    block's output, and the attention, aggregate and heads probabilities the
    aggregated rows. Scaling the aggregate by the attention probability p
    equals aggregating with p times the coefficients: sum and mean are
    linear in them, and max commutes with p > 0 (the argmax entry of a
    probability vector). So const still passes no coefficient and gcn's
    stays a constant, and neither takes a per-arc product for p's gradient.
    The probabilities that scale one value are first multiplied into one
    scalar, which multiplies that value once: F(x) inside the transform's
    second matmul, the aggregate by its attention, aggregate and heads
    probabilities (inside the matmul by W2, with the expansion probability,
    on the narrow side), and the activation's output. So the tape keeps no
    n x D product per probability for that probability's gradient.
    """
    space = params.space
    if x.data.shape != (graph.num_nodes, space.in_dim):
        raise T.ShapeError(
            f"block_forward: input shape {x.data.shape} != ({graph.num_nodes}, {space.in_dim})")

    def prob(*kinds):
        """The product of the probabilities of ``kinds`` that ``scales`` holds, or None."""
        ps = [scales[k] for k in kinds if k in scales] if scales is not None else []
        return functools.reduce(T.mul, ps) if ps else None

    def scaled(t, p):
        return t if p is None else T.mul(t, p)

    w1, w2 = params.transform(choice.expansion)
    t_all, h = transform_forward(x, w1, w2, prob("expansion"))  # n x out_dim

    if choice.attention == "const":
        coeff = None                                            # all ones: no products to take
    else:                                                       # E x H, or E x 1 for all heads
        coeff = attention_coefficients(choice.attention, t_all, graph,
                                       params.attention(choice.attention, choice.heads))
    shared = coeff is None or coeff.shape[1] == 1
    narrow = shared and choice.aggregate != "max" and h.shape[1] < space.out_dim
    agg = T.propagate(h if narrow else t_all, coeff, graph.arcs, _AGG[choice.aggregate])
    if narrow:                                                  # (A h) W2 = A (h W2)
        agg = T.matmul(agg, w2, prob("expansion", "attention", "aggregate", "heads"))
    else:
        agg = scaled(agg, prob("attention", "aggregate", "heads"))
    pre = agg + t_all
    del h, t_all, agg, coeff            # values no closure saved die before the activation runs
    return scaled(T.activation_apply(choice.activation, pre), prob("activation"))
