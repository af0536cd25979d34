"""Per-layer operator superset (Graph Block) and single-path forward.

A block is five searchable sub-blocks: the transformation's expansion
multiplier, the attention mechanism, the head count, the aggregator and the
output activation. Each candidate owns disjoint parameters. Forward always
evaluates exactly one candidate per sub-block (single-path), optionally
scaling each sub-block's output by its selected probability so gradients
reach the controller.
"""

from __future__ import annotations

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
        for h in self.head_counts:
            if self.out_dim % h:
                raise ValueError(f"out_dim {self.out_dim} not divisible by head count {h}")
        for name in ("expansions", "attentions", "head_counts", "aggregators", "activations"):
            if not getattr(self, name):
                raise ValueError(f"empty candidate list {name!r}")

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


@dataclass
class Selection:
    """Chosen candidate index plus the probability value used for gradient scaling."""
    index: int
    value: float


def select_operator(prob_vector):
    """Argmax selection (ties -> lowest index) with its probability value."""
    p = np.asarray(prob_vector, dtype=np.float64).reshape(-1)
    if p.size == 0:
        raise ValueError("select_operator: empty probability vector")
    if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("select_operator: not a probability vector")
    idx = int(np.argmax(p))
    return Selection(idx, float(p[idx]))


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
    if kind == "cos":
        return {"Wa1": glorot(rng, hd, hd), "Wa2": glorot(rng, hd, hd)}
    if kind == "linear":
        return {"Wa": glorot(rng, hd, 1)}
    if kind == "gene_linear":
        return {"Wa1": glorot(rng, hd, hd), "Wa2": glorot(rng, hd, hd), "Wg": glorot(rng, hd, 1)}
    return {}


def init_block_params(space, store, rng):
    """Register every candidate operator's weights for one layer.

    Transform candidates: W1 (e*D_I x D_I) and W2 (D_O x e*D_I) per expansion e.
    Attention candidates: one stack per (kind, head count) whose block h holds
    head h's weights; heads are drawn one after another, then stacked. No
    biases anywhere.
    """
    L = space.layer
    for e in space.expansions:
        de = e * space.in_dim
        store.add(f"layer{L}/transform/x{e}/W1", glorot(rng, de, space.in_dim))
        store.add(f"layer{L}/transform/x{e}/W2", glorot(rng, space.out_dim, de))
    for kind in space.attentions:
        for H in space.head_counts:
            heads = [_draw_head(kind, space.out_dim // H, rng) for _ in range(H)]
            for key, name in _attention_param_names(kind, L, H).items():
                store.add(name, np.stack([w[key] for w in heads]))


def block_param_names(space):
    """All parameter names init_block_params would register for this layer."""
    names = []
    for e in space.expansions:
        names += [f"layer{space.layer}/transform/x{e}/W1", f"layer{space.layer}/transform/x{e}/W2"]
    for kind in space.attentions:
        for H in space.head_counts:
            names += list(_attention_param_names(kind, space.layer, H).values())
    return names


def transform_forward(x, w1, w2):
    """F(x) = W2 relu(W1 x), applied row-wise (weights stored transposed-free)."""
    return T.matmul(T.relu(T.matmul(x, T.transpose(w1))), T.transpose(w2))


def _head_map(heads, width):
    """Constant heads x width 0/1 matrix: row h is 1 on head h's column block."""
    return np.repeat(np.eye(heads), width // heads, axis=1)


def _segment_softmax(logits, segments, num_segments):
    """Softmax of per-edge logits within each destination's neighborhood, per column.

    ``segments`` must be sorted, as ``Graph.edge_dst`` is; unsorted ids raise
    ValueError.
    """
    seg = T._check_segments("_segment_softmax", logits, segments, num_segments)
    ids, starts = T._segment_starts("_segment_softmax", seg)
    # the max shift is a constant w.r.t. the tape; softmax is shift-invariant
    m = np.zeros((num_segments, logits.data.shape[1]))
    m[ids] = np.maximum.reduceat(logits.data, starts, axis=0)
    m[~np.isfinite(m)] = 0.0
    e = T.exp(logits - Tensor(m[seg]))
    denom = T.segment_sum(e, seg, num_segments)
    return T.div(e, T.gather_rows(denom, seg))


def attention_coefficients(kind, feats, graph, params):
    """Per-edge attention coefficients of every head at once (shape E x H).

    ``feats`` holds the block's transformed node features, n x D, with head h
    on columns [h*D/H, (h+1)*D/H). Each entry of ``params`` stacks the H
    heads' weights as (H, ., .). Learned kinds (gat, sym_gat, cos, linear,
    gene_linear) are softmax-normalized per head over each destination's
    in-neighborhood; const and gcn are used raw and return one E x 1 column
    that every head shares.
    """
    dst, src = graph.edge_dst, graph.edge_src
    n = graph.num_nodes
    if kind == "const":
        return Tensor(np.ones((len(dst), 1)))
    if kind == "gcn":
        d = graph.degrees
        return Tensor((1.0 / np.sqrt(d[dst] * d[src])).reshape(-1, 1))
    if kind not in _ATTN_WEIGHTS:
        raise ValueError(f"unknown attention kind {kind!r}")

    if kind in ("gat", "sym_gat"):
        # a^T [Wh_i || Wh_j] = a_dst^T Wh_i + a_src^T Wh_j: score nodes, then gather
        s_dst = T.matmul(feats, T.block_diag(params["Wa_dst"]))     # n x H
        s_src = T.matmul(feats, T.block_diag(params["Wa_src"]))
        raw = T.leaky_relu(T.gather_rows(s_dst, dst) + T.gather_rows(s_src, src),
                           ATTN_LEAKY_SLOPE)
        if kind == "sym_gat":
            raw = raw + T.leaky_relu(T.gather_rows(s_dst, src) + T.gather_rows(s_src, dst),
                                     ATTN_LEAKY_SLOPE)
    elif kind == "linear":
        per_src = T.matmul(feats, T.block_diag(params["Wa"]))       # n x H scores
        summed = T.segment_sum(T.gather_rows(per_src, src), dst, n)
        raw = T.gather_rows(T.tanh(summed), dst)                    # same value for all j in N(i)
    else:
        # cos and gene_linear map the n node rows per head, then gather to edges
        left = T.gather_rows(T.matmul(feats, T.transpose(T.block_diag(params["Wa1"]))), dst)
        right = T.gather_rows(T.matmul(feats, T.transpose(T.block_diag(params["Wa2"]))), src)
        if kind == "cos":
            # per-head row sums of the products: E x D times the D x H 0/1 map
            head_sum = _head_map(params["Wa1"].data.shape[0], feats.data.shape[1]).T
            raw = T.matmul(T.mul(left, right), Tensor(head_sum))
        else:
            raw = T.matmul(T.tanh(left + right), T.block_diag(params["Wg"]))
    return _segment_softmax(raw, dst, n)


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

    ``scales`` maps sub-block kind -> scalar Tensor (the controller's
    probability value). When None the scale factor is detached to 1, which
    is the pure weight-training path.
    """
    space = params.space
    if x.data.shape != (graph.num_nodes, space.in_dim):
        raise T.ShapeError(
            f"block_forward: input shape {x.data.shape} != ({graph.num_nodes}, {space.in_dim})")

    def scaled(kind, t):
        return T.mul(t, scales[kind]) if scales is not None and kind in scales else t

    w1, w2 = params.transform(choice.expansion)
    t_all = scaled("expansion", transform_forward(x, w1, w2))   # n x out_dim

    if choice.attention == "const" and (scales is None or "attention" not in scales):
        coeff = None                                            # all ones: no products to take
    else:
        coeff = attention_coefficients(choice.attention, t_all, graph,
                                       params.attention(choice.attention, choice.heads))
        coeff = scaled("attention", coeff)                      # E x H, or E x 1 for all heads
    agg = T.propagate(t_all, coeff, graph.edge_src, graph.edge_dst, graph.num_nodes,
                      _AGG[choice.aggregate])
    e = scaled("heads", scaled("aggregate", agg))
    out = T.activation_apply(choice.activation, e + t_all)
    return scaled("activation", out)
