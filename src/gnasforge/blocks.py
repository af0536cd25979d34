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


def _attention_param_names(kind, layer, heads, head):
    base = f"layer{layer}/attn/{kind}/h{heads}/head{head}"
    if kind in ("gat", "sym_gat"):
        return {"Wa": f"{base}/Wa"}
    if kind == "cos":
        return {"Wa1": f"{base}/Wa1", "Wa2": f"{base}/Wa2"}
    if kind == "linear":
        return {"Wa": f"{base}/Wa"}
    if kind == "gene_linear":
        return {"Wa1": f"{base}/Wa1", "Wa2": f"{base}/Wa2", "Wg": f"{base}/Wg"}
    return {}


def init_block_params(space, store, rng):
    """Register every candidate operator's weights for one layer.

    Transform candidates: W1 (e*D_I x D_I) and W2 (D_O x e*D_I) per expansion e.
    Attention candidates: per (kind, head count, head index) as Table-style
    scoring requires. No biases anywhere.
    """
    L = space.layer
    for e in space.expansions:
        de = e * space.in_dim
        store.add(f"layer{L}/transform/x{e}/W1", glorot(rng, de, space.in_dim))
        store.add(f"layer{L}/transform/x{e}/W2", glorot(rng, space.out_dim, de))
    for kind in space.attentions:
        for H in space.head_counts:
            hd = space.out_dim // H
            for h in range(H):
                names = _attention_param_names(kind, L, H, h)
                if kind in ("gat", "sym_gat"):
                    store.add(names["Wa"], glorot(rng, 2 * hd, 1))
                elif kind == "cos":
                    store.add(names["Wa1"], glorot(rng, hd, hd))
                    store.add(names["Wa2"], glorot(rng, hd, hd))
                elif kind == "linear":
                    store.add(names["Wa"], glorot(rng, hd, 1))
                elif kind == "gene_linear":
                    store.add(names["Wa1"], glorot(rng, hd, hd))
                    store.add(names["Wa2"], glorot(rng, hd, hd))
                    store.add(names["Wg"], glorot(rng, hd, 1))


def block_param_names(space):
    """All parameter names init_block_params would register for this layer."""
    names = []
    for e in space.expansions:
        names += [f"layer{space.layer}/transform/x{e}/W1", f"layer{space.layer}/transform/x{e}/W2"]
    for kind in space.attentions:
        for H in space.head_counts:
            for h in range(H):
                names += list(_attention_param_names(kind, space.layer, H, h).values())
    return names


def transform_forward(x, w1, w2):
    """F(x) = W2 relu(W1 x), applied row-wise (weights stored transposed-free)."""
    return T.matmul(T.relu(T.matmul(x, _transpose(w1))), _transpose(w2))


def _transpose(w):
    # weights are stored (out, in); forward multiplies rows of x by W^T
    out = Tensor(w.data.T, _parents=(w,))

    def bw(g):
        if w.requires_grad:
            if w.grad is None:
                w.grad = np.zeros_like(w.data)
            w.grad += g.T

    out._backward = bw
    return out


def _segment_softmax(logits, segments, num_segments):
    """Softmax of per-edge logits within each destination's neighborhood.

    ``segments`` must be sorted, as ``Graph.edge_dst`` is; unsorted ids raise
    ValueError.
    """
    seg = T._check_segments("_segment_softmax", logits, segments, num_segments)
    ids, starts = T._segment_starts("_segment_softmax", seg)
    # the max shift is a constant w.r.t. the tape; softmax is shift-invariant
    m = np.zeros(num_segments)
    m[ids] = np.maximum.reduceat(logits.data.reshape(-1), starts)
    m[~np.isfinite(m)] = 0.0
    e = T.exp(logits - Tensor(m[seg].reshape(-1, 1)))
    denom = T.segment_sum(e, seg, num_segments)
    return T.div(e, T.gather_rows(denom, seg))


def attention_coefficients(kind, head_feats, graph, params):
    """Per-edge attention coefficients for one head (shape E x 1).

    ``head_feats`` holds the head's transformed node features. Learned kinds
    (gat, sym_gat, cos, linear, gene_linear) are softmax-normalized over each
    destination's in-neighborhood; const and gcn are used raw.
    """
    dst, src = graph.edge_dst, graph.edge_src
    n, ne = graph.num_nodes, len(dst)
    if kind == "const":
        return Tensor(np.ones((ne, 1)))
    if kind == "gcn":
        d = graph.degrees
        return Tensor((1.0 / np.sqrt(d[dst] * d[src])).reshape(-1, 1))

    h_dst = T.gather_rows(head_feats, dst)
    h_src = T.gather_rows(head_feats, src)
    if kind in ("gat", "sym_gat"):
        wa = params["Wa"]
        raw = T.leaky_relu(T.matmul(T.concat([h_dst, h_src]), wa), ATTN_LEAKY_SLOPE)
        if kind == "sym_gat":
            raw = raw + T.leaky_relu(T.matmul(T.concat([h_src, h_dst]), wa), ATTN_LEAKY_SLOPE)
    elif kind == "cos":
        left = T.matmul(h_dst, _transpose(params["Wa1"]))
        right = T.matmul(h_src, _transpose(params["Wa2"]))
        raw = _rowsum(T.mul(left, right))
    elif kind == "linear":
        per_src = T.matmul(head_feats, params["Wa"])          # n x 1 scores
        summed = T.segment_sum(T.gather_rows(per_src, src), dst, n)
        raw = T.gather_rows(T.tanh(summed), dst)              # same value for all j in N(i)
    elif kind == "gene_linear":
        mix = T.tanh(T.matmul(h_dst, _transpose(params["Wa1"])) +
                     T.matmul(h_src, _transpose(params["Wa2"])))
        raw = T.matmul(mix, params["Wg"])
    else:
        raise ValueError(f"unknown attention kind {kind!r}")
    return _segment_softmax(raw, dst, n)


def _rowsum(t):
    """Sum along the last axis, keeping a column shape (n, 1)."""
    ones = Tensor(np.ones((t.data.shape[1], 1)))
    return T.matmul(t, ones)


_AGG = {"sum": T.segment_sum, "mean": T.segment_mean, "max": T.segment_max}


@dataclass
class BlockParamsView:
    """Resolves this layer's parameter names inside a shared store."""
    space: BlockSpace
    store: ParameterStore

    def transform(self, expansion):
        L = self.space.layer
        return self.store[f"layer{L}/transform/x{expansion}/W1"], \
            self.store[f"layer{L}/transform/x{expansion}/W2"]

    def attention(self, kind, heads, head):
        names = _attention_param_names(kind, self.space.layer, heads, head)
        return {k: self.store[v] for k, v in names.items()}


def block_forward(graph, x, choice, params, scales=None):
    """Single-path Graph Block forward.

    Per head: messages are the selected transform of source features,
    weighted by the selected attention, aggregated over in-neighbors; heads
    concatenate back to out_dim; COMBINE is ADD with the node's own
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

    hd = space.out_dim // choice.heads
    dst, src = graph.edge_dst, graph.edge_src
    head_outs = []
    for h in range(choice.heads):
        feats = _slice_cols(t_all, h * hd, (h + 1) * hd)
        coeff = attention_coefficients(
            choice.attention, feats, graph, params.attention(choice.attention, choice.heads, h))
        coeff = scaled("attention", coeff)
        msgs = T.mul(T.gather_rows(feats, src), coeff)
        agg = _AGG[choice.aggregate](msgs, dst, graph.num_nodes)
        head_outs.append(scaled("aggregate", agg))
    e = head_outs[0] if len(head_outs) == 1 else T.concat(head_outs)
    e = scaled("heads", e)
    out = T.activation_apply(choice.activation, e + t_all)
    return scaled("activation", out)


def _slice_cols(t, lo, hi):
    out = Tensor(t.data[:, lo:hi], _parents=(t,))

    def bw(g):
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad[:, lo:hi] += g

    out._backward = bw
    return out
