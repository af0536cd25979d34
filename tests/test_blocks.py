import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from gnasforge import tensor as T
from gnasforge.tensor import Tensor, ParameterStore, glorot
from gnasforge import verify
from gnasforge.blocks import (
    BlockSpace, BlockChoice, BlockParamsView,
    block_forward, init_block_params,
    attention_coefficients, transform_forward,
    ATTENTIONS, HEAD_COUNTS, AGGREGATORS, SUB_BLOCKS,
)
from gnasforge.gradcheck import check_params
from gnasforge.graphs import graph_from_dict, generate_sbm


def tiny_graph(num_nodes, edges, feat):
    return graph_from_dict({
        "num_nodes": num_nodes, "feature_dim": len(feat[0]), "task": "single",
        "num_classes": 2, "features": feat, "edges": edges,
        "labels": [i % 2 for i in range(num_nodes)],
    })


def identity_block(space, store):
    """Overwrite transform weights so F(x) = x (expansion 1, square dims)."""
    L = space.layer
    store[f"layer{L}/transform/x1/W1"].data = np.eye(space.in_dim)
    store[f"layer{L}/transform/x1/W2"].data = np.eye(space.in_dim, space.out_dim)


# -- transform ----------------------------------------------------------------

def test_transform_identity_weights_pass_nonnegative_input():
    w1 = Tensor(np.eye(3))
    w2 = Tensor(np.eye(3))
    x = np.abs(np.random.default_rng(0).standard_normal((4, 3)))
    out, h = transform_forward(Tensor(x), w1, w2)
    np.testing.assert_allclose(out.data, x)
    np.testing.assert_allclose(h.data, x)


def test_transform_zero_input_gives_zero():
    w1 = Tensor(np.random.default_rng(1).standard_normal((3, 6)))
    w2 = Tensor(np.random.default_rng(2).standard_normal((6, 4)))
    out, h = transform_forward(Tensor(np.zeros((5, 3))), w1, w2)
    np.testing.assert_array_equal(out.data, 0.0)
    assert h.shape == (5, 6)


def test_transform_matches_hand_arithmetic():
    w1 = np.array([[1.0, -2.0], [0.5, 3.0]])
    w2 = np.array([[2.0, 1.0], [-1.0, 0.0]])
    x = np.array([[1.0, 1.0], [2.0, -1.0]])
    hidden = np.maximum(x @ w1, 0.0)
    out, h = transform_forward(Tensor(x), Tensor(w1), Tensor(w2))
    np.testing.assert_allclose(h.data, hidden)
    np.testing.assert_allclose(out.data, hidden @ w2)


# -- attention ----------------------------------------------------------------

def test_const_attention_is_one_per_edge():
    g = tiny_graph(3, [[0, 1], [1, 2]], [[1.0], [2.0], [3.0]])
    coeff = attention_coefficients("const", Tensor(g.features), g, {})
    np.testing.assert_array_equal(coeff.data, 1.0)


def test_gcn_attention_inverse_sqrt_degrees():
    # 3-clique + one extra neighbor on node 0: after self-loops d = [4, 3, 3, 2]
    g = tiny_graph(4, [[0, 1], [1, 2], [0, 2], [0, 3]],
                   [[0.0]] * 4)
    d = g.arcs.counts[:, 0]
    np.testing.assert_array_equal(d, [4, 3, 3, 2])
    coeff = attention_coefficients("gcn", Tensor(g.features), g, {}).data.reshape(-1)
    for k, (i, j) in enumerate(zip(g.arcs.dst, g.arcs.src)):
        np.testing.assert_allclose(coeff[k], 1.0 / np.sqrt(d[i] * d[j]))


def test_gcn_coefficients_are_computed_once_per_graph():
    g = tiny_graph(4, [[0, 1], [1, 2], [0, 2], [0, 3]], [[0.0]] * 4)
    a = attention_coefficients("gcn", Tensor(g.features), g, {})
    b = attention_coefficients("gcn", Tensor(g.features), g, {})
    assert a.data is b.data is g.gcn_coefficients
    d = np.bincount(g.arcs.dst).astype(np.float64)
    np.testing.assert_array_equal(a.data[:, 0], 1.0 / np.sqrt(d[g.arcs.dst] * d[g.arcs.src]))


def test_gcn_quarter_for_degree_four():
    g = tiny_graph(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], [[0.0]] * 4)
    coeff = attention_coefficients("gcn", Tensor(g.features), g, {})
    np.testing.assert_allclose(coeff.data, 0.25)


def test_sym_gat_raw_scores_symmetric():
    rng = np.random.default_rng(3)
    g = tiny_graph(2, [[0, 1]], rng.standard_normal((2, 2)).tolist())
    feats = Tensor(rng.standard_normal((2, 2)))
    wa = Tensor(rng.standard_normal((4, 1)))
    slope = 0.2

    def raw_gat(i, j):
        z = np.concatenate([feats.data[i], feats.data[j]]) @ wa.data.reshape(-1)
        return z if z > 0 else slope * z

    # symmetric by construction: a_ij(sym) = raw(i,j) + raw(j,i)
    assert raw_gat(0, 1) + raw_gat(1, 0) == pytest.approx(raw_gat(1, 0) + raw_gat(0, 1))


def test_gat_hand_trace_on_star():
    # star: center 0 with leaves 1, 2; hand-set Wa
    feats_np = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g = tiny_graph(3, [[0, 1], [0, 2]], feats_np.tolist())
    wa_np = np.array([[0.5], [-1.0], [2.0], [0.25]])
    # one head: the [dst || src] halves of Wa, each stacked as (1, 2, 1)
    params = {"Wa_dst": Tensor(wa_np[None, :2]), "Wa_src": Tensor(wa_np[None, 2:])}
    coeff = attention_coefficients("gat", Tensor(feats_np), g, params)

    def leaky(z):
        return z if z > 0 else 0.2 * z

    raw = {}
    for k, (i, j) in enumerate(zip(g.arcs.dst, g.arcs.src)):
        raw[k] = leaky(np.concatenate([feats_np[i], feats_np[j]]) @ wa_np.reshape(-1))
    expect = np.empty(len(raw))
    for i in range(3):
        ks = [k for k in raw if g.arcs.dst[k] == i]
        e = np.exp([raw[k] for k in ks])
        for k, v in zip(ks, e / e.sum()):
            expect[k] = v
    np.testing.assert_allclose(coeff.data.reshape(-1), expect, atol=1e-12)


@pytest.mark.parametrize("kind", ["gat", "sym_gat", "cos", "linear", "gene_linear"])
def test_normalized_attention_sums_to_one_per_neighborhood(kind):
    rng = np.random.default_rng(4)
    g, _ = generate_sbm(2, 4, 0.8, 0.3, 4, 0.5, seed=5)
    space = BlockSpace(layer=0, in_dim=4, out_dim=8, head_counts=(1, 4),
                       attentions=(kind,), expansions=(1,))
    store = ParameterStore()
    init_block_params(space, store, rng)
    view = BlockParamsView(space, store)
    feats = Tensor(rng.standard_normal((8, 8)))
    for heads in (1, 4):
        coeff = attention_coefficients(kind, feats, g, view.attention(kind, heads)).data
        assert coeff.shape == (len(g.arcs.dst), heads)
        sums = np.zeros((g.num_nodes, heads))
        np.add.at(sums, g.arcs.dst, coeff)      # every head column sums to 1 per neighborhood
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_unknown_attention_kind_rejected():
    g = tiny_graph(2, [[0, 1]], [[0.0], [0.0]])
    with pytest.raises(ValueError, match="unknown attention"):
        attention_coefficients("dot", Tensor(g.features), g, {})


# -- block forward ---------------------------------------------------------------

def two_node_block():
    g = tiny_graph(2, [[0, 1]], [[1.0, 0.0], [0.0, 1.0]])
    space = BlockSpace(layer=0, in_dim=2, out_dim=2, expansions=(1,),
                       attentions=("const",), head_counts=(1,),
                       aggregators=("sum",), activations=("none",))
    store = ParameterStore()
    init_block_params(space, store, np.random.default_rng(0))
    identity_block(space, store)
    return g, space, store


def test_block_forward_two_node_hand_case():
    g, space, store = two_node_block()
    choice = BlockChoice(1, "const", 1, "sum", "none")
    out = block_forward(g, Tensor(g.features), choice, BlockParamsView(space, store))
    # each node sums self + neighbor messages, then ADD-combines its own transform
    np.testing.assert_allclose(out.data, [[2.0, 1.0], [1.0, 2.0]])


def test_block_forward_zero_input_zero_output():
    g, space, store = two_node_block()
    choice = BlockChoice(1, "const", 1, "sum", "none")
    out = block_forward(g, Tensor(np.zeros((2, 2))), choice, BlockParamsView(space, store))
    np.testing.assert_array_equal(out.data, 0.0)


def test_block_forward_scale_of_one_is_identity():
    g, space, store = two_node_block()
    choice = BlockChoice(1, "const", 1, "sum", "none")
    view = BlockParamsView(space, store)
    ones = {k: Tensor(1.0) for k in ("expansion", "attention", "heads", "aggregate", "activation")}
    plain = block_forward(g, Tensor(g.features), choice, view)
    scaled = block_forward(g, Tensor(g.features), choice, view, scales=ones)
    np.testing.assert_array_equal(plain.data, scaled.data)


def test_block_forward_rejects_bad_input_width():
    g, space, store = two_node_block()
    choice = BlockChoice(1, "const", 1, "sum", "none")
    with pytest.raises(T.ShapeError, match="block_forward"):
        block_forward(g, Tensor(np.zeros((2, 3))), choice, BlockParamsView(space, store))


def test_mean_equals_sum_for_single_in_neighbor():
    # node 1 has only its self-loop
    g = tiny_graph(2, [], [[1.5, -2.0], [0.5, 1.0]])
    space = BlockSpace(layer=0, in_dim=2, out_dim=2, expansions=(1,),
                       attentions=("const",), head_counts=(1,),
                       aggregators=("sum", "mean"), activations=("tanh",))
    store = ParameterStore()
    init_block_params(space, store, np.random.default_rng(6))
    view = BlockParamsView(space, store)
    a = block_forward(g, Tensor(g.features), BlockChoice(1, "const", 1, "sum", "tanh"), view)
    b = block_forward(g, Tensor(g.features), BlockChoice(1, "const", 1, "mean", "tanh"), view)
    np.testing.assert_allclose(a.data, b.data)


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    g, _ = generate_sbm(2, 4, 0.7, 0.3, 4, 0.5, seed=9)
    perm = rng.permutation(g.num_nodes)
    inv = np.argsort(perm)
    # relabeled copy of the same graph
    edges = sorted({(int(min(inv[s], inv[d])), int(max(inv[s], inv[d])))
                    for s, d in zip(g.arcs.src, g.arcs.dst) if s != d})
    g2 = graph_from_dict({
        "num_nodes": g.num_nodes, "feature_dim": 4, "task": "single", "num_classes": 2,
        "features": g.features[perm].tolist(), "edges": [list(e) for e in edges],
        "labels": g.labels[perm].tolist(),
    })
    space = BlockSpace(layer=0, in_dim=4, out_dim=8, expansions=(2,),
                       attentions=("gat",), head_counts=(2,),
                       aggregators=("sum",), activations=("elu",))
    store = ParameterStore()
    init_block_params(space, store, np.random.default_rng(10))
    view = BlockParamsView(space, store)
    choice = BlockChoice(2, "gat", 2, "sum", "elu")
    out1 = block_forward(g, Tensor(g.features), choice, view).data
    out2 = block_forward(g2, Tensor(g2.features), choice, view).data
    np.testing.assert_allclose(out2, out1[perm], atol=1e-12)


def test_multi_head_width_and_concat():
    rng = np.random.default_rng(11)
    g, _ = generate_sbm(2, 3, 0.9, 0.2, 3, 0.4, seed=12)
    space = BlockSpace(layer=0, in_dim=3, out_dim=16, expansions=(1,),
                       attentions=("cos",), head_counts=(4,),
                       aggregators=("max",), activations=("relu",))
    store = ParameterStore()
    init_block_params(space, store, rng)
    out = block_forward(g, Tensor(g.features), BlockChoice(1, "cos", 4, "max", "relu"),
                        BlockParamsView(space, store))
    assert out.data.shape == (6, 16)
    assert np.isfinite(out.data).all()


def _propagated_width(monkeypatch, kind, agg, heads=1, expansion=1, scales=None):
    """The width of the x that an in 3, out 8 block_forward hands to T.propagate."""
    widths = []

    def recording(x, *args):
        widths.append(x.shape[1])
        return propagate(x, *args)

    propagate = T.propagate
    monkeypatch.setattr(T, "propagate", recording)
    g = verify._test_graph()
    x = Tensor(np.random.default_rng(40).standard_normal((g.num_nodes, 3)))
    space = BlockSpace(layer=0, in_dim=3, out_dim=8, expansions=(expansion,),
                       attentions=(kind,), head_counts=(heads,),
                       aggregators=(agg,), activations=("tanh",))
    store = ParameterStore()
    init_block_params(space, store, np.random.default_rng(41))
    block_forward(g, x, BlockChoice(expansion, kind, heads, agg, "tanh"),
                  BlockParamsView(space, store), scales)
    assert len(widths) == 1
    return widths[0]


@pytest.mark.parametrize("kind, agg, heads, scaled", [
    ("gcn", "sum", 1, False), ("gcn", "sum", 4, True),
    ("const", "mean", 2, False), ("const", "mean", 1, True),
    ("gat", "sum", 1, False),     # one head: its E x 1 coefficient is shared too
])
def test_shared_linear_blocks_aggregate_the_narrower_hidden_rows(monkeypatch, kind, agg,
                                                                 heads, scaled):
    scales = {k: Tensor(0.7) for k in SUB_BLOCKS} if scaled else None
    assert _propagated_width(monkeypatch, kind, agg, heads, scales=scales) == 3


@pytest.mark.parametrize("kind, agg, heads, expansion", [
    ("gcn", "max", 1, 1),         # max is not linear
    ("gat", "sum", 4, 1),         # one learned coefficient per head
    ("gcn", "sum", 1, 4),         # hidden 12 >= out 8
    ("const", "mean", 1, 8),      # hidden 24 >= out 8
])
def test_other_blocks_aggregate_the_output_rows(monkeypatch, kind, agg, heads, expansion):
    assert _propagated_width(monkeypatch, kind, agg, heads, expansion) == 8


# -- segment references and the edge softmax -------------------------------------

def _check_segments(op, values, segments, num_segments):
    segments = np.asarray(segments, dtype=np.int64)
    if values.data.ndim != 2 or segments.shape != (values.data.shape[0],):
        raise T.ShapeError(f"{op}: shapes {values.data.shape} vs {segments.shape}")
    if segments.size and (segments.min() < 0 or segments.max() >= num_segments):
        raise IndexError(f"{op}: segment id out of range for {num_segments} segments")
    return segments


def _scatter_add(values, idx, num_rows):
    """Rows of ``values`` summed into ``num_rows`` rows keyed by ``idx``, in index order."""
    acc = np.zeros((num_rows, values.shape[1]))
    np.add.at(acc, idx, values)
    return acc


def _exp(t):
    """The engine's former exp tape op."""
    y = np.exp(t.data)
    return Tensor(y, _parents=(t,), _backward=lambda g: T._accum(t._node, g * y, owned=True))


def _segment_starts(op, segments):
    """Ids of the non-empty segments of sorted ``segments`` and the row each one starts at."""
    step = np.diff(segments, prepend=-1)
    if (step < 0).any():
        raise ValueError(f"{op}: segment ids must be sorted")
    starts = np.flatnonzero(step)
    return segments[starts], starts


def _segment_sum(values, segments, num_segments):
    """The engine's former segment_sum tape op: rows summed per segment id, in input order."""
    segments = _check_segments("segment_sum", values, segments, num_segments)
    return Tensor(_scatter_add(values.data, segments, num_segments), _parents=(values,),
                  _backward=lambda g: T._accum(values._node, g[segments], owned=True))


def _chain_softmax(logits, arcs):
    """The former five-node softmax chain: shift, exp, segment sum, gather, divide.

    A node's shift is its max score, or 0 when that is not finite or it has
    no arcs; adding the negated shift rounds as subtracting it does."""
    m = np.full((arcs.num_nodes, logits.data.shape[1]), -np.inf)
    np.maximum.at(m, arcs.dst, logits.data)
    m[~np.isfinite(m)] = 0.0
    e = _exp(logits + Tensor(-m[arcs.dst]))
    denom = _segment_sum(e, arcs.dst, arcs.num_nodes)
    return T.div(e, T.gather_rows(denom, arcs, "dst"))


# in-degrees 3, 2, 0, 1 and 2: node 2 has no in-arcs
_SOFT_ARCS = T.Arcs([1, 0, 4, 3, 1, 2, 4, 0], [0, 0, 0, 1, 1, 3, 4, 4], 5)


@pytest.mark.parametrize("heads", [1, 3])
@pytest.mark.parametrize("case", ["finite", "non-finite"])
def test_edge_softmax_matches_the_former_chain(case, heads):
    rng = np.random.default_rng(50 + heads)
    scores = rng.standard_normal((8, heads)) * 3.0
    if case == "non-finite":
        scores[3] = -np.inf      # node 1's other arc takes all of its weight
        scores[5] = -np.inf      # node 3's only arc: its -inf max shifts by 0, and 0 / 0
        scores[6] = np.inf       # node 4: an +inf max shifts by 0, so arc 7 still reads 0
    upstream = Tensor(rng.standard_normal((8, heads)))

    def run(op):
        x = Tensor(scores, requires_grad=True)
        out = op(x, _SOFT_ARCS)
        T.tsum(T.mul(out, upstream)).backward()
        return out.data, x.grad

    with np.errstate(all="ignore"):
        y, grad = run(T.edge_softmax)
        ref, ref_grad = run(_chain_softmax)
    np.testing.assert_array_equal(y, ref)
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)
    sums = np.bincount(_SOFT_ARCS.dst, np.nan_to_num(y[:, 0]), minlength=5)
    if case == "non-finite":
        assert (y[3] == 0.0).all() and (y[4] == 1.0).all() and (y[7] == 0.0).all()
        assert np.isnan(y[5]).all() and np.isnan(y[6]).all()
        np.testing.assert_allclose(sums, [1, 1, 0, 0, 0])
    else:
        np.testing.assert_allclose(sums, [1, 1, 0, 1, 1])


@st.composite
def _softmax_case(draw):
    """Scores over sorted dst with nodes of no in-arcs at the start, middle and end.

    Repeated values make ties in a node's max, and signed zeros and -inf entries
    make +-0 and non-finite maxima."""
    head = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    tail = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    counts = [0] + head + [0] + tail + [0]
    dst = np.repeat(np.arange(len(counts)), counts)
    values = st.one_of(st.sampled_from([-1.0, 0.0, -0.0, 2.0, -np.inf]), st.floats(-50, 50))
    scores = draw(arrays(np.float64, (len(dst), draw(st.integers(1, 3))), elements=values))
    return T.Arcs(np.zeros(len(dst), dtype=np.int64), dst, len(counts)), scores


@given(_softmax_case())
def test_edge_softmax_forward_matches_the_chain_bit_for_bit(case):
    arcs, scores = case
    with np.errstate(all="ignore"):
        y = T.edge_softmax(Tensor(scores), arcs).data
        ref = _chain_softmax(Tensor(scores), arcs).data
    np.testing.assert_array_equal(y.view(np.uint64), ref.view(np.uint64))


def test_edge_softmax_rejects_bad_shapes():
    for shape in ((7, 2), (8,), (8, 2, 1)):
        with pytest.raises(T.ShapeError, match="edge_softmax"):
            T.edge_softmax(Tensor(np.zeros(shape)), _SOFT_ARCS)


@pytest.mark.parametrize("kind", ["gat", "sym_gat", "cos", "linear", "gene_linear"])
def test_learned_attention_is_one_softmax_node_over_the_scores(kind):
    g = verify._test_graph()
    space = BlockSpace(layer=0, in_dim=3, out_dim=4, attentions=(kind,), head_counts=(2,))
    store = ParameterStore()
    init_block_params(space, store, np.random.default_rng(51))
    feats = Tensor(np.random.default_rng(52).standard_normal((g.num_nodes, 4)))
    params = BlockParamsView(space, store).attention(kind, 2)
    coeff = attention_coefficients(kind, feats, g, params)
    assert len(coeff._parents) == 1
    assert coeff._parents[0].shape == coeff.shape == (len(g.arcs.dst), 2)


# -- fused heads vs a per-head reference ---------------------------------------------

def _cols(t, lo, hi):
    """Columns [lo, hi) of ``t`` through a constant 0/1 selector: exact and differentiable."""
    sel = np.zeros((t.shape[1], hi - lo))
    sel[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
    return T.matmul(t, Tensor(sel))


def _ref_softmax(raw, arcs):
    m = np.full(arcs.num_nodes, -np.inf)
    np.maximum.at(m, arcs.dst, raw.data[:, 0])
    e = _exp(raw + Tensor(-m[arcs.dst][:, None]))
    return T.div(e, T.gather_rows(_segment_sum(e, arcs.dst, arcs.num_nodes), arcs, "dst"))


def _ref_head_coeff(kind, f, g, w):
    """One head's E x 1 coefficients, scored on edge rows as a^T [Wh_i || Wh_j]."""
    dst, src, n = g.arcs.dst, g.arcs.src, g.num_nodes
    if kind == "const":
        return Tensor(np.ones((len(dst), 1)))
    if kind == "gcn":
        d = np.bincount(dst).astype(np.float64)
        return Tensor((1.0 / np.sqrt(d[dst] * d[src]))[:, None])
    h_dst, h_src = T.gather_rows(f, g.arcs, "dst"), T.gather_rows(f, g.arcs, "src")

    def gat(a, b):
        return T.leaky_relu(T.matmul(a, w["Wa_dst"]) + T.matmul(b, w["Wa_src"]), 0.2)

    if kind == "gat":
        raw = gat(h_dst, h_src)
    elif kind == "sym_gat":
        raw = gat(h_dst, h_src) + gat(h_src, h_dst)
    elif kind == "linear":
        scores = T.gather_rows(T.matmul(f, w["Wa"]), g.arcs, "src")
        raw = T.gather_rows(T.tanh(_segment_sum(scores, dst, n)), g.arcs, "dst")
    else:
        left = T.matmul(h_dst, w["Wa1"])
        right = T.matmul(h_src, w["Wa2"])
        if kind == "cos":
            raw = T.matmul(T.mul(left, right), Tensor(np.ones((f.shape[1], 1))))
        else:
            raw = T.matmul(T.tanh(left + right), w["Wg"])
    return _ref_softmax(raw, g.arcs)


def _ref_segment_mean(values, segments, num_segments):
    """The engine's former segment_mean tape op: per-segment mean, zero when empty."""
    segments = _check_segments("segment_mean", values, segments, num_segments)
    safe = np.maximum(np.bincount(segments, minlength=num_segments), 1.0)
    y = _scatter_add(values.data, segments, num_segments) / safe[:, None]
    return Tensor(y, _parents=(values,),
                  _backward=lambda g: T._accum(values._node, (g / safe[:, None])[segments]))


def _ref_segment_max(values, segments, num_segments):
    """The engine's former segment_max tape op: per-segment max over rows, zero when
    empty; backward routes each column's gradient to the first row reaching the max."""
    segments = _check_segments("segment_max", values, segments, num_segments)
    ids, starts = _segment_starts("segment_max", segments)
    v = values.data
    y = np.zeros((num_segments, v.shape[1]))
    y[ids] = np.maximum.reduceat(v, starts, axis=0)
    row = np.arange(len(v))[:, None]
    first = np.minimum.reduceat(np.where(v == y[segments], row, len(v)), starts, axis=0)
    seg_rank, cols = np.nonzero(first < len(v))
    rows, seg_of = first[seg_rank, cols], ids[seg_rank]

    def bw(g):
        acc = np.zeros_like(v)
        acc[rows, cols] += g[seg_of, cols]
        T._accum(values._node, acc)

    return Tensor(y, _parents=(values,), _backward=bw)


_REF_AGG = {"sum": _segment_sum, "mean": _ref_segment_mean, "max": _ref_segment_max}


def _ref_block(g, x, choice, view, scales):
    """Per-head loop: each head slices its columns and its block of every stack."""
    def sc(kind, t):
        return T.mul(t, scales[kind])

    out_dim, H = view.space.out_dim, choice.heads
    hd = out_dim // H
    t_all = sc("expansion", transform_forward(x, *view.transform(choice.expansion))[0])
    stacks = view.attention(choice.attention, H)
    heads = [{k: Tensor(v.data[h].copy(), requires_grad=True) for k, v in stacks.items()}
             for h in range(H)]
    e = None
    for h in range(H):
        f = _cols(t_all, h * hd, (h + 1) * hd)
        coeff = sc("attention", _ref_head_coeff(choice.attention, f, g, heads[h]))
        msgs = T.mul(T.gather_rows(f, g.arcs, "src"), T.matmul(coeff, Tensor(np.ones((1, hd)))))
        agg = sc("aggregate", _REF_AGG[choice.aggregate](msgs, g.arcs.dst, g.num_nodes))
        place = np.zeros((hd, out_dim))
        place[np.arange(hd), np.arange(h * hd, (h + 1) * hd)] = 1.0
        placed = T.matmul(agg, Tensor(place))
        e = placed if e is None else e + placed
    out = T.activation_apply(choice.activation, sc("heads", e) + t_all)
    return sc("activation", out), heads


def test_attention_stacks_hold_per_head_draws_in_order():
    """Head h's block is its glorot draw, drawn head by head after the transform."""
    space = BlockSpace(layer=0, in_dim=3, out_dim=4, expansions=(1,),
                       attentions=("gat", "gene_linear"), head_counts=(2,))
    store = ParameterStore()
    init_block_params(space, store, np.random.default_rng(30))
    rng = np.random.default_rng(30)
    glorot(rng, 3, 3), glorot(rng, 4, 3)                      # transform W1, W2
    gat = [glorot(rng, 4, 1) for _ in range(2)]
    gene = [[glorot(rng, 2, 2).T, glorot(rng, 2, 2).T, glorot(rng, 2, 1)] for _ in range(2)]
    view = BlockParamsView(space, store)
    np.testing.assert_array_equal(view.attention("gat", 2)["Wa_dst"].data, [w[:2] for w in gat])
    np.testing.assert_array_equal(view.attention("gat", 2)["Wa_src"].data, [w[2:] for w in gat])
    for i, key in enumerate(("Wa1", "Wa2", "Wg")):
        np.testing.assert_array_equal(view.attention("gene_linear", 2)[key].data,
                                      [head[i] for head in gene])


def _rel_err(a, b):
    # the gradcheck convention: the linear kind's attention gradient is exactly zero
    return float((np.abs(a - b) / np.maximum(1.0, np.abs(b))).max())


@pytest.mark.parametrize("agg", AGGREGATORS)
@pytest.mark.parametrize("heads", HEAD_COUNTS)
@pytest.mark.parametrize("kind", ATTENTIONS)
def test_fused_heads_match_per_head_reference(kind, heads, agg):
    rng = np.random.default_rng(20)
    g, _ = generate_sbm(2, 5, 0.7, 0.3, 4, 0.5, seed=21)
    space = BlockSpace(layer=0, in_dim=4, out_dim=16, expansions=(2,),
                       attentions=(kind,), head_counts=(heads,),
                       aggregators=(agg,), activations=("elu",))
    store = ParameterStore()
    init_block_params(space, store, rng)
    view = BlockParamsView(space, store)
    choice = BlockChoice(2, kind, heads, agg, "elu")
    proj = Tensor(rng.standard_normal((g.num_nodes, 16)))

    def run(forward):
        store.zero_grad()
        x = Tensor(g.features, requires_grad=True)
        scales = {k: Tensor(rng.uniform(0.5, 1.5), requires_grad=True) for k in SUB_BLOCKS}
        out, extra = forward(x, scales)
        T.tsum(T.mul(out, proj)).backward()
        grads = {n: t.grad.copy() for n, t in store.items() if t.grad is not None}
        grads.update({f"scale/{k}": s.grad for k, s in scales.items()}, x=x.grad)
        return out.data, grads, extra

    rng_state = rng.bit_generator.state
    fused, fused_grads, _ = run(lambda x, s: (block_forward(g, x, choice, view, s), None))
    rng.bit_generator.state = rng_state      # the same scale values for the reference
    ref, ref_grads, heads_w = run(lambda x, s: _ref_block(g, x, choice, view, s))
    for key, stack in view.attention(kind, heads).items():
        name = next(n for n, t in store.items() if t is stack)
        ref_grads[name] = np.stack([w[key].grad for w in heads_w])

    assert _rel_err(fused, ref) < 1e-12
    assert fused_grads.keys() == ref_grads.keys()
    for name, grad in ref_grads.items():
        assert fused_grads[name].shape == grad.shape, name
        assert _rel_err(fused_grads[name], grad) < 1e-12, name


@pytest.mark.parametrize("agg", AGGREGATORS)
@pytest.mark.parametrize("kind", ATTENTIONS)
def test_block_gradients_finite_difference_four_heads(kind, agg):
    g = verify._test_graph()
    space = BlockSpace(layer=0, in_dim=3, out_dim=8, expansions=(1,),
                       attentions=(kind,), head_counts=(4,),
                       aggregators=(agg,), activations=("tanh",))
    store = ParameterStore()
    init_block_params(space, store, np.random.default_rng(22))
    view = BlockParamsView(space, store)
    choice = BlockChoice(1, kind, 4, agg, "tanh")
    proj = Tensor(np.random.default_rng(23).standard_normal((g.num_nodes, 8)))

    def build_loss():
        return T.tsum(T.mul(block_forward(g, Tensor(g.features), choice, view), proj))

    assert check_params(build_loss, store, store.names()) < verify.TOLERANCE


def _held_arrays(value, seen):
    """The arrays ``value`` keeps alive, each once: itself, a Tensor's data, the items of a
    list or tuple, and what a function's closure cells hold, nested closures included
    (a unary op's output sits in its derivative's closure)."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, Tensor):
        yield value.data
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _held_arrays(v, seen)
    elif callable(value):
        for cell in getattr(value, "__closure__", None) or ():
            try:
                contents = cell.cell_contents
            except ValueError:          # a variable the op never bound
                continue
            yield from _held_arrays(contents, seen)


def _tape_arrays(root):
    """Every array the tape under ``root`` keeps: the arrays its backward closures saved.

    A tape node holds no value, so the closures' cells are all it keeps."""
    nodes, held, stack = set(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes.add(id(node))
        yield from _held_arrays(node._backward, held)
        stack.extend(node._parents)


@pytest.mark.parametrize("kind", ["tanh", "sigmoid", "relu", "leaky_relu", "relu6", "elu",
                                  "softplus"])
def test_tape_arrays_find_a_unary_ops_saved_edge_by_width_array(kind):
    """The walk sees an array a unary op saved inside its derivative's closure: here the
    only E x D array on the tape, as gathering rows saves none."""
    g, _ = generate_sbm(2, 10, 0.6, 0.2, 4, 0.5, seed=24)
    x = Tensor(np.random.default_rng(26).standard_normal((g.num_nodes, 16)), requires_grad=True)
    rows = T.gather_rows(x, g.arcs, "src")
    assert rows.shape not in [a.shape for a in _tape_arrays(rows)]
    out = T.activation_apply(kind, rows)
    assert rows.shape in [a.shape for a in _tape_arrays(out)]


_GATHERS_ROWS = pytest.mark.xfail(strict=True, reason="gene_linear gathers E x D rows before "
                                                      "its tanh (ROADMAP item 2)")


@pytest.mark.parametrize("kind, agg", [
    pytest.param(kind, agg, marks=_GATHERS_ROWS if kind == "gene_linear" else ())
    for kind in ATTENTIONS for agg in AGGREGATORS])
def test_block_tape_holds_no_edge_by_width_array(kind, agg):
    g, _ = generate_sbm(2, 10, 0.6, 0.2, 4, 0.5, seed=24)
    arcs, width = len(g.arcs.dst), 16
    assert arcs > g.num_nodes
    space = BlockSpace(layer=0, in_dim=4, out_dim=width, expansions=(1,),
                       attentions=(kind,), head_counts=(4,),
                       aggregators=(agg,), activations=("relu",))
    store = ParameterStore()
    init_block_params(space, store, np.random.default_rng(25))
    x = Tensor(g.features, requires_grad=True)
    out = block_forward(g, x, BlockChoice(1, kind, 4, agg, "relu"), BlockParamsView(space, store))
    sizes = [a.size for a in _tape_arrays(out)]
    assert sizes and max(sizes) < arcs * width


@pytest.mark.parametrize("in_dim", [16, 64], ids=["narrow", "wide"])
@pytest.mark.parametrize("kind, agg, act", [("const", "mean", "elu"), ("gcn", "sum", "relu")])
def test_block_forward_holds_no_local_past_its_last_reader(kind, agg, act, in_dim):
    """Above what a block holds when it returns, its forward peaks at two n x D arrays: the
    pre-activation sum's two operands and its result coexist while the sum is taken, and
    the end holds the activation's output. The locals die before the activation runs, and
    the activation builds its output without a second full-size array."""
    g, _ = generate_sbm(4, 500, 0.01, 0.001, 16, 0.5, seed=3)
    n, width = g.num_nodes, 64
    space = BlockSpace(layer=0, in_dim=in_dim, out_dim=width, expansions=(1,),
                       attentions=(kind,), head_counts=(1,), aggregators=(agg,),
                       activations=(act,))
    store = ParameterStore()
    init_block_params(space, store, np.random.default_rng(3))
    x = Tensor(np.random.default_rng(4).standard_normal((n, in_dim)), requires_grad=True)
    choice, view = BlockChoice(1, kind, 1, agg, act), BlockParamsView(space, store)
    block_forward(g, x, choice, view)                # builds the graph's cached layouts
    tracemalloc.start()
    try:
        out = block_forward(g, x, choice, view)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n, width)
    assert peak - held <= 2.25 * n * width * 8


# -- activations ------------------------------------------------------------------

def test_relu6_clamps():
    assert T.activation_apply("relu6", Tensor(7.0)).item() == 6.0


def test_elu_closed_forms():
    assert T.activation_apply("elu", Tensor(0.0)).item() == 0.0
    np.testing.assert_allclose(T.activation_apply("elu", Tensor(-np.log(2.0))).item(), -0.5)


def test_all_activations_against_closed_forms():
    x = 0.5
    expect = {
        "none": x,
        "sigmoid": 1.0 / (1.0 + np.exp(-x)),
        "tanh": np.tanh(x),
        "softplus": np.log1p(np.exp(x)),
        "relu": x,
        "leaky_relu": x,
        "relu6": x,
        "elu": x,
    }
    for kind, want in expect.items():
        np.testing.assert_allclose(T.activation_apply(kind, Tensor(x)).item(), want, atol=1e-15)
    # negative side of the kinked ones
    xn = -0.5
    np.testing.assert_allclose(T.activation_apply("leaky_relu", Tensor(xn)).item(), 0.01 * xn)
    np.testing.assert_allclose(T.activation_apply("elu", Tensor(xn)).item(), np.expm1(xn))
    assert T.activation_apply("relu", Tensor(xn)).item() == 0.0


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="unknown activation"):
        T.activation_apply("gelu", Tensor(1.0))


def test_block_space_head_divisibility():
    with pytest.raises(ValueError, match="divisible"):
        BlockSpace(layer=0, in_dim=3, out_dim=24)   # 24 % 16 != 0
