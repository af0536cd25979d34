import numpy as np
import pytest

from gnasforge import tensor as T
from gnasforge.tensor import Tensor, ParameterStore, glorot
from gnasforge import verify
from gnasforge.blocks import (
    BlockSpace, BlockChoice, BlockParamsView,
    block_forward, init_block_params, select_operator,
    attention_coefficients, transform_forward, _segment_softmax,
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
    store[f"layer{L}/transform/x1/W2"].data = np.eye(space.out_dim, space.in_dim)


# -- transform ----------------------------------------------------------------

def test_transform_identity_weights_pass_nonnegative_input():
    w1 = Tensor(np.eye(3))
    w2 = Tensor(np.eye(3))
    x = np.abs(np.random.default_rng(0).standard_normal((4, 3)))
    out = transform_forward(Tensor(x), w1, w2)
    np.testing.assert_allclose(out.data, x)


def test_transform_zero_input_gives_zero():
    w1 = Tensor(np.random.default_rng(1).standard_normal((6, 3)))
    w2 = Tensor(np.random.default_rng(2).standard_normal((4, 6)))
    out = transform_forward(Tensor(np.zeros((5, 3))), w1, w2)
    np.testing.assert_array_equal(out.data, 0.0)


def test_transform_matches_hand_arithmetic():
    w1 = np.array([[1.0, -2.0], [0.5, 3.0]])
    w2 = np.array([[2.0, 1.0], [-1.0, 0.0]])
    x = np.array([[1.0, 1.0], [2.0, -1.0]])
    expect = np.maximum(x @ w1.T, 0.0) @ w2.T
    out = transform_forward(Tensor(x), Tensor(w1), Tensor(w2))
    np.testing.assert_allclose(out.data, expect)


# -- attention ----------------------------------------------------------------

def test_const_attention_is_one_per_edge():
    g = tiny_graph(3, [[0, 1], [1, 2]], [[1.0], [2.0], [3.0]])
    coeff = attention_coefficients("const", Tensor(g.features), g, {})
    np.testing.assert_array_equal(coeff.data, 1.0)


def test_gcn_attention_inverse_sqrt_degrees():
    # 3-clique + one extra neighbor on node 0: after self-loops d = [4, 3, 3, 2]
    g = tiny_graph(4, [[0, 1], [1, 2], [0, 2], [0, 3]],
                   [[0.0]] * 4)
    np.testing.assert_array_equal(g.degrees, [4, 3, 3, 2])
    coeff = attention_coefficients("gcn", Tensor(g.features), g, {}).data.reshape(-1)
    for k, (i, j) in enumerate(zip(g.edge_dst, g.edge_src)):
        np.testing.assert_allclose(coeff[k], 1.0 / np.sqrt(g.degrees[i] * g.degrees[j]))


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
    for k, (i, j) in enumerate(zip(g.edge_dst, g.edge_src)):
        raw[k] = leaky(np.concatenate([feats_np[i], feats_np[j]]) @ wa_np.reshape(-1))
    expect = np.empty(len(raw))
    for i in range(3):
        ks = [k for k in raw if g.edge_dst[k] == i]
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
        assert coeff.shape == (len(g.edge_dst), heads)
        sums = np.zeros((g.num_nodes, heads))
        np.add.at(sums, g.edge_dst, coeff)      # every head column sums to 1 per neighborhood
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_segment_softmax_rejects_unsorted_ids():
    with pytest.raises(ValueError, match="_segment_softmax.*sorted"):
        _segment_softmax(Tensor(np.zeros((3, 1))), np.array([1, 0, 1]), 2)


@pytest.mark.parametrize("ids", [[0, 2], [-1, 0], [-5, 0]])
def test_segment_softmax_out_of_range_ids(ids):
    with pytest.raises(IndexError, match="_segment_softmax"):
        _segment_softmax(Tensor(np.zeros((2, 1))), np.array(ids), 2)


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
                    for d in range(g.num_nodes) for s in g.neighbors(d) if s != d})
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


# -- fused heads vs a per-head reference ---------------------------------------------

def _cols(t, lo, hi):
    """Columns [lo, hi) of ``t`` through a constant 0/1 selector: exact and differentiable."""
    sel = np.zeros((t.shape[1], hi - lo))
    sel[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
    return T.matmul(t, Tensor(sel))


def _ref_softmax(raw, dst, n):
    m = np.full(n, -np.inf)
    np.maximum.at(m, dst, raw.data[:, 0])
    e = T.exp(raw - Tensor(m[dst][:, None]))
    return T.div(e, T.gather_rows(T.segment_sum(e, dst, n), dst))


def _ref_head_coeff(kind, f, g, w):
    """One head's E x 1 coefficients, scored on edge rows as a^T [Wh_i || Wh_j]."""
    dst, src, n = g.edge_dst, g.edge_src, g.num_nodes
    if kind == "const":
        return Tensor(np.ones((len(dst), 1)))
    if kind == "gcn":
        return Tensor((1.0 / np.sqrt(g.degrees[dst] * g.degrees[src]))[:, None])
    h_dst, h_src = T.gather_rows(f, dst), T.gather_rows(f, src)

    def gat(a, b):
        return T.leaky_relu(T.matmul(a, w["Wa_dst"]) + T.matmul(b, w["Wa_src"]), 0.2)

    if kind == "gat":
        raw = gat(h_dst, h_src)
    elif kind == "sym_gat":
        raw = gat(h_dst, h_src) + gat(h_src, h_dst)
    elif kind == "linear":
        scores = T.gather_rows(T.matmul(f, w["Wa"]), src)
        raw = T.gather_rows(T.tanh(T.segment_sum(scores, dst, n)), dst)
    else:
        left = T.matmul(h_dst, T.transpose(w["Wa1"]))
        right = T.matmul(h_src, T.transpose(w["Wa2"]))
        if kind == "cos":
            raw = T.matmul(T.mul(left, right), Tensor(np.ones((f.shape[1], 1))))
        else:
            raw = T.matmul(T.tanh(left + right), w["Wg"])
    return _ref_softmax(raw, dst, n)


def _ref_segment_mean(values, segments, num_segments):
    """The engine's former segment_mean tape op: per-segment mean, zero when empty."""
    segments = T._check_segments("segment_mean", values, segments, num_segments)
    safe = np.maximum(np.bincount(segments, minlength=num_segments), 1.0)
    y = T._scatter_add(values.data, segments, num_segments) / safe[:, None]
    out = Tensor(y, _parents=(values,))
    out._backward = lambda g: T._accum(values, (g / safe[:, None])[segments])
    return out


def _ref_segment_max(values, segments, num_segments):
    """The engine's former segment_max tape op: per-segment max over rows, zero when
    empty; backward routes each column's gradient to the first row reaching the max."""
    segments = T._check_segments("segment_max", values, segments, num_segments)
    ids, starts = T._segment_starts("segment_max", segments)
    v = values.data
    y = np.zeros((num_segments, v.shape[1]))
    y[ids] = np.maximum.reduceat(v, starts, axis=0)
    row = np.arange(len(v))[:, None]
    first = np.minimum.reduceat(np.where(v == y[segments], row, len(v)), starts, axis=0)
    seg_rank, cols = np.nonzero(first < len(v))
    rows, seg_of = first[seg_rank, cols], ids[seg_rank]
    out = Tensor(y, _parents=(values,))

    def bw(g):
        acc = np.zeros_like(v)
        acc[rows, cols] += g[seg_of, cols]
        T._accum(values, acc)

    out._backward = bw
    return out


_REF_AGG = {"sum": T.segment_sum, "mean": _ref_segment_mean, "max": _ref_segment_max}


def _ref_block(g, x, choice, view, scales):
    """Per-head loop: each head slices its columns and its block of every stack."""
    def sc(kind, t):
        return T.mul(t, scales[kind])

    out_dim, H = view.space.out_dim, choice.heads
    hd = out_dim // H
    t_all = sc("expansion", transform_forward(x, *view.transform(choice.expansion)))
    stacks = view.attention(choice.attention, H)
    heads = [{k: Tensor(v.data[h].copy(), requires_grad=True) for k, v in stacks.items()}
             for h in range(H)]
    e = None
    for h in range(H):
        f = _cols(t_all, h * hd, (h + 1) * hd)
        coeff = sc("attention", _ref_head_coeff(choice.attention, f, g, heads[h]))
        msgs = T.mul(T.gather_rows(f, g.edge_src), coeff)
        agg = sc("aggregate", _REF_AGG[choice.aggregate](msgs, g.edge_dst, g.num_nodes))
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
    gene = [[glorot(rng, 2, 2), glorot(rng, 2, 2), glorot(rng, 2, 1)] for _ in range(2)]
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
        ref_grads[stack.name] = np.stack([w[key].grad for w in heads_w])

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


def _held_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _held_arrays(v)


def _tape_arrays(root):
    """Every array the tape under ``root`` keeps: node values and backward closures' arrays."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node.data
        for cell in getattr(node._backward, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:          # a variable the op never bound
                continue
            yield from _held_arrays(value)
        stack.extend(node._parents)


@pytest.mark.parametrize("kind, agg", [("gcn", "sum"), ("gat", "max")])
def test_block_tape_holds_no_edge_by_width_array(kind, agg):
    g, _ = generate_sbm(2, 10, 0.6, 0.2, 4, 0.5, seed=24)
    arcs, width = len(g.edge_dst), 16
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


# -- selection and activations -----------------------------------------------------

def test_select_operator_argmax():
    s = select_operator([0.1, 0.7, 0.2])
    assert (s.index, s.value) == (1, 0.7)


def test_select_operator_tie_breaks_low():
    assert select_operator([0.5, 0.5]).index == 0


def test_select_operator_degenerate_one_hot():
    s = select_operator([0.0, 0.0, 1.0, 0.0])
    assert (s.index, s.value) == (2, 1.0)


def test_select_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        select_operator([])
    with pytest.raises(ValueError):
        select_operator([0.5, 0.9])


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
