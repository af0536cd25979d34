import numpy as np
import pytest

from gnasforge import tensor as T
from gnasforge.tensor import Tensor, ParameterStore
from gnasforge.blocks import (
    BlockSpace, BlockChoice, BlockParamsView,
    block_forward, init_block_params, select_operator,
    attention_coefficients, transform_forward, _segment_softmax,
)
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
    coeff = attention_coefficients("gat", Tensor(feats_np), g, {"Wa": Tensor(wa_np)})

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
    space = BlockSpace(layer=0, in_dim=4, out_dim=4, head_counts=(1,),
                       attentions=(kind,), expansions=(1,))
    store = ParameterStore()
    init_block_params(space, store, rng)
    view = BlockParamsView(space, store)
    coeff = attention_coefficients(kind, Tensor(rng.standard_normal((8, 4))), g,
                                   view.attention(kind, 1, 0)).data.reshape(-1)
    sums = np.zeros(g.num_nodes)
    np.add.at(sums, g.edge_dst, coeff)
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
