"""Gradient verification suite: every primitive and candidate operator vs
central finite differences. Used by both the CLI gradcheck command and the
acceptance tests.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor, ParameterStore
from .gradcheck import finite_difference_check, check_params
from .blocks import (
    BlockSpace, BlockChoice, BlockParamsView, block_forward, init_block_params,
    ATTENTIONS, AGGREGATORS, ACTIVATION_KINDS,
)
from .controller import Controller, add_noise, extract_indices
from .router import Router
from .graphs import generate_sbm

TOLERANCE = 1e-4


def _test_graph(seed=7):
    """Small seeded graph (6 nodes) for operator checks."""
    graph, _ = generate_sbm(num_classes=2, nodes_per_class=3, p_in=0.9, p_out=0.3,
                            feature_dim=3, feature_noise=0.5, seed=seed)
    return graph


def primitive_checks(seed=0):
    """FD-check each forward primitive on random inputs."""
    rng = np.random.default_rng(seed)
    x34 = rng.standard_normal((3, 4))
    x33 = rng.standard_normal((3, 3))
    pos = rng.random((3, 4)) + 0.5
    out = {}

    def chk(name, f, x):
        out[name] = finite_difference_check(f, x)

    w = Tensor(rng.standard_normal((4, 3)))
    chk("matmul", lambda t: T.tsum(T.matmul(t, w)), x34)
    c = Tensor(rng.standard_normal((3, 4)))
    chk("add", lambda t: T.tsum(T.mul(t + c, c)), x34)
    chk("mul", lambda t: T.tsum(T.mul(t, c)), x34)
    chk("div", lambda t: T.tsum(T.div(c, t)), pos)
    for shape in ((3, 8), (5, 4), (1, 4)):   # draws of removed checks: later inputs stay put
        rng.standard_normal(shape)
    chk("softmax_rows", lambda t: T.tsum(T.mul(T.softmax_rows(t), c)), x34)
    chk("tanh", lambda t: T.tsum(T.tanh(t)), x34)
    chk("sigmoid", lambda t: T.tsum(T.sigmoid(t)), x34)
    chk("relu", lambda t: T.tsum(T.relu(t)), x34)
    chk("leaky_relu", lambda t: T.tsum(T.leaky_relu(t, 0.2)), x34)
    chk("relu6", lambda t: T.tsum(T.relu6(t)), x34)
    chk("elu", lambda t: T.tsum(T.elu(t)), x34)
    chk("softplus", lambda t: T.tsum(T.softplus(t)), x34)
    picks = T.Arcs([2, 0, 0], [0, 1, 1], 2, 3)    # rows 2, 0 and 0 of a 3-row input
    chk("gather_rows", lambda t: T.tsum(T.mul(T.gather_rows(t, picks, "src"), c)), x34)
    rng.standard_normal((2, 4))              # a removed check's draw: later inputs stay put
    # two heads over in-degrees 3, 1, 0 and 2: node 2 has no in-arcs
    soft = T.Arcs([0, 1, 2, 1, 0, 3], [0, 0, 0, 1, 3, 3], 4)
    c62 = Tensor(c.data.reshape(6, 2))
    chk("edge_softmax", lambda t: T.tsum(T.mul(T.edge_softmax(t, soft), c62)), x34.reshape(6, 2))
    chk("sum", lambda t: T.tsum(T.mul(t, c)), x34)
    chk("pick", lambda t: T.pick(T.mul(t, c), 5), x34)
    chk("softmax_cross_entropy",
        lambda t: T.softmax_cross_entropy(t, np.array([0, 2, 1]), np.array([True, True, False])), x34)
    bce_targets = (rng.random((3, 4)) > 0.5).astype(float)
    chk("sigmoid_bce",
        lambda t: T.sigmoid_bce(t, bce_targets, np.array([True, False, True])), x34)
    w35 = Tensor(rng.standard_normal((3, 5)))
    chk("matmul_weight", lambda t: T.tsum(T.matmul(T.matmul(Tensor(x34[:, :3]), t), w35)), x33)
    c68 = Tensor(rng.standard_normal((6, 8)))
    chk("block_diag", lambda t: T.tsum(T.mul(T.block_diag(t), c68)),
        rng.standard_normal((2, 3, 4)))
    # message passing into 4 nodes, node 1 with no in-arcs: a constant E x 1
    # coefficient checks the x gradient, a learned E x 2 one its own gradient
    arcs = T.Arcs([2, 0, 1, 1, 0], [0, 0, 2, 2, 3], 4, 3)
    c51 = Tensor(rng.uniform(0.5, 1.5, (5, 1)))
    c44 = Tensor(rng.standard_normal((4, 4)))
    for agg in AGGREGATORS:
        chk(f"propagate_{agg}",
            lambda t, agg=agg: T.tsum(T.mul(T.propagate(t, c51, arcs, agg), c44)), x34)
        chk(f"propagate_{agg}_coeff",
            lambda t, agg=agg: T.tsum(T.mul(T.propagate(Tensor(x34), t, arcs, agg), c44)),
            rng.standard_normal((5, 2)))
    # in-degrees 0, 1, 2 and 5, out-degrees 4, 2 and 2 with a learned E x 2
    # coefficient: the x gradient crosses diagonals whose prefixes shrink
    skew = T.Arcs([1, 0, 2, 0, 0, 1, 2, 0], [1, 2, 2, 3, 3, 3, 3, 3], 4, 3)
    c82 = Tensor(rng.uniform(0.5, 1.5, (8, 2)), requires_grad=True)
    for agg in ("sum", "mean"):
        chk(f"propagate_{agg}_skew",
            lambda t, agg=agg: T.tsum(T.mul(T.propagate(t, c82, skew, agg), c44)), x34)
    a44, c52 = Tensor(rng.standard_normal((4, 4))), Tensor(rng.standard_normal((5, 2)))
    b34 = Tensor(x34)
    chk("edge_dot_a", lambda t: T.tsum(T.mul(T.edge_dot(t, b34, arcs, 2), c52)), a44.data)
    chk("edge_dot_b", lambda t: T.tsum(T.mul(T.edge_dot(a44, t, arcs, 2), c52)), x34)
    return out


def operator_combos():
    """>= 50 (attention, aggregator, activation) candidate combinations."""
    combos = []
    for i, attn in enumerate(ATTENTIONS):
        for j, act in enumerate(ACTIVATION_KINDS):
            combos.append((attn, AGGREGATORS[(i + j) % len(AGGREGATORS)], act))
    return combos


def block_combo_checks(seed=1):
    """FD-check block_forward over all its parameters per operator combination.

    The operator combos run at in 3, out 4, expansion 2: hidden rows (6) at
    least as wide as the output, so the block aggregates after W2. Then
    const / gcn with sum / mean run at in 3, out 8, expansion 1: hidden rows
    (3) narrower than the output, where these blocks aggregate before W2.
    """
    graph = _test_graph()
    rng = np.random.default_rng(seed)
    proj = {d: Tensor(rng.standard_normal((graph.num_nodes, d))) for d in (4, 8)}
    runs = [(combo, 4, 2, "") for combo in operator_combos()]
    runs += [((attn, agg, "tanh"), 8, 1, "/narrow")
             for attn in ("const", "gcn") for agg in ("sum", "mean")]
    out = {}
    for (attn, agg, act), out_dim, e, tag in runs:
        space = BlockSpace(layer=0, in_dim=3, out_dim=out_dim, expansions=(e,),
                           attentions=(attn,), head_counts=(2,),
                           aggregators=(agg,), activations=(act,))
        store = ParameterStore()
        init_block_params(space, store, np.random.default_rng(seed))
        view = BlockParamsView(space, store)
        choice = BlockChoice(e, attn, 2, agg, act)
        x = Tensor(graph.features)

        def build_loss():
            return T.tsum(T.mul(block_forward(graph, x, choice, view), proj[out_dim]))

        out[f"block[{attn}/{agg}/{act}{tag}]"] = check_params(build_loss, store, store.names())
    return out


def route_check(seed=2):
    """FD-check routing gradients with frozen Gumbel draws, as the search routes."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    router = Router(store, input_dims=[3, 4, 4], output_dims=[4, 4, 4], rng=rng)
    store["router/theta"].data = rng.standard_normal((3, 3)) * 0.5
    noise = router.sample_noise(rng)
    inputs = [Tensor(rng.standard_normal((5, d))) for d in (3, 4, 4)]
    outputs = [Tensor(rng.standard_normal((5, 4))) for _ in range(3)]
    proj = [Tensor(rng.standard_normal((5, 4))) for _ in range(3)]

    def build_loss():
        gates = router.gates(0.7, noise)
        total = None
        for j, (o, p) in enumerate(zip(outputs, proj)):
            term = T.tsum(T.mul(router.route_step(j, inputs, o, gates), p))
            total = term if total is None else total + term
        return total

    return {"route": check_params(build_loss, store, store.names())}


def controller_check(seed=3):
    """FD-check the controller path through the P^g[Index] scaling."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    ctrl = Controller(store, {(0, "attention"): 7, (0, "aggregate"): 3, (1, "heads"): 5},
                      np.random.default_rng(seed), hidden=8)
    noise = {key: rng.random(size) for key, size in
             sorted({(0, "attention"): 7, (0, "aggregate"): 3, (1, "heads"): 5}.items())}
    weights = {key: 1.0 + rng.random() for key in noise}

    def build_loss():
        pg = add_noise(ctrl.forward(), 0.4, noise)
        idx = extract_indices(pg)
        total = None
        for key in sorted(pg):
            term = T.mul(T.pick(pg[key], idx[key]), Tensor(weights[key]))
            total = term if total is None else total + term
        return total

    return {"controller": check_params(build_loss, store, store.names())}


def run_all(which="all"):
    """Run the requested check group(s); returns {name: max relative error}."""
    groups = {
        "primitives": primitive_checks,
        "blocks": block_combo_checks,
        "route": route_check,
        "controller": controller_check,
    }
    if which == "all":
        results = {}
        for fn in groups.values():
            results.update(fn())
        return results
    if which in groups:
        return groups[which]()
    # single named primitive
    prim = primitive_checks()
    if which in prim:
        return {which: prim[which]}
    raise ValueError(f"unknown gradcheck target {which!r}")
