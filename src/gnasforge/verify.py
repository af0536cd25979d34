"""Gradient verification: central finite differences, and the suite that checks
every primitive and candidate operator with them. Used by both the CLI
gradcheck command and the acceptance tests.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor, ParameterStore
from .blocks import (
    BlockSpace, BlockChoice, BlockParamsView, block_forward, init_block_params,
    ATTENTIONS, AGGREGATORS, ACTIVATION_KINDS, SUB_BLOCKS,
)
from .controller import Controller, add_noise, extract_indices
from .router import Router
from .graphs import generate_sbm

TOLERANCE = 1e-4
STEP = 1e-5     # the central difference's step


def finite_difference_check(f, x):
    """Max relative error between the analytic gradient of ``f`` at ``x`` and
    central finite differences.

    ``f`` maps a Tensor to a scalar Tensor; ``x`` is checked as the one
    parameter of ``check_params``.
    """
    store = ParameterStore()
    x = store.add("x", x)
    return check_params(lambda: f(x), store, ["x"])


def check_params(build_loss, store, names):
    """Finite-difference check of d(loss)/d(param) for named store parameters.

    ``build_loss`` takes no arguments and rebuilds the scalar loss from the
    current parameter values (so the whole tape is reconstructed per probe).
    Returns the max relative error across all coordinates of all params; the
    error per coordinate is |analytic - fd| / max(1, |analytic|). A
    non-finite loss, at the parameters or at a probe, raises ValueError.
    """
    store.zero_grad()
    loss = build_loss()
    if not np.isfinite(loss.data).all():
        raise ValueError("check_params: non-finite loss")
    loss.backward()
    worst = 0.0
    for name in names:
        p = store[name]
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            hi = build_loss().item()
            flat[i] = orig - STEP
            lo = build_loss().item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError(f"check_params: non-finite loss probing {name}[{i}]")
            fd = (hi - lo) / (2.0 * STEP)
            err = abs(aflat[i] - fd) / max(1.0, abs(aflat[i]))
            worst = max(worst, err)
    store.zero_grad()
    return worst


def _test_graph(seed=7):
    """Small seeded graph (6 nodes) for operator checks."""
    return generate_sbm(num_classes=2, nodes_per_class=3, p_in=0.9, p_out=0.3,
                        feature_dim=3, feature_noise=0.5, seed=seed)


def _rng(name):
    """The generator of check ``name``, seeded from the name: the inputs of a check do not
    depend on which checks run before it."""
    return np.random.default_rng(list(name.encode()))


def _normal(name, *shapes):
    """Standard normal arrays of ``shapes``, drawn in turn from check ``name``'s generator."""
    rng = _rng(name)
    return [rng.standard_normal(s) for s in shapes]


def primitive_checks():
    """FD-check each forward primitive on random inputs."""
    out = {}

    def chk(name, f, x):
        out[name] = finite_difference_check(f, x)

    x, w = _normal("matmul", (3, 4), (4, 3))
    chk("matmul", lambda t: T.tsum(T.matmul(t, Tensor(w))), x)
    x, c = _normal("add", (3, 4), (3, 4))
    chk("add", lambda t: T.tsum(T.mul(t + Tensor(c), Tensor(c))), x)
    x, c = _normal("mul", (3, 4), (3, 4))
    chk("mul", lambda t: T.tsum(T.mul(t, Tensor(c))), x)
    x, c = _normal("div", (3, 4), (3, 4))
    chk("div", lambda t: T.tsum(T.div(Tensor(c), t)), np.abs(x) + 0.5)
    x, c = _normal("softmax_rows", (3, 4), (3, 4))
    chk("softmax_rows", lambda t: T.tsum(T.mul(T.softmax_rows(t), Tensor(c))), x)
    for name, fn in (("tanh", T.tanh), ("sigmoid", T.sigmoid), ("relu", T.relu),
                     ("leaky_relu", lambda t: T.leaky_relu(t, 0.2)), ("relu6", T.relu6),
                     ("elu", T.elu), ("softplus", T.softplus)):
        chk(name, lambda t, fn=fn: T.tsum(fn(t)), *_normal(name, (3, 4)))
    picks = T.Arcs([2, 0, 0], [0, 1, 1], 2, 3)    # rows 2, 0 and 0 of a 3-row input
    x, c = _normal("gather_rows", (3, 4), (3, 4))
    chk("gather_rows", lambda t: T.tsum(T.mul(T.gather_rows(t, picks, "src"), Tensor(c))), x)
    # two heads over in-degrees 3, 1, 0 and 2: node 2 has no in-arcs
    soft = T.Arcs([0, 1, 2, 1, 0, 3], [0, 0, 0, 1, 3, 3], 4)
    x, c = _normal("edge_softmax", (6, 2), (6, 2))
    chk("edge_softmax", lambda t: T.tsum(T.mul(T.edge_softmax(t, soft), Tensor(c))), x)
    x, c = _normal("sum", (3, 4), (3, 4))
    chk("sum", lambda t: T.tsum(T.mul(t, Tensor(c))), x)
    x, c = _normal("pick", (3, 4), (3, 4))
    chk("pick", lambda t: T.pick(T.mul(t, Tensor(c)), 5), x)
    chk("softmax_cross_entropy",
        lambda t: T.softmax_cross_entropy(t, np.array([0, 2, 1]), np.array([True, True, False])),
        *_normal("softmax_cross_entropy", (3, 4)))
    x, c = _normal("sigmoid_bce", (3, 4), (3, 4))
    chk("sigmoid_bce",
        lambda t: T.sigmoid_bce(t, (c > 0).astype(float), np.array([True, False, True])), x)
    a, x, w = _normal("matmul_weight", (3, 3), (3, 3), (3, 5))
    chk("matmul_weight", lambda t: T.tsum(T.matmul(T.matmul(Tensor(a), t), Tensor(w))), x)
    x, c = _normal("block_diag", (2, 3, 4), (6, 8))
    chk("block_diag", lambda t: T.tsum(T.mul(T.block_diag(t), Tensor(c))), x)
    # message passing into 4 nodes, node 1 with no in-arcs: a constant E x 1
    # coefficient checks the x gradient, a learned E x 2 one its own gradient
    arcs = T.Arcs([2, 0, 1, 1, 0], [0, 0, 2, 2, 3], 4, 3)
    for agg in AGGREGATORS:
        x, coef, c = _normal(f"propagate_{agg}", (3, 4), (5, 1), (4, 4))
        chk(f"propagate_{agg}", lambda t, agg=agg, coef=Tensor(np.abs(coef) + 0.5), c=Tensor(c):
            T.tsum(T.mul(T.propagate(t, coef, arcs, agg), c)), x)
        x, coef, c = _normal(f"propagate_{agg}_coeff", (3, 4), (5, 2), (4, 4))
        chk(f"propagate_{agg}_coeff", lambda t, agg=agg, x=Tensor(x), c=Tensor(c):
            T.tsum(T.mul(T.propagate(x, t, arcs, agg), c)), coef)
    # in-degrees 0, 1, 2 and 5, out-degrees 4, 2 and 2 with a learned E x 2
    # coefficient: the x gradient crosses diagonals whose prefixes shrink
    skew = T.Arcs([1, 0, 2, 0, 0, 1, 2, 0], [1, 2, 2, 3, 3, 3, 3, 3], 4, 3)
    for agg in ("sum", "mean"):
        x, coef, c = _normal(f"propagate_{agg}_skew", (3, 4), (8, 2), (4, 4))
        coef = Tensor(np.abs(coef) + 0.5, requires_grad=True)
        chk(f"propagate_{agg}_skew", lambda t, agg=agg, coef=coef, c=Tensor(c):
            T.tsum(T.mul(T.propagate(t, coef, skew, agg), c)), x)
    a, b, c = _normal("edge_dot_a", (4, 4), (3, 4), (5, 2))
    chk("edge_dot_a", lambda t: T.tsum(T.mul(T.edge_dot(t, Tensor(b), arcs, 2), Tensor(c))), a)
    a, b, c = _normal("edge_dot_b", (4, 4), (3, 4), (5, 2))
    chk("edge_dot_b", lambda t: T.tsum(T.mul(T.edge_dot(Tensor(a), t, arcs, 2), Tensor(c))), b)
    # a product scaled by a 0-d scalar, as the block and router scale theirs: every
    # operand checked
    for name, b_shape in (("mul_scalar", None), ("matmul_scaled", (4, 2))):
        rng, store = _rng(name), ParameterStore()
        a = store.add("a", rng.standard_normal((3, 4)))
        b = b_shape and store.add("b", rng.standard_normal(b_shape))
        p = store.add("p", rng.uniform(0.5, 1.5))
        c = Tensor(rng.standard_normal((3, 2) if b_shape else (3, 4)))
        out[name] = check_params(
            lambda a=a, b=b, p=p, c=c: T.tsum(T.mul(T.matmul(a, b, p) if b else T.mul(a, p), c)),
            store, store.names())
    return out


def operator_combos():
    """>= 50 (attention, aggregator, activation) candidate combinations."""
    combos = []
    for i, attn in enumerate(ATTENTIONS):
        for j, act in enumerate(ACTIVATION_KINDS):
            combos.append((attn, AGGREGATORS[(i + j) % len(AGGREGATORS)], act))
    return combos


def block_combo_checks():
    """FD-check block_forward over all its parameters per operator combination.

    The operator combos run at in 3, out 4, expansion 2: hidden rows (6) at
    least as wide as the output, so the block aggregates after W2. Then
    const / gcn with sum / mean run at in 3, out 8, expansion 1: hidden rows
    (3) narrower than the output, where these blocks aggregate before W2.
    The ``/scaled`` runs take the architecture step's path: those narrow
    blocks, a learned kind and max on the wide side, each scaled by its five
    sub-block probabilities, which are store leaves checked with the weights.
    """
    graph = _test_graph()
    narrow = [((attn, agg, "tanh"), 8, 1, "/narrow")
              for attn in ("const", "gcn") for agg in ("sum", "mean")]
    wide = [(("gat", "sum", "tanh"), 4, 2, ""), (("gcn", "max", "tanh"), 4, 2, "")]
    runs = [(combo, 4, 2, "") for combo in operator_combos()] + narrow
    runs += [(combo, out_dim, e, tag + "/scaled") for combo, out_dim, e, tag in narrow + wide]
    out = {}
    for (attn, agg, act), out_dim, e, tag in runs:
        name = f"block[{attn}/{agg}/{act}{tag}]"
        rng = _rng(name)
        space = BlockSpace(layer=0, in_dim=3, out_dim=out_dim, expansions=(e,),
                           attentions=(attn,), head_counts=(2,),
                           aggregators=(agg,), activations=(act,))
        store = ParameterStore()
        init_block_params(space, store, rng)
        view = BlockParamsView(space, store)
        choice = BlockChoice(e, attn, 2, agg, act)
        x = Tensor(graph.features)
        proj = Tensor(rng.standard_normal((graph.num_nodes, out_dim)))
        scales = ({k: store.add(f"p/{k}", rng.uniform(0.2, 1.0)) for k in SUB_BLOCKS}
                  if tag.endswith("/scaled") else None)

        def build_loss():
            return T.tsum(T.mul(block_forward(graph, x, choice, view, scales), proj))

        out[name] = check_params(build_loss, store, store.names())
    return out


def route_check():
    """FD-check routing gradients with frozen Gumbel draws, as the search routes."""
    rng = _rng("route")
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


def controller_check():
    """FD-check the controller path through the P^g[Index] scaling."""
    rng = _rng("controller")
    store = ParameterStore()
    ctrl = Controller(store, {(0, "attention"): 7, (0, "aggregate"): 3, (1, "heads"): 5},
                      rng, hidden=8)
    noise = ctrl.sample_noise(rng)
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
