import contextlib
import dataclasses
import json
import tracemalloc
import types

import numpy as np
import pytest

from gnasforge import search as search_mod
from gnasforge import tensor as T
from gnasforge.blocks import BlockChoice, _attention_param_names
from gnasforge.controller import Controller, add_noise
from gnasforge.graphs import generate_sbm, load_graph_json, random_split, save_graph_json, \
    graph_from_dict
from gnasforge.optim import Adam
from gnasforge.router import Router, sample_gumbel
from gnasforge.search import (
    Genotype, GenotypeNet, SearchConfig, SearchError, Supernet,
    compute_loss, dual_search, evaluate, grid_search_hidden, retrain_genotype,
)
from gnasforge.tensor import ParameterStore, Tensor, glorot


def binary_gates(router):
    """Constant 0/1 gates that keep exactly ``derive_binary_routing()``."""
    g = np.zeros((router.num_blocks, router.num_blocks))
    for (i, j) in router.derive_binary_routing():
        g[i, j] = 1.0
    return Tensor(g)


def tiny_config(**kw):
    base = dict(num_layers=2, hidden_grid=(16,), max_iter=3, train_step=2,
                expansions=(1,), attentions=("const", "gcn"), head_counts=(1,),
                aggregators=("sum",), activations=("relu", "tanh"), seed=0)
    base.update(kw)
    return SearchConfig(**base)


@pytest.fixture(scope="module")
def graph():
    g = generate_sbm(2, 15, 0.3, 0.05, 8, 0.6, seed=21)
    return random_split(g, seed=21)


# -- config and metrics --------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(num_layers=1)
    with pytest.raises(ValueError):
        tiny_config(num_layers=8)
    with pytest.raises(ValueError, match="head count 8"):
        tiny_config(hidden_grid=(20,), head_counts=(1, 8))
    with pytest.raises(ValueError):
        tiny_config(max_iter=0)


def test_a_hidden_size_need_only_divide_by_every_head_count():
    assert SearchConfig(hidden_grid=(24,), head_counts=(1, 2, 4, 8)).hidden_grid == (24,)
    with pytest.raises(ValueError, match="out_dim 24 not divisible by head count 16"):
        SearchConfig(hidden_grid=(24,))


def test_accuracy_metric():
    logits = np.array([[2.0, 1.0], [0.0, 1.0], [3.0, 0.0]])
    labels = [0, 1, 1]
    assert evaluate(logits, labels, [True] * 3, "single") == pytest.approx(2 / 3)
    assert evaluate(logits, labels, [True, True, False], "single") == 1.0


def test_micro_f1_metric():
    logits = np.array([[1.0, -1.0], [1.0, 1.0]])       # pred: [1,0], [1,1]
    labels = np.array([[1.0, 1.0], [0.0, 1.0]])        # tp=2, fp=1, fn=1
    f1 = evaluate(logits, labels, [True, True], "multi")
    assert f1 == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))


def test_micro_f1_vacuous_case():
    assert evaluate(np.array([[-1.0]]), np.array([[0.0]]), [True], "multi") == 1.0


def test_evaluate_empty_mask_rejected():
    with pytest.raises(ValueError):
        evaluate(np.zeros((2, 2)), [0, 1], [False, False], "single")


def test_compute_loss_dispatch():
    logits = Tensor(np.array([[2.0, 0.0]]), requires_grad=True)
    l1 = compute_loss(logits, [0], [True], "single")
    np.testing.assert_allclose(l1.item(), np.log(1 + np.exp(-2.0)), atol=1e-12)
    with pytest.raises(ValueError):
        compute_loss(logits, [0], [True], "ranking")


def multi_label_graph():
    """24 nodes on two 12-node rings; label 0 or 1 names the ring, label 2 marks even nodes."""
    rng = np.random.default_rng(5)
    n = 24
    node = np.arange(n)
    labels = np.stack([node < 12, node >= 12, node % 2 == 0], axis=1).astype(float)
    features = labels @ rng.standard_normal((3, 6)) + 0.3 * rng.standard_normal((n, 6))
    order = rng.permutation(n)
    return graph_from_dict({
        "num_nodes": n, "feature_dim": 6, "task": "multi", "num_classes": 3,
        "features": features.tolist(), "labels": labels.tolist(),
        "edges": [[i, (i + 1) % 12 + 12 * (i // 12)] for i in range(n)],
        "masks": {"train": order[:12].tolist(), "val": order[12:18].tolist(),
                  "test": order[18:].tolist()},
    })


def test_multi_label_search_and_retrain_run_in_process(tmp_path):
    graph = multi_label_graph()
    assert graph.spec.task == "multi" and graph.labels.shape == (24, 3)
    save_graph_json(graph, tmp_path / "ml.json")
    again = load_graph_json(tmp_path / "ml.json")
    assert again.spec == graph.spec
    for a, b in ((again.labels, graph.labels), (again.features, graph.features),
                 (again.arcs.src, graph.arcs.src), (again.arcs.dst, graph.arcs.dst)):
        np.testing.assert_array_equal(a, b)
    assert all((again.masks[k] == graph.masks[k]).all() for k in ("train", "val", "test"))

    logits = Tensor(np.random.default_rng(6).standard_normal((24, 3)))
    train = graph.masks["train"]
    assert compute_loss(logits, graph.labels, train, "multi").item() == \
        T.sigmoid_bce(logits, graph.labels, train).item()

    result = dual_search(tiny_config(max_iter=2), graph)
    assert len(result.log) == 2
    for rec in result.log:
        assert np.isfinite([rec["train_loss"], rec["val_loss"]]).all()
        assert 0.0 <= rec["val_metric"] <= 1.0
    _, report = retrain_genotype(result.genotype, graph, epochs=3)
    for key in ("train_metric", "val_metric", "test_metric"):
        assert 0.0 <= report[key] <= 1.0


# -- genotype ----------------------------------------------------------------------

def geno():
    return Genotype(
        layers=[BlockChoice(1, "gcn", 1, "sum", "relu"),
                BlockChoice(2, "gat", 2, "mean", "tanh")],
        routing=[(0, 1), (1, 1)], hidden_sizes=[16, 16], seed=3)


def test_genotype_roundtrip(tmp_path):
    g = geno()
    p = tmp_path / "geno.json"
    g.save(p)
    g2 = Genotype.load(p)
    assert g2 == g
    # byte-determinism of the serialized form
    g2.save(tmp_path / "again.json")
    assert p.read_bytes() == (tmp_path / "again.json").read_bytes()


def test_genotype_rejects_backward_routing():
    doc = geno().to_dict()
    doc["routing"] = [[1, 0]]
    with pytest.raises(ValueError, match="routing"):
        Genotype.from_dict(doc)


def test_genotype_rejects_out_of_range_routing():
    doc = geno().to_dict()
    doc["routing"] = [[0, 2]]
    with pytest.raises(ValueError, match="routing"):
        Genotype.from_dict(doc)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d["hidden_sizes"].append(16), "3 hidden sizes for 2 layers"),
    (lambda d: d["layers"][1].update(dropout=0.5), r"layer 1 has keys \[.*'dropout'.*\], not"),
    (lambda d: d["layers"][0].pop("heads"), r"layer 0 has keys \[[^]]*'expansion'\], not"),
    *[(lambda d, key=key: d.pop(key), rf"genotype lacks the key\(s\) \['{key}'\]")
      for key in ("layers", "routing", "hidden_sizes", "seed")],
], ids=["hidden_sizes", "unknown_key", "missing_key",
        "no_layers", "no_routing", "no_hidden_sizes", "no_seed"])
def test_genotype_rejects_malformed_layers(edit, match):
    doc = geno().to_dict()
    edit(doc)
    with pytest.raises(ValueError, match=match):
        Genotype.from_dict(doc)


@pytest.mark.parametrize("top, name", [(5, "int"), (None, "NoneType")], ids=["number", "null"])
def test_genotype_from_dict_rejects_a_document_that_is_not_an_object(top, name):
    with pytest.raises(ValueError, match=f"genotype must be a JSON object, got {name}"):
        Genotype.from_dict(top)


@pytest.mark.parametrize("over, match", [
    ({"aggregators": ("median",)}, r"unknown aggregators \['median'\]"),
    ({"attentions": ("gcn", "foo")}, r"unknown attentions \['foo'\]"),
    ({"activations": ("swish",)}, r"unknown activations \['swish'\]"),
    ({"expansions": (0,)}, r"expansions must be integers >= 1, got \[0\]"),
    ({"head_counts": (0,)}, r"head_counts must be integers >= 1, got \[0\]"),
    ({"hidden_grid": ()}, "empty hidden-size grid"),
    ({"hidden_grid": (16, -16)}, r"dimensions must be integers >= 1, got \[-16\]"),
    ({"schedule_kind": "linear"}, "unknown schedule kind 'linear'"),
], ids=["aggregator", "attention", "activation", "expansion", "heads", "no_hidden",
        "negative_hidden", "schedule"])
def test_search_config_rejects_bad_candidates(over, match):
    with pytest.raises(ValueError, match=match):
        tiny_config(**over)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d["layers"][1].update(aggregate="median"), r"unknown aggregators \['median'\]"),
    (lambda d: d["layers"][0].update(expansion=0), r"expansions must be integers >= 1"),
    (lambda d: d["layers"][0].update(heads=0), r"head_counts must be integers >= 1"),
    (lambda d: d.update(hidden_sizes=[16, -16]), r"dimensions must be integers >= 1, got \[-16\]"),
], ids=["aggregate", "expansion", "heads", "hidden_size"])
def test_genotype_net_rejects_bad_candidates(edit, match):
    doc = geno().to_dict()
    edit(doc)
    with pytest.raises(ValueError, match=match):
        GenotypeNet(Genotype.from_dict(doc), 8, 2)


# -- supernet / genotype-net equivalence -----------------------------------------

def test_single_path_matches_standalone_network(graph):
    cfg = tiny_config()
    net = Supernet(cfg, 8, 2, 16, seed=5)
    # force a known architecture and routing
    pbar = net.controller.forward()
    from gnasforge.controller import extract_indices
    indices = extract_indices(pbar)
    choices = net.choices_from_indices(indices)
    net.router.theta.data[0, 1] = 1.0
    genotype = net.derive_genotype()
    assert genotype.routing == [(0, 1)]
    assert genotype.layers == choices

    standalone = GenotypeNet(genotype, 8, 2, seed=99)
    for name in standalone.store.names():
        standalone.store[name].data = net.store[name].data.copy()
    a = net.forward(graph, choices, scales=None, gates=binary_gates(net.router)).data
    b = standalone.forward(graph, genotype.layers).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def _assert_store_holds(store, ref):
    assert store.names() == list(ref)
    for name, value in ref.items():
        np.testing.assert_array_equal(store[name].data, value, err_msg=name)


def test_supernet_draws_blocks_classifier_controller_router():
    net = Supernet(tiny_config(), 8, 2, 16, seed=5)
    rng = np.random.default_rng(5)
    ref = {}
    for layer, d_in in enumerate((8, 16)):
        ref[f"layer{layer}/transform/x1/W1"] = glorot(rng, d_in, d_in).T
        ref[f"layer{layer}/transform/x1/W2"] = glorot(rng, 16, d_in).T
    ref["classifier/W"] = glorot(rng, 2, 16).T
    ref["controller/z"] = 0.01 * rng.standard_normal((1, 256))
    ref["controller/mlp/W1"] = glorot(rng, 256, 256)
    ref["controller/mlp/W2"] = glorot(rng, 256, 256)
    sizes = {"activation": 2, "aggregate": 1, "attention": 2, "expansion": 1, "heads": 1}
    for layer in range(2):
        for kind, size in sizes.items():
            ref[f"controller/proj/layer{layer}/{kind}"] = glorot(rng, 256, size)
    ref["router/theta"] = np.zeros((2, 2))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        ref[f"router/shortcut/{i}_{j}/W"] = glorot(rng, 16, (8, 16)[i]).T
    _assert_store_holds(net.store, ref)


def test_genotype_net_draws_blocks_then_shortcuts_in_routing_order_then_classifier():
    genotype = Genotype(layers=[BlockChoice(1, "gcn", 1, "sum", "relu"),
                                BlockChoice(2, "const", 1, "mean", "tanh")],
                        routing=[(1, 1), (0, 1)], hidden_sizes=[16, 32], seed=0)
    net = GenotypeNet(genotype, 8, 2, seed=4)
    rng = np.random.default_rng(4)
    ref = {
        "layer0/transform/x1/W1": glorot(rng, 8, 8).T,
        "layer0/transform/x1/W2": glorot(rng, 16, 8).T,
        "layer1/transform/x2/W1": glorot(rng, 32, 16).T,
        "layer1/transform/x2/W2": glorot(rng, 32, 32).T,
        "router/shortcut/1_1/W": glorot(rng, 32, 16).T,
        "router/shortcut/0_1/W": glorot(rng, 32, 8).T,
        "classifier/W": glorot(rng, 2, 32).T,
    }
    _assert_store_holds(net.store, ref)
    assert net.router.theta is None


def _in_out_shapes(net, num_classes):
    """Every map's (in, out) shape, or (H, in, out) for an attention stack, by name."""
    want = {"classifier/W": (net.spaces[-1].out_dim, num_classes)}
    for s in net.spaces:
        for e in s.expansions:
            want[f"layer{s.layer}/transform/x{e}/W1"] = (s.in_dim, e * s.in_dim)
            want[f"layer{s.layer}/transform/x{e}/W2"] = (e * s.in_dim, s.out_dim)
        for kind in s.attentions:
            for H in s.head_counts:
                hd = s.out_dim // H
                for key, name in _attention_param_names(kind, s.layer, H).items():
                    want[name] = (H, hd, hd if key in ("Wa1", "Wa2") else 1)
    for (i, j) in net.router.pairs():
        want[f"router/shortcut/{i}_{j}/W"] = (net.spaces[i].in_dim, net.spaces[j].out_dim)
    controller = getattr(net, "controller", None)
    if controller is not None:
        want["controller/mlp/W1"] = want["controller/mlp/W2"] = (controller.hidden,) * 2
        for (layer, kind), size in controller.head_sizes.items():
            want[f"controller/proj/layer{layer}/{kind}"] = (controller.hidden, size)
    return want


def test_every_map_is_stored_in_out_and_c_ordered():
    config = tiny_config(expansions=(1, 2), attentions=("gat", "cos", "linear", "gene_linear"),
                         head_counts=(1, 2))
    supernet = Supernet(config, 8, 3, 16, seed=0)
    genotype = Genotype(layers=[BlockChoice(2, "cos", 2, "sum", "relu"),
                                BlockChoice(1, "gene_linear", 4, "max", "tanh")],
                        routing=[(0, 0), (0, 1), (1, 1)], hidden_sizes=[16, 32], seed=0)
    for net in (supernet, GenotypeNet(genotype, 8, 3)):
        want = _in_out_shapes(net, 3)
        assert {n: net.store[n].shape for n in want} == want
        # the rest are the controller's z and the router's theta, which map nothing
        assert set(net.store.names()) - set(want) <= {"controller/z", "router/theta"}
        for name, leaf in net.store.items():
            assert leaf.data.flags.c_contiguous, name
    # a transposed draw is F-ordered; the store keeps a C-ordered copy of it
    draw = glorot(np.random.default_rng(0), 3, 5).T
    leaf = ParameterStore().add("w", draw)
    assert leaf.data.flags.c_contiguous and not np.shares_memory(leaf.data, draw)
    np.testing.assert_array_equal(leaf.data, draw)


def test_dual_search_draws_one_uniform_per_candidate(graph, monkeypatch):
    """Each epoch's controller noise is rng.random(T) per sub-block, in key order."""
    seen = []

    def recording(pbar, tau, uniforms):
        seen.append(uniforms)
        return add_noise(pbar, tau, uniforms)

    monkeypatch.setattr(search_mod, "add_noise", recording)
    cfg = tiny_config(max_iter=1)
    dual_search(cfg, graph)
    rng = np.random.default_rng(cfg.seed + 0x5EED)
    sizes = {"activation": 2, "aggregate": 1, "attention": 2, "expansion": 1, "heads": 1}
    keys = [(layer, kind) for layer in range(2) for kind in sorted(sizes)]
    assert [list(u) for u in seen] == [keys]       # one draw serves both kinds of step
    for key in keys:
        want = rng.random(sizes[key[1]])
        for uniforms in seen:
            np.testing.assert_array_equal(uniforms[key], want, err_msg=str(key))


def test_sampled_forward_builds_one_gate_sigmoid(graph, monkeypatch):
    """A 7-layer supernet has 28 gated shortcuts; their gates are one sigmoid node."""
    made = []

    def recording(a):
        out = sigmoid(a)
        made.append(out)
        return out

    sigmoid = T.sigmoid
    monkeypatch.setattr(T, "sigmoid", recording)
    net = Supernet(tiny_config(num_layers=7), 8, 2, 16, seed=3)
    assert len(net.router.pairs()) == 28
    choices = [BlockChoice(1, "gcn", 1, "sum", "relu")] * 7
    gates = net.router.gates(0.7, net.router.sample_noise(np.random.default_rng(4)))
    logits = net.forward(graph, choices, gates=gates)
    tape, stack = set(), [logits]
    while stack:
        node = stack.pop()
        if id(node) not in tape:
            tape.add(id(node))
            stack.extend(node._parents)
    # the gates clip that one node's value into a node of their own
    assert len(gates._parents) == 1
    assert [out._node for out in made if id(out._node) in tape] == list(gates._parents)
    T.tsum(logits).backward()
    g = net.router.theta.grad
    assert np.all(g[np.triu_indices(7)] != 0.0) and np.all(g[np.tril_indices(7, -1)] == 0.0)


def test_dual_search_draws_gate_noise_per_sampled_forward(graph, monkeypatch):
    """Each epoch draws controller uniforms, then Gumbel noise for each of its
    train_step + 1 sampled forwards, from one stream; the eval forward draws none."""
    seen = []

    def recording(self, rng):
        seen.append(sample_noise(self, rng))
        return seen[-1]

    sample_noise = Router.sample_noise
    monkeypatch.setattr(Router, "sample_noise", recording)
    cfg = tiny_config(max_iter=2, train_step=3)
    dual_search(cfg, graph)
    assert len(seen) == cfg.max_iter * (cfg.train_step + 1)
    rng = np.random.default_rng(cfg.seed + 0x5EED)
    sizes = {"activation": 2, "aggregate": 1, "attention": 2, "expansion": 1, "heads": 1}
    want = []
    for _ in range(cfg.max_iter):
        for _layer in range(2):
            for kind in sorted(sizes):
                rng.random(sizes[kind])
        want += [sample_gumbel(rng, (2, 2)) for _ in range(cfg.train_step + 1)]
    for got, ref in zip(seen, want):
        np.testing.assert_array_equal(got, ref)


def test_dual_search_draws_controller_noise_through_the_controller(graph, monkeypatch):
    """Each epoch draws its exploration uniforms by one ``Controller.sample_noise`` call,
    before the epoch's Gumbel draws, from the same stream."""
    seen = []

    def recording(self, rng):
        seen.append(sample_noise(self, rng))
        return seen[-1]

    sample_noise = Controller.sample_noise
    monkeypatch.setattr(Controller, "sample_noise", recording)
    cfg = tiny_config(max_iter=2, train_step=3)
    dual_search(cfg, graph)
    assert len(seen) == cfg.max_iter
    rng = np.random.default_rng(cfg.seed + 0x5EED)
    sizes = {"activation": 2, "aggregate": 1, "attention": 2, "expansion": 1, "heads": 1}
    for got in seen:
        want = {(layer, kind): rng.random(sizes[kind])
                for layer in range(2) for kind in sorted(sizes)}
        assert list(got) == list(want)
        for key, ref in want.items():
            np.testing.assert_array_equal(got[key], ref)
        for _ in range(cfg.train_step + 1):
            sample_gumbel(rng, (2, 2))


def test_non_finite_losses_raise_at_their_epoch(graph):
    features = graph.features.copy()
    features[0, 0] = np.nan
    bad = dataclasses.replace(graph, features=features)
    with pytest.raises(SearchError, match="^non-finite training loss at epoch 0$"):
        dual_search(tiny_config(), bad)
    genotype = Genotype(layers=[BlockChoice(1, "gcn", 1, "sum", "relu")] * 2,
                        routing=[(0, 1)], hidden_sizes=[16, 16], seed=0)
    with pytest.raises(SearchError, match="^non-finite retraining loss at epoch 0$"):
        retrain_genotype(genotype, bad, epochs=3)


def test_supernet_forward_shapes(graph):
    cfg = tiny_config(router_enabled=False)
    net = Supernet(cfg, 8, 2, 16, seed=6)
    choices = [BlockChoice(1, "const", 1, "sum", "relu")] * 2
    logits = net.forward(graph, choices)
    assert logits.data.shape == (graph.num_nodes, 2)


def test_freeze_layers_excluded_from_w_names():
    net = Supernet(tiny_config(), 8, 2, 16, seed=7)
    names = net.w_param_names(freeze_layers=(0,))
    assert not any(n.startswith("layer0/") for n in names)
    assert any(n.startswith("layer1/") for n in names)
    assert "classifier/W" in names


# -- dual search --------------------------------------------------------------------

def test_dual_search_counters_and_log(graph):
    cfg = tiny_config(max_iter=4, train_step=3)
    res = dual_search(cfg, graph)
    assert res.counters == {"w_updates": 12, "a_micro_updates": 4, "a_macro_updates": 4}
    assert len(res.log) == 4
    rec = res.log[0]
    assert {"epoch", "tau", "train_loss", "val_loss", "val_metric",
            "indices", "gates"} <= set(rec)
    assert rec["tau"] == 1.0
    assert isinstance(res.genotype, Genotype)


@pytest.mark.parametrize("over, hand", [
    ({"schedule_kind": "exp", "e_start": 2}, np.exp(-1.0 / 6.0)),
    ({"schedule_kind": "cosine_exp", "e_cos": 1, "e_exp": 4}, np.cos(np.pi / 3.0)),
], ids=["exp", "cosine_exp"])
def test_dual_search_logs_the_annealed_tau(graph, over, hand):
    cfg = tiny_config(max_iter=6, train_step=1, hidden_grid=(8,), **over)
    taus = [rec["tau"] for rec in dual_search(cfg, graph).log]
    assert taus == [search_mod.temp_anneal(e, cfg) for e in range(6)]
    np.testing.assert_allclose(taus[3], hand, rtol=1e-15)     # tau at epoch 3, by hand
    assert min(taus) < 1.0


def test_dual_search_router_disabled(graph):
    res = dual_search(tiny_config(router_enabled=False), graph)
    assert res.counters["a_macro_updates"] == 0
    assert res.genotype.routing == []
    assert "gates" not in res.log[0]


def test_dual_search_deterministic(graph):
    cfg = tiny_config(max_iter=2)
    a = dual_search(cfg, graph)
    b = dual_search(cfg, graph)
    assert json.dumps(a.log, sort_keys=True) == json.dumps(b.log, sort_keys=True)
    assert a.genotype.to_dict() == b.genotype.to_dict()


def test_dual_search_seed_changes_trajectory(graph):
    cfg = tiny_config(max_iter=2)
    a = dual_search(cfg, graph, seed=0)
    b = dual_search(cfg, graph, seed=1)
    assert json.dumps(a.log) != json.dumps(b.log)


def test_dual_search_requires_masks():
    g = generate_sbm(2, 5, 0.5, 0.1, 4, 0.5, seed=2)
    with pytest.raises(SearchError, match="masks"):
        dual_search(tiny_config(), g)


def test_architecture_step_leaves_weights_alone(graph):
    cfg = tiny_config(max_iter=1, train_step=1)
    res = dual_search(cfg, graph)
    store = res.supernet.store
    # a-step gradients must not leak into w parameters within the epoch:
    # check groups are disjoint and a params moved
    z = store["controller/z"]
    assert "controller/z" in store.names("a_micro")
    assert np.abs(z.data).max() < 1.0         # still near its tiny init, but updated
    assert "router/theta" in store.names("a_macro")
    # the architecture step's backward, the last one of the search, reached
    # the architecture leaves and no weight
    assert [n for n in store.names("w") if store[n].grad is not None] == []
    assert store["router/theta"].grad is not None and z.grad is not None
    assert all(t.requires_grad for _, t in store.items())


def _architecture_step_tapes(graph, cfg, monkeypatch, measure):
    """``measure(logits)`` for the logits of each architecture step of ``dual_search``, taken
    before its backward releases the tape."""
    seen = []

    def spy(logits, labels, mask, task):
        if mask is graph.masks["val"]:
            seen.append(measure(logits))
        return compute_loss(logits, labels, mask, task)

    monkeypatch.setattr(search_mod, "compute_loss", spy)
    dual_search(cfg, graph)
    return seen


def test_architecture_step_tape_keeps_no_product_per_gate_or_probability(graph, monkeypatch):
    """A 7-layer search's architecture step. Per layer the tape holds at most three n x D
    arrays, the hidden rows, the aggregate and the activation's output, and the router adds
    one per block input it reads, not one per gated shortcut (28)."""
    from test_blocks import _tape_arrays
    layers, width = 7, 16

    def count(logits):
        return sum(a.shape == (graph.num_nodes, width) for a in _tape_arrays(logits._node))

    counts = {}
    for macro in (False, True):
        cfg = tiny_config(num_layers=layers, hidden_grid=(width,), max_iter=1, train_step=1,
                          attentions=("gcn",), activations=("relu",), router_enabled=macro)
        (counts[macro],) = _architecture_step_tapes(graph, cfg, monkeypatch, count)
    assert counts[False] <= 3 * layers
    assert counts[True] - counts[False] <= layers - 1


def test_architecture_step_forward_memory_is_bounded_per_layer(monkeypatch):
    """tracemalloc around the architecture step's forward of a 7-layer search on a
    2,000-node graph: what it still holds when it returns, its tape, stays within 6.5
    n x D arrays per layer (6.0 measured; 12.3 while each probability and gate kept its
    product)."""
    g = generate_sbm(4, 500, 0.01, 0.001, 16, 0.5, seed=3)
    g = random_split(g, seed=3)
    layers, width = 7, 64
    cfg = SearchConfig(num_layers=layers, hidden_grid=(width,), max_iter=1, train_step=1,
                       attentions=("const", "gcn"), head_counts=(1,),
                       aggregators=("sum", "mean"), seed=0)
    held = []
    forward = Supernet.forward

    def traced(self, graph, choices, scales=None, gates=None):
        if scales is None:
            return forward(self, graph, choices, scales, gates)
        tracemalloc.start()
        try:
            out = forward(self, graph, choices, scales, gates)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(Supernet, "forward", traced)
    dual_search(cfg, g)
    assert len(held) == 1
    assert held[0] <= 6.5 * layers * g.num_nodes * width * 8


def test_eval_forward_keeps_no_tape(graph, monkeypatch):
    evaluated = []

    def spy(logits, *args):
        evaluated.append(logits)
        return evaluate(logits, *args)

    monkeypatch.setattr(search_mod, "evaluate", spy)
    dual_search(tiny_config(max_iter=2), graph)
    assert len(evaluated) == 2
    for logits in evaluated:
        assert not logits.requires_grad
        assert logits._parents == () and logits._backward is None


def _dual_search_config(**kw):
    # live architecture steps, a frozen layer, and max and learned attention
    return tiny_config(max_iter=4, train_step=2, lr_a=0.05, e_start=1, num_layers=3,
                       attentions=("gcn", "gat", "cos"), head_counts=(1, 2),
                       aggregators=("sum", "max"), freeze_layers=(1,), **kw)


def test_weight_steps_give_frozen_layers_and_theta_no_gradient(graph, monkeypatch):
    stepped = []
    real_step = Adam.step

    def spy(self, grads):
        theta = self.store["router/theta"]
        stepped.append((self.names, sorted(grads), theta.grad is None))
        return real_step(self, grads)

    monkeypatch.setattr(Adam, "step", spy)
    dual_search(_dual_search_config(), graph)
    w_steps = [(got, no_theta) for names, got, no_theta in stepped if "classifier/W" in names]
    assert len(w_steps) == 8
    for got, no_theta in w_steps:
        assert "classifier/W" in got and no_theta
        assert not any(n.startswith("layer1/") for n in got)


@pytest.mark.parametrize("router_enabled", [True, False])
def test_dual_search_matches_a_search_without_frozen_leaves(graph, monkeypatch,
                                                            router_enabled):
    """Reference: the same search with every leaf requiring a gradient throughout."""
    cfg = _dual_search_config(router_enabled=router_enabled)
    res = dual_search(cfg, graph)
    monkeypatch.setattr(ParameterStore, "training",
                        lambda self, names=(): contextlib.nullcontext())
    ref = dual_search(cfg, graph)
    assert json.dumps(res.log, sort_keys=True) == json.dumps(ref.log, sort_keys=True)
    assert res.genotype.to_dict() == ref.genotype.to_dict()
    assert res.counters == ref.counters
    for name, t in ref.supernet.store.items():
        np.testing.assert_array_equal(res.supernet.store[name].data, t.data, err_msg=name)


def test_write_log_is_jsonl(graph, tmp_path):
    res = dual_search(tiny_config(max_iter=2), graph)
    p = tmp_path / "log.jsonl"
    res.write_log(p)
    lines = p.read_text().strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[0])["epoch"] == 0


# -- retraining and grid -----------------------------------------------------------

def test_retrain_learns_easy_sbm(graph):
    genotype = Genotype(
        layers=[BlockChoice(1, "gcn", 1, "sum", "relu"),
                BlockChoice(1, "gcn", 1, "sum", "none")],
        routing=[], hidden_sizes=[16, 16], seed=0)
    net, report = retrain_genotype(genotype, graph, epochs=120, seed=0)
    assert report["val_metric"] >= 0.8
    assert set(report) == {"train_metric", "val_metric", "test_metric", "best_epoch"}
    assert 0 <= report["best_epoch"] < 120


def test_retrain_early_stops(graph):
    genotype = Genotype(layers=[BlockChoice(1, "const", 1, "sum", "relu")] * 2,
                        routing=[], hidden_sizes=[16, 16], seed=0)
    _, report = retrain_genotype(genotype, graph, epochs=5000, seed=0, patience=5)
    assert report["best_epoch"] < 4999


def _early_stopping_genotype():
    # on the fixture graph, val peaks at epoch 6 and the loop stops at epoch 12
    return Genotype(layers=[BlockChoice(1, "cos", 2, "max", "elu"),
                            BlockChoice(2, "gcn", 1, "mean", "none")],
                    routing=[(0, 1)], hidden_sizes=[16, 16], seed=0)


def _two_forward_retrain(genotype, graph, epochs, seed, patience, lr=0.005,
                         weight_decay=5e-4):
    """Reference loop: a training and a validation forward per epoch, and one
    more forward on the restored best weights. Returns the epochs it ran too."""
    task = graph.spec.task
    net = GenotypeNet(genotype, graph.spec.feature_dim, graph.spec.num_classes, seed=seed)
    opt = Adam(net.store, net.w_param_names(), lr, weight_decay)
    best = {"val": -1.0, "epoch": -1, "weights": None}
    since_best = 0
    for epoch in range(epochs):
        net.store.zero_grad()
        logits = net.forward(graph, genotype.layers)
        loss = compute_loss(logits, graph.labels, graph.masks["train"], task)
        loss.backward()
        opt.step(net.store.grads("w"))
        logits = net.forward(graph, genotype.layers)
        val = evaluate(logits, graph.labels, graph.masks["val"], task)
        if val > best["val"]:
            best = {"val": val, "epoch": epoch,
                    "weights": {n: t.data.copy() for n, t in net.store.items()}}
            since_best = 0
        else:
            since_best += 1
            if since_best > patience:
                break
    for n, w in best["weights"].items():
        net.store[n].data = w
    logits = net.forward(graph, genotype.layers)
    report = {
        "train_metric": evaluate(logits, graph.labels, graph.masks["train"], task),
        "val_metric": best["val"],
        "test_metric": evaluate(logits, graph.labels, graph.masks["test"], task),
        "best_epoch": best["epoch"],
    }
    return net, report, epoch + 1


@pytest.mark.parametrize("epochs", [3, 60])
def test_retrain_matches_two_forward_loop(graph, epochs):
    genotype = _early_stopping_genotype()
    ref_net, ref_report, ran = _two_forward_retrain(genotype, graph, epochs, seed=0, patience=5)
    net, report = retrain_genotype(genotype, graph, epochs=epochs, seed=0, patience=5)
    if epochs == 60:
        assert ran == ref_report["best_epoch"] + 5 + 2 < epochs   # early-stopped
    assert report == ref_report
    assert net.store.names() == ref_net.store.names()
    for name, t in net.store.items():
        np.testing.assert_array_equal(t.data, ref_net.store[name].data, err_msg=name)


def test_retrain_freezes_the_frozen_layers(graph, monkeypatch):
    """The frozen layer gets no gradient, and the results match a retrain without
    frozen leaves, whose Adam skips that layer's gradients instead."""
    genotype = _early_stopping_genotype()
    net, report = retrain_genotype(genotype, graph, epochs=20, seed=0, freeze_layers=(1,))
    frozen = [n for n in net.store.names() if n.startswith("layer1/")]
    assert frozen and all(net.store[n].grad is None for n in frozen)
    assert net.store["classifier/W"].grad is not None
    assert all(t.requires_grad for _, t in net.store.items())
    monkeypatch.setattr(ParameterStore, "training",
                        lambda self, names=(): contextlib.nullcontext())
    ref_net, ref_report = retrain_genotype(genotype, graph, epochs=20, seed=0,
                                           freeze_layers=(1,))
    assert all(ref_net.store[n].grad is not None for n in frozen)
    assert report == ref_report
    for name, t in ref_net.store.items():
        np.testing.assert_array_equal(net.store[name].data, t.data, err_msg=name)


@pytest.mark.parametrize("epochs", [1, 60])
def test_retrain_runs_one_forward_per_epoch(graph, epochs, monkeypatch):
    """Order of calls: epoch 0 alone runs a training forward; nothing runs after the loop."""
    events = []

    def logged(name, fn):
        def wrapper(*a, **k):
            events.append(name)
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(GenotypeNet, "forward", logged("forward", GenotypeNet.forward))
    monkeypatch.setattr(ParameterStore, "zero_grad",
                        logged("zero_grad", ParameterStore.zero_grad))
    monkeypatch.setattr(search_mod, "evaluate", logged("evaluate", search_mod.evaluate))
    _, report = retrain_genotype(_early_stopping_genotype(), graph, epochs=epochs,
                                 seed=0, patience=5)
    ran = events.count("zero_grad")
    assert ran == (epochs if epochs == 1 else report["best_epoch"] + 5 + 2)
    assert events.count("forward") == ran + 1
    expected = ["zero_grad", "forward", "forward", "evaluate"]
    expected += ["zero_grad", "forward", "evaluate"] * (ran - 1)
    assert events == expected + ["evaluate", "evaluate"]   # final train and test metrics


@pytest.mark.parametrize("epochs", [0, -1])
def test_retrain_rejects_fewer_than_one_epoch(graph, epochs):
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        retrain_genotype(_early_stopping_genotype(), graph, epochs=epochs)


def test_grid_search_picks_best_val(graph):
    cfg = tiny_config(hidden_grid=(16, 32), max_iter=2)
    best = grid_search_hidden(cfg, graph)
    runs = [dual_search(cfg, graph, h, cfg.seed + k) for k, h in enumerate(cfg.hidden_grid)]
    top = max(r.final_val_metric for r in runs)
    want = next(r for r in runs if r.final_val_metric == top)   # the grid is ascending
    assert best.supernet.hidden == want.supernet.hidden
    assert best.genotype.hidden_sizes == [best.supernet.hidden] * 2
    assert best.genotype.to_dict() == want.genotype.to_dict()
    assert best.log == want.log and best.counters == want.counters
    for name, t in want.supernet.store.items():
        np.testing.assert_array_equal(best.supernet.store[name].data, t.data, err_msg=name)


@pytest.mark.parametrize("metrics, winner", [
    ((0.5, 0.5, 0.5), 16),
    ((0.75, 0.5, 0.75), 32),
    ((0.5, 0.25, 0.75), 48),
], ids=["all_tied", "tie_of_two", "largest_size_best"])
def test_grid_search_breaks_ties_toward_the_smaller_hidden_size(graph, monkeypatch,
                                                               metrics, winner):
    cfg = tiny_config(hidden_grid=(32, 16, 48), seed=7)
    calls = []

    def fake(config, graph, hidden, seed):
        calls.append((hidden, seed))
        metric = metrics[cfg.hidden_grid.index(hidden)]
        return search_mod.SearchResult(genotype=None, log=[{"val_metric": metric}],
                                       supernet=types.SimpleNamespace(hidden=hidden))

    monkeypatch.setattr(search_mod, "dual_search", fake)
    assert grid_search_hidden(cfg, graph).supernet.hidden == winner
    assert calls == [(32, 7), (16, 8), (48, 9)]
