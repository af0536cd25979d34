"""Acceptance suite: one criterion per test, one PASS/FAIL line printed each.

These tests pin the package's headline guarantees: gradient correctness of
every operator path, exact probability/temperature semantics, optimizer
correctness, supernet/standalone equivalence, and three end-to-end searches
(exhaustive-oracle agreement, synthetic accuracy, macro-shortcut recovery)
plus bit-determinism of the CLI artifacts.
"""

import itertools
import json
import os
import sys
import time

import numpy as np
import pytest

from gnasforge import verify
from gnasforge.blocks import BlockChoice
from gnasforge.cli import main
from gnasforge.controller import Controller, add_noise
from gnasforge.graphs import (
    generate_chain_task, generate_sbm, load_graph_json, random_split,
)
from gnasforge.optim import Adam
from gnasforge.router import Router, sample_gumbel, gumbel_sigmoid
from gnasforge.search import (
    Genotype, GenotypeNet, SearchConfig, Supernet, dual_search, retrain_genotype, temp_anneal,
)
from gnasforge.tensor import ParameterStore, Tensor


_writer = [lambda line: print(line, file=sys.__stdout__, flush=True)]


@pytest.fixture(autouse=True)
def _terminal_writer(request):
    # write criterion lines through the terminal reporter so they show up
    # even under pytest's output capture
    tr = request.config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None:
        _writer[0] = lambda line: tr.write_line("\n" + line)
    yield


def _report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
    _writer[0](line)
    assert ok, line


# -- 1. gradient suite ---------------------------------------------------------

def test_gradient_suite():
    t0 = time.monotonic()
    results = verify.run_all("all")
    elapsed = time.monotonic() - t0
    worst = max(results.values())
    n_combos = sum(1 for name in results if name.startswith("block["))
    ok = worst < 1e-4 and elapsed < 60.0 and n_combos >= 50
    _report("gradient suite (finite differences, all operator paths)", ok,
            f"{len(results)} checks, {n_combos} block combos, "
            f"worst {worst:.2e}, {elapsed:.1f}s")


# -- 2. probability / schedule suite ---------------------------------------------

def test_probability_and_schedule_suite():
    rng = np.random.default_rng(0)
    store = ParameterStore()
    ctrl = Controller(store, {(l, k): n for l in range(2)
                              for k, n in (("attention", 7), ("heads", 5))},
                      rng, hidden=32)
    sum_err = 0.0
    for tau in (0.0, 0.05, 0.5, 1.0):
        pbar = ctrl.forward()
        pg = add_noise(pbar, tau, {key: rng.random(p.data.shape)
                                   for key, p in sorted(pbar.items())})
        for d in (pbar, pg):
            for p in d.values():
                sum_err = max(sum_err, abs(p.data.sum() - 1.0))
    ok = sum_err <= 1e-9

    # sampled/deterministic gates stay strictly inside (0, 1)
    gate_ok = True
    for _ in range(500):
        tau = float(rng.uniform(1e-3, 1.0))
        v = gumbel_sigmoid(Tensor(rng.standard_normal() * 3), tau, sample_gumbel(rng)).item()
        gate_ok &= 0.0 < v < 1.0

    # lower-triangle connections contribute exactly nothing
    router = Router(ParameterStore(), [4, 4], [4, 4], np.random.default_rng(1))
    router.theta.data[:] = 5.0
    inputs = [Tensor(rng.standard_normal((3, 4))) for _ in range(2)]
    outputs = [Tensor(rng.standard_normal((3, 4))) for _ in range(2)]

    def routed():
        gates = router.gates(0.5)
        return [router.route_step(j, inputs, o, gates).data for j, o in enumerate(outputs)]

    base = routed()
    router.theta.data[1, 0] = 100.0
    again = routed()
    tri_ok = all(np.array_equal(a, b) for a, b in zip(base, again)) and \
        all(i <= j for (i, j) in router.derive_binary_routing())

    # temperature schedule hand values at {0, e_s-1, e_s, e_m-1}
    s = SearchConfig(alpha=1.0, e_start=80, max_iter=400)
    sched_err = max(
        abs(temp_anneal(0, s) - 1.0),
        abs(temp_anneal(79, s) - 1.0),
        abs(temp_anneal(80, s) - 1.0),
        abs(temp_anneal(399, s) - np.exp(-319.0 / 400.0)),
    )
    sched_ok = sched_err <= 1e-12

    # noise hand example: p=[.5,.5], tau=1, u=[.2,.6] -> [.7,1.1]/1.8
    pg = add_noise({"k": Tensor(np.array([[0.5, 0.5]]))}, 1.0,
                   {"k": np.array([0.2, 0.6])})["k"].data
    noise_err = np.abs(pg - np.array([[0.7, 1.1]]) / 1.8).max()
    noise_ok = noise_err <= 1e-12

    _report("probability/schedule suite", ok and gate_ok and tri_ok and sched_ok and noise_ok,
            f"sum err {sum_err:.1e}, sched err {sched_err:.1e}, noise err {noise_err:.1e}")


# -- 3. optimizer oracle ------------------------------------------------------------

def test_adam_three_step_trace():
    # independent straight-line trace, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p, m, v = 2.0, 0.0, 0.0
    grads = [1.5, -0.5, 0.25]
    trace = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        trace.append(p)

    store = ParameterStore()
    store.add("p", np.array(2.0))
    opt = Adam(store, ["p"], lr=lr, weight_decay=0.0)
    err = 0.0
    for g, want in zip(grads, trace):
        opt.step({"p": np.array(g)})
        err = max(err, abs(float(store["p"].data) - want))
    _report("optimizer three-step hand trace", err <= 1e-12, f"max err {err:.1e}")


# -- 4. single-path equivalence ------------------------------------------------------

def test_single_path_equivalence():
    g = generate_sbm(2, 10, 0.4, 0.05, 8, 0.5, seed=13)
    g = random_split(g, seed=13)
    cfg = SearchConfig(num_layers=2, hidden_grid=(16,), max_iter=1,
                       expansions=(1, 2, 4), head_counts=(1, 2, 4), seed=0)
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(5):
        net = Supernet(cfg, 8, 2, 16, seed=trial)
        choices = [
            BlockChoice(expansion=int(rng.choice(s.expansions)),
                        attention=str(rng.choice(s.attentions)),
                        heads=int(rng.choice(s.head_counts)),
                        aggregate=str(rng.choice(s.aggregators)),
                        activation=str(rng.choice(s.activations)))
            for s in net.spaces
        ]
        net.router.theta.data[:] = rng.standard_normal((2, 2))
        genotype = Genotype(layers=choices, routing=net.router.derive_binary_routing(),
                            hidden_sizes=[16, 16], seed=trial)
        standalone = GenotypeNet(genotype, 8, 2, seed=1000 + trial)
        for name in standalone.store.names():
            standalone.store[name].data = net.store[name].data.copy()
        gates = np.zeros((2, 2))   # constant 0/1 gates: on exactly for the derived routing
        for (i, j) in net.router.derive_binary_routing():
            gates[i, j] = 1.0
        a = net.forward(g, choices, scales=None, gates=Tensor(gates)).data
        b = standalone.forward(g, genotype.layers).data
        worst = max(worst, float(np.abs(a - b).max()))
    _report("single-path supernet vs standalone equivalence (5 selections)",
            worst <= 1e-12, f"max abs diff {worst:.1e}")


# -- 5. exhaustive-oracle search agreement -----------------------------------------

def test_exhaustive_oracle_agreement():
    t0 = time.monotonic()
    g = generate_sbm(4, 50, 0.3, 0.02, 16, 0.5, seed=17)
    g = random_split(g, seed=17)
    retrain = dict(epochs=100, patience=25)
    combos = list(itertools.product(["const", "gcn"], ["relu", "tanh"]))
    wins, rows = 0, []
    for seed in range(5):
        best_val = -1.0
        for c0 in combos:
            for c1 in combos:
                geno = Genotype(layers=[BlockChoice(1, c0[0], 1, "sum", c0[1]),
                                        BlockChoice(1, c1[0], 1, "sum", c1[1])],
                                routing=[], hidden_sizes=[32, 32], seed=seed)
                _, rep = retrain_genotype(geno, g, seed=seed, **retrain)
                best_val = max(best_val, rep["val_metric"])
        cfg = SearchConfig(num_layers=2, hidden_grid=(32,), max_iter=60, train_step=5,
                           e_start=20, router_enabled=False,
                           expansions=(1,), attentions=("const", "gcn"),
                           head_counts=(1,), aggregators=("sum",),
                           activations=("relu", "tanh"), seed=seed)
        res = dual_search(cfg, g, seed=seed)
        _, rep = retrain_genotype(res.genotype, g, seed=seed, **retrain)
        wins += rep["val_metric"] >= best_val - 0.02
        rows.append(f"s{seed}:{rep['val_metric']:.3f}/{best_val:.3f}")
    elapsed = time.monotonic() - t0
    _report("exhaustive-oracle agreement (16 genotypes x 5 seeds)",
            wins >= 4 and elapsed < 600.0,
            f"{wins}/5 within 2.0 pts ({', '.join(rows)}), {elapsed:.0f}s")


# -- 6. synthetic end-to-end ----------------------------------------------------------

def test_synthetic_end_to_end():
    t0 = time.monotonic()
    g = generate_sbm(4, 50, 0.3, 0.02, 16, 0.5, seed=29)
    g = random_split(g, seed=29)
    cfg = SearchConfig(num_layers=3, hidden_grid=(64,), max_iter=100, train_step=5,
                       e_start=30, seed=0)
    res = dual_search(cfg, g)
    _, rep = retrain_genotype(res.genotype, g, epochs=200, seed=0, patience=50)
    elapsed = time.monotonic() - t0
    _report("synthetic end-to-end (full space, 3 layers, hidden 64)",
            rep["test_metric"] >= 0.90 and elapsed < 600.0,
            f"test acc {rep['test_metric']:.3f}, {elapsed:.0f}s")


# -- 7. macro-routing probe ---------------------------------------------------------

def test_macro_routing_probe():
    t0 = time.monotonic()
    g = generate_chain_task(200, seed=41)
    g = random_split(g, seed=41)

    def run(seed, router_enabled):
        cfg = SearchConfig(num_layers=3, hidden_grid=(32,), max_iter=60, train_step=5,
                           e_start=20, lr_a=0.05, router_enabled=router_enabled,
                           expansions=(1,), attentions=("const",), head_counts=(1,),
                           aggregators=("sum",), activations=("relu",),
                           freeze_layers=(1,), seed=seed)
        res = dual_search(cfg, g, seed=seed)
        gates = res.supernet.router.gate_expectations() if router_enabled else {}
        _, rep = retrain_genotype(res.genotype, g, seed=seed, epochs=150,
                                  patience=40, freeze_layers=(1,))
        return gates, rep["test_metric"]

    on, off, gates_ok = [], [], True
    for seed in (0, 1, 2):
        gates, acc = run(seed, True)
        gates_ok &= any(v > 0.5 for (i, j), v in gates.items() if j == 2)
        on.append(acc)
        off.append(run(seed, False)[1])
    mean_on, mean_off = float(np.mean(on)), float(np.mean(off))
    elapsed = time.monotonic() - t0
    _report("macro-routing probe (frozen middle block, 3 seeds)",
            gates_ok and mean_on >= 0.95 and mean_on > mean_off and elapsed < 600.0,
            f"routed {mean_on:.3f} vs control {mean_off:.3f}, {elapsed:.0f}s")


# -- 8. CLI determinism ----------------------------------------------------------------

def test_cli_determinism(tmp_path):
    data = tmp_path / "sbm.json"
    assert main(["gen-data", "--kind", "sbm", "--out", str(data), "--seed", "3",
                 "--split", "--classes", "2", "--per-class", "15",
                 "--feature-dim", "8", "--noise", "0.6"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": str(data), "num_layers": 2, "hidden_grid": [16],
        "max_iter": 5, "train_step": 2, "expansions": [1],
        "attentions": ["const", "gcn"], "head_counts": [1],
        "aggregators": ["sum"], "activations": ["relu", "tanh"], "seed": 0,
    }))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    same = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
               for n in ("genotype.json", "metrics.jsonl"))
    _report("CLI determinism (byte-identical artifacts)", same)


# -- 9. optional real-dataset stretch ---------------------------------------------------

CORA_PATH = os.environ.get("GNASFORGE_CORA",
                           os.path.join(os.path.dirname(__file__), "data", "cora.json"))


@pytest.mark.skipif(not os.path.exists(CORA_PATH),
                    reason="no citation-network JSON supplied")
def test_citation_network_stretch():
    t0 = time.monotonic()
    g = load_graph_json(CORA_PATH)
    if not g.masks:
        g = random_split(g, seed=0)
    cfg = SearchConfig(num_layers=2, hidden_grid=(64,), max_iter=80, train_step=5,
                       e_start=25, seed=0)
    res = dual_search(cfg, g)
    _, rep = retrain_genotype(res.genotype, g, epochs=200, seed=0, patience=50)
    elapsed = time.monotonic() - t0
    _report("citation-network stretch", rep["test_metric"] >= 0.70 and elapsed < 1800.0,
            f"test acc {rep['test_metric']:.3f}, {elapsed:.0f}s")
