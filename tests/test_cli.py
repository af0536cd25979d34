import ctypes
import json
import os
import pathlib
import subprocess
import sys
import types
from dataclasses import fields

import numpy as np
import pytest

from gnasforge.blocks import BlockChoice
from gnasforge import cli
from gnasforge.cli import main, load_run_config, ConfigError
from gnasforge.search import Genotype, GenotypeNet, SearchConfig, evaluate
from gnasforge.tensor import ParameterStore
from gnasforge.graphs import load_graph_json, random_split


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sbm.json"
    rc = main(["gen-data", "--kind", "sbm", "--out", str(path), "--seed", "3",
               "--split", "--classes", "2", "--per-class", "15",
               "--p-in", "0.3", "--p-out", "0.05", "--feature-dim", "8",
               "--noise", "0.6"])
    assert rc == 0
    return path


def write_config(path, dataset, **overrides):
    doc = {
        "dataset": str(dataset),
        "num_layers": 2,
        "hidden_grid": [16],
        "max_iter": 3,
        "train_step": 2,
        "expansions": [1],
        "attentions": ["const", "gcn"],
        "head_counts": [1],
        "aggregators": ["sum"],
        "activations": ["relu", "tanh"],
        "seed": 0,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


# -- config loading -----------------------------------------------------------

def test_unknown_config_key_rejected(tmp_path, dataset):
    cfg = write_config(tmp_path / "c.json", dataset, learning_rate=0.1)
    with pytest.raises(ConfigError, match="learning_rate"):
        load_run_config(cfg)


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "nope.json")


def test_invalid_json_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_run_config(p)


def test_run_config_lists_become_tuples(tmp_path, dataset):
    config, path = load_run_config(write_config(tmp_path / "c.json", dataset, freeze_layers=[1]))
    assert path == str(dataset)
    assert (config.hidden_grid, config.expansions, config.head_counts, config.freeze_layers) \
        == ((16,), (1,), (1,), (1,))
    assert (config.attentions, config.aggregators, config.activations) \
        == (("const", "gcn"), ("sum",), ("relu", "tanh"))


def test_readme_run_config_lists_every_key_with_its_default():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = readme.split("A run config is a JSON object", 1)[1]
    doc = json.loads(block.split("```json\n", 1)[1].split("```", 1)[0])
    assert set(doc) == {f.name for f in fields(SearchConfig)} | {"dataset"}
    doc.pop("dataset")
    assert SearchConfig(**doc) == SearchConfig()


def test_bad_config_value_is_config_error(tmp_path, dataset):
    cfg = write_config(tmp_path / "c.json", dataset, num_layers=1)
    with pytest.raises(ConfigError):
        load_run_config(cfg)


# -- exit codes ----------------------------------------------------------------

def test_search_missing_dataset_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": str(tmp_path / "missing.json")}))
    rc = main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["retrain_epochs", "patience", "split", "split_seed", "out_dir"])
def test_search_config_with_retrain_settings_exits_2(tmp_path, dataset, capsys, key):
    """Search configs hold no retrain settings, so naming one is an error, not a no-op.

    Nor do they hold a split, which the dataset's masks, or else the seed-0
    split every command applies, set, or an output directory, which ``--out``
    names.
    """
    cfg = write_config(tmp_path / "c.json", dataset, **{key: 10})
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


def test_search_config_without_dataset_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"max_iter": 3}))
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config must name a 'dataset' path" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, True, 3.5, ["a.json"]],
                         ids=["int", "bool", "float", "list"])
def test_search_config_with_a_non_string_dataset_exits_2(tmp_path, monkeypatch, capsys, value):
    """The dataset is rejected by its type before anything is opened: 0 would read
    standard input and true file descriptor 1."""
    loads = []
    monkeypatch.setattr(cli, "_load_dataset", loads.append)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": value}))
    capsys.readouterr()
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: dataset must be a path string, got {value!r}\n"
    assert loads == [] and not (tmp_path / "out").exists()


def test_search_missing_out_dir_exits_2(tmp_path, dataset, monkeypatch, capsys):
    """The missing --out is reported before the dataset is parsed."""
    loads = []

    def failing_load(path):
        loads.append(path)
        raise RuntimeError("the dataset was loaded")

    monkeypatch.setattr(cli, "_load_dataset", failing_load)
    cfg = write_config(tmp_path / "c.json", dataset)
    assert main(["search", "--config", str(cfg)]) == 2
    assert "no output directory" in capsys.readouterr().err
    assert loads == []


def test_malformed_dataset_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_nodes": 2}))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": str(bad)}))
    rc = main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_every_command_splits_a_maskless_dataset_with_seed_0(tmp_path, monkeypatch):
    data = tmp_path / "sbm.json"
    assert main(["gen-data", "--kind", "sbm", "--out", str(data), "--classes", "2",
                 "--per-class", "10", "--feature-dim", "8"]) == 0
    assert not load_graph_json(data).masks
    splits = []

    def recording(graph, seed):
        splits.append(random_split(graph, seed=seed))
        return splits[-1]

    monkeypatch.setattr(cli, "random_split", recording)
    out, rt = tmp_path / "run", tmp_path / "rt"
    assert main(["search", "--config", str(write_config(tmp_path / "c.json", data)),
                 "--out", str(out)]) == 0
    assert main(["retrain", "--genotype", str(out / "genotype.json"), "--data", str(data),
                 "--out", str(rt), "--epochs", "2"]) == 0
    assert main(["eval", "--genotype", str(out / "genotype.json"), "--data", str(data),
                 "--checkpoint", str(rt / "checkpoint")]) == 0
    expected = random_split(load_graph_json(data), seed=0).masks
    assert len(splits) == 3
    for graph in splits:
        assert graph.masks.keys() == expected.keys()
        for k in expected:
            np.testing.assert_array_equal(graph.masks[k], expected[k])


# -- gen-data -----------------------------------------------------------------

def test_gen_data_chain(tmp_path):
    p = tmp_path / "chain.json"
    assert main(["gen-data", "--kind", "chain", "--out", str(p), "--seed", "1",
                 "--length", "40", "--split"]) == 0
    g = load_graph_json(p)
    assert g.num_nodes == 40
    assert set(g.masks) == {"train", "val", "test"}


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-data", "--kind", "sbm", "--out", None, "--seed", "7",
            "--classes", "2", "--per-class", "8"]
    for p in (a, b):
        args[4] = str(p)
        assert main(args) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_with_no_nodes_per_class_exits_1(tmp_path, capsys):
    p = tmp_path / "empty.json"
    capsys.readouterr()
    assert main(["gen-data", "--kind", "sbm", "--out", str(p), "--per-class", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: nodes_per_class must be >= 1, got 0")
    assert not p.exists()


# -- search / retrain / eval pipeline  -------------------------------------------

def test_full_pipeline(tmp_path, dataset, capsys):
    cfg = write_config(tmp_path / "c.json", dataset)
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("genotype.json", "metrics.jsonl", "resolved_config.json",
                 "checkpoint/meta.json"):
        assert (out / name).exists(), name
    lines = (out / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == 3
    assert json.loads(lines[-1])["epoch"] == 2
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["max_iter"] == 3 and resolved["dataset"] == str(dataset)

    rt = tmp_path / "retrain"
    assert main(["retrain", "--genotype", str(out / "genotype.json"),
                 "--data", str(dataset), "--out", str(rt),
                 "--epochs", "30", "--seed", "0"]) == 0
    report = json.loads((rt / "retrain_report.json").read_text())
    assert set(report) == {"train_metric", "val_metric", "test_metric", "best_epoch"}

    capsys.readouterr()
    assert main(["eval", "--genotype", str(out / "genotype.json"),
                 "--data", str(dataset),
                 "--checkpoint", str(rt / "checkpoint")]) == 0
    printed = capsys.readouterr().out
    assert "test metric:" in printed
    metric = float(printed.split(":")[1])
    assert metric == pytest.approx(report["test_metric"], abs=1e-6)


def test_eval_loads_retrained_checkpoint_with_routing(tmp_path, dataset, capsys):
    """A genotype's shortcuts, in its routing order, round-trip through retrain and eval."""
    geno = tmp_path / "genotype.json"
    Genotype(layers=[BlockChoice(1, "gcn", 1, "sum", "relu"),
                     BlockChoice(2, "gat", 2, "mean", "tanh")],
             routing=[(1, 1), (0, 1)], hidden_sizes=[16, 16], seed=0).save(geno)
    rt = tmp_path / "rt"
    assert main(["retrain", "--genotype", str(geno), "--data", str(dataset),
                 "--out", str(rt), "--epochs", "5", "--seed", "2"]) == 0
    report = json.loads((rt / "retrain_report.json").read_text())
    names = [rec["name"] for rec in
             json.loads((rt / "checkpoint" / "meta.json").read_text())["params"]]
    assert {"router/shortcut/0_1/W", "router/shortcut/1_1/W"} <= set(names)
    assert not any(n == "router/theta" or n.startswith("controller/") for n in names)
    capsys.readouterr()
    assert main(["eval", "--genotype", str(geno), "--data", str(dataset),
                 "--checkpoint", str(rt / "checkpoint")]) == 0
    metric = float(capsys.readouterr().out.split(":")[1])
    assert metric == pytest.approx(report["test_metric"], abs=1e-6)


def test_eval_builds_no_tape_and_prints_the_same_metric(tmp_path, dataset, capsys, monkeypatch):
    geno = _two_layer_genotype(tmp_path / "genotype.json")
    rt = tmp_path / "rt"
    assert main(["retrain", "--genotype", str(geno), "--data", str(dataset),
                 "--out", str(rt), "--epochs", "3", "--seed", "1"]) == 0
    forwards = []
    real_forward = GenotypeNet.forward

    def recording(self, *args, **kwargs):
        forwards.append(real_forward(self, *args, **kwargs))
        return forwards[-1]

    monkeypatch.setattr(GenotypeNet, "forward", recording)
    capsys.readouterr()
    assert main(["eval", "--genotype", str(geno), "--data", str(dataset),
                 "--checkpoint", str(rt / "checkpoint")]) == 0
    printed = capsys.readouterr().out
    (logits,) = forwards
    assert not logits.requires_grad and logits._parents == () and logits._backward is None
    # the same forward with every leaf taking a gradient gives the same logits and metric
    graph = load_graph_json(dataset)
    net = GenotypeNet(Genotype.load(geno), graph.spec.feature_dim, graph.spec.num_classes)
    net.store.load(rt / "checkpoint")
    taped = real_forward(net, graph, net.genotype.layers)
    assert taped.requires_grad
    np.testing.assert_array_equal(logits.data, taped.data)
    metric = evaluate(taped, graph.labels, graph.masks["test"], graph.spec.task)
    assert printed == f"test metric: {metric:.6f}\n"


def test_retrain_zero_epochs_is_an_error(tmp_path, dataset, capsys):
    geno = tmp_path / "genotype.json"
    Genotype(layers=[BlockChoice(1, "gcn", 1, "sum", "relu")] * 2, routing=[],
             hidden_sizes=[16, 16], seed=0).save(geno)
    capsys.readouterr()
    assert main(["retrain", "--genotype", str(geno), "--data", str(dataset),
                 "--out", str(tmp_path / "rt"), "--epochs", "0"]) == 1
    assert "error: retrain_genotype: epochs must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "rt").exists()


def _two_layer_genotype(path):
    Genotype(layers=[BlockChoice(1, "gcn", 1, "sum", "relu")] * 2, routing=[],
             hidden_sizes=[16, 16], seed=0).save(path)
    return path


def test_non_finite_gradient_exits_1(tmp_path, dataset, capsys, monkeypatch):
    real_grads = ParameterStore.grads

    def poisoned(self, group=None):
        grads = real_grads(self, group)
        next(iter(grads.values())).flat[0] = np.nan
        return grads

    monkeypatch.setattr(ParameterStore, "grads", poisoned)
    geno = _two_layer_genotype(tmp_path / "genotype.json")
    capsys.readouterr()
    assert main(["retrain", "--genotype", str(geno), "--data", str(dataset),
                 "--out", str(tmp_path / "rt"), "--epochs", "2"]) == 1
    assert "error: Adam: non-finite gradient for parameter" in capsys.readouterr().err


@pytest.mark.parametrize("command, drop", [("retrain", "test"), ("search", "val")])
def test_dataset_with_two_masks_exits_2(tmp_path, dataset, capsys, command, drop):
    doc = json.loads(dataset.read_text())
    del doc["masks"][drop]
    data = tmp_path / "two_masks.json"
    data.write_text(json.dumps(doc))
    if command == "search":
        argv = ["search", "--config", str(write_config(tmp_path / "c.json", data))]
    else:
        argv = ["retrain", "--genotype", str(_two_layer_genotype(tmp_path / "g.json")),
                "--data", str(data), "--epochs", "2"]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "config error: masks name" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("over, message", [
    ({"aggregators": ["median"]}, "unknown aggregators ['median']"),
    ({"expansions": [0]}, "expansions must be integers >= 1, got [0]"),
    ({"attentions": ["gcn", "foo"]}, "unknown attentions ['foo']"),
    ({"hidden_grid": [16.0]}, "dimensions must be integers >= 1, got [16.0]"),
    ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
    ({"e_start": None}, "e_start must be an integer, got None"),
    ({"alpha": "1"}, "alpha must be a real number, got '1'"),
    ({"router_enabled": 1}, "router_enabled must be true or false, got 1"),
    ({"aggregators": []}, "empty candidate list 'aggregators'"),
    ({"hidden_grid": [True]}, "dimensions must be integers >= 1, got [True]"),
    ({"freeze_layers": [2]}, "freeze_layers must be layers in [0, 2), got [2]"),
    ({"freeze_layers": [0, -1]}, "freeze_layers must be layers in [0, 2), got [-1]"),
    ({"freeze_layers": ["a"]}, "freeze_layers must be layers in [0, 2), got ['a']"),
    ({"freeze_layers": [True]}, "freeze_layers must be layers in [0, 2), got [True]"),
    ({"freeze_layers": [1.0]}, "freeze_layers must be layers in [0, 2), got [1.0]"),
    ({"expansions": [1, 1]}, "expansions repeats a candidate: [1, 1]"),
    ({"attentions": ["gat", "gat"]}, "attentions repeats a candidate: ['gat', 'gat']"),
    ({"head_counts": [1, 2, 1]}, "head_counts repeats a candidate: [1, 2, 1]"),
    ({"aggregators": ["sum", "sum"]}, "aggregators repeats a candidate: ['sum', 'sum']"),
    ({"activations": ["relu", "tanh", "relu"]},
     "activations repeats a candidate: ['relu', 'tanh', 'relu']"),
], ids=["aggregator", "expansion", "attention", "float_hidden", "float_int", "null_int",
        "string_float", "int_bool", "empty_aggregators", "bool_hidden", "freeze_too_deep",
        "freeze_negative", "freeze_string", "freeze_bool", "freeze_float",
        "repeated_expansion", "repeated_attention", "repeated_head_count",
        "repeated_aggregator", "repeated_activation"])
def test_search_config_with_a_bad_candidate_exits_2_before_loading_data(tmp_path, capsys,
                                                                        over, message):
    cfg = write_config(tmp_path / "c.json", tmp_path / "missing.json", **over)
    capsys.readouterr()
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "dataset file not found" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["hidden_sizes"].pop(), "genotype has 1 hidden sizes for 2 layers"),
    (lambda d: d["layers"][1].update(dropout=0.5), "genotype layer 1 has keys"),
    (lambda d: d["layers"][0].pop("heads"), "genotype layer 0 has keys"),
    (lambda d: d.pop("layers"), "genotype lacks the key(s) ['layers']"),
    (lambda d: d.pop("seed"), "genotype lacks the key(s) ['seed']"),
    (lambda d: d["layers"][1].update(aggregate="median"), "unknown aggregators ['median']"),
    (lambda d: d["layers"][0].update(expansion=0), "expansions must be integers >= 1"),
    (lambda d: d.update(hidden_sizes=[16, -16]), "dimensions must be integers >= 1, got [-16]"),
    (lambda d: d.update(hidden_sizes=[16.0, 16.0]), "dimensions must be integers >= 1, got [16.0]"),
    (lambda d: d.update(hidden_sizes=[True, True]),
     "dimensions must be integers >= 1, got [True]"),
    (lambda d: d.update(routing=[1]), "invalid routing pair 1 for 2 layers"),
    (lambda d: d.update(seed=None), "genotype seed must be an integer, got None"),
    (lambda d: d.update(seed=True), "genotype seed must be an integer, got True"),
    (lambda d: d.update(hidden_sizes=8), "genotype hidden_sizes must be a list, got 8"),
    (lambda d: d.update(layers=3), "genotype layers must be a list, got 3"),
    (lambda d: d.update(layers=[3, 3]), "genotype layer 0 has keys 3, not"),
    (lambda d: d.update(routing=[["0", 1]]), "invalid routing pair ['0', 1] for 2 layers"),
    (lambda d: d.update(routing=[[0, 1, 2]]), "invalid routing pair (0, 1, 2) for 2 layers"),
    (lambda d: d.update(routing=[[0, 1], [0, 1]]),
     "genotype routing repeats a pair: [[0, 1], [0, 1]]"),
], ids=["hidden_sizes", "unknown_key", "missing_key", "no_layers", "no_seed",
        "unknown_aggregate", "zero_expansion", "negative_hidden_size", "float_hidden_size",
        "bool_hidden_size", "routing_not_a_pair", "null_seed", "bool_seed",
        "hidden_sizes_not_a_list", "layers_not_a_list", "layer_not_an_object", "string_node_id",
        "routing_triple", "repeated_pair"])
def test_retrain_rejects_malformed_genotype(tmp_path, dataset, capsys, edit, message):
    geno = _two_layer_genotype(tmp_path / "genotype.json")
    doc = json.loads(geno.read_text())
    edit(doc)
    geno.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["retrain", "--genotype", str(geno), "--data", str(dataset),
                 "--out", str(tmp_path / "rt"), "--epochs", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "rt").exists()


@pytest.mark.parametrize("command", ["retrain", "eval"])
def test_genotype_without_layers_exits_1(tmp_path, dataset, capsys, command):
    geno = tmp_path / "genotype.json"
    geno.write_text(json.dumps({"layers": [], "routing": [], "hidden_sizes": [], "seed": 0}))
    args = {"retrain": ["--out", str(tmp_path / "rt"), "--epochs", "2"],
            "eval": ["--checkpoint", str(tmp_path / "missing")]}[command]
    capsys.readouterr()
    assert main([command, "--genotype", str(geno), "--data", str(dataset)] + args) == 1
    err = capsys.readouterr().err
    assert err == "error: genotype layers must hold at least 1 layer, got []\n"
    assert not (tmp_path / "rt").exists()


_NOT_OBJECTS = pytest.mark.parametrize("text", ["[[1, 2]]", "5", "null"],
                                       ids=["list_of_lists", "number", "null"])


@_NOT_OBJECTS
def test_search_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    capsys.readouterr()
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {cfg} must be a JSON object")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["[[1, 2]]", "5", "null", '{"num_nodes": 3,'],
                         ids=["list_of_lists", "number", "null", "not_json"])
def test_search_on_a_graph_that_is_not_an_object_exits_2_naming_the_file(tmp_path, capsys, text):
    graph = tmp_path / "graph.json"
    graph.write_text(text)
    cfg = write_config(tmp_path / "c.json", graph)
    capsys.readouterr()
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: graph {graph}")
    assert ("not valid JSON" if text.startswith("{") else "must be a JSON object") in err


@_NOT_OBJECTS
def test_retrain_genotype_that_is_not_an_object_exits_1(tmp_path, dataset, capsys, text):
    geno = tmp_path / "genotype.json"
    geno.write_text(text)
    capsys.readouterr()
    assert main(["retrain", "--genotype", str(geno), "--data", str(dataset),
                 "--out", str(tmp_path / "rt"), "--epochs", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: genotype {geno} must be a JSON object")
    assert not (tmp_path / "rt").exists()


def test_eval_rejects_per_head_checkpoint(tmp_path, dataset, capsys):
    """A checkpoint in the old one-tensor-per-head layout exits with a config error."""
    geno = {"layers": [{"expansion": 1, "attention": "gat", "heads": 2,
                        "aggregate": "sum", "activation": "relu"}],
            "routing": [], "hidden_sizes": [16], "seed": 0}
    (tmp_path / "genotype.json").write_text(json.dumps(geno))
    net = GenotypeNet(Genotype.from_dict(geno), 8, 2)
    store = ParameterStore()
    for name, t in net.store.items():
        if "/attn/" not in name:
            store.add(name, t.data)
    for h in range(2):
        store.add(f"layer0/attn/gat/h2/head{h}/Wa", np.zeros((16, 1)))
    store.save(tmp_path / "ckpt")
    capsys.readouterr()
    assert main(["eval", "--genotype", str(tmp_path / "genotype.json"), "--data", str(dataset),
                 "--checkpoint", str(tmp_path / "ckpt")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "layer0/attn/gat/h2/Wa_dst" in err
    assert "layer0/attn/gat/h2/head0/Wa" in err


def test_search_outputs_byte_identical_across_runs(tmp_path, dataset):
    cfg = write_config(tmp_path / "c.json", dataset)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("genotype.json", "metrics.jsonl", "resolved_config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    for f in sorted(os.listdir(out1 / "checkpoint")):
        assert (out1 / "checkpoint" / f).read_bytes() == \
            (out2 / "checkpoint" / f).read_bytes(), f


def test_seed_flag_overrides_config(tmp_path, dataset):
    cfg = write_config(tmp_path / "c.json", dataset)
    out1, out2 = tmp_path / "s0", tmp_path / "s1"
    assert main(["search", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["search", "--config", str(cfg), "--out", str(out2),
                 "--seed", "5"]) == 0
    assert json.loads((out2 / "resolved_config.json").read_text())["seed"] == 5


# -- gradcheck ----------------------------------------------------------------

def test_gradcheck_single_target(capsys):
    assert main(["gradcheck", "sigmoid"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "sigmoid" in out and "worst:" in out


def test_gradcheck_group_target(capsys):
    """A group name runs that group's checks: ``route`` checks the gated shortcuts."""
    assert main(["gradcheck", "route"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("ok   route ") and lines[1].startswith("worst:")


# -- allocator policy -------------------------------------------------------------

def test_main_sets_glibc_mmap_and_trim_thresholds(monkeypatch, capsys):
    calls = []

    def cdll(name):
        assert name is None
        return types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["gradcheck", "sigmoid"]) == 0
    assert calls == [(-3, 1 << 30), (-1, 2 ** 31 - 1)]   # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: types.SimpleNamespace()],
                         ids=["cdll-raises", "no-mallopt"])
def test_main_runs_without_mallopt(monkeypatch, capsys, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["gradcheck", "sigmoid"]) == 0
    assert main(["gradcheck", "no_such_check"]) == 1
    assert "unknown gradcheck target" in capsys.readouterr().err


def test_importing_the_cli_loads_no_process_pool():
    """The search runs in-process: the CLI's imports pull in no pool machinery."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    code = ("import sys, gnasforge.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
