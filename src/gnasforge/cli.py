"""Command-line entry point: search / retrain / eval / gen-data / gradcheck.

Artifacts never contain timestamps or host info, so re-running with the same
inputs and seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import fields, asdict

from .graphs import load_graph_json, load_json_object, save_graph_json, random_split, \
    generate_sbm, generate_chain_task, GraphFormatError
from .search import (
    SearchConfig, SearchError, Genotype, GenotypeNet,
    grid_search_hidden, retrain_genotype, evaluate,
)
from .tensor import CheckpointError
from . import verify

EXIT_OK, EXIT_ERROR, EXIT_CONFIG = 0, 1, 2


class ConfigError(ValueError):
    pass


def load_run_config(path):
    """Parse a run config JSON into (SearchConfig, dataset path); unknown keys rejected."""
    try:
        doc = load_json_object(path, "config", ConfigError)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    unknown = set(doc) - {f.name for f in fields(SearchConfig)} - {"dataset"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    dataset = doc.pop("dataset", None)
    try:
        return SearchConfig(**doc), dataset
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e))


def _load_dataset(path):
    """The graph at ``path``; one without masks gets the seed-0 random split."""
    if not os.path.exists(path):
        raise ConfigError(f"dataset file not found: {path}")
    graph = load_graph_json(path)
    return graph if graph.masks else random_split(graph, seed=0)


def cmd_search(args):
    config, dataset = load_run_config(args.config)
    if args.seed is not None:
        config = SearchConfig(**{**asdict(config), "seed": args.seed})
    if dataset is None:
        raise ConfigError("config must name a 'dataset' path")
    if not args.out:
        raise ConfigError("no output directory (use --out)")
    graph = _load_dataset(dataset)
    os.makedirs(args.out, exist_ok=True)

    result = grid_search_hidden(config, graph)

    result.genotype.save(os.path.join(args.out, "genotype.json"))
    result.write_log(os.path.join(args.out, "metrics.jsonl"))
    resolved = dict(asdict(config), dataset=dataset)
    with open(os.path.join(args.out, "resolved_config.json"), "w", encoding="utf-8") as f:
        json.dump(resolved, f, indent=2, sort_keys=True)

    hidden = result.supernet.hidden
    result.supernet.store.save(os.path.join(args.out, "checkpoint"),
                               extra_meta={"counters": result.counters, "hidden": hidden})
    print(f"best hidden size {hidden}, val metric {result.final_val_metric:.4f}")
    return EXIT_OK


def cmd_retrain(args):
    genotype = Genotype.load(args.genotype)
    graph = _load_dataset(args.data)
    net, report = retrain_genotype(genotype, graph, epochs=args.epochs, seed=args.seed)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "retrain_report.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    net.store.save(os.path.join(out_dir, "checkpoint"),
                   extra_meta={"best_epoch": report["best_epoch"]})
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_eval(args):
    genotype = Genotype.load(args.genotype)
    graph = _load_dataset(args.data)
    net = GenotypeNet(genotype, graph.spec.feature_dim, graph.spec.num_classes)
    net.store.load(args.checkpoint)
    with net.store.frozen(net.store.names()):        # no gradient is taken: build no tape
        logits = net.forward(graph, genotype.layers)
    metric = evaluate(logits, graph.labels, graph.masks["test"], graph.spec.task)
    print(f"test metric: {metric:.6f}")
    return EXIT_OK


def cmd_gen_data(args):
    if args.kind == "sbm":
        graph, _ = generate_sbm(args.classes, args.per_class, args.p_in, args.p_out,
                                args.feature_dim, args.noise, args.seed)
    else:                                       # argparse's choices admit only sbm and chain
        graph, _ = generate_chain_task(args.length, args.seed)
    if args.split:
        graph = random_split(graph, seed=args.seed)
    save_graph_json(graph, args.out)
    print(f"wrote {graph.num_nodes}-node graph to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args):
    results = verify.run_all(args.target)
    worst = 0.0
    for name in sorted(results):
        err = results[name]
        worst = max(worst, err)
        status = "ok" if err < verify.TOLERANCE else "FAIL"
        print(f"{status:4s} {name:40s} max rel err {err:.3e}")
    print(f"worst: {worst:.3e} (tolerance {verify.TOLERANCE:g})")
    return EXIT_OK if worst < verify.TOLERANCE else EXIT_ERROR


def build_parser():
    p = argparse.ArgumentParser(prog="gnasforge",
                                description="Dual micro/macro architecture search for GNNs")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("search", help="run the grid + dual search")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_search)

    r = sub.add_parser("retrain", help="retrain a derived genotype from scratch")
    r.add_argument("--genotype", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--out")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--epochs", type=int, default=300)
    r.set_defaults(fn=cmd_retrain)

    e = sub.add_parser("eval", help="evaluate a retrained checkpoint")
    e.add_argument("--genotype", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.set_defaults(fn=cmd_eval)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--kind", required=True, choices=["sbm", "chain"])
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--split", action="store_true", help="add a 60/20/20 random split")
    g.add_argument("--classes", type=int, default=4)
    g.add_argument("--per-class", dest="per_class", type=int, default=50)
    g.add_argument("--p-in", dest="p_in", type=float, default=0.3)
    g.add_argument("--p-out", dest="p_out", type=float, default=0.02)
    g.add_argument("--feature-dim", dest="feature_dim", type=int, default=16)
    g.add_argument("--noise", type=float, default=0.5)
    g.add_argument("--length", type=int, default=200)
    g.set_defaults(fn=cmd_gen_data)

    c = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    c.add_argument("target", nargs="?", default="all",
                   help="'all', a group (primitives/blocks/route/controller), or a primitive name")
    c.set_defaults(fn=cmd_gradcheck)
    return p


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap():
    """Make glibc keep freed memory for reuse instead of returning it to the kernel.

    Every training epoch frees its tape arrays (10 MB each at 20k nodes) and
    allocates the same sizes again. By default glibc hands large freed blocks
    back to the kernel (it unmaps them, or trims them off the heap top), so
    each epoch page-faults its memory in anew. Serving them from the heap and
    never trimming it lets the next epoch reuse the pages. Needs both
    settings; does nothing where the C library has no mallopt (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1 << 30)
    mallopt(_M_TRIM_THRESHOLD, 2 ** 31 - 1)


def main(argv=None):
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GraphFormatError, CheckpointError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SearchError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
