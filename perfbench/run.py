"""gnasforge benchmark: fixed-work search and retrain workloads on seeded graphs.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One run generates the workload's inputs from ``--seed`` (graph JSON with
masks, plus a search config or a genotype), then runs the same CLI command
again and again in a closed loop, one at a time, each in a fresh process,
until ``--seconds`` is used up (at least ``MIN_RUNS`` times). Every command's
output is checked; the epoch, set-up and wall times, the peak memory and a
work fingerprint are reported. ``--trace 1`` instead alternates untraced and
traced commands and reports the per-layer metrics of ``tracer.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")
BASELINE = os.path.join(HERE, "baseline.json")

MIN_RUNS = 3            # set-up is measured at least this many times per run
HARD_LIMIT_S = 170.0    # a run never outlives this, whatever --seconds says
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Full operator space for search-sbm200; temperature pinned at 1 and lr_a = 0,
# so the per-epoch operators depend on the search seed alone.
SEARCH_SEED = 0

WORKLOADS = {
    # small graph: Python dispatch, tape overhead, segment_max and the head loop
    "search-sbm200": {
        "kind": "search",
        "graph": lambda seed: gen.sbm(seed, num_classes=4, per_class=50, m_in=1470,
                                      m_out=300, feature_dim=16, noise=0.5),
        "config": {"num_layers": 3, "hidden_grid": [64], "max_iter": 14, "e_start": 14,
                   "train_step": 1, "lr_a": 0.0, "seed": SEARCH_SEED},
        "floor": 0.5,
    },
    # deep supernet on cheap kernels: controller, router, Adam and the deepest tape
    "search-deep7-ml": {
        "kind": "search",
        "graph": lambda seed: gen.multilabel(seed, num_communities=4, per_community=50,
                                             num_labels=6, m_in=1470, m_out=300,
                                             feature_dim=16, noise=1.0),
        "config": {"num_layers": 7, "hidden_grid": [64], "max_iter": 14, "e_start": 14,
                   "train_step": 1, "lr_a": 0.0, "seed": SEARCH_SEED,
                   "attentions": ["const", "gcn"], "head_counts": [1],
                   "aggregators": ["sum", "mean"]},
        "floor": 0.6,
    },
    # large graph, fixed genotype: memory-bound kernels and graph ingestion
    "retrain-sbm20k": {
        "kind": "retrain",
        "graph": lambda seed: gen.sbm(seed, num_classes=8, per_class=2500, m_in=80000,
                                      m_out=20000, feature_dim=16, noise=0.5),
        "genotype": {
            "layers": [
                {"expansion": 1, "attention": "gcn", "heads": 1, "aggregate": "sum",
                 "activation": "relu"},
                {"expansion": 1, "attention": "const", "heads": 1, "aggregate": "mean",
                 "activation": "elu"},
            ],
            "routing": [[0, 1]], "hidden_sizes": [64, 64], "seed": 0,
        },
        "epochs": 4,
        "floor": 0.5,
    },
}

END_TO_END = (("setup_s", "s"), ("epoch_s.p50", "s"), ("epoch_s.tail", "s"),
              ("wall_s", "s"), ("peak_rss_mb", "MB"))


def tail_percentile(n):
    """Highest of 99/95/90/75 with at least ten samples beyond it, else the median."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return 50


def environment():
    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": nproc,
        "guard": "GNASFORGE_THREADS unset (grid search in-process); "
                 "one command at a time, each in a fresh process",
    }


def child_env(env_record):
    env = dict(os.environ)
    env.pop("GNASFORGE_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = str(env_record["blas_threads"])
    return env


# -- inputs ------------------------------------------------------------------

def make_inputs(name, seed, run_dir):
    """Write the workload's inputs; returns (cli argv builder, graph doc summary)."""
    wl = WORKLOADS[name]
    doc = wl["graph"](seed)
    graph_path = os.path.join(run_dir, "graph.json")
    gen.write_json(doc, graph_path)
    shape = {"nodes": doc["num_nodes"], "arcs": 2 * len(doc["edges"]) + doc["num_nodes"]}
    if wl["kind"] == "search":
        cfg_path = os.path.join(run_dir, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as f:
            json.dump(dict(wl["config"], dataset=graph_path), f)
        return (lambda out: ["search", "--config", cfg_path, "--out", out]), shape
    geno_path = os.path.join(run_dir, "genotype.json")
    with open(geno_path, "w", encoding="utf-8") as f:
        json.dump(wl["genotype"], f)
    return (lambda out: ["retrain", "--genotype", geno_path, "--data", graph_path,
                         "--out", out, "--epochs", str(wl["epochs"]), "--seed", "0"]), shape


def expected_epochs(name):
    wl = WORKLOADS[name]
    return wl["config"]["max_iter"] if wl["kind"] == "search" else wl["epochs"]


# -- one command ---------------------------------------------------------------

def run_command(name, argv_for, out_dir, trace, env, timeout):
    """Run one CLI command in a fresh process; returns its timing record or raises."""
    os.makedirs(out_dir)
    spec_path = os.path.join(out_dir, "spec.json")
    result_path = os.path.join(out_dir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump({"src": SRC, "argv": argv_for(os.path.join(out_dir, "out")),
                   "kind": WORKLOADS[name]["kind"], "trace": trace,
                   "result": result_path}, f)
    proc = subprocess.run([sys.executable, CHILD, spec_path], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise CheckError(f"process exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    with open(result_path, encoding="utf-8") as f:
        rec = json.load(f)
    if rec["exit"] != 0:
        raise CheckError(f"command exit {rec['exit']}: {proc.stderr.strip()[-400:]}")
    return rec


class CheckError(Exception):
    pass


def check_outputs(name, rec, out_dir):
    """Validate one command's outputs; returns (determinism bytes, fingerprint part)."""
    from gnasforge.search import Genotype

    wl = WORKLOADS[name]
    out = os.path.join(out_dir, "out")
    if rec["epochs"] != expected_epochs(name):
        raise CheckError(f"ran {rec['epochs']} epochs, expected {expected_epochs(name)}")
    if wl["kind"] == "search":
        with open(os.path.join(out, "metrics.jsonl"), "rb") as f:
            metrics_bytes = f.read()
        with open(os.path.join(out, "genotype.json"), "rb") as f:
            geno_bytes = f.read()
        try:
            Genotype.load(os.path.join(out, "genotype.json"))
        except (ValueError, KeyError, TypeError) as e:
            raise CheckError(f"genotype.json does not load: {e}")
        log = [json.loads(line) for line in metrics_bytes.decode().splitlines()]
        vals = [r["val_metric"] for r in log]
        if not all(math.isfinite(v) for v in vals):
            raise CheckError("non-finite validation metric")
        # operators change every epoch, so the search must reach the floor once
        metric, loss = max(vals), log[-1]["train_loss"]
        ops = json.dumps([r["indices"] for r in log], sort_keys=True)
        determinism = metrics_bytes + geno_bytes
    else:
        with open(os.path.join(out, "retrain_report.json"), "rb") as f:
            determinism = f.read()
        metric, loss = json.loads(determinism)["test_metric"], rec["last_loss"]
        ops = json.dumps(wl["genotype"], sort_keys=True)
    if not (math.isfinite(metric) and metric >= wl["floor"]):
        raise CheckError(f"metric {metric} non-finite or below floor {wl['floor']}")
    return determinism, {"epochs": rec["epochs"],
                         "ops_digest": hashlib.sha256(ops.encode()).hexdigest()[:16],
                         "train_loss": loss}


# -- one benchmark run -----------------------------------------------------------

def run_workload(name, seed, seconds, trace, env):
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    wl_dir = os.path.join(WORK, name)
    shutil.rmtree(wl_dir, ignore_errors=True)
    run_dir = os.path.join(wl_dir, f"seed{seed}")
    os.makedirs(run_dir)
    argv_for, shape = make_inputs(name, seed, run_dir)

    records, errors, fingerprint, reference = [], [], None, None
    measure_start = time.perf_counter()
    walls = []
    while True:
        now = time.perf_counter()
        used = now - measure_start
        typical = statistics.median(walls) if walls else 0.0
        done = len(records) + len(errors)
        if done >= (2 if trace else MIN_RUNS) and used + typical > seconds:
            break
        if done and now + 1.5 * typical > deadline:
            break
        traced = trace and done % 2 == 1
        out_dir = os.path.join(run_dir, f"cmd{done}")
        t0 = time.perf_counter()
        try:
            rec = run_command(name, argv_for, out_dir, traced, env,
                              timeout=max(deadline - now, 1.0))
            determinism, fp = check_outputs(name, rec, out_dir)
            if reference is None:
                reference = determinism
            elif determinism != reference:
                raise CheckError("outputs differ from the first command of this run")
            fingerprint = fingerprint or dict(shape, **fp)
            rec["traced"] = traced
            records.append(rec)
        except (CheckError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
            errors.append(f"command {done}: {e}")
        walls.append(time.perf_counter() - t0)
        shutil.rmtree(os.path.join(out_dir, "out"), ignore_errors=True)
    return records, errors, fingerprint


def end_to_end(records):
    plain = [r for r in records if not r["traced"]]
    epochs = [e for r in plain for e in r["epoch_s"]]
    p = tail_percentile(len(epochs))
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "epoch_s.p50": float(np.percentile(epochs, 50)),
        "epoch_s.tail": float(np.percentile(epochs, p)),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    return values, f"p{p} of {len(epochs)} epochs"


def per_layer(records):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    values = {}
    for key, unit in tracer.metric_names():
        if key == "trace.overhead_s":
            values[key] = (statistics.median(r["wall_s"] for r in traced)
                           - statistics.median(r["wall_s"] for r in plain))
        else:
            median = statistics.median_low if unit == "count" else statistics.median
            values[key] = median(r["layers"][key] for r in traced)
    return values


def compare_baseline(name, seed, fingerprint):
    """'match' / 'mismatch' for the work and the loss; 'no-baseline' where absent."""
    try:
        with open(BASELINE, encoding="utf-8") as f:
            base = json.load(f).get(name)
    except FileNotFoundError:
        base = None
    if base is None or fingerprint is None:
        return "no-baseline", "no-baseline"
    work = all(base[k] == fingerprint[k] for k in ("epochs", "nodes", "arcs", "ops_digest"))
    loss = base["train_loss"].get(str(seed))
    if loss is None:
        loss_state = "no-baseline"
    else:
        loss_state = "match" if math.isclose(loss, fingerprint["train_loss"],
                                             rel_tol=1e-6) else "mismatch"
    return ("match" if work else "mismatch"), loss_state


def record_baseline(name, seed, fingerprint):
    try:
        with open(BASELINE, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {}
    entry = doc.setdefault(name, {"train_loss": {}})
    entry.update({k: fingerprint[k] for k in ("epochs", "nodes", "arcs", "ops_digest")})
    entry["train_loss"][str(seed)] = fingerprint["train_loss"]
    with open(BASELINE, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def report(name, seed, records, errors, fingerprint, trace):
    attempted = len(records) + len(errors)
    print(f"workload {name} seed {seed}: {attempted} commands, {len(errors)} failed")
    for err in errors:
        print(f"  FAILED {err}")
    for k, r in enumerate(records):
        print(f"  command {k}{' traced' if r['traced'] else ''}: setup {r['setup_s']:.4f} s, "
              f"wall {r['wall_s']:.4f} s, epochs " + " ".join(f"{e:.3f}" for e in r["epoch_s"]))
    metrics = {}
    if trace:
        units = dict(tracer.metric_names())
        if any(r["traced"] for r in records) and any(not r["traced"] for r in records):
            for key, value in per_layer(records).items():
                metrics[key] = {"value": value, "unit": units[key]}
    elif records:
        values, tail_note = end_to_end(records)
        for key, unit in END_TO_END:
            metrics[key] = {"value": values[key], "unit": unit}
        print(f"  epoch_s.tail is the {tail_note}")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':34s} {len(errors) / max(attempted, 1):.6g} "
          f"({len(errors)}/{attempted})")
    work, loss = compare_baseline(name, seed, fingerprint)
    print(f"  fingerprint {json.dumps(fingerprint, sort_keys=True)} "
          f"work={work} train_loss={loss}")
    return attempted, len(errors), metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-baseline", action="store_true",
                   help="store this run's work fingerprint in baseline.json")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gnasforge", "cli.py")):
        print(f"error: no gnasforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env_record = environment()
    env = child_env(env_record)
    print("env " + json.dumps(env_record, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    combined = {}
    for name in names:
        records, errors, fingerprint = run_workload(name, args.seed, args.seconds,
                                                    bool(args.trace), env)
        a, f, metrics = report(name, args.seed, records, errors, fingerprint, args.trace)
        attempted, failed = attempted + a, failed + f
        if args.record_baseline and not errors and fingerprint:
            record_baseline(name, args.seed, fingerprint)
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{name}/{k}": v for k, v in metrics.items()})
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
