"""Smoke test of the benchmark's per-layer tracer on the current engine.

``perfbench/child.py`` runs one CLI command with ``perfbench/tracer.py``
wrapping every public function and each tape node's closure. An engine
refactor that breaks the names the tracer reads fails here, not only in a
benchmark run.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

from gnasforge.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_search_reports_tape_nodes_and_backward_time(tmp_path):
    data = tmp_path / "sbm.json"
    assert main(["gen-data", "--kind", "sbm", "--out", str(data), "--seed", "0", "--split",
                 "--classes", "2", "--per-class", "20", "--feature-dim", "8"]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dataset": str(data), "num_layers": 2, "hidden_grid": [16],
                               "max_iter": 2, "train_step": 1, "seed": 0}))
    spec = tmp_path / "spec.json"
    result = tmp_path / "result.json"
    spec.write_text(json.dumps({
        "src": str(ROOT / "src"), "kind": "search", "trace": True, "result": str(result),
        "argv": ["search", "--config", str(cfg), "--out", str(tmp_path / "out")]}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(result.read_text())
    assert rec["exit"] == 0 and rec["epochs"] == 2
    assert rec["layers"]["tensor.tape_nodes"] > 0
    assert rec["layers"]["tensor.matmul.bwd_s"] > 0


def test_untraced_retrain_times_each_epoch(tmp_path):
    data = tmp_path / "sbm.json"
    assert main(["gen-data", "--kind", "sbm", "--out", str(data), "--seed", "0", "--split",
                 "--classes", "2", "--per-class", "20", "--feature-dim", "8"]) == 0
    geno = tmp_path / "genotype.json"
    layer = {"expansion": 1, "attention": "gcn", "heads": 1, "aggregate": "sum",
             "activation": "relu"}
    geno.write_text(json.dumps({"layers": [layer, layer], "routing": [[0, 1]],
                                "hidden_sizes": [16, 16], "seed": 0}))
    spec = tmp_path / "spec.json"
    result = tmp_path / "result.json"
    spec.write_text(json.dumps({
        "src": str(ROOT / "src"), "kind": "retrain", "trace": False, "result": str(result),
        "argv": ["retrain", "--genotype", str(geno), "--data", str(data),
                 "--out", str(tmp_path / "out"), "--epochs", "3"]}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(result.read_text())
    assert rec["exit"] == 0 and rec["epochs"] == 3
    assert len(rec["epoch_s"]) == 3
    assert math.isfinite(rec["last_loss"])
