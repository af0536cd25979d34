"""One timed CLI invocation, in a fresh process so peak memory is per run.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (the directory that contains the ``gnasforge`` package),
``argv`` for ``gnasforge.cli.main``, ``kind`` ("search" or "retrain"),
``trace`` (bool) and ``result`` (where to write the timings as JSON).
Epochs are timed from outside: an epoch starts at the one call its loop makes
first (``temp_anneal`` in the search, ``ParameterStore.zero_grad`` in
retraining) and ends when its one validation ``evaluate`` call returns.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(spec_path):
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    import gnasforge.cli
    import gnasforge.search
    import gnasforge.tensor

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer().install()

    starts, ends, losses = [], [], []
    search_mod = gnasforge.search
    if spec["kind"] == "search":
        owner, attr = search_mod, "temp_anneal"
    else:
        owner, attr = gnasforge.tensor.ParameterStore, "zero_grad"
    start_fn, evaluate_fn, loss_fn = getattr(owner, attr), search_mod.evaluate, \
        search_mod.compute_loss

    def epoch_start(*a, **k):
        starts.append(time.perf_counter())
        return start_fn(*a, **k)

    def epoch_end(*a, **k):
        out = evaluate_fn(*a, **k)
        ends.append(time.perf_counter())
        return out

    def last_loss(*a, **k):
        out = loss_fn(*a, **k)
        losses[:] = [float(out.data)]
        return out

    setattr(owner, attr, epoch_start)
    search_mod.evaluate = epoch_end
    search_mod.compute_loss = last_loss

    t0 = time.perf_counter()
    code = gnasforge.cli.main(spec["argv"])
    t1 = time.perf_counter()
    result = {
        "exit": code,
        "wall_s": t1 - t0,
        "setup_s": (starts[0] - t0) if starts else None,
        "epoch_s": [b - a for a, b in zip(starts, ends)],
        "epochs": len(starts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "last_loss": losses[-1] if losses else None,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(spec["result"] + ".spans.tsv")
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
