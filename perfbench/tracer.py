"""Span tracer that wraps the public functions of every gnasforge module.

Tracing lives entirely in the benchmark: ``install`` replaces each public
module-level function and public method with a timing wrapper, including
every binding of the same function object captured at import time (names
imported into other modules, ``blocks._AGG``, ``tensor.ACTIVATIONS``). When
a tensor-module call returns a tape node, the node's ``_backward`` closure
is wrapped too, which gives per-primitive backward time. Spans are kept in
memory as ``[name, start, end, parent, tag]`` and written out by the caller.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("graphs", "tensor", "blocks", "controller", "router", "optim", "search", "cli")

# primitives whose forward / backward time and call count are reported
PRIMITIVES = ("segment_max", "gather_rows", "segment_sum", "segment_mean", "matmul", "mul",
              "add", "div", "exp", "concat", "softmax_cross_entropy", "sigmoid_bce",
              "relu", "leaky_relu", "elu", "sigmoid", "tanh", "softplus", "relu6")

# method span names -> the layer names the metrics use
ALIASES = {
    "tensor.Tensor.backward": "tensor.backward",
    "tensor.ParameterStore.save": "tensor.store_save",
    "router.Router.route_step": "router.route_step",
    "optim.Adam.step": "optim.adam_step",
    "controller.Controller.forward": "controller.forward",
    "search.Supernet.forward": "search.supernet_forward",
    "search.GenotypeNet.forward": "search.genotype_forward",
}
ATTENTION_KINDS = ("const", "gcn", "gat", "sym_gat", "cos", "linear", "gene_linear")
HEAD_COUNTS = (1, 2, 4, 8, 16)
AGGREGATORS = ("sum", "mean", "max")
CALLED = ("blocks.block_forward", "blocks.attention_coefficients", "router.route_step",
          "optim.adam_step", "controller.forward", "search.supernet_forward",
          "search.genotype_forward", "search.eval_forward", "search.compute_loss",
          "search.evaluate")
TIMED = ("tensor.backward", "tensor.store_save", "graphs.load_graph_json", "cli.main")
UNNAMED_BACKWARD = "tensor.op.bwd"


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for p in PRIMITIVES:
        out += [(f"tensor.{p}.fwd_s", "s"), (f"tensor.{p}.bwd_s", "s"),
                (f"tensor.{p}.calls", "count")]
    out += [("tensor.backward.traverse_s", "s"), ("tensor.tape_nodes", "count")]
    for name in CALLED:
        out += [(f"{name}.s", "s"), (f"{name}.calls", "count")]
    for tag in ATTENTION_KINDS + tuple(f"h{h}" for h in HEAD_COUNTS) + AGGREGATORS:
        out.append((f"blocks.block_forward.{tag}.s", "s"))
    out += [(f"{name}.s", "s") for name in TIMED]
    out += [(f"self_s.{m}", "s") for m in MODULES]
    out += [("trace.uncovered_s", "s"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    """Records one span per wrapped call; ``metrics`` turns them into per-layer totals."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.tape_nodes = 0
        self._last_forward = None   # (logits tensor, span index) of the latest net forward

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs, tag=None):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, tag]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _traced_backward(self, name, closure):
        def bw(g):
            return self._call(name, closure, (g,), {})
        bw.traced = True
        return bw

    def _wrap(self, name, fn):
        name = ALIASES.get(name, name)
        tracer = self
        if name == "tensor.backward":
            def wrapper(node, *a, **k):
                tracer._prepare_tape(node)
                return tracer._call(name, fn, (node,) + a, k)
        elif name == "blocks.block_forward":
            def wrapper(graph, x, choice, *a, **k):
                tag = (choice.attention, f"h{choice.heads}", choice.aggregate)
                return tracer._call(name, fn, (graph, x, choice) + a, k, tag)
        elif name.startswith("tensor."):
            def wrapper(*a, **k):
                out = tracer._call(name, fn, a, k)
                bw = getattr(out, "_backward", None)
                if bw is not None and not getattr(bw, "traced", False):
                    out._backward = tracer._traced_backward(name + ".bwd", bw)
                return out
        elif name in ("search.supernet_forward", "search.genotype_forward"):
            def wrapper(*a, **k):
                idx = len(tracer.spans)
                out = tracer._call(name, fn, a, k)
                tracer._last_forward = (out, idx)
                return out
        elif name == "search.evaluate":
            def wrapper(logits, *a, **k):
                last = tracer._last_forward
                if last is not None and last[0] is logits:
                    # a forward whose logits go only to evaluate is an eval forward
                    tracer.spans[last[1]][0] = "search.eval_forward"
                return tracer._call(name, fn, (logits,) + a, k)
        else:
            def wrapper(*a, **k):
                return tracer._call(name, fn, a, k)
        return wrapper

    def _prepare_tape(self, root):
        """Count the tape and time the closures of ops no wrapper returned."""
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            bw = node._backward
            if bw is not None and not getattr(bw, "traced", False):
                node._backward = self._traced_backward(UNNAMED_BACKWARD, bw)
            stack.extend(p for p in node._parents if p.requires_grad)
        self.tape_nodes += len(seen)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the gnasforge modules."""
        mods = {m: importlib.import_module(f"gnasforge.{m}") for m in MODULES}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        # rebind every captured reference to a wrapped function object
        containers = [vars(m) for m in mods.values()]
        containers += [mods["blocks"]._AGG, mods["tensor"].ACTIVATIONS]
        for table in containers:
            for key, value in list(table.items()):
                if inspect.isfunction(value) and value in replaced:
                    table[key] = replaced[value]
        return self

    # -- reporting ---------------------------------------------------------

    def metrics(self):
        """Per-layer values from the recorded spans, for every name but the overhead."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, calls, self_time = {}, {}, {}
        for i, (name, t0, t1, parent, tag) in enumerate(spans):
            d = t1 - t0
            for key in (name,) + tuple(f"{name}.{t}" for t in tag or ()):
                total[key] = total.get(key, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + d - child[i]
        out = {
            "tensor.backward.traverse_s": self_time.get("tensor.backward", 0.0),
            "tensor.tape_nodes": self.tape_nodes,
            "trace.uncovered_s": self_time.get("cli.main", 0.0),
        }
        for m in MODULES:
            own = (v for k, v in self_time.items() if k.startswith(m + "."))
            out[f"self_s.{m}"] = sum(own, 0.0)
        for key, _ in metric_names():
            if key in out or key == "trace.overhead_s":
                continue
            base, stat = key.rsplit(".", 1)
            if stat == "calls":
                out[key] = calls.get(base, 0)
            else:
                out[key] = total.get(base + ".bwd" if stat == "bwd_s" else base, 0.0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\n")
            for name, t0, t1, parent, _ in self.spans:
                f.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
