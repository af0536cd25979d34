"""Bi-level dual-optimization search, its temperature schedule, genotype derivation,
retraining and grid search."""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor, ParameterStore, glorot
from .optim import Adam
from .blocks import (
    BlockSpace, BlockChoice, BlockParamsView, block_forward, init_block_params, is_int,
    SUB_BLOCKS, EXPANSIONS, ATTENTIONS, HEAD_COUNTS, AGGREGATORS, ACTIVATION_KINDS,
)
from .controller import Controller, add_noise, extract_indices
from .router import Router


class SearchError(RuntimeError):
    pass


# a field's annotation -> (check, what it asks for); bool is an int and a real
_FIELD_KINDS = {
    "int": (is_int, "an integer"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a real number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "list": (lambda v: isinstance(v, list), "a list"),
}


@dataclass
class SearchConfig:
    num_layers: int = 2
    hidden_grid: tuple = (64, 128, 256, 512)
    max_iter: int = 400
    train_step: int = 10
    lr_w: float = 0.005
    weight_decay_w: float = 5e-4
    lr_a: float = 0.002
    weight_decay_a: float = 1e-8
    schedule_kind: str = "exp"
    alpha: float = 1.0
    e_start: int = 80
    e_cos: int = 100
    e_exp: int = 300
    seed: int = 0
    router_enabled: bool = True
    expansions: tuple = EXPANSIONS
    attentions: tuple = ATTENTIONS
    head_counts: tuple = HEAD_COUNTS
    aggregators: tuple = AGGREGATORS
    activations: tuple = ACTIVATION_KINDS
    freeze_layers: tuple = ()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):    # a JSON config gives lists
                setattr(self, f.name, tuple(value))
            elif f.type in _FIELD_KINDS and not _FIELD_KINDS[f.type][0](value):
                raise ValueError(f"{f.name} must be {_FIELD_KINDS[f.type][1]}, got {value!r}")
        if self.max_iter < 1 or self.train_step < 1:
            raise ValueError("max_iter and train_step must be >= 1")
        if not 2 <= self.num_layers <= 7:
            raise ValueError("num_layers must be in [2, 7]")
        bad = [l for l in self.freeze_layers if not (is_int(l) and 0 <= l < self.num_layers)]
        if bad:
            raise ValueError(f"freeze_layers must be layers in [0, {self.num_layers}), got {bad}")
        if not self.hidden_grid:
            raise ValueError("empty hidden-size grid")
        for h in self.hidden_grid:
            self.spaces(1, h)           # each layer's candidates, checked before any data loads
        if self.schedule_kind not in ("exp", "cosine_exp"):
            raise ValueError(f"unknown schedule kind {self.schedule_kind!r}")

    def spaces(self, feat_dim, hidden):
        return [
            BlockSpace(layer=l,
                       in_dim=feat_dim if l == 0 else hidden,
                       out_dim=hidden,
                       expansions=self.expansions,
                       attentions=self.attentions,
                       head_counts=self.head_counts,
                       aggregators=self.aggregators,
                       activations=self.activations)
            for l in range(self.num_layers)
        ]


TAU_MIN = 1e-3


def temp_anneal(e, config):
    """tau(e): flat at 1, then (optionally cosine, then) exponential decay.

    Reads ``config``'s schedule_kind, alpha, e_start, max_iter, e_cos and
    e_exp. The cosine part sweeps omega * (e - e_cos) from 0 to pi / 2 over
    [e_cos, e_exp). The cosine variant is discontinuous at e_exp by its
    published definition. This is the only place tau is bounded: values are
    clamped to [TAU_MIN, 1].
    """
    c = config
    if c.schedule_kind == "exp":
        tau = 1.0 if e < c.e_start else np.exp(-(c.alpha / c.max_iter) * (e - c.e_start))
    else:
        if e < c.e_cos:
            tau = 1.0
        elif e < c.e_exp:
            omega = np.pi / (2.0 * max(c.e_exp - c.e_cos, 1))
            tau = np.cos(omega * (e - c.e_cos))
        else:
            tau = np.exp(-(c.alpha / c.max_iter) * (e - c.e_exp))
    return float(np.clip(tau, TAU_MIN, 1.0))


# -- losses and metrics ---------------------------------------------------------

def compute_loss(logits, labels, mask, task):
    """Scalar training objective: cross-entropy (single) or elementwise BCE (multi)."""
    if task == "single":
        return T.softmax_cross_entropy(logits, labels, mask)
    if task == "multi":
        return T.sigmoid_bce(logits, labels, mask)
    raise ValueError(f"unknown task {task!r}")


def evaluate(logits, labels, mask, task):
    """Accuracy (single-label) or micro-F1 (multi-label, threshold 0.5) on a mask."""
    logits = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("evaluate: empty mask")
    if task == "single":
        pred = logits[mask].argmax(axis=-1)
        return float((pred == np.asarray(labels)[mask]).mean())
    if task == "multi":
        pred = logits[mask] > 0.0   # sigmoid(x) > 0.5  <=>  x > 0
        true = np.asarray(labels)[mask] > 0.5
        tp = int((pred & true).sum())
        fp = int((pred & ~true).sum())
        fn = int((~pred & true).sum())
        if tp == 0 and fp == 0 and fn == 0:
            return 1.0   # no positives anywhere: vacuously perfect
        return 2.0 * tp / (2.0 * tp + fp + fn)
    raise ValueError(f"unknown task {task!r}")


# -- genotype ---------------------------------------------------------------------

@dataclass
class Genotype:
    """Discrete architecture: per-layer operator choices plus binary shortcuts."""
    layers: list                  # list[BlockChoice]
    routing: list                 # list[(i, j)]
    hidden_sizes: list
    seed: int

    def to_dict(self):
        return {
            "layers": [asdict(c) for c in self.layers],
            "routing": [list(p) for p in self.routing],
            "hidden_sizes": list(self.hidden_sizes),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc):
        missing = [f.name for f in fields(cls) if f.name not in doc]
        if missing:
            raise ValueError(f"genotype lacks the key(s) {missing}")
        for f in fields(cls):       # a malformed field raises ValueError, as in SearchConfig
            check, what = _FIELD_KINDS[f.type]
            if not check(doc[f.name]):
                raise ValueError(f"genotype {f.name} must be {what}, got {doc[f.name]!r}")
        keys = sorted(f.name for f in fields(BlockChoice))
        for l, rec in enumerate(doc["layers"]):
            got = sorted(rec) if isinstance(rec, dict) else repr(rec)
            if got != keys:
                raise ValueError(f"genotype layer {l} has keys {got}, not {keys}")
        layers = [BlockChoice(**rec) for rec in doc["layers"]]
        L = len(layers)
        if len(doc["hidden_sizes"]) != L:
            raise ValueError(f"genotype has {len(doc['hidden_sizes'])} hidden sizes for {L} layers")
        routing = [tuple(p) if isinstance(p, list) and all(map(_FIELD_KINDS["int"][0], p)) else p
                   for p in doc["routing"]]
        for p in routing:
            if not (isinstance(p, tuple) and len(p) == 2 and 0 <= p[0] <= p[1] < L):
                raise ValueError(f"invalid routing pair {p!r} for {L} layers")
        if len(set(routing)) < len(routing):
            raise ValueError(f"genotype routing repeats a pair: {doc['routing']}")
        return cls(layers=layers, routing=routing,
                   hidden_sizes=list(doc["hidden_sizes"]), seed=doc["seed"])

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


# -- supernet ----------------------------------------------------------------------

class Supernet:
    """All candidate operators plus controller, router and classifier in one store."""

    def __init__(self, config, feat_dim, num_classes, hidden, seed):
        rng = np.random.default_rng(seed)
        self.config = config
        self.hidden = hidden
        self._add_blocks(config.spaces(feat_dim, hidden), rng)
        self.classifier = self.store.add("classifier/W", glorot(rng, num_classes, hidden).T)
        head_sizes = {(s.layer, kind): len(s.candidates(kind))
                      for s in self.spaces for kind in SUB_BLOCKS}
        self.controller = Controller(self.store, head_sizes, rng)
        # without the macro search the router owns no shortcut, like a genotype with no routing
        self.router = Router(self.store, [s.in_dim for s in self.spaces],
                             [s.out_dim for s in self.spaces], rng,
                             shortcuts=None if config.router_enabled else [])

    def _add_blocks(self, spaces, rng):
        """A fresh store holding every candidate operator of each layer's space."""
        self.spaces = spaces
        self.store = ParameterStore()
        for space in spaces:
            init_block_params(space, self.store, rng)
        self.views = [BlockParamsView(s, self.store) for s in spaces]

    def choices_from_indices(self, indices):
        return [
            BlockChoice(**{kind: s.candidates(kind)[indices[(s.layer, kind)]]
                           for kind in SUB_BLOCKS})
            for s in self.spaces
        ]

    def scales_from_probs(self, probs, indices):
        """Per-layer {sub-block kind: P^g[Index] scalar Tensor}."""
        return [
            {kind: T.pick(probs[(s.layer, kind)], indices[(s.layer, kind)])
             for kind in SUB_BLOCKS}
            for s in self.spaces
        ]

    def forward(self, graph, choices, scales=None, gates=None):
        """Single-path supernet forward to classifier logits.

        ``gates`` is the router's L x L gate Tensor (``Router.gates``); without
        it every shortcut the router owns is on with weight 1.
        """
        x = Tensor(graph.features)
        inputs = []
        for j, (view, choice) in enumerate(zip(self.views, choices)):
            inputs.append(x)
            x = block_forward(graph, x, choice, view, scales[j] if scales is not None else None)
            x = self.router.route_step(j, inputs, x, gates)
        return T.matmul(x, self.classifier)

    def w_param_names(self, freeze_layers=()):
        frozen_prefixes = tuple(f"layer{l}/" for l in freeze_layers)
        return [n for n in self.store.names("w") if not n.startswith(frozen_prefixes)]

    def derive_genotype(self):
        pbar = self.controller.forward()
        indices = extract_indices(pbar)
        return Genotype(layers=self.choices_from_indices(indices),
                        routing=self.router.derive_binary_routing(),
                        hidden_sizes=[self.hidden] * len(self.spaces),
                        seed=self.config.seed)


# -- standalone genotype network ------------------------------------------------------

class GenotypeNet(Supernet):
    """Network containing only a genotype's chosen operators and binary shortcuts.

    Built from the Genotype alone: each layer's space holds just its chosen
    candidate, at the genotype's hidden size for that layer, and the router
    owns just the genotype's shortcuts, with no theta; there is no
    controller. Parameter names match the supernet's. The forward is the
    supernet's without gates, run on the genotype's layers.
    """

    def __init__(self, genotype, feat_dim, num_classes, seed=0):
        rng = np.random.default_rng(seed)
        self.genotype = genotype
        hidden = genotype.hidden_sizes
        self._add_blocks([
            BlockSpace(layer=l,
                       in_dim=feat_dim if l == 0 else hidden[l - 1],
                       out_dim=hidden[l],
                       expansions=(c.expansion,), attentions=(c.attention,),
                       head_counts=(c.heads,), aggregators=(c.aggregate,),
                       activations=(c.activation,))
            for l, c in enumerate(genotype.layers)
        ], rng)
        self.router = Router(self.store, [s.in_dim for s in self.spaces],
                             [s.out_dim for s in self.spaces], rng,
                             shortcuts=genotype.routing)
        self.classifier = self.store.add("classifier/W",
                                         glorot(rng, num_classes, hidden[-1]).T)


# -- dual search -------------------------------------------------------------------

@dataclass
class SearchResult:
    genotype: Genotype
    log: list
    supernet: Supernet
    counters: dict = field(default_factory=dict)

    @property
    def final_val_metric(self):
        return self.log[-1]["val_metric"]

    def write_log(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.log:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def _finite_or_raise(loss, epoch, name):
    if not np.isfinite(loss.data).all():
        raise SearchError(f"non-finite {name} at epoch {epoch}")


def dual_search(config, graph, hidden=None, seed=None):
    """Alternating weight / architecture optimization over the supernet.

    Per epoch: anneal tau, sample controller noise once, fix the argmax
    operator indices, run ``train_step`` weight updates on the training
    loss, then one a_micro + a_macro update from a single validation backward
    pass. Each of these forwards draws fresh Gumbel noise for its gates (none
    without ``router_enabled``); the eval forward uses the noise-free gates.
    Bit-deterministic for a fixed seed.

    Each step freezes every leaf that its optimizer does not update, so its
    tape and backward cover only the gradients a step reads: the weight
    steps skip theta and the ``freeze_layers`` weights, the architecture
    step every weight, and the eval forward keeps no tape at all.
    """
    if not graph.masks:
        raise SearchError("dual_search requires a graph with masks")
    hidden = config.hidden_grid[0] if hidden is None else hidden
    seed = config.seed if seed is None else seed
    task = graph.spec.task
    model = Supernet(config, graph.spec.feature_dim, graph.spec.num_classes, hidden, seed)
    store, router, macro = model.store, model.router, config.router_enabled
    rng = np.random.default_rng(seed + 0x5EED)

    opt_w = Adam(store, model.w_param_names(config.freeze_layers),
                 config.lr_w, config.weight_decay_w)
    opt_a = Adam(store, store.names("a_micro") + store.names("a_macro"),
                 config.lr_a, config.weight_decay_a)

    def sampled_gates():
        """Gates for one weight or architecture forward, on fresh Gumbel noise from ``rng``."""
        return router.gates(tau, router.sample_noise(rng)) if macro else None

    def gradient_step(opt, mask, scales=None):
        """One ``opt`` update from the loss on ``mask`` at this epoch's choices; its value."""
        store.zero_grad()
        kept = set(opt.names)
        with store.frozen([n for n in store.names() if n not in kept]):
            logits = model.forward(graph, choices, scales=scales, gates=sampled_gates())
            loss = compute_loss(logits, graph.labels, graph.masks[mask], task)
            _finite_or_raise(loss, epoch, "training loss" if mask == "train" else "validation loss")
            loss.backward()
        opt.step(store.grads())
        return loss.item()

    counters = {"w_updates": 0, "a_micro_updates": 0, "a_macro_updates": 0}
    log = []
    for epoch in range(config.max_iter):
        tau = temp_anneal(epoch, config)
        noise = {key: rng.random(model.controller.proj[key].data.shape[1])
                 for key in sorted(model.controller.proj)}

        pbar = model.controller.forward()
        pg = add_noise(pbar, tau, noise)
        indices = extract_indices(pg)
        choices = model.choices_from_indices(indices)

        for _ in range(config.train_step):
            train_loss = gradient_step(opt_w, "train")
            counters["w_updates"] += 1

        # architecture update on the epoch's controller tape: weight steps change only w
        val_loss = gradient_step(opt_a, "val", scales=model.scales_from_probs(pg, indices))
        counters["a_micro_updates"] += 1
        counters["a_macro_updates"] += int(macro)

        with store.frozen(store.names()):
            eval_logits = model.forward(graph, choices, gates=router.gates(tau) if macro else None)
        val_metric = evaluate(eval_logits, graph.labels, graph.masks["val"], task)
        rec = {
            "epoch": epoch,
            "tau": tau,
            "train_loss": train_loss,
            "val_loss": val_loss,
            "val_metric": val_metric,
            "indices": {f"l{l}/{k}": v for (l, k), v in sorted(indices.items())},
        }
        if macro:
            rec["gates"] = {f"{i}_{j}": v
                            for (i, j), v in sorted(router.gate_expectations().items())}
        log.append(rec)

    return SearchResult(genotype=model.derive_genotype(), log=log,
                        supernet=model, counters=counters)


# -- retraining ----------------------------------------------------------------------

RETRAIN_LR, RETRAIN_WEIGHT_DECAY = 0.005, 5e-4


def retrain_genotype(genotype, graph, epochs=300, seed=0, patience=50, freeze_layers=()):
    """Fresh-weight training of the discrete architecture, by Adam at the RETRAIN_ settings.

    Early-stops on the validation metric (given patience) and reports the
    test metric at the best-validation checkpoint.

    Each epoch runs one forward. The forward is deterministic and the Adam
    step is the only update, so the validation forward after epoch e's step
    sees the weights epoch e + 1 trains on: its logits, tape included, are
    that epoch's training logits. The best epoch's logits give the final
    train and test metrics. The ``freeze_layers`` weights are frozen
    leaves throughout, so no tape or gradient goes to them.
    """
    if not graph.masks:
        raise ValueError("retrain_genotype requires a graph with masks")
    if epochs < 1:
        raise ValueError(f"retrain_genotype: epochs must be >= 1, got {epochs}")
    task = graph.spec.task
    net = GenotypeNet(genotype, graph.spec.feature_dim, graph.spec.num_classes, seed=seed)
    opt = Adam(net.store, net.w_param_names(freeze_layers), RETRAIN_LR, RETRAIN_WEIGHT_DECAY)

    best = {"val": -1.0, "epoch": -1, "weights": None, "logits": None}
    since_best = 0
    logits = None
    with net.store.frozen([n for n in net.store.names() if n not in opt.names]):
        for epoch in range(epochs):
            net.store.zero_grad()
            if logits is None:
                logits = net.forward(graph, genotype.layers)
            loss = compute_loss(logits, graph.labels, graph.masks["train"], task)
            _finite_or_raise(loss, epoch, "retraining loss")
            loss.backward()
            opt.step(net.store.grads("w"))
            del logits, loss   # the backward released the rest of the tape

            logits = net.forward(graph, genotype.layers)
            val = evaluate(logits, graph.labels, graph.masks["val"], task)
            if val > best["val"]:
                best = {"val": val, "epoch": epoch, "logits": logits.data,
                        "weights": {n: t.data.copy() for n, t in net.store.items()}}
                since_best = 0
            else:
                since_best += 1
                if since_best > patience:
                    break

    for n, w in best["weights"].items():
        net.store[n].data = w
    logits = best["logits"]
    report = {
        "train_metric": evaluate(logits, graph.labels, graph.masks["train"], task),
        "val_metric": best["val"],
        "test_metric": evaluate(logits, graph.labels, graph.masks["test"], task),
        "best_epoch": best["epoch"],
    }
    return net, report


# -- grid search -----------------------------------------------------------------------

def grid_search_hidden(config, graph):
    """Run dual_search per hidden size, one at a time; the best SearchResult.

    The best has the largest final validation metric, ties going to the
    smaller hidden size. The k-th size searches with seed ``config.seed + k``.
    A result is dropped as soon as a better one exists.
    """
    results = (dual_search(config, graph, h, config.seed + k)
               for k, h in enumerate(config.hidden_grid))
    return max(results, key=lambda r: (r.final_val_metric, -r.supernet.hidden))
