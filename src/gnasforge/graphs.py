"""Graph representation, JSON ingestion, splits, and synthetic generators.

Graphs are immutable after load. Their arcs are one checked ``tensor.Arcs``,
sorted by (destination, source): the arcs into node i carry the messages
that i aggregates, its neighborhood N(i). Undirected input edges are
expanded to two directed arcs, and a self-loop is added for every node, so
in-degree is always >= 1.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import Arcs


class GraphFormatError(ValueError):
    """Raised when a graph JSON file violates the schema."""


@dataclass(frozen=True)
class DatasetSpec:
    task: str            # "single" | "multi"
    num_classes: int
    feature_dim: int

    def __post_init__(self):
        if self.task not in ("single", "multi"):
            raise GraphFormatError(f"unknown task kind {self.task!r}")
        if self.num_classes < 2:
            raise GraphFormatError("num_classes must be >= 2")


@dataclass
class Graph:
    features: np.ndarray          # num_nodes x D_in
    arcs: Arcs                    # the message pass's arcs, self-loops included
    labels: np.ndarray            # (n,) int for single-label, (n, C) 0/1 for multi
    spec: DatasetSpec
    masks: dict = field(default_factory=dict)   # name -> bool ndarray

    @property
    def num_nodes(self):
        return self.arcs.num_nodes

    @functools.cached_property
    def gcn_coefficients(self):
        """The E x 1 column 1 / sqrt(d_i d_j) of every arc j -> i, d the in-degrees."""
        d = self.arcs.counts[:, 0]
        return (1.0 / np.sqrt(d[self.arcs.dst] * d[self.arcs.src])).reshape(-1, 1)


def _build_arcs(num_nodes, dst, src):
    """The ``Arcs`` of (dst, src) pairs, sorted by (dst, src); dedupes, adds self-loops."""
    loops = np.arange(num_nodes, dtype=np.int64)
    # one key per arc, sorted and deduplicated, orders the arcs by (dst, src); a plain
    # sort, because np.unique without indices imports numpy.ma (~20 ms) on first use
    keys = np.sort(np.concatenate([dst, loops]) * num_nodes + np.concatenate([src, loops]))
    keys = keys[np.diff(keys, prepend=-1) > 0]
    return Arcs(keys % num_nodes, keys // num_nodes, num_nodes)


def _make_graph(num_nodes, features, edges, labels, spec, masks=None):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    # each undirected edge (s, d) gives the arcs d <- s and s <- d
    arcs = _build_arcs(num_nodes, np.concatenate([e[:, 1], e[:, 0]]),
                       np.concatenate([e[:, 0], e[:, 1]]))
    return Graph(
        features=np.asarray(features, dtype=np.float64),
        arcs=arcs,
        labels=np.asarray(labels),
        spec=spec,
        masks=dict(masks or {}),
    )


# -- JSON ingestion -----------------------------------------------------------

def load_json_object(path, what, error):
    """The JSON object every input file holds; anything else raises ``error`` naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as e:                     # not JSON, or not UTF-8
            raise error(f"{what} {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must be a JSON object, got {type(doc).__name__}")
    return doc


def load_graph_json(path):
    """Load and validate a Graph from the canonical JSON schema."""
    return graph_from_dict(load_json_object(path, "graph", GraphFormatError))


def graph_from_dict(doc):
    required = {"num_nodes", "feature_dim", "task", "num_classes", "features", "edges", "labels"}
    missing = required - set(doc)
    if missing:
        raise GraphFormatError(f"missing keys: {sorted(missing)}")
    for key in ("num_nodes", "feature_dim", "num_classes"):   # not a bool, a real or a list
        if isinstance(doc[key], list) or np.asarray(doc[key]).dtype.kind != "i":
            raise GraphFormatError(f"{key} must be an integer, got {doc[key]!r}")
    n, d = int(doc["num_nodes"]), int(doc["feature_dim"])
    spec = DatasetSpec(doc["task"], int(doc["num_classes"]), d)

    features = _array(doc["features"], f"features must be a ({n}, {d}) list of lists")
    if features.shape != (n, d):
        raise GraphFormatError(f"features shape {features.shape} != ({n}, {d})")
    # a null loads as an object array and a string as a str array
    if features.dtype.kind not in "iuf" or not np.isfinite(features).all():
        raise GraphFormatError("features must be finite numbers")

    edges = _edge_array(doc["edges"], n)

    labels = _array(doc["labels"], "labels must be a list of class ids or of 0/1 rows")
    if spec.task == "single":
        if labels.shape != (n,):
            raise GraphFormatError(f"labels shape {labels.shape} != ({n},)")
        if labels.size and labels.dtype.kind != "i":
            raise GraphFormatError("single-label labels must be integer class ids")
        if labels.size and (labels.min() < 0 or labels.max() >= spec.num_classes):
            raise GraphFormatError("label index out of range")
        labels = labels.astype(np.int64)
    else:
        if labels.shape != (n, spec.num_classes):
            raise GraphFormatError(f"labels shape {labels.shape} != ({n}, {spec.num_classes})")
        if labels.dtype.kind not in "iuf" or ((labels != 0) & (labels != 1)).any():
            raise GraphFormatError("multi-label labels must be 0 or 1")
        labels = labels.astype(np.float64)

    masks = {}
    for name, idx in (doc.get("masks") or {}).items():
        if name not in ("train", "val", "test"):
            raise GraphFormatError(f"unknown mask {name!r}")
        m = np.zeros(n, dtype=bool)
        message = f"mask {name!r} must list integer node ids"
        idx = _array(idx, message)
        if idx.ndim != 1 or idx.size and idx.dtype.kind != "i":
            raise GraphFormatError(message)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise GraphFormatError(f"mask {name!r} index out of range")
        m[idx.astype(np.int64)] = True
        masks[name] = m
    for a in masks:
        for b in masks:
            if a < b and (masks[a] & masks[b]).any():
                raise GraphFormatError(f"masks {a!r} and {b!r} overlap")
    if 0 < len(masks) < 3:
        raise GraphFormatError(f"masks name {sorted(masks)}: give train, val and test, or none")

    return _make_graph(n, features, edges, labels, spec, masks)


def _array(value, message):
    """``np.asarray(value)``; a ragged list raises GraphFormatError(message)."""
    try:
        return np.asarray(value)
    except ValueError:
        raise GraphFormatError(message) from None


def _edge_array(edges, n):
    """Validate JSON edges into an (m, 2) int array.

    Raises GraphFormatError for the first edge, in list order, that is not a
    pair, is out of range, or repeats an earlier (s, t), or for non-integer ids.
    """
    try:
        arr = np.asarray(edges)
    except (TypeError, ValueError):
        arr = None     # ragged: told apart below
    if arr is not None and arr.shape == (len(edges), 2) and arr.dtype.kind != "i":
        raise GraphFormatError("edges must be pairs of integer node ids")
    if arr is None or arr.shape != (len(edges), 2):
        if len(edges) == 0:
            return np.empty((0, 2), dtype=np.int64)
        bad = next((k for k, e in enumerate(edges)
                    if not hasattr(e, "__len__") or len(e) != 2), None)
        if bad is None:
            raise GraphFormatError("edges must be pairs of integer node ids")
        _edge_array(edges[:bad], n)    # an error in an earlier edge is reported first
        raise GraphFormatError(f"edge #{bad} is not a pair: {edges[bad]!r}")
    m = len(arr)
    out_of_range = np.flatnonzero(((arr < 0) | (arr >= n)).any(axis=1))
    # a key with an out-of-range id can equal another edge's key; the later of the
    # two is then flagged as a repeat, never before the first out-of-range edge
    _, first = np.unique(arr[:, 0] * n + arr[:, 1], return_index=True)
    repeat = np.setdiff1d(np.arange(m), first, assume_unique=True)
    k_range = out_of_range[0] if out_of_range.size else m
    k_repeat = repeat[0] if repeat.size else m
    if k_range < m and k_range <= k_repeat:
        s, t = arr[k_range]
        raise GraphFormatError(f"edge #{k_range} = ({s}, {t}) out of range for {n} nodes")
    if k_repeat < m:
        s, t = arr[k_repeat]
        raise GraphFormatError(f"duplicate edge #{k_repeat} = ({s}, {t})")
    return arr


def graph_to_dict(graph):
    """Serialize to the canonical schema. Self-loops are dropped (re-added on load)."""
    src, dst = graph.arcs.src, graph.arcs.dst
    keep = src != dst
    src, dst = src[keep], dst[keep]
    order = np.lexsort((dst, src))              # by (src, dst)
    doc = {
        "num_nodes": graph.num_nodes,
        "feature_dim": graph.spec.feature_dim,
        "task": graph.spec.task,
        "num_classes": graph.spec.num_classes,
        "features": graph.features.tolist(),
        "edges": np.stack([src[order], dst[order]], axis=1).tolist(),
        "labels": graph.labels.tolist(),
    }
    if graph.masks:
        doc["masks"] = {k: np.flatnonzero(v).tolist() for k, v in sorted(graph.masks.items())}
    return doc


def save_graph_json(graph, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(graph_to_dict(graph), f, sort_keys=True)


# -- splits --------------------------------------------------------------------

def random_split(graph, seed=0):
    """Seeded random 60/20/20 repartition: floor rounding, remainder to test."""
    n = graph.num_nodes
    if n < 5:
        raise ValueError("random_split needs at least 5 nodes")
    perm = np.random.default_rng(seed).permutation(n)
    n_train, n_val = int(0.6 * n), int(0.2 * n)          # floors, as n > 0
    masks = {}
    for name, part in (
        ("train", perm[:n_train]),
        ("val", perm[n_train:n_train + n_val]),
        ("test", perm[n_train + n_val:]),
    ):
        m = np.zeros(n, dtype=bool)
        m[part] = True
        masks[name] = m
    return replace(graph, masks=masks)


# -- synthetic generators --------------------------------------------------------

def generate_sbm(num_classes, nodes_per_class, p_in, p_out, feature_dim,
                 feature_noise, seed):
    """Stochastic-block-model graph with noisy one-hot centroid features."""
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValueError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if feature_dim < num_classes:
        raise ValueError("feature_dim must be >= num_classes")
    rng = np.random.default_rng(seed)
    n = num_classes * nodes_per_class
    labels = np.repeat(np.arange(num_classes), nodes_per_class)

    # row i draws one uniform per pair (i, j > i), in the order a pair-by-pair loop would
    rows = [np.zeros((0, 2), dtype=np.int64)]
    for i in range(n):
        p = np.where(labels[i + 1:] == labels[i], p_in, p_out)
        j = i + 1 + np.flatnonzero(rng.random(n - i - 1) < p)
        rows.append(np.stack([np.full(j.size, i), j], axis=1))
    edges = np.concatenate(rows)

    centroids = np.zeros((num_classes, feature_dim))
    centroids[np.arange(num_classes), np.arange(num_classes)] = 1.0
    features = centroids[labels] + feature_noise * rng.standard_normal((n, feature_dim))

    spec = DatasetSpec("single", num_classes, feature_dim)
    return _make_graph(n, features, edges, labels, spec), spec


def generate_chain_task(length, seed):
    """Binary task whose labels are a linear function of the raw input features.

    Edges are random distractors, so message passing mixes classes while a
    direct input->output shortcut sees clean, linearly separable features.
    The label direction component of the noise is projected out, making the
    train set exactly separable.
    """
    if length < 20:
        raise ValueError("generate_chain_task needs length >= 20")
    feature_dim, distractor_degree, noise = 8, 8, 0.3
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=length)
    v = rng.standard_normal(feature_dim)
    v /= np.linalg.norm(v)
    eps = noise * rng.standard_normal((length, feature_dim))
    eps -= np.outer(eps @ v, v)   # keep the margin direction clean
    features = np.outer(2.0 * labels - 1.0, v) + eps

    edges = {(i, i + 1) for i in range(length - 1)}
    for i in range(length):
        for j in rng.integers(0, length, size=distractor_degree):
            if i != j:
                edges.add((min(i, int(j)), max(i, int(j))))

    spec = DatasetSpec("single", 2, feature_dim)
    graph = _make_graph(length, features, sorted(edges), labels, spec)
    return graph, spec
