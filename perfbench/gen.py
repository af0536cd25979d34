"""Seeded, vectorised generators for the benchmark's input graphs.

Every generator draws an exact number of distinct undirected edges, so the
node and arc counts of a workload do not depend on the seed; only which
pairs are joined, the features, the labels and the split do. The output is
the canonical graph JSON schema that ``gnasforge`` reads, masks included.
"""

from __future__ import annotations

import json

import numpy as np


def _distinct_pairs(count, n, draw):
    """``count`` distinct undirected pairs (i < j) of n nodes, encoded ``i * n + j``.

    ``draw(k)`` returns k candidate pairs as two index arrays; self-pairs are
    dropped and duplicates keep their first draw, so the result depends on
    the seed only.
    """
    keys = np.empty(0, dtype=np.int64)
    while keys.size < count:
        i, j = draw(2 * (count - keys.size) + 64)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        cand = (lo * n + hi)[lo != hi]
        both = np.concatenate([keys, cand])
        _, first = np.unique(both, return_index=True)
        keys = both[np.sort(first)]
    return keys[:count]


def _block_edges(rng, num_blocks, per_block, m_in, m_out):
    """Exactly ``m_in`` within-block and ``m_out`` between-block edges.

    Nodes are numbered block by block: block c holds ``c * per_block`` up to
    ``(c + 1) * per_block - 1``.
    """
    n = num_blocks * per_block

    def within(k):
        base = per_block * rng.integers(0, num_blocks, size=k)
        return base + rng.integers(0, per_block, size=k), base + rng.integers(0, per_block, size=k)

    def between(k):
        i = rng.integers(0, n, size=k)
        j = rng.integers(0, n, size=k)
        keep = i // per_block != j // per_block
        return i[keep], j[keep]

    keys = np.concatenate([_distinct_pairs(m_in, n, within),
                           _distinct_pairs(m_out, n, between)])
    keys.sort()
    return np.stack([keys // n, keys % n], axis=1)


def _split(rng, n):
    """60/20/20 random split as index lists."""
    perm = rng.permutation(n)
    a, b = int(0.6 * n), int(0.8 * n)
    return {"train": np.sort(perm[:a]), "val": np.sort(perm[a:b]), "test": np.sort(perm[b:])}


def _doc(features, edges, labels, task, num_classes, masks):
    n, d = features.shape
    return {
        "num_nodes": int(n),
        "feature_dim": int(d),
        "task": task,
        "num_classes": int(num_classes),
        "features": np.round(features, 6).tolist(),
        "edges": edges.tolist(),
        "labels": labels.tolist(),
        "masks": {k: v.tolist() for k, v in masks.items()},
    }


def sbm(seed, num_classes, per_class, m_in, m_out, feature_dim, noise):
    """Single-label stochastic block model with noisy one-hot class centroids."""
    rng = np.random.default_rng(seed)
    n = num_classes * per_class
    labels = np.repeat(np.arange(num_classes), per_class)
    edges = _block_edges(rng, num_classes, per_class, m_in, m_out)
    centroids = np.eye(num_classes, feature_dim)
    features = centroids[labels] + noise * rng.standard_normal((n, feature_dim))
    return _doc(features, edges, labels, "single", num_classes, _split(rng, n))


def multilabel(seed, num_communities, per_community, num_labels, m_in, m_out,
               feature_dim, noise):
    """Multi-label graph: communities set label rates, features mix the labels.

    Each community has its own Bernoulli rate per label; a node's features are
    a fixed random projection of its label vector plus Gaussian noise, and
    edges follow the communities as in the SBM.
    """
    rng = np.random.default_rng(seed)
    n = num_communities * per_community
    community = np.repeat(np.arange(num_communities), per_community)
    rates = rng.uniform(0.05, 0.95, size=(num_communities, num_labels))
    labels = (rng.random((n, num_labels)) < rates[community]).astype(np.int64)
    edges = _block_edges(rng, num_communities, per_community, m_in, m_out)
    proj = rng.standard_normal((num_labels, feature_dim))
    features = (2.0 * labels - 1.0) @ proj / np.sqrt(num_labels) \
        + noise * rng.standard_normal((n, feature_dim))
    return _doc(features, edges, labels, "multi", num_labels, _split(rng, n))


def write_json(doc, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
