
import json

import numpy as np
import pytest

from gnasforge.graphs import (
    GraphFormatError, load_graph_json, save_graph_json, graph_from_dict, graph_to_dict,
    random_split, generate_sbm, generate_chain_task, DatasetSpec,
)


def doc(num_nodes, edges, **over):
    base = {
        "num_nodes": num_nodes,
        "feature_dim": 2,
        "task": "single",
        "num_classes": 2,
        "features": [[float(i), 0.0] for i in range(num_nodes)],
        "edges": edges,
        "labels": [i % 2 for i in range(num_nodes)],
    }
    base.update(over)
    return base


def test_triangle_degrees():
    g = graph_from_dict(doc(3, [[0, 1], [1, 2], [0, 2]]))
    np.testing.assert_array_equal(g.arcs.counts[:, 0], [3, 3, 3])


def test_isolated_nodes_have_self_loop_degree():
    g = graph_from_dict(doc(2, []))
    np.testing.assert_array_equal(g.arcs.counts[:, 0], [1, 1])
    np.testing.assert_array_equal(g.arcs.src, [0, 1])


def test_edge_dst_is_computed_once_in_arc_order():
    g = graph_from_dict(doc(3, [[0, 1], [1, 2]]))
    np.testing.assert_array_equal(g.arcs.dst, [0, 0, 1, 1, 1, 2, 2])
    np.testing.assert_array_equal(g.arcs.src, [0, 1, 0, 1, 2, 1, 2])
    np.testing.assert_array_equal(random_split(graph_from_dict(doc(5, [[0, 4]]))).arcs.dst,
                                  [0, 0, 1, 2, 3, 4, 4])


def test_arcs_are_checked_once_and_shared_by_splits():
    g = graph_from_dict(doc(5, [[0, 4], [1, 2]]))
    assert g.num_nodes == g.arcs.num_nodes == g.arcs.num_rows == 5
    split = random_split(g)
    assert split.arcs is g.arcs and split.features is g.features and split.labels is g.labels
    assert split.spec == g.spec and not g.masks and set(split.masks) == {"train", "val", "test"}


def test_edge_out_of_range_rejected():
    with pytest.raises(GraphFormatError, match="out of range"):
        graph_from_dict(doc(3, [[0, 3]]))


def test_duplicate_edge_rejected():
    with pytest.raises(GraphFormatError, match="duplicate"):
        graph_from_dict(doc(3, [[0, 1], [0, 1]]))


def test_edge_not_a_pair_rejected():
    with pytest.raises(GraphFormatError, match=r"edge #1 is not a pair: \[2\]"):
        graph_from_dict(doc(3, [[0, 1], [2], [0, 1, 2]]))


@pytest.mark.parametrize("edges, message", [
    ([[0, 1], [0, 3], [0, 1], [1]], r"edge #1 = \(0, 3\) out of range"),
    ([[0, 1], [1, 2], [0, 1], [-1, 0], [2]], r"duplicate edge #2 = \(0, 1\)"),
    ([[0, 1], [1, 0], [2, 2], [4, 0]], r"edge #3 = \(4, 0\) out of range"),
    ([[0, 1], [1, 2], [0, 0, 1], [9, 9]], r"edge #2 is not a pair"),
    # (1, 3) has the same key as the earlier (2, 0): still reported as out of range
    ([[0, 1], [2, 0], [1, 3]], r"edge #2 = \(1, 3\) out of range"),
])
def test_edge_errors_name_the_first_bad_edge(edges, message):
    with pytest.raises(GraphFormatError, match=message):
        graph_from_dict(doc(3, edges))


def test_overlapping_masks_rejected():
    with pytest.raises(GraphFormatError, match="overlap"):
        graph_from_dict(doc(5, [], masks={"train": [0, 1], "val": [1]}))


@pytest.mark.parametrize("masks", [{"train": [0, 1], "val": [2]}, {"train": [0, 1], "test": [2]},
                                   {"test": [4]}])
def test_masks_name_all_three_splits_or_none(masks):
    with pytest.raises(GraphFormatError, match="give train, val and test, or none"):
        graph_from_dict(doc(5, [], masks=masks))
    assert not graph_from_dict(doc(5, [], masks={})).masks
    full = graph_from_dict(doc(5, [], masks=dict({"train": [], "val": [], "test": []}, **masks)))
    assert set(full.masks) == {"train", "val", "test"}


@pytest.mark.parametrize("over, message", [
    ({"features": [[0.0, 0.0, 0.0]] * 3}, r"features shape \(3, 3\) != \(3, 2\)"),
    ({"labels": [[0, 1]] * 3}, r"labels shape \(3, 2\) != \(3,\)"),
    ({"task": "multi"}, r"labels shape \(3,\) != \(3, 2\)"),
    ({"labels": [0, 2, 1]}, "label index out of range"),
    ({"masks": {"dev": [0]}}, "unknown mask 'dev'"),
    ({"masks": {"train": [0], "val": [3], "test": [1]}}, "mask 'val' index out of range"),
    ({"edges": [[0, 1], ["a", 2]]}, "edges must be pairs of integer node ids"),
    ({"task": "ranking"}, "unknown task kind 'ranking'"),
    ({"num_classes": 1, "labels": [0, 0, 0]}, "num_classes must be >= 2"),
    ({"edges": [[0.5, 1.9]]}, "edges must be pairs of integer node ids"),
    ({"edges": [[True, False]]}, "edges must be pairs of integer node ids"),
    ({"labels": [0, 1.5, 0.7]}, "single-label labels must be integer class ids"),
    ({"labels": [True, False, True]}, "single-label labels must be integer class ids"),
    ({"masks": {"train": [0.5], "val": [1], "test": [2]}},
     "mask 'train' must list integer node ids"),
    ({"masks": {"train": [0], "val": [True], "test": [2]}},
     "mask 'val' must list integer node ids"),
    ({"num_nodes": 3.7}, r"num_nodes must be an integer, got 3\.7"),
    ({"num_nodes": True}, "num_nodes must be an integer, got True"),
    ({"feature_dim": 2.0}, r"feature_dim must be an integer, got 2\.0"),
    ({"num_classes": True}, "num_classes must be an integer, got True"),
    ({"num_classes": "2"}, "num_classes must be an integer, got '2'"),
    ({"num_nodes": [3]}, r"num_nodes must be an integer, got \[3\]"),
    ({"task": "multi", "labels": [[0, 1], [2.0, -1.0], [1, 0]]},
     "multi-label labels must be 0 or 1"),
    ({"features": [[0.0, 0.0], [1.0, None], [2.0, 0.0]]}, "features must be finite numbers"),
    ({"features": [[0.0, 0.0], [1.0, "0.5"], [2.0, 0.0]]}, "features must be finite numbers"),
    ({"masks": {"train": [[0], [1, 2]], "val": [], "test": []}},
     "mask 'train' must list integer node ids"),
], ids=["features_shape", "single_label_shape", "multi_label_shape", "label_range",
        "mask_name", "mask_range", "edge_ids", "task", "num_classes", "float_edge_ids",
        "bool_edge_ids", "float_labels", "bool_labels", "float_mask_ids", "bool_mask_ids",
        "float_num_nodes", "bool_num_nodes", "float_feature_dim", "bool_num_classes",
        "string_num_classes", "list_num_nodes", "multi_label_targets", "null_feature",
        "string_feature", "ragged_mask"])
def test_graph_from_dict_rejects_a_malformed_field(over, message):
    with pytest.raises(GraphFormatError, match=message):
        graph_from_dict(dict(doc(3, [[0, 1]]), **over))


@pytest.mark.parametrize("top, name", [(5, "int"), (None, "NoneType"), ([[1, 2]], "list")],
                         ids=["number", "null", "list_of_lists"])
def test_graph_from_dict_rejects_a_document_that_is_not_an_object(top, name):
    with pytest.raises(GraphFormatError, match=f"graph must be a JSON object, got {name}"):
        graph_from_dict(top)


def _neighbors(g, i):
    """The sources of the arcs into node i, self-loop included."""
    return g.arcs.src[g.arcs.dst == i]


def _loop_doc(graph):
    """The former per-node serialisation: each node's in-arcs but its self-loop, as
    (source, node) pairs, all sorted; the rest of the document as graph_to_dict writes it."""
    edges = sorted((int(s), int(d)) for d in range(graph.num_nodes)
                   for s in _neighbors(graph, d) if s != d)
    return dict(graph_to_dict(graph), edges=[list(e) for e in edges])


@pytest.mark.parametrize("make, isolated", [
    (lambda: random_split(generate_sbm(4, 10, 0.15, 0.0, 4, 0.3, seed=1), seed=2), True),
    (lambda: generate_chain_task(60, seed=2), False),
], ids=["sbm-isolated", "chain"])
def test_graph_to_dict_matches_the_per_node_loop(make, isolated):
    g = make()
    assert (g.arcs.counts[:, 0] == 1).any() == isolated     # nodes with only a self-loop
    assert json.dumps(graph_to_dict(g), sort_keys=True) == json.dumps(_loop_doc(g), sort_keys=True)


def test_roundtrip_identical(tmp_path):
    g1 = generate_sbm(2, 5, 0.8, 0.1, 4, 0.3, seed=4)
    g1 = random_split(g1, seed=4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_graph_json(g1, p1)
    g2 = load_graph_json(p1)
    save_graph_json(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(g1.arcs.dst, g2.arcs.dst)
    np.testing.assert_array_equal(g1.arcs.src, g2.arcs.src)
    np.testing.assert_array_equal(g1.features, g2.features)
    np.testing.assert_array_equal(g1.labels, g2.labels)
    for k in g1.masks:
        np.testing.assert_array_equal(g1.masks[k], g2.masks[k])


def test_split_sizes_ten_nodes():
    g = graph_from_dict(doc(10, []))
    g = random_split(g, seed=1)
    assert [int(g.masks[k].sum()) for k in ("train", "val", "test")] == [6, 2, 2]


def test_split_sizes_seven_nodes_floor_then_remainder():
    g = graph_from_dict(doc(7, []))
    g = random_split(g, seed=1)
    assert [int(g.masks[k].sum()) for k in ("train", "val", "test")] == [4, 1, 2]


def test_split_deterministic_and_exhaustive():
    g = graph_from_dict(doc(23, []))
    a = random_split(g, seed=9)
    b = random_split(g, seed=9)
    union = np.zeros(23, dtype=int)
    for k in ("train", "val", "test"):
        np.testing.assert_array_equal(a.masks[k], b.masks[k])
        union += a.masks[k].astype(int)
    np.testing.assert_array_equal(union, 1)


def test_split_rejects_tiny_graphs():
    with pytest.raises(ValueError, match="5 nodes"):
        random_split(graph_from_dict(doc(4, [])), seed=0)


def test_sbm_degenerate_probabilities_give_cliques():
    g = generate_sbm(2, 3, 1.0, 0.0, 2, 0.0, seed=0)
    for i in range(6):
        nbrs = set(_neighbors(g, i)) - {i}
        block = set(range(3)) if i < 3 else set(range(3, 6))
        assert nbrs == block - {i}


def test_sbm_noiseless_features_are_centroids():
    g = generate_sbm(3, 4, 0.9, 0.0, 5, 0.0, seed=1)
    centroids = np.zeros((3, 5))
    centroids[np.arange(3), np.arange(3)] = 1.0
    np.testing.assert_array_equal(g.features, centroids[g.labels])
    # nearest-centroid classifier is perfect
    pred = np.argmin(((g.features[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
    assert (pred == g.labels).all()


def test_sbm_within_block_edge_count_binomial():
    g = generate_sbm(4, 50, 0.5, 0.0, 8, 0.0, seed=7)
    # arcs = 2 * undirected edges; exclude self-loops
    within = (g.arcs.src != g.arcs.dst).sum() / 2
    trials = 4 * 50 * 49 // 2
    mean, var = 0.5 * trials, trials * 0.25
    assert abs(within - mean) < 5 * np.sqrt(var)


def test_sbm_zero_crossing_components_stay_in_class():
    g = generate_sbm(3, 10, 0.5, 0.0, 4, 0.1, seed=3)
    seen = np.full(g.num_nodes, -1)
    for start in range(g.num_nodes):
        if seen[start] >= 0:
            continue
        stack, comp = [start], start
        while stack:
            u = stack.pop()
            if seen[u] >= 0:
                continue
            seen[u] = comp
            assert g.labels[u] == g.labels[start]
            stack.extend(_neighbors(g, u))


def _scalar_loop_sbm(num_classes, nodes_per_class, p_in, p_out, feature_dim,
                     feature_noise, seed):
    """Reference: one rng.random() per node pair (i, j > i), pair by pair."""
    rng = np.random.default_rng(seed)
    n = num_classes * nodes_per_class
    labels = np.repeat(np.arange(num_classes), nodes_per_class)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if labels[i] == labels[j] else p_out
            if rng.random() < p:
                edges.append((i, j))
    centroids = np.zeros((num_classes, feature_dim))
    centroids[np.arange(num_classes), np.arange(num_classes)] = 1.0
    features = centroids[labels] + feature_noise * rng.standard_normal((n, feature_dim))
    return graph_from_dict({
        "num_nodes": n, "feature_dim": feature_dim, "task": "single",
        "num_classes": num_classes, "features": features.tolist(), "edges": edges,
        "labels": labels.tolist(),
    })


@pytest.mark.parametrize("args", [
    (4, 25, 0.3, 0.02, 16, 0.5, 11),
    (2, 3, 0.9, 0.3, 3, 0.5, 7),
    (3, 7, 1.0, 0.0, 4, 0.1, 3),      # cliques, no crossing edges
    (5, 1, 0.9, 0.4, 5, 0.2, 2),      # one node per class: every pair crosses
    (2, 1, 0.8, 0.0, 2, 0.0, 0),      # two nodes, no edge possible
    (3, 40, 0.1, 0.01, 3, 1.0, 5),
])
def test_sbm_matches_pair_by_pair_reference(args):
    """The vectorised generator draws the same uniform stream as a pair loop."""
    g = generate_sbm(*args)
    ref = _scalar_loop_sbm(*args)
    assert g.spec == ref.spec
    np.testing.assert_array_equal(g.arcs.dst, ref.arcs.dst)
    np.testing.assert_array_equal(g.arcs.src, ref.arcs.src)
    np.testing.assert_array_equal(g.labels, ref.labels)
    # features come after the edges in the stream: equal features, equal draw count
    np.testing.assert_array_equal(g.features, ref.features)


def test_sbm_validates_probabilities_and_dims():
    with pytest.raises(ValueError):
        generate_sbm(2, 3, 0.2, 0.5, 4, 0.0, seed=0)
    with pytest.raises(ValueError, match="feature_dim"):
        generate_sbm(4, 3, 0.5, 0.1, 2, 0.0, seed=0)
    with pytest.raises(ValueError, match="nodes_per_class must be >= 1, got 0"):
        generate_sbm(2, 0, 0.5, 0.1, 4, 0.0, seed=0)


def test_chain_task_linearly_separable():
    g = generate_chain_task(60, seed=2)
    assert g.spec == DatasetSpec("single", 2, 8)
    X, y = g.features, g.labels
    # least-squares linear probe on raw features
    w, *_ = np.linalg.lstsq(np.c_[X, np.ones(len(y))], 2.0 * y - 1.0, rcond=None)
    pred = (np.c_[X, np.ones(len(y))] @ w) > 0
    assert (pred == y.astype(bool)).all()


def test_chain_task_shuffled_labels_at_chance():
    g = generate_chain_task(200, seed=2)
    rng = np.random.default_rng(0)
    y = rng.permutation(g.labels)
    X = np.c_[g.features, np.ones(len(y))]
    w, *_ = np.linalg.lstsq(X, 2.0 * y - 1.0, rcond=None)
    acc = ((X @ w > 0) == y.astype(bool)).mean()
    assert 0.35 < acc < 0.72


def test_chain_task_deterministic(tmp_path):
    a = generate_chain_task(40, seed=5)
    b = generate_chain_task(40, seed=5)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_graph_json(a, pa)
    save_graph_json(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_chain_task_minimum_length():
    with pytest.raises(ValueError, match="length"):
        generate_chain_task(10, seed=0)
