import ast
import itertools
import json
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from gnasforge import tensor as T
from gnasforge.tensor import Tensor, ParameterStore, ShapeError
from gnasforge.verify import finite_difference_check
from gnasforge.router import gumbel_sigmoid


def test_matmul_identity():
    x = np.arange(12.0).reshape(3, 4)
    out = T.matmul(Tensor(np.eye(3)), Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def _over_rows(agg):
    """T.propagate with ``src = arange(E)`` and no coefficient: row e is arc e's message."""
    def op(values, segments, num_segments):
        arcs = T.Arcs(np.arange(len(segments)), segments, num_segments, len(segments))
        return T.propagate(values, None, arcs, agg)
    return op


_SUM, _MEAN, _MAX = _over_rows("sum"), _over_rows("mean"), _over_rows("max")


def test_segment_sum_direct():
    out = _SUM(Tensor([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 0]), 1)
    np.testing.assert_array_equal(out.data, [[4.0, 6.0]])


def test_segment_max_forward_and_backward_routing():
    v = Tensor([[1.0], [5.0], [2.0]], requires_grad=True)
    out = _MAX(v, np.array([0, 0, 0]), 1)
    np.testing.assert_array_equal(out.data, [[5.0]])
    T.tsum(out).backward()
    np.testing.assert_array_equal(v.grad, [[0.0], [1.0], [0.0]])


def test_square_sum_gradient():
    x = Tensor([3.0], requires_grad=True)
    T.tsum(T.mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_sigmoid_gradient_at_zero():
    x = Tensor(0.0, requires_grad=True)
    T.sigmoid(x).backward()
    np.testing.assert_allclose(x.grad, 0.25, atol=1e-15)


def test_random_composite_finite_difference():
    rng = np.random.default_rng(5)
    w1 = Tensor(rng.standard_normal((4, 4)))
    w2 = Tensor(rng.standard_normal((4, 4)))

    def f(x):
        h = T.tanh(T.matmul(x, w1))
        s = T.softmax_rows(T.matmul(h, w2))
        return T.tsum(T.mul(s, w1))

    err = finite_difference_check(f, rng.standard_normal((4, 4)))
    assert err < 1e-4


def test_elu_gradient_is_exp_on_the_negative_side():
    x = np.array([-800.0, -30.0, -2.5, -1e-300, -0.0, 0.0, 1e-300, 3.0])
    t = Tensor(x, requires_grad=True)
    T.tsum(T.elu(t)).backward()
    neg = x <= 0
    # expm1(x) + 1 rounds differently from exp(x), by at most an ulp of 1
    np.testing.assert_allclose(t.grad[neg], np.exp(x[neg]), rtol=0, atol=2 ** -52)
    np.testing.assert_array_equal(t.grad[~neg], 1.0)


def test_backward_linearity():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((3, 3))
    a, b = 1.7, -0.4

    def grad_of(fn):
        x = Tensor(x0, requires_grad=True)
        fn(x).backward()
        return x.grad.copy()

    f = lambda x: T.tsum(T.tanh(x))
    g = lambda x: T.tsum(T.mul(x, x))
    combined = grad_of(lambda x: T.mul(f(x), Tensor(a)) + T.mul(g(x), Tensor(b)))
    np.testing.assert_allclose(combined, a * grad_of(f) + b * grad_of(g), atol=1e-10)


def test_segment_mean_matches_sum_over_counts():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((6, 3))
    seg = np.array([0, 0, 1, 1, 1, 3])   # segment 2 is empty
    mean = _MEAN(Tensor(vals), seg, 4).data
    sums = _SUM(Tensor(vals), seg, 4).data
    counts = np.bincount(seg, minlength=4)
    for s in range(4):
        if counts[s]:
            np.testing.assert_allclose(mean[s], sums[s] / counts[s])
        else:
            np.testing.assert_array_equal(mean[s], 0.0)


def test_empty_segment_max_is_zero():
    out = _MAX(Tensor([[2.0]]), np.array([1]), 3)
    np.testing.assert_array_equal(out.data, [[0.0], [2.0], [0.0]])


def test_segment_max_ties_route_to_first_row_per_column():
    # segment 0: rows 1 and 2 tie on column 0, row 0 alone wins column 1;
    # segment 1: rows 3 and 4 tie on both columns
    v = Tensor([[1.0, 7.0], [4.0, 2.0], [4.0, 3.0], [5.0, 1.0], [5.0, 1.0]],
               requires_grad=True)
    out = _MAX(v, np.array([0, 0, 0, 1, 1]), 2)
    np.testing.assert_array_equal(out.data, [[4.0, 7.0], [5.0, 1.0]])
    T.tsum(T.mul(out, Tensor([[1.0, 2.0], [3.0, 4.0]]))).backward()
    np.testing.assert_array_equal(v.grad, [[0.0, 2.0], [1.0, 0.0], [0.0, 0.0],
                                           [3.0, 4.0], [0.0, 0.0]])


def test_segment_max_rejects_unsorted_ids():
    with pytest.raises(ValueError, match="Arcs.*sorted"):
        _MAX(Tensor(np.zeros((3, 2))), np.array([0, 1, 0]), 2)


@pytest.mark.parametrize("op, name", [
    pytest.param(_SUM, "Arcs", id="segment_sum"),
    pytest.param(_MEAN, "Arcs", id="segment_mean"),
    pytest.param(_MAX, "Arcs", id="segment_max"),
])
@pytest.mark.parametrize("ids", [[0, 2], [-1, 0], [-5, 0]])
def test_segment_ids_out_of_range(op, name, ids):
    with pytest.raises(IndexError, match=name):
        op(Tensor(np.zeros((2, 2))), np.array(ids), 2)


def test_shape_mismatch_names_primitive_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_gather_rows_rejects_a_row_count_mismatch():
    arcs = T.Arcs([0, 2], [0, 1], 2, 3)          # 3 source rows, 2 nodes
    for x, end in [(np.zeros((2, 2)), "src"), (np.zeros((3, 2)), "dst"), (np.zeros(3), "src")]:
        with pytest.raises(ShapeError, match="gather_rows"):
            T.gather_rows(Tensor(x), arcs, end)
    with pytest.raises(ValueError, match="arc end"):
        T.gather_rows(Tensor(np.zeros((3, 2))), arcs, "both")


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.mul(x, x).backward()


def test_non_trainable_leaf_gets_no_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])
    T.tsum(T.mul(x, c)).backward()
    np.testing.assert_array_equal(x.grad, [3.0, 4.0])
    assert c.grad is None


def _assert_no_shared_gradients(leaves):
    """No two leaves' gradients share memory, and writing into one leaves the others as they were."""
    grads = [t.grad for t in leaves]
    for g, h in itertools.combinations(grads, 2):
        assert not np.shares_memory(g, h)
    for i, g in enumerate(grads):
        before = [h.copy() for h in grads]
        g += 1.0
        for j, h in enumerate(grads):
            if j != i:
                assert h.tobytes() == before[j].tobytes()


def _leaves(*shapes):
    rng = np.random.default_rng(0)
    return [Tensor(rng.standard_normal(shape) + 2.0, requires_grad=True) for shape in shapes]


_TWO_HEAD_ARCS = T.Arcs([0, 1, 2, 2, 0], [0, 0, 1, 2, 2], 3)
# every op with two differentiable operands, each as (operand shapes, op); the
# gate's pass-through feeds an add whose other operand is theta itself
_TWO_OPERAND_OPS = [
    ([(3, 4), (3, 4)], lambda a, b: T.mul(a, b)),
    ([(3, 4), (1, 1)], lambda a, b: T.mul(a, b)),
    ([(3, 4), (3, 4)], lambda a, b: T.div(a, b)),
    ([(3, 4), (1, 1)], lambda a, b: T.div(a, b)),
    ([(3, 2), (2, 4)], lambda a, b: T.matmul(a, b)),
    ([(3, 2), (2, 4), ()], lambda a, b, p: T.matmul(a, b, p)),
    ([(3, 2), (2, 4), (1, 1)], lambda a, b, p: T.matmul(a, b, p)),
    ([(3, 4), (5, 2)], lambda x, c: T.propagate(x, c, _TWO_HEAD_ARCS, "sum")),
    ([(3, 4), (5, 2)], lambda x, c: T.propagate(x, c, _TWO_HEAD_ARCS, "max")),
    ([(3, 4), (3, 4)], lambda a, b: T.edge_dot(a, b, _TWO_HEAD_ARCS, 2)),
    ([(3, 3)], lambda theta: gumbel_sigmoid(theta, 0.5, np.full((3, 3), 0.25)) + theta),
]


def test_first_gradients_are_distinct_arrays():
    # add's backward hands one upstream array to both parents
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    T.tsum(a + b).backward()
    assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])
    # an add hands its upstream array to one operand: along a chain of adds,
    # with broadcast and repeated operands, no two operands share an array
    weights = np.arange(6.0).reshape(2, 3)
    for op, x_uses in ((lambda x, one, y: (x + one) + y, 1),
                       (lambda x, one, y: y + (one + x), 1),
                       (lambda x, one, y: (x + y) + (x + one), 2)):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        one = Tensor(np.ones((1, 1)), requires_grad=True)
        y = Tensor(np.ones((2, 3)), requires_grad=True)
        T.tsum(T.mul(op(x, one, y), Tensor(weights))).backward()
        np.testing.assert_array_equal(one.grad, weights.sum(keepdims=True))
        np.testing.assert_array_equal(y.grad, weights)
        np.testing.assert_array_equal(x.grad, x_uses * weights)
        _assert_no_shared_gradients([x, one, y])
    # x + x keeps the upstream array once and adds it to itself: 2g
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    T.tsum(T.mul(x + x, Tensor(weights))).backward()
    np.testing.assert_array_equal(x.grad, 2 * weights)
    # every op with two differentiable operands hands each a distinct array,
    # also when its result feeds an add whose other operand is a leaf
    for shapes, op in _TWO_OPERAND_OPS:
        leaves = _leaves(*shapes)
        out = op(*leaves)
        w = np.arange(out.size, dtype=np.float64).reshape(out.shape) - 1.5
        T.tsum(T.mul(out, Tensor(w))).backward()
        _assert_no_shared_gradients(leaves)
        leaves = _leaves(*shapes, out.shape)
        out = op(*leaves[:-1]) + leaves[-1]
        T.tsum(T.mul(out, Tensor(w))).backward()
        _assert_no_shared_gradients(leaves)


def test_backward_releases_the_tape():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    w = Tensor(np.ones((3, 2)), requires_grad=True)

    def build():
        inner = T.tanh(T.matmul(x, w))
        return T.tsum(T.mul(inner, inner)), weakref.ref(inner._node), weakref.ref(inner.data)

    loss, node, value = build()
    # the mul's node links the inner node, and its closure saved the inner value
    assert node() is not None and value() is not None
    loss.backward()
    assert node() is None and value() is None
    assert loss.grad is None and loss._parents == ()
    assert x.grad.shape == (2, 3) and w.grad.shape == (3, 2)


_X = np.array([[0.5, -1.0], [2.0, 0.0], [1.0, 3.0]])
_ARCS = T.Arcs([0, 1, 2, 2], [0, 0, 1, 2], 3)


@pytest.mark.parametrize("op", [
    lambda h: T.tsum(h),
    lambda h: h + Tensor(np.ones((3, 2))),
    lambda h: T.mul(h, Tensor(np.ones((3, 2)))),
    lambda h: T.matmul(h, Tensor(np.ones((2, 2)))),
    lambda h: T.pick(h, 1),
    lambda h: T.gather_rows(h, _ARCS, "src"),
    lambda h: T.propagate(h, None, _ARCS, "sum"),
    lambda h: T.propagate(h, Tensor(np.ones((4, 1))), _ARCS, "max"),
    lambda h: T.softmax_rows(h),
    lambda h: T.edge_softmax(T.gather_rows(h, _ARCS, "dst"), _ARCS),
    lambda h: T.softmax_cross_entropy(h, [0, 1, 0], [True, True, False]),
    lambda h: T.sigmoid_bce(h, np.ones((3, 2)), [True, False, True]),
] + [lambda h, kind=kind: T.activation_apply(kind, h) for kind in T.ACTIVATIONS
     if kind not in ("none", "softplus")],
    ids=["tsum", "add", "mul_by_constant", "matmul_by_constant", "pick", "gather_rows",
         "propagate_sum", "propagate_max_fixed_coefficient", "softmax_rows", "edge_softmax",
         "softmax_cross_entropy", "sigmoid_bce"]
        + [k for k in T.ACTIVATIONS if k not in ("none", "softplus")])
def test_a_value_no_backward_reads_is_freed_by_the_forward(op):
    x = Tensor(_X, requires_grad=True)

    def build():
        h = x + x                           # add saves no value
        out = op(h)
        return (T.tsum(out) if out.size > 1 else out), weakref.ref(h.data)

    loss, value = build()
    assert value() is None
    loss.backward()
    assert x.grad.shape == _X.shape and np.isfinite(x.grad).all()


def _forward_memory(k, n):
    """Bytes the tape of a k-long chain of n-entry adds holds at the end of its forward."""
    x = Tensor(np.full(n, 0.5), requires_grad=True)
    c = Tensor(np.ones(n))
    tracemalloc.start()
    try:
        h = x
        for _ in range(k):
            h = h + c
        loss = T.tsum(h)
        del h
        held = tracemalloc.get_traced_memory()[0]
        loss.backward()
        return held
    finally:
        tracemalloc.stop()


def test_forward_memory_does_not_grow_with_a_chain_of_adds():
    n = 20_000
    short, long = (_forward_memory(k, n) for k in (8, 32))
    assert long - short <= 2 * 8 * n


def test_backward_of_a_loss_without_gradient_raises():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ValueError, match="no leaf that requires a gradient"):
        T.tsum(T.mul(x, x)).backward()
    store = ParameterStore()
    w = store.add("w", np.ones((2, 1)))
    with store.training():
        loss = T.tsum(T.matmul(Tensor(np.ones((1, 2))), w))
        with pytest.raises(ValueError, match="no leaf that requires a gradient"):
            loss.backward()
    assert w.grad is None


def test_a_tensor_without_a_node_reads_no_tape_and_refuses_one():
    out = T.tsum(T.mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])))
    assert (out.grad, out._parents, out._backward) == (None, (), None)
    for t, field, value in ((out, "grad", np.ones(1)), (out, "_backward", lambda g: None),
                            (out, "_parents", ()), (Tensor(1.0), "requires_grad", True)):
        with pytest.raises(RuntimeError, match=f"cannot set {field}: no gradient passes"):
            setattr(t, field, value)
        assert t._node is None


def test_a_released_tape_cannot_be_walked_again():
    x = Tensor([1.0, 2.0], requires_grad=True)
    shared = T.tanh(T.mul(x, Tensor(3.0)))
    loss = T.tsum(shared)
    loss.backward()
    grad = x.grad.copy()
    with pytest.raises(RuntimeError, match="released by an earlier backward"):
        loss.backward()
    with pytest.raises(RuntimeError, match="released by an earlier backward"):
        T.tsum(T.mul(shared, shared)).backward()
    np.testing.assert_array_equal(x.grad, grad)


def _backward_peak_above_forward(k, n):
    """Bytes the backward of a k-long chain of n-entry tanh nodes allocates above the forward's end."""
    x = Tensor(np.full(n, 0.5), requires_grad=True)
    tracemalloc.start()
    try:
        def chain():
            h = x
            for _ in range(k):
                h = T.tanh(h)
            return T.tsum(h)

        loss = chain()
        forward_end = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        return tracemalloc.get_traced_memory()[1] - forward_end
    finally:
        tracemalloc.stop()


def test_backward_peak_does_not_grow_with_the_tape():
    n = 20_000
    short, long = (_backward_peak_above_forward(k, n) for k in (8, 32))
    assert long - short <= 2 * 8 * n


@pytest.mark.parametrize("kind", ["relu", "leaky_relu", "relu6", "elu", "tanh"])
def test_an_activation_builds_its_output_without_a_full_size_temporary(kind):
    x = Tensor(np.random.default_rng(5).standard_normal((2000, 64)), requires_grad=True)
    tracemalloc.start()
    try:
        out = T.activation_apply(kind, x)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= out.data.nbytes
    assert peak - held <= out.data.nbytes // 8 + 64 * 1024      # a boolean mask at most


@pytest.mark.parametrize("slope", [0.2, 0.01, 1.0])
def test_leaky_relu_is_the_masked_select_bit_for_bit(slope):
    x = np.concatenate([np.random.default_rng(9).standard_normal(1000) * 10,
                        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, np.nan]])
    y = T.leaky_relu(Tensor(x), slope).data
    assert y.tobytes() == np.where(x > 0, x, slope * x).tobytes()
    assert T.leaky_relu(Tensor(-0.5), slope).data.shape == ()


@pytest.mark.parametrize("slope", [0.0, -0.1, 1.5])
def test_leaky_relu_rejects_a_slope_outside_0_1(slope):
    with pytest.raises(ValueError, match=r"slope must be in \(0, 1\]"):
        T.leaky_relu(Tensor([1.0]), slope)


def _split_sigmoid(x):
    """The logistic function in its boolean-mask split form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_is_the_split_form_bit_for_bit():
    """sigmoid, softplus's derivative and sigmoid_bce's backward share this function."""
    x = np.concatenate([np.random.default_rng(10).standard_normal(100_000) * 30,
                        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                         709.8, -709.8, 5e-324, -5e-324, 1e-310, -1e-310]])
    assert T._sigmoid_np(x).tobytes() == _split_sigmoid(x).tobytes()
    for v in (0.5, -0.5, -0.0):
        y = T._sigmoid_np(np.array(v))
        assert y.shape == () and y.tobytes() == _split_sigmoid(np.array(v)).tobytes()


def test_elu_of_a_large_input_does_not_overflow():
    x = np.array([1e3, 710.0, -1e3, 0.0, -0.0, np.inf])
    y = T.elu(Tensor(x)).data           # an overflow's RuntimeWarning fails the test
    assert y.tobytes() == np.array([1e3, 710.0, -1.0, 0.0, -0.0, np.inf]).tobytes()


def _activation_edges(seed):
    """Random values over a wide range, then signed zeros, infinities, NaNs of both signs,
    subnormals and the edges of exp's range."""
    return np.concatenate([np.random.default_rng(seed).standard_normal(200_000) * 30,
                           [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            1e-310, -1e-310, 1e-17, -1e-17, 709.8, -709.8, 745.2, -745.2]])


def test_elu_is_the_masked_select_form_bit_for_bit():
    """elu ends with max(x, expm1(min(0, x))), not a select of x where x > 0."""
    x = _activation_edges(11)
    ref = np.expm1(np.minimum(0.0, x))
    np.putmask(ref, x > 0, x)
    assert T.elu(Tensor(x)).data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("slope", [0.2, 0.01, 1.0])
def test_leaky_relu_derivative_is_the_where_form_bit_for_bit(slope):
    """The derivative indexes [slope, 1] by the mask instead of selecting with np.where."""
    x = _activation_edges(12)
    g = np.random.default_rng(13).standard_normal(x.size)
    with np.errstate(invalid="ignore"):             # the loss sums inf and -inf
        y, grad = _grad(lambda t: T.leaky_relu(t, slope), x, g)
    assert grad.tobytes() == (g * np.where(y > 0, 1.0, slope)).tobytes()


def test_sigmoid_numerator_is_the_masked_copy_bit_for_bit():
    """_sigmoid_np sets its numerator to 1 where x >= 0 by a max with the mask."""
    x = _activation_edges(14)
    e = np.exp(np.minimum(x, -x))
    d = e + 1.0
    np.copyto(e, 1.0, where=x >= 0)
    assert T._sigmoid_np(x).tobytes() == (e / d).tobytes()


def test_backward_closures_write_into_their_upstream_gradient():
    """Along relu -> mean propagate -> elu, each closure allocates at most what its
    gradient needs beyond the upstream array it owns: relu a boolean mask, elu one
    derivative, and the mean the reduced gradient and the reduction's block buffers
    (a gather buffer and an accumulator, which two blocks hold while one replaces the other)."""
    n, d = 2000, 64
    rng = np.random.default_rng(6)
    dst = np.sort(rng.integers(0, n, size=8 * n))
    arcs = T.Arcs(rng.integers(0, n, size=dst.size), dst, n)
    arcs.outgoing                               # built once per graph, on first use
    x = Tensor(np.random.default_rng(7).standard_normal((n, d)), requires_grad=True)
    r = T.relu(x)
    m = T.propagate(r, None, arcs, "mean")
    e = T.elu(m)
    loss = T.tsum(T.mul(e, Tensor(np.random.default_rng(8).standard_normal((n, d)))))
    array, block = n * d * 8, T._BLOCK_ENTRIES * 8
    budgets = {"relu": array // 8, "mean": array + 3 * block, "elu": array}
    peaks = {}
    for name, node in (("relu", r._node), ("mean", m._node), ("elu", e._node)):
        def measured(g, closure=node._backward, name=name):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            closure(g)
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
        node._backward = measured
    del r, m, e
    tracemalloc.start()
    try:
        loss.backward()
    finally:
        tracemalloc.stop()
    # the slack covers numpy's 64 KB casting buffers and small objects
    over = {k: peaks[k] - budgets[k] for k in budgets if peaks[k] > budgets[k] + 256 * 1024}
    assert len(peaks) == 3 and not over


@pytest.mark.parametrize("case", ["mean", "coefficient"])
def test_a_reduction_backward_holds_two_block_buffers(case):
    """A mean propagate's x gradient (``_diagonal_reduce``) and a sum's coefficient gradient
    (``_diagonal_dot``) each peak at the gradient they build plus two block buffers, reused
    by every block of keys: a gather buffer and an accumulator, or two gather buffers."""
    n, d, heads = 2000, 64, 4
    rng = np.random.default_rng(6)
    dst = np.sort(rng.integers(0, n, size=8 * n))
    arcs = T.Arcs(rng.integers(0, n, size=dst.size), dst, n)
    arcs.incoming, arcs.outgoing                # built once per graph, on first use
    if case == "mean":
        x = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        out, grad = T.propagate(x, None, arcs, "mean"), n * d * 8
    else:
        coeff = Tensor(rng.random((dst.size, heads)), requires_grad=True)
        out = T.propagate(Tensor(rng.standard_normal((n, d))), coeff, arcs, "sum")
        grad = dst.size * heads * 8
    loss = T.tsum(T.mul(out, Tensor(rng.standard_normal((n, d)))))
    node, peaks = out._node, []
    closure = node._backward

    def measured(g):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        closure(g)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)

    node._backward = measured
    del out
    tracemalloc.start()
    try:
        loss.backward()
    finally:
        tracemalloc.stop()
    # the slack covers small objects and the per-diagonal c x H head sums
    assert peaks[0] <= grad + 2 * T._BLOCK_ENTRIES * 8 + 32 * 1024


def test_a_closure_writing_into_its_upstream_array_leaves_the_other_operand_exact():
    """add hands its upstream array to one operand and a copy to the other, so an in-place
    closure on either side changes nothing the other reads; forward values stay as built."""
    xd = np.array([[0.5, -1.0, 2.0], [-0.25, 3.0, -2.0], [1.5, -0.5, 0.0], [-3.0, 0.75, 1.0]])
    w = np.arange(1.0, 13.0).reshape(4, 3) / 7.0
    arcs = T.Arcs([1, 2, 3, 0, 3], [0, 0, 1, 2, 2], 4)
    mean = np.zeros((4, 4))                     # out = mean @ h
    np.add.at(mean, (arcs.dst, arcs.src), 1.0)
    mean /= arcs.counts
    elu_slope = np.where(xd > 0, 1.0, np.exp(xd))
    cases = [
        (lambda h: T.relu(h) + h, (xd > 0) * w + w),
        (lambda h: h + T.elu(h), w + elu_slope * w),
        (lambda h: T.propagate(h, None, arcs, "mean") + h, mean.T @ w + w),
        (lambda h: h + h, 2 * w),
        (lambda h: T.elu(h) + T.elu(h), 2 * elu_slope * w),
    ]
    for op, expected in cases:
        x = Tensor(xd.copy(), requires_grad=True)
        out = op(x)
        before = out.data.copy()
        T.tsum(T.mul(out, Tensor(w))).backward()
        np.testing.assert_allclose(x.grad, expected, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(out.data, before)
        np.testing.assert_array_equal(x.data, xd)


def test_results_without_gradient_keep_no_tape(monkeypatch):
    x = Tensor(np.array([[0.5, -1.0], [2.0, 0.0], [1.0, 3.0]]))
    arcs = T.Arcs([0, 1, 2], [0, 0, 1], 3)
    reduced = []
    real_reduce = T._diagonal_reduce

    def spy(*args, **kwargs):
        out = real_reduce(*args, **kwargs)
        reduced.append(out[1])
        return out

    monkeypatch.setattr(T, "_diagonal_reduce", spy)
    results = [T.matmul(x, Tensor(np.ones((2, 2)))), T.add(x, x),
               T.mul(x, x), T.div(x, Tensor(np.ones((3, 2)))), T.tsum(x),
               T.pick(x, 1), T.softmax_rows(x), T.gather_rows(x, arcs, "src"),
               T.edge_softmax(x, arcs), T.block_diag(Tensor(np.ones((2, 1, 1)))),
               T.softmax_cross_entropy(x, [0, 1, 0], [True, True, False]),
               T.sigmoid_bce(x, np.ones((3, 2)), [True, False, True]),
               T.propagate(x, Tensor(np.ones((3, 1))), arcs, "max")]
    results += [T.activation_apply(kind, x) for kind in T.ACTIVATIONS]
    for out in results:
        assert not out.requires_grad and out._parents == () and out._backward is None
    # edge_softmax's max and sum, then propagate's max: no winners recorded
    assert reduced == [None, None, None]


def test_unary_ops_skip_the_derivative_without_gradient(monkeypatch):
    # a forward computes no derivative, with or without a gradient; each
    # op's backward computes one
    calls = []
    real_unary = T._unary

    def spy(a, value, derivative):
        def counted():
            calls.append(a)
            return derivative()
        return real_unary(a, value, counted)

    monkeypatch.setattr(T, "_unary", spy)
    ops = [fn for kind, fn in T.ACTIVATIONS.items() if kind != "none"]
    x = Tensor(np.array([[0.5, -1.0, 7.0]]))
    w = Tensor(x.data, requires_grad=True)
    outs = [op(t) for t in (x, w) for op in ops]
    assert calls == []
    for out in outs[len(ops):]:
        T.tsum(out).backward()
    assert calls == [w] * len(ops)


def test_frozen_leaves_keep_no_tape_and_get_no_gradient():
    store = ParameterStore()
    w = store.add("w", np.array([[1.0, -2.0], [0.5, 3.0]]))
    a = store.add("a", np.array([[2.0, 1.0], [-1.0, 0.5]]), group="a_micro")
    x = Tensor(np.array([[1.0, 1.0], [2.0, -1.0]]))
    with store.training(["a"]):
        assert not w.requires_grad and a.requires_grad
        h = T.relu(T.matmul(x, w))
        assert h._parents == () and h._backward is None
        y = T.mul(h, a)
        T.tsum(y).backward()
    assert w.requires_grad and w.grad is None
    np.testing.assert_array_equal(a.grad, h.data)


def test_a_backward_inside_frozen_gives_no_gradient_to_a_leaf_frozen_after_the_forward():
    store = ParameterStore()
    w = store.add("w", np.array([[1.0, -2.0]]))
    x = Tensor(np.array([[3.0, 0.5]]), requires_grad=True)
    loss = T.tsum(T.mul(w, x))                  # both leaves take a gradient here
    with store.training():
        loss.backward()
    assert w.grad is None
    np.testing.assert_array_equal(x.grad, w.data)


def test_training_restores_the_flags_when_the_block_raises():
    store = ParameterStore()
    w = store.add("w", np.ones((2, 2)))
    a = store.add("a", np.ones((1, 2)), group="a_micro")
    c = store.add("c", np.ones((1, 2)))
    c.requires_grad = False                     # already off: stays off, named or not
    with pytest.raises(RuntimeError, match="inside"):
        with store.training(["a", "c"]):
            assert not w.requires_grad and a.requires_grad and not c.requires_grad
            with store.training():
                assert not (w.requires_grad or a.requires_grad or c.requires_grad)
                raise RuntimeError("inside")
    assert w.requires_grad and a.requires_grad and not c.requires_grad
    with pytest.raises(KeyError, match="missing"):
        with store.training(["w", "missing"]):
            pass
    assert w.requires_grad and a.requires_grad


@pytest.mark.parametrize("op", [T.add, T.mul, T.div])
def test_only_a_size_one_operand_broadcasts(op):
    """A (1, d) row or (n, 1) column against (n, d) raises; a size-1 operand with no more
    axes than the other broadcasts, and its gradient sums the upstream gradient."""
    big = Tensor(np.ones((3, 2)))
    for other in (np.ones((1, 2)), np.ones((3, 1)), np.ones((3,)), np.ones((1, 1, 1))):
        for a, b in ((big, Tensor(other)), (Tensor(other), big)):
            with pytest.raises(ShapeError, match=op.__name__):
                op(a, b)
    for shape in ((), (1,), (1, 1)):
        one = Tensor(np.full(shape, 2.0), requires_grad=True)
        out = op(big, one)
        assert out.shape == (3, 2)
        T.tsum(out).backward()
        want = {"add": 6.0, "mul": 6.0, "div": -6.0 / 4.0}[op.__name__]
        np.testing.assert_array_equal(one.grad, np.full(shape, want))


def test_finite_difference_constant_gradient():
    assert finite_difference_check(T.tsum, np.array([1.0, -2.0, 0.5])) < 1e-10


def test_finite_difference_tanh_at_zero():
    err = finite_difference_check(lambda x: T.tsum(T.tanh(x)), np.zeros(4))
    assert err < 1e-8
    x = Tensor(np.zeros(4), requires_grad=True)
    T.tsum(T.tanh(x)).backward()
    np.testing.assert_allclose(x.grad, 1.0)


def test_finite_difference_rejects_non_finite_losses():
    """check_params fails loudly on a non-finite loss, at x or at a probe."""
    with pytest.raises(ValueError, match="non-finite loss$"):
        finite_difference_check(T.tsum, np.array([1.0, np.inf]))
    ones = Tensor(np.ones(2))
    with np.errstate(divide="ignore"), \
            pytest.raises(ValueError, match=r"non-finite loss probing x\[1\]"):
        finite_difference_check(lambda t: T.tsum(T.div(ones, t)), np.array([1.0, 1e-5]))


def test_checkpoint_roundtrip(tmp_path):
    store = ParameterStore()
    rng = np.random.default_rng(3)
    store.add("layer0/W", rng.standard_normal((3, 4)))
    store.add("controller/z", rng.standard_normal((1, 8)), group="a_micro")
    store.save(tmp_path / "ckpt", extra_meta={"step": 17})

    other = ParameterStore()
    for group in ("w", "a_micro"):
        for name in store.names(group):
            other.add(name, np.zeros(store[name].shape), group=group)
    extra = other.load(tmp_path / "ckpt")
    assert extra == {"step": 17}
    for name in store.names():
        np.testing.assert_array_equal(other[name].data, store[name].data)
    for group in ("w", "a_micro"):
        assert other.names(group) == store.names(group)


def _ckpt_store(shapes, start=0.0):
    store = ParameterStore()
    for name, shape in shapes.items():
        store.add(name, np.arange(start, start + np.prod(shape)).reshape(shape))
    return store


@pytest.mark.parametrize("registered, match", [
    ({"a": (2, 3)}, "names differ.*unknown.*'b'"),                          # extra in file
    ({"a": (2, 3), "b": (4,), "c": (1,)}, "names differ.*missing.*'c'"),    # missing in file
    ({"a": (2, 3), "b": (2, 2)}, "b has shape"),                            # after a matched
])
def test_checkpoint_load_rejects_mismatch(tmp_path, registered, match):
    _ckpt_store({"a": (2, 3), "b": (4,)}).save(tmp_path / "ckpt")
    target = _ckpt_store(registered, start=100.0)
    before = {n: t.data.copy() for n, t in target.items()}
    with pytest.raises(T.CheckpointError, match=match):
        target.load(tmp_path / "ckpt")
    for name, data in before.items():
        np.testing.assert_array_equal(target[name].data, data)


def test_checkpoint_load_rejects_short_file(tmp_path):
    _ckpt_store({"a": (2, 3), "b": (4,)}).save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "b.bin"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(T.CheckpointError, match="b.bin holds 3 values, expected 4"):
        _ckpt_store({"a": (2, 3), "b": (4,)}).load(tmp_path / "ckpt")


def test_checkpoint_load_rejects_a_checkpoint_that_names_no_layout(tmp_path):
    """A square map has one shape in both layouts: only the marker tells them apart."""
    _ckpt_store({"a": (2, 2)}).save(tmp_path / "ckpt")
    meta_path = tmp_path / "ckpt" / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta.pop("layout") == "in_out"
    meta_path.write_text(json.dumps(meta))
    target = _ckpt_store({"a": (2, 2)}, start=100.0)
    with pytest.raises(T.CheckpointError, match="weight layout None, expected 'in_out'"):
        target.load(tmp_path / "ckpt")
    np.testing.assert_array_equal(target["a"].data, [[100.0, 101.0], [102.0, 103.0]])


@given(st.lists(st.lists(st.floats(-50, 50), min_size=3, max_size=3), min_size=1, max_size=6))
def test_softmax_rows_is_distribution(rows):
    out = T.softmax_rows(Tensor(np.array(rows))).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
def test_add_commutes(a, b):
    n = min(len(a), len(b))
    x, y = np.array(a[:n]), np.array(b[:n])
    np.testing.assert_array_equal(T.add(Tensor(x), Tensor(y)).data,
                                  T.add(Tensor(y), Tensor(x)).data)


# -- segment kernels vs ufunc.at / per-arc loop references ------------------------
# The kernels must reproduce these references bit for bit, so every
# comparison is exact.

def _ref_scatter_add(values, idx, num_rows):
    acc = np.zeros((num_rows, values.shape[1]))
    np.add.at(acc, idx, values)
    return acc


def _ref_segment_max(values, segments, num_segments, g):
    """maximum.at forward; backward to the first row reaching each max, per column."""
    d = values.shape[1]
    y = np.full((num_segments, d), -np.inf)
    np.maximum.at(y, segments, values)
    y[np.bincount(segments, minlength=num_segments) == 0] = 0.0
    grad = np.zeros_like(values)
    for s in range(num_segments):
        for c in range(d):
            for r in range(len(values)):
                if segments[r] == s and values[r, c] == y[s, c]:
                    grad[r, c] += g[s, c]
                    break
    return y, grad


def _grad(op, values, g):
    """Forward value and the gradient of sum(op(x) * g) with respect to x."""
    x = Tensor(values, requires_grad=True)
    out = op(x)
    T.tsum(T.mul(out, Tensor(g))).backward()
    return out.data, x.grad


def _assert_same_bits(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


# small repeated values make max ties; mixed magnitudes make sums depend on order
_VALUES = st.one_of(st.sampled_from([-1.0, 0.0, -0.0, 2.0, 0.1, 1e16, -1e16]),
                    st.floats(-1e3, 1e3))


@st.composite
def _segment_case(draw):
    """Sorted segment ids with empty segments at the start, middle and end."""
    head = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    tail = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    counts = [0] + head + [0] + tail + [0]
    segments = np.repeat(np.arange(len(counts)), counts)
    d = draw(st.integers(1, 3))
    values = draw(arrays(np.float64, (len(segments), d), elements=_VALUES))
    g = draw(arrays(np.float64, (len(counts), d), elements=_VALUES))
    return values, segments, len(counts), g


@given(_segment_case())
def test_segment_sum_and_mean_match_add_at(case):
    values, segments, n, g = case
    y, grad = _grad(lambda x: _SUM(x, segments, n), values, g)
    np.testing.assert_array_equal(y, _ref_scatter_add(values, segments, n))
    np.testing.assert_array_equal(grad, g[segments])

    counts = np.maximum(np.bincount(segments, minlength=n), 1.0)[:, None]
    y, grad = _grad(lambda x: _MEAN(x, segments, n), values, g)
    np.testing.assert_array_equal(y, _ref_scatter_add(values, segments, n) / counts)
    np.testing.assert_array_equal(grad, (g / counts)[segments])


@given(_segment_case())
def test_segment_max_matches_maximum_at_and_first_winner(case):
    values, segments, n, g = case
    y, grad = _grad(lambda x: _MAX(x, segments, n), values, g)
    ref_y, ref_grad = _ref_segment_max(values, segments, n, g)
    np.testing.assert_array_equal(y, ref_y)
    np.testing.assert_array_equal(grad, ref_grad)


@st.composite
def _arcs(draw):
    """Sorted dst with zero-in-degree nodes at the start, middle and end, from unsorted
    src over a number of source rows that differs from the number of nodes."""
    head = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    tail = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    counts = [0] + head + [0] + tail + [0]
    dst = np.repeat(np.arange(len(counts)), counts)
    rows = draw(st.integers(1, 12).filter(lambda r: r != len(counts)))
    src = draw(st.lists(st.integers(0, rows - 1), min_size=len(dst), max_size=len(dst)))
    return T.Arcs(src, dst, len(counts), rows)


@given(_arcs(), st.integers(1, 3), st.data())
def test_gather_rows_backward_matches_add_at(arcs, d, data):
    for end, rows in [("src", arcs.num_rows), ("dst", arcs.num_nodes)]:
        ids = getattr(arcs, end)
        values = data.draw(arrays(np.float64, (rows, d), elements=_VALUES))
        g = data.draw(arrays(np.float64, (len(ids), d), elements=_VALUES))
        y, grad = _grad(lambda x: T.gather_rows(x, arcs, end), values, g)
        np.testing.assert_array_equal(y, values[ids])
        _assert_same_bits(grad, _ref_scatter_add(g, ids, rows))


# -- fused message passing vs a gather_rows -> mul -> ufunc.at reference --------------

def _ref_propagate(x, c, src, dst, n, agg, g):
    """Forward of gather -> mul -> add.at / maximum.at / first winner, and the gradients
    of sum(out * g). Returns the coefficient gradient with the sum of the absolute
    values of the terms it adds, which bounds the effect of summation order."""
    e, d = len(src), x.shape[1]
    wide = np.ones((e, d)) if c is None else np.repeat(c, d // c.shape[1], axis=1)
    msgs = x[src] * wide
    if agg == "max":
        y, gm = _ref_segment_max(msgs, dst, n, g)
    else:
        y, gm = _ref_scatter_add(msgs, dst, n), g[dst]
        if agg == "mean":
            counts = np.maximum(np.bincount(dst, minlength=n), 1.0)[:, None]
            y, gm = y / counts, (g / counts)[dst]
    gx = _ref_scatter_add(gm * wide, src, len(x))
    if c is None:
        return y, gx, None, None
    terms = (gm * x[src]).reshape(e, c.shape[1], d // c.shape[1])
    return y, gx, terms.sum(axis=2), np.abs(terms).sum(axis=2)


@st.composite
def _propagate_case(draw):
    """Sorted dst with zero-in-degree nodes at the start, middle and end; any src."""
    head = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    tail = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    counts = [0] + head + [0] + tail + [0]
    dst = np.repeat(np.arange(len(counts)), counts)
    rows = draw(st.integers(1, 4))
    src = np.array(draw(st.lists(st.integers(0, rows - 1), min_size=len(dst),
                                 max_size=len(dst))), dtype=np.int64)
    heads = draw(st.integers(1, 3))
    d = heads * draw(st.integers(1, 2))
    x = draw(arrays(np.float64, (rows, d), elements=_VALUES))
    c = draw(arrays(np.float64, (len(dst), heads), elements=_VALUES))
    g = draw(arrays(np.float64, (len(counts), d), elements=_VALUES))
    return x, c, src, dst, len(counts), g


def _check_propagate(agg, width, case):
    """T.propagate against the reference: exact bits for the value and the x gradient.

    It runs with x, the coefficient, or both requiring a gradient."""
    x, c, src, dst, n, g = case
    c = {"none": None, "E x 1": c[:, :1], "E x H": c}[width]
    y, gx, gc, bound = _ref_propagate(x, c, src, dst, n, agg, g)
    for need_x, need_c in [(True, True), (True, False), (False, True)]:
        if c is None and not need_x:
            continue
        xt = Tensor(x, requires_grad=need_x)
        ct = None if c is None else Tensor(c, requires_grad=need_c)
        out = T.propagate(xt, ct, T.Arcs(src, dst, n, len(x)), agg)
        T.tsum(T.mul(out, Tensor(g))).backward()
        _assert_same_bits(out.data, y)
        if need_x:
            _assert_same_bits(xt.grad, gx)
        else:
            assert xt.grad is None
        if c is not None and need_c:
            # the coefficient gradient adds a head's columns in another order
            assert (np.abs(ct.grad - gc) <= 1e-12 * bound).all()
        elif c is not None:
            assert ct.grad is None


_WIDTHS = pytest.mark.parametrize("width", ["none", "E x 1", "E x H"])
_AGGS = pytest.mark.parametrize("agg", ["sum", "mean", "max"])
# x entries per block of keys: one key per block, a few keys, and the default
_BLOCKS = (1, 2, 5, T._BLOCK_ENTRIES)


@_WIDTHS
@_AGGS
@given(case=_propagate_case())
def test_propagate_matches_gather_mul_reference(agg, width, case):
    # small blocks split the keys into several blocks and cut diagonals mid-block
    for entries in _BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_BLOCK_ENTRIES", entries)
            _check_propagate(agg, width, case)


def _skewed_case(seed):
    """A hub node with 40 in-arcs, nodes with one, and nodes with none; row 0 is the
    source of most arcs. Entries mix +-1e16, signed zeros and small values, so any
    change in the order of additions changes bits. Widths run from 1 to 4 columns."""
    rng = np.random.default_rng(seed)
    heads, d = [(1, 1), (2, 2), (1, 2), (2, 4)][seed % 4]
    counts = [0, 40, 1, 0, 1, 1, 3, 0, 1, 2, 0]
    dst = np.repeat(np.arange(len(counts)), counts)
    rows = 5
    src = np.where(rng.random(len(dst)) < 0.6, 0, rng.integers(1, rows, len(dst)))
    pool = np.array([1e16, -1e16, 1.0, -1.0, 0.1, 0.0, -0.0, 3.0])

    def draw(shape):
        return np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                        rng.standard_normal(shape))

    return draw((rows, d)), draw((len(dst), heads)), src, dst, len(counts), draw((len(counts), d))


@_WIDTHS
@_AGGS
@pytest.mark.parametrize("entries", _BLOCKS)
def test_propagate_matches_reference_on_degree_skewed_arcs(monkeypatch, agg, width, entries):
    monkeypatch.setattr(T, "_BLOCK_ENTRIES", entries)
    for seed in range(8):
        _check_propagate(agg, width, _skewed_case(seed))


def test_propagate_nan_max_stays_nan_and_routes_no_gradient():
    x = Tensor([[1.0, 2.0], [np.nan, 3.0], [0.5, -1.0]], requires_grad=True)
    c = Tensor([[1.0], [2.0], [1.0], [1.0]], requires_grad=True)
    out = T.propagate(x, c, T.Arcs([0, 1, 2, 0], [0, 0, 0, 1], 2, 3), "max")
    np.testing.assert_array_equal(out.data, [[np.nan, 6.0], [1.0, 2.0]])
    T.tsum(T.mul(out, Tensor([[1.0, 1.0], [1.0, 1.0]]))).backward()
    # node 0's column 0 is NaN: neither arc 0 nor arc 2 gets a gradient
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 2.0], [0.0, 0.0]])
    np.testing.assert_array_equal(c.grad, [[0.0], [3.0], [0.0], [3.0]])


# -- the edge-wise row dot vs a gather -> multiply -> head-sum reference ----------------

def _ref_edge_dot(a, b, src, dst, heads, g):
    """Forward of gather -> multiply -> head-sum with the sum of the absolute values of
    its terms, which bounds the effect of summation order; and the add.at gradients of
    sum(out * g)."""
    d = a.shape[1]
    terms = (a[dst] * b[src]).reshape(len(src), heads, d // heads)
    wide = np.repeat(g, d // heads, axis=1)
    return (terms.sum(axis=2), np.abs(terms).sum(axis=2),
            _ref_scatter_add(wide * b[src], dst, len(a)), _ref_scatter_add(wide * a[dst], src, len(b)))


@st.composite
def _edge_dot_case(draw):
    arcs = draw(_arcs())
    heads = draw(st.integers(1, 3))
    d = heads * draw(st.integers(1, 2))
    a = draw(arrays(np.float64, (arcs.num_nodes, d), elements=_VALUES))
    b = draw(arrays(np.float64, (arcs.num_rows, d), elements=_VALUES))
    g = draw(arrays(np.float64, (len(arcs.src), heads), elements=_VALUES))
    return a, b, arcs.src, arcs.dst, heads, g


def _check_edge_dot(case):
    """T.edge_dot against the reference: the value within 1e-12 of the terms' absolute
    sum, and exact bits for each gradient, with one or both operands needing it."""
    a, b, src, dst, heads, g = case
    y, bound, ga, gb = _ref_edge_dot(*case)
    for need_a, need_b in [(True, True), (True, False), (False, True)]:
        at, bt = Tensor(a, requires_grad=need_a), Tensor(b, requires_grad=need_b)
        out = T.edge_dot(at, bt, T.Arcs(src, dst, len(a), len(b)), heads)
        T.tsum(T.mul(out, Tensor(g))).backward()
        assert out.shape == y.shape and (np.abs(out.data - y) <= 1e-12 * bound).all()
        for t, need, ref in [(at, need_a, ga), (bt, need_b, gb)]:
            if need:
                _assert_same_bits(t.grad, ref)
            else:
                assert t.grad is None


@given(case=_edge_dot_case())
def test_edge_dot_matches_gather_mul_head_sum_reference(case):
    for entries in _BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_BLOCK_ENTRIES", entries)
            _check_edge_dot(case)


@pytest.mark.parametrize("entries", _BLOCKS)
def test_edge_dot_matches_reference_on_degree_skewed_arcs(monkeypatch, entries):
    monkeypatch.setattr(T, "_BLOCK_ENTRIES", entries)
    for seed in range(8):
        # 11 nodes, 5 source rows: per-node rows of a, per-row b, per-arc g
        b, g, src, dst, n, a = _skewed_case(seed)
        _check_edge_dot((a, b, src, dst, g.shape[1], g))


def test_edge_dot_rejects_bad_shapes():
    arcs = T.Arcs([0, 2, 1], [0, 0, 1], 2, 3)        # 2 nodes read 3 source rows
    assert T.edge_dot(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), arcs, 2).shape == (3, 2)
    for a, b, heads in [((3, 4), (3, 4), 2), ((2, 4), (2, 4), 2), ((2, 4), (3, 2), 2),
                        ((4,), (3, 4), 1), ((2, 4), (3, 4), 3), ((2, 4), (3, 4), 0),
                        ((2, 4), (3, 4), 8)]:
        with pytest.raises(ShapeError, match="edge_dot"):
            T.edge_dot(Tensor(np.ones(a)), Tensor(np.ones(b)), arcs, heads)


def test_arc_layouts_list_each_keys_arcs_in_arc_order():
    rng = np.random.default_rng(3)
    dst = np.sort(rng.integers(0, 30, 400))
    src = rng.integers(0, 7, 400)        # many arcs per source: an unstable sort reorders them
    arcs = T.Arcs(src, dst, 40, 7)
    for layout, key, other, keys in [(arcs.incoming, dst, src, 40), (arcs.outgoing, src, dst, 7)]:
        deg = np.bincount(key, minlength=keys)
        assert sorted(layout.keys.tolist()) == list(range(keys))
        np.testing.assert_array_equal(layout.degrees, deg[layout.keys])
        assert (np.diff(layout.degrees) <= 0).all()
        offsets = layout.offsets
        assert offsets[0] == 0 and offsets[-1] == len(key)
        np.testing.assert_array_equal(layout.rows, other[layout.arcs])
        for slot, k in enumerate(layout.keys):
            mine = [layout.arcs[offsets[r] + slot] for r in range(layout.degrees[slot])]
            np.testing.assert_array_equal(mine, np.flatnonzero(key == k))
        # diagonal r reaches exactly the keys with more than r arcs
        np.testing.assert_array_equal(np.diff(offsets),
                                      [(deg > r).sum() for r in range(deg.max())])


def test_arc_layouts_are_built_on_first_use():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    arcs = T.Arcs([0, 2, 1], [0, 0, 2], 3)
    assert "incoming" not in vars(arcs) and "outgoing" not in vars(arcs)
    out = T.propagate(x, None, arcs, "sum")
    layout = arcs.incoming
    assert "outgoing" not in vars(arcs)
    T.tsum(out).backward()
    assert arcs.incoming is layout and "outgoing" in vars(arcs)
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])


def test_propagate_rejects_bad_input():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="Arcs.*sorted"):
        T.Arcs([0, 1, 2], [1, 0, 1], 2, 3)
    for src, dst in [([0, 3], [0, 1]), ([-1, 0], [0, 1]), ([0, 1], [0, 2]), ([0, 1], [-1, 0])]:
        with pytest.raises(IndexError, match="Arcs"):
            T.Arcs(src, dst, 2, 3)
    arcs = T.Arcs([0, 1], [0, 1], 2, 3)
    with pytest.raises(ShapeError, match="propagate"):
        T.propagate(x, Tensor(np.ones((2, 3))), arcs, "max")
    with pytest.raises(ShapeError, match="propagate"):
        T.propagate(Tensor(np.zeros((2, 4))), None, arcs, "sum")   # arcs read 3 rows
    with pytest.raises(ValueError, match="unknown aggregation"):
        T.propagate(x, None, arcs, "min")


@pytest.mark.parametrize("op, const_first", [(T.mul, False), (T.mul, True), (T.div, False)])
def test_constant_operand_product_is_skipped(op, const_first):
    # the constant's own gradient product, g * x or -g * x / c**2, would overflow
    if op is T.mul:
        x, c = Tensor([[1e300, 2e300]], requires_grad=True), Tensor([[1e-250, 3e-250]])
    else:
        x, c = Tensor([[1e-100, 2e-100]], requires_grad=True), Tensor([[1e-200, 3e-200]])
    out = op(c, x) if const_first else op(x, c)
    with np.errstate(all="raise"):
        T.tsum(T.mul(out, Tensor(1e20))).backward()
    assert c.grad is None
    expect = 1e20 * c.data if op is T.mul else 1e20 / c.data
    np.testing.assert_array_equal(x.grad, expect)


# -- matmul's scalar operand: a product and the scalar that scales it as one node -------

def _with_edges(rng, shape, edges):
    """Normal entries, some of them replaced by the values ``edges``."""
    x = rng.standard_normal(shape)
    x.reshape(-1)[rng.choice(x.size, len(edges), replace=False)] = edges
    return x


@pytest.mark.parametrize("edges", [[0.0, -0.0, 5e-324, -5e-324],
                                   [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]],
                         ids=["finite", "inf"])
@pytest.mark.parametrize("p", [0.7, -1.3, [[0.4]]], ids=["0d", "negative", "1x1"])
def test_scaled_matmul_is_its_chain_bit_for_bit(p, edges):
    """matmul(a, b, p) against mul(matmul(a, b), p): the value and every gradient, for every
    set of operands frozen, with signed zeros, subnormals and, in one run, infinities (which
    make p's gradient NaN) in a, b and the upstream gradient."""
    rng = np.random.default_rng(50)
    a, b, g = (_with_edges(rng, shape, edges) for shape in ((6, 3), (3, 4), (6, 4)))

    def chain(a, b, p):
        return T.mul(T.matmul(a, b), p)

    for flags in itertools.product([True, False], repeat=3):
        if not any(flags):
            continue
        runs = []
        for op in (chain, T.matmul):
            leaves = [Tensor(v, requires_grad=f) for v, f in zip((a, b, p), flags)]
            with np.errstate(invalid="ignore"):             # inf * 0 and inf - inf
                out = op(*leaves)
                T.tsum(T.mul(out, Tensor(g))).backward()
            runs.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*runs):
            assert (got is None) == (want is None), flags
            assert got is None or got.tobytes() == want.tobytes(), flags


def test_scaled_matmul_saves_no_product():
    """The node keeps a, b and p, and no array of the result's shape; the chain it stands
    for keeps a @ b for p's gradient."""
    from test_blocks import _held_arrays, _tape_arrays
    rng = np.random.default_rng(60)
    a, b, p = (Tensor(v, requires_grad=True)
               for v in (rng.standard_normal((6, 3)), rng.standard_normal((3, 5)), 0.4))
    out = T.matmul(a, b, p)
    held = list(_held_arrays(out._backward, set()))
    assert all(any(h is t.data for t in (a, b, p)) for h in held)
    assert all(h.shape != out.shape for h in held)
    chain = T.mul(T.matmul(a, b), p)
    assert sum(h.shape == out.shape for h in _tape_arrays(chain._node)) == 1


def test_scaled_matmul_rejects_a_scalar_of_more_than_one_entry():
    a, b = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((3, 4)))
    for p in (np.ones(2), np.ones((1, 2)), np.ones((1, 1, 1))):
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(a, b, Tensor(p))


# -- the engine holds only what the model uses -----------------------------------------

_MODEL_MODULES = ("blocks", "controller", "router", "search", "graphs", "cli", "optim")
_OPERATORS = {"__add__": ast.Add, "__radd__": ast.Add, "__sub__": ast.Sub, "__rsub__": ast.Sub,
              "__mul__": ast.Mult, "__rmul__": ast.Mult, "__truediv__": ast.Div,
              "__matmul__": ast.MatMult}


def _parse(module):
    return ast.parse(pathlib.Path(T.__file__).with_name(f"{module}.py").read_text("utf-8"))


def _names_in(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _engine_uses(tree):
    """The engine names a model module uses, and the operators it applies to Tensors.

    A use is ``T.name`` or a name imported from ``.tensor``. An operand is a
    Tensor when it is an engine call's result, an expression over one, or a
    name the module binds to one."""
    imported = {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.module == "tensor" for a in n.names}
    uses = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "T"}
    uses |= _names_in(tree) & imported

    def engine_call(e):
        f = e.func if isinstance(e, ast.Call) else None
        return (isinstance(f, ast.Name) and f.id in imported) or (
            isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "T")

    def tensor(e):
        if isinstance(e, ast.BinOp):
            return tensor(e.left) or tensor(e.right)
        return engine_call(e) or (isinstance(e, ast.Name) and e.id in bound)

    bound = set()
    for _ in range(3):                  # names bound to names bound to a Tensor
        for n in ast.walk(tree):
            if isinstance(n, ast.Assign) and tensor(n.value):
                bound |= {t.id for t in n.targets if isinstance(t, ast.Name)}
    ops = {type(n.op) for n in ast.walk(tree)
           if isinstance(n, ast.BinOp) and (tensor(n.left) or tensor(n.right))}
    return uses, ops


def test_every_engine_callable_has_a_model_caller():
    engine = _parse("tensor")
    public = {n.name for n in engine.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
              and not n.name.startswith("_")}
    tensor_cls = next(n for n in engine.body if isinstance(n, ast.ClassDef) and n.name == "Tensor")
    # what each Tensor operator calls, e.g. + -> add
    operator_calls = {}
    for m in tensor_cls.body:
        if isinstance(m, ast.FunctionDef) and m.name in _OPERATORS:
            operator_calls.setdefault(_OPERATORS[m.name], set()).update(_names_in(m))
    # what each module-level function and table names, e.g. ACTIVATIONS -> relu
    inner = {n.name: _names_in(n) for n in engine.body if isinstance(n, ast.FunctionDef)}
    inner.update({t.id: _names_in(n.value) for n in engine.body if isinstance(n, ast.Assign)
                  for t in n.targets if isinstance(t, ast.Name)})
    called = set()
    for module in _MODEL_MODULES:
        uses, ops = _engine_uses(_parse(module))
        called |= uses
        for op in ops:
            called |= operator_calls.get(op, set())
    frontier = set(called)
    while frontier:
        frontier = set().union(*(inner.get(name, set()) for name in frontier)) - called
        called |= frontier
    assert sorted(public - called) == []
