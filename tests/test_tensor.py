import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from gnasforge import tensor as T
from gnasforge.tensor import Tensor, ParameterStore, ShapeError
from gnasforge.gradcheck import finite_difference_check


def test_matmul_identity():
    x = np.arange(12.0).reshape(3, 4)
    out = T.matmul(Tensor(np.eye(3)), Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_segment_sum_direct():
    out = T.segment_sum(Tensor([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 0]), 1)
    np.testing.assert_array_equal(out.data, [[4.0, 6.0]])


def _over_rows(agg):
    """T.propagate with ``src = arange(E)`` and no coefficient: row e is arc e's message."""
    def op(values, segments, num_segments):
        return T.propagate(values, None, np.arange(len(segments)), segments, num_segments, agg)
    return op


_MEAN, _MAX = _over_rows("mean"), _over_rows("max")


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
    combined = grad_of(lambda x: T.scale(f(x), a) + T.scale(g(x), b))
    np.testing.assert_allclose(combined, a * grad_of(f) + b * grad_of(g), atol=1e-10)


def test_segment_mean_matches_sum_over_counts():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((6, 3))
    seg = np.array([0, 0, 1, 1, 1, 3])   # segment 2 is empty
    mean = _MEAN(Tensor(vals), seg, 4).data
    sums = T.segment_sum(Tensor(vals), seg, 4).data
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
    with pytest.raises(ValueError, match="propagate.*sorted"):
        _MAX(Tensor(np.zeros((3, 2))), np.array([0, 1, 0]), 2)


@pytest.mark.parametrize("op, name", [
    pytest.param(T.segment_sum, "segment_sum", id="segment_sum"),
    pytest.param(_MEAN, "propagate", id="segment_mean"),
    pytest.param(_MAX, "propagate", id="segment_max"),
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


def test_gather_out_of_range():
    with pytest.raises(IndexError):
        T.gather_rows(Tensor(np.zeros((2, 2))), np.array([2]))


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


def test_row_vector_broadcast():
    row = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    big = Tensor(np.ones((3, 2)))
    T.tsum(T.add(big, row)).backward()
    np.testing.assert_array_equal(row.grad, [[3.0, 3.0]])


def test_finite_difference_constant_gradient():
    assert finite_difference_check(T.tsum, np.array([1.0, -2.0, 0.5])) < 1e-10


def test_finite_difference_tanh_at_zero():
    err = finite_difference_check(lambda x: T.tsum(T.tanh(x)), np.zeros(4))
    assert err < 1e-8
    x = Tensor(np.zeros(4), requires_grad=True)
    T.tsum(T.tanh(x)).backward()
    np.testing.assert_allclose(x.grad, 1.0)


def test_detach_blocks_gradient():
    x = Tensor([2.0], requires_grad=True)
    y = T.mul(x, x).detach()
    loss = T.tsum(T.mul(y, x))
    loss.backward()
    np.testing.assert_allclose(x.grad, [4.0])   # only the attached factor


def test_checkpoint_roundtrip(tmp_path):
    store = ParameterStore()
    rng = np.random.default_rng(3)
    store.add("layer0/W", rng.standard_normal((3, 4)))
    store.add("controller/z", rng.standard_normal((1, 8)), group="a_micro")
    store.save(tmp_path / "ckpt", extra_meta={"step": 17})

    other = ParameterStore()
    for name in store.names():
        other.add(name, np.zeros(store[name].shape), group=store.group_of(name))
    extra = other.load(tmp_path / "ckpt")
    assert extra == {"step": 17}
    for name in store.names():
        np.testing.assert_array_equal(other[name].data, store[name].data)
        assert other.group_of(name) == store.group_of(name)


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
    y, grad = _grad(lambda x: T.segment_sum(x, segments, n), values, g)
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


@given(st.integers(1, 6).flatmap(lambda rows: st.tuples(
    st.just(rows),
    st.lists(st.integers(0, rows - 1), min_size=0, max_size=12),
    st.integers(1, 3))), st.data())
def test_gather_rows_backward_matches_add_at(shape, data):
    rows, idx, d = shape
    idx = np.array(idx, dtype=np.int64)
    values = data.draw(arrays(np.float64, (rows, d), elements=_VALUES))
    g = data.draw(arrays(np.float64, (len(idx), d), elements=_VALUES))
    y, grad = _grad(lambda x: T.gather_rows(x, idx), values, g)
    np.testing.assert_array_equal(y, values[idx])
    np.testing.assert_array_equal(grad, _ref_scatter_add(g, idx, rows))


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


def _assert_same_bits(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("width", ["none", "E x 1", "E x H"])
@pytest.mark.parametrize("agg", ["sum", "mean", "max"])
@given(case=_propagate_case())
def test_propagate_matches_gather_mul_reference(agg, width, case):
    x, c, src, dst, n, g = case
    c = {"none": None, "E x 1": c[:, :1], "E x H": c}[width]
    xt = Tensor(x, requires_grad=True)
    ct = None if c is None else Tensor(c, requires_grad=True)
    out = T.propagate(xt, ct, src, dst, n, agg)
    T.tsum(T.mul(out, Tensor(g))).backward()
    y, gx, gc, bound = _ref_propagate(x, c, src, dst, n, agg, g)
    _assert_same_bits(out.data, y)
    _assert_same_bits(xt.grad, gx)
    if c is not None:
        # the coefficient gradient adds a head's columns in another order
        assert (np.abs(ct.grad - gc) <= 1e-12 * bound).all()


def test_propagate_rejects_bad_input():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="propagate.*sorted"):
        T.propagate(x, None, [0, 1, 2], [1, 0, 1], 2, "sum")
    for src, dst in [([0, 3], [0, 1]), ([-1, 0], [0, 1]), ([0, 1], [0, 2]), ([0, 1], [-1, 0])]:
        with pytest.raises(IndexError, match="propagate"):
            T.propagate(x, None, src, dst, 2, "mean")
    with pytest.raises(ShapeError, match="propagate"):
        T.propagate(x, Tensor(np.ones((2, 3))), [0, 1], [0, 1], 2, "max")
    with pytest.raises(ValueError, match="unknown aggregation"):
        T.propagate(x, None, [0, 1], [0, 1], 2, "min")


@pytest.mark.parametrize("op, const_first", [(T.mul, False), (T.mul, True), (T.div, False)])
def test_constant_operand_product_is_skipped(op, const_first):
    # the constant's own gradient product, g * x or -g * x / c**2, would overflow
    if op is T.mul:
        x, c = Tensor([[1e300, 2e300]], requires_grad=True), Tensor([[1e-250, 3e-250]])
    else:
        x, c = Tensor([[1e-100, 2e-100]], requires_grad=True), Tensor([[1e-200, 3e-200]])
    out = op(c, x) if const_first else op(x, c)
    with np.errstate(all="raise"):
        T.tsum(T.scale(out, 1e20)).backward()
    assert c.grad is None
    expect = 1e20 * c.data if op is T.mul else 1e20 / c.data
    np.testing.assert_array_equal(x.grad, expect)
