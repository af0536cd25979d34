import tracemalloc

import numpy as np
import pytest

from gnasforge.tensor import ParameterStore
from gnasforge.optim import Adam


def make_store(value=1.0):
    store = ParameterStore()
    store.add("p", np.array([value]))
    return store


def test_first_step_delta():
    store = make_store(0.0)
    opt = Adam(store, ["p"], lr=0.001)
    opt.step({"p": np.array([1.0])})
    # m_hat = v_hat = 1 after bias correction; delta = -lr / (1 + eps)
    expected = -0.001 * (1.0 / (1.0 + 1e-8))
    np.testing.assert_allclose(store["p"].data, [expected], rtol=0, atol=1e-18)


def test_zero_gradient_keeps_parameters():
    store = make_store(3.5)
    opt = Adam(store, ["p"], lr=0.01)
    opt.step({"p": np.array([0.0])})
    np.testing.assert_array_equal(store["p"].data, [3.5])


def test_three_step_hand_trace():
    # independent straight-line trace of Adam on scalar p=1 with g=p per step
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p, m, v = 1.0, 0.0, 0.0
    trace = []
    for t in range(1, 4):
        g = p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(p)

    store = make_store(1.0)
    opt = Adam(store, ["p"], lr=lr)
    for t in range(3):
        opt.step({"p": store["p"].data.copy()})
        np.testing.assert_allclose(store["p"].data, [trace[t]], rtol=0, atol=1e-12)


def test_weight_decay_folded_into_gradient():
    store = make_store(2.0)
    plain = make_store(2.0)
    wd = Adam(store, ["p"], lr=0.001, weight_decay=0.5)
    ref = Adam(plain, ["p"], lr=0.001)
    wd.step({"p": np.array([1.0])})
    ref.step({"p": np.array([1.0 + 0.5 * 2.0])})
    np.testing.assert_array_equal(store["p"].data, plain["p"].data)


def test_missing_gradient_freezes_parameter_and_state():
    store = ParameterStore()
    store.add("a", np.array([1.0]))
    store.add("b", np.array([2.0]))
    opt = Adam(store, ["a", "b"], lr=0.1)
    opt.step({"a": np.array([1.0])})
    np.testing.assert_array_equal(store["b"].data, [2.0])
    assert opt.state["b"]["t"] == 0
    assert opt.state["a"]["t"] == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_raises_before_any_write(bad):
    store = ParameterStore()
    store.add("a", np.array([1.0, 2.0]))
    store.add("b", np.array([3.0, 4.0]))
    opt = Adam(store, ["a", "b"], lr=0.1, weight_decay=0.01)
    opt.step({"a": np.array([0.5, -0.5]), "b": np.array([1.0, 1.0])})
    before = {n: (store[n].data.copy(), opt.state[n]["m"].copy(), opt.state[n]["v"].copy(),
                  opt.state[n]["t"]) for n in ("a", "b")}
    # "a" comes first and is finite: it must not be updated before "b" is checked
    with pytest.raises(ValueError, match="non-finite gradient for parameter 'b'"):
        opt.step({"a": np.array([0.5, -0.5]), "b": np.array([1.0, bad])})
    for n, (p, m, v, t) in before.items():
        np.testing.assert_array_equal(store[n].data, p)
        np.testing.assert_array_equal(opt.state[n]["m"], m)
        np.testing.assert_array_equal(opt.state[n]["v"], v)
        assert opt.state[n]["t"] == t


def test_non_finite_gradient_of_an_unstepped_name_is_ignored():
    store = make_store(1.0)
    opt = Adam(store, ["p"], lr=0.1)
    opt.step({"p": np.array([1.0]), "other": np.array([np.nan])})
    assert opt.state["p"]["t"] == 1


def test_step_is_deterministic():
    runs = []
    for _ in range(2):
        store = make_store(1.0)
        opt = Adam(store, ["p"], lr=0.05, weight_decay=1e-4)
        for t in range(5):
            opt.step({"p": np.array([0.3 * (t + 1)])})
        runs.append(store["p"].data.copy())
    assert runs[0].tobytes() == runs[1].tobytes()


def test_step_rounds_as_the_textbook_expressions():
    rng = np.random.default_rng(5)
    store = ParameterStore()
    store.add("w", rng.standard_normal((4, 3)))
    store.add("s", np.array(0.7))
    opt = Adam(store, ["w", "s"], lr=0.01, weight_decay=5e-4)
    ref = {n: (store[n].data.copy(), 0.0, 0.0) for n in ("w", "s")}
    b1, b2 = 0.9, 0.999
    for t in range(1, 5):
        grads = {"w": rng.standard_normal((4, 3)), "s": np.array(rng.standard_normal())}
        opt.step(grads)
        for n, (p, m, v) in ref.items():
            g = grads[n] + 5e-4 * p
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            p = p - 0.01 * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + 1e-8)
            ref[n] = (p, m, v)
            np.testing.assert_array_equal(store[n].data, p)
            np.testing.assert_array_equal(opt.state[n]["m"], m)
            np.testing.assert_array_equal(opt.state[n]["v"], v)


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4, 1e-8])
def test_the_sign_of_a_zero_gradient_changes_no_step(weight_decay):
    """+0.0 and -0.0 gradient entries give the same moments and parameters, bit for bit.

    m starts at +0.0, and +0.0 + (-0.0) is +0.0; v adds g * g >= +0.0. So
    backward may hand Adam a zero of either sign.
    """
    start = np.array([0.0, -0.0, 1.5, -2.0, 0.0, -0.0])
    steps = [np.array([0.0, 0.0, 0.0, 0.0, 0.3, -0.7]),     # a zero on every kind of entry
             np.array([0.2, -0.4, 0.0, 1.0, 0.0, 0.0]),
             np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.1])]     # zeros after a nonzero, too
    runs = []
    for zero in (0.0, -0.0):
        store = ParameterStore()
        store.add("p", start)
        opt = Adam(store, ["p"], lr=0.01, weight_decay=weight_decay)
        for g in steps:
            g = np.where(g == 0.0, zero, g)
            assert np.signbit(g[g == 0.0]).all() == np.signbit(zero)
            opt.step({"p": g})
        st = opt.state["p"]
        runs.append((store["p"].data.tobytes(), st["m"].tobytes(), st["v"].tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_a_step_allocates_two_arrays_of_the_leaf_size(weight_decay):
    store = ParameterStore()
    store.add("w", np.random.default_rng(6).standard_normal((500, 200)))
    opt = Adam(store, ["w"], lr=0.01, weight_decay=weight_decay)
    grads = {"w": np.random.default_rng(7).standard_normal((500, 200))}
    opt.step(grads)
    tracemalloc.start()
    try:
        opt.step(grads)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    leaf = store["w"].data.nbytes
    assert held < leaf // 8
    assert peak <= 2 * leaf + 64 * 1024
