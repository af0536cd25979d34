import numpy as np
import pytest

from gnasforge.tensor import ParameterStore, Tensor
from gnasforge.controller import Controller, add_noise, extract_indices


HEADS = {(0, "attention"): 7, (0, "heads"): 5, (1, "attention"): 7}


def make_controller(hidden=16, seed=0):
    store = ParameterStore()
    ctrl = Controller(store, HEADS, np.random.default_rng(seed), hidden=hidden)
    return store, ctrl


def test_output_shapes_match_candidate_counts():
    _, ctrl = make_controller()
    probs = ctrl.forward()
    assert set(probs) == set(HEADS)
    for key, size in HEADS.items():
        assert probs[key].data.shape == (1, size)


def test_outputs_are_probability_vectors():
    _, ctrl = make_controller(seed=3)
    for p in ctrl.forward().values():
        assert (p.data > 0).all()
        np.testing.assert_allclose(p.data.sum(), 1.0, atol=1e-12)


def test_parameter_groups_are_all_a_micro():
    store, _ = make_controller()
    for name in store.names():
        assert name.startswith("controller/")
        assert name in store.names("a_micro")


def test_forward_is_deterministic():
    _, ctrl = make_controller(seed=5)
    a = {k: v.data.copy() for k, v in ctrl.forward().items()}
    b = ctrl.forward()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k].data)


def test_noise_preserves_normalization():
    _, ctrl = make_controller(seed=7)
    pbar = ctrl.forward()
    rng = np.random.default_rng(1)
    noisy = add_noise(pbar, tau=0.8, uniforms={k: rng.random(p.data.shape)
                                               for k, p in sorted(pbar.items())})
    for p in noisy.values():
        np.testing.assert_allclose(p.data.sum(), 1.0, atol=1e-12)
        assert (p.data > 0).all()


def test_zero_tau_returns_prior_exactly():
    _, ctrl = make_controller(seed=9)
    pbar = ctrl.forward()
    noisy = add_noise(pbar, tau=0.0, uniforms={k: np.full(n, 0.5) for k, n in HEADS.items()})
    for k in pbar:
        assert noisy[k] is pbar[k]


def test_negative_tau_rejected():
    _, ctrl = make_controller()
    with pytest.raises(ValueError):
        add_noise(ctrl.forward(), tau=-0.1, uniforms={k: np.zeros(n) for k, n in HEADS.items()})


def test_noise_formula_hand_example():
    # (p + tau*u) / sum(p + tau*u) on a two-entry vector: p=[0.5, 0.5],
    # tau=0.5, u=[0.2, 0.6] -> numer=[0.6, 0.8] -> [0.6/1.4, 0.8/1.4]
    pbar = {("x",): Tensor(np.array([[0.5, 0.5]]))}
    noisy = add_noise(pbar, tau=0.5, uniforms={("x",): np.array([0.2, 0.6])})
    np.testing.assert_allclose(noisy[("x",)].data, [[0.6 / 1.4, 0.8 / 1.4]], atol=1e-15)


def test_noise_gradient_flows_to_prior():
    p = Tensor(np.array([[0.3, 0.7]]), requires_grad=True)
    noisy = add_noise({("k",): p}, tau=0.4, uniforms={("k",): np.array([0.9, 0.1])})
    from gnasforge import tensor as T
    T.pick(noisy[("k",)], 1).backward()
    assert p.grad is not None and np.abs(p.grad).sum() > 0


def _one(vector):
    return {"k": Tensor(np.array([vector], dtype=float).reshape(1, -1))}


def test_extract_indices_argmax_with_tie_break():
    probs = {
        "a": Tensor(np.array([[0.2, 0.5, 0.3]])),
        "b": Tensor(np.array([[0.5, 0.5]])),
    }
    assert extract_indices(probs) == {"a": 1, "b": 0}


def test_extract_indices_argmax():
    assert extract_indices(_one([0.1, 0.7, 0.2])) == {"k": 1}


def test_extract_indices_tie_breaks_low():
    assert extract_indices(_one([0.5, 0.5])) == {"k": 0}


def test_extract_indices_degenerate_one_hot():
    assert extract_indices(_one([0.0, 0.0, 1.0, 0.0])) == {"k": 2}


def test_extract_indices_rejects_bad_input():
    for bad in ([], [0.5, 0.9], [1.2, -0.2], [np.nan, 1.0], [0.5, 0.5 + 1e-8]):
        with pytest.raises(ValueError, match="not a probability vector"):
            extract_indices({"ok": Tensor(np.array([[0.5, 0.5]])), **_one(bad)})


def test_extract_indices_rejects_nan_controller_output():
    """A NaN controller output raises instead of silently picking candidate 0."""
    _, ctrl = make_controller(seed=4)
    ctrl.z.data[0, 0] = np.nan
    with pytest.raises(ValueError, match="not a probability vector"):
        extract_indices(ctrl.forward())
