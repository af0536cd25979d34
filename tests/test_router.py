import warnings

import numpy as np
import pytest

from gnasforge import tensor as T
from gnasforge.tensor import ParameterStore, Tensor
from gnasforge.router import Router, gumbel_sigmoid, sample_gumbel, GATE_EPS
from gnasforge.blocks import BlockChoice
from gnasforge.search import Genotype, GenotypeNet, SearchConfig, Supernet, TAU_MIN, temp_anneal


def make_router(num_blocks=3, dim=4, seed=0):
    store = ParameterStore()
    router = Router(store, [dim] * num_blocks, [dim] * num_blocks,
                    np.random.default_rng(seed))
    return store, router


def route_all(router, inputs, outputs, gates=None):
    """Route every block through ``route_step``, as the supernet forward does."""
    return [router.route_step(j, inputs, o, gates) for j, o in enumerate(outputs)]


def binary_gates(router):
    """Constant 0/1 gates that keep exactly ``derive_binary_routing()``."""
    g = np.zeros((router.num_blocks, router.num_blocks))
    for (i, j) in router.derive_binary_routing():
        g[i, j] = 1.0
    return Tensor(g)


# -- temperature schedule ----------------------------------------------------

def test_exp_schedule_flat_then_decaying():
    s = SearchConfig(schedule_kind="exp", alpha=1.0, e_start=80, max_iter=400)
    assert temp_anneal(0, s) == 1.0
    assert temp_anneal(79, s) == 1.0
    assert temp_anneal(80, s) == 1.0          # exp(0)
    np.testing.assert_allclose(temp_anneal(81, s), np.exp(-1.0 / 400.0), atol=1e-15)
    np.testing.assert_allclose(temp_anneal(399, s), np.exp(-319.0 / 400.0), atol=1e-15)


def test_exp_schedule_monotone_after_start():
    s = SearchConfig(schedule_kind="exp")
    taus = [temp_anneal(e, s) for e in range(80, 400)]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_cosine_exp_schedule_piecewise():
    s = SearchConfig(schedule_kind="cosine_exp", e_cos=100, e_exp=300, max_iter=400, alpha=1.0)
    assert temp_anneal(50, s) == 1.0
    # omega = pi / (2 * (e_exp - e_cos)) = pi / 400, so tau(200) = cos(100 * omega)
    np.testing.assert_allclose(temp_anneal(200, s), np.cos(np.pi / 4.0), atol=1e-15)
    # discontinuity: jumps back up to exp(0)=1 at the exponential handoff
    assert temp_anneal(300, s) == 1.0
    np.testing.assert_allclose(temp_anneal(301, s), np.exp(-1.0 / 400.0), atol=1e-15)


def test_schedule_clamps_to_floor_and_ceiling():
    s = SearchConfig(schedule_kind="exp", alpha=100.0, e_start=0, max_iter=10)
    assert temp_anneal(10_000, s) == TAU_MIN
    assert temp_anneal(0, s) == 1.0


def test_unknown_schedule_kind_rejected():
    with pytest.raises(ValueError):
        SearchConfig(schedule_kind="linear")


# -- gumbel sigmoid -----------------------------------------------------------

def test_gumbel_noise_matches_formula():
    class FakeRng:
        def random(self, size=None):
            return 0.3

    np.testing.assert_allclose(sample_gumbel(FakeRng()), -np.log(-np.log(0.3)), atol=1e-15)


def test_gumbel_sigmoid_hand_value():
    # sigmoid((theta + g) / tau) with theta=0.5, g=-0.25, tau=0.5 -> sigmoid(0.5)
    out = gumbel_sigmoid(Tensor(0.5), 0.5, -0.25)
    np.testing.assert_allclose(out.item(), 1.0 / (1.0 + np.exp(-0.5)), atol=1e-15)


def test_gumbel_sigmoid_stays_open_interval():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = gumbel_sigmoid(Tensor(rng.standard_normal()), 0.05, sample_gumbel(rng)).item()
        assert 0.0 < v < 1.0


def test_saturated_gates_clip_and_keep_the_unclipped_gradient(monkeypatch):
    theta = Tensor([[40.0, -40.0], [1e-3, -2e-3]], requires_grad=True)
    built, init = [], Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self, self.data.copy()))

    monkeypatch.setattr(Tensor, "__init__", recording)
    gate = gumbel_sigmoid(theta, TAU_MIN, 0.0)
    monkeypatch.undo()
    for t, data in built:                  # no node's value changed after it was built
        np.testing.assert_array_equal(t.data, data)
    np.testing.assert_array_equal(gate.data[0], [1.0 - GATE_EPS, GATE_EPS])
    T.tsum(gate).backward()
    # y (1 - y) / tau of the unclipped y: exactly 0 where sigmoid(+-40000) rounds to 1 or 0
    y = np.array([1.0 / (1.0 + np.exp(-1.0)), np.exp(-2.0) / (1.0 + np.exp(-2.0))])
    np.testing.assert_array_equal(theta.grad[0], [0.0, 0.0])
    np.testing.assert_allclose(theta.grad[1], y * (1.0 - y) / TAU_MIN, rtol=1e-14)


def test_gumbel_sigmoid_at_a_tiny_tau_stays_open_with_a_finite_gradient():
    theta = Tensor([3.0, -3.0, 1e-12, 0.0], requires_grad=True)
    gate = gumbel_sigmoid(theta, 1e-9, 0.0)
    assert ((gate.data > 0.0) & (gate.data < 1.0)).all()
    T.tsum(gate).backward()
    assert np.isfinite(theta.grad).all()


def test_sharpening_with_lower_tau():
    # positive logit drifts toward 1 as tau -> 0
    vals = [gumbel_sigmoid(Tensor(0.7), tau, 0.0).item() for tau in (1.0, 0.5, 0.1)]
    assert vals[0] < vals[1] < vals[2] < 1.0


# -- router ----------------------------------------------------------------

def test_theta_registered_as_a_macro_and_zero():
    store, router = make_router()
    assert "router/theta" in store.names("a_macro")
    np.testing.assert_array_equal(router.theta.data, 0.0)
    for (i, j) in router.pairs():
        assert f"router/shortcut/{i}_{j}/W" in store.names("w")


def test_pairs_cover_upper_triangle_only():
    _, router = make_router(num_blocks=3)
    assert router.pairs() == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_gate_expectations_match_sigmoid_of_theta():
    _, router = make_router()
    router.theta.data[0, 2] = 1.5
    router.theta.data[1, 1] = -0.5
    gates = router.gate_expectations()
    np.testing.assert_allclose(gates[(0, 2)], 1.0 / (1.0 + np.exp(-1.5)))
    np.testing.assert_allclose(gates[(1, 1)], 1.0 / (1.0 + np.exp(0.5)))
    assert gates[(0, 0)] == 0.5
    assert all(0.0 < v < 1.0 for v in gates.values())


def test_gate_expectations_saturate_without_overflow():
    """exp(800) overflows in 1 / (1 + exp(-theta)); the engine's sigmoid never takes it."""
    _, router = make_router()
    router.theta.data[0, 1] = -800.0
    router.theta.data[1, 2] = 800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gates = router.gate_expectations()
    assert gates[(0, 1)] == 0.0 and gates[(1, 2)] == 1.0


def test_binary_routing_keeps_strictly_positive_theta():
    _, router = make_router()
    router.theta.data[0, 1] = 2.0
    router.theta.data[2, 2] = 1e-12
    # zero entries (including the untouched diagonal) are excluded
    assert router.derive_binary_routing() == [(0, 1), (2, 2)]


def test_fixed_shortcuts_route_in_binary_mode_only():
    store = ParameterStore()
    router = Router(store, [3, 4], [4, 4], np.random.default_rng(0), shortcuts=[(1, 1), (0, 1)])
    assert router.theta is None and "router/theta" not in store.names()
    assert store.names() == ["router/shortcut/1_1/W", "router/shortcut/0_1/W"]
    assert router.pairs() == [(1, 1), (0, 1)]
    rng = np.random.default_rng(1)
    inputs = [Tensor(rng.standard_normal((2, d))) for d in (3, 4)]
    outputs = [Tensor(rng.standard_normal((2, 4))) for _ in range(2)]
    routed = route_all(router, inputs, outputs)
    np.testing.assert_array_equal(routed[0].data, outputs[0].data)
    w11, w01 = router.shortcut(1, 1).data, router.shortcut(0, 1).data
    want = outputs[1].data + inputs[1].data @ w11 + inputs[0].data @ w01
    np.testing.assert_array_equal(routed[1].data, want)   # added in shortcut order
    for noise in (router.sample_noise(rng), None):
        with pytest.raises(ValueError, match="without theta"):
            router.gates(1.0, noise)


def test_a_router_without_theta_answers_as_gates_does():
    # the supernet's router without the macro search owns no shortcut: no gates, no routing
    config = SearchConfig(num_layers=2, hidden_grid=(8,), head_counts=(1,), router_enabled=False)
    router = Supernet(config, 4, 2, hidden=8, seed=0).router
    assert router.theta is None and router.pairs() == []
    assert router.gate_expectations() == {} and router.derive_binary_routing() == []
    # a genotype's router has fixed shortcuts and no theta: every gate query raises
    genotype = Genotype(layers=[BlockChoice(1, "gcn", 1, "sum", "relu")] * 2,
                        routing=[(0, 1)], hidden_sizes=[8, 8], seed=0)
    router = GenotypeNet(genotype, 4, 2).router
    for query in (lambda: router.gates(1.0), router.gate_expectations,
                  router.derive_binary_routing):
        with pytest.raises(ValueError, match="a router without theta has no gates"):
            query()


def test_lower_triangle_never_routes():
    store, router = make_router()
    router.theta.data[:] = 5.0            # even with positive lower-triangle entries
    routed = router.derive_binary_routing()
    assert all(i <= j for (i, j) in routed)
    assert f"router/shortcut/1_0/W" not in store.names()


def test_binary_route_matches_hand_sum():
    rng = np.random.default_rng(1)
    store, router = make_router(num_blocks=2, dim=3, seed=2)
    router.theta.data[0, 1] = 1.0
    inputs = [Tensor(rng.standard_normal((4, 3))) for _ in range(2)]
    outputs = [Tensor(rng.standard_normal((4, 3))) for _ in range(2)]
    routed = route_all(router, inputs, outputs, binary_gates(router))
    np.testing.assert_array_equal(routed[0].data, outputs[0].data)
    w = store["router/shortcut/0_1/W"].data
    np.testing.assert_allclose(routed[1].data, outputs[1].data + inputs[0].data @ w)


def test_sampled_route_with_frozen_noise_matches_manual_gates():
    rng = np.random.default_rng(3)
    store, router = make_router(num_blocks=2, dim=2, seed=4)
    router.theta.data[:] = rng.standard_normal((2, 2))
    noise = router.sample_noise(np.random.default_rng(5))
    inputs = [Tensor(rng.standard_normal((3, 2))) for _ in range(2)]
    outputs = [Tensor(rng.standard_normal((3, 2))) for _ in range(2)]
    tau = 0.7
    routed = route_all(router, inputs, outputs, router.gates(tau, noise))
    expect = outputs[1].data.copy()
    for i in (0, 1):
        gate = 1.0 / (1.0 + np.exp(-(router.theta.data[i, 1] + noise[i, 1]) / tau))
        expect += gate * (inputs[i].data @ store[f"router/shortcut/{i}_1/W"].data)
    np.testing.assert_allclose(routed[1].data, expect, atol=1e-12)


def test_deterministic_mode_ignores_noise():
    rng = np.random.default_rng(6)
    _, router = make_router(num_blocks=2, dim=2, seed=7)
    inputs = [Tensor(rng.standard_normal((3, 2))) for _ in range(2)]
    outputs = [Tensor(rng.standard_normal((3, 2))) for _ in range(2)]
    router.theta.data[:] = rng.standard_normal((2, 2))
    gates = router.gates(0.5)   # noise-free: the gates of zero noise, sigmoid(theta / tau)
    np.testing.assert_array_equal(gates.data, router.gates(0.5, np.zeros((2, 2))).data)
    np.testing.assert_allclose(gates.data, 1.0 / (1.0 + np.exp(-router.theta.data / 0.5)),
                               atol=1e-15)
    a = route_all(router, inputs, outputs, gates)
    b = route_all(router, inputs, outputs, router.gates(0.5, np.zeros((2, 2))))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.data, y.data)


def test_route_gradient_reaches_theta():
    from gnasforge import tensor as T
    rng = np.random.default_rng(10)
    store, router = make_router(num_blocks=2, dim=2, seed=11)
    inputs = [Tensor(rng.standard_normal((3, 2))) for _ in range(2)]
    outputs = [Tensor(rng.standard_normal((3, 2))) for _ in range(2)]
    noise = router.sample_noise(np.random.default_rng(12))
    routed = route_all(router, inputs, outputs, router.gates(0.8, noise))
    T.tsum(routed[0] + routed[1]).backward()
    g = store["router/theta"].grad
    assert g is not None
    assert np.abs(g[np.triu_indices(2)]).min() > 0
    assert g[1, 0] == 0.0
