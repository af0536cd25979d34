"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np

from .tensor import ParameterStore


def finite_difference_check(f, x, h=1e-5):
    """Max relative error between the analytic gradient of ``f`` at ``x`` and
    central finite differences.

    ``f`` maps a Tensor to a scalar Tensor; ``x`` is checked as the one
    parameter of ``check_params``.
    """
    store = ParameterStore()
    x = store.add("x", x)
    return check_params(lambda: f(x), store, ["x"], h)


def check_params(build_loss, store, names, h=1e-5):
    """Finite-difference check of d(loss)/d(param) for named store parameters.

    ``build_loss`` takes no arguments and rebuilds the scalar loss from the
    current parameter values (so the whole tape is reconstructed per probe).
    Returns the max relative error across all coordinates of all params; the
    error per coordinate is |analytic - fd| / max(1, |analytic|). A
    non-finite loss, at the parameters or at a probe, raises ValueError.
    """
    store.zero_grad()
    loss = build_loss()
    if not np.isfinite(loss.data).all():
        raise ValueError("check_params: non-finite loss")
    loss.backward()
    worst = 0.0
    for name in names:
        p = store[name]
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = build_loss().item()
            flat[i] = orig - h
            lo = build_loss().item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError(f"check_params: non-finite loss probing {name}[{i}]")
            fd = (hi - lo) / (2.0 * h)
            err = abs(aflat[i] - fd) / max(1.0, abs(aflat[i]))
            worst = max(worst, err)
    store.zero_grad()
    return worst
