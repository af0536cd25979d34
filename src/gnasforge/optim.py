"""Adam optimizer over a ParameterStore subset."""

from __future__ import annotations

import numpy as np


class Adam:
    """Standard Adam with bias correction and L2 weight decay folded into the gradient.

    Parameters without a gradient in a given ``step`` are left untouched,
    including their moment state (frozen-parameter contract). A step writes
    the moments and each parameter's ``data`` in place.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, store, names, lr, weight_decay=0.0):
        self.store = store
        self.names = list(names)
        self.lr = lr
        self.weight_decay = weight_decay
        self.state = {
            n: {"m": np.zeros_like(store[n].data), "v": np.zeros_like(store[n].data), "t": 0}
            for n in self.names
        }

    def step(self, grads):
        """Apply one Adam update from ``grads`` (name -> ndarray).

        Every gradient the step would apply is checked first: a non-finite one
        raises ValueError naming its parameter, and no parameter or moment
        changes.
        """
        for name in self.names:
            if name in grads and not np.isfinite(grads[name]).all():
                raise ValueError(f"Adam: non-finite gradient for parameter {name!r}")
        for name in self.names:
            if name not in grads:
                continue
            p = self.store[name]
            st = self.state[name]
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            st["t"] += 1
            # in place, rounding as m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2
            # and p = p - lr m_hat / (sqrt(v_hat) + eps) do
            m, v = st["m"], st["v"]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            update = m / (1.0 - self.BETA1 ** st["t"])
            update *= self.lr
            update /= np.sqrt(v / (1.0 - self.BETA2 ** st["t"])) + self.EPS
            p.data -= update
