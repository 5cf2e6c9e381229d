"""Adam optimizer over named parameter dictionaries."""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: dict[str, np.ndarray], lr: float = 0.001, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-7) -> AdamState:
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon, step=0,
                     m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns new params, advances state.

    The moments in `state.m` and `state.v` are updated in place; the params
    passed in are left unchanged."""
    if set(params) != set(grads):
        raise ValueError(f"param/grad key mismatch: {set(params) ^ set(grads)}")
    state.step += 1
    t = state.step
    updated: dict[str, np.ndarray] = {}
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {key!r}")
        m, v = state.m[key], state.v[key]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        denom = v / (1.0 - state.beta2 ** t)
        np.sqrt(denom, out=denom)
        denom += state.epsilon
        update = m / (1.0 - state.beta1 ** t)
        update *= state.lr
        update /= denom
        updated[key] = p - update
    return updated
