"""Adam optimizer over named parameter dictionaries."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    lr: float
    beta1: float
    beta2: float
    epsilon: float
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def check_settings(lr: float, beta1: float, beta2: float, epsilon: float) -> None:
    """Raise ValueError unless lr and epsilon are finite and positive and both
    betas lie in [0, 1). A beta of 1 makes the bias correction 0/0, and a zero
    epsilon divides 0 by 0 wherever every gradient so far was zero."""
    for name, value in (("lr", lr), ("epsilon", epsilon)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    for name, value in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{name} must lie in [0, 1), got {value}")


def init_adam(params: dict[str, np.ndarray], lr: float = 0.001, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-7) -> AdamState:
    check_settings(lr, beta1, beta2, epsilon)
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon, step=0,
                     m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns new params, advances state.

    The moments in `state.m` and `state.v` are updated in place; the params
    passed in are left unchanged. Per parameter, one scratch array holds in
    turn (1-beta1)*g, (1-beta2)*g*g and the denominator, and one update
    array becomes the new parameter; the operations run in the order of the
    whole-array formula, so the result is bitwise that formula's."""
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
        scratch = np.multiply(g, 1.0 - state.beta1)
        m *= state.beta1
        m += scratch
        np.multiply(g, 1.0 - state.beta2, out=scratch)
        scratch *= g
        v *= state.beta2
        v += scratch
        denom = np.divide(v, 1.0 - state.beta2 ** t, out=scratch)
        np.sqrt(denom, out=denom)
        denom += state.epsilon
        update = m / (1.0 - state.beta1 ** t)
        update *= state.lr
        update /= denom
        updated[key] = np.subtract(p, update, out=update)
    return updated
