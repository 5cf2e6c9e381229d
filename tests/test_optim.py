import numpy as np
import pytest

from nirmalpool import optim


def make_params(value=1.0):
    return {"p": np.array([value])}


def test_zero_gradient_leaves_params_unchanged():
    params = make_params()
    state = optim.init_adam(params)
    updated = optim.adam_step(params, {"p": np.zeros(1)}, state)
    assert (updated["p"] == params["p"]).all()
    assert state.step == 1


def test_single_step_hand_computed():
    params = make_params(1.0)
    state = optim.init_adam(params, lr=0.001)
    updated = optim.adam_step(params, {"p": np.ones(1)}, state)
    # bias-corrected m_hat = v_hat = 1 after one unit-gradient step
    assert updated["p"][0] == pytest.approx(1.0 - 0.001, abs=1e-6)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_update_magnitude_approaches_lr(scale):
    params = make_params(0.0)
    state = optim.init_adam(params, lr=0.001)
    grad = {"p": np.array([scale])}
    prev = params
    for _ in range(1000):
        prev, params = params, optim.adam_step(params, grad, state)
    delta = abs(params["p"][0] - prev["p"][0])
    assert delta == pytest.approx(0.001, rel=0.05)


def test_deterministic():
    def run():
        params = {"a": np.linspace(-1, 1, 6).reshape(2, 3)}
        state = optim.init_adam(params, lr=0.01)
        grads = {"a": np.arange(6.0).reshape(2, 3)}
        for _ in range(10):
            params = optim.adam_step(params, grads, state)
        return params["a"]

    assert (run() == run()).all()


def test_second_moment_nonnegative():
    params = {"a": np.zeros(3)}
    state = optim.init_adam(params)
    optim.adam_step(params, {"a": np.array([-2.0, 0.0, 5.0])}, state)
    assert (state.v["a"] >= 0).all()


def test_shape_mismatch_errors():
    params = make_params()
    state = optim.init_adam(params)
    with pytest.raises(ValueError):
        optim.adam_step(params, {"p": np.zeros(2)}, state)
    with pytest.raises(ValueError):
        optim.adam_step(params, {"q": np.zeros(1)}, state)


def _reference_adam_step(params, grads, state):
    """The Adam update written as whole-array expressions, with new moment
    arrays every step."""
    state.step += 1
    t = state.step
    updated = {}
    for key, p in params.items():
        g = grads[key]
        state.m[key] = state.beta1 * state.m[key] + (1.0 - state.beta1) * g
        state.v[key] = state.beta2 * state.v[key] + (1.0 - state.beta2) * g * g
        m_hat = state.m[key] / (1.0 - state.beta1 ** t)
        v_hat = state.v[key] / (1.0 - state.beta2 ** t)
        updated[key] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return updated


def test_in_place_step_bitwise_equals_reference():
    rng = np.random.default_rng(0)
    params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    ours, ref = params, dict(params)
    state = optim.init_adam(params, lr=0.01)
    ref_state = optim.init_adam(params, lr=0.01)
    for _ in range(5):
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        before = {k: p.copy() for k, p in ours.items()}
        new = optim.adam_step(ours, grads, state)
        # The params passed in are not written to.
        assert all(np.array_equal(ours[k], before[k]) for k in ours)
        ours, ref = new, _reference_adam_step(ref, grads, ref_state)
        for k in params:
            for a, b in ((ours[k], ref[k]), (state.m[k], ref_state.m[k]),
                         (state.v[k], ref_state.v[k])):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("setting", [
    {"lr": -1.0}, {"lr": 0.0}, {"lr": float("nan")}, {"lr": float("inf")},
    {"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 1.0}, {"beta2": float("nan")},
    {"epsilon": 0.0}, {"epsilon": -1e-7},
])
def test_init_adam_rejects_bad_settings(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        optim.init_adam(make_params(), **setting)
