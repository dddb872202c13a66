"""Adam update rule and decoupled decay."""

import numpy as np
import pytest

import _oracles
from actknow.autodiff import Tensor, backward
from actknow.errors import ConfigError
from actknow.optim import BETA1, BETA2, EPS, Adam
from test_training import build_task


def _stepped(value, grad, steps=1, **settings):
    """A one-tensor Adam after `steps` updates with the same gradient."""
    t = Tensor(np.array(value, dtype=float), requires_grad=True)
    opt = Adam([t], **settings)
    for _ in range(steps):
        t.grad = np.array(grad, dtype=float)
        opt.step()
    return t, opt


def test_first_step_hand_check():
    # bias correction makes the first step lr * g/(|g| + eps) regardless of betas
    t, opt = _stepped([1.0], [1.0], lr=0.1, weight_decay=0.0)
    assert abs(t.data[0] - 0.9) < 1e-6
    assert opt.steps == 1
    assert np.allclose(opt.m[0], [(1.0 - 0.9) * 1.0])
    assert np.allclose(opt.v[0], [(1.0 - 0.98) * 1.0])


def test_zero_grad_leaves_param_unchanged():
    t, _ = _stepped([0.3, -1.7], [0.0, 0.0], lr=0.5, weight_decay=0.0)
    assert np.array_equal(t.data, [0.3, -1.7])


def test_weight_decay_is_decoupled():
    # with zero gradient the whole update is the decay term lr * wd * p
    t, _ = _stepped([2.0], [0.0], lr=0.1, weight_decay=0.1)
    assert abs(t.data[0] - 2.0 * (1.0 - 0.01)) < 1e-15


def test_second_step_uses_new_bias_correction():
    t, opt = _stepped([1.0], [1.0], steps=2, lr=0.1, weight_decay=0.0)
    assert opt.steps == 2
    # constant unit gradient keeps m_hat/sqrt(v_hat) near 1, so roughly -lr each step
    assert abs(t.data[0] - 0.8) < 1e-3


def test_rejects_bad_learning_rate():
    for lr in (0.0, -1.0):
        with pytest.raises(ConfigError):
            Adam([Tensor(np.ones(2), requires_grad=True)], lr=lr)


def test_rejects_mismatched_shapes():
    # the check runs before any tensor moves
    first = Tensor(np.ones(2), requires_grad=True)
    second = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([first, second], lr=0.1)
    first.grad, second.grad = np.ones(2), np.ones(3)
    with pytest.raises(ValueError):
        opt.step()
    assert np.array_equal(first.data, np.ones(2))
    assert opt.steps == 0


def test_steps_are_deterministic():
    def run():
        return _stepped([0.5, -0.25], [0.3, 0.7], steps=5, lr=0.05)[0].data

    assert np.array_equal(run(), run())


def test_wrapper_updates_in_place_and_clears_grads():
    t = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([t], lr=0.1, weight_decay=0.0)
    t.grad = np.array([1.0])
    opt.step()
    assert abs(t.data[0] - 0.9) < 1e-6
    assert t.grad is not None
    opt.zero_grad()
    assert t.grad is None


def test_missing_grad_treated_as_zero():
    t = Tensor(np.array([3.0]), requires_grad=True)
    opt = Adam([t], lr=0.1, weight_decay=0.0)
    opt.step()
    assert t.data[0] == 3.0


def test_minimizes_quadratic():
    target = np.array([1.5, -0.5, 2.0])
    x = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([x], lr=0.1, weight_decay=0.0)
    for _ in range(200):
        opt.zero_grad()
        diff = _oracles.add(x, Tensor(-target))
        backward(_oracles.mean(_oracles.mul(diff, diff)))
        opt.step()
    assert np.max(np.abs(x.data - target)) < 0.05


def test_adam_matches_the_functional_oracle():
    """Twenty steps on a model's trainable tensors, with decoupled decay and
    some tensors without a gradient on some steps: every tensor equals the
    functional reference step bitwise after every step."""
    task = build_task(mode="act-know")
    params = task.model.trainable(task.config)
    opt = Adam(params, lr=0.02, weight_decay=0.1)
    arrays = [p.data.copy() for p in params]
    state = _oracles.init_adam_state(arrays)
    rng = np.random.default_rng(5)
    for step in range(1, 21):
        opt.zero_grad()
        grads = []
        for i, p in enumerate(params):
            g = rng.normal(size=p.data.shape)
            missing = (i + step) % 3 == 0
            p.grad = None if missing else g
            grads.append(np.zeros_like(p.data) if missing else g)
        opt.step()
        arrays, state = _oracles.adam_step(arrays, grads, state, 0.02, BETA1, BETA2, EPS, weight_decay=0.1)
        for p, expected in zip(params, arrays):
            assert np.array_equal(p.data, expected)
