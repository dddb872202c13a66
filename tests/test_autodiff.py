"""Gradient correctness for every primitive, checked against central differences."""

import numpy as np
import pytest

from actknow.autodiff import (
    Tensor,
    add,
    add_row,
    backward,
    concat,
    gather,
    gumbel_softmax,
    gumbel_softmax_with_noise,
    masked_softmax,
    matmul,
    mean,
    mul,
    relu,
    reshape,
    row_dot,
    row_softmax,
    scalar_mul,
    segment_cross_entropy,
    take_distinct_rows,
    transpose,
)
from actknow.errors import ConfigError

from _oracles import cross_entropy, fd_gradient, max_rel_error, segment_mean

RNG = np.random.default_rng(42)


def grad_check(build, x0, tol=1e-6):
    """Compare backward() against finite differences for a scalar-valued build."""
    x0 = np.asarray(x0, dtype=np.float64)
    leaf = Tensor(x0, requires_grad=True)
    backward(build(leaf))
    assert leaf.grad is not None
    probe = x0.copy()
    numeric = fd_gradient(lambda: build(Tensor(probe)).item(), probe)
    err = max_rel_error(leaf.grad, numeric)
    assert err < tol, f"rel err {err:.3g}"


def project(t, w):
    """Fixed linear functional, reduces any tensor to a scalar."""
    flat = reshape(t, (-1,))
    return matmul(flat, Tensor(np.asarray(w, dtype=np.float64).reshape(-1)))


def test_add_grad():
    b = np.array([0.3, -0.7, 1.1])
    w = RNG.normal(size=3)
    grad_check(lambda t: project(add(t, Tensor(b)), w), RNG.normal(size=3))


def test_mul_grad_both_sides():
    a0 = RNG.normal(size=4)
    b0 = RNG.normal(size=4)
    w = RNG.normal(size=4)
    grad_check(lambda t: project(mul(t, Tensor(b0)), w), a0)
    grad_check(lambda t: project(mul(Tensor(a0), t), w), b0)


def test_scalar_mul_grad():
    w = RNG.normal(size=5)
    grad_check(lambda t: project(scalar_mul(t, -2.5), w), RNG.normal(size=5))


def test_matmul_grad_all_rank_pairs():
    m22 = RNG.normal(size=(3, 4))
    v4 = RNG.normal(size=4)
    v3 = RNG.normal(size=3)
    w_mat = RNG.normal(size=6)
    # 2-D @ 2-D, each side in turn
    other = RNG.normal(size=(4, 2))
    grad_check(lambda t: project(matmul(t, Tensor(other)), w_mat), m22, tol=1e-5)
    grad_check(lambda t: project(matmul(Tensor(m22), t), w_mat), other, tol=1e-5)
    # 2-D @ 1-D and 1-D @ 2-D
    grad_check(lambda t: project(matmul(Tensor(m22), t), v3), v4, tol=1e-5)
    grad_check(lambda t: project(matmul(t, Tensor(m22)), v4), v3, tol=1e-5)
    # 1-D @ 1-D is already scalar
    grad_check(lambda t: matmul(t, Tensor(v4)), RNG.normal(size=4), tol=1e-5)


def _constant_operand_cases():
    """(a, b, explicit grad of a, explicit grad of b) per matmul rank pair,
    each formula taking the upstream gradient g."""
    m, k, n = 3, 4, 2
    a2, b2 = RNG.normal(size=(m, k)), RNG.normal(size=(k, n))
    a3, b3 = RNG.normal(size=(2, m, k)), RNG.normal(size=(2, k, n))
    u, v = RNG.normal(size=m), RNG.normal(size=k)
    return [
        (a3, b3, lambda g: g @ b3.swapaxes(1, 2), lambda g: a3.swapaxes(1, 2) @ g),
        (a2, b2, lambda g: g @ b2.T, lambda g: a2.T @ g),
        (a2, v, lambda g: np.outer(g, v), lambda g: a2.T @ g),
        (u, a2, lambda g: a2 @ g, lambda g: np.outer(u, g)),
        (v, v[::-1].copy(), lambda g: g * v[::-1], lambda g: g * v),
    ]


@pytest.mark.parametrize("case", range(5), ids=["3d@3d", "2d@2d", "2d@1d", "1d@2d", "1d@1d"])
@pytest.mark.parametrize("trainable", [0, 1])
def test_matmul_skips_the_constant_operand(case, trainable):
    a, b, grad_a, grad_b = _constant_operand_cases()[case]
    ta, tb = Tensor(a, requires_grad=trainable == 0), Tensor(b, requires_grad=trainable == 1)
    out = matmul(ta, tb)
    g = RNG.normal(size=out.shape)
    pulled = out._pullback(g)
    assert pulled[1 - trainable] is None
    assert np.array_equal(pulled[trainable], (grad_a, grad_b)[trainable](g))
    # through backward: the constant gets no .grad, the leaf the same bits
    w = RNG.normal(size=out.size)
    backward(project(out, w) if out.shape else mul(out, Tensor(w[0])))
    leaf, const = (ta, tb) if trainable == 0 else (tb, ta)
    assert const.grad is None
    upstream = w.reshape(out.shape) if out.shape else np.asarray(w[0])
    assert np.array_equal(leaf.grad, (grad_a, grad_b)[trainable](upstream))


@pytest.mark.parametrize("trainable", [0, 1])
def test_mul_skips_the_constant_operand(trainable):
    a, b = RNG.normal(size=(3, 2)), RNG.normal(size=(3, 2))
    ta, tb = Tensor(a, requires_grad=trainable == 0), Tensor(b, requires_grad=trainable == 1)
    out = mul(ta, tb)
    g = RNG.normal(size=out.shape)
    other = (b, a)[trainable]
    pulled = out._pullback(g)
    assert pulled[1 - trainable] is None
    assert np.array_equal(pulled[trainable], g * other)
    w = RNG.normal(size=out.size)
    backward(project(out, w))
    assert (tb, ta)[trainable].grad is None
    assert np.array_equal((ta, tb)[trainable].grad, w.reshape(out.shape) * other)


def test_concat_grad():
    tail = RNG.normal(size=3)
    w = RNG.normal(size=5)
    grad_check(lambda t: project(concat([t, Tensor(tail)]), w), RNG.normal(size=2))
    grad_check(lambda t: project(concat([Tensor(tail), t]), w), RNG.normal(size=2))


def test_concat_along_axes():
    a, b = RNG.normal(size=(2, 3)), RNG.normal(size=(2, 1))
    assert np.array_equal(concat([Tensor(a), Tensor(b)], axis=1).data, np.hstack([a, b]))
    assert concat([Tensor(a), Tensor(a)]).shape == (4, 3)
    with pytest.raises(ValueError):
        concat([Tensor(a), Tensor(b)])  # column counts differ off axis 0
    with pytest.raises(ValueError):
        concat([Tensor(a)], axis=2)
    w = RNG.normal(size=8)
    grad_check(lambda t: project(concat([Tensor(a), t], axis=1), w), RNG.normal(size=(2, 1)))
    grad_check(lambda t: project(concat([t, Tensor(b)], axis=1), w), RNG.normal(size=(2, 3)))


def test_batched_matmul():
    a, b = RNG.normal(size=(3, 2, 4)), RNG.normal(size=(3, 4, 5))
    out = matmul(Tensor(a), Tensor(b))
    assert out.shape == (3, 2, 5)
    assert np.max(np.abs(out.data[1] - a[1] @ b[1])) < 1e-12
    with pytest.raises(ValueError):
        matmul(Tensor(a), Tensor(b[:2]))  # batch sizes differ
    with pytest.raises(ValueError):
        matmul(Tensor(a), Tensor(b[0]))  # 3-D needs a 3-D partner
    w = RNG.normal(size=30)
    grad_check(lambda t: project(matmul(t, Tensor(b)), w), a, tol=1e-5)
    grad_check(lambda t: project(matmul(Tensor(a), t), w), b, tol=1e-5)


def test_transpose():
    a = RNG.normal(size=(2, 3))
    assert np.array_equal(transpose(Tensor(a)).data, a.T)
    with pytest.raises(ValueError):
        transpose(Tensor(np.ones(3)))
    w = RNG.normal(size=6)
    grad_check(lambda t: project(transpose(t), w), a)


def test_add_row():
    a, row = RNG.normal(size=(3, 2)), RNG.normal(size=2)
    assert np.array_equal(add_row(Tensor(a), Tensor(row)).data, a + row)
    with pytest.raises(ValueError):
        add_row(Tensor(a), Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        add_row(Tensor(np.ones(2)), Tensor(np.ones(2)))
    w = RNG.normal(size=6)
    grad_check(lambda t: project(add_row(t, Tensor(row)), w), a)
    grad_check(lambda t: project(add_row(Tensor(a), t), w), row)


def test_row_dot():
    a, v = RNG.normal(size=(4, 3)), RNG.normal(size=3)
    out = row_dot(Tensor(a), Tensor(v))
    assert out.shape == (4,)
    assert np.max(np.abs(out.data - a @ v)) < 1e-12
    with pytest.raises(ValueError):
        row_dot(Tensor(a), Tensor(np.ones(4)))
    w = RNG.normal(size=4)
    grad_check(lambda t: project(row_dot(t, Tensor(v)), w), a)
    grad_check(lambda t: project(row_dot(Tensor(a), t), w), v)


def test_row_dot_equal_rows_are_bit_equal():
    row = RNG.normal(size=64)
    v = RNG.normal(size=64)
    results = set()
    for n in range(1, 12):
        a = RNG.normal(size=(n, 64))
        a[n // 2] = row
        results.add(row_dot(Tensor(a), Tensor(v)).data[n // 2])
    assert len(results) == 1


def test_masked_softmax():
    a = RNG.normal(size=(2, 4))
    mask = np.array([[True, True, False, True], [True, False, False, False]])
    out = masked_softmax(Tensor(a), mask).data
    assert np.all(out[~mask] == 0.0)
    e = np.exp(a[0, [0, 1, 3]] - a[0, [0, 1, 3]].max())
    assert np.max(np.abs(out[0, [0, 1, 3]] - e / e.sum())) < 1e-12
    assert out[1, 0] == 1.0
    with pytest.raises(ValueError):
        masked_softmax(Tensor(a), np.zeros((2, 4), bool))  # a row with nothing unmasked
    with pytest.raises(ValueError):
        masked_softmax(Tensor(a), mask[:, :3])
    w = RNG.normal(size=8)
    grad_check(lambda t: project(masked_softmax(t, mask), w), a)


# segment_mean and cross_entropy live in _oracles.py: the references that
# the bag-of-words text encoder and segment_cross_entropy are checked against


def test_segment_mean():
    a = RNG.normal(size=(5, 2))
    out = segment_mean(Tensor(a), np.array([0, 2, 3]))
    assert out.shape == (3, 2)
    assert np.max(np.abs(out.data - np.stack([a[:2].mean(0), a[2], a[3:].mean(0)]))) < 1e-12
    for bad in (np.array([1, 3]), np.array([0, 3, 3]), np.array([0, 5]), np.array([], dtype=np.int64)):
        with pytest.raises(ValueError):
            segment_mean(Tensor(a), bad)
    w = RNG.normal(size=6)
    grad_check(lambda t: project(segment_mean(t, np.array([0, 2, 3])), w), a)


def test_segment_cross_entropy():
    z = RNG.normal(size=7)
    starts, targets = np.array([0, 3]), np.array([2, 0])
    out = segment_cross_entropy(Tensor(z), starts, targets)
    want = [cross_entropy(Tensor(z[:3]), 2).item(), cross_entropy(Tensor(z[3:]), 0).item()]
    assert np.max(np.abs(out.data - want)) < 1e-12
    with pytest.raises(IndexError):
        segment_cross_entropy(Tensor(z), starts, np.array([3, 0]))  # only 3 choices in the first
    with pytest.raises(ValueError):
        segment_cross_entropy(Tensor(z), starts, np.array([0]))
    with pytest.raises(ValueError):
        segment_cross_entropy(Tensor(z.reshape(7, 1)), starts, targets)
    grad_check(lambda t: project(segment_cross_entropy(t, starts, targets), [0.7, -1.3]), z)


def test_reshape_grad():
    w = RNG.normal(size=6)
    grad_check(lambda t: project(reshape(t, (3, 2)), w), RNG.normal(size=(2, 3)))


def test_relu_grad_away_from_kink():
    x0 = np.array([1.5, -2.0, 0.8, -0.4])
    w = RNG.normal(size=4)
    grad_check(lambda t: project(relu(t), w), x0)


def test_mean_full_grad_is_uniform():
    t = Tensor(np.arange(5.0), requires_grad=True)
    backward(mean(t))
    assert np.allclose(t.grad, [0.2] * 5, atol=1e-15)


def test_mean_axis_grad():
    w = RNG.normal(size=4)
    grad_check(lambda t: project(mean(t, axis=0), w), RNG.normal(size=(3, 4)))


def test_gather_grad_accumulates_repeats():
    ids = np.array([0, 2, 0])
    w = RNG.normal(size=(3, 2)).reshape(-1)
    grad_check(lambda t: project(gather(t, ids), w), RNG.normal(size=(4, 2)))


def test_take_distinct_rows_grad_matches_gather():
    ids = np.array([0, 2, 5])
    w = RNG.normal(size=(3, 2)).reshape(-1)
    grad_check(lambda t: project(take_distinct_rows(t, ids), w), RNG.normal(size=(6, 2)))
    x = RNG.normal(size=(6, 2))
    a, b = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
    backward(project(take_distinct_rows(a, ids), w))
    backward(project(gather(b, ids), w))
    assert np.array_equal(a.grad, b.grad)


@pytest.mark.parametrize("ids", [[1, 1], [2, 1], []])
def test_take_distinct_rows_requires_increasing_ids(ids):
    with pytest.raises(ValueError):
        take_distinct_rows(Tensor(np.ones((3, 2))), np.array(ids, dtype=np.int64))


def test_row_softmax_uniform_logits():
    out = row_softmax(Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_row_softmax_rows_are_distributions():
    out = row_softmax(Tensor(RNG.normal(size=(5, 7)) * 10.0))
    assert np.all(out.data > 0.0)
    assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-9


def test_row_softmax_grad():
    w = RNG.normal(size=6)
    grad_check(lambda t: project(row_softmax(t), w), RNG.normal(size=6))
    w2 = RNG.normal(size=6)
    grad_check(lambda t: project(row_softmax(t), w2), RNG.normal(size=(2, 3)))


def test_cross_entropy_uniform_is_log_m():
    loss = cross_entropy(Tensor(np.zeros(4)), 2)
    assert abs(loss.item() - np.log(4.0)) < 1e-12


def test_cross_entropy_grad():
    grad_check(lambda t: cross_entropy(t, 1), RNG.normal(size=4))


def test_grad_accumulates_when_tensor_reused():
    x0 = np.array([1.0, -2.0, 3.0])
    t = Tensor(x0, requires_grad=True)
    backward(mean(mul(t, t)))
    assert np.allclose(t.grad, 2.0 * x0 / 3.0, atol=1e-15)


def test_backward_twice_rejected():
    t = Tensor(np.ones(2), requires_grad=True)
    loss = mean(t)
    backward(loss)
    with pytest.raises(RuntimeError, match="rebuild"):
        backward(loss)


def test_backward_requires_scalar_loss():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(add(t, t))


def test_shape_and_domain_errors():
    with pytest.raises(ValueError):
        add(Tensor(np.ones(2)), Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        mul(Tensor(np.ones(2)), Tensor(np.ones((2, 1))))
    with pytest.raises(ValueError):
        concat([])
    with pytest.raises(ValueError):
        concat([Tensor(np.ones((2, 2))), Tensor(np.ones(2))])
    with pytest.raises(IndexError):
        gather(Tensor(np.ones((3, 2))), np.array([3]))
    with pytest.raises(IndexError):
        take_distinct_rows(Tensor(np.ones((3, 2))), np.array([1, 3]))
    with pytest.raises(IndexError):
        segment_cross_entropy(Tensor(np.zeros(4)), np.array([0]), np.array([4]))
    with pytest.raises(ValueError):
        row_softmax(Tensor(np.zeros((2, 2, 2))))


def test_gumbel_outputs_are_distributions():
    rng = np.random.default_rng(3)
    for _ in range(20):
        out = gumbel_softmax(Tensor(RNG.normal(size=4)), 1.0, rng)
        assert np.all(out.data > 0.0)
        assert abs(out.data.sum() - 1.0) < 1e-9


def test_gumbel_low_temperature_near_one_hot():
    rng = np.random.default_rng(4)
    logits = Tensor(np.array([5.0, 0.0, 0.0, 0.0]))
    peaks = [gumbel_softmax(logits, 0.01, rng).data.max() for _ in range(100)]
    assert np.mean(peaks) > 0.95


def test_gumbel_high_temperature_near_uniform():
    rng = np.random.default_rng(5)
    logits = Tensor(np.array([5.0, 0.0, 0.0, 0.0]))
    samples = np.stack([gumbel_softmax(logits, 100.0, rng).data for _ in range(1000)])
    assert np.max(np.abs(samples.mean(axis=0) - 0.25)) < 0.05


def test_gumbel_seeded_determinism():
    logits = Tensor(np.array([1.0, 2.0, 3.0]))
    a = gumbel_softmax(logits, 0.7, np.random.default_rng(9)).data
    b = gumbel_softmax(logits, 0.7, np.random.default_rng(9)).data
    assert np.array_equal(a, b)


def test_gumbel_rejects_bad_temperature():
    logits = Tensor(np.zeros(3))
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        gumbel_softmax(logits, 0.0, rng)
    with pytest.raises(ConfigError):
        gumbel_softmax_with_noise(logits, np.zeros(3), -1.0)


def test_gumbel_grad_with_fixed_noise():
    noise = np.random.default_rng(6).gumbel(size=4)
    w = RNG.normal(size=4)
    grad_check(
        lambda t: project(gumbel_softmax_with_noise(t, noise, 0.8), w),
        RNG.normal(size=4),
        tol=1e-5,
    )


def test_composed_graph_grad():
    """Chain gather -> matmul -> relu -> concat -> softmax -> cross entropy."""
    ids = np.array([0, 2, 1])
    w1 = RNG.normal(size=(2, 3))
    extra = RNG.normal(size=2) + 3.0

    def build(table):
        rows = gather(table, ids)            # (3, 2)
        h = relu(matmul(rows, Tensor(w1)))   # (3, 3)
        flat = reshape(h, (-1,))
        full = concat([flat, Tensor(np.log(extra))])
        return mean(segment_cross_entropy(full, np.array([0]), np.array([4])))

    grad_check(build, RNG.normal(size=(4, 2)) + 0.1, tol=1e-4)
