"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Tensors record the operations that produced them; backward() walks that
record in reverse topological order and accumulates gradients into leaf
tensors created with requires_grad=True. All math is double precision and
single-threaded, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

Array = np.ndarray


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_pullback", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._pullback = None
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data: Array, parents: tuple[Tensor, ...], pullback) -> Tensor:
    """Wrap an op result, keeping graph edges only when a parent needs grad."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._pullback = pullback
    return out


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def pullback(g: Array):
        return (g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None)

    return _result(a.data * b.data, (a, b), pullback)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """numpy matmul semantics for the 1-D/2-D operand combinations, plus the
    batched (S, n, k) @ (S, k, m) product of two 3-D stacks."""
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ValueError("matmul: operands must be at least 1-D")
    an, bn = a.data.ndim, b.data.ndim
    if max(an, bn) > 2 and (an, bn) != (3, 3):
        raise ValueError(f"matmul: a 3-D operand needs a 3-D partner, got {a.shape} @ {b.shape}")
    if an == 3 and a.shape[0] != b.shape[0]:
        raise ValueError(f"matmul: batch sizes differ {a.shape} @ {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ValueError(f"matmul: incompatible shapes {a.shape} @ {b.shape}") from exc

    # each pullback computes a gradient only for an operand that needs one
    if an == 3:
        grad_a = lambda g: g @ b.data.swapaxes(1, 2)
        grad_b = lambda g: a.data.swapaxes(1, 2) @ g
    elif an == 2 and bn == 2:
        grad_a = lambda g: g @ b.data.T
        grad_b = lambda g: a.data.T @ g
    elif an == 2 and bn == 1:
        grad_a = lambda g: np.outer(g, b.data)
        grad_b = lambda g: a.data.T @ g
    elif an == 1 and bn == 2:
        grad_a = lambda g: b.data @ g
        grad_b = lambda g: np.outer(a.data, g)
    else:  # 1-D @ 1-D -> scalar
        grad_a = lambda g: g * b.data
        grad_b = lambda g: g * a.data

    def pullback(g: Array):
        return (grad_a(g) if a.requires_grad else None, grad_b(g) if b.requires_grad else None)

    return _result(data, (a, b), pullback)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError("transpose: input must be 2-D")
    return _result(a.data.T, (a,), lambda g: (g.T,))


def add_row(a: Tensor, row: Tensor) -> Tensor:
    """(n, d) + (d,): the same row added to every row of a."""
    if a.data.ndim != 2 or row.data.ndim != 1 or a.shape[1] != row.shape[0]:
        raise ValueError(f"add_row: need (n, d) + (d,), got {a.shape} + {row.shape}")
    return _result(a.data + row.data, (a, row), lambda g: (g, g.sum(axis=0)))


def row_dot(a: Tensor, v: Tensor) -> Tensor:
    """(n, d) . (d,) -> (n,): each row's dot product with v. Every row is
    summed the same way, so equal rows give bit-equal results wherever they
    sit; a BLAS matrix-vector product does not promise that."""
    if a.data.ndim != 2 or v.data.ndim != 1 or a.shape[1] != v.shape[0]:
        raise ValueError(f"row_dot: need (n, d) . (d,), got {a.shape} . {v.shape}")
    return _result(np.sum(a.data * v.data, axis=1), (a, v), lambda g: (np.outer(g, v.data), g @ a.data))


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors of equal rank along `axis`."""
    if not parts:
        raise ValueError("concat: need at least one tensor")
    ndim = parts[0].data.ndim
    if ndim == 0 or any(p.data.ndim != ndim for p in parts) or not 0 <= axis < ndim:
        raise ValueError(f"concat: need tensors of one rank >= 1 and an axis below it, got axis {axis}")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ValueError(f"concat: shapes {[p.shape for p in parts]} differ off axis {axis}") from exc
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def pullback(g: Array):
        index = [slice(None)] * ndim
        grads = []
        for i in range(len(parts)):
            index[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(index)])
        return tuple(grads)

    return _result(data, tuple(parts), pullback)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape
    return _result(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _result(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    if a.data.size == 0:
        raise ValueError("mean: empty input")
    if axis is None:
        n = a.data.size
        shape = a.data.shape
        return _result(np.mean(a.data), (a,), lambda g: (np.full(shape, g / n),))
    n = a.data.shape[axis]

    def pullback(g: Array):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _result(np.mean(a.data, axis=axis), (a,), pullback)


def gather(table: Tensor, ids: Array) -> Tensor:
    """Row lookup: out[i] = table[ids[i]]. Pullback scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("gather: ids must be a non-empty 1-D integer array")
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise IndexError("gather: id out of range")
    shape = table.data.shape

    def pullback(g: Array):
        acc = np.zeros(shape)
        np.add.at(acc, ids, g)
        return (acc,)

    return _result(table.data[ids], (table,), pullback)


def take_distinct_rows(table: Tensor, ids: Array) -> Tensor:
    """Row lookup for strictly increasing ids: out[i] = table[ids[i]]. No row
    repeats, so the pullback writes g into its rows with no scatter-add."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("take_distinct_rows: ids must be a non-empty 1-D integer array")
    if np.any(ids[1:] <= ids[:-1]):
        raise ValueError("take_distinct_rows: ids must be strictly increasing")
    if ids[0] < 0 or ids[-1] >= table.data.shape[0]:
        raise IndexError("take_distinct_rows: id out of range")
    shape = table.data.shape

    def pullback(g: Array):
        out = np.zeros(shape)
        out[ids] = g
        return (out,)

    return _result(table.data[ids], (table,), pullback)


def row_softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis of a 1-D or 2-D tensor."""
    if a.data.ndim not in (1, 2):
        raise ValueError("row_softmax: input must be 1-D or 2-D")
    if a.data.shape[-1] == 0:
        raise ValueError("row_softmax: empty row")
    shifted = a.data - np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=-1, keepdims=True)

    def pullback(g: Array):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _result(out, (a,), pullback)


def masked_softmax(a: Tensor, mask: Array) -> Tensor:
    """Softmax over the last axis of a 2-D tensor, taken only over the
    entries where mask is True; masked-out entries get weight exactly 0.
    Every row needs at least one unmasked entry."""
    mask = np.asarray(mask, dtype=bool)
    if a.data.ndim != 2 or mask.shape != a.shape:
        raise ValueError(f"masked_softmax: need a 2-D tensor and a mask of its shape, got {a.shape}, {mask.shape}")
    if not np.all(mask.any(axis=1)):
        raise ValueError("masked_softmax: a row has no unmasked entry")
    top = np.max(np.where(mask, a.data, -np.inf), axis=1, keepdims=True)
    e = np.exp(np.where(mask, a.data - top, -np.inf))
    out = e / np.sum(e, axis=1, keepdims=True)

    def pullback(g: Array):
        dot = np.sum(g * out, axis=1, keepdims=True)
        return (out * (g - dot),)

    return _result(out, (a,), pullback)


# ---------------------------------------------------------------------------
# segment ops: rows grouped into consecutive non-empty segments given by
# their start offsets, e.g. the tokens of each choice or the choices of each
# question


def _segment_counts(starts: Array, total: int) -> Array:
    starts = np.asarray(starts)
    if starts.ndim != 1 or starts.size == 0 or not np.issubdtype(starts.dtype, np.integer):
        raise ValueError("segment starts must be a non-empty 1-D integer array")
    counts = np.diff(np.append(starts, total))
    if starts[0] != 0 or np.any(counts < 1):
        raise ValueError("segment starts must begin at 0 and increase strictly below the row count")
    return counts


def segment_cross_entropy(logits: Tensor, starts: Array, targets: Array) -> Tensor:
    """Per-segment -log softmax(segment)[target] of a flat 1-D logit vector:
    (C,) -> (n_segments,). targets index within their segment."""
    if logits.data.ndim != 1:
        raise ValueError("segment_cross_entropy: logits must be 1-D")
    counts = _segment_counts(starts, logits.shape[0])
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != counts.shape:
        raise ValueError(f"segment_cross_entropy: {targets.size} targets for {counts.size} segments")
    if np.any(targets < 0) or np.any(targets >= counts):
        raise IndexError("segment_cross_entropy: target out of range for its segment")
    z = logits.data
    zmax = np.maximum.reduceat(z, starts)
    lse = zmax + np.log(np.add.reduceat(np.exp(z - np.repeat(zmax, counts)), starts))
    picked = starts + targets
    probs = np.exp(z - np.repeat(lse, counts))

    def pullback(g: Array):
        grad = probs.copy()
        grad[picked] -= 1.0
        return (grad * np.repeat(g, counts),)

    return _result(lse - z[picked], (logits,), pullback)


# ---------------------------------------------------------------------------
# gumbel softmax


def sample_gumbel(shape: tuple[int, ...], rng: np.random.Generator) -> Array:
    """Standard Gumbel noise: -log(-log(u)), u ~ U(0, 1), guarded away from 0/1."""
    u = rng.uniform(low=1e-12, high=1.0 - 1e-12, size=shape)
    return -np.log(-np.log(u))

def gumbel_softmax_with_noise(logits: Tensor, noise: Array, temperature: float) -> Tensor:
    """Differentiable part of the Gumbel softmax: softmax((logits + noise) / T)."""
    if temperature <= 0:
        raise ConfigError(f"gumbel temperature must be positive, got {temperature}")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != logits.shape:
        raise ValueError("gumbel noise shape must match logits")
    return row_softmax(scalar_mul(add(logits, Tensor(noise)), 1.0 / temperature))


def gumbel_softmax(logits: Tensor, temperature: float, rng: np.random.Generator) -> Tensor:
    """Soft sample from a categorical defined by logits (reparameterized)."""
    return gumbel_softmax_with_noise(logits, sample_gumbel(logits.shape, rng), temperature)


# ---------------------------------------------------------------------------
# backward

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every requires_grad leaf.

    The loss must be scalar. A second call on the same graph root raises;
    build a fresh forward pass instead.
    """
    if loss.data.ndim != 0:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already called on this graph; rebuild the forward pass")
    loss._backward_done = True
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, Array] = {id(loss): np.ones(())}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._pullback is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._pullback(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
