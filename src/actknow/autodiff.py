"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Tensors record the operations that produced them; backward() walks that
record in reverse topological order and accumulates gradients into leaf
tensors created with requires_grad=True. An op is one call of record() with
its output and its pullback, and the package's ops are whole stages with
hand-written pullbacks: a training step's tape is the text encoder, the
GCN's hidden stack, the attention pool, ER attention, the classifier and
the loss (encoders, training), on top of the trainable leaves. A node may
list a parent more than once, one gradient term each; backward adds the
terms in the listed order, so a pullback can reproduce the order in which a
tape of small ops would have summed them.
The helpers of the fused nodes follow the encoders' allocation rule:
softmax_last and its pullback each build their result in one array of
their own and write no argument, and sample_gumbel transforms its uniform
draw in place.
All math is double precision.
Products go to numpy's BLAS: its bundled OpenBLAS runs one thread per core
unless OPENBLAS_NUM_THREADS sets the count, and bench/run.py sets 1.
Identical inputs give bit-identical outputs on one numpy build, with one
thread or two (tests/test_golden.py passes either way).
"""

from __future__ import annotations

import numpy as np

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


def record(data: Array, parents: tuple[Tensor, ...], pullback) -> Tensor:
    """An op's output as a tape node. pullback maps the output's gradient
    to one gradient per parent, or None where it computes none; backward
    drops the gradients of parents that need none. The package's pullbacks
    return None only for the text while pretraining freezes it. The edges
    are kept only when a parent needs grad."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._pullback = pullback
    return out


# ---------------------------------------------------------------------------
# helpers of the fused nodes


def softmax_last(x: Array) -> Array:
    """Numerically stable softmax over the last axis of an array, computed
    in one array of x's shape; x is left as it was."""
    e = x - np.max(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def softmax_last_pullback(out: Array, g: Array) -> Array:
    """The gradient of softmax_last's input, given its output and the
    gradient of that output, computed in one array of g's shape; neither
    argument is written."""
    grad = g * out
    np.subtract(g, np.sum(grad, axis=-1, keepdims=True), out=grad)
    grad *= out
    return grad


def _segment_counts(starts: Array, total: int) -> Array:
    """The length of each segment of rows given by its start offset, e.g.
    the choices of each question: checked to be consecutive and non-empty."""
    starts = np.asarray(starts)
    if starts.ndim != 1 or starts.size == 0 or not np.issubdtype(starts.dtype, np.integer):
        raise ValueError("segment starts must be a non-empty 1-D integer array")
    counts = np.diff(np.append(starts, total))
    if starts[0] != 0 or np.any(counts < 1):
        raise ValueError("segment starts must begin at 0 and increase strictly below the row count")
    return counts


def sample_gumbel(shape: tuple[int, ...], rng: np.random.Generator) -> Array:
    """Standard Gumbel noise: -log(-log(u)), u ~ U(0, 1), guarded away from 0/1."""
    u = rng.uniform(low=1e-12, high=1.0 - 1e-12, size=shape)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    return np.negative(u, out=u)


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
