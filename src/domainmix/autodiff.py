"""Small reverse-mode autodiff over float64 numpy arrays.

Covers exactly the operations the models need: broadcast arithmetic,
matmul, sparse-dense matmul, relu, log, sqrt, clamp, softmax, reductions,
indexing, stacking, and a gradient-reversal wrapper. Every tensor tracks
its parents; backward() walks the graph once in reverse topological order,
handing each op its output's gradient. No backward closure refers to its
own output, so a finished tape holds no reference cycle and is freed as
soon as the loss is dropped.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "trainable", "_parents", "_backward")

    def __init__(self, data, trainable=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.trainable = trainable
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    # --- graph walk ---

    def backward(self) -> None:
        if self.data.ndim != 0:
            raise ValidationError("backward() starts from a scalar loss")
        topo = []
        seen = set()
        stack = [(self, False)]
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
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # --- arithmetic ---

    def __add__(self, other):
        other = as_tensor(other)

        def back(g):
            self.grad += _unbroadcast(g, self.data.shape)
            other.grad += _unbroadcast(g, other.data.shape)

        return Tensor(self.data + other.data, parents=(self, other), backward=back)

    __radd__ = __add__

    def __neg__(self):
        def back(g):
            self.grad += -g

        return Tensor(-self.data, parents=(self,), backward=back)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)

        def back(g):
            self.grad += _unbroadcast(g * other.data, self.data.shape)
            other.grad += _unbroadcast(g * self.data, other.data.shape)

        return Tensor(self.data * other.data, parents=(self, other), backward=back)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)

        def back(g):
            self.grad += _unbroadcast(g / other.data, self.data.shape)
            other.grad += _unbroadcast(
                -g * self.data / (other.data * other.data),
                other.data.shape,
            )

        return Tensor(self.data / other.data, parents=(self, other), backward=back)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data

        def back(g):
            if a.ndim == 2 and b.ndim == 2:
                self.grad += g @ b.T
                other.grad += a.T @ g
            elif a.ndim == 1 and b.ndim == 2:
                self.grad += b @ g
                other.grad += np.outer(a, g)
            elif a.ndim == 2 and b.ndim == 1:
                self.grad += np.outer(g, b)
                other.grad += a.T @ g
            elif a.ndim == 1 and b.ndim == 1:
                self.grad += g * b
                other.grad += g * a
            else:
                raise ValidationError(
                    f"unsupported matmul ranks {a.ndim} x {b.ndim}"
                )

        return Tensor(a @ b, parents=(self, other), backward=back)

    # --- elementwise nonlinearities ---

    def relu(self):
        def back(g):
            self.grad += g * (self.data > 0)

        return Tensor(np.maximum(self.data, 0.0), parents=(self,), backward=back)

    def log(self):
        def back(g):
            self.grad += g / self.data

        return Tensor(np.log(self.data), parents=(self,), backward=back)

    def sqrt(self):
        root = np.sqrt(self.data)

        def back(g):
            self.grad += g / (2.0 * root)

        return Tensor(root, parents=(self,), backward=back)

    def clamp(self, lo=None, hi=None):
        """Clip values; gradient passes only through unclipped entries."""
        clipped = np.clip(self.data, lo, hi)
        inside = np.ones_like(self.data, dtype=bool)
        if lo is not None:
            inside &= self.data >= lo
        if hi is not None:
            inside &= self.data <= hi

        def back(g):
            self.grad += g * inside

        return Tensor(clipped, parents=(self,), backward=back)

    def softmax(self):
        """Softmax over the last axis, numerically shifted."""
        shifted = self.data - self.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)

        def back(g):
            inner = (g * y).sum(axis=-1, keepdims=True)
            self.grad += y * (g - inner)

        return Tensor(y, parents=(self,), backward=back)

    # --- reductions / shaping ---

    def sum(self, axis=None):
        def back(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            self.grad += np.broadcast_to(g, self.data.shape)

        return Tensor(self.data.sum(axis=axis), parents=(self,), backward=back)

    def mean(self, axis=None):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) / float(count)

    def __getitem__(self, idx):
        def back(g):
            np.add.at(self.grad, idx, g)

        return Tensor(self.data[idx], parents=(self,), backward=back)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), trainable=True)


def stack(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]

    def back(g):
        pieces = np.split(g, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            t.grad += piece.reshape(t.data.shape)

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor(data, parents=tuple(tensors), backward=back)


def spmm(sparse, dense: Tensor) -> Tensor:
    """Sparse (constant) @ dense (differentiable)."""
    out = sparse @ dense.data
    transpose = sparse.T.tocsr()

    def back(g):
        dense.grad += transpose @ g

    return Tensor(out, parents=(dense,), backward=back)


def grl(t: Tensor, beta: float = 1.0) -> Tensor:
    """Identity forward; backward multiplies the gradient by -beta."""

    def back(g):
        t.grad += -beta * g

    return Tensor(t.data, parents=(t,), backward=back)


def dot(u: Tensor, v: Tensor) -> Tensor:
    return (u * v).sum()
