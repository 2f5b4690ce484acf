"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float32 or float64 ndarray.  Every op that a
gradient flows through gives its result a node: its parents' nodes and
its backward rule.  The graph holds nodes; values live only where a rule
captured them, so an intermediate that no rule reads is freed as soon as
the forward code drops it.  ``backward(loss)`` walks the nodes once in
reverse topological order and accumulates dLoss/dLeaf into the ``grad``
of every leaf created with ``requires_grad=True``.  Gradients add across
calls until ``zero_grad`` resets them, and a leaf that the loss never
touches keeps its zero gradient.

Shape discipline is strict: elementwise ops demand identical shapes and
the only broadcasts are a trailing-shape bias add and the documented
matmul batching.  A linear layer is ``add_bias(matmul(x, w), b)`` for x
of any rank: both ops fold the leading axes into rows themselves, so no
reshape nodes surround it.  Recording can be suspended with
``no_grad()``; forward values are identical either way.  The grad mode
belongs to the context (a ``ContextVar``), so each thread, and each job
run in a copy of a context, enters and leaves ``no_grad`` on its own.
A graph belongs to one thread: two threads may each build and
differentiate a graph of their own at once, over shared leaf data, as
long as no leaf's ``grad`` is accumulated by both.  numpy is the only
dependency: float64 GELU, used by the gradient checks, takes the
standard library's ``math.erf``.
"""

from __future__ import annotations

import contextvars
import math

import numpy as np

_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)

# Python floats, not numpy scalars, so float32 operands are not upcast.
_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Eigen's float32 erf, erf(z) = z * P(z^2) / Q(z^2) on [-4, 4], with P
# halved so z * P / Q is erf(z) / 2.  Coefficients run from the highest
# power down to the constant term.
_INV_SQRT2_32 = np.float32(1.0 / np.sqrt(2.0))
_ERF32_P = tuple(np.float32(0.5 * c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02,
))
_ERF32_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02,
))
_PHI32_BLOCK = 1 << 16

# Added to the variance in ``layer_norm``.
_LN_EPS = 1e-5

# The standard library's erf, elementwise; within 3 ulp of scipy's.
_erf64 = np.vectorize(math.erf, otypes=[np.float64])


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)
        return False


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED.get()


class _Node:
    """One recorded op: its parents' references and its backward rule.

    A parent's reference is its node, the parent Tensor itself when it is a
    ``requires_grad`` leaf, or None where no gradient flows.  A node holds
    no values: the rule captures the arrays it reads.
    """

    __slots__ = ("parents", "backward")

    def __init__(self, parents: tuple, backward_fn):
        self.parents = parents
        self.backward = backward_fn


class Tensor:
    """An ndarray plus the bookkeeping needed for reverse-mode gradients.

    ``_node`` is the op that recorded it, or None for a leaf or a value
    no gradient flows through.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        tag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    out._node = None
    if out.requires_grad:
        refs = tuple(p._node or (p if p.requires_grad else None) for p in parents)
        out._node = _Node(refs, backward_fn)
    return out


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _result(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    _same_shape(a, b, "mul")
    A, B = a.data, b.data
    return _result(A * B, (a, b), lambda g: (g * B, g * A))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant (not differentiated in c)."""
    c = float(c)
    return _result(a.data * c, (a,), lambda g: (g * c,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add ``b`` to every row of ``x``; b's shape must equal x's trailing shape.

    This is the one sanctioned broadcast: the bias gradient folds the
    leading axes into one and sums over it, so a linear layer's bias sees
    the same (rows, features) sum whatever its input's rank.
    """
    if b.data.ndim == 0 or b.data.ndim > x.data.ndim:
        raise ValueError("add_bias: bias rank must be >= 1 and <= operand rank")
    if x.data.shape[x.data.ndim - b.data.ndim:] != b.data.shape:
        raise ValueError(
            f"add_bias: bias shape {b.data.shape} does not match trailing "
            f"dims of {x.data.shape}"
        )

    shape = b.data.shape

    def backward(g):
        return g, g.reshape((-1,) + shape).sum(axis=0)

    return _result(x.data + b.data, (x, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Allowed shapes: 2-D @ 2-D; stacked @ 2-D (a batch of matrices against
    one shared matrix, as in a linear layer); and batched @ batched with
    exactly matching leading dims (as in per-head attention).  Anything
    else is a shape error; there is no implicit broadcasting.  Stacked @
    2-D folds the leading axes into rows, so it is one GEMM forward and
    two backward, with the values of the flattened 2-D product.  Against
    a shared one-column matrix, equal rows of ``a`` give equal results.
    """
    A, B = a.data, b.data
    if A.ndim < 2 or B.ndim < 2:
        raise ValueError("matmul: operands must have rank >= 2")
    if A.shape[-1] != B.shape[-2]:
        raise ValueError(f"matmul: inner dims disagree, {A.shape} @ {B.shape}")
    shared = B.ndim == 2
    if not shared and (A.ndim != B.ndim or A.shape[:-2] != B.shape[:-2]):
        raise ValueError(
            f"matmul: batch dims must match exactly (or B be 2-D), "
            f"{A.shape} @ {B.shape}"
        )
    if not shared:
        def backward(g):
            return g @ B.swapaxes(-1, -2), A.swapaxes(-1, -2) @ g

        return _result(A @ B, (a, b), backward)

    A2 = A.reshape(-1, A.shape[-1])

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ B.T).reshape(A.shape), A2.T @ g2

    if B.shape[1] == 1:
        # BLAS GEMV rounds rows differently by their position in A, so a
        # one-column product is a row-wise sum: equal rows, equal results.
        out = (A2 * B[:, 0]).sum(axis=-1, keepdims=True)
    else:
        out = A2 @ B
    return _result(out.reshape(A.shape[:-1] + (B.shape[1],)), (a, b), backward)


def transpose(a: Tensor, axis0: int = -2, axis1: int = -1) -> Tensor:
    def backward(g):
        return (g.swapaxes(axis0, axis1),)

    return _result(a.data.swapaxes(axis0, axis1), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.data.shape

    def backward(g):
        return (g.reshape(old),)

    return _result(a.data.reshape(shape), (a,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _result(y, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    n = x.data.shape[-1]
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise ValueError("layer_norm: gamma and beta must have shape (last_dim,)")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    out = xhat * gamma.data + beta.data
    lead = tuple(range(x.data.ndim - 1))
    G = gamma.data

    def backward(g):
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * G
        mean_d = dxhat.mean(axis=-1, keepdims=True)
        mean_dx = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - mean_d - xhat * mean_dx)
        return dx, dgamma, dbeta

    return _result(out, (x, gamma, beta), backward)


def _horner(t: np.ndarray, coeffs) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest power first) at ``t``, in place."""
    acc = t * coeffs[0]
    for c in coeffs[1:-1]:
        acc += c
        acc *= t
    acc += coeffs[-1]
    return acc


def _phi32(x: np.ndarray) -> np.ndarray:
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2 for float32 ``x``.

    erf is the odd rational z * P(z^2) / Q(z^2) of Eigen's float32 erf,
    on z clamped to [-4, 4] (erf is +-1 in float32 beyond); the 1/2 is
    folded into P, which is exact.  Fixed flat blocks keep the temporaries
    in cache; every op is elementwise, so a value never depends on its
    position in the array.
    """
    flat = x.reshape(-1)
    phi = np.empty_like(flat)
    for start in range(0, flat.size, _PHI32_BLOCK):
        z = flat[start:start + _PHI32_BLOCK] * _INV_SQRT2_32
        np.clip(z, -4.0, 4.0, out=z)
        z2 = z * z
        p = _horner(z2, _ERF32_P)
        p *= z
        q = _horner(z2, _ERF32_Q)
        out = phi[start:start + _PHI32_BLOCK]
        np.divide(p, q, out=out)
        out += 0.5
        np.clip(out, 0.0, 1.0, out=out)
    return phi.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, x * Phi(x) in the erf form.

    float64 input, which only the gradient checks use, takes the standard
    library's ``math.erf`` value by value.  float32 input takes the
    rational erf of ``_phi32``: Phi is within 2.5e-7 of the float64 path
    and the output within 3e-7 * max(1, |x|).
    The output has the input's dtype; the backward rule Phi + x * phi
    reuses the forward's Phi.
    """
    X = x.data
    if X.dtype == np.float32:
        cdf = _phi32(X)
    else:
        cdf = 0.5 * (1.0 + _erf64(X / _SQRT2))

    def backward(g):
        pdf = np.exp(-0.5 * X * X) * _INV_SQRT_2PI
        return (g * (cdf + X * pdf),)

    return _result(X * cdf, (x,), backward)


def mean_over_axis(x: Tensor, axis: int) -> Tensor:
    n = x.data.shape[axis]
    shape = x.data.shape

    def backward(g):
        expanded = np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, shape) / n,)

    return _result(x.data.mean(axis=axis), (x,), backward)


def concat_tokens(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two tensors along the token axis (second to last)."""
    if a.data.ndim != b.data.ndim:
        raise ValueError("concat_tokens: rank mismatch")
    split = a.data.shape[-2]

    def backward(g):
        ga, gb = np.split(g, [split], axis=-2)
        return ga, gb

    return _result(np.concatenate([a.data, b.data], axis=-2), (a, b), backward)


def take_token(x: Tensor, index: int) -> Tensor:
    """Select one entry along the token axis (second to last), dropping that axis."""
    out = np.take(x.data, index, axis=-2)
    shape = x.data.shape

    def backward(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[..., index, :] = g
        return (gx,)

    return _result(out, (x,), backward)


def repeat_batch(x: Tensor, n: int) -> Tensor:
    """Tile a size-1 leading axis n times; the gradient sums back over it."""
    if x.data.shape[0] != 1:
        raise ValueError("repeat_batch: leading axis must have size 1")

    def backward(g):
        return (g.sum(axis=0, keepdims=True),)

    return _result(np.repeat(x.data, n, axis=0), (x,), backward)


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dLeaf into every reachable requires_grad leaf.

    The loss must be a scalar (size-1) tensor recorded on a graph, or a
    ``requires_grad`` leaf.  Calling backward again without ``zero_grad``
    adds another full gradient on top of the stored one: the walk keeps
    every node and rule.
    """
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise RuntimeError("loss is not attached to a recorded graph")

    # Nodes and leaf Tensors, in the order of a DFS from the loss.
    root = loss._node or loss
    topo: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if type(node) is _Node:
            for parent in node.parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node))
        if type(node) is not _Node:
            node.grad += g
            continue
        for parent, pg in zip(node.parents, node.backward(g)):
            if parent is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


def zero_grad(params) -> None:
    """Zero stored gradients in place; accepts an iterable or a name -> Tensor dict."""
    tensors = params.values() if isinstance(params, dict) else params
    for p in tensors:
        p.grad[...] = 0

