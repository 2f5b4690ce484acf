"""Shared test helpers: random streams, numeric gradients, flat-buffer
views, memory tracing."""

import gc
import tracemalloc

import numpy as np
import pytest

from evtforce.autodiff import Tensor
from evtforce.events import EventStream
from evtforce.frames import frame_chunks


def make_stream(rng, n=200, width=64, height=48, t_max=1_000_000):
    """Random valid stream: sorted timestamps, in-range coords, +-1 polarity."""
    t = np.sort(rng.integers(0, t_max, size=n))
    x = rng.integers(0, width, size=n)
    y = rng.integers(0, height, size=n)
    p = rng.choice([-1, 1], size=n)
    return EventStream(width, height, t_us=t, x=x, y=y, p=p)


def all_frames(stream, spec):
    """Every full window's frame of a recording, as one (n, C, H, W) array."""
    empty = np.zeros((0, *spec.frame_shape(stream.height, stream.width)), dtype=np.float32)
    return np.concatenate([empty, *frame_chunks(stream, spec)])


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0), 1e-12)
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def numeric_grad(loss_fn, tensor, h=1e-5):
    """Central finite differences of a scalar-returning closure wrt tensor.data.

    Mutates tensor.data in place (restoring each entry), so the tensor must
    hold float64 for the quotient to have usable precision.
    """
    assert tensor.data.dtype == np.float64
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = loss_fn()
        flat[i] = orig - h
        f_minus = loss_fn()
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad.reshape(tensor.data.shape)


def assert_flat_views(model):
    """Each parameter's data and grad are views of its sorted-order slice
    of ``model.weights`` and ``model.grads``, which they tile exactly."""
    offset = 0
    for name in sorted(model.params):
        p = model.params[name]
        end = offset + p.data.size
        assert np.shares_memory(p.data, model.weights[offset:end]), name
        assert np.shares_memory(p.grad, model.grads[offset:end]), name
        offset = end
    assert offset == model.weights.size == model.grads.size


def traced_memory(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under tracemalloc: (result, live bytes, peak bytes).

    Only what is allocated after the start counts.  Live bytes are those
    still allocated when ``fn`` has returned, its result's included.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, live, peak


def tensor64(rng, shape, requires_grad=True, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape).astype(np.float64),
                  requires_grad=requires_grad)


def check_op_grads(build, inputs, rng, tol=1e-5, h=1e-5):
    """Gradcheck one op: autodiff grads vs central differences, all inputs.

    ``build(*inputs)`` must rerun the op's forward from the inputs' current
    data.  The output is reduced to a scalar through a fixed random
    projection (mul + reshape + mean), so the check also exercises graph
    composition.  Returns the worst relative error seen.
    """
    from evtforce import autodiff as ad

    probe = build(*inputs)
    w = Tensor(rng.normal(size=probe.data.shape).astype(np.float64))

    def loss_tensor():
        out = build(*inputs)
        flat = ad.reshape(ad.mul(out, w), (out.data.size,))
        return ad.mean_over_axis(flat, 0)

    ad.zero_grad(inputs)
    ad.backward(loss_tensor())
    worst = 0.0
    for inp in inputs:
        expected = numeric_grad(lambda: float(loss_tensor().data), inp, h=h)
        err = rel_err(inp.grad, expected)
        assert err <= tol, f"gradient mismatch: rel err {err:.3e} > {tol:.0e}"
        worst = max(worst, err)
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def no_cyclic_gc():
    """The cyclic garbage collector off for one test, so what the test
    sees freed was freed by reference counting alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
