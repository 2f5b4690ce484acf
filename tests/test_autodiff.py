"""Reverse-mode engine: per-op gradient checks and graph bookkeeping."""

import contextvars
import threading
import weakref

import numpy as np
import pytest
from scipy.special import erf

from evtforce import autodiff as ad
from evtforce.autodiff import Tensor

from conftest import check_op_grads, rel_err, tensor64


# (name, build, input shapes) for every differentiable op.  Shapes cover the
# sanctioned broadcast/batching variants; everything else must shape-error.
OP_CASES = [
    ("add", ad.add, [(3, 4), (3, 4)]),
    ("sub", ad.sub, [(3, 4), (3, 4)]),
    ("mul", ad.mul, [(3, 4), (3, 4)]),
    ("scale", lambda a: ad.scale(a, -1.7), [(2, 5)]),
    ("add_bias_vec", ad.add_bias, [(4, 6), (6,)]),
    ("add_bias_grid", ad.add_bias, [(2, 3, 5), (3, 5)]),
    ("add_bias_stacked", ad.add_bias, [(2, 3, 5), (5,)]),
    ("matmul_2d", ad.matmul, [(3, 4), (4, 5)]),
    ("matmul_stacked", ad.matmul, [(2, 3, 4), (4, 5)]),
    ("matmul_batched", ad.matmul, [(2, 2, 3, 4), (2, 2, 4, 6)]),
    ("transpose", ad.transpose, [(3, 5)]),
    ("transpose_3d", lambda a: ad.transpose(a, -3, -1), [(2, 3, 4)]),
    ("reshape", lambda a: ad.reshape(a, (4, 3)), [(2, 6)]),
    ("softmax_rows", ad.softmax_rows, [(3, 7)]),
    ("layer_norm", ad.layer_norm, [(4, 6), (6,), (6,)]),
    ("layer_norm_vector", ad.layer_norm, [(6,), (6,), (6,)]),
    ("gelu", ad.gelu, [(3, 4)]),
    ("mean_axis0", lambda a: ad.mean_over_axis(a, 0), [(4, 5)]),
    ("mean_axis1", lambda a: ad.mean_over_axis(a, 1), [(3, 4)]),
    ("concat_tokens", ad.concat_tokens, [(2, 3, 4), (2, 2, 4)]),
    ("take_token", lambda a: ad.take_token(a, 0), [(2, 5, 3)]),
    ("take_last_token", lambda a: ad.take_token(a, 4), [(2, 5, 3)]),
    ("repeat_batch", lambda a: ad.repeat_batch(a, 4), [(1, 2, 3)]),
    # The key bias shifts each softmax row by a constant, so its gradient is
    # zero and finite differences read only rounding: it is held fixed.
    ("attention", lambda x, g, b, wq, bq, wk, *rest: ad.attention(
        x, g, b, wq, bq, wk, Tensor(np.linspace(-1.0, 1.0, 8)), *rest, heads=2),
     [(2, 3, 8), (8,), (8,), (8, 8), (8,), (8, 8)] + [(8, 8), (8,)] * 2),
    ("mlp", ad.mlp, [(2, 3, 8), (8,), (8,), (8, 16), (16,), (16, 8), (8,)]),
]


@pytest.mark.parametrize("name,build,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients(name, build, shapes):
    for seed in range(3):
        rng = np.random.default_rng(hash((name, seed)) % 2**32)
        inputs = [tensor64(rng, s) for s in shapes]
        check_op_grads(build, inputs, rng)


class TestForwardValues:
    def test_elementwise(self, rng):
        a = tensor64(rng, (2, 3))
        b = tensor64(rng, (2, 3))
        assert np.array_equal(ad.add(a, b).data, a.data + b.data)
        assert np.array_equal(ad.sub(a, b).data, a.data - b.data)
        assert np.array_equal(ad.mul(a, b).data, a.data * b.data)
        assert np.array_equal(ad.scale(a, 2.5).data, a.data * 2.5)

    def test_softmax_frozen_point(self):
        # exp([0, ln 3]) = [1, 3] -> probabilities [1/4, 3/4]
        out = ad.softmax_rows(Tensor(np.array([[0.0, np.log(3.0)]])))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_softmax_rows_are_distributions(self, rng):
        out = ad.softmax_rows(tensor64(rng, (5, 9), scale=20.0))
        assert np.all(out.data > 0)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance_under_large_inputs(self):
        x = Tensor(np.array([[1000.0, 1001.0]]))
        out = ad.softmax_rows(x)
        assert np.all(np.isfinite(out.data))
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_gelu_frozen_points(self):
        x = Tensor(np.array([0.0, 1.0, 10.0, -10.0]))
        y = ad.gelu(x).data
        assert y[0] == 0.0
        # 1 * Phi(1), Phi the standard normal CDF
        assert abs(y[1] - 0.8413447460685429) < 1e-12
        assert abs(y[2] - 10.0) < 1e-6
        assert abs(y[3]) < 1e-6

    def test_layer_norm_constant_row_returns_beta(self, rng):
        x = Tensor(np.full((3, 6), 2.71))
        gamma = tensor64(rng, (6,))
        beta = tensor64(rng, (6,))
        out = ad.layer_norm(x, gamma, beta)
        assert np.allclose(out.data, np.broadcast_to(beta.data, (3, 6)), atol=1e-12)

    def test_layer_norm_standardizes(self, rng):
        x = tensor64(rng, (4, 16), scale=5.0)
        out = ad.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_mean_over_axis_hand_case(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(ad.mean_over_axis(x, 0).data, [2.0, 3.0])
        assert np.array_equal(ad.mean_over_axis(x, 1).data, [1.5, 3.5])

    def test_concat_take_repeat_shapes(self, rng):
        a = tensor64(rng, (2, 1, 4))
        b = tensor64(rng, (2, 3, 4))
        cat = ad.concat_tokens(a, b)
        assert cat.shape == (2, 4, 4)
        assert np.array_equal(ad.take_token(cat, 0).data, a.data[:, 0, :])
        rep = ad.repeat_batch(tensor64(rng, (1, 2, 3)), 5)
        assert rep.shape == (5, 2, 3)
        assert np.array_equal(rep.data[4], rep.data[0])


class TestBackwardFormulas:
    def test_matmul_closed_form(self, rng):
        a = tensor64(rng, (3, 4))
        b = tensor64(rng, (4, 5))
        out = ad.matmul(a, b)
        loss = ad.mean_over_axis(ad.reshape(out, (15,)), 0)
        ad.backward(loss)
        g = np.full((3, 5), 1.0 / 15.0)
        assert rel_err(a.grad, g @ b.data.T) < 1e-12
        assert rel_err(b.grad, a.data.T @ g) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_matmul_is_the_flattened_gemm(self, rng, dtype):
        # A linear layer on (B, T, K) tokens: forward and both gradients
        # must be bit-equal to the (B*T, K) @ (K, N) product.
        a_data = rng.normal(size=(3, 7, 5)).astype(dtype)
        b_data = rng.normal(size=(5, 4)).astype(dtype)
        g_data = rng.normal(size=(3, 7, 4)).astype(dtype)
        grads = []
        for a_shape, g_shape in (((3, 7, 5), (3, 7, 4)), ((21, 5), (21, 4))):
            a = Tensor(a_data.reshape(a_shape), requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            out = ad.matmul(a, b)
            loss = ad.mean_over_axis(
                ad.reshape(ad.mul(out, Tensor(g_data.reshape(g_shape))), (84,)), 0
            )
            ad.backward(loss)
            grads.append((out.data.reshape(21, 4), a.grad.reshape(21, 5), b.grad))
        for stacked, flat in zip(*grads):
            assert np.array_equal(stacked, flat)

    def test_add_bias_sums_over_leading_axes(self, rng):
        x = tensor64(rng, (4, 6))
        b = tensor64(rng, (6,))
        loss = ad.mean_over_axis(ad.reshape(ad.add_bias(x, b), (24,)), 0)
        ad.backward(loss)
        assert np.allclose(b.grad, np.full(6, 4.0 / 24.0), atol=1e-15)
        assert np.allclose(x.grad, np.full((4, 6), 1.0 / 24.0), atol=1e-15)


class TestGraphMechanics:
    def loss_of(self, a, b):
        return ad.mean_over_axis(ad.reshape(ad.mul(a, b), (a.data.size,)), 0)

    def test_accumulation_until_zero_grad(self, rng):
        a = tensor64(rng, (3, 3))
        b = tensor64(rng, (3, 3), requires_grad=False)
        ad.backward(self.loss_of(a, b))
        once = a.grad.copy()
        ad.backward(self.loss_of(a, b))
        assert np.allclose(a.grad, 2 * once, atol=1e-15)
        ad.zero_grad([a])
        assert not a.grad.any()
        ad.backward(self.loss_of(a, b))
        assert np.array_equal(a.grad, once)

    def test_zero_grad_accepts_dict(self, rng):
        a = tensor64(rng, (2,))
        a.grad += 1.0
        ad.zero_grad({"a": a})
        assert not a.grad.any()

    def test_untouched_leaf_keeps_zero_grad(self, rng):
        a = tensor64(rng, (2, 2))
        bystander = tensor64(rng, (2, 2))
        ad.backward(self.loss_of(a, Tensor(np.ones((2, 2)))))
        assert not bystander.grad.any()
        assert a.grad.any()

    def test_diamond_graph_accumulates_both_paths(self, rng):
        a = tensor64(rng, (3,))
        out = ad.add(a, a)
        ad.backward(ad.mean_over_axis(out, 0))
        assert np.allclose(a.grad, np.full(3, 2.0 / 3.0), atol=1e-15)

    def test_backward_requires_scalar(self, rng):
        a = tensor64(rng, (2, 2))
        with pytest.raises(ValueError):
            ad.backward(ad.add(a, a))

    def test_backward_requires_recorded_graph(self):
        with pytest.raises(RuntimeError):
            ad.backward(Tensor(5.0))

    def test_no_grad_suspends_recording(self, rng):
        a = tensor64(rng, (2, 3))
        with ad.no_grad():
            assert not ad.is_grad_enabled()
            out = ad.gelu(a)
        assert ad.is_grad_enabled()
        assert not out.requires_grad
        recorded = ad.gelu(a)
        assert recorded.requires_grad
        assert np.array_equal(out.data, recorded.data)

    def test_no_grad_on_two_threads_leaves_the_caller_recording(self, rng):
        # A enters, B enters, A exits, B exits: with one process-wide mode,
        # B would restore A's False and leave recording off everywhere.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with ad.no_grad():
                a_in.set()
                b_in.wait(10)
                seen["a inside"] = ad.is_grad_enabled()
            a_out.set()
            seen["a after"] = ad.is_grad_enabled()

        def thread_b():
            a_in.wait(10)
            with ad.no_grad():
                b_in.set()
                a_out.wait(10)
                seen["b inside"] = ad.is_grad_enabled()
            seen["b after"] = ad.is_grad_enabled()

        # Each thread runs in a copy of this context, as pool jobs do.
        threads = [threading.Thread(target=contextvars.copy_context().run, args=(fn,))
                   for fn in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert seen == {"a inside": False, "a after": True, "b inside": False, "b after": True}
        assert ad.is_grad_enabled()
        assert ad.gelu(tensor64(rng, (2, 3))).requires_grad

    def test_a_value_no_rule_reads_is_freed_when_dropped(self, rng, no_cyclic_gc):
        # add_bias's rule reads no value, so the graph does not keep the
        # matmul product alive once the caller drops it.
        x, w, b = tensor64(rng, (4, 3)), tensor64(rng, (3, 5)), tensor64(rng, (5,))
        probe = Tensor(rng.normal(size=(4, 5)))
        grads = []
        for keep in (True, False):
            ad.zero_grad([x, w, b])
            product = ad.matmul(x, w)
            freed = weakref.ref(product.data)
            out = ad.add_bias(product, b)
            held = product if keep else None
            del product
            assert (freed() is None) is not keep
            ad.backward(self.loss_of(out, probe))
            grads.append([t.grad.copy() for t in (x, w, b)])
            del held
        for kept, dropped in zip(*grads):
            assert np.array_equal(kept, dropped)

    def test_a_size_one_leaf_as_the_loss_gets_grad_one(self):
        leaf = Tensor(np.array([3.0]), requires_grad=True)
        ad.backward(leaf)
        assert leaf.grad.tolist() == [1.0]
        ad.backward(leaf)
        assert leaf.grad.tolist() == [2.0]

    def test_requires_grad_leaf_starts_with_zeros(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        assert t.grad is not None and not t.grad.any()
        assert Tensor(np.ones(2)).grad is None


class TestGelu:
    """float32 GELU takes a rational erf; float64 the standard library's."""

    # The accuracy the gelu docstring states for float32 input.
    TOL = 3e-7

    @staticmethod
    def float64_path(x32):
        return ad.gelu(Tensor(x32.astype(np.float64))).data

    def test_float32_within_bound_of_float64_path(self):
        x = np.linspace(-10.0, 10.0, 400_001, dtype=np.float32)
        y = ad.gelu(Tensor(x)).data
        ref = self.float64_path(x)
        err = np.abs(y.astype(np.float64) - ref)
        assert np.all(err <= self.TOL * np.maximum(1.0, np.abs(x)))
        # 0 <= Phi <= 1: the output never leaves [min(x, 0), max(x, 0)].
        assert np.all((np.minimum(x, 0) <= y) & (y <= np.maximum(x, 0)))

    def test_special_values_match_float64_path(self):
        x = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0], dtype=np.float32)
        with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) = -inf * 0
            y = ad.gelu(Tensor(x)).data
            ref = self.float64_path(x)
        np.testing.assert_array_equal(y.astype(np.float64), ref)
        assert np.array_equal(np.signbit(y), np.signbit(ref))

    def test_saturates_beyond_the_clamp(self):
        x = np.array([-1e30, -50.0, -6.0, 6.0, 50.0, 1e30], dtype=np.float32)
        y = ad.gelu(Tensor(x)).data
        assert np.array_equal(y, np.where(x > 0, x, np.float32(0.0)))

    def test_float64_path_is_scipy_erf(self, rng):
        # math.erf is within 3 ulp of scipy's, so GELU is within a few
        # spacings of max(1, |x|).
        x = rng.standard_normal((7, 9)) * 4.0
        expect = x * (0.5 * (1.0 + erf(x / float(np.sqrt(2.0)))))
        err = np.abs(ad.gelu(Tensor(x)).data - expect)
        assert np.all(err <= 4 * np.spacing(np.maximum(1.0, np.abs(x))))

    def test_float32_dtype_in_and_out(self, rng):
        x = Tensor(rng.standard_normal((3, 5)).astype(np.float32), requires_grad=True)
        y = ad.gelu(x)
        assert y.dtype == np.float32
        ad.backward(ad.mean_over_axis(ad.mean_over_axis(y, 0), 0))
        assert x.grad.dtype == np.float32

    def test_float32_gradient_tracks_float64(self, rng):
        x64 = rng.standard_normal((4, 33)) * 3.0
        grads = []
        for dtype in (np.float32, np.float64):
            x = Tensor(x64.astype(dtype), requires_grad=True)
            ad.backward(ad.mean_over_axis(ad.mean_over_axis(ad.gelu(x), 0), 0))
            grads.append(x.grad.astype(np.float64))
        assert np.allclose(grads[0], grads[1], rtol=0, atol=1e-8)

    def test_batch_one_rows_equal_batch_sixteen(self, rng):
        # One (65, 512) row is 33,280 values, so rows 1, 3, ... straddle
        # the 65,536-value blocks of the batch-16 call.
        x = (rng.standard_normal((16, 65, 512)) * 2.0).astype(np.float32)
        full = ad.gelu(Tensor(x)).data
        for k in range(16):
            assert np.array_equal(ad.gelu(Tensor(x[k:k + 1])).data, full[k:k + 1])

    def test_strided_input_equals_contiguous(self, rng):
        x = rng.standard_normal((300, 257)).astype(np.float32)
        strided = ad.gelu(Tensor(x.T)).data
        assert np.array_equal(strided, ad.gelu(Tensor(np.ascontiguousarray(x.T))).data)


class TestDtypesAndShapes:
    def test_float_dtypes_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_ops_keep_dtype(self, rng):
        a32 = Tensor(rng.random((2, 2)).astype(np.float32))
        assert ad.gelu(a32).dtype == np.float32
        a64 = Tensor(rng.random((2, 2)))
        assert ad.gelu(a64).dtype == np.float64

    @pytest.mark.parametrize(
        "build,shapes",
        [
            (ad.add, [(2, 3), (3, 2)]),
            (ad.mul, [(2, 3), (2, 4)]),
            (ad.add_bias, [(2, 3), (2,)]),
            (ad.add_bias, [(3,), (1, 3)]),
            (ad.matmul, [(2, 3), (4, 2)]),
            (ad.matmul, [(2, 3, 4), (3, 4, 5)]),
            (ad.matmul, [(3,), (3, 2)]),
            (lambda a: ad.repeat_batch(a, 2), [(3, 2)]),
            (lambda x, g, b: ad.layer_norm(x, g, b), [(2, 4), (3,), (4,)]),
        ],
    )
    def test_shape_errors(self, rng, build, shapes):
        with pytest.raises(ValueError):
            build(*[tensor64(rng, s) for s in shapes])

