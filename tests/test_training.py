"""Splits, MSE loss, Adam, the training loop, and regression metrics."""

import math
import sys
import threading
import time

import numpy as np
import pytest

from evtforce import autodiff as ad
from evtforce import synth, training
from evtforce.autodiff import Tensor
from evtforce.frames import FrameDataset
from evtforce.training import (
    EpochLog,
    Metrics,
    TrainConfig,
    adam_step,
    evaluate,
    init_adam_state,
    mse_loss,
    predict_forces,
    regression_metrics,
    split_dataset,
    train,
)
from evtforce.vit import ViTConfig, forward, init_params

from conftest import assert_flat_views, rel_err

TINY = ViTConfig(image_size=8, patch_size=4, in_channels=1, embed_dim=8,
                 depth=1, num_heads=2)


def toy_dataset(rng, n=24, side=8):
    """Frames whose label is their own mean, a target a tiny net can fit."""
    frames = rng.random((n, 1, side, side)).astype(np.float32)
    labels = [float(f.mean()) for f in frames]
    windows = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    return FrameDataset(frames, labels, ["toy"] * n, windows)


def empty_dataset(side=8):
    return FrameDataset(np.zeros((0, 1, side, side), dtype=np.float32), [], [])


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.learning_rate, cfg.batch_size, cfg.epochs) == (1e-3, 16, 200)
        assert cfg.split == (0.70, 0.15, 0.15)
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"epochs": -1},
            {"split": (0.5, 0.5)},
            {"split": (0.8, 0.3, -0.1)},
            {"split": (0.5, 0.3, 0.3)},
            {"beta1": 1.0},
            {"beta2": -0.1},
            {"eps": 0.0},
            {"mape_floor_n": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestSplit:
    def test_standard_thousand(self, rng):
        ds = toy_dataset(rng, n=1000, side=4)
        tr, va, te = split_dataset(ds, (0.70, 0.15, 0.15), seed=7)
        assert (len(tr), len(va), len(te)) == (700, 150, 150)

    def test_remainder_goes_to_train(self, rng):
        ds = toy_dataset(rng, n=10, side=4)
        tr, va, te = split_dataset(ds, (0.70, 0.15, 0.15), seed=0)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_parts_partition_the_dataset(self, rng):
        ds = toy_dataset(rng, n=37, side=4)
        tr, va, te = split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
        assert len(tr) + len(va) + len(te) == 37
        merged = sorted(np.concatenate([tr.labels, va.labels, te.labels]).tolist())
        assert merged == sorted(ds.labels.tolist())

    def test_seeded(self, rng):
        ds = toy_dataset(rng, n=50, side=4)
        a = split_dataset(ds, (0.70, 0.15, 0.15), seed=1)
        b = split_dataset(ds, (0.70, 0.15, 0.15), seed=1)
        c = split_dataset(ds, (0.70, 0.15, 0.15), seed=2)
        assert np.array_equal(a[0].labels, b[0].labels)
        assert not np.array_equal(a[0].labels, c[0].labels)

    def test_all_train(self, rng):
        ds = toy_dataset(rng, n=9, side=4)
        tr, va, te = split_dataset(ds, (1.0, 0.0, 0.0), seed=0)
        assert (len(tr), len(va), len(te)) == (9, 0, 0)

    @pytest.mark.parametrize(
        "ratios", [(0.5, 0.5), (0.5, 0.4, 0.2), (-0.1, 0.6, 0.5), (math.nan, 0.5, 0.5)]
    )
    def test_bad_ratios(self, rng, ratios):
        with pytest.raises(ValueError) as from_split:
            split_dataset(toy_dataset(rng, n=4, side=4), ratios, seed=0)
        # The config's split rule, word for word.
        with pytest.raises(ValueError) as from_config:
            TrainConfig(split=ratios)
        assert str(from_split.value) == str(from_config.value)


class TestMseLoss:
    def test_frozen_spot_value(self):
        # ((0.50-0.48)^2 + (1.50-1.53)^2) / 2 = (0.0004 + 0.0009) / 2
        pred = Tensor(np.array([[0.50], [1.50]]), requires_grad=True)
        target = Tensor(np.array([[0.48], [1.53]]))
        loss = mse_loss(pred, target)
        assert abs(float(loss.data) - 0.00065) < 1e-12

    def test_gradient_is_two_err_over_n(self):
        pred = Tensor(np.array([[0.50], [1.50]]), requires_grad=True)
        target = Tensor(np.array([[0.48], [1.53]]))
        ad.backward(mse_loss(pred, target))
        assert np.allclose(pred.grad, [[0.02], [-0.03]], atol=1e-12)

    def test_zero_for_perfect_predictions(self, rng):
        x = Tensor(rng.random((4, 1)))
        assert float(mse_loss(x, Tensor(x.data.copy())).data) == 0.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))))
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.zeros((0, 1))), Tensor(np.zeros((0, 1))))


class TestAdam:
    def one_step(self, grad):
        weights = np.zeros_like(grad)
        state = init_adam_state(weights)
        new_state = adam_step(weights, np.asarray(grad), state, TrainConfig())
        assert new_state is state
        return weights

    def test_first_step_closed_form(self, rng):
        g = rng.normal(size=(3, 4))
        lr, eps = TrainConfig().learning_rate, TrainConfig().eps
        # After bias correction the first step is exactly -lr * g / (|g| + eps).
        expected = -lr * g / (np.abs(g) + eps)
        assert rel_err(self.one_step(g), expected) < 1e-12

    def test_first_step_is_signed_learning_rate(self, rng):
        g = rng.normal(size=(50,)) * 10.0
        step = self.one_step(g)
        lr = TrainConfig().learning_rate
        assert np.all(np.sign(step) == -np.sign(g))
        assert np.max(np.abs(np.abs(step) - lr)) < 1e-6 * lr

    def test_gradient_scale_invariance(self, rng):
        g = rng.normal(size=(20,))
        # eps shifts the step by about eps / |g|, nothing more.
        tol = 2.0 * TrainConfig().eps / np.min(np.abs(g))
        assert rel_err(self.one_step(g), self.one_step(g * 1000.0)) < tol

    def test_constant_gradient_keeps_unit_steps(self, rng):
        g = rng.normal(size=(8,))
        weights = np.zeros(8)
        state = init_adam_state(weights)
        cfg = TrainConfig()
        prev = weights.copy()
        for t in range(1, 4):
            adam_step(weights, g, state, cfg)
            assert state.t == t
            delta = weights - prev
            prev = weights.copy()
            assert np.max(np.abs(np.abs(delta) - cfg.learning_rate)) < 1e-6

    def test_each_element_is_updated_independently(self, rng):
        grads = rng.normal(size=(3, 7)) * np.logspace(-3, 3, 7)
        cfg = TrainConfig()
        weights = np.zeros(7)
        state = init_adam_state(weights)
        for g in grads:
            adam_step(weights, g, state, cfg)
        assert state.m.shape == state.v.shape == (7,)
        for i in range(7):
            alone = np.zeros(1)
            alone_state = init_adam_state(alone)
            for g in grads:
                adam_step(alone, g[i : i + 1], alone_state, cfg)
            assert alone[0] == weights[i], i


class TestMetrics:
    def test_rmse_is_root_of_mse(self):
        m = regression_metrics([0.50, 1.50], [0.48, 1.53])
        assert abs(m.rmse - math.sqrt(0.00065)) < 1e-12
        assert round(m.rmse, 5) == 0.02550

    def test_rmse_squared_equals_mse_loss(self, rng):
        for _ in range(20):
            preds = rng.normal(size=100)
            targets = rng.normal(size=100)
            mse = float(mse_loss(Tensor(preds), Tensor(targets)).data)
            rmse = regression_metrics(preds, targets).rmse
            assert abs(rmse * rmse - mse) <= 1e-12 * max(mse, 1e-300)

    def test_mean_predictor_scores_zero_r2(self, rng):
        targets = rng.normal(size=200)
        preds = np.full(200, targets.mean())
        assert abs(regression_metrics(preds, targets).r2) <= 1e-12

    def test_perfect_predictions(self, rng):
        targets = rng.random(50)
        m = regression_metrics(targets.copy(), targets)
        assert (m.rmse, m.r2, m.mape, m.n) == (0.0, 1.0, 0.0, 50)

    def test_r2_none_for_constant_targets(self):
        m = regression_metrics([0.1, 0.2], [0.7, 0.7])
        assert m.r2 is None
        assert m.rmse > 0

    def test_r2_never_exceeds_one(self, rng):
        for _ in range(20):
            m = regression_metrics(rng.normal(size=30), rng.normal(size=30))
            assert m.r2 <= 1.0

    def test_mape_floor(self):
        # Zero target: error is divided by the floor, not by zero.
        assert regression_metrics([0.05], [0.0]).mape == 1.0
        assert abs(regression_metrics([1.1], [1.0]).mape - 0.1) < 1e-12
        assert regression_metrics([0.1], [0.0], mape_floor_n=0.01).mape == 10.0

    def test_mape_floor_is_at_least_float32_tiny(self):
        tiny = float(np.finfo(np.float32).tiny)
        assert TrainConfig(mape_floor_n=tiny).mape_floor_n == tiny
        # The largest float32 error over a zero label and the smallest floor.
        m = regression_metrics([float(np.finfo(np.float32).max)], [0.0], mape_floor_n=tiny)
        assert math.isfinite(m.mape) and m.mape < 3e76
        # Below the bound that quotient can overflow: 1e-320 gives inf.
        for floor in (float(np.nextafter(tiny, 0.0)), 1e-320, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="^mape_floor_n must be at least ") as from_call:
                regression_metrics([0.1], [0.0], mape_floor_n=floor)
            with pytest.raises(ValueError) as from_config:
                TrainConfig(mape_floor_n=floor)
            assert str(from_call.value) == str(from_config.value)

    def test_to_dict_keys(self):
        d = Metrics(rmse=0.1, r2=None, mape=0.2, n=5).to_dict()
        assert d == {"rmse_n": 0.1, "r2": None, "mape": 0.2, "n": 5}

    def test_validation(self):
        with pytest.raises(ValueError):
            regression_metrics([], [])
        with pytest.raises(ValueError):
            regression_metrics([0.1], [0.1, 0.2])
        with pytest.raises(ValueError):
            regression_metrics([[0.1]], [[0.1]])
        with pytest.raises(ValueError):
            regression_metrics([0.1], [0.1], mape_floor_n=0.0)


class TestTrainLoop:
    def split_toy(self, rng, n=24):
        ds = toy_dataset(rng, n=n)
        return split_dataset(ds, (0.70, 0.15, 0.15), seed=5)

    def test_zero_epochs_is_identity(self, rng):
        tr, va, _ = self.split_toy(rng)
        model = init_params(TINY, seed=0)
        before = {k: p.data.copy() for k, p in model.params.items()}
        model, log = train(model, (tr, va), TrainConfig(epochs=0))
        assert log == []
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name])

    def test_empty_train_split_rejected(self, rng):
        _, va, _ = self.split_toy(rng)
        with pytest.raises(ValueError, match="train split is empty"):
            train(init_params(TINY, seed=0), (empty_dataset(), va), TrainConfig(epochs=1))

    def test_training_reduces_loss(self, rng):
        tr, va, _ = self.split_toy(rng, n=48)
        model = init_params(TINY, seed=0)
        cfg = TrainConfig(epochs=25, batch_size=8, learning_rate=3e-3)
        model, log = train(model, (tr, va), cfg)
        assert [e.epoch for e in log] == list(range(25))
        assert log[-1].train_mse < log[0].train_mse / 3

    def test_deterministic_given_seed(self, rng):
        tr, va, _ = self.split_toy(rng)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=4)
        m1, log1 = train(init_params(TINY, seed=0), (tr, va), cfg)
        m2, log2 = train(init_params(TINY, seed=0), (tr, va), cfg)
        assert log1 == log2
        for name in m1.params:
            assert np.array_equal(m1.params[name].data, m2.params[name].data)

    def test_shuffle_seed_changes_the_path(self, rng):
        tr, va, _ = self.split_toy(rng)
        m1, _ = train(init_params(TINY, seed=0), (tr, va),
                      TrainConfig(epochs=2, batch_size=8, seed=4))
        m2, _ = train(init_params(TINY, seed=0), (tr, va),
                      TrainConfig(epochs=2, batch_size=8, seed=5))
        assert any(
            not np.array_equal(m1.params[n].data, m2.params[n].data)
            for n in m1.params
        )

    def test_returned_model_is_the_best_validation_epoch(self, rng):
        tr, va, _ = self.split_toy(rng, n=48)
        cfg = TrainConfig(epochs=12, batch_size=8, learning_rate=3e-3)
        model, log = train(init_params(TINY, seed=0), (tr, va), cfg)
        best = min(e.val_mse for e in log)
        rmse = evaluate(model, va).rmse
        assert abs(rmse * rmse - best) <= 1e-4 * max(best, 1e-12)

    def test_restored_best_epoch_stays_in_the_flat_buffer(self, rng):
        tr, va, _ = self.split_toy(rng, n=48)
        cfg = TrainConfig(epochs=12, batch_size=8, learning_rate=3e-3)
        model, log = train(init_params(TINY, seed=0), (tr, va), cfg)
        assert min(log, key=lambda e: e.val_mse).epoch < log[-1].epoch
        assert_flat_views(model)

    def test_logged_val_mse_is_the_mean_over_predictions(self, rng):
        # 100 validation frames: two inference batches of batch_frames.
        tr, va = toy_dataset(rng, n=32), toy_dataset(rng, n=100)
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=3e-3)
        model, log = train(init_params(TINY, seed=0), (tr, va), cfg)
        best = min(log, key=lambda e: e.val_mse)
        assert best.val_mse == np.mean((predict_forces(model, va.frames) - va.labels) ** 2)

    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_shard_gradients_add_up_to_the_batch_gradient(self, rng, n):
        # Each shard divides its squared errors by the whole batch's n, so
        # the two shards' gradients sum to the full batch's MSE gradient.
        model = init_params(TINY, seed=0, dtype=np.float64)
        frames = rng.random((n, 1, 8, 8))
        labels = rng.random(n)
        ad.zero_grad(model.params)
        full = mse_loss(forward(frames, model), Tensor(labels[:, None]))
        ad.backward(full)
        want = model.grads.copy()
        shards = (model, training._grad_shard(model))
        halves = training._halves(0, n)
        assert [b - a for a, b in halves] == ([1] if n == 1 else [(n + 1) // 2, n // 2])
        loss = sum(training._shard_step(shard, frames[a:b], labels[a:b], n)
                   for shard, (a, b) in zip(shards, halves))
        if len(halves) == 2:
            model.grads += shards[1].grads
        assert rel_err(loss, float(full.data)) <= 1e-12
        assert rel_err(model.grads, want) <= 1e-12

    def test_shards_on_the_pool_equal_shards_in_turn(self, rng, monkeypatch):
        # Threads share the weights and each writes its own grad buffer; a
        # lost or crossed update would move a byte.  More workers than
        # cores and a short switch interval interleave them as much as
        # the interpreter allows.
        tr, va = toy_dataset(rng, n=20), toy_dataset(rng, n=30)
        cfg = TrainConfig(epochs=2, batch_size=7, learning_rate=3e-3)

        def run():
            model, log = train(init_params(TINY, seed=0), (tr, va), cfg)
            return model.weights, log, predict_forces(model, va.frames, batch_size=3)

        monkeypatch.setattr(synth, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(training, "_openblas_threads", lambda: None)
        in_turn = run()
        assert np.array_equal(pooled[0], in_turn[0])
        assert pooled[1] == in_turn[1]
        assert np.array_equal(pooled[2], in_turn[2])

    def test_without_validation_keeps_final_epoch(self, rng):
        ds = toy_dataset(rng, n=16)
        model, log = train(init_params(TINY, seed=0), (ds, empty_dataset()),
                           TrainConfig(epochs=2, batch_size=8))
        assert all(math.isnan(e.val_mse) for e in log)
        assert all(math.isfinite(e.train_mse) for e in log)


class TestPredictEvaluate:
    def test_predict_shape_and_dtype(self, rng):
        model = init_params(TINY, seed=1)
        frames = rng.random((7, 1, 8, 8), dtype=np.float32)
        out = predict_forces(model, frames)
        assert out.shape == (7,)
        assert out.dtype == np.float64

    def test_prediction_independent_of_batching(self, rng):
        model = init_params(TINY, seed=1)
        frames = rng.random((10, 1, 8, 8), dtype=np.float32)
        # Different batch sizes take different GEMM blockings, so agreement
        # is up to float32 reduction noise, not bitwise.
        assert rel_err(
            predict_forces(model, frames, batch_size=3),
            predict_forces(model, frames, batch_size=256),
        ) <= 1e-4

    def test_default_model_predictions_do_not_depend_on_the_batch(self, rng):
        # The default ViT's inference bytes are the same at any of these
        # batch sizes, so the batch_frames cap moves no prediction.
        model = init_params(ViTConfig(), seed=3)
        frames = rng.random((130, 2, 64, 64), dtype=np.float32)
        want = predict_forces(model, frames, batch_size=1)
        for batch_size in (64, 256):
            assert np.array_equal(predict_forces(model, frames, batch_size), want), batch_size

    def test_one_frame_starts_no_thread_and_leaves_blas_threads_alone(self, rng, monkeypatch):
        # The batch-1 path (``stream``'s) must not pay for the pool or the pin.
        started, sets = [], []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), start(thread))[1])
        monkeypatch.setattr(training, "_openblas_threads", lambda: (lambda: 2, sets.append))
        model = init_params(TINY, seed=1)
        frames = rng.random((2, 1, 8, 8), dtype=np.float32)
        predict_forces(model, frames[:1])
        assert (started, sets) == ([], [])
        # Two frames are two shards: on the pool, with BLAS at one thread
        # for the call and its count restored after.
        predict_forces(model, frames)
        assert started and sets == [1, 2]

    def test_at_most_two_forward_jobs_run_at_once(self, rng, monkeypatch):
        # Whatever the core count, a batch's two halves are the only jobs
        # in flight: more would undo batch_frames' cap on live activations.
        live, peak, lock = [0], [0], threading.Lock()

        def counted(frames, model):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            try:
                time.sleep(0.005)
                return forward(frames, model)
            finally:
                with lock:
                    live[0] -= 1

        model = init_params(TINY, seed=1)
        frames = rng.random((24, 1, 8, 8), dtype=np.float32)
        want = predict_forces(model, frames, batch_size=4)
        monkeypatch.setattr(synth, "_WORKERS", 8)
        monkeypatch.setattr(training, "forward", counted)
        assert np.array_equal(predict_forces(model, frames, batch_size=4), want)
        assert peak[0] <= 2

    def test_overlapping_pins_restore_the_count_the_first_one_found(self, monkeypatch):
        # A second call starts while the first one's jobs run, and its jobs
        # read the count after the first call has returned.  Taking turns,
        # every job reads 1 and the count ends as the first call found it.
        # Without the lock, the second call would save the first one's 1,
        # its jobs would read the restored 3, and it would leave 1 behind.
        count = [3]
        first_running, second_pinning, first_done = (threading.Event() for _ in range(3))

        def get():
            if first_running.is_set():
                second_pinning.set()
            return count[0]

        def first_job():
            first_running.set()
            second_pinning.wait(0.3)  # times out while the calls take turns
            return count[0]

        def second_job():
            first_done.wait(10)
            return count[0]

        def call(name, job):
            reads[name] = training._run_shards([(job,), (job,)])
            first_done.set()

        monkeypatch.setattr(training, "_openblas_threads",
                            lambda: (get, lambda n: count.__setitem__(0, n)))
        reads = {}
        first = threading.Thread(target=call, args=("first", first_job))
        first.start()
        first_running.wait(10)
        second = threading.Thread(target=call, args=("second", second_job))
        second.start()
        first.join(10)
        second.join(10)
        assert not first.is_alive() and not second.is_alive()
        assert reads == {"first": [1, 1], "second": [1, 1]}
        assert count == [3]

    def test_evaluate_against_own_predictions_is_perfect(self, rng):
        model = init_params(TINY, seed=1)
        ds = toy_dataset(rng, n=12)
        preds = predict_forces(model, ds.frames)
        oracle = FrameDataset(ds.frames, preds.astype(np.float32), ds.provenance, ds.windows)
        m = evaluate(model, oracle)
        assert m.rmse == 0.0
        assert m.r2 == 1.0
        assert m.n == 12

    def test_evaluate_empty_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate(init_params(TINY, seed=1), empty_dataset())
