"""Dataset splitting, MSE training with Adam, and regression metrics.

Training is plain minibatch SGD-style: shuffle the train split each epoch
with a seeded generator, run forward + backward through the autodiff
graph, and apply bias-corrected Adam.  The model state returned is the
epoch with the lowest validation MSE.  Given one seed, the whole loop is
deterministic down to the checkpoint bytes.

Each batch runs as two fixed shards, rows [0, ceil(n / 2)) and the rest
(one shard when n = 1), on two threads of the ordered pool
(``synth._run_in_order``).  OpenBLAS is pinned to one thread around each
two-shard call and given its count back after it; overlapping calls
from two threads take turns.  Each shard accumulates its gradient into
its own flat buffer over the shared weights, and the buffers are added
in shard order before one Adam step, so the trained bytes depend neither
on the BLAS thread count nor on how many CPUs the process may use: the
shard count is the constant 2.  Batched inference runs each batch as
the same two halves.  Where no OpenBLAS thread setter is found, the
shards run in turn on the calling thread, and the bytes then depend on
the BLAS thread count.
"""

from __future__ import annotations

import copy
import functools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .events import _check_fields, _is_real
from .frames import FrameDataset, batch_frames
from .synth import _run_in_order
from .vit import ViTModel, _params, forward


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 200
    seed: int = 0
    split: tuple[float, float, float] = (0.70, 0.15, 0.15)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    mape_floor_n: float = 0.05

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "split", _checked_split(self.split))
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0 <= self.beta1 < 1:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0 <= self.beta2 < 1:
            raise ValueError("beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        _check_mape_floor(self.mape_floor_n)


def _checked_split(split) -> tuple[float, float, float]:
    """The train/val/test ratios as floats: a list or tuple of three
    finite, non-negative numbers summing to 1."""
    if not (isinstance(split, (list, tuple)) and len(split) == 3
            and all(_is_real(r) and r >= 0 for r in split)):
        raise ValueError("split must be three finite non-negative ratios")
    split = tuple(map(float, split))
    if not abs(sum(split) - 1.0) <= 1e-9:
        raise ValueError("split ratios must sum to 1")
    return split


# Labels and predictions are float32, so an error over this floor stays
# below about 2.9e76: a zero label cannot make the mape infinite.
_MIN_MAPE_FLOOR = float(np.finfo(np.float32).tiny)


def _check_mape_floor(mape_floor_n: float) -> None:
    if not mape_floor_n >= _MIN_MAPE_FLOOR:
        raise ValueError(
            f"mape_floor_n must be at least {_MIN_MAPE_FLOOR:.4g}, the smallest normal float32"
        )


@dataclass(frozen=True)
class Metrics:
    """rmse in newtons, r2 (None when the targets are constant), mape, n."""

    rmse: float
    r2: float | None
    mape: float
    n: int

    def to_dict(self) -> dict:
        return {"rmse_n": self.rmse, "r2": self.r2, "mape": self.mape, "n": self.n}


@dataclass
class EpochLog:
    epoch: int
    train_mse: float
    val_mse: float


def split_dataset(
    dataset: FrameDataset, ratios, seed: int
) -> tuple[FrameDataset, FrameDataset, FrameDataset]:
    """Shuffle once with the seed, then cut into train/val/test.

    Sizes are the floored ratio shares; the remainder goes to train.  The
    three parts are disjoint and cover the dataset.
    """
    ratios = _checked_split(ratios)
    n = len(dataset)
    # Guard the floor against float dust: 0.7 * 1000 must allocate 700.
    counts = [int(math.floor(r * n + 1e-9)) for r in ratios]
    counts[0] += n - sum(counts)
    perm = np.random.default_rng(seed).permutation(n)
    c_train, c_val, _ = counts
    return (
        dataset.subset(perm[:c_train]),
        dataset.subset(perm[c_train : c_train + c_val]),
        dataset.subset(perm[c_train + c_val :]),
    )


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared errors over the batch, as a scalar graph node."""
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss: shape mismatch {pred.shape} vs {target.shape}")
    if pred.data.size == 0:
        raise ValueError("mse_loss: empty batch")
    diff = ad.sub(pred, target)
    sq = ad.mul(diff, diff)
    return ad.mean_over_axis(ad.reshape(sq, (sq.data.size,)), 0)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam_state(weights: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(weights), v=np.zeros_like(weights))


def adam_step(
    weights: np.ndarray, grads: np.ndarray, state: AdamState, config: TrainConfig
) -> AdamState:
    """One bias-corrected Adam update of ``weights``, in place and elementwise.

    Two scratch buffers take every temporary of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    w -= lr (m / bias1) / (sqrt(v / bias2) + eps), with each element's
    operations in that order, so the bytes are those of the expression.
    """
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    step, denom = np.empty_like(weights), np.empty_like(weights)
    state.m *= b1
    np.multiply(grads, 1.0 - b1, out=step)
    state.m += step
    state.v *= b2
    np.multiply(grads, 1.0 - b2, out=step)
    step *= grads
    state.v += step
    np.divide(state.m, bias1, out=step)
    step *= config.learning_rate
    np.divide(state.v, bias2, out=denom)
    np.sqrt(denom, out=denom)
    denom += config.eps
    step /= denom
    weights -= step
    return state


def train(
    model: ViTModel, datasets, config: TrainConfig
) -> tuple[ViTModel, list[EpochLog]]:
    """Fit on datasets[0], select the best epoch on datasets[1].

    Returns the model holding the best-validation parameters and the
    per-epoch log.  With epochs = 0 the model is untouched and the log
    is empty.  A non-finite loss or validation MSE (training diverged)
    is a ``ValueError`` naming the epoch.
    """
    train_ds, val_ds = datasets[0], datasets[1]
    if len(train_ds) == 0:
        raise ValueError("train split is empty")

    rng = np.random.default_rng(config.seed)
    state = init_adam_state(model.weights)
    log: list[EpochLog] = []
    best_val = math.inf
    best_weights: np.ndarray | None = None

    # Shard 0 accumulates into model.grads itself, shard 1 into its own buffer.
    shards = (model, _grad_shard(model))
    n = len(train_ds)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sq_sum = 0.0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            halves = _halves(0, len(idx))
            loss_value = sum(_run_shards([
                (_shard_step, shard, train_ds.frames[idx[a:b]], train_ds.labels[idx[a:b]],
                 len(idx))
                for shard, (a, b) in zip(shards, halves)
            ]))
            if not math.isfinite(loss_value):
                raise ValueError(f"training diverged: non-finite loss in epoch {epoch}")
            if len(halves) == 2:
                model.grads += shards[1].grads
            adam_step(model.weights, model.grads, state, config)
            sq_sum += loss_value * len(idx)
        train_mse = sq_sum / n
        if len(val_ds):
            preds = predict_forces(model, val_ds.frames)
            val_mse = float(np.mean((preds - val_ds.labels) ** 2))
            if not math.isfinite(val_mse):
                raise ValueError(
                    f"training diverged: non-finite validation MSE in epoch {epoch}"
                )
            if val_mse < best_val:
                best_val = val_mse
                best_weights = model.weights.copy()
        else:
            val_mse = math.nan
        log.append(EpochLog(epoch, train_mse, val_mse))

    if best_weights is not None:
        model.weights[...] = best_weights
    return model, log


def predict_forces(
    model: ViTModel, frames: np.ndarray, batch_size: int | None = None
) -> np.ndarray:
    """Forward in inference mode; returns float64 predictions, shape (N,).

    The default batch is ``batch_frames`` of the frame shape, the size of
    a ``frame_chunks`` chunk.  Each batch is one call of its two shards,
    as a train step is, so at most two half-batches are live at once on
    any host; one frame runs on the calling thread alone.
    """
    if batch_size is None:
        batch_size = batch_frames(np.shape(frames)[1:])
    n = len(frames)
    out = np.empty(n, dtype=np.float64)
    with ad.no_grad():
        for lo in range(0, n, batch_size):
            halves = _halves(lo, min(lo + batch_size, n))
            preds = _run_shards([(forward, frames[a:b], model) for a, b in halves])
            for (a, b), pred in zip(halves, preds):
                out[a:b] = pred.data[:, 0]
    return out


def _halves(lo: int, hi: int) -> list[tuple[int, int]]:
    """Rows [lo, hi) as two fixed shards, [lo, lo + ceil(n / 2)) and the
    rest, or as one shard when n = 1."""
    mid = lo + (hi - lo + 1) // 2
    return [(lo, mid), (mid, hi)] if mid < hi else [(lo, hi)]


def _grad_shard(model: ViTModel) -> ViTModel:
    """``model`` with a grad buffer of its own: the same config and weights."""
    shard = copy.copy(model)
    shard.grads = np.zeros_like(model.weights)
    shard.params = _params(model.config, model.weights, shard.grads)
    return shard


def _shard_step(shard: ViTModel, frames: np.ndarray, labels: np.ndarray, n: int) -> float:
    """Forward, loss and backward of one shard of an n-frame batch, into
    ``shard.grads``; returns the shard's loss, its squared errors over n,
    and skips the backward when that is not finite."""
    pred = forward(frames, shard)
    loss = ad.scale(mse_loss(pred, Tensor(labels[:, None])), len(labels) / n)
    value = float(loss.data)
    ad.zero_grad(shard.params)
    if math.isfinite(value):
        ad.backward(loss)
    return value


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy runs on,
    or None where none is found.

    Only a library already loaded is opened (``RTLD_NOLOAD``): numpy's own
    ``numpy.libs`` copy first, then a scipy-openblas package's.
    """
    import ctypes

    site = Path(np.__file__).parent.parent
    for lib in (*site.glob("numpy.libs/lib*openblas*.so*"),
                *site.glob("*openblas*/lib/lib*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib), mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# OpenBLAS's thread count is one per process, so calls that pin it take turns.
_BLAS_LOCK = threading.Lock()


def _run_shards(jobs: list) -> list:
    """The results, in order, of one batch's shard jobs, each (function, *args).

    One job runs on the calling thread.  Two run on the ordered pool
    (``synth._run_in_order``) with OpenBLAS pinned to one thread and its
    count restored after; overlapping calls take turns.  Where no OpenBLAS
    thread setter is found, they run in turn on the calling thread.
    """
    api = _openblas_threads() if len(jobs) > 1 else None
    if api is None:
        return [fn(*args) for fn, *args in jobs]
    get, set_ = api
    with _BLAS_LOCK:
        saved = get()
        set_(1)
        try:
            return list(_run_in_order(jobs))
        finally:
            set_(saved)


def regression_metrics(
    preds, targets, mape_floor_n: float = TrainConfig.mape_floor_n
) -> Metrics:
    """Metrics from raw prediction/target arrays, computed in float64.

    r2 is 1 - SS_res / SS_tot and is undefined (None) when every target
    is identical; mape divides by max(|target|, floor) so labels near
    zero cannot blow it up.  The floor must be at least float32's
    smallest normal number, as ``TrainConfig.mape_floor_n`` must.
    """
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.ndim != 1:
        raise ValueError("preds and targets must be equal-length 1-D arrays")
    if preds.size == 0:
        raise ValueError("cannot compute metrics on an empty batch")
    _check_mape_floor(mape_floor_n)
    err = preds - targets
    rmse = float(np.sqrt(np.mean(err * err)))
    ss_tot = float(((targets - targets.mean()) ** 2).sum())
    r2 = None if ss_tot == 0.0 else 1.0 - float((err * err).sum()) / ss_tot
    mape = float(np.mean(np.abs(err) / np.maximum(np.abs(targets), mape_floor_n)))
    return Metrics(rmse=rmse, r2=r2, mape=mape, n=preds.size)


def evaluate(
    model: ViTModel, dataset: FrameDataset, mape_floor_n: float = TrainConfig.mape_floor_n
) -> Metrics:
    """Regression metrics for a model on a labeled dataset."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    preds = predict_forces(model, dataset.frames)
    return regression_metrics(preds, dataset.labels, mape_floor_n)
