"""Acceptance gate: eight oracle-backed criteria, one test per criterion,
and the pinned bytes of the default corpus.

Each test prints one terminal line, `[criterion N] <label>: PASS|FAIL`, so
the suite's verdict is readable straight off the pytest log.
"""

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import all_frames, make_stream, numeric_grad, rel_err, tensor64, check_op_grads
from test_autodiff import OP_CASES

from evtforce import autodiff as ad
from evtforce.cli import main
from evtforce.events import concat_streams, read_events, slice_window, write_events
from evtforce.frames import (
    FrameDataset,
    FrameSpec,
    accumulate_frame,
    read_frame_dataset,
    write_frame_dataset,
)
from evtforce.synth import load_profile
from evtforce.training import (
    TrainConfig,
    evaluate,
    regression_metrics,
    split_dataset,
    train,
)
from evtforce.vit import ViTConfig, forward, init_params


@contextlib.contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {number}] {label}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"\n[criterion {number}] {label}: PASS", flush=True)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def streams_equal(a, b):
    return (
        a.width == b.width
        and a.height == b.height
        and np.array_equal(a.t_us, b.t_us)
        and np.array_equal(a.x, b.x)
        and np.array_equal(a.y, b.y)
        and np.array_equal(a.p, b.p)
    )


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Default-geometry corpus: 25 synthetic recordings windowed into frames."""
    root = tmp_path_factory.mktemp("corpus")
    rec = root / "rec"
    frd = root / "data.frd"
    code, _, err = run_cli(["synth", "--seed", 0, "--out", rec])
    assert code == 0, err
    code, out, err = run_cli(["convert", "--in", rec, "--out", frd])
    assert code == 0, err
    return SimpleNamespace(
        rec=rec, frd=frd, convert_report=json.loads(out), dataset=read_frame_dataset(frd)
    )


def test_criterion_1_gradient_oracle(capsys):
    with criterion(capsys, 1, "gradient oracle, ops and composed model, rel err <= 1e-4"):
        start = time.perf_counter()
        trials = 0
        for name, build, shapes in OP_CASES:
            for seed in range(5):
                rng = np.random.default_rng(hash((name, seed)) % 2**32)
                inputs = [tensor64(rng, s) for s in shapes]
                check_op_grads(build, inputs, rng, tol=1e-4)
                trials += 1
        assert trials >= 100

        # The composed model, float64, every parameter coordinate.
        config = ViTConfig(
            image_size=16, patch_size=8, in_channels=2, embed_dim=8, depth=1, num_heads=2
        )
        model = init_params(config, seed=3, dtype=np.float64)
        rng = np.random.default_rng(4)
        frames = rng.normal(0.0, 1.0, size=(2, 2, 16, 16))
        w = ad.Tensor(rng.normal(size=(2, 1)))

        def loss_tensor():
            out = forward(frames, model)
            flat = ad.reshape(ad.mul(out, w), (out.data.size,))
            return ad.mean_over_axis(flat, 0)

        ad.backward(loss_tensor())
        for name, param in model.params.items():
            expected = numeric_grad(lambda: float(loss_tensor().data), param)
            err = rel_err(param.grad, expected)
            assert err <= 1e-4, f"{name}: rel err {err:.3e}"

        assert time.perf_counter() - start <= 120.0


def test_criterion_2_event_conservation(capsys):
    with criterion(capsys, 2, "event conservation across windows, 50 streams"):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        for case in range(50):
            width = int(rng.integers(8, 128))
            height = int(rng.integers(8, 128))
            n = int(rng.choice([0, 1, 7, 50, 200, 1000, 3000]))
            t_max = int(rng.choice([1, 100, 10_000, 1_000_000]))
            stream = make_stream(rng, n=n, width=width, height=height, t_max=t_max)
            # Window sized to cut the stream into at most ~64 pieces, so a
            # short window never explodes a long recording into millions of
            # frames; 1 us windows still occur for 100 us streams.
            window_us = max(1, stream.duration_us // int(rng.integers(1, 64)))

            # Consecutive windows up past the end partition the stream.
            n_slices = max(1, -(-stream.duration_us // window_us))
            parts = [
                slice_window(stream, k * window_us, (k + 1) * window_us)
                for k in range(n_slices)
            ]
            assert streams_equal(concat_streams(parts), stream)

            # Count-mode frames hold exactly the events of their window.
            spec = FrameSpec(
                window_us=window_us, mode="count", out_size=None, normalize=False
            )
            frames = all_frames(stream, spec)
            assert len(frames) == stream.duration_us // window_us
            for k, frame in enumerate(frames):
                in_window = slice_window(stream, k * window_us, (k + 1) * window_us)
                assert float(frame.sum()) == float(len(in_window))
                direct = accumulate_frame(in_window, spec, k * window_us)
                assert np.array_equal(direct, frame)
        assert time.perf_counter() - start <= 60.0


def test_criterion_3_format_round_trips(capsys, tmp_path):
    with criterion(capsys, 3, "byte-exact round trips for all three formats"):
        rng = np.random.default_rng(3)
        cases = 0
        for fmt, suffix in (("csv", ".csv"), ("binary", ".evb1")):
            for i in range(45):
                n = int(rng.choice([0, 1, 13, 400]))
                stream = make_stream(
                    rng,
                    n=n,
                    width=int(rng.integers(1, 2000)),
                    height=int(rng.integers(1, 2000)),
                    t_max=int(rng.choice([1, 1000, 10**12])),
                )
                first = tmp_path / f"{fmt}{i}{suffix}"
                second = tmp_path / f"{fmt}{i}b{suffix}"
                write_events(stream, first, fmt)
                write_events(read_events(first, fmt), second, fmt)
                assert first.read_bytes() == second.read_bytes()
                cases += 1

        for i in range(20):
            n_frames = int(rng.integers(0, 8))
            c, h, w = (int(rng.integers(1, 5)), int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            frames = rng.normal(size=(n_frames, c, h, w)).astype(np.float32)
            windows = [[k * 1000, (k + 1) * 1000] for k in range(n_frames)]
            labels = rng.normal(size=n_frames).astype(np.float32)
            provenance = [f"rec{int(rng.integers(0, 3)):03d}" for _ in range(n_frames)]
            first = tmp_path / f"ds{i}.frd"
            second = tmp_path / f"ds{i}b.frd"
            write_frame_dataset(
                FrameDataset(frames, labels, provenance, np.reshape(windows, (-1, 2))), first
            )
            write_frame_dataset(read_frame_dataset(first), second)
            assert first.read_bytes() == second.read_bytes()
            assert (
                Path(str(first) + ".json").read_bytes()
                == Path(str(second) + ".json").read_bytes()
            )
            cases += 1
        assert cases >= 100


def test_criterion_4_default_corpus_geometry(corpus, capsys):
    with criterion(capsys, 4, "default corpus: 25 recordings, 1000 frames, labels in [0, 1.6]"):
        recordings = sorted(p.name for p in corpus.rec.glob("*.evb1"))
        assert len(recordings) == 25
        assert corpus.convert_report["recordings"] == 25
        assert corpus.convert_report["frames"] == 1000

        ds = corpus.dataset
        assert len(ds) == 1000
        assert np.all(ds.labels >= 0.0)
        # Labels live on the float32 grid, so compare against float32(1.6).
        assert np.all(ds.labels <= np.float32(1.6))

        sidecar = json.loads(Path(str(corpus.frd) + ".json").read_text())
        assert sidecar["frame_spec"]["window_us"] == 100_000
        for start, end in sidecar["windows"]:
            assert end - start == 100_000
            assert start % 100_000 == 0
        for name in recordings:
            profile = load_profile(corpus.rec / (name[: -len(".evb1")] + ".labels.json"))
            assert profile.rate_hz == 10.0
            assert len(profile.samples) == 41


# sha256 of the default corpus (`synth --seed 0`, then `convert`); "*.evb1"
# is the 25 event files concatenated in name order.
DEFAULT_CORPUS_SHA256 = {
    "data.frd": "f98d3124620167ae4ec3636c69de75aeb53c51926cb08cd28d0a93bbef79d0b1",
    "data.frd.json": "f39041127435745e75fd705f83a0cfe0c90eb72eb4c01745ed991ac0817fad4a",
    "rec/manifest.json": "cbaaba92504a0028b0b9bf3c69b77a7916c68948261785464fb3e5ecedeef937",
    "*.evb1": "09b80f3f8067b0aae5321fab5d478676518c2cf71bac969bb5cfa4c4f4b11541",
}


def test_default_corpus_bytes(corpus):
    root = corpus.frd.parent
    events = b"".join(p.read_bytes() for p in sorted(corpus.rec.glob("*.evb1")))
    digests = {
        name: hashlib.sha256(events if name == "*.evb1" else (root / name).read_bytes()).hexdigest()
        for name in DEFAULT_CORPUS_SHA256
    }
    assert digests == DEFAULT_CORPUS_SHA256


def test_criterion_5_end_to_end_learning(corpus, capsys):
    with criterion(capsys, 5, "synthetic end-to-end: R2 >= 0.90, RMSE <= half of mean-label RMSE"):
        train_ds, val_ds, test_ds = split_dataset(corpus.dataset, (0.70, 0.15, 0.15), seed=7)
        assert (len(train_ds), len(val_ds), len(test_ds)) == (700, 150, 150)

        model = init_params(ViTConfig(), seed=11)
        model, log = train(
            model,
            (train_ds, val_ds),
            TrainConfig(learning_rate=0.001, batch_size=16, epochs=8, seed=0),
        )
        assert len(log) == 8
        metrics = evaluate(model, test_ds)

        train_mean = float(np.mean(train_ds.labels.astype(np.float64)))
        test_labels = test_ds.labels.astype(np.float64)
        baseline_rmse = float(np.sqrt(np.mean((test_labels - train_mean) ** 2)))

        assert metrics.n == 150
        assert metrics.r2 is not None and metrics.r2 >= 0.90
        assert metrics.rmse <= 0.5 * baseline_rmse


def test_criterion_6_metric_identities(capsys):
    with criterion(capsys, 6, "metric identities and frozen spot values at 1e-9"):
        rng = np.random.default_rng(6)
        targets = rng.normal(0.8, 0.5, size=1000)
        preds = targets + rng.normal(0.0, 0.2, size=1000)

        metrics = regression_metrics(preds, targets)
        mse = float(np.mean((preds - targets) ** 2))
        assert abs(metrics.rmse**2 - mse) <= 1e-9 * mse
        for _ in range(50):
            size = int(rng.integers(2, 1000))
            idx = rng.choice(1000, size=size, replace=False)
            sub = regression_metrics(preds[idx], targets[idx])
            sub_mse = float(np.mean((preds[idx] - targets[idx]) ** 2))
            assert abs(sub.rmse**2 - sub_mse) <= 1e-9 * sub_mse

        mean_pred = regression_metrics(np.full(1000, targets.mean()), targets)
        assert abs(mean_pred.r2) <= 1e-9

        spot = regression_metrics(np.array([0.48, 1.53]), np.array([0.50, 1.50]))
        assert abs(spot.rmse**2 - 0.00065) <= 1e-9 * 0.00065
        # 0.02550 is sqrt(0.00065) rounded to five decimals.
        assert abs(round(spot.rmse, 5) - 0.02550) <= 1e-9


def test_criterion_7_pipeline_determinism(capsys, tmp_path):
    with criterion(capsys, 7, "same-seed pipeline reruns are byte-identical"):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "scene": {
                        "width": 80,
                        "height": 60,
                        "samples_per_recording": 6,
                        "substeps_per_sample": 2,
                    },
                    "frame": {"out_size": 16},
                    "model": {
                        "image_size": 16,
                        "patch_size": 8,
                        "embed_dim": 16,
                        "depth": 1,
                        "num_heads": 2,
                    },
                    "train": {"epochs": 2, "batch_size": 8},
                }
            )
        )

        def run_pipeline(root):
            rec, frd, ckpt = root / "rec", root / "data.frd", root / "model.ckpt"
            for argv in (
                ["synth", "--config", config, "--seed", 5, "--out", rec, "--n-recordings", 3],
                ["convert", "--config", config, "--in", rec, "--out", frd],
                ["train", "--config", config, "--seed", 5, "--data", frd, "--out", ckpt],
            ):
                code, _, err = run_cli(argv)
                assert code == 0, err
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        first = run_pipeline(tmp_path / "one")
        second = run_pipeline(tmp_path / "two")
        assert sorted(first) == sorted(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        # The comparison saw every artifact kind, not an empty directory.
        suffixes = {Path(name).suffix for name in first}
        assert {".evb1", ".json", ".frd", ".ckpt", ".csv"} <= suffixes


def test_criterion_8_throughput_floor(capsys, tmp_path):
    with criterion(capsys, 8, "count accumulation >= 1e6 events/s, bench reports all modes"):
        n = 1_000_000
        stream = make_stream(
            np.random.default_rng(8), n=n, width=640, height=480, t_max=5_000_000
        )
        spec = FrameSpec(
            window_us=stream.duration_us, mode="count", out_size=None, normalize=False
        )
        accumulate_frame(stream, spec, 0)  # warm-up
        best = min(
            (lambda t0: (accumulate_frame(stream, spec, 0), time.perf_counter() - t0)[1])(
                time.perf_counter()
            )
            for _ in range(3)
        )
        assert n / best >= 1_000_000

        path = tmp_path / "big.evb1"
        write_events(stream, path, "binary")
        code, out, err = run_cli(["bench", "--in", path, "--repeats", 1])
        assert code == 0, err
        report = json.loads(out)
        assert report["events"] == n
        for mode in ("count", "binary", "polarity2ch"):
            rate = report[f"{mode}_events_per_s"]
            assert np.isfinite(rate) and rate > 0
