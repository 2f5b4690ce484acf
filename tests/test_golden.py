"""The small golden run: synth, convert, train, eval and predict bytes.

A refactor of the training path must leave every byte of this run as it
is: the checkpoint, its log and summary, and the eval and predict output.
The run takes about a second in-process.  CI runs this file at the
runner's default thread count and again at one thread.

The hashes changed once when each train step and inference batch came to
run as two fixed half-batch shards on two threads, with OpenBLAS pinned
to one thread: a batch's gradient is now the sum of its two shards'
gradients, so every trained checkpoint moved.  Since then the trained
bytes no longer depend on the BLAS thread count or on the CPUs the
process may use, which the default-ViT run below checks in child
processes.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evtforce
from evtforce import training
from evtforce.cli import main

CONFIG = {
    "scene": {"width": 80, "height": 60, "samples_per_recording": 11},
    "frame": {"out_size": 16},
    "model": {"image_size": 16, "patch_size": 4, "embed_dim": 16, "depth": 2, "num_heads": 2},
    "train": {"epochs": 3},
}

FILES = {
    "model.ckpt": "63f84fed3ea48f243f7e2ee2a8abefab78b6b29aa78c16e68801d3fb4cf908d4",
    "model.ckpt.log.csv": "0095ae00a6d62fa9f4fa78c55cb76a6baa6c534949b41c674d49d8fc1ac7a284",
    "model.ckpt.summary.json": "b3ff690b771f40208a7c2745ce01ccf6fa12ee324a1c48475a982652f779aa85",
}
STDOUT = {
    "eval": "516ed67586c10e1ff8ae9c83cd4c36dbc01f02937a4c9b204a6a61e2b4891673",
    "predict .frd": "bda7b7cced29645e05b5f63ac61f1b3341f4d72b98592c6e91fbbe2c343e06a6",
    "predict .evb1": "94a2efdc102f5c5e0adc674dab3f8cdf7f243df10c0024c161fa94674d3cc479",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue().encode()


def test_small_run_bytes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    rec, frd, ckpt = tmp_path / "rec", tmp_path / "data.frd", tmp_path / "model.ckpt"
    run("synth", "--config", config, "--seed", 1, "--n-recordings", 6, "--out", rec)
    run("convert", "--config", config, "--in", rec, "--out", frd)
    run("train", "--config", config, "--seed", 5, "--data", frd, "--out", ckpt)
    assert {name: sha256((tmp_path / name).read_bytes()) for name in FILES} == FILES
    common = ("--config", config, "--ckpt", ckpt)
    outputs = {
        "eval": run("eval", *common, "--seed", 5, "--split", "val", "--data", frd),
        "predict .frd": run("predict", *common, "--in", frd),
        "predict .evb1": run("predict", *common, "--in", rec / "rec000.evb1"),
    }
    assert {name: sha256(out) for name, out in outputs.items()} == STDOUT


# Three steps of the default ViT (batch 16 over 40 random frames, so the
# last batch is short), then its predictions for those frames.  Prints the
# sha256 of the trained weights' bytes followed by the predictions' bytes.
# argv[1] names a CPU to pin the process to before numpy loads, or is "".
DEFAULT_VIT_STEPS = """
import hashlib, os, sys
if sys.argv[1]:
    os.sched_setaffinity(0, {int(sys.argv[1])})
import numpy as np
from evtforce.frames import FrameDataset
from evtforce.training import TrainConfig, predict_forces, train
from evtforce.vit import ViTConfig, init_params

rng = np.random.default_rng(0)
data = FrameDataset(rng.random((40, 2, 64, 64), dtype=np.float32), rng.random(40), ["r"] * 40)
empty = FrameDataset(np.zeros((0, 2, 64, 64), dtype=np.float32), [], [])
model, _ = train(init_params(ViTConfig(), seed=0), (data, empty), TrainConfig(epochs=1))
preds = predict_forces(model, data.frames)
print(hashlib.sha256(model.weights.tobytes() + preds.tobytes()).hexdigest())
"""
DEFAULT_VIT_STEPS_SHA256 = "19ed13425f5bd6f57ce4ee540e2c8b49fea512320185ccd98edcd2f302822ff7"


@pytest.mark.skipif(training._openblas_threads() is None,
                    reason="no OpenBLAS thread setter: the bytes follow the BLAS thread count")
def test_default_vit_training_bytes_do_not_depend_on_blas_threads():
    # (OPENBLAS_NUM_THREADS or None to leave it unset, CPU to pin to or "").
    runs = {"1 BLAS thread": ("1", ""), "2 BLAS threads": ("2", "")}
    if hasattr(os, "sched_setaffinity"):
        runs["one CPU"] = (None, str(min(os.sched_getaffinity(0))))
    src = str(Path(evtforce.__file__).resolve().parents[1])
    digests = {}
    for name, (threads, cpu) in runs.items():
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", DEFAULT_VIT_STEPS, cpu], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests[name] = done.stdout.strip()
    assert digests == dict.fromkeys(runs, DEFAULT_VIT_STEPS_SHA256)
