"""The small golden run: synth, convert, train, eval and predict bytes.

A refactor of the training path must leave every byte of this run as it
is: the checkpoint, its log and summary, and the eval and predict output.
The run takes about a second in-process.  Its bytes are the same with
OpenBLAS at 1 to 4 threads; CI runs this file at the runner's default
thread count and again at one thread.
"""

import contextlib
import hashlib
import io
import json

from evtforce.cli import main

CONFIG = {
    "scene": {"width": 80, "height": 60, "samples_per_recording": 11},
    "frame": {"out_size": 16},
    "model": {"image_size": 16, "patch_size": 4, "embed_dim": 16, "depth": 2, "num_heads": 2},
    "train": {"epochs": 3},
}

FILES = {
    "model.ckpt": "49d6ae92364526ec93b62c31c9c22fa0853905cdf1b34ba43e247854c0054e87",
    "model.ckpt.log.csv": "fd6e4e25dc34bdadccf4c4d3cd914c87cdb23acd515421add51152277b9774f1",
    "model.ckpt.summary.json": "21591623a797aca3a48748f6869dffc927654d2d99c12bc777d75e4ac0afcc97",
}
STDOUT = {
    "eval": "621567d2b6aa6dd72ca6d4b569ce1c11f85a5386825ff9a638767e1837163829",
    "predict .frd": "843ade9211bac1d2b6f8abac7ea19167b65be4990ea063363db5d2bb05eeb2d8",
    "predict .evb1": "0c5701e13ec336accda00eae73176f974b5c2045120d114e2905fd73b5b753d1",
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
