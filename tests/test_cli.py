"""End-to-end command line tests, driving main() in-process."""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_frames

import evtforce
from evtforce import synth
from evtforce.cli import DEFAULT_CONFIG, ConfigError, load_config, main, sub_seed
from evtforce.events import EventStream, read_events, write_events
from evtforce.frames import (
    FrameDataset,
    FrameSpec,
    read_frame_dataset,
    write_frame_dataset,
)
from evtforce.synth import ForceProfile, GripperScene, SynthProtocol, load_profile
from evtforce.training import TrainConfig, predict_forces
from evtforce.vit import ViTConfig, init_params, load_checkpoint, save_checkpoint

# Small enough that the full synth -> convert -> train chain runs in well
# under a second: 3 recordings x 5 windows, 16 px frames, one tiny block.
SMALL_CONFIG = {
    "scene": {"width": 80, "height": 60, "samples_per_recording": 6, "substeps_per_sample": 2},
    "frame": {"out_size": 16},
    "model": {"image_size": 16, "patch_size": 8, "embed_dim": 16, "depth": 1, "num_heads": 2},
    "train": {"epochs": 2, "batch_size": 8},
}
N_REC = 3
FRAMES_PER_REC = SMALL_CONFIG["scene"]["samples_per_recording"] - 1
N_FRAMES = N_REC * FRAMES_PER_REC


def run_cli(argv):
    """Invoke the CLI entry point, capturing exit code, stdout, stderr.

    Warnings are appended to stderr the way a terminal would show them.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    shown = "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    return code, out.getvalue(), err.getvalue() + shown


def assert_one_line_error(err: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def checkpoint_with_header(src: Path, dst: Path, edit) -> Path:
    """Copy a checkpoint, passing its JSON header dict through ``edit``."""
    raw = src.read_bytes()
    hlen = struct.unpack_from("<I", raw)[0]
    header = edit(json.loads(raw[4 : 4 + hlen]))
    encoded = json.dumps(header).encode("ascii")
    dst.write_bytes(struct.pack("<I", len(encoded)) + encoded + raw[4 + hlen :])
    return dst


# The address-space limit is set in the child itself, before numpy is
# imported, so an allocation bomb fails in the child instead of swapping.
_LIMITED_CHILD = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from evtforce.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def start_limited(argv) -> subprocess.Popen:
    """Start the CLI in a child process limited to 1 GiB of address space."""
    src = str(Path(evtforce.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-c", _LIMITED_CHILD, *map(str, argv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )


def run_limited(argv, budget_s: float):
    """Run ``start_limited(argv)`` for at most ``budget_s`` seconds.

    Returns the exit code (None when the budget ran out and the child was
    killed), the complete stdout lines, stderr and the wall time.
    """
    start = time.perf_counter()
    proc = start_limited(argv)
    try:
        out, err = proc.communicate(timeout=budget_s)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    elapsed = time.perf_counter() - start
    return code, out[: out.rfind("\n") + 1].splitlines(), err, elapsed


def write_config(dir_path: Path, overrides=None) -> Path:
    document = json.loads(json.dumps(SMALL_CONFIG))
    for section, values in (overrides or {}).items():
        document.setdefault(section, {}).update(values)
    path = dir_path / "config.json"
    path.write_text(json.dumps(document))
    return path


@pytest.fixture(scope="session")
def ws(tmp_path_factory):
    """One shared synth -> convert -> train run for the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root)
    rec = root / "rec"
    frd = root / "data.frd"
    ckpt = root / "model.ckpt"

    code, _, err = run_cli(
        ["synth", "--config", config, "--seed", 11, "--out", rec, "--n-recordings", N_REC]
    )
    assert code == 0, err
    code, convert_out, err = run_cli(
        ["convert", "--config", config, "--in", rec, "--out", frd]
    )
    assert code == 0, err
    code, train_out, err = run_cli(
        ["train", "--config", config, "--seed", 11, "--data", frd, "--out", ckpt]
    )
    assert code == 0, err
    return SimpleNamespace(
        root=root,
        config=config,
        rec=rec,
        frd=frd,
        ckpt=ckpt,
        convert_out=convert_out,
        train_out=train_out,
    )


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.scene.width == 320 and cfg.scene.height == 240
        assert cfg.protocol.samples_per_recording == 41
        assert cfg.frame.window_us == 100_000
        assert cfg.model.embed_dim == 128
        assert cfg.train.learning_rate == 0.001
        assert cfg.raw == DEFAULT_CONFIG

    def test_golden_digests(self, tmp_path):
        # Digests of the hand-written default document that DEFAULT_CONFIG
        # replaced; the synth manifest records them.
        assert load_config(None).sha256() == (
            "11f35cf75d17926e6b45e67e06d8deb62e67ed1ea07ada2eafe66d77a6eefc4a"
        )
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "scene": {"width": 80, "height": 60, "samples_per_recording": 11},
            "frame": {"out_size": 16},
            "model": {"image_size": 16, "patch_size": 4, "embed_dim": 16, "depth": 1,
                      "num_heads": 2},
            "train": {"epochs": 2},
        }))
        assert load_config(str(path)).sha256() == (
            "1f0729f8535894ac73a7f56cd0a6826728c8e387a97ac8121b85749ec76ccc2d"
        )

    def test_sha256_tracks_content(self, tmp_path):
        a = load_config(write_config(tmp_path))
        digest = a.sha256()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert digest == load_config(write_config(tmp_path)).sha256()
        other = write_config(tmp_path, {"scene": {"contrast": 0.07}})
        assert load_config(other).sha256() != digest

    def test_file_merges_over_defaults(self, ws):
        cfg = load_config(str(ws.config))
        assert cfg.scene.width == 80
        assert cfg.frame.out_size == 16
        assert cfg.frame.window_us == 100_000  # untouched default survives
        assert cfg.model.embed_dim == 16
        assert cfg.train.epochs == 2

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"optimizer": {}}))
        code, _, err = run_cli(["synth", "--config", path, "--out", tmp_path / "o"])
        assert code == 2
        assert "unknown config section" in err and "optimizer" in err

    @pytest.mark.parametrize(
        "section,key,value", [("scene", "contrastt", 0.1), ("model", "head_output", 2)]
    )
    def test_unknown_key(self, tmp_path, section, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {key: value}}))
        code, _, err = run_cli(["synth", "--config", path, "--out", tmp_path / "o"])
        assert code == 2
        assert f"unknown config key {section}.{key}" in err

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("scene", "contrast", -1.0),
            ("scene", "samples_per_recording", 1),
            ("scene", "width", 0),
            ("frame", "mode", "rgb"),
            ("model", "embed_dim", 0),
            ("train", "split", [0.5, 0.5, 0.1]),
            ("train", "epochs", -3),
            ("scene", "height", 0),
            ("scene", "foreground", -1),
            ("scene", "contrast", 1e-300),
            ("model", "depth", 0),
            ("model", "patch_size", 0),
            ("train", "beta2", 1.0),
            ("frame", "window_us", 0),
            ("frame", "out_size", -3),
            ("scene", "width", 2**31),
            ("scene", "height", 2**31),
            ("scene", "width", 65536),
            ("scene", "height", 65536),
        ],
    )
    def test_invalid_value_names_the_key(self, tmp_path, section, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {key: value}}))
        code, stdout, err = run_cli(["synth", "--config", path, "--out", tmp_path / "o"])
        assert (code, stdout) == (2, "")
        assert f"invalid {section}.{key}" in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("train", "epochs", "1"),
            ("scene", "fingers", 5),
            ("frame", "out_size", "64"),
            ("scene", "width", "320"),
            ("train", "split", 0.7),
            ("model", "depth", 2.5),
            ("model", "embed_dim", True),
            ("frame", "normalize", 1),
            ("frame", "mode", 2),
            ("scene", "contrast", "0.05"),
            ("scene", "fingers", [[[10, 20], [30]]]),
            ("scene", "fingers", [[["10", 20], [30, 20]]]),
            ("train", "split", [0.7, 0.15]),
            ("train", "split", [0.7, "0.15", 0.15]),
            ("train", "seed", 1.0),
            ("train", "learning_rate", float("nan")),
            ("train", "learning_rate", float("inf")),
            ("scene", "contrast", float("nan")),
            ("scene", "delta_max_px", -float("inf")),
            ("train", "split", [float("nan"), 0.5, 0.5]),
            ("scene", "fingers", [[[10, 20], [float("inf"), 20]]]),
            ("scene", "width", 10**400),
            ("scene", "f_max_n", 10**400),
            ("frame", "out_size", 2**63),
            ("train", "seed", -2**63 - 1),
            ("train", "batch_size", 2**63),
        ],
    )
    def test_wrong_type_is_a_usage_error(self, tmp_path, section, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {key: value}}))
        code, _, err = run_cli(["synth", "--config", path, "--out", tmp_path / "o"])
        assert code == 2
        assert_one_line_error(err)
        assert f"invalid {section}.{key}: {key} must be" in err

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("scene", "delta_max_px", 12),
            ("frame", "out_size", None),
            ("scene", "fingers", [[[10, 20], [30.5, 20]]]),
            ("train", "split", [1, 0, 0]),
            ("train", "seed", 2**63 - 1),
            ("train", "seed", -2**63),
        ],
    )
    def test_accepted_types(self, tmp_path, section, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {key: value}}))
        assert load_config(str(path)).raw[section][key] == value

    @pytest.mark.parametrize("raw", [b"{not json", b'{"train": {"epochs": 1\xff}}'])
    def test_malformed_json(self, tmp_path, raw):
        path = tmp_path / "c.json"
        path.write_bytes(raw)
        code, _, err = run_cli(["synth", "--config", path, "--out", tmp_path / "o"])
        assert code == 2 and f"{path}: not valid JSON" in err
        assert_one_line_error(err)

    def test_document_must_be_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(["synth", "--config", path, "--out", tmp_path / "o"])
        assert code == 2 and "must be a JSON object" in err

    def test_section_must_be_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scene": 7}))
        code, _, err = run_cli(["synth", "--config", path, "--out", tmp_path / "o"])
        assert code == 2 and "must be an object" in err

    def test_missing_config_file_is_io_error(self, tmp_path):
        code, _, err = run_cli(
            ["synth", "--config", tmp_path / "absent.json", "--out", tmp_path / "o"]
        )
        assert code == 3 and "error:" in err


# Any JSON value: nested lists and objects, bools, ints far past int64,
# NaN and +-Infinity, strings; plus polylines, which the recursive
# strategy seldom builds.  Scalars are drawn on their own as well, since
# the recursive strategy mostly yields containers.
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-10**400, max_value=10**400)
    | st.sampled_from([10**400, -10**400, 2**63, -2**63 - 1, 2**1024])
    | st.floats()
    | st.text(max_size=12)
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
_POLYLINES = st.lists(
    st.lists(st.lists(st.floats(-10, 400) | st.integers(-10, 400), min_size=2, max_size=2),
             max_size=3),
    max_size=3,
)
_CONFIG_KEYS = [(section, key) for section, keys in DEFAULT_CONFIG.items() for key in keys]


@settings(max_examples=150, deadline=None)
@given(_SCALARS | _JSON_VALUES | _POLYLINES)
def test_any_json_value_loads_or_is_a_config_error(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    for section, key in _CONFIG_KEYS:
        path.write_text(json.dumps({section: {key: value}}))
        try:
            cfg = load_config(str(path))
        except ConfigError:
            continue
        assert cfg.raw[section][key] == value
        assert len(cfg.sha256()) == 64


# Every config class, with the arguments it has no default for.
_CONFIG_CLASSES = {
    GripperScene: {},
    SynthProtocol: {},
    ForceProfile: {"samples": (0.0, 1.0), "rate_hz": 10.0},
    FrameSpec: {},
    TrainConfig: {},
    ViTConfig: {},
}
_NUMERIC_FIELDS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls, base in _CONFIG_CLASSES.items()
    for f in dataclasses.fields(cls)
    if type(base.get(f.name, f.default)) in (int, float)
]


@pytest.mark.parametrize("cls, name", _NUMERIC_FIELDS)
def test_numeric_config_fields_refuse_what_they_cannot_hold(cls, name):
    # A library caller gets the field's own refusal, never a later
    # traceback; the message starts with the field's name, which
    # cli._construct turns into "invalid <section>.<field>".
    base = _CONFIG_CLASSES[cls]
    default = getattr(cls(**base), name)
    bad = [math.nan]
    if type(default) is int:
        bad += [math.inf, -math.inf, 1.5, True]
    for value in bad:
        with pytest.raises(ValueError) as refused:
            cls(**{**base, name: value})
        assert str(refused.value).startswith(f"{name} "), (value, str(refused.value))


# Values of the wrong type for each annotation, and malformed values for
# each structured field.
_WRONG_VALUES = {
    "int": ["16"],
    "int | None": ["64"],
    "float": ["1.0", True, 10**400, math.inf, -math.inf],
    "bool": [0, "yes"],
    "str": [2],
    "fingers": [5, ((1, 2), (3, 4)), ((("10", 20), (30, 20)),)],
    "split": [("0.7", "0.15", "0.15"), {"train": 0.7, "val": 0.15, "test": 0.15}],
    "samples": [("0.5", 1.0), (True, 1.0), 5],
}
_ALL_FIELDS = [
    pytest.param(cls, f.name, _WRONG_VALUES.get(f.name) or _WRONG_VALUES[f.type],
                 id=f"{cls.__name__}.{f.name}")
    for cls in _CONFIG_CLASSES
    for f in dataclasses.fields(cls)
]


@pytest.mark.parametrize("cls, name, wrong", _ALL_FIELDS)
def test_every_config_field_refuses_a_wrong_type(cls, name, wrong):
    # Each class checks its fields' types itself, so a library caller gets
    # the refusal that a config file gets, never a later TypeError or a
    # silently kept value.  A field of a new annotation has no entry here
    # and fails at collection.
    base = _CONFIG_CLASSES[cls]
    for value in wrong:
        with pytest.raises(ValueError) as refused:
            cls(**{**base, name: value})
        assert str(refused.value).startswith(f"{name} "), (value, str(refused.value))


class TestSubSeed:
    def test_deterministic(self):
        assert sub_seed(11, "profile:0") == sub_seed(11, "profile:0")

    def test_names_fan_out(self):
        seen = {sub_seed(11, name) for name in ("split", "init", "train", "profile:0", "noise:0")}
        assert len(seen) == 5

    def test_master_seed_matters(self):
        assert sub_seed(11, "split") != sub_seed(12, "split")

    def test_fits_in_uint64(self):
        for name in ("a", "b", "c"):
            assert 0 <= sub_seed(99, name) < 2**64


class TestSynth:
    def test_writes_recordings_and_manifest(self, ws):
        names = sorted(p.name for p in ws.rec.iterdir())
        assert names == [
            "manifest.json",
            "rec000.evb1",
            "rec000.labels.json",
            "rec001.evb1",
            "rec001.labels.json",
            "rec002.evb1",
            "rec002.labels.json",
        ]
        manifest = json.loads((ws.rec / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["n_recordings"] == N_REC
        assert manifest["config_sha256"] == load_config(str(ws.config)).sha256()
        for entry in manifest["recordings"]:
            assert entry["n_events"] > 0
            assert (ws.rec / entry["events"]).exists()
            assert (ws.rec / entry["labels"]).exists()

    @pytest.mark.parametrize(
        "scene,key",
        [
            ({"fingers": []}, "fingers"),
            ({"delta_max_px": 1e308, "samples_per_recording": 3}, "delta_max_px"),
        ],
    )
    def test_unrenderable_scene_is_refused_before_any_output(self, tmp_path, scene, key):
        # No finger leaves nothing to render; 1e308 px overflows the render.
        config = tmp_path / "scene.json"
        config.write_text(json.dumps({"scene": scene}))
        out = tmp_path / "rec"
        code, stdout, err = run_cli(["synth", "--config", config, "--out", out, "--n-recordings", 1])
        assert (code, stdout) == (2, "")
        assert_one_line_error(err)
        assert err.startswith(f"error: invalid scene.{key}: {key} "), err
        assert not out.exists()

    def test_stdout_reports_run(self, ws, tmp_path):
        code, out, _ = run_cli(
            ["synth", "--config", ws.config, "--seed", 11, "--out", tmp_path / "r", "--n-recordings", 1]
        )
        assert code == 0
        assert json.loads(out) == {"out": str(tmp_path / "r"), "recordings": 1}

    def test_same_seed_same_bytes(self, ws, tmp_path):
        again = tmp_path / "again"
        code, _, err = run_cli(
            ["synth", "--config", ws.config, "--seed", 11, "--out", again, "--n-recordings", N_REC]
        )
        assert code == 0, err
        for name in sorted(p.name for p in ws.rec.iterdir()):
            assert (again / name).read_bytes() == (ws.rec / name).read_bytes(), name

    def test_seed_changes_events(self, ws, tmp_path):
        other = tmp_path / "other"
        code, _, _ = run_cli(
            ["synth", "--config", ws.config, "--seed", 12, "--out", other, "--n-recordings", 1]
        )
        assert code == 0
        assert (other / "rec000.evb1").read_bytes() != (ws.rec / "rec000.evb1").read_bytes()

    def test_seed_defaults_to_train_section(self, ws, tmp_path):
        implicit, explicit = tmp_path / "implicit", tmp_path / "explicit"
        assert run_cli(["synth", "--config", ws.config, "--out", implicit, "--n-recordings", 1])[0] == 0
        assert run_cli(
            ["synth", "--config", ws.config, "--seed", 0, "--out", explicit, "--n-recordings", 1]
        )[0] == 0
        assert (implicit / "rec000.evb1").read_bytes() == (explicit / "rec000.evb1").read_bytes()

    def test_zero_recordings(self, ws, tmp_path):
        code, out, _ = run_cli(
            ["synth", "--config", ws.config, "--out", tmp_path / "none", "--n-recordings", 0]
        )
        assert code == 0
        assert json.loads(out)["recordings"] == 0
        manifest = json.loads((tmp_path / "none" / "manifest.json").read_text())
        assert manifest["recordings"] == []

    def test_invalid_synthesis_is_an_internal_error(self, ws, tmp_path, monkeypatch):
        # A chunk whose events come back reversed breaks the time order.
        sorted_columns, calls = synth._sorted_columns, []

        def reverse_first_chunk(*args):
            columns = sorted_columns(*args)
            calls.append(1)
            return tuple(c[::-1] for c in columns) if len(calls) == 1 else columns

        monkeypatch.setattr(synth, "_sorted_columns", reverse_first_chunk)
        code, out, err = run_cli(
            ["synth", "--config", ws.config, "--out", tmp_path / "o", "--n-recordings", 1]
        )
        assert (code, out) == (4, "")
        assert err.startswith("internal error: synthesis produced an invalid stream: ")
        assert "violation(s), first is 'non-monotonic timestamp' at index" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_negative_recordings(self, ws, tmp_path):
        code, _, err = run_cli(
            ["synth", "--config", ws.config, "--out", tmp_path / "o", "--n-recordings", -1]
        )
        assert code == 2 and "non-negative" in err

    @pytest.mark.parametrize(
        "scene",
        [
            {"noise_rate_hz": 1e12},
            {"noise_rate_hz": 1e6, "rate_hz": 1e-6},
            {"contrast": 1e-6},
            {"samples_per_recording": 10**9},
            {"foreground": 1e308},
            {"noise_rate_hz": 1e12, "rate_hz": 1e-6},
            {"contrast": 1e-17},
        ],
        ids=["noise", "noise-long-period", "contrast", "samples", "foreground",
             "noise-past-the-poisson-bound", "event-total-past-int64"],
    )
    def test_scene_too_large_for_memory(self, tmp_path, scene):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"scene": scene}))
        code, out, err, _ = run_limited(
            ["synth", "--config", config, "--out", tmp_path / "o", "--n-recordings", 1],
            budget_s=60,
        )
        assert (code, out) == (2, [])
        assert_one_line_error(err)
        assert "the scene config needs more memory than is available" in err

    @pytest.mark.parametrize(
        "scene, message",
        [
            ({"rate_hz": 1e-12}, "rate_hz 1e-12 puts sample 40 past 2**63 us"),
            ({"rate_hz": 3e6, "samples_per_recording": 5},
             "rate_hz 3000000.0 rounds the sample period to 0 us"),
            ({"width": 4_000_000_000, "height": 60,
              "fingers": [[[3e9, 10], [3e9 + 20, 10]], [[3e9, 50], [3e9 + 20, 50]]]},
             "invalid scene.width"),
            ({"width": 70000}, "invalid scene.width: width must be in 1..65535"),
        ],
        ids=["last-sample-past-int64", "zero-period", "width-past-int32", "width-past-u16"],
    )
    def test_scene_the_stream_cannot_hold_is_a_usage_error(self, tmp_path, scene, message):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"scene": scene}))
        code, out, err, _ = run_limited(
            ["synth", "--config", config, "--out", tmp_path / "o", "--n-recordings", 1],
            budget_s=60,
        )
        assert (code, out) == (2, [])
        assert_one_line_error(err)
        assert message in err
        if message.startswith("invalid"):  # refused with the config, before any render
            assert not (tmp_path / "o").exists()


class TestConvert:
    def test_reports_counts(self, ws):
        assert json.loads(ws.convert_out) == {
            "frames": N_FRAMES,
            "out": str(ws.frd),
            "recordings": N_REC,
        }

    def test_dataset_contents(self, ws):
        ds = read_frame_dataset(ws.frd)
        assert len(ds) == N_FRAMES
        assert ds.frames.shape == (N_FRAMES, 2, 16, 16)
        assert sorted(set(ds.provenance)) == ["rec000", "rec001", "rec002"]
        assert np.all(ds.labels >= 0) and np.all(ds.labels <= 1.6)
        assert (Path(str(ws.frd) + ".json")).exists()

    def test_labels_come_from_the_profiles(self, ws):
        ds = read_frame_dataset(ws.frd)
        for rec_id in ("rec000", "rec001", "rec002"):
            profile = load_profile(ws.rec / f"{rec_id}.labels.json")
            got = ds.labels[[i for i, p in enumerate(ds.provenance) if p == rec_id]]
            # Window k carries the force sample at its start.
            np.testing.assert_array_equal(got, np.asarray(profile.samples[:-1], np.float32))

    def test_flag_overrides_reach_the_frames(self, ws, tmp_path):
        config = write_config(
            tmp_path, {"frame": {"mode": "count", "out_size": None, "normalize": False}}
        )
        out = tmp_path / "native.frd"
        code, stdout, err = run_cli(
            ["convert", "--config", config, "--in", ws.rec, "--out", out]
        )
        assert code == 0, err
        ds = read_frame_dataset(out)
        assert json.loads(stdout)["frames"] == N_FRAMES
        assert ds.frames.shape == (N_FRAMES, 1, 60, 80)
        # Checkpoint trained on 2x16x16 frames must refuse this dataset.
        code, _, err = run_cli(
            ["eval", "--config", ws.config, "--seed", 11, "--ckpt", ws.ckpt, "--data", out]
        )
        assert code == 2 and "1x60x80" in err

    def test_window_must_match_label_rate(self, ws, tmp_path):
        config = write_config(tmp_path, {"frame": {"window_us": 50_000}})
        code, _, err = run_cli(
            ["convert", "--config", config, "--in", ws.rec, "--out", tmp_path / "x.frd"]
        )
        assert code == 2 and "period" in err

    def test_empty_directory(self, ws, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(
            ["convert", "--config", ws.config, "--in", empty, "--out", tmp_path / "x.frd"]
        )
        assert code == 2 and "no recordings found" in err

    def test_missing_directory(self, ws, tmp_path):
        code, _, err = run_cli(
            ["convert", "--config", ws.config, "--in", tmp_path / "nope", "--out", tmp_path / "x.frd"]
        )
        assert code == 3

    def test_missing_label_track(self, ws, tmp_path):
        lone = tmp_path / "lone"
        lone.mkdir()
        (lone / "rec000.evb1").write_bytes((ws.rec / "rec000.evb1").read_bytes())
        code, _, err = run_cli(
            ["convert", "--config", ws.config, "--in", lone, "--out", tmp_path / "x.frd"]
        )
        assert code == 3 and "missing label track" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw[:38],
            lambda raw: raw.replace(b"10.0", b'"x"'),
            lambda raw: raw.replace(b"[0.0,", b"[-1.0,"),
            lambda raw: raw[:5] + b"\xff" + raw[6:],
            lambda raw: raw.replace(b"10.0", b"3e6"),
            lambda raw: raw.replace(b"10.0", b"1e-13"),
        ],
        ids=["truncated", "rate-not-a-number", "negative-sample", "not-utf8", "zero-period",
             "last-sample-past-int64"],
    )
    def test_malformed_label_track(self, ws, tmp_path, edit):
        rec = tmp_path / "rec"
        rec.mkdir()
        shutil.copy(ws.rec / "rec000.evb1", rec)
        labels = rec / "rec000.labels.json"
        raw = (ws.rec / "rec000.labels.json").read_bytes()
        labels.write_bytes(edit(raw))
        assert labels.read_bytes() != raw
        code, out, err = run_cli(
            ["convert", "--config", ws.config, "--in", rec, "--out", tmp_path / "x.frd"]
        )
        assert (code, out) == (3, "")
        assert_one_line_error(err)
        assert str(labels) in err

    def test_sensor_wider_than_u16_is_refused(self, ws, tmp_path):
        # FRD1 stores a native frame's sides as u16, like EVB1 a sensor's,
        # so the recording is refused when read, before any frame is built.
        rec = tmp_path / "rec"
        rec.mkdir()
        csv = rec / "rec000.csv"
        write_events(read_events(ws.rec / "rec000.evb1"), csv, "csv")
        csv.write_text(csv.read_text().replace("# width=80 ", "# width=70000 ", 1))
        shutil.copy(ws.rec / "rec000.labels.json", rec)
        config = write_config(tmp_path, {"frame": {"out_size": None}})
        out_path = tmp_path / "x.frd"
        code, out, err = run_cli(["convert", "--config", config, "--in", rec, "--out", out_path])
        assert (code, out) == (3, "")
        assert_one_line_error(err)
        assert f"{csv}: sensor size 70000x60 is outside 1..65535 per side" in err
        assert not out_path.exists()

    def test_corrupt_recording(self, ws, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "rec000.evb1").write_bytes((ws.rec / "rec000.evb1").read_bytes()[:-7])
        (broken / "rec000.labels.json").write_bytes((ws.rec / "rec000.labels.json").read_bytes())
        code, _, err = run_cli(
            ["convert", "--config", ws.config, "--in", broken, "--out", tmp_path / "x.frd"]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "mode, out_size, sensor, refused",
        [
            ("polarity2ch", 2048, None, None),
            ("polarity2ch", 4096, None, "output values per window"),
            ("polarity2ch", 100_000, None, "output values per window"),
            # 65535 -> 2047 splits rows by a non-dyadic ratio, so each row
            # is its own class: a 2047 x 65535 row weight table.
            ("count", 2047, (1, 65535), "entries in one weight table"),
        ],
        ids=["fits", "output-4096", "output-100000", "weight-table"],
    )
    def test_frame_geometry_is_bounded_before_allocating(
        self, ws, tmp_path, mode, out_size, sensor, refused
    ):
        rec = tmp_path / "rec"
        rec.mkdir()
        stream = read_events(ws.rec / "rec000.evb1")
        width, height = sensor or (stream.width, stream.height)
        write_events(
            EventStream(width, height, stream.t_us, np.minimum(stream.x, width - 1), stream.y,
                        stream.p),
            rec / "rec000.evb1",
        )
        shutil.copy(ws.rec / "rec000.labels.json", rec)
        config = write_config(tmp_path, {"frame": {"mode": mode, "out_size": out_size}})
        code, out, err, _ = run_limited(
            ["convert", "--config", config, "--in", rec, "--out", tmp_path / "x.frd"],
            budget_s=60,
        )
        if refused is None:
            assert code == 0, err
            assert json.loads(out[0])["frames"] == FRAMES_PER_REC
            return
        assert (code, out) == (3, [])
        assert_one_line_error(err)
        assert f"frame.mode '{mode}' at frame.out_size {out_size} needs" in err
        assert f"{refused} for the declared {width}x{height} sensor" in err

    def test_long_label_track_fails_at_the_one_allocation(self, ws, tmp_path):
        # A valid 2,000,000-window recording with a matching track: its
        # 4 GB of frames fail at their one allocation, not after filling
        # memory chunk by chunk, and the line names their shape.
        n = 2_000_000
        stream = read_events(ws.rec / "rec000.evb1")
        t_us = stream.t_us.copy()
        t_us[-1] = n * 100_000 - 1
        rec = tmp_path / "rec"
        rec.mkdir()
        write_events(
            EventStream(stream.width, stream.height, t_us, stream.x, stream.y, stream.p),
            rec / "rec000.evb1",
        )
        (rec / "rec000.labels.json").write_text(json.dumps({"rate_hz": 10.0, "samples": [0.5] * n}))
        code, out, err, _ = run_limited(
            ["convert", "--config", ws.config, "--in", rec, "--out", tmp_path / "x.frd"],
            budget_s=60,
        )
        assert (code, out) == (3, [])
        assert_one_line_error(err)
        assert f"shape ({n}, 2, 16, 16)" in err


def sparse_file(path: Path, header: bytes, size: int) -> Path:
    """A ``size``-byte file: ``header``, then zeros that take no disk."""
    with open(path, "wb") as fh:
        fh.write(header)
        fh.truncate(size)
    return path


# 2 GiB inputs: FRD1 records of a 2x16x16 frame and its label take 2052
# bytes each, EVB1 event records 16.
BIG_FRD_RECORDS = 2**31 // 2052
BIG_EVB1_RECORDS = 2**31 // 16


@pytest.mark.parametrize(
    "command, kind",
    [("train", "frd"), ("eval", "frd"), ("predict", "frd"), ("predict", "evb1"),
     ("bench", "evb1"), ("eval", "ckpt"), ("predict", "ckpt")],
)
def test_input_larger_than_memory_is_one_line(ws, tmp_path, command, kind):
    data, ckpt = ws.frd, ws.ckpt
    if kind == "frd":
        n = BIG_FRD_RECORDS
        data = sparse_file(tmp_path / "big.frd", struct.pack("<4sHHHQ", b"FRD1", 2, 16, 16, n),
                           18 + n * 2052)
        message = f"{data}: its {n} declared records do not fit in memory"
    elif kind == "evb1":
        n = BIG_EVB1_RECORDS
        data = sparse_file(tmp_path / "big.evb1", struct.pack("<4sHHQ", b"EVB1", 80, 60, n),
                           16 + n * 16)
        message = f"{data}: its {n} declared records do not fit in memory"
    else:
        # A good checkpoint, then 2 GiB of zeros: the checkpoint is read by
        # its size, so the fault named is the trailing bytes, not memory.
        raw = ws.ckpt.read_bytes()
        ckpt = sparse_file(tmp_path / "big.ckpt", raw, len(raw) + 2**31)
        message = f"{ckpt}: {2**31} trailing byte(s) after the parameters"
    argv = {
        "train": ["train", "--config", ws.config, "--data", data, "--out", tmp_path / "x.ckpt"],
        "eval": ["eval", "--config", ws.config, "--ckpt", ckpt, "--data", data],
        "predict": ["predict", "--config", ws.config, "--ckpt", ckpt, "--in", data],
        "bench": ["bench", "--in", data],
    }[command]
    code, out, err, _ = run_limited(argv, budget_s=60)
    assert (code, out) == (3, [])
    assert_one_line_error(err)
    assert message in err


def run_child(argv, **kwargs):
    """Run ``python -m evtforce.cli`` in a child; returns code, stdout, stderr.

    ``kwargs`` go to ``subprocess.run``: ``input`` feeds the child's stdin
    through a pipe, ``stdin`` hands it an open file.
    """
    src = str(Path(evtforce.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "evtforce.cli", *map(str, argv)], capture_output=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, timeout=120,
        **kwargs,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


@pytest.mark.parametrize("command", ["predict", "bench"])
def test_events_from_stdin(ws, command):
    # A pipe has no size to check a declared record count against, so it is
    # refused in one line; a file redirected to stdin reads as the file.
    rec = ws.rec / "rec000.evb1"
    argv = {
        "predict": ["predict", "--config", ws.config, "--ckpt", ws.ckpt],
        "bench": ["bench", "--repeats", 1],
    }[command]
    code, out, err = run_child([*argv, "--in", "/dev/stdin"], input=rec.read_bytes())
    assert (code, out) == (3, "")
    assert err == "error: /dev/stdin: not a regular file\n"
    with open(rec, "rb") as fh:
        redirected = run_child([*argv, "--in", "/dev/stdin"], stdin=fh)
    direct = run_child([*argv, "--in", rec])
    assert redirected[0] == direct[0] == 0, redirected[2]
    if command == "predict":
        assert redirected == direct
    else:  # timings differ from run to run; the keys and the event count do not
        assert json.loads(redirected[1]).keys() == json.loads(direct[1]).keys()
        assert json.loads(redirected[1])["events"] == json.loads(direct[1])["events"]


class TestTrain:
    def test_artifacts(self, ws):
        assert ws.ckpt.exists()
        log = Path(str(ws.ckpt) + ".log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_mse,val_mse"
        assert len(log) == 1 + SMALL_CONFIG["train"]["epochs"]
        for row in log[1:]:
            epoch, train_mse, val_mse = row.split(",")
            assert float(train_mse) > 0 and float(val_mse) > 0
        assert [row.split(",")[0] for row in log[1:]] == ["0", "1"]

    def test_summary_matches_stdout(self, ws):
        summary = json.loads(Path(str(ws.ckpt) + ".summary.json").read_text())
        assert json.loads(ws.train_out) == summary
        assert summary["split"] == "val"
        assert summary["metrics"]["n"] == 2  # floor(0.15 * 15)
        assert summary["best_epoch"] in (0, 1)

    def test_checkpoint_holds_the_small_model(self, ws):
        model = load_checkpoint(ws.ckpt)
        assert model.config.image_size == 16
        assert model.config.embed_dim == 16
        assert model.config.depth == 1
        assert model.config.in_channels == 2

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        config = write_config(tmp_path, {"train": {"epochs": 1}})
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            out = tmp_path / name
            code, _, err = run_cli(
                ["train", "--config", config, "--seed", 11, "--data", ws.frd, "--out", out]
            )
            assert code == 0, err
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (
            Path(str(outs[0]) + ".log.csv").read_bytes()
            == Path(str(outs[1]) + ".log.csv").read_bytes()
        )

    def test_no_validation_split_reports_the_train_split(self, ws, tmp_path):
        config = write_config(tmp_path, {"train": {"epochs": 2, "split": [1, 0, 0]}})
        out = tmp_path / "model.ckpt"
        code, stdout, err = run_cli(["train", "--config", config, "--data", ws.frd, "--out", out])
        assert code == 0, err
        summary = json.loads(stdout)
        assert summary == json.loads(Path(str(out) + ".summary.json").read_text())
        assert summary["split"] == "train"
        assert summary["best_epoch"] == 1  # the last epoch: none is validated
        assert summary["metrics"]["n"] == N_FRAMES
        log = Path(str(out) + ".log.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in log[1:]] == ["nan", "nan"]

    def test_zero_epochs_give_an_empty_summary(self, ws, tmp_path):
        config = write_config(tmp_path, {"train": {"epochs": 0}})
        out = tmp_path / "model.ckpt"
        code, stdout, err = run_cli(["train", "--config", config, "--data", ws.frd, "--out", out])
        assert code == 0, err
        summary = {"best_epoch": None, "metrics": None, "split": None}
        assert json.loads(stdout) == summary
        assert json.loads(Path(str(out) + ".summary.json").read_text()) == summary
        assert Path(str(out) + ".log.csv").read_text() == "epoch,train_mse,val_mse\n"
        assert load_checkpoint(out).config.embed_dim == 16

    def test_diverging_training_writes_nothing(self, ws, tmp_path):
        config = write_config(tmp_path, {"train": {"learning_rate": 1e30}})
        out = tmp_path / "model.ckpt"
        code, stdout, err = run_cli(
            ["train", "--config", config, "--data", ws.frd, "--out", out]
        )
        assert (code, stdout) == (2, "")
        assert_one_line_error(err)
        assert "training diverged" in err and "epoch 0" in err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("learning_rate", [1e10, 1e308])
    def test_divergence_without_validation_writes_nothing(self, ws, tmp_path, learning_rate):
        # One step, so the loop sees only the finite loss before it; with no
        # validation split the summary's predictions are the first checked.
        # At 1e10 every weight is finite, at 1e308 none is.
        config = write_config(tmp_path, {"train": {
            "epochs": 1, "batch_size": 16, "learning_rate": learning_rate, "split": [1, 0, 0],
        }})
        out = tmp_path / "model.ckpt"
        code, stdout, err = run_cli(["train", "--config", config, "--data", ws.frd, "--out", out])
        assert (code, stdout) == (2, "")
        assert_one_line_error(err)
        assert err == "error: training diverged: non-finite train metrics after epoch 0\n"
        assert list(tmp_path.iterdir()) == [config]

    def test_mape_floor_below_float32_tiny_is_a_config_error(self, ws, tmp_path):
        config = write_config(tmp_path, {"train": {"epochs": 1, "mape_floor_n": 1e-320}})
        for argv in [
            ["train", "--config", config, "--data", ws.frd, "--out", tmp_path / "m.ckpt"],
            ["eval", "--config", config, "--ckpt", ws.ckpt, "--data", ws.frd],
        ]:
            code, stdout, err = run_cli(argv)
            assert (code, stdout) == (2, ""), argv[0]
            assert_one_line_error(err)
            assert err.startswith("error: invalid train.mape_floor_n: mape_floor_n must be at least ")
        assert list(tmp_path.iterdir()) == [config]

    def test_frame_shape_must_match_model(self, ws, tmp_path):
        # Default model wants 2x64x64, the small dataset is 2x16x16.
        code, _, err = run_cli(
            ["train", "--data", ws.frd, "--out", tmp_path / "x.ckpt"]
        )
        assert code == 2 and "2x16x16" in err

    def test_mismatched_model_is_one_line_in_every_command(self, ws, tmp_path):
        # 2x64x64 frames, from a container or from events at the default
        # spec, against the 2x16x16 model of the small config.
        big = tmp_path / "big.frd"
        write_frame_dataset(FrameDataset(np.zeros((2, 2, 64, 64)), [0.0, 0.0], ["a", "a"]), big)
        line = "error: frames are 2x64x64, model expects 2x16x16\n"
        for argv in [
            ["train", "--config", ws.config, "--data", big, "--out", tmp_path / "x.ckpt"],
            ["eval", "--config", ws.config, "--ckpt", ws.ckpt, "--data", big],
            ["predict", "--config", ws.config, "--ckpt", ws.ckpt, "--in", big],
            ["predict", "--ckpt", ws.ckpt, "--in", ws.rec / "rec000.evb1"],
        ]:
            assert run_cli(argv) == (2, "", line), argv[0]

    def test_empty_dataset(self, ws, tmp_path):
        empty = tmp_path / "empty.frd"
        write_frame_dataset(FrameDataset(np.zeros((0, 2, 16, 16)), [], []), empty)
        code, _, err = run_cli(
            ["train", "--config", ws.config, "--data", empty, "--out", tmp_path / "x.ckpt"]
        )
        assert code == 2 and "holds no frames" in err

    def test_missing_dataset(self, ws, tmp_path):
        code, _, err = run_cli(
            ["train", "--config", ws.config, "--data", tmp_path / "nope.frd", "--out", tmp_path / "x.ckpt"]
        )
        assert code == 3


class TestEval:
    def test_all_split(self, ws):
        code, out, err = run_cli(
            ["eval", "--config", ws.config, "--seed", 11, "--ckpt", ws.ckpt, "--data", ws.frd]
        )
        assert code == 0, err
        metrics = json.loads(out)
        assert set(metrics) == {"rmse_n", "r2", "mape", "n"}
        assert metrics["n"] == N_FRAMES
        assert metrics["rmse_n"] >= 0 and metrics["mape"] >= 0

    @pytest.mark.parametrize("split,n", [("train", 11), ("val", 2), ("test", 2)])
    def test_split_sizes(self, ws, split, n):
        code, out, _ = run_cli(
            [
                "eval", "--config", ws.config, "--seed", 11,
                "--ckpt", ws.ckpt, "--data", ws.frd, "--split", split,
            ]
        )
        assert code == 0
        assert json.loads(out)["n"] == n

    def test_val_split_matches_train_summary(self, ws):
        _, out, _ = run_cli(
            [
                "eval", "--config", ws.config, "--seed", 11,
                "--ckpt", ws.ckpt, "--data", ws.frd, "--split", "val",
            ]
        )
        summary = json.loads(Path(str(ws.ckpt) + ".summary.json").read_text())
        assert json.loads(out) == summary["metrics"]

    def test_perfect_labels_score_perfectly(self, ws, tmp_path):
        # Relabel every frame with the model's own output; the forward pass
        # is float32 so the float32 labels store it exactly.
        ds = read_frame_dataset(ws.frd)
        model = load_checkpoint(ws.ckpt)
        preds = predict_forces(model, ds.frames)
        oracle = tmp_path / "oracle.frd"
        write_frame_dataset(
            FrameDataset(ds.frames, preds.astype(np.float32), ds.provenance, ds.windows), oracle
        )
        code, out, err = run_cli(
            ["eval", "--config", ws.config, "--ckpt", ws.ckpt, "--data", oracle]
        )
        assert code == 0, err
        metrics = json.loads(out)
        assert metrics["rmse_n"] == 0.0
        assert metrics["r2"] == 1.0
        assert metrics["mape"] == 0.0

    def test_empty_split(self, ws, tmp_path):
        # Two frames: floor splits leave val and test empty.
        ds = read_frame_dataset(ws.frd).subset([0, 1])
        tiny = tmp_path / "tiny.frd"
        write_frame_dataset(ds, tiny)
        code, _, err = run_cli(
            [
                "eval", "--config", ws.config, "--seed", 11,
                "--ckpt", ws.ckpt, "--data", tiny, "--split", "val",
            ]
        )
        assert code == 2 and "empty" in err

    def test_corrupt_checkpoint(self, ws, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage that is long enough to carry a header length")
        code, _, err = run_cli(
            ["eval", "--config", ws.config, "--ckpt", bad, "--data", ws.frd]
        )
        assert code == 3

    def test_truncated_checkpoint(self, ws, tmp_path):
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(ws.ckpt.read_bytes()[:-100])
        code, _, err = run_cli(
            ["eval", "--config", ws.config, "--ckpt", bad, "--data", ws.frd]
        )
        assert code == 3

    def test_checkpoint_with_trailing_bytes(self, ws, tmp_path):
        bad = tmp_path / "long.ckpt"
        bad.write_bytes(ws.ckpt.read_bytes() + b"junk")
        code, _, err = run_cli(
            ["eval", "--config", ws.config, "--ckpt", bad, "--data", ws.frd]
        )
        assert code == 3
        assert_one_line_error(err)
        assert "4 trailing byte(s)" in err

    @pytest.mark.parametrize("value", [1, 2])
    def test_checkpoint_head_output(self, ws, tmp_path, value):
        # Earlier versions wrote "head_output": 1 into every checkpoint.
        def add_head_output(header):
            header["config"]["head_output"] = value
            return header

        ckpt = checkpoint_with_header(ws.ckpt, tmp_path / "head.ckpt", add_head_output)
        code, out, err = run_cli(["eval", "--config", ws.config, "--ckpt", ckpt, "--data", ws.frd])
        if value == 1:
            assert code == 0, err
            assert out == run_cli(
                ["eval", "--config", ws.config, "--ckpt", ws.ckpt, "--data", ws.frd]
            )[1]
        else:
            assert code == 3
            assert_one_line_error(err)
            assert "head_output must be 1" in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_with_a_nan_parameter(self, ws, tmp_path, command):
        raw = bytearray(ws.ckpt.read_bytes())
        hlen = struct.unpack_from("<I", raw)[0]
        offset = json.loads(raw[4 : 4 + hlen])["params"]["head.b"]["offset"]
        struct.pack_into("<f", raw, 4 + hlen + offset, np.nan)
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(bytes(raw))
        data_flag = "--data" if command == "eval" else "--in"
        code, out, err = run_cli(
            [command, "--config", ws.config, "--ckpt", bad, data_flag, ws.frd]
        )
        assert code == 3
        assert out == ""
        assert_one_line_error(err)
        assert "parameter head.b holds a non-finite value" in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "names",
        [("block0.attn.k.w",), ("block0.attn.out.b",), ("final_ln.b", "head.w")],
        ids=["attn.k.w", "attn.out.b", "final_ln.b+head.w"],
    )
    def test_checkpoint_with_a_huge_weight(self, ws, tmp_path, command, names):
        # Finite, so the checkpoint loads; the forward pass may overflow.
        raw = bytearray(ws.ckpt.read_bytes())
        hlen = struct.unpack_from("<I", raw)[0]
        index = json.loads(raw[4 : 4 + hlen])["params"]
        for name in names:
            struct.pack_into("<f", raw, 4 + hlen + index[name]["offset"], 3e38)
        big = tmp_path / "big.ckpt"
        big.write_bytes(bytes(raw))
        data_flag = "--data" if command == "eval" else "--in"
        code, out, err = run_cli(
            [command, "--config", ws.config, "--ckpt", big, data_flag, ws.frd]
        )
        if code == 0:
            assert err == ""
        else:
            assert (code, out) == (3, "")
            assert_one_line_error(err)
            assert f"{big}: checkpoint gives a non-finite prediction" in err
        if "head.w" in names:
            # The readout's first entry is about 3e38, times a 3e38 weight.
            assert code == 3

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_index_pointing_two_parameters_at_one_place(self, ws, tmp_path, command):
        # The blob length still matches; head.b would read the first weights.
        def alias(header):
            header["params"]["head.b"]["offset"] = 0
            return header

        bad = checkpoint_with_header(ws.ckpt, tmp_path / "alias.ckpt", alias)
        data_flag = "--data" if command == "eval" else "--in"
        code, out, err = run_cli(
            [command, "--config", ws.config, "--ckpt", bad, data_flag, ws.frd]
        )
        assert (code, out) == (3, "")
        assert_one_line_error(err)
        assert "parameter index does not match the model config" in err

    @pytest.mark.parametrize("depth", [10**6, 10**9])
    def test_checkpoint_declaring_a_huge_model(self, ws, tmp_path, depth):
        # The blob is checked against the declared size before anything
        # is built per block.
        def deepen(header):
            header["config"]["depth"] = depth
            return header

        bad = checkpoint_with_header(ws.ckpt, tmp_path / "deep.ckpt", deepen)
        code, out, err, elapsed = run_limited(
            ["predict", "--config", ws.config, "--ckpt", bad, "--in", ws.frd], budget_s=60
        )
        assert (code, out) == (3, [])
        assert_one_line_error(err)
        assert "truncated checkpoint blob" in err
        assert elapsed < 5.0  # interpreter start-up included

    @pytest.mark.parametrize("key", ["config", "params"])
    def test_checkpoint_header_missing_key(self, ws, tmp_path, key):
        bad = checkpoint_with_header(
            ws.ckpt, tmp_path / "nokey.ckpt", lambda h: {k: v for k, v in h.items() if k != key}
        )
        code, _, err = run_cli(
            ["eval", "--config", ws.config, "--ckpt", bad, "--data", ws.frd]
        )
        assert code == 3
        assert_one_line_error(err)
        assert repr(key) in err

    @pytest.mark.parametrize("sidecar", ["{not json", "[1, 2]"])
    def test_corrupt_sidecar(self, ws, tmp_path, sidecar):
        frd = tmp_path / "data.frd"
        shutil.copy(ws.frd, frd)
        Path(str(frd) + ".json").write_text(sidecar)
        code, _, err = run_cli(["eval", "--config", ws.config, "--ckpt", ws.ckpt, "--data", frd])
        assert code == 3
        assert_one_line_error(err)
        assert "sidecar" in err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("windows", 5),
            ("windows", [[0]]),
            ("provenance", 7),
            ("windows", [[0, 1], [1, 2]]),
            ("provenance", []),
        ],
    )
    def test_malformed_sidecar_field(self, ws, tmp_path, field, value):
        frd = tmp_path / "one.frd"
        write_frame_dataset(read_frame_dataset(ws.frd).subset([0]), frd)
        sidecar = Path(str(frd) + ".json")
        manifest = json.loads(sidecar.read_text())
        manifest[field] = value
        sidecar.write_text(json.dumps(manifest))
        code, _, err = run_cli(["eval", "--config", ws.config, "--ckpt", ws.ckpt, "--data", frd])
        assert code == 3
        assert_one_line_error(err)
        assert field in err

    @pytest.mark.parametrize("label", [False, True], ids=["frame", "label"])
    def test_non_finite_dataset(self, ws, tmp_path, label):
        ds = read_frame_dataset(ws.frd)
        raw = bytearray(ws.frd.read_bytes())
        record = ds.frames[0].size + 1
        struct.pack_into("<f", raw, 18 + 4 * (record * 3 + (record - 1 if label else 5)), np.nan)
        frd = tmp_path / "nan.frd"
        frd.write_bytes(bytes(raw))
        code, _, err = run_cli(["eval", "--config", ws.config, "--ckpt", ws.ckpt, "--data", frd])
        assert code == 3
        assert_one_line_error(err)
        assert "frame 3 holds a non-finite " + ("label" if label else "frame value") in err

    def test_missing_checkpoint(self, ws, tmp_path):
        code, _, _ = run_cli(
            ["eval", "--config", ws.config, "--ckpt", tmp_path / "nope.ckpt", "--data", ws.frd]
        )
        assert code == 3


class TestPredict:
    def test_frd_matches_library_predictions(self, ws):
        code, out, err = run_cli(
            ["predict", "--config", ws.config, "--ckpt", ws.ckpt, "--in", ws.frd]
        )
        assert code == 0, err
        lines = out.splitlines()
        assert len(lines) == N_FRAMES
        got = np.array([float(line) for line in lines])
        model = load_checkpoint(ws.ckpt)
        expected = predict_forces(model, read_frame_dataset(ws.frd).frames)
        np.testing.assert_array_equal(got, expected)

    def test_event_file_is_windowed(self, ws):
        code, out, err = run_cli(
            ["predict", "--config", ws.config, "--ckpt", ws.ckpt, "--in", ws.rec / "rec000.evb1"]
        )
        assert code == 0, err
        lines = out.splitlines()
        assert len(lines) == FRAMES_PER_REC
        assert all(np.isfinite(float(line)) for line in lines)

    def test_long_inputs_stream_in_chunks_with_unchanged_values(self, ws, tmp_path):
        # 600 frames or windows cross two chunk boundaries; every value
        # must equal the one-call library prediction.
        model = load_checkpoint(ws.ckpt)
        ds = read_frame_dataset(ws.frd)
        frames = np.concatenate([ds.frames] * 40)
        frd = tmp_path / "long.frd"
        write_frame_dataset(FrameDataset(frames, np.zeros(len(frames)), [""] * len(frames)), frd)
        rec = ws.rec / "rec000.evb1"
        config = write_config(tmp_path, {"frame": {"window_us": 800}})
        spec = load_config(str(config)).frame
        for argv, want in [
            (["--config", ws.config, "--in", frd], predict_forces(model, frames)),
            (["--config", config, "--in", rec],
             predict_forces(model, all_frames(read_events(rec), spec))),
        ]:
            code, out, err = run_cli(["predict", "--ckpt", ws.ckpt, *argv])
            assert code == 0, err
            assert len(want) > 512
            np.testing.assert_array_equal([float(line) for line in out.splitlines()], want)

    def test_huge_last_timestamp_streams_in_bounded_memory(self, ws, tmp_path):
        # A valid recording whose last event is at 10**15 us spans 10**10
        # windows.  Under a 1 GiB address-space limit the child must keep
        # printing finite predictions rather than allocate every frame.
        stream = read_events(ws.rec / "rec000.evb1")
        t_us = stream.t_us.copy()
        t_us[-1] = 10**15
        path = tmp_path / "long.evb1"
        write_events(
            EventStream(stream.width, stream.height, t_us, stream.x, stream.y, stream.p), path
        )

        proc = start_limited(["predict", "--config", ws.config, "--ckpt", ws.ckpt, "--in", path])
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            lines = [proc.stdout.readline() for _ in range(512)]
        finally:
            watchdog.cancel()
            proc.kill()
            _, err = proc.communicate(timeout=60)
        assert all(line.endswith("\n") for line in lines), err
        assert np.isfinite([float(line) for line in lines]).all()
        assert err == ""

    def test_window_longer_than_recording_prints_nothing(self, ws, tmp_path):
        config = write_config(tmp_path, {"frame": {"window_us": 10_000_000}})
        code, out, err = run_cli(
            ["predict", "--config", config, "--ckpt", ws.ckpt, "--in", ws.rec / "rec000.evb1"]
        )
        assert code == 0, err
        assert out == ""

    def test_all_zero_frame_is_finite(self, ws, tmp_path):
        ds = read_frame_dataset(ws.frd)
        zero = FrameDataset(np.zeros_like(ds.frames[:1]), [0.0], ["z"], [[0, ds.windows[0, 1]]])
        path = tmp_path / "zero.frd"
        write_frame_dataset(zero, path)
        code, out, err = run_cli(
            ["predict", "--config", ws.config, "--ckpt", ws.ckpt, "--in", path]
        )
        assert code == 0, err
        assert len(out.splitlines()) == 1
        assert np.isfinite(float(out))

    def test_empty_dataset_prints_nothing(self, ws, tmp_path):
        path = tmp_path / "empty.frd"
        write_frame_dataset(FrameDataset(np.zeros((0, 2, 16, 16)), [], []), path)
        code, out, err = run_cli(
            ["predict", "--config", ws.config, "--ckpt", ws.ckpt, "--in", path]
        )
        assert code == 0, err
        assert out == ""

    def test_large_frames_predict_in_bounded_batches(self, tmp_path):
        # 1024 x 1024 count frames are 4 MiB each: a batch of 256 would take
        # 1 GiB, so batches hold two (300 windows span more than 256).  An event file, and a .frd of the
        # same frames, print the same predictions in batches of that size.
        ckpt = tmp_path / "wide.ckpt"
        vit = ViTConfig(image_size=1024, patch_size=64, in_channels=1, embed_dim=16,
                        depth=1, num_heads=2)
        save_checkpoint(init_params(vit, 0), ckpt)
        config = write_config(
            tmp_path, {"frame": {"out_size": None, "mode": "count", "window_us": 1000}}
        )
        rng = np.random.default_rng(5)

        def recording(path, n_windows):
            t = np.sort(rng.integers(0, n_windows * 1000, 2 * n_windows))
            t[-1] = n_windows * 1000 - 1
            xy = rng.integers(0, 1024, (2, len(t)))
            write_events(EventStream(1024, 1024, t, *xy, rng.choice([-1, 1], len(t))), path)
            return path

        long_rec = recording(tmp_path / "long.evb1", 300)
        code, lines, err, _ = run_limited(
            ["predict", "--config", config, "--ckpt", ckpt, "--in", long_rec], budget_s=120
        )
        assert (code, err) == (0, "")
        assert len(lines) == 300 and np.isfinite([float(line) for line in lines]).all()

        short_rec = recording(tmp_path / "short.evb1", 8)
        frames = all_frames(read_events(short_rec), load_config(str(config)).frame)
        frd = tmp_path / "short.frd"
        write_frame_dataset(FrameDataset(frames, np.zeros(8), [""] * 8), frd)
        outputs = []
        for path in (short_rec, frd):
            code, out, err = run_cli(["predict", "--config", config, "--ckpt", ckpt, "--in", path])
            assert code == 0, err
            outputs.append(out.splitlines())
        assert len(outputs[0]) == 8 and outputs[0] == outputs[1]

    def test_native_frames_of_a_huge_sensor_are_refused_before_windowing(self, ws, tmp_path):
        # Native 65535 x 65535 frames would take 64 GiB per chunk of two;
        # the geometry is compared with the model's before any is built.
        stream = read_events(ws.rec / "rec000.evb1")
        path = tmp_path / "huge.evb1"
        write_events(EventStream(65535, 65535, stream.t_us, stream.x, stream.y, stream.p), path)
        config = write_config(tmp_path, {"frame": {"out_size": None}})
        code, out, err, _ = run_limited(
            ["predict", "--config", config, "--ckpt", ws.ckpt, "--in", path], budget_s=60
        )
        assert (code, out) == (2, [])
        assert_one_line_error(err)
        assert "frames are 2x65535x65535, model expects 2x16x16" in err

    def test_huge_declared_sensor_predicts_in_bounded_memory(self, ws, tmp_path):
        # A 16-px frame of a declared 65535 x 65535 sensor costs no more
        # than one of an 80 x 60 sensor: frames are built from class
        # histograms, never from a native-size one.
        stream = read_events(ws.rec / "rec000.evb1")
        path = tmp_path / "huge.evb1"
        write_events(EventStream(65535, 65535, stream.t_us, stream.x, stream.y, stream.p), path)
        code, lines, err, _ = run_limited(
            ["predict", "--config", ws.config, "--ckpt", ws.ckpt, "--in", path], budget_s=60
        )
        assert code == 0, err
        assert len(lines) == stream.duration_us // 100_000
        assert np.isfinite([float(line) for line in lines]).all()

    @pytest.mark.parametrize("command", ["convert", "predict"])
    @pytest.mark.parametrize("mode, out_size", [("binary", 16), ("count", 7)])
    def test_unbounded_window_of_a_huge_sensor_is_refused(
        self, ws, tmp_path, command, mode, out_size
    ):
        # Binary frames and the non-dyadic 65535 -> 7 split keep one
        # histogram bin per native pixel: 4 Gi bins for one window.
        stream = read_events(ws.rec / "rec000.evb1")
        rec = tmp_path / "rec"
        rec.mkdir()
        write_events(
            EventStream(65535, 65535, stream.t_us, stream.x, stream.y, stream.p),
            rec / "rec000.evb1",
        )
        shutil.copy(ws.rec / "rec000.labels.json", rec)
        config = write_config(tmp_path, {"frame": {"mode": mode, "out_size": out_size}})
        if command == "convert":
            argv = ["convert", "--config", config, "--in", rec, "--out", tmp_path / "x.frd"]
        else:
            ckpt = tmp_path / "model.ckpt"
            model = ViTConfig(image_size=out_size, patch_size=out_size, in_channels=1,
                              embed_dim=8, depth=1, num_heads=2)
            save_checkpoint(init_params(model, 0), ckpt)
            argv = ["predict", "--config", config, "--ckpt", ckpt, "--in", rec / "rec000.evb1"]
        code, out, err, _ = run_limited(argv, budget_s=60)
        assert (code, out) == (3, [])
        assert_one_line_error(err)
        assert f"frame.mode '{mode}' at frame.out_size {out_size}" in err
        assert "declared 65535x65535 sensor" in err

    def test_event_frames_must_match_model(self, ws):
        # Without the config the default spec makes 2x64x64 frames.
        code, _, err = run_cli(
            ["predict", "--ckpt", ws.ckpt, "--in", ws.rec / "rec000.evb1"]
        )
        assert code == 2

    def test_missing_input(self, ws, tmp_path):
        code, _, _ = run_cli(
            ["predict", "--config", ws.config, "--ckpt", ws.ckpt, "--in", tmp_path / "nope.evb1"]
        )
        assert code == 3


class TestBench:
    def test_reports_throughput_per_mode(self, ws):
        code, out, err = run_cli(["bench", "--in", ws.rec / "rec000.evb1", "--repeats", 1])
        assert code == 0, err
        report = json.loads(out)
        manifest = json.loads((ws.rec / "manifest.json").read_text())
        assert report["events"] == manifest["recordings"][0]["n_events"]
        for mode in ("count", "binary", "polarity2ch"):
            rate = report[f"{mode}_events_per_s"]
            assert np.isfinite(rate) and rate > 0

    def test_empty_recording(self, ws, tmp_path):
        path = tmp_path / "empty.csv"
        write_events(EventStream(8, 8), path, "csv")
        code, _, err = run_cli(["bench", "--in", path])
        assert code == 2 and "no events" in err

    def test_missing_file(self, ws, tmp_path):
        code, _, _ = run_cli(["bench", "--in", tmp_path / "nope.evb1"])
        assert code == 3

    @pytest.mark.parametrize(
        "width",
        [10**20, 2**31 + 5, "9" * 5000],
        ids=["past-int64", "past-int32", "past-int-digit-limit"],
    )
    def test_sensor_wider_than_u16_is_refused(self, tmp_path, width):
        path = tmp_path / "wide.csv"
        path.write_text(f"# width={width} height=60\nt_us,x,y,p\n0,3,2,1\n5,4,2,-1\n")
        code, out, err, _ = run_limited(["bench", "--in", path, "--repeats", 1], budget_s=60)
        assert (code, out) == (3, [])
        assert_one_line_error(err)
        assert f"{path}: sensor size {width}x60 is outside 1..65535 per side" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--config", "/nonexistent.json"],
            ["bench", "--seed", 3],
            ["convert", "--out", "x.frd", "--seed", 3],
            ["predict", "--ckpt", "x.ckpt", "--seed", 3],
        ],
    )
    def test_flags_nothing_reads_are_rejected(self, ws, argv):
        code, out, err = run_cli([*argv, "--in", ws.rec / "rec000.evb1"])
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_must_be_positive(self, ws, repeats):
        code, out, err = run_cli(
            ["bench", "--in", ws.rec / "rec000.evb1", "--repeats", repeats]
        )
        assert code == 2 and out == ""
        assert_one_line_error(err)


class TestMainEntry:
    def test_no_arguments_is_usage_error(self):
        code, _, err = run_cli([])
        assert code == 2

    def test_unknown_command(self):
        code, _, _ = run_cli(["explode"])
        assert code == 2

    def test_help_exits_zero(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0
        assert "synth" in out and "bench" in out

    def test_subcommand_help(self):
        code, out, _ = run_cli(["train", "--help"])
        assert code == 0
        assert "--data" in out

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command in ("convert", "predict")
            for flag in (["--window-us", 800], ["--mode", "count"], ["--out-size", 0],
                         ["--normalize"], ["--no-normalize"])
        ]
        + [("train", flag) for flag in (["--epochs", 1], ["--batch-size", 4], ["--lr", 0.1])],
        ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"),
    )
    def test_config_keys_are_not_flags(self, ws, tmp_path, command, flag):
        # The --config file is the one way to set a pipeline value.
        inputs = {
            "convert": ["--in", ws.rec, "--out", tmp_path / "x.frd"],
            "train": ["--data", ws.frd, "--out", tmp_path / "x.ckpt"],
            "predict": ["--ckpt", ws.ckpt, "--in", ws.rec / "rec000.evb1"],
        }[command]
        code, out, err = run_cli([command, "--config", ws.config, *inputs, *flag])
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(map(str, flag))}" in err
        assert list(tmp_path.iterdir()) == []
        assert flag[0] not in run_cli([command, "--help"])[1]

    def test_bad_flag_value(self, tmp_path):
        code, _, _ = run_cli(["synth", "--out", tmp_path / "o", "--n-recordings", "many"])
        assert code == 2


@pytest.fixture(scope="session")
def fuzz_inputs(ws, tmp_path_factory):
    """Valid copies of every input file, each with the command that reads it.

    Maps a file kind to (path, argv); ``convert`` reads recordings and
    label tracks, ``eval`` the container, its sidecar, the checkpoint and
    the config, and ``predict`` (kind "predict") the EVB1 recording.
    """
    root = tmp_path_factory.mktemp("fuzz")
    evb1, csv, data, model = (root / d for d in ("evb1", "csv", "data", "model"))
    for d in (evb1, csv, data, model):
        d.mkdir()
    labels = (ws.rec / "rec000.labels.json").read_bytes()
    shutil.copy(ws.rec / "rec000.evb1", evb1)
    (evb1 / "rec000.labels.json").write_bytes(labels)
    write_events(read_events(ws.rec / "rec000.evb1"), csv / "rec000.csv", "csv")
    (csv / "rec000.labels.json").write_bytes(labels)
    write_frame_dataset(read_frame_dataset(ws.frd), data / "data.frd")
    shutil.copy(ws.ckpt, model / "model.ckpt")
    # The whole merged document, so a mutation can reach every key.
    (model / "config.json").write_text(json.dumps(load_config(str(ws.config)).raw))

    def convert(d):
        return ["convert", "--config", ws.config, "--in", d, "--out", root / "out.frd"]

    evaluate = [
        "eval", "--config", model / "config.json", "--split", "val",
        "--ckpt", model / "model.ckpt", "--data", data / "data.frd",
    ]
    return {
        "evb1": (evb1 / "rec000.evb1", convert(evb1)),
        "csv": (csv / "rec000.csv", convert(csv)),
        "labels": (evb1 / "rec000.labels.json", convert(evb1)),
        "frd": (data / "data.frd", evaluate),
        "sidecar": (data / "data.frd.json", evaluate),
        "checkpoint": (model / "model.ckpt", evaluate),
        "config": (model / "config.json", evaluate),
        "predict": (evb1 / "rec000.evb1", [
            "predict", "--config", ws.config, "--ckpt", model / "model.ckpt",
            "--in", evb1 / "rec000.evb1",
        ]),
    }


_MUTATIONS = st.one_of(
    st.tuples(
        st.just("flip"),
        st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)), min_size=1, max_size=4),
    ),
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=8)),
)


def mutate(raw: bytes, mutation) -> bytes:
    """Flip (xor) some bytes, cut the tail off, or append bytes.

    Every byte may flip, the EVB1 sensor size included: a frame's cost
    does not follow the sensor size a header declares.
    """
    kind, arg = mutation
    if kind == "truncate":
        return raw[: arg % len(raw)]
    if kind == "extend":
        return raw + arg
    out = bytearray(raw)
    for pos, mask in arg:
        out[pos % len(out)] ^= mask
    return bytes(out)


# Flips the high bytes of the EVB1 width and height: 80 x 60 becomes a
# declared 65360 x 65340 sensor.
_HUGE_SENSOR = ("flip", [(5, 255), (7, 255)])


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["evb1", "csv", "labels", "frd", "sidecar", "checkpoint", "config"]),
       mutation=_MUTATIONS)
@example(kind="evb1", mutation=_HUGE_SENSOR)
def test_damaged_input_exits_with_one_line(fuzz_inputs, kind, mutation):
    path, argv = fuzz_inputs[kind]
    raw = path.read_bytes()
    path.write_bytes(mutate(raw, mutation))
    try:
        code, _, err = run_cli(argv)
    finally:
        path.write_bytes(raw)
    assert code in (0, 2, 3), err
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    if code:
        assert_one_line_error(err)


# One to two flipped bytes of EVB1 record timestamps (u64 at the start of
# each 16-byte record), the record counted from either end: a later last
# timestamp leaves a valid recording that spans very many windows.
_TIMESTAMP_FLIPS = st.tuples(
    st.just("timestamp"),
    st.lists(
        st.tuples(st.integers(-2, 1) | st.integers(0, 2**20), st.integers(0, 7),
                  st.integers(1, 255)),
        min_size=1, max_size=2,
    ),
)

# Per child; a recording that streams for longer passes when every line
# printed until then is a finite force.
_PREDICT_BUDGET_S = 1.0


@settings(max_examples=16, deadline=None)
@given(mutation=_MUTATIONS | _TIMESTAMP_FLIPS)
@example(mutation=_HUGE_SENSOR)
def test_damaged_recording_predicts_or_exits_with_one_line(fuzz_inputs, mutation):
    # Each example runs in a child under a 1 GiB address-space limit, so
    # an allocation bomb fails here rather than swapping.
    path, argv = fuzz_inputs["predict"]
    raw = path.read_bytes()
    if mutation[0] == "timestamp":
        n = (len(raw) - 16) // 16
        mutation = ("flip", [(16 + 16 * (k % n) + b, mask) for k, b, mask in mutation[1]])
    path.write_bytes(mutate(raw, mutation))
    try:
        code, lines, err, _ = run_limited(argv, _PREDICT_BUDGET_S)
    finally:
        path.write_bytes(raw)
    assert np.isfinite([float(line) for line in lines]).all(), err
    if code is None:
        assert err == ""
    else:
        assert code in (0, 2, 3), err
        assert err.count("\n") <= 1 and "Traceback" not in err, err
        if code:
            assert_one_line_error(err)


def run_python(code):
    """Run ``code`` in a fresh interpreter with this package on its path."""
    src = str(Path(evtforce.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)


def test_cold_start_never_imports_scipy():
    # Importing scipy.stats and scipy.special costs several times the rest
    # of start-up; numpy is the only runtime dependency, so no path may
    # load scipy.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import evtforce.cli\n"
        "from evtforce.synth import GripperScene, make_grasp_profile, synthesize_recording\n"
        "from evtforce.vit import ViTConfig, forward, init_params\n"
        "model = init_params(ViTConfig(), 0)\n"
        "forward(np.zeros((2, 2, 64, 64), np.float32), model)\n"
        "synthesize_recording(GripperScene(), make_grasp_profile(3, 1.0), noise_rate_hz=100.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_float64_model_runs_without_scipy():
    # The gradient checks' float64 path, with scipy made unimportable.
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import evtforce.cli\n"
        "from evtforce import autodiff as ad\n"
        "from evtforce.vit import ViTConfig, forward, init_params\n"
        "cfg = ViTConfig(image_size=8, patch_size=4, in_channels=1, embed_dim=8,\n"
        "                depth=1, num_heads=2)\n"
        "model = init_params(cfg, 0, dtype=np.float64)\n"
        "pred = forward(np.ones((2, 1, 8, 8)), model)\n"
        "ad.backward(ad.mean_over_axis(ad.reshape(pred, (2,)), 0))\n"
        "g = model.params['block0.mlp.fc1.w'].grad\n"
        "print(pred.dtype, g.dtype, bool(np.isfinite(g).all() and g.any()))\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["float64", "float64", "True"]
