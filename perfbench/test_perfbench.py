"""Smoke tests of the benchmark at the scale of the determinism acceptance test.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from metrics import TRACED_NAMES, layer_metrics, percentile, summarize  # noqa: E402
from tracer import Tracer, function_attributes, load_modules, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return line, report


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_present_finite_and_has_its_unit(workload, trace):
    line, report = run_bench(workload, trace)
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert [m["name"] for m in section] == list(line["metrics"])
    for spec in section:
        got = line["metrics"][spec["name"]]
        assert math.isfinite(got["value"]), spec["name"]
        assert got["unit"] == spec["unit"]
    assert line["attempted"] >= 1
    # Two smoke epochs on fifteen frames cannot reach the R2 bar; every
    # other check must pass.
    allowed = {"test_r2"} if workload == "train" else set()
    failed = {name for name, (_, bad) in report["checks"].items() if bad}
    assert failed <= allowed
    assert report["checks"]["attributes_restored"] == [1, 0]
    if trace:
        assert report["missing"] == []
    elif workload == "train":
        assert report["checks"]["untraced_wraps_only_step_clock"] == [1, 0]


def test_tracer_wraps_imported_names_and_restores_them():
    ev = load_modules()
    before = function_attributes(ev)
    tracer = Tracer(ev, TRACED_NAMES + ("autodiff.no_such_op",))
    assert tracer.missing == ["autodiff.no_such_op"]
    original = ev["frames"].build_dataset
    tracer.install()
    try:
        assert ev["cli"].build_dataset is ev["frames"].build_dataset
        assert ev["cli"].build_dataset is not original
        ev["cli"].sub_seed(1, "x")
    finally:
        tracer.restore()
    assert function_attributes(ev) == before
    assert [s[2] for s in tracer.spans] == ["cli.sub_seed"]


def test_self_time_subtracts_direct_children():
    spans = [(1, 0, "child", 1.0, 3.0), (0, -1, "parent", 0.0, 10.0), (2, 0, "child", 4.0, 5.0)]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_layer_metrics_read_zero_without_spans():
    values = layer_metrics([], "stream", 0, {})
    assert values and all(v == 0.0 for v in values.values())
    names = {m["name"] for m in BENCH["per_layer"]}
    assert names - set(values) == {"machine.gemm_gflops", "machine.copy_gb_per_s",
                                   "trace.overhead_frac"}


def test_percentile_and_tail_count():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50.5
    summary = summarize(values, 90.0)
    assert summary["samples"] == 100 and summary["beyond_tail"] == 10


def test_corpus_build_matches_the_cli(tmp_path):
    """The corpus workload's build is byte-identical to synth + convert."""
    from evtforce.cli import main

    scale = workloads.SCALES["smoke"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(scale.config))
    ev = load_modules()
    cfg = ev["cli"].load_config(str(config))
    workloads.build_corpus(ev, cfg, SEED, scale.n_recordings, tmp_path / "bench")

    cli_root = tmp_path / "cli"
    assert main(["synth", "--config", str(config), "--seed", str(SEED), "--out",
                 str(cli_root / "rec"), "--n-recordings", str(scale.n_recordings)]) == 0
    assert main(["convert", "--config", str(config), "--in", str(cli_root / "rec"),
                 "--out", str(cli_root / "data.frd")]) == 0
    files = sorted(p.relative_to(cli_root) for p in cli_root.rglob("*") if p.is_file())
    assert len(files) == 2 * scale.n_recordings + 3
    for rel in files:
        assert (tmp_path / "bench" / rel).read_bytes() == (cli_root / rel).read_bytes(), rel


def test_benchmark_file_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
