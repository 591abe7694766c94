"""Smoke test of the benchmark itself, on short runs of every workload.

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402
import tracing  # noqa: E402


def bench(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    res = result(bench(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_emitted(workload):
    res = result(bench(workload, 1))
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    main_s = metrics["cli.main.s"]["value"]
    self_total = sum(metrics[f"{name}.self_s"]["value"]
                     for name in [tracing.ROOT, *tracing.SPANS])
    assert 0 < self_total <= main_s * (1 + 1e-9)
    assert metrics["trace.errors"]["value"] == 0


def test_truncated_report_counts_as_a_failed_invocation():
    b = run.Bench(ROOT, "surface-io", 3, 1, "smoke")
    b.clean()
    b.setup(timed=False)
    b.child_pass()
    assert b.failures == [] and b.ops_failed_ratio() == 0
    zc = next(inv for inv in b.invs if inv.name == "zc")
    report = os.path.join(zc.outdir, "report.json")
    with open(report, "r+") as fh:
        fh.truncate(os.path.getsize(report) // 2)
    assert b.evaluate(zc, 0)
    assert b.ops_failed_ratio() == 1 / (len(b.invs) + 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = bench("chain-1d", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tracer_skips_functions_the_program_no_longer_has(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import spinsurf.cli  # noqa: F401  (loads every traced module)
    import spinsurf.fields as fields
    import spinsurf.models as models
    diff = fields.diff
    monkeypatch.delattr(fields, "_frozen_array")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["fields.field_constructions"]
        assert fields.diff is not diff and models.diff is fields.diff
    finally:
        tracer.uninstall()
    assert fields.diff is diff and models.diff is diff
