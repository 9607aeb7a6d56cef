"""Tests of the benchmark itself, on the tiny ``--size smoke`` workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("sweep_trees", "sweep_parallel", "hpo_tabresnet", "io_stats")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True, cwd=cwd, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_and_passes_its_checks(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    # seed 0 of every smoke workload has stored fingerprints
    assert "fingerprints from the reference" in proc.stdout


def test_traced_run_splits_time_as_each_workload_was_chosen_for():
    shares = {}
    for workload in ("sweep_trees", "hpo_tabresnet", "io_stats"):
        proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1", "--size", "smoke")
        shares[workload] = {k: v["value"] for k, v in last_json(proc.stdout)["metrics"].items()}
    assert shares["sweep_trees"]["trees.share"] > 0.5
    assert shares["hpo_tabresnet"]["tabresnet.share"] + shares["hpo_tabresnet"]["hpo.share"] > 0.5
    for workload in ("hpo_tabresnet", "io_stats"):
        assert shares[workload]["trees.nodes"] == 0


def test_fails_without_result_when_the_package_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep_trees", "--seed", "0", "--seconds", "1", "--size", "smoke",
                 cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fingerprint_mismatch_counts_every_operation_as_failed(tmp_path, monkeypatch, capsys):
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({"platform": run.platform_tag(),
                               "fingerprints": {"hpo_tabresnet/smoke/0": {"search": "0" * 64, "final_fit": "0" * 64}}}))
    monkeypatch.setattr(run, "REFERENCE", str(ref))
    assert run.main(["--workload", "hpo_tabresnet", "--seed", "0", "--seconds", "0.5", "--size", "smoke"]) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_an_exception_in_imbench_is_recorded_not_raised(monkeypatch, capsys):
    import imbench.harness

    def broken(*args, **kwargs):
        raise RuntimeError("fit exploded")

    monkeypatch.setattr(imbench.harness, "run_sweep", broken)
    assert run.main(["--workload", "sweep_parallel", "--seed", "0", "--seconds", "0.5", "--size", "smoke"]) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0
    assert "RuntimeError: fit exploded" in out


def test_self_time_subtracts_the_union_of_parallel_children():
    span = lambda i, parent, a, b: {"id": i, "parent": parent, "start": a, "end": b}  # noqa: E731
    times = spans.self_times([
        span("root", None, 0.0, 10.0),
        span("w1", "root", 1.0, 6.0),   # two workers overlap on [2, 6]
        span("w2", "root", 2.0, 8.0),
        span("leaf", "w1", 1.0, 2.0),
    ])
    assert times["root"] == pytest.approx(3.0)
    assert times["w1"] == pytest.approx(4.0)
    assert times["w2"] == pytest.approx(6.0)
    assert times["leaf"] == pytest.approx(1.0)
