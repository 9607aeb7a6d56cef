"""tools/bench_collect.py: pairing of run records and the pair statistics."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_collect.py")
_spec = importlib.util.spec_from_file_location("bench_collect", _PATH)
bench_collect = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_collect)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "macro_f1_mean", "unit": "score", "better": "higher", "bound": 0.2}]


def write_run(root, name, workload, seed, wall, f1=0.5, digest="d", sha="a", trace=0, errors=()):
    run_dir = os.path.join(root, ".bench_out", name)
    os.makedirs(run_dir)
    record = {
        "environment": {"python": "3.11", "numpy": "2", "scipy": "1", "nproc": 2, "seconds": 30.0,
                        "git_sha": sha, "seed": seed, "workload": workload, "size": "full", "trace": trace},
        "platform": "x86_64",
        "operations": [{"wall": wall, "parts": [{"name": "rows", "units": 4, "digest": digest, "error": ""}]}],
        "errors": list(errors),
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "macro_f1_mean": {"value": f1, "unit": "score"}},
    }
    with open(os.path.join(run_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def test_pairs_by_seed_and_counts_wins(tmp_path):
    parent, change = str(tmp_path / "p"), str(tmp_path / "c")
    for seed, (p, c) in enumerate([(1.0, 0.8), (1.2, 0.9), (1.1, 1.1), (1.3, 1.4)]):
        write_run(parent, "p%d" % seed, "sweep", seed, p, sha="parent")
        write_run(change, "c%d" % seed, "sweep", seed, c, sha="change", digest="d" if seed else "other")
    write_run(parent, "traced", "sweep", 0, 9.0, trace=1)   # traced runs are left out
    write_run(change, "unpaired", "sweep", 9, 0.1)          # so is a seed run on one side only
    write_run(change, "errors", "io", 1, 1.0, errors=["rows: outputs differ"])
    write_run(parent, "io", "io", 1, 1.0)
    bench = bench_collect.collect(bench_collect.load_runs(parent), bench_collect.load_runs(change), METRICS)
    sweep = bench["workloads"]["sweep"]
    assert sweep["seeds"] == [0, 1, 2, 3] and sweep["pairs"] == 4
    assert sweep["outputs_identical"] == 3
    wall = sweep["metrics"]["wall_s"]
    assert (wall["change_wins"], wall["ties"]) == (2, 1)
    assert wall["parent"] == {"q1": pytest.approx(1.075), "median": pytest.approx(1.15), "q3": pytest.approx(1.225)}
    assert wall["change"]["median"] == pytest.approx(1.0)
    assert not wall["claim_rule_met"]
    # higher is better for F1: equal values are ties, not wins
    assert sweep["metrics"]["macro_f1_mean"]["change_wins"] == 0
    assert bench["workloads"]["io"]["runs_with_errors"] == {"parent": 0, "change": 1}
    assert bench["parent_sha"] == ["a", "parent"] and bench["change_sha"] == ["a", "change"]


def test_claim_rule_needs_nine_tenths_and_a_gap_beyond_the_parent_spread(tmp_path):
    parent, change = str(tmp_path / "p"), str(tmp_path / "c")
    for seed in range(10):
        write_run(parent, "p%d" % seed, "sweep", seed, 1.0 + 0.01 * seed)
        write_run(change, "c%d" % seed, "sweep", seed, 0.7 + 0.01 * seed if seed else 1.5)
    wall = bench_collect.collect(bench_collect.load_runs(parent), bench_collect.load_runs(change),
                                 METRICS)["workloads"]["sweep"]["metrics"]["wall_s"]
    assert wall["change_wins"] == 9 and wall["claim_rule_met"]


def test_pair_ratio_quartiles_show_the_paired_spread(tmp_path):
    """Parent values spread widely across seeds while each pair moves by
    little, so the per-pair ratios are narrow; a zero parent value is left
    out of the ratios, and the existing fields are unchanged by them."""
    parent, change = str(tmp_path / "p"), str(tmp_path / "c")
    for seed, (p, c) in enumerate([(1.0, 1.02), (2.0, 1.96), (3.0, 3.0), (4.0, 4.04), (5.0, 5.05)]):
        write_run(parent, "p%d" % seed, "sweep", seed, p, f1=0.0 if seed == 0 else p / 10)
        write_run(change, "c%d" % seed, "sweep", seed, c, f1=0.5 if seed == 0 else c / 10)
    metrics = bench_collect.collect(bench_collect.load_runs(parent), bench_collect.load_runs(change),
                                    METRICS)["workloads"]["sweep"]["metrics"]
    wall = metrics["wall_s"]
    assert wall["pair_ratio"] == {"q1": pytest.approx(1.0), "median": pytest.approx(1.01),
                                  "q3": pytest.approx(1.01)}
    assert wall["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert (wall["change_wins"], wall["ties"], wall["claim_rule_met"]) == (1, 1, False)
    assert metrics["macro_f1_mean"]["pair_ratio"]["median"] == pytest.approx(1.005)  # four pairs, seed 0 left out
    write_run(parent, "zero", "io", 0, 0.0)
    write_run(change, "zero", "io", 0, 1.0)
    io = bench_collect.collect(bench_collect.load_runs(parent), bench_collect.load_runs(change),
                               METRICS)["workloads"]["io"]["metrics"]["wall_s"]
    assert io["pair_ratio"] is None and io["median_change_frac"] == 0.0


@pytest.mark.parametrize("parent_walls, change_walls, f1s, wall_verdict, f1_verdict", [
    ([1.0, 1.01, 1.02, 1.03, 1.04], [1.1, 1.11, 1.12, 1.13, 1.14], (0.5, 0.45), "ok", "ok"),
    ([1.0, 1.01, 1.02, 1.03, 1.04], [1.3, 1.31, 1.32, 1.33, 1.34], (0.5, 0.35), "worse", "worse"),
    # the parent's interquartile range (1.0) is more than 0.25 times its median (2.0)
    ([1.0, 1.5, 2.0, 2.5, 3.0], [1.0, 1.5, 2.0, 2.5, 3.0], (0.5, 0.5), "unresolved", "ok"),
    # ... unless every change run beats every parent run
    ([1.0, 1.5, 2.0, 2.5, 3.0], [0.5, 0.6, 0.7, 0.8, 0.9], (0.5, 0.6), "ok", "ok"),
    ([1.0, 1.5, 2.0, 2.5, 3.0], [0.5, 0.6, 0.7, 0.8, 1.2], (0.5, 0.6), "unresolved", "ok"),
])
def test_verdict_applies_the_no_regression_rule(tmp_path, parent_walls, change_walls, f1s, wall_verdict, f1_verdict):
    """``worse`` when the median moves the wrong way by more than the bound
    (0.25 for wall time, 0.2 for F1, where higher is better), ``unresolved``
    when the parent's own spread is wider than the bound and the change
    does not beat every parent run, else ``ok``."""
    parent, change = str(tmp_path / "p"), str(tmp_path / "c")
    for seed, (p, c) in enumerate(zip(parent_walls, change_walls)):
        write_run(parent, "p%d" % seed, "sweep", seed, p, f1=f1s[0])
        write_run(change, "c%d" % seed, "sweep", seed, c, f1=f1s[1])
    metrics = bench_collect.collect(bench_collect.load_runs(parent), bench_collect.load_runs(change),
                                    METRICS)["workloads"]["sweep"]["metrics"]
    assert (metrics["wall_s"]["verdict"], metrics["macro_f1_mean"]["verdict"]) == (wall_verdict, f1_verdict)


def test_no_common_run_is_an_error(tmp_path):
    write_run(str(tmp_path / "p"), "p", "sweep", 0, 1.0)
    with pytest.raises(ValueError, match="no workload and seed"):
        bench_collect.collect(bench_collect.load_runs(str(tmp_path / "p")), {}, METRICS)
