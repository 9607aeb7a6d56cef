#!/usr/bin/env python3
"""Collect paired parent/change benchmark runs into one BENCH file.

    python3 tools/bench_collect.py --parent ../parent --change . --out BENCH_6.json

``--parent`` and ``--change`` are the roots of two checkouts in which
``perfbench/run.py`` was run with ``--trace 0``, so that each holds its
``.bench_out/*/run.json`` records.  Runs are paired by workload and seed
(a seed run on one side only is left out; a seed run twice on one side keeps
its newest record).  For each workload and each end-to-end metric of
``BENCHMARK.json`` the output gives both sides' median and quartiles over
the paired runs, the relative change of the median, and how many pairs the
change won, ties counting for neither.  ``pair_ratio`` gives the quartiles
of the per-pair change/parent ratio, over the pairs whose parent value is
not zero: the two runs of a pair share a seed and so its data, so this
spread can be narrower than either side's spread across seeds.
``claim_rule_met`` applies the benchmark's rule for claiming a gain: at
least nine tenths of the pairs won and a median gap wider than the
parent's interquartile range.  ``verdict`` applies its no-regression rule:
``unresolved`` when the parent's interquartile range is more than the
bound times its median, unless every change run beats every parent run;
else ``worse`` when the median moved the wrong way by more than the bound;
else ``ok``.  The file is a record of measurements; nothing reads it as a
pass/fail gate.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(checkout: str) -> dict:
    """``(workload, seed) -> run record`` of the untraced full-size runs in a checkout."""
    paths = glob.glob(os.path.join(checkout, ".bench_out", "*", "run.json"))
    runs = {}
    for path in sorted(paths, key=os.path.getmtime):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        env = record["environment"]
        if env["trace"] == 0 and env["size"] == "full":
            runs[(env["workload"], env["seed"])] = record
    return runs


def quartiles(values) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def outputs(record) -> dict:
    """Part name -> the set of output fingerprints its operations gave."""
    out: dict = {}
    for op in record["operations"]:
        for part in op["parts"]:
            out.setdefault(part["name"], set()).add(part["digest"])
    return out


def compare(pairs, metrics) -> dict:
    """Both sides' statistics for one workload's ``[(parent, change)]`` records."""
    result = {
        "seeds": [p["environment"]["seed"] for p, _ in pairs],
        "pairs": len(pairs),
        "outputs_identical": sum(outputs(p) == outputs(c) for p, c in pairs),
        "runs_with_errors": {"parent": sum(bool(p["errors"]) for p, _ in pairs),
                             "change": sum(bool(c["errors"]) for _, c in pairs)},
        "metrics": {},
    }
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        ps, cs = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        gap = cs["median"] - ps["median"]
        change_frac = gap / ps["median"] if ps["median"] else 0.0
        ratios = [c / p for p, c in zip(parent, change) if p]
        beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
        if ps["q3"] - ps["q1"] > metric["bound"] * abs(ps["median"]) and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "worse" if sign * change_frac > metric["bound"] else "ok"
        result["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": ps,
            "change": cs,
            "median_change_frac": change_frac,
            "change_wins": wins,
            "ties": sum(c == p for p, c in zip(parent, change)),
            "pair_ratio": quartiles(ratios) if ratios else None,
            "claim_rule_met": wins >= 0.9 * len(pairs) and sign * gap < 0 and abs(gap) > ps["q3"] - ps["q1"],
            "verdict": verdict,
        }
    return result


def collect(parent_runs: dict, change_runs: dict, metrics) -> dict:
    keys = sorted(set(parent_runs) & set(change_runs))
    if not keys:
        raise ValueError("no workload and seed was run on both sides")
    first_p, first_c = parent_runs[keys[0]], change_runs[keys[0]]
    env = first_p["environment"]
    workloads = {}
    for workload in sorted({w for w, _ in keys}):
        pairs = [(parent_runs[k], change_runs[k]) for k in keys if k[0] == workload]
        workloads[workload] = compare(pairs, metrics)
    return {
        "parent_sha": sorted({parent_runs[k]["environment"]["git_sha"] for k in keys}),
        "change_sha": sorted({change_runs[k]["environment"]["git_sha"] for k in keys}),
        "environment": {k: env[k] for k in ("python", "numpy", "scipy", "nproc", "seconds")},
        "platform": first_p["platform"],
        "same_platform": first_p["platform"] == first_c["platform"],
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the change's checkout")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    try:
        bench = collect(load_runs(args.parent), load_runs(args.change), metrics)
    except ValueError as exc:
        print("bench_collect: %s" % exc, file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    for workload, w in bench["workloads"].items():
        for name, m in w["metrics"].items():
            print("%-14s %-17s %10.4g -> %10.4g  %+6.1f%%  won %d/%d  %s" % (
                workload, name, m["parent"]["median"], m["change"]["median"],
                100.0 * m["median_change_frac"], m["change_wins"], w["pairs"], m["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
