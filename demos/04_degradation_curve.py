"""
Reading a degradation curve off a threshold sweep
=================================================

Rare-class filtering thresholds act as an imbalance dial: raising the
minimum per-class count drops the rarest classes, which *reduces* imbalance
but also changes the task.  A sweep over thresholds records, for every
(classifier, threshold) cell, the imbalance metrics of the surviving
training distribution next to the scores -- the raw material for
degradation curves.
"""

from pathlib import Path

from imbench import ExperimentConfig, SynthConfig, run_sweep, write_degradation

config = ExperimentConfig(
    synth=SynthConfig(n_samples=4000, n_classes=8, n_features=10,
                      cluster_separation=1.8, power_law_exponent=1.4, seed=2),
    filter_thresholds=None,  # resolved to the default 1-2-5 ladder at run time
    strategies=("none", "inverse"),
    families=("dt", "gbt"),
    n_runs=3,
    model_params={"dt": {"max_depth": 8},
                  "gbt": {"n_estimators": 15, "learning_rate": 0.25}},
)
results, summaries = run_sweep(config)
print("sweep produced %d rows (%d skipped, %d failed)" % (
    len(results), sum(1 for r in results if r.status == "skipped"),
    sum(1 for r in results if r.status == "failed")))

out = Path("demo_out")
out.mkdir(exist_ok=True)
write_degradation(summaries, out / "degradation.csv", metric="weighted_f1")
print("wrote", out / "degradation.csv")

# The same table, printed: one classifier's trajectory across thresholds.
print("\n%10s  %6s  %8s  %8s  %8s  %8s" % (
    "classifier", "thr", "ir", "necd", "wF1", "+/-"))
for s in summaries:
    if s.classifier != "gbt+inverse":
        continue
    print("%10s  %6d  %8.2f  %8.4f  %8.4f  %8.4f" % (
        s.classifier, s.filter_threshold, s.imbalance_ratio, s.necd,
        s.weighted_f1_mean, s.weighted_f1_std))
