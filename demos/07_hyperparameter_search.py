"""
Random search with median pruning
=================================

Hyperparameter search over the boosted-tree family: random draws from the
documented ranges, stratified 5-fold cross-validation scored by weighted F1,
and median pruning that aborts a trial as soon as its running fold mean
falls below the median of completed trials at the same stage.
"""

import json

import numpy as np

from imbench import HpoSpec, SynthConfig, hpo_random_search, stratified_split, synth_generate

cfg = SynthConfig(n_samples=2000, n_classes=3, n_features=8,
                  cluster_separation=1.3, class_counts=(1400, 450, 150), seed=6)
data = synth_generate(cfg)
split = stratified_split(data, seed=0)
train = data.subset(split.train)

spec = HpoSpec(
    n_trials=12,
    cv_folds=5,
    seed=0,
    # pin the expensive knobs so the demo stays quick; everything else
    # (learning rate, depth, subsampling, regularization) is searched
    overrides={"n_estimators": 20},
    strategy="inverse",  # the class weighting of every fold fit
)
result = hpo_random_search("gbt", train.features, train.labels, spec=spec, n_classes=data.n_classes)

print("%6s  %-9s  %7s  %s" % ("trial", "status", "mean", "fold scores"))
for t in result.trials:
    mean = "%7.4f" % t.mean_score if t.fold_scores else "      -"
    folds = " ".join("%.3f" % s for s in t.fold_scores)
    print("%6d  %-9s  %s  %s" % (t.index, t.status, mean, folds))

pruned = sum(1 for t in result.trials if t.status == "pruned")
print("\n%d of %d trials pruned early" % (pruned, len(result.trials)))
print("best trial:  %d (mean weighted F1 %.4f)" % (result.best_trial, result.best_score))
print("best params:", json.dumps(result.best_params))

# Fold scores of the winner, to show the spread behind the mean.
best = result.trials[result.best_trial]
print("winner fold spread: %.4f +/- %.4f" % (
    np.mean(best.fold_scores), np.std(best.fold_scores)))
