"""The model-family registry, and seeded random-search hyperparameter
optimization with median pruning.

A family is defined once, as a ``FamilySpec`` registered here; sweeps, HPO,
the CLI and ``load_model`` look it up by name.

Each HPO trial samples uniformly from the family's search space (log-uniform
for learning rate and weight decay) and is scored by mean weighted F1 over
stratified cross-validation folds.  A trial whose running fold-mean drops
below the median running mean of already-completed trials at the same fold
count is pruned.  Ties on the final mean resolve to the lowest trial index.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import _known, _settings
from .evaluation import confusion_matrix, f1_scores
from .imbalance import class_frequencies
from .tabresnet import ResNetConfig, TabResNetModel, hidden_dim_bounds, nn_fit
from .trees import (DecisionTreeModel, ForestParams, GbtParams, GradientBoostedModel, RandomForestModel, TreeParams,
                    dt_fit, gbt_fit, rf_fit)
from .weighting import DEFAULT_BETA, STRATEGIES, compute_weights

__all__ = ["FamilySpec", "DEFAULT_FAMILIES", "register_family", "alias_family", "unregister_family",
           "registered_families", "get_family", "family_params", "fit_family", "sample_params", "HpoSpec",
           "TrialRecord", "HpoResult", "stratified_kfold", "hpo_random_search"]


@dataclass(frozen=True)
class FamilySpec:
    """A model family.

    ``fit(x, y, weights, params, n_classes, seed, x_val=None, y_val=None)``
    returns an object with ``predict(x)``; a sweep with ``workers > 1``
    pickles the spec, so ``fit`` must be a module-level function.
    ``search_space(rng, n_features)`` draws one params dict for HPO, and
    ``from_dict(obj)`` rebuilds a model from its ``to_dict()`` JSON for
    ``load_model``; a family without them cannot be tuned or loaded.
    ``default_params`` names every parameter the family takes; ``{}`` none.
    """

    name: str
    fit: object
    default_params: dict
    search_space: object = None
    from_dict: object = None


_REGISTRY: dict = {}


def register_family(name: str, fit, default_params: dict | None = None, search_space=None, from_dict=None) -> None:
    """Add (or replace) a model family; external additions welcome."""
    _REGISTRY[name] = FamilySpec(name, fit, dict(default_params or {}), search_space, from_dict)


def alias_family(new_name: str, existing: str) -> None:
    """Register ``new_name`` as an exact duplicate of an existing family."""
    spec = get_family(existing)
    _REGISTRY[new_name] = replace(spec, name=new_name, default_params=dict(spec.default_params))


def unregister_family(name: str) -> None:
    _REGISTRY.pop(name, None)


def registered_families() -> tuple:
    return tuple(sorted(_REGISTRY))


def get_family(name: str) -> FamilySpec:
    if name not in _REGISTRY:
        raise ValueError("unknown model family %r (registered: %s)" % (name, ", ".join(sorted(_REGISTRY))))
    return _REGISTRY[name]


def _install_families(specs) -> None:
    """Register ``specs`` in a sweep worker: a spawned one starts with the built-ins only."""
    for spec in specs:
        _REGISTRY[spec.name] = spec


# fixed fractions offered alongside sqrt/log2 for forest feature subsampling
_RF_FRACTIONS = (0.3, 0.5, 0.7, 1.0)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# Built-in fits are module-level, so a spec pickles by reference, and look their fit function up
# in this module's globals at call time, so a wrapper put on that name (a tracer, say) sees each fit.
def _fit_dt(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    return dt_fit(x, y, weights, TreeParams(**params), n_classes=n_classes, seed=seed)


def _space_dt(rng, n_features):
    return {
        "max_depth": int(rng.integers(2, 33)),
        "min_samples_split": int(rng.integers(2, 51)),
        "min_samples_leaf": int(rng.integers(1, 21)),
        "criterion": str(rng.choice(["gini", "entropy"])),
    }


def _fit_rf(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    return rf_fit(x, y, weights, ForestParams(**params), n_classes=n_classes, seed=seed)


def _space_rf(rng, n_features):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        max_features = "sqrt"
    elif kind == 1:
        max_features = "log2"
    else:
        max_features = float(rng.choice(_RF_FRACTIONS))
    return {
        "n_estimators": int(rng.integers(100, 1001)),
        "max_depth": int(rng.integers(3, 26)),
        "min_samples_split": int(rng.integers(2, 51)),
        "min_samples_leaf": int(rng.integers(1, 21)),
        "criterion": str(rng.choice(["gini", "entropy"])),
        "max_features": max_features,
    }


def _fit_gbt(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    return gbt_fit(x, y, weights, GbtParams(**params), n_classes=n_classes, seed=seed)


def _space_gbt(rng, n_features):
    return {
        "n_estimators": int(rng.integers(200, 1201)),
        "learning_rate": _log_uniform(rng, 0.01, 0.3),
        "max_depth": int(rng.integers(3, 13)),
        "subsample": float(rng.uniform(0.6, 1.0)),
        "colsample": float(rng.uniform(0.5, 1.0)),
        "reg_alpha": float(rng.uniform(0.0, 5.0)),
        "reg_lambda": float(rng.uniform(0.0, 5.0)),
    }


def _fit_tabresnet(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    if x_val is None or y_val is None:
        raise ValueError("tabresnet requires a validation split for early stopping")
    cfg = ResNetConfig(n_features=np.asarray(x).shape[1], n_classes=n_classes, seed=seed, **params)
    return nn_fit(x, y, weights, cfg, x_val, y_val)


def _space_tabresnet(rng, n_features):
    lo, hi = hidden_dim_bounds(n_features)
    return {
        "learning_rate": _log_uniform(rng, 1e-6, 1e-1),
        "weight_decay": _log_uniform(rng, 1e-7, 1e-2),
        "batch_size": int(rng.integers(32, 1025)),
        "n_blocks": int(rng.integers(1, 5)),
        "hidden_dim": int(rng.integers(lo, hi + 1)),
        "use_reduction": bool(rng.integers(0, 2)),
    }


# A built-in's defaults are its params dataclass's.  tabresnet's leave out the
# fields the data and the seed give, and narrow the hidden layer for sweeps.
_DATA_GIVEN = ("n_features", "n_classes", "seed")
register_family("dt", _fit_dt, asdict(TreeParams()), _space_dt, DecisionTreeModel.from_dict)
register_family("rf", _fit_rf, asdict(ForestParams()), _space_rf, RandomForestModel.from_dict)
register_family("gbt", _fit_gbt, asdict(GbtParams()), _space_gbt, GradientBoostedModel.from_dict)
register_family("tabresnet", _fit_tabresnet,
                {**{f.name: f.default for f in fields(ResNetConfig) if f.name not in _DATA_GIVEN}, "hidden_dim": 32},
                _space_tabresnet, TabResNetModel.from_dict)

# the families a sweep runs unless its config names others, in registration order
DEFAULT_FAMILIES = tuple(_REGISTRY)


def family_params(family: str, params: dict | None = None) -> dict:
    """The family's ``default_params`` updated with ``params``, or a
    ValueError naming a key of ``params`` that the defaults do not name."""
    defaults = get_family(family).default_params
    return {**defaults, **_known(params or {}, defaults, "the params of family %r" % family)}


def fit_family(family: str, x, y, weights, params: dict, n_classes: int, seed: int, x_val=None, y_val=None):
    """Fit a registered family with exactly ``params``."""
    return get_family(family).fit(x, y, weights, params, n_classes, seed, x_val=x_val, y_val=y_val)


def _fit_and_score(family: str, params: dict, dist, strategy: str, beta: float, seed: int, train, val, scored) -> tuple:
    """The protocol of every scored fit (a sweep block, ``imbench train``, an
    HPO fold): class weights from ``dist``, the training rows' class
    distribution; a ``fit_family`` fit with exactly ``params``, validated on
    ``val``; then the confusion matrix of its predictions on ``scored``.
    ``train``, ``val`` and ``scored`` are ``(x, y)`` pairs.  Returns
    ``(model, fit seconds, confusion matrix)``."""
    (x, y), (x_val, y_val), (x_scored, y_scored) = train, val, scored
    weights = compute_weights(dist, strategy, beta=beta)
    t0 = time.perf_counter()
    model = fit_family(family, x, y, weights, params, dist.n_classes, seed, x_val=x_val, y_val=y_val)
    seconds = time.perf_counter() - t0
    return model, seconds, confusion_matrix(y_scored, model.predict(x_scored), n_classes=dist.n_classes)


def sample_params(family: str, rng: np.random.Generator, n_features: int) -> dict:
    """Draw one configuration from the family's registered search space."""
    space = get_family(family).search_space
    if space is None:
        raise ValueError("family %r has no search_space, so HPO cannot sample it" % family)
    return space(rng, n_features)


@dataclass(frozen=True)
class HpoSpec:
    n_trials: int = 25
    cv_folds: int = 5
    seed: int = 42
    # fields fixed after sampling, e.g. {"max_epochs": 40} for tabresnet; a sweep sets a family's model_params here
    overrides: dict = field(default_factory=dict)
    strategy: str = "none"        # the class weighting of every fold fit

    def __post_init__(self):
        _settings(self, n_trials=1, cv_folds=2, seed=0)
        if self.strategy not in STRATEGIES:
            raise ValueError("strategy must be one of %s, got %r" % (STRATEGIES, self.strategy))


@dataclass
class TrialRecord:
    index: int
    params: dict
    fold_scores: list
    status: str  # "completed" | "pruned"

    @property
    def mean_score(self) -> float:
        return float(np.mean(self.fold_scores)) if self.fold_scores else float("-inf")


@dataclass
class HpoResult:
    family: str
    best_params: dict
    best_score: float
    best_trial: int
    trials: list


def stratified_kfold(y: np.ndarray, n_folds: int, seed: int) -> list:
    """Index arrays of ``n_folds`` class-balanced folds.

    Per class the (shuffled) indices are dealt round-robin, so fold sizes
    differ by at most one sample per class.  Every class needs at least
    ``n_folds`` samples.
    """
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    for k in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == k))
        if idx.size < n_folds:
            raise ValueError("class %d has %d samples; need >= %d to form folds" % (k, idx.size, n_folds))
        for f in range(n_folds):
            folds[f].append(idx[f::n_folds])
    return [np.sort(np.concatenate(parts)) for parts in folds]


def hpo_random_search(
    family: str,
    x,
    y,
    spec: HpoSpec | None = None,
    beta: float = DEFAULT_BETA,
    n_classes: int | None = None,
) -> HpoResult:
    """Random-search HPO for one registered family with a search space.

    Class weights follow ``spec.strategy`` and are computed from each fold's
    training portion.  The held-out fold is also each fit's validation
    split, which tabresnet's early stopping uses, matching the
    validation-F1 objective.  Each fold's training rows and class
    distribution are built once per search, read-only so that its trials
    share one presort.  Labels other than the class ids ``0..n_classes-1``,
    or an override the family does not take, are an error before the first
    fit; with every id present, each training fold has every class.
    """
    spec = spec or HpoSpec()
    family_params(family, spec.overrides)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if n_classes is None:
        n_classes = int(y.max()) + 1
    ids, expected = set(np.unique(y).tolist()), set(range(n_classes))
    if ids != expected:
        raise ValueError("labels must take every class id 0..%d: missing %s, out of range %s"
                         % (n_classes - 1, sorted(expected - ids), sorted(ids - expected)))
    all_idx = np.arange(y.size)
    folds = []  # (training class distribution, training rows, held-out rows) per fold
    for fold in stratified_kfold(y, spec.cv_folds, spec.seed):
        train_idx = np.setdiff1d(all_idx, fold, assume_unique=True)
        x_train = x[train_idx]
        x_train.setflags(write=False)
        folds.append((class_frequencies(y[train_idx]), (x_train, y[train_idx]), (x[fold], y[fold])))
    rng = np.random.default_rng(spec.seed)

    trials: list = []
    for t in range(spec.n_trials):
        params = sample_params(family, rng, x.shape[1])
        params.update(spec.overrides)
        scores: list = []
        status = "completed"
        for f, (dist, train, held_out) in enumerate(folds):
            cm = _fit_and_score(family, params, dist, spec.strategy, beta, spec.seed, train, held_out, held_out)[2]
            scores.append(f1_scores(cm).weighted)
            # the running means of the completed trials at this fold count
            peers = [float(np.mean(r.fold_scores[:f + 1])) for r in trials if r.status == "completed"]
            if f < spec.cv_folds - 1 and peers and float(np.mean(scores)) < float(np.median(peers)):
                status = "pruned"
                break
        trials.append(TrialRecord(index=t, params=params, fold_scores=scores, status=status))
    # the first trial is never pruned, and max keeps the lowest index on a tie
    best = max((r for r in trials if r.status == "completed"), key=lambda r: r.mean_score)
    return HpoResult(family=family, best_params=dict(best.params), best_score=best.mean_score, best_trial=best.index,
                     trials=trials)
