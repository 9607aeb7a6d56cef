"""Benchmark harness: run (threshold x strategy x family x seed) blocks,
summarize, persist, and pivot results for rank analysis.

A *block* is one (target, filter-threshold) slice of a dataset; a
*classifier* is a model family paired with a weighting strategy.  Each run
filters rare classes, splits stratified (60/20/20 by default), computes
class weights on the training split only, fits with the fit wall-clock
timed, and evaluates accuracy plus macro and weighted F1 on the test split.
"""

from __future__ import annotations

import csv
import json
import operator
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import trees
from .data import (DEFAULT_FRACTIONS, Dataset, check_fractions, filter_min_class_count, load_csv, load_schema,
                   preprocess, stratified_split)
from .evaluation import accuracy, confusion_matrix, f1_scores
from .hpo import DEFAULT_FAMILIES, HpoSpec, _install_families, get_family, hpo_random_search
from .imbalance import class_frequencies, imbalance_report
from .ranking import BlockMatrix
from .synth import SynthConfig, synth_generate
from .weighting import DEFAULT_BETA, STRATEGIES, check_beta, compute_weights

__all__ = ["ExperimentConfig", "BlockResult", "SummaryRow", "METRICS", "classifier_id", "fit_block", "run_block",
           "run_sweep", "summarize", "write_results", "read_results", "write_results_json", "write_summary",
           "write_degradation", "block_matrix", "load_experiment_config", "load_dataset"]

_FLOAT_FMT = "%.17g"


def classifier_id(family: str, strategy: str) -> str:
    return "%s+%s" % (family, strategy)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of a sweep, its default and its check; a bad setting
    raises here, before any block runs."""

    csv_path: str | None = None
    schema_path: str | None = None
    synth: SynthConfig | None = None
    filter_thresholds: tuple | None = None   # None -> default_threshold_ladder
    strategies: tuple = STRATEGIES
    families: tuple = DEFAULT_FAMILIES
    n_runs: int = 10
    base_seed: int = 0
    fractions: tuple = DEFAULT_FRACTIONS
    beta: float = DEFAULT_BETA
    model_params: dict = field(default_factory=dict)
    hpo: HpoSpec | None = None                # None -> no tuning
    hpo_per_threshold: bool = False
    hpo_strategy: str = "none"
    workers: int = 1

    def __post_init__(self):
        has_csv = self.csv_path is not None
        if has_csv == (self.synth is not None):
            raise ValueError("configure exactly one dataset source (csv or synth)")
        if has_csv and self.schema_path is None:
            raise ValueError("csv datasets need a schema_path")
        if self.filter_thresholds is not None:
            thresholds = tuple(int(t) for t in self.filter_thresholds)
            if not thresholds or any(t < 1 for t in thresholds):
                raise ValueError("filter_thresholds must be >= 1")
            if list(thresholds) != sorted(thresholds):
                raise ValueError("filter_thresholds must be ascending")
            object.__setattr__(self, "filter_thresholds", thresholds)
        if not self.strategies or any(s not in STRATEGIES for s in self.strategies):
            raise ValueError("strategies must be drawn from %s" % (STRATEGIES,))
        if self.hpo_strategy not in STRATEGIES:
            raise ValueError("hpo_strategy must be one of %s, got %r" % (STRATEGIES, self.hpo_strategy))
        if not self.families:
            raise ValueError("at least one model family required")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        check_beta(self.beta)
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "families", tuple(self.families))
        _known(self.model_params, self.families, "model_params, which may name only the families %s" % (self.families,))
        object.__setattr__(self, "fractions", check_fractions(self.fractions))

    @property
    def target(self) -> str:
        """The label column the rows name: the schema's for a CSV source,
        ``"label"`` for a synthetic one."""
        return "label" if self.synth is not None else load_schema(self.schema_path).label_column


def _known(obj: dict, allowed, where: str) -> dict:
    """``obj``, or a ValueError naming its first key not in ``allowed``."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError("unknown key %r in %s" % (unknown[0], where))
    return obj


# JSON keys under "dataset" and "hpo" that name an ExperimentConfig field
_RENAMED = {"csv": "csv_path", "schema": "schema_path",
            "per_threshold": "hpo_per_threshold", "strategy": "hpo_strategy"}
# the fields a config file sets at its top level
_TOP_LEVEL = tuple(f for f in ExperimentConfig.__dataclass_fields__ if f not in {*_RENAMED.values(), "synth", "hpo"})


def load_experiment_config(path) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON file form (see README).

    Keys map straight onto the fields of ``ExperimentConfig``, ``SynthConfig``
    and ``HpoSpec``, which hold every default; an unknown key at any level
    is a ValueError that names it.  ``"hpo": {"enabled": true}`` turns
    tuning on.
    """
    with open(path, "r", encoding="utf-8") as fh:
        kwargs = json.load(fh)
    dataset = _known(kwargs.pop("dataset", {}), ("csv", "schema", "synth"), "dataset")
    hpo = _known(kwargs.pop("hpo", {}), ("enabled", "per_threshold", "strategy", *HpoSpec.__dataclass_fields__), "hpo")
    _known(kwargs, _TOP_LEVEL, "the experiment config")
    if "synth" in dataset:
        kwargs["synth"] = SynthConfig(**_known(dataset.pop("synth"), SynthConfig.__dataclass_fields__, "dataset.synth"))
    kwargs.update((_RENAMED[key], section.pop(key)) for section in (dataset, hpo) for key in list(section)
                  if key in _RENAMED)
    if hpo.pop("enabled", None):
        kwargs["hpo"] = HpoSpec(**hpo)
    return ExperimentConfig(**kwargs)


def default_threshold_ladder(counts) -> tuple:
    """Geometric 1-2-5 ladder of minimum class counts, capped so that at
    least two classes survive the harshest filter."""
    counts = np.sort(np.asarray(counts, dtype=np.int64))
    if counts.size < 2:
        raise ValueError("need at least two classes for a threshold ladder")
    cap = int(counts[-2])
    ladder, step = [], 1
    while step <= cap:
        ladder.append(step)
        for mult in (2, 5):
            if step * mult <= cap:
                ladder.append(step * mult)
        step *= 10
    return tuple(ladder) or (1,)


def load_dataset(config: ExperimentConfig) -> Dataset:
    if config.synth is not None:
        return synth_generate(config.synth)
    schema = load_schema(config.schema_path)
    return preprocess(load_csv(config.csv_path, schema))


# ---------------------------------------------------------------------------
# block execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockResult:
    classifier: str
    target: str
    filter_threshold: int
    seed: int
    status: str = "ok"          # "ok" | "skipped" | "failed" (fit or predict raised)
    reason: str = ""
    cvcf: float = float("nan")
    imbalance_ratio: float = float("nan")
    necd: float = float("nan")
    accuracy: float = float("nan")
    macro_f1: float = float("nan")
    weighted_f1: float = float("nan")
    train_seconds: float = float("nan")
    n_train: int = 0


# the slice prepared last, kept only while _run_slice runs:
# [data, (filter_threshold, seed, fractions), _slice's result]
_slice_memo = None
# a sweep worker's dataset, set once by the pool initializer
_worker_data = None


def _slice(data: Dataset, filter_threshold: int, seed: int, fractions) -> tuple:
    """The work a block shares with every block of its (threshold, seed)
    slice: ``(train class distribution, its imbalance report, train, val,
    test)``, or the reason the slice is skipped as a string.

    Inside ``_run_slice`` the slice is kept, so its blocks filter and split
    once.  A ``Dataset`` is immutable, so the same object gives the same
    slice.
    """
    key = (filter_threshold, seed, tuple(fractions))
    memo = _slice_memo
    if memo is not None and memo[0] is data and memo[1] == key:
        return memo[2]
    try:
        filtered = filter_min_class_count(data, filter_threshold)
        split = stratified_split(filtered, fractions=fractions, seed=seed)
    except ValueError as exc:
        prepared = str(exc)
    else:
        train = filtered.subset(split.train)
        dist = class_frequencies(train.labels)
        if dist.n_classes != filtered.n_classes:
            prepared = "a class is missing from the training split"
        else:
            prepared = dist, imbalance_report(dist), train, filtered.subset(split.val), filtered.subset(split.test)
    if memo is not None:
        memo[:] = [data, key, prepared]
    return prepared


def fit_block(data: Dataset, family: str, strategy: str, filter_threshold: int, seed: int, target: str = "label",
              fractions=DEFAULT_FRACTIONS, beta: float = DEFAULT_BETA, params: dict | None = None) -> tuple:
    """One benchmark run: ``(BlockResult, model)``, the model the result
    scored, or None unless the status is "ok".  Degenerate filtering or split
    preconditions turn into a skipped result, and an exception from the
    model's fit or predict into a failed one (reason ``"<ExcType>:
    <message>"``), rather than an exception.  Back-to-back calls on one
    (threshold, seed) slice of the same ``data`` filter and split it once."""
    cid = classifier_id(family, strategy)
    spec = get_family(family)
    merged = {**spec.default_params, **(params or {})}
    prepared = _slice(data, filter_threshold, seed, fractions)
    if isinstance(prepared, str):
        return BlockResult(cid, target, filter_threshold, seed, status="skipped", reason=prepared), None
    dist, report, train, val, test = prepared
    weights = compute_weights(dist, strategy, beta=beta)

    try:
        t0 = time.perf_counter()
        model = spec.fit(
            train.features, train.labels, weights, merged, dist.n_classes, seed,
            x_val=val.features, y_val=val.labels,
        )
        seconds = time.perf_counter() - t0
        pred = model.predict(test.features)
    except Exception as exc:  # noqa: BLE001 - one failed fit must not abort the sweep
        return BlockResult(
            cid, target, filter_threshold, seed,
            status="failed", reason="%s: %s" % (type(exc).__name__, exc),
        ), None
    cm = confusion_matrix(test.labels, pred, n_classes=dist.n_classes)
    f1 = f1_scores(cm)
    return BlockResult(
        classifier=cid,
        target=target,
        filter_threshold=filter_threshold,
        seed=seed,
        cvcf=report.cvcf,
        imbalance_ratio=report.imbalance_ratio,
        necd=report.necd,
        accuracy=accuracy(cm),
        macro_f1=f1.macro,
        weighted_f1=f1.weighted,
        train_seconds=seconds,
        n_train=train.n_samples,
    ), model


def run_block(*args, **kwargs) -> BlockResult:
    """``fit_block``'s result without the model: the row a sweep records."""
    return fit_block(*args, **kwargs)[0]


@dataclass(frozen=True)
class SummaryRow:
    classifier: str
    target: str
    filter_threshold: int
    n_runs: int
    n_skipped: int
    cvcf: float
    imbalance_ratio: float
    necd: float
    n_train: float
    accuracy_mean: float
    accuracy_std: float
    macro_f1_mean: float
    macro_f1_std: float
    weighted_f1_mean: float
    weighted_f1_std: float
    train_seconds_mean: float
    train_seconds_std: float


def _resolve_params(config: ExperimentConfig, data: Dataset) -> dict:
    """Per-(family, threshold) params: registry defaults, then config
    overrides, then HPO winners when ``config.hpo`` is set.  Each search
    runs on the training split of the threshold's first-seed slice, the one
    its blocks use; a slice that would be skipped raises."""
    out = {}
    for family in config.families:
        base = {**get_family(family).default_params, **config.model_params.get(family, {})}
        for threshold in config.filter_thresholds:
            out[(family, threshold)] = dict(base)
    if config.hpo is None:
        return out
    thresholds = config.filter_thresholds if config.hpo_per_threshold else config.filter_thresholds[:1]
    for threshold in thresholds:
        prepared = _slice(data, threshold, config.base_seed, config.fractions)
        for family in config.families:
            if isinstance(prepared, str):
                raise ValueError("cannot tune family %r at threshold %d: %s" % (family, threshold, prepared))
            dist, _, train, _, _ = prepared
            result = hpo_random_search(family, train.features, train.labels, spec=config.hpo,
                                       strategy=config.hpo_strategy, beta=config.beta, n_classes=dist.n_classes)
            for t in ([threshold] if config.hpo_per_threshold else config.filter_thresholds):
                out[(family, t)] = {**out[(family, t)], **result.best_params}
    return out


def _install_worker(specs, data: Dataset) -> None:
    """Pool initializer: register the sweep's families and keep its data, so
    each worker receives the dataset once rather than with every task."""
    global _worker_data
    _install_families(specs)
    _worker_data = data


def _run_slice(data: Dataset, threshold: int, seed: int, blocks, target: str, fractions, beta: float) -> list:
    """The rows of one (threshold, seed) slice, one ``run_block`` per
    (family, strategy, params) in ``blocks``; the slice is prepared once,
    and its training table presorted once for every dt and gbt fit."""
    global _slice_memo
    _slice_memo, trees._presort_memo = [None, None, None], [None, None]
    try:
        return [run_block(data, family, strategy, threshold, seed, target, fractions, beta, params)
                for family, strategy, params in blocks]
    finally:
        _slice_memo = trees._presort_memo = None


def _run_slice_task(task) -> list:
    return _run_slice(_worker_data, *task)


def _check_picklable(specs) -> None:
    """Fail before a pool starts if a family cannot reach its workers,
    whatever the start method (fork would hide it)."""
    for spec in specs:
        try:
            pickle.dumps(spec)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ValueError("family %r cannot be sent to worker processes: its fit must be a module-level function"
                             % spec.name) from exc


def run_sweep(config: ExperimentConfig, data: Dataset | None = None) -> tuple:
    """Cartesian product of thresholds x strategies x families x runs.

    Returns (results, summaries) with rows in deterministic sorted order.
    Each (threshold, seed) slice is one task whose blocks share one filter
    and split; with fewer slices than workers, each slice's blocks are
    dealt into enough tasks to keep every worker busy.  ``workers > 1``
    fans tasks out to processes, which first register the config's
    families and receive the data once (so any start method works, and
    every family spec must pickle); use 1 for clean timing.
    """
    if data is None:
        data = load_dataset(config)
    if config.filter_thresholds is None:
        ladder = default_threshold_ladder(class_frequencies(data.labels).counts)
        config = replace(config, filter_thresholds=ladder)
    params = _resolve_params(config, data)
    target = config.target
    slices = [(threshold, config.base_seed + run)
              for threshold in config.filter_thresholds for run in range(config.n_runs)]
    blocks = [(family, strategy) for strategy in config.strategies for family in config.families]
    parts = min(len(blocks), -(-config.workers // max(1, len(slices))))  # ceil(workers / slices)
    tasks = [
        (threshold, seed, [(family, strategy, params[(family, threshold)]) for family, strategy in blocks[part::parts]],
         target, config.fractions, config.beta)
        for threshold, seed in slices
        for part in range(parts)
    ]
    if config.workers > 1:
        specs = [get_family(f) for f in config.families]
        _check_picklable(specs)
        with ProcessPoolExecutor(max_workers=config.workers, initializer=_install_worker,
                                 initargs=(specs, data)) as pool:
            results = [r for rows in pool.map(_run_slice_task, tasks, chunksize=1) for r in rows]
    else:
        results = [r for task in tasks for r in _run_slice(data, *task)]
    results.sort(key=lambda r: (r.target, r.filter_threshold, r.classifier, r.seed))
    return results, summarize(results)


# the per-run scores a summary averages, each with a SummaryRow "<metric>_mean" and "<metric>_std" field
METRICS = tuple(f[:-len("_mean")] for f in SummaryRow.__dataclass_fields__ if f.endswith("_mean"))
# the block descriptors a summary averages without a spread
_BLOCK_MEANS = ("cvcf", "imbalance_ratio", "necd", "n_train")


def _mean_field(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError("unknown metric %r" % metric)
    return metric + "_mean"


def summarize(results) -> list:
    """Mean/std (population) per (classifier, target, threshold) over the
    ok runs; skipped runs are counted in ``n_skipped``, and neither skipped
    nor failed runs enter the statistics.

    The ok rows are sorted by group, keeping their order within a group, and
    the groups with R ok rows are reduced together as one (groups, R) array
    per column: numpy reduces each row of it as it reduces that group's
    values alone, so the statistics are bitwise those of per-group calls.
    """
    results = list(results)
    key_ids: dict = {}
    group = np.array([key_ids.setdefault((r.target, r.filter_threshold, r.classifier), len(key_ids))
                      for r in results], dtype=np.intp)
    status = np.array([r.status for r in results], dtype=object)
    ok_rows = np.flatnonzero(status == "ok")
    ok_rows = ok_rows[np.argsort(group[ok_rows], kind="stable")]
    n_ok = np.bincount(group[ok_rows], minlength=len(key_ids))
    n_skipped = np.bincount(group[status == "skipped"], minlength=len(key_ids))
    starts = np.cumsum(n_ok) - n_ok
    stats: dict = {}  # column -> per-group (mean, std)
    for name in METRICS + _BLOCK_MEANS:
        column = np.array([getattr(results[i], name) for i in ok_rows.tolist()])
        means, stds = np.zeros(len(key_ids)), np.zeros(len(key_ids))
        for size in np.unique(n_ok[n_ok > 0]).tolist():
            groups = np.flatnonzero(n_ok == size)
            values = column[starts[groups][:, None] + np.arange(size)]
            means[groups], stds[groups] = values.mean(axis=1), values.std(axis=1)
        stats[name] = means.tolist(), stds.tolist()
    rows = []
    for (target, threshold, cid), g in sorted(key_ids.items()):
        if not n_ok[g]:
            continue
        means = {name: stats[name][0][g] for name in _BLOCK_MEANS}
        scores = {}
        for metric in METRICS:
            scores[metric + "_mean"], scores[metric + "_std"] = stats[metric][0][g], stats[metric][1][g]
        rows.append(SummaryRow(cid, target, threshold, int(n_ok[g]), int(n_skipped[g]), **means, **scores))
    return rows


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

# a results row: the block's key and status, its float scores, then n_train
_KEY_FIELDS = ("classifier", "target", "filter_threshold", "seed", "status", "reason")
_FLOAT_FIELDS = ("cvcf", "imbalance_ratio", "necd", "accuracy", "macro_f1", "weighted_f1", "train_seconds")
_RESULT_FIELDS = _KEY_FIELDS + _FLOAT_FIELDS + ("n_train",)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def write_results(results, path) -> None:
    """Raw per-run rows as CSV; floats carry 17 significant digits so the
    read side reproduces them bit-for-bit."""
    key, scores = operator.attrgetter(*_KEY_FIELDS), operator.attrgetter(*_FLOAT_FIELDS)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULT_FIELDS)
        writer.writerows((*key(r), *map(_FLOAT_FMT.__mod__, scores(r)), r.n_train) for r in results)


def read_results(path) -> list:
    """Rows written by ``write_results``; a row whose field count differs
    from the header's is rejected with its 1-based row number."""
    n_fields = len(_RESULT_FIELDS)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != _RESULT_FIELDS:
            raise ValueError("unexpected results header in %s" % path)
        rows = []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != n_fields:
                raise ValueError("malformed row %d in %s: expected %d fields, got %d"
                                 % (rownum, path, n_fields, len(row)))
            classifier, target, threshold, seed, status, reason, *scores, n_train = row
            rows.append(BlockResult(classifier, target, int(threshold), int(seed), status, reason,
                                    *map(float, scores), int(n_train)))
    return rows


def write_results_json(results, path) -> None:
    """JSON mirror of the results CSV (list of row objects)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(r) for r in results], fh, indent=1)


def write_summary(rows, path) -> None:
    fields = [f for f in SummaryRow.__dataclass_fields__]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for r in rows:
            writer.writerow([_format_cell(getattr(r, f)) for f in fields])


def write_degradation(rows, path, metric: str = "weighted_f1") -> None:
    """Degradation-curve table: the chosen metric against each imbalance
    measure, one row per (classifier, block)."""
    mean_field = _mean_field(metric)
    std_field = metric + "_std"
    header = ["classifier", "target", "filter_threshold", "cvcf", "imbalance_ratio", "necd",
              "n_train", mean_field, std_field]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in sorted(rows, key=lambda r: (r.classifier, r.target, r.filter_threshold)):
            writer.writerow([_format_cell(getattr(r, f)) for f in header])


def block_matrix(summaries, metric: str = "weighted_f1") -> BlockMatrix:
    """Pivot summary rows to a (blocks x classifiers) matrix of means.

    Every classifier must cover every block; holes name the offenders.
    """
    mean_field = _mean_field(metric)
    classifiers = sorted({r.classifier for r in summaries})
    blocks = sorted({(r.target, r.filter_threshold) for r in summaries})
    index = {}
    for r in summaries:
        index[((r.target, r.filter_threshold), r.classifier)] = getattr(r, mean_field)
    missing = [
        "%s@%s for %s" % (b[0], b[1], c)
        for b in blocks
        for c in classifiers
        if (b, c) not in index
    ]
    if missing:
        raise ValueError("incomplete block table; missing: %s" % "; ".join(missing[:10]))
    values = np.array([[index[(b, c)] for c in classifiers] for b in blocks])
    return BlockMatrix(
        values=values,
        treatments=tuple(classifiers),
        blocks=tuple("%s@%d" % (t, thr) for t, thr in blocks),
    )
