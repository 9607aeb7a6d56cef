"""Benchmark harness: run (threshold x strategy x family x seed) blocks,
summarize, persist, and pivot results for rank analysis.

A *block* is one (target, filter-threshold) slice of a dataset; a
*classifier* is a model family paired with a weighting strategy.  Each run
filters rare classes, splits stratified (60/20/20 by default), then fits
and scores by the protocol it shares with HPO folds (``hpo._fit_and_score``):
class weights from the training split only, a fit with its wall-clock timed,
and accuracy plus macro and weighted F1 on the test split.
A sweep prepares each (target, threshold, seed) slice once, as a value that
carries its key, runs every block of the slice on it (``run_block``) and
collects the rows from one stream of finished slices; ``fit_block`` runs one
block from the data.  A tuned sweep runs one search per family in each
slice, on its training split, for that slice's blocks alone.
"""

from __future__ import annotations

import csv
import json
import operator
import pickle
import typing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from itertools import islice

import numpy as np

from .data import (_FLOAT_FMT, DEFAULT_FRACTIONS, Dataset, _integer, _known, _settings, check_fractions,
                   filter_min_class_count, load_csv, load_schema, preprocess, stratified_split)
from .evaluation import accuracy, f1_scores
from .hpo import (DEFAULT_FAMILIES, HpoSpec, _fit_and_score, _install_families, family_params, get_family,
                  hpo_random_search)
from .imbalance import ImbalanceReport, LabelDistribution, class_frequencies, imbalance_report
from .ranking import BlockMatrix
from .synth import SynthConfig, synth_generate
from .weighting import DEFAULT_BETA, STRATEGIES, check_beta

__all__ = ["ExperimentConfig", "BlockResult", "SummaryRow", "METRICS", "classifier_id", "fit_block", "run_block",
           "run_sweep", "summarize", "write_results", "read_results", "write_summary", "write_degradation",
           "block_matrix", "load_experiment_config", "load_dataset"]


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
    workers: int = 1

    def __post_init__(self):
        has_csv = self.csv_path is not None
        if has_csv == (self.synth is not None):
            raise ValueError("configure exactly one dataset source (csv or synth)")
        if has_csv and self.schema_path is None:
            raise ValueError("csv datasets need a schema_path")
        _settings(self, n_runs=1, base_seed=0, workers=1)
        if self.filter_thresholds is not None:
            thresholds = tuple(_integer(t, "filter_thresholds", 1) for t in self.filter_thresholds)
            if not thresholds or any(a >= b for a, b in zip(thresholds, thresholds[1:])):
                raise ValueError("filter_thresholds must be non-empty and strictly ascending, got %s" % (thresholds,))
            object.__setattr__(self, "filter_thresholds", thresholds)
        if not self.strategies or any(s not in STRATEGIES for s in self.strategies):
            raise ValueError("strategies must be drawn from %s" % (STRATEGIES,))
        if not self.families:
            raise ValueError("at least one model family required")
        check_beta(self.beta)
        object.__setattr__(self, "strategies", _once(self.strategies, "strategies"))
        object.__setattr__(self, "families", _once(self.families, "families"))
        _known(self.model_params, self.families, "model_params, which may name only the families %s" % (self.families,))
        if self.hpo is not None and self.hpo.overrides:
            raise ValueError("a sweep takes no hpo.overrides: fix a family's params in model_params.<family>, "
                             "which hold in every fit of that family, HPO folds included")
        object.__setattr__(self, "fractions", check_fractions(self.fractions))

    @property
    def target(self) -> str:
        """The label column the rows name: the schema's for a CSV source,
        ``"label"`` for a synthetic one."""
        return "label" if self.synth is not None else load_schema(self.schema_path).label_column


def _once(values, where: str) -> tuple:
    """``values`` as a tuple, or a ValueError naming the first one repeated
    (a repeat would run its blocks twice and count each seed twice)."""
    values = tuple(values)
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError("%s names %r more than once" % (where, value))
    return values


# JSON keys under "dataset" that name an ExperimentConfig field
_RENAMED = {"csv": "csv_path", "schema": "schema_path"}
# the fields a config file sets at its top level
_TOP_LEVEL = tuple(f for f in ExperimentConfig.__dataclass_fields__ if f not in {*_RENAMED.values(), "synth"})


def load_experiment_config(path) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON file form (see README).

    Keys map straight onto the fields of ``ExperimentConfig``, ``SynthConfig``
    and ``HpoSpec``, which hold every default; an unknown key at any level
    is a ValueError that names it.  An ``hpo`` section, even ``{}``, turns
    tuning on; without one ``config.hpo`` is None.
    """
    with open(path, "r", encoding="utf-8") as fh:
        kwargs = json.load(fh)
    dataset = _known(kwargs.pop("dataset", {}), (*_RENAMED, "synth"), "dataset")
    _known(kwargs, _TOP_LEVEL, "the experiment config")
    if "synth" in dataset:
        kwargs["synth"] = SynthConfig(**_known(dataset.pop("synth"), SynthConfig.__dataclass_fields__, "dataset.synth"))
    kwargs.update((_RENAMED[key], value) for key, value in dataset.items())
    if "hpo" in kwargs:
        kwargs["hpo"] = HpoSpec(**_known(kwargs["hpo"], HpoSpec.__dataclass_fields__, "hpo"))
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
    status: str = "ok"          # one of _STATUSES; "failed": the search, fit or predict raised
    reason: str = ""
    cvcf: float = float("nan")
    imbalance_ratio: float = float("nan")
    necd: float = float("nan")
    accuracy: float = float("nan")
    macro_f1: float = float("nan")
    weighted_f1: float = float("nan")
    train_seconds: float = float("nan")
    n_train: int = 0


_STATUSES = ("ok", "skipped", "failed")

# a sweep worker's dataset, set once by the pool initializer
_worker_data = None


@dataclass(frozen=True)
class _Slice:
    """A (target, threshold, seed) slice: the key its rows carry, and either
    the reason it is ``skipped`` or the work all its blocks share, the
    training split's class distribution, its imbalance report and the
    train, val and test tables."""

    target: str
    threshold: int
    seed: int
    skipped: str | None = None
    dist: LabelDistribution | None = None
    report: ImbalanceReport | None = None
    train: Dataset | None = None
    val: Dataset | None = None
    test: Dataset | None = None


def _slice(data: Dataset, target: str, threshold: int, seed: int, fractions) -> _Slice:
    try:
        filtered = filter_min_class_count(data, threshold)
        split = stratified_split(filtered, fractions=fractions, seed=seed)
    except ValueError as exc:
        return _Slice(target, threshold, seed, skipped=str(exc))
    train = filtered.subset(split.train)
    if not np.bincount(train.labels, minlength=filtered.n_classes).all():
        return _Slice(target, threshold, seed, skipped="a class is missing from the training split")
    dist = class_frequencies(train.labels)
    return _Slice(target, threshold, seed, None, dist, imbalance_report(dist), train, filtered.subset(split.val),
                  filtered.subset(split.test))


def run_block(prepared: _Slice, family: str, strategy: str, params: dict, beta: float = DEFAULT_BETA) -> tuple:
    """One benchmark run on a slice ``_slice`` prepared, fitting ``family``
    with exactly ``params``: ``(BlockResult, model)``, the model the result
    scored, or None unless the status is "ok", keyed by the slice.  A
    skipped slice gives a skipped result, and an exception from the weights,
    the fit, the prediction or its scoring a failed one (reason
    ``"<ExcType>: <message>"``), rather than an exception."""
    key = (classifier_id(family, strategy), prepared.target, prepared.threshold, prepared.seed)
    if prepared.skipped is not None:
        return BlockResult(*key, status="skipped", reason=prepared.skipped), None
    train, val, test, report = prepared.train, prepared.val, prepared.test, prepared.report
    try:
        model, seconds, cm = _fit_and_score(family, params, prepared.dist, strategy, beta, prepared.seed,
                                            (train.features, train.labels), (val.features, val.labels),
                                            (test.features, test.labels))
    except Exception as exc:  # noqa: BLE001 - one failed fit must not abort the sweep
        return BlockResult(*key, status="failed", reason="%s: %s" % (type(exc).__name__, exc)), None
    f1 = f1_scores(cm)
    return BlockResult(*key, **asdict(report), accuracy=accuracy(cm), macro_f1=f1.macro, weighted_f1=f1.weighted,
                       train_seconds=seconds, n_train=train.n_samples), model


def fit_block(data: Dataset, family: str, strategy: str, filter_threshold: int, seed: int, target: str = "label",
              fractions=DEFAULT_FRACTIONS, beta: float = DEFAULT_BETA, params: dict | None = None) -> tuple:
    """One benchmark run from ``data`` with ``family_params(family,
    params)``: ``run_block``'s ``(BlockResult, model)`` on a slice
    of its own, where a sweep prepares each slice once for all its blocks;
    the slice, and with it any presort of its training table, is freed when
    this returns.  A ``filter_threshold`` below 1 or a negative ``seed`` is a
    ValueError naming it, raised before any split."""
    filter_threshold, seed = _integer(filter_threshold, "filter_threshold", 1), _integer(seed, "seed", 0)
    params = family_params(family, params)
    return run_block(_slice(data, target, filter_threshold, seed, fractions), family, strategy, params, beta)


@dataclass(frozen=True)
class SummaryRow:
    classifier: str
    target: str
    filter_threshold: int
    n_runs: int
    n_skipped: int
    n_failed: int
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


def _install_worker(specs, data: Dataset) -> None:
    """Pool initializer: register the sweep's families and keep its data, so
    each worker receives the dataset once rather than with every task."""
    global _worker_data
    _install_families(specs)
    _worker_data = data


def _run_slice(data: Dataset, target: str, threshold: int, seed: int, blocks, fractions, beta: float,
               searches) -> list:
    """The rows of one slice: it is prepared once and each (family, strategy,
    params) in ``blocks`` is one ``run_block`` on it, in a tuned sweep with
    the params updated by the winner of the family's search in ``searches``
    on the training split; a search that raises fails the family's blocks
    (reason ``"search: <ExcType>: <message>"``).  The dt and gbt fits share
    one presort of the read-only training table, freed with the slice."""
    prepared = _slice(data, target, threshold, seed, fractions)
    tuned, failed = {}, {}  # family -> the winner's params, or the reason its search failed
    if searches is not None and prepared.skipped is None:
        for family in dict.fromkeys(family for family, _, _ in blocks):
            try:
                tuned[family] = hpo_random_search(family, prepared.train.features, prepared.train.labels,
                                                  spec=searches[family], beta=beta,
                                                  n_classes=prepared.dist.n_classes).best_params
            except Exception as exc:  # noqa: BLE001 - a failed search fails its family's blocks, not the sweep
                failed[family] = "search: %s: %s" % (type(exc).__name__, exc)
    return [run_block(prepared, family, strategy, {**params, **tuned.get(family, {})}, beta)[0] if family not in failed
            else BlockResult(classifier_id(family, strategy), target, threshold, seed, "failed", failed[family])
            for family, strategy, params in blocks]


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


def _finished_slices(config: ExperimentConfig, data: Dataset):
    """Yield each task's rows as it finishes.  A task is the blocks of one
    (threshold, seed) slice and, in a tuned sweep, each family's search with
    its ``model_params`` as ``overrides``; it is dealt into ceil(workers /
    slices) tasks when slices are fewer than workers, each then running the
    same searches.  With ``workers > 1`` processes run the
    tasks; each first registers the config's families and receives the data
    once, so any start method works and every family spec must pickle.
    At most ``workers`` tasks are submitted at a time, one more as each
    finishes, so closing the stream, or a task raising, leaves only those to
    run to the end and cancels the rest before they start."""
    target = config.target
    slices = [(threshold, config.base_seed + run)
              for threshold in config.filter_thresholds for run in range(config.n_runs)]
    blocks = [(family, strategy) for strategy in config.strategies for family in config.families]
    params = {family: family_params(family, config.model_params.get(family)) for family in config.families}
    searches = None if config.hpo is None else {
        family: replace(config.hpo, overrides=config.model_params.get(family, {})) for family in config.families}
    parts = min(len(blocks), -(-config.workers // max(1, len(slices))))  # ceil(workers / slices)
    tasks = [(target, threshold, seed,
              [(family, strategy, params[family]) for family, strategy in blocks[part::parts]],
              config.fractions, config.beta, searches)
             for threshold, seed in slices for part in range(parts)]
    if config.workers == 1:
        yield from (_run_slice(data, *task) for task in tasks)
        return
    specs = [get_family(f) for f in config.families]
    _check_picklable(specs)
    pool = ProcessPoolExecutor(max_workers=config.workers, initializer=_install_worker, initargs=(specs, data))
    waiting = iter(tasks)
    try:
        running = {pool.submit(_run_slice_task, t) for t in islice(waiting, config.workers)}
        while running:
            done, running = wait(running, return_when=FIRST_COMPLETED)
            running |= {pool.submit(_run_slice_task, t) for t in islice(waiting, len(done))}
            yield from (future.result() for future in done)
    finally:
        pool.shutdown(cancel_futures=True)


def run_sweep(config: ExperimentConfig, data: Dataset | None = None) -> tuple:
    """Cartesian product of thresholds x strategies x families x runs.

    Returns (results, summaries) with rows in deterministic sorted order,
    whatever order the slices finish in; use ``workers`` 1 for clean timing."""
    if data is None:
        data = load_dataset(config)
    if config.filter_thresholds is None:
        ladder = default_threshold_ladder(class_frequencies(data.labels).counts)
        config = replace(config, filter_thresholds=ladder)
    results = [r for rows in _finished_slices(config, data) for r in rows]
    results.sort(key=lambda r: (r.target, r.filter_threshold, r.classifier, r.seed))
    return results, summarize(results)


# the per-run scores a summary averages, each with a SummaryRow "<metric>_mean" and "<metric>_std" field
METRICS = tuple(f[:-len("_mean")] for f in SummaryRow.__dataclass_fields__ if f.endswith("_mean"))
# the block descriptors a summary averages without a spread
_BLOCK_MEANS = (*ImbalanceReport.__dataclass_fields__, "n_train")


def _mean_field(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError("unknown metric %r" % metric)
    return metric + "_mean"


def summarize(results) -> list:
    """Mean/std (population) per (classifier, target, threshold) over the
    ok runs; skipped runs are counted in ``n_skipped`` and failed ones in
    ``n_failed``, and neither enters the statistics.  A group with no ok run
    keeps its row, with ``n_runs`` 0 and NaN statistics.

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
    n_failed = np.bincount(group[status == "failed"], minlength=len(key_ids))
    starts = np.cumsum(n_ok) - n_ok
    stats: dict = {}  # column -> per-group (mean, std)
    for name in METRICS + _BLOCK_MEANS:
        column = np.array([getattr(results[i], name) for i in ok_rows.tolist()])
        means, stds = np.full(len(key_ids), np.nan), np.full(len(key_ids), np.nan)
        for size in np.unique(n_ok[n_ok > 0]).tolist():
            groups = np.flatnonzero(n_ok == size)
            values = column[starts[groups][:, None] + np.arange(size)]
            means[groups], stds[groups] = values.mean(axis=1), values.std(axis=1)
        stats[name] = means.tolist(), stds.tolist()
    rows = []
    for (target, threshold, cid), g in sorted(key_ids.items()):
        means = {name: stats[name][0][g] for name in _BLOCK_MEANS}
        scores = {}
        for metric in METRICS:
            scores[metric + "_mean"], scores[metric + "_std"] = stats[metric][0][g], stats[metric][1][g]
        rows.append(SummaryRow(cid, target, threshold, int(n_ok[g]), int(n_skipped[g]), int(n_failed[g]), **means,
                               **scores))
    return rows


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

# a results row's columns: BlockResult's fields, in order
_RESULT_FIELDS = tuple(BlockResult.__dataclass_fields__)


def _write_table(path, header, rows) -> None:
    """A CSV of ``header``, then each row's attributes of those names:
    floats with 17 significant digits, so that reading them back gives the
    same float bit for bit, every other value as the csv module writes it."""
    cells = operator.attrgetter(*header)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_FLOAT_FMT % v if isinstance(v, float) else v for v in cells(r)] for r in rows)


def write_results(results, path) -> None:
    """Raw per-run rows as CSV, one column per ``BlockResult`` field; the
    read side reproduces every row bit-for-bit."""
    _write_table(path, _RESULT_FIELDS, results)


def read_results(path) -> list:
    """Rows written by ``write_results``, each cell parsed with its field's
    declared type; a row whose field count differs from the header's, or
    whose status is not ok, skipped or failed, is rejected with its 1-based
    row number."""
    types = tuple(typing.get_type_hints(BlockResult).values())
    n_fields = len(_RESULT_FIELDS)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty results file: %s" % path)
        if tuple(header) != _RESULT_FIELDS:
            raise ValueError("unexpected results header in %s" % path)
        rows = []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != n_fields:
                raise ValueError("malformed row %d in %s: expected %d fields, got %d"
                                 % (rownum, path, n_fields, len(row)))
            rows.append(BlockResult(*[parse(cell) for parse, cell in zip(types, row)]))
            if rows[-1].status not in _STATUSES:
                raise ValueError("malformed row %d in %s: unknown status %r" % (rownum, path, rows[-1].status))
    return rows


def write_summary(rows, path) -> None:
    _write_table(path, tuple(SummaryRow.__dataclass_fields__), rows)


def write_degradation(rows, path, metric: str = "weighted_f1") -> None:
    """Degradation-curve table: the chosen metric against each imbalance
    measure, one row per (classifier, block)."""
    mean_field = _mean_field(metric)
    header = ("classifier", "target", "filter_threshold", *_BLOCK_MEANS, mean_field, metric + "_std")
    _write_table(path, header, sorted(rows, key=lambda r: (r.classifier, r.target, r.filter_threshold)))


def block_matrix(summaries, metric: str = "weighted_f1") -> BlockMatrix:
    """Pivot summary rows to a (blocks x classifiers) matrix of means.

    Every classifier must have ok runs in every block; each hole is named,
    a group with no ok run with its skipped and failed counts.  Only a block
    whose every run was skipped, such as a threshold whose every slice was
    skipped, is left out; one whose runs all failed is a hole.
    """
    mean_field = _mean_field(metric)
    index = {((r.target, r.filter_threshold), r.classifier): r for r in summaries}
    classifiers = sorted({c for _, c in index})
    blocks = sorted({b for (b, _), r in index.items() if r.n_runs or r.n_failed})
    holes = []
    for b in blocks:
        for c in classifiers:
            r = index.get((b, c))
            if r is None:
                holes.append("%s@%s for %s" % (*b, c))
            elif not r.n_runs:
                holes.append("%s@%s for %s (no ok run: %d skipped, %d failed)" % (*b, c, r.n_skipped, r.n_failed))
    if holes:
        raise ValueError("incomplete block table; missing: %s" % "; ".join(holes))
    values = np.array([[getattr(index[(b, c)], mean_field) for c in classifiers] for b in blocks])
    return BlockMatrix(
        values=values,
        treatments=tuple(classifiers),
        blocks=tuple("%s@%d" % (t, thr) for t, thr in blocks),
    )
