"""A tuned sweep searches inside each slice, on that slice's training split:
no search fits or scores a row of any block's test split, the rows do not
depend on ``workers``, and a search that raises fails its family's blocks
in its slice rather than the sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbench import (ExperimentConfig, HpoSpec, SynthConfig, filter_min_class_count, fit_block, read_results,
                     register_family, run_sweep, stratified_split, write_results)
from imbench import harness
from imbench.cli import main
from tests.conftest import rows_match

SYNTH = SynthConfig(n_samples=102, n_classes=3, n_features=3, cluster_separation=2.0, class_counts=(60, 30, 12),
                    seed=5)

# the rows each fit (its training, then its validation rows) and each prediction of the
# recording family received, in this process, in call order
_SEEN = []


def _rows(x) -> set:
    return {row.tobytes() for row in np.asarray(x, dtype=np.float64)}


class _RecordingModel:
    def __init__(self, label):
        self.label = label

    def predict(self, x):
        _SEEN.append(_rows(x))
        return np.full(np.asarray(x).shape[0], self.label, dtype=np.int64)


def recording_fit(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    """A majority-class fit that notes the rows it fits and validates on;
    it ignores its one param, which a search draws."""
    _SEEN.extend([_rows(x), _rows(x_val)])
    return _RecordingModel(int(np.argmax(np.bincount(y, minlength=n_classes))))


def recording_space(rng, n_features):
    return {"draw": float(rng.uniform())}


def _register_recording():
    register_family("recording", recording_fit, {"draw": 0.0}, recording_space)


def _split(data, threshold, seed, fractions):
    filtered = filter_min_class_count(data, threshold)
    split = stratified_split(filtered, fractions=fractions, seed=seed)
    return filtered.subset(split.train), filtered.subset(split.test)


@settings(max_examples=40, deadline=None)
@given(thresholds=st.sets(st.integers(1, 40), min_size=1, max_size=3).map(sorted),
       base_seed=st.integers(0, 2 ** 20), n_runs=st.integers(1, 3), cv_folds=st.integers(2, 6),
       tenths=st.tuples(st.integers(4, 8), st.integers(1, 5)).filter(lambda t: sum(t) < 10))
def test_no_search_sees_a_block_test_row(thresholds, base_seed, n_runs, cv_folds, tenths):
    """Each search fits and scores only rows of its own slice's training
    split, and no search run on a block's training table saw a row of that
    block's test split.  (Another seed's slice splits the same rows anew,
    so its search does see some of them, but its winner goes to its own
    blocks only.)  Synth feature rows are distinct, so rows match by value."""
    _register_recording()
    fractions = (tenths[0] / 10, tenths[1] / 10, (10 - sum(tenths)) / 10)
    config = ExperimentConfig(synth=SYNTH, filter_thresholds=thresholds, families=("recording",),
                              strategies=("none", "inverse"), n_runs=n_runs, base_seed=base_seed,
                              fractions=fractions, hpo=HpoSpec(n_trials=3, cv_folds=cv_folds, seed=base_seed))
    data = harness.load_dataset(config)
    searches = []  # per search: (the rows of the training table it was given, the rows its fits and predictions saw)
    search = harness.hpo_random_search

    def noted(family, x, y, **kwargs):
        start = len(_SEEN)
        try:
            return search(family, x, y, **kwargs)
        finally:
            searches.append((_rows(x), set().union(*_SEEN[start:])))
            del _SEEN[start:]

    _SEEN.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "hpo_random_search", noted)
        results, _ = run_sweep(config, data)
    blocks = list(zip(_SEEN[0::3], _SEEN[2::3]))  # per block run, in order: (training rows, test rows)
    _SEEN.clear()
    ran = [(t, s) for t in thresholds for s in range(base_seed, base_seed + n_runs)
           if any(r.filter_threshold == t and r.seed == s and r.status != "skipped" for r in results)]
    splits = {key: _split(data, *key, fractions) for key in ran}
    assert len(searches) == len(ran)  # one search per slice that was not skipped, in slice order
    for (given_rows, seen), key in zip(searches, ran):
        assert given_rows == _rows(splits[key][0].features) and seen <= given_rows
    ok = [r for r in results if r.status == "ok"]
    assert sorted(sorted(test) for _, test in blocks) == sorted(
        sorted(_rows(splits[(r.filter_threshold, r.seed)][1].features)) for r in ok)
    for train, test in blocks:
        tuners = [seen for given_rows, seen in searches if given_rows == train]
        assert tuners and not any(seen & test for seen in tuners)
    assert all(r.reason.startswith("search: ValueError: class") for r in results if r.status == "failed")


@pytest.mark.parametrize("thresholds, n_runs, families", [
    ((1, 10), 2, ("dt", "recording")),  # four slices, one task each
    ((10,), 1, ("dt",)),                # one slice dealt into two tasks, each running the same dt search
])
def test_a_tuned_sweep_does_not_depend_on_workers(thresholds, n_runs, families):
    config = dict(synth=SYNTH, filter_thresholds=thresholds, families=families, strategies=("none", "median"),
                  n_runs=n_runs, model_params={"dt": {"max_depth": 3}}, hpo=HpoSpec(n_trials=3, cv_folds=2, seed=1))
    _register_recording()
    serial, _ = run_sweep(ExperimentConfig(**config))
    parallel, _ = run_sweep(ExperimentConfig(**config, workers=2))
    _SEEN.clear()
    assert len(serial) == len(families) * 2 * len(thresholds) * n_runs and all(r.status == "ok" for r in serial)
    assert len(parallel) == len(serial) and all(rows_match(a, b) for a, b in zip(serial, parallel))


def test_a_failing_search_fails_its_blocks_not_the_sweep(monkeypatch, tmp_path, capsys):
    """Class 2 keeps 2 training rows at threshold 1, too few for 5 folds:
    that slice's blocks fail, naming the search, and the threshold-10
    blocks run tuned; ``imbench stats`` then names the all-failed block."""
    winners = []  # the params each search that returned chose
    search = harness.hpo_random_search

    def noted(*args, **kwargs):
        result = search(*args, **kwargs)
        winners.append(result.best_params)
        return result

    monkeypatch.setattr(harness, "hpo_random_search", noted)
    synth = SynthConfig(n_samples=354, n_classes=3, n_features=4, cluster_separation=2.5, class_counts=(300, 50, 4))
    config = ExperimentConfig(synth=synth, filter_thresholds=(1, 10), families=("dt",), strategies=("none",),
                              n_runs=2, model_params={"dt": {"max_depth": 4}}, hpo=HpoSpec(n_trials=4, cv_folds=5))
    results, _ = run_sweep(config)
    reason = "search: ValueError: class 2 has 2 samples; need >= 5 to form folds"
    assert [(r.filter_threshold, r.seed, r.status, r.reason) for r in results] == [
        (1, 0, "failed", reason), (1, 1, "failed", reason), (10, 0, "ok", ""), (10, 1, "ok", "")]
    assert len(winners) == 2  # the threshold-10 slices' searches
    data = harness.load_dataset(config)
    for r, won in zip(results[2:], winners):
        tuned = fit_block(data, "dt", "none", 10, r.seed, params=won)[0]
        assert rows_match(r, tuned)
    path = tmp_path / "results.csv"
    write_results(results, path)
    assert all(rows_match(a, b, ignore=()) for a, b in zip(read_results(path), results))
    assert main(["stats", "--results", str(path)]) == 2
    assert "label@1 for dt+none (no ok run: 0 skipped, 2 failed)" in capsys.readouterr().err
