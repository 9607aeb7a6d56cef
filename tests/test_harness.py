"""Benchmark harness: registry, block runs, sweeps, summaries, persistence."""

import functools
import gc
import json
import math
import multiprocessing
import os
import re
import struct
import tempfile
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbench import (
    BlockResult,
    Dataset,
    ExperimentConfig,
    HpoSpec,
    SynthConfig,
    alias_family,
    block_matrix,
    classifier_id,
    class_frequencies,
    compute_weights,
    default_threshold_ladder,
    filter_min_class_count,
    fit_block,
    get_family,
    imbalance_report,
    load_experiment_config,
    load_model,
    read_results,
    register_family,
    registered_families,
    run_sweep,
    save_csv,
    schema_for,
    stratified_split,
    summarize,
    unregister_family,
    write_degradation,
    write_results,
    write_summary,
)
from imbench import harness, hpo, trees
from imbench.cli import main
from imbench.hpo import DEFAULT_FAMILIES, HpoResult
from imbench.weighting import STRATEGIES
from tests.conftest import make_blobs

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


class _MajorityModel:
    def __init__(self, label, n_classes):
        self.label = label
        self.n_classes = n_classes

    def predict(self, x):
        return np.full(np.asarray(x).shape[0], self.label, dtype=np.int64)


def majority_fit(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    counts = np.bincount(np.asarray(y), minlength=n_classes)
    return _MajorityModel(int(counts.argmax()), n_classes)


def flaky_fit(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    """Fails on odd seeds, the way a network whose loss turns non-finite does."""
    if seed % 2:
        raise RuntimeError("non-finite training loss at epoch 0, batch 3 (lr=0.1)")
    return majority_fit(x, y, weights, params, n_classes, seed)


class _BrokenPredictModel(_MajorityModel):
    def predict(self, x):
        raise ValueError("cannot predict")


def broken_predict_fit(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    return _BrokenPredictModel(0, n_classes)


class _OutOfRangeModel(_MajorityModel):
    def predict(self, x):
        return np.full(np.asarray(x).shape[0], self.n_classes, dtype=np.int64)


def out_of_range_fit(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    """Fits a model whose every prediction is label ``n_classes``, one past the last class."""
    return _OutOfRangeModel(0, n_classes)


_FITS = []


def recording_fit(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    """Records the training size and the HPO tag each fit receives."""
    _FITS.append((len(y), params.get("tag")))
    return majority_fit(x, y, weights, params, n_classes, seed)


def marking_fit(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
    """Leaves a marker file named by its seed in ``params["dir"]``, then
    takes a while, so that a pool's queue fills up behind it."""
    open(os.path.join(params["dir"], "fit-%d" % seed), "w").close()
    time.sleep(0.2)
    return majority_fit(x, y, weights, params, n_classes, seed)


_PICKLED = []


class _CountedDataset(Dataset):
    """A Dataset that records each time it is pickled and unpickles as a
    plain one."""

    def __reduce__(self):
        _PICKLED.append(1)
        return Dataset, astuple(self)


class _InlinePool:
    """A ProcessPoolExecutor stand-in that runs its initializer in this
    process and each task as it is submitted, and keeps the tasks of its
    last instance and the keyword arguments of each of its shutdowns."""

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        _InlinePool.tasks, _InlinePool.shutdowns = [], []
        initializer(*initargs)

    def submit(self, fn, task):
        _InlinePool.tasks.append(task)
        future = Future()
        try:
            future.set_result(fn(task))
        except Exception as exc:  # noqa: BLE001 - the future carries it, as a pool's does
            future.set_exception(exc)
        return future

    def shutdown(self, **kwargs):
        _InlinePool.shutdowns.append(kwargs)


def rows_match(a, b, ignore=("train_seconds",)):
    da, db = asdict(a), asdict(b)
    for key in da:
        if key in ignore:
            continue
        va, vb = da[key], db[key]
        if isinstance(va, float) and math.isnan(va) and isinstance(vb, float) and math.isnan(vb):
            continue
        if va != vb:
            return False
    return True


def small_config(**overrides):
    base = dict(
        synth=SynthConfig(
            n_samples=400, n_classes=3, n_features=4, cluster_separation=2.5,
            class_counts=(250, 100, 50), seed=0,
        ),
        filter_thresholds=(1,),
        strategies=("none",),
        families=("dt",),
        n_runs=1,
    )
    base.update(overrides)
    base.setdefault("model_params", {"dt": {"max_depth": 4}} if "dt" in base["families"] else {})
    return ExperimentConfig(**base)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"dt", "rf", "gbt", "tabresnet"} <= set(registered_families())

    def test_register_and_unregister(self):
        register_family("majority", majority_fit, {})
        assert "majority" in registered_families()
        assert get_family("majority").fit is majority_fit
        unregister_family("majority")
        assert "majority" not in registered_families()

    def test_alias_copies_fit_and_defaults(self):
        alias_family("dt_copy", "dt")
        original, copy = get_family("dt"), get_family("dt_copy")
        assert copy.fit is original.fit
        assert copy.default_params == original.default_params
        assert copy.default_params is not original.default_params

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown model family"):
            get_family("nope")

    def test_load_model_uses_the_registered_from_dict(self, tmp_path):
        path = tmp_path / "majority.json"
        path.write_text(json.dumps({"family": "majority", "label": 2, "n_classes": 3}), encoding="utf-8")
        register_family("majority", majority_fit, {},
                        from_dict=lambda obj: _MajorityModel(obj["label"], obj["n_classes"]))
        model = load_model(path)
        assert model.predict(np.zeros((4, 2))).tolist() == [2, 2, 2, 2]
        register_family("majority", majority_fit, {})
        with pytest.raises(ValueError, match="'majority' has no from_dict"):
            load_model(path)

    def test_classifier_id_format(self):
        assert classifier_id("dt", "inverse") == "dt+inverse"


class TestExperimentConfig:
    def test_exactly_one_dataset_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(
                csv_path="x.csv", schema_path="s.json",
                synth=SynthConfig(n_samples=10, n_classes=2, n_features=2, class_counts=(5, 5)),
            )

    def test_csv_requires_schema(self):
        with pytest.raises(ValueError, match="schema"):
            ExperimentConfig(csv_path="x.csv")

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            small_config(filter_thresholds=(5, 1))
        with pytest.raises(ValueError, match=">= 1"):
            small_config(filter_thresholds=(0, 1))

    @pytest.mark.parametrize("setting, message", [
        ({"filter_thresholds": (1, 5, 5)}, r"strictly ascending, got \(1, 5, 5\)"),
        ({"strategies": ("none", "inverse", "none")}, "strategies names 'none' more than once"),
        ({"families": ("dt", "dt")}, "families names 'dt' more than once"),
    ])
    def test_repeated_sweep_axis_is_rejected(self, setting, message):
        with pytest.raises(ValueError, match=message):
            small_config(**setting)

    def test_repeated_sweep_axis_in_a_config_file_is_rejected(self, tmp_path):
        obj = {"dataset": {"synth": {"n_samples": 100, "n_classes": 2, "n_features": 2, "class_counts": [70, 30]}},
               "filter_thresholds": [5, 5], "strategies": ["none"], "families": ["dt"], "n_runs": 2}
        p = tmp_path / "config.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match="ascending"):
            load_experiment_config(p)

    def test_strategy_and_family_validation(self):
        with pytest.raises(ValueError, match="strategies"):
            small_config(strategies=("oversample",))
        with pytest.raises(ValueError, match="family"):
            small_config(families=())

    def test_load_from_json(self, tmp_path):
        obj = {
            "dataset": {
                "synth": {
                    "n_samples": 300, "n_classes": 3, "n_features": 5,
                    "cluster_separation": 2.0, "class_counts": [200, 60, 40], "seed": 7,
                }
            },
            "filter_thresholds": [1, 5],
            "strategies": ["none", "inverse"],
            "families": ["dt"],
            "n_runs": 2,
            "base_seed": 3,
            "model_params": {"dt": {"max_depth": 6}},
        }
        p = tmp_path / "config.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        config = load_experiment_config(p)
        assert config.synth.class_counts == (200, 60, 40)
        assert config.filter_thresholds == (1, 5)
        assert config.strategies == ("none", "inverse")
        assert config.n_runs == 2 and config.base_seed == 3
        assert config.model_params == {"dt": {"max_depth": 6}}

    def test_omitted_thresholds_stay_unresolved(self, tmp_path):
        obj = {"dataset": {"synth": {"n_samples": 100, "n_classes": 2, "n_features": 2,
                                     "class_counts": [70, 30]}}}
        p = tmp_path / "config.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        assert load_experiment_config(p).filter_thresholds is None

    def test_every_default_comes_from_the_dataclasses(self, tmp_path):
        synth = {"n_samples": 100, "n_classes": 2, "n_features": 2, "class_counts": [70, 30]}
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"dataset": {"synth": synth}}), encoding="utf-8")
        assert load_experiment_config(p) == ExperimentConfig(synth=SynthConfig(**synth))
        p.write_text(json.dumps({"dataset": {"synth": synth}, "hpo": {}}), encoding="utf-8")
        assert load_experiment_config(p).hpo == HpoSpec()
        p.write_text(json.dumps({"dataset": {"synth": synth}, "hpo": {"strategy": "median", "per_threshold": True}}),
                     encoding="utf-8")
        assert load_experiment_config(p).hpo == HpoSpec(strategy="median", per_threshold=True)

    @pytest.mark.parametrize("where, key", [
        ((), "n_run"),
        (("dataset",), "csv_file"),
        (("dataset", "synth"), "n_sample"),
        (("hpo",), "trials"),
        ((), "target"),
        ((), "hpo_strategy"),
        (("model_params",), "rff"),  # a family not in "families"
    ])
    def test_unknown_key_is_named(self, tmp_path, where, key):
        obj = {"dataset": {"synth": {"n_samples": 100, "n_classes": 2, "n_features": 2, "class_counts": [70, 30]}},
               "hpo": {}, "families": ["dt", "rf"], "model_params": {"dt": {"max_depth": 3}}}
        section = obj
        for name in where:
            section = section[name]
        section[key] = 5
        p = tmp_path / "config.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key '%s'" % key):
            load_experiment_config(p)

    @pytest.mark.parametrize("setting, message", [
        ({"fractions": (0.5, 0.5)}, "three positive numbers"),
        ({"fractions": (0.6, 0.3, 0.2)}, "sum to 1"),
        ({"beta": 1.0}, "beta must lie in"),
        ({"filter_thresholds": (2.7, 5)}, "filter_thresholds must be an integer, got 2.7"),
        ({"n_runs": 1.5}, "n_runs must be an integer, got 1.5"),
        ({"base_seed": "0"}, "base_seed must be an integer, got '0'"),
        ({"workers": 2.0}, "workers must be an integer, got 2.0"),
        ({"base_seed": -1}, "base_seed must be >= 0, got -1"),
    ])
    def test_bad_setting_raises_before_any_block(self, monkeypatch, setting, message):
        monkeypatch.setattr(harness, "run_block", None)  # a block run would fail with TypeError
        with pytest.raises(ValueError, match=message):
            run_sweep(small_config(**setting))

    def test_integer_settings_take_numpy_integers(self):
        config = small_config(filter_thresholds=np.array([1, 5]), n_runs=np.int64(2), base_seed=np.int32(3),
                              workers=np.uint8(1))
        ints = (*config.filter_thresholds, config.n_runs, config.base_seed, config.workers)
        assert ints == (1, 5, 2, 3, 1) and all(type(v) is int for v in ints)

    def test_misspelled_model_param_raises_before_any_fit(self, monkeypatch):
        """A ``model_params`` key the family's defaults do not name stops the
        sweep with a ValueError; no block runs, so none becomes a failed row."""
        fits = []
        fit = hpo.fit_family
        monkeypatch.setattr(hpo, "fit_family", lambda family, *args, **kwargs: fits.append(family)
                            or fit(family, *args, **kwargs))
        config = small_config(families=("gbt", "dt"), model_params={"dt": {"max_dept": 3}})
        with pytest.raises(ValueError, match="unknown key 'max_dept' in the params of family 'dt'"):
            run_sweep(config)
        assert fits == []

    def test_hpo_overrides_are_rejected_before_any_search(self, monkeypatch, tmp_path, capsys):
        """A sweep's fixed params are its ``model_params``: a non-empty
        ``hpo.overrides`` is a ValueError that points there, from code and
        from a config file, and ``imbench bench`` exits 2 with no results
        file; no search runs."""
        searches = []
        monkeypatch.setattr(harness, "hpo_random_search", lambda family, *args, **kwargs: searches.append(family))
        message = "a sweep takes no hpo.overrides: fix a family's params in model_params.<family>"
        with pytest.raises(ValueError, match=re.escape(message)):
            small_config(hpo=HpoSpec(n_trials=2, cv_folds=2, overrides={"max_depth": 2}))
        assert small_config(hpo=HpoSpec(n_trials=2, cv_folds=2)).hpo.overrides == {}
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"dataset": {"synth": {"n_samples": 300, "n_classes": 3, "n_features": 4,
                                                       "class_counts": [164, 82, 54], "seed": 0}},
                                 "filter_thresholds": [1], "families": ["dt"],
                                 "hpo": {"overrides": {"max_depth": 2}}}),
                     encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_experiment_config(p)
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(p), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and searches == []

    @pytest.mark.parametrize("section, message", [
        ({"n_trials": 0, "strategy": "median", "per_threshold": True, "overrides": {"max_dept": 2}},
         "n_trials must be >= 1"),
        ({"enabled": True, "n_trials": 2}, "unknown key 'enabled' in hpo"),
        ({"n_trials": 2, "strategy": "oversample"}, "strategy must be one of"),
    ])
    def test_a_bad_hpo_section_raises_before_any_search(self, monkeypatch, tmp_path, capsys, section, message):
        """An ``hpo`` section is an ``HpoSpec`` and turns tuning on, so a bad
        one stops ``imbench bench`` (exit 2, no results file) rather than
        leaving the sweep untuned without a word."""
        searches = []
        monkeypatch.setattr(harness, "hpo_random_search", lambda family, *args, **kwargs: searches.append(family))
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"dataset": {"synth": {"n_samples": 300, "n_classes": 3, "n_features": 4,
                                                       "class_counts": [164, 82, 54], "seed": 0}},
                                 "filter_thresholds": [1], "families": ["dt"], "hpo": section}),
                     encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_experiment_config(p)
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(p), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and searches == []

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_the_file_form_maps_one_to_one_onto_the_config(self, tmp_path_factory, data):
        """A config written as its file form (the top-level fields, a
        ``dataset`` section and ``hpo`` as ``asdict(config.hpo)``, or no
        ``hpo`` key) loads back equal."""
        if data.draw(st.booleans()):
            counts = tuple(data.draw(st.lists(st.integers(1, 300), min_size=2, max_size=5)))
            shape = data.draw(st.one_of(
                st.just(dict(n_samples=sum(counts), class_counts=counts)),
                st.builds(dict, n_samples=st.integers(300, 1000), power_law_exponent=st.floats(0.1, 3.0))))
            source = {"synth": SynthConfig(n_classes=len(counts), n_features=data.draw(st.integers(1, 9)),
                                           cluster_separation=data.draw(st.floats(0.0, 10.0)),
                                           seed=data.draw(st.integers(0, 2 ** 32 - 1)), **shape)}
        else:
            source = {"csv_path": "clinic.csv", "schema_path": "clinic.csv.schema.json"}
        families = tuple(data.draw(st.lists(st.sampled_from(DEFAULT_FAMILIES), min_size=1,
                                            unique=True)))
        hpo_spec = st.builds(HpoSpec, n_trials=st.integers(1, 50), cv_folds=st.integers(2, 10),
                             seed=st.integers(0, 2 ** 32 - 1), strategy=st.sampled_from(STRATEGIES),
                             per_threshold=st.booleans())
        config = ExperimentConfig(
            **source,
            filter_thresholds=data.draw(st.one_of(st.none(), st.sets(st.integers(1, 1000), min_size=1).map(sorted))),
            strategies=tuple(data.draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, unique=True))),
            families=families,
            n_runs=data.draw(st.integers(1, 20)),
            base_seed=data.draw(st.integers(0, 2 ** 32 - 1)),
            fractions=data.draw(st.sampled_from([(0.6, 0.2, 0.2), (0.5, 0.25, 0.25), (0.7, 0.15, 0.15)])),
            beta=data.draw(st.floats(0.0, 0.99999)),
            model_params={family: {"max_depth": data.draw(st.integers(1, 30))}
                          for family in families if family != "tabresnet" and data.draw(st.booleans())},
            hpo=data.draw(st.one_of(st.none(), hpo_spec)),
            workers=data.draw(st.integers(1, 8)),
        )
        form = {name: getattr(config, name) for name in ExperimentConfig.__dataclass_fields__
                if name not in ("csv_path", "schema_path", "synth", "hpo")}
        form["dataset"] = ({"synth": asdict(config.synth)} if config.synth is not None
                           else {"csv": config.csv_path, "schema": config.schema_path})
        if config.hpo is not None:
            form["hpo"] = asdict(config.hpo)
        p = tmp_path_factory.mktemp("config") / "config.json"
        p.write_text(json.dumps(form), encoding="utf-8")
        assert load_experiment_config(p) == config

    def test_readme_config_loads(self, tmp_path):
        """The experiment config documented in README.md is one the loader accepts."""
        text = open(README, encoding="utf-8").read()
        section = text[text.index("**Experiment config (JSON)**"):]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        p = tmp_path / "config.json"
        p.write_text(block, encoding="utf-8")
        config = load_experiment_config(p)
        assert set(json.loads(block)) <= {*ExperimentConfig.__dataclass_fields__, "dataset"}
        assert config.csv_path == "clinic.csv" and config.hpo == HpoSpec(**json.loads(block)["hpo"])


class TestThresholdLadder:
    def test_one_two_five_progression(self):
        assert default_threshold_ladder([900, 450, 90, 12, 3]) == (1, 2, 5, 10, 20, 50, 100, 200)

    def test_capped_at_second_largest_class(self):
        assert default_threshold_ladder([10, 4]) == (1, 2)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            default_threshold_ladder([42])

    def test_harshest_rung_keeps_two_classes(self, rng):
        for _ in range(20):
            counts = rng.integers(3, 2000, size=rng.integers(2, 8))
            ladder = default_threshold_ladder(counts)
            assert np.sum(counts >= ladder[-1]) >= 2
            assert list(ladder) == sorted(ladder)


class TestRunBlock:
    def data(self):
        return make_blobs(500, 3, 4, 2.5, seed=1, counts=[300, 150, 50])

    def test_ok_block_fields(self):
        r = fit_block(self.data(), "dt", "none", 1, seed=0, params={"max_depth": 4})[0]
        assert r.status == "ok" and r.reason == ""
        assert r.classifier == "dt+none"
        assert 0.0 <= r.accuracy <= 1.0
        assert 0.0 <= r.weighted_f1 <= 1.0
        assert r.train_seconds >= 0.0
        assert r.n_train == 300  # 60% of 500

    def test_replay_is_bitwise_identical(self):
        a = fit_block(self.data(), "gbt", "inverse", 1, seed=5,
                      params={"n_estimators": 5, "learning_rate": 0.3})[0]
        b = fit_block(self.data(), "gbt", "inverse", 1, seed=5,
                      params={"n_estimators": 5, "learning_rate": 0.3})[0]
        assert rows_match(a, b)

    def test_imbalance_columns_describe_the_training_split(self):
        data = self.data()
        r = fit_block(data, "dt", "none", 100, seed=2, params={"max_depth": 3})[0]
        filtered = filter_min_class_count(data, 100)
        split = stratified_split(filtered, fractions=(0.6, 0.2, 0.2), seed=2)
        report = imbalance_report(class_frequencies(filtered.labels[split.train]))
        assert r.cvcf == report.cvcf
        assert r.imbalance_ratio == report.imbalance_ratio
        assert r.necd == report.necd
        assert r.n_train == split.train.size

    def test_degenerate_threshold_is_skipped_not_raised(self):
        r = fit_block(self.data(), "dt", "none", 400, seed=0)[0]
        assert r.status == "skipped"
        assert "degenerate" in r.reason
        assert math.isnan(r.accuracy)

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown model family"):
            fit_block(self.data(), "nope", "none", 1, seed=0)

    def test_custom_family_is_runnable(self):
        register_family("majority", majority_fit, {})
        r = fit_block(self.data(), "majority", "none", 1, seed=0)[0]
        assert r.status == "ok"
        # the constant majority prediction scores its class share
        assert abs(r.accuracy - 0.6) < 0.05
        assert r.macro_f1 < r.weighted_f1

    def test_raising_fit_becomes_a_failed_row(self):
        register_family("flaky", flaky_fit, {})
        r = fit_block(self.data(), "flaky", "inverse", 1, seed=1)[0]
        assert (r.classifier, r.filter_threshold, r.seed) == ("flaky+inverse", 1, 1)
        assert r.status == "failed"
        assert r.reason == "RuntimeError: non-finite training loss at epoch 0, batch 3 (lr=0.1)"
        assert math.isnan(r.accuracy) and math.isnan(r.weighted_f1) and math.isnan(r.train_seconds)

    def test_raising_predict_becomes_a_failed_row(self):
        register_family("broken", broken_predict_fit, {})
        r = fit_block(self.data(), "broken", "none", 1, seed=0)[0]
        assert r.status == "failed"
        assert r.reason == "ValueError: cannot predict"

    def test_out_of_range_prediction_becomes_a_failed_row(self):
        register_family("off_by_one", out_of_range_fit, {})
        r, model = fit_block(self.data(), "off_by_one", "none", 1, seed=0)
        assert (r.status, r.reason, model) == ("failed", "ValueError: labels out of range for 3 classes", None)
        assert math.isnan(r.accuracy) and math.isnan(r.train_seconds)


class TestRunSweep:
    def test_failed_fits_are_rows_and_workers_agree(self, tmp_path):
        register_family("flaky", flaky_fit, {})
        config = small_config(families=("flaky", "dt"), n_runs=4)
        serial, serial_summaries = run_sweep(config)
        parallel, parallel_summaries = run_sweep(ExperimentConfig(**{**asdict_config(config), "workers": 2}))
        assert len(serial) == len(parallel) == 8
        assert all(rows_match(a, b) for a, b in zip(serial, parallel))
        failed = [r for r in serial if r.status == "failed"]
        assert [(r.classifier, r.seed) for r in failed] == [("flaky+none", 1), ("flaky+none", 3)]
        assert all(r.reason.startswith("RuntimeError: non-finite training loss") for r in failed)
        # failed rows are counted apart, and enter neither the statistics nor the skipped count
        counts = {s.classifier: (s.n_runs, s.n_skipped, s.n_failed) for s in serial_summaries}
        assert counts == {"flaky+none": (2, 0, 2), "dt+none": (4, 0, 0)}
        assert ([(s.classifier, s.n_runs, s.weighted_f1_mean) for s in serial_summaries]
                == [(s.classifier, s.n_runs, s.weighted_f1_mean) for s in parallel_summaries])
        # the failure reasons survive the results CSV
        path = str(tmp_path / "results.csv")
        write_results(serial, path)
        assert [r.reason for r in read_results(path)] == [r.reason for r in serial]

    def test_a_bad_model_param_value_is_a_failed_row_naming_it(self):
        """Registered families take their params untyped, so a value of the
        wrong type fails the family's blocks, each with a reason naming the
        field, and leaves the other families' blocks of the sweep alone."""
        config = small_config(families=("rf", "dt"), n_runs=2, model_params={"rf": {"bootstrap": "false"}})
        results, _ = run_sweep(config)
        assert {(r.classifier, r.status) for r in results} == {("rf+none", "failed"), ("dt+none", "ok")}
        assert all(r.reason == "ValueError: bootstrap must be a bool, got 'false'"
                   for r in results if r.classifier == "rf+none")

    def test_row_and_summary_counts(self):
        config = small_config(
            families=("dt", "gbt"),
            strategies=("none", "inverse"),
            filter_thresholds=(1, 60),
            n_runs=3,
            model_params={"dt": {"max_depth": 4}, "gbt": {"n_estimators": 3, "learning_rate": 0.3}},
        )
        results, summaries = run_sweep(config)
        assert len(results) == 2 * 2 * 2 * 3
        assert len(summaries) == 2 * 2 * 2
        assert all(r.status == "ok" for r in results)
        assert all(s.n_runs == 3 and s.n_skipped == 0 for s in summaries)

    def test_rows_sorted_deterministically(self):
        config = small_config(families=("gbt", "dt"), strategies=("inverse", "none"), n_runs=2,
                              model_params={"dt": {"max_depth": 3},
                                            "gbt": {"n_estimators": 2, "learning_rate": 0.3}})
        results, _ = run_sweep(config)
        keys = [(r.target, r.filter_threshold, r.classifier, r.seed) for r in results]
        assert keys == sorted(keys)

    def test_skipped_rows_keep_their_reason(self):
        config = small_config(filter_thresholds=(1, 60, 200), strategies=("none", "inverse"))
        results, summaries = run_sweep(config)
        skipped = [r for r in results if r.status == "skipped"]
        assert skipped and all(r.filter_threshold == 200 for r in skipped)
        assert all("degenerate" in r.reason for r in skipped)
        # a group with no ok run keeps its row, and a block no classifier ran in stays out of the matrix
        empty = [s for s in summaries if s.filter_threshold == 200]
        assert [(s.n_runs, s.n_skipped, s.n_failed) for s in empty] == [(0, 1, 0)] * 2
        assert all(math.isnan(s.weighted_f1_mean) and math.isnan(s.n_train) for s in empty)
        assert block_matrix(summaries).blocks == ("label@1", "label@60")

    @pytest.mark.parametrize("counts", [(100, 3), (100, 30, 3)])
    def test_a_class_missing_from_the_training_split_is_a_skipped_row(self, counts):
        """A 10% training split holds none of a 3-row class; with two classes
        only one is left, and that too is a skipped row, not an error that
        stops the sweep."""
        synth = SynthConfig(n_samples=sum(counts), n_classes=len(counts), n_features=3, class_counts=counts)
        config = small_config(synth=synth, fractions=(0.1, 0.45, 0.45))
        reason = "a class is missing from the training split"
        results, _ = run_sweep(config)
        assert [(r.status, r.reason) for r in results] == [("skipped", reason)]
        r = fit_block(harness.load_dataset(config), "dt", "none", 1, seed=0, fractions=config.fractions)[0]
        assert (r.status, r.reason) == ("skipped", reason)

    def test_auto_threshold_ladder(self):
        config = small_config(
            synth=SynthConfig(n_samples=300, n_classes=3, n_features=4,
                              cluster_separation=2.5, class_counts=(164, 82, 54), seed=0),
            filter_thresholds=None,
        )
        results, _ = run_sweep(config)
        assert sorted({r.filter_threshold for r in results}) == [1, 2, 5, 10, 20, 50]

    def test_parallel_workers_match_serial(self):
        config = small_config(families=("dt",), strategies=("none", "median"), n_runs=2)
        serial, _ = run_sweep(config)
        parallel, _ = run_sweep(ExperimentConfig(**{**asdict_config(config), "workers": 2}))
        assert len(serial) == len(parallel)
        assert all(rows_match(a, b) for a, b in zip(serial, parallel))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_out_of_range_predictions_are_failed_rows(self, workers):
        """A prediction its confusion matrix cannot hold fails its block, not
        the sweep."""
        register_family("off_by_one", out_of_range_fit, {})
        rows, summaries = run_sweep(small_config(families=("off_by_one", "dt"), n_runs=2, workers=workers))
        assert [(r.classifier, r.seed, r.status, r.reason) for r in rows] == [
            ("dt+none", 0, "ok", ""), ("dt+none", 1, "ok", ""),
            ("off_by_one+none", 0, "failed", "ValueError: labels out of range for 3 classes"),
            ("off_by_one+none", 1, "failed", "ValueError: labels out of range for 3 classes"),
        ]
        assert [(s.classifier, s.n_runs, s.n_failed) for s in summaries] == [
            ("dt+none", 2, 0), ("off_by_one+none", 0, 2)]

    def test_registered_families_reach_spawned_workers(self, monkeypatch):
        """A spawned worker imports only the built-in families; the sweep
        hands it the aliased and the registered one, and the data once."""
        spawn_pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", spawn_pool)
        alias_family("dt2", "dt")
        register_family("majority", majority_fit, {})
        try:
            config = small_config(families=("dt2", "majority"), n_runs=3, model_params={"dt2": {"max_depth": 4}})
            data = _CountedDataset(*astuple(harness.load_dataset(config)))
            serial, _ = run_sweep(config, data)
            assert _PICKLED == []
            parallel, _ = run_sweep(ExperimentConfig(**{**asdict_config(config), "workers": 2}), data)
        finally:
            pickled = len(_PICKLED)
            _PICKLED.clear()
        assert len(serial) == 6 and all(r.status == "ok" for r in serial)
        assert all(rows_match(a, b) for a, b in zip(serial, parallel))
        assert 1 <= pickled <= 2  # once per worker, not once per task (3 slices)

    def test_unpicklable_family_is_named_before_the_pool_starts(self):
        register_family("lambda_fit", lambda *args, **kwargs: majority_fit(*args, **kwargs), {})
        with pytest.raises(ValueError, match="family 'lambda_fit' cannot be sent to worker processes: "
                                             "its fit must be a module-level function"):
            run_sweep(small_config(families=("lambda_fit",), n_runs=2, workers=2))

    def test_each_slice_is_filtered_and_split_once(self, monkeypatch):
        """A serial sweep prepares each (threshold, seed) slice once, runs
        every block through run_block, and gives the rows that independent
        fit_block calls give."""
        calls = {"filter": 0, "split": 0, "block": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "filter_min_class_count", counted("filter", filter_min_class_count))
        monkeypatch.setattr(harness, "stratified_split", counted("split", stratified_split))
        monkeypatch.setattr(harness, "run_block", counted("block", harness.run_block))
        config = small_config(families=("dt", "majority"), strategies=("none", "inverse"),
                              filter_thresholds=(1, 60, 200), n_runs=3)
        register_family("majority", majority_fit, {})
        data = harness.load_dataset(config)
        results, _ = run_sweep(config, data)
        assert calls == {"filter": 3 * 3, "split": 2 * 3, "block": 3 * 3 * 2 * 2}  # 200 fails the filter
        # one slice at a time from here, seed innermost, so no call reuses the last slice
        independent = {
            (r.classifier, r.filter_threshold, r.seed): r
            for family in config.families for strategy in config.strategies
            for threshold in config.filter_thresholds for seed in range(3)
            for r in [harness.fit_block(data, family, strategy, threshold, seed,
                                        params=config.model_params.get(family))[0]]
        }
        assert calls["split"] == 2 * 3 + 2 * 2 * 2 * 3
        assert len(results) == len(independent) == 36
        assert all(rows_match(r, independent[(r.classifier, r.filter_threshold, r.seed)]) for r in results)
        assert sum(r.status == "skipped" for r in results) == 12

    def test_each_slice_training_table_is_presorted_once(self, monkeypatch):
        """In a sweep the dt and gbt blocks of a slice share one presort of
        its read-only training table, rf still sorts each bootstrap, the rows
        are those of independent fit_block calls, and no presort outlives
        its slice.  The spy records what it saw, not the tables: holding a
        table would keep its lists alive."""
        presorted = []  # (read-only, table bytes) per presort

        def counted(x):
            presorted.append((not x.flags.writeable, x.tobytes()))
            return presort(x)

        presort = trees._presort
        monkeypatch.setattr(trees, "_presort", counted)
        config = small_config(families=("dt", "rf", "gbt"), strategies=("none", "inverse"),
                              filter_thresholds=(1, 60, 200), n_runs=2,
                              model_params={"dt": {"max_depth": 3}, "rf": {"n_estimators": 2, "max_depth": 3},
                                            "gbt": {"n_estimators": 1, "max_depth": 2}})
        data = harness.load_dataset(config)
        gc.collect()  # free what earlier tests left in reference cycles, so the rest stays alive
        kept_before = set(trees._kept_lists)
        results, _ = run_sweep(config, data)
        assert set(trees._kept_lists) <= kept_before  # every slice's lists went with its table
        tables = [b for read_only, b in presorted if read_only]
        slices = [harness._slice(data, config.target, t, s, config.fractions)
                  for t in (1, 60) for s in (0, 1)]  # 200 is skipped
        assert sorted(tables) == sorted(p.train.features.tobytes() for p in slices)  # one presort per slice
        assert len(presorted) - len(tables) == len(slices) * 2 * 2  # rf bootstraps: strategies x trees

        presorted.clear()
        independent = {
            (r.classifier, r.filter_threshold, r.seed): r
            for family in config.families for strategy in config.strategies
            for threshold in config.filter_thresholds for seed in range(2)
            for r in [harness.fit_block(data, family, strategy, threshold, seed,
                                        params=config.model_params[family])[0]]
        }
        assert set(trees._kept_lists) <= kept_before  # a direct fit_block call keeps no presort
        assert len(presorted) == len(slices) * 2 * (1 + 2 + 1)  # every fit sorts for itself
        assert len(results) == len(independent) == 36
        assert all(rows_match(r, independent[(r.classifier, r.filter_threshold, r.seed)]) for r in results)
        assert sum(r.status == "ok" for r in results) == 24

    @pytest.mark.parametrize("n_thresholds, n_runs, workers, n_tasks", [
        (1, 1, 2, 2),  # one slice, two workers: its four blocks make two tasks
        (1, 1, 8, 4),  # no more tasks than blocks
        (1, 2, 3, 4),  # two slices, three workers: each slice makes two tasks
        (1, 3, 2, 3),  # slices outnumber workers: one task each
    ])
    def test_slices_fewer_than_workers_are_dealt_out(self, monkeypatch, n_thresholds, n_runs, workers, n_tasks):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(harness, "_worker_data", None)
        config = small_config(families=("dt", "majority"), strategies=("none", "inverse"),
                              filter_thresholds=(1, 60)[:n_thresholds], n_runs=n_runs)
        register_family("majority", majority_fit, {})
        serial, _ = run_sweep(config)
        parallel, _ = run_sweep(ExperimentConfig(**{**asdict_config(config), "workers": workers}))
        blocks = [sorted((family, strategy) for family, strategy, _ in task[3]) for task in _InlinePool.tasks]
        assert len(blocks) == n_tasks
        assert sorted(b for task in blocks for b in task) == sorted(
            [(f, s) for f in config.families for s in config.strategies] * n_thresholds * n_runs)
        assert len(serial) == len(parallel) == 4 * n_thresholds * n_runs
        assert all(rows_match(a, b) for a, b in zip(serial, parallel))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("thresholds, n_runs, n_tasks", [
        ((1,), 1, (1, 2)),       # a lone slice's four blocks are dealt into two tasks for two workers
        ((1, 200), 2, (4, 4)),   # four slices, one task each; 200 is skipped
    ])
    def test_the_stream_yields_one_item_per_task(self, workers, thresholds, n_runs, n_tasks):
        """Each item of the stream is one task's rows, all from one slice,
        and together they are every block of the sweep once."""
        config = small_config(families=("dt", "majority"), strategies=("none", "inverse"),
                              filter_thresholds=thresholds, n_runs=n_runs, workers=workers)
        register_family("majority", majority_fit, {})
        data = harness.load_dataset(config)
        items = list(harness._finished_slices(config, data, harness._resolve_params(config, data)))
        assert len(items) == n_tasks[workers - 1]
        assert all(len({(r.target, r.filter_threshold, r.seed) for r in rows}) == 1 for rows in items)
        assert sorted((r.filter_threshold, r.seed, r.classifier) for rows in items for r in rows) == sorted(
            (t, s, classifier_id(f, w)) for t in thresholds for s in range(n_runs)
            for f in config.families for w in config.strategies)
        assert all(r.status == ("skipped" if r.filter_threshold == 200 else "ok") for rows in items for r in rows)

    def test_closing_the_stream_cancels_the_tasks_not_started(self, monkeypatch):
        """A consumer that stops early, or a task that raises, shuts the pool
        down with its queued tasks cancelled rather than run."""
        monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(harness, "_worker_data", None)
        config = small_config(n_runs=4, workers=2)
        data = harness.load_dataset(config)
        params = harness._resolve_params(config, data)
        stream = harness._finished_slices(config, data, params)
        assert len(next(stream)) == 1
        assert _InlinePool.shutdowns == []
        stream.close()
        assert _InlinePool.shutdowns == [{"cancel_futures": True}]

        def broken(*task):
            raise RuntimeError("task broke")

        monkeypatch.setattr(harness, "_run_slice", broken)
        with pytest.raises(RuntimeError, match="task broke"):
            list(harness._finished_slices(config, data, params))
        assert _InlinePool.shutdowns == [{"cancel_futures": True}]

    def test_closing_the_stream_leaves_at_most_one_round_of_tasks_to_run(self, tmp_path):
        """With a real pool, only the tasks submitted when the consumer
        stops run: one per worker, and the replacements for those that had
        finished.  The rest are cancelled before any worker takes them."""
        register_family("marking", marking_fit, {"dir": ""})
        config = small_config(families=("marking",), n_runs=20, workers=2,
                              model_params={"marking": {"dir": str(tmp_path)}})
        data = harness.load_dataset(config)
        stream = harness._finished_slices(config, data, harness._resolve_params(config, data))
        assert len(next(stream)) == 1
        stream.close()
        assert 1 <= len(os.listdir(tmp_path)) <= 2 * config.workers

    def test_hpo_path_updates_params(self):
        config = small_config(
            hpo=HpoSpec(n_trials=2, cv_folds=2, seed=0),
        )
        results, summaries = run_sweep(config)
        assert all(r.status == "ok" for r in results)
        assert len(summaries) == 1

    @pytest.mark.parametrize("per_threshold", [False, True])
    def test_hpo_winners_reach_their_blocks(self, monkeypatch, per_threshold):
        """One search per family (on the first threshold) or per (family,
        threshold), each on the training split of the threshold's first-seed
        slice, and each winner reaches exactly the blocks it was searched for."""
        searches = []

        def spy(family, x, y, spec, beta, n_classes):
            searches.append((family, x, y, n_classes, spec.strategy))
            return HpoResult(family, {"tag": "%s@%d" % (family, len(y))}, 0.0, 0, [])

        monkeypatch.setattr(harness, "hpo_random_search", spy)
        register_family("rec_a", recording_fit, {})
        register_family("rec_b", recording_fit, {})
        _FITS.clear()
        try:
            # 250/100/50 rows: threshold 1 keeps 3 classes (240 train rows), 60 keeps 2 (210)
            config = small_config(families=("rec_a", "rec_b"), strategies=("none", "inverse"),
                                  filter_thresholds=(1, 60), n_runs=2, base_seed=3,
                                  hpo=HpoSpec(n_trials=2, cv_folds=2, strategy="median", per_threshold=per_threshold))
            data = harness.load_dataset(config)
            results, _ = run_sweep(config, data)
            fits = list(_FITS)
        finally:
            _FITS.clear()
        trains = {}
        for threshold in (1, 60):
            filtered = filter_min_class_count(data, threshold)
            trains[threshold] = filtered.subset(stratified_split(filtered, seed=3).train)
        searched = (1, 60) if per_threshold else (1,)
        expected = [(family, t) for t in searched for family in ("rec_a", "rec_b")]
        assert len(searches) == len(expected)
        for (family, x, y, n_classes, strategy), (want_family, t) in zip(searches, expected):
            assert (family, n_classes, strategy) == (want_family, trains[t].n_classes, "median")
            assert np.array_equal(x, trains[t].features) and np.array_equal(y, trains[t].labels)
        assert all(r.status == "ok" for r in results) and len(fits) == 2 * 2 * 2 * 2
        for threshold, n_train in ((1, 240), (60, 210)):
            source = trains[threshold if per_threshold else 1].n_samples
            tags = sorted(tag for n, tag in fits if n == n_train)
            assert tags == ["rec_a@%d" % source] * 4 + ["rec_b@%d" % source] * 4

    def test_model_params_hold_in_every_fold_fit_and_every_block(self, monkeypatch):
        """A family's ``model_params`` are fixed in each HPO fold fit and in
        each block, and the search tunes only the keys they leave open: a
        block fits the registry defaults updated with the winning trial's
        params, which carry the fixed values."""
        fits, searches = [], []
        fit, search = hpo.fit_family, harness.hpo_random_search
        monkeypatch.setattr(hpo, "fit_family", lambda family, x, y, weights, params, *args, **kwargs:
                            fits.append(dict(params)) or fit(family, x, y, weights, params, *args, **kwargs))
        monkeypatch.setattr(harness, "hpo_random_search", lambda *args, **kwargs:
                            searches.append(search(*args, **kwargs)) or searches[-1])
        config = small_config(families=("rf",), n_runs=2, model_params={"rf": {"bootstrap": False, "n_estimators": 2}},
                              hpo=HpoSpec(n_trials=3, cv_folds=2, seed=0))
        results, _ = run_sweep(config)
        (result,) = searches
        n_fold_fits = sum(len(t.fold_scores) for t in result.trials)
        assert len(fits) == n_fold_fits + 2 and all(r.status == "ok" for r in results)
        assert all(params.get("bootstrap") is False and params["n_estimators"] == 2 for params in fits)
        winner = {**get_family("rf").default_params, **result.trials[result.best_trial].params}
        assert fits[n_fold_fits:] == [winner, winner]

    def test_hpo_on_a_skipped_slice_names_family_and_threshold(self):
        config = small_config(filter_thresholds=(200,), hpo=HpoSpec(n_trials=2, cv_folds=2))
        with pytest.raises(ValueError, match="family 'dt' at threshold 200: degenerate"):
            run_sweep(config)

    def test_csv_rows_name_the_schema_label_column(self, tmp_path):
        data = make_blobs(300, 3, 4, 2.5, seed=1, counts=[150, 100, 50])
        csv_path, schema_path = str(tmp_path / "t.csv"), str(tmp_path / "t.schema.json")
        save_csv(data, csv_path, label_column="dx")
        with open(schema_path, "w", encoding="utf-8") as fh:
            fh.write(schema_for(data, label_column="dx").to_json())
        config = small_config(synth=None, csv_path=csv_path, schema_path=schema_path, filter_thresholds=(1, 60))
        results, summaries = run_sweep(config)
        assert config.target == "dx"
        assert {r.target for r in results} == {s.target for s in summaries} == {"dx"}
        assert small_config().target == "label"


def asdict_config(config):
    """ExperimentConfig kwargs for rebuilding with tweaks (dataclasses.asdict
    would also deep-convert the nested SynthConfig/HpoSpec)."""
    return {f: getattr(config, f) for f in ExperimentConfig.__dataclass_fields__}


class TestSummarize:
    def sweep(self):
        config = small_config(strategies=("none", "inverse"), n_runs=4, filter_thresholds=(1, 60))
        return run_sweep(config)

    def test_statistics_recompute(self):
        results, summaries = self.sweep()
        for s in summaries:
            rows = [
                r for r in results
                if r.classifier == s.classifier and r.filter_threshold == s.filter_threshold
                and r.status == "ok"
            ]
            assert s.n_runs == len(rows)
            wf1 = np.array([r.weighted_f1 for r in rows])
            assert abs(s.weighted_f1_mean - wf1.mean()) < 1e-12
            assert abs(s.weighted_f1_std - wf1.std()) < 1e-12
            acc = np.array([r.accuracy for r in rows])
            assert abs(s.accuracy_mean - acc.mean()) < 1e-12
            assert abs(s.n_train - np.mean([r.n_train for r in rows])) < 1e-12

    def test_block_matrix_pivot(self):
        results, summaries = self.sweep()
        bm = block_matrix(summaries, metric="weighted_f1")
        assert bm.values.shape == (2, 2)  # two thresholds x two classifiers
        assert bm.treatments == ("dt+inverse", "dt+none")
        assert bm.blocks == ("label@1", "label@60")
        for s in summaries:
            i = bm.blocks.index("label@%d" % s.filter_threshold)
            j = bm.treatments.index(s.classifier)
            assert bm.values[i, j] == s.weighted_f1_mean

    def test_block_matrix_rejects_holes(self):
        _, summaries = self.sweep()
        with pytest.raises(ValueError, match="incomplete"):
            block_matrix(summaries[:-1])

    def test_a_group_with_no_ok_run_keeps_its_row(self):
        rows = [BlockResult("dt+none", "label", 1, 0, cvcf=0.5, imbalance_ratio=2.0, necd=0.9, accuracy=0.8,
                            macro_f1=0.7, weighted_f1=0.75, train_seconds=0.1, n_train=10),
                BlockResult("rf+none", "label", 1, 0, status="failed", reason="ValueError: no"),
                BlockResult("gbt+none", "label", 1, 0, status="skipped", reason="degenerate")]
        summaries = summarize(rows)
        assert [(s.classifier, s.n_runs, s.n_skipped, s.n_failed) for s in summaries] == [
            ("dt+none", 1, 0, 0), ("gbt+none", 0, 1, 0), ("rf+none", 0, 0, 1)]
        for s in summaries[1:]:
            assert all(math.isnan(v) for v in astuple(s)[6:])  # every statistic after the six key and count fields
        with pytest.raises(ValueError, match=r"label@1 for gbt\+none \(no ok run: 1 skipped, 0 failed\); "
                                             r"label@1 for rf\+none \(no ok run: 0 skipped, 1 failed\)"):
            block_matrix(summaries)

    def test_block_matrix_unknown_metric(self):
        _, summaries = self.sweep()
        with pytest.raises(ValueError, match="metric"):
            block_matrix(summaries, metric="recall")


def summarize_oracle(results):
    """``summarize`` as per-group numpy calls over each group's ok rows, NaN for a group with none: the reference."""
    groups: dict = {}
    for r in results:
        groups.setdefault((r.target, r.filter_threshold, r.classifier), []).append(r)
    rows = []
    for (target, threshold, cid), rs in sorted(groups.items()):
        ok = [r for r in rs if r.status == "ok"]
        nan = float("nan")
        scores = {}
        for metric in harness.METRICS:
            vals = np.array([getattr(r, metric) for r in ok])
            mean_std = (float(vals.mean()), float(vals.std())) if ok else (nan, nan)
            scores[metric + "_mean"], scores[metric + "_std"] = mean_std
        means = {name: float(np.mean([getattr(r, name) for r in ok])) if ok else nan
                 for name in harness._BLOCK_MEANS}
        n_skipped = sum(1 for r in rs if r.status == "skipped")
        n_failed = sum(1 for r in rs if r.status == "failed")
        rows.append(harness.SummaryRow(cid, target, threshold, len(ok), n_skipped, n_failed, **means, **scores))
    return rows


# rows of mixed status over the 18 keys of _runs_of_every_key, which make its equal-size groups ragged
_grouped_rows = st.builds(
    BlockResult,
    classifier=st.sampled_from(["dt+none", "rf+inverse", "gbt+none"]), target=st.sampled_from(["label", "y"]),
    filter_threshold=st.sampled_from([1, 5, 60]), seed=st.integers(0, 9),
    status=st.sampled_from(["ok", "ok", "ok", "skipped", "failed"]), reason=st.just(""),
    cvcf=st.floats(0, 5), imbalance_ratio=st.floats(1, 1e3), necd=st.floats(0, 1),
    accuracy=st.floats(0, 1), macro_f1=st.floats(0, 1), train_seconds=st.floats(0, 1e4),
    weighted_f1=st.one_of(st.floats(0, 1), st.sampled_from([float("nan"), -0.0, 1e-300])),
    n_train=st.integers(0, 2**40),
)


def _runs_of_every_key(runs, seed):
    """``runs`` ok rows for each of the 18 keys ``_grouped_rows`` draws from, with random scores."""
    rng = np.random.default_rng(seed)
    return [BlockResult(cid, target, threshold, i, cvcf=rng.random(), imbalance_ratio=rng.random() * 1e3,
                        necd=rng.random(), accuracy=rng.random(), macro_f1=rng.random(),
                        weighted_f1=rng.random(), train_seconds=rng.exponential(), n_train=int(rng.integers(2**40)))
            for cid in ("dt+none", "rf+inverse", "gbt+none") for target in ("label", "y")
            for threshold in (1, 5, 60) for i in range(runs)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 17), st.integers(0, 2**32 - 1), st.lists(_grouped_rows, max_size=40))
def test_summarize_equals_per_group_statistics_bitwise(runs, seed, extra):
    """Groups of equal size (``extra`` empty) and ragged ones, with skipped and failed rows."""
    results = _runs_of_every_key(runs, seed) + extra
    results = [results[i] for i in np.random.default_rng(seed).permutation(len(results))]
    assert [_bits(s) for s in summarize(results)] == [_bits(s) for s in summarize_oracle(results)]


class TestPersistence:
    def results(self):
        config = small_config(strategies=("none",), n_runs=2, filter_thresholds=(1, 200))
        return run_sweep(config)

    def test_csv_round_trip_is_lossless(self, tmp_path):
        results, _ = self.results()
        p = tmp_path / "results.csv"
        write_results(results, p)
        loaded = read_results(p)
        assert len(loaded) == len(results)
        assert all(rows_match(a, b, ignore=()) for a, b in zip(results, loaded))

    def test_empty_results_write_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_results([], p)
        lines = p.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1
        assert read_results(p) == []

    def test_skipped_reason_survives_round_trip(self, tmp_path):
        results, _ = self.results()
        p = tmp_path / "results.csv"
        write_results(results, p)
        loaded = read_results(p)
        skipped = [r for r in loaded if r.status == "skipped"]
        assert skipped and all("degenerate" in r.reason for r in skipped)

    def test_unexpected_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_results(p)

    def header_and_row(self, tmp_path):
        p = tmp_path / "results.csv"
        write_results([BlockResult("dt+none", "label", 1, 0, n_train=10)], p)
        return p.read_text(encoding="utf-8").splitlines()

    def test_long_row_rejected(self, tmp_path):
        header, row = self.header_and_row(tmp_path)
        p = tmp_path / "long.csv"
        p.write_text("%s\n%s\n%s,surplus\n" % (header, row, row), encoding="utf-8")
        with pytest.raises(ValueError, match=r"row 3 in .*long\.csv: expected 14 fields, got 15"):
            read_results(p)

    def test_short_row_rejected(self, tmp_path):
        header, row = self.header_and_row(tmp_path)
        p = tmp_path / "short.csv"
        p.write_text("%s\n%s\n" % (header, row.rsplit(",", 1)[0]), encoding="utf-8")
        with pytest.raises(ValueError, match=r"row 2 in .*short\.csv: expected 14 fields, got 13"):
            read_results(p)

    def test_summary_file(self, tmp_path):
        _, summaries = self.results()
        p = tmp_path / "summary.csv"
        write_summary(summaries, p)
        lines = p.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("classifier,target,filter_threshold")
        assert len(lines) == 1 + len(summaries)

    def test_degradation_table(self, tmp_path):
        _, summaries = self.results()
        p = tmp_path / "degradation.csv"
        write_degradation(summaries, p, metric="macro_f1")
        lines = p.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == (
            "classifier,target,filter_threshold,cvcf,imbalance_ratio,necd,"
            "n_train,macro_f1_mean,macro_f1_std"
        )
        assert len(lines) == 1 + len(summaries)

    def test_degradation_unknown_metric(self, tmp_path):
        _, summaries = self.results()
        with pytest.raises(ValueError, match="metric"):
            write_degradation(summaries, tmp_path / "x.csv", metric="auc")


class TestWeightingIntegration:
    def test_training_split_weights_drive_the_fit(self):
        """A weighting strategy changes what the model learns: with a strong
        inverse weighting the rare class gets more recall than unweighted."""
        data = make_blobs(600, 2, 4, 1.2, seed=3, counts=[560, 40])
        per_class = {}
        for strategy in ("none", "inverse"):
            r = fit_block(data, "dt", strategy, 1, seed=0, params={"max_depth": 6})[0]
            per_class[strategy] = r.macro_f1
        # not asserting a direction for every dataset/seed, only that the
        # strategy is actually plumbed through to the loss
        assert per_class["none"] != per_class["inverse"]

    def test_compute_weights_contract_for_none(self):
        dist = class_frequencies(np.repeat([0, 1], [90, 10]))
        np.testing.assert_array_equal(compute_weights(dist, "none").weights, [1.0, 1.0])


def _bits(row):
    """A row's fields with floats as their IEEE bytes, so NaN and -0.0 compare exactly."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in astuple(row))


# the text "nan" has no sign or payload, so NaN round-trips as Python's own float("nan")
_scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324]),
)
_texts = st.text(alphabet=st.sampled_from('ab ,"\n\r\'x+'), max_size=8)
result_rows = st.builds(
    BlockResult,
    classifier=_texts, target=_texts,
    filter_threshold=st.integers(-(2**40), 2**40), seed=st.integers(0, 2**40),
    status=st.sampled_from(["ok", "skipped", "failed"]), reason=_texts,
    cvcf=_scores, imbalance_ratio=_scores, necd=_scores, accuracy=_scores,
    macro_f1=_scores, weighted_f1=_scores, train_seconds=_scores,
    n_train=st.integers(0, 2**40),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(result_rows, max_size=6))
def test_results_csv_round_trip_is_bitwise(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.csv")
        write_results(rows, path)
        assert [_bits(r) for r in read_results(path)] == [_bits(r) for r in rows]
