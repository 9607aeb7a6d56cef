"""Random-search HPO: search spaces, CV folds, pruning, and the optimizer."""

import gc
import hashlib
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from imbench import (
    ForestParams,
    GbtParams,
    HpoSpec,
    ResNetConfig,
    TreeParams,
    TrialRecord,
    alias_family,
    family_params,
    fit_family,
    get_family,
    hidden_dim_bounds,
    hpo_random_search,
    register_family,
    sample_params,
    stratified_kfold,
)
from imbench import hpo, trees
from tests.conftest import make_blobs


def parity_dataset(copies=25):
    bits = np.array(
        [[b0, b1, b2] for b0 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)], dtype=float
    )
    x = np.tile(bits, (copies, 1))
    y = np.tile(bits.sum(axis=1).astype(int) % 2, copies)
    return x, y


class TestSampleParams:
    def draws(self, family, n=300, n_features=10):
        rng = np.random.default_rng(0)
        return [sample_params(family, rng, n_features) for _ in range(n)]

    def test_dt_space(self):
        for p in self.draws("dt"):
            assert set(p) == {"max_depth", "min_samples_split", "min_samples_leaf", "criterion"}
            assert 2 <= p["max_depth"] <= 32
            assert 2 <= p["min_samples_split"] <= 50
            assert 1 <= p["min_samples_leaf"] <= 20
            assert p["criterion"] in ("gini", "entropy")
            TreeParams(**p)

    def test_rf_space(self):
        fractions = set()
        for p in self.draws("rf"):
            assert 100 <= p["n_estimators"] <= 1000
            assert 3 <= p["max_depth"] <= 25
            if isinstance(p["max_features"], str):
                assert p["max_features"] in ("sqrt", "log2")
            else:
                fractions.add(p["max_features"])
            ForestParams(**p)
        assert fractions <= {0.3, 0.5, 0.7, 1.0}
        assert len(fractions) >= 3

    def test_gbt_space(self):
        for p in self.draws("gbt"):
            assert 200 <= p["n_estimators"] <= 1200
            assert 0.01 <= p["learning_rate"] <= 0.3
            assert 3 <= p["max_depth"] <= 12
            assert 0.6 <= p["subsample"] <= 1.0
            assert 0.5 <= p["colsample"] <= 1.0
            assert 0.0 <= p["reg_alpha"] <= 5.0
            assert 0.0 <= p["reg_lambda"] <= 5.0
            GbtParams(**p)

    def test_tabresnet_space(self):
        lo, hi = hidden_dim_bounds(10)
        for p in self.draws("tabresnet"):
            assert 1e-6 <= p["learning_rate"] <= 1e-1
            assert 1e-7 <= p["weight_decay"] <= 1e-2
            assert 32 <= p["batch_size"] <= 1024
            assert 1 <= p["n_blocks"] <= 4
            assert lo <= p["hidden_dim"] <= hi
            assert isinstance(p["use_reduction"], bool)
            assert "dropout" not in p
            ResNetConfig(n_features=10, n_classes=3, **p)

    def test_learning_rate_is_log_uniform(self):
        lrs = [p["learning_rate"] for p in self.draws("tabresnet", n=2000)]
        # a uniform draw over [1e-6, 1e-1] would have median near 0.05
        assert np.median(lrs) < 0.01

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            sample_params("svm", np.random.default_rng(0), 10)


# the literal defaults the built-ins were registered with before they came from their params types
LITERAL_DEFAULTS = {
    "dt": {"max_depth": 12},
    "rf": {"n_estimators": 100, "max_depth": 12},
    "gbt": {"n_estimators": 200, "learning_rate": 0.1, "max_depth": 3},
    "tabresnet": {"hidden_dim": 32, "n_blocks": 2, "dropout": 0.1, "learning_rate": 1e-3, "weight_decay": 1e-4,
                  "batch_size": 128, "max_epochs": 200},
}
DATA_GIVEN = dict(n_features=10, n_classes=3, seed=0)


class TestDefaultParams:
    """Each built-in's ``default_params`` names every parameter it takes."""

    @pytest.mark.parametrize("family, params_type", [("dt", TreeParams), ("rf", ForestParams), ("gbt", GbtParams)])
    def test_tree_defaults_are_their_params_type(self, family, params_type):
        defaults = get_family(family).default_params
        assert params_type(**defaults) == params_type(**LITERAL_DEFAULTS[family])
        assert set(defaults) == {f.name for f in fields(params_type)}

    def test_tabresnet_defaults_are_its_config_less_what_the_data_gives(self):
        defaults = get_family("tabresnet").default_params
        assert ResNetConfig(**DATA_GIVEN, **defaults) == ResNetConfig(**DATA_GIVEN, **LITERAL_DEFAULTS["tabresnet"])
        assert set(defaults) == {f.name for f in fields(ResNetConfig)} - set(DATA_GIVEN)

    @pytest.mark.parametrize("family", sorted(LITERAL_DEFAULTS))
    def test_search_space_draws_only_default_keys(self, family):
        rng = np.random.default_rng(7)
        names = set(get_family(family).default_params)
        for _ in range(200):
            assert set(sample_params(family, rng, DATA_GIVEN["n_features"])) <= names

    def test_family_params_merges_over_the_defaults_and_names_an_unknown_key(self):
        assert family_params("dt", {"max_depth": 3}) == {**get_family("dt").default_params, "max_depth": 3}
        assert family_params("gbt") == get_family("gbt").default_params
        with pytest.raises(ValueError, match="unknown key 'max_dept' in the params of family 'dt'"):
            family_params("dt", {"max_depth": 3, "max_dept": 3})
        register_family("fixed", lambda *args, **kwargs: None, {})
        assert family_params("fixed", {}) == {}
        with pytest.raises(ValueError, match="unknown key 'depth' in the params of family 'fixed'"):
            family_params("fixed", {"depth": 3})


class TestStratifiedKfold:
    def test_folds_partition_all_indices(self, rng):
        y = rng.integers(0, 4, size=203)
        folds = stratified_kfold(y, 5, seed=0)
        combined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(combined, np.arange(203))

    def test_per_class_fold_counts_within_one(self, rng):
        y = np.repeat([0, 1, 2], [61, 37, 13])
        folds = stratified_kfold(y, 4, seed=1)
        for k in range(3):
            per_fold = [np.sum(y[f] == k) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_deterministic_per_seed(self, rng):
        y = rng.integers(0, 3, size=90)
        a = stratified_kfold(y, 3, seed=5)
        b = stratified_kfold(y, 3, seed=5)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        c = stratified_kfold(y, 3, seed=6)
        assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))

    def test_class_smaller_than_fold_count_rejected(self):
        y = np.array([0] * 20 + [1] * 3)
        with pytest.raises(ValueError, match="folds"):
            stratified_kfold(y, 5, seed=0)


class TestFitFamily:
    def test_dispatch_covers_all_families(self):
        data = make_blobs(120, 2, 4, 3.0, seed=0)
        x, y = data.features, data.labels
        w = np.ones(2)
        cases = {
            "dt": {"max_depth": 4},
            "rf": {"n_estimators": 3, "max_depth": 4},
            "gbt": {"n_estimators": 2, "learning_rate": 0.3},
            "tabresnet": {"hidden_dim": 8, "n_blocks": 1, "max_epochs": 2, "batch_size": 32},
        }
        for family, params in cases.items():
            model = fit_family(family, x, y, w, params, 2, seed=0, x_val=x, y_val=y)
            assert model.family == family
            assert model.predict(x).shape == (120,)

    def test_tabresnet_requires_validation_split(self):
        data = make_blobs(60, 2, 4, 3.0, seed=0)
        with pytest.raises(ValueError, match="validation"):
            fit_family(
                "tabresnet", data.features, data.labels, np.ones(2),
                {"hidden_dim": 8, "max_epochs": 2}, 2, seed=0,
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            fit_family("knn", np.ones((4, 2)), np.array([0, 1, 0, 1]), np.ones(2), {}, 2, 0)


class TestTrialRecord:
    def test_mean_of_fold_scores(self):
        r = TrialRecord(index=0, params={}, fold_scores=[0.5, 0.7], status="completed")
        assert r.mean_score == 0.6

    def test_empty_scores_mean_is_minus_inf(self):
        r = TrialRecord(index=0, params={}, fold_scores=[], status="pruned")
        assert r.mean_score == float("-inf")


class TestHpoSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            HpoSpec(n_trials=0)
        with pytest.raises(ValueError):
            HpoSpec(cv_folds=1)

    def test_strategy_is_one_of_the_weightings(self):
        with pytest.raises(ValueError, match="strategy must be one of .*, got 'oversample'"):
            HpoSpec(strategy="oversample")

    def test_new_fields_follow_overrides(self):
        """``strategy`` comes after ``overrides``, so positional construction
        keeps its meaning."""
        assert HpoSpec(3, 2, 1, {"max_depth": 2}, "median") == HpoSpec(
            n_trials=3, cv_folds=2, seed=1, overrides={"max_depth": 2}, strategy="median")


class TestRandomSearch:
    def test_single_trial_wins_by_default(self):
        x, y = parity_dataset(copies=10)
        res = hpo_random_search("dt", x, y, spec=HpoSpec(n_trials=1, cv_folds=3, seed=0))
        assert res.best_trial == 0
        assert res.best_params == res.trials[0].params
        assert res.trials[0].status == "completed"

    def test_first_trial_is_never_pruned(self):
        for seed in range(5):
            x, y = parity_dataset(copies=8)
            res = hpo_random_search("dt", x, y, spec=HpoSpec(n_trials=3, cv_folds=3, seed=seed))
            assert res.trials[0].status == "completed"

    def test_best_fields_are_consistent(self):
        x, y = parity_dataset(copies=12)
        res = hpo_random_search("dt", x, y, spec=HpoSpec(n_trials=10, cv_folds=4, seed=3))
        completed = [t for t in res.trials if t.status == "completed"]
        assert res.best_score == max(t.mean_score for t in completed)
        assert res.trials[res.best_trial].params == res.best_params
        assert res.trials[res.best_trial].mean_score == res.best_score

    def test_pruned_trials_stop_early_and_record_partial_scores(self):
        x, y = parity_dataset(copies=12)
        res = hpo_random_search("dt", x, y, spec=HpoSpec(n_trials=25, cv_folds=5, seed=0))
        pruned = [t for t in res.trials if t.status == "pruned"]
        assert pruned, "expected the median rule to prune at least one shallow trial"
        for t in pruned:
            assert 1 <= len(t.fold_scores) < 5
        for t in res.trials:
            if t.status == "completed":
                assert len(t.fold_scores) == 5

    def test_overrides_pin_sampled_fields(self):
        x, y = parity_dataset(copies=8)
        spec = HpoSpec(n_trials=4, cv_folds=3, seed=1, overrides={"max_depth": 3})
        res = hpo_random_search("dt", x, y, spec=spec)
        assert all(t.params["max_depth"] == 3 for t in res.trials)

    def test_search_is_deterministic(self):
        data = make_blobs(150, 3, 4, 2.0, seed=2)
        spec = HpoSpec(n_trials=5, cv_folds=3, seed=9)
        a = hpo_random_search("dt", data.features, data.labels, spec=spec)
        b = hpo_random_search("dt", data.features, data.labels, spec=spec)
        assert a.best_params == b.best_params and a.best_score == b.best_score
        assert [t.status for t in a.trials] == [t.status for t in b.trials]

    def test_aliased_family_searches_like_its_original(self):
        x, y = parity_dataset(copies=12)
        spec = HpoSpec(n_trials=8, cv_folds=3, seed=4)
        alias_family("dt2", "dt")
        alias = hpo_random_search("dt2", x, y, spec=spec)
        base = hpo_random_search("dt", x, y, spec=spec)
        assert alias.family == "dt2"
        assert [(t.params, t.fold_scores, t.status) for t in alias.trials] == [
            (t.params, t.fold_scores, t.status) for t in base.trials
        ]
        assert (alias.best_params, alias.best_score, alias.best_trial) == (
            base.best_params, base.best_score, base.best_trial
        )

    def test_family_without_search_space_rejected(self):
        x, y = parity_dataset(copies=4)
        register_family("fixed", lambda *args, **kwargs: None)
        with pytest.raises(ValueError, match="'fixed' has no search_space"):
            hpo_random_search("fixed", x, y, spec=HpoSpec(n_trials=2, cv_folds=2))

    def test_labels_that_are_not_the_class_ids_fail_before_any_fit(self):
        """Labels must take every class id ``0..n_classes-1``; the error names
        the ids missing or out of range, before any fit.  Fewer folds would
        not help, so the message does not suggest them."""
        x, y = parity_dataset(copies=4)
        fits = []

        def counting_fit(x, y, weights, params, n_classes, seed, x_val=None, y_val=None):
            fits.append(len(y))

        register_family("counting", counting_fit, {}, search_space=lambda rng, n_features: {})
        for labels, n_classes, message in [
            (y * 2, None, "every class id 0..2: missing [1], out of range []"),
            (y, 3, "every class id 0..2: missing [2], out of range []"),
            (y + 1, 2, "every class id 0..1: missing [0], out of range [2]"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                hpo_random_search("counting", x, labels, spec=HpoSpec(n_trials=2, cv_folds=2), n_classes=n_classes)
        assert fits == []

    def test_misspelled_override_fails_before_any_fit(self, monkeypatch):
        fits = []
        fit = hpo.fit_family
        monkeypatch.setattr(hpo, "fit_family", lambda family, *args, **kwargs: fits.append(family)
                            or fit(family, *args, **kwargs))
        x, y = parity_dataset(copies=4)
        with pytest.raises(ValueError, match="unknown key 'max_dept' in the params of family 'dt'"):
            hpo_random_search("dt", x, y, spec=HpoSpec(n_trials=2, cv_folds=2, overrides={"max_dept": 3}))
        assert fits == []

    def test_each_fold_table_is_presorted_once_for_every_trial(self, monkeypatch):
        """The fold training tables are read-only, so each is presorted once
        and its lists serve every trial; the trials are those of fits that
        each sort afresh, and no presort outlives the search.  The spy keeps
        shapes, not tables: holding a table would keep its lists alive."""
        data = make_blobs(600, 3, 6, 1.5, seed=5)
        spec = HpoSpec(n_trials=8, cv_folds=4, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(trees, "_table_lists", trees._presort)  # every fit sorts for itself
            fresh = hpo_random_search("dt", data.features, data.labels, spec=spec)
        presorted = []
        presort = trees._presort
        monkeypatch.setattr(trees, "_presort", lambda x: presorted.append(x.shape) or presort(x))
        gc.collect()  # free what earlier tests left in reference cycles, so the rest stays alive
        kept_before = set(trees._kept_lists)
        shared = hpo_random_search("dt", data.features, data.labels, spec=spec)
        gc.collect()
        assert presorted == [(450, 6)] * 4
        assert set(trees._kept_lists) <= kept_before
        assert sum(len(t.fold_scores) for t in shared.trials) > 4
        assert [(t.params, t.fold_scores, t.status) for t in shared.trials] == [
            (t.params, t.fold_scores, t.status) for t in fresh.trials
        ]
        assert (shared.best_params, shared.best_score) == (fresh.best_params, fresh.best_score)

    def test_scores_are_valid_f1_values(self):
        data = make_blobs(150, 3, 4, 2.0, seed=2)
        res = hpo_random_search(
            "dt", data.features, data.labels, spec=HpoSpec(n_trials=5, cv_folds=3, seed=9)
        )
        for t in res.trials:
            assert all(0.0 <= s <= 1.0 for s in t.fold_scores)

    def test_weighting_strategy_is_accepted(self, monkeypatch):
        """``spec.strategy`` weights every fold fit."""
        strategies = []
        compute_weights = hpo.compute_weights
        monkeypatch.setattr(hpo, "compute_weights", lambda dist, strategy, **kwargs: strategies.append(strategy)
                            or compute_weights(dist, strategy, **kwargs))
        data = make_blobs(200, 2, 4, 2.0, seed=4, counts=[170, 30])
        res = hpo_random_search("dt", data.features, data.labels,
                                spec=HpoSpec(n_trials=3, cv_folds=3, seed=0, strategy="inverse"))
        assert res.best_score > 0.0
        assert strategies == ["inverse"] * sum(len(t.fold_scores) for t in res.trials)

    def test_search_finds_the_planted_parity_optimum(self):
        """Depth <= 2 trees cannot express 3-bit parity; the search should
        land on depth >= 3 in nearly every repetition."""
        x, y = parity_dataset()
        wins = 0
        for rep in range(20):
            res = hpo_random_search("dt", x, y, spec=HpoSpec(n_trials=25, cv_folds=5, seed=rep))
            if res.best_params["max_depth"] >= 3:
                wins += 1
        assert wins >= 18


def search_digest(result) -> str:
    """sha256 of a search's trial records (index, status, fold scores,
    params) and its winner; ``json`` writes each float by its shortest
    round-trip repr, so equal digests mean bitwise-equal records."""
    records = [[t.index, t.status, [float(s) for s in t.fold_scores], t.params] for t in result.trials]
    return hashlib.sha256(json.dumps([records, [result.best_trial, result.best_score, result.best_params]],
                                     sort_keys=True).encode()).hexdigest()


class TestSearchOracle:
    """Two small searches, each with pruned trials, pinned by the digest of
    their trial records and winner: a change to the search that should keep
    its results (the pruning rule, the fold set-up, the fit protocol) keeps
    these bitwise."""

    @pytest.mark.parametrize("family, n_samples, spec, digest", [
        ("dt", 240, HpoSpec(n_trials=10, cv_folds=4, seed=2),
         "bceed4f4804574e353a2284ad573da88eda7bde5254d860a98106c200cfa75af"),
        ("tabresnet", 180, HpoSpec(n_trials=6, cv_folds=3, seed=2, overrides={"max_epochs": 2}),
         "bc3250d5b2ef5b98911c3eaa12349906233a570a0f4d1f30562a059a19d40ba5"),
    ])
    def test_trial_records_are_pinned(self, family, n_samples, spec, digest):
        data = make_blobs(n_samples, 3, 4, 1.5, seed=8)
        result = hpo_random_search(family, data.features, data.labels, spec=spec)
        assert "pruned" in [t.status for t in result.trials]
        assert search_digest(result) == digest
