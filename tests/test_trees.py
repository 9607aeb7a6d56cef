"""Decision trees, random forests, and Newton-boosted trees."""

import json
import os
import tempfile
import warnings
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbench import (
    ForestParams,
    GbtParams,
    TreeParams,
    dt_fit,
    gbt_fit,
    load_model,
    rf_fit,
    save_model,
    weighted_cce,
)
from imbench import trees
from tests.conftest import make_blobs


def xor_dataset(copies=10):
    x = np.tile(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), (copies, 1))
    y = np.tile(np.array([0, 1, 1, 0]), copies)
    return x, y


def blob_split(n, k, d, sep, seed):
    data = make_blobs(n, k, d, sep, seed=seed)
    cut = int(0.8 * n)
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(n)
    tr, te = perm[:cut], perm[cut:]
    return data.features[tr], data.labels[tr], data.features[te], data.labels[te]


class TestDecisionTree:
    def test_xor_needs_depth_two(self):
        x, y = xor_dataset()
        shallow = dt_fit(x, y, np.ones(2), params=TreeParams(max_depth=1))
        deep = dt_fit(x, y, np.ones(2), params=TreeParams(max_depth=2))
        assert np.mean(shallow.predict(x) == y) < 1.0
        assert np.mean(deep.predict(x) == y) == 1.0

    def test_probabilities_are_leaf_mass_fractions(self):
        x = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = dt_fit(x, y, np.ones(2), params=TreeParams(max_depth=1))
        # left leaf holds two class-0 and one class-1 samples
        np.testing.assert_allclose(model.predict_proba(np.array([[0.0]]))[0], [2 / 3, 1 / 3])
        np.testing.assert_allclose(model.predict_proba(np.array([[1.0]]))[0], [0.0, 1.0])

    def test_class_weight_two_equals_duplication(self, rng):
        x = rng.normal(size=(80, 3))
        y = rng.integers(0, 2, size=80)
        weighted = dt_fit(x, y, np.array([1.0, 2.0]), params=TreeParams(max_depth=6))
        dup_rows = np.concatenate([np.arange(80), np.flatnonzero(y == 1)])
        duplicated = dt_fit(x[dup_rows], y[dup_rows], np.ones(2), params=TreeParams(max_depth=6))
        probe = rng.normal(size=(200, 3))
        np.testing.assert_array_equal(
            weighted.predict_proba(probe), duplicated.predict_proba(probe)
        )

    def test_weights_can_flip_the_default_leaf(self):
        # nine majority vs one minority in an unsplittable node
        x = np.zeros((10, 1))
        y = np.array([0] * 9 + [1])
        plain = dt_fit(x, y, np.ones(2), params=TreeParams(max_depth=1))
        boosted = dt_fit(x, y, np.array([1.0, 20.0]), params=TreeParams(max_depth=1))
        assert plain.predict(np.zeros((1, 1)))[0] == 0
        assert boosted.predict(np.zeros((1, 1)))[0] == 1

    def test_tie_breaks_to_lowest_feature_index(self, rng):
        col = rng.normal(size=(60, 1))
        x = np.hstack([col, col])  # identical columns -> identical split scores
        y = (col[:, 0] > 0).astype(np.int64)
        model = dt_fit(x, y, np.ones(2), params=TreeParams(max_depth=1))
        assert model.root.feature[0] == 0

    def test_deterministic_regardless_of_seed(self, rng):
        x = rng.normal(size=(100, 4))
        y = rng.integers(0, 3, size=100)
        a = dt_fit(x, y, np.ones(3), seed=0)
        b = dt_fit(x, y, np.ones(3), seed=999)
        np.testing.assert_array_equal(a.predict_proba(x), b.predict_proba(x))

    def test_min_samples_leaf_respected(self, rng):
        x = rng.normal(size=(64, 2))
        y = rng.integers(0, 2, size=64)
        model = dt_fit(x, y, np.ones(2), params=TreeParams(max_depth=10, min_samples_leaf=8))
        # count samples reaching each leaf
        tree = model.root
        leaf_counts = np.bincount(tree.apply(x), minlength=tree.feature.size)[tree.feature < 0]
        assert leaf_counts.min() >= 8

    def test_entropy_criterion_also_learns(self):
        x, y = xor_dataset()
        model = dt_fit(x, y, np.ones(2), params=TreeParams(max_depth=2, criterion="entropy"))
        assert np.mean(model.predict(x) == y) == 1.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TreeParams(max_depth=0)
        with pytest.raises(ValueError):
            TreeParams(criterion="mse")


class TestRandomForest:
    def test_single_plain_tree_equals_dt(self, rng):
        x = rng.normal(size=(150, 5))
        y = rng.integers(0, 3, size=150)
        forest = rf_fit(
            x, y, np.ones(3),
            params=ForestParams(n_estimators=1, bootstrap=False, max_features=1.0, max_depth=7),
        )
        tree = dt_fit(x, y, np.ones(3), params=TreeParams(max_depth=7))
        np.testing.assert_array_equal(forest.predict_proba(x), tree.predict_proba(x))

    def test_same_seed_replays(self):
        xtr, ytr, xte, _ = blob_split(400, 3, 6, 2.0, seed=0)
        a = rf_fit(xtr, ytr, np.ones(3), params=ForestParams(n_estimators=10, max_depth=6), seed=3)
        b = rf_fit(xtr, ytr, np.ones(3), params=ForestParams(n_estimators=10, max_depth=6), seed=3)
        np.testing.assert_array_equal(a.predict_proba(xte), b.predict_proba(xte))

    def test_different_seeds_differ(self):
        xtr, ytr, xte, _ = blob_split(400, 3, 6, 2.0, seed=0)
        a = rf_fit(xtr, ytr, np.ones(3), params=ForestParams(n_estimators=5, max_depth=6), seed=3)
        b = rf_fit(xtr, ytr, np.ones(3), params=ForestParams(n_estimators=5, max_depth=6), seed=4)
        assert not np.array_equal(a.predict_proba(xte), b.predict_proba(xte))

    def test_probabilities_average_over_trees(self, rng):
        x = rng.normal(size=(100, 4))
        y = rng.integers(0, 2, size=100)
        model = rf_fit(x, y, np.ones(2), params=ForestParams(n_estimators=7, max_depth=4), seed=1)
        p = model.predict_proba(x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(p >= 0)

    def test_forest_beats_single_tree_on_noisy_blobs(self):
        xtr, ytr, xte, yte = blob_split(1200, 4, 8, 1.2, seed=7)
        tree = dt_fit(xtr, ytr, np.ones(4), params=TreeParams(max_depth=12))
        forest = rf_fit(
            xtr, ytr, np.ones(4), params=ForestParams(n_estimators=40, max_depth=12), seed=0
        )
        tree_acc = np.mean(tree.predict(xte) == yte)
        forest_acc = np.mean(forest.predict(xte) == yte)
        assert forest_acc >= tree_acc

    def test_max_features_validation(self):
        with pytest.raises(ValueError):
            ForestParams(max_features="cube")
        with pytest.raises(ValueError):
            ForestParams(max_features=0.0)


class TestGradientBoosting:
    def test_zero_rounds_predicts_class_priors(self, rng):
        x = rng.normal(size=(40, 3))
        y = np.array([0] * 30 + [1] * 10)
        model = gbt_fit(x, y, np.ones(2), params=GbtParams(n_estimators=0))
        np.testing.assert_allclose(model.predict_proba(x), [[0.75, 0.25]] * 40, rtol=1e-12)

    def test_one_round_reduces_training_loss(self):
        xtr, ytr, _, _ = blob_split(300, 3, 4, 3.0, seed=2)
        w = np.ones(3)
        init = gbt_fit(xtr, ytr, w, params=GbtParams(n_estimators=0))
        one = gbt_fit(xtr, ytr, w, params=GbtParams(n_estimators=1, learning_rate=0.3))
        loss0, _ = weighted_cce(ytr, init.predict_proba(xtr), w)
        loss1, _ = weighted_cce(ytr, one.predict_proba(xtr), w)
        assert loss1 < loss0

    def test_training_loss_monotone_without_subsampling(self):
        """With full row/column sampling each Newton round must not increase
        the weighted training loss."""
        w3 = np.ones(3)
        for seed in (0, 1, 2):
            xtr, ytr, _, _ = blob_split(300, 3, 5, 1.5, seed=seed)
            model = gbt_fit(
                xtr, ytr, w3,
                params=GbtParams(n_estimators=20, learning_rate=0.2, subsample=1.0, colsample=1.0),
                seed=seed,
            )
            losses = []
            for t in range(len(model.rounds) + 1):
                stage = type(model)(
                    rounds=model.rounds[:t],
                    log_priors=model.log_priors,
                    params=model.params,
                    n_classes=model.n_classes,
                )
                losses.append(weighted_cce(ytr, stage.predict_proba(xtr), w3)[0])
            assert np.all(np.diff(losses) <= 1e-9)

    def test_xor_is_learnable(self):
        x, y = xor_dataset()
        model = gbt_fit(
            x, y, np.ones(2), params=GbtParams(n_estimators=50, learning_rate=0.3, max_depth=3)
        )
        assert np.mean(model.predict(x) == y) == 1.0

    def test_saturated_rounds_warn_and_are_skipped(self):
        x = np.array([[0.0], [1.0]] * 20)
        y = np.array([0, 1] * 20)
        params = GbtParams(n_estimators=60, learning_rate=10.0, max_depth=2, reg_lambda=0.0)
        with pytest.warns(RuntimeWarning, match="hessian"):
            model = gbt_fit(x, y, np.ones(2), params=params)
        assert any(all(t is None for t in class_trees) for class_trees in model.rounds)
        assert np.mean(model.predict(x) == y) == 1.0

    def test_missing_class_rejected(self, rng):
        x = rng.normal(size=(20, 2))
        y = np.zeros(20, dtype=np.int64)
        with pytest.raises(ValueError, match="every class"):
            gbt_fit(x, y, np.ones(2), n_classes=2)

    def test_same_seed_replays_with_subsampling(self):
        xtr, ytr, xte, _ = blob_split(400, 3, 6, 2.0, seed=0)
        params = GbtParams(n_estimators=8, learning_rate=0.3, subsample=0.7, colsample=0.8)
        a = gbt_fit(xtr, ytr, np.ones(3), params=params, seed=5)
        b = gbt_fit(xtr, ytr, np.ones(3), params=params, seed=5)
        np.testing.assert_array_equal(a.decision_function(xte), b.decision_function(xte))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GbtParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            GbtParams(subsample=0.0)
        with pytest.raises(ValueError):
            GbtParams(reg_lambda=-1.0)


class TestSerialization:
    def fit_all(self):
        xtr, ytr, xte, _ = blob_split(300, 3, 5, 2.0, seed=4)
        w = np.ones(3)
        return xte, [
            dt_fit(xtr, ytr, w, params=TreeParams(max_depth=5)),
            rf_fit(xtr, ytr, w, params=ForestParams(n_estimators=5, max_depth=5), seed=1),
            gbt_fit(xtr, ytr, w, params=GbtParams(n_estimators=5, learning_rate=0.3), seed=1),
        ]

    def test_round_trip_preserves_predictions_bitwise(self, tmp_path):
        xte, models = self.fit_all()
        for model in models:
            p = tmp_path / ("%s.json" % model.family)
            save_model(model, p)
            loaded = load_model(p)
            assert type(loaded) is type(model)
            assert loaded.params == model.params
            np.testing.assert_array_equal(loaded.predict_proba(xte), model.predict_proba(xte))

    def test_node_walk_visits_every_node(self):
        xtr, ytr, _, _ = blob_split(300, 3, 5, 2.0, seed=4)
        tree = dt_fit(xtr, ytr, np.ones(3), params=TreeParams(max_depth=5)).root

        def count(node):
            return 1 if node.is_leaf else 1 + count(node.left) + count(node.right)

        assert count(tree) == tree.feature.size > 1

    def test_nested_tree_layout_rejected(self, tmp_path):
        p = tmp_path / "nested.json"
        tree = {"feature": 0, "threshold": 0.5, "left": {"scores": [1.0, 0.0]}, "right": {"scores": [0.0, 1.0]}}
        p.write_text(json.dumps({"family": "dt", "n_classes": 2, "params": {}, "tree": tree}), encoding="utf-8")
        with pytest.raises(ValueError, match="nested node layout"):
            load_model(p)

    def test_unknown_family_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"family": "svm"}', encoding="utf-8")
        with pytest.raises(ValueError, match="family"):
            load_model(p)


# ---------------------------------------------------------------------------
# properties of the split search and the flat layout
# ---------------------------------------------------------------------------


@st.composite
def tied_tables(draw, max_rows=40):
    """Small tables with many tied feature values; every class appears."""
    n = draw(st.integers(4, max_rows))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, 4))
    x = draw(hnp.arrays(np.float64, (n, d), elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    y[:k] = np.arange(k)
    return x, y, k


def oracle_split(x, y, k, min_leaf):
    """Best (feature, threshold) by scoring every midpoint directly, or None.

    Scores use the same float formula as the engine, so exact ties resolve
    by scan order: lowest feature, then lowest threshold.
    """
    def weighted_gini(rows):
        counts = np.bincount(y[rows], minlength=k).astype(np.float64)
        m = counts.sum()
        p = counts / m
        return m * (1.0 - np.sum(p * p))

    best_score, best = np.inf, None
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for t in 0.5 * (values[:-1] + values[1:]):
            go_left = x[:, f] <= t
            if min(go_left.sum(), (~go_left).sum()) < min_leaf:
                continue
            score = weighted_gini(go_left) + weighted_gini(~go_left)
            if score < best_score:
                best_score, best = score, (f, t)
    return best


FAST = settings(max_examples=40, deadline=None)


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 12, 16, 17, 40, 128, 129, 300])
def test_row_sum_adds_like_numpy_sum_of_a_row(width):
    rng = np.random.default_rng(width)
    a = rng.normal(size=(3, 50, width)) * 10.0 ** rng.integers(-8, 8, size=(3, 50, width))
    expected = a.sum(axis=-1)
    assert trees._row_sum(np.moveaxis(a, -1, 0)).tobytes() == expected.tobytes()
    assert trees._row_sum(a[0, 0]) == expected[0, 0]


class TestSplitProperties:
    @FAST
    @given(tied_tables(), st.integers(1, 4))
    def test_depth_one_split_matches_brute_force(self, table, min_leaf):
        x, y, k = table
        model = dt_fit(x, y, np.ones(k), params=TreeParams(max_depth=1, min_samples_leaf=min_leaf))
        expected = oracle_split(x, y, k, min_leaf)
        tree = model.root
        if expected is None:
            assert tree.feature[0] == -1
        else:
            assert (tree.feature[0], tree.threshold[0]) == expected

    @FAST
    @given(tied_tables(), st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4))
    def test_block_budget_does_not_change_predictions(self, table, weights):
        x, y, k = table
        w = np.asarray(weights[:k])
        fits = [
            lambda: dt_fit(x, y, w, params=TreeParams(max_depth=4, criterion="entropy")),
            lambda: rf_fit(x, y, w, params=ForestParams(n_estimators=3, max_depth=4, max_features=0.7), seed=2),
            lambda: gbt_fit(x, y, w, params=GbtParams(n_estimators=3, max_depth=2, subsample=0.8), seed=2),
        ]
        for fit in fits:
            with mock.patch.object(trees, "_BLOCK_ELEMENTS", 1):
                one_per_block = fit().predict_proba(x)
            with mock.patch.object(trees, "_BLOCK_ELEMENTS", 1 << 40):
                all_in_one = fit().predict_proba(x)
            assert one_per_block.tobytes() == all_in_one.tobytes()

    @FAST
    @given(tied_tables())
    def test_save_load_round_trip_is_bitwise(self, table):
        x, y, k = table
        w = np.linspace(0.5, 2.0, k)
        models = [
            dt_fit(x, y, w, params=TreeParams(max_depth=5)),
            rf_fit(x, y, w, params=ForestParams(n_estimators=3, max_depth=5), seed=1),
            gbt_fit(x, y, w, params=GbtParams(n_estimators=3, learning_rate=0.3), seed=1),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            for model in models:
                path = os.path.join(tmp, "%s.json" % model.family)
                save_model(model, path)
                reloaded = load_model(path)
                assert reloaded.predict_proba(x).tobytes() == model.predict_proba(x).tobytes()
