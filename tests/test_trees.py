"""Decision trees, random forests, and Newton-boosted trees."""

import gc
import json
import os
import tempfile
import warnings
import weakref
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
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

    def test_a_zero_weight_class_has_no_mass(self, rng):
        x = rng.normal(size=(40, 3))
        y = np.repeat([0, 1], 20)
        model = dt_fit(x, y, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(model.predict_proba(rng.normal(size=(50, 3))), np.tile([0.0, 1.0], (50, 1)))
        with pytest.raises(ValueError, match="zero total class weight"):
            dt_fit(x, y, np.array([0.0, 0.0]))

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
                    n_features=model.n_features,
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

    def test_round_trip_of_numpy_integer_params(self, tmp_path):
        """Params given as numpy integers are stored as ints, so the model
        saves as JSON and loads back with the same predictions."""
        xtr, ytr, xte, _ = blob_split(300, 3, 5, 2.0, seed=4)
        params = ForestParams(n_estimators=np.int64(4), max_depth=np.int32(5), min_samples_split=np.uint8(3),
                              min_samples_leaf=np.int16(2), bootstrap=np.bool_(True))
        model = rf_fit(xtr, ytr, np.ones(3), params=params, seed=2)
        save_model(model, tmp_path / "rf.json")
        loaded = load_model(tmp_path / "rf.json")
        assert loaded.params == params == ForestParams(n_estimators=4, max_depth=5, min_samples_split=3,
                                                       min_samples_leaf=2)
        np.testing.assert_array_equal(loaded.predict(xte), model.predict(xte))

    def test_node_walk_visits_every_node(self):
        xtr, ytr, _, _ = blob_split(300, 3, 5, 2.0, seed=4)
        tree = dt_fit(xtr, ytr, np.ones(3), params=TreeParams(max_depth=5)).root

        def count(node):
            return 1 if node.is_leaf else 1 + count(node.left) + count(node.right)

        assert count(tree) == tree.feature.size > 1

    def test_nested_tree_layout_rejected(self, tmp_path):
        p = tmp_path / "nested.json"
        tree = {"feature": 0, "threshold": 0.5, "left": {"scores": [1.0, 0.0]}, "right": {"scores": [0.0, 1.0]}}
        obj = {"family": "dt", "n_classes": 2, "n_features": 1, "params": {}, "tree": tree}
        p.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match="nested node layout"):
            load_model(p)

    @pytest.mark.parametrize("case", ["self_loop", "past_the_end", "short_threshold"])
    def test_bad_node_arrays_rejected(self, tmp_path, case):
        xtr, ytr, _, _ = blob_split(300, 3, 5, 2.0, seed=4)
        obj = dt_fit(xtr, ytr, np.ones(3), params=TreeParams(max_depth=3)).to_dict()
        tree = obj["tree"]
        assert tree["feature"][0] >= 0
        if case == "self_loop":  # predict would walk the root forever
            tree["left"][0] = 0
        elif case == "past_the_end":  # predict would fail with an IndexError
            tree["right"][0] = len(tree["right"])
        else:
            tree["threshold"].pop()
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match="one length" if case == "short_threshold" else "child links"):
            load_model(p)

    @staticmethod
    def first_tree(obj):
        return obj["tree"] if "tree" in obj else obj["trees"][0] if "trees" in obj else obj["rounds"][0][0]

    def saved_dict(self, family):
        xte, models = self.fit_all()
        return xte, next(m for m in models if m.family == family).to_dict()

    @pytest.mark.parametrize("family, case", [
        ("dt", "value_width"), ("rf", "value_width"), ("gbt", "value_width"), ("gbt", "log_priors"), ("gbt", "round"),
    ])
    def test_arrays_that_do_not_fit_the_model_rejected(self, tmp_path, family, case):
        _, obj = self.saved_dict(family)
        tree = self.first_tree(obj)
        if case == "value_width":  # dt/rf rows of 2 of the 3 classes, gbt margins of width 2
            tree["value"] = [row[:2] if family != "gbt" else row + [0.0] for row in tree["value"]]
        elif case == "log_priors":
            obj["log_priors"].pop()
        else:
            obj["rounds"][0].pop()
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match="value rows" if case == "value_width" else "log priors and 3 trees"):
            load_model(p)

    @pytest.mark.parametrize("family", ["dt", "rf", "gbt"])
    def test_data_narrower_than_the_tree_rejected(self, tmp_path, family):
        xte, obj = self.saved_dict(family)
        self.first_tree(obj)["feature"][0] = 9  # the root splits on a column the 5-feature data lacks
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        model = load_model(p)
        with pytest.raises(ValueError, match="the data has 5 features but the tree splits on feature 9"):
            model.predict_proba(xte)

    @pytest.mark.parametrize("family", ["dt", "rf", "gbt"])
    def test_data_of_another_width_rejected(self, tmp_path, family):
        """A model keeps its fit's feature count, in memory and in its file:
        wider data (even the fit's columns among others) and narrower data
        raise a ValueError naming both widths."""
        xte, models = self.fit_all()
        model = next(m for m in models if m.family == family)
        p = tmp_path / "model.json"
        save_model(model, p)
        loaded = load_model(p)
        assert model.n_features == loaded.n_features == json.loads(p.read_text(encoding="utf-8"))["n_features"] == 5
        methods = ["predict", "predict_proba"] + (["decision_function"] if family == "gbt" else [])
        for m in (model, loaded):
            for x in (np.hstack([xte[:, ::-1], xte]), xte[:, :4], xte[:, :1]):
                message = r"fitted on 5 features, got data of shape \(%d, %d\)" % x.shape
                for method in methods:
                    with pytest.raises(ValueError, match=message):
                        getattr(m, method)(x)
            assert m.predict_proba(xte).shape == (len(xte), 3)

    @pytest.mark.parametrize("family", ["dt", "rf", "gbt"])
    def test_file_without_a_feature_count_rejected(self, tmp_path, family):
        _, obj = self.saved_dict(family)
        del obj["n_features"]
        p = tmp_path / "old.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match="stores no n_features"):
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


@st.composite
def presort_tables(draw):
    """``(x, rows)``: a table of one to a few hundred rows and one to four
    columns, drawn tie-heavy (small integers, +-0.0), with NaN and
    infinities, or spread; and an ascending subset of its rows."""
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 4))
    elements = draw(st.sampled_from([
        st.integers(-3, 3).map(float),
        st.sampled_from([0.0, -0.0, 1.0]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-1e3, 1e3),
    ]))
    x = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    return x, np.flatnonzero(draw(hnp.arrays(np.bool_, n)))


@st.composite
def rare_tie_tables(draw):
    """``(x, rows)``: 512-3000 spread rows and one to three columns in which
    a few cells repeat another cell or hold +-0.0, NaN or an infinity, so
    that the presort's ~128-row sample often misses the tie; and an
    ascending subset of its rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((draw(st.integers(512, 3000)), draw(st.integers(1, 3))))
    k = draw(st.integers(1, 8))
    x.flat[rng.integers(0, x.size, k)] = x.flat[rng.integers(0, x.size, k)]
    x.flat[rng.integers(0, x.size, k)] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf], k)
    return x, np.flatnonzero(rng.random(len(x)) < 0.5)


# 600 distinct values whose odd rows, outside the presort's sample of even
# rows, hold a three-way tie, NaNs and +-0.0
_OFF_SAMPLE_TIES = np.arange(600.0, 0.0, -1.0)[:, None]
_OFF_SAMPLE_TIES[[1, 3, 5, 7, 9, 11], 0] = [7.0, 7.0, np.nan, np.nan, -0.0, 0.0]


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


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 40, 128, 129, 300])
def test_row_sum_adds_like_numpy_sum_of_a_row(width):
    rng = np.random.default_rng(width)
    a = rng.normal(size=(3, 50, width)) * 10.0 ** rng.integers(-8, 8, size=(3, 50, width))
    a[0, 0] = rng.choice([0.0, -0.0, np.nan], size=width)
    a[0, 0, 0] = 0.0  # not a row of only -0.0: numpy sums that to +0.0, _row_sum to -0.0
    a[0, 1] = rng.choice([0.0, -0.0], size=width)
    a[0, 1, -1] = np.nan
    expected = a.sum(axis=-1)
    summed = trees._row_sum(np.moveaxis(a, -1, 0))
    assert summed.tobytes() == expected.tobytes()
    assert not np.shares_memory(summed, a)
    assert trees._row_sum(a[0, 2]) == expected[0, 2]
    assert np.signbit(trees._row_sum(np.full((width, 2), -0.0))).all()


class TestPresortMemo:
    """A read-only table that owns its data is presorted once, and its lists
    (``trees._kept_lists``) are kept exactly as long as the table lives;
    anything that could change in place is never kept.  The spy records ids,
    not tables: holding a table would keep its lists alive."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        presort = trees._presort

        def counted(x):
            seen.append(id(x))
            return presort(x)

        monkeypatch.setattr(trees, "_presort", counted)
        return seen

    @pytest.fixture
    def kept_before(self):
        gc.collect()  # free what earlier tests left in reference cycles, so the rest stays alive
        return set(trees._kept_lists)

    @staticmethod
    def table(seed, writeable):
        rng = np.random.default_rng(seed)
        x = rng.choice([0.0, 1.0, 2.5, 3.0], size=(60, 3))
        x.setflags(write=writeable)
        y = np.arange(60) % 3
        return x, y

    def test_read_only_table_is_presorted_once_and_kept_read_only(self, calls, kept_before):
        x, y = self.table(0, writeable=False)
        fits = [dt_fit(x, y, np.ones(3), TreeParams(max_depth=3)),
                gbt_fit(x, y, np.ones(3), GbtParams(n_estimators=2, max_depth=2)),
                dt_fit(x, y, np.ones(3), TreeParams(max_depth=3))]
        assert calls == [id(x)] and set(trees._kept_lists) - kept_before == {id(x)}
        order, values = trees._kept_lists[id(x)]
        assert not order.flags.writeable and not values.flags.writeable
        np.testing.assert_array_equal(order, np.argsort(x, axis=0, kind="stable").T)
        assert values.tobytes() == np.take_along_axis(x, order.T, axis=0).T.tobytes()
        copy = x.copy()  # writable, so sorted afresh by each fit
        fresh = [dt_fit(copy, y, np.ones(3), TreeParams(max_depth=3)),
                 gbt_fit(copy, y, np.ones(3), GbtParams(n_estimators=2, max_depth=2))]
        assert len(calls) == 3
        for a, b in zip(fits, fresh + fresh[:1]):
            assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_lists_are_dropped_when_the_table_is_freed(self, calls, kept_before):
        x, y = self.table(4, writeable=False)
        dt_fit(x, y, np.ones(3), TreeParams(max_depth=3))
        assert set(trees._kept_lists) - kept_before == {id(x)}
        alive = weakref.ref(x)
        del x
        assert alive() is None and set(trees._kept_lists) <= kept_before

    def test_writable_table_is_presorted_fresh_after_each_change(self, calls, kept_before):
        x, y = self.table(1, writeable=True)
        for step in range(3):
            model = dt_fit(x, y, np.ones(3), TreeParams(max_depth=4))
            assert len(calls) == 2 * step + 1 and set(trees._kept_lists) <= kept_before
            fresh = dt_fit(x.copy(), y, np.ones(3), TreeParams(max_depth=4))
            assert json.dumps(model.to_dict()) == json.dumps(fresh.to_dict())
            x[:, step] = x[::-1, step]  # in place: the next fit must see the new order

    def test_read_only_view_of_a_writable_table_is_not_kept(self, calls, kept_before):
        base, y = self.table(2, writeable=True)
        view = base.view()
        view.setflags(write=False)
        first = dt_fit(view, y, np.ones(3), TreeParams(max_depth=4))
        base[:, 0] = base[::-1, 0]
        second = dt_fit(view, y, np.ones(3), TreeParams(max_depth=4))
        assert len(calls) == 2 and set(trees._kept_lists) <= kept_before
        assert json.dumps(first.to_dict()) != json.dumps(second.to_dict())

    def test_forest_bootstraps_do_not_evict_the_table(self, calls, kept_before):
        x, y = self.table(3, writeable=False)
        dt_fit(x, y, np.ones(3))
        rf_fit(x, y, np.ones(3), ForestParams(n_estimators=3, max_depth=3), seed=1)
        gbt_fit(x, y, np.ones(3), GbtParams(n_estimators=1))
        assert [c == id(x) for c in calls] == [True, False, False, False]
        assert set(trees._kept_lists) - kept_before == {id(x)}


class TestNodeLists:
    """Each node that may split carries its rows per feature with their values
    in the same sorted order; a child that cannot split carries neither."""

    @FAST
    @given(presort_tables(), st.integers(2, 12))
    @pytest.mark.filterwarnings("ignore:boosting round:RuntimeWarning")  # a one-class table has no gradient
    def test_sorted_values_are_the_rows_values_bitwise(self, table, min_split):
        x, _ = table
        n, d = x.shape
        y = np.arange(n) % 3
        w = np.linspace(0.5, 2.0, int(y.max()) + 1)
        calls = []
        best_split = trees._best_split

        def spy(ordered, xs, *args):
            calls.append(ordered.shape[1])
            assert (np.sort(ordered, axis=1) == np.sort(ordered[0])).all()  # one set of rows per node
            for f in range(d):
                assert xs[f].tobytes() == x[ordered[f], f].tobytes()
            return best_split(ordered, xs, *args)

        with mock.patch.object(trees, "_best_split", spy):
            dt_fit(x, y, w, TreeParams(max_depth=4, min_samples_split=min_split))
            rf_fit(x, y, w, ForestParams(n_estimators=2, max_depth=3, max_features=0.5, bootstrap=False,
                                         min_samples_split=min_split), seed=1)
            gbt_fit(x, y, w, GbtParams(n_estimators=2, max_depth=3, colsample=0.7), seed=1)
            assert calls or n < 2
            calls.clear()
            gbt_fit(x, y, w, GbtParams(n_estimators=2, max_depth=3, subsample=0.6, colsample=0.7), seed=1)
        assert n < 2 or max(calls) == max(2, round(0.6 * n))  # a root holds only its round's rows

    @FAST
    @given(tied_tables(max_rows=80), st.integers(1, 4), st.integers(2, 20))
    def test_children_that_cannot_split_get_no_row_lists(self, table, max_depth, min_split):
        x, y, k = table
        sizes = []
        partition = trees._partition

        def spy(keep, ordered, xs):
            lists = partition(keep, ordered, xs)
            sizes.append(lists[0].shape[1])
            return lists

        with mock.patch.object(trees, "_partition", spy):
            model = dt_fit(x, y, np.ones(k), TreeParams(max_depth=max_depth, min_samples_split=min_split))
        tree = model.root
        size = np.bincount(tree.apply(x), minlength=len(tree.feature))
        depth = np.zeros(len(tree.feature), dtype=np.intp)
        inner = np.flatnonzero(tree.feature >= 0)
        for node in inner:  # pre-order: a parent precedes its children
            depth[[tree.children_left[node], tree.children_right[node]]] = depth[node] + 1
        for node in inner[::-1]:
            size[node] = size[tree.children_left[node]] + size[tree.children_right[node]]
        children = np.concatenate([tree.children_left[inner], tree.children_right[inner]])
        can_split = children[(depth[children] < max_depth) & (size[children] >= min_split)]
        assert sorted(sizes) == sorted(size[can_split].tolist())


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

    @staticmethod
    def assert_round_lists_are_a_fresh_sort(x, rows):
        """A boosting round's lists, cut from the table's, are bitwise the
        presort of ``x[rows]`` in the table's row ids, with its values."""
        in_round = np.zeros(len(x), dtype=bool)
        in_round[rows] = True
        ordered, xs = trees._table_lists(x)
        ordered, xs = trees._partition(in_round[ordered].ravel(), ordered, xs)
        expected = rows[trees._presort(x[rows])[0]]
        assert ordered.shape == expected.shape and ordered.tobytes() == expected.tobytes()
        assert xs.tobytes() == np.take_along_axis(x, expected.T, axis=0).T.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(tied_tables(), st.data())
    def test_row_subset_presort_matches_a_fresh_sort(self, table, data):
        x, _, _ = table
        rows = np.flatnonzero(data.draw(hnp.arrays(np.bool_, x.shape[0])))
        self.assert_round_lists_are_a_fresh_sort(x, rows)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(presort_tables(), rare_tie_tables()))
    @example((np.array([[np.nan, -0.0, 0.0, 1.0]]), np.array([0])))
    @example((np.array([[0.0], [-0.0], [np.nan], [0.0], [np.nan], [-1.0]]), np.array([1, 2, 3])))
    @example((_OFF_SAMPLE_TIES, np.arange(0, 600, 3)))
    def test_presort_is_the_stable_argsort(self, table):
        x, rows = table
        expected = np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T)
        ordered, xs = trees._presort(x)
        assert ordered.tobytes() == expected.tobytes()
        assert xs.tobytes() == np.array([x[ordered[f], f] for f in range(x.shape[1])]).tobytes()
        self.assert_round_lists_are_a_fresh_sort(x, rows)

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
