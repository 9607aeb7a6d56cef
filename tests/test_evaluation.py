"""Confusion matrices and F1 aggregation, cross-checked against naive loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbench import accuracy, confusion_matrix, f1_scores


def naive_f1(y_true, y_pred, n_classes):
    """Straightforward per-class F1 from set counts (independent oracle)."""
    out = []
    for k in range(n_classes):
        tp = np.sum((y_true == k) & (y_pred == k))
        fp = np.sum((y_true != k) & (y_pred == k))
        fn = np.sum((y_true == k) & (y_pred != k))
        denom = 2 * tp + fp + fn
        out.append(2 * tp / denom if denom > 0 else 0.0)
    return np.array(out)


class TestConfusionMatrix:
    def test_worked_example(self):
        cm = confusion_matrix([0, 0, 0, 1], [0, 0, 1, 1])
        np.testing.assert_array_equal(cm, [[2, 1], [0, 1]])

    def test_rows_are_true_labels(self):
        cm = confusion_matrix([2, 2, 2], [0, 0, 1], n_classes=3)
        np.testing.assert_array_equal(cm.sum(axis=1), [0, 0, 3])

    def test_total_equals_sample_count(self, rng):
        y_true = rng.integers(0, 5, size=200)
        y_pred = rng.integers(0, 5, size=200)
        assert confusion_matrix(y_true, y_pred).sum() == 200

    def test_explicit_n_classes_pads(self):
        cm = confusion_matrix([0, 1], [1, 0], n_classes=4)
        assert cm.shape == (4, 4)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1], n_classes=3)
        with pytest.raises(ValueError):
            confusion_matrix([0, -1], [0, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1, 1], [0, 1])


class TestAccuracy:
    def test_worked_example(self):
        cm = confusion_matrix([0, 0, 0, 1], [0, 0, 1, 1])
        assert accuracy(cm) == 0.75

    def test_perfect_and_worst_case(self):
        assert accuracy(np.eye(3, dtype=int) * 5) == 1.0
        assert accuracy(np.array([[0, 5], [5, 0]])) == 0.0

    def test_matches_elementwise_mean(self, rng):
        y_true = rng.integers(0, 4, size=300)
        y_pred = rng.integers(0, 4, size=300)
        cm = confusion_matrix(y_true, y_pred)
        np.testing.assert_allclose(accuracy(cm), np.mean(y_true == y_pred), rtol=1e-12)


class TestF1Scores:
    def test_worked_example(self):
        s = f1_scores(confusion_matrix([0, 0, 0, 1], [0, 0, 1, 1]))
        np.testing.assert_allclose(s.per_class, [0.8, 0.6667], atol=1e-4)
        np.testing.assert_allclose(s.macro, 0.7333, atol=1e-4)
        np.testing.assert_allclose(s.weighted, 0.7667, atol=1e-4)

    def test_matches_naive_oracle(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 7))
            y_true = rng.integers(0, k, size=150)
            y_pred = rng.integers(0, k, size=150)
            cm = confusion_matrix(y_true, y_pred, n_classes=k)
            s = f1_scores(cm)
            expected = naive_f1(y_true, y_pred, k)
            np.testing.assert_allclose(s.per_class, expected, rtol=1e-12)
            np.testing.assert_allclose(s.macro, expected.mean(), rtol=1e-12)
            support = np.bincount(y_true, minlength=k)
            np.testing.assert_allclose(
                s.weighted, np.sum(expected * support) / support.sum(), rtol=1e-12
            )

    def test_absent_class_scores_zero(self):
        # class 2 never true and never predicted
        cm = confusion_matrix([0, 1], [0, 1], n_classes=3)
        s = f1_scores(cm)
        assert s.per_class[2] == 0.0
        assert np.isfinite(s.macro)

    def test_never_predicted_class_scores_zero(self):
        s = f1_scores(confusion_matrix([0, 1, 1], [0, 0, 0]))
        assert s.per_class[1] == 0.0

    def test_perfect_predictions(self):
        s = f1_scores(np.diag([3, 7, 1]))
        np.testing.assert_array_equal(s.per_class, [1.0, 1.0, 1.0])
        assert s.macro == 1.0 and s.weighted == 1.0

    def test_f1_bounded(self, rng):
        for _ in range(20):
            y_true = rng.integers(0, 3, size=60)
            y_pred = rng.integers(0, 3, size=60)
            s = f1_scores(confusion_matrix(y_true, y_pred, n_classes=3))
            assert np.all(s.per_class >= 0) and np.all(s.per_class <= 1)
            assert 0.0 <= s.macro <= 1.0 and 0.0 <= s.weighted <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                                                 min_size=1, max_size=60))))
    def test_every_f1_lies_in_unit_interval(self, case):
        n_classes, pairs = case
        y_true, y_pred = (np.array(col) for col in zip(*pairs))
        s = f1_scores(confusion_matrix(y_true, y_pred, n_classes=n_classes))
        assert s.per_class.shape == (n_classes,)
        assert np.all((s.per_class >= 0.0) & (s.per_class <= 1.0))
        assert 0.0 <= s.macro <= 1.0 and 0.0 <= s.weighted <= 1.0

    def test_macro_vs_weighted_under_skew(self):
        """A model that only gets the majority right fares much better on the
        support-weighted aggregate than on the macro one."""
        y_true = np.array([0] * 95 + [1] * 5)
        y_pred = np.zeros(100, dtype=int)
        s = f1_scores(confusion_matrix(y_true, y_pred))
        assert s.weighted > s.macro

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            f1_scores(np.ones((2, 3)))
