"""Class-weighting schemes: frozen values and algebraic identities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbench import (
    STRATEGIES,
    LabelDistribution,
    class_frequencies,
    compute_weights,
    weights_effective,
    weights_inverse,
    weights_median,
    weights_none,
)


def dist_of(counts):
    return class_frequencies(np.repeat(np.arange(len(counts)), counts))


class TestInverse:
    def test_balanced_is_unit(self):
        np.testing.assert_array_equal(weights_inverse(dist_of([50, 50])).weights, [1.0, 1.0])

    def test_90_10(self):
        np.testing.assert_allclose(
            weights_inverse(dist_of([90, 10])).weights, [0.5556, 5.0], atol=1e-4
        )

    def test_total_mass_identity(self, rng):
        """sum_k w_k * N_k == N for every counts vector."""
        for _ in range(25):
            counts = rng.integers(1, 400, size=rng.integers(2, 10))
            d = dist_of(counts)
            w = weights_inverse(d).weights
            np.testing.assert_allclose((w * d.counts).sum(), d.total, rtol=1e-9)

    def test_scale_invariance(self):
        a = weights_inverse(dist_of([30, 12, 6])).weights
        b = weights_inverse(dist_of([300, 120, 60])).weights
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestEffective:
    def test_beta_zero_is_unweighted(self):
        np.testing.assert_array_equal(
            weights_effective(dist_of([90, 10]), beta=0.0).weights, [1.0, 1.0]
        )

    def test_beta_below_rounding_is_unweighted_without_warning(self):
        # 1 - 1e-20 rounds to 1, where the log1p form would divide by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = weights_effective(dist_of([90, 10]), beta=1e-20).weights
        np.testing.assert_array_equal(w, [1.0, 1.0])

    def test_default_beta_9000_1000(self):
        np.testing.assert_allclose(
            weights_effective(dist_of([9000, 1000])).weights, [0.580, 3.618], atol=1e-3
        )

    def test_beta_near_one_recovers_inverse(self):
        d = dist_of([90, 10])
        eff = weights_effective(d, beta=1.0 - 1e-9).weights
        inv = weights_inverse(d).weights
        np.testing.assert_allclose(eff, inv, rtol=1e-3)

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError):
            weights_effective(dist_of([90, 10]), beta=1.0)

    def test_beta_out_of_range_rejected(self):
        for beta in (-0.1, 1.5):
            with pytest.raises(ValueError):
                weights_effective(dist_of([90, 10]), beta=beta)

    def test_not_scale_invariant(self):
        """Unlike the frequency-based schemes, effective-number weights see
        absolute counts: scaling the dataset changes the weights."""
        a = weights_effective(dist_of([900, 100])).weights
        b = weights_effective(dist_of([9000, 1000])).weights
        assert not np.allclose(a, b, rtol=1e-3)

    def test_rare_class_weighted_up(self, rng):
        for _ in range(10):
            counts = np.sort(rng.integers(1, 5000, size=4))[::-1]
            if counts[0] == counts[-1]:
                continue
            w = weights_effective(dist_of(counts)).weights
            assert w[-1] >= w[0]


class TestMedian:
    def test_balanced_is_unit(self):
        np.testing.assert_array_equal(weights_median(dist_of([20, 20, 20])).weights, [1.0, 1.0, 1.0])

    def test_odd_k_frozen(self):
        # frequencies [0.5, 0.3, 0.2] -> median 0.3 -> [0.6, 1.0, 1.5]
        np.testing.assert_allclose(
            weights_median(dist_of([50, 30, 20])).weights, [0.6, 1.0, 1.5], rtol=1e-12
        )

    def test_even_k_uses_middle_mean(self):
        # frequencies [0.7, 0.3] -> median 0.5 -> [0.7143, 1.6667]
        np.testing.assert_allclose(
            weights_median(dist_of([70, 30])).weights, [0.7143, 1.6667], atol=1e-4
        )

    def test_median_class_gets_unit_weight(self, rng):
        for _ in range(10):
            counts = rng.integers(1, 300, size=5)
            w = weights_median(dist_of(counts)).weights
            assert np.any(np.isclose(w, 1.0))


class TestComputeWeights:
    def test_none_is_all_ones(self):
        w = compute_weights(dist_of([75, 20, 5]), "none")
        np.testing.assert_array_equal(w.weights, [1.0, 1.0, 1.0])
        assert w.strategy == "none"

    def test_dispatch_matches_direct_calls(self):
        d = dist_of([500, 60, 12])
        np.testing.assert_array_equal(compute_weights(d, "inverse").weights, weights_inverse(d).weights)
        np.testing.assert_array_equal(compute_weights(d, "median").weights, weights_median(d).weights)
        np.testing.assert_array_equal(
            compute_weights(d, "effective", beta=0.99).weights,
            weights_effective(d, beta=0.99).weights,
        )

    @pytest.mark.parametrize("weights", [weights_inverse, weights_effective, weights_median])
    def test_zero_count_class_rejected(self, weights):
        with pytest.raises(ValueError, match="undefined for zero-count classes"):
            weights(LabelDistribution(np.array([5, 0])))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            compute_weights(dist_of([10, 10]), "oversample")

    def test_strategy_roster(self):
        assert STRATEGIES == ("none", "inverse", "effective", "median")


class TestSharedProperties:
    def test_all_weights_positive_finite(self, rng):
        for _ in range(20):
            counts = rng.integers(1, 2000, size=rng.integers(2, 9))
            d = dist_of(counts)
            for strategy in STRATEGIES:
                w = compute_weights(d, strategy).weights
                assert np.all(np.isfinite(w)) and np.all(w > 0)

    def test_balanced_input_gives_unit_weights(self):
        d = dist_of([128, 128, 128, 128])
        for strategy in STRATEGIES:
            np.testing.assert_allclose(compute_weights(d, strategy).weights, 1.0, rtol=1e-9)

    def test_rarest_class_never_downweighted_below_commonest(self, rng):
        for _ in range(20):
            counts = rng.integers(1, 1000, size=6)
            d = dist_of(counts)
            lo, hi = np.argmax(d.counts), np.argmin(d.counts)
            for strategy in ("inverse", "effective", "median"):
                w = compute_weights(d, strategy).weights
                assert w[hi] >= w[lo]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 5000), min_size=2, max_size=10), st.floats(0.0, 0.99999))
    def test_weights_positive_for_every_strategy(self, counts, beta):
        d = dist_of(counts)
        for strategy in STRATEGIES:
            w = compute_weights(d, strategy, beta=beta).weights
            assert w.shape == (len(counts),)
            assert np.all(np.isfinite(w)) and np.all(w > 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 10), st.integers(1, 5000), st.floats(0.0, 0.99999))
    def test_balanced_input_gives_unit_weights_for_every_strategy(self, n_classes, count, beta):
        d = dist_of([count] * n_classes)
        for strategy in STRATEGIES:
            # effective weights divide a K-term sum by K, so allow rounding
            np.testing.assert_allclose(compute_weights(d, strategy, beta=beta).weights, 1.0, rtol=1e-12)

    def test_vectors_are_write_protected(self):
        w = weights_none(dist_of([10, 10]))
        with pytest.raises(ValueError):
            w.weights[0] = 2.0
