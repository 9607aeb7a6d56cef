"""Friedman / Wilcoxon / Holm pipeline and the critical-difference diagram."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats
from scipy.special import chdtrc

import imbench
from imbench import (
    BlockMatrix,
    friedman,
    holm_adjust,
    rank_analysis,
    render_cd,
    render_cd_text,
    wilcoxon_signed_rank,
)
from imbench.ranking import _escape, _midranks


def matrix_of(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    n, k = values.shape
    names = names or tuple("T%d" % j for j in range(k))
    return BlockMatrix(values=values, treatments=tuple(names), blocks=tuple("b%d" % i for i in range(n)))


def wilcoxon_exact_oracle(a, b):
    """Brute-force enumeration of every sign pattern (independent of the
    implementation's vectorized path)."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    diff = diff[diff != 0]
    n = diff.size
    ranks = stats.rankdata(np.abs(diff))
    w = min(ranks[diff > 0].sum(), ranks[diff < 0].sum())
    total = ranks.sum()
    hits = 0
    for mask in range(2**n):
        w_plus = sum(ranks[i] for i in range(n) if (mask >> i) & 1)
        if w_plus <= w + 1e-9 or w_plus >= total - w - 1e-9:
            hits += 1
    return w, hits / 2.0**n


class TestFriedman:
    def test_all_tied_matrix(self):
        m = matrix_of(np.ones((6, 4)))
        statistic, df, p = friedman(m)
        assert statistic == 0.0 and df == 3 and p == 1.0

    def test_planted_consistent_ordering(self):
        # four blocks that each rank the three treatments identically
        rows = [[30.0, 20.0, 10.0], [3.0, 2.0, 1.0], [300.0, 200.0, 100.0], [0.3, 0.2, 0.1]]
        statistic, df, p = friedman(matrix_of(rows))
        assert statistic == 8.0 and df == 2
        np.testing.assert_allclose(p, np.exp(-4.0), rtol=1e-12)

    def test_degrees_of_freedom(self, rng):
        m = matrix_of(rng.normal(size=(5, 20)))
        assert friedman(m)[1] == 19

    def test_matches_scipy_on_untied_data(self, rng):
        values = rng.normal(size=(12, 5))
        statistic, _, p = friedman(matrix_of(values))
        ref = stats.friedmanchisquare(*[values[:, j] for j in range(5)])
        np.testing.assert_allclose(statistic, ref.statistic, rtol=1e-12)
        np.testing.assert_allclose(p, ref.pvalue, rtol=1e-12)

    def test_invariant_to_monotone_transforms(self, rng):
        values = rng.normal(size=(9, 4))
        base = friedman(matrix_of(values))
        transformed = friedman(matrix_of(np.exp(values)))
        np.testing.assert_allclose(base[0], transformed[0], rtol=1e-12)
        np.testing.assert_allclose(base[2], transformed[2], rtol=1e-12)

    def test_invariant_to_direction(self, rng):
        values = rng.normal(size=(8, 5))
        up = friedman(matrix_of(values), direction="maximize")
        down = friedman(matrix_of(values), direction="minimize")
        np.testing.assert_allclose(up[0], down[0], rtol=1e-12)

    def test_tie_correction_raises_statistic(self):
        # within-block ties shrink the denominator relative to the raw form
        tied = [[2.0, 1.0, 1.0], [4.0, 3.0, 3.0], [6.0, 5.0, 5.0], [8.0, 7.0, 7.0]]
        untied = [[3.0, 2.0, 1.0], [6.0, 5.0, 4.0], [9.0, 8.0, 7.0], [12.0, 11.0, 10.0]]
        assert friedman(matrix_of(tied))[0] > 0.0
        assert friedman(matrix_of(untied))[0] == 8.0

    def test_bad_direction_rejected(self, rng):
        with pytest.raises(ValueError, match="direction"):
            friedman(matrix_of(rng.normal(size=(4, 3))), direction="up")


class TestWilcoxon:
    def test_five_positive_differences(self):
        w, p = wilcoxon_signed_rank(np.arange(1.0, 6.0) + 1.0, np.arange(1.0, 6.0))
        assert w == 0.0
        assert p == 0.0625

    def test_swapping_arguments_preserves_p(self, rng):
        a, b = rng.normal(size=10), rng.normal(size=10)
        wa, pa = wilcoxon_signed_rank(a, b)
        wb, pb = wilcoxon_signed_rank(b, a)
        assert wa == wb and pa == pb

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(15):
            a, b = rng.normal(size=8), rng.normal(size=8)
            w, p = wilcoxon_signed_rank(a, b)
            w_ref, p_ref = wilcoxon_exact_oracle(a, b)
            assert w == w_ref
            np.testing.assert_allclose(p, p_ref, atol=1e-12)

    def test_matches_scipy_exact(self, rng):
        for _ in range(25):
            a, b = rng.normal(size=9), rng.normal(size=9)
            _, p = wilcoxon_signed_rank(a, b)
            ref = stats.wilcoxon(a, b, alternative="two-sided", method="exact")
            np.testing.assert_allclose(p, ref.pvalue, atol=1e-12)

    def test_normal_approximation_close_to_exact(self, rng):
        """Above the exact-enumeration limit the tie-corrected normal
        approximation stays within a few percent of the truth."""
        for _ in range(20):
            a, b = rng.normal(size=14), rng.normal(size=14)
            _, p_approx = wilcoxon_signed_rank(a, b)
            _, p_exact = wilcoxon_exact_oracle(a, b)
            assert abs(p_approx - p_exact) < 0.03

    def test_zero_differences_are_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 5.0, 5.0])
        b = np.array([1.0, 2.0, 3.0, 1.0, 9.0])
        w, p = wilcoxon_signed_rank(a, b)
        # two surviving differences of equal magnitude and opposite sign
        assert w == 1.5 and p == 1.0

    def test_all_zero_differences_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            wilcoxon_signed_rank(np.ones(6), np.ones(6))

    def test_p_in_unit_interval(self, rng):
        for n in (5, 9, 13, 40):
            a, b = rng.normal(size=n), rng.normal(size=n)
            _, p = wilcoxon_signed_rank(a, b)
            assert 0.0 < p <= 1.0


class TestHolm:
    def test_worked_example(self):
        np.testing.assert_allclose(
            holm_adjust([0.01, 0.04, 0.03]), [0.03, 0.06, 0.06], rtol=1e-12
        )

    def test_single_value_unchanged(self):
        np.testing.assert_array_equal(holm_adjust([0.2]), [0.2])

    def test_all_ones_stay_ones(self):
        np.testing.assert_array_equal(holm_adjust([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0])

    def test_never_below_input_and_capped(self, rng):
        for _ in range(20):
            p = rng.uniform(size=rng.integers(1, 12))
            adj = holm_adjust(p)
            assert np.all(adj >= p - 1e-15)
            assert np.all(adj <= 1.0)

    def test_preserves_input_ordering(self, rng):
        p = rng.uniform(size=8)
        adj = holm_adjust(p)
        order = np.argsort(p)
        assert np.all(np.diff(adj[order]) >= -1e-15)

    def test_matches_manual_step_down(self, rng):
        for _ in range(10):
            p = rng.uniform(size=6)
            m = p.size
            order = np.argsort(p)
            expected = np.empty(m)
            running = 0.0
            for i, j in enumerate(order):
                running = max(running, (m - i) * p[j])
                expected[j] = min(1.0, running)
            np.testing.assert_allclose(holm_adjust(p), expected, rtol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            holm_adjust([0.5, 1.2])
        with pytest.raises(ValueError):
            holm_adjust([])


class TestRankAnalysis:
    def shifted_matrix(self, seed=1):
        rng = np.random.default_rng(seed)
        noise = rng.normal(size=(30, 2)) * 0.1
        shifted = rng.normal(size=(30, 1)) * 0.1 + 10.0
        return matrix_of(np.hstack([noise, shifted]), names=("A", "B", "C"))

    def test_identical_columns_form_one_clique(self, rng):
        col = rng.normal(size=(8, 1))
        analysis = rank_analysis(matrix_of(np.tile(col, (1, 3))))
        assert analysis.cliques == (("T0", "T1", "T2"),)
        np.testing.assert_allclose(analysis.avg_ranks, 2.0)
        assert analysis.friedman_p == 1.0
        assert all(pr.degenerate and pr.p_adjusted == 1.0 for pr in analysis.pairwise)

    def test_dominant_treatment_gets_rank_one(self, rng):
        base = rng.normal(size=(12, 3))
        base[:, 2] = base[:, :2].max(axis=1) + 5.0
        analysis = rank_analysis(matrix_of(base))
        assert analysis.avg_ranks[2] == 1.0

    def test_shifted_column_separates_from_the_noise_pair(self):
        analysis = rank_analysis(self.shifted_matrix(), alpha=0.05)
        assert analysis.cliques == (("A", "B"), ("C",))
        sig = {
            frozenset((pr.treatment_a, pr.treatment_b)): pr.p_adjusted
            for pr in analysis.pairwise
        }
        assert sig[frozenset(("A", "B"))] >= 0.05
        assert sig[frozenset(("A", "C"))] < 0.05
        assert sig[frozenset(("B", "C"))] < 0.05

    def test_direction_minimize_flips_ranks(self, rng):
        values = rng.normal(size=(10, 3))
        up = rank_analysis(matrix_of(values), direction="maximize")
        down = rank_analysis(matrix_of(values), direction="minimize")
        np.testing.assert_allclose(up.avg_ranks + down.avg_ranks, 4.0, rtol=1e-12)

    def test_cliques_are_maximal_and_cover_all_treatments(self, rng):
        analysis = rank_analysis(matrix_of(rng.normal(size=(6, 5))))
        members = {t for clique in analysis.cliques for t in clique}
        assert members == set(analysis.treatments)
        for clique in analysis.cliques:
            for other in analysis.cliques:
                if clique is not other:
                    assert not set(clique) <= set(other)

    def test_alpha_validated(self, rng):
        with pytest.raises(ValueError, match="alpha"):
            rank_analysis(matrix_of(rng.normal(size=(4, 3))), alpha=1.5)


class TestRendering:
    def analysis(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(size=(30, 2)) * 0.1
        shifted = rng.normal(size=(30, 1)) * 0.1 + 10.0
        return rank_analysis(matrix_of(np.hstack([noise, shifted]), names=("A", "B", "C")))

    def test_svg_is_well_formed_xml(self):
        svg = render_cd(self.analysis())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_one_bar_per_multi_member_clique(self):
        svg = render_cd(self.analysis())
        assert svg.count('stroke-width="4"') == 1

    def test_labels_include_names_and_ranks(self):
        svg = render_cd(self.analysis())
        for name in ("A", "B", "C"):
            assert "%s (" % name in svg
        assert "(1.00)" in svg  # the dominant treatment sits at rank 1

    def test_path_writes_the_same_string(self, tmp_path):
        p = tmp_path / "cd.svg"
        svg = render_cd(self.analysis(), path=p)
        assert p.read_text(encoding="utf-8") == svg

    def test_escapes_xml_special_characters(self, rng):
        values = rng.normal(size=(6, 2))
        analysis = rank_analysis(matrix_of(values, names=("a<b", "c&d")))
        root = ET.fromstring(render_cd(analysis))
        assert root is not None

    def test_text_rendering_lists_ranks_and_cliques(self):
        text = render_cd_text(self.analysis())
        assert "average ranks" in text
        assert "friedman:" in text
        assert "{A, B}" in text

    def test_text_rendering_without_cliques(self, rng):
        analysis = self.analysis()
        # strip multi-member cliques by rebuilding with singleton cliques only
        from dataclasses import replace

        solo = replace(analysis, cliques=(("A",), ("B",), ("C",)))
        assert "none with two or more" in render_cd_text(solo)


class TestScipyStatsOracle:
    """The numpy midranks and the chi-square tail match scipy.stats, which
    the package itself does not import."""

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                      elements=st.one_of(st.integers(-3, 3).map(float),
                                         st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))))
    def test_midranks_equal_rankdata(self, values):
        expected = np.array([stats.rankdata(row, method="average") for row in values]).reshape(values.shape)
        assert np.array_equal(_midranks(values), expected)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 200.0, allow_subnormal=False))
    def test_chi_square_tail_equals_chi2_sf(self, df, x):
        assert chdtrc(df, x) == stats.chi2.sf(x, df)

    def test_package_import_leaves_scipy_stats_out(self):
        """Nor scipy.special (loaded on the first p-value), nor xml.sax, which
        pulls in urllib.request, http.client and ssl."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(imbench.__file__)))
        modules = ("scipy.stats", "scipy.special", "xml.sax", "urllib.request")
        code = "import sys, imbench, imbench.cli; print([m in sys.modules for m in %r])" % (modules,)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == str([False] * len(modules))

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.sampled_from("&<>;amp lgt\"x\u00e9"), max_size=30))
    def test_svg_label_escape_equals_saxutils(self, text):
        assert _escape(text) == saxutils.escape(text)
