"""Rank-based comparison of treatments over blocked results.

Pipeline: a blocks-by-treatments value matrix is midranked within blocks,
a tie-corrected Friedman test checks the global hypothesis, paired Wilcoxon
signed-rank tests (exact for small n, tie-corrected normal approximation
otherwise) compare every pair, Holm's step-down controls the family-wise
error, and maximal cliques of not-significantly-different treatments feed a
critical-difference-style diagram (SVG plus plain text).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BlockMatrix",
    "PairwiseResult",
    "RankAnalysis",
    "friedman",
    "wilcoxon_signed_rank",
    "holm_adjust",
    "rank_analysis",
    "render_cd",
    "render_cd_text",
]

_EXACT_LIMIT = 12  # at most 2^12 sign patterns are enumerated exactly


@dataclass(frozen=True)
class BlockMatrix:
    """values[i, j] = performance of treatment j on block i."""

    values: np.ndarray
    treatments: tuple
    blocks: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        if v.shape != (len(self.blocks), len(self.treatments)):
            raise ValueError("values shape must be (n_blocks, n_treatments)")
        if v.shape[0] < 2 or v.shape[1] < 2:
            raise ValueError("need at least 2 blocks and 2 treatments")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if len(set(self.treatments)) != len(self.treatments):
            raise ValueError("duplicate treatment names")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "treatments", tuple(self.treatments))
        object.__setattr__(self, "blocks", tuple(self.blocks))


@dataclass(frozen=True)
class PairwiseResult:
    treatment_a: str
    treatment_b: str
    statistic: float
    p_raw: float
    p_adjusted: float
    degenerate: bool = False


@dataclass(frozen=True)
class RankAnalysis:
    treatments: tuple
    avg_ranks: np.ndarray
    friedman_statistic: float
    friedman_df: int
    friedman_p: float
    pairwise: tuple
    cliques: tuple          # tuples of treatment names, each maximal
    alpha: float
    direction: str


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ascending ranks from 1 within each row of a 2-d array; tied values
    share the mean of their ranks."""
    n, k = values.shape
    order = np.argsort(values, axis=1)
    ordered = np.take_along_axis(values, order, axis=1)
    pos = np.broadcast_to(np.arange(k), (n, k))
    starts = np.ones((n, k), dtype=bool)   # each position that opens a run of equal values
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ends = np.ones((n, k), dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, pos, k - 1)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty((n, k))
    np.put_along_axis(ranks, order, 0.5 * (first + last + 2), axis=1)
    return ranks


def _rank_matrix(values: np.ndarray, direction: str) -> np.ndarray:
    """Within-block midranks; rank 1 is the best treatment."""
    if direction not in ("maximize", "minimize"):
        raise ValueError("direction must be 'maximize' or 'minimize'")
    return _midranks(values if direction == "minimize" else -values)


def friedman(matrix: BlockMatrix, direction: str = "maximize") -> tuple:
    """Tie-corrected Friedman test.  Returns (statistic, df, p_value).

    The statistic is invariant to the rank direction; an all-tied matrix
    yields (0, df, 1) by convention.
    """
    ranks = _rank_matrix(matrix.values, direction)
    n, k = ranks.shape
    rank_sums = ranks.sum(axis=0)
    raw = 12.0 / (n * k * (k + 1)) * np.sum(rank_sums**2) - 3.0 * n * (k + 1)
    ties = 0.0
    for row in matrix.values:
        _, counts = np.unique(row, return_counts=True)
        ties += float(np.sum(counts**3 - counts))
    correction = 1.0 - ties / (n * k * (k * k - 1))
    df = k - 1
    if raw <= 1e-12 or correction <= 0.0:
        return 0.0, df, 1.0
    statistic = raw / correction
    from scipy.special import chdtrc  # deferred: scipy loads on the first p-value, not on import

    return float(statistic), df, float(chdtrc(df, statistic))


def wilcoxon_signed_rank(a, b) -> tuple:
    """Two-sided paired Wilcoxon signed-rank test.  Returns (W, p_value).

    Zero differences are dropped; ties get midranks; W is the smaller of
    the positive and negative rank sums.  The null distribution is
    enumerated exactly for up to 12 non-zero differences, otherwise a
    tie-corrected normal approximation with continuity correction is used.
    All-zero differences are a degenerate pairing and raise ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be matching 1-d vectors")
    diff = a - b
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        raise ValueError("degenerate pairing: all differences are zero")
    ranks = _midranks(np.abs(diff)[None, :])[0]
    w_pos = float(ranks[diff > 0].sum())
    w_neg = float(ranks[diff < 0].sum())
    w = min(w_pos, w_neg)
    total = ranks.sum()

    if n <= _EXACT_LIMIT:
        # all 2^n sign assignments; under H0 each is equally likely
        masks = np.arange(2**n, dtype=np.uint64)
        bits = (masks[:, None] >> np.arange(n, dtype=np.uint64)) & 1
        w_plus = bits.astype(np.float64) @ ranks
        tol = 1e-9
        p = (np.sum(w_plus <= w + tol) + np.sum(w_plus >= total - w - tol)) / 2.0**n
        return w, float(min(1.0, p))

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(counts**3 - counts)) / 48.0
    z = (w - mean + 0.5) / np.sqrt(var)  # continuity correction toward the mean
    from scipy.special import ndtr  # deferred: scipy loads on the first p-value, not on import

    return w, float(min(1.0, 2.0 * ndtr(z)))


def holm_adjust(p_values) -> np.ndarray:
    """Holm step-down adjusted p-values (monotone, clipped at 1)."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p_values must be a non-empty 1-d vector")
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 0.0
    for rank, j in enumerate(order):
        running = max(running, (m - rank) * p[j])
        adjusted[j] = min(1.0, running)
    return adjusted


def _maximal_cliques(n: int, adjacency: np.ndarray) -> list:
    """Bron-Kerbosch with pivoting; nodes are 0..n-1."""
    cliques = []

    def expand(r: set, p: set, x: set) -> None:
        if not p and not x:
            cliques.append(sorted(r))
            return
        pivot = max(p | x, key=lambda u: len(p & neighbors[u]))
        for v in sorted(p - neighbors[pivot]):
            expand(r | {v}, p & neighbors[v], x & neighbors[v])
            p = p - {v}
            x = x | {v}

    neighbors = {u: {v for v in range(n) if adjacency[u, v] and u != v} for u in range(n)}
    expand(set(), set(range(n)), set())
    return cliques


def rank_analysis(matrix: BlockMatrix, alpha: float = 0.05, direction: str = "maximize") -> RankAnalysis:
    """Full pipeline: average ranks, Friedman, Holm-adjusted pairwise
    Wilcoxon tests, and maximal cliques of indistinguishable treatments.

    Degenerate pairs (identical columns) are treated as maximally
    non-significant (p = 1) rather than as errors.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    ranks = _rank_matrix(matrix.values, direction)
    avg_ranks = ranks.mean(axis=0)
    statistic, df, p_global = friedman(matrix, direction)

    k = len(matrix.treatments)
    pairs = list(itertools.combinations(range(k), 2))
    raw_p = np.empty(len(pairs))
    stats_w = np.empty(len(pairs))
    degenerate = np.zeros(len(pairs), dtype=bool)
    for i, (a, b) in enumerate(pairs):
        try:
            w, p = wilcoxon_signed_rank(matrix.values[:, a], matrix.values[:, b])
        except ValueError:
            w, p = 0.0, 1.0
            degenerate[i] = True
        stats_w[i] = w
        raw_p[i] = p
    adjusted = holm_adjust(raw_p)

    adjacency = np.eye(k, dtype=bool)
    for i, (a, b) in enumerate(pairs):
        if adjusted[i] >= alpha:
            adjacency[a, b] = adjacency[b, a] = True
    cliques = tuple(
        tuple(matrix.treatments[v] for v in clique)
        for clique in sorted(_maximal_cliques(k, adjacency))
    )

    pairwise = tuple(
        PairwiseResult(
            treatment_a=matrix.treatments[a],
            treatment_b=matrix.treatments[b],
            statistic=float(stats_w[i]),
            p_raw=float(raw_p[i]),
            p_adjusted=float(adjusted[i]),
            degenerate=bool(degenerate[i]),
        )
        for i, (a, b) in enumerate(pairs)
    )
    return RankAnalysis(
        treatments=matrix.treatments,
        avg_ranks=avg_ranks,
        friedman_statistic=statistic,
        friedman_df=df,
        friedman_p=p_global,
        pairwise=pairwise,
        cliques=cliques,
        alpha=alpha,
        direction=direction,
    )


def _cd_layout(analysis: RankAnalysis):
    k = len(analysis.treatments)
    order = np.argsort(analysis.avg_ranks, kind="stable")
    bars = [c for c in analysis.cliques if len(c) >= 2]
    name_to_rank = dict(zip(analysis.treatments, analysis.avg_ranks))
    spans = []
    for clique in bars:
        rs = [name_to_rank[t] for t in clique]
        spans.append((min(rs), max(rs), clique))
    spans.sort()
    # assign non-overlapping vertical levels to the clique bars
    levels = []
    level_ends: list = []
    for lo, hi, clique in spans:
        placed = False
        for lvl, end in enumerate(level_ends):
            if lo > end + 1e-9:
                level_ends[lvl] = hi
                levels.append(lvl)
                placed = True
                break
        if not placed:
            level_ends.append(hi)
            levels.append(len(level_ends) - 1)
    return k, order, spans, levels, len(level_ends)


def _escape(text: str) -> str:
    """``text`` with ``&``, ``>`` and ``<`` as XML entities, replaced in the order
    ``xml.sax.saxutils.escape`` uses (that module imports urllib, http and ssl)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def render_cd(analysis: RankAnalysis, path=None) -> str:
    """Critical-difference-style diagram as a self-contained SVG string.

    The axis spans ranks 1..k (best on the left); each treatment hangs off
    its average rank, and one horizontal bar is drawn per clique of two or
    more treatments.  When ``path`` is given the SVG is also written there.
    """
    k, order, spans, levels, n_levels = _cd_layout(analysis)
    width = 820
    margin = 60
    axis_y = 50
    scale = (width - 2 * margin) / max(k - 1, 1)

    def x_of(rank: float) -> float:
        return margin + (rank - 1.0) * scale

    bar_top = axis_y + 14
    label_top = bar_top + 12 * n_levels + 16
    n_left = (k + 1) // 2
    label_rows = max(n_left, k - n_left)
    height = label_top + 18 * label_rows + 30

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d" font-family="sans-serif" font-size="12">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="black" stroke-width="1.5"/>'
        % (x_of(1), axis_y, x_of(k), axis_y),
    ]
    for tick in range(1, k + 1):
        x = x_of(tick)
        parts.append(
            '<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="black"/>' % (x, axis_y - 5, x, axis_y)
        )
        parts.append(
            '<text x="%.2f" y="%d" text-anchor="middle">%d</text>' % (x, axis_y - 10, tick)
        )
    parts.append(
        '<text x="%.2f" y="%d" text-anchor="middle" font-style="italic">average rank</text>'
        % (x_of((1 + k) / 2.0), axis_y - 28)
    )

    for (lo, hi, _), lvl in zip(spans, levels):
        y = bar_top + 12 * lvl
        parts.append(
            '<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="black" stroke-width="4" '
            'stroke-linecap="round"/>' % (x_of(lo) - 3, y, x_of(hi) + 3, y)
        )

    for pos, j in enumerate(order):
        rank = analysis.avg_ranks[j]
        name = analysis.treatments[j]
        x = x_of(rank)
        left_side = pos < n_left
        row = pos if left_side else pos - n_left
        y_label = label_top + 18 * row
        x_label = margin - 10 if left_side else width - margin + 10
        anchor = "end" if left_side else "start"
        parts.append(
            '<polyline fill="none" stroke="black" points="%.2f,%d %.2f,%d %.2f,%d"/>'
            % (x, axis_y, x, y_label - 4, x_label, y_label - 4)
        )
        parts.append(
            '<text x="%.2f" y="%d" text-anchor="%s">%s (%.2f)</text>'
            % (x_label, y_label, anchor, _escape(name), rank)
        )

    parts.append("</svg>")
    svg = "\n".join(parts)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return svg


def render_cd_text(analysis: RankAnalysis) -> str:
    """Plain-text companion to ``render_cd``: ranked listing plus cliques."""
    order = np.argsort(analysis.avg_ranks, kind="stable")
    lines = ["average ranks (1 = best, direction = %s):" % analysis.direction]
    for j in order:
        lines.append("  %6.3f  %s" % (analysis.avg_ranks[j], analysis.treatments[j]))
    lines.append(
        "friedman: statistic=%.4f df=%d p=%.4g alpha=%g"
        % (analysis.friedman_statistic, analysis.friedman_df, analysis.friedman_p, analysis.alpha)
    )
    bars = [c for c in analysis.cliques if len(c) >= 2]
    if bars:
        lines.append("cliques (not significantly different):")
        for clique in bars:
            lines.append("  {%s}" % ", ".join(clique))
    else:
        lines.append("cliques: none with two or more treatments")
    return "\n".join(lines)
