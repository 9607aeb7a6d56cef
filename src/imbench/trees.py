"""Tree-based classifiers built from scratch with class-weight support.

Class weights enter as per-sample masses: impurity statistics, leaf
distributions, and boosting gradients all accumulate w_{y_i} instead of 1.
Split search is exact over midpoints of sorted unique feature values; equal
scores resolve to the lowest feature index, then the lowest threshold, so
training is fully deterministic given the seed.

All three families grow trees with one engine (``_grow``) from one presort
per training table (that of SLIQ and CART): splits partition the sorted row
lists stably.  A node that may split carries, per feature, its row ids and
their values in sorted order (SPRINT's attribute lists), and a split
partitions both with one ``np.compress`` over the flattened arrays; a child
that cannot split carries only its row ids.  A subsampled gbt round cuts its
lists from the table's the same way.  ``_table_lists`` keeps the lists of a
read-only table for as long as the table lives, so every fit on one sweep
slice's training table shares them.  One kernel scores a block of features
per pass for the Gini/entropy and the Newton criterion.  Trees are flat node
arrays, and a model checks that the data it predicts on has as many columns
as its fit's.
"""

from __future__ import annotations

import functools
import json
import math
import time
import warnings
import weakref
from dataclasses import asdict, dataclass

import numpy as np

from .data import _settings
from .losses import _weight_vector, one_hot, softmax

__all__ = [
    "TreeParams", "ForestParams", "GbtParams", "Tree", "DecisionTreeModel", "RandomForestModel",
    "GradientBoostedModel", "dt_fit", "rf_fit", "gbt_fit", "save_model", "load_model",
]

_HESSIAN_FLOOR = 1e-16
_CRITERIA = ("gini", "entropy")
# Split search scores features in blocks of at most this many features x node
# rows x per-row statistics, which bounds its temporaries: a node of 600
# rows with 8 features and 12 classes takes one pass, and a node too large for
# two features per block is searched one feature at a time.
_BLOCK_ELEMENTS = 1 << 16
# the lower bounds of the integer fields a tree and a forest share
_TREE_BOUNDS = {"max_depth": 1, "min_samples_split": 2, "min_samples_leaf": 1}


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 12
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    criterion: str = "gini"

    def __post_init__(self):
        _settings(self, **_TREE_BOUNDS)
        if self.criterion not in _CRITERIA:
            raise ValueError("criterion must be one of %s" % (_CRITERIA,))


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 100
    max_depth: int = 12
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    criterion: str = "gini"
    max_features: object = "sqrt"   # "sqrt" | "log2" | fraction in (0, 1]
    bootstrap: bool = True

    def __post_init__(self):
        _settings(self, ("bootstrap",), n_estimators=1, **_TREE_BOUNDS)
        if self.criterion not in _CRITERIA:
            raise ValueError("criterion must be one of %s" % (_CRITERIA,))
        mf = self.max_features
        if isinstance(mf, str):
            if mf not in ("sqrt", "log2"):
                raise ValueError("max_features string must be 'sqrt' or 'log2'")
        else:
            mf = float(mf)
            if not (0.0 < mf <= 1.0):
                raise ValueError("max_features fraction must lie in (0, 1]")
            object.__setattr__(self, "max_features", mf)


@dataclass(frozen=True)
class GbtParams:
    n_estimators: int = 200
    learning_rate: float = 0.1
    max_depth: int = 3
    subsample: float = 1.0
    colsample: float = 1.0
    reg_alpha: float = 0.0
    reg_lambda: float = 1.0

    def __post_init__(self):
        _settings(self, n_estimators=0, max_depth=1)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 < self.subsample <= 1.0):
            raise ValueError("subsample must lie in (0, 1]")
        if not (0.0 < self.colsample <= 1.0):
            raise ValueError("colsample must lie in (0, 1]")
        if self.reg_alpha < 0 or self.reg_lambda < 0:
            raise ValueError("regularization terms must be non-negative")


class Tree:
    """A fitted tree as flat node arrays, seen from node ``node`` (0 is the root).

    Node i sends rows with ``x[:, feature[i]] <= threshold[i]`` to
    ``children_left[i]`` and the rest to ``children_right[i]``.  A leaf has
    ``feature[i] == -1`` and holds its scores in ``value[i]``: a class
    probability vector in classification trees, a single raw margin in
    boosted regression trees (internal nodes hold zeros).  ``is_leaf``,
    ``left`` and ``right`` walk the nodes one at a time; the views they
    return share these arrays.
    """

    def __init__(self, feature, threshold, children_left, children_right, value, node: int = 0):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.children_left = np.asarray(children_left, dtype=np.intp)
        self.children_right = np.asarray(children_right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        self.node = int(node)

    @property
    def is_leaf(self) -> bool:
        return bool(self.feature[self.node] < 0)

    @property
    def left(self) -> "Tree":
        return Tree(self.feature, self.threshold, self.children_left, self.children_right, self.value,
                    self.children_left[self.node])

    @property
    def right(self) -> "Tree":
        return Tree(self.feature, self.threshold, self.children_left, self.children_right, self.value,
                    self.children_right[self.node])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf id of every row, walking all rows down one level per step."""
        top = self.feature.max()
        if x.shape[1] <= top:
            raise ValueError("the data has %d features but the tree splits on feature %d" % (x.shape[1], top))
        leaf = np.full(x.shape[0], self.node, dtype=np.intp)
        rows = np.arange(x.shape[0])
        while rows.size:
            node = leaf[rows]
            f = self.feature[node]
            inner = f >= 0
            rows, node, f = rows[inner], node[inner], f[inner]
            go_left = x[rows, f] <= self.threshold[node]
            leaf[rows] = np.where(go_left, self.children_left[node], self.children_right[node])
        return leaf

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.value[self.apply(x)]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.children_left.tolist(),
            "right": self.children_right.tolist(),
            "value": self.value.tolist(),
        }

    @staticmethod
    def from_dict(obj: dict, width: int) -> "Tree":
        """The tree of ``to_dict``; its ``value`` rows must hold ``width`` scores each."""
        if not isinstance(obj.get("feature"), list):
            raise ValueError("tree uses the nested node layout ({feature, threshold, left, right} / {scores} "
                             "objects), which this version no longer reads; refit and save the model again")
        tree = Tree(obj["feature"], obj["threshold"], obj["left"], obj["right"], obj["value"])
        n = len(tree.feature)
        arrays = (tree.threshold, tree.children_left, tree.children_right, tree.value)
        if n == 0 or tree.feature.ndim != 1 or any(a.ndim == 0 or len(a) != n for a in arrays):
            raise ValueError("tree node arrays must be non-empty and all of one length")
        if tree.value.shape != (n, width):
            raise ValueError("tree value rows must hold %d scores each, got an array of shape %s"
                             % (width, tree.value.shape))
        # a child before its node could make apply loop forever, one past the end fail there
        inner = np.flatnonzero(tree.feature >= 0)
        for child in (tree.children_left[inner], tree.children_right[inner]):
            if np.any(child <= inner) or np.any(child >= n):
                raise ValueError("tree child links must point after their node and inside the tree")
        return tree


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0, adding in the order of numpy's pairwise summation of
    one contiguous row: bitwise equal to summing the same values stored
    contiguously along a last axis, but as a few vector adds instead of one
    short reduction per row (numpy's own order depends on memory layout).
    The one difference: numpy starts from +0.0, so it sums a row of only
    -0.0 to +0.0, where this gives -0.0."""
    n = a.shape[0]
    if a.ndim == 1:
        return a.sum()
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _row_sum(a[:half]) + _row_sum(a[half:])
    if n < 2:
        return functools.reduce(np.add, a, -0.0)  # a fresh array, as every other width gives
    if n < 8:
        return functools.reduce(np.add, a[1:], a[0])  # as from -0.0 (-0.0 + x == x), one pass fewer
    r = a[:8]
    for i in range(8, n - n % 8, 8):
        r = r + a[i:i + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    return functools.reduce(np.add, a[n - n % 8:], r[0] + r[1])


def _impurity(p: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of the class-probability vectors along axis 0 of ``p`` (which it may overwrite)."""
    if criterion == "gini":
        return 1.0 - _row_sum(np.multiply(p, p, out=p))
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] = p[nz] * np.log(p[nz])
    return -_row_sum(out)


class _ClassMass:
    """Gini/entropy criterion; per-row statistics are weighted one-hot class masses."""

    def __init__(self, masses: np.ndarray, criterion: str):
        self.masses = masses
        self.cols = np.ascontiguousarray(masses.T)
        self.criterion = criterion

    def node(self, rows: np.ndarray, parent_value):
        """(statistic totals, leaf value, may split) of the node holding ``rows``."""
        total = self.masses[rows].sum(axis=0)
        m_total = total.sum()
        if m_total <= 0.0:
            # only reachable with pathological weights; inherit the parent view
            if parent_value is None:
                raise ValueError("the training rows have zero total class weight")
            return total, parent_value, False
        return total, total / m_total, _impurity(total / m_total, self.criterion) > 0.0

    def scores(self, sides: np.ndarray) -> np.ndarray:
        """Score of each cut from the (K, 2, ...) class masses left and right of it (overwritten)."""
        mass = _row_sum(sides)
        score = mass * _impurity(np.divide(sides, mass, out=sides), self.criterion)
        return score[0] + score[1]


class _Newton:
    """Newton-gain criterion on the per-row (g, h) columns; leaves hold -soft(G, alpha)/(H + lambda)."""

    def __init__(self, g: np.ndarray, h: np.ndarray, params: GbtParams):
        self.cols = np.vstack((g, h))
        self.params = params

    def node(self, rows: np.ndarray, parent_value):
        g_sum = float(self.cols[0, rows].sum())
        h_sum = float(self.cols[1, rows].sum())
        return np.array([g_sum, h_sum]), np.array([_newton_leaf(g_sum, h_sum, self.params)]), True

    def scores(self, sides: np.ndarray) -> np.ndarray:
        """Score of each cut from the (2, 2, ...) (g, h) sums left and right of it."""
        g, h = sides
        score = (g * g) / np.maximum(h + self.params.reg_lambda, _HESSIAN_FLOOR)
        return -score[0] - score[1]


def _newton_leaf(g_sum: float, h_sum: float, params: GbtParams) -> float:
    alpha = params.reg_alpha
    if g_sum > alpha:
        num = g_sum - alpha
    elif g_sum < -alpha:
        num = g_sum + alpha
    else:
        return 0.0
    return -num / max(h_sum + params.reg_lambda, _HESSIAN_FLOOR)


def _draw_features(rng, d: int, k: int) -> np.ndarray:
    """``k`` of ``d`` feature ids, ascending; all of them, with no draw, when k == d."""
    return np.sort(rng.choice(d, size=k, replace=False)) if k < d else np.arange(d)


def _presort(x: np.ndarray) -> tuple:
    """``(ordered, xs)``, both (d, n): row f of ``ordered`` lists the rows
    sorted stably by feature f, and row f of ``xs`` their values in that order.

    numpy's default (SIMD) argsort is several times faster than the stable
    one on distinct values but orders equal values arbitrarily, while the
    stable one is the faster on columns full of ties (one-hot, imputed or
    integer-coded).  A column with a tie among ~128 evenly spaced rows is
    sorted stably.  The others are sorted fast, which is already the stable
    order wherever the sorted values are strictly increasing.  Where they
    are not (a tie the sample missed, -0.0 next to 0.0, NaN), each run of
    equal values is put back in row order by a stable sort of (run, row
    id) keys, which are nearly sorted, so it costs little.
    """
    xt = np.ascontiguousarray(x.T)
    n = xt.shape[1]
    fast = _increasing(np.sort(xt[:, :: max(1, n // 128)], axis=1))
    if not fast.any():
        order = np.argsort(xt, axis=1, kind="stable")
    else:
        order = np.empty(xt.shape, dtype=np.intp)
        order[~fast] = np.argsort(xt[~fast], axis=1, kind="stable")
        quick = np.argsort(xt[fast], axis=1)
        ranked = np.take_along_axis(xt[fast], quick, axis=1)
        tied = ~_increasing(ranked)
        hi, lo, ids = ranked[tied, 1:], ranked[tied, :-1], quick[tied]
        run = np.zeros(ids.shape, dtype=np.intp)  # NaN equals NaN here, as it does to a stable sort
        np.cumsum((hi != lo) & ~(np.isnan(hi) & np.isnan(lo)), axis=1, out=run[:, 1:])
        quick[tied] = np.take_along_axis(ids, np.argsort(run * n + ids, axis=1, kind="stable"), axis=1)
        order[fast] = quick
    return order, np.take_along_axis(xt, order, axis=1)


# id(x) -> _presort(x) of each live read-only table that owns its data
_kept_lists = {}


def _table_lists(x: np.ndarray) -> tuple:
    """``_presort(x)``, kept on ``x``'s identity for as long as ``x`` lives if
    it is read-only and owns its data, so that nothing can change it in place.
    Any other array (rf's bootstraps, a writable table, a view) is sorted afresh."""
    if x.flags.writeable or not x.flags.owndata:
        return _presort(x)
    if id(x) not in _kept_lists:
        _kept_lists[id(x)] = _presort(x)
        for a in _kept_lists[id(x)]:
            a.setflags(write=False)
        weakref.finalize(x, _kept_lists.pop, id(x), None)
    return _kept_lists[id(x)]


def _increasing(v: np.ndarray) -> np.ndarray:
    """Per row of ``v``: are its values strictly increasing (no tie, no NaN)?"""
    return np.all(v[:, 1:] > v[:, :-1], axis=1)


def _partition(keep: np.ndarray, ordered: np.ndarray, xs: np.ndarray) -> tuple:
    """The rows per feature and their sorted values where the flat mask ``keep``
    is set, still in sorted order: a child node's lists or a boosting round's."""
    d = ordered.shape[0]
    return np.compress(keep, ordered).reshape(d, -1), np.compress(keep, xs).reshape(d, -1)


def _best_split(ordered, xs, crit, total, feats, min_leaf):
    """(feature, threshold) of the lowest-scoring cut over ``feats``, or None.

    ``xs`` holds the values of ``ordered``'s rows.  A cut after sorted
    position i sends the first i + 1 rows left.  A feature whose best cut
    scores NaN is skipped, as is one with no cut between distinct values
    that leaves ``min_leaf`` rows on each side.
    """
    m = ordered.shape[1]
    width = crit.cols.shape[0]
    block = max(1, _BLOCK_ELEMENTS // (m * width))
    best_score, best = np.inf, None
    for start in range(0, feats.size, block):
        fb = feats[start:start + block]
        rows = ordered[fb]
        sides = np.empty((width, 2, fb.size, m))  # statistic sums left and right of each cut
        np.cumsum(np.take(crit.cols, rows, axis=1), axis=-1, out=sides[:, 0])
        np.subtract(total[:, None, None], sides[:, 0], out=sides[:, 1])
        vs = xs[fb]
        valid = vs[:, 1:] > vs[:, :-1]
        valid[:, :min_leaf - 1] = False  # fewer than min_leaf rows on the left
        valid[:, m - min_leaf:] = False  # ... or on the right
        score = np.where(valid, crit.scores(sides[..., :-1]), np.inf)
        for b, s in enumerate(score.min(axis=1).tolist()):  # NaN never wins
            if s < best_score:
                i = int(score[b].argmin())  # first occurrence -> lowest threshold
                best_score, best = s, (int(fb[b]), float(0.5 * (vs[b, i] + vs[b, i + 1])))
    return best


def _grow(x, rows, ordered, xs, crit, pick_features, max_depth: int, min_split: int = 2, min_leaf: int = 1):
    """Grow one tree over ``rows`` of ``x``, depth first, left before right.

    ``ordered`` lists the ascending ``rows`` per feature in presorted order,
    with their values in ``xs``.  ``pick_features()`` returns the
    ascending feature ids to search at each node that may split.  A child
    that cannot split (at ``max_depth`` or below ``min_split`` rows) gets no
    row lists.  Returns the tree, the leaf id of each row of ``x`` (set only
    at ``rows``), and the statistic totals of each leaf in leaf-id order.
    """
    n = x.shape[0]
    goes_left = np.zeros(n, dtype=bool)
    leaf_of = np.zeros(n, dtype=np.intp)
    nodes = [[-1, 0.0, -1, -1]]  # feature, threshold, left child, right child
    leaves = {}  # node -> (value, totals)
    stack = [(0, 0, rows, (ordered, xs), None)]  # node, depth, rows ascending, lists, parent value
    while stack:
        node, depth, idx, lists, parent = stack.pop()
        total, value, may_split = crit.node(idx, parent)
        split = None
        if may_split and depth < max_depth and idx.size >= min_split:
            split = _best_split(*lists, crit, total, pick_features(), min_leaf)
        if split is None:
            leaves[node] = value, total
            leaf_of[idx] = node
            continue
        nodes[node] = [*split, len(nodes), len(nodes) + 1]
        nodes += [[-1, 0.0, -1, -1], [-1, 0.0, -1, -1]]
        go_left = x[idx, split[0]] <= split[1]
        goes_left[idx] = go_left
        left, right = idx[go_left], idx[~go_left]
        left_lists = right_lists = None
        if depth + 1 < max_depth and max(left.size, right.size) >= min_split:
            to_left = goes_left[lists[0]].ravel()
            if right.size >= min_split:
                right_lists = _partition(~to_left, *lists)
            if left.size >= min_split:
                left_lists = _partition(to_left, *lists)
        stack.append((len(nodes) - 1, depth + 1, right, right_lists, value))
        stack.append((len(nodes) - 2, depth + 1, left, left_lists, value))
    ids = sorted(leaves)
    values = np.zeros((len(nodes), leaves[ids[0]][0].size))
    values[ids] = [leaves[i][0] for i in ids]
    return Tree(*zip(*nodes), values), leaf_of, np.array([leaves[i][1] for i in ids])


def _class_tree(x, y, wv, n_classes, params: TreeParams, pick_features) -> Tree:
    crit = _ClassMass(one_hot(y, n_classes) * wv[y][:, None], params.criterion)
    return _grow(x, np.arange(x.shape[0]), *_table_lists(x), crit, pick_features, params.max_depth,
                 params.min_samples_split, params.min_samples_leaf)[0]


def _fit_inputs(x, y, weights, n_classes: int | None) -> tuple:
    """What every tree fit starts from: ``(x, y, n_classes, class weight
    vector, start of the fit's clock)``, with ``n_classes`` inferred from
    ``y`` when None."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if n_classes is None:
        n_classes = int(y.max()) + 1
    return x, y, n_classes, _weight_vector(weights, n_classes), time.perf_counter()


def _model_dict(model, **trees) -> dict:
    """JSON form of a tree model: the shared header plus its trees."""
    return {"family": model.family, "n_classes": model.n_classes, "n_features": model.n_features,
            "params": asdict(model.params), **trees}


def _model_header(obj: dict) -> tuple:
    """``(n_classes, n_features)`` of a tree model's JSON form."""
    if "n_features" not in obj:
        raise ValueError("the model file stores no n_features, which this version needs; "
                         "refit and save the model again")
    return int(obj["n_classes"]), int(obj["n_features"])


def _checked_table(x, n_features: int) -> np.ndarray:
    """``x`` as float64, or a ValueError unless it has the fit's ``n_features`` columns."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n_features:
        raise ValueError("the model was fitted on %d features, got data of shape %s" % (n_features, x.shape))
    return x


class DecisionTreeModel:
    """A single weighted CART-style tree with probability leaves."""

    family = "dt"

    def __init__(self, root: Tree, params: TreeParams, n_classes: int, n_features: int, train_seconds: float = 0.0):
        self.root = root
        self.params = params
        self.n_classes = n_classes
        self.n_features = n_features
        self.train_seconds = train_seconds

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self.root.predict(_checked_table(x, self.n_features))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    def to_dict(self) -> dict:
        return _model_dict(self, tree=self.root.to_dict())

    @staticmethod
    def from_dict(obj: dict) -> "DecisionTreeModel":
        n_classes, n_features = _model_header(obj)
        return DecisionTreeModel(Tree.from_dict(obj["tree"], n_classes), TreeParams(**obj["params"]), n_classes,
                                 n_features)


def dt_fit(x, y, weights, params: TreeParams | None = None, n_classes: int | None = None, seed: int = 0) -> DecisionTreeModel:
    """Fit a weighted decision tree.  ``seed`` is accepted for interface
    symmetry; a plain tree consumes no randomness."""
    del seed
    params = params or TreeParams()
    x, y, n_classes, wv, t0 = _fit_inputs(x, y, weights, n_classes)
    feats = np.arange(x.shape[1])
    root = _class_tree(x, y, wv, n_classes, params, lambda: feats)
    return DecisionTreeModel(root, params, n_classes, x.shape[1], train_seconds=time.perf_counter() - t0)


def _resolve_max_features(spec, d: int) -> int:
    if spec == "sqrt":
        return max(1, int(math.sqrt(d)))
    if spec == "log2":
        return max(1, int(math.log2(d))) if d > 1 else 1
    return max(1, min(d, int(math.ceil(float(spec) * d))))


class RandomForestModel:
    """Bagged weighted trees with per-split feature subsampling (soft vote)."""

    family = "rf"

    def __init__(self, trees: list, params: ForestParams, n_classes: int, n_features: int,
                 train_seconds: float = 0.0):
        self.trees = trees
        self.params = params
        self.n_classes = n_classes
        self.n_features = n_features
        self.train_seconds = train_seconds

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = _checked_table(x, self.n_features)
        acc = np.zeros((x.shape[0], self.n_classes))
        for tree in self.trees:
            acc += tree.predict(x)
        return acc / len(self.trees)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    def to_dict(self) -> dict:
        return _model_dict(self, trees=[t.to_dict() for t in self.trees])

    @staticmethod
    def from_dict(obj: dict) -> "RandomForestModel":
        n_classes, n_features = _model_header(obj)
        return RandomForestModel([Tree.from_dict(t, n_classes) for t in obj["trees"]],
                                 ForestParams(**obj["params"]), n_classes, n_features)


def rf_fit(x, y, weights, params: ForestParams | None = None, n_classes: int | None = None, seed: int = 0) -> RandomForestModel:
    """Fit a random forest.  Per-tree seeds derive deterministically from
    (seed, tree index) so refits replay exactly; each tree draws its split
    features node by node, depth first, left before right."""
    params = params or ForestParams()
    x, y, n_classes, wv, t0 = _fit_inputs(x, y, weights, n_classes)
    n, d = x.shape
    n_sub = _resolve_max_features(params.max_features, d)
    tree_params = TreeParams(
        params.max_depth, params.min_samples_split, params.min_samples_leaf, params.criterion
    )
    children = np.random.SeedSequence(seed).spawn(params.n_estimators)
    trees = []
    for child in children:
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        pick_features = functools.partial(_draw_features, rng, d, n_sub)
        trees.append(_class_tree(x[rows], y[rows], wv, n_classes, tree_params, pick_features))
    return RandomForestModel(trees, params, n_classes, d, train_seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Newton-boosted trees on the weighted categorical cross-entropy
# ---------------------------------------------------------------------------


class GradientBoostedModel:
    """Multiclass Newton boosting: one regression tree per class per round."""

    family = "gbt"

    def __init__(self, rounds: list, log_priors: np.ndarray, params: GbtParams, n_classes: int, n_features: int,
                 train_seconds: float = 0.0):
        self.rounds = rounds  # list of per-class tree lists (None = skipped tree)
        self.log_priors = np.asarray(log_priors, dtype=np.float64)
        self.params = params
        self.n_classes = n_classes
        self.n_features = n_features
        self.train_seconds = train_seconds

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        x = _checked_table(x, self.n_features)
        margins = np.tile(self.log_priors, (x.shape[0], 1))
        lr = self.params.learning_rate
        for class_trees in self.rounds:
            for k, tree in enumerate(class_trees):
                if tree is not None:
                    margins[:, k] += lr * tree.predict(x)[:, 0]
        return margins

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.decision_function(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    def to_dict(self) -> dict:
        return _model_dict(
            self,
            log_priors=[float(v) for v in self.log_priors],
            rounds=[[None if t is None else t.to_dict() for t in class_trees] for class_trees in self.rounds],
        )

    @staticmethod
    def from_dict(obj: dict) -> "GradientBoostedModel":
        n_classes, n_features = _model_header(obj)
        log_priors = np.asarray(obj["log_priors"], dtype=np.float64)
        if log_priors.shape != (n_classes,) or any(len(class_trees) != n_classes for class_trees in obj["rounds"]):
            raise ValueError("a gbt model needs %d log priors and %d trees (or nulls) in every round"
                             % (n_classes, n_classes))
        return GradientBoostedModel(
            rounds=[[None if t is None else Tree.from_dict(t, 1) for t in class_trees] for class_trees in obj["rounds"]],
            log_priors=log_priors,
            params=GbtParams(**obj["params"]),
            n_classes=n_classes,
            n_features=n_features,
        )


def gbt_fit(x, y, weights, params: GbtParams | None = None, n_classes: int | None = None, seed: int = 0) -> GradientBoostedModel:
    """Fit gradient-boosted trees on the weighted categorical cross-entropy.

    Per round and class k the tree regresses the Newton statistics
    g_i = w_{y_i} (p_{i,k} - [y_i = k]) and h_i = w_{y_i} p_{i,k} (1 - p_{i,k});
    margins start at the log class priors.  Rows are subsampled per round and
    feature columns per tree.  A subsampled round cuts its lists from the
    table's with ``_partition``, as a split does, and walks only the rows
    outside the round down each tree.
    """
    params = params or GbtParams()
    x, y, n_classes, wv, t0 = _fit_inputs(x, y, weights, n_classes)
    n, d = x.shape
    counts = np.bincount(y, minlength=n_classes)
    if np.any(counts == 0):
        raise ValueError("every class must appear in the training data")
    log_priors = np.log(counts / n)
    margins = np.tile(log_priors, (n, 1))
    y_hot = one_hot(y, n_classes)
    wy = wv[y]
    rng = np.random.default_rng(seed)
    n_rows = max(2, int(round(params.subsample * n)))
    n_cols = max(1, int(round(params.colsample * d)))
    table = _table_lists(x)
    rows, lists, out = np.arange(n), table, np.arange(0)
    g, h = np.zeros(n), np.zeros(n)  # Newton statistics, set at the round's rows
    rounds = []
    for round_idx in range(params.n_estimators):
        if n_rows < n:
            rows = np.sort(rng.choice(n, size=n_rows, replace=False))
            in_round = np.zeros(n, dtype=bool)
            in_round[rows] = True
            lists = _partition(in_round[table[0]].ravel(), *table)
            out = np.flatnonzero(~in_round)
        x_out = x[out]
        p = softmax(margins[rows])
        class_trees = []
        for k in range(n_classes):
            g[rows] = wy[rows] * (p[:, k] - y_hot[rows, k])
            h[rows] = wy[rows] * p[:, k] * (1.0 - p[:, k])
            feats = _draw_features(rng, d, n_cols)
            tree, leaf_of, leaf_totals = _grow(x, rows, *lists, _Newton(g, h, params), lambda: feats,
                                               params.max_depth)
            if np.all(leaf_totals[:, 1] < _HESSIAN_FLOOR):
                class_trees.append(None)
                continue
            leaf_of[out] = tree.apply(x_out)
            margins[:, k] += params.learning_rate * tree.value[leaf_of, 0]
            class_trees.append(tree)
        if all(t is None for t in class_trees):
            warnings.warn(
                "boosting round %d skipped: all leaf hessian sums below %g"
                % (round_idx, _HESSIAN_FLOOR),
                RuntimeWarning,
            )
        rounds.append(class_trees)
    return GradientBoostedModel(rounds, log_priors, params, n_classes, d, train_seconds=time.perf_counter() - t0)


def save_model(model, path) -> None:
    """Write a fitted model to its JSON form (see README)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh)


def load_model(path):
    """Reload a model written by ``save_model`` via its family's ``from_dict``; predictions are identical."""
    from .hpo import get_family  # deferred: the registry imports this module

    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    spec = get_family(obj.get("family"))
    if spec.from_dict is None:
        raise ValueError("model family %r has no from_dict, so %s cannot be loaded" % (spec.name, path))
    return spec.from_dict(obj)
