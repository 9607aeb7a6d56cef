"""Synthetic Gaussian-cluster classification tasks with controlled imbalance.

Each class is an isotropic unit-variance Gaussian whose mean sits at a fixed
distance from the origin along its own direction; class sizes follow either
an explicit count vector or a power-law profile whose exponent dials the
imbalance from flat (0) to severe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _integer, _largest_remainder, _settings

__all__ = ["SynthConfig", "power_law_counts", "counts_for_ratio", "synth_generate"]


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for one synthetic dataset.

    Exactly one of ``class_counts`` (explicit sizes) or ``power_law_exponent``
    (sizes proportional to (k+1)^-gamma, rounded to sum to ``n_samples``)
    determines the class sizes.
    """

    n_samples: int
    n_classes: int
    n_features: int
    cluster_separation: float = 3.0
    class_counts: tuple | None = None
    power_law_exponent: float | None = None
    seed: int = 0

    def __post_init__(self):
        _settings(self, n_samples=1, n_classes=2, n_features=1, seed=0)
        if self.cluster_separation < 0:
            raise ValueError("cluster_separation must be non-negative")
        if (self.class_counts is None) == (self.power_law_exponent is None):
            raise ValueError("specify exactly one of class_counts or power_law_exponent")
        if self.class_counts is not None:
            counts = tuple(_integer(c, "class_counts", 1) for c in self.class_counts)
            if len(counts) != self.n_classes:
                raise ValueError("class_counts length must equal n_classes")
            if sum(counts) != self.n_samples:
                raise ValueError("class_counts must sum to n_samples")
            object.__setattr__(self, "class_counts", counts)
        else:
            if self.power_law_exponent < 0:
                raise ValueError("power_law_exponent must be non-negative")
            if self.n_samples < self.n_classes:
                raise ValueError("n_samples must be at least n_classes")


def power_law_counts(n_samples: int, n_classes: int, exponent: float) -> np.ndarray:
    """Class sizes proportional to (k+1)^-exponent summing to ``n_samples``.

    Largest-remainder rounding; every class is floored at one sample, with
    the deficit taken from the largest classes.
    """
    k = np.arange(1, n_classes + 1, dtype=np.float64)
    p = k ** (-float(exponent))
    p /= p.sum()
    counts = _largest_remainder(n_samples, p)
    # enforce the >= 1 floor by moving mass from the largest classes
    for j in range(n_classes - 1, -1, -1):
        if counts[j] < 1:
            need = 1 - counts[j]
            donor = int(np.argmax(counts))
            if counts[donor] - need < 1:
                raise ValueError("n_samples too small for %d non-empty classes" % n_classes)
            counts[donor] -= need
            counts[j] = 1
    return counts


def counts_for_ratio(n_samples: int, n_classes: int, ratio: float) -> np.ndarray:
    """Geometric class-size profile hitting a target max/min imbalance ratio.

    Sizes interpolate geometrically between the largest and smallest class
    and are rounded to sum to ``n_samples`` by the largest-remainder rule of
    ``power_law_counts``, so max(counts)/min(counts) is ``ratio`` up to that
    rounding.
    """
    if ratio < 1.0:
        raise ValueError("ratio must be >= 1")
    profile = np.geomspace(float(ratio), 1.0, n_classes)
    counts = _largest_remainder(n_samples, profile / profile.sum())
    if counts.min() < 1:
        raise ValueError("n_samples too small for this ratio and class count")
    return counts


def _class_directions(n_classes: int, n_features: int, rng: np.random.Generator) -> np.ndarray:
    """Unit directions for the class means.

    Orthonormal (QR of a random Gaussian matrix) when the feature space has
    room for it, otherwise independent random unit vectors.
    """
    if n_features >= n_classes:
        g = rng.standard_normal((n_features, n_classes))
        q, r = np.linalg.qr(g)
        # fix the QR sign ambiguity so the construction is reproducible
        q = q * np.sign(np.diag(r))
        return q.T
    v = rng.standard_normal((n_classes, n_features))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def synth_generate(cfg: SynthConfig) -> Dataset:
    """Draw the dataset described by ``cfg``.  Deterministic given the seed."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.class_counts is not None:
        counts = np.asarray(cfg.class_counts, dtype=np.int64)
    else:
        counts = power_law_counts(cfg.n_samples, cfg.n_classes, cfg.power_law_exponent)
    directions = _class_directions(cfg.n_classes, cfg.n_features, rng)
    means = cfg.cluster_separation * directions
    features = np.empty((int(counts.sum()), cfg.n_features))
    labels = np.empty(int(counts.sum()), dtype=np.int64)
    start = 0
    for k in range(cfg.n_classes):
        stop = start + int(counts[k])
        features[start:stop] = means[k] + rng.standard_normal((int(counts[k]), cfg.n_features))
        labels[start:stop] = k
        start = stop
    return Dataset(
        features=features,
        labels=labels,
        feature_names=tuple("f%d" % j for j in range(cfg.n_features)),
        class_names=tuple("c%d" % k for k in range(cfg.n_classes)),
    )
