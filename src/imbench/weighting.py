"""Class-weighting schemes that counteract label imbalance in the loss.

Every scheme maps a training-split label distribution to one positive weight
per class.  Weights multiply per-sample loss terms (and act as sample masses
in the tree builders); they are deliberately *not* renormalized beyond what
each formula prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imbalance import LabelDistribution

__all__ = [
    "ClassWeights",
    "STRATEGIES",
    "DEFAULT_BETA",
    "check_beta",
    "weights_none",
    "weights_inverse",
    "weights_effective",
    "weights_median",
    "compute_weights",
]

STRATEGIES = ("none", "inverse", "effective", "median")

# the effective-number beta unless one is given
DEFAULT_BETA = 0.9999


def check_beta(beta: float) -> None:
    """Raise a ValueError unless ``beta`` lies in [0, 1)."""
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0, 1), got %r" % (beta,))


@dataclass(frozen=True)
class ClassWeights:
    """A per-class weight vector plus the strategy that produced it."""

    weights: np.ndarray
    strategy: str
    beta: float | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("weights must be a 1-d vector with K >= 2")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and strictly positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.weights.size)


def weights_none(dist: LabelDistribution) -> ClassWeights:
    """Unit weight for every class (the unweighted baseline)."""
    return ClassWeights(np.ones(dist.n_classes), strategy="none")


def weights_inverse(dist: LabelDistribution) -> ClassWeights:
    """Inverse-frequency weights w_k = N / (K * N_k).

    A class at the balanced frequency 1/K gets weight 1; rarer classes get
    proportionally more.
    """
    counts = dist.counts.astype(np.float64)
    if np.any(counts == 0):
        raise ValueError("inverse weighting undefined for zero-count classes")
    w = dist.total / (dist.n_classes * counts)
    return ClassWeights(w, strategy="inverse")


def weights_effective(dist: LabelDistribution, beta: float = DEFAULT_BETA) -> ClassWeights:
    """Effective-number weights.

    The effective sample count of class k is (1 - beta^N_k) / (1 - beta),
    the expected number of distinct samples under repeated draws.  Weights
    are inverse effective counts, rescaled so a class whose effective count
    equals the mean effective count gets weight 1:

        w_k = (1 / E_k) * (sum_j E_j) / K

    beta -> 1 recovers inverse-frequency weighting; beta = 0 gives all ones.
    """
    check_beta(beta)
    counts = dist.counts.astype(np.float64)
    if np.any(counts == 0):
        raise ValueError("effective-number weighting undefined for zero-count classes")
    if 1.0 - beta == 1.0:  # beta = 0, or so small that log1p(-1) would divide by zero
        eff = np.ones_like(counts)
    else:
        # expm1/log1p form is accurate for beta close to 1
        eff = -np.expm1(counts * np.log1p(-(1.0 - beta))) / (1.0 - beta)
    w = (eff.sum() / dist.n_classes) / eff
    return ClassWeights(w, strategy="effective", beta=beta)


def weights_median(dist: LabelDistribution) -> ClassWeights:
    """Median-frequency weights w_k = median(f) / f_k.

    For even K the median is the mean of the two middle frequencies.
    """
    f = dist.frequencies
    if np.any(f == 0):
        raise ValueError("median weighting undefined for zero-count classes")
    w = np.median(f) / f
    return ClassWeights(w, strategy="median")


def compute_weights(dist: LabelDistribution, strategy: str, beta: float = DEFAULT_BETA) -> ClassWeights:
    """Dispatch by strategy name; ``beta`` only applies to 'effective'."""
    if strategy == "none":
        return weights_none(dist)
    if strategy == "inverse":
        return weights_inverse(dist)
    if strategy == "effective":
        return weights_effective(dist, beta=beta)
    if strategy == "median":
        return weights_median(dist)
    raise ValueError("unknown weighting strategy %r (expected one of %s)" % (strategy, ", ".join(STRATEGIES)))
