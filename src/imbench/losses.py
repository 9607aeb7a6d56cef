"""Class-weighted cross-entropy losses with analytic logit gradients.

Both losses return ``(loss, grad)`` where ``grad`` is the exact gradient of
the mean weighted loss with respect to the *logits* (pre-sigmoid / pre-softmax
scores).  Probabilities are clamped to [eps, 1-eps] before any logarithm.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PROB_EPS",
    "sigmoid",
    "softmax",
    "one_hot",
    "weighted_bce",
    "weighted_cce",
    "bce_from_logits",
    "cce_from_logits",
]

PROB_EPS = 1e-12


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("softmax expects an (n, k) matrix of logits")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Dense one-hot encoding of integer labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-d")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= n_classes:
        raise ValueError("labels out of range for %d classes" % n_classes)
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def _weight_vector(w, n_classes: int) -> np.ndarray:
    """Per-class weights from a ClassWeights or a plain array-like, as a
    float64 vector of shape ``(n_classes,)``."""
    wv = np.asarray(getattr(w, "weights", w), dtype=np.float64)
    if wv.shape != (n_classes,):
        raise ValueError("expected %d class weights, got shape %s" % (n_classes, wv.shape))
    return wv


def weighted_bce(y: np.ndarray, p: np.ndarray, w) -> tuple[float, np.ndarray]:
    """Class-weighted binary cross-entropy.

    loss = -(1/N) sum_i w_{y_i} [y_i log p_i + (1 - y_i) log(1 - p_i)]

    ``p`` holds positive-class probabilities; the returned gradient is with
    respect to the logit z_i where p_i = sigmoid(z_i):

        dL/dz_i = (w_{y_i} / N) (p_i - y_i)
    """
    y = np.asarray(y, dtype=np.int64)
    p = np.asarray(p, dtype=np.float64)
    if y.shape != p.shape or y.ndim != 1:
        raise ValueError("y and p must be matching 1-d vectors")
    wv = _weight_vector(w, 2)
    pc = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    wy = wv[y]
    n = y.size
    loss = -np.mean(wy * (y * np.log(pc) + (1 - y) * np.log(1.0 - pc)))
    grad = wy * (p - y) / n
    return float(loss), grad


def weighted_cce(y: np.ndarray, p: np.ndarray, w) -> tuple[float, np.ndarray]:
    """Class-weighted categorical cross-entropy.

    loss = -(1/N) sum_i w_{y_i} log p_{i, y_i}

    Gradient is with respect to the logits z feeding a row-wise softmax:

        dL/dz_{i,k} = (w_{y_i} / N) (p_{i,k} - [y_i == k])
    """
    y = np.asarray(y, dtype=np.int64)
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or y.ndim != 1 or y.size != p.shape[0]:
        raise ValueError("p must be (n, k) probabilities aligned with 1-d y")
    wv = _weight_vector(w, p.shape[1])
    n, k = p.shape
    pc = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    wy = wv[y]
    loss = -np.mean(wy * np.log(pc[np.arange(n), y]))
    grad = p - one_hot(y, k)
    grad *= (wy / n)[:, None]
    return float(loss), grad


def bce_from_logits(y: np.ndarray, z: np.ndarray, w) -> tuple[float, np.ndarray]:
    """Weighted BCE evaluated at logits (convenience for gradient checks)."""
    return weighted_bce(y, sigmoid(z), w)


def cce_from_logits(y: np.ndarray, z: np.ndarray, w) -> tuple[float, np.ndarray]:
    """Weighted CCE evaluated at logits (convenience for gradient checks)."""
    return weighted_cce(y, softmax(z), w)
