"""Residual feed-forward network for tabular data, in plain numpy.

Topology: an input stage (linear -> batch norm -> ReLU -> dropout), a stack
of residual blocks (linear -> BN -> ReLU -> dropout -> linear -> BN, skip
connection added, then ReLU), an optional reduction stage (linear to half
width -> ReLU), and a linear output head, built as one layer sequence.  Each
layer's forward and backward pass is written by hand; the optimizer is Adam
with decoupled weight decay.

Training minimizes the class-weighted categorical cross-entropy (or the
binary cross-entropy with a single-logit head when requested for two-class
problems), with early stopping on validation weighted F1 and halving of the
learning rate on plateaus.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import _settings
from .evaluation import confusion_matrix, f1_scores
from .losses import _weight_vector, bce_from_logits, cce_from_logits, sigmoid, softmax
from .trees import _checked_table

__all__ = [
    "ResNetConfig",
    "TrainHistory",
    "TabResNetModel",
    "hidden_dim_bounds",
    "nn_build",
    "nn_fit",
    "gradient_check",
]

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1


def hidden_dim_bounds(n_features: int) -> tuple:
    """Sensible hidden-width interval for a given input width: half to
    double the feature count, floored at 8."""
    lo = max(8, math.ceil(n_features / 2))
    hi = max(8, 2 * n_features)
    return lo, max(lo, hi)


@dataclass(frozen=True)
class ResNetConfig:
    n_features: int
    n_classes: int
    hidden_dim: int = 64
    n_blocks: int = 2
    dropout: float = 0.1
    use_reduction: bool = False
    binary_mode: bool = False
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 128
    max_epochs: int = 200
    patience: int = 15
    lr_factor: float = 0.5
    lr_patience: int = 3
    min_improvement: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # batch_size >= 2: batch norm needs batches of two
        _settings(self, ("use_reduction", "binary_mode"), n_features=1, n_classes=2, hidden_dim=8, n_blocks=1,
                  batch_size=2, max_epochs=1, patience=1, lr_patience=1, seed=0)
        if not (0.0 <= self.dropout <= 0.5):
            raise ValueError("dropout must lie in [0, 0.5]")
        if self.binary_mode and self.n_classes != 2:
            raise ValueError("binary_mode requires exactly two classes")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValueError("learning_rate must be positive, weight_decay non-negative")
        if not (0.0 < self.lr_factor < 1.0):
            raise ValueError("lr_factor must lie in (0, 1)")


@dataclass
class TrainHistory:
    val_f1: list = field(default_factory=list)
    learning_rate: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    @property
    def n_epochs(self) -> int:
        return len(self.val_f1)


class _Layer:
    """One step of a network: ``forward(x, train, rng)``, and ``backward(g)``
    returning the gradient with respect to ``x``.  ``SLOTS`` pairs each
    parameter attribute with the attribute holding its gradient.  Inside a
    ``_Network`` both are views of the network's flat vectors, so
    ``backward`` writes gradients in place and never rebinds them."""

    SLOTS = ()


class _Linear(_Layer):
    SLOTS = (("w", "gw"), ("b", "gb"))

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        bound = 1.0 / math.sqrt(n_in)
        self.w = rng.uniform(-bound, bound, size=(n_in, n_out))
        self.b = rng.uniform(-bound, bound, size=n_out)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray, train: bool, rng=None) -> np.ndarray:
        self._x = x
        out = x @ self.w
        out += self.b
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        np.matmul(self._x.T, g, out=self.gw)
        np.add.reduce(g, 0, out=self.gb)
        return g @ self.w.T


class _BatchNorm(_Layer):
    """1-d batch norm.  Training mode normalizes by biased batch statistics
    and maintains running statistics (unbiased variance); eval and frozen
    modes normalize by the running statistics treated as constants."""

    SLOTS = (("gamma", "ggamma"), ("beta", "gbeta"))

    def __init__(self, width: int):
        self.gamma = np.ones(width)
        self.beta = np.zeros(width)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.ggamma = np.zeros_like(self.gamma)
        self.gbeta = np.zeros_like(self.beta)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool, rng=None) -> np.ndarray:
        if train:
            n = x.shape[0]
            mu = np.add.reduce(x, 0) / n
            centered = x - mu
            # the biased variance exactly as ndarray.var computes it
            var = np.add.reduce(np.square(centered), 0) / n
            inv_std = 1.0 / np.sqrt(var + _BN_EPS)
            xhat = centered * inv_std
            unbiased = var * n / (n - 1) if n > 1 else var
            self.running_mean = (1.0 - _BN_MOMENTUM) * self.running_mean + _BN_MOMENTUM * mu
            self.running_var = (1.0 - _BN_MOMENTUM) * self.running_var + _BN_MOMENTUM * unbiased
            self._cache = ("train", xhat, inv_std, centered)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + _BN_EPS)
            xhat = (x - self.running_mean) * inv_std
            self._cache = ("eval", xhat, inv_std, None)
        out = self.gamma * xhat
        out += self.beta
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        mode, xhat, inv_std, centered = self._cache
        np.add.reduce(g * xhat, 0, out=self.ggamma)
        np.add.reduce(g, 0, out=self.gbeta)
        gxhat = g * self.gamma
        if mode == "eval":
            return gxhat * inv_std
        n = g.shape[0]
        # standard train-mode backward through the batch statistics
        gvar = np.add.reduce(gxhat * centered, 0) * (-0.5) * inv_std**3
        gmu = -np.add.reduce(gxhat, 0) * inv_std + gvar * (-2.0 / n) * np.add.reduce(centered, 0)
        return gxhat * inv_std + gvar * (2.0 / n) * centered + gmu / n


class _ReLU(_Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, train: bool, rng=None) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g * self._mask


class _Dropout(_Layer):
    """Inverted dropout: surviving activations are scaled by 1/keep during
    training so the expected value matches eval mode."""

    def __init__(self, rate: float):
        self.rate = rate
        self._mask = None

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, g: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return g
        return g * self._mask


class _Sequential(_Layer):
    """Layers run in order forward and in reverse order backward."""

    def __init__(self, *layers):
        self.layers = layers

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train, rng)
        return x

    def backward(self, g: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def walk(self):
        """Every layer that is not a sequence, nested ones too, in forward order."""
        for layer in self.layers:
            if isinstance(layer, _Sequential):
                yield from layer.walk()
            else:
                yield layer


class _ResidualBlock(_Sequential):
    """The branch linear -> BN -> ReLU -> dropout -> linear -> BN, its input
    added back through the skip connection, then ReLU."""

    def __init__(self, width: int, dropout: float, rng: np.random.Generator):
        super().__init__(_Linear(width, width, rng), _BatchNorm(width), _ReLU(), _Dropout(dropout),
                         _Linear(width, width, rng), _BatchNorm(width))
        self.relu_out = _ReLU()

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        return self.relu_out.forward(super().forward(x, train, rng) + x, train)

    def backward(self, g: np.ndarray) -> np.ndarray:
        g = self.relu_out.backward(g)
        return super().backward(g) + g


class _Network(_Sequential):
    """The bare network, one layer sequence: the input stage, the residual
    blocks, the optional reduction stage and the linear head.

    Every parameter is a view of one flat vector, ``flat_params``, and every
    gradient a view of ``flat_grads``, in forward order (``parameters()``),
    so the optimizer updates the whole network in one pass.
    """

    def __init__(self, cfg: ResNetConfig):
        rng = np.random.default_rng(cfg.seed)
        self.cfg = cfg
        h = cfg.hidden_dim
        layers = [_Linear(cfg.n_features, h, rng), _BatchNorm(h), _ReLU(), _Dropout(cfg.dropout)]
        layers += [_ResidualBlock(h, cfg.dropout, rng) for _ in range(cfg.n_blocks)]
        head_in = h // 2 if cfg.use_reduction else h
        if cfg.use_reduction:
            layers += [_Linear(h, head_in, rng), _ReLU()]
        layers.append(_Linear(head_in, 1 if cfg.binary_mode else cfg.n_classes, rng))
        super().__init__(*layers)
        self._norms = [layer for layer in self.walk() if isinstance(layer, _BatchNorm)]
        self._slots = [(layer, p, g) for layer in self.walk() for p, g in layer.SLOTS]
        self.flat_params = np.concatenate([getattr(layer, p).ravel() for layer, p, _ in self._slots])
        self.flat_grads = np.zeros_like(self.flat_params)
        start = 0
        for layer, p, g in self._slots:
            arr = getattr(layer, p)
            span = slice(start, start + arr.size)
            setattr(layer, p, self.flat_params[span].reshape(arr.shape))
            setattr(layer, g, self.flat_grads[span].reshape(arr.shape))
            start += arr.size

    def parameters(self):
        return [getattr(layer, p) for layer, p, _ in self._slots]

    def gradients(self):
        return [getattr(layer, g) for layer, _, g in self._slots]

    def buffers(self):
        return [a for bn in self._norms for a in (bn.running_mean, bn.running_var)]

    def n_parameters(self) -> int:
        return self.flat_params.size

    def state(self) -> list:
        return [a.copy() for a in self.parameters() + self.buffers()]

    def load_state(self, state: list) -> None:
        """Copy ``state()``'s arrays back in; a state of another length or
        with an array of another shape is rejected before any is written."""
        arrays = self.parameters() + self.buffers()
        if len(arrays) != len(state):
            raise ValueError("state has %d arrays, the network %d" % (len(state), len(arrays)))
        for i, (dst, src) in enumerate(zip(arrays, state)):
            if np.shape(src) != dst.shape:
                raise ValueError("state array %d has shape %s, the network's has %s"
                                 % (i, np.shape(src), dst.shape))
        for dst, src in zip(arrays, state):
            dst[...] = src


class _AdamW:
    """Adam moments with decoupled weight decay over one flat parameter
    vector, updated in place; ``lr`` is mutable so the plateau schedule can
    halve it in place."""

    def __init__(self, params: np.ndarray, lr: float, weight_decay: float, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, g: np.ndarray) -> None:
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        p, m, v = self.params, self.m, self.v
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        v += (1.0 - self.b2) * g * g
        p -= self.lr * ((m / b1t) / (np.sqrt(v / b2t) + self.eps) + self.weight_decay * p)


class TabResNetModel:
    """Fitted network plus its config, history, and timing metadata."""

    family = "tabresnet"

    def __init__(self, net: _Network, cfg: ResNetConfig, history: TrainHistory | None = None, train_seconds: float = 0.0):
        self.net = net
        self.cfg = cfg
        self.params = cfg
        self.history = history or TrainHistory()
        self.train_seconds = train_seconds
        self.n_classes = cfg.n_classes

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logits = self.net.forward(_checked_table(x, self.cfg.n_features), train=False)
        if self.cfg.binary_mode:
            p = sigmoid(logits[:, 0])
            return np.column_stack([1.0 - p, p])
        return softmax(logits)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    def to_dict(self) -> dict:
        """JSON-ready dump: config plus every parameter and running buffer
        as (shape, row-major values)."""
        arrays = self.net.parameters() + self.net.buffers()
        return {
            "family": self.family,
            "config": asdict(self.cfg),
            "arrays": [
                {"shape": list(a.shape), "values": [float(v) for v in a.ravel()]} for a in arrays
            ],
        }

    @staticmethod
    def from_dict(obj: dict) -> "TabResNetModel":
        model = nn_build(ResNetConfig(**obj["config"]))
        state = [
            np.asarray(a["values"], dtype=np.float64).reshape(a["shape"]) for a in obj["arrays"]
        ]
        model.net.load_state(state)
        return model


def nn_build(cfg: ResNetConfig) -> TabResNetModel:
    """Initialize an untrained network (fan-in-scaled uniform weights)."""
    return TabResNetModel(_Network(cfg), cfg)


def _loss_and_grad(y, logits, wv, binary_mode: bool) -> tuple:
    """Weighted loss and its gradient, shaped like ``logits``: binary
    cross-entropy on a single-logit head, else categorical cross-entropy."""
    if binary_mode:
        loss, grad = bce_from_logits(y, logits[:, 0], wv)
        return loss, grad[:, None]
    return cce_from_logits(y, logits, wv)


def _weighted_val_f1(model: TabResNetModel, x_val, y_val) -> float:
    pred = model.predict(x_val)
    cm = confusion_matrix(y_val, pred, n_classes=model.cfg.n_classes)
    return f1_scores(cm).weighted


def nn_fit(
    x_train,
    y_train,
    weights,
    cfg: ResNetConfig,
    x_val,
    y_val,
) -> TabResNetModel:
    """Train a TabResNet with minibatch AdamW.

    Early stopping tracks validation weighted F1 with the configured
    patience and restores the best checkpoint; the learning rate halves
    after ``lr_patience`` consecutive non-improving epochs.  Minibatches
    of fewer than 2 samples are dropped (batch norm needs at least 2).
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    x_val = np.asarray(x_val, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.int64)
    wv = _weight_vector(weights, cfg.n_classes)
    if x_train.shape[1] != cfg.n_features:
        raise ValueError("config n_features=%d but data has %d" % (cfg.n_features, x_train.shape[1]))

    t0 = time.perf_counter()
    model = nn_build(cfg)
    net = model.net
    opt = _AdamW(net.flat_params, cfg.learning_rate, cfg.weight_decay)
    data_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    history = model.history

    best_f1 = -np.inf
    best_state = net.state()
    bad_for_stop = 0
    bad_for_lr = 0
    n = x_train.shape[0]
    for epoch in range(cfg.max_epochs):
        order = data_rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            if batch.size < 2:
                continue
            logits = net.forward(x_train[batch], train=True, rng=data_rng)
            loss, grad = _loss_and_grad(y_train[batch], logits, wv, cfg.binary_mode)
            if not np.isfinite(loss):
                raise RuntimeError(
                    "non-finite training loss at epoch %d, batch %d (lr=%g)"
                    % (epoch, n_batches, opt.lr)
                )
            net.backward(grad)
            opt.step(net.flat_grads)
            epoch_loss += loss
            n_batches += 1
        val_f1 = _weighted_val_f1(model, x_val, y_val)
        history.val_f1.append(val_f1)
        history.learning_rate.append(opt.lr)
        history.train_loss.append(epoch_loss / max(n_batches, 1))
        if val_f1 > best_f1 + cfg.min_improvement:
            best_f1 = val_f1
            best_state = net.state()
            history.best_epoch = epoch
            bad_for_stop = 0
            bad_for_lr = 0
        else:
            bad_for_stop += 1
            bad_for_lr += 1
            if bad_for_lr >= cfg.lr_patience:
                opt.lr *= cfg.lr_factor
                bad_for_lr = 0
            if bad_for_stop >= cfg.patience:
                history.stopped_early = True
                break
    net.load_state(best_state)
    model.train_seconds = time.perf_counter() - t0
    return model


def gradient_check(cfg: ResNetConfig, n_samples: int = 8, seed: int = 0, h: float = 1e-5) -> float:
    """Compare analytic parameter gradients against central finite
    differences on a small random problem; returns the maximum relative
    error over every parameter scalar.

    Dropout must be 0 and batch norm runs frozen (running statistics as
    constants) so the loss is smooth in the parameters.
    """
    if cfg.dropout != 0.0:
        raise ValueError("gradient_check requires dropout = 0")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, cfg.n_features))
    y = rng.integers(0, cfg.n_classes, size=n_samples)
    # ensure both / all classes appear so weighted terms are exercised
    y[: cfg.n_classes] = np.arange(cfg.n_classes)
    wv = rng.uniform(0.5, 3.0, size=cfg.n_classes)

    net = _Network(cfg)
    # one training-mode pass gives the frozen statistics non-trivial values
    net.forward(x, train=True, rng=rng)

    def loss_and_grad() -> tuple:
        return _loss_and_grad(y, net.forward(x, train=False), wv, cfg.binary_mode)

    net.backward(loss_and_grad()[1])
    analytic = net.flat_grads.copy()

    flat = net.flat_params
    max_rel = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_and_grad()[0]
        flat[i] = orig - h
        down = loss_and_grad()[0]
        flat[i] = orig
        numeric = (up - down) / (2.0 * h)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        max_rel = max(max_rel, abs(analytic[i] - numeric) / denom)
    return max_rel
