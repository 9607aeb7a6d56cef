"""The fused TabResNet training step against a frozen per-array oracle.

The oracle below is the network and training loop as they were before the
parameters moved into one flat vector: every layer owns its arrays,
``backward`` rebinds fresh gradient arrays, batch norm goes through
``mean``/``var``/``sum``, and AdamW loops over the parameter list.  The
property asserts that ``nn_fit`` reproduces it byte for byte.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from imbench import ResNetConfig, nn_build, nn_fit
from imbench.evaluation import confusion_matrix, f1_scores
from imbench.losses import bce_from_logits, cce_from_logits, sigmoid, softmax
from imbench.tabresnet import TrainHistory

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1


# ---------------------------------------------------------------------------
# frozen per-array oracle
# ---------------------------------------------------------------------------


class _Linear:
    def __init__(self, n_in, n_out, rng):
        bound = 1.0 / math.sqrt(n_in)
        self.w = rng.uniform(-bound, bound, size=(n_in, n_out))
        self.b = rng.uniform(-bound, bound, size=n_out)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def forward(self, x):
        self._x = x
        return x @ self.w + self.b

    def backward(self, g):
        self.gw = self._x.T @ g
        self.gb = g.sum(axis=0)
        return g @ self.w.T

    params = property(lambda self: [self.w, self.b])
    grads = property(lambda self: [self.gw, self.gb])


class _BatchNorm:
    def __init__(self, width):
        self.gamma = np.ones(width)
        self.beta = np.zeros(width)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.ggamma = np.zeros_like(self.gamma)
        self.gbeta = np.zeros_like(self.beta)
        self._cache = None

    def forward(self, x, train):
        if train:
            n = x.shape[0]
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + _BN_EPS)
            xhat = (x - mu) * inv_std
            unbiased = var * n / (n - 1) if n > 1 else var
            self.running_mean = (1.0 - _BN_MOMENTUM) * self.running_mean + _BN_MOMENTUM * mu
            self.running_var = (1.0 - _BN_MOMENTUM) * self.running_var + _BN_MOMENTUM * unbiased
            self._cache = ("train", xhat, inv_std, x - mu)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + _BN_EPS)
            xhat = (x - self.running_mean) * inv_std
            self._cache = ("eval", xhat, inv_std, None)
        return self.gamma * xhat + self.beta

    def backward(self, g):
        mode, xhat, inv_std, centered = self._cache
        self.ggamma = (g * xhat).sum(axis=0)
        self.gbeta = g.sum(axis=0)
        gxhat = g * self.gamma
        if mode == "eval":
            return gxhat * inv_std
        n = g.shape[0]
        gvar = np.sum(gxhat * centered, axis=0) * (-0.5) * inv_std**3
        gmu = -np.sum(gxhat, axis=0) * inv_std + gvar * (-2.0 / n) * centered.sum(axis=0)
        return gxhat * inv_std + gvar * (2.0 / n) * centered + gmu / n

    params = property(lambda self: [self.gamma, self.beta])
    grads = property(lambda self: [self.ggamma, self.gbeta])


class _ReLU:
    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, g):
        return g * self._mask


class _Dropout:
    def __init__(self, rate):
        self.rate = rate
        self._mask = None

    def forward(self, x, train, rng):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, g):
        return g if self._mask is None else g * self._mask


class _ResidualBlock:
    def __init__(self, width, dropout, rng):
        self.lin1 = _Linear(width, width, rng)
        self.bn1 = _BatchNorm(width)
        self.relu1 = _ReLU()
        self.drop = _Dropout(dropout)
        self.lin2 = _Linear(width, width, rng)
        self.bn2 = _BatchNorm(width)
        self.relu_out = _ReLU()

    def forward(self, x, train, rng):
        h = self.relu1.forward(self.bn1.forward(self.lin1.forward(x), train))
        h = self.drop.forward(h, train, rng)
        h = self.bn2.forward(self.lin2.forward(h), train)
        return self.relu_out.forward(h + x)

    def backward(self, g):
        g = self.relu_out.backward(g)
        skip = g
        g = self.lin2.backward(self.bn2.backward(g))
        g = self.relu1.backward(self.drop.backward(g))
        g = self.lin1.backward(self.bn1.backward(g))
        return g + skip


class _Network:
    def __init__(self, cfg):
        rng = np.random.default_rng(cfg.seed)
        h = cfg.hidden_dim
        self.input_lin = _Linear(cfg.n_features, h, rng)
        self.input_bn = _BatchNorm(h)
        self.input_relu = _ReLU()
        self.input_drop = _Dropout(cfg.dropout)
        self.blocks = [_ResidualBlock(h, cfg.dropout, rng) for _ in range(cfg.n_blocks)]
        out_width = 1 if cfg.binary_mode else cfg.n_classes
        self.reduce_lin = _Linear(h, h // 2, rng) if cfg.use_reduction else None
        self.reduce_relu = _ReLU()
        self.output_lin = _Linear(h // 2 if cfg.use_reduction else h, out_width, rng)

    def _layers(self):
        layers = [self.input_lin, self.input_bn]
        for blk in self.blocks:
            layers += [blk.lin1, blk.bn1, blk.lin2, blk.bn2]
        if self.reduce_lin is not None:
            layers.append(self.reduce_lin)
        return layers + [self.output_lin]

    def parameters(self):
        return [p for layer in self._layers() for p in layer.params]

    def gradients(self):
        return [g for layer in self._layers() for g in layer.grads]

    def buffers(self):
        return [b for layer in self._layers() if isinstance(layer, _BatchNorm)
                for b in (layer.running_mean, layer.running_var)]

    def forward(self, x, train, rng=None):
        h = self.input_relu.forward(self.input_bn.forward(self.input_lin.forward(x), train))
        h = self.input_drop.forward(h, train, rng)
        for blk in self.blocks:
            h = blk.forward(h, train, rng)
        if self.reduce_lin is not None:
            h = self.reduce_relu.forward(self.reduce_lin.forward(h))
        return self.output_lin.forward(h)

    def backward(self, g):
        g = self.output_lin.backward(g)
        if self.reduce_lin is not None:
            g = self.reduce_lin.backward(self.reduce_relu.backward(g))
        for blk in reversed(self.blocks):
            g = blk.backward(g)
        g = self.input_bn.backward(self.input_relu.backward(self.input_drop.backward(g)))
        self.input_lin.backward(g)

    def state(self):
        return [a.copy() for a in self.parameters() + self.buffers()]

    def load_state(self, state):
        for dst, src in zip(self.parameters() + self.buffers(), state):
            dst[...] = src


class _AdamW:
    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= self.lr * ((m / b1t) / (np.sqrt(v / b2t) + self.eps) + self.weight_decay * p)


def oracle_proba(net, cfg, x):
    logits = net.forward(x, train=False)
    if cfg.binary_mode:
        p = sigmoid(logits[:, 0])
        return np.column_stack([1.0 - p, p])
    return softmax(logits)


def oracle_fit(x_train, y_train, wv, cfg, x_val, y_val):
    """The training loop of ``nn_fit`` over the per-array network."""
    net = _Network(cfg)
    opt = _AdamW(net.parameters(), cfg.learning_rate, cfg.weight_decay)
    data_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    history = TrainHistory()
    best_f1, best_state = -np.inf, net.state()
    bad_for_stop = bad_for_lr = 0
    n = x_train.shape[0]
    for epoch in range(cfg.max_epochs):
        order = data_rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            if batch.size < 2:
                continue
            logits = net.forward(x_train[batch], train=True, rng=data_rng)
            if cfg.binary_mode:
                loss, grad = bce_from_logits(y_train[batch], logits[:, 0], wv)
                grad = grad[:, None]
            else:
                loss, grad = cce_from_logits(y_train[batch], logits, wv)
            if not np.isfinite(loss):
                raise RuntimeError("non-finite training loss at epoch %d, batch %d (lr=%g)"
                                   % (epoch, n_batches, opt.lr))
            net.backward(grad)
            opt.step(net.gradients())
            epoch_loss += loss
            n_batches += 1
        pred = oracle_proba(net, cfg, x_val).argmax(axis=1)
        val_f1 = f1_scores(confusion_matrix(y_val, pred, n_classes=cfg.n_classes)).weighted
        history.val_f1.append(val_f1)
        history.learning_rate.append(opt.lr)
        history.train_loss.append(epoch_loss / max(n_batches, 1))
        if val_f1 > best_f1 + cfg.min_improvement:
            best_f1, best_state = val_f1, net.state()
            history.best_epoch = epoch
            bad_for_stop = bad_for_lr = 0
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
    return net, history


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@st.composite
def fit_cases(draw):
    binary = draw(st.booleans())
    n_classes = 2 if binary else draw(st.integers(2, 4))
    n_features = draw(st.integers(1, 6))
    batch_size = draw(st.integers(2, 24))
    # a remainder of 1 leaves a 1-row tail batch, which training drops
    n_train = batch_size * draw(st.integers(1, 4)) + draw(st.sampled_from((1, 1, 0, batch_size // 2)))
    cfg = ResNetConfig(
        n_features=n_features,
        n_classes=n_classes,
        hidden_dim=draw(st.integers(8, 16)),
        n_blocks=draw(st.integers(1, 4)),
        dropout=draw(st.sampled_from((0.0, 0.0, 0.2, 0.5))),
        use_reduction=draw(st.booleans()),
        binary_mode=binary,
        learning_rate=draw(st.sampled_from((1e-3, 1e-2, 5e-2))),
        weight_decay=draw(st.sampled_from((0.0, 1e-4, 1e-2))),
        batch_size=batch_size,
        max_epochs=draw(st.integers(1, 6)),
        patience=draw(st.integers(1, 4)),
        lr_patience=1,
        # 1.0 makes every epoch after the first a non-improvement
        min_improvement=draw(st.sampled_from((1e-6, 1.0))),
        seed=draw(st.integers(0, 2**16)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    y = rng.integers(0, n_classes, size=n_train + 20)
    x = rng.normal(size=(y.size, n_features)) + y[:, None] * rng.normal(size=n_features)
    wv = rng.uniform(0.2, 3.0, size=n_classes)
    return cfg, x[:n_train], y[:n_train], wv, x[n_train:], y[n_train:]


def _outcome(fit):
    try:
        return fit(), None
    except RuntimeError as exc:
        return None, str(exc)


@settings(max_examples=150, deadline=None)
@given(fit_cases())
def test_nn_fit_is_bitwise_equal_to_the_per_array_oracle(case):
    cfg, x, y, wv, x_val, y_val = case
    got, got_err = _outcome(lambda: nn_fit(x, y, wv, cfg, x_val, y_val))
    want, want_err = _outcome(lambda: oracle_fit(x, y, wv, cfg, x_val, y_val))
    assert got_err == want_err
    if got is None:
        return
    net, history = want
    assert got.history == history
    got_arrays = got.net.parameters() + got.net.buffers()
    want_arrays = net.parameters() + net.buffers()
    assert [a.shape for a in got_arrays] == [a.shape for a in want_arrays]
    assert [a.tobytes() for a in got_arrays] == [a.tobytes() for a in want_arrays]
    probe = np.concatenate([x_val, x])
    assert got.predict_proba(probe).tobytes() == oracle_proba(net, cfg, probe).tobytes()


def test_learning_rate_halves_in_the_oracle_cases():
    """The property's lr_patience=1 and min_improvement=1.0 draws do exercise
    the plateau schedule."""
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, size=41)
    x = rng.normal(size=(41, 3)) + y[:, None]
    cfg = ResNetConfig(n_features=3, n_classes=3, hidden_dim=8, n_blocks=2, dropout=0.2, batch_size=8,
                       max_epochs=4, patience=4, lr_patience=1, min_improvement=1.0, learning_rate=1e-2)
    model = nn_fit(x[:33], y[:33], np.ones(3), cfg, x[33:], y[33:])
    assert model.history.learning_rate == [1e-2, 1e-2, 5e-3, 2.5e-3]
    net, history = oracle_fit(x[:33], y[:33], np.ones(3), cfg, x[33:], y[33:])
    assert model.history == history


def _assert_bound(net):
    """Every parameter and gradient is a view into the network's flat vectors."""
    assert all(np.shares_memory(p, net.flat_params) for p in net.parameters())
    assert all(np.shares_memory(g, net.flat_grads) for g in net.gradients())
    assert np.concatenate([p.ravel() for p in net.parameters()]).tobytes() == net.flat_params.tobytes()
    assert np.concatenate([g.ravel() for g in net.gradients()]).tobytes() == net.flat_grads.tobytes()


def test_load_state_keeps_parameter_views_bound():
    cfg = ResNetConfig(n_features=3, n_classes=3, hidden_dim=8, n_blocks=2, use_reduction=True,
                       batch_size=8, max_epochs=3)
    rng = np.random.default_rng(1)
    y = rng.integers(0, 3, size=40)
    x = rng.normal(size=(40, 3))
    model = nn_fit(x, y, np.ones(3), cfg, x, y)  # ends by loading the best checkpoint
    net = model.net
    _assert_bound(net)
    state = [a + 1.0 for a in net.parameters()] + [a.copy() for a in net.buffers()]
    net.load_state(state)
    _assert_bound(net)
    assert all(np.array_equal(p, s) for p, s in zip(net.parameters(), state))
    net.flat_params[:] = 0.0
    assert all(not p.any() for p in net.parameters())
    # a fresh network and a restored one are bound the same way
    _assert_bound(nn_build(cfg).net)
    _assert_bound(type(model).from_dict(model.to_dict()).net)
