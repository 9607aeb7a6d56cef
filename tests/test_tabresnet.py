"""Hand-rolled residual network: layers, training loop, and gradients."""

import re

import numpy as np
import pytest

from imbench import (
    ResNetConfig,
    gradient_check,
    hidden_dim_bounds,
    nn_build,
    nn_fit,
)
from imbench.losses import cce_from_logits, one_hot
from imbench.tabresnet import _BatchNorm, _Dropout
from tests.conftest import make_blobs


def small_cfg(**overrides):
    base = dict(
        n_features=4, n_classes=2, hidden_dim=8, n_blocks=1, dropout=0.0,
        learning_rate=1e-2, lr_patience=50, batch_size=32,
        max_epochs=30, patience=30, seed=0,
    )
    base.update(overrides)
    return ResNetConfig(**base)


class TestHiddenDimBounds:
    def test_half_to_double_feature_count(self):
        assert hidden_dim_bounds(10) == (8, 20)
        assert hidden_dim_bounds(100) == (50, 200)

    def test_floored_at_eight(self):
        assert hidden_dim_bounds(3) == (8, 8)


class TestArchitecture:
    def test_parameter_count_closed_form(self):
        d, h, blocks, k = 10, 16, 2, 3
        cfg = ResNetConfig(n_features=d, n_classes=k, hidden_dim=h, n_blocks=blocks)
        model = nn_build(cfg)
        linear = (d * h + h) + blocks * 2 * (h * h + h) + (h * k + k)
        batchnorm = 2 * h * (1 + 2 * blocks)  # gamma+beta per BN layer
        assert model.net.n_parameters() == linear + batchnorm

    def test_parameter_count_with_reduction_and_binary_head(self):
        d, h = 6, 16
        cfg = ResNetConfig(
            n_features=d, n_classes=2, hidden_dim=h, n_blocks=1,
            use_reduction=True, binary_mode=True,
        )
        model = nn_build(cfg)
        linear = (d * h + h) + 2 * (h * h + h) + (h * (h // 2) + h // 2) + (h // 2 * 1 + 1)
        batchnorm = 2 * h * 3
        assert model.net.n_parameters() == linear + batchnorm

    def test_same_seed_gives_bit_identical_init(self):
        cfg = small_cfg(seed=11)
        a, b = nn_build(cfg), nn_build(cfg)
        for pa, pb in zip(a.net.parameters(), b.net.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_changes_init(self):
        a = nn_build(small_cfg(seed=11))
        b = nn_build(small_cfg(seed=12))
        assert any(
            not np.array_equal(pa, pb)
            for pa, pb in zip(a.net.parameters(), b.net.parameters())
        )

    def test_zeroed_residual_branch_is_relu_of_input(self, rng):
        net = nn_build(small_cfg(hidden_dim=8)).net
        block = net.layers[4]  # after the input stage's linear, BN, ReLU and dropout
        lin2 = block.layers[4]  # the branch's second linear
        lin2.w[...] = 0.0
        lin2.b[...] = 0.0
        x = rng.normal(size=(12, 8))
        out = block.forward(x, train=False, rng=None)
        np.testing.assert_array_equal(out, np.maximum(x, 0.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_cfg(hidden_dim=4)
        with pytest.raises(ValueError):
            small_cfg(dropout=0.6)
        with pytest.raises(ValueError):
            small_cfg(batch_size=1)
        with pytest.raises(ValueError):
            ResNetConfig(n_features=4, n_classes=3, binary_mode=True)


class TestBatchNorm:
    def test_train_output_is_standardized(self, rng):
        bn = _BatchNorm(6)
        x = rng.normal(loc=3.0, scale=2.5, size=(64, 6))
        out = bn.forward(x, train=True)
        assert np.abs(out.mean(axis=0)).max() < 1e-6
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_running_statistics_update_rule(self, rng):
        bn = _BatchNorm(5)
        x = rng.normal(size=(32, 5))
        bn.forward(x, train=True)
        np.testing.assert_allclose(bn.running_mean, 0.1 * x.mean(axis=0), rtol=1e-15)
        unbiased = x.var(axis=0) * 32 / 31
        np.testing.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * unbiased, rtol=1e-15)

    def test_eval_matches_train_when_buffers_hold_batch_stats(self, rng):
        bn = _BatchNorm(4)
        x = rng.normal(loc=-1.0, scale=3.0, size=(48, 4))
        train_out = bn.forward(x, train=True)
        bn.running_mean = x.mean(axis=0)
        bn.running_var = x.var(axis=0)  # biased, matching train-mode normalizer
        eval_out = bn.forward(x, train=False)
        np.testing.assert_array_equal(eval_out, train_out)


class TestDropout:
    def test_eval_and_zero_rate_are_identity(self, rng):
        x = rng.normal(size=(10, 7))
        assert _Dropout(0.3).forward(x, train=False, rng=rng) is x
        assert _Dropout(0.0).forward(x, train=True, rng=rng) is x

    def test_inverted_scaling_preserves_expectation(self):
        drop = _Dropout(0.3)
        rng = np.random.default_rng(0)
        x = np.ones((100, 50))
        total = np.zeros_like(x)
        for _ in range(40):
            total += drop.forward(x, train=True, rng=rng)
        mc_mean = total.mean() / 40
        assert abs(mc_mean - 1.0) < 0.02

    def test_surviving_units_scaled_by_keep(self, rng):
        drop = _Dropout(0.25)
        out = drop.forward(np.ones((30, 30)), train=True, rng=rng)
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)


class TestGradients:
    def test_analytic_gradients_match_finite_differences(self):
        configs = [
            dict(n_features=4, n_classes=3, hidden_dim=8, n_blocks=1),
            dict(n_features=4, n_classes=3, hidden_dim=8, n_blocks=2),
            dict(n_features=6, n_classes=2, hidden_dim=8, n_blocks=1, binary_mode=True),
            dict(n_features=6, n_classes=2, hidden_dim=8, n_blocks=1),
            dict(n_features=3, n_classes=4, hidden_dim=8, n_blocks=1, use_reduction=True),
            dict(n_features=5, n_classes=2, hidden_dim=10, n_blocks=2, binary_mode=True),
            dict(n_features=5, n_classes=5, hidden_dim=8, n_blocks=1),
            dict(n_features=8, n_classes=3, hidden_dim=8, n_blocks=1, use_reduction=True),
            dict(n_features=2, n_classes=2, hidden_dim=8, n_blocks=3),
            dict(n_features=7, n_classes=2, hidden_dim=12, n_blocks=1),
        ]
        for i, kw in enumerate(configs):
            err = gradient_check(ResNetConfig(dropout=0.0, seed=i, **kw), n_samples=6, seed=i)
            assert err < 1e-4, "config %d: max relative error %.3e" % (i, err)

    def test_gradient_check_requires_zero_dropout(self):
        with pytest.raises(ValueError, match="dropout"):
            gradient_check(small_cfg(dropout=0.1))

    def test_all_zero_parameters_leave_only_output_bias_gradient(self, rng):
        cfg = small_cfg(n_classes=3, hidden_dim=8, n_blocks=2)
        net = nn_build(cfg).net
        net.load_state([np.zeros_like(a) for a in net.parameters()] + net.buffers())
        x = rng.normal(size=(16, 4))
        y = rng.integers(0, 3, size=16)
        wv = rng.uniform(0.5, 2.0, size=3)
        logits = net.forward(x, train=False)
        np.testing.assert_array_equal(logits, 0.0)
        _, grad = cce_from_logits(y, logits, wv)
        net.backward(grad)
        # dL/db for the head is the column sum of the logit gradient:
        # (1/N) sum_i w_{y_i} (softmax(0) - onehot_i)
        expected = (wv[y][:, None] * (1.0 / 3 - one_hot(y, 3))).sum(axis=0) / 16
        head = net.layers[-1]
        np.testing.assert_allclose(head.gb, expected, rtol=1e-12)
        for layer_grads in net.gradients():
            if layer_grads is head.gb:
                continue
            np.testing.assert_array_equal(layer_grads, 0.0)


class TestTraining:
    def test_separable_problem_reaches_full_train_accuracy(self):
        data = make_blobs(64, 2, 4, 4.0, seed=1)
        cfg = small_cfg(max_epochs=200, patience=200)
        model = nn_fit(data.features, data.labels, np.ones(2), cfg, data.features, data.labels)
        assert np.mean(model.predict(data.features) == data.labels) == 1.0

    def test_patience_stops_training(self):
        """With an unreachable improvement bar, epoch 0 is the only
        'improvement' and training stops exactly ``patience`` epochs later."""
        data = make_blobs(60, 2, 3, 2.0, seed=2)
        cfg = small_cfg(
            n_features=3, max_epochs=100, patience=4, min_improvement=1.0, lr_patience=99
        )
        model = nn_fit(data.features, data.labels, np.ones(2), cfg, data.features, data.labels)
        h = model.history
        assert h.stopped_early
        assert h.n_epochs == 1 + 4
        assert h.best_epoch == 0

    def test_plateau_halves_learning_rate_on_schedule(self):
        data = make_blobs(60, 2, 3, 2.0, seed=2)
        lr0 = 1e-3
        cfg = small_cfg(
            n_features=3, learning_rate=lr0, max_epochs=8, patience=7,
            min_improvement=1.0, lr_patience=2,
        )
        model = nn_fit(data.features, data.labels, np.ones(2), cfg, data.features, data.labels)
        expected = [lr0, lr0, lr0, lr0 / 2, lr0 / 2, lr0 / 4, lr0 / 4, lr0 / 8]
        assert model.history.learning_rate == expected

    def test_best_checkpoint_is_restored(self):
        data = make_blobs(80, 2, 4, 2.0, seed=3)
        cfg = small_cfg(max_epochs=25, patience=5)
        model = nn_fit(data.features, data.labels, np.ones(2), cfg, data.features, data.labels)
        h = model.history
        assert h.val_f1[h.best_epoch] == max(h.val_f1)

    def test_full_batch_loss_never_increases(self):
        for seed in (0, 1, 2):
            data = make_blobs(64, 2, 4, 3.0, seed=seed)
            cfg = small_cfg(
                learning_rate=1e-3, weight_decay=0.0, batch_size=64,
                max_epochs=10, patience=100, lr_patience=50, seed=seed,
            )
            model = nn_fit(data.features, data.labels, np.ones(2), cfg, data.features, data.labels)
            assert np.all(np.diff(model.history.train_loss) <= 0.0)

    def test_training_is_deterministic(self):
        data = make_blobs(80, 3, 4, 2.0, seed=4)
        cfg = small_cfg(n_classes=3, max_epochs=5, dropout=0.1)
        a = nn_fit(data.features, data.labels, np.ones(3), cfg, data.features, data.labels)
        b = nn_fit(data.features, data.labels, np.ones(3), cfg, data.features, data.labels)
        np.testing.assert_array_equal(a.predict_proba(data.features), b.predict_proba(data.features))

    def test_history_rows_align(self):
        data = make_blobs(60, 2, 4, 2.0, seed=5)
        cfg = small_cfg(max_epochs=6, patience=10)
        h = nn_fit(data.features, data.labels, np.ones(2), cfg, data.features, data.labels).history
        assert len(h.val_f1) == len(h.learning_rate) == len(h.train_loss)

    def test_weight_vector_length_checked(self):
        data = make_blobs(60, 2, 4, 2.0, seed=5)
        with pytest.raises(ValueError, match="class weights"):
            nn_fit(data.features, data.labels, np.ones(3), small_cfg(), data.features, data.labels)

    def test_feature_width_checked(self):
        data = make_blobs(60, 2, 5, 2.0, seed=5)
        with pytest.raises(ValueError, match="n_features"):
            nn_fit(data.features, data.labels, np.ones(2), small_cfg(), data.features, data.labels)


class TestBinaryMode:
    def test_single_logit_head_yields_two_column_proba(self):
        data = make_blobs(80, 2, 4, 3.0, seed=6)
        cfg = small_cfg(binary_mode=True, max_epochs=20)
        model = nn_fit(data.features, data.labels, np.ones(2), cfg, data.features, data.labels)
        p = model.predict_proba(data.features)
        assert p.shape == (80, 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)

    def test_binary_head_also_learns(self):
        data = make_blobs(80, 2, 4, 4.0, seed=6)
        cfg = small_cfg(binary_mode=True, max_epochs=60, patience=60)
        model = nn_fit(data.features, data.labels, np.ones(2), cfg, data.features, data.labels)
        assert np.mean(model.predict(data.features) == data.labels) >= 0.95


class TestSerialization:
    def test_dict_round_trip_is_bitwise(self, rng):
        data = make_blobs(60, 2, 4, 2.0, seed=7)
        cfg = small_cfg(max_epochs=4)
        model = nn_fit(data.features, data.labels, np.ones(2), cfg, data.features, data.labels)
        from imbench import TabResNetModel

        clone = TabResNetModel.from_dict(model.to_dict())
        probe = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(clone.predict_proba(probe), model.predict_proba(probe))

    def test_file_round_trip_through_shared_loader(self, rng, tmp_path):
        """save_model/load_model dispatch on the family tag, so a saved
        network comes back as a TabResNetModel with identical outputs."""
        from imbench import load_model, save_model

        data = make_blobs(60, 2, 4, 2.0, seed=8)
        model = nn_fit(data.features, data.labels, np.ones(2), small_cfg(max_epochs=3),
                       data.features, data.labels)
        path = tmp_path / "net.json"
        save_model(model, path)
        clone = load_model(path)
        assert clone.family == "tabresnet"
        probe = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(clone.predict_proba(probe), model.predict_proba(probe))

    def test_data_of_another_width_rejected(self, tmp_path):
        """A network predicts only on tables of its fit's width, in memory and
        after a save/load, with the tree models' error."""
        from imbench import load_model, save_model

        data = make_blobs(60, 2, 4, 2.0, seed=8)
        model = nn_fit(data.features, data.labels, np.ones(2), small_cfg(max_epochs=2),
                       data.features, data.labels)
        path = tmp_path / "net.json"
        save_model(model, path)
        x = data.features
        for m in (model, load_model(path)):
            for bad in (np.hstack([x, x[:, :2]]), x[:, :3], x[0]):
                message = r"the model was fitted on 4 features, got data of shape %s" % re.escape(str(bad.shape))
                for method in (m.predict, m.predict_proba):
                    with pytest.raises(ValueError, match=message):
                        method(bad)
            assert m.predict_proba(x).shape == (60, 2)

    @pytest.mark.parametrize("index, shape, n_values", [
        (1, [1], 1),  # the input bias, one value where there are eight
        (0, [4, 1], 4),  # the (4, 8) input weight, one column
        (0, [8, 4], 32),  # the input weight, transposed
        (-1, [1, 8], 8),  # the last running variance, one row
    ])
    def test_mis_shaped_array_is_rejected(self, index, shape, n_values):
        from imbench import TabResNetModel

        obj = nn_build(small_cfg()).to_dict()
        obj["arrays"][index] = {"shape": shape, "values": [0.5] * n_values}
        with pytest.raises(ValueError, match="shape"):
            TabResNetModel.from_dict(obj)

    def test_file_layout_is_pinned(self):
        """The order and shapes of ``arrays`` are the network file format:
        parameters in forward order, then each batch norm's running mean and
        variance."""
        def shapes(**kw):
            return [a["shape"] for a in nn_build(ResNetConfig(**kw)).to_dict()["arrays"]]

        block = [[8, 8], [8], [8], [8]] * 2  # twice: linear weight and bias, BN scale and shift
        buffers = [[8], [8]]  # running mean, running variance
        assert shapes(n_features=3, n_classes=4, hidden_dim=8, n_blocks=2, use_reduction=True) == (
            [[3, 8], [8], [8], [8]] + block * 2 + [[8, 4], [4], [4, 4], [4]] + buffers * 5
        )
        assert shapes(n_features=3, n_classes=2, hidden_dim=8, n_blocks=1, binary_mode=True) == (
            [[3, 8], [8], [8], [8]] + block + [[8, 1], [1]] + buffers * 3
        )
