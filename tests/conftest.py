"""Shared fixtures/helpers for the test suite."""

import numpy as np
import pytest

from imbench import SynthConfig, hpo, synth_generate


def make_blobs(n_samples, n_classes, n_features, separation, seed, counts=None, gamma=None):
    """Synthetic Gaussian-cluster dataset with either explicit counts or a
    power-law profile (defaults to balanced when neither is given)."""
    if counts is None and gamma is None:
        base = n_samples // n_classes
        counts = [base] * n_classes
        counts[0] += n_samples - base * n_classes
    cfg = SynthConfig(
        n_samples=n_samples,
        n_classes=n_classes,
        n_features=n_features,
        cluster_separation=separation,
        class_counts=tuple(counts) if counts is not None else None,
        power_law_exponent=gamma,
        seed=seed,
    )
    return synth_generate(cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _restore_family_registry():
    """Undo every register_family/alias_family/unregister_family a test makes."""
    saved = dict(hpo._REGISTRY)
    yield
    hpo._REGISTRY.clear()
    hpo._REGISTRY.update(saved)
