"""Every settings dataclass checks its integer fields and flags the same way:
a value that is not an integer (a bool is not one), or is below the field's
bound, or a flag that is not a bool, is a ValueError naming the field; numpy
integers and numpy bools are stored as ``int`` and ``bool``."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbench import ExperimentConfig, ForestParams, GbtParams, HpoSpec, ResNetConfig, SynthConfig, TreeParams

SYNTH = SynthConfig(n_samples=10, n_classes=2, n_features=3, class_counts=(4, 6), seed=1)

# (type, valid keyword arguments, integer fields -> lower bound, sequence fields whose
#  every entry is such an integer -> lower bound, bool flags)
SETTINGS = [
    (ExperimentConfig, dict(synth=SYNTH, filter_thresholds=(1, 5), n_runs=2, base_seed=3, workers=1),
     {"n_runs": 1, "base_seed": 0, "workers": 1}, {"filter_thresholds": 1}, ()),
    (HpoSpec, dict(n_trials=3, cv_folds=2, seed=7, per_threshold=True),
     {"n_trials": 1, "cv_folds": 2, "seed": 0}, {}, ("per_threshold",)),
    (SynthConfig, dict(n_samples=10, n_classes=2, n_features=3, class_counts=(4, 6), seed=1),
     {"n_samples": 1, "n_classes": 2, "n_features": 1, "seed": 0}, {"class_counts": 1}, ()),
    (TreeParams, dict(max_depth=4, min_samples_split=3, min_samples_leaf=2),
     {"max_depth": 1, "min_samples_split": 2, "min_samples_leaf": 1}, {}, ()),
    (ForestParams, dict(n_estimators=5, max_depth=4, min_samples_split=3, min_samples_leaf=2, bootstrap=False),
     {"n_estimators": 1, "max_depth": 1, "min_samples_split": 2, "min_samples_leaf": 1}, {}, ("bootstrap",)),
    (GbtParams, dict(n_estimators=5, max_depth=2), {"n_estimators": 0, "max_depth": 1}, {}, ()),
    (ResNetConfig, dict(n_features=3, n_classes=2, hidden_dim=16, n_blocks=2, batch_size=32, max_epochs=5,
                        patience=2, lr_patience=1, seed=4, use_reduction=True, binary_mode=True),
     {"n_features": 1, "n_classes": 2, "hidden_dim": 8, "n_blocks": 1, "batch_size": 2, "max_epochs": 1,
      "patience": 1, "lr_patience": 1, "seed": 0}, {}, ("use_reduction", "binary_mode")),
]

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def _integer_field(data):
    """A settings type, its valid kwargs, one of its integer fields, that
    field's bound, and a function putting a value in that field's kwargs."""
    cls, base, ints, entries, _ = data.draw(st.sampled_from(SETTINGS))
    name, low = data.draw(st.sampled_from(sorted({**ints, **entries}.items())))
    if name in entries:
        return cls, base, name, low, lambda v: {**base, name: (v, *base[name][1:])}
    return cls, base, name, low, lambda v: {**base, name: v}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_non_integer_in_an_integer_field_is_named(data):
    cls, _, name, _, put = _integer_field(data)
    value = data.draw(st.one_of(st.floats().filter(lambda f: not f.is_integer()), st.text(), st.booleans(),
                                st.booleans().map(np.bool_)))  # a bool is an int to operator.index
    with pytest.raises(ValueError, match=re.escape("%s must be an integer, got %r" % (name, value))):
        cls(**put(value))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_an_integer_below_the_bound_is_named(data):
    cls, _, name, low, put = _integer_field(data)
    value = data.draw(st.integers(max_value=low - 1))
    with pytest.raises(ValueError, match=re.escape("%s must be >= %d, got %d" % (name, low, value))):
        cls(**put(value))


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(SETTINGS), dtype=st.sampled_from(NUMPY_INTS))
def test_numpy_integers_are_stored_as_int(case, dtype):
    cls, base, ints, entries, _ = case
    kwargs = {**base, **{n: dtype(base[n]) for n in ints}, **{n: tuple(map(dtype, base[n])) for n in entries}}
    obj = cls(**kwargs)
    for n in ints:
        assert type(getattr(obj, n)) is int and getattr(obj, n) == base[n]
    for n in entries:
        assert all(type(v) is int for v in getattr(obj, n)) and getattr(obj, n) == base[n]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_flag_takes_only_a_bool(data):
    cls, base, _, _, flags = data.draw(st.sampled_from([case for case in SETTINGS if case[4]]))
    name = data.draw(st.sampled_from(flags))
    value = data.draw(st.one_of(st.integers(), st.floats(), st.text(), st.none()))
    with pytest.raises(ValueError, match=re.escape("%s must be a bool, got %r" % (name, value))):
        cls(**{**base, name: value})
    stored = getattr(cls(**{**base, name: np.bool_(base[name])}), name)
    assert type(stored) is bool and stored == base[name]
