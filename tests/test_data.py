"""CSV loading, preprocessing, stratified splits, and rare-class filtering."""

import csv
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbench import (
    ColumnSchema,
    ColumnSpec,
    Dataset,
    RawDataset,
    filter_min_class_count,
    load_csv,
    load_schema,
    preprocess,
    save_csv,
    schema_for,
    stratified_split,
)
from imbench.data import MISSING_TOKENS, _largest_remainder


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def simple_schema(*feature_specs):
    cols = [ColumnSpec(name, "feature", kind) for name, kind in feature_specs]
    cols.append(ColumnSpec("label", "label"))
    return ColumnSchema(tuple(cols))


def make_dataset(labels, n_features=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(
        features=rng.normal(size=(labels.size, n_features)),
        labels=labels,
        feature_names=tuple("f%d" % j for j in range(n_features)),
        class_names=tuple("c%d" % k for k in range(labels.max() + 1)),
    )


class TestSchema:
    def test_load_schema_round_trip(self, tmp_path):
        schema = simple_schema(("age", "continuous"), ("color", "categorical"))
        p = tmp_path / "schema.json"
        p.write_text(schema.to_json(), encoding="utf-8")
        loaded = load_schema(p)
        assert loaded == schema

    def test_role_defaults_to_feature(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text(
            json.dumps({"columns": [{"name": "x"}, {"name": "y", "role": "label"}]}),
            encoding="utf-8",
        )
        schema = load_schema(p)
        assert schema.columns[0].role == "feature"
        assert schema.columns[0].kind == "continuous"

    @pytest.mark.parametrize("obj, message", [
        ({"columns": [{"name": "a"}, {"name": "id", "rol": "ignore"}, {"name": "y", "role": "label"}]},
         "unknown key 'rol' in schema column 'id'"),
        ({"columns": [{"name": "a"}, {"name": "y", "role": "label"}], "label": "y"}, "unknown key 'label' in the schema"),
    ])
    def test_unknown_key_is_named(self, tmp_path, obj, message):
        """A misspelled key would otherwise take its default: ``"rol"`` made
        ``id`` a continuous feature."""
        p = tmp_path / "schema.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_schema(p)

    def test_exactly_one_label_required(self):
        with pytest.raises(ValueError, match="label"):
            ColumnSchema((ColumnSpec("a", "feature"),))
        with pytest.raises(ValueError, match="label"):
            ColumnSchema((ColumnSpec("a", "label"), ColumnSpec("b", "label")))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ColumnSchema((ColumnSpec("a", "feature"), ColumnSpec("a", "label")))

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            ColumnSpec("a", "target")


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,color,label\n1.5,red,yes\n2.5,blue,no\n")
        raw = load_csv(p, simple_schema(("x", "continuous"), ("color", "categorical")))
        np.testing.assert_array_equal(raw.continuous["x"], [1.5, 2.5])
        assert raw.categorical["color"] == ["red", "blue"]
        np.testing.assert_array_equal(raw.labels, [0, 1])
        assert raw.class_names == ["yes", "no"]

    def test_column_order_is_free(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "label,x\nyes,1\nno,2\n")
        raw = load_csv(p, simple_schema(("x", "continuous")))
        np.testing.assert_array_equal(raw.continuous["x"], [1.0, 2.0])

    def test_missing_tokens_become_nan_or_none(self, tmp_path):
        p = write_csv(
            tmp_path / "d.csv",
            "x,color,label\n1,red,a\nNA,,b\n,blue,a\n",
        )
        raw = load_csv(p, simple_schema(("x", "continuous"), ("color", "categorical")))
        assert np.isnan(raw.continuous["x"][1]) and np.isnan(raw.continuous["x"][2])
        assert raw.categorical["color"][1] is None

    def test_ignored_columns_are_skipped(self, tmp_path):
        schema = ColumnSchema(
            (
                ColumnSpec("x", "feature", "continuous"),
                ColumnSpec("note", "ignore"),
                ColumnSpec("label", "label"),
            )
        )
        p = write_csv(tmp_path / "d.csv", "x,note,label\n1,whatever,a\n2,text,b\n")
        raw = load_csv(p, schema)
        assert "note" not in raw.continuous and "note" not in raw.categorical

    def test_header_mismatch_reported(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,label\n1,a\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(p, simple_schema(("x", "continuous"), ("y", "continuous")))

    def test_malformed_number_names_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,label\n1,a\nabc,b\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(p, simple_schema(("x", "continuous")))

    def test_missing_label_names_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,label\n1,a\n2,\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(p, simple_schema(("x", "continuous")))

    def test_ragged_row_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,label\n1,a\n2\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(p, simple_schema(("x", "continuous")))

    def test_empty_and_header_only_files_rejected(self, tmp_path):
        empty = write_csv(tmp_path / "e.csv", "")
        header = write_csv(tmp_path / "h.csv", "x,label\n")
        schema = simple_schema(("x", "continuous"))
        with pytest.raises(ValueError, match="empty"):
            load_csv(empty, schema)
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(header, schema)

    def test_labels_densified_in_first_appearance_order(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,label\n1,zebra\n2,ant\n3,zebra\n")
        raw = load_csv(p, simple_schema(("x", "continuous")))
        assert raw.class_names == ["zebra", "ant"]
        np.testing.assert_array_equal(raw.labels, [0, 1, 0])


class TestPreprocess:
    def raw_continuous(self, values, labels=None):
        n = len(values)
        if labels is None:
            labels = np.arange(n) % 2
        return RawDataset(
            continuous={"x": np.asarray(values, dtype=np.float64)},
            categorical={},
            labels=np.asarray(labels, dtype=np.int64),
            class_names=["a", "b"],
            schema=simple_schema(("x", "continuous")),
        )

    def test_z_score_uses_sample_std(self):
        data = preprocess(self.raw_continuous([1.0, 2.0, 3.0, 4.0]))
        col = data.features[:, 0]
        np.testing.assert_allclose(col.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(col.var(ddof=1), 1.0, atol=1e-12)

    def test_constant_column_becomes_zeros(self):
        data = preprocess(self.raw_continuous([5.0, 5.0, 5.0, 5.0]))
        np.testing.assert_array_equal(data.features[:, 0], 0.0)

    def test_median_imputation(self):
        # observed values 1, 3, 10 -> median 3 fills the gap
        raw = self.raw_continuous([1.0, np.nan, 3.0, 10.0])
        filled = preprocess(raw).features[:, 0]
        assert filled[1] == filled[2]

    def test_mostly_missing_column_dropped(self):
        raw = RawDataset(
            continuous={
                "bad": np.array([1.0, np.nan, np.nan, np.nan]),
                "good": np.array([1.0, 2.0, 3.0, 4.0]),
            },
            categorical={},
            labels=np.array([0, 1, 0, 1]),
            class_names=["a", "b"],
            schema=simple_schema(("bad", "continuous"), ("good", "continuous")),
        )
        data = preprocess(raw)
        assert data.feature_names == ("good",)

    def test_one_hot_first_appearance_order(self):
        raw = RawDataset(
            continuous={},
            categorical={"c": ["red", "blue", "red", "green"]},
            labels=np.array([0, 1, 0, 1]),
            class_names=["a", "b"],
            schema=simple_schema(("c", "categorical")),
        )
        data = preprocess(raw)
        assert data.feature_names == ("c=red", "c=blue", "c=green")
        np.testing.assert_array_equal(
            data.features, [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )
        np.testing.assert_array_equal(data.features.sum(axis=1), 1.0)

    def test_mode_imputation_breaks_ties_by_first_appearance(self):
        raw = RawDataset(
            continuous={},
            categorical={"c": ["b", "a", None, "a", "b"]},
            labels=np.array([0, 1, 0, 1, 0]),
            class_names=["x", "y"],
            schema=simple_schema(("c", "categorical")),
        )
        data = preprocess(raw)
        # tie between "b" and "a": "b" appeared first, fills the hole
        np.testing.assert_array_equal(data.features[2], data.features[0])

    def test_idempotent_on_standardized_continuous(self):
        rng = np.random.default_rng(3)
        first = preprocess(self.raw_continuous(rng.normal(5.0, 3.0, size=40), labels=np.arange(40) % 2))
        again = preprocess(
            RawDataset(
                continuous={"x": first.features[:, 0].copy()},
                categorical={},
                labels=np.asarray(first.labels),
                class_names=list(first.class_names),
                schema=simple_schema(("x", "continuous")),
            )
        )
        np.testing.assert_allclose(again.features, first.features, atol=1e-12)

    def test_all_columns_dropped_is_an_error(self):
        raw = self.raw_continuous([np.nan, np.nan, np.nan, 1.0])
        with pytest.raises(ValueError, match="no usable feature columns"):
            preprocess(raw)

    def test_output_is_finite(self):
        raw = self.raw_continuous([1.0, np.nan, 2.0, np.nan, 9.0, 4.0])
        assert np.all(np.isfinite(preprocess(raw).features))


class TestStratifiedSplit:
    def test_worked_allocation_100_samples(self):
        data = make_dataset([0] * 60 + [1] * 40)
        split = stratified_split(data, fractions=(0.6, 0.2, 0.2), seed=0)
        y = data.labels
        for part, c0, c1 in ((split.train, 36, 24), (split.val, 12, 8), (split.test, 12, 8)):
            assert np.sum(y[part] == 0) == c0
            assert np.sum(y[part] == 1) == c1

    def test_partition_of_all_rows(self, rng):
        data = make_dataset(rng.integers(0, 4, size=237))
        split = stratified_split(data, seed=5)
        combined = np.sort(np.concatenate([split.train, split.val, split.test]))
        np.testing.assert_array_equal(combined, np.arange(data.n_samples))

    def test_per_class_counts_within_one_of_proportional(self, rng):
        counts = [97, 31, 12, 5]
        data = make_dataset(np.repeat(np.arange(4), counts))
        fractions = (0.5, 0.25, 0.25)
        split = stratified_split(data, fractions=fractions, seed=2)
        for k, n_k in enumerate(counts):
            for part, f in zip((split.train, split.val, split.test), fractions):
                got = np.sum(data.labels[part] == k)
                assert abs(got - n_k * f) <= 1.0

    def test_same_seed_reproduces(self):
        data = make_dataset(np.arange(120) % 3)
        a = stratified_split(data, seed=7)
        b = stratified_split(data, seed=7)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.val, b.val)
        np.testing.assert_array_equal(a.test, b.test)

    def test_different_seeds_differ(self):
        data = make_dataset(np.arange(120) % 3)
        a = stratified_split(data, seed=7)
        b = stratified_split(data, seed=8)
        assert not np.array_equal(a.train, b.train)

    def test_tiny_class_rejected(self):
        data = make_dataset([0] * 50 + [1] * 2)
        with pytest.raises(ValueError, match="at least 3"):
            stratified_split(data)

    def test_bad_fractions_rejected(self):
        data = make_dataset(np.arange(30) % 2)
        with pytest.raises(ValueError):
            stratified_split(data, fractions=(0.8, 0.2, 0.0))
        with pytest.raises(ValueError):
            stratified_split(data, fractions=(0.5, 0.3, 0.3))

    def test_overlapping_indices_rejected_by_container(self):
        from imbench import SplitIndices

        with pytest.raises(ValueError, match="overlap"):
            SplitIndices(train=np.array([0, 1]), val=np.array([1]), test=np.array([2]))

    def test_duplicate_within_one_set_and_negative_indices(self):
        from imbench import SplitIndices

        with pytest.raises(ValueError, match="split index sets overlap"):
            SplitIndices(train=np.array([4, 0, 4]), val=np.array([1]), test=np.array([2]))
        with pytest.raises(ValueError, match="split index sets overlap"):
            SplitIndices(train=np.array([-3, 5]), val=np.array([0]), test=np.array([-3]))
        split = SplitIndices(train=np.array([-3, 5]), val=np.array([-1]), test=np.array([], dtype=np.int64))
        assert split.train.tolist() == [-3, 5]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(-20, 20), max_size=12), min_size=3, max_size=3))
    def test_overlap_check_matches_a_set_oracle(self, parts):
        from imbench import SplitIndices

        combined = [i for part in parts for i in part]
        arrays = [np.array(p, dtype=np.int64) for p in parts]
        if len(set(combined)) < len(combined):
            with pytest.raises(ValueError, match="split index sets overlap"):
                SplitIndices(*arrays)
        else:
            SplitIndices(*arrays)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(3, 60), min_size=2, max_size=6),
        st.tuples(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10)),
        st.integers(0, 2**16),
    )
    def test_split_partitions_rows_with_per_class_counts_within_one(self, counts, weights, seed):
        rng = np.random.default_rng(seed)
        data = make_dataset(rng.permutation(np.repeat(np.arange(len(counts)), counts)))
        fractions = tuple(w / sum(weights) for w in weights)
        split = stratified_split(data, fractions=fractions, seed=seed)
        parts = (split.train, split.val, split.test)
        combined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(combined, np.arange(data.n_samples))
        for k, n_k in enumerate(counts):
            for part, f in zip(parts, fractions):
                assert abs(np.sum(data.labels[part] == k) - n_k * f) <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.lists(st.one_of(st.integers(0, 12), st.floats(0.0, 100.0)), min_size=1, max_size=8)
        .filter(lambda w: sum(w) > 0),
    )
    def test_largest_remainder_gives_the_extra_units_to_the_largest_remainders(self, total, weights):
        shares = [w / sum(weights) for w in weights]  # integer weights tie often
        quotas = total * np.asarray(shares)
        floors = np.floor(quotas)
        parts = _largest_remainder(total, shares)
        assert parts.dtype == np.int64 and parts.sum() == total
        extra = parts - floors
        assert set(extra.tolist()) <= {0.0, 1.0}
        remainders = quotas - floors
        for i in np.flatnonzero(extra == 1):
            for j in np.flatnonzero(extra == 0):
                assert remainders[i] >= remainders[j]
                if remainders[i] == remainders[j]:
                    assert i < j


class TestFilterMinClassCount:
    def test_drops_rare_classes(self):
        data = make_dataset(np.repeat([0, 1, 2], [500, 30, 5]))
        kept = filter_min_class_count(data, 10)
        assert kept.n_classes == 2
        assert kept.class_names == ("c0", "c1")
        assert kept.n_samples == 530
        np.testing.assert_array_equal(np.unique(kept.labels), [0, 1])

    def test_degenerate_result_is_an_error(self):
        data = make_dataset(np.repeat([0, 1], [500, 5]))
        with pytest.raises(ValueError, match="degenerate after filtering"):
            filter_min_class_count(data, 10)

    def test_threshold_one_is_identity(self):
        data = make_dataset(np.repeat([0, 1, 2], [9, 5, 2]))
        assert filter_min_class_count(data, 1) is data

    def test_composition_equals_max_threshold(self):
        data = make_dataset(np.repeat([0, 1, 2, 3], [200, 60, 12, 4]))
        twice = filter_min_class_count(filter_min_class_count(data, 10), 50)
        once = filter_min_class_count(data, 50)
        np.testing.assert_array_equal(twice.features, once.features)
        np.testing.assert_array_equal(twice.labels, once.labels)
        assert twice.class_names == once.class_names

    def test_rows_keep_their_features(self):
        data = make_dataset(np.repeat([0, 1, 2], [50, 40, 3]))
        kept = filter_min_class_count(data, 10)
        survivors = np.flatnonzero(data.labels != 2)
        np.testing.assert_array_equal(kept.features, data.features[survivors])

    def test_min_count_below_one_rejected(self):
        """The one integer check: no rounding, no bool, no parsing."""
        data = make_dataset(np.arange(10) % 2)
        for value, message in [(0, "min_count must be >= 1, got 0"),
                               (50.5, "min_count must be an integer, got 50.5"),
                               (True, "min_count must be an integer, got True"),
                               ("3", "min_count must be an integer, got '3'")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                filter_min_class_count(data, value)


class TestCsvRoundTrip:
    def test_save_load_is_lossless(self, tmp_path, rng):
        data = make_dataset(rng.integers(0, 3, size=50), n_features=4)
        p = tmp_path / "out.csv"
        save_csv(data, p)
        raw = load_csv(p, schema_for(data))
        for j, name in enumerate(data.feature_names):
            np.testing.assert_array_equal(raw.continuous[name], data.features[:, j])
        # class ids are re-densified by first appearance; compare the names
        got = [raw.class_names[l] for l in raw.labels]
        want = [data.class_names[l] for l in data.labels]
        assert got == want
        assert sorted(raw.class_names) == sorted(data.class_names)

    def test_label_column_collision_rejected(self, tmp_path):
        data = Dataset(
            features=np.ones((4, 1)),
            labels=np.array([0, 1, 0, 1]),
            feature_names=("label",),
            class_names=("a", "b"),
        )
        with pytest.raises(ValueError, match="collides"):
            save_csv(data, tmp_path / "x.csv")


class TestDatasetContainer:
    def test_subset_preserves_vocabulary(self):
        data = make_dataset(np.repeat([0, 1, 2], [5, 5, 5]))
        sub = data.subset(np.arange(5))
        assert sub.class_names == data.class_names
        assert sub.n_samples == 5

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(
                features=np.array([[np.nan], [1.0]]),
                labels=np.array([0, 1]),
                feature_names=("x",),
                class_names=("a", "b"),
            )

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            Dataset(
                features=np.ones((2, 1)),
                labels=np.array([0, 2]),
                feature_names=("x",),
                class_names=("a", "b"),
            )


# ---------------------------------------------------------------------------
# the row-at-a-time loader and encoder, kept as an oracle for the column-wise
# implementation: same matrices, names and error messages
# ---------------------------------------------------------------------------


def oracle_load_csv(path, schema):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV file: %s" % path) from None
        rows = list(reader)
    schema_names = [c.name for c in schema.columns]
    if sorted(header) != sorted(schema_names):
        missing = sorted(set(schema_names) - set(header))
        extra = sorted(set(header) - set(schema_names))
        raise ValueError(
            "CSV header does not match schema (missing: %s; undeclared: %s)"
            % (missing or "none", extra or "none")
        )
    col_pos = {name: header.index(name) for name in schema_names}
    n = len(rows)
    if n == 0:
        raise ValueError("CSV has a header but no data rows: %s" % path)
    cont_cols = {c.name: np.full(n, np.nan) for c in schema.feature_columns if c.kind == "continuous"}
    cat_cols = {c.name: [None] * n for c in schema.feature_columns if c.kind == "categorical"}
    class_names, class_index = [], {}
    labels = np.empty(n, dtype=np.int64)
    for i, row in enumerate(rows):
        rownum = i + 2
        if len(row) != len(header):
            raise ValueError("malformed row %d: expected %d fields, got %d" % (rownum, len(header), len(row)))
        raw_label = row[col_pos[schema.label_column]].strip()
        if raw_label in MISSING_TOKENS:
            raise ValueError("missing label value at row %d" % rownum)
        if raw_label not in class_index:
            class_index[raw_label] = len(class_names)
            class_names.append(raw_label)
        labels[i] = class_index[raw_label]
        for name, arr in cont_cols.items():
            cell = row[col_pos[name]].strip()
            if cell in MISSING_TOKENS:
                continue
            try:
                arr[i] = float(cell)
            except ValueError:
                raise ValueError(
                    "malformed row %d: column %r expected a number, got %r" % (rownum, name, cell)
                ) from None
        for name, lst in cat_cols.items():
            cell = row[col_pos[name]].strip()
            lst[i] = None if cell in MISSING_TOKENS else cell
    return RawDataset(cont_cols, cat_cols, labels, class_names, schema)


def oracle_preprocess(raw):
    n = raw.n_samples
    blocks, names = [], []
    for spec in raw.schema.feature_columns:
        if spec.kind == "continuous":
            col = raw.continuous[spec.name]
            missing = np.isnan(col)
            if missing.sum() > 0.5 * n:
                continue
            filled = col.copy()
            if missing.any():
                filled[missing] = np.median(col[~missing])
            std = filled.std(ddof=1) if n > 1 else 0.0
            blocks.append(((filled - filled.mean()) / max(std, 1e-12))[:, None])
            names.append(spec.name)
        else:
            col = raw.categorical[spec.name]
            if sum(1 for v in col if v is None) > 0.5 * n:
                continue
            counts, order = {}, {}
            for pos, v in enumerate(v for v in col if v is not None):
                counts[v] = counts.get(v, 0) + 1
                order.setdefault(v, pos)
            mode = max(counts, key=lambda v: (counts[v], -order[v]))
            filled_cat = [mode if v is None else v for v in col]
            categories = list(dict.fromkeys(filled_cat))
            block = np.zeros((n, len(categories)))
            for i, v in enumerate(filled_cat):
                block[i, categories.index(v)] = 1.0
            blocks.append(block)
            names.extend("%s=%s" % (spec.name, c) for c in categories)
    if not blocks:
        raise ValueError("no usable feature columns survive preprocessing")
    return Dataset(np.hstack(blocks), raw.labels, tuple(names), tuple(raw.class_names))


def outcome(load, encode, path, schema):
    """Everything the pipeline produces, or the error it raises, as comparable values."""
    try:
        with np.errstate(invalid="ignore"):  # an "inf" cell makes a NaN z-score, which Dataset rejects
            data = encode(load(path, schema))
    except ValueError as exc:
        return "error", str(exc)
    return (data.features.tobytes(), data.features.shape, data.labels.tobytes(),
            data.feature_names, data.class_names)


_NUMBER_CELLS = ("1", "-2.5", " 3 ", "1e3", "0", "-0", "", "NA", "  NA ", " ")
_BAD_NUMBER_CELLS = ("nan", "inf", "abc", "1,5")
_CATEGORY_CELLS = ("red", "blue", " red ", "a,b", 'say "hi"', "", "NA", " NA", "  ")
_LABEL_CELLS = ("x", " y ", "z,w")


@st.composite
def messy_tables(draw):
    """Small CSVs (header, rows, schema) with missing tokens, quoted commas,
    mode ties and mostly-missing columns; a dirty table also has ragged rows,
    unparsable or non-finite numbers and missing labels."""
    n_cont = draw(st.integers(0, 2))
    n_cat = draw(st.integers(0 if n_cont else 1, 2))
    names = ["c%d" % j for j in range(n_cont)] + ["k%d" % j for j in range(n_cat)] + ["note", "label"]
    header = draw(st.permutations(names))
    n = draw(st.integers(2, 12))
    dirty = draw(st.booleans())
    numbers = _NUMBER_CELLS + _BAD_NUMBER_CELLS if dirty else _NUMBER_CELLS
    labels = _LABEL_CELLS + ("", "NA") if dirty else _LABEL_CELLS
    rows = []
    for i in range(n):
        cells = {"note": "free text, quoted"}
        for name in names[:n_cont]:
            cells[name] = draw(st.sampled_from(numbers))
        for name in names[n_cont:n_cont + n_cat]:
            cells[name] = draw(st.sampled_from(_CATEGORY_CELLS))
        cells["label"] = _LABEL_CELLS[i] if i < 2 else draw(st.sampled_from(labels))
        row = [cells[name] for name in header]
        if dirty and draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        rows.append(row)
    schema = ColumnSchema(
        tuple(ColumnSpec(name, "feature", "continuous") for name in names[:n_cont])
        + tuple(ColumnSpec(name, "feature", "categorical") for name in names[n_cont:n_cont + n_cat])
        + (ColumnSpec("note", "ignore"), ColumnSpec("label", "label"))
    )
    return header, rows, schema


class TestColumnwiseIngestMatchesRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(messy_tables())
    def test_same_matrix_names_and_errors(self, table):
        header, rows, schema = table
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            expected = outcome(oracle_load_csv, oracle_preprocess, path, schema)
            assert outcome(load_csv, preprocess, path, schema) == expected

    def test_hole_before_the_mode_moves_its_column_first(self):
        raw = RawDataset(
            continuous={},
            categorical={"c": [None, "b", "a", "a", "b", "a"]},
            labels=np.array([0, 1, 0, 1, 0, 1]),
            class_names=["x", "y"],
            schema=simple_schema(("c", "categorical")),
        )
        data = preprocess(raw)
        # "a" is the mode and fills row 0, so it is the first category of the filled column
        assert data.feature_names == ("c=a", "c=b")
        np.testing.assert_array_equal(data.features[:, 0], [1, 0, 1, 1, 0, 1])
