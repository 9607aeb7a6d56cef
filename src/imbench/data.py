"""Tabular dataset loading, preprocessing, and stratified splitting.

Pipeline:  CSV + column schema -> RawDataset -> preprocess -> Dataset
(dense float matrix, dense integer labels) -> stratified train/val/test
indices.  Missing cells are the empty string or "NA".  Imputation,
scaling, and one-hot encoding are fitted on the full dataset before any
split is taken.
"""

from __future__ import annotations

import csv
import json
import operator
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "MISSING_TOKENS",
    "ColumnSpec",
    "ColumnSchema",
    "RawDataset",
    "Dataset",
    "SplitIndices",
    "load_schema",
    "load_csv",
    "preprocess",
    "DEFAULT_FRACTIONS",
    "check_fractions",
    "stratified_split",
    "filter_min_class_count",
    "save_csv",
    "schema_for",
]

MISSING_TOKENS = ("", "NA")

_ROLES = ("feature", "label", "ignore")
_KINDS = ("continuous", "categorical")

# z-score denominators below this are floored to it, so constant columns
# map to exact zeros instead of dividing by zero
_SCALE_FLOOR = 1e-12

# the text form of every float imbench writes: 17 significant digits read
# back to the same float64, bit for bit
_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    role: str               # feature | label | ignore
    kind: str = "continuous"  # continuous | categorical (features only)

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError("column %r: unknown role %r" % (self.name, self.role))
        if self.role == "feature" and self.kind not in _KINDS:
            raise ValueError("column %r: unknown kind %r" % (self.name, self.kind))


@dataclass(frozen=True)
class ColumnSchema:
    """Declares the role (and kind, for features) of every CSV column."""

    columns: tuple

    def __post_init__(self):
        cols = tuple(self.columns)
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        labels = [c for c in cols if c.role == "label"]
        if len(labels) != 1:
            raise ValueError("schema must declare exactly one label column, got %d" % len(labels))
        if not any(c.role == "feature" for c in cols):
            raise ValueError("schema declares no feature columns")
        object.__setattr__(self, "columns", cols)

    @property
    def label_column(self) -> str:
        return next(c.name for c in self.columns if c.role == "label")

    @property
    def feature_columns(self) -> tuple:
        return tuple(c for c in self.columns if c.role == "feature")

    def to_json(self) -> str:
        return json.dumps({"columns": [asdict(c) for c in self.columns]}, indent=2)


def _known(obj: dict, allowed, where: str) -> dict:
    """``obj``, or a ValueError naming its first key not in ``allowed``."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError("unknown key %r in %s" % (unknown[0], where))
    return obj


def _integer(value, name: str, low: int) -> int:
    """``value`` as an int, numpy integers included, or a ValueError naming
    the setting if it is not an integer (a bool is not) or is below ``low``."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, value)) from None
    if value < low:
        raise ValueError("%s must be >= %d, got %d" % (name, low, value))
    return value


def _settings(obj, flags=(), **lows) -> None:
    """Check a frozen settings dataclass in place: each field named in
    ``lows`` becomes an int no smaller than its bound (``_integer``), and each
    field in ``flags`` must be a bool (a numpy bool is stored as ``bool``)."""
    for name, low in lows.items():
        object.__setattr__(obj, name, _integer(getattr(obj, name), name, low))
    for name in flags:
        value = getattr(obj, name)
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError("%s must be a bool, got %r" % (name, value))
        object.__setattr__(obj, name, bool(value))


def load_schema(path) -> ColumnSchema:
    """Read a schema from its JSON file form (see README for the format); an
    unknown key, at the top level or in a column, is a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "columns" not in obj:
        raise ValueError("schema file must be a JSON object with a 'columns' list")
    _known(obj, ("columns",), "the schema")
    cols = []
    for entry in obj["columns"]:
        _known(entry, ColumnSpec.__dataclass_fields__, "schema column %r" % entry.get("name"))
        cols.append(ColumnSpec(**{"role": "feature", **entry}))
    return ColumnSchema(tuple(cols))


@dataclass
class RawDataset:
    """Loaded but not yet imputed/encoded table.

    ``continuous`` maps column name -> float array with NaN for missing;
    ``categorical`` maps column name -> list of strings with None for missing.
    Labels are already dense 0..K-1 ids in first-appearance order.
    """

    continuous: dict
    categorical: dict
    labels: np.ndarray
    class_names: list
    schema: ColumnSchema

    @property
    def n_samples(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class Dataset:
    """Preprocessed dataset: dense float features and dense integer labels."""

    features: np.ndarray       # (n, d) float64, all finite
    labels: np.ndarray         # (n,) int64 in 0..K-1
    feature_names: tuple
    class_names: tuple

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        y = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
            raise ValueError("features must be (n, d) aligned with n labels")
        if x.shape[0] == 0 or x.shape[1] == 0:
            raise ValueError("dataset must have at least one row and one feature")
        if not np.all(np.isfinite(x)):
            raise ValueError("features contain non-finite values after preprocessing")
        k = len(self.class_names)
        if k < 2:
            raise ValueError("dataset must have at least two classes")
        if y.min() < 0 or y.max() >= k:
            raise ValueError("labels must be dense ids in 0..K-1")
        if len(self.feature_names) != x.shape[1]:
            raise ValueError("feature_names must align with feature columns")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(str(c) for c in self.class_names))

    @property
    def n_samples(self) -> int:
        return int(self.labels.size)

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, idx) -> "Dataset":
        """Row subset with the same columns and class vocabulary."""
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            feature_names=self.feature_names,
            class_names=self.class_names,
        )


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint row-index sets covering the dataset."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        parts = []
        for name in ("train", "val", "test"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            parts.append(arr)
        combined = np.sort(np.concatenate(parts))
        if np.any(combined[1:] == combined[:-1]):
            raise ValueError("split index sets overlap")


def load_csv(path, schema: ColumnSchema) -> RawDataset:
    """Load a UTF-8 comma-separated file against a schema.

    The header must contain exactly the schema's column names (order free;
    use role 'ignore' to skip columns).  Rows are parsed as they are read;
    the first row with the wrong field count, a missing label or a numeric
    parse failure is reported with its 1-based row number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV file: %s" % path) from None
        schema_names = [c.name for c in schema.columns]
        if sorted(header) != sorted(schema_names):
            missing = sorted(set(schema_names) - set(header))
            extra = sorted(set(header) - set(schema_names))
            raise ValueError(
                "CSV header does not match schema (missing: %s; undeclared: %s)"
                % (missing or "none", extra or "none")
            )
        n_fields = len(header)
        label_pos = header.index(schema.label_column)
        # continuous cells go to float arrays, which hold no Python objects for the GC to traverse
        cont = [(c.name, header.index(c.name), array("d")) for c in schema.feature_columns if c.kind == "continuous"]
        cat = [(c.name, header.index(c.name), []) for c in schema.feature_columns if c.kind == "categorical"]
        class_index: dict = {}
        labels = []
        for rownum, row in enumerate(reader, start=2):  # 1-based, counting the header
            if len(row) != n_fields:
                raise ValueError("malformed row %d: expected %d fields, got %d" % (rownum, n_fields, len(row)))
            raw_label = row[label_pos].strip()
            if raw_label in MISSING_TOKENS:
                raise ValueError("missing label value at row %d" % rownum)
            labels.append(class_index.setdefault(raw_label, len(class_index)))
            for name, pos, values in cont:
                cell = row[pos].strip()
                if cell in MISSING_TOKENS:
                    values.append(np.nan)
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        "malformed row %d: column %r expected a number, got %r" % (rownum, name, cell)
                    ) from None
            for _, pos, values in cat:
                cell = row[pos].strip()
                values.append(None if cell in MISSING_TOKENS else cell)
    if not labels:
        raise ValueError("CSV has a header but no data rows: %s" % path)
    return RawDataset(
        continuous={name: np.array(values, dtype=np.float64) for name, _, values in cont},
        categorical={name: values for name, _, values in cat},
        labels=np.array(labels, dtype=np.int64),
        class_names=list(class_index),
        schema=schema,
    )


def preprocess(raw: RawDataset) -> Dataset:
    """Impute, scale, and encode a raw table into a model-ready matrix.

    Per feature column, in schema order:

    * more than 50% missing            -> column dropped
    * continuous: median-impute, then z-score with sample std (ddof=1);
      the denominator is floored at 1e-12 so constant columns become zeros
    * categorical: mode-impute, then one-hot with one indicator per
      observed category in first-appearance order
    """
    n = raw.n_samples
    blocks = []
    names = []
    for spec in raw.schema.feature_columns:
        if spec.kind == "continuous":
            col = raw.continuous[spec.name]
            missing = np.isnan(col)
            if missing.sum() > 0.5 * n:
                continue
            filled = col.copy()
            if missing.any():
                filled[missing] = np.median(col[~missing])
            mean = filled.mean()
            std = filled.std(ddof=1) if n > 1 else 0.0
            scale = max(std, _SCALE_FLOOR)
            blocks.append(((filled - mean) / scale)[:, None])
            names.append(spec.name)
        else:
            col = raw.categorical[spec.name]
            seen = list(dict.fromkeys(col))  # first-appearance order, None included
            index = {v: j for j, v in enumerate(seen)}
            codes = np.fromiter(map(index.__getitem__, col), dtype=np.intp, count=n)
            counts = np.bincount(codes)
            hole = index.get(None)
            if hole is not None:
                if counts[hole] > 0.5 * n:
                    continue
                counts[hole] = -1
                codes[codes == hole] = np.argmax(counts)  # a mode tie goes to the first to appear
            present, first = np.unique(codes, return_index=True)
            order = present[np.argsort(first)]  # categories of the filled column, first appearance
            column_of = np.empty(len(seen), dtype=np.intp)
            column_of[order] = np.arange(order.size)
            block = np.zeros((n, order.size))
            block[np.arange(n), column_of[codes]] = 1.0
            blocks.append(block)
            names.extend("%s=%s" % (spec.name, seen[c]) for c in order)
    if not blocks:
        raise ValueError("no usable feature columns survive preprocessing")
    return Dataset(
        features=np.hstack(blocks),
        labels=raw.labels,
        feature_names=tuple(names),
        class_names=tuple(raw.class_names),
    )


def _largest_remainder(total: int, shares) -> np.ndarray:
    """Integer parts of ``total`` by ``shares`` (not normalised): each part's
    floor, plus one for each of the largest remainders, ties to the lowest index."""
    quotas = total * np.asarray(shares, dtype=np.float64)
    parts = np.floor(quotas).astype(np.int64)
    parts[np.argsort(parts - quotas, kind="stable")[:total - parts.sum()]] += 1
    return parts


# the train/val/test shares of every split unless one is given
DEFAULT_FRACTIONS = (0.6, 0.2, 0.2)


def check_fractions(fractions) -> tuple:
    """``fractions`` as three floats, or a ValueError unless they are
    positive and sum to 1."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ValueError("fractions must be three positive numbers")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1, got %r" % (fractions,))
    return fractions


def stratified_split(data: Dataset, fractions=DEFAULT_FRACTIONS, seed: int = 0) -> SplitIndices:
    """Per-class shuffle + largest-remainder allocation into train/val/test.

    Guarantees per-class counts within +/-1 of exact proportionality.
    Every class must have at least 3 samples, otherwise it cannot reach
    all three splits.
    """
    fractions = check_fractions(fractions)
    rng = np.random.default_rng(seed)
    buckets = ([], [], [])
    for k in range(data.n_classes):
        idx = np.flatnonzero(data.labels == k)
        if idx.size < 3:
            raise ValueError(
                "class %r has %d samples; at least 3 are required to stratify"
                % (data.class_names[k], idx.size)
            )
        idx = rng.permutation(idx)
        take = _largest_remainder(idx.size, fractions)
        start = 0
        for part, cnt in zip(buckets, take):
            part.append(idx[start:start + cnt])
            start += cnt
    train, val, test = (np.sort(np.concatenate(p)) for p in buckets)
    return SplitIndices(train=train, val=val, test=test)


def filter_min_class_count(data: Dataset, min_count: int) -> Dataset:
    """Drop classes rarer than ``min_count`` and re-densify the label ids.

    Surviving classes keep their relative order.  Fewer than two survivors
    is a degenerate dataset and raises, and so does a ``min_count`` that is
    not an integer of at least 1, naming it.
    """
    min_count = _integer(min_count, "min_count", 1)
    counts = np.bincount(data.labels, minlength=data.n_classes)
    keep = np.flatnonzero(counts >= min_count)
    if keep.size < 2:
        raise ValueError(
            "degenerate after filtering: %d class(es) have >= %d samples" % (keep.size, min_count)
        )
    if keep.size == data.n_classes:
        return data
    remap = np.full(data.n_classes, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    row_mask = remap[data.labels] >= 0
    return Dataset(
        features=data.features[row_mask],
        labels=remap[data.labels[row_mask]],
        feature_names=data.feature_names,
        class_names=tuple(data.class_names[k] for k in keep),
    )


def save_csv(data: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset back to the CSV form accepted by ``load_csv``.

    Feature values are written with 17 significant digits so a round trip
    through ``load_csv`` is lossless.
    """
    if label_column in data.feature_names:
        raise ValueError("label column name %r collides with a feature" % label_column)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.feature_names) + [label_column])
        # one row of Python floats at a time: the table is never held twice
        writer.writerows((*map(_FLOAT_FMT.__mod__, row), data.class_names[label])
                         for row, label in zip(map(np.ndarray.tolist, data.features), data.labels.tolist()))


def schema_for(data: Dataset, label_column: str = "label") -> ColumnSchema:
    """Schema matching ``save_csv`` output: all-continuous features + label."""
    cols = [ColumnSpec(name, "feature", "continuous") for name in data.feature_names]
    cols.append(ColumnSpec(label_column, "label"))
    return ColumnSchema(tuple(cols))
