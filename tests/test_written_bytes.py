"""The bytes of every table imbench writes, pinned by sha256.

Each digest was taken from the separate writers that came before the one
shared table writer, so a change to a column, its order or a cell's text
form shows here.
"""

import hashlib

import pytest

from imbench import (BlockResult, SynthConfig, save_csv, schema_for, summarize, synth_generate, write_degradation,
                     write_results, write_summary)
from imbench.cli import main
from imbench.harness import METRICS

_NAN = float("nan")

# every group has an ok run; the skipped and failed rows carry the awkward texts
ROWS = [
    BlockResult("dt+none", "label", 1, 0, cvcf=0.5, imbalance_ratio=3.0, necd=0.9, accuracy=0.75, macro_f1=0.7,
                weighted_f1=0.72, train_seconds=0.125, n_train=60),
    BlockResult("dt+none", "label", 1, 1, cvcf=0.5, imbalance_ratio=3.0, necd=0.9, accuracy=-0.0, macro_f1=1e-300,
                weighted_f1=_NAN, train_seconds=1 / 3, n_train=61),
    BlockResult("dt+none", "label", 1, 2, status="skipped", reason='a, "quoted"\nreason'),
    BlockResult("rf+inverse", "label", 1, 0, cvcf=0.5, imbalance_ratio=3.0, necd=0.9, accuracy=0.1 + 0.2,
                macro_f1=2 / 3, weighted_f1=0.6, train_seconds=12.5, n_train=60),
    BlockResult("rf+inverse", "label", 1, 1, status="failed", reason="ValueError: bad, \"x\""),
    BlockResult("gbt+none", "y", 5, 0, cvcf=1.25, imbalance_ratio=1e300, necd=5e-324, accuracy=1.0, macro_f1=0.0,
                weighted_f1=-0.0, train_seconds=2.0, n_train=2**40),
]

DIGESTS = {
    "results": "90d89cd38253d524f6de6faea960fb2f32d82196178206aa2869c1719f864bf6",
    "summary": "dab2026a8cb72eb88f9c9730701d6d71611976511b3b5d646723c600adb04487",
    "degradation_accuracy": "04ac0fbc448933d4ec3d717338429d18c24037e84ca58dada3cdbde915f4488b",
    "degradation_macro_f1": "3fc8c7b605c584e89f6c01028d7b375895852a998d12068d6c36ab9c026a3f3c",
    "degradation_weighted_f1": "5067bf19e40f2817862912baf2e671dc47362e7f6f69fe522cf5c1bea72ef81a",
    "degradation_train_seconds": "12266e7d2d155c968289bf0c6d6ebdecf0fb5609c59035bc695aa2f339c8488a",
    "save_csv": "8234ecf204104d9840ffded4d55d8b4bc1211d24545d3260fc5e1a6f4f8e9b83",
    "inspect_json": "3eaed7221c18eb41de7702cd6bac231bd46414cffe216c381c6eae259c8a69dd",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_results_csv_bytes(tmp_path):
    path = tmp_path / "results.csv"
    write_results(ROWS, path)
    assert _sha(path.read_bytes()) == DIGESTS["results"]


def test_summary_csv_bytes(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary(summarize(ROWS), path)
    assert _sha(path.read_bytes()) == DIGESTS["summary"]


@pytest.mark.parametrize("metric", METRICS)
def test_degradation_csv_bytes(tmp_path, metric):
    path = tmp_path / "degradation.csv"
    write_degradation(summarize(ROWS), path, metric=metric)
    assert _sha(path.read_bytes()) == DIGESTS["degradation_" + metric]


@pytest.fixture
def table(tmp_path):
    data = synth_generate(SynthConfig(n_samples=240, n_classes=3, n_features=4, power_law_exponent=1.2, seed=5))
    csv_path, schema_path = tmp_path / "table.csv", tmp_path / "table.schema.json"
    save_csv(data, csv_path)
    schema_path.write_text(schema_for(data).to_json(), encoding="utf-8")
    return csv_path, schema_path


def test_save_csv_bytes(table):
    assert _sha(table[0].read_bytes()) == DIGESTS["save_csv"]


def test_inspect_json_bytes(table, capsys):
    assert main(["inspect", "--csv", str(table[0]), "--schema", str(table[1]), "--json"]) == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == DIGESTS["inspect_json"]
