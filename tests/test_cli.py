"""End-to-end command-line tests, run in process via cli.main."""

import json
import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from imbench import (
    alias_family,
    class_frequencies,
    confusion_matrix,
    f1_scores,
    imbalance_report,
    load_csv,
    load_model,
    load_schema,
    preprocess,
    read_results,
    stratified_split,
)
from imbench import harness, hpo
from imbench.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def load_ready(csv, schema_path):
    return preprocess(load_csv(csv, load_schema(schema_path)))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small synthetic CSV + schema produced by the synth subcommand."""
    root = tmp_path_factory.mktemp("cli_data")
    csv = str(root / "toy.csv")
    code = main([
        "synth", "--out", csv, "--counts", "300,120,40",
        "--features", "5", "--separation", "2.5", "--seed", "3",
    ])
    assert code == 0
    return csv, csv + ".schema.json"


class TestSynth:
    def test_writes_loadable_csv_and_schema(self, dataset):
        csv, schema_path = dataset
        data = load_ready(csv, schema_path)
        assert data.n_samples == 460
        assert data.n_classes == 3
        assert data.n_features == 5
        assert sorted(np.bincount(data.labels), reverse=True) == [300, 120, 40]

    def test_power_law_profile(self, tmp_path, capsys):
        out = str(tmp_path / "pl.csv")
        code = main(["synth", "--out", out, "--samples", "200", "--classes", "4",
                     "--power-law", "1.0", "--seed", "1"])
        assert code == 0
        assert "200 samples" in capsys.readouterr().out
        data = load_ready(out, out + ".schema.json")
        assert data.n_samples == 200 and data.n_classes == 4

    def test_counts_and_power_law_conflict(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["synth", "--out", out, "--counts", "5,5", "--power-law", "1.0"]) == 1
        assert main(["synth", "--out", out]) == 1  # neither given
        assert main(["synth", "--out", out, "--counts", "5,5", "--samples", "99"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err


class TestInspect:
    def test_human_readable(self, dataset, capsys):
        csv, schema = dataset
        assert main(["inspect", "--csv", csv, "--schema", schema]) == 0
        out = capsys.readouterr().out
        assert "cvcf:" in out and "imbalance ratio:" in out and "necd:" in out
        assert "classes:         3" in out

    def test_json_matches_library(self, dataset, capsys):
        csv, schema = dataset
        assert main(["inspect", "--csv", csv, "--schema", schema, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        data = load_ready(csv, schema)
        report = imbalance_report(class_frequencies(data.labels))
        assert payload["n_samples"] == 460
        assert sorted(payload["counts"].values(), reverse=True) == [300, 120, 40]
        assert payload["cvcf"] == report.cvcf
        assert payload["imbalance_ratio"] == report.imbalance_ratio
        assert payload["necd"] == report.necd

    def test_missing_file_is_runtime_failure(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        code = main(["inspect", "--csv", missing, "--schema", missing + ".json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


    def test_reads_only_the_label_column(self, tmp_path, capsys):
        """A feature column no model could use does not stop inspect or weights; train still fails."""
        csv = tmp_path / "blank.csv"
        csv.write_text("x,label\n,a\nNA,b\n,a\n", encoding="utf-8")
        schema = tmp_path / "blank.schema.json"
        schema.write_text(json.dumps({"columns": [{"name": "x"}, {"name": "label", "role": "label"}]}),
                          encoding="utf-8")
        assert main(["inspect", "--csv", str(csv), "--schema", str(schema), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_samples"] == 3 and payload["counts"] == {"a": 2, "b": 1}
        assert main(["weights", "--csv", str(csv), "--schema", str(schema)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2
        assert main(["train", "--csv", str(csv), "--schema", str(schema), "--family", "dt"]) == 2
        assert "no usable feature columns" in capsys.readouterr().err


class TestWeights:
    def test_table_lists_all_strategies(self, dataset, capsys):
        csv, schema = dataset
        assert main(["weights", "--csv", csv, "--schema", schema]) == 0
        out = capsys.readouterr().out
        for name in ("none", "inverse", "effective", "median"):
            assert name in out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 1 + 3  # header + one row per class
        # the "none" column is identically one
        first_row = lines[1].split()
        assert float(first_row[2]) == 1.0


class TestTrain:
    def test_reports_metrics(self, dataset, capsys):
        csv, schema = dataset
        code = main(["train", "--csv", csv, "--schema", schema, "--family", "dt",
                     "--weighting", "inverse", "--params", '{"max_depth": 4}'])
        assert code == 0
        out = capsys.readouterr().out
        assert "classifier:     dt+inverse" in out
        assert "accuracy:" in out and "weighted F1:" in out

    def test_save_model_round_trips(self, dataset, tmp_path, capsys):
        csv, schema = dataset
        model_path = str(tmp_path / "model.json")
        code = main(["train", "--csv", csv, "--schema", schema, "--family", "gbt",
                     "--params", '{"n_estimators": 4, "learning_rate": 0.3}',
                     "--save-model", model_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "model saved:" in out
        model = load_model(model_path)
        data = load_ready(csv, schema)
        preds = model.predict(data.features[:25])
        assert preds.shape == (25,)
        assert set(np.unique(preds)) <= {0, 1, 2}
        # the saved model is the evaluated one: it reproduces the printed test score
        test = data.subset(stratified_split(data, seed=0).test)
        cm = confusion_matrix(test.labels, model.predict(test.features), n_classes=data.n_classes)
        assert "weighted F1:    %.4f" % f1_scores(cm).weighted in out

    def test_registered_family_is_accepted(self, dataset, capsys):
        csv, schema = dataset
        alias_family("dt2", "dt")
        assert main(["train", "--csv", csv, "--schema", schema, "--family", "dt2"]) == 0
        assert "classifier:     dt2+none" in capsys.readouterr().out
        code = main(["hpo", "--csv", csv, "--schema", schema, "--family", "dt2",
                     "--trials", "2", "--folds", "2"])
        assert code == 0
        assert "best params:" in capsys.readouterr().out

    def test_unknown_family_is_usage_error(self, dataset, capsys):
        csv, schema = dataset
        assert main(["train", "--csv", csv, "--schema", schema, "--family", "svm"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_misspelled_param_is_runtime_failure(self, dataset, capsys):
        csv, schema = dataset
        code = main(["train", "--csv", csv, "--schema", schema, "--family", "dt", "--params", '{"max_dept": 3}'])
        assert code == 2
        assert "unknown key 'max_dept' in the params of family 'dt'" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--filter-threshold", "0", "filter_threshold must be >= 1, got 0"),
    ])
    def test_out_of_range_setting_is_named_before_any_fit(self, dataset, capsys, monkeypatch, option, value, message):
        calls = []
        monkeypatch.setattr(harness, "stratified_split", lambda *args, **kwargs: calls.append("split"))
        monkeypatch.setattr(hpo, "fit_family", lambda *args, **kwargs: calls.append("fit"))
        csv, schema = dataset
        assert main(["train", "--csv", csv, "--schema", schema, "--family", "dt", option, value]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert calls == []

    def test_degenerate_filter_is_runtime_failure(self, dataset, capsys):
        csv, schema = dataset
        code = main(["train", "--csv", csv, "--schema", schema, "--family", "dt",
                     "--filter-threshold", "400"])
        assert code == 2
        assert "skipped" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bench_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    config = {
        "dataset": {"synth": {"n_samples": 400, "n_classes": 3, "n_features": 4,
                              "cluster_separation": 2.0,
                              "class_counts": [250, 100, 50], "seed": 0}},
        "filter_thresholds": [1, 2, 60],
        "strategies": ["none", "inverse"],
        "families": ["dt"],
        "n_runs": 2,
        "model_params": {"dt": {"max_depth": 4}},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    paths = {
        "results": str(root / "results.csv"),
        "summary": str(root / "summary.csv"),
        "degradation": str(root / "degradation.csv"),
    }
    code = main(["bench", "--config", str(config_path), "--out", paths["results"],
                 "--summary-out", paths["summary"],
                 "--degradation-out", paths["degradation"]])
    assert code == 0
    return paths


class TestBenchAndStats:
    def test_bench_outputs(self, bench_artifacts):
        results = read_results(bench_artifacts["results"])
        assert len(results) == 3 * 2 * 2  # thresholds x strategies x runs
        assert {r.classifier for r in results} == {"dt+none", "dt+inverse"}
        summary_lines = open(bench_artifacts["summary"], encoding="utf-8").read().splitlines()
        assert len(summary_lines) == 1 + 6  # header + classifier x threshold groups
        degradation_lines = open(bench_artifacts["degradation"], encoding="utf-8").read().splitlines()
        assert degradation_lines[0].endswith("weighted_f1_mean,weighted_f1_std")

    def test_bench_auto_ladder(self, tmp_path):
        config = {
            "dataset": {"synth": {"n_samples": 300, "n_classes": 3, "n_features": 4,
                                  "cluster_separation": 2.0,
                                  "class_counts": [164, 82, 54], "seed": 0}},
            "families": ["dt"],
            "strategies": ["none"],
            "model_params": {"dt": {"max_depth": 3}},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = str(tmp_path / "r.csv")
        assert main(["bench", "--config", str(config_path), "--out", out]) == 0
        thresholds = sorted({r.filter_threshold for r in read_results(out)})
        assert thresholds == [1, 2, 5, 10, 20, 50]

    def test_bench_rejects_an_unknown_key(self, tmp_path, capsys):
        config = {
            "dataset": {"synth": {"n_samples": 300, "n_classes": 3, "n_features": 4,
                                  "class_counts": [164, 82, 54], "seed": 0}},
            "families": ["dt"],
            "n_run": 5,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(config_path), "--out", str(out)]) == 2
        assert "unknown key 'n_run'" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_rejects_a_misspelled_model_param(self, tmp_path, capsys):
        config = {
            "dataset": {"synth": {"n_samples": 300, "n_classes": 3, "n_features": 4,
                                  "class_counts": [164, 82, 54], "seed": 0}},
            "filter_thresholds": [1],
            "families": ["dt"],
            "model_params": {"dt": {"max_dept": 3}},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(config_path), "--out", str(out)]) == 2
        assert "unknown key 'max_dept' in the params of family 'dt'" in capsys.readouterr().err
        assert not out.exists()

    def test_stats_renders_analysis(self, bench_artifacts, tmp_path, capsys):
        svg_path = str(tmp_path / "cd.svg")
        text_path = str(tmp_path / "cd.txt")
        code = main(["stats", "--results", bench_artifacts["results"],
                     "--out-svg", svg_path, "--out-text", text_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "average ranks" in out
        assert "friedman:" in out
        assert "pairwise (Holm-adjusted):" in out
        root = ET.fromstring(open(svg_path, encoding="utf-8").read())
        assert root.tag.endswith("svg")
        assert "friedman:" in open(text_path, encoding="utf-8").read()

    def test_stats_missing_results_file(self, tmp_path, capsys):
        assert main(["stats", "--results", str(tmp_path / "nope.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_on_an_empty_results_file_names_it(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert main(["stats", "--results", str(path)]) == 2
        assert "error: empty results file: %s" % path in capsys.readouterr().err


class TestHpo:
    def test_search_with_overrides(self, dataset, tmp_path, capsys):
        csv, schema = dataset
        log_path = str(tmp_path / "trials.json")
        code = main(["hpo", "--csv", csv, "--schema", schema, "--family", "dt",
                     "--trials", "4", "--folds", "2", "--seed", "0",
                     "--params", '{"max_depth": 5}', "--out", log_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "best trial:" in out and "best score:" in out
        log = json.loads(open(log_path, encoding="utf-8").read())
        assert log["family"] == "dt"
        assert log["best_params"]["max_depth"] == 5
        assert len(log["trials"]) == 4
        assert all(t["params"]["max_depth"] == 5 for t in log["trials"])

    def test_misspelled_override_is_runtime_failure(self, dataset, capsys):
        csv, schema = dataset
        code = main(["hpo", "--csv", csv, "--schema", schema, "--family", "dt", "--trials", "2", "--folds", "2",
                     "--params", '{"max_dept": 3}'])
        assert code == 2
        assert "unknown key 'max_dept' in the params of family 'dt'" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["inspect", "--csv", "x.csv"]) == 1


def test_every_readme_command_parses():
    """Each ``imbench ...`` command in the README's bash blocks, its ``\\``
    continuation lines joined, is one the parser accepts (none is run), and
    together they show every subcommand."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("imbench ")]
    for argv in commands:
        build_parser().parse_args(argv[1:])
    assert {argv[1] for argv in commands} == {"synth", "inspect", "weights", "train", "bench", "stats", "hpo"}
