"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs one
operation per ``run`` call (the timed part), and turns that operation's
outputs into ``Outcome`` parts in ``check`` (untimed).  A part is a unit of
failure accounting: it counts ``units`` operations and carries a fingerprint
of its outputs, or the error that stopped it.

Every call into imbench goes through a module attribute looked up at call
time (``imbench.harness.run_sweep``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

import imbench
import imbench.cli

STRATEGIES = ("none", "inverse", "effective", "median")
TASK_SEED = 20251
POOL_FACTOR = 4


@dataclass
class Part:
    name: str
    units: int
    digest: str | None = None   # None when the step raised
    error: str = ""


@dataclass
class Outcome:
    parts: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)   # weighted_f1_mean, macro_f1_mean


def digest(*chunks) -> str:
    """sha256 over byte strings, strings and numpy arrays (dtype, shape and bytes)."""
    h = hashlib.sha256()
    for c in chunks:
        if isinstance(c, np.ndarray):
            c = np.ascontiguousarray(c)
            h.update(("%s%s" % (c.dtype.str, c.shape)).encode())
            c = c.tobytes()
        elif isinstance(c, str):
            c = c.encode()
        h.update(c)
        h.update(b"\x00")
    return h.hexdigest()


def error_text(exc: BaseException) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


def row_digest(rows) -> str:
    """Fingerprint of result rows without their timing column."""
    fields = [f for f in imbench.BlockResult.__dataclass_fields__ if f != "train_seconds"]
    return digest("\n".join(repr(tuple(getattr(r, f) for f in fields)) for r in rows))


def row_quality(rows) -> dict:
    ok = [r for r in rows if r.status == "ok"]
    return {
        "weighted_f1_mean": float(np.mean([r.weighted_f1 for r in ok])) if ok else 0.0,
        "macro_f1_mean": float(np.mean([r.macro_f1 for r in ok])) if ok else 0.0,
    }


def call_cli(argv) -> tuple:
    """Run ``imbench.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = imbench.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def seeded_sample(seed: int, n_samples: int, **synth) -> "imbench.Dataset":
    """About ``n_samples`` rows drawn by ``seed`` from a synth task of fixed shape.

    The task (its class directions) comes from one fixed synth seed, so a
    second benchmark seed redraws the rows but not how hard the task is; with
    a per-seed task the scores of shallow trees swing by tens of percent.
    """
    pool = imbench.synth.synth_generate(imbench.SynthConfig(n_samples=POOL_FACTOR * n_samples,
                                                            seed=TASK_SEED, **synth))
    rng = np.random.default_rng(seed)
    rows = [rng.choice(np.flatnonzero(pool.labels == k), size=int(c) // POOL_FACTOR, replace=False)
            for k, c in enumerate(np.bincount(pool.labels))]
    return pool.subset(np.sort(np.concatenate(rows)))


class Workload:
    name = ""
    workers = 1
    sizes: dict = {}

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.p = self.sizes[size]

    def setup(self, work_dir: str) -> None:
        raise NotImplementedError

    def parts(self) -> dict:
        """Part name -> operations it counts, for every part an operation yields."""
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def check(self, output) -> Outcome:
        raise NotImplementedError

    def twin_check(self) -> Outcome | None:
        """An independent run whose fingerprints the operations must match,
        for seeds with no stored reference; None when there is none."""
        return None

    def task_bytes(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class Sweep(Workload):
    """One operation yields the result rows of every block of the sweep."""

    def blocks(self) -> int:
        p = self.p
        return len(p["thresholds"]) * len(STRATEGIES) * len(p["families"]) * p["n_runs"]

    def parts(self) -> dict:
        return {"rows": self.blocks()}

    def check_rows(self, rows) -> Outcome:
        if len(rows) != self.blocks():
            return Outcome([Part("rows", self.blocks(),
                                 error="expected %d rows, got %d" % (self.blocks(), len(rows)))])
        return Outcome([Part("rows", self.blocks(), row_digest(rows))], row_quality(rows))

    def pickled_task_bytes(self, config, data) -> int:
        """Pickled size of one sweep task: the dataset plus the block's arguments."""
        family = self.p["families"][0]
        params = {**imbench.get_family(family).default_params, **self.p["model_params"].get(family, {})}
        task = (data, family, STRATEGIES[0], self.p["thresholds"][0], config.base_seed, config.target,
                config.fractions, config.beta, params)
        return len(pickle.dumps(task))


class SweepTrees(Sweep):
    """``imbench bench`` through the CLI on a criterion-9-shaped task saved
    as CSV: 12 power-law classes, dt/rf/gbt under four weightings, serial."""

    name = "sweep_trees"
    sizes = {
        "full": dict(n_samples=1000, thresholds=(1, 12, 40), families=("dt", "rf", "gbt"), n_runs=3,
                     model_params={"dt": {"max_depth": 5},
                                   "rf": {"n_estimators": 3, "max_depth": 5},
                                   "gbt": {"n_estimators": 1, "learning_rate": 0.3, "max_depth": 3}}),
        "smoke": dict(n_samples=300, thresholds=(1, 10), families=("dt", "rf", "gbt"), n_runs=1,
                      model_params={"dt": {"max_depth": 3},
                                    "rf": {"n_estimators": 2, "max_depth": 3},
                                    "gbt": {"n_estimators": 1, "max_depth": 2}}),
    }

    def setup(self, work_dir: str) -> None:
        csv_path = os.path.join(work_dir, "table.csv")
        self.config_path = os.path.join(work_dir, "sweep.json")
        self.results_path = os.path.join(work_dir, "results.csv")
        data = seeded_sample(self.seed, self.p["n_samples"], n_classes=12, n_features=8,
                             cluster_separation=1.5, power_law_exponent=1.6)
        imbench.data.save_csv(data, csv_path)
        with open(csv_path + ".schema.json", "w", encoding="utf-8") as fh:
            fh.write(imbench.data.schema_for(data).to_json())
        config = {
            "dataset": {"csv": csv_path, "schema": csv_path + ".schema.json"},
            "filter_thresholds": list(self.p["thresholds"]),
            "strategies": list(STRATEGIES),
            "families": list(self.p["families"]),
            "n_runs": self.p["n_runs"],
            "base_seed": self.seed,
            "model_params": self.p["model_params"],
            "workers": 1,
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)

    def run(self):
        if os.path.exists(self.results_path):
            os.remove(self.results_path)
        return call_cli(["bench", "--config", self.config_path, "--out", self.results_path])

    def check(self, output) -> Outcome:
        code, _, err = output
        if code != 0:
            return Outcome([Part("rows", self.blocks(), error="exit code %d: %s" % (code, err.strip()))])
        return self.check_rows(imbench.read_results(self.results_path))

    def task_bytes(self) -> int:
        config = imbench.load_experiment_config(self.config_path)
        return self.pickled_task_bytes(config, imbench.load_dataset(config))


class SweepParallel(Sweep):
    """``run_sweep`` with two workers on a large, wide dataset with cheap
    shallow trees, so shipping data to workers and re-splitting each slice
    are a visible share of the time."""

    name = "sweep_parallel"
    workers = 2
    sizes = {
        "full": dict(n_samples=12000, n_features=30, thresholds=(1, 2000), families=("dt",), n_runs=4,
                     model_params={"dt": {"max_depth": 2}}),
        "smoke": dict(n_samples=1500, n_features=10, thresholds=(1, 300), families=("dt",), n_runs=1,
                      model_params={"dt": {"max_depth": 2}}),
    }

    def setup(self, work_dir: str) -> None:
        shape = dict(n_classes=4, n_features=self.p["n_features"], cluster_separation=2.5, power_law_exponent=1.0)
        self.data = seeded_sample(self.seed, self.p["n_samples"], **shape)
        # run_sweep is handed the data; the config names its source only because it must name one
        self.source = imbench.SynthConfig(n_samples=self.p["n_samples"], seed=self.seed, **shape)

    def config(self, workers: int):
        p = self.p
        return imbench.ExperimentConfig(
            synth=self.source, filter_thresholds=p["thresholds"], strategies=STRATEGIES,
            families=p["families"], n_runs=p["n_runs"], base_seed=self.seed,
            model_params=p["model_params"], workers=workers,
        )

    def run(self):
        return imbench.harness.run_sweep(self.config(self.workers), self.data)[0]

    def check(self, output) -> Outcome:
        return self.check_rows(output)

    def twin_check(self) -> Outcome:
        """The serial run of the same config: results must not depend on workers."""
        return self.check_rows(imbench.harness.run_sweep(self.config(1), self.data)[0])

    def task_bytes(self) -> int:
        return self.pickled_task_bytes(self.config(self.workers), self.data)


# ---------------------------------------------------------------------------
# hyperparameter search
# ---------------------------------------------------------------------------


class HpoTabresnet(Workload):
    """Random search over TabResNet with median pruning, then one fit of the
    winner scored on held-out rows.  The trial draws use a fixed search seed,
    so the seed changes the data but not the sampled configurations."""

    name = "hpo_tabresnet"
    search_seed = 42
    sizes = {
        "full": dict(n_samples=3000, n_trials=16, folds=4, max_epochs=6, final_epochs=20),
        "smoke": dict(n_samples=400, n_trials=3, folds=2, max_epochs=2, final_epochs=3),
    }

    def setup(self, work_dir: str) -> None:
        data = seeded_sample(self.seed, self.p["n_samples"], n_classes=6, n_features=8,
                             cluster_separation=2.0, power_law_exponent=1.2)
        split = imbench.data.stratified_split(data, seed=self.seed)
        self.train, self.val, self.test = (data.subset(split.train), data.subset(split.val),
                                           data.subset(split.test))
        self.n_classes = data.n_classes

    def run(self):
        p = self.p
        spec = imbench.HpoSpec(n_trials=p["n_trials"], cv_folds=p["folds"], seed=self.search_seed,
                               overrides={"max_epochs": p["max_epochs"]})
        result = imbench.hpo.hpo_random_search("tabresnet", self.train.features, self.train.labels,
                                               spec=spec, n_classes=self.n_classes)
        weights = imbench.weighting.compute_weights(imbench.imbalance.class_frequencies(self.train.labels), "none")
        params = {**imbench.get_family("tabresnet").default_params, **result.best_params,
                  "max_epochs": p["final_epochs"]}
        model = imbench.hpo.fit_family("tabresnet", self.train.features, self.train.labels, weights, params,
                                       self.n_classes, self.seed, x_val=self.val.features, y_val=self.val.labels)
        return result, model.predict(self.test.features)

    def check(self, output) -> Outcome:
        result, pred = output
        trials = "\n".join("%d %s %r %s" % (t.index, t.status, t.fold_scores, json.dumps(t.params, sort_keys=True))
                           for t in result.trials)
        search = digest(trials, json.dumps(result.best_params, sort_keys=True), repr(result.best_score))
        cm = imbench.confusion_matrix(self.test.labels, pred, n_classes=self.n_classes)
        return Outcome(
            [Part("search", len(result.trials), search), Part("final_fit", 1, digest(pred))],
            {"weighted_f1_mean": float(result.best_score), "macro_f1_mean": imbench.f1_scores(cm).macro},
        )

    def parts(self) -> dict:
        return {"search": self.p["n_trials"], "final_fit": 1}


# ---------------------------------------------------------------------------
# CSV, persistence and statistics
# ---------------------------------------------------------------------------


class IoStats(Workload):
    """Rounds over files made in set-up: a mixed-type CSV with missing cells,
    a results CSV and a fitted random forest.  No model is fitted while
    timing, so this is the control for every fit-side change."""

    name = "io_stats"
    sizes = {
        "full": dict(n_rows=100000, n_results_classifiers=32, n_blocks=40, n_result_seeds=10,
                     thresholds=(1, 1000, 3000, 6000)),
        "smoke": dict(n_rows=2000, n_results_classifiers=6, n_blocks=8, n_result_seeds=2,
                      thresholds=(1, 50)),
    }
    STEPS = ("inspect", "split_ladder", "results_io", "stats", "model_io")

    def parts(self) -> dict:
        return {step: 1 for step in self.STEPS}

    def setup(self, work_dir: str) -> None:
        self.dir = work_dir
        self.csv_path = os.path.join(work_dir, "table.csv")
        self.schema_path = os.path.join(work_dir, "table.schema.json")
        self.results_path = os.path.join(work_dir, "results.csv")
        self._write_table()
        self.rows = self._result_rows()
        imbench.write_results(self.rows, self.results_path)
        self._fit_model()

    def _write_table(self) -> None:
        """Continuous columns with ~5% missing cells, skewed categorical
        columns, an ignored id column and power-law string labels."""
        n = self.p["n_rows"]
        rng = np.random.default_rng(self.seed)
        counts = imbench.power_law_counts(n, 10, 1.3)
        labels = rng.permutation(np.repeat(np.arange(10), counts))
        centers = rng.standard_normal((10, 6)) * 1.5
        cont = centers[labels] + rng.standard_normal((n, 6))
        missing = rng.random((n, 6)) < 0.05
        cats = [rng.choice(k, size=n, p=np.arange(k, 0, -1) / (k * (k + 1) / 2)) for k in (3, 7, 15)]
        cat_missing = rng.random((n, 3)) < 0.03
        columns = ["row_id"] + ["x%d" % j for j in range(6)] + ["site", "device", "region", "label"]
        with open(self.csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for i in range(n):
                row = [str(i)]
                row += ["" if missing[i, j] else "%.6g" % cont[i, j] for j in range(6)]
                row += ["NA" if cat_missing[i, j] else "%s%d" % ("sdr"[j], cats[j][i]) for j in range(3)]
                row.append("c%d" % labels[i])
                writer.writerow(row)
        schema = {"columns": [{"name": "row_id", "role": "ignore"}]
                  + [{"name": "x%d" % j, "role": "feature", "kind": "continuous"} for j in range(6)]
                  + [{"name": c, "role": "feature", "kind": "categorical"} for c in ("site", "device", "region")]
                  + [{"name": "label", "role": "label"}]}
        with open(self.schema_path, "w", encoding="utf-8") as fh:
            json.dump(schema, fh)

    def _result_rows(self) -> list:
        """A finished sweep's rows: classifiers of graded skill over blocks and seeds."""
        p = self.p
        rng = np.random.default_rng(self.seed + 1)
        classifiers = ["m%02d+%s" % (i // 4, STRATEGIES[i % 4]) for i in range(p["n_results_classifiers"])]
        skill = np.linspace(0.55, 0.85, len(classifiers))
        rows = []
        for b in range(p["n_blocks"]):
            difficulty = rng.normal(0.0, 0.05)
            for c, cid in enumerate(classifiers):
                for s in range(p["n_result_seeds"]):
                    score = float(np.clip(skill[c] + difficulty + rng.normal(0.0, 0.03), 0.0, 1.0))
                    rows.append(imbench.BlockResult(
                        classifier=cid, target="label", filter_threshold=b + 1, seed=s,
                        cvcf=float(rng.uniform(0.5, 2.0)), imbalance_ratio=float(rng.uniform(1.0, 50.0)),
                        necd=float(rng.uniform(0.5, 1.0)), accuracy=score + 0.02, macro_f1=score - 0.05,
                        weighted_f1=score, train_seconds=float(rng.uniform(0.01, 1.0)), n_train=600,
                    ))
        return rows

    def _fit_model(self) -> None:
        data = seeded_sample(self.seed, 4000, n_classes=5, n_features=8, cluster_separation=2.0,
                             power_law_exponent=1.0)
        split = imbench.data.stratified_split(data, seed=self.seed)
        train, self.test = data.subset(split.train), data.subset(split.test)
        weights = imbench.weighting.compute_weights(imbench.imbalance.class_frequencies(train.labels), "effective")
        self.model = imbench.trees.rf_fit(train.features, train.labels, weights,
                                          imbench.ForestParams(n_estimators=10, max_depth=8), 5, seed=self.seed)
        self.proba = self.model.predict_proba(self.test.features)

    def run(self):
        out = {}
        for step in self.STEPS:
            try:
                out[step] = getattr(self, "_" + step)()
            except Exception as exc:  # noqa: BLE001 - a failed step is recorded, the round goes on
                out[step] = exc
        return out

    def _inspect(self):
        return call_cli(["inspect", "--csv", self.csv_path, "--schema", self.schema_path, "--json"])

    def _split_ladder(self):
        data = imbench.data.preprocess(imbench.data.load_csv(self.csv_path, imbench.data.load_schema(self.schema_path)))
        parts = [data.features, data.labels]
        for t in self.p["thresholds"]:
            filtered = imbench.data.filter_min_class_count(data, t)
            split = imbench.data.stratified_split(filtered, seed=self.seed)
            train = filtered.subset(split.train)
            dist = imbench.imbalance.class_frequencies(train.labels)
            parts += [split.train, split.val, split.test]
            parts += [imbench.weighting.compute_weights(dist, s).weights for s in STRATEGIES]
        return parts

    def _results_io(self):
        path = os.path.join(self.dir, "results_copy.csv")
        imbench.harness.write_results(self.rows, path)
        return imbench.harness.read_results(path)

    def _stats(self):
        svg = os.path.join(self.dir, "cd.svg")
        code, out, err = call_cli(["stats", "--results", self.results_path, "--out-svg", svg])
        if code != 0:
            return code, out, err, ""
        with open(svg, "r", encoding="utf-8") as fh:
            return code, out, err, fh.read()

    def _model_io(self):
        path = os.path.join(self.dir, "model.json")
        imbench.trees.save_model(self.model, path)
        return imbench.trees.load_model(path).predict_proba(self.test.features)

    def check(self, output) -> Outcome:
        parts = []
        for step in self.STEPS:
            value = output[step]
            if isinstance(value, Exception):
                parts.append(Part(step, 1, error=error_text(value)))
                continue
            try:
                parts.append(Part(step, 1, getattr(self, "_digest_" + step)(value)))
            except ValueError as exc:
                parts.append(Part(step, 1, error=str(exc)))
        pred = output["model_io"]
        quality = {"weighted_f1_mean": 0.0, "macro_f1_mean": 0.0}
        if isinstance(pred, np.ndarray):
            cm = imbench.confusion_matrix(self.test.labels, pred.argmax(axis=1), n_classes=5)
            f1 = imbench.f1_scores(cm)
            quality = {"weighted_f1_mean": f1.weighted, "macro_f1_mean": f1.macro}
        return Outcome(parts, quality)

    @staticmethod
    def _cli_ok(code, err):
        if code != 0:
            raise ValueError("exit code %d: %s" % (code, err.strip()))

    def _digest_inspect(self, value):
        code, out, err = value
        self._cli_ok(code, err)
        return digest(out)

    def _digest_split_ladder(self, value):
        return digest(*value)

    def _digest_results_io(self, value):
        if value != self.rows:
            raise ValueError("read_results(write_results(rows)) differs from rows")
        return row_digest(value)

    def _digest_stats(self, value):
        code, out, err, svg = value
        self._cli_ok(code, err)
        return digest(out.replace(self.dir, "<work dir>"), svg)

    def _digest_model_io(self, value):
        if not np.array_equal(value, self.proba):
            raise ValueError("load_model(save_model(m)) predicts differently from m")
        return digest(value)


WORKLOADS = {w.name: w for w in (SweepTrees, SweepParallel, HpoTabresnet, IoStats)}
