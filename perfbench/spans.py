"""Span tracing of imbench's public functions, applied from outside the package.

``Tracer.install()`` replaces each function listed in ``TRACED`` with a
wrapper that records a span (name, start, end, parent) and restores the
originals on ``uninstall()``.  A function imported by name into other imbench
modules is replaced there too, so a call is caught whichever module makes it.
Spans stay in memory; ``dump()`` writes them out when the run ends.

Worker processes forked while the tracer is installed inherit the wrappers.
They append their spans to ``spans-<pid>.jsonl`` in the trace directory each
time a top-level call returns, and ``collect_children()`` merges those files
into the parent's list.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
import types

import numpy as np

import imbench

# layer -> public functions whose calls become spans named "<layer>.<function>"
TRACED = {
    "data": ["load_csv", "preprocess", "stratified_split", "filter_min_class_count", "Dataset.subset",
             "save_csv", "load_schema"],
    "synth": ["synth_generate"],
    "imbalance": ["class_frequencies", "imbalance_report"],
    "weighting": ["compute_weights"],
    "losses": ["cce_from_logits"],
    "evaluation": ["confusion_matrix", "f1_scores", "accuracy"],
    "trees": ["dt_fit", "rf_fit", "gbt_fit", "save_model", "load_model",
              "DecisionTreeModel.predict", "DecisionTreeModel.predict_proba",
              "RandomForestModel.predict", "RandomForestModel.predict_proba",
              "GradientBoostedModel.predict", "GradientBoostedModel.predict_proba",
              "GradientBoostedModel.decision_function"],
    "tabresnet": ["nn_fit", "TabResNetModel.predict", "TabResNetModel.predict_proba"],
    "hpo": ["hpo_random_search", "stratified_kfold", "sample_params", "fit_family"],
    "harness": ["run_sweep", "run_block", "summarize", "write_results", "read_results", "block_matrix",
                "load_experiment_config", "load_dataset"],
    "ranking": ["rank_analysis", "friedman", "wilcoxon_signed_rank", "holm_adjust", "render_cd",
                "render_cd_text"],
    "cli": ["main"],
}


def _tree_nodes(root) -> int:
    if root is None:
        return 0
    if root.is_leaf:
        return 1
    return 1 + _tree_nodes(root.left) + _tree_nodes(root.right)


def _model_nodes(model) -> int:
    if hasattr(model, "root"):
        return _tree_nodes(model.root)
    if hasattr(model, "trees"):
        return sum(_tree_nodes(t) for t in model.trees)
    return sum(_tree_nodes(t) for class_trees in model.rounds for t in class_trees)


# Attributes read from a call's arguments and result once its span has ended.
# Their cost lands in a "trace.hook" span, so no layer's self time includes it.
def _fit_attrs(result, args, kwargs):
    return {"nodes": _model_nodes(result)}


def _nn_fit_attrs(result, args, kwargs):
    return {"epochs": result.history.n_epochs, "stopped_early": bool(result.history.stopped_early)}


def _hpo_attrs(result, args, kwargs):
    return {
        "trials": len(result.trials),
        "fold_fits": sum(len(t.fold_scores) for t in result.trials),
        "completed": sum(1 for t in result.trials if t.status == "completed"),
    }


def _load_csv_attrs(result, args, kwargs):
    return {"rows": result.n_samples}


def _file_bytes_attrs(result, args, kwargs):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _cli_attrs(result, args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else "", "exit_code": result}


HOOKS = {
    "trees.dt_fit": _fit_attrs,
    "trees.rf_fit": _fit_attrs,
    "trees.gbt_fit": _fit_attrs,
    "tabresnet.nn_fit": _nn_fit_attrs,
    "hpo.hpo_random_search": _hpo_attrs,
    "data.load_csv": _load_csv_attrs,
    "trees.save_model": _file_bytes_attrs,
    "harness.write_results": _file_bytes_attrs,
    "cli.main": _cli_attrs,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans: list = []   # dicts: id, parent, name, start, end, pid, op, attrs
        self.stack: list = []   # ids of open spans
        self.op = -1
        self._count = 0
        self._child_depth = None  # stack depth inherited at fork, in a worker
        self._saved: list = []    # (owner, attribute, original)

    # -- span recording ----------------------------------------------------

    def _enter_process(self) -> None:
        """First span in a forked worker: start a fresh buffer that flushes to a file."""
        self.pid = os.getpid()
        self.spans = []
        self._count = 0
        self._child_depth = len(self.stack)

    def _record(self, name, start, end, parent, attrs=None) -> dict:
        self._count += 1
        span = {"id": "%d-%d" % (self.pid, self._count), "parent": parent, "name": name,
                "start": start, "end": end, "pid": self.pid, "op": self.op, "attrs": attrs or {}}
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._enter_process()
            parent = tracer.stack[-1] if tracer.stack else None
            span = tracer._record(name, time.perf_counter(), None, parent)
            tracer.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                h0 = time.perf_counter()
                span["attrs"] = hook(result, args, kwargs)
                tracer._record("trace.hook", h0, time.perf_counter(), parent)
            if tracer._child_depth is not None and len(tracer.stack) == tracer._child_depth:
                tracer._flush_child()
            return result

        return wrapper

    def _flush_child(self) -> None:
        path = os.path.join(self.trace_dir, "spans-%d.jsonl" % self.pid)
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_children(self) -> None:
        """Merge the span files that forked workers wrote, then delete them."""
        for path in sorted(glob.glob(os.path.join(self.trace_dir, "spans-*.jsonl"))):
            with open(path, "r", encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh)
            os.remove(path)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import imbench.cli  # the package __init__ does not import the CLI

        modules = [imbench] + [m for m in vars(imbench).values() if isinstance(m, types.ModuleType)]
        for layer, names in TRACED.items():
            home = getattr(imbench, layer)
            for qualname in names:
                name = "%s.%s" % (layer, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))
                    continue
                original = getattr(home, qualname)
                wrapper = self.wrap(name, original)
                for module in modules:
                    if vars(module).get(qualname) is original:
                        self._patch(module, qualname, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it covered by its child spans.

    Children of one span may overlap when they ran in parallel workers, so
    the covered part is the union of their intervals, not their sum.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def layer(name: str) -> str:
    return name.split(".", 1)[0]


LAYERS = tuple(TRACED)

# (name, unit, better) of every per-layer metric a traced run reports.  Times
# are seconds per operation of the workload unless the name says otherwise.
PER_LAYER = (
    [("%s.self_s" % m, "s", "lower") for m in LAYERS]
    + [("%s.share" % m, "fraction", "lower") for m in LAYERS]
    + [("trees.fit_s.%s.%s" % (f, q), "s", "lower") for f in ("dt", "rf", "gbt") for q in ("p50", "p90")]
    + [
        ("trees.predict_s", "s", "lower"),
        ("trees.nodes", "count", "lower"),
        ("trees.fit_us_per_node", "us", "lower"),
        ("trees.save_s", "s", "lower"),
        ("trees.load_s", "s", "lower"),
        ("trees.model_bytes", "bytes", "lower"),
        ("data.filter_s", "s", "lower"),
        ("data.split_s", "s", "lower"),
        ("data.subset_s", "s", "lower"),
        ("data.filter_calls", "count", "lower"),
        ("data.split_calls", "count", "lower"),
        ("harness.task_bytes", "bytes", "lower"),
        ("harness.block_self_s", "s", "lower"),
        ("harness.blocks", "count", "higher"),
        ("harness.parallel_efficiency", "fraction", "higher"),
        ("tabresnet.fit_s", "s", "lower"),
        ("tabresnet.epochs", "count", "lower"),
        ("tabresnet.epoch_ms", "ms", "lower"),
        ("tabresnet.predict_s", "s", "lower"),
        ("tabresnet.stopped_early_frac", "fraction", "higher"),
        ("losses.cce_s", "s", "lower"),
        ("losses.calls", "count", "lower"),
        ("evaluation.metrics_s", "s", "lower"),
        ("evaluation.calls", "count", "lower"),
        ("hpo.search_s", "s", "lower"),
        ("hpo.kfold_s", "s", "lower"),
        ("hpo.trials", "count", "higher"),
        ("hpo.fold_fits", "count", "lower"),
        ("hpo.completed_frac", "fraction", "higher"),
        ("data.load_csv_s", "s", "lower"),
        ("data.load_csv_rows_per_s", "1/s", "higher"),
        ("data.preprocess_s", "s", "lower"),
        ("imbalance.report_s", "s", "lower"),
        ("weighting.compute_s", "s", "lower"),
        ("weighting.calls", "count", "lower"),
        ("harness.write_results_s", "s", "lower"),
        ("harness.read_results_s", "s", "lower"),
        ("harness.summarize_s", "s", "lower"),
        ("harness.block_matrix_s", "s", "lower"),
        ("harness.results_bytes", "bytes", "lower"),
        ("ranking.rank_analysis_s", "s", "lower"),
        ("ranking.wilcoxon_calls", "count", "lower"),
        ("ranking.render_cd_s", "s", "lower"),
        ("cli.inspect_s", "s", "lower"),
        ("cli.stats_s", "s", "lower"),
        ("cli.bench_s", "s", "lower"),
        ("synth.generate_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _names(layer_name: str) -> list:
    return ["%s.%s" % (layer_name, q) for q in TRACED[layer_name]]


def _op_metrics(spans, self_of, op_wall: float, workers: int) -> dict:
    """Per-layer numbers for the spans of one traced operation."""

    def pick(*names):
        return [s for s in spans if s["name"] in names]

    def self_sum(*names):
        return float(sum(self_of[s["id"]] for s in pick(*names)))

    def incl_sum(*names):
        return float(sum(s["end"] - s["start"] for s in pick(*names)))

    def attr_sum(key, *names):
        return float(sum(s["attrs"].get(key, 0) for s in pick(*names)))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out = {}
    by_layer = {m: 0.0 for m in LAYERS}
    for s in spans:
        if layer(s["name"]) in by_layer:
            by_layer[layer(s["name"])] += self_of[s["id"]]
    busy = sum(by_layer.values())
    for m in LAYERS:
        out["%s.self_s" % m] = by_layer[m]
        out["%s.share" % m] = ratio(by_layer[m], busy)

    fits = ("trees.dt_fit", "trees.rf_fit", "trees.gbt_fit")
    nodes = attr_sum("nodes", *fits)
    out["trees.predict_s"] = self_sum(*[n for n in _names("trees") if "predict" in n or "decision" in n])
    out["trees.nodes"] = nodes
    out["trees.fit_us_per_node"] = ratio(self_sum(*fits), nodes, 1e6)
    out["trees.save_s"] = self_sum("trees.save_model")
    out["trees.load_s"] = self_sum("trees.load_model")
    out["trees.model_bytes"] = attr_sum("bytes", "trees.save_model")

    out["data.filter_s"] = self_sum("data.filter_min_class_count")
    out["data.split_s"] = self_sum("data.stratified_split")
    out["data.subset_s"] = self_sum("data.Dataset.subset")
    out["data.filter_calls"] = float(len(pick("data.filter_min_class_count")))
    out["data.split_calls"] = float(len(pick("data.stratified_split")))
    out["harness.block_self_s"] = self_sum("harness.run_block")
    out["harness.blocks"] = float(len(pick("harness.run_block")))
    out["harness.parallel_efficiency"] = ratio(incl_sum("harness.run_block"), workers * op_wall)

    fit_spans = pick("tabresnet.nn_fit")
    epochs = attr_sum("epochs", "tabresnet.nn_fit")
    out["tabresnet.fit_s"] = self_sum("tabresnet.nn_fit")
    out["tabresnet.epochs"] = epochs
    out["tabresnet.epoch_ms"] = ratio(incl_sum("tabresnet.nn_fit"), epochs, 1e3)
    out["tabresnet.predict_s"] = self_sum("tabresnet.TabResNetModel.predict",
                                          "tabresnet.TabResNetModel.predict_proba")
    out["tabresnet.stopped_early_frac"] = ratio(attr_sum("stopped_early", "tabresnet.nn_fit"), len(fit_spans))
    out["losses.cce_s"] = self_sum("losses.cce_from_logits")
    out["losses.calls"] = float(len(pick("losses.cce_from_logits")))
    out["evaluation.metrics_s"] = by_layer["evaluation"]
    out["evaluation.calls"] = float(len(pick(*_names("evaluation"))))

    trials = attr_sum("trials", "hpo.hpo_random_search")
    out["hpo.search_s"] = self_sum("hpo.hpo_random_search")
    out["hpo.kfold_s"] = self_sum("hpo.stratified_kfold")
    out["hpo.trials"] = trials
    out["hpo.fold_fits"] = attr_sum("fold_fits", "hpo.hpo_random_search")
    out["hpo.completed_frac"] = ratio(attr_sum("completed", "hpo.hpo_random_search"), trials)

    out["data.load_csv_s"] = self_sum("data.load_csv")
    out["data.load_csv_rows_per_s"] = ratio(attr_sum("rows", "data.load_csv"), incl_sum("data.load_csv"))
    out["data.preprocess_s"] = self_sum("data.preprocess")
    out["imbalance.report_s"] = by_layer["imbalance"]
    out["weighting.compute_s"] = self_sum("weighting.compute_weights")
    out["weighting.calls"] = float(len(pick("weighting.compute_weights")))

    out["harness.write_results_s"] = self_sum("harness.write_results")
    out["harness.read_results_s"] = self_sum("harness.read_results")
    out["harness.summarize_s"] = self_sum("harness.summarize")
    out["harness.block_matrix_s"] = self_sum("harness.block_matrix")
    out["harness.results_bytes"] = attr_sum("bytes", "harness.write_results")
    out["ranking.rank_analysis_s"] = incl_sum("ranking.rank_analysis")
    out["ranking.wilcoxon_calls"] = float(len(pick("ranking.wilcoxon_signed_rank")))
    out["ranking.render_cd_s"] = incl_sum("ranking.render_cd", "ranking.render_cd_text")
    for command in ("inspect", "stats", "bench"):
        out["cli.%s_s" % command] = float(sum(
            self_of[s["id"]] for s in pick("cli.main") if s["attrs"].get("command") == command))
    return out


def layer_metrics(spans, op_walls: dict, workers: int, task_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``op_walls`` maps each traced operation's index to its wall time.  Spans
    with a negative operation index come from set-up.  Per-operation numbers
    are medians over the traced operations; fit-time percentiles pool every
    fit call.
    """
    self_of = self_times(spans)
    per_op = [
        _op_metrics([s for s in spans if s["op"] == op], self_of, wall, workers)
        for op, wall in sorted(op_walls.items())
    ]
    out = {name: float(np.median([m[name] for m in per_op])) for name in per_op[0]}
    timed = [s for s in spans if s["op"] in op_walls]
    for family in ("dt", "rf", "gbt"):
        durations = [s["end"] - s["start"] for s in timed if s["name"] == "trees.%s_fit" % family]
        for q in (50, 90):
            out["trees.fit_s.%s.p%d" % (family, q)] = float(np.percentile(durations, q)) if durations else 0.0
    setups = sorted({s["op"] for s in spans if s["op"] < 0})
    out["synth.generate_s"] = float(np.median([
        sum(s["end"] - s["start"] for s in spans if s["op"] == op and s["name"] == "synth.synth_generate")
        for op in setups
    ])) if setups else 0.0
    out["harness.task_bytes"] = float(task_bytes)
    out["trace.overhead_s"] = float(overhead_s)
    return out
