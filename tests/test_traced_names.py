"""The benchmark's tracer (``perfbench/spans.py``) wraps imbench functions by
name, from outside the package.  A rename, or a call that bypasses a traced
name, would silently blind one of its per-layer metrics, so these tests load
the tracer unchanged and check the names it patches and the call path of a
scored fit."""

import importlib.util
import os

import numpy as np

import imbench
import imbench.cli  # noqa: F401 - Tracer.install traces the CLI, which the package does not import
from tests.conftest import make_blobs

SPANS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """Each ``TRACED`` name is what ``Tracer.install`` patches: a function
    attribute of its layer's module, or a method in its class's own
    ``__dict__``."""
    unresolved = []
    for layer, names in load_spans().TRACED.items():
        home = getattr(imbench, layer, None)
        for qualname in names:
            owner, attr = home, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(home, cls_name, None)
            if owner is None or not callable(vars(owner).get(attr)):
                unresolved.append("%s.%s" % (layer, qualname))
    assert unresolved == []


def test_scored_fits_pass_through_the_traced_fit_family(tmp_path):
    """A block's fit is a ``fit_family`` span inside its ``run_block`` span,
    and an HPO search makes one ``fit_family`` span per fold fit."""
    spans = load_spans()
    tracer = spans.Tracer(str(tmp_path))
    data = make_blobs(300, 3, 4, 2.5, seed=1, counts=[150, 100, 50])
    tracer.install()
    try:
        row = imbench.fit_block(data, "dt", "inverse", 1, seed=0, params={"max_depth": 3})[0]
        result = imbench.hpo_random_search("dt", data.features, data.labels,
                                           spec=imbench.HpoSpec(n_trials=3, cv_folds=2, seed=0))
    finally:
        tracer.uninstall()
    assert row.status == "ok"
    by_id = {s["id"]: s for s in tracer.spans}
    fits = [s for s in tracer.spans if s["name"] == "hpo.fit_family"]
    block_fit, fold_fits = fits[0], fits[1:]
    assert by_id[block_fit["parent"]]["name"] == "harness.run_block"
    inside = [s["name"] for s in tracer.spans if s["parent"] == block_fit["id"]]
    assert inside == ["trees.dt_fit", "trace.hook"]  # the hook reads the fit's node count
    assert len(fold_fits) == sum(len(t.fold_scores) for t in result.trials)
    assert all(by_id[s["parent"]]["name"] == "hpo.hpo_random_search" for s in fold_fits)
    assert np.isfinite(result.best_score)


def test_every_block_of_a_parallel_sweep_is_a_traced_run_block(tmp_path):
    """``harness.blocks`` and ``harness.parallel_efficiency`` come from the
    ``run_block`` spans that forked workers write: a sweep with two workers
    gives one per block, each with its fit as a ``fit_family`` child."""
    spans = load_spans()
    tracer = spans.Tracer(str(tmp_path))
    config = imbench.ExperimentConfig(
        synth=imbench.SynthConfig(n_samples=300, n_classes=3, n_features=4, class_counts=(150, 100, 50), seed=1),
        filter_thresholds=(1,), strategies=("none", "inverse"), families=("dt",), n_runs=3,
        model_params={"dt": {"max_depth": 3}}, workers=2)
    tracer.install()
    try:
        rows, _ = imbench.run_sweep(config)
    finally:
        tracer.uninstall()
    tracer.collect_children()
    blocks = [s for s in tracer.spans if s["name"] == "harness.run_block"]
    fitted = {s["parent"] for s in tracer.spans if s["name"] == "hpo.fit_family"}
    assert len(rows) == len(blocks) == 6 and all(r.status == "ok" for r in rows)
    assert all(b["id"] in fitted and b["pid"] != tracer.pid for b in blocks)
