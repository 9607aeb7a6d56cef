"""Command-line interface.

Subcommands: inspect (imbalance metrics), weights (weighting schemes side
by side), synth (generate a dataset), train (fit one classifier), bench
(full sweep from a config file), stats (rank analysis over results), hpo
(random-search tuning).  Exit codes: 0 success, 1 usage error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .data import load_csv, load_schema, preprocess, save_csv, schema_for, stratified_split
from .harness import (
    METRICS,
    block_matrix,
    fit_block,
    load_experiment_config,
    read_results,
    run_sweep,
    summarize,
    write_degradation,
    write_results,
    write_summary,
)
from .hpo import HpoSpec, hpo_random_search, registered_families
from .imbalance import class_frequencies, imbalance_report
from .ranking import rank_analysis, render_cd, render_cd_text
from .synth import SynthConfig, synth_generate
from .trees import save_model
from .weighting import DEFAULT_BETA, STRATEGIES, compute_weights


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps its own usage failures to exit code 2; we want 1."""

    def error(self, message):
        raise _UsageError(message)


def _load_preprocessed(csv_path: str, schema_path: str):
    schema = load_schema(schema_path)
    return preprocess(load_csv(csv_path, schema)), schema


def _cmd_inspect(args) -> int:
    raw = load_csv(args.csv, load_schema(args.schema))  # labels only: no preprocess
    dist = class_frequencies(raw.labels)
    report = imbalance_report(dist)
    if args.json:
        print(json.dumps({
            "target": raw.schema.label_column,
            "n_samples": raw.n_samples,
            "n_classes": len(raw.class_names),
            "counts": {raw.class_names[i]: int(c) for i, c in zip(dist.class_ids, dist.counts)},
            **asdict(report),
        }, indent=2))
        return 0
    print("target column:   %s" % raw.schema.label_column)
    print("samples:         %d" % raw.n_samples)
    print("classes:         %d" % len(raw.class_names))
    width = max(len(n) for n in raw.class_names)
    for i, c in zip(dist.class_ids, dist.counts):
        print("  %-*s  %7d  (%.4f)" % (width, raw.class_names[i], c, c / dist.total))
    print("cvcf:            %.6f" % report.cvcf)
    print("imbalance ratio: %.6f" % report.imbalance_ratio)
    print("necd:            %.6f" % report.necd)
    return 0


def _cmd_weights(args) -> int:
    raw = load_csv(args.csv, load_schema(args.schema))  # labels only: no preprocess
    dist = class_frequencies(raw.labels)
    schemes = {s: compute_weights(dist, s, beta=args.beta).weights for s in STRATEGIES}
    width = max(len(raw.class_names[i]) for i in dist.class_ids)
    header = "  %-*s  %8s" % (width, "class", "count")
    for s in STRATEGIES:
        header += "  %10s" % s
    print(header)
    for row, (i, c) in enumerate(zip(dist.class_ids, dist.counts)):
        line = "  %-*s  %8d" % (width, raw.class_names[i], c)
        for s in STRATEGIES:
            line += "  %10.4f" % schemes[s][row]
        print(line)
    return 0


def _cmd_synth(args) -> int:
    if (args.counts is None) == (args.power_law is None):
        raise _UsageError("specify exactly one of --counts or --power-law")
    counts = tuple(int(c) for c in args.counts.split(",")) if args.counts else None
    if counts:
        n_samples = sum(counts)
        if args.samples is not None and args.samples != n_samples:
            raise _UsageError("--samples disagrees with the sum of --counts")
    else:
        n_samples = args.samples if args.samples is not None else 1000
    cfg = SynthConfig(
        n_samples=n_samples,
        n_classes=len(counts) if counts else args.classes,
        n_features=args.features,
        cluster_separation=args.separation,
        class_counts=counts,
        power_law_exponent=args.power_law,
        seed=args.seed,
    )
    data = synth_generate(cfg)
    save_csv(data, args.out)
    schema_path = args.schema_out or (args.out + ".schema.json")
    with open(schema_path, "w", encoding="utf-8") as fh:
        fh.write(schema_for(data).to_json())
    print("wrote %d samples, %d classes, %d features -> %s (schema: %s)" % (
        data.n_samples, data.n_classes, data.n_features, args.out, schema_path))
    return 0


def _cmd_train(args) -> int:
    data, schema = _load_preprocessed(args.csv, args.schema)
    block, model = fit_block(
        data,
        family=args.family,
        strategy=args.weighting,
        filter_threshold=args.filter_threshold,
        seed=args.seed,
        target=schema.label_column,
        beta=args.beta,
        params=json.loads(args.params) if args.params else {},
    )
    if block.status != "ok":
        raise RuntimeError("block %s: %s" % (block.status, block.reason))
    print("classifier:     %s" % block.classifier)
    print("train samples:  %d" % block.n_train)
    print("train seconds:  %.4f" % block.train_seconds)
    print("accuracy:       %.4f" % block.accuracy)
    print("macro F1:       %.4f" % block.macro_f1)
    print("weighted F1:    %.4f" % block.weighted_f1)
    if args.save_model:
        if not hasattr(model, "to_dict"):
            raise RuntimeError("family %r does not support serialization" % args.family)
        save_model(model, args.save_model)
        print("model saved:    %s" % args.save_model)
    return 0


def _cmd_bench(args) -> int:
    config = load_experiment_config(args.config)
    results, summaries = run_sweep(config)
    write_results(results, args.out)
    n_skipped = sum(1 for r in results if r.status == "skipped")
    n_failed = sum(1 for r in results if r.status == "failed")
    print("wrote %d rows (%d skipped, %d failed) -> %s" % (len(results), n_skipped, n_failed, args.out))
    if args.summary_out:
        write_summary(summaries, args.summary_out)
        print("summary -> %s" % args.summary_out)
    if args.degradation_out:
        write_degradation(summaries, args.degradation_out, metric=args.metric)
        print("degradation curves -> %s" % args.degradation_out)
    return 0


def _cmd_stats(args) -> int:
    results = read_results(args.results)
    summaries = summarize(results)
    matrix = block_matrix(summaries, metric=args.metric)
    analysis = rank_analysis(matrix, alpha=args.alpha, direction=args.direction)
    print(render_cd_text(analysis))
    print("pairwise (Holm-adjusted):")
    for p in analysis.pairwise:
        flag = " (degenerate)" if p.degenerate else ""
        print("  %s vs %s: W=%.1f raw=%.4g adj=%.4g%s" % (
            p.treatment_a, p.treatment_b, p.statistic, p.p_raw, p.p_adjusted, flag))
    if args.out_svg:
        render_cd(analysis, args.out_svg)
        print("cd diagram -> %s" % args.out_svg)
    if args.out_text:
        with open(args.out_text, "w", encoding="utf-8") as fh:
            fh.write(render_cd_text(analysis) + "\n")
        print("text rendering -> %s" % args.out_text)
    return 0


def _cmd_hpo(args) -> int:
    spec = HpoSpec(
        n_trials=args.trials,
        cv_folds=args.folds,
        seed=args.seed,
        overrides=json.loads(args.params) if args.params else {},
        strategy=args.weighting,
    )
    data, _ = _load_preprocessed(args.csv, args.schema)
    split = stratified_split(data, seed=args.seed)
    train = data.subset(split.train)
    result = hpo_random_search(args.family, train.features, train.labels, spec=spec, n_classes=data.n_classes)
    print("best trial:  %d" % result.best_trial)
    print("best score:  %.6f (mean weighted F1 over %d folds)" % (result.best_score, args.folds))
    print("best params: %s" % json.dumps(result.best_params))
    n_pruned = sum(1 for t in result.trials if t.status == "pruned")
    print("trials:      %d completed, %d pruned" % (len(result.trials) - n_pruned, n_pruned))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "family": result.family,
                    "best_trial": result.best_trial,
                    "best_score": result.best_score,
                    "best_params": result.best_params,
                    "trials": [
                        {"index": t.index, "status": t.status, "params": t.params,
                         "fold_scores": t.fold_scores, "mean": t.mean_score}
                        for t in result.trials
                    ],
                },
                fh,
                indent=1,
            )
        print("trial log -> %s" % args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="imbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="imbalance metrics of a dataset's label column")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("weights", help="show all four weighting schemes side by side")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA, help="effective-number beta")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("synth", help="generate a synthetic dataset as CSV + schema")
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out", default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="total rows (default 1000; implied by --counts)")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--separation", type=float, default=3.0)
    p.add_argument("--power-law", type=float, default=None, help="class-size decay exponent")
    p.add_argument("--counts", default=None, help="explicit comma-separated class counts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    # train and hpo fit one family on one table
    fit_args = argparse.ArgumentParser(add_help=False)
    fit_args.add_argument("--csv", required=True)
    fit_args.add_argument("--schema", required=True)
    fit_args.add_argument("--family", required=True, choices=registered_families())
    fit_args.add_argument("--weighting", default="none", choices=STRATEGIES)
    fit_args.add_argument("--params", default=None, help="JSON object of the family's fixed parameters")

    p = sub.add_parser("train", parents=[fit_args], help="train and evaluate a single classifier")
    p.add_argument("--filter-threshold", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--save-model", default=None, help="write the fitted model as JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench", help="run a full sweep from a JSON experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="raw results CSV")
    p.add_argument("--summary-out", default=None)
    p.add_argument("--degradation-out", default=None)
    p.add_argument("--metric", default="weighted_f1", choices=METRICS)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("stats", help="Friedman + pairwise Wilcoxon/Holm + CD diagram")
    p.add_argument("--results", required=True, help="results CSV from bench")
    p.add_argument("--metric", default="weighted_f1", choices=METRICS)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--direction", default="maximize", choices=["maximize", "minimize"])
    p.add_argument("--out-svg", default=None)
    p.add_argument("--out-text", default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("hpo", parents=[fit_args], help="random-search hyperparameter optimization")
    p.add_argument("--trials", type=int, default=HpoSpec.n_trials)
    p.add_argument("--folds", type=int, default=HpoSpec.cv_folds)
    p.add_argument("--seed", type=int, default=HpoSpec.seed)
    p.add_argument("--out", default=None, help="write the full trial log as JSON")
    p.set_defaults(func=_cmd_hpo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
