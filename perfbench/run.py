#!/usr/bin/env python3
"""imbench benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sweep_trees --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Set-up makes the inputs from ``--seed`` several times and times each.  The
timed phase then repeats the workload's operation back to back (a closed
loop with one client) while the next one is expected to end within
``--seconds``, and checks every operation's outputs against the fingerprints
stored in ``reference.json`` (or, for a seed or platform without one,
against the workload's independent twin run, else the first operation).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over operations).  With ``--trace 1`` every
second operation runs with spans on imbench's public functions, and the
metrics are per layer, from those operations only.  Spans and a run record
go to ``.bench_out/``.  ``--size smoke`` shrinks every workload for the
benchmark's own tests.
"""

from __future__ import annotations

import os

# One BLAS thread per process: sweep_parallel runs two worker processes on a
# two-core machine, and the other workloads must not borrow idle cores.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 3

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("weighted_f1_mean", "score"),
    ("macro_f1_mean", "score"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep_trees", "sweep_parallel", "hpo_tabresnet", "io_stats"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's fingerprints in reference.json")
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def platform_tag() -> str:
    """What the last bits of float results depend on: the numeric libraries
    and the SIMD kernels numpy (and likewise OpenBLAS) dispatch to."""
    import numpy
    import scipy

    features = getattr(getattr(numpy, "_core", None), "_multiarray_umath", None)
    features = getattr(features, "__cpu_features__", {})
    return "%s python-%s numpy-%s scipy-%s %s" % (
        platform.machine(), ".".join(platform.python_version_tuple()[:2]), numpy.__version__,
        scipy.__version__, ",".join(sorted(k for k, on in features.items() if on)))


def load_reference() -> dict:
    """The stored file: {"platform": tag, "fingerprints": {key: {part: digest}}}."""
    if not os.path.exists(REFERENCE):
        return {"platform": platform_tag(), "fingerprints": {}}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class Ledger:
    """Attempted and failed operations, with the first errors seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def add(self, units: int, error: str = "") -> None:
        self.attempted += units
        if error:
            self.failed += units
            if len(self.errors) < 20:
                self.errors.append(error)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_import = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import imbench
    except ImportError as exc:
        print("perfbench: cannot import imbench from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    if not os.path.abspath(imbench.__file__).startswith(SRC + os.sep):
        print("perfbench: imbench was imported from %s, not from %s" % (imbench.__file__, SRC), file=sys.stderr)
        return 2
    import spans
    import workloads
    import_s = time.perf_counter() - t_import

    env = environment(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    key = "%s/%s/%d" % (args.workload, args.size, args.seed)
    run_dir = os.path.join(OUT_DIR, "%s-%s-seed%d-trace%d-%d" % (args.workload, args.size, args.seed,
                                                                 args.trace, os.getpid()))
    work_dir = os.path.join(run_dir, "work")
    os.makedirs(run_dir)
    tracer = spans.Tracer(run_dir) if args.trace else None
    try:
        return measure(args, env, wl, key, import_s, work_dir, run_dir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, env, wl, key, import_s, work_dir, run_dir, tracer) -> int:
    import spans
    import workloads

    setup_times = []
    for k in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        if tracer is not None:
            tracer.op = -1 - k
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.setup(work_dir)
        except Exception as exc:  # noqa: BLE001 - no inputs, nothing to measure
            print("perfbench: set-up failed: %s" % workloads.error_text(exc), file=sys.stderr)
            return 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)

    ops = []          # per operation: wall, cpu, traced, outcome
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
            tracer.install()
        c0, w0 = cpu_seconds(), time.perf_counter()
        try:
            output, error = wl.run(), ""
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, the run goes on
            output, error = None, workloads.error_text(exc)
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        if traced:
            tracer.uninstall()
            tracer.collect_children()
        if not error:
            try:
                outcome = wl.check(output)
            except Exception as exc:  # noqa: BLE001
                error = "output check: " + workloads.error_text(exc)
        if error:
            outcome = workloads.Outcome([workloads.Part(n, u, error=error) for n, u in wl.parts().items()])
        ops.append({"wall": wall, "cpu": cpu, "traced": traced, "outcome": outcome})
        elapsed = time.perf_counter() - start
        if elapsed + wall > args.seconds and (tracer is None or len(ops) >= 2):
            break
    peak = peak_rss_mb()

    # Fingerprints every operation must match: the stored reference, else the
    # twin run (the serial sweep for sweep_parallel), else the first operation.
    ledger = Ledger()
    reference = load_reference()
    same_platform = reference["platform"] == platform_tag()
    expected = reference["fingerprints"].get(key) if same_platform else None
    source = "reference"
    if expected is None:
        try:
            twin = wl.twin_check()
        except Exception as exc:  # noqa: BLE001 - leaves nothing to compare with, so every part fails
            ledger.errors.append("twin run: " + workloads.error_text(exc))
            twin = workloads.Outcome()
        source = "twin" if twin is not None else "first operation"
        first = twin if twin is not None else ops[0]["outcome"]
        expected = {p.name: p.digest for p in first.parts if p.digest is not None}

    for op in ops:
        for part in op["outcome"].parts:
            error = part.error
            if not error and part.name in expected and part.digest != expected[part.name]:
                error = "%s: outputs differ from the %s" % (part.name, source)
            elif not error and part.name not in expected:
                error = "%s: no fingerprint to compare with" % part.name
            ledger.add(part.units, error)

    untraced = [op for op in ops if not op["traced"]]
    if args.trace:
        traced_ops = {i: op["wall"] for i, op in enumerate(ops) if op["traced"]}
        overhead = (statistics.median(traced_ops.values())
                    - statistics.median(op["wall"] for op in untraced))
        values = spans.layer_metrics(tracer.spans, traced_ops, wl.workers, wl.task_bytes(), overhead)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        tracer.dump(os.path.join(run_dir, "spans.json"))
    else:
        values = {
            "wall_s": statistics.median(op["wall"] for op in untraced),
            "cpu_s": statistics.median(op["cpu"] for op in untraced),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak,
            "weighted_f1_mean": statistics.median(op["outcome"].quality.get("weighted_f1_mean", 0.0)
                                                  for op in ops),
            "macro_f1_mean": statistics.median(op["outcome"].quality.get("macro_f1_mean", 0.0)
                                               for op in ops),
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}

    if args.write_reference:
        if ledger.failed or not same_platform:
            print("perfbench: not storing a reference for a run with failures or from another platform",
                  file=sys.stderr)
        else:
            reference["fingerprints"][key] = dict(sorted(expected.items()))
            reference["fingerprints"] = dict(sorted(reference["fingerprints"].items()))
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1)
                fh.write("\n")

    record = {
        "environment": env,
        "import_s": import_s,
        "setup_times": setup_times,
        "platform": platform_tag(),
        "fingerprint_source": source,
        "operations": [{"wall": op["wall"], "cpu": op["cpu"], "traced": op["traced"],
                        "parts": [vars(p) for p in op["outcome"].parts]} for op in ops],
        "errors": ledger.errors,
        "metrics": metrics,
    }
    with open(os.path.join(run_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("# environment %s" % json.dumps(env, sort_keys=True))
    print("# %s: %d operations (%d traced), fingerprints from the %s%s"
          % (args.workload, len(ops), len(ops) - len(untraced), source,
             "" if same_platform else " (reference.json is for another platform)"))
    for name, m in metrics.items():
        print("%-32s %16.6g %s" % (name, m["value"], m["unit"]))
    print("%-32s %16.6g %s" % ("failed_frac", ledger.failed / max(ledger.attempted, 1), "fraction"))
    for error in ledger.errors:
        print("# error: %s" % error)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
