"""Workload process of the benchmark: set up, run passes, check them, report.

run.py starts it with PYTHONPATH set to the checkout's src/ and the BLAS
thread count fixed.  On stdout it prints "READY" once rcprobe is imported
and the seeded inputs are built (run.py times process start to that line
as set-up); then, unless --setup-only, one JSON line with the pass timings,
the correctness gate's failures and, with --trace 1, per-layer metrics.

Every pass imports rcprobe anew, so no rcprobe state survives from one
pass to the next: users run a figure once per process.
"""

import argparse
import gc
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import tracer
from workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("baseline", "dicke", "grwa", "operators", "rcmap", "sweep", "thermal", "units")
COUNT_UNITS = ("count", "B", "ratio", "1/point")


def fresh_rcprobe():
    """Import rcprobe from scratch; returns a namespace of its modules."""
    for name in [n for n in sys.modules if n == "rcprobe" or n.startswith("rcprobe.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"rcprobe.{m}") for m in MODULES}
    return SimpleNamespace(pkg=sys.modules["rcprobe"], **mods)


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(wl, trace=None):
    """One pass on fresh modules; returns (result, wall_s, cpu_s)."""
    rc = fresh_rcprobe()
    if trace is not None:
        trace.install(rc)
    gc.collect()
    try:
        t0, c0 = time.perf_counter(), cpu_seconds()
        result = wl.run_pass(rc)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    finally:
        if trace is not None:
            trace.restore()
    return result, wall, cpu


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def traced_metrics(wl, traced, walls):
    """Per-layer metrics from the traced passes; counts must repeat exactly."""
    summaries = [tracer.summarize(t.spans, wl.points) for t, _, _ in traced]
    first, bases = summaries[0]
    for other, _ in summaries[1:]:
        for name, (value, unit) in first.items():
            if unit in COUNT_UNITS and other[name][0] != value:
                raise RuntimeError(f"count {name} did not repeat: {value} vs {other[name][0]}")
    metrics = {}
    for name, (value, unit) in first.items():
        if unit not in COUNT_UNITS:
            value = statistics.median(s[name][0] for s, _ in summaries)
        metrics[name] = {"value": value, "unit": unit}
    metrics["sweep.unconverged_points"] = {"value": wl.unconverged(traced[0][1]), "unit": "count"}
    overhead = min(w for _, _, w in traced) - min(walls)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, bases


def write_spans(path, traced):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, (t, _, _) in enumerate(traced):
            for sid, parent, name, t0, t1, thread, _ in t.spans:
                fh.write(json.dumps({"pass": k, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "thread": thread}) + "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    rc = fresh_rcprobe()
    src = ROOT / "src"
    if src not in pathlib.Path(rc.pkg.__file__).resolve().parents:
        print(f"rcprobe imported from {rc.pkg.__file__}, not from {src}", file=sys.stderr)
        return 2
    from rcprobe import cli

    wl = WORKLOADS[args.workload](rc, cli, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    results, walls, cpus, traced, rss = [], [], [], [], []

    def untraced():
        result, wall, cpu = run_pass(wl)
        results.append(result)
        walls.append(wall)
        cpus.append(cpu)
        if not rss:
            # High-water mark through set-up and one pass, as a user running
            # the workload once sees it; later passes re-import rcprobe.
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return wall

    def with_trace():
        t = tracer.Tracer()
        result, wall, _ = run_pass(wl, t)
        results.append(result)
        traced.append((t, result, wall))
        return wall

    def room(needed):
        return time.perf_counter() - start + needed <= args.seconds

    if args.trace:
        # Alternate untraced and traced passes, at least two of each: the
        # untraced ones give the overhead, the traced ones must agree on counts.
        for _ in range(2):
            untraced()
            with_trace()
        while room(walls[-1] + traced[-1][2]):
            untraced()
            with_trace()
    else:
        while room(untraced()):
            pass
    failures = wl.check(fresh_rcprobe(), results)
    out = {
        "points": wl.points,
        "passes": len(results),
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": rss[0],
        "attempted": wl.points * len(results),
        "failures": failures,
        "unconverged_points": wl.unconverged(results[0]),
        "env": environment(),
    }
    if args.trace:
        out["per_layer"], out["bases"] = traced_metrics(wl, traced, walls)
        spans = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-spans.jsonl"
        write_spans(spans, traced[:2])  # the two passes whose counts were compared
        out["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(out, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
