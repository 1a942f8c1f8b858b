#!/usr/bin/env python3
"""rcprobe benchmark: four workloads, end-to-end and per-layer metrics, and a correctness gate.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (workloads.py says why each exists): fig_sweeps, large_n_point,
scatter_auto, analytic_limits.  The seed makes the inputs; rcprobe is
imported from ./src and gets only the generated inputs.

--trace 0 measures, with tracing off, for S seconds of passes and reports
  setup_s      median of 5 process starts until the inputs are ready
               (interpreter start, `import rcprobe` with numpy and scipy,
               config parsing, seeded inputs)
  wall_s       wall time of one pass over the workload: the fastest pass
  points_per_s grid points per second at the workload's input size
  cpu_s        user+sys CPU of the process during one pass: the least
  peak_rss_mb  peak resident memory of the workload process through
               set-up and its first pass
--trace 1 runs untraced and traced passes and reports the per-layer
  metrics of tracer.py, failed_frac and trace.overhead_s (fastest traced
  minus fastest untraced pass).

Pass times are taken at their least, not their median.  On a VM whose
host is shared, other tenants' load only ever slows a pass, for stretches
of seconds: on a 2-core VM the passes of one 8 s analytic_limits run
ranged over 50-120 ms and the medians of six such runs over 70-97 ms,
while their fastest passes stayed within 51-54 ms.  Every pass time is
kept in the detail file below.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  The lines before it are the environment record, the failed
points with their inputs (the first 100), and a summary that includes
failed_frac (failed points / points attempted).  The same details go to
perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("fig_sweeps", "large_n_point", "scatter_auto", "analytic_limits")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
MAX_LISTED = 100  # failed points printed; the detail file lists all


class BenchError(Exception):
    pass


def spawn(args, env, deadline, setup_only):
    """Run one worker process; returns (seconds until READY, remaining stdout)."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker exited with code {code} (deadline {DEADLINE_S:.0f} s)")
    return setup_s, rest


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "rcprobe" / "__init__.py").is_file():
        print(f"no rcprobe source at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # BLAS threads pinned to the core count (the library default here), so
    # the figure does not depend on the caller's environment.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(nproc)

    try:
        setups = [spawn(args, env, deadline, True)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, out = spawn(args, env, deadline, False)
        setups.append(setup_s)
        res = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failures = res["failures"]
    attempted, failed = res["attempted"], len(failures)
    failed_frac = failed / attempted
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": commit(), "src_sha256": source_digest(),
              "nproc": nproc, **res["env"]}

    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["failed_frac"] = {"value": failed_frac, "unit": "ratio"}
    else:
        wall = min(res["wall_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "points_per_s": {"value": res["points"] / wall, "unit": "1/s"},
            "cpu_s": {"value": min(res["cpu_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    detail = {"env": record, "setup_samples_s": setups, "passes": res["passes"],
              "points": res["points"], "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
              "wall_s_median": statistics.median(res["wall_s"]),
              "cpu_s_median": statistics.median(res["cpu_s"]),
              "unconverged_points": res["unconverged_points"],
              "bases": res.get("bases"), "spans_file": res.get("spans_file"),
              "failures": failures, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path = ROOT / "perfbench" / "out" / name
    detail_path.parent.mkdir(exist_ok=True)
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(json.dumps({"env": record}))
    for f in failures[:MAX_LISTED]:
        print(json.dumps({"failed_point": f}))
    if failed > MAX_LISTED:
        print(f"# {failed - MAX_LISTED} more failed points in {detail_path.relative_to(ROOT)}")
    print(f"# {args.workload} seed={args.seed}: {res['passes']} passes of {res['points']} points, "
          f"median pass {detail['wall_s_median']:.6g} s; "
          f"failed_frac={failed_frac} ({failed}/{attempted}); "
          + "; ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
