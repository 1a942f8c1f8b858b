#!/usr/bin/env python3
"""Record the correctness gate's reference values from the current source tree.

Writes perfbench/reference/{fig_sweeps,large_n_point,analytic_limits,
scatter_pool}.json.  The committed files were recorded at the commit that
introduced the benchmark; re-record only when a change to the numbers is
intended and explained.

Usage (from the repository root):
    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import json
import math
import random
import sys

import workloads as W
from worker import fresh_rcprobe

POOL_SEED = 20241201
POOL_PER_N = 10
POINTS_PER_CONFIG = 8


def draw_pool():
    """Scatter configs: per N = 1..6, POOL_PER_N draws of (eps, beta*omega, 8 g).

    beta*omega is log-uniform within the N-th sixth of [1, 60] in log scale,
    so a pass (one config per N) always covers the whole temperature range.
    """
    rng = random.Random(POOL_SEED)
    top = math.log(60.0)
    pool = []
    for N in range(1, 7):
        for k in range(POOL_PER_N):
            pool.append({
                "id": f"N{N}-{k:02d}",
                "N": N,
                "epsilon": rng.uniform(0.3, 2.0),
                "beta_omega": math.exp(rng.uniform((N - 1) * top / 6, N * top / 6)),
                "g": sorted(rng.uniform(0.05, 0.5) for _ in range(POINTS_PER_CONFIG)),
            })
    return pool


def rows_of(result):
    if isinstance(result, BaseException):
        raise result
    return [W.plain_row(r) for r in result]


def write(name, data):
    with open(W.REFERENCE / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote reference/{name}.json", flush=True)


def main():
    W.REFERENCE.mkdir(exist_ok=True)
    rc = fresh_rcprobe()
    from rcprobe import cli

    texts = {f: cli.figure_config_text(f) for f in W.EXACT_FIGURES + W.ANALYTIC_FIGURES}
    sweeps = {f: rows_of(r) for f, r in W.sweep_all(rc, texts, jobs=1).items()}
    write("fig_sweeps", {f: sweeps[f] for f in W.EXACT_FIGURES})

    q = W.LARGE_POINT
    p = rc.pkg.ProbeParams(q["N"], q["epsilon"], q["omega"], q["g"])
    pt = rc.thermal.snr_exact(p, q["beta_omega"], n_max=q["n_max"], noise=q["noise"],
                              sector=q["sector"])
    write("large_n_point", {"inputs": q, "snr": float(pt.snr)})

    analytic = {f: sweeps[f] for f in W.ANALYTIC_FIGURES}
    analytic["rcmap"] = [
        float(rc.rcmap.verify_equivalence(
            rc.rcmap.OhmicResidual(gamma=W.RCMAP_GAMMA, omega_c=ratio),
            W.RCMAP_OMEGA0, W.RCMAP_G, W.RCMAP_GRID, quadrature_tol=W.RCMAP_TOL))
        for ratio in W.RCMAP_RATIOS
    ]
    write("analytic_limits", analytic)

    pool = draw_pool()
    for entry in pool:
        text = W.scatter_config_text(entry)
        entry["rows"] = rows_of(W.sweep_all(rc, {entry["id"]: text}, jobs=1)[entry["id"]])
        print(entry["id"], flush=True)
    write("scatter_pool", {"seed": POOL_SEED, "pool": pool})
    return 0


if __name__ == "__main__":
    sys.exit(main())
