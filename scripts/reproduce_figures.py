#!/usr/bin/env python3
"""Run every shipped figure config and write plot-ready CSVs to out/figures/.

Usage: python scripts/reproduce_figures.py [--only fig2a fig3b ...] [--jobs N]
"""

import argparse
import pathlib
import sys
import time

from rcprobe import sweep as sweepmod
from rcprobe.cli import figure_config_text, figure_ids


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--only", nargs="+", default=None)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out-dir", default="out/figures")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fig in args.only or figure_ids():
        cfg = sweepmod.parse_config_text(figure_config_text(fig))
        t0 = time.perf_counter()
        rows = sweepmod.run_sweep(cfg, jobs=args.jobs)
        path = out / f"{fig}.csv"
        path.write_text(sweepmod.emit_csv(rows), encoding="utf-8")
        bad = sum(1 for r in rows if not r["converged"])
        note = f" ({bad} unconverged)" if bad else ""
        print(f"{fig}: {len(rows)} rows -> {path} "
              f"[{time.perf_counter() - t0:.1f}s]{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
