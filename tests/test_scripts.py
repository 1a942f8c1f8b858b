"""Smoke tests of the two scripts under scripts/, run as subprocesses."""

import os
import pathlib
import re
import subprocess
import sys

from rcprobe.sweep import emit_csv, parse_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # -W: a leaked RuntimeWarning fails the run, as under the suite's own filter
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script),
         *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_figures_writes_round_tripping_csvs(tmp_path):
    _run("reproduce_figures.py", "--only", "fig2a", "figS1", "--out-dir", str(tmp_path))
    for fig in ("fig2a", "figS1"):
        text = (tmp_path / f"{fig}.csv").read_text(encoding="utf-8")
        rows = parse_csv(text)
        assert len(rows) >= 10
        assert emit_csv(rows) == text


def test_reproduce_figures_runs_every_packaged_config_by_default(tmp_path):
    out = _run("reproduce_figures.py", "--out-dir", str(tmp_path))
    packaged = {p.stem for p in (ROOT / "src" / "rcprobe" / "figures").glob("*.cfg")}
    assert {p.stem for p in tmp_path.glob("*.csv")} == packaged
    assert len(out.splitlines()) == len(packaged)


def test_scaling_exponents_follow_the_papers_laws():
    out = _run("scaling_exponents.py")
    theta = {int(n): float(t) for n, t in re.findall(r"N=(\d+) .*theta = ([-+.\d]+)", out)}
    assert sorted(theta) == [1, 2, 3]
    # a single spin saturates (T^0); N >= 2 grows as 1/T
    assert abs(theta[1]) < 0.01
    assert abs(theta[2] + 1.0) < 0.01
    assert abs(theta[3] + 1.0) < 0.01
