"""SciPy's optimize, integrate and special load only on the paths that call them.

Each check runs in a fresh interpreter: the test modules import scipy.special
and scipy.integrate themselves.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAZY = ("scipy.optimize", "scipy.integrate", "scipy.special")

PRELUDE = f"""
import contextlib, io, json, sys
from rcprobe import cli, sweep

def loaded():
    return [m for m in {LAZY!r} if m in sys.modules]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

steps = {{"import": loaded()}}
"""


def _steps(body, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body + "\nprint(json.dumps(steps))", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_paths_load_no_lazy_scipy_module_and_analytic_ones_do(tmp_path):
    steps = _steps("""
assert run("reproduce", "fig2a", "--out", sys.argv[1]) == 0
steps["reproduce"] = loaded()
assert run("snr", "--N", "2", "--g", "0.3", "--beta-omega", "5", "--n-max", "16") == 0
steps["snr"] = loaded()
assert run("dicke", "--epsilon", "0.5", "--gbar", "0.9", "--beta-omega", "5") == 0
steps["dicke"] = loaded()
assert run("map-spectral", "--cutoff-ratios", "100", "--grid-points", "2") == 0
steps["map-spectral"] = loaded()
""", str(tmp_path / "fig2a.csv"))
    assert steps["import"] == steps["reproduce"] == steps["snr"] == []
    assert "scipy.optimize" in steps["dicke"]  # the superradiant eta is a brentq root
    assert "scipy.integrate" in steps["map-spectral"]


def test_first_optimize_import_on_a_worker_thread_gives_the_serial_rows():
    steps = _steps("""
cfg = sweep.parse_config_text(cli.figure_config_text("figS1"))
threaded = sweep.emit_csv(sweep.run_sweep(cfg, jobs=2))
steps["threaded"] = loaded()
steps["equal"] = threaded == sweep.emit_csv(sweep.run_sweep(cfg, jobs=1))
""")
    assert steps["import"] == []
    assert "scipy.optimize" in steps["threaded"]
    assert steps["equal"]
