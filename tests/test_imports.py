"""SciPy's linalg, optimize, integrate and special load only on the paths that call them.

rcprobe imports only the top-level scipy and names each function where it
calls it, so SciPy's lazy submodule loading brings a submodule in at its
first call.  scipy.linalg is called only by thermal's window route (a parity
block of d >= D_WINDOW at a finite beta) and by reduced_probe_state, so the
exact figures and a dense snr never load it, nor does one whose small blocks
are skipped (their bounds come from NumPy band sums).  The closed forms load
none of SciPy: dicke and grwa find their roots by bisection and rcmap
integrates with its own Gauss-Kronrod rule.  Each check runs in a fresh
interpreter: the test modules import scipy.linalg, scipy.special and
scipy.integrate themselves.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from rcprobe import cli, operators

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAZY = ("scipy.linalg", "scipy.optimize", "scipy.integrate", "scipy.special")

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
    # -W: a leaked RuntimeWarning fails the run, as under the suite's own filter
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         PRELUDE + body + "\nprint(json.dumps(steps))", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_the_window_route_loads_a_lazy_scipy_module(tmp_path):
    steps = _steps("""
assert run("reproduce", "fig2a", "--out", sys.argv[1]) == 0
steps["reproduce"] = loaded()
assert run("snr", "--N", "2", "--g", "0.3", "--beta-omega", "5", "--n-max", "16") == 0
steps["snr"] = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["snr", "--N", "6", "--g", "0.3", "--beta-omega", "40", "--n-max", "16"]) == 0
steps["skipped"] = json.loads(out.getvalue())["solver"]["skipped"]
steps["skip snr"] = loaded()
assert run("dicke", "--epsilon", "0.5", "--gbar", "0.9", "--beta-omega", "5") == 0
steps["dicke"] = loaded()
assert run("reproduce", "fig3a", "--out", sys.argv[1]) == 0
assert run("reproduce", "figS1", "--out", sys.argv[1]) == 0
steps["closed-form figures"] = loaded()
assert run("map-spectral") == 0
steps["map-spectral"] = loaded()
assert run("snr", "--N", "10", "--g", "0.2", "--beta-omega", "20", "--n-max", "128") == 0
steps["window snr"] = loaded()
""", str(tmp_path / "fig.csv"))
    assert steps["import"] == steps["reproduce"] == steps["snr"] == steps["skip snr"] == []
    assert steps["skipped"] == 5  # of its 8 blocks, all below D_WINDOW
    # the superradiant eta and GRWA's lambda are bisection roots, and the bath-mapping
    # check at its default grid is NumPy quadrature
    assert steps["dicke"] == steps["closed-form figures"] == steps["map-spectral"] == []
    assert steps["window snr"] == ["scipy.linalg"]  # its d >= D_WINDOW blocks are banded


# rabi_exact at N = 10, n_max = 128, beta*omega = 20: every point has window-route blocks
WINDOW_SWEEP = """schema_version = 1
model = rabi_exact
N = 10
epsilon = 1.0
grid_axis = g_over_omega
grid_values = 0.1, 0.2, 0.3, 0.4
beta_omega = 20
n_max = 128
"""


# the first call into scipy.linalg may come from either worker of run_sweep(jobs=2)
@pytest.mark.parametrize("config, module", [
    (repr(WINDOW_SWEEP), "scipy.linalg"),
], ids=("linalg",))
def test_first_scipy_import_on_a_worker_thread_gives_the_serial_rows(config, module):
    steps = _steps(f"""
cfg = sweep.parse_config_text({config})
threaded = sweep.emit_csv(sweep.run_sweep(cfg, jobs=2))
steps["threaded"] = loaded()
steps["equal"] = threaded == sweep.emit_csv(sweep.run_sweep(cfg, jobs=1))
""")
    assert steps["import"] == []
    assert module in steps["threaded"]
    assert steps["equal"]


def test_exact_figure_builds_no_band(monkeypatch, tmp_path):
    # fig2a's blocks are small: the least diagonal entry keeps each from the skip test
    # before any band is built
    calls = []
    band = operators._parity_band

    def counted(*args):
        calls.append(args)
        return band(*args)

    monkeypatch.setattr(operators, "_parity_band", counted)
    assert cli.main(["reproduce", "fig2a", "--out", str(tmp_path / "fig2a.csv")]) == 0
    assert calls == []
