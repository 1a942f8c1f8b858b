"""The benchmark's tracer (perfbench/tracer.py) binds rcprobe functions by name.

It wraps each (module, function) pair in its TARGETS, reads the
`(p, J, n_max)` arguments and the `.dim` of build_mapped_hamiltonian (which
no solve calls: a dense block is written out from its band), and counts
numpy.linalg.eigh calls.  A rename or a changed signature would only
surface when the benchmark runs with `--trace 1`; these tests catch it here.
The tracer file is loaded, never modified.
"""

import importlib
import pathlib
import sys
from types import ModuleType, SimpleNamespace

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    # executed from its source, so no bytecode cache is written next to it
    module = ModuleType("perfbench_tracer")
    code = compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec")
    exec(code, module.__dict__)
    return module


tracer = _load_tracer()


def _is_rcprobe(name):
    return name == "rcprobe" or name.startswith("rcprobe.")


@pytest.fixture
def fresh_rcprobe():
    """rcprobe imported anew, as every benchmark pass does; the modules the
    other tests hold are put back afterwards."""
    saved = {n: m for n, m in sys.modules.items() if _is_rcprobe(n)}
    for name in saved:
        del sys.modules[name]
    try:
        yield SimpleNamespace(**{
            mod: importlib.import_module(f"rcprobe.{mod}") for mod, _ in tracer.TARGETS
        })
    finally:
        for name in [n for n in sys.modules if _is_rcprobe(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_traced_name_resolves(fresh_rcprobe):
    for mod, fname in tracer.TARGETS:
        assert callable(getattr(getattr(fresh_rcprobe, mod), fname)), (mod, fname)


def test_traced_snr_point_sees_no_build_and_one_eigh_per_block(fresh_rcprobe):
    rc = fresh_rcprobe
    t = tracer.Tracer()
    t.install(rc)
    try:
        rc.thermal.snr_exact(rc.operators.ProbeParams(3, 1.0, 1.0, 0.3), 2.0, n_max=16)
    finally:
        t.restore()
    build = "operators.build_mapped_hamiltonian"
    # N = 3: sectors J = 3/2 (4 x 17 rows) and J = 1/2 (2 x 17), two parity blocks each,
    # every block written out dense from its band, so no sector is built
    assert [span for span in t.spans if span[2] == build] == []
    assert sorted(info for _, _, name, *_, info in t.spans if name == tracer.EIGH) == [
        17, 17, 34, 34]
    assert sum(1 for span in t.spans if span[2] == tracer.EIGH) == 4
    metrics, bases = tracer.summarize(t.spans, points=1)
    # the build metrics, and distinct_frac, which counts builds, read 0; d3_sum keeps the sizes
    assert metrics[f"{build}.calls"][0] == 0
    assert metrics["operators.dim_max"][0] == 0
    assert metrics["thermal.eigh.calls"][0] == 4
    assert metrics["thermal.eigh.d3_sum"][0] == 2 * 17**3 + 2 * 34**3
    assert metrics["thermal.eigh.distinct_frac"][0] == 0.0
    assert metrics["thermal.snr_exact.calls"][0] == 1


def test_traced_large_point_builds_only_the_sectors_it_solves_dense(fresh_rcprobe):
    # N = 10, n_max = 128, beta*omega = 20: the seven window blocks of J = 5 .. 2 are
    # read from their bands and the other five blocks are skipped, so no sector is
    # built and no block is solved dense
    rc = fresh_rcprobe
    t = tracer.Tracer()
    t.install(rc)
    try:
        rc.thermal.snr_exact(rc.operators.ProbeParams(10, 1.0, 1.0, 0.2), 20.0, n_max=128)
    finally:
        t.restore()
    build = "operators.build_mapped_hamiltonian"
    assert [info for _, _, name, *_, info in t.spans if name == build] == []
    metrics, _ = tracer.summarize(t.spans, points=1)
    assert metrics[f"{build}.bytes"][0] == 0
    assert metrics["thermal.eigh.calls"][0] == 0
