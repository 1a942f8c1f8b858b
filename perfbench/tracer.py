"""Spans around rcprobe's public functions, recorded from outside the package.

`Tracer.install(rc)` replaces each traced function in every rcprobe module
namespace that holds it, because modules import one another's functions by
name (`thermal` imports `build_mapped_hamiltonian`, `sweep` imports
`snr_exact` and `converge_nmax`), and patches `numpy.linalg.eigh`, which
`thermal.eigendecompose` looks up at call time.  `Tracer.restore()` undoes
the numpy patch; the rcprobe modules are discarded after the pass.

Spans are kept in memory as (id, parent, name, start, end, thread, info)
and parents come from a thread-local stack, so the worker threads of
`run_sweep(jobs=2)` never adopt each other's spans and self time (span
duration minus the time its children cover) is exact per thread.
"""

import functools
import itertools
import sys
import threading
import time

import numpy as np

# (module, function) pairs traced; the span is named "<module>.<function>".
TARGETS = (
    ("operators", "build_mapped_hamiltonian"),
    ("thermal", "eigendecompose"),
    ("thermal", "thermal_observables"),
    ("thermal", "djz_deps"),
    ("thermal", "snr_exact"),
    ("thermal", "converge_nmax"),
    ("sweep", "run_sweep"),
    ("sweep", "parse_config_text"),
    ("sweep", "emit_csv"),
    ("baseline", "weak_snr"),
    ("grwa", "ground_energy_derivs"),
    ("dicke", "dicke_solution"),
    ("dicke", "dicke_snr"),
    ("rcmap", "verify_equivalence"),
    ("rcmap", "cauchy_transform"),
    ("units", "convert_units"),
)
EIGH = "thermal.eigh"


def _hamiltonian_info(args, kwargs, result):
    p, J, n_max = args[:3]
    key = (p.N, float(p.epsilon), float(p.omega), float(p.g), float(J), int(n_max))
    return key, result.dim


def _eigh_info(args, kwargs, result):
    return args[0].shape[0]


_INFO = {
    "operators.build_mapped_hamiltonian": _hamiltonian_info,
    EIGH: _eigh_info,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._eigh = None

    def _wrap(self, fn, name):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, result) if info and result is not None else None
                self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), extra))

        return traced

    def install(self, rc_modules):
        """Wrap every target in every rcprobe namespace that refers to it."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "rcprobe" or n.startswith("rcprobe.")]
        for mod, fname in TARGETS:
            orig = getattr(getattr(rc_modules, mod), fname)
            wrapped = self._wrap(orig, f"{mod}.{fname}")
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapped)
        self._eigh = np.linalg.eigh
        np.linalg.eigh = self._wrap(self._eigh, EIGH)

    def restore(self):
        if self._eigh is not None:
            np.linalg.eigh = self._eigh
            self._eigh = None


def summarize(spans, points):
    """Per-layer metrics of one traced pass: {name: (value, unit)} plus bases."""
    child_time = {}
    for sid, parent, name, t0, t1, _, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    calls, total, self_s = {}, {}, {}
    for sid, parent, name, t0, t1, _, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time.get(sid, 0.0)

    build = "operators.build_mapped_hamiltonian"
    builds = [sp[6] for sp in spans if sp[2] == build and sp[6]]
    eigh_dims = [sp[6] for sp in spans if sp[2] == EIGH and sp[6]]
    distinct = len({key for key, _ in builds})
    n_eigh = calls.get(EIGH, 0)

    def c(name):
        return calls.get(name, 0)

    def s(name, table=total):
        return table.get(name, 0.0)

    m = {
        f"{build}.calls": (c(build), "count"),
        f"{build}.self_s": (s(build, self_s), "s"),
        f"{build}.bytes": (sum(8 * d * d for _, d in builds), "B"),  # computed: 8 d^2 per H
        "operators.dim_max": (max((d for _, d in builds), default=0), "count"),
        "thermal.eigh.calls": (n_eigh, "count"),
        "thermal.eigh.s": (s(EIGH), "s"),
        "thermal.eigh.d3_sum": (sum(d**3 for d in eigh_dims), "count"),  # computed work
        "thermal.eigh.distinct_frac": (distinct / n_eigh if n_eigh else 0.0, "ratio"),
        "thermal.eigh_per_point": (n_eigh / points, "1/point"),
        "thermal.eigendecompose.self_s": (s("thermal.eigendecompose", self_s), "s"),
        "thermal.thermal_observables.calls": (c("thermal.thermal_observables"), "count"),
        "thermal.thermal_observables.self_s": (s("thermal.thermal_observables", self_s), "s"),
    }
    for name in ("thermal.djz_deps", "thermal.snr_exact", "thermal.converge_nmax",
                 "sweep.run_sweep", "baseline.weak_snr", "grwa.ground_energy_derivs",
                 "dicke.dicke_solution", "dicke.dicke_snr", "rcmap.verify_equivalence"):
        m[f"{name}.calls"] = (c(name), "count")
        m[f"{name}.s"] = (s(name), "s")
    m["sweep.parse_config_text.s"] = (s("sweep.parse_config_text"), "s")
    m["sweep.emit_csv.s"] = (s("sweep.emit_csv"), "s")
    m["rcmap.cauchy_transform.calls"] = (c("rcmap.cauchy_transform"), "count")
    m["units.convert_units.calls"] = (c("units.convert_units"), "count")
    bases = {"eigh_calls": n_eigh, "distinct_hamiltonians": distinct, "points": points}
    return m, bases

