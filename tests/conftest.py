"""Shared test settings and fixtures.

Hypothesis draws its examples from a fixed seed, so every run of the suite
checks the same inputs; each test keeps its own max_examples.  solve_calls
counts the exact solver's work, so a test can show that a refused input
built and solved nothing.
"""

import pytest
from hypothesis import settings

from rcprobe import operators, thermal

settings.register_profile("default", derandomize=True)
settings.load_profile("default")


@pytest.fixture
def solve_calls(monkeypatch):
    """A list that collects the name of each band, sector build and dense solve made."""
    calls = []
    for module, name in ((operators, "_parity_band"), (thermal, "build_mapped_hamiltonian"),
                         (thermal, "eigendecompose")):
        def counted(*args, name=name, call=getattr(module, name)):
            calls.append(name)
            return call(*args)

        monkeypatch.setattr(module, name, counted)
    return calls
