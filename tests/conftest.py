"""Shared test settings.

Hypothesis draws its examples from a fixed seed, so every run of the suite
checks the same inputs; each test keeps its own max_examples.
"""

from hypothesis import settings

settings.register_profile("default", derandomize=True)
settings.load_profile("default")
