"""Fixtures shared by the test modules."""

from typing import NamedTuple

import numpy as np
import pytest

from varbounds.kernel import MonteCarloKernelEvaluator


class LogDensityCall(NamedTuple):
    rows: int
    x: np.ndarray


@pytest.fixture
def log_density_calls(monkeypatch) -> list:
    """Each log density a Monte Carlo evaluator computes over its draws, the
    reference at construction and every new ratio vector, as (rows, x): all
    pass through `MonteCarloKernelEvaluator._log_density`."""
    calls = []
    original = MonteCarloKernelEvaluator._log_density

    def counted(self, x):
        calls.append(LogDensityCall(len(self.samples), np.array(x, dtype=float)))
        return original(self, x)

    monkeypatch.setattr(MonteCarloKernelEvaluator, "_log_density", counted)
    return calls
