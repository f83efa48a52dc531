"""Fixtures shared by the test modules."""

from typing import NamedTuple

import numpy as np
import pytest

from varbounds.kernel import _RowKernelEvaluator


class LogDensityCall(NamedTuple):
    rows: int
    x: np.ndarray


@pytest.fixture
def log_density_calls(monkeypatch) -> list:
    """Each log density or log ratio a Monte Carlo or summation evaluator
    computes over its draws or support points, the reference at construction
    and every new row, as (rows, x): all pass through
    `_RowKernelEvaluator._log_row`."""
    calls = []
    original = _RowKernelEvaluator._log_row

    def counted(self, x):
        calls.append(LogDensityCall(len(self.samples), np.array(x, dtype=float)))
        return original(self, x)

    monkeypatch.setattr(_RowKernelEvaluator, "_log_row", counted)
    return calls
