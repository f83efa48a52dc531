"""Reference values and the check each bound value must pass.

The reference for `expfam_mean` is the exact minimum variance Var phi(x0),
the variance of the efficient estimator phi(y); for the Gaussian mean with
the identity mean function it is 1.  The formulas are written out here so the
check does not depend on the library's own moment code.

A value is wrong when it lies above the reference by more than a fixed
allowance, or below it by more than the tolerance `tests/test_acceptance.py`
states for that method.  Bounds with no stated tolerance (hcrb at arbitrary
points, Monte Carlo values) are checked from above only: any nonnegative
value below the minimum variance is a valid lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Closed-form values may exceed the reference by rounding only: 1e-6
#: relative, the tightest tolerance acceptance 3 puts on a multi-function
#: projection.  The pseudoinverse of near-singular Gram matrices in the
#: acceptance-9 scan overshoots 1 by about 1e-7.
CLOSED_ABOVE = 1e-6

#: Relative tolerance below the reference, by method, from test_acceptance.py:
#: crb / expfam bounds 1e-8 (acceptance 1), constrained_crb 1e-10
#: (acceptance 4), bhattacharyya 1e-6 (acceptance 3), default Barankin search
#: 1e-3 (acceptance 1), the acceptance-9 scan 5e-3, and the acceptance-7
#: reductions 2e-3 (Gaussian) and 5e-2 (Poisson).
BELOW = {
    "crb": 1e-8,
    "expfam_crb": 1e-8,
    "expfam_moment": 1e-8,
    "constrained_crb": 1e-10,
    "bhattacharyya": 1e-6,
    "barankin_approx": 1e-3,
    "scan": 5e-3,
    "reduction:gaussian-mean": 2e-3,
    "reduction:poisson": 5e-2,
}


#: Relative allowance above the reference for a Monte Carlo value from 1e5
#: draws.  Well-behaved ratios stay within about 3% at that size
#: (exponential-rate's MC Fisher and Bhattacharyya matrices are the
#: noisiest); the known heavy-tail defects overshoot by factors of hundreds.  It deliberately
#: ignores the call's own reported standard error, which is itself wrong on
#: heavy-tailed ratios: 211 +- 85 would pass a 4 SE check against 1.
MC_ABOVE = 0.05


def min_variance(family: str, x0) -> float:
    """Var phi(x0) for the scalar built-in families (natural parameter x0)."""
    x = float(x0[0])
    if family in ("gaussian-mean", "gaussian-mean-nd"):
        return 1.0
    if family == "poisson":
        return math.exp(x)
    if family == "bernoulli":
        p = 1.0 / (1.0 + math.exp(-x))
        return p * (1.0 - p)
    if family == "exponential-rate":
        return 1.0 / (x * x)
    raise KeyError(family)


@dataclass(frozen=True)
class Check:
    """One bound value against its reference; tolerances are relative.
    `exact` marks closed-form values, as opposed to Monte Carlo ones."""

    case: str
    value: float
    reference: float
    above: float
    below: float
    exact: bool

    @property
    def wrong(self) -> bool:
        ref = self.reference
        return not (ref - self.below * ref <= self.value <= ref + self.above * ref) \
            or self.value < 0.0

    def as_dict(self) -> dict:
        return {"case": self.case, "value": self.value, "reference": self.reference,
                "above": self.above,
                "below": self.below if math.isfinite(self.below) else None,
                "exact": self.exact, "wrong": self.wrong}


def closed_check(case: str, reference: float, value: float, kind: str) -> Check:
    """Check of a closed-form value; `kind` keys BELOW (absent: above only)."""
    return Check(case, float(value), reference, CLOSED_ABOVE, BELOW.get(kind, math.inf),
                 exact=True)


def mc_check(case: str, reference: float, value: float) -> Check:
    return Check(case, float(value), reference, MC_ABOVE, math.inf, exact=False)
