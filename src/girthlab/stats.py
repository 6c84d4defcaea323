"""Small statistics helpers shared by the percolation and SAW labs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z_95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class Estimate:
    value: float
    ci_lo: float
    ci_hi: float
    trials: int


def binomial_estimate(successes: int, trials: int) -> Estimate:
    lo, hi = wilson_interval(successes, trials)
    return Estimate(successes / trials, lo, hi, trials)


def mean_estimate(samples: np.ndarray) -> Estimate:
    """Mean with a normal 95% CI (3-sigma checks use .stderr separately)."""
    m = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return Estimate(m, m - Z_95 * se, m + Z_95 * se, len(samples))


def stderr(samples: np.ndarray) -> float:
    if len(samples) < 2:
        return 0.0
    return float(np.std(samples, ddof=1) / math.sqrt(len(samples)))


@dataclass
class ExponentFit:
    """Least-squares slope on log-log points against a mean-field target."""

    name: str
    slope: float
    intercept: float
    window: tuple[float, float]
    residual: float  # rms residual of the fit in log space
    target: float
    rejected: bool = False
    reason: str = ""

    def within(self, tol: float) -> bool:
        return not self.rejected and abs(self.slope - self.target) <= tol


def fit_loglog(
    xs,
    ys,
    name: str,
    target: float,
    window: tuple[float, float] | None = None,
    residual_cutoff: float = 0.5,
) -> ExponentFit:
    """OLS fit of log(y) vs log(x), restricted to window on x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if window is None:
        window = (float(xs.min()), float(xs.max()))
    mask = (xs >= window[0]) & (xs <= window[1]) & (ys > 0) & (xs > 0)
    if mask.sum() < 2:
        return ExponentFit(name, math.nan, math.nan, window, math.inf, target,
                           rejected=True, reason="fewer than 2 usable points in window")
    lx = np.log(xs[mask])
    ly = np.log(ys[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    fit = ExponentFit(name, float(slope), float(intercept), window, resid, target)
    if resid > residual_cutoff:
        fit.rejected = True
        fit.reason = f"rms residual {resid:.3g} exceeds cutoff {residual_cutoff:.3g}"
    return fit


@dataclass
class DiagramResult:
    """Truncated diagram value plus a rigorous bound on the rest of the
    sum; tail_bound is inf when no finite bound is certified."""

    value: float
    truncation: int
    tail_bound: float
    method: str

    @property
    def certified(self) -> bool:
        return self.tail_bound < math.inf

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound
