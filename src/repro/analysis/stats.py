"""Weighted means, standard errors, and CCDFs.

§3.4: "We calculate confidence intervals on average SSIM using the formula
for weighted standard error, weighting each stream by its duration."
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.analysis.bootstrap import ConfidenceInterval


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape or len(values) == 0:
        raise ValueError("values and weights must be equal-length, non-empty")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    return float(np.average(values, weights=weights))


def weighted_standard_error(
    values: Sequence[float], weights: Sequence[float]
) -> float:
    """Standard error of a weighted mean (ratio-estimator form).

    Uses the common design-based approximation
    ``SE^2 = sum(w_i^2 (x_i - x̄_w)^2) / (sum w_i)^2`` with a small-sample
    correction ``n / (n - 1)``.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values for a standard error")
    mean = weighted_mean(values, weights)
    numerator = np.sum(weights**2 * (values - mean) ** 2)
    se2 = numerator / weights.sum() ** 2 * (n / (n - 1))
    return float(np.sqrt(se2))


def weighted_mean_ci(
    values: Sequence[float],
    weights: Sequence[float],
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Normal-approximation CI around a weighted mean — the paper's SSIM
    interval construction."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    mean = weighted_mean(values, weights)
    se = weighted_standard_error(values, weights)
    # Imported here: scipy.stats dominates import time, and the fleet path
    # (which imports this module) never builds an interval through it.
    from scipy import stats as sps

    z = float(sps.norm.ppf(0.5 + confidence / 2.0))
    return ConfidenceInterval(
        point=mean, low=mean - z * se, high=mean + z * se, confidence=confidence
    )


def ccdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical complementary CDF: returns (sorted values, P[X > x]).

    Fig. 10 plots session durations this way on log-log axes.
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ValueError("need at least one value")
    x = np.sort(values)
    # P[X > x_i] with the convention that the largest value maps to 1/n
    # (plottable on a log axis, unlike 0).
    p = 1.0 - np.arange(1, len(x) + 1) / len(x)
    p[-1] = 1.0 / len(x)
    return x, p


def stream_years(total_seconds: float) -> float:
    """Convert accumulated watch time to the paper's 'stream-years' unit."""
    if total_seconds < 0:
        raise ValueError("time must be non-negative")
    return total_seconds / (365.25 * 24 * 3600.0)
