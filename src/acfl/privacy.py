"""Mutual-information differential-privacy accountant for the coded uploads.

Epsilon is measured in nats throughout (natural logarithms; multiply by
``1/ln 2`` for bits).  For encoding variances ``(s1, s2)`` on a device with
``d`` features and ``o`` outputs, the released pair
``(X^T X + N1, X^T Y + N2)`` satisfies epsilon-MI-DP with

    epsilon = (d - 1/2) * ln((1 + s1)/s1) + (o/2) * ln((1 + s2)/s2) ,

assuming all data entries lie in ``[-1, 1]``.  Epsilon is strictly
decreasing in each variance and vanishes as both grow without bound, so any
target level can be met by calibrating the noise.
"""

from __future__ import annotations

import math
import sys

from .coding import NoiseParams
from .errors import ParameterError

__all__ = ["epsilon_of", "sigma_for_epsilon"]


def _check_dims(d: int, o: int) -> None:
    if d < 1 or o < 1:
        raise ParameterError(f"dimensions must be positive integers, got d={d}, o={o}")


def epsilon_of(noise: NoiseParams, d: int, o: int) -> float:
    """Privacy level (nats) of one device's coded upload."""
    _check_dims(d, o)
    if noise.sigma1_sq <= 0 or noise.sigma2_sq <= 0:
        raise ParameterError("epsilon is unbounded at zero noise: both variances must be positive")
    return (d - 0.5) * math.log1p(1.0 / noise.sigma1_sq) + (o / 2.0) * math.log1p(
        1.0 / noise.sigma2_sq
    )


def sigma_for_epsilon(epsilon: float, d: int, o: int) -> NoiseParams:
    """Smallest common variance ``sigma1_sq = sigma2_sq`` meeting a target epsilon.

    Closed-form inverse of :func:`epsilon_of` under the equal-variance
    convention: ``sigma_sq = 1 / (exp(eps / (d - 1/2 + o/2)) - 1)``.  Large
    targets give vanishing variance (clamped to exactly 0 once the exponent
    would overflow doubles); tiny targets give huge variance, and a target
    whose exponent is below the smallest normal double, where the variance
    would overflow, is refused with :class:`ParameterError`.
    """
    _check_dims(d, o)
    if not epsilon > 0:
        raise ParameterError(f"target epsilon must be positive, got {epsilon}")
    ratio = epsilon / (d - 0.5 + o / 2.0)
    if ratio < sys.float_info.min:
        raise ParameterError(
            f"target epsilon {epsilon!r} is too small: its noise variance overflows doubles"
        )
    sigma_sq = 0.0 if ratio > 700.0 else 1.0 / math.expm1(ratio)
    return NoiseParams(sigma_sq, sigma_sq)
