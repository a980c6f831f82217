"""Mutual-information differential-privacy accountant for the coded uploads.

Epsilon is measured in nats throughout (natural logarithms; multiply by
``1/ln 2`` for bits).  For encoding variances ``(s1, s2)`` on a device with
``d`` features and ``o`` outputs, the released pair
``(X^T X + N1, X^T Y + N2)`` satisfies epsilon-MI-DP with

    epsilon = (d - 1/2) * ln((1 + s1)/s1) + (o/2) * ln((1 + s2)/s2) ,

assuming all data entries lie in ``[-1, 1]``.  Epsilon is strictly
decreasing in each variance and vanishes as both grow without bound, so any
target level can be met by calibrating the noise.

What epsilon protects: the record is one data entry, and epsilon bounds what
one device's one-time coded upload reveals about it to a party that sees only
the uploads or their coded sums (wherever the global coded dataset is kept or
shared).  It does not cover the exact gradients ``X^T X W_t - X^T Y`` that a
present device reports to the server at every iteration: ``ceil(d/o) + 1`` of
them give ``X^T X`` by one linear solve, and then ``X^T Y``.
"""

from __future__ import annotations

import math
import sys

from .coding import NoiseParams
from .errors import ParameterError, check

__all__ = ["epsilon_of", "sigma_for_epsilon"]


def _log1p_inv(s: float) -> float:
    """``ln(1 + 1/s)`` for ``s > 0``, finite also where ``1/s`` overflows."""
    inv = 1.0 / s
    return math.log1p(inv) if math.isfinite(inv) else math.log1p(s) - math.log(s)


def epsilon_of(noise: NoiseParams, d: int, o: int) -> float:
    """Privacy level (nats) of one device's coded upload."""
    check("d", d, "be positive")
    check("o", o, "be positive")
    if noise.sigma1_sq <= 0 or noise.sigma2_sq <= 0:
        raise ParameterError("epsilon is unbounded at zero noise: both variances must be positive")
    return (d - 0.5) * _log1p_inv(noise.sigma1_sq) + (o / 2.0) * _log1p_inv(noise.sigma2_sq)


def sigma_for_epsilon(epsilon: float, d: int, o: int) -> NoiseParams:
    """Smallest common variance ``sigma1_sq = sigma2_sq`` meeting a target epsilon.

    Closed-form inverse of :func:`epsilon_of` under the equal-variance
    convention: ``sigma_sq = 1 / (exp(eps / (d - 1/2 + o/2)) - 1)``.  Large
    targets give vanishing variance (clamped to exactly 0 once the exponent
    would overflow doubles); tiny targets give huge variance, and a target
    whose exponent is below the smallest normal double, where the variance
    would overflow, is refused with :class:`ParameterError`.
    """
    check("d", d, "be positive")
    check("o", o, "be positive")
    ratio = check("epsilon", epsilon, "be positive") / (d - 0.5 + o / 2.0)
    if ratio < sys.float_info.min:
        raise ParameterError(f"epsilon: {epsilon!r} is too small: its variance overflows doubles")
    sigma_sq = 0.0 if ratio > 700.0 else 1.0 / math.expm1(ratio)
    return NoiseParams(sigma_sq, sigma_sq)
