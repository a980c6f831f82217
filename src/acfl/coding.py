"""First-stage encoding: noisy Gram-matrix uploads and their server-side sum.

A device never ships raw ``X`` or ``Y``.  It ships

    H_X = X^T X + N1      (d x d, noise i.i.d. N(0, sigma1_sq))
    H_Y = X^T Y + N2      (d x o, noise i.i.d. N(0, sigma2_sq))

and the server keeps only the elementwise sums of everything it received.
The encoded payload is ``d^2 + o*d`` reals regardless of how many samples a
device holds, and the sums carry exactly the information needed to form a
full-batch gradient on the server side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import DeviceData
from .errors import ParameterError
from .numerics import RngStream, as_matrix

__all__ = [
    "GlobalCodedData",
    "LocalCodedData",
    "NoiseParams",
    "aggregate_coded",
    "encode_local",
    "payload_size",
]


@dataclass(frozen=True)
class NoiseParams:
    """Entry variances of the two noise blocks added at encoding time."""

    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        if self.sigma1_sq < 0 or self.sigma2_sq < 0:
            raise ParameterError(
                f"noise variances must be nonnegative, got ({self.sigma1_sq}, {self.sigma2_sq})"
            )


@dataclass(frozen=True, eq=False)
class LocalCodedData:
    """One device's upload: ``(X^T X + N1, X^T Y + N2)``."""

    h_x: np.ndarray
    h_y: np.ndarray

    def __post_init__(self):
        h_x = as_matrix(self.h_x, "h_x")
        h_y = as_matrix(self.h_y, "h_y")
        if h_x.shape[0] != h_x.shape[1]:
            raise ParameterError(f"h_x must be square, got {h_x.shape}")
        if h_y.shape[0] != h_x.shape[0]:
            raise ParameterError(f"h_y rows must match h_x, got {h_y.shape} vs {h_x.shape}")
        object.__setattr__(self, "h_x", h_x)
        object.__setattr__(self, "h_y", h_y)


@dataclass(frozen=True, eq=False)
class GlobalCodedData:
    """Server state after the first stage: elementwise sums of the uploads."""

    h_x_sum: np.ndarray
    h_y_sum: np.ndarray

    def __post_init__(self):
        h_x = as_matrix(self.h_x_sum, "h_x_sum")
        h_y = as_matrix(self.h_y_sum, "h_y_sum")
        if h_x.shape[0] != h_x.shape[1]:
            raise ParameterError(f"h_x_sum must be square, got {h_x.shape}")
        if h_y.shape[0] != h_x.shape[0]:
            raise ParameterError(f"h_y_sum rows must match h_x_sum, got {h_y.shape} vs {h_x.shape}")
        object.__setattr__(self, "h_x_sum", h_x)
        object.__setattr__(self, "h_y_sum", h_y)


def encode_local(dev: DeviceData, noise: NoiseParams, stream: RngStream) -> LocalCodedData:
    """Encode one device's dataset with fresh noise from ``stream``.

    Both noise blocks come from the one stream, drawn in a fixed order
    (N1 first), so the result is deterministic per ``stream``.  Callers
    wanting independent noise across devices pass distinct streams.
    """
    d, o = dev.d, dev.o
    rng = stream.generator()
    n1 = rng.normal(0.0, math.sqrt(noise.sigma1_sq), size=(d, d))
    n2 = rng.normal(0.0, math.sqrt(noise.sigma2_sq), size=(d, o))
    return LocalCodedData(dev.gram_x + n1, dev.gram_xy + n2)


def aggregate_coded(local_data: Sequence[LocalCodedData]) -> GlobalCodedData:
    """Elementwise sums over the uploads, folded in list order.

    The fixed fold order keeps the result bit-reproducible and equal to a
    naive per-entry loop.
    """
    if len(local_data) == 0:
        raise ParameterError("need at least one local coded dataset")
    shape = local_data[0].h_x.shape, local_data[0].h_y.shape
    h_x = local_data[0].h_x.copy()
    h_y = local_data[0].h_y.copy()
    for i, lc in enumerate(local_data[1:], start=1):
        if (lc.h_x.shape, lc.h_y.shape) != shape:
            raise ParameterError(f"upload {i} has mismatched shapes")
        h_x += lc.h_x
        h_y += lc.h_y
    return GlobalCodedData(h_x, h_y)


def payload_size(d: int, o: int) -> int:
    """Reals per encoded upload: ``d^2 + o*d``, independent of sample count."""
    if d < 1 or o < 1:
        raise ParameterError(f"dimensions must be positive, got d={d}, o={o}")
    return d * d + o * d

