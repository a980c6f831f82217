"""First-stage encoding: noisy Gram-matrix uploads and their server-side sum.

A device never ships raw ``X`` or ``Y``.  It ships

    H_X = X^T X + N1      (d x d, noise i.i.d. N(0, sigma1_sq))
    H_Y = X^T Y + N2      (d x o, noise i.i.d. N(0, sigma2_sq))

and the server keeps only the elementwise sums of everything it received.
The encoded payload is ``d^2 + o*d`` reals regardless of how many samples a
device holds, and the sums carry exactly the information needed to form a
full-batch gradient on the server side.

:func:`encode_levels` simulates every device's upload and the server's sum
at once, over the dataset's Gram stacks, at one or more noise levels from one
noise draw; one device's upload is the sum of a one-device dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import FederatedDataset
from .errors import ParameterError
from .numerics import RngStream, as_matrix

__all__ = [
    "GlobalCodedData",
    "NoiseParams",
    "encode_levels",
    "payload_size",
]


@dataclass(frozen=True)
class NoiseParams:
    """Entry variances of the two noise blocks added at encoding time."""

    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        if not (0.0 <= self.sigma1_sq < math.inf and 0.0 <= self.sigma2_sq < math.inf):
            raise ParameterError(
                f"noise variances must be finite and nonnegative, got "
                f"({self.sigma1_sq}, {self.sigma2_sq})"
            )


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


def encode_levels(
    ds: FederatedDataset, noises: Sequence[NoiseParams], stream: RngStream
) -> tuple[GlobalCodedData, ...]:
    """Encode every device with fresh noise from ``stream`` and sum the uploads,
    once per noise in ``noises``.

    The noise is one standard-normal ``(n, d, d + o)`` block drawn row-major
    from one generator on ``stream``: device ``i``'s ``N1`` is
    ``sqrt(sigma1_sq)`` times the first ``d`` columns of row ``i`` and its
    ``N2`` is ``sqrt(sigma2_sq)`` times the last ``o``, so a device's noise
    does not depend on how many devices there are.  The block is drawn once
    and scaled per noise, so entry ``j`` is bit-equal to encoding with
    ``noises[j]`` alone on the same stream.  The sums over devices fold in
    device order, bit-equal to adding the uploads one by one.  One level
    reads ``(coded,) = encode_levels(ds, [noise], stream)``.
    """
    d = ds.d
    z = stream.generator().standard_normal((ds.n_devices, d, d + ds.o))
    return tuple(
        GlobalCodedData(
            (ds.gram_x + math.sqrt(noise.sigma1_sq) * z[:, :, :d]).sum(axis=0),
            (ds.gram_xy + math.sqrt(noise.sigma2_sq) * z[:, :, d:]).sum(axis=0),
        )
        for noise in noises
    )


def payload_size(d: int, o: int) -> int:
    """Reals per encoded upload: ``d^2 + o*d``, independent of sample count."""
    if d < 1 or o < 1:
        raise ParameterError(f"dimensions must be positive, got d={d}, o={o}")
    return d * d + o * d

