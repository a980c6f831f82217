"""First-stage encoding: noisy Gram-matrix uploads and their server-side sum.

A device never ships raw ``X`` or ``Y``.  It ships

    H_X = X^T X + N1      (d x d, noise i.i.d. N(0, sigma1_sq))
    H_Y = X^T Y + N2      (d x o, noise i.i.d. N(0, sigma2_sq))

and the server keeps only the elementwise sums of everything it received.
The encoded payload is ``d^2 + o*d`` reals regardless of how many samples a
device holds, and the sums carry exactly the information needed to form a
full-batch gradient on the server side.

:func:`encode_levels` draws the server's sums: a sum of ``n`` i.i.d.
``N(0, sigma^2)`` entries is exactly ``N(0, n sigma^2)``, so one draw scaled
by ``sqrt(n)`` stands for all devices' noise.  The privacy accountant and
:func:`payload_size` stay per device and do not read the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import FederatedDataset
from .errors import ParameterError, check
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
        check("sigma1_sq", self.sigma1_sq, "be finite and nonnegative")
        check("sigma2_sq", self.sigma2_sq, "be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class GlobalCodedData:
    """Server state after the first stage: elementwise sums of the uploads."""

    h_x_sum: np.ndarray
    h_y_sum: np.ndarray
    noise: NoiseParams  # the entry variances each device's upload carried

    def __post_init__(self):
        if not isinstance(self.noise, NoiseParams):
            raise ParameterError(f"noise: expected NoiseParams, got {self.noise!r}")
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
    """The server's sums of every device's upload, encoded with fresh noise
    from ``stream``, once per noise in ``noises``.

    The summed noise is one standard-normal ``(d, d + o)`` block ``z`` from
    one generator on ``stream``: the sums are ``sum_i X_i^T X_i + sqrt(n)
    sqrt(sigma1_sq) z[:, :d]`` and ``sum_i X_i^T Y_i + sqrt(n)
    sqrt(sigma2_sq) z[:, d:]``, distributed as the sums of ``n`` uploads
    with i.i.d. ``N(0, sigma1_sq)`` and ``N(0, sigma2_sq)`` noise (two roots
    keep any finite variance's scale finite).  The Gram sums are taken once,
    so zero noise gives them exactly, and the block is scaled per noise:
    entry ``j`` carries ``noises[j]`` and is bit-equal to encoding with it
    alone.  One level reads ``(coded,) = encode_levels(ds, [noise], stream)``.
    """
    d, root_n = ds.d, math.sqrt(ds.n_devices)
    z = stream.generator().standard_normal((d, d + ds.o))
    return tuple(
        GlobalCodedData(
            ds.gram_x_sum + root_n * math.sqrt(noise.sigma1_sq) * z[:, :d],
            ds.gram_xy_sum + root_n * math.sqrt(noise.sigma2_sq) * z[:, d:],
            noise,
        )
        for noise in noises
    )


def payload_size(d: int, o: int) -> int:
    """Reals per encoded upload: ``d^2 + o*d``, independent of sample count."""
    check("d", d, "be positive")
    check("o", o, "be positive")
    return d * d + o * d

