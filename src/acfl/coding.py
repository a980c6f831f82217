"""First-stage encoding: noisy Gram-matrix uploads and their server-side sum.

A device never ships raw ``X`` or ``Y``.  It ships

    H_X = X^T X + N1      (d x d, noise i.i.d. N(0, sigma1_sq))
    H_Y = X^T Y + N2      (d x o, noise i.i.d. N(0, sigma2_sq))

and the server keeps only the elementwise sums of everything it received.
The encoded payload is ``d^2 + o*d`` reals regardless of how many samples a
device holds, and the sums carry exactly the information needed to form a
full-batch gradient on the server side.

:func:`encode_dataset` simulates every device's upload and the server's sum
at once, over the dataset's Gram stacks; :func:`encode_local` is its
one-device case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import DeviceData, FederatedDataset
from .errors import ParameterError
from .numerics import RngStream, as_matrix

__all__ = [
    "GlobalCodedData",
    "LocalCodedData",
    "NoiseParams",
    "aggregate_coded",
    "encode_dataset",
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


def encode_dataset(ds: FederatedDataset, noise: NoiseParams, stream: RngStream) -> GlobalCodedData:
    """Encode every device with fresh noise from ``stream`` and sum the uploads.

    The noise is one standard-normal ``(n, d, d + o)`` block drawn row-major
    from one generator on ``stream``: device ``i``'s ``N1`` is
    ``sqrt(sigma1_sq)`` times the first ``d`` columns of row ``i`` and its
    ``N2`` is ``sqrt(sigma2_sq)`` times the last ``o``, so a device's noise
    does not depend on how many devices there are.  The sums over devices
    fold in device order, bit-equal to :func:`aggregate_coded` of the uploads.
    """
    d = ds.d
    z = stream.generator().standard_normal((ds.n_devices, d, d + ds.o))
    h_x = ds.gram_x + math.sqrt(noise.sigma1_sq) * z[:, :, :d]
    h_y = ds.gram_xy + math.sqrt(noise.sigma2_sq) * z[:, :, d:]
    return GlobalCodedData(h_x.sum(axis=0), h_y.sum(axis=0))


def encode_local(dev: DeviceData, noise: NoiseParams, stream: RngStream) -> LocalCodedData:
    """One device's upload: :func:`encode_dataset` of a one-device dataset."""
    coded = encode_dataset(FederatedDataset(dev.x[None], dev.y[None]), noise, stream)
    return LocalCodedData(coded.h_x_sum, coded.h_y_sum)


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

