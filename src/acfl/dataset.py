"""Synthetic federated linear-regression instances and their exact optima.

An instance is ``N`` devices, device ``i`` holding features ``X_i``
(``m x d``) and labels ``Y_i`` (``m x o``), with the global objective

    f(W) = sum_i 0.5 * ||X_i W - Y_i||_F^2 .

A dataset keeps only each device's Gram pair ``X_i^T X_i``, ``X_i^T Y_i``
(and two label-noise sums), which is all the objective needs.  The bundled
generator draws features uniformly on ``[-1, 1]``, one shared true weight
matrix uniformly on ``[0, 1/30]``, and noiseless labels ``Y_i = X_i @
W_true``, so the optimum is the true weights and the optimal loss is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .numerics import RngStream, as_matrix, check_entries, eig_min_sym

__all__ = [
    "FederatedDataset",
    "ProblemFacts",
    "generate",
    "loss",
    "optimum",
]

# Devices per product when per-device samples or statistics are formed or
# scanned, which bounds the (devices, .) temporaries at fleet scale.
DEVICE_CHUNK_ROWS = 512

_RANK_TOL = 1e-10


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A_i^T B_i`` for every matrix of two ``(n, m, .)`` stacks, one batched product."""
    return np.matmul(a.transpose(0, 2, 1), b)


def _deficient(gram_x: np.ndarray) -> np.ndarray:
    """Indices of the matrices of a symmetric ``(n, d, d)`` stack whose smallest
    eigenvalue is at most ``_RANK_TOL``.

    One batched Cholesky of ``A_i - _RANK_TOL * I`` decides the whole stack:
    it succeeds exactly when every ``lambda_min(A_i) > _RANK_TOL``, up to
    rounding, so it agrees with the eigenvalue criterion unless some
    ``lambda_min(A_i)`` lies within ``4 * d * eps * ||A_i||_2`` of the
    threshold.  Only when it fails (a measure-zero event for drawn features)
    does a batched eigensolve name the failing matrices by the eigenvalue
    criterion itself.
    """
    try:
        np.linalg.cholesky(gram_x - _RANK_TOL * np.eye(gram_x.shape[-1]))
    except np.linalg.LinAlgError:
        return np.flatnonzero(np.linalg.eigvalsh(gram_x)[:, 0] <= _RANK_TOL)
    return np.empty(0, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class FederatedDataset:
    """All devices' Gram stacks, two label-noise sums, and the true weights.

    Device ``i`` is ``gram_x[i] = X_i^T X_i`` and ``gram_xy[i] = X_i^T Y_i``,
    all that encoding, training and the loss read; samples are not kept.
    With ``E_i = Y_i - X_i W_true`` (``W_true = 0`` when unknown),
    ``xe_sum = sum_i X_i^T E_i`` and ``ee_sum = sum_i ||E_i||_F^2``, both
    exactly zero for noiseless labels.  The constructor checks finite
    entries, agreeing shapes and, by :func:`_deficient`, that every
    ``X_i^T X_i`` has full rank, naming the first device whose smallest
    eigenvalue is at most ``1e-10``: the only rank check of a drawn dataset.
    """

    gram_x: np.ndarray
    gram_xy: np.ndarray
    w_true: np.ndarray
    xe_sum: np.ndarray
    ee_sum: float

    def __post_init__(self):
        gram_x = as_matrix(self.gram_x, "gram_x", ndim=3)
        gram_xy = as_matrix(self.gram_xy, "gram_xy", ndim=3)
        object.__setattr__(self, "gram_x", gram_x)
        object.__setattr__(self, "gram_xy", gram_xy)
        n, d, _ = gram_x.shape
        if gram_x.shape != (n, d, d) or gram_xy.shape[:2] != (n, d):
            raise ParameterError(
                f"gram_x must be (n, d, d) and gram_xy (n, d, o), "
                f"got {gram_x.shape} and {gram_xy.shape}"
            )
        deficient = _deficient(gram_x)
        if deficient.size:
            raise ParameterError(
                f"device {deficient[0]}: x is rank deficient "
                f"(eig_min of X'X below {_RANK_TOL:.0e})"
            )
        for name in ("w_true", "xe_sum"):
            a = as_matrix(getattr(self, name), name)
            if a.shape != (d, self.o):
                raise ParameterError(f"{name} must be ({d}, {self.o}), got {a.shape}")
            object.__setattr__(self, name, a)
        if not (math.isfinite(self.ee_sum) and self.ee_sum >= 0.0):
            raise ParameterError(f"ee_sum must be finite and nonnegative, got {self.ee_sum}")

    @property
    def n_devices(self) -> int:
        return self.gram_x.shape[0]

    @property
    def d(self) -> int:
        return self.gram_x.shape[2]

    @property
    def o(self) -> int:
        return self.gram_xy.shape[2]


@dataclass(frozen=True, eq=False)
class ProblemFacts:
    """Exact solution data for one instance.

    ``lam`` is the smallest eigenvalue of ``sum_i X_i^T X_i`` -- the sharpest
    constant with ``sum_i X_i^T X_i >= lam * I``, which is what the
    ``1/(lam t)`` step size wants.
    """

    w_star: np.ndarray
    lam: float
    loss_at_optimum: float

    def __post_init__(self):
        object.__setattr__(self, "w_star", as_matrix(self.w_star, "w_star"))
        if not self.lam > 0:
            raise ParameterError(f"lam must be positive, got {self.lam}")
        if self.loss_at_optimum < 0:
            raise ParameterError("loss_at_optimum must be nonnegative")


def generate(n_devices: int, m: int, d: int, o: int, stream: RngStream) -> FederatedDataset:
    """Draw a fresh noiseless instance and keep its Gram stacks.

    ``X_i ~ U[-1, 1]``, ``W_true ~ U[0, 1/30]`` and ``Y_i = X_i @ W_true``.
    ``W_true`` comes from one call on a generator from ``stream``'s
    ``"w_true"`` child; features come in chunks of :data:`DEVICE_CHUNK_ROWS`
    devices, by successive calls on one generator from its ``"x"`` child:
    bit-equal to one row-major ``(n, m, d)`` block, so device ``i``'s data
    do not depend on ``n_devices``.  Each chunk's labels must lie in ``[-1,
    1]`` (true for ``d <= 30``); its Gram pairs are kept and its samples
    dropped, and both label-noise sums are zero.  A device that fails the
    dataset's rank check (``lambda_min(X_i^T X_i) <= 1e-10``, probability
    about ``1.4 d 1e-10`` at ``m = d + 1`` and far less for larger ``m``)
    raises its :class:`ParameterError`.
    """
    if d < 1 or o < 1:
        raise ParameterError(f"dimensions must be positive, got d={d}, o={o}")
    if m <= d:
        raise ParameterError(f"full column rank unattainable with m={m} <= d={d}")
    if n_devices < 1:
        raise ParameterError(f"n_devices must be positive, got {n_devices}")
    check_entries(n_devices * d * (d + o), f"n_devices={n_devices}, d={d}, o={o}: Gram stacks")
    check_entries(min(n_devices, DEVICE_CHUNK_ROWS) * m * (d + o), f"m={m}: a sample chunk")
    w_true = stream.child("w_true").generator().uniform(0.0, 1.0 / 30.0, size=(d, o))
    x_gen = stream.child("x").generator()
    gram_x = np.empty((n_devices, d, d))
    gram_xy = np.empty((n_devices, d, o))
    for lo in range(0, n_devices, DEVICE_CHUNK_ROWS):
        x = x_gen.uniform(-1.0, 1.0, size=(min(DEVICE_CHUNK_ROWS, n_devices - lo), m, d))
        y = x @ w_true
        if float(np.abs(y).max()) > 1.0:
            raise ParameterError("all label entries must lie in [-1, 1]")
        gram_x[lo : lo + len(x)] = _gram(x, x)
        gram_xy[lo : lo + len(x)] = _gram(x, y)
    return FederatedDataset(gram_x, gram_xy, w_true, np.zeros((d, o)), 0.0)


def loss(w, ds: FederatedDataset, facts: ProblemFacts) -> float:
    """Total objective ``sum_i 0.5 * ||X_i W - Y_i||_F^2`` in its Gram form.

    With the instance's ``facts``, it is ``loss_at_optimum + <D, (sum_i
    X_i^T X_i) D> / 2`` with ``D = W - W*``: no residuals, and accurate near
    the optimum, where a residual sum is dominated by rounding.
    """
    w = as_matrix(w, "w")
    if w.shape != (ds.d, ds.o):
        raise ParameterError(f"w must be ({ds.d}, {ds.o}), got {w.shape}")
    dev = w - facts.w_star
    return facts.loss_at_optimum + 0.5 * float(np.sum(dev * (ds.gram_x.sum(axis=0) @ dev)))


def optimum(ds: FederatedDataset) -> ProblemFacts:
    """Closed-form least-squares optimum of the instance.

    ``w_star`` solves ``(sum_i X_i^T X_i) W = sum_i X_i^T Y_i``, whose Gram
    sum is positive definite (every ``X_i^T X_i`` is rank-checked); ``lam`` is
    its smallest eigenvalue.  The residual at the optimum is ``X_i D - E_i``
    with ``D = W* - W_true``, so the loss there is ``<D, (sum_i X_i^T X_i) D>
    / 2 - <D, sum_i X_i^T E_i> + sum_i ||E_i||^2 / 2``, which for noiseless
    labels is its first term and does not cancel.
    """
    gram = ds.gram_x.sum(axis=0)
    w_star = np.linalg.solve(gram, ds.gram_xy.sum(axis=0))
    dev = w_star - ds.w_true
    loss_at_optimum = (
        0.5 * float(np.sum(dev * (gram @ dev)))
        - float(np.sum(dev * ds.xe_sum))
        + 0.5 * ds.ee_sum
    )
    return ProblemFacts(w_star, eig_min_sym(gram), loss_at_optimum)
