"""Synthetic federated linear-regression instances and their exact optima.

An instance is ``N`` devices, device ``i`` holding features ``X_i``
(``m x d``) and labels ``Y_i`` (``m x o``), with the global objective

    f(W) = sum_i 0.5 * ||X_i W - Y_i||_F^2 .

A dataset keeps only each device's Gram pair ``A_i = X_i^T X_i``, ``B_i =
X_i^T Y_i`` (and two label-noise sums), which is all the objective needs.
The bundled generator draws features uniformly on ``[-1, 1]``, one shared
true weight matrix uniformly on ``[0, 1/30]``, and noiseless labels ``Y_i =
X_i @ W_true``, so the optimum is the true weights and the optimal loss is
zero.  Such labels need never be formed: ``B_i = A_i W_true``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, check
from .numerics import RngStream, as_matrix, check_entries, eig_min_sym

__all__ = [
    "FederatedDataset",
    "ProblemFacts",
    "check_shape",
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


def _check_labels(x: np.ndarray, w_true: np.ndarray) -> None:
    """Refuse an ``(n, m, d)`` feature chunk whose labels ``X_i W_true`` leave ``[-1, 1]``."""
    if float(np.abs(x @ w_true).max()) > 1.0:
        raise ParameterError("all label entries must lie in [-1, 1]")


def _deficient(gram_x: np.ndarray) -> np.ndarray:
    """Indices of the matrices of a symmetric ``(n, d, d)`` stack whose smallest
    eigenvalue is at most ``_RANK_TOL``, in increasing order.

    The stack is checked in slices of :data:`DEVICE_CHUNK_ROWS` matrices, so
    its temporaries are bounded by one slice, not the stack.  One batched
    Cholesky of ``A_i - _RANK_TOL * I`` decides a slice: it succeeds exactly
    when every ``lambda_min(A_i) > _RANK_TOL``, up to rounding, so it agrees
    with the eigenvalue criterion unless some ``lambda_min(A_i)`` lies within
    ``4 * d * eps * ||A_i||_2`` of the threshold.  Only when it fails (a
    measure-zero event for drawn features) does a batched eigensolve name
    that slice's failing matrices by the eigenvalue criterion itself; the
    scan then goes on to the next slice.
    """
    shift = _RANK_TOL * np.eye(gram_x.shape[-1])
    failing = [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(gram_x), DEVICE_CHUNK_ROWS):
        chunk = gram_x[lo : lo + DEVICE_CHUNK_ROWS]
        try:
            np.linalg.cholesky(chunk - shift)
        except np.linalg.LinAlgError:
            failing.append(lo + np.flatnonzero(np.linalg.eigvalsh(chunk)[:, 0] <= _RANK_TOL))
    return np.concatenate(failing)


@dataclass(frozen=True, eq=False)
class FederatedDataset:
    """All devices' Gram stacks, two label-noise sums, and the true weights.

    Device ``i`` is ``gram_x[i] = X_i^T X_i`` and ``gram_xy[i] = X_i^T Y_i``,
    all that encoding, training and the loss read; samples are not kept.  A
    drawn dataset's ``gram_xy`` is ``gram_x @ w_true``, its noiseless labels'
    ``X_i^T (X_i W_true)`` regrouped.
    With ``E_i = Y_i - X_i W_true`` (``W_true = 0`` when unknown),
    ``xe_sum = sum_i X_i^T E_i`` and ``ee_sum = sum_i ||E_i||_F^2``, both
    exactly zero for noiseless labels; ``gram_x_sum`` and ``gram_xy_sum``,
    the stacks summed over devices, are taken once.  The constructor checks
    finite entries, agreeing shapes and, by :func:`_deficient`, that every
    ``X_i^T X_i`` has full rank, naming the first device whose smallest
    eigenvalue is at most ``1e-10``: the only rank check of a drawn dataset.
    It runs per slice of :data:`DEVICE_CHUNK_ROWS` devices, so its
    temporaries are bounded by one slice, not the stack.
    """

    gram_x: np.ndarray
    gram_xy: np.ndarray
    w_true: np.ndarray
    xe_sum: np.ndarray
    ee_sum: float
    gram_x_sum: np.ndarray = field(init=False)
    gram_xy_sum: np.ndarray = field(init=False)

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
        check("ee_sum", self.ee_sum, "be finite and nonnegative")
        object.__setattr__(self, "gram_x_sum", gram_x.sum(axis=0))
        object.__setattr__(self, "gram_xy_sum", gram_xy.sum(axis=0))

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
        check("lam", self.lam, "be finite and positive")
        check("loss_at_optimum", self.loss_at_optimum, "be nonnegative")


def check_shape(n_devices: int, m: int, d: int, o: int) -> None:
    """Refuse a dataset shape: every size positive, and ``m > d`` samples per
    device, without which no ``X_i`` has full column rank."""
    for name, value in (("n_devices", n_devices), ("d", d), ("o", o)):
        check(name, value, "be positive")
    if m <= d:
        raise ParameterError(f"m: full column rank needs m > d, got m={m}, d={d}")


def generate(n_devices: int, m: int, d: int, o: int, stream: RngStream) -> FederatedDataset:
    """Draw a fresh noiseless instance and keep its Gram stacks.

    ``X_i ~ U[-1, 1]``, ``W_true ~ U[0, 1/30]`` and ``Y_i = X_i @ W_true``.
    ``W_true`` comes from one call on a generator from ``stream``'s
    ``"w_true"`` child; features come in chunks of :data:`DEVICE_CHUNK_ROWS`
    devices, by successive calls on one generator from its ``"x"`` child:
    bit-equal to one row-major ``(n, m, d)`` block, so device ``i``'s data
    do not depend on ``n_devices``.  Each chunk's ``X_i^T X_i`` is kept and
    its features dropped.  Labels are not formed: ``X_i^T Y_i = (X_i^T X_i)
    W_true`` is one batched product over the stack, within ``(m + d) eps
    (|X_i|^T |X_i| |W_true|)`` of the sample-based product.  Labels must lie
    in ``[-1, 1]``, which ``|x| <= 1`` ensures while every column of
    ``|W_true|`` sums to at most 1 (always for ``d <= 30``); only past that
    bound is each chunk's ``X_i W_true`` formed and checked.  Both label-noise
    sums are zero.  A device that fails the dataset's rank check
    (``lambda_min(X_i^T X_i) <= 1e-10``, probability about ``1.4 d 1e-10`` at
    ``m = d + 1`` and far less for larger ``m``) raises its
    :class:`ParameterError`.
    """
    check_shape(n_devices, m, d, o)
    check_entries(n_devices * d * (d + o), f"n_devices={n_devices}, d={d}, o={o}: Gram stacks")
    check_entries(min(n_devices, DEVICE_CHUNK_ROWS) * m * d, f"m={m}: a sample chunk")
    w_true = stream.child("w_true").generator().uniform(0.0, 1.0 / 30.0, size=(d, o))
    labels_bounded = float(np.abs(w_true).sum(axis=0).max()) <= 1.0
    x_gen = stream.child("x").generator()
    gram_x = np.empty((n_devices, d, d))
    # Allocated ahead of the chunks' temporaries: allocated after them, it
    # raised the peak RSS of a 4000-device run by 0.6 MB.
    gram_xy = np.empty((n_devices, d, o))
    for lo in range(0, n_devices, DEVICE_CHUNK_ROWS):
        x = x_gen.uniform(-1.0, 1.0, size=(min(DEVICE_CHUNK_ROWS, n_devices - lo), m, d))
        if not labels_bounded:
            _check_labels(x, w_true)
        gram_x[lo : lo + len(x)] = _gram(x, x)
    np.matmul(gram_x, w_true, out=gram_xy)
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
    return facts.loss_at_optimum + 0.5 * float(np.sum(dev * (ds.gram_x_sum @ dev)))


def optimum(ds: FederatedDataset) -> ProblemFacts:
    """Closed-form least-squares optimum of the instance.

    ``w_star`` solves ``(sum_i X_i^T X_i) W = sum_i X_i^T Y_i``, whose Gram
    sum is positive definite (every ``X_i^T X_i`` is rank-checked); ``lam`` is
    its smallest eigenvalue.  The residual at the optimum is ``X_i D - E_i``
    with ``D = W* - W_true``, so the loss there is ``<D, (sum_i X_i^T X_i) D>
    / 2 - <D, sum_i X_i^T E_i> + sum_i ||E_i||^2 / 2``, which for noiseless
    labels is its first term and does not cancel.
    """
    gram = ds.gram_x_sum
    w_star = np.linalg.solve(gram, ds.gram_xy_sum)
    dev = w_star - ds.w_true
    loss_at_optimum = (
        0.5 * float(np.sum(dev * (gram @ dev)))
        - float(np.sum(dev * ds.xe_sum))
        + 0.5 * ds.ee_sum
    )
    return ProblemFacts(w_star, eig_min_sym(gram), loss_at_optimum)
