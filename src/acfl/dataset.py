"""Synthetic federated linear-regression instances and their exact optima.

An instance is ``N`` devices, device ``i`` holding features ``X_i``
(``m x d``) and labels ``Y_i`` (``m x o``), with the global objective

    f(W) = sum_i 0.5 * ||X_i W - Y_i||_F^2 .

The bundled generator draws features uniformly on ``[-1, 1]``, one shared
true weight matrix uniformly on ``[0, 1/30]``, and noiseless labels
``Y_i = X_i @ W_true``, so the optimum is the true weights and the optimal
loss is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .numerics import RngStream, as_matrix, eig_min_sym, spd_solve

__all__ = [
    "FederatedDataset",
    "ProblemFacts",
    "generate",
    "load_csv",
    "loss",
    "optimum",
    "save_csv",
]

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
    """All devices' features and labels as stacks, plus the true weights when known.

    Device ``i`` holds ``x[i]`` (``m x d``) and ``y[i]`` (``m x o``), so
    every device has the same sample count.  The stack is checked once:
    finite entries within ``[-1, 1]``, ``m > d``, and every ``X_i^T X_i`` of
    full rank by :func:`_deficient`, which names the first device whose
    smallest eigenvalue is at most ``1e-10``.  This is the only rank check
    of a drawn or loaded dataset.
    """

    x: np.ndarray
    y: np.ndarray
    w_true: np.ndarray | None = None

    def __post_init__(self):
        x = as_matrix(self.x, "x", ndim=3)
        y = as_matrix(self.y, "y", ndim=3)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        n, m, d = x.shape
        if y.shape[:2] != (n, m):
            raise ParameterError(
                f"x and y disagree on device or sample count: {x.shape[:2]} vs {y.shape[:2]}"
            )
        if m <= d:
            raise ParameterError(
                f"full column rank unattainable: need more samples than features (m={m}, d={d})"
            )
        if float(np.abs(x).max()) > 1.0 or float(np.abs(y).max()) > 1.0:
            raise ParameterError("all entries of x and y must lie in [-1, 1]")
        deficient = _deficient(self.gram_x)
        if deficient.size:
            raise ParameterError(
                f"device {deficient[0]}: x is rank deficient "
                f"(eig_min of X'X below {_RANK_TOL:.0e})"
            )
        if self.w_true is not None:
            w = as_matrix(self.w_true, "w_true")
            if w.shape != (d, self.o):
                raise ParameterError(f"w_true must be ({d}, {self.o}), got {w.shape}")
            object.__setattr__(self, "w_true", w)

    @property
    def n_devices(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[2]

    @property
    def o(self) -> int:
        return self.y.shape[2]

    @cached_property
    def gram_x(self) -> np.ndarray:
        """Every ``X_i^T X_i``, an ``(n, d, d)`` stack computed once."""
        return _gram(self.x, self.x)

    @cached_property
    def gram_xy(self) -> np.ndarray:
        """Every ``X_i^T Y_i``, an ``(n, d, o)`` stack computed once."""
        return _gram(self.x, self.y)


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


def generate(
    n_devices: int,
    m: int,
    d: int,
    o: int,
    stream: RngStream,
    *,
    label_noise_sd: float = 0.0,
) -> FederatedDataset:
    """Draw a fresh instance, noiseless by default.

    ``X_i ~ U[-1, 1]``, ``W_true ~ U[0, 1/30]``, ``Y_i = X_i @ W_true``
    (plus optional Gaussian label noise of standard deviation
    ``label_noise_sd``).  Every draw is one block from one generator on a
    child of ``stream``: ``W_true`` from ``"w_true"``, all features as one
    ``(n, m, d)`` block from ``"x"`` and label noise as one ``(n, m, o)``
    block from ``"y"``, each filled row-major, so device ``i``'s data do not
    depend on ``n_devices``.  The returned :class:`FederatedDataset` runs
    the only rank check, and a device whose features fail it raises its
    :class:`ParameterError`: ``lambda_min(X_i^T X_i) <= 1e-10`` has
    probability about ``1.4 d 1e-10`` per device at ``m = d + 1`` and far
    less for larger ``m``.  Label entries stay within ``[-1, 1]`` as long as
    ``d <= 30`` given the ``1/30`` weight scale and the noise is small enough.
    """
    if d < 1 or o < 1:
        raise ParameterError(f"dimensions must be positive, got d={d}, o={o}")
    if m <= d:
        raise ParameterError(f"full column rank unattainable with m={m} <= d={d}")
    if n_devices < 1:
        raise ParameterError(f"n_devices must be positive, got {n_devices}")
    if label_noise_sd < 0:
        raise ParameterError(f"label_noise_sd must be nonnegative, got {label_noise_sd}")
    w_true = stream.child("w_true").generator().uniform(0.0, 1.0 / 30.0, size=(d, o))
    x = stream.child("x").generator().uniform(-1.0, 1.0, size=(n_devices, m, d))
    y = x @ w_true
    if label_noise_sd > 0.0:
        y = y + stream.child("y").generator().normal(0.0, label_noise_sd, size=y.shape)
    return FederatedDataset(x, y, w_true)


def loss(w, ds: FederatedDataset, facts: ProblemFacts | None = None) -> float:
    """Total objective ``sum_i 0.5 * ||X_i W - Y_i||_F^2``, from one batched residual
    (and no second temporary for its squares).

    Given the instance's ``facts``, the Gram form ``loss_at_optimum + <D,
    (sum_i X_i^T X_i) D> / 2`` with ``D = W - W*`` instead: it forms no
    residuals and stays accurate near the optimum, where the residual form
    is dominated by rounding.
    """
    w = as_matrix(w, "w")
    if w.shape != (ds.d, ds.o):
        raise ParameterError(f"w must be ({ds.d}, {ds.o}), got {w.shape}")
    if facts is not None:
        dev = w - facts.w_star
        return facts.loss_at_optimum + 0.5 * float(np.sum(dev * (ds.gram_x.sum(axis=0) @ dev)))
    r = ds.x @ w - ds.y
    return 0.5 * float(np.vdot(r, r))


def optimum(ds: FederatedDataset) -> ProblemFacts:
    """Closed-form least-squares optimum of the instance.

    ``w_star`` solves ``(sum_i X_i^T X_i) W = sum_i X_i^T Y_i``; ``lam`` is
    the smallest eigenvalue of the Gram sum.
    """
    gram = ds.gram_x.sum(axis=0)
    w_star = spd_solve(gram, ds.gram_xy.sum(axis=0))
    return ProblemFacts(w_star, eig_min_sym(gram), loss(w_star, ds))


def _fmt(x: float) -> str:
    return repr(float(x))


def save_csv(ds: FederatedDataset, directory) -> list[Path]:
    """Dump one ``device_NNNN.csv`` per device (columns ``x_1..x_d,y_1..y_o``).

    Also writes ``w_true.csv`` when the true weights are known.  Floats are
    written with ``repr`` so a round-trip through :func:`load_csv` is exact.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    d, o = ds.d, ds.o
    header = ",".join([f"x_{j + 1}" for j in range(d)] + [f"y_{k + 1}" for k in range(o)])
    for i, (x, y) in enumerate(zip(ds.x, ds.y)):
        path = directory / f"device_{i:04d}.csv"
        with open(path, "w", newline="") as f:
            f.write(header + "\n")
            for row_x, row_y in zip(x, y):
                f.write(",".join(_fmt(v) for v in (*row_x, *row_y)) + "\n")
        paths.append(path)
    if ds.w_true is not None:
        path = directory / "w_true.csv"
        with open(path, "w", newline="") as f:
            f.write(",".join(f"w_{k + 1}" for k in range(o)) + "\n")
            for row in ds.w_true:
                f.write(",".join(_fmt(v) for v in row) + "\n")
        paths.append(path)
    return paths


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names and float rows of one CSV file, or a :class:`ParameterError`
    naming it when it has no rows, a row whose length differs from its
    header, or a value that is not a number."""
    with open(path, newline="") as f:
        names = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f if line.strip()]
    if not rows:
        raise ParameterError(f"{path}: no data rows under the header")
    for i, row in enumerate(rows, start=2):
        if len(row) != len(names):
            raise ParameterError(
                f"{path}: line {i} has {len(row)} values, the header names {len(names)}"
            )
    try:
        return names, np.asarray(rows, dtype=np.float64)
    except ValueError as e:
        raise ParameterError(f"{path}: {e}") from None


def load_csv(directory) -> FederatedDataset:
    """Rebuild a dataset saved by :func:`save_csv`.

    Every device file must have the same shape, since the dataset stores
    stacks.  A file (``w_true.csv`` included) that differs from the first
    device file, has no rows, has a row whose length differs from its header
    or a value that is not a number raises a :class:`ParameterError` naming
    it.
    """
    directory = Path(directory)
    device_paths = sorted(directory.glob("device_*.csv"))
    if not device_paths:
        raise ParameterError(f"no device_*.csv files under {directory}")
    blocks = []
    for path in device_paths:
        names, data = _read_csv(path)
        if blocks and data.shape != blocks[0].shape:
            raise ParameterError(
                f"{path}: {data.shape[0]} rows of {data.shape[1]} values, "
                f"expected {blocks[0].shape[0]} rows of {blocks[0].shape[1]} as in "
                f"{device_paths[0]}"
            )
        blocks.append(data)
    d = sum(1 for n in names if n.startswith("x_"))
    stack = np.stack(blocks)
    w_path = directory / "w_true.csv"
    w_true = _read_csv(w_path)[1] if w_path.exists() else None
    return FederatedDataset(stack[:, :, :d], stack[:, :, d:], w_true)
