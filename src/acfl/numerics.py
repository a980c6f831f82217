"""Deterministic dense linear algebra and seeded sampling for all other modules.

Values are plain float64 numpy arrays.  Randomness goes through
:class:`RngStream`, a counter-based scheme keyed by
``(master_seed, purpose_tag, indices)``: equal key triples reproduce the
exact same draws on any machine, distinct tags or indices give independent
sequences, and derivation is pure (no shared state), so parallel replicas
stay byte-reproducible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NumericError, ParameterError

__all__ = [
    "RngStream",
    "as_matrix",
    "eig_min_sym",
    "gaussian_matrix",
    "spd_solve",
    "uniform_matrix",
]

_SYM_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite float64 2-D array with at least one row/column."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ParameterError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ParameterError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class RngStream:
    """Key of a deterministic random stream.

    A stream is identified by ``(master_seed, purpose_tag, indices)``.  The
    triple is hashed (SHA-256) into a Philox key, so the stream content is a
    pure function of the key: same triple, same bits.  Standard-normal draws
    use numpy's ziggurat via ``Generator.normal``; that choice is fixed so
    emitted CSV artifacts stay bit-stable.
    """

    master_seed: int
    purpose_tag: str = "root"
    indices: tuple[int, ...] = ()

    def child(self, tag: str, *indices: int) -> "RngStream":
        """Derive a sub-stream by extending the tag path and index tuple."""
        return RngStream(
            self.master_seed,
            f"{self.purpose_tag}/{tag}",
            (*self.indices, *indices),
        )

    def key_bytes(self) -> bytes:
        payload = repr((self.master_seed, self.purpose_tag, self.indices))
        return hashlib.sha256(payload.encode()).digest()[:16]

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = int.from_bytes(self.key_bytes(), "little")
        return np.random.Generator(np.random.Philox(key=key))


def gaussian_matrix(stream: RngStream, rows: int, cols: int, variance: float) -> np.ndarray:
    """``rows x cols`` matrix of i.i.d. N(0, variance) entries.

    Deterministic given ``stream``; ``variance == 0`` yields the zero matrix.
    """
    if rows < 1 or cols < 1:
        raise ParameterError(f"matrix dimensions must be positive, got ({rows}, {cols})")
    if variance < 0:
        raise ParameterError(f"variance must be nonnegative, got {variance}")
    return stream.generator().normal(0.0, math.sqrt(variance), size=(rows, cols))


def uniform_matrix(stream: RngStream, rows: int, cols: int, low: float, high: float) -> np.ndarray:
    """``rows x cols`` matrix of i.i.d. uniform draws on ``[low, high)``."""
    if rows < 1 or cols < 1:
        raise ParameterError(f"matrix dimensions must be positive, got ({rows}, {cols})")
    if not high >= low:
        raise ParameterError(f"need high >= low, got [{low}, {high})")
    return stream.generator().uniform(low, high, size=(rows, cols))


def _require_symmetric(a: np.ndarray, name: str) -> None:
    mismatch = float(np.abs(a - a.T).max()) if a.size else 0.0
    if mismatch > _SYM_TOL:
        raise ParameterError(
            f"{name} is not symmetric: max off-diagonal mismatch {mismatch:.3e} > {_SYM_TOL:.0e}"
        )


def spd_solve(a, b) -> np.ndarray:
    """Solve ``A Z = B`` for symmetric positive-definite ``A`` via Cholesky.

    Raises :class:`NumericError` carrying the 1-based failing pivot index
    when the factorization breaks down (``A`` not positive definite).
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != a.shape[1]:
        raise ParameterError(f"a must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ParameterError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    _require_symmetric(a, "a")
    chol, info = lapack.dpotrf(a, lower=1)
    if info > 0:
        raise NumericError(
            f"matrix is not positive definite: leading minor of order {info} failed",
            pivot_index=int(info),
        )
    if info < 0:
        raise NumericError(f"Cholesky factorization rejected argument {-info}")
    z, info = lapack.dpotrs(chol, b, lower=1)
    if info != 0:
        raise NumericError(f"triangular solve failed with status {info}")
    return z


def eig_min_sym(a) -> float:
    """Smallest eigenvalue of a symmetric matrix (exact symmetric eigensolve)."""
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ParameterError(f"a must be square, got shape {a.shape}")
    _require_symmetric(a, "a")
    return float(np.linalg.eigvalsh(a)[0])
