"""Deterministic dense linear algebra and the random-stream keys of all other modules.

Values are plain float64 numpy arrays, and numpy is the only third-party
import.
Randomness goes through :class:`RngStream`, a counter-based scheme keyed by
``(master_seed, purpose_tag, indices)``: equal key triples reproduce the
exact same draws on any machine, distinct tags or indices give independent
sequences, and derivation is pure (no shared state), so parallel replicas
stay byte-reproducible.  A draw is one call on a fresh generator,
``stream.child(tag).generator().<distribution>(..., size=...)``, except
that straggler masks (``training.train``) and features
(``dataset.generate``) come in blocks, by successive calls on one
generator, bit-equal to one call for the whole array.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "MAX_ENTRIES",
    "RngStream",
    "as_matrix",
    "check_entries",
    "eig_min_sym",
]

_SYM_TOL = 1e-10


# The most float64 entries whose byte count numpy can index.
MAX_ENTRIES = np.iinfo(np.intp).max // 8


def check_entries(count: int, what: str) -> None:
    """Refuse, naming ``what``, float64 arrays of more than :data:`MAX_ENTRIES`
    entries (``count``, a Python int), which numpy would refuse with a bare ValueError."""
    if count > MAX_ENTRIES:
        raise ParameterError(f"{what}: {count} entries, more than an array can hold")


def as_matrix(a, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """Coerce ``a`` to a finite float64 array of ``ndim`` positive dimensions.

    ``ndim=3`` takes a stack of matrices, one per leading index.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != ndim:
        raise ParameterError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if min(arr.shape) < 1:
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


def _require_symmetric(a: np.ndarray, name: str) -> None:
    mismatch = float(np.abs(a - a.T).max()) if a.size else 0.0
    if mismatch > _SYM_TOL:
        raise ParameterError(
            f"{name} is not symmetric: max off-diagonal mismatch {mismatch:.3e} > {_SYM_TOL:.0e}"
        )


def eig_min_sym(a) -> float:
    """Smallest eigenvalue of a symmetric matrix (exact symmetric eigensolve)."""
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ParameterError(f"a must be square, got shape {a.shape}")
    _require_symmetric(a, "a")
    return float(np.linalg.eigvalsh(a)[0])
