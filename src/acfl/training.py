"""Straggler-afflicted training with coded-gradient substitution.

Each iteration, every device is independently absent with probability ``p``.
Present devices report their local full-batch gradient

    G_i = X_i^T (X_i W - Y_i) ,

the server computes a gradient from the global coded dataset,

    G_s = H_X W - H_Y ,

and blends the two sources with a weight ``alpha`` in ``[0, 1]``:

    G_all = alpha * G_s + (1 - alpha) / (1 - p) * sum_{present} G_i .

For any fixed ``alpha`` this is an unbiased estimate of the full gradient
``sum_i G_i``; what changes with ``alpha`` is its second moment.  The weight
can be held fixed, computed once from known norm bounds
(:class:`AdaptiveOracle`), or re-estimated every iteration from the norms
the server actually observes (:class:`AdaptiveEstimated`).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coding import GlobalCodedData, NoiseParams
from .dataset import DeviceData, FederatedDataset, ProblemFacts
from .errors import NumericError, ParameterError
from .numerics import RngStream, as_matrix, uniform_matrix

__all__ = [
    "AdaptiveEstimated",
    "AdaptiveOracle",
    "AggregationPolicy",
    "Arm",
    "FixedWeight",
    "InverseDecay",
    "TrainingTrace",
    "aggregate",
    "alpha_estimated",
    "alpha_oracle",
    "coded_gradient",
    "local_gradient",
    "sample_stragglers",
    "schedule_for_strong_convexity",
    "train",
]

W0_SCALE = 1.0 / 30.0  # default initial iterate: entries uniform on [0, 1/30]


def _check_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"straggler probability must lie in [0, 1), got {p}")


def _check_alpha(alpha: float, name: str = "alpha") -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {alpha}")


@dataclass(frozen=True)
class FixedWeight:
    """Constant aggregation weight across all iterations."""

    alpha: float

    def __post_init__(self):
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class AdaptiveOracle:
    """Optimal weight computed once from known norm bounds.

    ``beta_sq`` bounds every device-gradient squared norm and ``c_sq``
    bounds the squared norm of the iterate; with those and the encoding
    variances the variance-minimizing weight has a closed form
    (:func:`alpha_oracle`).
    """

    beta_sq: float
    c_sq: float

    def __post_init__(self):
        if not (self.beta_sq > 0 and self.c_sq > 0):
            raise ParameterError(
                f"oracle constants must be positive, got beta_sq={self.beta_sq}, c_sq={self.c_sq}"
            )


@dataclass(frozen=True)
class AdaptiveEstimated:
    """Per-iteration weight from observed norms (:func:`alpha_estimated`).

    ``fallback_alpha`` applies until any gradient has been received; the
    default 1 trusts the coded gradient while no device has reported.
    """

    fallback_alpha: float = 1.0

    def __post_init__(self):
        _check_alpha(self.fallback_alpha, "fallback_alpha")


AggregationPolicy = FixedWeight | AdaptiveOracle | AdaptiveEstimated


@dataclass(frozen=True)
class InverseDecay:
    """Step-size schedule ``eta_t = c / t`` with ``t`` counted from 1."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ParameterError(f"schedule constant must be positive, got {self.c}")

    def rate(self, t: int) -> float:
        if t < 1:
            raise ParameterError(f"schedule is 1-indexed, got t={t}")
        return self.c / t

    def rates(self, steps: int) -> np.ndarray:
        """``rate(t)`` for ``t = 1 .. steps``, one division per entry as in :meth:`rate`."""
        return self.c / np.arange(1, steps + 1)


def schedule_for_strong_convexity(lam: float) -> InverseDecay:
    """The ``1/(lam t)`` schedule matching a strong-convexity constant."""
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam}")
    return InverseDecay(1.0 / lam)


def sample_stragglers(
    p: float, n: int, rng: np.random.Generator, rows: int | None = None
) -> np.ndarray:
    """Boolean presence mask: each device independently present w.p. ``1 - p``.

    Consumes ``n`` uniform draws from ``rng`` per mask, so successive calls
    on one generator give the rows of one ``(T, n)`` block in order.  With
    ``rows``, returns the next ``rows`` masks as a ``(rows, n)`` block,
    filled row-major: bit-equal to ``rows`` successive one-mask calls.
    """
    _check_p(p)
    if n < 1:
        raise ParameterError(f"need at least one device, got n={n}")
    return rng.random(n if rows is None else (rows, n)) >= p


def local_gradient(dev: DeviceData, w) -> np.ndarray:
    """One device's full-batch gradient ``X^T (X W - Y)``."""
    w = as_matrix(w, "w")
    if w.shape != (dev.d, dev.o):
        raise ParameterError(f"w must be ({dev.d}, {dev.o}), got {w.shape}")
    return dev.x.T @ (dev.x @ w - dev.y)


def coded_gradient(gc: GlobalCodedData, w) -> np.ndarray:
    """Server-side gradient from the coded sums: ``H_X W - H_Y``."""
    w = as_matrix(w, "w")
    d = gc.h_x_sum.shape[0]
    o = gc.h_y_sum.shape[1]
    if w.shape != (d, o):
        raise ParameterError(f"w must be ({d}, {o}), got {w.shape}")
    return gc.h_x_sum @ w - gc.h_y_sum


def alpha_oracle(
    p: float,
    n_devices: int,
    beta_sq: float,
    c_sq: float,
    d: int,
    o: int,
    noise: NoiseParams,
) -> float:
    """Variance-minimizing weight given true norm bounds.

        alpha* = (p N b^2 / (1-p)) / (p N b^2 / (1-p) + N d s1 C^2 + N s2 o d)

    ``N`` cancels, so this is :func:`alpha_estimated` at ``(beta_sq, c_sq)``.
    Returns 0 when ``p = 0`` (no stragglers, trust the devices fully) and 1
    when both encoding variances vanish; strictly below 1 otherwise.
    """
    if n_devices < 1 or d < 1 or o < 1:
        raise ParameterError("n_devices, d, o must be positive")
    if not (beta_sq > 0 and c_sq > 0):
        raise ParameterError("beta_sq and c_sq must be positive")
    return alpha_estimated(p, d, o, noise, beta_sq, c_sq)


def alpha_estimated(
    p: float,
    d: int,
    o: int,
    noise: NoiseParams,
    beta_sq: float,
    c_sq: float,
) -> float:
    """Adaptive weight from norm estimates.

    ``beta_sq`` estimates the squared Frobenius norm of a device gradient
    (during training: the mean over the most recent reports) and ``c_sq``
    the squared norm of the iterate.  The weight is

        alpha = p b^2 / (p b^2 + d s1 c^2 (1-p) + s2 o d (1-p)) ,

    which equals :func:`alpha_oracle` at the same estimates.  A zero
    ``c_sq`` adds no coded-gradient noise, also when ``d s1`` overflows.
    """
    _check_p(p)
    if p == 0.0:
        return 0.0
    num = p * beta_sq
    coded = d * noise.sigma1_sq * c_sq if c_sq != 0.0 else 0.0
    den = num + coded * (1.0 - p) + noise.sigma2_sq * o * d * (1.0 - p)
    if den <= 0.0:
        # Every observed norm is zero and so is the noise: the gradient is
        # zero regardless of the weight.
        return 0.0
    return num / den


def _estimated_weights(p: float, d: int, o: int, sigma1_sq, sigma2_sq):
    """:func:`alpha_estimated` as a function of arrays ``(beta_sq, c_sq)``.

    ``sigma1_sq`` and ``sigma2_sq`` hold one variance per weight; the terms
    that do not depend on the estimates are computed here, once.  The
    formula, its association order and its branches are the scalar form's,
    so every entry is bit-equal to :func:`alpha_estimated` at that entry's
    values, which are nonnegative like the squared norms they estimate
    (huge finite inputs may raise numpy's overflow warning).
    """
    q = 1.0 - p
    d_sigma1_sq = d * sigma1_sq
    floor = sigma2_sq * o * d * q
    # Only a variance near the largest double overflows d * s1; a zero c_sq
    # must then still add zero, not inf * 0.
    overflowed = bool(np.isinf(d_sigma1_sq).any())
    # With every floor positive, nonnegative estimates keep den positive (or
    # NaN), and the den <= 0 branch cannot fire.
    may_vanish = not bool((floor > 0.0).all())

    def weights(beta_sq, c_sq) -> np.ndarray:
        num = p * beta_sq
        coded = d_sigma1_sq * c_sq
        if overflowed:
            coded = np.where(c_sq != 0.0, coded, 0.0)
        den = num + coded * q + floor
        if p == 0.0:
            return np.zeros_like(den)
        if may_vanish:
            zero = den <= 0.0
            if zero.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    return np.where(zero, 0.0, num / den)
        return num / den

    return weights


def aggregate(
    g_s: np.ndarray,
    local_grads: Sequence[np.ndarray] | np.ndarray,
    mask: np.ndarray,
    alpha: float,
    p: float,
) -> np.ndarray:
    """Blend the coded gradient with the received device gradients.

    ``G_all = alpha * G_s + (1 - alpha)/(1 - p) * sum_i G_i * mask_i``;
    ``local_grads`` is an ``(n, d, o)`` stack or a list of ``n`` gradients.
    """
    _check_alpha(alpha)
    _check_p(p)
    g_s = as_matrix(g_s, "g_s")
    mask = np.asarray(mask, dtype=bool)
    try:
        grads = np.asarray(local_grads, dtype=np.float64)
    except ValueError:
        raise ParameterError("local gradients must all have the same shape") from None
    if mask.ndim != 1 or grads.shape != (len(mask), *g_s.shape):
        raise ParameterError(
            f"gradients of shape {grads.shape} do not match a mask of shape {mask.shape} "
            f"and g_s of shape {g_s.shape}"
        )
    return alpha * g_s + ((1.0 - alpha) / (1.0 - p)) * grads[mask].sum(axis=0)


@dataclass(frozen=True, eq=False)
class Arm:
    """One of the runs :func:`train` advances together on one dataset.

    An arm is the server's coded sums, the policy that weighs them against
    the device gradients, and the encoding variances behind those sums;
    the adaptive policies need ``noise`` to weigh the coded gradient's noise.
    """

    coded: GlobalCodedData
    policy: AggregationPolicy
    noise: NoiseParams | None = None

    def __post_init__(self):
        if not isinstance(self.policy, (FixedWeight, AdaptiveOracle, AdaptiveEstimated)):
            raise ParameterError(f"unsupported policy: {self.policy!r}")
        if not isinstance(self.policy, FixedWeight) and self.noise is None:
            raise ParameterError("adaptive policies need the encoding noise parameters")


def _diverged(t: int, arms, record: np.ndarray) -> NumericError:
    """The error naming iteration ``t`` and the first (replicate, arm) whose row is not finite."""
    r, j = (int(i) for i in np.argwhere(~np.isfinite(record[..., t]).all(axis=0))[0])
    losses = record[_TRACE_COLUMNS.index("loss"), r, j, : t + 1]
    finite = losses[np.isfinite(losses)]
    last_loss = float(finite[-1]) if len(finite) else None
    return NumericError(
        f"training diverged at iteration {t} in arm {j} ({arms[r][j].policy!r}) of replicate "
        f"{r}: a non-finite loss, weight or norm (last finite loss: {last_loss!r})"
    )


@dataclass(frozen=True, eq=False)
class TrainingTrace:
    """Per-iteration instrumentation plus the initial and final iterates.

    One record per iteration ``0 .. T-1``; the per-iteration values are
    taken at the start of the iteration (before the update), so row 0 holds
    the initial loss.  ``w_norm_sq`` and ``max_device_grad_sq`` exist to
    check the norm-bound assumptions after the fact and to derive oracle
    constants from observed runs.
    """

    t: np.ndarray
    alpha: np.ndarray
    n_present: np.ndarray
    loss: np.ndarray
    dist_sq: np.ndarray
    grad_norm_sq: np.ndarray
    w_norm_sq: np.ndarray
    max_device_grad_sq: np.ndarray
    w0: np.ndarray
    final_w: np.ndarray
    mask_digest: str

    @property
    def steps(self) -> int:
        return len(self.t)


_TRACE_COLUMNS = ("alpha", "loss", "dist_sq", "grad_norm_sq", "w_norm_sq", "max_device_grad_sq")

# Straggler-mask rows drawn per generator call: each replicate's masks come
# in (rows, n) blocks of at most this many rows.
MASK_CHUNK_ROWS = 64


# Devices per product when the per-device statistics are built or scanned,
# which bounds the (devices, .) temporaries at fleet scale.
DEVICE_CHUNK_ROWS = 512


@functools.cache
def _triangle(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle of a ``d x d`` matrix, and
    the weight (1 on the diagonal, 2 off it) that turns the triangle of a
    symmetric matrix into its Frobenius inner product with another.  Cached,
    so the arrays are read-only."""
    rows, cols = np.triu_indices(d)
    arrays = rows, cols, np.where(rows == cols, 1.0, 2.0)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix of a stack."""
    return np.einsum("...ij,...ij->...", x, x)


def _centred_statistics(ds: FederatedDataset, w_star: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with every device's statistics centred at the optimum ``w_star``.

    With ``R_i = A_i W* - B_i``, device ``i``'s gradient at ``W = W* + D`` is
    ``A_i D + R_i``, and (``A_i`` symmetric)

        ||A_i D + R_i||^2 = <A_i^2, D D'> + 2 <A_i R_i, D> + ||R_i||^2 .

    Row ``i`` of the ``(n, F)`` array ``out`` is ``[upper triangle of A_i^2 |
    A_i R_i | ||R_i||^2 | R_i]``, each block row-major; its first three
    blocks dotted with :func:`_norm_terms` of ``D`` give that squared norm.
    With noise-free labels every ``R_i`` is near zero, so the terms shrink
    together as ``D`` does instead of cancelling near the optimum.
    """
    n, d, o = ds.n_devices, ds.d, ds.o
    rows, cols, _ = _triangle(d)
    n_tri = len(rows)
    for lo in range(0, n, DEVICE_CHUNK_ROWS):
        gram = ds.gram_x[lo : lo + DEVICE_CHUNK_ROWS]
        res = gram @ w_star - ds.gram_xy[lo : lo + DEVICE_CHUNK_ROWS]
        block = out[lo : lo + DEVICE_CHUNK_ROWS]
        block[:, :n_tri] = (gram @ gram)[:, rows, cols]
        block[:, n_tri : n_tri + d * o] = (gram @ res).reshape(len(gram), d * o)
        block[:, n_tri + d * o] = _sq_norms(res)
        block[:, n_tri + d * o + 1 :] = res.reshape(len(gram), d * o)
    return out


def _norm_terms(dev: np.ndarray) -> np.ndarray:
    """``[weighted upper triangle of D D' | 2 D | 1]`` for every ``D`` of a ``(..., d, o)`` stack.

    The dot product of a row of :func:`_centred_statistics` with these terms
    is that device's squared gradient norm at ``W* + D``.
    """
    *lead, d, o = dev.shape
    rows, cols, weight = _triangle(d)
    n_tri = len(rows)
    terms = np.empty((*lead, n_tri + d * o + 1))
    outer = (dev @ dev.swapaxes(-1, -2)).reshape(*lead, d * d)
    np.take(outer, rows * d + cols, axis=-1, out=terms[..., :n_tri], mode="clip")
    terms[..., :n_tri] *= weight
    np.multiply(dev, 2.0, out=terms[..., n_tri:-1].reshape(*lead, d, o))
    terms[..., -1] = 1.0
    return terms


def _max_device_sq(stats: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """The largest squared device-gradient norm at every ``W* + D`` of a
    ``(rows, R, K, d, o)`` block, clamped at 0, as an ``(R, K, rows)`` array.

    ``stats`` holds the replicates' :func:`_centred_statistics`; devices are
    scanned in chunks of :data:`DEVICE_CHUNK_ROWS`.  A NaN stays NaN.
    """
    rows, n_rep, k = dev.shape[:3]
    terms = _norm_terms(dev)
    best = np.full((n_rep, rows * k), -np.inf)
    for r in range(n_rep):
        terms_r = terms[:, r].reshape(rows * k, -1).T
        for lo in range(0, stats.shape[1], DEVICE_CHUNK_ROWS):
            chunk = stats[r, lo : lo + DEVICE_CHUNK_ROWS, : len(terms_r)] @ terms_r
            np.maximum(best[r], chunk.max(axis=0), out=best[r])
    return np.maximum(best, 0.0).reshape(n_rep, rows, k).transpose(0, 2, 1)


def _masked_operators(
    presence: np.ndarray, grams, stats: np.ndarray, d: int, o: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """A block of masks' sums of the statistics, as operators on ``[D; I]``.

    ``presence`` is a ``(rows, R, n)`` block of 0/1 masks, ``grams`` the
    replicates' Gram stacks as ``(n, d * d)`` arrays and ``stats`` their
    ``(R, n, F)`` :func:`_centred_statistics`.  Returns ``side`` of shape
    ``(rows, R, 1, 2d, d + o)`` and ``norm_at_opt`` of shape ``(rows, R,
    1)``.  ``side @ [D; I]`` stacks the received sum over ``1 - p``,
    ``(M_t D + sum_i b_i R_i) / (1 - p)``, on ``sum_i b_i A_i^2 D + 2 sum_i
    b_i A_i R_i``, whose inner product with ``D``, plus ``norm_at_opt =
    sum_i b_i ||R_i||^2``, is the present devices' summed squared gradient
    norm.  One product per replicate gives every row's sums.
    """
    rows, n_rep, _ = presence.shape
    tri_rows, tri_cols, _ = _triangle(d)
    n_tri = len(tri_rows)
    sums = np.empty((rows, n_rep, 1, d * d + stats.shape[2]))  # [M_t | masked statistics]
    for r in range(n_rep):
        np.matmul(presence[:, r], grams[r], out=sums[:, r, 0, : d * d])
        np.matmul(presence[:, r], stats[r], out=sums[:, r, 0, d * d :])
    sq, ar, rr, res = np.split(
        sums[..., d * d :], [n_tri, n_tri + d * o, n_tri + d * o + 1], axis=-1
    )
    side = np.empty((rows, n_rep, 1, 2 * d, d + o))
    side[..., :d, :d] = sums[..., : d * d].reshape(rows, n_rep, 1, d, d)
    side[..., :d, d:] = res.reshape(rows, n_rep, 1, d, o)
    side[..., :d, :] /= 1.0 - p
    fold = side[..., d:, :d]
    fold[..., tri_rows, tri_cols] = fold[..., tri_cols, tri_rows] = sq
    side[..., d:, d:] = 2.0 * ar.reshape(rows, n_rep, 1, d, o)
    return side, rr[..., 0].copy()


def train(
    ds: FederatedDataset | Sequence[FederatedDataset],
    arms: Sequence[Arm] | Sequence[Sequence[Arm]],
    straggler_p: float,
    steps: int,
    schedule: InverseDecay | Sequence[InverseDecay],
    stream: RngStream | Sequence[RngStream],
    facts: ProblemFacts | Sequence[ProblemFacts],
    *,
    w0: np.ndarray | Sequence[np.ndarray] | None = None,
) -> tuple[TrainingTrace, ...] | tuple[tuple[TrainingTrace, ...], ...]:
    """Run the two-source training loop for ``steps`` iterations on every arm.

    One replicate is a dataset, its arms, schedule, stream, facts and
    optional ``w0``; its arms share the dataset, the straggler masks and
    ``w0``, and each has its own coded sums, policy and iterate, and gets
    its own trace, in order.  Given as sequences, one entry per replicate
    (``arms`` then holds one arm list per replicate), ``ds``, ``arms``,
    ``schedule``, ``stream``, ``facts`` and ``w0`` describe R replicates
    that advance together in one loop; they must share the dataset shape
    and the number of arms, and the result is one tuple of traces per
    replicate.  Each replicate's traces are those it gets trained alone.

    Per iteration: take each replicate's presence mask ``b``, pick each
    arm's ``alpha_t`` per its policy, blend the coded gradient ``H_X W -
    H_Y`` with the received sum ``sum_i b_i (A_i W - B_i)``, then step ``W
    <- W - eta_t * G_all`` (``eta_1`` applies to the first update).

    The loop never touches a device: it iterates ``D = W - W*`` on ``(R, K,
    d, o)`` arrays, so a step costs the same for any number of devices.
    Once per call, every device's statistics are centred at the optimum
    (:func:`_centred_statistics`, with ``R_i = A_i W* - B_i``).  Once per
    block of :data:`MASK_CHUNK_ROWS` masks, one product of the block's masks
    with them gives every step's masked sums: ``M_t = sum_i b_i A_i`` and
    ``sum_i b_i R_i``, so the received sum is ``M_t D + sum_i b_i R_i``, and
    the sums of ``A_i^2``, ``A_i R_i`` and ``||R_i||^2``, which give the
    present devices' summed squared gradient norms.  Fixed and oracle
    weights fold a whole step into one ``(d, d + o)`` operator per arm.
    The trace columns are computed after each block from its iterates; the
    largest device-gradient norm scans every device through the same
    centred identity, clamped at 0.

    Deterministic given the streams: a replicate's mask for iteration ``t``
    is row ``t`` of the masks drawn, in blocks of rows, from one generator
    on its ``stream.child("mask")`` (so it does not depend on ``steps``, on
    the arms or on the other replicates) and, when ``w0`` is omitted, its
    initial iterate is uniform on ``[0, 1/30]`` drawn from
    ``stream.child("init")``.

    :class:`AdaptiveEstimated` uses the mean squared norm of the latest
    reports, kept across iterations in which no device reports, and
    ``fallback_alpha`` before the first report.  The recorded loss is
    ``loss_at_optimum + <D, (sum_i A_i) D> / 2``, which stays accurate near
    the optimum.

    Raises :class:`NumericError` naming the first iteration, arm and
    replicate (its position in the call) at which a value of that arm's
    trace row (loss, weight or a norm) is not finite; rows are checked a
    block at a time, and the first bad row is named.
    """
    single = isinstance(ds, FederatedDataset)
    if single:
        ds, arms, schedule, stream, facts, w0 = [ds], [arms], [schedule], [stream], [facts], [w0]
    _check_p(straggler_p)
    if steps < 0:
        raise ParameterError(f"steps must be nonnegative, got {steps}")
    datasets, arms, schedules, streams, facts = (
        tuple(ds), tuple(map(tuple, arms)), tuple(schedule), tuple(stream), tuple(facts)
    )
    n_rep = len(datasets)
    w0s = (None,) * n_rep if w0 is None else tuple(w0)
    if not n_rep:
        raise ParameterError("need at least one replicate to train")
    if any(len(seq) != n_rep for seq in (arms, schedules, streams, facts, w0s)):
        raise ParameterError("give one dataset, arm list, schedule, stream, facts per replicate")
    n, d, o, k = datasets[0].n_devices, datasets[0].d, datasets[0].o, len(arms[0])
    if not k:
        raise ParameterError("need at least one arm to train")
    inits = []
    for r in range(n_rep):
        if (datasets[r].n_devices, datasets[r].d, datasets[r].o) != (n, d, o):
            raise ParameterError(f"replicate {r}: dataset shape differs from replicate 0's")
        if len(arms[r]) != k:
            raise ParameterError(f"replicate {r}: {len(arms[r])} arms, replicate 0 has {k}")
        for j, arm in enumerate(arms[r]):
            if arm.coded.h_x_sum.shape != (d, d) or arm.coded.h_y_sum.shape != (d, o):
                raise ParameterError(
                    f"arm {j} of replicate {r}: coded data shapes do not match the dataset"
                )
        if not isinstance(schedules[r], InverseDecay):
            raise ParameterError(f"unsupported schedule: {schedules[r]!r}")
        if facts[r].w_star.shape != (d, o):
            raise ParameterError(f"replicate {r}: facts.w_star shape does not match the dataset")
        if w0s[r] is None:
            inits.append(uniform_matrix(streams[r].child("init"), d, o, 0.0, W0_SCALE))
        else:
            inits.append(as_matrix(w0s[r], "w0").copy())
            if inits[r].shape != (d, o):
                raise ParameterError(f"w0 must be ({d}, {o}), got {inits[r].shape}")

    # Per replicate, one row per device: the centred statistics; a block of
    # masks times them (and times the Gram stack) gives every masked sum.
    stats = np.empty((n_rep, n, d * (d + 1) // 2 + 2 * d * o + 1))
    for r, (x, f) in enumerate(zip(datasets, facts)):
        _centred_statistics(x, f.w_star, stats[r])
    grams = [x.gram_x.reshape(n, d * d) for x in datasets]
    a_sum = np.stack([x.gram_x.sum(axis=0) for x in datasets])[:, None]  # (R, 1, d, d)
    w_star = np.stack([f.w_star for f in facts])[:, None]  # (R, 1, d, o)
    loss_at_optimum = np.array([[f.loss_at_optimum] for f in facts])
    rates = np.stack([s.rates(steps) for s in schedules], axis=1)  # (T, R)
    # [H_X | H_X W* - H_Y] times [D; I] is the coded gradient H_X W - H_Y.
    h_x = np.array([[arm.coded.h_x_sum for arm in row] for row in arms])  # (R, K, d, d)
    h_y = np.array([[arm.coded.h_y_sum for arm in row] for row in arms])
    coded_op = np.concatenate([h_x, h_x @ w_star - h_y], axis=-1)

    # Every arm's constant weight (an estimated arm's fallback) and, for the
    # estimated arms, the encoding variances their weight formula reads (the
    # other arms' unit placeholders are never read out).
    base_alpha = np.empty((n_rep, k))
    estimated = np.zeros((n_rep, k), dtype=bool)
    sigma1_sq = np.ones((n_rep, k))
    sigma2_sq = np.ones((n_rep, k))
    for r, row in enumerate(arms):
        for j, arm in enumerate(row):
            if isinstance(arm.policy, FixedWeight):
                base_alpha[r, j] = arm.policy.alpha
            elif isinstance(arm.policy, AdaptiveOracle):
                base_alpha[r, j] = alpha_oracle(
                    straggler_p, n, arm.policy.beta_sq, arm.policy.c_sq, d, o, arm.noise
                )
            else:
                base_alpha[r, j] = arm.policy.fallback_alpha
                estimated[r, j] = True
                sigma1_sq[r, j], sigma2_sq[r, j] = arm.noise.sigma1_sq, arm.noise.sigma2_sq
    any_estimated = bool(estimated.any())
    estimated_weights = _estimated_weights(straggler_p, d, o, sigma1_sq, sigma2_sq)
    beta_sq = np.zeros((n_rep, k))  # mean squared device-gradient norm of the latest report
    reported = np.zeros((1, n_rep, 1), dtype=bool)  # per row: has any device reported yet

    # Every trace column of every replicate and arm, by iteration: the
    # traces keep views of it, so each column is stored once.
    record = np.zeros((len(_TRACE_COLUMNS), n_rep, k, steps))
    n_present = np.zeros((n_rep, steps), dtype=np.int64)
    mask_rngs = [s.child("mask").generator() for s in streams]
    mask_hashes = [hashlib.sha256() for _ in streams]

    # The iterates of a block, augmented as [D; I]: entry i is D at the
    # block's iteration i, entry 0 carries over from the last block.
    iterates = np.zeros((min(steps, MASK_CHUNK_ROWS) + 1, n_rep, k, d + o, o))
    iterates[..., d:, :] = np.eye(o)
    iterates[0, ..., :d, :] = np.stack(inits)[:, None] - w_star
    keep = np.eye(d, d + o)  # [I | 0]
    rows = 0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows raise below
        for start in range(0, steps, MASK_CHUNK_ROWS):
            iterates[0] = iterates[rows]
            rows = min(MASK_CHUNK_ROWS, steps - start)
            stop = start + rows
            masks = np.empty((rows, n_rep, n), dtype=bool)
            for r, (rng, mask_hash) in enumerate(zip(mask_rngs, mask_hashes)):
                masks[:, r] = block = sample_stragglers(straggler_p, n, rng, rows)
                mask_hash.update(block.tobytes())
            counts = np.count_nonzero(masks, axis=2)
            n_present[:, start:stop] = counts.T
            side_op, norm_at_opt = _masked_operators(
                masks.astype(np.float64), grams, stats, d, o, straggler_p
            )
            eta = rates[start:stop, :, None, None, None]
            if any_estimated:
                # Per row: which replicates hear a report, what their norm
                # sums are divided by, and which arms use the estimated weight.
                reports = (counts > 0)[:, :, None]
                divisors = np.maximum(counts, 1)[:, :, None]
                reported = np.logical_or.accumulate(reports, axis=0) | reported[-1]
                live = estimated & reported
                alphas = np.empty((rows, n_rep, k))
                grads = np.empty((rows, n_rep, k, d, o))
                for i in range(rows):
                    augmented = iterates[i]
                    dev = augmented[..., :d, :]
                    coded = coded_op @ augmented
                    side = side_op[i] @ augmented
                    received = side[..., :d, :]
                    report = np.einsum("rkij,rkij->rk", dev, side[..., d:, :]) + norm_at_opt[i]
                    np.divide(report, divisors[i], out=beta_sq, where=reports[i])
                    alphas[i] = alpha = np.where(
                        live[i], estimated_weights(beta_sq, _sq_norms(dev + w_star)), base_alpha
                    )
                    g = np.add(received, alpha[..., None, None] * (coded - received), out=grads[i])
                    np.subtract(dev, eta[i] * g, out=iterates[i + 1, ..., :d, :])
            else:
                # The whole step is linear in [D; I]: G_t = [P_t | Q_t] [D; I]
                # and D <- [I - eta_t P_t | -eta_t Q_t] [D; I].
                alpha = base_alpha[..., None, None]
                step_op = alpha * coded_op + (1.0 - alpha) * side_op[..., :d, :]
                update = keep - eta * step_op
                for i in range(rows):
                    np.matmul(update[i], iterates[i], out=iterates[i + 1, ..., :d, :])
                alphas = np.broadcast_to(base_alpha, (rows, n_rep, k))
                grads = step_op @ iterates[:rows]
            del side_op  # the block's columns follow; free what they do not read
            dev = iterates[:rows, ..., :d, :]
            columns = (
                alphas,
                loss_at_optimum + 0.5 * np.einsum("...ij,...ij->...", dev, a_sum @ dev),
                _sq_norms(dev),
                _sq_norms(grads),
                _sq_norms(dev + w_star),
            )
            for c, column in enumerate(columns):
                record[c, ..., start:stop] = column.transpose(1, 2, 0)
            del grads
            record[-1, ..., start:stop] = _max_device_sq(stats, dev)
            # Every weight a policy yields lies in [0, 1] unless it is NaN.
            bad = ~np.isfinite(record[..., start:stop]).all(axis=(0, 1, 2))
            if bad.any():
                raise _diverged(start + int(np.argmax(bad)), arms, record)

    if steps:
        w = w_star + iterates[rows, ..., :d, :]
    else:
        w = np.repeat(np.stack(inits)[:, None], k, axis=1)
    t_index = np.arange(steps, dtype=np.int64)
    traces = tuple(
        tuple(
            TrainingTrace(
                t=t_index,
                n_present=n_present[r],
                w0=inits[r],
                final_w=w[r, j],
                mask_digest=mask_hashes[r].hexdigest(),
                **{name: record[c, r, j] for c, name in enumerate(_TRACE_COLUMNS)},
            )
            for j in range(k)
        )
        for r in range(n_rep)
    )
    return traces[0] if single else traces
