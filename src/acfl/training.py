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

:func:`train` never forms a device gradient: every quantity above is a
product of the Gram stacks ``A_i = X_i^T X_i`` and ``B_i = X_i^T Y_i`` with
the iterate, so one step costs the same for any number of devices.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .coding import GlobalCodedData, NoiseParams
from .dataset import DEVICE_CHUNK_ROWS, FederatedDataset, ProblemFacts
from .errors import NumericError, ParameterError
from .numerics import RngStream, check_entries

__all__ = [
    "AdaptiveEstimated",
    "AdaptiveOracle",
    "AggregationPolicy",
    "Arm",
    "FixedWeight",
    "InverseDecay",
    "TrainingTrace",
    "alpha_oracle",
    "sample_stragglers",
    "schedule_for_strong_convexity",
    "train",
]

W0_SCALE = 1.0 / 30.0  # initial iterate: entries uniform on [0, 1/30]


def _check_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"straggler probability must lie in [0, 1), got {p}")


def _check_alpha(alpha: float, name: str = "alpha") -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"{name}: must lie in [0, 1], got {alpha}")


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
        for name, value in (("beta_sq", self.beta_sq), ("c_sq", self.c_sq)):
            if not value > 0:
                raise ParameterError(f"{name}: must be positive, got {value}")


@dataclass(frozen=True)
class AdaptiveEstimated:
    """Per-iteration weight: the :func:`alpha_oracle` formula at the observed norms.

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
        if not 0.0 < self.c < math.inf:
            raise ParameterError(f"c: must be finite and positive, got {self.c}")

    def rates(self, steps: int) -> np.ndarray:
        """``eta_t`` for ``t = 1 .. steps``."""
        return self.c / np.arange(1, steps + 1)


def schedule_for_strong_convexity(lam: float) -> InverseDecay:
    """The ``1/(lam t)`` schedule matching a strong-convexity constant."""
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam}")
    return InverseDecay(1.0 / lam)


def sample_stragglers(p: float, n: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """The next ``rows`` presence masks as a boolean ``(rows, n)`` block, each
    device independently present w.p. ``1 - p``: ``n`` uniform draws from
    ``rng`` per mask, filled row-major, so successive calls on one generator
    give the rows of one ``(T, n)`` block in order."""
    _check_p(p)
    if n < 1:
        raise ParameterError(f"need at least one device, got n={n}")
    return rng.random((rows, n)) >= p


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

    ``N`` cancels, so this is one entry of :func:`_estimated_weights` at
    ``(beta_sq, c_sq)``.  Returns 0 when ``p = 0`` (no stragglers, trust the
    devices fully) and 1 when both encoding variances vanish; strictly below
    1 otherwise.
    """
    if n_devices < 1 or d < 1 or o < 1:
        raise ParameterError("n_devices, d, o must be positive")
    if not (beta_sq > 0 and c_sq > 0):
        raise ParameterError("beta_sq and c_sq must be positive")
    _check_p(p)
    with np.errstate(all="ignore"):  # overflow gives inf or NaN silently, as float arithmetic does
        sigma1_sq, sigma2_sq = np.float64(noise.sigma1_sq), np.float64(noise.sigma2_sq)
        return float(_estimated_weights(p, d, o, sigma1_sq, sigma2_sq)(beta_sq, c_sq))


def _estimated_weights(p: float, d: int, o: int, sigma1_sq, sigma2_sq):
    """The weight formula, as a function of arrays ``(beta_sq, c_sq)``:

        alpha = p b^2 / (p b^2 + d s1 c^2 (1-p) + s2 o d (1-p)) ,

    or 0 when ``p = 0`` or every term of the denominator is zero (then the
    gradient is zero whatever the weight).  ``beta_sq`` estimates a device
    gradient's squared norm (in training, the mean of the latest reports)
    and ``c_sq`` the iterate's; both are nonnegative.  ``sigma1_sq`` and
    ``sigma2_sq`` hold one encoding variance per weight; the terms without
    the estimates are computed here, once.  Huge finite inputs may raise
    numpy's overflow warning.
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


@dataclass(frozen=True, eq=False)
class Arm:
    """One of the runs :func:`train` advances together on one dataset.

    An arm is the server's coded sums and the policy that weighs them
    against the device gradients; the adaptive policies weigh the coded
    gradient's noise by the variances the sums carry (``coded.noise``).
    """

    coded: GlobalCodedData
    policy: AggregationPolicy

    def __post_init__(self):
        if not isinstance(self.policy, (FixedWeight, AdaptiveOracle, AdaptiveEstimated)):
            raise ParameterError(f"unsupported policy: {self.policy!r}")


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
    constants from observed runs; ``max_device_grad_sq`` is ``None`` unless
    :func:`train` was asked for it (``device_max=True``).
    """

    t: np.ndarray
    alpha: np.ndarray
    n_present: np.ndarray
    loss: np.ndarray
    dist_sq: np.ndarray
    grad_norm_sq: np.ndarray
    w_norm_sq: np.ndarray
    max_device_grad_sq: np.ndarray | None
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
STACK_ROWS = 16  # steps whose stacked operators an estimated-weight run holds at a time


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix of a stack."""
    return np.einsum("...ij,...ij->...", x, x)


def _centred_statistics(ds: FederatedDataset, w_star: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with every device's statistics centred at the optimum ``w_star``.

    With ``R_i = A_i W* - B_i``, device ``i``'s gradient at ``W = W* + D`` is
    ``A_i D + R_i``, and (``A_i`` symmetric)

        ||A_i D + R_i||^2 = <[A_i^2 | 2 A_i R_i], [D D' | D]> + ||R_i||^2 .

    Row ``i`` of the ``(n, F)`` array ``out`` is ``[R_i | [A_i^2 | 2 A_i
    R_i] | ||R_i||^2]``, each block row-major, the middle one a ``d x (d +
    o)`` matrix (only ``R_i`` if ``F = d o``).  The last two blocks dotted
    with :func:`_norm_terms` of ``D`` give that squared norm, and a mask's
    sum of the middle block is the band of :func:`_masked_operators` whose
    product with ``[D; I]`` those norms read.  With noise-free labels every
    ``R_i`` is near zero, so the terms shrink together as ``D`` does instead
    of cancelling near the optimum.
    """
    n, d, o = ds.n_devices, ds.d, ds.o
    for lo in range(0, n, DEVICE_CHUNK_ROWS):
        gram = ds.gram_x[lo : lo + DEVICE_CHUNK_ROWS]
        res = gram @ w_star - ds.gram_xy[lo : lo + DEVICE_CHUNK_ROWS]
        block = out[lo : lo + DEVICE_CHUNK_ROWS]
        block[:, : d * o] = res.reshape(len(gram), d * o)
        if out.shape[1] > d * o:
            band = block[:, d * o : -1].reshape(len(gram), d, d + o)
            band[..., :d] = gram @ gram
            band[..., d:] = 2.0 * (gram @ res)
            block[:, -1] = _sq_norms(res)
    return out


def _norm_terms(dev: np.ndarray) -> np.ndarray:
    """``[D D' | D]`` row-major, then 1, for every ``D`` of a ``(..., d, o)`` stack.

    The dot product of the last two blocks of a row of
    :func:`_centred_statistics` with these terms is that device's squared
    gradient norm at ``W* + D``.
    """
    *lead, d, o = dev.shape
    terms = np.empty((*lead, d * (d + o) + 1))
    band = terms[..., :-1].reshape(*lead, d, d + o)
    band[..., :d] = dev @ dev.swapaxes(-1, -2)
    band[..., d:] = dev
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
            chunk = stats[r, lo : lo + DEVICE_CHUNK_ROWS, -len(terms_r) :] @ terms_r
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
    norm.  That lower band is the masked sum of the statistics' middle
    block, reshaped; the ``R_i`` alone give only ``side``'s first ``d`` rows
    and ``None``.  Per replicate, a product each for ``A_i``, ``R_i`` and
    the rest.
    """
    rows, n_rep, _ = presence.shape
    sums = np.empty((rows, n_rep, 1, d * d + stats.shape[2]))  # [M_t | masked statistics]
    for r in range(n_rep):
        np.matmul(presence[:, r], grams[r], out=sums[:, r, 0, : d * d])
        # The R_i apart: BLAS may order a column's sum by the product's shape.
        for cols in (slice(0, d * o), slice(d * o, None)):
            np.matmul(presence[:, r], stats[r, :, cols], out=sums[:, r, 0, d * d :][:, cols])
    lean = stats.shape[2] == d * o  # the R_i alone
    side = np.empty((rows, n_rep, 1, d if lean else 2 * d, d + o))
    side[..., :d, :d] = sums[..., : d * d].reshape(rows, n_rep, 1, d, d)
    res, fold, rr = np.split(sums[..., d * d :], [d * o, d * o + d * (d + o)], axis=-1)
    side[..., :d, d:] = res.reshape(rows, n_rep, 1, d, o)
    side[..., :d, :] /= 1.0 - p
    if lean:
        return side, None
    side[..., d:, :] = fold.reshape(rows, n_rep, 1, d, d + o)
    return side, rr[..., 0].copy()


def _estimate_stack(w_star: np.ndarray, rows: int, k: int) -> np.ndarray:
    """``rows`` steps' ``(5d, d + o)`` operators on ``[D; I]`` for each of ``k`` arms.

    With ``S`` the received sum over ``1 - p`` and ``C`` an arm's coded
    gradient, the bands are ``[[I | 0]; C - S; S; fold / count; [I | 2 W*]]``:
    this writes the first and last, :func:`_load_sides` the others.  Times
    ``[D; I]``, the first three give ``[D; C - S; S]``, which the update
    reads, and the inner products of ``D`` with the others the mean report
    less ``norm_at_opt / count`` and ``||W||^2 - ||W*||^2``.
    """
    n_rep, _, d, o = w_star.shape
    stack = np.zeros((rows, n_rep, k, 5 * d, d + o))
    stack[..., :d, :d] = np.eye(d)
    stack[..., 4 * d :, :d] = np.eye(d)
    stack[..., 4 * d :, d:] = 2.0 * w_star
    return stack


def _load_sides(stack: np.ndarray, side: np.ndarray, coded_op: np.ndarray) -> None:
    """Write rows' :func:`_masked_operators` sides, each fold already over its
    row's report count, into the first rows of an :func:`_estimate_stack`:
    the bands ``S`` and ``fold / count`` as given, ``C - S`` from ``coded_op``."""
    d = side.shape[-2] // 2
    rows = stack[: len(side)]  # bands [[I | 0]; C - S; S; fold / count; [I | 2 W*]]
    rows[..., 2 * d : 4 * d, :] = side
    np.subtract(coded_op, side[..., :d, :], out=rows[..., d : 2 * d, :])


def train(
    ds: Sequence[FederatedDataset],
    arms: Sequence[Sequence[Arm]],
    straggler_p: float,
    steps: int,
    schedule: Sequence[InverseDecay],
    stream: Sequence[RngStream],
    facts: Sequence[ProblemFacts],
    *,
    device_max: bool = False,
) -> tuple[tuple[TrainingTrace, ...], ...]:
    """Run the two-source training loop for ``steps`` iterations on every arm
    of R replicates, which advance together in one loop.

    Replicate ``r`` is the dataset ``ds[r]``, the arm list ``arms[r]``,
    ``schedule[r]``, ``stream[r]`` and ``facts[r]``; the replicates share
    the dataset shape and the number of arms.  A replicate's arms share its
    dataset, straggler masks and initial iterate, and each has its own coded
    sums, policy and iterate.  Returns one tuple of traces per replicate,
    one trace per arm, in order; each replicate's traces are those it gets
    trained alone.

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
    present devices' summed squared gradient norms; only an estimated
    weight or ``device_max`` reads these, so a call with neither builds the
    ``R_i`` alone.  Fixed and oracle weights fold a whole step into one ``(d, d
    + o)`` operator per arm.
    With an estimated weight, every arm steps along ``S + alpha (C - S)``
    (``S`` the received sum over ``1 - p``, ``C`` the coded gradient): a
    stacked operator per arm times ``[D; I]`` (:func:`_estimate_stack`)
    gives ``[D; C - S; S]``, a second product the mean report and
    ``||W||^2`` for the weight, a third the update ``[1, -eta_t alpha_t,
    -eta_t] [D; C - S; S]``.  Row buffers and their views are made once per
    call; the trace columns, after each block.  ``device_max=True`` adds the
    largest device-gradient norm, a scan of every device through the same
    centred identity, clamped at 0; otherwise that column is ``None``.

    Deterministic given the streams: a replicate's mask for iteration ``t``
    is row ``t`` of the masks drawn, in blocks of rows, from one generator
    on its ``stream.child("mask")`` (so it does not depend on ``steps``, on
    the arms or on the other replicates), and its initial iterate, the
    trace's ``w0``, is uniform on ``[0, 1/30]`` from ``stream.child("init")``.

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
    _check_p(straggler_p)
    if steps < 0:
        raise ParameterError(f"steps must be nonnegative, got {steps}")
    datasets, arms, schedules, streams, facts = (
        tuple(ds), tuple(map(tuple, arms)), tuple(schedule), tuple(stream), tuple(facts)
    )
    n_rep = len(datasets)
    if not n_rep:
        raise ParameterError("need at least one replicate to train")
    if any(len(seq) != n_rep for seq in (arms, schedules, streams, facts)):
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
        inits.append(streams[r].child("init").generator().uniform(0.0, W0_SCALE, size=(d, o)))
    check_entries(len(_TRACE_COLUMNS) * n_rep * k * steps, f"steps={steps}: the trace record")

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
    # estimated arms, the encoding variances their coded sums carry, which the
    # weight formula reads (the other arms' unit placeholders are never read out).
    base_alpha = np.empty((n_rep, k))
    estimated = np.zeros((n_rep, k), dtype=bool)
    sigma1_sq, sigma2_sq = np.ones((2, n_rep, k))
    for r, row in enumerate(arms):
        for j, arm in enumerate(row):
            if isinstance(arm.policy, FixedWeight):
                base_alpha[r, j] = arm.policy.alpha
            elif isinstance(arm.policy, AdaptiveOracle):
                base_alpha[r, j] = alpha_oracle(
                    straggler_p, n, arm.policy.beta_sq, arm.policy.c_sq, d, o, arm.coded.noise
                )
            else:
                base_alpha[r, j] = arm.policy.fallback_alpha
                estimated[r, j] = True
                sigma1_sq[r, j], sigma2_sq[r, j] = astuple(arm.coded.noise)
    any_estimated = bool(estimated.any())
    estimated_weights = _estimated_weights(straggler_p, d, o, sigma1_sq, sigma2_sq)

    # Per replicate, one row per device: the centred statistics (R_i alone if no
    # norm is read); a block of masks times them and the Grams gives every sum.
    width = d * d + 2 * d * o + 1 if any_estimated or device_max else d * o
    check_entries(n_rep * n * width, f"n_devices={n}, d={d}, o={o}: device statistics")
    stats = np.empty((n_rep, n, width))
    for r, (x, f) in enumerate(zip(datasets, facts)):
        _centred_statistics(x, f.w_star, stats[r])

    # Every computed trace column of every replicate and arm, by iteration:
    # the traces keep views of it, so each column is stored once.
    names = _TRACE_COLUMNS if device_max else _TRACE_COLUMNS[:-1]
    record = np.zeros((len(names), n_rep, k, steps))
    n_present = np.zeros((n_rep, steps), dtype=np.int64)
    mask_rngs = [s.child("mask").generator() for s in streams]
    mask_hashes = [hashlib.sha256() for _ in streams]

    # The iterates of a block, augmented as [D; I]: entry i is D at the
    # block's iteration i, entry 0 carries over from the last block.
    block = min(steps, MASK_CHUNK_ROWS)
    iterates = np.zeros((block + 1, n_rep, k, d + o, o))
    iterates[..., d:, :] = np.eye(o)
    devs = iterates[..., :d, :]
    devs[0] = np.stack(inits)[:, None] - w_star
    masks = np.empty((block, n_rep, n), dtype=bool)
    if any_estimated:
        # A stack row's product with [D; I] holds, by band, [D; C - S; S] for
        # the update and [fold / count; D + 2W*], whose inner products with D
        # plus the row's constants are forms = [mean report, ||W||^2].
        stack = _estimate_stack(w_star, min(steps, STACK_ROWS), k)
        products = np.empty((*stack.shape[:-1], o))
        bands = products.reshape(*stack.shape[:3], 5, d * o)
        halves = bands[..., 3:, :].swapaxes(-1, -2)
        by_stack_row = list(zip(stack, products, bands[..., :3, :], halves))
        mix = np.ones((block, n_rep, k, 1, 2))  # [alpha_t, 1] per arm
        etas = np.empty((block, n_rep, 1, 1, 1))  # -eta_t
        consts = np.empty((block, n_rep, 1, 1, 2))  # [norm_at_opt / count, ||W*||^2]
        consts[..., 1] = _sq_norms(w_star)[..., None]
        live = np.empty((block, n_rep, k), dtype=bool)  # arms that use the estimate
        reports = np.empty((block, n_rep, 1), dtype=bool)  # replicates that hear a report
        flat = devs.reshape(block + 1, n_rep, k, 1, d * o)
        per_row = zip(iterates, flat, flat[1:], consts, mix, mix[..., 0, 0], etas, live, reports)
        row_views = [(*by_stack_row[i % STACK_ROWS], *views) for i, views in enumerate(per_row)]
        grad_sq = np.empty((block, n_rep, k))
        forms = np.empty((n_rep, k, 1, 2))
        report_mean, w_sq = forms[..., 0, 0], forms[..., 0, 1]
        beta_sq = np.zeros((n_rep, k))  # the mean report of the latest row that heard one
        reported = np.zeros((n_rep, 1), dtype=bool)  # has any device reported yet
        coef = np.ones((n_rep, k, 1, 3))  # [1, -eta_t alpha_t, -eta_t]
        coef_tail = coef[..., 1:]
    else:
        updates = np.empty((block, n_rep, k, d, d + o))
        row_views = list(zip(updates, iterates, devs[1:]))
    keep = np.eye(d, d + o)  # [I | 0]
    rows = 0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows raise below
        for start in range(0, steps, MASK_CHUNK_ROWS):
            iterates[0] = iterates[rows]
            rows = min(MASK_CHUNK_ROWS, steps - start)
            stop = start + rows
            for r, (rng, mask_hash) in enumerate(zip(mask_rngs, mask_hashes)):
                masks[:rows, r] = drawn = sample_stragglers(straggler_p, n, rng, rows)
                mask_hash.update(drawn)  # fresh, so contiguous: hashed in place
            counts = np.count_nonzero(masks[:rows], axis=2)
            n_present[:, start:stop] = counts.T
            side_op, norm_at_opt = _masked_operators(
                masks[:rows].astype(np.float64), grams, stats, d, o, straggler_p
            )
            eta = rates[start:stop, :, None, None, None]
            if any_estimated:
                # A row that hears no report keeps the latest estimate (copied per step).
                np.greater(counts[..., None], 0, out=reports[:rows])
                heard = np.logical_or.accumulate(reports[:rows], axis=0) | reported
                np.logical_and(estimated, heard, out=live[:rows])
                reported = heard[-1]
                beta = report_mean if reports[:rows].all() else beta_sq
                scale = 1.0 / np.maximum(counts, 1)[:, :, None]
                side_op[..., d:, :] *= scale[..., None, None]
                np.multiply(norm_at_opt, scale, out=consts[:rows, ..., 0, 0])
                np.negative(eta, out=etas[:rows])
                mix[:rows, ..., 0, 0] = base_alpha
                for lo in range(0, rows, STACK_ROWS):
                    hi = min(lo + STACK_ROWS, rows)
                    _load_sides(stack, side_op[lo:hi], coded_op)
                    for (
                        op, prod, pair, half, aug, dev, nxt, const, mix_t, alpha_t, eta_t, live_t,
                        report_t,
                    ) in row_views[lo:hi]:
                        np.matmul(op, aug, out=prod)
                        np.matmul(dev, half, out=forms)
                        np.add(forms, const, out=forms)
                        if beta is beta_sq:
                            np.copyto(beta_sq, report_mean, where=report_t)
                        np.copyto(alpha_t, estimated_weights(beta, w_sq), where=live_t)
                        np.multiply(eta_t, mix_t, out=coef_tail)
                        np.matmul(coef, pair, out=nxt)
                    # These rows' gradients, [alpha_t, 1] [C - S; S], from their products.
                    grad_sq[lo:hi] = _sq_norms(mix[lo:hi] @ bands[: hi - lo, ..., 1:3, :])
                np.copyto(beta_sq, beta)  # the latest estimate, into the next block
                alpha_column, grad_column = mix[:rows, ..., 0, 0], grad_sq[:rows]
            else:
                # The whole step is linear in [D; I]: G_t = [P_t | Q_t] [D; I]
                # and D <- [I - eta_t P_t | -eta_t Q_t] [D; I].
                alpha = base_alpha[..., None, None]
                step_op = alpha * coded_op + (1.0 - alpha) * side_op[..., :d, :]
                np.subtract(keep, eta * step_op, out=updates[:rows])
                for update, aug, nxt in row_views[:rows]:
                    np.matmul(update, aug, out=nxt)
                alpha_column = np.broadcast_to(base_alpha, (rows, n_rep, k))
                grad_column = _sq_norms(step_op @ iterates[:rows])
            del side_op  # the block's columns follow; free what they do not read
            dev = devs[:rows]
            columns = (
                alpha_column,
                loss_at_optimum + 0.5 * np.einsum("...ij,...ij->...", dev, a_sum @ dev),
                _sq_norms(dev),
                grad_column,
                _sq_norms(dev + w_star),
            )
            for c, column in enumerate(columns):
                record[c, ..., start:stop] = column.transpose(1, 2, 0)
            if device_max:
                record[-1, ..., start:stop] = _max_device_sq(stats, dev)
            # Every weight a policy yields lies in [0, 1] unless it is NaN.
            bad = ~np.isfinite(record[..., start:stop]).all(axis=(0, 1, 2))
            if bad.any():
                raise _diverged(start + int(np.argmax(bad)), arms, record)

    w = w_star + devs[rows] if steps else np.repeat(np.stack(inits)[:, None], k, axis=1)
    t_index = np.arange(steps, dtype=np.int64)
    return tuple(
        tuple(
            TrainingTrace(
                t=t_index,
                n_present=n_present[r],
                w0=inits[r],
                final_w=w[r, j],
                mask_digest=mask_hashes[r].hexdigest(),
                **{**dict.fromkeys(_TRACE_COLUMNS), **dict(zip(names, record[:, r, j]))},
            )
            for j in range(k)
        )
        for r in range(n_rep)
    )
