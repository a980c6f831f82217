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


def _stacked(arrays) -> np.ndarray:
    """``arrays`` on a leading replicate axis; a single array is viewed, not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


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

    Per iteration: take each replicate's presence mask, compute every device
    gradient of every arm in one product ``[A_1; ..; A_n] [W_1 .. W_K] -
    [B_i .. B_i]`` per replicate and every coded gradient ``H_X W - H_Y``,
    pick each arm's ``alpha_t`` per its policy, aggregate, record the trace
    rows, then step ``W <- W - eta_t * G_all`` (``eta_1`` applies to the
    first update).  Deterministic given the streams: a replicate's mask for
    iteration ``t`` is row ``t`` of the masks drawn, in blocks of rows, from
    one generator on its ``stream.child("mask")`` (so it does not depend on
    ``steps``, on the arms or on the other replicates) and, when ``w0`` is
    omitted, its initial iterate is uniform on ``[0, 1/30]`` drawn from
    ``stream.child("init")``.

    :class:`AdaptiveEstimated` uses the mean squared norm of the latest
    reports, kept across iterations in which no device reports, and
    ``fallback_alpha`` before the first report.  The recorded loss is
    ``loss_at_optimum + <D, (sum_i A_i) D> / 2`` with ``D = W - W*``, which
    stays accurate near the optimum.

    Raises :class:`NumericError` naming the iteration, the arm and the
    replicate (its position in the call) when a value of that arm's trace
    row (loss, weight or a norm) is not finite.
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

    # Row block i of a replicate's a_flat is A_i and column block j of its
    # iterate matrix is W_j, so one product gives every A_i W_j; b_tiled
    # repeats each B_i once per arm.
    a_sum = np.stack([x.gram_x.sum(axis=0) for x in datasets])[:, None]  # (R, 1, d, d)
    a_flat = _stacked([x.gram_x.reshape(n * d, d) for x in datasets])
    b_tiled = _stacked([np.tile(x.gram_xy.reshape(n * d, o), k) for x in datasets])
    # Sums a (d, K, o)-ordered row of squares into one entry per arm.
    arm_of_entry = np.tile(np.repeat(np.eye(k), o, axis=0), (d, 1))
    h_x = np.array([[arm.coded.h_x_sum for arm in row] for row in arms])  # (R, K, d, d)
    h_y = np.array([[arm.coded.h_y_sum for arm in row] for row in arms])
    w_star = np.stack([f.w_star for f in facts])[:, None]
    loss_at_optimum = np.array([[f.loss_at_optimum] for f in facts])
    rates = np.stack([s.rates(steps) for s in schedules], axis=1)[:, :, None, None, None]

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
    beta_sq = np.zeros((n_rep, 1, k))  # mean squared device-gradient norm of the latest report
    reported = np.zeros((1, n_rep, 1, 1), dtype=bool)  # per row: has any device reported yet

    # Every trace column of every replicate and arm, by iteration: the
    # traces keep views of it, so each column is stored once.
    record = np.zeros((len(_TRACE_COLUMNS), n_rep, k, steps))
    n_present = np.zeros((n_rep, steps), dtype=np.int64)
    mask_rngs = [s.child("mask").generator() for s in streams]
    mask_hashes = [hashlib.sha256() for _ in streams]

    # Refilled every step: every device gradient of every arm, and their squares.
    grads = np.empty((n_rep, n * d, k * o))
    squares = np.empty((n_rep, n, d * k * o))
    w = np.repeat(np.stack(inits)[:, None], k, axis=1)  # (R, K, d, o)
    for t in range(steps):
        row = t % MASK_CHUNK_ROWS
        if row == 0:
            rows = min(MASK_CHUNK_ROWS, steps - t)
            masks = np.empty((rows, n_rep, n), dtype=bool)
            for r, (rng, mask_hash) in enumerate(zip(mask_rngs, mask_hashes)):
                masks[:, r] = block = sample_stragglers(straggler_p, n, rng, rows)
                mask_hash.update(block.tobytes())
            presence = masks.astype(np.float64)[:, :, None, :]  # (rows, R, 1, n)
            counts = np.count_nonzero(masks, axis=2)
            n_present[:, t : t + rows] = counts.T
            # Per row: which replicates hear a report, what their norm sums
            # are divided by, and which arms use the estimated weight.
            reports = (counts > 0)[:, :, None, None]
            divisors = np.maximum(counts, 1)[:, :, None, None]
            reported = np.logical_or.accumulate(reports, axis=0) | reported[-1]
            live = estimated & reported[..., 0]
        present = presence[row]
        diff = w - w_star
        loss_t = loss_at_optimum + 0.5 * np.einsum("rkij,rkij->rk", diff, a_sum @ diff)
        w_cat = w.transpose(0, 2, 1, 3).reshape(n_rep, d, k * o)
        np.matmul(a_flat, w_cat, out=grads)
        grads -= b_tiled
        by_device = grads.reshape(n_rep, n, -1)
        sq_norms = np.multiply(by_device, by_device, out=squares) @ arm_of_entry  # (R, n, K)
        w_norm_sq = np.einsum("rkij,rkij->rk", w, w)
        alpha = base_alpha
        if any_estimated:
            np.divide(present @ sq_norms, divisors[row], out=beta_sq, where=reports[row])
            alpha = np.where(live[row], estimated_weights(beta_sq[:, 0], w_norm_sq), base_alpha)
        received = (present @ by_device).reshape(n_rep, d, k, o).transpose(0, 2, 1, 3)
        g_all = alpha[..., None, None] * (h_x @ w - h_y) + (
            (1.0 - alpha) / (1.0 - straggler_p)
        )[..., None, None] * received
        record[..., t] = (
            alpha,
            loss_t,
            np.einsum("rkij,rkij->rk", diff, diff),
            np.einsum("rkij,rkij->rk", g_all, g_all),
            w_norm_sq,
            sq_norms.max(axis=1),
        )
        # Every weight a policy yields lies in [0, 1] unless it is NaN.
        if not np.isfinite(record[..., t]).all():
            raise _diverged(t, arms, record)
        w = w - rates[t] * g_all

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
