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
from .dataset import DEVICE_CHUNK_ROWS, FederatedDataset, optimum
from .errors import NumericError, ParameterError, check
from .numerics import RngStream, check_entries

__all__ = [
    "AdaptiveEstimated",
    "AdaptiveOracle",
    "AggregationPolicy",
    "FixedWeight",
    "InverseDecay",
    "TRACE_COLUMNS",
    "TrainingTrace",
    "alpha_oracle",
    "sample_stragglers",
    "schedule_for_strong_convexity",
    "trace_bytes",
    "train",
]

W0_SCALE = 1.0 / 30.0  # initial iterate: entries uniform on [0, 1/30]


@dataclass(frozen=True)
class FixedWeight:
    """Constant aggregation weight across all iterations."""

    alpha: float

    def __post_init__(self):
        check("alpha", self.alpha, "lie in [0, 1]")


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
        check("beta_sq", self.beta_sq, "be finite and positive")
        check("c_sq", self.c_sq, "be finite and positive")


@dataclass(frozen=True)
class AdaptiveEstimated:
    """Per-iteration weight: the :func:`alpha_oracle` formula at the observed norms.

    ``fallback_alpha`` applies until any gradient has been received; the
    default 1 trusts the coded gradient while no device has reported.
    """

    fallback_alpha: float = 1.0

    def __post_init__(self):
        check("fallback_alpha", self.fallback_alpha, "lie in [0, 1]")


AggregationPolicy = FixedWeight | AdaptiveOracle | AdaptiveEstimated


@dataclass(frozen=True)
class InverseDecay:
    """Step-size schedule ``eta_t = c / t`` with ``t`` counted from 1."""

    c: float

    def __post_init__(self):
        check("c", self.c, "be finite and positive")

    def rates(self, steps: int) -> np.ndarray:
        """``eta_t`` for ``t = 1 .. steps``."""
        return self.c / np.arange(1, steps + 1)


def schedule_for_strong_convexity(lam: float) -> InverseDecay:
    """The ``1/(lam t)`` schedule matching a strong-convexity constant."""
    return InverseDecay(1.0 / check("lam", lam, "be finite and positive"))


def sample_stragglers(p: float, n: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """The next ``rows`` presence masks as a boolean ``(rows, n)`` block, each
    device independently present w.p. ``1 - p``: ``n`` uniform draws from
    ``rng`` per mask, filled row-major, so successive calls on one generator
    give the rows of one ``(T, n)`` block in order."""
    check("p", p, "lie in [0, 1)")
    check("n", n, "be positive")
    return rng.random((rows, n)) >= p


def alpha_oracle(p: float, beta_sq: float, c_sq: float, d: int, o: int, noise: NoiseParams) -> float:
    """Variance-minimizing weight given true norm bounds.

        alpha* = p b^2 / (p b^2 + d s1 C^2 (1-p) + s2 o d (1-p)) ,

    which minimizes the second-moment bound; the number of devices cancels
    out of it.  Returns 0 when ``p = 0`` (no stragglers, trust the devices
    fully) or at a zero denominator, and 1 when both encoding variances
    vanish; strictly below 1 otherwise.
    """
    check("d", d, "be positive")
    check("o", o, "be positive")
    beta_sq = float(check("beta_sq", beta_sq, "be finite and positive"))
    c_sq = float(check("c_sq", c_sq, "be finite and positive"))
    p = float(check("p", p, "lie in [0, 1)"))
    d_sigma1_sq, q, floor = _weight_terms(p, d, o, float(noise.sigma1_sq), float(noise.sigma2_sq))
    num = p * beta_sq
    den = num + d_sigma1_sq * c_sq * q + floor
    return num / den if den > 0.0 else 0.0


def _weight_terms(p: float, d: int, o: int, sigma1_sq, sigma2_sq):
    """The terms of the weight formula that do not read the norm estimates,
    ``(d s1, 1 - p, s2 o d (1-p))``, as scalars or one entry per variance pair."""
    q = 1.0 - p
    return d * sigma1_sq, q, sigma2_sq * o * d * q


@dataclass(frozen=True, eq=False)
class TrainingTrace:
    """Per-iteration instrumentation plus the initial and final iterates.

    Entry ``t`` of a column is iteration ``t`` of ``0 .. T-1``, taken at the
    start of the iteration (before the update), so entry 0 holds the
    initial loss.  A column of :data:`TRACE_COLUMNS` is ``None`` unless
    :func:`train` was asked to record it (its ``columns``); ``n_present``,
    ``w0``, ``final_w``, ``final_loss`` (the loss at ``final_w``) and
    ``mask_digest`` are always kept.
    ``w_norm_sq`` and ``max_device_grad_sq`` exist to check the norm-bound
    assumptions after the fact and to derive oracle constants from observed
    runs.
    """

    alpha: np.ndarray | None
    n_present: np.ndarray
    loss: np.ndarray | None
    dist_sq: np.ndarray | None
    grad_norm_sq: np.ndarray | None
    w_norm_sq: np.ndarray | None
    max_device_grad_sq: np.ndarray | None
    w0: np.ndarray
    final_w: np.ndarray
    final_loss: float
    mask_digest: str

    @property
    def steps(self) -> int:
        return len(self.n_present)


# The per-iteration columns :func:`train` can record, in the order it stores them.
TRACE_COLUMNS = ("alpha", "loss", "dist_sq", "grad_norm_sq", "w_norm_sq", "max_device_grad_sq")


def trace_bytes(n_arms: int, steps: int, d: int, o: int, columns: Sequence[str]) -> int:
    """Bytes one replicate's traces from :func:`train` keep when it records
    ``columns``: per arm, those columns and ``final_w``; per replicate,
    ``n_present`` and ``w0``."""
    per_arm = len(_recorded(columns)) * steps + d * o
    return (n_arms * per_arm + steps + d * o) * 8


def _recorded(columns: Sequence[str]) -> tuple[str, ...]:
    """The names of :data:`TRACE_COLUMNS` in ``columns``, in that order."""
    unknown = [name for name in columns if name not in TRACE_COLUMNS]
    if unknown:
        raise ParameterError(f"columns: unknown trace column {unknown[0]!r}")
    return tuple(name for name in TRACE_COLUMNS if name in columns)


# Straggler-mask rows drawn per generator call: each replicate's masks come
# in (rows, n) blocks of at most this many rows.
MASK_CHUNK_ROWS = 64
STACK_ROWS = 16  # steps whose stacked operators the estimated arms hold at a time


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
    ``(rows, R, K, d, o)`` block, clamped at 0, as a ``(rows, R, K)`` array.

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
    return np.maximum(best, 0.0).reshape(n_rep, rows, k).transpose(1, 0, 2)


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


def _estimate_stack(w_star: np.ndarray, scale: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` steps' ``(5d, d + o)`` operators on ``[D; I]`` per estimated arm, ``c``
    its entry of the ``(R, K_e)`` array ``scale``: the bands of :func:`_estimated_kernel`,
    of which this writes the first and last, :func:`_load_sides` the others."""
    d, o = w_star.shape[-2:]
    stack = np.zeros((rows, *scale.shape, 5 * d, d + o))
    stack[..., :d, :d] = np.eye(d)
    scale = scale[..., None, None]
    stack[..., 4 * d :, :d] = scale * np.eye(d)
    stack[..., 4 * d :, d:] = scale * (2.0 * w_star)
    return stack


def _load_sides(stack: np.ndarray, side: np.ndarray, coded_op: np.ndarray) -> None:
    """Write rows' :func:`_masked_operators` sides, each fold already times ``p``
    over its row's report count, into the first rows of an :func:`_estimate_stack`:
    the bands ``S`` and ``p fold / count`` as given, ``C - S`` from ``coded_op``."""
    d = side.shape[-2] // 2
    rows = stack[: len(side)]
    rows[..., 2 * d : 4 * d, :] = side
    np.subtract(coded_op, side[..., :d, :], out=rows[..., d : 2 * d, :])


def _fold_kernel(p, policies, noise, w_star, coded_op, iterates, weights, grad_sq):
    """The step of the fixed and oracle arms, at the fixed or :func:`alpha_oracle` weight.

    Its arguments are ``p``, the arms' policies and their slices of
    :func:`train`'s arm axis: the ``(R, K, 2)`` encoding variances, the
    ``(R, 1, d, o)`` optima, the coded gradients ``C = [H_X | H_X W* -
    H_Y]`` as operators on ``[D; I]``, a block's ``[D; I]``, and a block's
    weights and ``grad_norm_sq`` (``None`` if not recorded).  With ``S`` the
    received sum over ``1 - p``, a step ``G_t = [P_t | Q_t] [D; I] = alpha C
    + (1 - alpha) S`` folds into one operator per arm: ``D <- [I - eta_t P_t
    | -eta_t Q_t] [D; I]``.
    """
    block, (d, o) = len(iterates) - 1, w_star.shape[-2:]
    alpha = np.empty(coded_op.shape[:2])
    for j, x in enumerate(policies):
        alpha[:, j] = x.alpha if isinstance(x, FixedWeight) else [
            alpha_oracle(p, x.beta_sq, x.c_sq, d, o, NoiseParams(*pair)) for pair in noise[:, j]
        ]
    weights[...] = alpha
    alpha = alpha[..., None, None]
    step_ops, updates = np.empty((2, block, *coded_op.shape))
    keep = np.eye(d, coded_op.shape[-1])  # [I | 0]
    views = list(zip(updates, iterates, iterates[1:, ..., :d, :]))

    def step(rows, side_op, norm_at_opt, counts, eta):
        step_op, update_op = step_ops[:rows], updates[:rows]
        # [P_t | Q_t] = alpha C + (1 - alpha) S, built in the two buffers.
        np.multiply(alpha, coded_op, out=step_op)
        step_op += np.multiply(1.0 - alpha, side_op[..., :d, :], out=update_op)
        np.subtract(keep, np.multiply(eta, step_op, out=update_op), out=update_op)
        for update, aug, nxt in views[:rows]:
            np.matmul(update, aug, out=nxt)
        if grad_sq is not None:
            grad_sq[:rows] = _sq_norms(step_op @ iterates[:rows])

    return step


def _estimated_kernel(p, policies, noise, w_star, coded_op, iterates, weights, grad_sq):
    """The step of the :class:`AdaptiveEstimated` arms.

    Arguments as for :func:`_fold_kernel`; the weights start at the policies'
    ``fallback_alpha``.  An arm steps along ``S + alpha_t (C - S)`` with
    ``alpha_t = num / (num + rest)``: ``num = p b^2``, ``b^2`` the mean
    report of the latest row that heard one, and ``rest = c ||W||^2 +
    floor``, ``c = d s1 (1-p)``, ``floor = s2 o d (1-p)``.  At ``p = 0`` every
    device reports from the first step, and ``num = 0`` gives weight 0.  A
    row's operator per arm (:func:`_estimate_stack`, :func:`_load_sides`)
    holds the ``(5d, d + o)`` bands ``[[I | 0]; C - S; S; p fold / count; c [I
    | 2 W*]]``, ``fold`` the norm band of :func:`_masked_operators`.  Times
    ``[D; I]``, the first three give ``[D; C - S; S]``; the inner products of
    ``D`` with the others, plus the row's constants ``[p norm_at_opt / count,
    c ||W*||^2 + floor]``, give ``[num, rest]``, and a third product the
    update ``[1, -eta_t alpha_t, -eta_t] [D; C - S; S]``.  A ``c`` past
    ``sqrt(MAX)`` (~1.3e154) could overflow ``c (D + 2W*)`` while ``||W||^2``
    is finite; there the band keeps ``c = 1`` and the step adds the coded term
    (zero at a zero norm, also where ``d s1`` is inf) and floor itself.  A
    positive floor keeps ``num + rest`` positive (or NaN); only a zero floor
    needs the rule that a zero denominator gives a zero weight.
    """
    block, n_rep, ke, d, o = len(iterates) - 1, *iterates.shape[1:3], *w_star.shape[-2:]
    with np.errstate(over="ignore"):  # an infinite term is handled as such
        d_sigma1_sq, q, floor = _weight_terms(p, d, o, noise[..., 0], noise[..., 1])
        scale = d_sigma1_sq * q
    huge = scale > math.sqrt(np.finfo(float).max)
    any_huge = bool(huge.any())
    scale[huge] = 1.0
    may_vanish = not bool((floor > 0.0).all())
    stack = _estimate_stack(w_star, scale, min(block, STACK_ROWS))
    products = np.empty((*stack.shape[:-1], o))
    bands = products.reshape(*stack.shape[:3], 5, d * o)
    halves = bands[..., 3:, :].swapaxes(-1, -2)
    by_stack_row = list(zip(stack, products, bands[..., :3, :], halves))
    mix = np.ones((block, n_rep, ke, 1, 2))  # [alpha_t, 1] per arm
    etas = np.empty((block, n_rep, 1, 1, 1))  # -eta_t
    consts = np.empty((block, n_rep, ke, 1, 2))  # [p norm_at_opt / count, c ||W*||^2 + floor]
    consts[..., 0, 1] = np.where(huge, 0.0, floor) + scale * _sq_norms(w_star)
    live = np.empty((block, n_rep, 1), dtype=bool)  # replicates that have heard a report
    reports = np.empty((block, n_rep, 1), dtype=bool)  # replicates that hear a report
    flat = iterates[..., :d, :].reshape(block + 1, n_rep, ke, 1, d * o)
    per_row = zip(iterates, flat, flat[1:], consts, mix, mix[..., 0, 0], etas, live, reports)
    row_views = [(*by_stack_row[i % STACK_ROWS], *views) for i, views in enumerate(per_row)]
    forms = np.empty((n_rep, ke, 1, 2))
    fresh, rest = forms[..., 0, 0], forms[..., 0, 1]
    den = np.empty((n_rep, ke))
    kept = np.zeros((n_rep, ke))  # num of the latest row that heard a report
    reported = np.zeros((n_rep, 1), dtype=bool)  # has any device reported yet
    coef = np.ones((n_rep, ke, 1, 3))  # [1, -eta_t alpha_t, -eta_t]
    coef_tail = coef[..., 1:]

    def step(rows, side_op, norm_at_opt, counts, eta):
        # A row that hears no report keeps the latest num (copied per step).
        np.greater(counts[..., None], 0, out=reports[:rows])
        np.logical_or.accumulate(reports[:rows] | reported, axis=0, out=live[:rows])
        reported[...] = live[rows - 1]
        num = fresh if reports[:rows].all() else kept
        p_over_count = p / np.maximum(counts, 1)[:, :, None]
        side_op[..., d:, :] *= p_over_count[..., None, None]
        np.multiply(norm_at_opt, p_over_count, out=consts[:rows, ..., 0, 0])
        np.negative(eta, out=etas[:rows])
        mix[:rows, ..., 0, 0] = [x.fallback_alpha for x in policies]
        for lo in range(0, rows, STACK_ROWS):
            hi = min(lo + STACK_ROWS, rows)
            _load_sides(stack, side_op[lo:hi], coded_op)
            for (
                op, prod, pair, half, aug, dev, nxt, const, mix_t, alpha_t, eta_t, live_t, report_t,
            ) in row_views[lo:hi]:
                np.matmul(op, aug, out=prod)
                np.matmul(dev, half, out=forms)
                np.add(forms, const, out=forms)
                if num is kept:
                    np.copyto(kept, fresh, where=report_t)
                if any_huge:  # rest holds ||W||^2 there
                    coded_term = np.where(rest != 0.0, d_sigma1_sq * rest, 0.0) * q
                    np.copyto(rest, coded_term + floor, where=huge)
                np.add(num, rest, out=den)
                np.divide(num, den, out=alpha_t, where=live_t)
                if may_vanish:
                    np.copyto(alpha_t, 0.0, where=live_t & (den <= 0.0))
                np.multiply(eta_t, mix_t, out=coef_tail)
                np.matmul(coef, pair, out=nxt)
            if grad_sq is not None:  # these rows' gradients, [alpha_t, 1] [C - S; S]
                grad_sq[lo:hi] = _sq_norms(mix[lo:hi] @ bands[: hi - lo, ..., 1:3, :])
        np.copyto(kept, num)  # the latest num, into the next block
        weights[:rows] = mix[:rows, ..., 0, 0]

    return step


def train(
    ds: Sequence[FederatedDataset],
    coded: Sequence[Sequence[GlobalCodedData]],
    policies: Sequence[AggregationPolicy],
    straggler_p: float,
    steps: int,
    schedule: InverseDecay | None,
    stream: Sequence[RngStream],
    *,
    columns: Sequence[str] = TRACE_COLUMNS[:-1],
) -> tuple[tuple[TrainingTrace, ...], ...]:
    """Run the two-source training loop for ``steps`` iterations on every arm
    of R replicates, which advance together in one loop.

    Replicate ``r`` is the dataset ``ds[r]`` and ``stream[r]`` under the one
    ``schedule`` (``None``: each replicate's own ``1/(lam t)``,
    :func:`schedule_for_strong_convexity` of its optimum's ``lam``), and arm
    ``j`` weighs its coded sums ``coded[r][j]`` against the device gradients
    by ``policies[j]`` in every replicate; the adaptive policies weigh the
    coded gradient's noise by the variances the sums carry
    (``coded[r][j].noise``).  The replicates share the dataset shape.  A
    replicate's arms share its dataset, straggler masks and initial iterate,
    and each has its own coded sums and iterate.  Returns one tuple of
    traces per replicate, one trace per arm, in order; each replicate's
    traces, and each arm's, are those it gets trained alone.  A trace holds
    the columns of :data:`TRACE_COLUMNS` named in ``columns`` (by default
    all but ``max_device_grad_sq``), the others ``None``; a column not asked
    for is not computed, and no recorded value depends on which others are.

    Per iteration: take each replicate's presence mask ``b``, pick each
    arm's ``alpha_t`` per its policy, blend the coded gradient ``H_X W -
    H_Y`` with the received sum ``sum_i b_i (A_i W - B_i)``, then step ``W
    <- W - eta_t * G_all`` (``eta_1`` applies to the first update).

    The loop never touches a device: it iterates ``D = W - W*`` on ``(R, K,
    d, o)`` arrays, so a step costs the same for any number of devices.
    Once per call, every device's statistics are centred at ``W* =
    optimum(ds[r]).w_star`` (:func:`_centred_statistics`, with ``R_i = A_i
    W* - B_i``), which :func:`train` works out itself.  Once per block of
    :data:`MASK_CHUNK_ROWS` masks, one product of the block's masks with
    them gives every step's masked sums (:func:`_masked_operators`), whose
    norm band only an estimated weight or ``max_device_grad_sq`` reads (a
    call with neither builds the ``R_i`` alone).  An arm's kernel follows
    its policy type alone and derives its arms' weights: :func:`_fold_kernel`
    for fixed and oracle arms, :func:`_estimated_kernel` for estimated ones; a
    new kind is one kernel and one dispatch entry.  Built once per call from
    its slice of the arm axis (sorted by kernel), a kernel's ``step(rows,
    side_op, norm_at_opt, counts, eta)`` advances the slice's iterates by a
    block of ``rows`` steps and fills its weights and, if recorded, its
    ``grad_norm_sq``; the other columns follow each block.

    Deterministic given the streams: a replicate's mask for iteration ``t``
    is row ``t`` of the masks drawn, in blocks of rows, from one generator
    on its ``stream.child("mask")`` (so it does not depend on ``steps``, on
    the arms or on the other replicates), and its initial iterate, the
    trace's ``w0``, is uniform on ``[0, 1/30]`` from ``stream.child("init")``.

    :class:`AdaptiveEstimated` uses the mean squared norm of the latest
    reports, kept across iterations in which no device reports, and
    ``fallback_alpha`` before the first report.  The recorded loss is
    ``loss_at_optimum + <D, (sum_i A_i) D> / 2``, which stays accurate near
    the optimum; a trace's ``final_loss`` is that loss at its ``final_w``
    (``w0`` after zero steps), equal to :func:`~acfl.dataset.loss` there.

    Raises :class:`NumericError` naming the first iteration, arm and
    replicate (its position in the call) at which a recorded value of that
    arm's trace row, its weight or ``||D_t||^2`` is not finite, or, as
    iteration ``steps``, an arm whose final iterate has a non-finite
    ``||D_T||^2`` or loss; rows are checked a block at a time, and the first
    bad row is named, with the arm's last finite loss (of the rows held,
    where the loss is not recorded: the block's and the one before it;
    ``not recorded`` if none of them is finite).
    """
    check("straggler_p", straggler_p, "lie in [0, 1)")
    check("steps", steps, "be nonnegative")
    names = _recorded(columns)
    datasets, coded, policies = tuple(ds), tuple(map(tuple, coded)), tuple(policies)
    streams = tuple(stream)
    if schedule is not None and not isinstance(schedule, InverseDecay):
        raise ParameterError(f"unsupported schedule: {schedule!r}")
    # The step kernel of each policy type: a new kind is one kernel and one entry.
    dispatch = {(FixedWeight, AdaptiveOracle): _fold_kernel, AdaptiveEstimated: _estimated_kernel}
    kinds = [next((i for i, t in enumerate(dispatch) if isinstance(x, t)), -1) for x in policies]
    if -1 in kinds:
        raise ParameterError(f"unsupported policy: {policies[kinds.index(-1)]!r}")
    n_rep, k = len(datasets), len(policies)
    if not n_rep:
        raise ParameterError("need at least one replicate to train")
    if any(len(seq) != n_rep for seq in (coded, streams)):
        raise ParameterError("give one dataset, coded list and stream per replicate")
    if not k:
        raise ParameterError("need at least one arm to train")
    n, d, o = datasets[0].n_devices, datasets[0].d, datasets[0].o
    inits = []
    for r in range(n_rep):
        if (datasets[r].n_devices, datasets[r].d, datasets[r].o) != (n, d, o):
            raise ParameterError(f"replicate {r}: dataset shape differs from replicate 0's")
        if len(coded[r]) != k:
            raise ParameterError(f"replicate {r}: {len(coded[r])} coded sums for {k} policies")
        for j, sums in enumerate(coded[r]):
            if sums.h_x_sum.shape != (d, d) or sums.h_y_sum.shape != (d, o):
                raise ParameterError(
                    f"arm {j} of replicate {r}: coded data shapes do not match the dataset"
                )
        inits.append(streams[r].child("init").generator().uniform(0.0, W0_SCALE, size=(d, o)))
    entries = n_rep * trace_bytes(k, steps, d, o, names) // 8  # what the traces keep
    check_entries(entries, f"steps={steps}: the trace record")

    grams = [x.gram_x.reshape(n, d * d) for x in datasets]
    a_sum = np.stack([x.gram_x_sum for x in datasets])[:, None]  # (R, 1, d, d)
    facts = [optimum(x) for x in datasets]
    w_star = np.stack([f.w_star for f in facts])[:, None]  # (R, 1, d, o)
    loss_at_optimum = np.array([[f.loss_at_optimum] for f in facts])
    schedules = [schedule or schedule_for_strong_convexity(f.lam) for f in facts]
    rates = np.stack([s.rates(steps) for s in schedules], axis=1)  # (T, R)
    # [H_X | H_X W* - H_Y] times [D; I] is the coded gradient H_X W - H_Y.
    h_x = np.array([[sums.h_x_sum for sums in row] for row in coded])  # (R, K, d, d)
    h_y = np.array([[sums.h_y_sum for sums in row] for row in coded])
    coded_op = np.concatenate([h_x, h_x @ w_star - h_y], axis=-1)

    # The arm axis, sorted by kernel into slices; the caller's arm j is entry by_arm[j].
    order = np.argsort(kinds, kind="stable")
    by_arm, coded_op = np.argsort(order), coded_op[:, order]
    noise = np.array([[astuple(sums.noise) for sums in row] for row in coded])[:, order]
    cuts = np.searchsorted(np.sort(kinds), range(len(dispatch) + 1))
    arms_of = {f: slice(lo, hi) for f, lo, hi in zip(dispatch.values(), cuts, cuts[1:]) if lo < hi}

    # Per replicate, one row per device: the centred statistics (R_i alone if no
    # norm is read); a block of masks times them and the Grams gives every sum.
    reads_norms = _estimated_kernel in arms_of or "max_device_grad_sq" in names
    width = d * d + 2 * d * o + 1 if reads_norms else d * o
    check_entries(n_rep * n * width, f"n_devices={n}, d={d}, o={o}: device statistics")
    stats = np.empty((n_rep, n, width))
    for r, (x, f) in enumerate(zip(datasets, facts)):
        _centred_statistics(x, f.w_star, stats[r])

    # Every recorded trace column of every replicate and arm, by iteration:
    # the traces keep views of it, so each column is stored once.
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
    alphas = np.empty((block, n_rep, k))  # a block's weight column
    grad_sq = np.empty((block, n_rep, k)) if "grad_norm_sq" in names else None

    # Each kernel scales only the bands of a block's side_op that it alone
    # reads, so the order in which they run does not matter.
    kernels = []
    for kernel, arms in arms_of.items():
        own = ([policies[j] for j in order[arms]], noise[:, arms], w_star, coded_op[:, arms])
        trace_rows = (alphas[..., arms], None if grad_sq is None else grad_sq[..., arms])
        kernels.append(kernel(straggler_p, *own, iterates[:, :, arms], *trace_rows))

    def loss_of(dev: np.ndarray) -> np.ndarray:
        """The loss at every ``W* + D`` of a ``(..., R, K, d, o)`` stack."""
        return loss_at_optimum + 0.5 * np.einsum("...ij,...ij->...", dev, a_sum @ dev)

    # Each other column of TRACE_COLUMNS at a block's iterates, as a (rows, R,
    # K) array; every block computes dist_sq, which it checks.
    column_of = {
        "alpha": lambda dev: alphas[: len(dev)],
        "loss": loss_of,
        "grad_norm_sq": lambda dev: grad_sq[: len(dev)],
        "w_norm_sq": lambda dev: _sq_norms(dev + w_star),
        "max_device_grad_sq": lambda dev: _max_device_sq(stats, dev),
    }

    def diverged(t: int, i: int, bad: np.ndarray) -> NumericError:
        """The error naming iteration ``t``, row ``i`` of the block, and the
        first (replicate, arm) of the ``(R, K)`` mask ``bad`` (sorted arm
        order), with the last finite loss of that arm's rows held."""
        r, j = (int(x) for x in np.argwhere(bad[:, by_arm])[0])
        jj = by_arm[j]  # the arm's entry on the sorted axis
        losses = loss_of(devs[: i + 1])[:, r, jj]
        if "loss" in names:  # and the earlier blocks' losses
            losses = np.concatenate([record[names.index("loss"), r, jj, : t - i], losses])
        elif before is not None:  # and the loss just before the block
            losses = np.concatenate([[loss_of(before)[r, jj]], losses])
        finite = losses[np.isfinite(losses)]
        last_loss = repr(float(finite[-1])) if len(finite) else "not recorded"
        return NumericError(
            f"training diverged at iteration {t} in arm {j} ({policies[j]!r}) of replicate "
            f"{r}: a non-finite loss, weight or norm (last finite loss: {last_loss})"
        )

    rows, before = 0, None
    with np.errstate(all="ignore"):  # non-finite rows raise below
        for start in range(0, steps, MASK_CHUNK_ROWS):
            before = devs[rows - 1].copy() if start else None  # the last block's last iterate
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
            for step in kernels:
                step(rows, side_op, norm_at_opt, counts, rates[start:stop, :, None, None, None])
            del side_op  # the block's columns follow; free what they do not read
            dev = devs[:rows]
            dist = _sq_norms(dev)
            for c, name in enumerate(names):
                value = dist if name == "dist_sq" else column_of[name](dev)
                record[c, ..., start:stop] = value.transpose(1, 2, 0)
            # Every recorded value, ||D_t||^2 and the weight must be finite; a
            # weight lies in [0, 1] unless it is NaN, so their sum is finite
            # exactly where both are.
            bad = ~np.isfinite(dist + alphas[:rows])
            if names:
                bad |= ~np.isfinite(record[..., start:stop]).all(axis=0).transpose(2, 0, 1)
            if bad.any():
                i = int(np.argmax(bad.any(axis=(1, 2))))
                raise diverged(start + i, i, bad[i])
        # The final iterate and its loss, checked like a row: iteration `steps`.
        w = w_star + devs[rows] if steps else np.repeat(np.stack(inits)[:, None], k, axis=1)
        dev = w - w_star
        final_loss = loss_at_optimum + 0.5 * np.sum(dev * (a_sum @ dev), axis=(-2, -1))
        bad = ~(np.isfinite(_sq_norms(devs[rows])) & np.isfinite(final_loss))
        if bad.any():
            raise diverged(steps, rows, bad)

    return tuple(
        tuple(
            TrainingTrace(
                n_present=n_present[r],
                w0=inits[r],
                final_w=w[r, i],
                final_loss=float(final_loss[r, i]),
                mask_digest=mask_hashes[r].hexdigest(),
                **{**dict.fromkeys(TRACE_COLUMNS), **dict(zip(names, record[:, r, i]))},
            )
            for i in by_arm
        )
        for r in range(n_rep)
    )
