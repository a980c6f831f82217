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
import math
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


def schedule_for_strong_convexity(lam: float) -> InverseDecay:
    """The ``1/(lam t)`` schedule matching a strong-convexity constant."""
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam}")
    return InverseDecay(1.0 / lam)


def sample_stragglers(p: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean presence mask: each device independently present w.p. ``1 - p``.

    Consumes ``n`` uniform draws from ``rng``, so successive calls on one
    generator give the rows of one ``(T, n)`` block in order.
    """
    _check_p(p)
    if n < 1:
        raise ParameterError(f"need at least one device, got n={n}")
    return rng.random(n) >= p


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

    which equals :func:`alpha_oracle` at the same estimates.
    """
    _check_p(p)
    if p == 0.0:
        return 0.0
    num = p * beta_sq
    den = num + d * noise.sigma1_sq * c_sq * (1.0 - p) + noise.sigma2_sq * o * d * (1.0 - p)
    if den <= 0.0:
        # Every observed norm is zero and so is the noise: the gradient is
        # zero regardless of the weight.
        return 0.0
    return num / den


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


def _diverged(t: int, last_loss: float | None) -> NumericError:
    return NumericError(
        f"training diverged at iteration {t}: a non-finite loss, weight or gradient "
        f"norm (last finite loss: {last_loss!r})"
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


def train(
    ds: FederatedDataset,
    gc: GlobalCodedData,
    policy: AggregationPolicy,
    straggler_p: float,
    steps: int,
    schedule: InverseDecay,
    stream: RngStream,
    facts: ProblemFacts,
    *,
    noise: NoiseParams | None = None,
    w0: np.ndarray | None = None,
) -> TrainingTrace:
    """Run the two-source training loop for ``steps`` iterations.

    Per iteration: draw the presence mask, compute all device gradients and
    the coded gradient, pick ``alpha_t`` per ``policy``, aggregate, record
    the trace row, then step ``W <- W - eta_t * G_all`` (``eta_1`` applies
    to the first update).  Deterministic given ``stream``: the mask for
    iteration ``t`` is row ``t`` drawn from one generator on
    ``stream.child("mask")`` (so it does not depend on ``steps``) and, when
    ``w0`` is omitted, the initial iterate is uniform on ``[0, 1/30]`` drawn
    from ``stream.child("init")``.

    Adaptive policies need ``noise`` (the encoding variances) to weigh the
    coded gradient's noise contribution.  :class:`AdaptiveEstimated` uses
    the mean squared norm of the latest reports, kept across iterations in
    which no device reports, and ``fallback_alpha`` before the first report.

    Raises :class:`NumericError` naming the iteration when the loss, the
    weight or the aggregated gradient norm stops being finite.
    """
    _check_p(straggler_p)
    if steps < 0:
        raise ParameterError(f"steps must be nonnegative, got {steps}")
    if not isinstance(schedule, InverseDecay):
        raise ParameterError(f"unsupported schedule: {schedule!r}")
    if not isinstance(policy, (FixedWeight, AdaptiveOracle, AdaptiveEstimated)):
        raise ParameterError(f"unsupported policy: {policy!r}")
    if isinstance(policy, (AdaptiveOracle, AdaptiveEstimated)) and noise is None:
        raise ParameterError("adaptive policies need the encoding noise parameters")
    n, d, o = ds.n_devices, ds.d, ds.o
    if gc.h_x_sum.shape != (d, d) or gc.h_y_sum.shape != (d, o):
        raise ParameterError("coded data shapes do not match the dataset dimensions")
    if facts.w_star.shape != (d, o):
        raise ParameterError("facts.w_star shape does not match the dataset")

    if w0 is None:
        w0 = uniform_matrix(stream.child("init"), d, o, 0.0, W0_SCALE)
    else:
        w0 = as_matrix(w0, "w0").copy()
        if w0.shape != (d, o):
            raise ParameterError(f"w0 must be ({d}, {o}), got {w0.shape}")

    # Device-side quantities, stacked once: batched gradients are
    # A_i @ W - B_i, and the total loss follows from the same Grams.
    a_stack = np.stack([dev.gram_x for dev in ds.devices])
    b_stack = np.stack([dev.gram_xy for dev in ds.devices])
    a_sum = a_stack.sum(axis=0)
    b_sum = b_stack.sum(axis=0)
    y_sq = sum(float(np.sum(dev.y * dev.y)) for dev in ds.devices)

    if isinstance(policy, FixedWeight):
        alpha_const = policy.alpha
    elif isinstance(policy, AdaptiveOracle):
        alpha_const = alpha_oracle(
            straggler_p, n, policy.beta_sq, policy.c_sq, d, o, noise
        )
    else:
        alpha_const = None
    beta_sq = None  # mean squared device-gradient norm of the latest report

    cols = {
        name: np.zeros(steps)
        for name in (
            "alpha",
            "loss",
            "dist_sq",
            "grad_norm_sq",
            "w_norm_sq",
            "max_device_grad_sq",
        )
    }
    n_present = np.zeros(steps, dtype=np.int64)
    mask_rng = stream.child("mask").generator()
    mask_hash = hashlib.sha256()

    w = w0.copy()
    last_loss = None
    for t in range(steps):
        loss_t = max(
            0.5
            * (
                float(np.einsum("ij,ij->", w, a_sum @ w))
                - 2.0 * float(np.einsum("ij,ij->", w, b_sum))
                + y_sq
            ),
            0.0,
        )
        if math.isfinite(loss_t):
            last_loss = loss_t
        mask = sample_stragglers(straggler_p, n, mask_rng)
        mask_hash.update(mask.tobytes())
        grads = a_stack @ w - b_stack  # (n, d, o)
        sq_norms = np.einsum("ijk,ijk->i", grads, grads)
        w_norm_sq = float(np.sum(w * w))
        if alpha_const is not None:
            alpha_t = alpha_const
        else:
            if mask.any():
                beta_sq = float(sq_norms[mask].mean())
            if beta_sq is None:
                alpha_t = policy.fallback_alpha
            else:
                alpha_t = alpha_estimated(straggler_p, d, o, noise, beta_sq, w_norm_sq)
        # Checked before the coded gradient, which rejects a non-finite W.
        if not (math.isfinite(loss_t) and 0.0 <= alpha_t <= 1.0):
            raise _diverged(t, last_loss)
        g_all = aggregate(coded_gradient(gc, w), grads, mask, alpha_t, straggler_p)
        grad_norm_sq = float(np.sum(g_all * g_all))
        if not math.isfinite(grad_norm_sq):
            raise _diverged(t, last_loss)

        diff = w - facts.w_star
        cols["alpha"][t] = alpha_t
        n_present[t] = int(mask.sum())
        cols["loss"][t] = loss_t
        cols["dist_sq"][t] = float(np.sum(diff * diff))
        cols["grad_norm_sq"][t] = grad_norm_sq
        cols["w_norm_sq"][t] = w_norm_sq
        cols["max_device_grad_sq"][t] = float(sq_norms.max())

        w = w - schedule.rate(t + 1) * g_all

    return TrainingTrace(
        t=np.arange(steps, dtype=np.int64),
        alpha=cols["alpha"],
        n_present=n_present,
        loss=cols["loss"],
        dist_sq=cols["dist_sq"],
        grad_norm_sq=cols["grad_norm_sq"],
        w_norm_sq=cols["w_norm_sq"],
        max_device_grad_sq=cols["max_device_grad_sq"],
        w0=w0,
        final_w=w,
        mask_digest=mask_hash.hexdigest(),
    )
