"""Closed-form analysis: gradient second-moment bounds, the distance bound,
privacy/learning trade-off curves, and communication accounting.

The central object is ``u(alpha)``, an upper bound on ``E ||G_all||_F^2``
under the norm-bound assumptions.  It is a convex quadratic in ``alpha``,
its minimizer is the oracle aggregation weight, and ``4 u / (lam^2 T)``
bounds the expected squared distance to the optimum after ``T`` steps of
the ``1/(lam t)`` schedule.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from typing import Sequence

from .coding import NoiseParams, payload_size
from .errors import ParameterError, check
from .privacy import epsilon_of
from .training import alpha_oracle

__all__ = [
    "BoundInputs",
    "TradeoffPoint",
    "comm_overhead",
    "convergence_bound",
    "tradeoff_curve",
    "u_of",
    "u_tilde",
]


_BOUND_RULES = {
    "p": "lie in [0, 1)",
    "sigma1_sq": "be finite and nonnegative",
    "sigma2_sq": "be finite and nonnegative",
}


@dataclass(frozen=True)
class BoundInputs:
    """Everything the second-moment and distance bounds depend on: ``p`` lies
    in ``[0, 1)``, the variances are finite and nonnegative and every other
    field is finite and positive.  A range error names its field, ``lam``
    (the paper's lambda) as ``lambda``."""

    p: float
    n_devices: int
    beta_sq: float
    c_sq: float
    d: int
    o: int
    sigma1_sq: float
    sigma2_sq: float
    lam: float
    steps: int

    def __post_init__(self):
        for f in fields(self):
            rule = _BOUND_RULES.get(f.name, "be finite and positive")
            check("lambda" if f.name == "lam" else f.name, getattr(self, f.name), rule)

    def noise(self) -> NoiseParams:
        return NoiseParams(self.sigma1_sq, self.sigma2_sq)


def u_of(inputs: BoundInputs, alpha: float) -> float:
    """Second-moment bound on the aggregated gradient at weight ``alpha``:

        u = [a^2 p + (1-p)(a + (1-a)/(1-p))^2 + N - 1] * N b^2
            + a^2 N d s1 C^2 + a^2 N s2 o d .
    """
    check("alpha", alpha, "lie in [0, 1]")
    p, n = inputs.p, inputs.n_devices
    bracket = (
        alpha * alpha * p
        + (1.0 - p) * (alpha + (1.0 - alpha) / (1.0 - p)) ** 2
        + n
        - 1.0
    )
    return (
        bracket * n * inputs.beta_sq
        + alpha * alpha * n * inputs.d * inputs.sigma1_sq * inputs.c_sq
        + alpha * alpha * n * inputs.sigma2_sq * inputs.o * inputs.d
    )


def u_tilde(inputs: BoundInputs) -> float:
    """Minimum of ``u`` over ``alpha`` in ``[0, 1]`` (closed form):

        u~ = -(p N b^2/(1-p))^2 / (p N b^2/(1-p) + N d s1 C^2 + N s2 o d)
             + N b^2/(1-p) + N b^2 (N - 1) ,

    evaluated, with ``num = p N b^2/(1-p)``, ``rest = N d s1 C^2 + N s2 o d``
    and ``den = num + rest``, as the sum of nonnegative terms

        u~ = N b^2 (num/den + (rest/den)/(1-p) + N - 1) ,

    which neither cancels nor squares ``num``.
    """
    p, n, d = inputs.p, inputs.n_devices, inputs.d
    num = p * n * inputs.beta_sq / (1.0 - p)
    rest = n * d * inputs.sigma1_sq * inputs.c_sq + n * inputs.sigma2_sq * inputs.o * d
    den = num + rest
    if den == 0.0:
        # p = 0 with zero noise: u is minimized at alpha = 0.
        return u_of(inputs, 0.0)
    return n * inputs.beta_sq * (num / den + rest / den / (1.0 - p) + n - 1.0)


def convergence_bound(inputs: BoundInputs, u_sup: float) -> float:
    """Distance bound after ``T`` steps of ``eta_t = 1/(lam t)``:

        E ||W_T - W*||_F^2 <= 4 * u_sup / (lam^2 T) .
    """
    check("u_sup", u_sup, "be positive")
    return 4.0 * u_sup / inputs.lam / inputs.lam / inputs.steps  # lam^2 T may leave float range


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of a privacy/learning trade-off curve."""

    sigma_sq: float
    epsilon: float
    alpha: float
    u: float
    bound: float


def tradeoff_curve(
    base: BoundInputs,
    sigma_grid: Sequence[float],
    alpha: float | None = None,
) -> list[TradeoffPoint]:
    """Trade-off curve over a grid of common variances ``sigma1 = sigma2``.

    Each point pairs the privacy level of that variance with the distance
    bound it implies, using the given fixed ``alpha`` or, when ``alpha`` is
    ``None``, the adaptive optimum at each variance.  A variance at which
    ``u`` or the bound is not finite is refused with :class:`ParameterError`.
    """
    if len(sigma_grid) == 0:
        raise ParameterError("sigma_grid: need at least one value")
    points = []
    for i, sigma_sq in enumerate(sigma_grid):
        check(f"sigma_grid[{i}]", sigma_sq, "be finite and positive")
        inputs = replace(base, sigma1_sq=sigma_sq, sigma2_sq=sigma_sq)
        eps = epsilon_of(inputs.noise(), base.d, base.o)
        if alpha is None:
            a = alpha_oracle(base.p, base.beta_sq, base.c_sq, base.d, base.o, inputs.noise())
            u = u_tilde(inputs)
        else:
            a = alpha
            u = u_of(inputs, alpha)
        bound = math.nan if math.isnan(u) else convergence_bound(inputs, u)
        if not math.isfinite(bound):
            raise ParameterError(
                f"sigma_grid[{i}]: the bounds at {sigma_sq} are not finite "
                f"(u = {u}, bound = {bound})"
            )
        points.append(TradeoffPoint(float(sigma_sq), eps, a, u, bound))
    return points


def _as_int(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def comm_overhead(
    phi_bits: int, d: int, o: int, n_devices: int, steps: int
) -> tuple[int, int, int]:
    """Total uplink volume in bits over a whole run, as exact integers.

    ``psi1 = phi (d^2 + o d) N`` covers the one-time coded uploads and
    ``psi2 = phi T o d N`` the per-iteration gradients; returns
    ``(psi1, psi2, psi1 + psi2)``.  Python integers are arbitrary
    precision, so the arithmetic cannot overflow.  For ``T >> d`` the
    one-time term is negligible: ``psi2/psi1 = T o / (d + o)``.
    """
    phi_bits, d, o, n_devices = (
        check(name, _as_int(value, name), "be positive")
        for name, value in (("phi_bits", phi_bits), ("d", d), ("o", o), ("n_devices", n_devices))
    )
    steps = check("steps", _as_int(steps, "steps"), "be nonnegative")
    psi1 = phi_bits * payload_size(d, o) * n_devices
    psi2 = phi_bits * steps * o * d * n_devices
    return psi1, psi2, psi1 + psi2
