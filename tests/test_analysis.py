import math
from dataclasses import replace

import numpy as np
import pytest

from acfl.analysis import (
    BoundInputs,
    comm_overhead,
    convergence_bound,
    tradeoff_curve,
    u_of,
    u_tilde,
)
from acfl.errors import ParameterError
from acfl.training import alpha_oracle

REF_INPUTS = BoundInputs(
    p=0.1, n_devices=5, beta_sq=100.0, c_sq=1.0, d=100, o=10,
    sigma1_sq=1.0, sigma2_sq=1.0, lam=1.0, steps=1000,
)


def _random_inputs(rng) -> BoundInputs:
    return BoundInputs(
        p=float(rng.uniform(0.0, 0.9)),
        n_devices=int(rng.integers(1, 40)),
        beta_sq=float(rng.uniform(0.1, 50.0)),
        c_sq=float(rng.uniform(0.1, 50.0)),
        d=int(rng.integers(1, 30)),
        o=int(rng.integers(1, 30)),
        sigma1_sq=float(10 ** rng.uniform(-3, 2)),
        sigma2_sq=float(10 ** rng.uniform(-3, 2)),
        lam=float(rng.uniform(0.1, 10.0)),
        steps=int(rng.integers(1, 5000)),
    )


def test_u_collapses_without_stragglers_at_zero_weight():
    inputs = BoundInputs(
        p=0.0, n_devices=7, beta_sq=3.0, c_sq=1.0, d=4, o=2,
        sigma1_sq=1.0, sigma2_sq=1.0, lam=1.0, steps=10,
    )
    assert u_of(inputs, 0.0) == pytest.approx(7**2 * 3.0, rel=1e-12)


def test_u_reference_point():
    assert u_of(REF_INPUTS, 0.01) == pytest.approx(2555.0, abs=1e-6)


def test_u_full_weight_zero_noise():
    inputs = BoundInputs(
        p=0.3, n_devices=6, beta_sq=2.0, c_sq=1.0, d=4, o=2,
        sigma1_sq=0.0, sigma2_sq=0.0, lam=1.0, steps=10,
    )
    # bracket becomes p + (1-p) + N - 1 = N
    assert u_of(inputs, 1.0) == pytest.approx(6**2 * 2.0, rel=1e-12)


def test_u_tilde_zero_noise():
    inputs = BoundInputs(
        p=0.4, n_devices=5, beta_sq=7.0, c_sq=2.0, d=3, o=2,
        sigma1_sq=0.0, sigma2_sq=0.0, lam=1.0, steps=10,
    )
    assert u_tilde(inputs) == pytest.approx(5**2 * 7.0, rel=1e-12)


def test_u_tilde_reference_point():
    assert u_tilde(REF_INPUTS) == pytest.approx(2555.0, abs=1e-6)


def test_u_tilde_equals_u_at_oracle_weight():
    rng = np.random.default_rng(0)
    # Near p = 1 with a huge b^2, squaring p N b^2 / (1-p) would overflow.
    extreme = BoundInputs(
        p=0.999999, n_devices=1, beta_sq=1e300, c_sq=1.0, d=2, o=2,
        sigma1_sq=1.0, sigma2_sq=1.0, lam=1e300, steps=10**18,
    )
    for inputs in [extreme, *(_random_inputs(rng) for _ in range(100))]:
        alpha = alpha_oracle(
            inputs.p, inputs.beta_sq, inputs.c_sq, inputs.d, inputs.o, inputs.noise()
        )
        assert u_tilde(inputs) == pytest.approx(u_of(inputs, alpha), rel=1e-9)


def test_oracle_weight_minimizes_u_on_grid():
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(50):
        inputs = _random_inputs(rng)
        alpha = alpha_oracle(
            inputs.p, inputs.beta_sq, inputs.c_sq, inputs.d, inputs.o, inputs.noise()
        )
        u_star = u_of(inputs, alpha)
        values = [u_of(inputs, float(a)) for a in grid]
        assert u_star <= min(values) + 1e-12
        assert abs(grid[int(np.argmin(values))] - alpha) <= 1e-3 + 1e-12


def test_u_quadratic_coefficient():
    rng = np.random.default_rng(2)
    for _ in range(20):
        inputs = _random_inputs(rng)
        n, p = inputs.n_devices, inputs.p
        expect = (
            n * inputs.beta_sq * p / (1 - p)
            + n * inputs.d * inputs.sigma1_sq * inputs.c_sq
            + n * inputs.sigma2_sq * inputs.o * inputs.d
        )
        # second difference of a quadratic recovers its leading coefficient
        coeff = 2.0 * (u_of(inputs, 0.0) - 2.0 * u_of(inputs, 0.5) + u_of(inputs, 1.0))
        assert coeff == pytest.approx(expect, rel=1e-9)


def test_u_tilde_monotone_in_noise():
    lo = BoundInputs(
        p=0.2, n_devices=5, beta_sq=4.0, c_sq=1.0, d=6, o=3,
        sigma1_sq=0.1, sigma2_sq=0.1, lam=1.0, steps=10,
    )
    hi1 = BoundInputs(
        p=0.2, n_devices=5, beta_sq=4.0, c_sq=1.0, d=6, o=3,
        sigma1_sq=10.0, sigma2_sq=0.1, lam=1.0, steps=10,
    )
    hi2 = BoundInputs(
        p=0.2, n_devices=5, beta_sq=4.0, c_sq=1.0, d=6, o=3,
        sigma1_sq=0.1, sigma2_sq=10.0, lam=1.0, steps=10,
    )
    assert u_tilde(lo) < u_tilde(hi1)
    assert u_tilde(lo) < u_tilde(hi2)


def test_convergence_bound_values():
    inputs = BoundInputs(
        p=0.1, n_devices=2, beta_sq=1.0, c_sq=1.0, d=2, o=2,
        sigma1_sq=1.0, sigma2_sq=1.0, lam=2.0, steps=100,
    )
    assert convergence_bound(inputs, 1000.0) == pytest.approx(10.0, rel=1e-12)
    doubled = BoundInputs(
        p=0.1, n_devices=2, beta_sq=1.0, c_sq=1.0, d=2, o=2,
        sigma1_sq=1.0, sigma2_sq=1.0, lam=2.0, steps=200,
    )
    assert convergence_bound(doubled, 1000.0) == pytest.approx(5.0, rel=1e-12)
    assert convergence_bound(REF_INPUTS, u_tilde(REF_INPUTS)) == pytest.approx(10.22, abs=1e-6)
    # lam^2 T underflows to 0 where the bound is past float range, and
    # overflows to inf where the bound is representable.
    tiny = replace(REF_INPUTS, lam=1e-200, steps=100)
    assert convergence_bound(tiny, 100.0) == math.inf
    huge = replace(REF_INPUTS, lam=1e300, steps=100)
    assert convergence_bound(huge, 1e300) == pytest.approx(4e-302, rel=1e-12)


def test_tradeoff_single_point():
    points = tradeoff_curve(REF_INPUTS, [1.0])
    assert len(points) == 1
    assert points[0].alpha == pytest.approx(0.01, abs=1e-12)
    assert points[0].epsilon == pytest.approx(104.5 * math.log(2.0), rel=1e-12)
    assert points[0].bound == pytest.approx(10.22, abs=1e-6)


def test_tradeoff_adaptive_dominates_fixed():
    grid = np.geomspace(1e-1, 1e3, 13)
    adaptive = tradeoff_curve(REF_INPUTS, grid)
    for alpha in np.linspace(0.0, 1.0, 11):
        fixed = tradeoff_curve(REF_INPUTS, grid, float(alpha))
        for a_pt, f_pt in zip(adaptive, fixed):
            assert a_pt.bound <= f_pt.bound + 1e-9


def test_tradeoff_high_noise_limit():
    points = tradeoff_curve(REF_INPUTS, [1e10])
    # alpha* -> 0, so the bound approaches 4 u(0) / (lam^2 T)
    limit = 4.0 * u_of(REF_INPUTS, 0.0) / (REF_INPUTS.lam**2 * REF_INPUTS.steps)
    assert points[0].bound == pytest.approx(limit, rel=1e-6)
    assert points[0].epsilon < 1e-7


def test_tradeoff_validation():
    with pytest.raises(ParameterError, match=r"^sigma_grid: need at least one value$"):
        tradeoff_curve(REF_INPUTS, [])
    with pytest.raises(
        ParameterError, match=r"^sigma_grid\[0\]: must be finite and positive, got 0.0$"
    ):
        tradeoff_curve(REF_INPUTS, [0.0])
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(
            ParameterError, match=rf"^sigma_grid\[1\]: must be finite and positive, got {bad}$"
        ):
            tradeoff_curve(REF_INPUTS, [1.0, bad])
    with pytest.raises(ParameterError, match=r"^alpha: must lie in \[0, 1\], got 1.5$"):
        tradeoff_curve(REF_INPUTS, [1.0], 1.5)
    with pytest.raises(ParameterError, match=r"^alpha: must lie in \[0, 1\], got 1.5$"):
        u_of(REF_INPUTS, 1.5)


def test_comm_overhead_reference_values():
    psi1, psi2, total = comm_overhead(32, 10, 10, 100, 1000)
    assert (psi1, psi2, total) == (640_000, 320_000_000, 320_640_000)


def test_comm_overhead_zero_steps():
    psi1, psi2, total = comm_overhead(32, 10, 10, 100, 0)
    assert psi2 == 0 and total == psi1


def test_comm_overhead_gradient_term_dominates():
    psi1, psi2, _ = comm_overhead(32, 10, 10, 100, 1000)
    assert psi2 * (10 + 10) == psi1 * 1000 * 10  # psi2/psi1 = T*o/(d+o)
    assert psi2 // psi1 == 500


def test_comm_overhead_exact_big_integers():
    _, psi2, total = comm_overhead(64, 1000, 1000, 10**6, 10**12)
    assert psi2 == 64 * 10**12 * 1000 * 1000 * 10**6
    assert total > psi2


def test_comm_overhead_rejects_non_integers():
    with pytest.raises(ParameterError):
        comm_overhead(32.5, 10, 10, 100, 1000)
    with pytest.raises(ParameterError):
        comm_overhead(32, 10, 10, 100, -1)


def test_bound_inputs_validation():
    # Each out-of-range field is refused by a message that names it; ``lam``
    # is named ``lambda``, as in a trade-off config.
    bad = [
        ("p", 1.0), ("p", -0.1), ("p", math.nan), ("n_devices", 0), ("d", 0), ("o", -1),
        ("beta_sq", 0.0), ("c_sq", -1.0), ("sigma1_sq", -1e-3), ("sigma2_sq", math.nan),
        ("lam", 0.0), ("steps", 0),
    ]
    for field, value in bad:
        name = "lambda" if field == "lam" else field
        with pytest.raises(ParameterError, match=rf"^{name}: must "):
            replace(REF_INPUTS, **{field: value})
    assert replace(REF_INPUTS, p=0.0, sigma1_sq=0.0, sigma2_sq=0.0).p == 0.0


@pytest.mark.parametrize(
    "field", ["n_devices", "beta_sq", "c_sq", "d", "o", "sigma1_sq", "sigma2_sq", "lam", "steps"]
)
def test_bound_inputs_refuse_infinity(field):
    # An infinite bound input made u or the distance bound inf, or the
    # bound 0.0 for an infinite lambda or T, with no error.
    name = "lambda" if field == "lam" else field
    rule = "be finite and nonnegative" if field.startswith("sigma") else "be finite and positive"
    with pytest.raises(ParameterError, match=rf"^{name}: must {rule}, got inf$"):
        replace(REF_INPUTS, **{field: math.inf})
