"""Property tests: the scalar weight formula, the centred statistics of the
training kernel and its stacked estimated-weight operator, the privacy
calibration, and the rank check's verdict."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from acfl.coding import NoiseParams
from acfl.dataset import _RANK_TOL, _deficient, optimum
from acfl.errors import ParameterError
from acfl.numerics import RngStream
from acfl.privacy import epsilon_of, sigma_for_epsilon
from acfl.training import (
    _centred_statistics,
    _estimate_stack,
    _load_sides,
    _masked_operators,
    _norm_terms,
    _weight_terms,
    alpha_oracle,
)
from reference import alpha_estimated, dataset_from_samples, replay_samples

MAX = sys.float_info.max
EXTREME_P = st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0 - 2**-53, 0.999999])
P = EXTREME_P | st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
NONNEGATIVE = st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, MAX]) | st.floats(
    min_value=0.0, max_value=MAX
)
POSITIVE = NONNEGATIVE.filter(lambda x: x > 0.0)


@given(p=P, d=st.integers(1, 1000), o=st.integers(1, 1000), sigma1_sq=NONNEGATIVE,
       sigma2_sq=NONNEGATIVE, beta_sq=POSITIVE, c_sq=POSITIVE,
       kind=st.sampled_from([float, np.float64]))
# d * sigma1_sq overflows, and so does the floor.
@example(p=0.5, d=2, o=1000, sigma1_sq=MAX, sigma2_sq=MAX, beta_sq=MAX, c_sq=MAX, kind=np.float64)
# The numerator underflows over a zero floor: the den <= 0 branch.
@example(p=5e-324, d=3, o=2, sigma1_sq=0.0, sigma2_sq=0.0, beta_sq=5e-324, c_sq=MAX, kind=float)
# No stragglers, and a straggler probability one ulp below 1.
@example(p=0.0, d=3, o=2, sigma1_sq=MAX, sigma2_sq=MAX, beta_sq=MAX, c_sq=MAX, kind=np.float64)
@example(p=1.0 - 2**-53, d=1000, o=1000, sigma1_sq=MAX, sigma2_sq=MAX, beta_sq=MAX,
         c_sq=5e-324, kind=np.float64)
def test_estimated_weights_equal_the_scalar_form(p, d, o, sigma1_sq, sigma2_sq, beta_sq, c_sq,
                                                 kind):
    # alpha_oracle agrees bit for bit with the scalar reference, and is a
    # float in [0, 1], for extreme p, variances and bounds, whether its inputs
    # are Python floats or numpy doubles, and without a floating-point
    # warning.  Training reads the same weight terms (_weight_terms) off its
    # stacked operator instead.
    noise = NoiseParams(kind(sigma1_sq), kind(sigma2_sq))
    alpha = alpha_oracle(kind(p), kind(beta_sq), kind(c_sq), d, o, noise)
    expect = alpha_estimated(p, d, o, NoiseParams(sigma1_sq, sigma2_sq), beta_sq, c_sq)
    assert type(alpha) is float
    assert alpha.hex() == expect.hex()
    assert 0.0 <= alpha <= 1.0


EPSILON = st.sampled_from(
    [5e-324, 1e-310, sys.float_info.min, 1e-300, 700.0, 1e300, math.inf]
) | st.floats(min_value=0.0, max_value=math.inf, exclude_min=True)


@given(epsilon=EPSILON, d=st.integers(1, 1000), o=st.integers(1, 1000))
# Below the smallest normal exponent, at it, and past the zero-noise clamp.
@example(epsilon=5e-324, d=1, o=1)
@example(epsilon=sys.float_info.min, d=1, o=1)
@example(epsilon=1e6, d=1, o=1)
def test_sigma_for_epsilon_round_trips_or_refuses(epsilon, d, o):
    # Calibrating the noise for a target epsilon and measuring it again gives
    # the target back, unless the target lies beyond a clamp edge: then the
    # refusal is an explicit ParameterError, never a wrong value or a crash.
    try:
        noise = sigma_for_epsilon(epsilon, d, o)
    except ParameterError as e:
        # Tiny targets need a variance beyond the largest double.
        assert "too small" in str(e)
        assert epsilon / (d - 0.5 + o / 2.0) < sys.float_info.min
        return
    if noise.sigma1_sq == 0.0:
        # Huge targets clamp to zero noise, whose epsilon is unbounded.
        with pytest.raises(ParameterError, match="unbounded"):
            epsilon_of(noise, d, o)
        return
    assert math.isfinite(noise.sigma1_sq)
    assert epsilon_of(noise, d, o) == pytest.approx(epsilon, rel=1e-12, abs=0.0)


def _exact_sq_norms(ds, w_star, dev):
    """``||A_i (W* + D) - B_i||^2`` for every device, in exact rational arithmetic
    on the float inputs, rounded once at the end."""
    w = [[Fraction(a) + Fraction(b) for a, b in zip(ra, rb)] for ra, rb in zip(w_star, dev)]
    d, o = dev.shape
    out = []
    for a, b in zip(ds.gram_x, ds.gram_xy):
        total = Fraction(0)
        for i in range(d):
            for c in range(o):
                g = sum(Fraction(a[i, j]) * w[j][c] for j in range(d)) - Fraction(b[i, c])
                total += g * g
        out.append(float(total))
    return np.array(out)


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 4),
    d=st.integers(1, 3),
    o=st.integers(1, 3),
    extra=st.integers(1, 5),
    case=st.sampled_from(["noise-free", "label-noise", "local-optimum"]),
    exponent=st.integers(0, 14),
    present=st.integers(0, 15),
)
def test_centred_statistics_match_direct_norms(seed, n, d, o, extra, case, exponent, present):
    # The kernel never forms a device gradient: it reads every squared norm
    # ||A_i W - B_i||^2 off the statistics centred at W* (R_i = A_i W* - B_i)
    # as <A_i^2, D D'> + 2 <A_i R_i, D> + ||R_i||^2 with D = W - W*.  Per
    # device and as the masked report sum, it must match the direct norm
    # (exact on the float inputs) within
    #
    #   atol_i = c eps [(|A_i| |D| + |R_i|)^2 + (|A_i| |W*| + |B_i|) (|A_i| |D| + |R_i|)]
    #            + (c eps (|A_i| |W*| + |B_i|))^2 ,   c = 4 (d o + d^2 + n) ,
    #
    # Frobenius norms throughout.  The first term is the rounding of the
    # centred sum itself, relative to its terms; the others carry the
    # rounding of R_i, computed from A_i W* and B_i, which the direct form
    # A_i W - B_i suffers alike.  Three cases: noise-free labels near W*,
    # noisy labels, and W at one device's local optimum, where that
    # device's centred terms cancel to about zero.
    root = RngStream(seed)
    noise_sd = 0.05 if case == "label-noise" else 0.0
    ds = dataset_from_samples(*replay_samples(n, d + extra, d, o, root.child("dataset"), noise_sd))
    w_star = optimum(ds).w_star
    if case == "local-optimum":
        j = seed % n
        dev = np.linalg.solve(ds.gram_x[j], ds.gram_xy[j]) - w_star
    else:
        dev = 10.0**-exponent * root.child("dev").generator().standard_normal((d, o))
    stats = _centred_statistics(ds, w_star, np.empty((n, d * d + 2 * d * o + 1)))
    per_device = stats[:, d * o :] @ _norm_terms(dev)  # the blocks after R_i
    mask = np.array([(present >> i) & 1 for i in range(n)], dtype=np.float64)
    side, norm_at_opt = _masked_operators(
        mask[None, None], [ds.gram_x.reshape(n, d * d)], stats[None], d, o, 0.0
    )
    report = float(np.sum(dev * (side[0, 0, 0] @ np.vstack([dev, np.eye(o)]))[d:]))
    report += float(norm_at_opt[0, 0, 0])

    exact = _exact_sq_norms(ds, w_star, dev)
    a_norm = np.linalg.norm(ds.gram_x, axis=(1, 2))
    res_norm = np.linalg.norm(ds.gram_x @ w_star - ds.gram_xy, axis=(1, 2))
    scale = a_norm * np.linalg.norm(dev) + res_norm
    offset = a_norm * np.linalg.norm(w_star) + np.linalg.norm(ds.gram_xy, axis=(1, 2))
    c_eps = 4 * (d * o + d * d + n) * np.finfo(float).eps
    atol = c_eps * (scale**2 + offset * scale) + (c_eps * offset) ** 2
    assert np.all(np.abs(per_device - exact) <= atol)
    assert abs(report - mask @ exact) <= mask @ atol


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 4),
    d=st.integers(1, 3),
    o=st.integers(1, 3),
    k=st.integers(1, 3),
    noisy=st.booleans(),
    exponent=st.integers(0, 14),
    present=st.integers(0, 15),
    p=st.sampled_from([0.0, 0.4, 0.9]),
    level=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
)
def test_stacked_operator_forms_match_direct_norms(
    seed, n, d, o, k, noisy, exponent, present, p, level
):
    # An estimated-weight step reads both sides of its weight off one
    # product of the stacked operator [[I | 0]; C - S; S; p fold / count;
    # c [I | 2W*]] with [D; I], one D and one c = d s1 (1-p) per arm, whose
    # first band is D exactly (the update reads it as is): <D, (p fold /
    # count) [D; I]> plus p norm_at_opt / count is p times the present
    # devices' mean squared gradient norm sum_i b_i ||A_i D + R_i||^2 /
    # count, the weight's numerator, and c <D, D + 2W*> plus c ||W*||^2 +
    # floor, floor = s2 o d (1-p), is c ||W||^2 + floor, the rest of its
    # denominator.  Against both exact on the float inputs (c and floor as
    # computed), the first must stay within p times the masked sum of the
    # centred-identity atol_i above over the count, and the second within
    #
    #   atol_r = 2 (d o + 3) eps c (|D| + |W*|)^2 + 2 eps floor .
    #
    # Here 2 (d o + 2) eps (|D| + |W*|)^2 bounds the rounding of ||W||^2 =
    # <D, D + 2W*> + ||W*||^2 (of D + 2W* and of the two inner products,
    # each a sum of d o terms, relative to the terms' magnitudes), which c
    # scales; forming c 2W*, c D and c ||W*||^2 rounds three terms no larger
    # than c (|D| + |W*|)^2 once more, by eps/2 each; adding the floor
    # (two roundings) and rounding the exact value once move the result by
    # at most 1.5 eps floor.  Scaling the fold and norm_at_opt by p / count
    # rounds every term of the mean as scaling by 1 / count does, by at most
    # eps/2 twice of a term no larger than (|A_i| |D| + |R_i|)^2, which the
    # c eps >= 12 eps of atol_i covers.  On 3,000 seeded draws of these
    # cases the errors stayed below 0.07 of the first bound and 0.5 atol_r,
    # one ulp of a value the floor dominates.
    root = RngStream(seed)
    noise_sd = 0.05 if noisy else 0.0
    ds = dataset_from_samples(*replay_samples(n, d + 2, d, o, root.child("dataset"), noise_sd))
    w_star = optimum(ds).w_star
    rng = root.child("dev").generator()
    devs = 10.0**-exponent * rng.standard_normal((k, d, o))
    stats = _centred_statistics(ds, w_star, np.empty((n, d * d + 2 * d * o + 1)))
    mask = np.array([(present >> i) & 1 for i in range(n)], dtype=np.float64)
    count = max(mask.sum(), 1.0)
    arms = np.arange(1.0, k + 1)
    d_sigma1_sq, q, floor = _weight_terms(p, d, o, level * arms, level / arms)
    scale = d_sigma1_sq * q
    side, norm_at_opt = _masked_operators(
        mask[None, None], [ds.gram_x.reshape(n, d * d)], stats[None], d, o, p
    )
    p_over_count = p / count
    side[..., d:, :] *= p_over_count
    stack = _estimate_stack(w_star[None, None], scale[None], 1)
    _load_sides(stack, side, rng.standard_normal((1, k, d, d + o)))
    augmented = np.concatenate([devs, np.broadcast_to(np.eye(o), (k, o, o))], axis=1)
    bands = (stack[0] @ augmented[None]).reshape(1, k, 5, d * o)
    assert np.array_equal(bands[0, :, 0], devs.reshape(k, d * o))
    forms = (devs.reshape(1, k, 1, d * o) @ bands[:, :, 3:].swapaxes(-1, -2))[0, :, 0]
    num = forms[:, 0] + norm_at_opt[0, 0, 0] * p_over_count
    rest = forms[:, 1] + (floor + scale * np.sum(w_star**2))

    a_norm = np.linalg.norm(ds.gram_x, axis=(1, 2))
    res_norm = np.linalg.norm(ds.gram_x @ w_star - ds.gram_xy, axis=(1, 2))
    offset = a_norm * np.linalg.norm(w_star) + np.linalg.norm(ds.gram_xy, axis=(1, 2))
    c_eps = 4 * (d * o + d * d + n) * np.finfo(float).eps
    eps = np.finfo(float).eps
    for dev, num_j, rest_j, c, f in zip(devs, num, rest, scale, floor):
        scale_j = a_norm * np.linalg.norm(dev) + res_norm
        atol = c_eps * (scale_j**2 + offset * scale_j) + (c_eps * offset) ** 2
        exact = _exact_sq_norms(ds, w_star, dev)
        exact_num = float(Fraction(p) * sum(Fraction(x) for x in mask * exact) / Fraction(count))
        assert abs(num_j - exact_num) <= p * (mask @ atol) / count
        w = [[Fraction(a) + Fraction(b) for a, b in zip(ra, rb)] for ra, rb in zip(w_star, dev)]
        exact_rest = float(Fraction(c) * sum(x * x for row in w for x in row) + Fraction(f))
        norms_sq = (np.linalg.norm(dev) + np.linalg.norm(w_star)) ** 2
        atol_r = 2 * (d * o + 3) * eps * c * norms_sq + 2 * eps * f
        assert abs(rest_j - exact_rest) <= atol_r


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 33),
    log_norm=st.floats(-9.0, 4.0),
    log_delta=st.floats(-6.0, 0.0),
    above=st.booleans(),
)
def test_rank_check_verdict_matches_the_eigenvalue_criterion(seed, d, log_norm, log_delta, above):
    """The batched-Cholesky verdict equals ``eigvalsh(A)[0] <= tau`` outside a
    rounding band.

    ``A = Q diag(lam) Q'`` with a random orthogonal ``Q``, ``lam_min =
    tau (1 +- delta)`` for ``delta`` in ``[1e-6, 1]`` and ``||A||_2`` up to
    ``1e4``.  The band is ``|lam_min - tau| <= 4 d eps ||A||_2``: inside it
    either verdict is rounding; outside it the two must agree.  On 6,000
    seeded draws of this construction every disagreement lay within 0.04 of
    that band's width from the threshold.
    """
    rng = np.random.default_rng(seed)
    delta = 10.0**log_delta
    lam_min = _RANK_TOL * (1.0 + delta if above else 1.0 - delta)
    lam = np.full(d, lam_min)
    if d > 1:
        norm = max(10.0**log_norm, lam_min)
        lam[1:] = rng.uniform(lam_min, norm, d - 1)
        lam[-1] = norm
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    a = (q * lam) @ q.T
    a = (a + a.T) / 2.0
    verdict = _deficient(a[None]).tolist() == [0]
    if abs(lam_min - _RANK_TOL) > 4 * d * np.finfo(float).eps * lam.max():
        assert verdict == (np.linalg.eigvalsh(a)[0] <= _RANK_TOL)
