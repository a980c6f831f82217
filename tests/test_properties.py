"""Property tests: the batched weight formula, the centred statistics of the
training kernel, and the privacy calibration."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acfl.coding import NoiseParams
from acfl.dataset import generate, optimum
from acfl.errors import ParameterError
from acfl.numerics import RngStream
from acfl.privacy import epsilon_of, sigma_for_epsilon
from acfl.training import (
    _centred_statistics,
    _estimated_weights,
    _masked_operators,
    _norm_terms,
    alpha_estimated,
)

MAX = sys.float_info.max
EXTREME_P = st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0 - 2**-53, 0.999999])
P = EXTREME_P | st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
NONNEGATIVE = st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, MAX]) | st.floats(
    min_value=0.0, max_value=MAX
)
SHAPE = (2, 3)  # (replicates, arms)
ARRAYS = hnp.arrays(np.float64, SHAPE, elements=NONNEGATIVE)
ZEROS, HUGE = np.zeros(SHAPE), np.full(SHAPE, MAX)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(p=P, d=st.integers(1, 1000), o=st.integers(1, 1000), sigma1_sq=ARRAYS,
       sigma2_sq=ARRAYS, beta_sq=ARRAYS, c_sq=ARRAYS)
# d * sigma1_sq overflows while the iterate norm is zero.
@example(p=5e-324, d=2, o=1, sigma1_sq=HUGE, sigma2_sq=ZEROS, beta_sq=HUGE, c_sq=ZEROS)
# Every term is zero: the den <= 0 branch.
@example(p=0.5, d=3, o=2, sigma1_sq=ZEROS, sigma2_sq=ZEROS, beta_sq=ZEROS, c_sq=HUGE)
# No stragglers, and a straggler probability one ulp below 1.
@example(p=0.0, d=3, o=2, sigma1_sq=HUGE, sigma2_sq=HUGE, beta_sq=HUGE, c_sq=HUGE)
@example(p=1.0 - 2**-53, d=1000, o=1000, sigma1_sq=HUGE, sigma2_sq=HUGE, beta_sq=HUGE,
         c_sq=ZEROS)
def test_estimated_weights_equal_the_scalar_form(p, d, o, sigma1_sq, sigma2_sq, beta_sq, c_sq):
    # The (R, K) array form the training loop uses agrees bit for bit with
    # alpha_estimated entry by entry, and every weight is a finite number
    # in [0, 1], for extreme p, variances and norm estimates.
    weights = _estimated_weights(p, d, o, sigma1_sq, sigma2_sq)(beta_sq, c_sq)
    expect = np.array(
        [
            alpha_estimated(p, d, o, NoiseParams(s1, s2), b, c)
            for s1, s2, b, c in zip(sigma1_sq.flat, sigma2_sq.flat, beta_sq.flat, c_sq.flat)
        ]
    ).reshape(SHAPE)
    assert np.array_equal(weights, expect)
    assert np.isfinite(weights).all()
    assert ((weights >= 0.0) & (weights <= 1.0)).all()


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
    ds = generate(n, d + extra, d, o, root.child("dataset"), label_noise_sd=noise_sd)
    w_star = optimum(ds).w_star
    if case == "local-optimum":
        j = seed % n
        dev = np.linalg.solve(ds.gram_x[j], ds.gram_xy[j]) - w_star
    else:
        dev = 10.0**-exponent * root.child("dev").generator().standard_normal((d, o))
    stats = _centred_statistics(ds, w_star, np.empty((n, d * (d + 1) // 2 + 2 * d * o + 1)))
    per_device = stats[:, : -d * o] @ _norm_terms(dev)
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
