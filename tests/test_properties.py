"""Property tests: the batched weight formula and the privacy calibration."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acfl.coding import NoiseParams
from acfl.errors import ParameterError
from acfl.privacy import epsilon_of, sigma_for_epsilon
from acfl.training import _estimated_weights, alpha_estimated

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
