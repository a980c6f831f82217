import math

import numpy as np
import pytest

from acfl.coding import NoiseParams, encode_levels, payload_size
from acfl.dataset import generate
from acfl.errors import ParameterError
from acfl.numerics import RngStream
from reference import coded_sums


def test_noise_params_validation():
    with pytest.raises(ParameterError):
        NoiseParams(-1.0, 0.0)
    with pytest.raises(ParameterError):
        NoiseParams(0.0, -0.1)
    with pytest.raises(ParameterError, match="finite"):
        NoiseParams(math.nan, 1.0)
    with pytest.raises(ParameterError, match="finite"):
        NoiseParams(1.0, math.inf)


def test_zero_noise_encodes_exactly():
    ds = generate(1, 8, 3, 2, RngStream(1).child("data"))
    (coded,) = encode_levels(ds, [NoiseParams(0.0, 0.0)], RngStream(1).child("enc"))
    assert np.array_equal(coded.h_x_sum, ds.gram_x[0])
    assert np.array_equal(coded.h_y_sum, ds.gram_xy[0])


def test_encoded_shapes_independent_of_sample_count():
    ds = generate(1, 50, 10, 10, RngStream(2).child("data"))
    (coded,) = encode_levels(ds, [NoiseParams(1.0, 1.0)], RngStream(2).child("enc"))
    assert coded.h_x_sum.shape == (10, 10)
    assert coded.h_y_sum.shape == (10, 10)
    assert payload_size(10, 10) == 10 * 10 + 10 * 10


def test_encoding_deterministic_per_stream():
    ds = generate(1, 8, 3, 2, RngStream(3).child("data"))
    s = RngStream(3).child("enc", 0)
    (a,) = encode_levels(ds, [NoiseParams(2.0, 0.5)], s)
    (b,) = encode_levels(ds, [NoiseParams(2.0, 0.5)], s)
    assert np.array_equal(a.h_x_sum, b.h_x_sum) and np.array_equal(a.h_y_sum, b.h_y_sum)
    (c,) = encode_levels(ds, [NoiseParams(2.0, 0.5)], RngStream(3).child("enc", 1))
    assert not np.array_equal(a.h_x_sum, c.h_x_sum)


def test_noise_moments_over_reencodings():
    ds = generate(1, 6, 3, 2, RngStream(4).child("data"))
    root = RngStream(4)
    k = 10_000
    devs1 = np.empty((k, 3, 3))
    for r in range(k):
        (coded,) = encode_levels(ds, [NoiseParams(4.0, 1.0)], root.child("mc", r))
        devs1[r] = coded.h_x_sum - ds.gram_x[0]
    # per entry: 10^4 draws of std 2, so the mean's standard error is 2/100
    assert np.abs(devs1.mean(axis=0)).max() < 4 * (2 / 100)
    assert abs(devs1.var() - 4.0) < 0.1 * 4.0


def test_noise_variance_scales_with_device_count():
    # The summed noise of n devices has entry variance n * sigma^2: at n = 40
    # with unequal variances, a missing sqrt(n) or swapped blocks fails.
    n, s1, s2 = 40, 4.0, 1.0
    ds = generate(n, 6, 3, 2, RngStream(5).child("data"))
    gram_x, gram_xy = ds.gram_x.sum(axis=0), ds.gram_xy.sum(axis=0)
    root = RngStream(5)
    k = 10_000
    devs_x = np.empty((k, 3, 3))
    devs_y = np.empty((k, 3, 2))
    for r in range(k):
        (coded,) = encode_levels(ds, [NoiseParams(s1, s2)], root.child("mc", r))
        devs_x[r] = coded.h_x_sum - gram_x
        devs_y[r] = coded.h_y_sum - gram_xy
    for devs, var in ((devs_x, n * s1), (devs_y, n * s2)):
        assert np.all(np.abs(devs.var(axis=0) - var) < 0.1 * var)


def test_coded_sum_unbiased():
    ds = generate(2, 6, 2, 1, RngStream(7).child("data"))
    gram_sum = ds.gram_x[0] + ds.gram_x[1]
    root = RngStream(7)
    k = 100_000
    acc = np.zeros((2, 2))
    acc_sq = np.zeros((2, 2))
    for r in range(k):
        (coded,) = encode_levels(ds, [NoiseParams(1.0, 1.0)], root.child("mc", r))
        acc += coded.h_x_sum
        acc_sq += coded.h_x_sum**2
    mean = acc / k
    se = np.sqrt((acc_sq / k - mean**2) / k)
    assert np.all(np.abs(mean - gram_sum) <= 4.0 * se)


@pytest.mark.parametrize("n", [1, 3, 40])
def test_encode_levels_equals_the_one_block_reference(n):
    ds = generate(n, 8, 3, 2, RngStream(8).child("data"))
    noise = NoiseParams(2.0, 0.5)
    stream = RngStream(8).child("encode", 0)
    (coded,) = encode_levels(ds, [noise], stream)
    h_x, h_y = coded_sums(ds, noise, stream)
    assert np.array_equal(coded.h_x_sum, h_x)
    assert np.array_equal(coded.h_y_sum, h_y)


def test_encode_levels_equals_one_encode_per_level():
    # One noise draw scaled per level gives the bits of a fresh draw per level.
    ds = generate(6, 8, 3, 2, RngStream(11).child("data"))
    stream = RngStream(11).child("encode", 0)
    noises = [NoiseParams(0.1, 0.1), NoiseParams(10.0, 10.0), NoiseParams(2.0, 0.5)]
    for coded, noise in zip(encode_levels(ds, noises, stream), noises, strict=True):
        (alone,) = encode_levels(ds, [noise], stream)
        assert np.array_equal(coded.h_x_sum, alone.h_x_sum)
        assert np.array_equal(coded.h_y_sum, alone.h_y_sum)
