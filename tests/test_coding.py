import math

import numpy as np
import pytest

from acfl.coding import NoiseParams, encode_levels, payload_size
from acfl.dataset import generate
from acfl.errors import ParameterError
from acfl.numerics import RngStream


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


def test_aggregate_matches_bruteforce_entry_loop():
    # The server's sums equal a scalar loop over the uploads, entry by entry.
    ds = generate(5, 8, 3, 2, RngStream(6).child("data"))
    noise = NoiseParams(1.0, 1.0)
    stream = RngStream(6).child("enc")
    (total,) = encode_levels(ds, [noise], stream)
    z = stream.generator().standard_normal((5, 3, 5))
    uploads = [(ds.gram_x[i] + z[i, :, :3], ds.gram_xy[i] + z[i, :, 3:]) for i in range(5)]
    for idx in np.ndindex(3, 3):
        acc = 0.0
        for h_x, _ in uploads:
            acc += h_x[idx]
        assert acc == total.h_x_sum[idx]  # same fold order: exactly equal
    for idx in np.ndindex(3, 2):
        acc = 0.0
        for _, h_y in uploads:
            acc += h_y[idx]
        assert acc == total.h_y_sum[idx]


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


def _fold_of_noise_rows(ds, noise, stream):
    """Per-device uploads ``gram + noise row i``, added one by one in device order."""
    d = ds.d
    z = stream.generator().standard_normal((ds.n_devices, d, d + ds.o))
    h_x = ds.gram_x[0] + math.sqrt(noise.sigma1_sq) * z[0, :, :d]
    h_y = ds.gram_xy[0] + math.sqrt(noise.sigma2_sq) * z[0, :, d:]
    for i in range(1, ds.n_devices):
        h_x += ds.gram_x[i] + math.sqrt(noise.sigma1_sq) * z[i, :, :d]
        h_y += ds.gram_xy[i] + math.sqrt(noise.sigma2_sq) * z[i, :, d:]
    return h_x, h_y


@pytest.mark.parametrize("n", [1, 3, 5, 40])
def test_encode_dataset_equals_a_per_device_fold(n):
    ds = generate(n, 8, 3, 2, RngStream(8).child("data"))
    noise = NoiseParams(2.0, 0.5)
    stream = RngStream(8).child("encode", 0)
    (coded,) = encode_levels(ds, [noise], stream)
    h_x, h_y = _fold_of_noise_rows(ds, noise, stream)
    assert np.array_equal(coded.h_x_sum, h_x)
    assert np.array_equal(coded.h_y_sum, h_y)


def test_noise_rows_do_not_depend_on_device_count():
    # The block the encoder draws fills row-major, so with the fold test above
    # device i's noise is the same for any number of devices.
    stream = RngStream(9).child("encode", 0)
    three = stream.generator().standard_normal((3, 3, 5))
    five = stream.generator().standard_normal((5, 3, 5))
    assert three.tobytes() == five[:3].tobytes()


def test_encode_levels_equals_one_encode_per_level():
    # One noise draw scaled per level gives the bits of a fresh draw per level.
    ds = generate(6, 8, 3, 2, RngStream(11).child("data"))
    stream = RngStream(11).child("encode", 0)
    noises = [NoiseParams(0.1, 0.1), NoiseParams(10.0, 10.0), NoiseParams(2.0, 0.5)]
    for coded, noise in zip(encode_levels(ds, noises, stream), noises, strict=True):
        (alone,) = encode_levels(ds, [noise], stream)
        assert np.array_equal(coded.h_x_sum, alone.h_x_sum)
        assert np.array_equal(coded.h_y_sum, alone.h_y_sum)
