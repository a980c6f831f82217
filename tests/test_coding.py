import numpy as np
import pytest

from acfl.coding import (
    LocalCodedData,
    NoiseParams,
    aggregate_coded,
    encode_local,
    payload_size,
)
from acfl.dataset import generate
from acfl.errors import ParameterError
from acfl.numerics import RngStream


def test_noise_params_validation():
    with pytest.raises(ParameterError):
        NoiseParams(-1.0, 0.0)
    with pytest.raises(ParameterError):
        NoiseParams(0.0, -0.1)


def test_zero_noise_encodes_exactly():
    ds = generate(1, 8, 3, 2, RngStream(1).child("data"))
    dev = ds.devices[0]
    coded = encode_local(dev, NoiseParams(0.0, 0.0), RngStream(1).child("enc"))
    assert np.array_equal(coded.h_x, dev.gram_x)
    assert np.array_equal(coded.h_y, dev.gram_xy)


def test_encoded_shapes_independent_of_sample_count():
    ds = generate(1, 50, 10, 10, RngStream(2).child("data"))
    coded = encode_local(ds.devices[0], NoiseParams(1.0, 1.0), RngStream(2).child("enc"))
    assert coded.h_x.shape == (10, 10)
    assert coded.h_y.shape == (10, 10)
    assert payload_size(10, 10) == 10 * 10 + 10 * 10


def test_encoding_deterministic_per_stream():
    ds = generate(2, 8, 3, 2, RngStream(3).child("data"))
    s = RngStream(3).child("enc", 0)
    a = encode_local(ds.devices[0], NoiseParams(2.0, 0.5), s)
    b = encode_local(ds.devices[0], NoiseParams(2.0, 0.5), s)
    assert np.array_equal(a.h_x, b.h_x) and np.array_equal(a.h_y, b.h_y)
    c = encode_local(ds.devices[0], NoiseParams(2.0, 0.5), RngStream(3).child("enc", 1))
    assert not np.array_equal(a.h_x, c.h_x)


def test_noise_moments_over_reencodings():
    ds = generate(1, 6, 3, 2, RngStream(4).child("data"))
    dev = ds.devices[0]
    root = RngStream(4)
    k = 10_000
    devs1 = np.empty((k, 3, 3))
    for r in range(k):
        coded = encode_local(dev, NoiseParams(4.0, 1.0), root.child("mc", r))
        devs1[r] = coded.h_x - dev.gram_x
    # per entry: 10^4 draws of std 2, so the mean's standard error is 2/100
    assert np.abs(devs1.mean(axis=0)).max() < 4 * (2 / 100)
    assert abs(devs1.var() - 4.0) < 0.1 * 4.0


def test_aggregate_singleton():
    ds = generate(1, 8, 3, 2, RngStream(5).child("data"))
    coded = encode_local(ds.devices[0], NoiseParams(1.0, 1.0), RngStream(5).child("enc"))
    total = aggregate_coded([coded])
    assert np.array_equal(total.h_x_sum, coded.h_x)
    assert np.array_equal(total.h_y_sum, coded.h_y)


def test_aggregate_cancellation():
    rng = np.random.default_rng(0)
    h_x = rng.normal(size=(3, 3))
    h_y = rng.normal(size=(3, 2))
    total = aggregate_coded([LocalCodedData(h_x, h_y), LocalCodedData(-h_x, -h_y)])
    assert np.all(total.h_x_sum == 0.0)
    assert np.all(total.h_y_sum == 0.0)


def test_aggregate_matches_bruteforce_entry_loop():
    rng = np.random.default_rng(6)
    uploads = [LocalCodedData(rng.normal(size=(3, 3)), rng.normal(size=(3, 2))) for _ in range(5)]
    total = aggregate_coded(uploads)
    for idx in np.ndindex(3, 3):
        acc = 0.0
        for up in uploads:
            acc += up.h_x[idx]
        assert acc == total.h_x_sum[idx]  # same fold order: exactly equal
    for idx in np.ndindex(3, 2):
        acc = 0.0
        for up in uploads:
            acc += up.h_y[idx]
        assert acc == total.h_y_sum[idx]


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(ParameterError):
        aggregate_coded([])
    rng = np.random.default_rng(1)
    a = LocalCodedData(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
    b = LocalCodedData(rng.normal(size=(4, 4)), rng.normal(size=(4, 2)))
    with pytest.raises(ParameterError):
        aggregate_coded([a, b])


def test_coded_sum_unbiased():
    ds = generate(2, 6, 2, 1, RngStream(7).child("data"))
    gram_sum = ds.devices[0].gram_x + ds.devices[1].gram_x
    root = RngStream(7)
    k = 100_000
    acc = np.zeros((2, 2))
    acc_sq = np.zeros((2, 2))
    for r in range(k):
        coded = aggregate_coded(
            [encode_local(dev, NoiseParams(1.0, 1.0), root.child("mc", r, i)) for i, dev in enumerate(ds.devices)]
        )
        acc += coded.h_x_sum
        acc_sq += coded.h_x_sum**2
    mean = acc / k
    se = np.sqrt((acc_sq / k - mean**2) / k)
    assert np.all(np.abs(mean - gram_sum) <= 4.0 * se)
