import math

import numpy as np
import pytest

from acfl.coding import (
    LocalCodedData,
    NoiseParams,
    aggregate_coded,
    encode_dataset,
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
        coded = encode_dataset(ds, NoiseParams(1.0, 1.0), root.child("mc", r))
        acc += coded.h_x_sum
        acc_sq += coded.h_x_sum**2
    mean = acc / k
    se = np.sqrt((acc_sq / k - mean**2) / k)
    assert np.all(np.abs(mean - gram_sum) <= 4.0 * se)


def _fold_of_noise_rows(ds, noise, stream):
    """Per-device uploads ``gram + noise row i``, summed in device order."""
    d = ds.d
    z = stream.generator().standard_normal((ds.n_devices, d, d + ds.o))
    uploads = [
        LocalCodedData(
            ds.gram_x[i] + math.sqrt(noise.sigma1_sq) * z[i, :, :d],
            ds.gram_xy[i] + math.sqrt(noise.sigma2_sq) * z[i, :, d:],
        )
        for i in range(ds.n_devices)
    ]
    return aggregate_coded(uploads)


@pytest.mark.parametrize("n", [1, 3, 5, 40])
def test_encode_dataset_equals_a_per_device_fold(n):
    ds = generate(n, 8, 3, 2, RngStream(8).child("data"))
    noise = NoiseParams(2.0, 0.5)
    stream = RngStream(8).child("encode", 0)
    coded = encode_dataset(ds, noise, stream)
    fold = _fold_of_noise_rows(ds, noise, stream)
    assert np.array_equal(coded.h_x_sum, fold.h_x_sum)
    assert np.array_equal(coded.h_y_sum, fold.h_y_sum)


def test_noise_rows_do_not_depend_on_device_count():
    # The block the encoder draws fills row-major, so with the fold test above
    # device i's noise is the same for any number of devices.
    stream = RngStream(9).child("encode", 0)
    three = stream.generator().standard_normal((3, 3, 5))
    five = stream.generator().standard_normal((5, 3, 5))
    assert three.tobytes() == five[:3].tobytes()


def test_encode_local_is_the_one_device_case():
    ds = generate(2, 8, 3, 2, RngStream(10).child("data"))
    stream = RngStream(10).child("enc")
    local = encode_local(ds.devices[1], NoiseParams(1.5, 0.25), stream)
    z = stream.generator().standard_normal((1, 3, 5))[0]
    assert np.array_equal(local.h_x, ds.gram_x[1] + math.sqrt(1.5) * z[:, :3])
    assert np.array_equal(local.h_y, ds.gram_xy[1] + math.sqrt(0.25) * z[:, 3:])
