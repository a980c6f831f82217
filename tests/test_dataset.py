import numpy as np
import pytest

from acfl import DeviceData, FederatedDataset, dataset
from acfl.dataset import eig_min_sum, generate, load_csv, loss, optimum, save_csv
from acfl.errors import NumericError, ParameterError
from acfl.numerics import RngStream, uniform_matrix

# m > d is required, so the identity-feature examples pad a zero row.
X_ID2 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_generate_reference_dimensions():
    ds = generate(100, 100, 10, 10, RngStream(42).child("data"))
    assert ds.n_devices == 100 and ds.d == 10 and ds.o == 10
    for dev in ds.devices:
        assert dev.x.shape == (100, 10)
        assert np.abs(dev.x).max() <= 1.0
        assert np.array_equal(dev.y, dev.x @ ds.w_true)
    assert ds.w_true.min() >= 0.0 and ds.w_true.max() <= 1.0 / 30.0


def test_generate_minimal_instance():
    ds = generate(1, 2, 1, 1, RngStream(0))
    assert ds.devices[0].x.shape == (2, 1)


def test_generate_rejects_m_le_d():
    with pytest.raises(ParameterError, match="full column rank"):
        generate(2, 5, 5, 1, RngStream(0))


def test_generate_deterministic():
    a = generate(4, 9, 3, 2, RngStream(13).child("data"))
    b = generate(4, 9, 3, 2, RngStream(13).child("data"))
    assert a.w_true.tobytes() == b.w_true.tobytes()
    for da, db in zip(a.devices, b.devices):
        assert da.x.tobytes() == db.x.tobytes()
        assert da.y.tobytes() == db.y.tobytes()


def test_generate_label_noise_changes_labels():
    clean = generate(2, 8, 3, 2, RngStream(5).child("data"))
    noisy = generate(2, 8, 3, 2, RngStream(5).child("data"), label_noise_sd=1e-3)
    assert np.array_equal(clean.devices[0].x, noisy.devices[0].x)
    assert not np.array_equal(clean.devices[0].y, noisy.devices[0].y)


def test_optimum_recovers_true_weights():
    for seed in range(3):
        ds = generate(5, 20, 6, 4, RngStream(seed).child("data"))
        facts = optimum(ds)
        assert np.linalg.norm(facts.w_star - ds.w_true) < 1e-8
        assert facts.loss_at_optimum < 1e-12


def test_loss_zero_at_true_weights():
    ds = generate(3, 12, 4, 2, RngStream(21).child("data"))
    assert loss(ds.w_true, ds) == pytest.approx(0.0, abs=1e-18)


def test_loss_identity_features():
    ds = FederatedDataset(X_ID2[None], np.zeros((1, 3, 2)))
    assert loss(np.eye(2), ds) == pytest.approx(1.0, abs=1e-15)


def test_loss_matches_bruteforce(random_instance):
    ds = random_instance(2)
    rng = np.random.default_rng(9)
    w = rng.normal(size=(ds.d, ds.o))
    total = 0.0
    for dev in ds.devices:
        for i in range(dev.m):
            for k in range(dev.o):
                r = sum(dev.x[i, j] * w[j, k] for j in range(dev.d)) - dev.y[i, k]
                total += 0.5 * r * r
    assert loss(w, ds) == pytest.approx(total, abs=1e-10)


@pytest.mark.parametrize("noise_sd", [0.0, 0.05])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_gram_form_matches_residuals_away_from_the_optimum(seed, noise_sd):
    # Final losses are reported in the Gram form loss_at_optimum +
    # <D, (sum_i A_i) D> / 2, which needs no (n, m, o) residuals.  Away from
    # the optimum, at |W - W*| from 1% to 10x |W*|, the residual form is
    # accurate too, and the two agree within rtol 1e-10.
    ds = generate(20, 30, 5, 3, RngStream(seed).child("data"), label_noise_sd=noise_sd)
    facts = optimum(ds)
    direction = np.random.default_rng(seed).standard_normal((5, 3))
    direction *= np.linalg.norm(facts.w_star) / np.linalg.norm(direction)
    for scale in (1e-2, 1e-1, 1.0, 10.0):
        w = facts.w_star + scale * direction
        assert loss(w, ds, facts) == pytest.approx(loss(w, ds), rel=1e-10, abs=0.0)


def test_loss_rejects_shape_mismatch(random_instance):
    ds = random_instance(3)
    with pytest.raises(ParameterError):
        loss(np.zeros((ds.d + 1, ds.o)), ds)


def test_optimum_diagonal_gram():
    # stacked identities give X'X = 2 I, so every eigenvalue is 2
    x = np.vstack([np.eye(3), np.eye(3)])
    y = np.zeros((6, 2))
    ds = FederatedDataset(x[None], y[None])
    facts = optimum(ds)
    assert facts.lam == pytest.approx(2.0, abs=1e-12)
    assert eig_min_sum(ds) == pytest.approx(2.0, abs=1e-12)


def test_optimum_stationarity(random_instance):
    ds = random_instance(7, n=4, m=14, d=5, o=3)
    facts = optimum(ds)
    grad = sum(dev.x.T @ (dev.x @ facts.w_star - dev.y) for dev in ds.devices)
    assert np.linalg.norm(grad) < 1e-7 * (1.0 + np.linalg.norm(facts.w_star))


def test_eig_min_sum_no_larger_than_lam(random_instance):
    ds = random_instance(11, n=5, m=12, d=4, o=2)
    assert eig_min_sum(ds) <= optimum(ds).lam + 1e-12


def test_strong_convexity_certificate(random_instance):
    ds = random_instance(4, n=3, m=9, d=3, o=2)
    facts = optimum(ds)
    rng = np.random.default_rng(12)
    for _ in range(50):
        w = rng.normal(size=(ds.d, ds.o))
        gap = loss(w, ds) - facts.loss_at_optimum
        dist_sq = float(np.sum((w - facts.w_star) ** 2))
        assert gap >= 0.5 * facts.lam * dist_sq - 1e-9


def test_loss_nonnegative_and_optimal(random_instance):
    ds = random_instance(6, n=2, m=6, d=2, o=1)
    facts = optimum(ds)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        w = rng.normal(size=(ds.d, ds.o))
        val = loss(w, ds)
        assert val >= 0.0
        assert facts.loss_at_optimum <= val + 1e-12


def test_csv_roundtrip(tmp_path, random_instance):
    ds = random_instance(10, n=3, m=7, d=3, o=2)
    save_csv(ds, tmp_path)
    back = load_csv(tmp_path)
    assert back.n_devices == ds.n_devices
    for da, db in zip(ds.devices, back.devices):
        assert np.array_equal(da.x, db.x)
        assert np.array_equal(da.y, db.y)


def test_csv_roundtrip_with_w_true(tmp_path):
    ds = generate(2, 8, 3, 2, RngStream(17).child("data"))
    save_csv(ds, tmp_path)
    back = load_csv(tmp_path)
    assert np.array_equal(back.w_true, ds.w_true)


def test_device_data_invariants():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):  # m <= d
        DeviceData(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 1)))
    with pytest.raises(ParameterError):  # entries out of range
        DeviceData(2.0 * np.vstack([np.eye(2), np.eye(2)]), np.zeros((4, 1)))
    with pytest.raises(ParameterError):  # rank deficient
        x = np.zeros((5, 2))
        x[:, 0] = rng.uniform(-1, 1, 5)
        x[:, 1] = x[:, 0]
        DeviceData(x, np.zeros((5, 1)))


# ------------------------------------------------------------ stacked layout


def test_gram_stacks_match_per_device_products(random_instance):
    ds = random_instance(3, n=5, m=9, d=4, o=3)
    assert ds.gram_x.shape == (5, 4, 4) and ds.gram_xy.shape == (5, 4, 3)
    for i in range(ds.n_devices):
        assert np.array_equal(ds.gram_x[i], ds.x[i].T @ ds.x[i])
        assert np.array_equal(ds.gram_xy[i], ds.x[i].T @ ds.y[i])
        assert np.array_equal(ds.devices[i].gram_x, ds.gram_x[i])


def test_generate_devices_do_not_depend_on_device_count():
    three = generate(3, 9, 3, 2, RngStream(31).child("data"))
    five = generate(5, 9, 3, 2, RngStream(31).child("data"))
    assert three.x.tobytes() == five.x[:3].tobytes()
    assert three.y.tobytes() == five.y[:3].tobytes()
    for i in range(5):  # one batched product, bit-equal to the per-device one
        assert np.array_equal(five.y[i], five.x[i] @ five.w_true)


def _fail_device_1(monkeypatch, times):
    """Make the first ``times`` rank checks report device 1 as deficient."""
    real = dataset._eig_min
    calls = []

    def forced(gram_x):
        eig = real(gram_x)
        if len(calls) < times:
            eig[min(1, len(eig) - 1)] = 0.0
        calls.append(len(gram_x))
        return eig

    monkeypatch.setattr(dataset, "_eig_min", forced)
    return calls


def test_generate_redraws_only_the_failing_device(monkeypatch):
    stream = RngStream(23).child("data")
    clean = generate(3, 6, 2, 1, stream)
    calls = _fail_device_1(monkeypatch, times=1)
    ds = generate(3, 6, 2, 1, stream)
    # one pass over the block, one over the redrawn device, the dataset's own
    assert calls == [3, 1, 3]
    assert np.array_equal(ds.x[1], uniform_matrix(stream.child("x", 1, 1), 6, 2, -1.0, 1.0))
    assert not np.array_equal(ds.x[1], clean.x[1])
    assert np.array_equal(ds.x[[0, 2]], clean.x[[0, 2]])
    assert np.array_equal(ds.y, ds.x @ ds.w_true)


def test_generate_gives_up_after_three_redraws(monkeypatch):
    calls = _fail_device_1(monkeypatch, times=4)
    with pytest.raises(NumericError, match="device 1: no full-rank feature draw after 3 retries"):
        generate(3, 6, 2, 1, RngStream(23).child("data"))
    assert calls == [3, 1, 1, 1]


def test_rank_deficient_stack_names_its_device():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, (4, 6, 2))
    x[2, :, 1] = x[2, :, 0]
    with pytest.raises(ParameterError, match="device 2: x is rank deficient"):
        FederatedDataset(x, np.zeros((4, 6, 1)))


def test_dataset_stack_invariants():
    rng = np.random.default_rng(5)
    with pytest.raises(ParameterError, match="3-D"):
        FederatedDataset(rng.uniform(-1, 1, (6, 2)), np.zeros((6, 1)))
    with pytest.raises(ParameterError, match="sample count"):
        FederatedDataset(rng.uniform(-1, 1, (2, 6, 2)), np.zeros((2, 5, 1)))
    with pytest.raises(ParameterError, match="more samples than features"):
        FederatedDataset(rng.uniform(-1, 1, (2, 2, 2)), np.zeros((2, 2, 1)))
    with pytest.raises(ParameterError, match=r"\[-1, 1\]"):
        FederatedDataset(rng.uniform(-1, 1, (2, 6, 2)), np.full((2, 6, 1), 1.5))
    with pytest.raises(ParameterError, match="non-finite"):
        FederatedDataset(np.full((2, 6, 2), np.nan), np.zeros((2, 6, 1)))


def test_load_csv_rejects_unequal_row_counts(tmp_path, random_instance):
    save_csv(random_instance(12, n=3, m=7, d=3, o=2), tmp_path)
    path = tmp_path / "device_0001.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(ParameterError, match="device_0001.csv: 6 rows"):
        load_csv(tmp_path)


def test_load_csv_rejects_a_header_only_file(tmp_path, random_instance):
    save_csv(random_instance(13, n=2, m=7, d=3, o=2), tmp_path)
    path = tmp_path / "device_0000.csv"
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    with pytest.raises(ParameterError, match="device_0000.csv: no data rows"):
        load_csv(tmp_path)


def test_load_csv_rejects_a_short_row(tmp_path, random_instance):
    save_csv(random_instance(14, n=2, m=7, d=3, o=2), tmp_path)
    path = tmp_path / "device_0001.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = ",".join(lines[3].split(",")[:-1]) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ParameterError, match="device_0001.csv: line 4 has 4 values, the header names"):
        load_csv(tmp_path)
