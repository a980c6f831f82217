import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acfl import FederatedDataset, dataset
from acfl.dataset import DEVICE_CHUNK_ROWS, generate, loss, optimum
from acfl.errors import ParameterError
from acfl.harness import _dataset_digest
from acfl.numerics import RngStream
from reference import (
    dataset_from_samples,
    device_gradient,
    random_samples,
    replay_samples,
    residual_loss,
)

# m > d is required, so the identity-feature examples pad a zero row.
X_ID2 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_generate_reference_dimensions():
    ds = generate(100, 100, 10, 10, RngStream(42).child("data"))
    assert ds.n_devices == 100 and ds.d == 10 and ds.o == 10
    assert ds.gram_x.shape == (100, 10, 10) and ds.gram_xy.shape == (100, 10, 10)
    # noiseless labels: both label-noise sums are exactly zero
    assert not ds.xe_sum.any() and ds.ee_sum == 0.0
    assert ds.w_true.min() >= 0.0 and ds.w_true.max() <= 1.0 / 30.0


def test_generate_minimal_instance():
    ds = generate(1, 2, 1, 1, RngStream(0))
    assert ds.gram_x.shape == (1, 1, 1) and ds.gram_xy.shape == (1, 1, 1)


def test_generate_rejects_m_le_d():
    with pytest.raises(ParameterError, match="full column rank"):
        generate(2, 5, 5, 1, RngStream(0))


def test_generate_deterministic():
    a = generate(4, 9, 3, 2, RngStream(13).child("data"))
    b = generate(4, 9, 3, 2, RngStream(13).child("data"))
    assert _dataset_digest(a) == _dataset_digest(b)


def test_optimum_recovers_true_weights():
    for seed in range(3):
        ds = generate(5, 20, 6, 4, RngStream(seed).child("data"))
        facts = optimum(ds)
        assert np.linalg.norm(facts.w_star - ds.w_true) < 1e-8
        assert facts.loss_at_optimum < 1e-12


def test_loss_zero_at_true_weights():
    ds = generate(3, 12, 4, 2, RngStream(21).child("data"))
    assert loss(ds.w_true, ds, optimum(ds)) == pytest.approx(0.0, abs=1e-18)


def test_loss_identity_features():
    ds = dataset_from_samples(X_ID2[None], np.zeros((1, 3, 2)))
    assert loss(np.eye(2), ds, optimum(ds)) == pytest.approx(1.0, abs=1e-15)


def test_loss_matches_bruteforce():
    xs, ys = random_samples(2)
    ds = dataset_from_samples(xs, ys)
    rng = np.random.default_rng(9)
    w = rng.normal(size=(ds.d, ds.o))
    total = 0.0
    for x, y in zip(xs, ys):
        for i in range(x.shape[0]):
            for k in range(ds.o):
                r = sum(x[i, j] * w[j, k] for j in range(ds.d)) - y[i, k]
                total += 0.5 * r * r
    assert loss(w, ds, optimum(ds)) == pytest.approx(total, abs=1e-10)


@pytest.mark.parametrize("noise_sd", [0.0, 0.05, pytest.param(None, id="generic")])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_gram_form_matches_residuals_away_from_the_optimum(seed, noise_sd):
    # Losses are the Gram form loss_at_optimum + <D, (sum_i A_i) D> / 2,
    # which needs no (n, m, o) residuals.  At |W - W*| from 1% to 10x |W*|
    # the residual form of the samples is accurate too, and the two agree
    # within rtol 1e-10; so they do at W* itself for noisy or generic
    # labels (noise_sd None: U[-1, 1] labels, no true weights).  At W* with
    # noiseless labels both are zero up to rounding.
    if noise_sd is None:
        x, y = random_samples(seed, n=20, m=30, d=5, o=3)
        ds = dataset_from_samples(x, y)
    else:
        x, y, w_true = replay_samples(20, 30, 5, 3, RngStream(seed).child("data"), noise_sd)
        ds = dataset_from_samples(x, y, w_true)
    facts = optimum(ds)
    direction = np.random.default_rng(seed).standard_normal((5, 3))
    direction *= np.linalg.norm(facts.w_star) / np.linalg.norm(direction)
    for scale in (0.0, 1e-2, 1e-1, 1.0, 10.0):
        w = facts.w_star + scale * direction
        gram_form, residual = loss(w, ds, facts), residual_loss(x, y, w)
        if scale == 0.0 and noise_sd == 0.0:
            assert gram_form <= 1e-20 and residual <= 1e-20
        else:
            assert gram_form == pytest.approx(residual, rel=1e-10, abs=0.0)


def test_loss_rejects_shape_mismatch(random_instance):
    ds = random_instance(3)
    with pytest.raises(ParameterError):
        loss(np.zeros((ds.d + 1, ds.o)), ds, optimum(ds))


def test_optimum_diagonal_gram():
    # stacked identities give X'X = 2 I, so every eigenvalue is 2
    x = np.vstack([np.eye(3), np.eye(3)])
    y = np.zeros((6, 2))
    ds = dataset_from_samples(x[None], y[None])
    facts = optimum(ds)
    assert facts.lam == pytest.approx(2.0, abs=1e-12)


def test_optimum_stationarity():
    xs, ys = random_samples(7, n=4, m=14, d=5, o=3)
    facts = optimum(dataset_from_samples(xs, ys))
    grad = sum(device_gradient(x, y, facts.w_star) for x, y in zip(xs, ys))
    assert np.linalg.norm(grad) < 1e-7 * (1.0 + np.linalg.norm(facts.w_star))


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 12),
    o=st.integers(1, 12),
    extra=st.integers(1, 12),
    log_cond=st.floats(0.0, 8.0),
    log_scale=st.floats(-3.0, 3.0),
)
def test_optimum_accuracy_across_conditioning(seed, d, o, extra, log_cond, log_scale):
    """Each column of ``w_star`` is within ``8 d eps cond(A)`` of the true
    weights, relatively, for ``A = X'X`` of condition number up to ``1e8``.

    One device with ``m = d + extra`` rows ``X = s^(1/2) U diag(lam^(1/2))
    Q'`` (orthonormal ``U``, orthogonal ``Q``), so ``X'X = s Q diag(lam) Q'``
    with ``lam`` log-uniform in ``[1, 10^log_cond]`` (both ends taken when
    ``d > 1``) and scale ``s`` in ``[1e-3, 1e3]``; labels ``Y = X W_true``
    without noise.  Forming the Gram sums and solving are both backward
    stable, so the error is a small multiple of ``d eps cond(A)``: on
    70,000 seeded draws of this construction the largest ratio was 2.9,
    at ``d = 1``, where the ``m``-term Gram sums carry most of it.
    """
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(0.0, log_cond, d)
    if d > 1:
        lam[0], lam[-1] = 1.0, 10.0**log_cond
    u = np.linalg.qr(rng.standard_normal((d + extra, d)))[0]
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    x = (u * np.sqrt(10.0**log_scale * lam)) @ q.T
    w_true = rng.standard_normal((d, o))
    ds = dataset_from_samples(x[None], (x @ w_true)[None], w_true)
    err = np.linalg.norm(optimum(ds).w_star - w_true, axis=0) / np.linalg.norm(w_true, axis=0)
    cond = np.linalg.cond(ds.gram_x.sum(axis=0))
    assert np.all(err <= 8 * d * np.finfo(float).eps * cond)


def test_strong_convexity_certificate():
    xs, ys = random_samples(4, n=3, m=9, d=3, o=2)
    ds = dataset_from_samples(xs, ys)
    facts = optimum(ds)
    rng = np.random.default_rng(12)
    for _ in range(50):
        w = rng.normal(size=(ds.d, ds.o))
        gap = residual_loss(xs, ys, w) - facts.loss_at_optimum
        dist_sq = float(np.sum((w - facts.w_star) ** 2))
        assert gap >= 0.5 * facts.lam * dist_sq - 1e-9


def test_loss_nonnegative_and_optimal():
    xs, ys = random_samples(6, n=2, m=6, d=2, o=1)
    ds = dataset_from_samples(xs, ys)
    facts = optimum(ds)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        w = rng.normal(size=(ds.d, ds.o))
        val = residual_loss(xs, ys, w)
        assert val >= 0.0
        assert facts.loss_at_optimum <= val + 1e-12


# ------------------------------------------------------------ stacked layout


def test_gram_stacks_match_per_device_products():
    stream = RngStream(3).child("data")
    ds = generate(5, 9, 4, 3, stream)
    x, y, _ = replay_samples(5, 9, 4, 3, stream)
    assert ds.gram_x.shape == (5, 4, 4) and ds.gram_xy.shape == (5, 4, 3)
    for i in range(ds.n_devices):
        assert np.array_equal(ds.gram_x[i], x[i].T @ x[i])
        assert np.array_equal(ds.gram_xy[i], x[i].T @ y[i])


def test_generate_chunks_are_bit_equal_to_one_block():
    # Three chunks, the last of 3 devices: the chunked draws, products and
    # digest equal those of one (n, m, .) block from the same streams.
    n = 2 * DEVICE_CHUNK_ROWS + 3
    stream = RngStream(8).child("data")
    ds = generate(n, 6, 3, 2, stream)
    x, y, w_true = replay_samples(n, 6, 3, 2, stream)
    assert np.array_equal(ds.gram_x, dataset._gram(x, x))
    assert np.array_equal(ds.gram_xy, dataset._gram(x, y))
    assert _dataset_digest(ds) == _dataset_digest(dataset_from_samples(x, y, w_true))
    assert not ds.xe_sum.any() and ds.ee_sum == 0.0


def test_generate_devices_do_not_depend_on_device_count():
    three = generate(3, 9, 3, 2, RngStream(31).child("data"))
    five = generate(5, 9, 3, 2, RngStream(31).child("data"))
    assert three.gram_x.tobytes() == five.gram_x[:3].tobytes()
    assert three.gram_xy.tobytes() == five.gram_xy[:3].tobytes()
    x, _, _ = replay_samples(5, 9, 3, 2, RngStream(31).child("data"))
    for i in range(5):  # one batched product, bit-equal to the per-device one
        assert np.array_equal(five.gram_xy[i], x[i].T @ (x[i] @ five.w_true))


def test_generate_forms_and_checks_the_gram_stack_once(monkeypatch):
    # One Gram pair per chunk of devices, and the dataset's own batched
    # Cholesky is the only rank check of a draw.
    calls = {"_gram": 0, "_deficient": 0}
    for name in calls:
        real = getattr(dataset, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(dataset, name, counted)
    generate(3, 6, 2, 1, RngStream(23).child("data"))
    assert calls == {"_gram": 2, "_deficient": 1}


def test_generate_names_a_rank_deficient_device(monkeypatch):
    real = dataset._deficient
    monkeypatch.setattr(dataset, "_deficient", lambda gram_x: np.union1d(real(gram_x), [1]))
    with pytest.raises(ParameterError, match="device 1: x is rank deficient"):
        generate(3, 6, 2, 1, RngStream(23).child("data"))


def test_rank_deficient_stack_names_its_device():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, (4, 6, 2))
    x[2, :, 1] = x[2, :, 0]
    with pytest.raises(ParameterError, match="device 2: x is rank deficient"):
        dataset_from_samples(x, np.zeros((4, 6, 1)))


def test_rank_check_falls_back_to_naming_devices_by_eigenvalue():
    # Devices 1 and 3 repeat a column, so the batched Cholesky fails and the
    # eigensolve names them; device 2's smallest eigenvalue is 5e-10, a few
    # tolerances above it, and passes either way.
    rng = np.random.default_rng(6)
    n, m, d = 5, 8, 3
    x = rng.uniform(-1.0, 1.0, (n, m, d))
    x[[1, 3], :, 2] = x[[1, 3], :, 0]
    u = np.linalg.qr(rng.normal(size=(m, d)))[0]
    v = np.linalg.qr(rng.normal(size=(d, d)))[0]
    s = np.array([1.0, 0.5, np.sqrt(5 * dataset._RANK_TOL)])
    x[2] = (u * s) @ v.T
    y = np.zeros((n, m, 1))
    gram = dataset._gram(x, x)
    assert np.linalg.eigvalsh(gram[2])[0] == pytest.approx(5e-10, rel=1e-3)
    assert dataset._deficient(gram).tolist() == [1, 3]
    with pytest.raises(ParameterError, match="device 1: x is rank deficient"):
        dataset_from_samples(x, y)
    ds = dataset_from_samples(x[[0, 2, 4]], y[[0, 2, 4]])
    assert ds.n_devices == 3


def test_dataset_stack_invariants():
    zeros = np.zeros((2, 1))
    with pytest.raises(ParameterError, match="3-D"):
        FederatedDataset(np.eye(2), zeros, zeros, zeros, 0.0)
    with pytest.raises(ParameterError, match=r"gram_x must be \(n, d, d\)"):
        FederatedDataset(np.eye(2)[None], np.zeros((2, 2, 1)), zeros, zeros, 0.0)
    with pytest.raises(ParameterError, match="non-finite"):
        FederatedDataset(np.full((2, 2, 2), np.nan), np.zeros((2, 2, 1)), zeros, zeros, 0.0)
    with pytest.raises(ParameterError, match="xe_sum must be"):
        FederatedDataset(np.eye(2)[None], np.zeros((1, 2, 1)), zeros, np.zeros((2, 2)), 0.0)
    with pytest.raises(ParameterError, match="ee_sum"):
        FederatedDataset(np.eye(2)[None], np.zeros((1, 2, 1)), zeros, zeros, -1.0)
    # labels are bounded where they are drawn
    with pytest.raises(ParameterError, match=r"\[-1, 1\]"):
        generate(1, 801, 800, 1, RngStream(0))


def test_device_data_invariants():
    # The rank check on a one-device stack.
    rng = np.random.default_rng(0)
    x = np.zeros((1, 5, 2))
    x[0, :, 0] = rng.uniform(-1, 1, 5)
    x[0, :, 1] = x[0, :, 0]
    with pytest.raises(ParameterError, match="device 0: x is rank deficient"):
        dataset_from_samples(x, np.zeros((1, 5, 1)))
