import re

import numpy as np
import pytest

from acfl import DeviceData
from acfl.coding import GlobalCodedData, NoiseParams, encode_dataset
from acfl.dataset import generate, loss, optimum
from acfl.errors import NumericError, ParameterError
from acfl.numerics import RngStream
from acfl.privacy import sigma_for_epsilon
from acfl.training import (
    AdaptiveEstimated,
    AdaptiveOracle,
    Arm,
    FixedWeight,
    InverseDecay,
    aggregate,
    alpha_estimated,
    alpha_oracle,
    coded_gradient,
    local_gradient,
    sample_stragglers,
    schedule_for_strong_convexity,
    train,
)

X_ID2 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def _coded(ds, sigma_sq, stream):
    return encode_dataset(ds, NoiseParams(sigma_sq, sigma_sq), stream.child("enc"))


# ---------------------------------------------------------------- stragglers


def test_no_stragglers_at_p_zero():
    mask = sample_stragglers(0.0, 50, RngStream(1).child("m").generator())
    assert mask.all()


def test_straggler_frequency():
    rng = RngStream(2).child("m").generator()
    present = 0
    iters, n = 10_000, 100
    for _ in range(iters):
        present += int(sample_stragglers(0.2, n, rng).sum())
    frac = present / (iters * n)
    se = np.sqrt(0.8 * 0.2 / (iters * n))
    assert abs(frac - 0.8) < 4 * se


def test_extreme_but_legal_p():
    mask = sample_stragglers(0.999, 3, RngStream(3).child("m").generator())
    assert mask.shape == (3,)


def test_straggler_rejects_bad_p():
    rng = RngStream(0).generator()
    with pytest.raises(ParameterError):
        sample_stragglers(1.0, 5, rng)
    with pytest.raises(ParameterError):
        sample_stragglers(-0.1, 5, rng)


# ----------------------------------------------------------------- gradients


def test_local_gradient_identity_features():
    dev = DeviceData(X_ID2, np.zeros((3, 2)))
    assert np.array_equal(local_gradient(dev, np.eye(2)), np.eye(2))


def test_local_gradient_zero_at_optimum(random_instance):
    ds = random_instance(4, n=3, m=12, d=4, o=2)
    facts = optimum(ds)
    total = sum(local_gradient(dev, facts.w_star) for dev in ds.devices)
    assert np.linalg.norm(total) < 1e-9 * (1 + np.linalg.norm(facts.w_star))


def test_local_gradient_matches_finite_differences(random_instance):
    ds = random_instance(5, n=1, m=12, d=5, o=3)
    dev = ds.devices[0]
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 3))
    g = local_gradient(dev, w)
    step = 1e-6
    fd = np.zeros_like(g)
    for j in range(5):
        for k in range(3):
            wp, wm = w.copy(), w.copy()
            wp[j, k] += step
            wm[j, k] -= step
            fp = 0.5 * np.sum((dev.x @ wp - dev.y) ** 2)
            fm = 0.5 * np.sum((dev.x @ wm - dev.y) ** 2)
            fd[j, k] = (fp - fm) / (2 * step)
    assert np.allclose(fd, g, rtol=1e-4, atol=1e-8)


def test_local_gradient_rejects_shape_mismatch(random_instance):
    dev = random_instance(6).devices[0]
    with pytest.raises(ParameterError):
        local_gradient(dev, np.zeros((dev.d + 1, dev.o)))


def test_coded_gradient_zero_noise_collapse(random_instance):
    ds = random_instance(7, n=4, m=10, d=3, o=2)
    gc = _coded(ds, 0.0, RngStream(7))
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 2))
    direct = sum(local_gradient(dev, w) for dev in ds.devices)
    assert np.allclose(coded_gradient(gc, w), direct, rtol=1e-12, atol=1e-12)


def test_coded_gradient_at_zero_weights(random_instance):
    ds = random_instance(8, n=2, m=8, d=3, o=2)
    gc = _coded(ds, 1.0, RngStream(8))
    assert np.array_equal(coded_gradient(gc, np.zeros((3, 2))), -gc.h_y_sum)


def test_coded_gradient_unbiased_over_redraws(random_instance):
    ds = random_instance(9, n=2, m=6, d=2, o=1)
    rng = np.random.default_rng(2)
    w = rng.normal(size=(2, 1))
    g_true = sum(local_gradient(dev, w) for dev in ds.devices)
    root = RngStream(9)
    k = 100_000
    acc = np.zeros((2, 1))
    acc_sq = np.zeros((2, 1))
    for r in range(k):
        gc = _coded(ds, 1.0, root.child("mc", r))
        g = coded_gradient(gc, w)
        acc += g
        acc_sq += g * g
    mean = acc / k
    se = np.sqrt((acc_sq / k - mean**2) / k)
    assert np.all(np.abs(mean - g_true) <= 4.0 * se)


# ------------------------------------------------------- aggregation weights


def test_alpha_oracle_no_stragglers():
    assert alpha_oracle(0.0, 5, 1.0, 1.0, 3, 2, NoiseParams(1.0, 1.0)) == 0.0


def test_alpha_oracle_zero_noise():
    assert alpha_oracle(0.3, 5, 1.0, 1.0, 3, 2, NoiseParams(0.0, 0.0)) == 1.0


def test_alpha_oracle_reference_point():
    # (0.1*5*100/0.9) / (0.1*5*100/0.9 + 5*100*1 + 5*1*10*100) = 0.01
    a = alpha_oracle(0.1, 5, 100.0, 1.0, 100, 10, NoiseParams(1.0, 1.0))
    assert a == pytest.approx(0.01, abs=1e-12)
    assert 0.0 <= a < 1.0


def test_alpha_estimated_matches_oracle_when_all_present(random_instance):
    ds = random_instance(10, n=6, m=10, d=4, o=3)
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 3))
    grads = [local_gradient(dev, w) for dev in ds.devices]
    noise = NoiseParams(0.7, 1.3)
    p = 0.25
    beta_sq_hat = float(np.mean([np.sum(g * g) for g in grads]))
    c_sq_hat = float(np.sum(w * w))
    est = alpha_estimated(p, 4, 3, noise, beta_sq_hat, c_sq_hat)
    orc = alpha_oracle(p, 6, beta_sq_hat, c_sq_hat, 4, 3, noise)
    expect = p * beta_sq_hat / (
        p * beta_sq_hat + 4 * 0.7 * c_sq_hat * (1 - p) + 1.3 * 3 * 4 * (1 - p)
    )
    assert est == orc == pytest.approx(expect, rel=1e-12)


def test_alpha_estimated_no_stragglers():
    assert alpha_estimated(0.0, 3, 2, NoiseParams(1.0, 1.0), 4.0, 6.0) == 0.0


# ---------------------------------------------------------------- aggregate


def test_aggregate_pure_coded():
    rng = np.random.default_rng(4)
    g_s = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(4)]
    mask = np.array([True, False, True, True])
    out = aggregate(g_s, grads, mask, 1.0, 0.4)
    assert np.array_equal(out, g_s)


def test_aggregate_pure_devices_is_true_gradient():
    rng = np.random.default_rng(5)
    grads = [rng.normal(size=(2, 2)) for _ in range(3)]
    mask = np.ones(3, dtype=bool)
    out = aggregate(np.zeros((2, 2)), grads, mask, 0.0, 0.0)
    expect = grads[0] + grads[1] + grads[2]
    assert np.array_equal(out, expect)


def test_aggregate_scalar_case():
    out = aggregate(
        np.array([[4.0]]), [np.array([[2.0]])], np.array([True]), 0.5, 0.5
    )
    assert out[0, 0] == pytest.approx(4.0, abs=1e-15)


def test_aggregate_validation():
    g = np.zeros((2, 2))
    with pytest.raises(ParameterError):
        aggregate(g, [g], np.array([True, False]), 0.5, 0.0)
    with pytest.raises(ParameterError):
        aggregate(g, [np.zeros((3, 2))], np.array([True]), 0.5, 0.0)
    with pytest.raises(ParameterError):
        aggregate(g, [g, np.zeros((2, 3))], np.array([True, True]), 0.5, 0.0)
    with pytest.raises(ParameterError):
        aggregate(g, [g], np.array([True]), 1.5, 0.0)


# ------------------------------------------------------------------ schedule


def test_schedule_values_and_validation():
    sched = InverseDecay(0.01)
    assert sched.rate(1) == 0.01
    assert sched.rate(4) == 0.0025
    with pytest.raises(ParameterError):
        InverseDecay(0.0)
    with pytest.raises(ParameterError):
        sched.rate(0)
    assert schedule_for_strong_convexity(4.0).rate(1) == 0.25


# --------------------------------------------------------------------- train


def test_train_zero_steps(random_instance):
    ds = random_instance(12, n=3, m=9, d=3, o=2)
    facts = optimum(ds)
    noise = NoiseParams(0.5, 0.5)
    gc = _coded(ds, 0.5, RngStream(12))
    arms = [
        Arm(gc, FixedWeight(0.5)), Arm(gc, AdaptiveEstimated(), noise), Arm(gc, FixedWeight(0.1)),
    ]
    traces = train(ds, arms, 0.2, 0, InverseDecay(1e-3), RngStream(12).child("t"), facts)
    assert len(traces) == len(arms)
    for tr in traces:
        assert tr.steps == 0
        assert tr.loss.shape == (0,)
        assert np.array_equal(tr.final_w, tr.w0)


def _naive_train(ds, gc, policy, p, steps, c, stream, facts, noise, w0):
    """Reference loop: per-device gradients, sums folded in device order."""
    d, o = w0.shape
    rng = stream.child("mask").generator()
    w = w0.copy()
    beta_sq = None
    rows = []
    for t in range(steps):
        mask = rng.random(len(ds.devices)) >= p
        grads = [local_gradient(dev, w) for dev in ds.devices]
        total = np.zeros((d, o))
        for g, present in zip(grads, mask):
            if present:
                total = total + g
        sq = [float(np.sum(g * g)) for g in grads]
        c_sq = float(np.sum(w * w))
        if isinstance(policy, FixedWeight):
            alpha = policy.alpha
        else:
            if isinstance(policy, AdaptiveOracle):
                b_sq, w_sq = policy.beta_sq, policy.c_sq
            else:
                if mask.any():
                    beta_sq = sum(s for s, m in zip(sq, mask) if m) / int(mask.sum())
                b_sq, w_sq = beta_sq, c_sq
            if b_sq is None:
                alpha = policy.fallback_alpha
            elif p == 0.0:
                alpha = 0.0
            else:
                var = d * noise.sigma1_sq * w_sq + noise.sigma2_sq * o * d
                alpha = p * b_sq / (p * b_sq + (1 - p) * var)
        g_all = alpha * (gc.h_x_sum @ w - gc.h_y_sum) + (1 - alpha) / (1 - p) * total
        rows.append(
            (
                alpha,
                int(mask.sum()),
                loss(w, ds),
                float(np.sum((w - facts.w_star) ** 2)),
                float(np.sum(g_all * g_all)),
                c_sq,
                max(sq),
            )
        )
        w = w - (c / (t + 1)) * g_all
    return np.array(rows), w


TRACE_COLUMNS = (
    "alpha", "n_present", "loss", "dist_sq", "grad_norm_sq", "w_norm_sq", "max_device_grad_sq",
)
POLICIES = {
    "fixed": FixedWeight(0.3),
    "oracle": AdaptiveOracle(5.0, 2.0),
    "estimated": AdaptiveEstimated(0.6),
}


@pytest.mark.parametrize("p", [0.0, 0.4])
@pytest.mark.parametrize(
    "names, levels",
    [
        (("fixed",), (0.3,)),
        (("oracle",), (0.3,)),
        (("estimated",), (0.3,)),
        (("fixed", "oracle", "estimated"), (0.3, 3.0)),
    ],
    ids=["fixed", "oracle", "estimated", "six-arms"],
)
def test_train_matches_plain_gradient_descent(random_instance, names, levels, p):
    # The batched step against a per-device loop run once per arm, within
    # rtol 1e-10: the summation order differs, so equality is not required.
    ds = random_instance(13, n=5, m=10, d=4, o=2)
    facts = optimum(ds)
    arms = []
    for level in levels:
        gc = _coded(ds, level, RngStream(13))
        arms += [Arm(gc, POLICIES[name], NoiseParams(level, level)) for name in names]
    w0 = np.full((4, 2), 0.01)
    steps, c = 300, 1e-3
    stream = RngStream(13).child("t")
    traces = train(ds, arms, p, steps, InverseDecay(c), stream, facts, w0=w0)
    assert len(traces) == len(arms)
    for arm, tr in zip(arms, traces):
        rows, w = _naive_train(
            ds, arm.coded, arm.policy, p, steps, c, stream, facts, arm.noise, w0
        )
        for j, name in enumerate(TRACE_COLUMNS):
            assert np.allclose(getattr(tr, name), rows[:, j], rtol=1e-10, atol=0.0), name
        assert np.allclose(tr.final_w, w, rtol=1e-10, atol=0.0)
        assert tr.mask_digest == traces[0].mask_digest


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_train_loss_is_accurate_near_the_optimum(seed):
    # Row T of a (T+1)-step run is the loss at the final iterate of the
    # T-step run; near the optimum the expanded Gram form of the loss
    # cancels, and the recorded value must still match the direct residuals.
    root = RngStream(seed)
    ds = generate(10, 20, 3, 3, root.child("dataset", 0))
    facts = optimum(ds)
    noise = sigma_for_epsilon(5.0, 3, 3)
    gc = encode_dataset(ds, noise, root.child("encode", 0))

    def run(steps):
        (tr,) = train(
            ds, [Arm(gc, AdaptiveEstimated(), noise)], 0.4, steps,
            schedule_for_strong_convexity(facts.lam), root.child("train", 0), facts,
        )
        return tr

    steps = 4000
    assert run(steps + 1).loss[steps] == pytest.approx(
        loss(run(steps).final_w, ds), rel=1e-9, abs=0.0
    )


def test_train_estimated_weight_falls_back_then_reuses_last_estimate(random_instance):
    # With p = 0.9 and two devices many iterations have nobody present: the
    # weight is fallback_alpha until the first report, then reuses the
    # latest report's norm estimate.
    ds = random_instance(19, n=2, m=8, d=3, o=2)
    facts = optimum(ds)
    noise = NoiseParams(1.0, 1.0)
    gc = _coded(ds, 1.0, RngStream(19))
    p, steps, stream = 0.9, 40, RngStream(19).child("t")

    def run(steps):
        (tr,) = train(
            ds, [Arm(gc, AdaptiveEstimated(0.25), noise)], p, steps, InverseDecay(1e-3),
            stream, facts,
        )
        return tr

    tr = run(steps)
    rng = stream.child("mask").generator()
    masks = [sample_stragglers(p, 2, rng) for _ in range(steps)]
    assert [int(m.sum()) for m in masks] == list(tr.n_present)
    first = int(np.flatnonzero(tr.n_present)[0])
    assert first > 0
    assert np.all(tr.alpha[:first] == 0.25)
    reused = [
        t for t in range(first + 1, steps) if tr.n_present[t] == 0 and tr.n_present[t - 1] > 0
    ]
    assert reused
    for t in reused:
        w_prev = run(t - 1).final_w
        grads = [local_gradient(dev, w_prev) for dev, m in zip(ds.devices, masks[t - 1]) if m]
        beta_sq = float(np.mean([np.sum(g * g) for g in grads]))
        expect = alpha_estimated(p, 3, 2, noise, beta_sq, tr.w_norm_sq[t])
        assert tr.alpha[t] == pytest.approx(expect, rel=1e-12)
        assert tr.alpha[t] != tr.alpha[t - 1]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "policy, with_still_arm",
    [
        pytest.param(FixedWeight(0.5), False, id="fixed"),
        pytest.param(AdaptiveEstimated(), False, id="estimated"),
        pytest.param(AdaptiveEstimated(), True, id="two-arms"),
    ],
)
def test_train_divergence_names_the_iteration(policy, with_still_arm):
    root = RngStream(20)
    ds = generate(100, 100, 10, 10, root.child("data"))
    noise = NoiseParams(0.1, 0.1)
    gc = encode_dataset(ds, noise, root.child("enc"))
    arms = [Arm(gc, policy, noise)]
    if with_still_arm:
        # The pure coded gradient of all-zero coded sums: this arm never moves.
        zeros = GlobalCodedData(np.zeros((10, 10)), np.zeros((10, 10)))
        arms.insert(0, Arm(zeros, FixedWeight(1.0)))
    arm = len(arms) - 1
    with pytest.raises(
        NumericError,
        match=rf"iteration \d+ in arm {arm} \({re.escape(repr(policy))}\).*last finite loss: \d",
    ):
        train(ds, arms, 0.2, 300, InverseDecay(1.0), root.child("train"), optimum(ds))


def test_train_reference_setup_loss_drops():
    root = RngStream(14)
    ds = generate(100, 100, 10, 10, root.child("data"))
    facts = optimum(ds)
    noise = NoiseParams(0.01, 0.01)
    gc = encode_dataset(ds, noise, root.child("enc"))
    (tr,) = train(
        ds, [Arm(gc, AdaptiveEstimated(), noise)], 0.2, 2000, InverseDecay(1e-4),
        root.child("train"), facts,
    )
    assert tr.loss[-1] < tr.loss[0] / 10.0
    assert np.all((tr.alpha >= 0.0) & (tr.alpha <= 1.0))


def test_train_trace_is_deterministic(random_instance):
    ds = random_instance(15, n=4, m=9, d=3, o=2)
    facts = optimum(ds)
    gc = _coded(ds, 1.0, RngStream(15))
    noise = NoiseParams(1.0, 1.0)

    def run():
        (tr,) = train(
            ds, [Arm(gc, AdaptiveEstimated(), noise)], 0.3, 60, InverseDecay(1e-3),
            RngStream(15).child("t"), facts,
        )
        return tr

    a, b = run(), run()
    for name in ("alpha", "n_present", "loss", "dist_sq", "grad_norm_sq"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.final_w, b.final_w)
    assert a.mask_digest == b.mask_digest


def test_train_alpha_in_unit_interval_for_all_policies(random_instance):
    ds = random_instance(16, n=4, m=9, d=3, o=2)
    facts = optimum(ds)
    gc = _coded(ds, 2.0, RngStream(16))
    noise = NoiseParams(2.0, 2.0)
    policies = [
        FixedWeight(0.5),
        AdaptiveOracle(5.0, 5.0),
        AdaptiveEstimated(0.7),
    ]
    traces = train(
        ds, [Arm(gc, policy, noise) for policy in policies], 0.4, 40, InverseDecay(1e-3),
        RngStream(16).child("t"), facts,
    )
    for tr in traces:
        assert np.all((tr.alpha >= 0.0) & (tr.alpha <= 1.0))


def test_train_requires_noise_for_adaptive(random_instance):
    ds = random_instance(17, n=2, m=8, d=3, o=2)
    facts = optimum(ds)
    gc = _coded(ds, 1.0, RngStream(17))
    with pytest.raises(ParameterError):
        Arm(gc, AdaptiveEstimated())
    with pytest.raises(ParameterError, match="policy"):
        Arm(gc, "adaptive")
    with pytest.raises(ParameterError, match="arm"):
        train(ds, [], 0.2, 5, InverseDecay(1e-3), RngStream(17).child("t"), facts)
    with pytest.raises(ParameterError, match="arm 1"):
        wrong = GlobalCodedData(np.zeros((2, 2)), np.zeros((2, 2)))
        train(
            ds, [Arm(gc, FixedWeight(0.5)), Arm(wrong, FixedWeight(0.5))], 0.2, 5,
            InverseDecay(1e-3), RngStream(17).child("t"), facts,
        )


def test_train_oracle_policy_uses_constant_alpha(random_instance):
    ds = random_instance(18, n=3, m=9, d=3, o=2)
    facts = optimum(ds)
    noise = NoiseParams(1.5, 0.5)
    gc = _coded(ds, 1.5, RngStream(18))
    policy = AdaptiveOracle(2.0, 3.0)
    (tr,) = train(
        ds, [Arm(gc, policy, noise)], 0.25, 30, InverseDecay(1e-3),
        RngStream(18).child("t"), facts,
    )
    expect = alpha_oracle(0.25, 3, 2.0, 3.0, 3, 2, noise)
    assert np.all(tr.alpha == expect)
