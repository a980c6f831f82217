import math
import re

import numpy as np
import pytest

from acfl.coding import GlobalCodedData, NoiseParams, encode_levels
from acfl.dataset import FederatedDataset, generate, loss, optimum
from acfl.errors import NumericError, ParameterError
from acfl.harness import PROBE_COLUMNS, RUN_COLUMNS, OracleAuto
from acfl.numerics import RngStream
from acfl.privacy import sigma_for_epsilon
from acfl.training import (
    MASK_CHUNK_ROWS,
    TRACE_COLUMNS as EVERY_COLUMN,
    AdaptiveEstimated,
    AdaptiveOracle,
    FixedWeight,
    InverseDecay,
    alpha_oracle,
    sample_stragglers,
    schedule_for_strong_convexity,
    train,
)
from reference import (
    alpha_estimated,
    blend,
    coded_gradient,
    dataset_from_samples,
    device_gradient,
    random_samples,
    replay_samples,
    residual_loss,
)

X_ID2 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def _coded(ds, sigma_sq, stream):
    (coded,) = encode_levels(ds, [NoiseParams(sigma_sq, sigma_sq)], stream.child("enc"))
    return coded


# ---------------------------------------------------------------- stragglers


def test_no_stragglers_at_p_zero():
    mask = sample_stragglers(0.0, 50, RngStream(1).child("m").generator(), 1)
    assert mask.all()


def test_straggler_frequency():
    rng = RngStream(2).child("m").generator()
    present = 0
    iters, n = 10_000, 100
    for _ in range(iters):
        present += int(sample_stragglers(0.2, n, rng, 1).sum())
    frac = present / (iters * n)
    se = np.sqrt(0.8 * 0.2 / (iters * n))
    assert abs(frac - 0.8) < 4 * se


def test_extreme_but_legal_p():
    mask = sample_stragglers(0.999, 3, RngStream(3).child("m").generator(), 1)
    assert mask.shape == (1, 3)


def test_straggler_rejects_bad_p():
    rng = RngStream(0).generator()
    with pytest.raises(ParameterError):
        sample_stragglers(1.0, 5, rng, 1)
    with pytest.raises(ParameterError):
        sample_stragglers(-0.1, 5, rng, 1)


# ----------------------------------------------------------------- gradients


def test_local_gradient_identity_features():
    assert np.array_equal(device_gradient(X_ID2, np.zeros((3, 2)), np.eye(2)), np.eye(2))


def test_local_gradient_zero_at_optimum():
    xs, ys = random_samples(4, n=3, m=12, d=4, o=2)
    facts = optimum(dataset_from_samples(xs, ys))
    total = sum(device_gradient(x, y, facts.w_star) for x, y in zip(xs, ys))
    assert np.linalg.norm(total) < 1e-9 * (1 + np.linalg.norm(facts.w_star))


def test_local_gradient_matches_finite_differences():
    x, y = (a[0] for a in random_samples(5, n=1, m=12, d=5, o=3))
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 3))
    g = device_gradient(x, y, w)
    step = 1e-6
    fd = np.zeros_like(g)
    for j in range(5):
        for k in range(3):
            wp, wm = w.copy(), w.copy()
            wp[j, k] += step
            wm[j, k] -= step
            fp = 0.5 * np.sum((x @ wp - y) ** 2)
            fm = 0.5 * np.sum((x @ wm - y) ** 2)
            fd[j, k] = (fp - fm) / (2 * step)
    assert np.allclose(fd, g, rtol=1e-4, atol=1e-8)


def test_coded_gradient_zero_noise_collapse():
    xs, ys = random_samples(7, n=4, m=10, d=3, o=2)
    ds = dataset_from_samples(xs, ys)
    gc = _coded(ds, 0.0, RngStream(7))
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 2))
    direct = sum(device_gradient(x, y, w) for x, y in zip(xs, ys))
    assert np.allclose(coded_gradient(gc.h_x_sum, gc.h_y_sum, w), direct, rtol=1e-12, atol=1e-12)


def test_coded_gradient_at_zero_weights(random_instance):
    ds = random_instance(8, n=2, m=8, d=3, o=2)
    gc = _coded(ds, 1.0, RngStream(8))
    assert np.array_equal(coded_gradient(gc.h_x_sum, gc.h_y_sum, np.zeros((3, 2))), -gc.h_y_sum)


def test_coded_gradient_unbiased_over_redraws():
    xs, ys = random_samples(9, n=2, m=6, d=2, o=1)
    ds = dataset_from_samples(xs, ys)
    rng = np.random.default_rng(2)
    w = rng.normal(size=(2, 1))
    g_true = sum(device_gradient(x, y, w) for x, y in zip(xs, ys))
    root = RngStream(9)
    k = 100_000
    acc = np.zeros((2, 1))
    acc_sq = np.zeros((2, 1))
    for r in range(k):
        gc = _coded(ds, 1.0, root.child("mc", r))
        g = coded_gradient(gc.h_x_sum, gc.h_y_sum, w)
        acc += g
        acc_sq += g * g
    mean = acc / k
    se = np.sqrt((acc_sq / k - mean**2) / k)
    assert np.all(np.abs(mean - g_true) <= 4.0 * se)


# ------------------------------------------------------- aggregation weights


def test_alpha_oracle_no_stragglers():
    assert alpha_oracle(0.0, 1.0, 1.0, 3, 2, NoiseParams(1.0, 1.0)) == 0.0


def test_alpha_oracle_zero_noise():
    assert alpha_oracle(0.3, 1.0, 1.0, 3, 2, NoiseParams(0.0, 0.0)) == 1.0


def test_alpha_oracle_reference_point():
    # (0.1*100) / (0.1*100 + 100*1*1*0.9 + 1*10*100*0.9) = 0.01
    a = alpha_oracle(0.1, 100.0, 1.0, 100, 10, NoiseParams(1.0, 1.0))
    assert a == pytest.approx(0.01, abs=1e-12)
    assert 0.0 <= a < 1.0


@pytest.mark.parametrize("name", ["beta_sq", "c_sq"])
def test_oracle_bounds_must_be_finite(name):
    # An infinite bound would make the weight inf / inf, and training would
    # report the NaN as a divergence at iteration 0.
    bounds = {"beta_sq": 1.0, "c_sq": 1.0, name: math.inf}
    with pytest.raises(ParameterError, match=f"^{name}: must be finite and positive, got inf$"):
        AdaptiveOracle(**bounds)
    with pytest.raises(ParameterError, match=f"^{name}: must be finite and positive, got inf$"):
        alpha_oracle(0.3, d=3, o=2, noise=NoiseParams(1.0, 1.0), **bounds)


def test_alpha_estimated_matches_oracle_when_all_present():
    xs, ys = random_samples(10, n=6, m=10, d=4, o=3)
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 3))
    grads = [device_gradient(x, y, w) for x, y in zip(xs, ys)]
    noise = NoiseParams(0.7, 1.3)
    p = 0.25
    beta_sq_hat = float(np.mean([np.sum(g * g) for g in grads]))
    c_sq_hat = float(np.sum(w * w))
    est = alpha_estimated(p, 4, 3, noise, beta_sq_hat, c_sq_hat)
    orc = alpha_oracle(p, beta_sq_hat, c_sq_hat, 4, 3, noise)
    expect = p * beta_sq_hat / (
        p * beta_sq_hat + 4 * 0.7 * c_sq_hat * (1 - p) + 1.3 * 3 * 4 * (1 - p)
    )
    assert est == orc == pytest.approx(expect, rel=1e-12)


def test_alpha_estimated_no_stragglers():
    assert alpha_estimated(0.0, 3, 2, NoiseParams(1.0, 1.0), 4.0, 6.0) == 0.0


# ---------------------------------------------------------------- aggregate
# The blend the kernel is held against, at its edge weights.


def test_aggregate_pure_coded():
    rng = np.random.default_rng(4)
    g_s = rng.normal(size=(3, 2))
    grads = np.array([rng.normal(size=(3, 2)) for _ in range(4)])
    mask = np.array([True, False, True, True])
    out = blend(g_s, grads, mask, 1.0, 0.4)
    assert np.array_equal(out, g_s)


def test_aggregate_pure_devices_is_true_gradient():
    rng = np.random.default_rng(5)
    grads = np.array([rng.normal(size=(2, 2)) for _ in range(3)])
    mask = np.ones(3, dtype=bool)
    out = blend(np.zeros((2, 2)), grads, mask, 0.0, 0.0)
    expect = grads[0] + grads[1] + grads[2]
    assert np.array_equal(out, expect)


def test_aggregate_scalar_case():
    out = blend(np.array([[4.0]]), np.array([[[2.0]]]), np.array([True]), 0.5, 0.5)
    assert out[0, 0] == pytest.approx(4.0, abs=1e-15)


# ------------------------------------------------------------------ schedule


def test_schedule_values_and_validation():
    sched = InverseDecay(0.01)
    assert sched.rates(4)[0] == 0.01
    assert sched.rates(4)[3] == 0.0025
    with pytest.raises(ParameterError):
        InverseDecay(0.0)
    for c in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            InverseDecay(c)
    assert sched.rates(0).shape == (0,)
    assert schedule_for_strong_convexity(4.0).rates(1)[0] == 0.25


def test_strong_convexity_schedule_names_lam():
    # An infinite lam once built InverseDecay(0.0), whose error named c.
    with pytest.raises(ParameterError, match=r"^lam: must be finite and positive, got inf$"):
        schedule_for_strong_convexity(math.inf)


# --------------------------------------------------------------------- train


def test_train_zero_steps(random_instance):
    ds = random_instance(12, n=3, m=9, d=3, o=2)
    gc = _coded(ds, 0.5, RngStream(12))
    policies = [FixedWeight(0.5), AdaptiveEstimated(), FixedWeight(0.1)]
    (traces,) = train(
        [ds], [[gc] * 3], policies, 0.2, 0, InverseDecay(1e-3), [RngStream(12).child("t")],
    )
    assert len(traces) == len(policies)
    for tr in traces:
        assert tr.steps == 0
        assert tr.loss.shape == (0,)
        assert np.array_equal(tr.final_w, tr.w0)


def _naive_train(xs, ys, gc, policy, p, steps, c, stream, facts, noise, w0):
    """Reference loop on the samples: per-device gradients, sums folded in
    device order."""
    d, o = w0.shape
    rng = stream.child("mask").generator()
    w = w0.copy()
    beta_sq = None
    rows = []
    for t in range(steps):
        mask = rng.random(len(xs)) >= p
        grads = [device_gradient(x, y, w) for x, y in zip(xs, ys)]
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
                residual_loss(xs, ys, w),
                float(np.sum((w - facts.w_star) ** 2)),
                float(np.sum(g_all * g_all)),
                c_sq,
                max(sq),
            )
        )
        if not np.isfinite(rows[-1]).all():
            break  # the first non-finite row, as the kernel reports it
        w = w - (c / (t + 1)) * g_all
    return np.array(rows), w


TRACE_COLUMNS = (
    "alpha", "n_present", "loss", "dist_sq", "grad_norm_sq", "w_norm_sq", "max_device_grad_sq",
)
POLICIES = {
    "fixed": FixedWeight(0.3),
    "fixed-0": FixedWeight(0.0),
    "fixed-1": FixedWeight(1.0),
    "oracle": AdaptiveOracle(5.0, 2.0),
    "estimated": AdaptiveEstimated(0.6),
}
FOLDED = ("fixed", "fixed-0", "fixed-1", "oracle")


@pytest.mark.parametrize("p", [0.0, 0.4])
@pytest.mark.parametrize(
    "names, levels, steps, n",
    [
        (("fixed",), (0.3,), 300, 5),
        (("oracle",), (0.3,), 300, 5),
        (("estimated",), (0.3,), 300, 5),
        (("estimated",), (0.0, 0.3), 300, 5),
        (("fixed", "oracle", "estimated"), (0.3, 3.0), 300, 5),
        (("fixed-0", "fixed-1", "estimated"), (0.3, 3.0), 300, 5),
        ((*FOLDED, "estimated"), (0.3,), 1, 5),
        ((*FOLDED, "estimated"), (0.3,), 17, 5),
        (FOLDED, (0.3,), 17, 5),
        (("estimated", "fixed"), (0.3,), 70, 600),
    ],
    ids=[
        "fixed", "oracle", "estimated", "zero-noise", "six-arms", "weight-endpoints", "one-step",
        "17-steps", "17-steps-folded", "600-devices",
    ],
)
def test_train_matches_plain_gradient_descent(names, levels, steps, n, p):
    # The batched step against a per-device loop run once per arm, within
    # rtol 1e-10: the summation order differs, so equality is not required.
    # An estimated arm steps by S + alpha (C - S), which rounds unlike the
    # loop's blend also at alpha 0 and 1; 1 and 17 steps size every per-call
    # buffer below a block, 17 with one stack refill.
    # A zero-noise estimated arm has a zero floor (the weight is 1 once a
    # device reports, p b^2 / p b^2) and, at p = 0, a zero weight throughout.
    # 600 devices span two DEVICE_CHUNK_ROWS chunks of the statistics and of
    # the device-maximum scan, and 70 steps two mask blocks.
    xs, ys = random_samples(13, n=n, m=10, d=4, o=2)
    ds = dataset_from_samples(xs, ys)
    facts = optimum(ds)
    coded, policies = [], []
    for level in levels:
        coded += [_coded(ds, level, RngStream(13))] * len(names)
        policies += [POLICIES[name] for name in names]
    c = 1e-3
    stream = RngStream(13).child("t")
    (traces,) = train(
        [ds], [coded], policies, p, steps, InverseDecay(c), [stream],
        columns=EVERY_COLUMN,
    )
    assert len(traces) == len(policies)
    for gc, policy, tr in zip(coded, policies, traces):
        rows, w = _naive_train(xs, ys, gc, policy, p, steps, c, stream, facts, gc.noise, tr.w0)
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
    xs, ys, _ = replay_samples(10, 20, 3, 3, root.child("dataset", 0))
    facts = optimum(ds)
    noise = sigma_for_epsilon(5.0, 3, 3)
    (gc,) = encode_levels(ds, [noise], root.child("encode", 0))

    def run(steps):
        ((tr,),) = train(
            [ds], [[gc]], [AdaptiveEstimated()], 0.4, steps,
            schedule_for_strong_convexity(facts.lam), [root.child("train", 0)],
        )
        return tr

    steps = 4000
    assert run(steps + 1).loss[steps] == pytest.approx(
        residual_loss(xs, ys, run(steps).final_w), rel=1e-9, abs=0.0
    )


def test_train_estimated_weight_falls_back_then_reuses_last_estimate():
    # With p = 0.9 and two devices many iterations have nobody present: the
    # weight is fallback_alpha until the first report, then reuses the
    # latest report's norm estimate.
    xs, ys = random_samples(19, n=2, m=8, d=3, o=2)
    ds = dataset_from_samples(xs, ys)
    gc = _coded(ds, 1.0, RngStream(19))
    p, steps, stream = 0.9, 40, RngStream(19).child("t")

    def run(steps):
        ((tr,),) = train(
            [ds], [[gc]], [AdaptiveEstimated(0.25)], p, steps, InverseDecay(1e-3),
            [stream],
        )
        return tr

    tr = run(steps)
    rng = stream.child("mask").generator()
    masks = sample_stragglers(p, 2, rng, steps)
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
        grads = [device_gradient(x, y, w_prev) for x, y, m in zip(xs, ys, masks[t - 1]) if m]
        beta_sq = float(np.mean([np.sum(g * g) for g in grads]))
        expect = alpha_estimated(p, 3, 2, gc.noise, beta_sq, tr.w_norm_sq[t])
        assert tr.alpha[t] == pytest.approx(expect, rel=1e-12)
        assert tr.alpha[t] != tr.alpha[t - 1]


@pytest.mark.parametrize(
    "sigma1_sq, sigma2_sq",
    [
        pytest.param(1e308, 1e308, id="both-overflow"),
        pytest.param(1e308, 1.0, id="coded-term-overflows"),
        pytest.param(1e160, 1.0, id="coded-scale-past-sqrt-max"),
    ],
)
def test_train_estimated_weight_survives_huge_coded_noise(sigma1_sq, sigma2_sq):
    # The coded term's scale d s1 (1-p) overflows, or passes sqrt(MAX), where
    # its product with D + 2W* could: the run must stay finite and, after
    # the first report, the weight must follow the scalar formula.  Fallback
    # 0 keeps the huge coded gradient out of the iterate until then.
    xs, ys = random_samples(23, n=5, m=10, d=4, o=2)
    ds = dataset_from_samples(xs, ys)
    noise = NoiseParams(sigma1_sq, sigma2_sq)
    (gc,) = encode_levels(ds, [noise], RngStream(23).child("enc"))
    p, steps, stream = 0.4, 300, RngStream(23).child("t")

    def run(steps):
        ((tr,),) = train(
            [ds], [[gc]], [AdaptiveEstimated(0.0)], p, steps, InverseDecay(1e-3),
            [stream],
        )
        return tr

    tr = run(steps)
    masks = sample_stragglers(p, 5, stream.child("mask").generator(), steps)
    first = int(np.flatnonzero(tr.n_present)[0])
    assert np.all(tr.alpha[:first] == 0.0)
    checked = [t for t in [*range(first, steps, 23), steps - 1] if tr.n_present[t]]
    assert len(checked) > 10
    for t in checked:
        w = run(t).final_w
        grads = [device_gradient(x, y, w) for x, y, m in zip(xs, ys, masks[t]) if m]
        beta_sq = float(np.mean([np.sum(g * g) for g in grads]))
        expect = alpha_estimated(p, 4, 2, noise, beta_sq, tr.w_norm_sq[t])
        assert tr.alpha[t] == pytest.approx(expect, rel=1e-12, abs=0.0), t


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "policy, layout",
    [
        pytest.param(FixedWeight(0.5), "x", id="fixed"),
        pytest.param(AdaptiveEstimated(), "x", id="estimated"),
        pytest.param(AdaptiveEstimated(), "sx", id="two-arms"),
        pytest.param(AdaptiveEstimated(), "sxs", id="interleaved-kinds"),
    ],
)
def test_train_divergence_names_the_iteration(policy, layout):
    # The diverging arm x among still fixed arms s: the error names it by its
    # position in the caller's list, also when an estimated arm sits between
    # constant ones.
    root = RngStream(20)
    ds = generate(100, 100, 10, 10, root.child("data"))
    noise = NoiseParams(0.1, 0.1)
    (gc,) = encode_levels(ds, [noise], root.child("enc"))
    # The pure coded gradient of all-zero coded sums: a still arm never moves.
    zeros = GlobalCodedData(np.zeros((10, 10)), np.zeros((10, 10)), noise)
    coded = [gc if c == "x" else zeros for c in layout]
    policies = [policy if c == "x" else FixedWeight(1.0) for c in layout]
    with pytest.raises(
        NumericError,
        match=rf"iteration \d+ in arm {layout.index('x')} \({re.escape(repr(policy))}\)"
        r".*last finite loss: \d",
    ):
        train(
            [ds], [coded], policies, 0.2, 300, InverseDecay(1.0), [root.child("train")],
        )


# The arms of every _replicate: two estimated ones (one per level) around a
# fixed and an oracle one on the first level's sums.
REPLICATE_POLICIES = (
    AdaptiveEstimated(0.3), FixedWeight(0.4), AdaptiveOracle(3.0, 2.0), AdaptiveEstimated(0.3),
)


def _replicate(seed, n=4, m=9, d=3, o=2, levels=(0.5, 4.0)):
    """One replicate's dataset, facts, strong-convexity schedule, stream and
    the coded sums of each of :data:`REPLICATE_POLICIES`."""
    root = RngStream(seed)
    ds = generate(n, m, d, o, root.child("dataset"))
    facts = optimum(ds)
    coded = [
        encode_levels(ds, [NoiseParams(level, level)], root.child("encode"))[0]
        for level in levels
    ]
    coded[1:1] = [coded[0]] * 2
    return ds, facts, schedule_for_strong_convexity(facts.lam), root.child("train"), coded


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n_rep", [1, 3])
def test_batched_train_equals_one_replicate_calls(n_rep, k):
    # Replicates advanced together on a leading axis give, bit for bit, the
    # traces each gets trained alone: distinct datasets, schedules (one
    # strong-convexity constant each: None batched, given alone) and streams;
    # p = 0.9 on 4 devices leaves some steps with no report for the estimated
    # arms; 600 steps cross the mask block boundaries.
    p, steps = 0.9, 600
    reps = [_replicate(40 + r) for r in range(n_rep)]
    coded, policies = [rep[4][:k] for rep in reps], REPLICATE_POLICIES[:k]
    batched = train(
        [rep[0] for rep in reps], coded, policies, p, steps, None,
        [rep[3] for rep in reps], columns=EVERY_COLUMN,
    )
    assert len(batched) == n_rep
    for (ds, _, schedule, stream, _), coded_r, traces in zip(reps, coded, batched):
        (alone,) = train(
            [ds], [coded_r], policies, p, steps, schedule, [stream],
            columns=EVERY_COLUMN,
        )
        assert len(traces) == len(alone) == k
        assert (alone[0].n_present == 0).any()
        for a, b in zip(traces, alone):
            for name in ("n_present", *TRACE_COLUMNS[1:], "alpha", "w0", "final_w"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert a.mask_digest == b.mask_digest


@pytest.mark.parametrize("steps", [0, MASK_CHUNK_ROWS + 36])
def test_final_loss_is_the_loss_at_the_final_iterate(steps):
    # Each trace's final_loss is dataset.loss at its final_w, bit for bit, for
    # every arm of every replicate; after zero steps that is the loss at w0.
    reps = [_replicate(60 + r) for r in range(3)]
    datasets = [rep[0] for rep in reps]
    traces = train(
        datasets, [rep[4] for rep in reps], REPLICATE_POLICIES, 0.3, steps, None,
        [rep[3] for rep in reps],
    )
    for ds, replicate in zip(datasets, traces, strict=True):
        assert len(replicate) == len(REPLICATE_POLICIES)
        for tr in replicate:
            assert tr.final_loss == loss(tr.final_w, ds, optimum(ds))
            if not steps:
                assert np.array_equal(tr.final_w, tr.w0)


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_an_arms_trace_does_not_depend_on_the_arms_beside_it(p):
    # A fixed or oracle arm takes one step path whatever shares its call:
    # alone, before or after an estimated arm, beside the other constant arm
    # and as replicate 0 of two, its trace is the same bit for bit.  An
    # estimated arm is likewise unchanged by constant neighbours and by a
    # second estimated arm (alone it steps on 2-D views, beside it on the
    # batched ones); at p = 0 its weight is 0 and it folds like a fixed one,
    # its trace that of FixedWeight(0).  The steps cross a mask block.
    steps = MASK_CHUNK_ROWS + 36
    reps = [_replicate(90 + r) for r in range(2)]
    est, fixed, oracle, est_b = range(4)  # each replicate's arms, as REPLICATE_POLICIES

    def run(arms, n_rep=1, policies=REPLICATE_POLICIES):
        ds, _, _, streams, coded = zip(*reps[:n_rep])
        return train(
            ds, [[row[j] for j in arms] for row in coded], [policies[j] for j in arms],
            p, steps, None, streams, columns=EVERY_COLUMN,
        )

    def check(got, expect):
        for name in ("n_present", *TRACE_COLUMNS, "w0", "final_w"):
            assert np.array_equal(getattr(got, name), getattr(expect, name)), name
        assert got.mask_digest == expect.mask_digest

    for arm, other in ((fixed, oracle), (oracle, fixed)):
        ((alone,),) = run([arm])
        check(run([arm, est])[0][0], alone)
        check(run([est, arm])[0][1], alone)
        check(run([est, arm, est_b])[0][1], alone)
        check(run([other, arm])[0][1], alone)
        check(run([arm, est], n_rep=2)[0][0], alone)
    ((alone,),) = run([est])
    check(run([fixed, est, oracle])[0][1], alone)
    check(run([est, fixed])[0][0], alone)
    check(run([est, est_b])[0][0], alone)
    if p == 0.0:
        check(alone, run([est], policies={est: FixedWeight(0.0)})[0][0])


def test_batched_train_checks_each_replicate():
    reps = [_replicate(50), _replicate(51)]
    args = dict(
        policies=REPLICATE_POLICIES, straggler_p=0.3, steps=5, schedule=None,
        stream=[rep[3] for rep in reps],
    )
    datasets = [rep[0] for rep in reps]
    with pytest.raises(ParameterError, match="^replicate 1: 3 coded sums for 4 policies$"):
        train(datasets, [reps[0][4], reps[1][4][:3]], **args)
    with pytest.raises(ParameterError, match="per replicate"):
        train(datasets[:1], [rep[4] for rep in reps], **args)
    with pytest.raises(ParameterError, match="^need at least one replicate to train$"):
        train([], [], **args)
    with pytest.raises(ParameterError, match="^unsupported schedule: 0.001$"):
        train(datasets, [rep[4] for rep in reps], **{**args, "schedule": 1e-3})
    other = _replicate(52, n=5)
    with pytest.raises(ParameterError, match="replicate 1: dataset shape"):
        train([datasets[0], other[0]], [rep[4] for rep in reps], **args)


def _shrunk(ds, gc, s):
    """``ds`` and its coded sums ``gc`` with every sample scaled by ``sqrt(s)``:
    the optimum stays, and every gradient is ``s`` times smaller, so a
    schedule's steps move it as ``s`` times smaller steps move ``ds``."""
    shrunk = FederatedDataset(
        ds.gram_x * s, ds.gram_xy * s, ds.w_true, ds.xe_sum * s, ds.ee_sum * s
    )
    return shrunk, GlobalCodedData(gc.h_x_sum * s, gc.h_y_sum * s, gc.noise)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_batched_train_divergence_names_the_replicate():
    # Under one InverseDecay(1.0) schedule, replicate 0, whose samples are
    # shrunk so that its steps are 1e-4 times smaller, stays finite; replicate
    # 1 diverges at the iteration it does alone.
    root = RngStream(20)
    datasets, coded = [], []
    policies = [FixedWeight(0.5), AdaptiveEstimated()]
    for r in range(2):
        ds = generate(100, 100, 10, 10, root.child("data", r))
        noise = NoiseParams(0.1, 0.1)
        (gc,) = encode_levels(ds, [noise], root.child("enc", r))
        if r == 0:
            ds, gc = _shrunk(ds, gc, 1e-4)
        datasets.append(ds)
        coded.append([gc, gc])
    streams = [root.child("train", r) for r in range(2)]
    with pytest.raises(NumericError) as alone:
        train(
            datasets[1:], coded[1:], policies, 0.2, 300, InverseDecay(1.0), streams[1:],
        )
    t, j = re.search(r"iteration (\d+) in arm (\d+)", str(alone.value)).groups()
    policy = policies[int(j)]
    with pytest.raises(
        NumericError,
        match=rf"training diverged at iteration {t} in arm {j} "
        rf"\({re.escape(repr(policy))}\) of replicate 1: .*last finite loss: \d",
    ):
        train(
            datasets, coded, policies, 0.2, 300, InverseDecay(1.0), streams,
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_inside_a_mask_block_names_the_first_bad_row():
    # The trace columns are computed a block of MASK_CHUNK_ROWS iterations
    # at a time, and non-finite rows are found after each block; the error
    # must still name the first non-finite iteration, arm and replicate and
    # the last finite loss, as a check after every step would.  Replicate 1
    # of 2 diverges inside its second block; the per-step reference loop
    # says where.  Replicate 0's samples are shrunk so that its steps are
    # 2.5e-5 times smaller, and it stays finite.
    root = RngStream(21)
    noise = NoiseParams(0.1, 0.1)
    datasets, coded, facts = [], [], []
    policies = [FixedWeight(0.5), AdaptiveEstimated()]
    for r in range(2):
        ds = generate(6, 12, 3, 2, root.child("data", r))
        (gc,) = encode_levels(ds, [noise], root.child("enc", r))
        if r == 0:
            ds, gc = _shrunk(ds, gc, 2.5e-5)
        datasets.append(ds)
        coded.append([gc, gc])
        facts.append(optimum(ds))
    streams = [root.child("train", r) for r in range(2)]
    p, c, steps = 0.2, 40.0, 300
    # A zero-step run reports replicate 1's initial iterate.
    ((first, _),) = train(datasets[1:], coded[1:], policies, p, 0, InverseDecay(c), streams[1:])
    w0 = first.w0

    xs, ys, _ = replay_samples(6, 12, 3, 2, root.child("data", 1))
    first_bad = []
    for gc, policy in zip(coded[1], policies):
        rows, _ = _naive_train(xs, ys, gc, policy, p, steps, c, streams[1], facts[1], noise, w0)
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        losses = rows[: bad[0] + 1, 2]
        first_bad.append((int(bad[0]), losses[np.isfinite(losses)][-1]))
    t = min(tb for tb, _ in first_bad)
    j = next(j for j, (tb, _) in enumerate(first_bad) if tb == t)
    last_loss = first_bad[j][1]
    assert MASK_CHUNK_ROWS < t < 2 * MASK_CHUNK_ROWS

    with pytest.raises(NumericError) as err:
        train(
            datasets, coded, policies, p, steps, InverseDecay(c), streams,
        )
    policy = policies[j]
    match = re.fullmatch(
        rf"training diverged at iteration {t} in arm {j} \({re.escape(repr(policy))}\) of "
        r"replicate 1: a non-finite loss, weight or norm \(last finite loss: (.+)\)",
        str(err.value),
    )
    assert match, str(err.value)
    assert float(match.group(1)) == pytest.approx(last_loss, rel=1e-9)


def test_train_reference_setup_loss_drops():
    root = RngStream(14)
    ds = generate(100, 100, 10, 10, root.child("data"))
    noise = NoiseParams(0.01, 0.01)
    (gc,) = encode_levels(ds, [noise], root.child("enc"))
    ((tr,),) = train(
        [ds], [[gc]], [AdaptiveEstimated()], 0.2, 2000, InverseDecay(1e-4),
        [root.child("train")],
    )
    assert tr.loss[-1] < tr.loss[0] / 10.0
    assert np.all((tr.alpha >= 0.0) & (tr.alpha <= 1.0))


def test_train_trace_is_deterministic(random_instance):
    ds = random_instance(15, n=4, m=9, d=3, o=2)
    gc = _coded(ds, 1.0, RngStream(15))

    def run():
        ((tr,),) = train(
            [ds], [[gc]], [AdaptiveEstimated()], 0.3, 60, InverseDecay(1e-3),
            [RngStream(15).child("t")],
        )
        return tr

    a, b = run(), run()
    for name in ("alpha", "n_present", "loss", "dist_sq", "grad_norm_sq"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.final_w, b.final_w)
    assert a.mask_digest == b.mask_digest


def test_train_alpha_in_unit_interval_for_all_policies(random_instance):
    ds = random_instance(16, n=4, m=9, d=3, o=2)
    gc = _coded(ds, 2.0, RngStream(16))
    policies = [
        FixedWeight(0.5),
        AdaptiveOracle(5.0, 5.0),
        AdaptiveEstimated(0.7),
    ]
    (traces,) = train(
        [ds], [[gc] * len(policies)], policies, 0.4, 40, InverseDecay(1e-3),
        [RngStream(16).child("t")],
    )
    for tr in traces:
        assert np.all((tr.alpha >= 0.0) & (tr.alpha <= 1.0))


def test_train_requires_noise_for_adaptive(random_instance):
    ds = random_instance(17, n=2, m=8, d=3, o=2)
    gc = _coded(ds, 1.0, RngStream(17))
    with pytest.raises(ParameterError, match="noise"):
        GlobalCodedData(gc.h_x_sum, gc.h_y_sum, None)
    with pytest.raises(ParameterError, match=r"^h_x_sum must be square, got \(2, 3\)$"):
        GlobalCodedData(np.zeros((2, 3)), np.zeros((2, 2)), gc.noise)
    with pytest.raises(ParameterError, match="^h_y_sum rows must match h_x_sum, got "):
        GlobalCodedData(np.zeros((2, 2)), np.zeros((3, 2)), gc.noise)
    with pytest.raises(ParameterError, match="arm"):
        train([ds], [[]], [], 0.2, 5, InverseDecay(1e-3), [RngStream(17).child("t")])
    with pytest.raises(ParameterError, match="arm 1"):
        wrong = GlobalCodedData(np.zeros((2, 2)), np.zeros((2, 2)), gc.noise)
        train(
            [ds], [[gc, wrong]], [FixedWeight(0.5)] * 2, 0.2, 5, InverseDecay(1e-3),
            [RngStream(17).child("t")],
        )


@pytest.mark.parametrize("policy", [OracleAuto(), None, "adaptive"], ids=repr)
def test_train_refuses_a_non_policy(random_instance, policy):
    # OracleAuto is a config's request for an oracle, not a policy: the
    # harness resolves it first.
    ds = random_instance(17, n=2, m=8, d=3, o=2)
    gc = _coded(ds, 1.0, RngStream(17))
    with pytest.raises(ParameterError, match=rf"^unsupported policy: {re.escape(repr(policy))}$"):
        train(
            [ds], [[gc, gc]], [FixedWeight(0.5), policy], 0.2, 5, InverseDecay(1e-3),
            [RngStream(17).child("t")],
        )


def test_train_oracle_policy_uses_constant_alpha(random_instance):
    ds = random_instance(18, n=3, m=9, d=3, o=2)
    noise = NoiseParams(1.5, 0.5)
    (gc,) = encode_levels(ds, [noise], RngStream(18).child("enc"))
    policy = AdaptiveOracle(2.0, 3.0)
    ((tr,),) = train(
        [ds], [[gc]], [policy], 0.25, 30, InverseDecay(1e-3),
        [RngStream(18).child("t")],
    )
    expect = alpha_oracle(0.25, 2.0, 3.0, 3, 2, noise)
    assert np.all(tr.alpha == expect)


def test_oracle_weight_reads_each_arms_coded_noise(random_instance):
    # One oracle policy on one dataset's sums at two noises: each arm's
    # weight is the oracle's at the noise its own sums were encoded with.
    ds = random_instance(18, n=3, m=9, d=3, o=2)
    noises = [NoiseParams(0.2, 0.2), NoiseParams(5.0, 1.0)]
    coded = encode_levels(ds, noises, RngStream(18).child("enc"))
    policy = AdaptiveOracle(2.0, 3.0)
    (traces,) = train(
        [ds], [coded], [policy] * len(coded), 0.25, 30, InverseDecay(1e-3),
        [RngStream(18).child("t")],
    )
    alphas = [alpha_oracle(0.25, 2.0, 3.0, 3, 2, noise) for noise in noises]
    assert alphas[0] != alphas[1]
    for tr, expect in zip(traces, alphas, strict=True):
        assert np.all(tr.alpha == expect)


def test_requesting_the_device_maximum_changes_nothing_else():
    # A column is computed only on request; whichever are asked for (the
    # default, and the sets that run, the OracleAuto probe and compare
    # record), every recorded value, the final iterate, n_present and the
    # masks must equal the call that records every column, bit for bit.
    reps = [_replicate(60 + r) for r in range(2)]  # arms: estimated, fixed, oracle
    args = (
        [rep[0] for rep in reps], [rep[4][:3] for rep in reps], REPLICATE_POLICIES[:3], 0.5, 150,
        None, [rep[3] for rep in reps],
    )
    full = train(*args, columns=EVERY_COLUMN)
    for columns in (None, RUN_COLUMNS, PROBE_COLUMNS, ()):
        lean = train(*args) if columns is None else train(*args, columns=columns)
        recorded = EVERY_COLUMN[:-1] if columns is None else columns
        for lean_r, full_r in zip(lean, full, strict=True):
            for a, b in zip(lean_r, full_r, strict=True):
                assert b.max_device_grad_sq.shape == (150,)
                for name in EVERY_COLUMN:
                    if name not in recorded:
                        assert getattr(a, name) is None, (columns, name)
                for name in ("n_present", *recorded, "w0", "final_w"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), (columns, name)
                assert a.mask_digest == b.mask_digest
                assert a.steps == 150


def test_train_refuses_an_unknown_column(random_instance):
    ds = random_instance(12, n=3, m=9, d=3, o=2)
    gc = _coded(ds, 0.5, RngStream(12))
    with pytest.raises(ParameterError, match=r"^columns: unknown trace column 'n_present'$"):
        train(
            [ds], [[gc]], [FixedWeight(0.5)], 0.2, 3, InverseDecay(1e-3),
            [RngStream(12).child("t")], columns=("loss", "n_present"),
        )


@pytest.mark.parametrize("p", [0.0, 0.4])
@pytest.mark.parametrize("n, d, o", [(30, 3, 2), (600, 5, 3)])
def test_residual_only_statistics_change_no_bit(n, d, o, p):
    # With no estimated arm and no device maximum, train builds and sums only
    # the R_i columns of the statistics; every value must equal the call that
    # builds them all (every column recorded), bit for bit.  Label noise keeps
    # the R_i away from zero; 150 steps cross the mask block boundaries.  At the
    # second shape, BLAS sums the R_i columns of one product over every
    # statistic in another order than a product over the R_i alone.
    reps = []
    for r in range(2):
        root = RngStream(80 + r)
        ds = dataset_from_samples(*replay_samples(n, d + 6, d, o, root.child("dataset"), 0.05))
        noise = NoiseParams(0.5, 0.5)
        (gc,) = encode_levels(ds, [noise], root.child("encode"))
        reps.append((ds, [gc, gc], root.child("train")))
    datasets, coded, streams = map(list, zip(*reps))
    policies = [FixedWeight(0.4), AdaptiveOracle(3.0, 2.0)]
    args = (datasets, coded, policies, p, 150, None, streams)
    lean = train(*args)
    full = train(*args, columns=EVERY_COLUMN)
    for lean_r, full_r in zip(lean, full, strict=True):
        for a, b in zip(lean_r, full_r, strict=True):
            assert a.max_device_grad_sq is None
            for name in (*TRACE_COLUMNS[:-1], "w0", "final_w"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert a.mask_digest == b.mask_digest


def test_reports_resolved_per_mask_block_match_the_per_step_loop():
    # Two devices at p = 0.9: most steps hear no report.  The estimated arms
    # resolve which steps hear one a mask block at a time, and keep the last
    # estimate across steps (and blocks) without one; every trace column must
    # match the per-step reference loop of each replicate.
    p, steps, c = 0.9, 200, 1e-2
    samples = [random_samples(70 + r, n=2, m=8, d=3, o=2) for r in range(2)]
    datasets = [dataset_from_samples(xs, ys) for xs, ys in samples]
    facts = [optimum(ds) for ds in datasets]
    streams = [RngStream(70 + r).child("t") for r in range(2)]
    policies = [
        AdaptiveEstimated(0.2), FixedWeight(0.3), AdaptiveOracle(4.0, 1.0), AdaptiveEstimated(0.9),
    ]
    coded = [[_coded(ds, 0.5, RngStream(70 + r))] * 4 for r, ds in enumerate(datasets)]
    traces = train(
        datasets, coded, policies, p, steps, InverseDecay(c), streams,
        columns=EVERY_COLUMN,
    )
    # In some replicate, a run of steps without a report crosses a block
    # boundary, and some block mixes steps with and without one.
    silent = [replicate[0].n_present == 0 for replicate in traces]
    bounds = range(MASK_CHUNK_ROWS, steps, MASK_CHUNK_ROWS)
    assert any(s[b - 1] and s[b] for s in silent for b in bounds)
    starts = range(0, steps, MASK_CHUNK_ROWS)
    blocks = [s[lo : lo + MASK_CHUNK_ROWS] for s in silent for lo in starts]
    assert any(block.any() and not block.all() for block in blocks)
    for (xs, ys), ds_facts, stream, coded_r, replicate in zip(
        samples, facts, streams, coded, traces
    ):
        for gc, policy, tr in zip(coded_r, policies, replicate):
            rows, w = _naive_train(
                xs, ys, gc, policy, p, steps, c, stream, ds_facts, gc.noise, tr.w0
            )
            for j, name in enumerate(TRACE_COLUMNS):
                assert np.allclose(getattr(tr, name), rows[:, j], rtol=1e-10, atol=0.0), name
            assert np.allclose(tr.final_w, w, rtol=1e-10, atol=0.0)


def test_divergence_at_a_block_start_without_a_recorded_loss_reports_the_loss_before_it():
    # With no loss recorded, the error computes the losses it reports from the
    # iterates it still holds: the block's and the last one of the block
    # before.  Here ||D_t||^2 first overflows at iteration 128, the first row
    # of the third mask block, where the loss is infinite too; the reported
    # loss is that of iteration 127, the final iterate of a 127-step run.
    root = RngStream(21)
    ds = generate(6, 12, 3, 2, root.child("data", 0))
    facts = optimum(ds)
    (gc,) = encode_levels(ds, [NoiseParams(0.1, 0.1)], root.child("enc", 0))
    stream = root.child("train", 0)

    def run(steps):
        return train(
            [ds], [[gc]], [AdaptiveEstimated()], 0.2, steps, InverseDecay(26.7), [stream],
            columns=(),
        )

    with pytest.raises(NumericError) as err:
        run(300)
    match = re.search(r"iteration (\d+) in arm 0 .*last finite loss: (.+)\)$", str(err.value))
    assert match and int(match.group(1)) == 2 * MASK_CHUNK_ROWS, str(err.value)
    ((before,),) = run(2 * MASK_CHUNK_ROWS - 1)
    assert float(match.group(2)) == pytest.approx(loss(before.final_w, ds, facts), rel=1e-9)


def test_divergence_with_no_finite_loss_held_says_the_loss_was_not_recorded():
    # With no loss recorded, the error path holds only the block's iterates
    # and the one before it.  Here the loss overflows more than a row before
    # ||D_t||^2 does, so none of those losses is finite: the message says the
    # loss was not recorded rather than printing None, and still names the
    # iteration where ||D_t||^2 overflowed, the first of the third block.
    root = RngStream(21)
    ds = generate(6, 12, 3, 2, root.child("data", 0))
    (gc,) = encode_levels(ds, [NoiseParams(0.1, 0.1)], root.child("enc", 0))
    with pytest.raises(NumericError) as err:
        train(
            [ds], [[gc]], [FixedWeight(0.5)], 0.2, 300, InverseDecay(26.3),
            [root.child("train", 0)], columns=(),
        )
    message = str(err.value)
    assert "None" not in message
    match = re.search(r"iteration (\d+) in arm 0 .*\(last finite loss: not recorded\)$", message)
    assert match and int(match.group(1)) == 2 * MASK_CHUNK_ROWS, message
