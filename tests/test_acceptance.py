"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Each test also prints its measured values (visible with
``-s`` or on failure).
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from acfl.analysis import BoundInputs, comm_overhead, convergence_bound, tradeoff_curve, u_of, u_tilde
from acfl.coding import NoiseParams, encode_levels
from acfl.dataset import generate, loss, optimum
from acfl.harness import ExperimentConfig, compare_baselines, run_experiment
from acfl.numerics import RngStream
from acfl.privacy import epsilon_of, sigma_for_epsilon
from acfl.training import (
    TRACE_COLUMNS,
    AdaptiveEstimated,
    AdaptiveOracle,
    InverseDecay,
    alpha_oracle,
    schedule_for_strong_convexity,
    train,
)
from reference import blend, coded_gradient, device_gradient, replay_samples

REF_INPUTS = BoundInputs(
    p=0.1, n_devices=5, beta_sq=100.0, c_sq=1.0, d=100, o=10,
    sigma1_sq=1.0, sigma2_sq=1.0, lam=1.0, steps=1000,
)


# ---------------------------------------------------------------- criterion 1


def test_c01_local_gradient_matches_finite_differences():
    """Analytic device gradients agree with central finite differences."""
    m, d, o = 12, 5, 3
    step = 1e-6
    rng = np.random.default_rng(100)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, (m, d))
        y = rng.uniform(-1.0, 1.0, (m, o))
        w = rng.normal(size=(d, o))
        g = device_gradient(x, y, w)
        fd = np.zeros_like(g)
        for j in range(d):
            for k in range(o):
                wp, wm = w.copy(), w.copy()
                wp[j, k] += step
                wm[j, k] -= step
                fd[j, k] = (
                    0.5 * np.sum((x @ wp - y) ** 2) - 0.5 * np.sum((x @ wm - y) ** 2)
                ) / (2 * step)
        assert np.allclose(fd, g, rtol=1e-4, atol=1e-8)
    print("criterion 1 PASS: finite differences match on 20 instances")


# ---------------------------------------------------------------- criterion 2


def test_c02_closed_form_optimum_recovers_true_weights():
    """On noiseless data the closed-form optimum is the generating matrix."""
    worst = 0.0
    for seed in range(10):
        ds = generate(5, 20, 6, 4, RngStream(seed).child("data"))
        err = float(np.linalg.norm(optimum(ds).w_star - ds.w_true))
        worst = max(worst, err)
        assert err < 1e-8
    print(f"criterion 2 PASS: worst recovery error {worst:.2e} < 1e-8 over 10 seeds")


# ---------------------------------------------------------------- criterion 3


def test_c03_privacy_accountant():
    """Reference value, lossless inversion, monotonicity, vanishing limit."""
    eps = epsilon_of(NoiseParams(1.0, 1.0), 10, 10)
    assert abs(eps - 14.5 * math.log(2.0)) < 1e-9
    for target in np.geomspace(1e-3, 1e3, 41):
        back = epsilon_of(sigma_for_epsilon(float(target), 10, 10), 10, 10)
        assert back == pytest.approx(float(target), rel=1e-9)
    grid = np.geomspace(1e-3, 1e3, 50)
    values = [epsilon_of(NoiseParams(float(s), float(s)), 10, 10) for s in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    # vanishing-epsilon limit, checked where (d - 1/2 + o/2) * 1e-9 < 1e-8
    assert epsilon_of(NoiseParams(1e9, 1e9), 5, 5) < 1e-8
    print("criterion 3 PASS: accountant exact, invertible, monotone, vanishing")


# ----------------------------------------------------- criteria 4 and 5 setup


@pytest.fixture(scope="module")
def joint_redraws():
    """2e5 joint redraws of coding noise and straggler masks at a fixed W.

    Per redraw, the real encoder sums every device's upload (one batched
    encoding); the coded gradient and its blend with the drawn mask's device
    gradients, stacked once, are the naive formulas of ``reference``, applied
    to the coded sums of a chunk of redraws at a time.
    """
    n, d, o, m, p = 5, 4, 2, 8, 0.3
    alpha = 0.5
    noise = NoiseParams(1.0, 1.0)
    root = RngStream(202)
    ds = generate(n, m, d, o, root.child("data"))
    xs, ys, _ = replay_samples(n, m, d, o, root.child("data"))
    w = root.child("w").generator().uniform(0.0, 1.0 / 30.0, size=(d, o))
    grads = np.stack([device_gradient(x, y, w) for x, y in zip(xs, ys)])
    g_true = grads[0].copy()
    for g in grads[1:]:
        g_true += g
    k, chunk = 200_000, 10_000
    masks = root.child("masks").generator().random((k, n)) >= p
    acc = np.zeros((d, o))
    acc_sq = np.zeros((d, o))
    norm_acc = 0.0
    h_x, h_y = np.empty((chunk, d, d)), np.empty((chunk, d, o))
    for lo in range(0, k, chunk):
        for i in range(chunk):
            (coded,) = encode_levels(ds, [noise], root.child("enc", lo + i))
            h_x[i], h_y[i] = coded.h_x_sum, coded.h_y_sum
        g_all = blend(coded_gradient(h_x, h_y, w), grads, masks[lo : lo + chunk], alpha, p)
        sq = g_all * g_all
        acc += g_all.sum(axis=0)
        acc_sq += sq.sum(axis=0)
        norm_acc += float(np.sum(sq))
    mean = acc / k
    se = np.sqrt((acc_sq / k - mean**2) / k)
    return {
        "mean": mean,
        "se": se,
        "g_true": g_true,
        "mean_norm_sq": norm_acc / k,
        "grads": grads,
        "w": w,
        "params": (n, d, o, p, alpha, noise),
    }


def test_c04_aggregated_gradient_is_unbiased(joint_redraws):
    """Mean aggregated gradient equals the full gradient within 4 SEs."""
    z = np.abs(joint_redraws["mean"] - joint_redraws["g_true"]) / joint_redraws["se"]
    assert float(z.max()) <= 4.0
    print(f"criterion 4 PASS: max |mean - true|/se = {float(z.max()):.3f} <= 4")


def test_c05_second_moment_bound_holds(joint_redraws):
    """Empirical E||G_all||^2 stays below the closed-form bound."""
    n, d, o, p, alpha, noise = joint_redraws["params"]
    beta_sq = max(float(np.sum(g * g)) for g in joint_redraws["grads"])
    c_sq = float(np.sum(joint_redraws["w"] ** 2))
    inputs = BoundInputs(
        p=p, n_devices=n, beta_sq=beta_sq, c_sq=c_sq, d=d, o=o,
        sigma1_sq=noise.sigma1_sq, sigma2_sq=noise.sigma2_sq, lam=1.0, steps=1,
    )
    rhs = u_of(inputs, alpha)
    assert joint_redraws["mean_norm_sq"] <= rhs
    print(
        f"criterion 5 PASS: E||G_all||^2 = {joint_redraws['mean_norm_sq']:.3f}"
        f" <= bound {rhs:.3f}"
    )


# ---------------------------------------------------------------- criterion 6


def test_c06_oracle_weight_optimality():
    """Closed-form weight minimizes u; spot values at the reference setup."""
    rng = np.random.default_rng(106)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(200):
        inputs = BoundInputs(
            p=float(rng.uniform(0.0, 0.9)),
            n_devices=int(rng.integers(1, 40)),
            beta_sq=float(rng.uniform(0.1, 50.0)),
            c_sq=float(rng.uniform(0.1, 50.0)),
            d=int(rng.integers(1, 30)),
            o=int(rng.integers(1, 30)),
            sigma1_sq=float(10 ** rng.uniform(-3, 2)),
            sigma2_sq=float(10 ** rng.uniform(-3, 2)),
            lam=1.0,
            steps=1,
        )
        alpha = alpha_oracle(
            inputs.p, inputs.beta_sq, inputs.c_sq, inputs.d, inputs.o, inputs.noise()
        )
        u_star = u_of(inputs, alpha)
        values = np.array([u_of(inputs, float(a)) for a in grid])
        assert u_star <= float(values.min()) + 1e-12
        assert u_star == pytest.approx(u_tilde(inputs), rel=1e-9)
    spot_alpha = alpha_oracle(0.1, 100.0, 1.0, 100, 10, NoiseParams(1.0, 1.0))
    assert spot_alpha == pytest.approx(0.01, abs=1e-12)
    assert u_tilde(REF_INPUTS) == pytest.approx(2555.0, abs=1e-6)
    print("criterion 6 PASS: grid minimum matches closed form on 200 draws; spot values exact")


# ---------------------------------------------------------------- criterion 7


def test_c07_distance_bound_after_t_steps():
    """Mean squared distance after T steps obeys 4 u / (lam^2 T)."""
    n, d, o, m, p = 5, 4, 2, 8, 0.2
    noise = NoiseParams(0.1, 0.1)
    seeds = 50
    root = RngStream(107)
    ds = generate(n, m, d, o, root.child("data"))
    facts = optimum(ds)
    schedule = schedule_for_strong_convexity(facts.lam)

    def run(policy, s):
        (coded,) = encode_levels(ds, [noise], root.child("enc", s))
        ((trace,),) = train(
            [ds], [[coded]], [policy], p, 1000, schedule, [root.child("train", s)],
            columns=TRACE_COLUMNS,
        )
        return trace

    probe = run(AdaptiveEstimated(), 0)
    beta_sq = float(probe.max_device_grad_sq.max()) * 2.0
    c_sq = float(probe.w_norm_sq.max()) * 2.0
    for _ in range(5):
        traces = [run(AdaptiveOracle(beta_sq, c_sq), s) for s in range(seeds)]
        realized_beta = max(float(tr.max_device_grad_sq.max()) for tr in traces)
        realized_c = max(float(tr.w_norm_sq.max()) for tr in traces)
        if realized_beta <= beta_sq and realized_c <= c_sq:
            break
        beta_sq = max(beta_sq, realized_beta * 2.0)
        c_sq = max(c_sq, realized_c * 2.0)
    else:
        pytest.fail("norm bounds did not stabilize")

    alpha = alpha_oracle(p, beta_sq, c_sq, d, o, noise)
    for tr in traces:
        assert np.all(tr.alpha == alpha)
    for steps in (100, 1000):
        inputs = BoundInputs(
            p=p, n_devices=n, beta_sq=beta_sq, c_sq=c_sq, d=d, o=o,
            sigma1_sq=noise.sigma1_sq, sigma2_sq=noise.sigma2_sq,
            lam=facts.lam, steps=steps,
        )
        bound = convergence_bound(inputs, u_of(inputs, alpha))
        if steps == 1000:
            dists = [float(np.sum((tr.final_w - facts.w_star) ** 2)) for tr in traces]
        else:
            # the T=100 iterate is the prefix of the T=1000 run
            dists = [float(tr.dist_sq[steps]) for tr in traces]
        mean_dist = float(np.mean(dists))
        assert mean_dist <= bound
        print(f"criterion 7 T={steps}: mean dist^2 {mean_dist:.3e} <= bound {bound:.3e}")
    print("criterion 7 PASS")


# ---------------------------------------------------------------- criterion 8


def test_c08_adaptive_tradeoff_dominates_fixed_weights():
    """Adaptive curve is pointwise below every fixed-weight curve."""
    grid = np.geomspace(1e-2, 1e4, 49)
    adaptive = tradeoff_curve(REF_INPUTS, grid)
    for alpha in np.linspace(0.0, 1.0, 11):
        fixed = tradeoff_curve(REF_INPUTS, grid, float(alpha))
        for a_pt, f_pt in zip(adaptive, fixed):
            assert a_pt.bound <= f_pt.bound + 1e-9
    print("criterion 8 PASS: adaptive bound dominates 11 fixed weights on 49 grid points")


# ---------------------------------------------------------------- criterion 9


def test_c09_training_comparison_reference_setup(tmp_path):
    """Reference-scale paired comparison: trends, win rate, noise resilience."""
    low, high = 0.1, 10.0
    # compare keeps each run's initial and final iterates, not its trace:
    # every arm of replicate r starts from w0 on the dataset of ("dataset", r).
    root = RngStream(109)
    datasets = [generate(100, 100, 10, 10, root.child("dataset", r)) for r in range(20)]
    problems = [(ds, optimum(ds)) for ds in datasets]
    for p in (0.2, 0.4):
        cfg = ExperimentConfig(
            n_devices=100, m=100, d=10, o=10, straggler_p=p,
            noise=NoiseParams(low, low),
            policy=AdaptiveEstimated(), schedule=InverseDecay(1e-4),
            steps=2000, master_seed=109, replicates=20,
            out_dir=str(tmp_path / f"p{p}"),
        )
        result = compare_baselines(replace(cfg, noise_levels=(low, high)))
        finals = {}
        for level in (low, high):
            for method in ("acfl", "na"):
                traces = result.records[(level, method)]
                initial = np.mean([loss(tr.w0, *problems[r]) for r, tr in enumerate(traces)])
                finals[(level, method)] = float(np.mean([tr.final_loss for tr in traces]))
                assert finals[(level, method)] < initial, (p, level, method)
        assert result.win_rates[high] >= 0.9, (p, result.win_rates)
        ratio_acfl = finals[(high, "acfl")] / finals[(low, "acfl")]
        ratio_na = finals[(high, "na")] / finals[(low, "na")]
        assert ratio_acfl < ratio_na, (p, ratio_acfl, ratio_na)
        print(
            f"criterion 9 p={p}: win rate {result.win_rates[high]:.2f},"
            f" degradation ratio acfl {ratio_acfl:.2f} vs na {ratio_na:.2f}"
        )
    print("criterion 9 PASS")


# --------------------------------------------------------------- criterion 10


def test_c10_communication_overhead_exact_integers():
    """Uplink bit counts at the reference configuration."""
    psi1, psi2, total = comm_overhead(32, 10, 10, 100, 1000)
    assert psi1 == 640_000
    assert psi2 == 320_000_000
    assert total == 320_640_000
    print("criterion 10 PASS: psi1=640000 psi2=320000000")


# --------------------------------------------------------------- criterion 11


def test_c11_byte_identical_artifacts(tmp_path):
    """Same config and seed give identical bytes on every run."""
    def digest(name):
        cfg = ExperimentConfig(
            n_devices=4, m=10, d=3, o=2, straggler_p=0.3,
            noise=NoiseParams(0.5, 0.5),
            policy=AdaptiveEstimated(), schedule=InverseDecay(1e-3),
            steps=40, master_seed=111, replicates=4,
            out_dir=str(tmp_path / name),
        )
        result = run_experiment(cfg)
        return hashlib.sha256(result.trace_path.read_bytes()).hexdigest()

    runs = [digest("run_a"), digest("run_b"), digest("run_c")]
    assert runs[0] == runs[1] == runs[2]
    print(f"criterion 11 PASS: trace digest {runs[0][:16]}... identical across runs")
