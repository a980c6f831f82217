import math

import numpy as np
import pytest

from acfl.coding import NoiseParams, encode_levels
from acfl.dataset import generate, optimum
from acfl.errors import ParameterError
from acfl.numerics import RngStream
from acfl.privacy import epsilon_of, sigma_for_epsilon
from acfl.training import FixedWeight, schedule_for_strong_convexity, train


def test_reference_value_unit_variance():
    # (10 - 1/2) ln 2 + (10/2) ln 2 = 14.5 ln 2
    eps = epsilon_of(NoiseParams(1.0, 1.0), 10, 10)
    assert eps == pytest.approx(14.5 * math.log(2.0), abs=1e-9)


def test_perfect_privacy_limit():
    assert epsilon_of(NoiseParams(1e9, 1e9), 5, 5) < 1e-8
    assert epsilon_of(NoiseParams(1e12, 1e12), 10, 10) < 1e-8


def test_term_isolation():
    # huge sigma2 leaves only the feature-block term (d - 1/2) ln((1+s1)/s1)
    eps = epsilon_of(NoiseParams(0.7, 1e12), 1, 2)
    assert eps == pytest.approx(0.5 * math.log((1 + 0.7) / 0.7), abs=1e-11)


def test_additive_split():
    big = 1e300
    s1, s2 = 0.3, 2.5
    together = epsilon_of(NoiseParams(s1, s2), 6, 4)
    split = epsilon_of(NoiseParams(s1, big), 6, 4) + epsilon_of(NoiseParams(big, s2), 6, 4)
    assert split == pytest.approx(together, abs=1e-12)


def test_finite_below_the_reciprocal_overflow():
    # 1/s overflows for s < 1/DBL_MAX; ln(1 + 1/s) is then ln(1 + s) - ln(s).
    for s in (5e-324, 1e-320):
        term = math.log1p(s) - math.log(s)
        eps = epsilon_of(NoiseParams(s, s), 3, 2)
        assert math.isfinite(eps)
        assert eps == (3 - 0.5) * term + (2 / 2.0) * term


def test_monotone_decreasing_in_each_variance():
    grid = np.geomspace(1e-3, 1e3, 50)
    eps1 = [epsilon_of(NoiseParams(s, 1.0), 10, 10) for s in grid]
    eps2 = [epsilon_of(NoiseParams(1.0, s), 10, 10) for s in grid]
    assert all(a > b for a, b in zip(eps1, eps1[1:]))
    assert all(a > b for a, b in zip(eps2, eps2[1:]))


def test_inversion_reference_value():
    noise = sigma_for_epsilon(14.5 * math.log(2.0), 10, 10)
    assert noise.sigma1_sq == pytest.approx(1.0, rel=1e-12)
    assert noise.sigma2_sq == noise.sigma1_sq


def test_roundtrip_across_epsilon_range():
    for eps in np.geomspace(1e-3, 1e3, 25):
        noise = sigma_for_epsilon(float(eps), 10, 10)
        back = epsilon_of(noise, 10, 10)
        assert back == pytest.approx(float(eps), rel=1e-9)


def test_inversion_limits():
    # no-privacy limit: large target, vanishing variance
    assert sigma_for_epsilon(1e3, 1, 2).sigma1_sq < 1e-289
    assert sigma_for_epsilon(1e9, 10, 10).sigma1_sq == 0.0
    # perfect-privacy limit: tiny target, huge variance
    assert sigma_for_epsilon(1e-6, 10, 10).sigma1_sq > 1e4


def test_rejects_zero_noise_and_bad_targets():
    with pytest.raises(ParameterError, match="unbounded"):
        epsilon_of(NoiseParams(0.0, 1.0), 10, 10)
    with pytest.raises(ParameterError, match="unbounded"):
        epsilon_of(NoiseParams(1.0, 0.0), 10, 10)
    with pytest.raises(ParameterError):
        sigma_for_epsilon(0.0, 10, 10)
    with pytest.raises(ParameterError):
        sigma_for_epsilon(-1.0, 10, 10)
    with pytest.raises(ParameterError):
        epsilon_of(NoiseParams(1.0, 1.0), 0, 10)


@pytest.mark.parametrize(
    "n, m, d, o, rtol", [(100, 100, 10, 10, 1e-12), (20, 30, 6, 2, 1e-10)], ids=["d=o", "o<d"]
)
def test_gradient_reports_reveal_what_the_upload_hides(n, m, d, o, rtol):
    # Epsilon bounds a device's one-time coded upload, not the exact
    # gradients G_t = A_i W_t - B_i it reports while present.  At
    # ceil(d/o) + 1 iterates whose differences span R^d, A_i follows from one
    # solve, A_i (W_t - W_0) = G_t - G_0, and then B_i = A_i W_0 - G_0.  The
    # masks do not depend on `steps`, so W_t is the final iterate of a t-step
    # run.  Both cases recover A_i and B_i within 1.4e-13 (single-threaded
    # OpenBLAS 0.3.31 and its default threads alike).
    root = RngStream(7)
    ds = generate(n, m, d, o, root.child("data"))
    facts = optimum(ds)
    (gc,) = encode_levels(ds, [NoiseParams(10.0, 10.0)], root.child("enc"))
    schedule = schedule_for_strong_convexity(facts.lam)

    def final_w(t):
        ((trace,),) = train(
            [ds], [[gc]], [FixedWeight(0.5)], 0.0, t, schedule, [root.child("train")],
            columns=(),
        )
        return trace.final_w

    iterates = [final_w(t) for t in range(-(-d // o) + 1)]
    a_i, b_i = ds.gram_x[3], ds.gram_xy[3]
    reports = [a_i @ w - b_i for w in iterates]
    steps = np.hstack([w - iterates[0] for w in iterates[1:]])
    changes = np.hstack([g - reports[0] for g in reports[1:]])
    a_hat = np.linalg.lstsq(steps.T, changes.T, rcond=None)[0].T
    b_hat = a_hat @ iterates[0] - reports[0]
    assert np.linalg.norm(a_hat - a_i) <= rtol * np.linalg.norm(a_i)
    assert np.linalg.norm(b_hat - b_i) <= rtol * np.linalg.norm(b_i)
