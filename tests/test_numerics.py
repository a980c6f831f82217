import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import acfl
from acfl import *  # noqa: F403 -- fails at import if __all__ names a missing attribute
from acfl.errors import NumericError, ParameterError
from acfl.numerics import RngStream, _cholesky, as_matrix, eig_min_sym, spd_solve
from reference import linear_solve


SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(acfl.__path__))


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_submodule_star_imports(module):
    # A star import fails if the module's __all__ names a missing attribute.
    exec(f"from acfl.{module} import *", {})


def test_gaussian_moments():
    m = RngStream(7).child("mc").generator().normal(0.0, 2.0, (100, 100))
    # 10^4 draws of std 2: the standard error of the sample mean is 2/100
    assert abs(m.mean()) < 4 * (2 / 100)
    assert abs(m.var() - 4.0) < 0.1 * 4.0


def test_gaussian_determinism():
    s = RngStream(11, "noise", (4, 2))
    sd = math.sqrt(2.5)
    a = s.generator().normal(0.0, sd, (5, 5))
    assert np.array_equal(a, s.generator().normal(0.0, sd, (5, 5)))


def test_distinct_streams_differ():
    draws = [RngStream(5).child("dev", i).generator().normal(0.0, 1.0, (4, 4)) for i in range(8)]
    tags = [RngStream(5).child(t).generator().normal(0.0, 1.0, (4, 4)) for t in ("a", "b")]
    draws.extend(tags)
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            # compare the first 16 draws; a collision would mean broken keying
            assert not np.array_equal(draws[i].ravel()[:16], draws[j].ravel()[:16])


def test_swapped_indices_differ():
    a = RngStream(5, "t", (1, 2)).generator().normal(0.0, 1.0, (4, 4))
    b = RngStream(5, "t", (2, 1)).generator().normal(0.0, 1.0, (4, 4))
    assert not np.array_equal(a, b)


def test_uniform_range_and_determinism():
    s = RngStream(2).child("u")
    m = s.generator().uniform(-1.0, 1.0, size=(50, 20))
    assert m.min() >= -1.0 and m.max() < 1.0
    assert np.array_equal(m, s.generator().uniform(-1.0, 1.0, size=(50, 20)))


def test_spd_solve_identity():
    b = np.arange(12.0).reshape(3, 4) / 10.0
    assert np.allclose(spd_solve(np.eye(3), b), b, rtol=0, atol=1e-15)


def test_spd_solve_scaled_identity():
    z = spd_solve(2.0 * np.eye(2), np.eye(2))
    assert np.allclose(z, 0.5 * np.eye(2), rtol=0, atol=1e-15)


def test_spd_solve_residual_on_random_spd():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.normal(size=(6, 6))
        a = m @ m.T + 0.5 * np.eye(6)
        b = rng.normal(size=(6, 3))
        z = spd_solve(a, b)
        res = np.linalg.norm(a @ z - b)
        assert res <= 1e-8 * (1.0 + np.linalg.norm(b))


def test_spd_solve_inverts_multiplication():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(5, 5))
    a = m @ m.T + np.eye(5)
    z = rng.normal(size=(5, 2))
    z_rec = spd_solve(a, a @ z)
    assert np.allclose(z_rec, z, rtol=1e-7, atol=1e-12)


def test_spd_solve_reports_failing_pivot():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(NumericError) as exc:
        spd_solve(a, np.eye(2))
    assert exc.value.pivot_index == 2


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 12),
    o=st.integers(1, 12),
    log_cond=st.floats(0.0, 8.0),
    log_scale=st.floats(-3.0, 3.0),
)
def test_spd_solve_agrees_with_lu_reference(seed, d, o, log_cond, log_scale):
    """The factor is ``np.linalg.cholesky``'s, bit for bit, and each column of
    the solution is within ``8 d eps cond(A)`` of an LU solve, relatively.

    ``A = s Q diag(lam) Q'`` with a random orthogonal ``Q``, eigenvalues
    log-uniform in ``[s, s 10^log_cond]`` (both ends taken when ``d > 1``) and
    scale ``s`` in ``[1e-3, 1e3]``.  Both solves are backward stable, so each
    is within a small multiple of ``d eps cond(A)`` of the exact solution; on
    20,000 seeded draws of this construction the largest ratio of the
    difference to ``d eps cond(A)`` was 2.0.
    """
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(0.0, log_cond, d)
    if d > 1:
        lam[0], lam[-1] = 1.0, 10.0**log_cond
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    a = 10.0**log_scale * (q * lam) @ q.T
    a = (a + a.T) / 2.0
    b = rng.standard_normal((d, o))
    assert np.array_equal(_cholesky(a), np.linalg.cholesky(a))
    z, ref = spd_solve(a, b), linear_solve(a, b)
    err = np.linalg.norm(z - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert np.all(err <= 8 * d * np.finfo(float).eps * np.linalg.cond(a))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), which=st.sampled_from(["1", "2", "d"]))
def test_spd_solve_reports_the_first_failing_leading_minor(seed, d, which):
    """``A = L diag(D) L'`` with ``L`` unit lower triangular and ``D_k < 0``
    as the only negative entry: the leading minors of order below ``k`` are
    positive definite and the one of order ``k`` is not."""
    k = {"1": 1, "2": min(2, d), "d": d}[which]
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.uniform(-0.5, 0.5, (d, d)), -1) + np.eye(d)
    diag = rng.uniform(0.5, 2.0, d)
    diag[k - 1] = -diag[k - 1]
    a = (lower * diag) @ lower.T
    a = (a + a.T) / 2.0
    with pytest.raises(NumericError, match=f"leading minor of order {k} failed") as exc:
        spd_solve(a, np.ones((d, 1)))
    assert exc.value.pivot_index == k


def test_spd_solve_rejects_asymmetric():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ParameterError):
        spd_solve(a, np.eye(2))


def test_eig_min_identity():
    assert eig_min_sym(np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_eig_min_diagonal():
    assert eig_min_sym(np.diag([1.0, 3.0, 5.0])) == pytest.approx(1.0, abs=1e-12)


def test_eig_min_matches_char_poly_roots():
    # Newton's identities turn power sums tr(A^k) into the characteristic
    # polynomial without an eigensolver; its smallest real root is the oracle.
    rng = np.random.default_rng(1)
    m = rng.normal(size=(5, 5))
    a = m + m.T
    powers = [np.eye(5)]
    for _ in range(5):
        powers.append(powers[-1] @ a)
    p = [np.trace(powers[k]) for k in range(6)]
    e = [1.0]
    for k in range(1, 6):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * p[i]
        e.append(acc / k)
    coeffs = [(-1) ** k * e[k] for k in range(6)]
    roots = np.roots(coeffs)
    assert abs(min(roots.real) - eig_min_sym(a)) < 1e-6


def test_eig_min_rejects_asymmetric():
    with pytest.raises(ParameterError):
        eig_min_sym(np.array([[1.0, 1e-6], [0.0, 1.0]]))


def test_frobenius_identities():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(4, 6))
    assert np.linalg.norm(a) ** 2 == pytest.approx(float(np.sum(a * a)), rel=1e-12)
    assert np.linalg.norm(a + b) <= np.linalg.norm(a) + np.linalg.norm(b) + 1e-12


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ParameterError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ParameterError):
        as_matrix(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(ParameterError):
        as_matrix(np.zeros((0, 3)))
