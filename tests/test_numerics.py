import math
import pkgutil

import numpy as np
import pytest

import acfl
from acfl import *  # noqa: F403 -- fails at import if __all__ names a missing attribute
from acfl.errors import ParameterError
from acfl.numerics import RngStream, as_matrix, eig_min_sym


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
