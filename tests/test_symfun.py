"""Symmetric functions, the binomial expansion identity, and the Jacobian of
the root-to-coefficient map with its finite-difference oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from recmahler.errors import IndexOutOfRange, StepTooLarge, ZeroRoot
from recmahler.symfun import (
    coefficient_map,
    elem_sym,
    epsilon_via_e,
    jacobian_complex_det,
    jacobian_real_factor,
    numeric_jacobian,
    pair_basis,
    vandermonde,
)

F = Fraction


def expand_pair_product(beta):
    """Exact ascending coefficients of prod (x^2 + beta x + 1)."""
    coeffs = [F(1)]
    for b in beta:
        out = [F(0)] * (len(coeffs) + 2)
        for i, c in enumerate(coeffs):
            out[i] += c
            out[i + 1] += c * b
            out[i + 2] += c
        coeffs = out
    return coeffs


# ---------------------------------------------------------------------------
# elementary symmetric functions


def test_elem_sym_frozen():
    assert elem_sym([2, 3], 1) == 5
    assert elem_sym([2, 3], 2) == 6
    assert elem_sym([7, 1, -4], 0) == 1
    assert elem_sym([F(1, 2), F(1, 3)], 2) == F(1, 6)


def test_elem_sym_range_errors():
    with pytest.raises(IndexOutOfRange):
        elem_sym([1, 2], 3)
    with pytest.raises(IndexOutOfRange):
        elem_sym([1, 2], -1)


# ---------------------------------------------------------------------------
# the expansion coefficients eps_n


def test_epsilon_frozen():
    beta = [2, 3]
    assert epsilon_via_e(2, 0, beta) == 1
    assert epsilon_via_e(2, 1, beta) == 5
    assert epsilon_via_e(2, 2, beta) == 8  # e_2 + 2


def test_epsilon_reflect():
    beta = [F(1, 2), F(-3), F(5, 7)]
    for n in range(0, 4):
        assert epsilon_via_e(3, n, beta) == epsilon_via_e(3, 6 - n, beta)


def test_epsilon_range_errors():
    with pytest.raises(IndexOutOfRange):
        epsilon_via_e(2, 5, [1, 2])
    with pytest.raises(IndexOutOfRange):
        epsilon_via_e(2, -1, [1, 2])
    with pytest.raises(ValueError):
        epsilon_via_e(2, 1, [1, 2, 3])


def test_epsilon_matches_exact_expansion():
    """Every coefficient of prod (x^2 + beta x + 1), exactly over Q."""
    rng = random.Random(31)
    for big_n in range(1, 5):
        for _ in range(5):
            beta = [
                F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(big_n)
            ]
            coeffs = expand_pair_product(beta)
            for n in range(0, 2 * big_n + 1):
                assert coeffs[n] == epsilon_via_e(big_n, n, beta)


def test_epsilon_unitriangular_in_e():
    """eps_n = e_n + a combination of e_{n-2}, e_{n-4}, ... only, so the
    e -> eps map is triangular with unit diagonal."""
    import math

    beta = [F(1, 2), F(2), F(-3), F(4, 3)]
    for n in range(1, 5):
        correction = sum(
            math.comb(4 - n + 2 * m, m) * elem_sym(beta, n - 2 * m)
            for m in range(1, n // 2 + 1)
        )
        assert epsilon_via_e(4, n, beta) == elem_sym(beta, n) + correction


def test_pair_basis_inverts_epsilon():
    """(eps_N, ..., eps_0) @ pair_basis(N) gives the coefficients e_{N-k}(beta)
    of prod (y + beta_n), exactly over Q, for every N up to 8."""
    rng = random.Random(32)
    for big_n in range(1, 9):
        for _ in range(3):
            beta = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(big_n)]
            v = [epsilon_via_e(big_n, big_n - m, beta) for m in range(big_n + 1)]
            basis = pair_basis(big_n)
            q = [
                sum(v[m] * int(basis[m, k]) for m in range(big_n + 1))
                for k in range(big_n + 1)
            ]
            assert q == [elem_sym(beta, big_n - k) for k in range(big_n + 1)]


def test_pair_basis_rows():
    assert pair_basis(4).tolist() == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [-2, 0, 1, 0, 0],
        [0, -3, 0, 1, 0],
        [2, 0, -4, 0, 1],
    ]
    with pytest.raises(ValueError):
        pair_basis(0)


# ---------------------------------------------------------------------------
# Vandermonde


def test_vandermonde_frozen():
    assert vandermonde([1, 3]) == 2
    assert vandermonde([1, 2, 4]) == 6
    assert vandermonde([2, 2, 5]) == 0
    assert vandermonde([7]) == 1


def test_vandermonde_antisymmetry():
    beta = [F(1, 2), F(3), F(-5, 4), F(2)]
    swapped = [F(3), F(1, 2), F(-5, 4), F(2)]
    assert vandermonde(swapped) == -vandermonde(beta)


# ---------------------------------------------------------------------------
# Jacobian of the coefficient map


def test_jacobian_frozen():
    assert jacobian_complex_det([2.0]) == pytest.approx(0.75, rel=1e-14)
    assert jacobian_real_factor([2.0]) == pytest.approx(9 / 16, rel=1e-14)
    assert jacobian_complex_det([2.0, 3.0]) == pytest.approx(5 / 9, rel=1e-13)
    assert jacobian_real_factor([2.0, 3.0]) == pytest.approx(25 / 81, rel=1e-13)


def test_jacobian_vanishes_at_unimodular_fixed_points():
    assert jacobian_complex_det([1.0, 2.0]) == 0
    assert jacobian_real_factor([3.0, -1.0]) == 0


def test_jacobian_rejects_zero_root():
    with pytest.raises(ZeroRoot):
        jacobian_complex_det([0.0, 2.0])


def test_coefficient_map_frozen():
    assert np.allclose(coefficient_map([2.0]), [2.5])
    assert np.allclose(coefficient_map([1.0, -1.0]), [-2.0, 0.0])


# ---------------------------------------------------------------------------
# finite differences


def test_numeric_jacobian_identity_map():
    jac = numeric_jacobian(lambda a: a, [2.0 + 1.0j, -1.5 + 0.5j])
    assert np.allclose(jac, np.eye(4), atol=1e-9)


def test_numeric_jacobian_complex_structure():
    """Multiplication by i has the real Jacobian [[0, -1], [1, 0]]."""
    jac = numeric_jacobian(lambda a: 1j * a, [1.7 - 0.3j])
    assert np.allclose(jac, [[0.0, -1.0], [1.0, 0.0]], atol=1e-9)


def test_numeric_jacobian_matches_formula():
    for alpha in ([2.0], [2.0, 3.0]):
        jac = numeric_jacobian(coefficient_map, alpha)
        fd = float(np.linalg.det(jac))
        assert fd == pytest.approx(jacobian_real_factor(alpha), rel=1e-6)


def test_numeric_jacobian_step_guard():
    with pytest.raises(StepTooLarge):
        numeric_jacobian(coefficient_map, [2.0], h=0.1)
    with pytest.raises(ZeroRoot):
        numeric_jacobian(coefficient_map, [0.0])
