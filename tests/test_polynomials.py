"""Coefficient forms: palindromic embeddings, root parametrization, and the
elementary-symmetric coefficient map."""

import itertools

import numpy as np
import pytest

from recmahler.errors import ZeroArgument, ZeroRoot
from recmahler.polynomials import (
    MonicRecip,
    RecipLaurent,
    RootVec,
    e_map,
    eval_recip,
    from_roots,
    lambda_embed,
    monic_to_poly,
)
from recmahler.symfun import elem_sym


def poly_eval(coeffs: np.ndarray, x: complex) -> complex:
    acc = 0j
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# containers


def test_recip_laurent_needs_order_one():
    with pytest.raises(ValueError):
        RecipLaurent(np.array([1.0]))
    assert RecipLaurent(np.array([1.0, 2.0])).order == 1


def test_root_vec_rejects_zero():
    with pytest.raises(ZeroRoot):
        RootVec(np.array([1.0, 0.0]))
    assert RootVec(np.array([2.0, 3.0])).order == 2


def test_eval_rejects_zero_argument():
    with pytest.raises(ZeroArgument):
        eval_recip(RecipLaurent(np.array([1.0, 2.0])), 0.0)


# ---------------------------------------------------------------------------
# evaluation and embeddings


def test_eval_recip_frozen():
    assert eval_recip(RecipLaurent(np.array([1.0, 2.0])), 2.0) == pytest.approx(6.0)
    assert eval_recip(MonicRecip(np.array([3.0])), 2.0) == pytest.approx(5.5)
    # x and 1/x give the same value by construction
    p = RecipLaurent(np.array([1.0, -2.0, 0.5j]))
    x = 1.3 * np.exp(0.7j)
    assert eval_recip(p, x) == pytest.approx(eval_recip(p, 1.0 / x), rel=1e-12)


def test_monic_to_poly_is_unit_palindrome():
    out = monic_to_poly(MonicRecip(np.array([2.0, 0.0])))
    assert np.array_equal(out, np.array([1.0, 0.0, 2.0, 0.0, 1.0], dtype=complex))
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        out = monic_to_poly(MonicRecip(b))
        assert out[0] == 1.0 and out[-1] == 1.0
        assert np.array_equal(out, out[::-1])


def test_lambda_embed_frozen_and_palindrome():
    out = lambda_embed(RecipLaurent(np.array([5.0, 7.0])))
    assert np.array_equal(out, np.array([7.0, 5.0, 7.0], dtype=complex))
    rng = np.random.default_rng(12)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    out = lambda_embed(RecipLaurent(v))
    assert np.array_equal(out, out[::-1])


def test_lambda_embed_takes_a_batch_of_rows():
    rng = np.random.default_rng(15)
    v = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    rows = [lambda_embed(RecipLaurent(row)) for row in v]
    assert np.array_equal(lambda_embed(v), np.array(rows))


def test_embeddings_match_laurent_values():
    """x^N * (Laurent value) equals the plain polynomial value."""
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        p = RecipLaurent(v)
        emb = lambda_embed(p)
        for x in [np.exp(2j * np.pi * rng.random()), 1.3 * np.exp(1j * rng.random())]:
            lhs = poly_eval(emb, x)
            rhs = x ** n * eval_recip(p, x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        q = MonicRecip(b)
        emb2 = monic_to_poly(q)
        x = 0.8 * np.exp(2.1j)
        assert poly_eval(emb2, x) == pytest.approx(
            x ** n * eval_recip(q, x), rel=1e-12, abs=1e-12
        )


# ---------------------------------------------------------------------------
# root parametrization


def test_from_roots_frozen():
    assert np.allclose(from_roots(np.array([2.0])).b, [2.5])
    assert np.allclose(from_roots(np.array([1.0, -1.0])).b, [-2.0, 0.0])


def test_from_roots_rejects_zero():
    with pytest.raises(ZeroRoot):
        from_roots(np.array([1.0, 0.0]))


def test_from_roots_zeros_are_roots():
    """-alpha_n and -1/alpha_n annihilate the embedded polynomial."""
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        alpha = rng.uniform(0.4, 2.5, size=n) * np.exp(2j * np.pi * rng.random(n))
        poly = monic_to_poly(from_roots(alpha))
        scale = np.sum(np.abs(poly))
        for a in alpha:
            for z in (-a, -1.0 / a):
                bound = scale * max(1.0, abs(z)) ** (2 * n)
                assert abs(poly_eval(poly, z)) <= 1e-9 * bound


def test_from_roots_preimage_symmetry():
    """All 2^N N! relabelings of (alpha, 1/alpha) give the same b."""
    rng = np.random.default_rng(15)
    alpha = rng.uniform(0.5, 2.0, size=3) * np.exp(2j * np.pi * rng.random(3))
    base = from_roots(alpha).b
    scale = max(1.0, float(np.max(np.abs(base))))
    for perm in itertools.permutations(range(3)):
        for flips in itertools.product([False, True], repeat=3):
            variant = np.array(
                [1.0 / alpha[i] if f else alpha[i] for i, f in zip(perm, flips)]
            )
            assert np.max(np.abs(from_roots(variant).b - base)) <= 1e-10 * scale


def test_from_roots_accepts_root_vec():
    rv = RootVec(np.array([2.0 + 0j]))
    assert np.allclose(from_roots(rv).b, [2.5])


# ---------------------------------------------------------------------------
# additive coefficient map


def test_e_map_frozen():
    assert np.allclose(e_map([2.0, 3.0]), [6.0, 5.0])
    assert np.allclose(e_map([4.0]), [4.0])
    assert np.allclose(e_map([0.0, 0.0]), [0.0, 0.0])
    assert np.allclose(e_map([1.0, -1.0]), [-1.0, 0.0])


def test_e_map_matches_elementary_symmetric():
    rng = np.random.default_rng(16)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        beta = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = e_map(beta)
        for k in range(n):
            expect = complex(elem_sym(list(beta), n - k))
            assert b[k] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_from_roots_matches_binomial_expansion():
    """The reciprocal-form coefficients are the e_k(beta) combinations the
    expansion identity predicts, not the raw e_k themselves.

    b_k is the x^{N+k} coefficient, which by the palindrome is the x^{N-k}
    coefficient, hence eps_{N-k} in the end-indexed convention.
    """
    from recmahler.symfun import epsilon_via_e

    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        alpha = rng.uniform(0.5, 2.0, size=n) * np.exp(2j * np.pi * rng.random(n))
        beta = list(alpha + 1.0 / alpha)
        b = from_roots(alpha).b
        for k in range(n):
            expect = complex(epsilon_via_e(n, n - k, beta))
            scale = max(1.0, abs(expect))
            assert abs(b[k] - expect) <= 1e-10 * scale
