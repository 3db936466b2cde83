"""Exact spectral core: the moment matrix of reciprocal-polynomial measures,
its determinant identity, and the closed distribution form it produces.

The central objects, all exact:

* coeff_c(n, J): integer coefficients expanding the circle integrals below
  in a common Fourier-like basis,

      c_n(J) = C(J-1, (J+n)/2 - 1) - C(J-1, (J+n)/2)   for 1 <= n <= J,
                                                        n == J (mod 2),
  zero otherwise, with c_J(J) = 1.  The bracket order is pinned by the
  (J, K) = (1, 3) integral, which direct quadrature shows equals
  +2*pi*(r^2 + r^-2); the reversed bracket gives the wrong sign there.

* i_entry(J, K) = pi * sum_n a_n(J) a_n(K) * 2s/(s^2 - n^2): the (J, K)
  moment of the two-sided radial kernel, taken from the integrand with no
  coeff_c: a_n(J) is the w^n coefficient, n >= 1, of
  (w - 1/w)(w + 1/w)^{J-1}.  hJK_closed builds its radial form from coeff_c
  instead; verify-entries holds that to hJK_quadrature, the circle
  integral's exact trapezoid sum, a constant term in integers.

* det of the N x N moment matrix equals prod_{n<=N} 2*pi*s/(s^2 - n^2)
  exactly; h_product builds that product, and factorization_checks proves
  the identity from I = C^T D C (below), with no elimination.  I's side
  comes from the integrand and C^T D C's from coeff_c, so the check proves
  the c_n(J) expansion too.  det_ratfun (fraction-free elimination over
  Z[s]) is the reference it is tested against, and det_double_sum (a
  permutation sum) a scalar oracle for the determinant's values.

* rho(N, n): residue of the Mellin transform hhat_N = H_N/(2s) at s = n,

      rho(n) = pi^N 2^{N-1} n^N (-1)^{N-n} / ((N+n)! (N-n)!),

  with rho(-n) = (-1)^N rho(n); summing residues against the inverse
  Mellin kernel gives the closed distribution form

      h_N(xi) = sum_{n=1}^N 2 rho(n) (xi^{2n} + (-1)^N xi^{-2n}),

  which vanishes at xi = 1 and transforms back to hhat_N term by term
  (the xi^{+2n} term owns the pole at s = +n under this package's Mellin
  convention; swapping the pair is detectable for odd N and breaks the
  transform identity).  hn proves that identity by mellin_residue_miss,
  residue by residue, with h_hat's residues taken by cover-up from its
  factors, not from rho.

* volume_exact(N) = 2*pi*hhat_N(N+1) = 2^N pi^{N+1} (N+1)^N / (2N+1)!:
  the volume of the star body {mu_rec <= 1} in C^{N+1}.

The factorization behind the determinant: the moment matrix is C^T D C
with C the unitriangular integer matrix of c_n(J) and D the diagonal of
2*pi*s/(s^2 - n^2), so det I = (det C)^2 det D = prod_n d_n.
factorization_checks proves both halves with no elimination: each entry
of C^T D C, residues c_n(J) c_n(K) at +-n from coeff_c, is compared with
I's, residues a_n(J) a_n(K) from the integrand, and det C = 1 is the
product of the diagonal of an upper triangular C.  As a_n(n) = 1, the
entries (n, J) force c_n(J) = c_n(n) a_n(J): the c_n(J) expansion, up to
the sign of each row of C, which C^T D C cannot see.  The last diagonal
entry is also reachable through a rank-one identity: any exact kernel
vector psi of the first N-1 rows of C satisfies
I psi = d_N (omega_N . psi) omega_N.  omega_psi_check gets psi from
integer back substitution, compares the identity as residue maps, and
runs factorization_checks too.

Every rational function here is a sum of simple integer poles, RatFunPi,
stored as its residue map: two are equal exactly when their maps are, so
comparing the maps is already a proof, and no evaluation at sample points
is needed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, permutations
from typing import Sequence

from .errors import (
    DimensionTooLarge,
    EvaluationOverflow,
    GradeMismatch,
    IndexOutOfRange,
    RepeatedPole,
)
from .exact import (
    LaurentPi,
    PiScaled,
    RatFunPi,
    cleared_poly,
    int_poly_from_roots,
    laurent_from_poles,
    poly_divmod,
    poly_mul,
    poly_sub,
)


# ---------------------------------------------------------------------------
# expansion coefficients and matrices


def coeff_c(n: int, j: int) -> int:
    """Expansion coefficient c_n(J); zero off-parity and for n > J."""
    if n < 1 or j < 1:
        raise IndexOutOfRange("c_n(J) needs n >= 1 and J >= 1")
    if n > j or (j - n) % 2:
        return 0
    m = (j + n) // 2
    return math.comb(j - 1, m - 1) - math.comb(j - 1, m)


def d_term(n: int) -> RatFunPi:
    """Diagonal kernel factor 2*pi*s / (s^2 - n^2), n >= 1."""
    if n < 1:
        raise IndexOutOfRange("d_n needs n >= 1")
    return RatFunPi(1, _d_residues(n))


def c_matrix(n_order: int) -> tuple[tuple[int, ...], ...]:
    """C's rows, c_matrix(N)[n-1][J-1] = c_n(J); upper unitriangular."""
    return tuple(
        tuple(coeff_c(n, j) for j in range(1, n_order + 1))
        for n in range(1, n_order + 1)
    )


def _moment_map(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Residue map over pi of sum_n a_n b_n 2s/(s^2 - n^2), from two columns
    {n: weight}: a_n b_n at s = +n and at s = -n, since 2s/(s^2 - n^2) =
    1/(s - n) + 1/(s + n).  Poles of different n never collide."""
    out: dict[int, int] = {}
    for n, w in a.items():
        if x := w * b.get(n, 0):
            out[n] = out[-n] = x
    return out


def _odd_binomial_terms(d: int) -> dict[int, int]:
    """n -> coefficient of w^n, n >= 1, in (w - 1/w)(w + 1/w)^{d-1}: the
    binomial row of d - 1 convolved with (1, -1).  The polynomial is odd in
    w, so these terms fix the rest."""
    row = [math.comb(d - 1, i) for i in range((d + 1) // 2)]
    return {d - 2 * i: hi - lo for i, (hi, lo) in enumerate(zip(row, [0] + row))}


def i_entry(j: int, k: int) -> RatFunPi:
    """Moment i_entry(J, K) = pi * sum_n a_n b_n 2s/(s^2 - n^2), with a and
    b the integrand's binomial terms of J and K (no coeff_c)."""
    if j < 1 or k < 1:
        raise IndexOutOfRange("moment indices start at 1")
    a, b = _odd_binomial_terms(j), _odd_binomial_terms(k)
    return RatFunPi(1, _moment_map(a, b))


def i_residue_maps(n_order: int) -> list[list[dict[int, int]]]:
    """Residue maps of the moment matrix entries over pi, rows[J-1][K-1],
    from the integrand's binomial terms (no coeff_c): one map per pair
    J <= K, shared by rows[K-1][J-1], so the maps are not to be mutated."""
    if n_order < 1:
        raise IndexOutOfRange("matrix order must be at least 1")
    cols = [_odd_binomial_terms(j) for j in range(1, n_order + 1)]
    rows = [[None] * n_order for _ in cols]
    for j, a in enumerate(cols):
        for k in range(j, n_order):
            rows[j][k] = rows[k][j] = _moment_map(a, cols[k])
    return rows


def i_matrix(n_order: int) -> tuple[tuple[RatFunPi, ...], ...]:
    """The moment matrix, i_matrix(N)[J-1][K-1] = i_entry(J, K)."""
    return tuple(
        tuple(RatFunPi(1, res) for res in row)
        for row in i_residue_maps(n_order)
    )


# ---------------------------------------------------------------------------
# closed radial integrals for single entries


def hJK_closed(j: int, k: int) -> LaurentPi:
    """Radial form of the (J, K) moment:
    2*pi * sum_n c_n(J) c_n(K) (r^{2n} + r^{-2n}); zero off parity.
    Built from coeff_c, it is the inverse Mellin image of i_entry(J, K)
    exactly when the c_n(J) expansion holds."""
    if j < 1 or k < 1:
        raise IndexOutOfRange("moment indices start at 1")
    a, b = ({n: coeff_c(n, d) for n in range(2 - d % 2, d + 1, 2)} for d in (j, k))
    return laurent_from_poles(1, _moment_map(a, b))


def hJK_quadrature(j: int, k: int, r: float, nodes: int) -> float:
    """Same moment as the trapezoid sum over `nodes` points of the circle.

    The integrand (rz - 1/(rz))(r/z - z/r)(rz + 1/(rz))^{J-1}(r/z + z/r)^{K-1}
    is a Laurent polynomial in z of degree J + K, so on more than 2(J + K)
    nodes the sum is its constant term, 2 pi sum_e a_e b_e r^(2e) with a, b
    the binomial z^e coefficients of the halves (no coeff_c).  The terms e
    and -e agree, so this is i_entry's residue map as a Laurent polynomial,
    rounded once by LaurentPi.eval as hJK_closed is.  Off parity it is 0.0.
    """
    if j < 1 or k < 1:
        raise IndexOutOfRange("moment indices start at 1")
    if nodes <= 2 * (j + k):
        raise ValueError(f"need more than {2 * (j + k)} nodes")
    if not 0 < r < math.inf:
        raise ValueError("radius must be positive and finite")
    moments = _moment_map(_odd_binomial_terms(j), _odd_binomial_terms(k))
    return laurent_from_poles(1, moments).eval(r)


# ---------------------------------------------------------------------------
# determinants


def _as_entry_rows(matrix) -> list[list]:
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("expected a nonempty square matrix")
    return rows


def factorization_checks(
    c: Sequence[Sequence[int]], entries: Sequence[Sequence[dict]]
) -> tuple[tuple[str, bool, str], ...]:
    """The exact checks that prove det I = (det C)^2 det D = prod_n d_n:
    "factorization", I == C^T D C entry by entry, and "unimodular C", det C
    = 1 as the product of the diagonal of an upper triangular C.

    c holds C's rows, c[n-1][J-1] = c_n(J), and entries I's residue maps
    over pi, entries[J-1][K-1].  A failed factorization names the first
    (J, K), row by row over J <= K, where I differs from C^T D C.
    """
    size = len(c)
    miss = _first_ctdc_miss(c, entries)
    upper = not any(c[n][j] for n in range(size) for j in range(n))
    det_c = math.prod(c[n][n] for n in range(size))
    fact = f"I != C^T D C at (J, K) = {miss}" if miss else "I == C^T D C entry by entry, exact"
    unimodular = f"det C = {det_c}, expected 1" if upper else "C is not upper triangular"
    return (
        ("factorization", miss is None, fact),
        ("unimodular C", upper and det_c == 1, unimodular),
    )


def _first_ctdc_miss(c, entries) -> tuple[int, int] | None:
    """First (J, K) where I differs from C^T D C, or None.

    (C^T D C)[J][K] / pi = sum_n c_n(J) c_n(K) 2s/(s^2 - n^2), so its
    residue map is _moment_map of C's columns J and K, built from every
    nonzero entry of the c passed in.  It is built once per pair J <= K and
    held to both I[J][K] and I[K][J].
    """
    size = len(c)
    cols = [{n: row[j] for n, row in enumerate(c, 1) if row[j]} for j in range(size)]
    for j in range(size):
        for k in range(j, size):
            ctdc = _moment_map(cols[j], cols[k])
            if entries[j][k] != ctdc:
                return j + 1, k + 1
            if entries[k][j] != ctdc:
                return k + 1, j + 1
    return None


def det_ratfun(matrix) -> RatFunPi:
    """Exact determinant of an N x N matrix of RatFunPi of one grade g, at
    grade N g.

    With L = prod (s - n) over the union of the entries' poles and D a
    common denominator of their residues, D L M has integer polynomial
    entries, and fraction-free elimination over Z[s] (_bareiss) gives
    det(D L M) = D^N L^N det M.  Dividing by L^(N-1) leaves P = D^N L det M
    when det M has simple poles only; a remainder means a repeated pole,
    which raises RepeatedPole.  det M vanishes at infinity, as every entry
    does, so deg P < deg L, and its residue at n is the cover-up value
    P(n) / (D^N prod_{m != n} (n - m)).  Entries of different grades raise
    GradeMismatch.
    """
    rows = _as_entry_rows(matrix)
    size = len(rows)
    entries = [f for row in rows for f in row if not f.is_zero]
    grades = {f.pi_power for f in entries}
    if len(grades) > 1:
        raise GradeMismatch(f"determinant of entries at pi grades {sorted(grades)}")
    poles = sorted({n for f in entries for n in f.residues})
    ell = int_poly_from_roots(poles)
    common = math.lcm(*(r.denominator for f in entries for r in f.residues.values()))
    det = _bareiss([[cleared_poly(f, ell, common) for f in row] for row in rows])
    if not det:
        return RatFunPi.zero()
    for _ in range(size - 1):
        det, rem = poly_divmod(det, ell)
        if rem:
            raise RepeatedPole("the determinant has a repeated pole")
    scale = common ** size
    return RatFunPi(size * grades.pop(), {
        n: Fraction(
            sum(c * n ** i for i, c in enumerate(det)),
            scale * math.prod(n - m for m in poles if m != n),
        )
        for n in poles
    })


def _bareiss(m: list[list[list[int]]]) -> list[int]:
    """Determinant of a square matrix over Z[s] by fraction-free (Bareiss)
    elimination: after step k every entry below and right of the pivot is
    a (k + 1)-minor, so the division by the previous pivot is exact."""
    m = [list(row) for row in m]
    size, sign, prev = len(m), 1, [1]
    for k in range(size - 1):
        pivot = next((i for i in range(k, size) if m[i][k]), None)
        if pivot is None:
            return []
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                cross = poly_sub(poly_mul(m[i][j], m[k][k]), poly_mul(m[i][k], m[k][j]))
                m[i][j], rem = poly_divmod(cross, prev)
                assert not rem
        prev = m[k][k]
    return [sign * c for c in m[-1][-1]]


def det_double_sum(matrix):
    """Determinant via the symmetrized double permutation sum

        det M = (1/n!) sum_{tau} sum_{sigma} sgn(tau) sgn(sigma)
                prod_k M[tau(k)][sigma(k)],

    an O((n!)^2) oracle deliberately capped at n = 6.  Works over any
    exact scalar type with +, *, and division by an integer.
    """
    rows = _as_entry_rows(matrix)
    n = len(rows)
    if n > 6:
        raise DimensionTooLarge("double permutation sum capped at 6 x 6")
    perms = []
    for p in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b]
        )
        perms.append((p, -1 if inversions % 2 else 1))
    total = None
    for tau, sg_t in perms:
        for sigma, sg_s in perms:
            prod = None
            for k in range(n):
                e = rows[tau[k]][sigma[k]]
                prod = e if prod is None else prod * e
            term = prod * Fraction(sg_t * sg_s)
            total = term if total is None else total + term
    return total / math.factorial(n)


def power_over_pairs(n_order: int, power: int) -> tuple[list[int], list[int]]:
    """Ascending integer num/den lists of pi^N (2s)^power / prod_{n=1}^{N}
    (s^2 - n^2), pi^N aside, built from the factors.

    The numerator's only root, 0, is no pole and the denominator is monic,
    so this is the reduced form with no gcd.
    """
    if n_order < 1:
        raise IndexOutOfRange("order must be at least 1")
    in_sq = int_poly_from_roots(n * n for n in range(1, n_order + 1))
    den = [0] * (2 * len(in_sq) - 1)
    den[::2] = in_sq
    return [0] * power + [2 ** power], den


def _cover_up(n_order: int, power: int) -> RatFunPi:
    """pi^N (2s)^power / prod_{n=1}^{N} (s^2 - n^2), power <= N, by cover-up
    from its factors: (+-2n)^power / (+-2n prod_{m != n} (n - m)(n + m)) at
    s = +-n, so the residue at -n is (-1)^(power-1) times that at n.  Both
    products run over consecutive integers: one factorial table serves all n."""
    if n_order < 1:
        raise IndexOutOfRange("order must be at least 1")
    fact = list(accumulate(range(1, 2 * n_order + 1), operator.mul, initial=1))
    sign = 1 if power % 2 else -1
    residues = {}
    for n in range(1, n_order + 1):
        minus = (-1) ** (n_order - n) * fact[n - 1] * fact[n_order - n]  # prod (n - m)
        plus = fact[n_order + n] // (fact[n] * 2 * n)  # prod (n + m)
        residues[n] = r = Fraction((2 * n) ** power, 2 * n * minus * plus)
        residues[-n] = sign * r
    return RatFunPi(n_order, residues)


def h_product(n_order: int) -> RatFunPi:
    """prod_{n=1}^{N} 2*pi*s/(s^2 - n^2): the closed determinant value."""
    return _cover_up(n_order, n_order)


def h_hat(n_order: int) -> RatFunPi:
    """Mellin transform of the distribution: H_N(s)/(2s)."""
    return _cover_up(n_order, n_order - 1)


# ---------------------------------------------------------------------------
# residues, closed distribution form, volume


def rho(n_order: int, n: int) -> PiScaled:
    """Residue of h_hat at s = n, 1 <= n <= N:
    pi^N 2^{N-1} n^N (-1)^{N-n} / ((N+n)!(N-n)!)."""
    big_n = n_order
    if n < 1 or n > big_n:
        raise IndexOutOfRange(f"residue index {n} outside 1..{big_n}")
    num = 2 ** (big_n - 1) * n ** big_n * (-1) ** (big_n - n)
    den = math.factorial(big_n + n) * math.factorial(big_n - n)
    return PiScaled(Fraction(num, den), big_n)


def h_closed(n_order: int) -> LaurentPi:
    """Closed distribution form

        h_N(xi) = sum_n 2 rho(n) (xi^{2n} + (-1)^N xi^{-2n}),

    a Laurent polynomial of grade pi^N that vanishes at xi = 1: the
    inverse Mellin image of hhat_N's residues rho(n) and rho(-n)."""
    if n_order < 1:
        raise IndexOutOfRange("order must be at least 1")
    sign = (-1) ** n_order
    residues: dict[int, Fraction] = {}
    for n in range(1, n_order + 1):
        r = rho(n_order, n).coeff
        residues[n], residues[-n] = r, sign * r
    return laurent_from_poles(n_order, residues)


def mellin_residue_miss(h: LaurentPi, n_order: int) -> int | None:
    """First pole s where the Mellin image of h differs from h_hat(N), or
    None.  Both are sums of simple poles, so equal residues mean equal
    functions.  h's residue at s = e/2 is half its xi^e coefficient, at h's
    grade; h_hat's come from its factors, not from rho.  Poles go 1, -1,
    ..., N, -N, then the least other pole of h."""
    res = {e // 2: t / 2 for e, t in h.terms.items()}
    want = h_hat(n_order)
    for n in range(1, n_order + 1):
        for s in (n, -n):
            if res.pop(s, PiScaled(0)) != PiScaled(want.residues[s], want.pi_power):
                return s
    return min(res, default=None)


def h_eval(n_order: int, xi: float) -> float:
    """Numeric distribution value; 0 below the support edge xi = 1.

    LaurentPi.eval rounds the exact value once, so h_eval(N, 1.0) is exactly
    0.0, no value is negative, and values on a grid never decrease.
    """
    return h_values(n_order, [xi])[0]


def h_values(n_order: int, xis, h: LaurentPi | None = None) -> list[float]:
    """h_eval at each xi in turn, building h_closed(N) once, or not at all
    when the caller passes it as h.

    Raises ValueError on a non-finite xi, EvaluationOverflow past a double.
    """
    if h is None:
        h = h_closed(n_order)
    out = []
    for xi in xis:
        if not math.isfinite(xi):
            raise ValueError(f"xi must be finite, got {xi}")
        try:
            out.append(h.eval(float(xi)) if xi >= 1.0 else 0.0)
        except OverflowError:
            raise EvaluationOverflow(
                f"h_N(xi) at N = {n_order}, xi = {xi:.15g} overflows a double"
            ) from None
    return out


def volume_exact(n_order: int) -> PiScaled:
    """Volume of the star body {mu_rec <= 1} in C^{N+1}:
    2^N pi^{N+1} (N+1)^N / (2N+1)!."""
    if n_order < 1:
        raise IndexOutOfRange("order must be at least 1")
    big_n = n_order
    return PiScaled(
        Fraction(2 ** big_n * (big_n + 1) ** big_n, math.factorial(2 * big_n + 1)),
        big_n + 1,
    )


# ---------------------------------------------------------------------------
# rank-one structure of the top kernel slot


@dataclass(frozen=True)
class RankOneReport:
    """Outcome of the exact rank-one verification for one order."""

    order: int
    psi: tuple[Fraction, ...]
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def omega_psi_check(n_order: int) -> RankOneReport:
    """Exact verification of the rank-one identity at order N >= 2.

    omega_n is the n-th row of the C matrix.  C is upper unitriangular, so
    psi_N = 1 and back substitution, psi_k = -sum_{j>k} c_k(j) psi_j, give
    an integer kernel vector psi of the rows omega_1 .. omega_{N-1}; the
    checks confirm, all in exact arithmetic:

      * I psi = d_N * (omega_N . psi) * omega_N  (row by row),
      * factorization_checks: I = C^T D C entry by entry, and det C = 1.
    """
    if n_order < 2:
        raise IndexOutOfRange("rank-one check needs order >= 2")
    big_n = n_order
    c = c_matrix(big_n)
    psi = [0] * (big_n - 1) + [1]
    for k in range(big_n - 2, -1, -1):
        psi[k] = -sum(c[k][j] * psi[j] for j in range(k + 1, big_n))

    entries = i_residue_maps(big_n)
    omega_last = c[big_n - 1]
    dot = sum(w * p for w, p in zip(omega_last, psi))
    ok_rank_one = all(
        _combine(zip(psi, entries[j]))
        == _combine([(dot * omega_last[j], _d_residues(big_n))])
        for j in range(big_n)
    )
    rank_one = "I psi == (2 pi s/(s^2 - N^2)) (omega_N . psi) omega_N, exact"
    checks = (("rank-one action", ok_rank_one, rank_one),) + factorization_checks(c, entries)
    return RankOneReport(big_n, tuple(Fraction(x) for x in psi), checks)


def _d_residues(n: int) -> dict[int, int]:
    """Residue map of d_term(n) / pi."""
    return {n: 1, -n: 1}


def _combine(terms) -> dict:
    """sum of weight * residue map over (weight, map) pairs, zeros dropped."""
    out: dict = {}
    for w, res in terms:
        for n, r in res.items():
            out[n] = out.get(n, 0) + w * r
    return {n: r for n, r in out.items() if r != 0}
