"""Exact and numeric engine for the distribution of Mahler measures of
complex reciprocal polynomials.

The public surface, by layer:

* exact: PiScaled, PolyQ, RatFunPi, LaurentPi, partial_fractions,
  laurent_mellin, ratfun_from_poles -- exact arithmetic with a symbolic pi
  grade, one type per concept (RatFunPi is the one rational function type);
* polynomials: RecipLaurent, MonicRecip, RootVec and the coefficient maps;
* measure: find_roots, mahler_from_roots, mahler_quadrature, mu_rec, nu_rec;
* symfun: elem_sym, epsilon_via_e, vandermonde, jacobian determinants;
* spectral: moment matrix, exact determinant identity (proved from the
  factorization I = C^T D C), residues rho, the closed distribution h_N,
  star body volume;
* montecarlo: mc_hN, mc_volume sampling cross-checks.
"""

from .exact import (
    LaurentPi,
    PiScaled,
    PolyQ,
    RatFunPi,
    Rational,
    laurent_mellin,
    parse_pi_scaled,
    partial_fractions,
    ratfun_eval,
    ratfun_eval_exact,
    ratfun_from_poles,
)
from .measure import (
    RootSet,
    find_roots,
    mahler_from_roots,
    mahler_quadrature,
    mu_rec,
    nu_rec,
)
from .montecarlo import MCEstimate, bounding_radii, mc_hN, mc_volume
from .polynomials import (
    MonicRecip,
    RecipLaurent,
    RootVec,
    e_map,
    eval_recip,
    from_roots,
    lambda_embed,
    monic_to_poly,
)
from .spectral import (
    coeff_c,
    det_double_sum,
    det_ratfun,
    factorization_checks,
    h_closed,
    h_eval,
    h_hat,
    h_product,
    h_values,
    mellin_residue_miss,
    hJK_closed,
    hJK_quadrature,
    i_entry,
    i_matrix,
    i_residue_maps,
    omega_psi_check,
    rho,
    volume_exact,
)
from .symfun import (
    elem_sym,
    epsilon_via_e,
    jacobian_complex_det,
    jacobian_real_factor,
    numeric_jacobian,
    vandermonde,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentPi",
    "MCEstimate",
    "MonicRecip",
    "PiScaled",
    "PolyQ",
    "RatFunPi",
    "Rational",
    "RecipLaurent",
    "RootSet",
    "RootVec",
    "bounding_radii",
    "coeff_c",
    "det_double_sum",
    "det_ratfun",
    "e_map",
    "elem_sym",
    "epsilon_via_e",
    "eval_recip",
    "factorization_checks",
    "find_roots",
    "from_roots",
    "h_closed",
    "h_eval",
    "h_hat",
    "h_product",
    "h_values",
    "mellin_residue_miss",
    "hJK_closed",
    "hJK_quadrature",
    "i_entry",
    "i_matrix",
    "i_residue_maps",
    "jacobian_complex_det",
    "jacobian_real_factor",
    "lambda_embed",
    "laurent_mellin",
    "mahler_from_roots",
    "mahler_quadrature",
    "mc_hN",
    "mc_volume",
    "monic_to_poly",
    "mu_rec",
    "nu_rec",
    "numeric_jacobian",
    "omega_psi_check",
    "parse_pi_scaled",
    "partial_fractions",
    "ratfun_eval",
    "ratfun_eval_exact",
    "ratfun_from_poles",
    "rho",
    "vandermonde",
    "volume_exact",
]
