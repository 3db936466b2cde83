"""Exact and numeric engine for the distribution of Mahler measures of
complex reciprocal polynomials.

The public surface is the submodules, imported by name (`from recmahler
import spectral`); the package itself re-exports nothing, so importing it
loads no layer and no NumPy.  By layer:

* exact: PiScaled, RatFunPi, LaurentPi, partial_fractions, laurent_mellin
  -- exact arithmetic with a symbolic pi grade, one type per concept
  (RatFunPi, a sum of simple integer poles, is the one rational function
  type);
* spectral: moment matrix, exact determinant identity (proved from the
  factorization I = C^T D C), residues rho, the closed distribution h_N,
  star body volume;
* polynomials: RecipLaurent, MonicRecip, RootVec and the coefficient maps;
* measure: find_roots, mahler_from_roots, mahler_quadrature, mu_rec, nu_rec;
* symfun: elem_sym, epsilon_via_e, vandermonde, jacobian determinants;
* montecarlo: mc_hN, mc_volume sampling cross-checks.

exact and spectral compute with Fractions alone; polynomials, measure,
symfun and montecarlo import NumPy.
"""

__version__ = "0.1.0"
