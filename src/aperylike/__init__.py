"""Exact arithmetic and arbitrary-precision evaluation for the Apery-like
second-order difference equations behind Catalan's constant and zeta(4).

Modules by responsibility:

* :mod:`aperylike.exact` - rationals, polynomials, rational functions,
  truncated series, the lcm table, decimal helpers;
* :mod:`aperylike.acceleration` - exact Chebyshev acceleration of
  alternating series;
* :mod:`aperylike.sequences` - the two recurrence families, integrality
  reports, measured growth rates;
* :mod:`aperylike.hypergeom` - the two rational kernels as factor runs,
  their pole tables, one reader of their lattice sums (the linear-form
  coefficients of both families), and numerical kernel sums;
* :mod:`aperylike.certificate` - the telescoping certificate and its exact
  verification;
* :mod:`aperylike.analytic` - reference constants, certified digits, the
  linear forms, continued fractions, the double integral, the zeta4 series;
* :mod:`aperylike.cli` - the command-line front end.
"""

from .exact import Polynomial, RationalFunction, TruncatedSeries, lcm_upto, poly_gcd
from .sequences import (
    AsymptoticRates,
    InclusionReport,
    SequencePair,
    asymptotic_report,
    catalan_pair,
    check_inclusions,
    zeta4_pair,
)
from .hypergeom import (
    CoefficientQuadruple,
    KernelParts,
    PartialFractionTable,
    Zeta4Decomposition,
    build_kernel,
    coefficient_quadruple,
    check_arith_lemmas,
    f_numeric,
    partial_fractions,
    q_residues,
    reconstruction,
    zeta4_decomposition,
)
from .certificate import (
    Certificate,
    build_certificate,
    verify_telescoping,
)
from .analytic import (
    CFConvergent,
    DigitsResult,
    beukers_integral,
    catalan_digits,
    cf_convergent,
    linear_form,
    reference_catalan,
    reference_zeta4,
    zeta4_digits,
    zeta4_series,
)
from .errors import PrecisionError, QuadratureError

__all__ = [
    "AsymptoticRates",
    "CFConvergent",
    "Certificate",
    "CoefficientQuadruple",
    "DigitsResult",
    "InclusionReport",
    "KernelParts",
    "PartialFractionTable",
    "Polynomial",
    "PrecisionError",
    "QuadratureError",
    "RationalFunction",
    "SequencePair",
    "TruncatedSeries",
    "Zeta4Decomposition",
    "asymptotic_report",
    "beukers_integral",
    "build_certificate",
    "build_kernel",
    "catalan_digits",
    "catalan_pair",
    "cf_convergent",
    "check_arith_lemmas",
    "check_inclusions",
    "coefficient_quadruple",
    "f_numeric",
    "lcm_upto",
    "linear_form",
    "partial_fractions",
    "poly_gcd",
    "q_residues",
    "reconstruction",
    "reference_catalan",
    "reference_zeta4",
    "verify_telescoping",
    "zeta4_decomposition",
    "zeta4_digits",
    "zeta4_pair",
    "zeta4_series",
]

__version__ = "0.1.0"
