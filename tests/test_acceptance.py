"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see every line.  Every
criterion passes.  Two are checked in a corrected form of their conventional
statement (see the "Tests" section of the README):

* A8 is often printed as "the double integral equals 4 (-1)^n (u_n G - v_n)",
  i.e. a prefactor (-1)^n/4 on the integral.  For the integral that
  `beukers_integral` defines, that factor is provably wrong: at n = 0 two
  positive series terms of the integrand already give 4 + 8/9 > 4 G (see
  tests/test_analytic.py::TestIntegral::test_printed_quarter_prefactor_is_off_by_two).
  A8 therefore checks the documented relation I_n = 8 (-1)^n (u_n G - v_n).
* A10 compares growth rates with the characteristic-root limits.  The per-n
  rates log(u_n)/n and log|u_n C - v_n|/n lag their limits by a (log n)/n
  term, still about 0.056 / 0.050 for zeta4 at n = 300.  A10 uses the
  two-point rate 2 rate(2n) - rate(n) = (log u_2n - log u_n)/n, which cancels
  that term and leaves an O(1/n) one.  The raw per-n rates are checked by
  A10-corrected at zeta4@600.
"""

from fractions import Fraction

import pytest
from mpmath import mp

from aperylike.analytic import (
    beukers_integral,
    cf_convergent,
    reference_catalan,
    reference_zeta4,
    zeta4_series,
)
from aperylike.certificate import build_certificate, verify_telescoping
from aperylike.hypergeom import (
    build_kernel,
    check_arith_lemmas,
    coefficient_quadruple,
    f_numeric,
    partial_fractions,
    reconstruction,
)
from aperylike.sequences import (
    asymptotic_report,
    catalan_pair,
    check_inclusions,
    pair,
    zeta4_pair,
)
from tests.conftest import mpf_frac


def report(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


def test_a1_initial_data():
    c0, c1 = catalan_pair(0), catalan_pair(1)
    z0, z1 = zeta4_pair(0), zeta4_pair(1)
    ok = (
        (c0.u, c0.v) == (1, 0)
        and (c1.u, c1.v) == (Fraction(7, 4), Fraction(13, 8))
        and (z0.u, z0.v) == (1, 0)
        and (z1.u, z1.v) == (12, 13)
    )
    report("A1", ok, "initial data (1,0),(7/4,13/8) and (1,0),(12,13) exact")


def test_a2_ten_step_convergence():
    item = catalan_pair(10)
    reference = reference_catalan(40)
    with mp.workdps(60):
        error = abs(mpf_frac(item.v / item.u) - reference)
        ok = error < mp.mpf(10) ** -20
    report("A2", ok, f"|v_10/u_10 - G| = {mp.nstr(error, 3)} < 1e-20")


def test_a3_inclusions():
    failures = []
    for family in ("catalan", "zeta4"):
        for n in range(201):
            if not check_inclusions(family, n, "proved").ok:
                failures.append((family, "proved", n))
        for n in range(501):
            if not check_inclusions(family, n, "strong").ok:
                failures.append((family, "strong", n))
    ok = not failures
    report(
        "A3",
        ok,
        "proved inclusions n<=200 and strong inclusions n<=500, both families"
        + ("" if ok else f"; first failures {failures[:3]}"),
    )


def test_a4_certificate():
    bad = []
    for n in range(1, 51):
        if not verify_telescoping(n):
            bad.append(("telescoping", n))
        if build_certificate(n).S(0) != 0:
            bad.append(("at_zero", n))
    ok = not bad
    report(
        "A4",
        ok,
        "telescoping identity exact and S_n(0) = 0 for 1<=n<=50"
        + ("" if ok else f"; failures {bad[:3]}"),
    )


def test_a5_cross_path_consistency():
    bad = []
    for n in range(21):
        quad = coefficient_quadruple(n)
        item = catalan_pair(n)
        if not (
            quad.Uprime == 8 * item.u
            and quad.V == 8 * item.v
            and quad.U == 0
            and quad.Udoubleprime == 0
        ):
            bad.append(n)
    ok = not bad
    report(
        "A5",
        ok,
        "table route matches recurrence route (U'=8u, V=8v, U=U''=0) for n<=20",
    )


def test_a6_partial_fraction_identities():
    bad = []
    for n in range(21):
        if reconstruction(partial_fractions(n)) != build_kernel(n).R:
            bad.append(("reconstruction", n))
    for n in range(11):
        if not check_arith_lemmas(n):
            bad.append(("aux-inclusions", n))
    ok = not bad
    report(
        "A6",
        ok,
        "pole expansion reconstructs the kernel (n<=20); window inclusions hold (n<=10)",
    )


def test_a7_numeric_decomposition():
    reference = reference_catalan(60)
    worst = mp.mpf(0)
    with mp.workdps(80):
        for n in range(11):
            value = f_numeric(n, 40)
            quad = coefficient_quadruple(n)
            expected = mpf_frac(quad.Uprime) * reference - mpf_frac(quad.V)
            worst = max(worst, abs(value - expected))
        ok = worst < mp.mpf(10) ** -35
    report("A7", ok, f"|F_n - (U'_n G - V_n)| <= {mp.nstr(worst, 3)} < 1e-35 for n<=10")


@pytest.fixture(scope="module")
def a8_worst_residual():
    """max |(-1)^n I_n/8 - (u_n G - v_n)| over n = 0..3, I_n to 8 digits."""
    reference = reference_catalan(40)
    with mp.workdps(40):
        worst = mp.mpf(0)
        for n in range(4):
            integral = beukers_integral(n, 8)
            item = catalan_pair(n)
            form = mpf_frac(item.u) * reference - mpf_frac(item.v)
            sign = 1 if n % 2 == 0 else -1
            worst = max(worst, abs(sign * integral / 8 - form))
        return worst


def test_a8_integral_identity_as_stated(a8_worst_residual):
    # The linear form equals (-1)^n/8 times the integral.  The printed
    # statement has (-1)^n/4, which two positive series terms of the integrand
    # exclude at n = 0 (4 + 8/9 > 4 G); the quarter is corrected to an eighth.
    worst = a8_worst_residual
    with mp.workdps(40):
        ok = worst < mp.mpf(10) ** -7
    report(
        "A8",
        ok,
        f"integral/8 residual max = {mp.nstr(worst, 4)} < 1e-7 for n in 0..3 "
        "(printed prefactor 1/4 corrected to 1/8)",
    )


def test_a8_corrected_integral_identity(a8_worst_residual):
    worst = a8_worst_residual
    with mp.workdps(40):
        ok = worst < mp.mpf(10) ** -7
    report(
        "A8-corrected",
        ok,
        f"eighth-prefactor residual max = {mp.nstr(worst, 4)} < 1e-7 for n in 0..3",
    )


def test_a9_continued_fractions():
    ok = (
        cf_convergent("catalan", 1).value == Fraction(13, 14)
        and cf_convergent("zeta4", 1).value == Fraction(13, 12)
    )
    for family in ("catalan", "zeta4"):
        for n in range(1, 51):
            item = pair(family, n)
            if cf_convergent(family, n).value != item.v / item.u:
                ok = False
    report("A9", ok, "convergents equal v_n/u_n exactly for n<=50; heads 13/14, 13/12")


def two_point_rates(family: str, n: int):
    """2 rate(2n) - rate(n) for u_n and for the linear form: the slope of each
    logarithm between n and 2n, free of the (log n)/n lag of the per-n rates."""
    low = asymptotic_report(family, n, 700)
    high = asymptotic_report(family, 2 * n, 700)
    return 2 * high.rate_u - low.rate_u, 2 * high.rate_form - low.rate_form


def test_a10_asymptotics_as_stated():
    cat_u, cat_form = two_point_rates("catalan", 500)
    cat_du = abs(cat_u - mp.mpf("2.40605912"))
    cat_df = abs(cat_form - mp.mpf("-2.40605912"))
    zet_u, zet_form = two_point_rates("zeta4", 300)
    zet_du = abs(zet_u - mp.mpf("5.59879212"))
    zet_df = abs(zet_form - mp.mpf("-2.30295525"))
    ok = cat_du < 0.05 and cat_df < 0.05 and zet_du < 0.05 and zet_df < 0.05
    report(
        "A10",
        ok,
        f"two-point rate devs catalan@500 ({mp.nstr(cat_du, 3)}, {mp.nstr(cat_df, 3)}), "
        f"zeta4@300 ({mp.nstr(zet_du, 3)}, {mp.nstr(zet_df, 3)}) < 0.05",
    )


def test_a10_corrected_asymptotics():
    cat = asymptotic_report("catalan", 500, 700)
    zet = asymptotic_report("zeta4", 600, 700)
    ok = (
        abs(cat.rate_u - mp.mpf("2.40605912")) < 0.05
        and abs(cat.rate_form - mp.mpf("-2.40605912")) < 0.05
        and abs(zet.rate_u - mp.mpf("5.59879212")) < 0.05
        and abs(zet.rate_form - mp.mpf("-2.30295525")) < 0.05
    )
    report(
        "A10-corrected",
        ok,
        "catalan@500 and zeta4@600 rates within 0.05 of the characteristic-root limits",
    )


def test_a11_zeta4_series():
    reference = reference_zeta4(40)
    with mp.workdps(40):
        worst = mp.mpf(0)
        for n in range(4):
            value = zeta4_series(n, 6)
            item = zeta4_pair(n)
            form = mpf_frac(item.u) * reference - mpf_frac(item.v)
            worst = max(worst, abs(value - form))
        ok = worst < mp.mpf(10) ** -5
    report("A11", ok, f"derivative-series residual max = {mp.nstr(worst, 3)} < 1e-5 for n<=3")
