"""The two second-order recurrence families and their arithmetic properties.

Family "catalan": the pair (u_n, v_n) with u_0 = 1, u_1 = 7/4, v_0 = 0,
v_1 = 13/8, both solving

    (2n+1)^2 (2n+2)^2 p(n) x_{n+1} = q(n) x_n + (2n-1)^2 (2n)^2 p(n+1) x_{n-1}

for n >= 1, where p and q are the quadratic/sextic coefficient polynomials
below.  The ratio v_n/u_n converges to Catalan's constant G at roughly 2.09
decimal digits per step.

Family "zeta4": the pair (u_n, v_n) with u_0 = 1, u_1 = 12, v_0 = 0, v_1 = 13
solving

    (n+1)^5 x_{n+1} = r(n) x_n + 3 n^3 (3n-1)(3n+1) x_{n-1},

whose ratio converges to zeta(4) = pi^4/90 at roughly 3.43 digits per step.

RECURRENCES holds the one copy of each family's coefficients lead(n), mid(n),
back(n) and its initial pairs; stepping, the telescoping certificate's
weights and the continued fractions all read it.  Everything is exact
rational arithmetic.  A step is the one-leaf product tree of the 2x2 step
matrices, and one routine applies a product's rows to two consecutive pairs:
each new value is one integer over one denominator, reduced once, the gcd's
power of 2 read from the bits.  The memo grows one step at a time, so walking
n upwards (range, check) streams; a deep index past its end is one product
tree (binary splitting) with one division, and is not stored.  The
integrality checks multiply by the clearing factors and test exactly.

A memo row holds the exact pair and, beside it, every numerator and
denominator as a `decimal.Decimal` integer, stepped with the same small
weights and divided by the same gcd as the integers, so in time linear in its
digits.  `row_texts` and `witness_texts` print rows and witnesses from the
memo, walking it up to the row first if it is short, with no int->str
conversion, which CPython does in quadratic time and refuses past 4,300
digits.
"""

from __future__ import annotations

import decimal
import functools
import math
import threading
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from .exact import horner_int, lcm_upto, to_mpf

if TYPE_CHECKING:
    from mpmath import mpf

#: Integrality modes: "proved" uses the guaranteed clearing factors,
#: "strong" the sharper experimentally observed ones.
MODES = ("proved", "strong")


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _check_index(family: str, n: int) -> None:
    _check_family(family)
    if n < 0:
        raise ValueError("sequence index must be nonnegative")


class SequencePair(NamedTuple):
    """One exact element (n, u_n, v_n) of a recurrence family."""

    family: str
    n: int
    u: Fraction
    v: Fraction


class InclusionReport(NamedTuple):
    """Outcome of clearing denominators at one index.

    witness_u / witness_v hold the cleared integers when the check passes,
    None when it fails (so failures are diagnosable from CLI output).
    """

    family: str
    n: int
    mode: str
    pass_u: bool
    pass_v: bool
    witness_u: int | None
    witness_v: int | None

    @property
    def ok(self) -> bool:
        return self.pass_u and self.pass_v


class AsymptoticRates(NamedTuple):
    """Measured per-n logarithmic growth of u_n and of |u_n C - v_n|."""

    rate_u: mpf
    rate_form: mpf


# -- coefficient polynomials -------------------------------------------------

#: Ascending integer coefficients of p(n), q(n) and r(n), read by
#: RECURRENCES.  p has discriminant 8^2 - 80 < 0, so the catalan lead never
#: vanishes; r(n) = 3 (2n+1)(3n^2+3n+1)(15n^2+15n+4).
_CATALAN_P = (1, -8, 20)
_CATALAN_Q = (7, 16, -156, -384, 2064, 5632, 3520)
_ZETA4_R = (12, 105, 378, 702, 675, 270)


# -- the recurrence table -----------------------------------------------------


class Recurrence(NamedTuple):
    """lead(k) x_{k+1} = mid(k) x_k + back(k) x_{k-1} for k >= 1, started from
    the pairs initial = ((u_0, v_0), (u_1, v_1)).  The coefficients are
    integers at integer k."""

    lead: Callable[[int], int]
    mid: Callable[[int], int]
    back: Callable[[int], int]
    initial: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


#: The one copy of each family's coefficients; stepping, the certificate
#: weights and the continued fractions all read it.
RECURRENCES = {
    "catalan": Recurrence(
        lead=lambda k: (2 * k + 1) ** 2 * (2 * k + 2) ** 2 * horner_int(_CATALAN_P, k),
        mid=lambda k: horner_int(_CATALAN_Q, k),
        back=lambda k: (2 * k - 1) ** 2 * (2 * k) ** 2 * horner_int(_CATALAN_P, k + 1),
        initial=((Fraction(1), Fraction(0)), (Fraction(7, 4), Fraction(13, 8))),
    ),
    "zeta4": Recurrence(
        lead=lambda k: (k + 1) ** 5,
        mid=lambda k: horner_int(_ZETA4_R, k),
        back=lambda k: 3 * k**3 * (3 * k - 1) * (3 * k + 1),
        initial=((Fraction(1), Fraction(0)), (Fraction(12), Fraction(13))),
    ),
}

FAMILIES = tuple(RECURRENCES)


def recurrence_coefficients(family: str, k: int) -> tuple[int, int, int]:
    """(lead(k), mid(k), back(k)) of the family's recurrence."""
    _check_family(family)
    rec = RECURRENCES[family]
    return rec.lead(k), rec.mid(k), rec.back(k)


# -- exact generation ---------------------------------------------------------

#: (u_n, v_n) at one index n
_Pair = tuple[Fraction, Fraction]

#: Exact integer arithmetic in decimal: at MAX_PREC digits nothing rounds.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


class _Row(NamedTuple):
    """Memo row n: the exact pair (u_n, v_n), and the numerator and
    denominator of each value as decimal integers, from which the row prints
    with no int->str conversion."""

    pair: _Pair
    u: tuple[Decimal, Decimal]
    v: tuple[Decimal, Decimal]


_cache_lock = threading.Lock()
_pairs: dict[str, list[_Row]] = {
    family: [
        _Row(pair, *((Decimal(x.numerator), Decimal(x.denominator)) for x in pair))
        for pair in rec.initial
    ]
    for family, rec in RECURRENCES.items()
}


#: Fraction(p, q) from coprime p and q > 0 with no second gcd: the
#: constructor's private fast path (a keyword before Python 3.12).
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or functools.partial(
    Fraction, _normalize=False
)


def _common_divisor(num: int, den: int) -> int:
    """gcd(num, den) for den > 0, by one split as in the first step of Stein's
    binary gcd (Knuth, TAOCP vol. 2, 4.5.2): gcd(num, den) = 2^min(v2 num,
    v2 den) gcd(odd num, odd den), each v2 read from the lowest set bit.  A
    catalan den is mostly a power of 2, so this is mostly a shift."""
    if not num:
        return den
    v_num, v_den = (num & -num).bit_length() - 1, (den & -den).bit_length() - 1
    return math.gcd(num >> v_num, den >> v_den) << min(v_num, v_den)


def _reduced(num: int, den: int) -> Fraction:
    """num/den (den > 0) in lowest terms, with one gcd."""
    g = _common_divisor(num, den)
    return _coprime_fraction(num // g, den // g)


def _combined(
    row: tuple[int, int], divisor: int, prev: Fraction, cur: Fraction
) -> tuple[int, int, tuple[int, int, int]]:
    """Unreduced num/den = (alpha x_m + beta x_{m-1}) / divisor for a row
    (alpha, beta) of a step-matrix product, and the weights (alpha L/b,
    beta L/d, divisor L/b) with x_m = a/b, x_{m-1} = c/d and L = lcm(b, d)."""
    common = math.lcm(prev.denominator, cur.denominator)
    scale = common // cur.denominator
    weights = row[0] * scale, row[1] * (common // prev.denominator), divisor * scale
    num = cur.numerator * weights[0] + prev.numerator * weights[1]
    return num, cur.denominator * weights[2], weights


def _exact_quotient(x: Decimal, g: Decimal) -> Decimal:
    quotient, remainder = _EXACT.divmod(x, g)
    if remainder:
        raise ArithmeticError("a decimal memo value is not divisible by its step's gcd")
    return quotient


def _stepped_row(family: str, k: int, before: _Row, last: _Row) -> _Row:
    """Row k+1 from rows k-1 and k (k >= 1) by the top row of the leaf M_k;
    each decimal numerator and denominator gets the same weights as its
    integer and is divided by the same gcd, so in time linear in its digits.
    A division with a remainder raises ArithmeticError."""
    matrix, lead = _matrix_product(family, k, k + 1)
    values, ratios = [], []
    for prev, cur, (c, _), (a, b) in zip(before.pair, last.pair, before[1:], last[1:]):
        num, den, (w_cur, w_prev, w_den) = _combined(matrix[:2], lead, prev, cur)
        g = _common_divisor(num, den)
        values.append(_coprime_fraction(num // g, den // g))
        divisor = Decimal(g)
        num_dec = _EXACT.fma(a, Decimal(w_cur), _EXACT.multiply(c, Decimal(w_prev)))
        den_dec = _EXACT.multiply(b, Decimal(w_den))
        ratios.append((_exact_quotient(num_dec, divisor), _exact_quotient(den_dec, divisor)))
    return _Row(tuple(values), *ratios)


def _row(family: str, n: int) -> _Row:
    """Memo row n (n >= 0), the memo first stepped up to it under the lock."""
    table = _pairs[family]
    if n >= len(table):
        with _cache_lock:
            while len(table) <= n:
                table.append(_stepped_row(family, len(table) - 1, *table[-2:]))
    return table[n]


def _matrix_product(
    family: str, lo: int, hi: int
) -> tuple[tuple[int, int, int, int], int]:
    """M_{hi-1} ... M_lo and lead_lo ... lead_{hi-1}, multiplied in a balanced
    tree (lo < hi).

    M_k = [[mid_k, back_k], [lead_k, 0]] maps (x_k, x_{k-1}) to
    lead_k (x_{k+1}, x_k): the one-leaf product is one recurrence step.
    """
    if hi - lo == 1:
        lead, mid, back = recurrence_coefficients(family, lo)
        assert lead > 0  # _CATALAN_P has negative discriminant
        return (mid, back, lead, 0), lead
    half = (lo + hi) // 2
    (a, b, c, d), upper = _matrix_product(family, half, hi)
    (e, f, g, h), lower = _matrix_product(family, lo, half)
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), upper * lower


def _advance(family: str, m: int, n: int, previous: _Pair, current: _Pair) -> tuple[_Pair, _Pair]:
    """The exact pairs at n-1 and n from those at m-1 and m (1 <= m < n), by
    the rows of one product tree M_{n-1} ... M_m (binary splitting, Haible &
    Papanikolaou 1998), each value reduced once."""
    (a, b, c, d), divisor = _matrix_product(family, m, n)
    return tuple(
        tuple(_reduced(*_combined(row, divisor, *x)[:2]) for x in zip(previous, current))
        for row in ((c, d), (a, b))
    )


def _consecutive_values(family: str, n: int) -> tuple[_Pair, _Pair]:
    """The exact pairs at n-1 and n (n >= 1), leaving the memo as it is.

    They are read from the memo when it reaches n.  Otherwise `_advance`
    carries the memo's last two pairs to n-1 and n, dividing once by the
    product of the leads at the end.
    """
    if n < 1:
        raise ValueError("consecutive pairs need n >= 1")
    table = _pairs[family]
    m = len(table) - 1
    if n <= m:
        return table[n - 1].pair, table[n].pair
    return _advance(family, m, n, table[m - 1].pair, table[m].pair)


def _values(family: str, n: int) -> _Pair:
    """The exact pair (u_n, v_n).

    Indices in the memo are looked up; the index just past its end is one
    exact step, which is appended, so that walking n upwards streams; an
    index further on is jumped to by a product tree and is not stored.
    """
    _check_index(family, n)
    if n > len(_pairs[family]):
        return _consecutive_values(family, n)[1]
    return _row(family, n).pair


def catalan_pair(n: int) -> SequencePair:
    """Exact (u_n, v_n) of the catalan family."""
    u, v = _values("catalan", n)
    return SequencePair("catalan", n, u, v)


def zeta4_pair(n: int) -> SequencePair:
    """Exact (u_n, v_n) of the zeta4 family."""
    u, v = _values("zeta4", n)
    return SequencePair("zeta4", n, u, v)


def pair(family: str, n: int) -> SequencePair:
    u, v = _values(family, n)
    return SequencePair(family, n, u, v)


# -- integrality reports -------------------------------------------------------


def _clearing_factors(family: str, n: int, mode: str) -> tuple[int, int]:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    d_n = lcm_upto(n)
    if family == "catalan":
        d_odd = lcm_upto(max(2 * n - 1, 0))  # read D_{2n-1} as D_0 at n = 0
        if mode == "proved":
            return 2 ** (4 * n + 3) * d_n, 2 ** (4 * n + 3) * d_odd**3
        return 2 ** (4 * n), 2 ** (4 * n) * d_odd**2
    if mode == "proved":
        return 6 * d_n, 6 * d_n**5
    return 1, d_n**4


def _cleared(x: Fraction, factor: int) -> int | None:
    """factor * x if it is an integer, else None.  x is reduced, so that
    holds exactly when its denominator divides the factor: one divmod, no
    gcd."""
    quotient, remainder = divmod(factor, x.denominator)
    return x.numerator * quotient if remainder == 0 else None


def check_inclusions(family: str, n: int, mode: str = "proved") -> InclusionReport:
    """Multiply (u_n, v_n) by the mode's clearing factors and test integrality."""
    # validate the family and the mode before the pair, which may be costly
    _check_family(family)
    factor_u, factor_v = _clearing_factors(family, n, mode)
    u, v = _values(family, n)
    witness_u, witness_v = _cleared(u, factor_u), _cleared(v, factor_v)
    return InclusionReport(
        family=family,
        n=n,
        mode=mode,
        pass_u=witness_u is not None,
        pass_v=witness_v is not None,
        witness_u=witness_u,
        witness_v=witness_v,
    )


# -- printing rows and witnesses ---------------------------------------------


def _ratio_text(num: Decimal, den: Decimal) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def row_texts(family: str, n: int) -> tuple[str, str]:
    """str(u_n) and str(v_n), from memo row n, the memo first walked up to n
    if it is short: in time linear in the digits, and past CPython's int->str
    limit."""
    _check_index(family, n)
    row = _row(family, n)
    return _ratio_text(*row.u), _ratio_text(*row.v)


def witness_texts(report: InclusionReport) -> tuple[str, str]:
    """The report's witnesses as decimal strings, "" for a failing one.  A
    witness is x.numerator times the small integer factor // x.denominator,
    so it is formed in decimal from memo row n (the memo first walked up to n
    if it is short) and no int is converted."""
    row = _row(report.family, report.n)
    return tuple(
        "" if w is None else str(_EXACT.multiply(a, Decimal(w // x.numerator if w else 0)))
        for w, x, (a, _) in zip((report.witness_u, report.witness_v), row.pair, (row.u, row.v))
    )


# -- measured growth rates -----------------------------------------------------


def asymptotic_report(family: str, n: int, digits: int) -> AsymptoticRates:
    """Per-n log growth of u_n and of the linear form u_n C - v_n, to `digits`.

    The form comes from analytic.linear_form with relative error below
    10^-(digits+5), so its logarithm is within about 10^-(digits+5) and both
    rates are right to `digits` digits; the working precision it needs is
    fixed in advance by the Casoratian bound on the cancellation.
    """
    from mpmath import mp

    if n < 2:
        raise ValueError("growth rates need n >= 2")
    if digits < 1:
        raise ValueError("digits must be positive")
    from . import analytic  # local import: analytic depends on this module

    u, form = analytic._linear_form(family, n, digits + 5)
    with mp.workdps(digits + 5):
        rate_u = mp.log(to_mpf(u, digits + 5)) / n
        rate_form = mp.log(abs(form)) / n
    with mp.workdps(digits):
        return AsymptoticRates(rate_u=+rate_u, rate_form=+rate_form)
