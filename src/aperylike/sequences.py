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
weights and the continued fractions all read it.  Everything is exact.  A
step is the one-leaf product tree of the 2x2 step matrices.  The memo grows
one step at a time, each new value reduced once, the gcd's power of 2 read
from the bits, so walking n upwards (range) streams.  Beside each value a
memo row holds its numerator and denominator as `decimal.Decimal` integers,
stepped with the same weights and gcd, from which `row_texts` prints with no
int->str conversion, which CPython does in quadratic time and refuses past
4,300 digits.  A deep index is one product tree (binary splitting) from the
memo's last two rows, not stored: `_scaled_pairs` gives the pairs as
integers over one common scale, and `_carried` takes them further, neither
reducing.  Only `_values` reduces, and only the pair it returns.

`check_inclusions` neither grows the memo nor reduces a pair: it streams the
cleared integers F x, F the clearing factors, in a carry of the last two
rows per (family, mode), stepped with small weights and restarted from
`_scaled_pairs` on a jump; `witness_texts` prints them from decimal twins.
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
        raise ArithmeticError("a decimal twin is not divisible by its step's gcd")
    return quotient


def _stepped_row(family: str, k: int, before: _Row, last: _Row) -> _Row:
    """Row k+1 from rows k-1 and k (k >= 1) by the top row of the leaf M_k;
    each decimal numerator and denominator gets the same weights as its
    integer and is divided by the same gcd, so in time linear in its digits.
    A division with a remainder raises ArithmeticError."""
    (row,), lead = _matrix_product(family, k, k + 1, top=True)
    values, ratios = [], []
    for prev, cur, (c, _), (a, b) in zip(before.pair, last.pair, before[1:], last[1:]):
        num, den, (w_cur, w_prev, w_den) = _combined(row, lead, prev, cur)
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


#: Rows of int pairs: a product's rows, or (N_u, N_v) at n, then at n-1, over one scale
_Rows = tuple[tuple[int, int], ...]


def _matrix_product(family: str, lo: int, hi: int, top: bool = False) -> tuple[_Rows, int]:
    """The rows of M_{hi-1} ... M_lo, only the top one when `top`, and
    lead_lo ... lead_{hi-1} (lo < hi).  Runs of up to 8 leaves are multiplied
    in sequence, in small ints, longer spans in a balanced tree, where
    top(U L) = top(U) L: a `top` tree drops the lower rows of its upper spine.

    M_k = [[mid_k, back_k], [lead_k, 0]] maps (x_k, x_{k-1}) to
    lead_k (x_{k+1}, x_k): the one-leaf product is one recurrence step.
    """
    if hi - lo <= 8:
        lead, mid, back = recurrence_coefficients(family, lo)
        a, b, c, d, divisor = mid, back, lead, 0, lead
        for k in range(lo + 1, hi):
            lead, mid, back = recurrence_coefficients(family, k)
            a, b, c, d = mid * a + back * c, mid * b + back * d, lead * a, lead * b
            divisor *= lead
        assert divisor > 0  # _CATALAN_P has negative discriminant
        return ((a, b),) if top else ((a, b), (c, d)), divisor
    half = (lo + hi) // 2
    upper, upper_lead = _matrix_product(family, half, hi, top)
    ((e, f), (g, h)), lower_lead = _matrix_product(family, lo, half)
    return tuple((x * e + y * g, x * f + y * h) for x, y in upper), upper_lead * lower_lead


def _carried(family: str, m: int, n: int, rows: _Rows, top: bool = False) -> tuple[_Rows, int]:
    """The integer pairs at n and n-1, only n when `top`, from `rows` at m and
    m-1 (1 <= m < n) by one product tree M_{n-1} ... M_m, and
    D = lead_m ... lead_{n-1}: over D S where `rows` are over S.  Nothing is
    reduced; one leaf is the step N_{m+1} = mid_m N_m + back_m N_{m-1}."""
    matrix, divisor = _matrix_product(family, m, n, top)
    pairs = tuple(zip(*rows))  # (N_k, N_{k-1}) for u, then for v
    return tuple(tuple(a * x + b * y for x, y in pairs) for a, b in matrix), divisor


def _scaled_pairs(family: str, n: int, top: bool = False) -> tuple[_Rows, int]:
    """The pairs at n and n-1 (n >= 1), only n when `top`, as integers over
    one common scale S > 0, and S; nothing is reduced, the memo is unchanged.
    Inside the memo S is the lcm of the denominators of rows n and n-1; past
    its end one product tree (binary splitting, Haible & Papanikolaou 1998)
    carries its last two rows, over the lcm of theirs, to n."""
    if n < 1:
        raise ValueError("consecutive pairs need n >= 1")
    table = _pairs[family]
    m = min(n, len(table) - 1)
    pairs = table[m].pair, table[m - 1].pair
    scale = math.lcm(*(x.denominator for pair in pairs for x in pair))
    rows = tuple(tuple(x.numerator * (scale // x.denominator) for x in pair) for pair in pairs)
    if m == n:
        return rows[: 1 if top else 2], scale
    rows, divisor = _carried(family, m, n, rows, top)
    return rows, divisor * scale


def _values(family: str, n: int) -> _Pair:
    """The exact pair (u_n, v_n).

    Indices in the memo are looked up; the index just past its end is one
    exact step, which is appended, so that walking n upwards streams; an
    index further on is one `top` product tree, reduced once, not stored.
    """
    _check_index(family, n)
    if n > len(_pairs[family]):
        ((u, v),), scale = _scaled_pairs(family, n, top=True)
        return _reduced(u, scale), _reduced(v, scale)
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


class _Cleared(NamedTuple):
    """W = F x for a value x and its clearing factor F: num/den in lowest
    terms, den 1 exactly when F clears x, and num as a decimal integer."""

    num: int
    den: int
    text: Decimal
    factor: int


#: Per (family, mode), n and the cleared (u, v) at n and at n-1 (or None),
#: each by its own F; replaced whole under `_cache_lock`: a lost race costs a restart.
_carries: dict[tuple[str, str], tuple[int, tuple[_Cleared, ...], tuple[_Cleared, ...] | None]] = {}


def _lowest_terms(num: int, den: int) -> tuple[int, int, int]:
    """(num/g, den/g, g), g = gcd(num, den), den > 0: one divmod, and a gcd
    of its remainder, no wider than den, only if den does not divide num."""
    quotient, remainder = divmod(num, den)
    if not remainder:
        return quotient, 1, den
    g = math.gcd(remainder, den)
    return num // g, den // g, g


def _clear(terms: list[tuple[int, _Cleared]], divisor: int, factor: int) -> _Cleared:
    """F (c_1 x_1 + c_2 x_2) / divisor from terms (c_i, W_i = F_i x_i): the
    W_i weighted by c_i F/F_i, exact, over one denominator, which with the
    package's factors is small, and so is the only gcd; the twin likewise."""
    ratios = [_lowest_terms(factor, w.factor) for _, w in terms]
    dens = [q * w.den for (_, q, _), (_, w) in zip(ratios, terms)]
    common = math.lcm(*dens)
    weights = [c * p * (common // d) for (c, _), (p, _, _), d in zip(terms, ratios, dens)]
    num = sum(x * w.num for x, (_, w) in zip(weights, terms))
    num, den, g = _lowest_terms(num, divisor * common)
    with decimal.localcontext(_EXACT):
        text = sum(w.text * x for x, (_, w) in zip(weights, terms))
    return _Cleared(num, den, text if g == 1 else _exact_quotient(text, Decimal(g)), factor)


def _carry(family: str, n: int, mode: str) -> tuple[_Cleared, ...]:
    """The cleared (u, v) at n, the carry of (family, mode) moved there (if
    not already at n, the mode checked first) and stored under the lock.
    From n-1 >= 1 it takes one step by the top row of the leaf M_{n-1}, in
    time linear in the digits, W_n = (mid (F_n/F_{n-1}) W_{n-1} +
    back (F_n/F_{n-2}) W_{n-2}) / lead.  Any other n restarts it at rows n
    and n-1 from the integers of `_scaled_pairs` (memo rows, or a product
    tree past the memo's end): one divmod per value, no gcd when F clears
    it, one conversion to decimal."""
    last, cur, prev = _carries.get((family, mode), (-1, None, None))
    if last == n:
        return cur
    factors = _clearing_factors(family, n, mode)
    if prev is not None and last == n - 1:
        (row,), lead = _matrix_product(family, n - 1, n, top=True)
        cur, prev = tuple(_clear([*zip(row, w)], lead, f) for f, *w in zip(factors, cur, prev)), cur
    else:  # a restart, row n-1 by F_n too; u_0 and v_0 are integers
        ints, scale = _scaled_pairs(family, n) if n else ((map(int, _pairs[family][0].pair),), 1)
        rows = [[(*_lowest_terms(f * x, scale)[:2], f) for x, f in zip(xs, factors)] for xs in ints]
        rows = [tuple(_Cleared(a, b, Decimal(a), f) for a, b, f in r) for r in rows]
        cur, prev = (*rows, None)[:2]
    with _cache_lock:
        _carries[family, mode] = n, cur, prev
    return cur


def check_inclusions(family: str, n: int, mode: str = "proved") -> InclusionReport:
    """Whether the mode's clearing factors F make F u_n and F v_n integers,
    the witnesses.  Walking n upwards streams: each call steps the carry of
    the last two cleared rows once, with small weights; any other n restarts
    it.  No reduced pair is formed, and the memo does not grow."""
    _check_index(family, n)
    u, v = _carry(family, n, mode)
    witness_u, witness_v = (w.num if w.den == 1 else None for w in (u, v))
    return InclusionReport(family, n, mode, u.den == 1, v.den == 1, witness_u, witness_v)


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
    """The report's witnesses as decimal strings, "" for a failing one, from
    the decimal twins of the carry, moved first to the report's index if it
    holds another: no int->str conversion, at any size."""
    cur = _carry(report.family, report.n, report.mode)
    return tuple("" if w.den != 1 else str(w.text) for w in cur)


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
