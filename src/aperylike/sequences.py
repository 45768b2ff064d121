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
weights and the continued fractions all read it.  Everything is exact.

One row type, one step and two stores serve `range` and `check`.  A row is
(u, v) as cleared values F x = P / (2^e A) in lowest terms, A odd: P as its
quotient q and remainder r by A, and P and 2^e A as `decimal.Decimal`
integers, the twins from which the row prints with no int->str conversion,
which CPython does in quadratic time and refuses past 4,300 digits.  The
step, `_stepped`, is the one-leaf product tree of the 2x2 step matrices:
small weights on q and r, one gcd per value of r against A, no wider than A,
the twos taken out 2-adically, the twins weighted and divided alike.  The
memo `_pairs` keeps every row at F = 1 and grows one step at a time, so
walking n upwards (`row_texts`) streams; the carry `_carries` keeps the last
two rows at the clearing factors per (family, mode), so `check_inclusions`
streams F x and reads no memo row.  A deep index is one product tree
(binary splitting) from the initial rows 1 and 0, not stored, each node
divided by its content: `_scaled_pairs` gives the pairs as integers over
one common scale, and `_carried` takes them further, neither reducing a
value nor reading the memo.  Only a deep pair (`_values`) and a carry's
restart from such integers reduce them, once per value.
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

#: Decimal digits gained per step by v_n/u_n, log10(lambda_1/|lambda_2|) for the roots of
#: the leading terms of RECURRENCES, lambda^2 - 11 lambda - 1 (2.0898...) and
#: lambda^2 - 270 lambda - 27 (3.4317...), rounded down so that start indices err high.
DIGITS_PER_STEP = {"catalan": 2.089, "zeta4": 3.43}


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


class _Cleared(NamedTuple):
    """W = F x for a value x and its factor F, in lowest terms P / (2^e A), A
    odd and P odd if e > 0; P as its quotient and remainder by A, P = q A + r,
    0 <= r < A, gcd(r, A) = 1, so that a step's gcd reads nothing wider than
    A; P and 2^e A also as decimal integers, the twins from which W prints
    with no int->str conversion.  `whole`: F clears x, and W is the int q."""

    quotient: int
    remainder: int
    odd: int
    twos: int
    num_text: Decimal
    den_text: Decimal
    factor: int

    @property
    def whole(self) -> bool:
        return self.odd == 1 and not self.twos


#: (u, v) at one index, each a cleared value: a memo row at F = 1, or a
#: carry row by the clearing factors
_Values = tuple[_Cleared, ...]

#: Fraction(p, q) from coprime p and q > 0 with no second gcd: the
#: constructor's private fast path (a keyword before Python 3.12).
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or functools.partial(
    Fraction, _normalize=False
)


def _lowest_terms(num: int, den: int) -> tuple[int, int, int]:
    """(num/g, den/g, g), g = gcd(num, den), den > 0: one divmod, and a gcd
    of its remainder, no wider than den, only if den does not divide num."""
    quotient, remainder = divmod(num, den)
    if not remainder:
        return quotient, 1, den
    g = math.gcd(remainder, den)
    return num // g, den // g, g


def _converted(x: int, scale: int, factor: int) -> _Cleared:
    """F x / scale as a cleared value, in lowest terms, its twins converted."""
    num, den, _ = _lowest_terms(factor * x, scale)
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    return _Cleared(*divmod(num, odd), odd, twos, Decimal(num), Decimal(den), factor)


_cache_lock = threading.Lock()
_pairs: dict[str, list[_Values]] = {
    family: [tuple(_converted(x.numerator, x.denominator, 1) for x in pair) for pair in rec.initial]
    for family, rec in RECURRENCES.items()
}


def _exact_quotient(x: Decimal, g: int) -> Decimal:
    if g == 1:
        return x
    quotient, remainder = _EXACT.divmod(x, Decimal(g))
    if remainder:
        raise ArithmeticError("a decimal twin is not divisible by its step's gcd")
    return quotient


def _reduced(quotient: int, remainder: int, odd: int, twos: int) -> tuple[int, ...]:
    """(q, r, A, e) of P / (2^e A) in lowest terms, given those of P = q A + r,
    0 <= r < A odd, and the divisor g 2^j taken out.  One gcd, g = gcd(r, A),
    no wider than A: P/g = q (A/g) + r/g.  Then j = min(v2 P, e), from P's low
    bits: with t = -r/A mod 2^j, P = (q - t) A + (r + A t), 2^j dividing both."""
    g = math.gcd(remainder, odd)
    remainder, odd = remainder // g, odd // g
    mask = (1 << min(twos, 64)) - 1  # P's low bits; all e of them only if these are 0
    low = ((quotient & mask) * (odd & mask) + (remainder & mask)) & mask
    if twos > 64 and not low:
        low = (quotient * odd + remainder) & (1 << twos) - 1
    j = (low & -low).bit_length() - 1 if low else twos
    if j:
        t = -remainder * pow(odd, -1, 1 << j) & (1 << j) - 1
        quotient, remainder = (quotient - t) >> j, (remainder + odd * t) >> j
    return quotient, remainder, odd, twos - j, g << j


def _stepped(
    family: str, k: int, before: _Values, last: _Values, factors: tuple[int, int]
) -> _Values:
    """Row k+1 from rows k-1 and k (k >= 1) by the top row (alpha, beta) of the
    leaf M_k, each value by its factor F: (1, 1) in the memo, the clearing
    factors in a carry.  W = (alpha (F/F_k) W_k + beta (F/F_{k-1}) W_{k-1}) / D,
    D the lead times the ratios' denominators, is (Q + R/C) / (2^E D) over the
    rows' common 2^E and odd lcm C: Q the weighted quotients plus R // C, R the
    weighted remainders times C/A, mod C.  D's odd part D_o splits Q, A = C D_o
    and r = C (Q mod D_o) + R, for `_reduced`.  Only its gcd is not linear in
    the digits.  The twins take the same weights and divisor; a twin's
    remainder raises ArithmeticError."""
    (row,), lead = _matrix_product(family, k, k + 1, top=True)
    values = []
    for cur, prev, factor in zip(last, before, factors):
        (p_cur, q_cur, _), (p_prev, q_prev, _) = (_lowest_terms(factor, w.factor) for w in (cur, prev))
        scale = math.lcm(q_cur, q_prev)
        twos, odd = max(cur.twos, prev.twos), math.lcm(cur.odd, prev.odd)
        w_cur = row[0] * p_cur * (scale // q_cur) << twos - cur.twos
        w_prev = row[1] * p_prev * (scale // q_prev) << twos - prev.twos
        c_cur, c_prev = w_cur * (odd // cur.odd), w_prev * (odd // prev.odd)
        carry, rest = divmod(c_cur * cur.remainder + c_prev * prev.remainder, odd)
        divisor = lead * scale
        d2 = (divisor & -divisor).bit_length() - 1
        quotient, q_rem = divmod(w_cur * cur.quotient + w_prev * prev.quotient + carry, divisor >> d2)
        *value, g = _reduced(quotient, odd * q_rem + rest, odd * (divisor >> d2), twos + d2)
        text = _EXACT.multiply(prev.num_text, Decimal(c_prev))
        text = _exact_quotient(_EXACT.fma(cur.num_text, Decimal(c_cur), text), g)
        den_text = Decimal(1)
        if value[2:] != [1, 0]:  # (A, e) not (1, 0): the twin of 2^E C D, over g 2^j
            ratio = (odd // cur.odd << twos - cur.twos) * divisor
            den_text = _exact_quotient(_EXACT.multiply(cur.den_text, Decimal(ratio)), g)
        values.append(_Cleared(*value, text, den_text, factor))
    return tuple(values)


def _row(family: str, n: int) -> _Values:
    """Memo row n (n >= 0), the memo first stepped up to it under the lock."""
    table = _pairs[family]
    if n >= len(table):
        with _cache_lock:
            while len(table) <= n:
                table.append(_stepped(family, len(table) - 1, *table[-2:], (1, 1)))
    return table[n]


#: Rows of int pairs: a product's rows, or (N_u, N_v) at n, then at n-1, over one scale
_Rows = tuple[tuple[int, int], ...]


def _content_free(rows: _Rows, divisor: int) -> tuple[_Rows, int]:
    """rows and divisor divided by their content c = gcd(divisor, entries);
    the divisor goes first, so each later gcd is against a narrower number."""
    c = math.gcd(divisor, *(x for row in rows for x in row))
    return tuple(tuple(x // c for x in row) for row in rows), divisor // c


def _matrix_product(family: str, lo: int, hi: int, top: bool = False) -> tuple[_Rows, int]:
    """Integer rows R and a divisor D > 0, R/D = M_{hi-1} ... M_lo over
    lead_lo ... lead_{hi-1}, only the top row when `top` (lo < hi).  Runs of
    up to 8 leaves are multiplied in sequence, in small ints, D the product
    of their leads; longer spans in a balanced tree, where top(U L) =
    top(U) L: a `top` tree drops the lower rows of its upper spine.  Each
    tree node drops its content (Cheng, Hanrot, Thome, Zima & Zimmermann
    2007): its integers stay near the clearing factors, not the leads' product.

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
    upper, upper_divisor = _matrix_product(family, half, hi, top)
    ((e, f), (g, h)), lower_divisor = _matrix_product(family, lo, half)
    rows = tuple((x * e + y * g, x * f + y * h) for x, y in upper)
    return _content_free(rows, upper_divisor * lower_divisor)


def _carried(family: str, m: int, n: int, rows: _Rows, top: bool = False) -> tuple[_Rows, int]:
    """The integer pairs at n and n-1, only n when `top`, from `rows` at m and
    m-1 (1 <= m < n) by one product tree M_{n-1} ... M_m, and its divisor D:
    over D S where `rows` are over S.  No value is reduced; one leaf is the
    step N_{m+1} = mid_m N_m + back_m N_{m-1}, over D = lead_m."""
    matrix, divisor = _matrix_product(family, m, n, top)
    pairs = tuple(zip(*rows))  # (N_k, N_{k-1}) for u, then for v
    return tuple(tuple(a * x + b * y for x, y in pairs) for a, b in matrix), divisor


def _step_until(family: str, n: int, rows: _Rows, holds: Callable[..., bool]) -> tuple[int, _Rows]:
    """m and the pairs at m+1 and m for the first m >= n with holds(u_{m+1},
    v_{m+1}, u_m, v_m), stepped from `rows` at n+1 and n one leaf at a time."""
    while not holds(*rows[0], *rows[1]):
        n += 1
        rows, _ = _carried(family, n, n + 1, rows)
    return n, rows


def _scaled_pairs(family: str, n: int, top: bool = False) -> tuple[_Rows, int]:
    """The pairs at n and n-1 (n >= 1), only n when `top`, as integers over
    one common scale S > 0, and S, from (family, n) alone: the initial rows 1
    and 0 over the lcm of their denominators, carried past n = 1 by one
    product tree (binary splitting, Haible & Papanikolaou 1998), over that lcm
    times the tree's divisor.  No value is reduced, and the memo is not read."""
    if n < 1:
        raise ValueError("consecutive pairs need n >= 1")
    pairs = RECURRENCES[family].initial[::-1]
    scale = math.lcm(*(x.denominator for pair in pairs for x in pair))
    rows = tuple(tuple(x.numerator * (scale // x.denominator) for x in pair) for pair in pairs)
    if n == 1:
        return rows[: 1 if top else 2], scale
    rows, divisor = _carried(family, 1, n, rows, top)
    return rows, divisor * scale


def _values(family: str, n: int) -> _Pair:
    """The exact pair (u_n, v_n): of memo row n, (q A + r) / (2^e A), one
    multiplication per value.  The index just past the memo's end is one step,
    appended, so that walking n upwards streams; an index further on is one
    `top` product tree, nodes without content, reduced once per value, not stored."""
    _check_index(family, n)
    if n > len(_pairs[family]):
        ((u, v),), scale = _scaled_pairs(family, n, top=True)
        return tuple(_coprime_fraction(*_lowest_terms(x, scale)[:2]) for x in (u, v))
    row = _row(family, n)
    return tuple(_coprime_fraction(x.quotient * x.odd + x.remainder, x.odd << x.twos) for x in row)


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


#: Per (family, mode), n and the cleared (u, v) at n and at n-1 (or None),
#: each by its own F; replaced whole under `_cache_lock`: a lost race costs a restart.
_carries: dict[tuple[str, str], tuple[int, _Values, _Values | None]] = {}


def _carry(family: str, n: int, mode: str) -> _Values:
    """The cleared (u, v) at n, the carry of (family, mode) moved there (if
    not already at n, the mode checked first) and stored under the lock.
    From n-1 >= 1 it takes the memo's step with the clearing factors, in
    time linear in the digits, W_n = (mid (F_n/F_{n-1}) W_{n-1} +
    back (F_n/F_{n-2}) W_{n-2}) / lead.  Any other n restarts it at rows n
    and n-1 (row 0 alone at n = 0) from the integers of `_scaled_pairs`, which
    reads no memo row: one divmod per value, no gcd when F clears it, its
    twins converted once."""
    last, cur, prev = _carries.get((family, mode), (-1, None, None))
    if last == n:
        return cur
    factors = _clearing_factors(family, n, mode)
    if prev is not None and last == n - 1:
        cur, prev = _stepped(family, n - 1, prev, cur, factors), cur
    else:  # a restart, row n-1 by F_n too; at n = 0 row 0 alone, without row 1
        ints, scale = _scaled_pairs(family, max(n, 1))
        rows = [tuple(_converted(x, scale, f) for x, f in zip(xs, factors)) for xs in ints[not n :]]
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
    witness_u, witness_v = (w.quotient if w.whole else None for w in (u, v))
    return InclusionReport(family, n, mode, u.whole, v.whole, witness_u, witness_v)


# -- printing rows and witnesses ---------------------------------------------


def _text(w: _Cleared) -> str:
    return str(w.num_text) if w.whole else f"{w.num_text}/{w.den_text}"


def row_texts(family: str, n: int) -> tuple[str, str]:
    """str(u_n) and str(v_n), from the twins of memo row n, the memo first
    walked up to n if it is short: in time linear in the digits, and past
    CPython's int->str limit.  No Fraction is formed."""
    _check_index(family, n)
    return tuple(map(_text, _row(family, n)))


def witness_texts(report: InclusionReport) -> tuple[str, str]:
    """The report's witnesses as decimal strings, "" for a failing one, from
    the decimal twins of the carry, moved first to the report's index if it
    holds another: no int->str conversion, at any size."""
    cur = _carry(report.family, report.n, report.mode)
    return tuple(_text(w) if w.whole else "" for w in cur)


# -- measured growth rates -----------------------------------------------------


def asymptotic_report(family: str, n: int, digits: int) -> AsymptoticRates:
    """Per-n log growth of u_n and of the linear form u_n C - v_n, to `digits`.

    No C is needed: with r_k = v_k/u_k and d_k = |r_{k+1} - r_k|, the Casoratian
    bracket |C - r_N| < d_N of analytic.linear_form puts u_n (r_N - r_n) within
    u_n d_N of the form, for any N > n.  N steps on from the DIGITS_PER_STEP
    estimate until d_N < 10^-(digits+5) |r_N - r_n|, tested on unreduced
    integers, so one rounding at digits+5 leaves both rates right to `digits`.
    """
    from mpmath import mp

    _check_index(family, n)
    if n < 2 or digits < 1:
        raise ValueError("growth rates need n >= 2 and digits >= 1")
    rows, scale = _scaled_pairs(family, n + 1)
    (u_n, v_n), precision = rows[1], digits + 5

    def holds(u1: int, v1: int, u0: int, v0: int) -> bool:  # d_N < 10^-(digits+5) |r_N - r_n|
        return abs(v0 * u1 - v1 * u0) * u_n * 10**precision < abs(u_n * v0 - v_n * u0) * u1

    start = n + math.ceil(precision / DIGITS_PER_STEP[family])
    _, (_, (u, v)) = _step_until(family, start, _carried(family, n + 1, start + 1, rows)[0], holds)
    with mp.workdps(precision):
        rate_u = mp.log(to_mpf((u_n, scale), precision)) / n
        rate_form = mp.log(to_mpf((abs(u_n * v - v_n * u), scale * u), precision)) / n
    with mp.workdps(digits):
        return AsymptoticRates(rate_u=+rate_u, rate_form=+rate_form)
