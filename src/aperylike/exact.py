"""Exact arithmetic core: rationals, dense polynomials, rational functions,
truncated power series, the lcm table, and decimal-precision float helpers.

Representations:

* rationals are ``fractions.Fraction`` (always reduced, denominator > 0);
* a polynomial is a tuple ``ints`` of integers over one denominator
  ``den`` > 0 in lowest terms (gcd(den, *ints) == 1), index = degree, with
  no trailing zero, so equal polynomials store equal pairs; zero is ((), 1);
* a rational function is a pair num/den of polynomials kept exactly as built,
  never reduced by a gcd; two are equal when num1 den2 == num2 den1.  It is
  multiplied, shifted and evaluated, never added (callers that need a sum,
  such as the telescoping check, clear denominators themselves);
* a truncated series at center c keeps ``order`` coefficients of (t - c)^j;
  the pole jets multiply it.

Polynomial products, sums, products of linear factors
(``Polynomial.from_roots``), Taylor shifts (synthetic division) and
divisions work on the integers directly and reduce once by the gcd with the
denominator; evaluation is integer Horner, forming one Fraction.  Division
has one routine, the integer pseudo-division ``_pseudo_division``, behind
``divmod`` and ``poly_gcd``; their one library caller is the denominator
clearing in ``certificate.verify_telescoping``.

Everything in this module is exact; nothing rounds.  The only floating-point
code is the small group of helpers at the bottom that round exact rationals
to binary floats (``round_dyadic``, an integer (man, exp) pair, and
``to_mpf``, its mpmath value) or print them as decimal strings, at a
caller-stated number of digits, each rounding once.  mpmath is imported
inside ``to_mpf``, so the exact paths of the package never load it.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import zip_longest
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:
    from mpmath import mpf

RationalLike = Union[int, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def format_rational(value: RationalLike) -> str:
    """Serialize a rational as ``"p"`` or ``"p/q"`` (never a float)."""
    return str(as_fraction(value))


# ---------------------------------------------------------------------------
# Polynomials over the rationals
# ---------------------------------------------------------------------------


class Polynomial:
    """Dense univariate polynomial with rational coefficients, kept as
    integers over one denominator.

    Immutable.  ``ints[i] / den`` is the coefficient of t^i, with den > 0,
    gcd(den, *ints) == 1 and a nonzero last entry, so that each polynomial
    has one stored form; the zero polynomial is ``ints == ()``, ``den == 1``.
    """

    __slots__ = ("ints", "den")

    def __new__(cls, coeffs: Iterable[RationalLike] = ()):
        ratios = [c.as_integer_ratio() for c in coeffs]
        den = math.lcm(*(q for _, q in ratios))
        return cls._reduced([p * (den // q) for p, q in ratios], den)

    @classmethod
    def _reduced(cls, ints: list[int], den: int) -> "Polynomial":
        """The polynomial ints / den (den != 0), brought to its stored form."""
        while ints and not ints[-1]:
            ints.pop()
        if den < 0:
            ints, den = [-c for c in ints], -den
        g = math.gcd(den, *ints)
        if g != 1:
            ints, den = [c // g for c in ints], den // g
        obj = object.__new__(cls)
        object.__setattr__(obj, "ints", tuple(ints))
        object.__setattr__(obj, "den", den)
        return obj

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: RationalLike) -> "Polynomial":
        return cls([value])

    @classmethod
    def linear(cls, root: RationalLike) -> "Polynomial":
        """The monic linear factor (t - root)."""
        return cls([-as_fraction(root), 1])

    @classmethod
    def from_roots(
        cls, roots: Iterable[RationalLike], scale: RationalLike = 1
    ) -> "Polynomial":
        """scale * prod (t - r) over the roots.  A root p/q enters as q t - p,
        so the product is multiplied out over the integers, over the product
        of the q's."""
        ints, den = [scale.numerator], scale.denominator
        for r in roots:
            p, q = r.as_integer_ratio()
            ints = [q * a - p * b for a, b in zip([0, *ints], [*ints, 0])]
            den *= q
        return cls._reduced(ints, den)

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.den == other.den and self.ints == other.ints
        return NotImplemented

    def __repr__(self) -> str:
        return f"Polynomial({[str(Fraction(c, self.den)) for c in self.ints]})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        [a, b], den = integer_coefficients(self, other)
        return Polynomial._reduced([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    __radd__ = __add__

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            p, q = other.as_integer_ratio()
            return Polynomial._reduced([c * p for c in self.ints], self.den * q)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Polynomial._reduced(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        return math.prod([self] * exponent, start=Polynomial.constant(1))

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        # self = a / da, other = b / db; after e steps of the pseudo-division
        # lead^e a = sum_s c_s lead^(e-1-s) t^k_s b + r, so over the one
        # denominator lead^e da the quotient has c_s lead^(e-1-s) db at t^k_s
        # and the remainder is r.
        b = other.ints
        terms, r = _pseudo_division(self.ints, b)
        quotient = [0] * max(len(self.ints) - len(b) + 1, 0)
        power = 1
        for k, c in reversed(terms):
            quotient[k] = c * power * other.den
            power *= b[-1]
        den = power * self.den
        return Polynomial._reduced(quotient, den), Polynomial._reduced(r, den)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, self._coerce(other))[0]

    @staticmethod
    def _coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.constant(value)
        return NotImplemented

    # -- evaluation and calculus -------------------------------------------

    def __call__(self, point: RationalLike) -> Fraction:
        """Exact Horner evaluation at p/q in integers, homogeneous in p and q:
        acc = sum ints[i] p^i q^(d-i) = q^d den f(p/q), and one Fraction."""
        p, q = point.as_integer_ratio()
        acc, power = 0, 1
        for c in reversed(self.ints):
            acc = acc * p + c * power
            power *= q
        return Fraction(acc * q, self.den * power)  # power = q^(d+1)

    def shift(self, offset: RationalLike) -> "Polynomial":
        """Compose with a translation: returns f(t + offset), whose
        coefficients are the Taylor coefficients of f at the offset."""
        a = as_fraction(offset)
        if a == 0 or not self.ints:
            return self
        # f = sum_i F_i t^i / L and a = p/q.  G_i = F_i q^(d-i) are the integer
        # coefficients of g(x) = L q^d f(x/q), and g(p + y) = sum H_j y^j with
        # y = q t, so f(t + a) = sum_j H_j q^j t^j / (L q^d).  Each pass of
        # synthetic division by (x - p) fixes the next H_j in O(d) integer
        # steps, O(d^2) in all.
        d, p, q = len(self.ints) - 1, a.numerator, a.denominator
        g = [c * q ** (d - i) for i, c in enumerate(self.ints)]
        for j in range(d):
            for i in range(d - 1, j - 1, -1):
                g[i] += p * g[i + 1]
        return Polynomial._reduced([c * q**j for j, c in enumerate(g)], self.den * q**d)

    def monic(self) -> "Polynomial":
        return Polynomial._reduced(list(self.ints), self.ints[-1]) if self.ints else self


def integer_coefficients(*polys: Polynomial) -> tuple[list[list[int]], int]:
    """The pair (lists, scale): the coefficients of all the polynomials times
    one common integer `scale`, the lcm of their denominators; ratios between
    them are kept, and zero gives []."""
    scale = math.lcm(*(p.den for p in polys))
    return [[c * (scale // p.den) for c in p.ints] for p in polys], scale


# -- division and gcd over the integers (pseudo-division, primitive PRS) -----


def _primitive(coeffs: list[int]) -> list[int]:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
        if g == 1:
            return coeffs
    return [c // g for c in coeffs]


def _pseudo_division(
    a: list[int], b: list[int]
) -> tuple[list[tuple[int, int]], list[int]]:
    """Pseudo-division of a by b != 0 over the integers (lists low -> high;
    Knuth, TAOCP vol. 2, 4.6.1).  Step s multiplies the running remainder by
    lead = b[-1] and removes its leading term c_s t^k_s b.  Returns the (k_s, c_s)
    and r, where lead^e a = sum_s c_s lead^(e-1-s) t^k_s b + r after e steps."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    terms = []
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = r.pop()
        terms.append((k, c))
        r = [lead * x for x in r]
        for i in range(db):
            r[i + k] -= c * b[i]
        while r and r[-1] == 0:
            r.pop()
    return terms, r


def horner_int(coeffs: Sequence[int], t: RationalLike) -> RationalLike:
    """Evaluate an integer-coefficient polynomial (ascending list) at t: in
    ``int`` for integer t, in ``Fraction`` for rational t."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over the rationals, via the primitive PRS over the integers."""
    if not f:
        return g.monic()
    if not g:
        return f.monic()
    a, b = (_primitive(c) for c in integer_coefficients(f, g)[0])
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_division(a, b)[1]
        a, b = b, _primitive(r) if r else []
    return Polynomial(a).monic()


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Quotient num/den of polynomials, stored exactly as given.

    The pair is not reduced, so equal functions can have different pairs:
    equality is by cross-multiplication, which is exact, and the class is
    unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Polynomial.constant(1)):
        num = Polynomial._coerce(num)
        den = Polynomial._coerce(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("a rational function needs polynomial parts")
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (int, Fraction, Polynomial)):
            return cls(value)
        return NotImplemented

    def __call__(self, point: RationalLike) -> Fraction:
        """Exact evaluation; raises ZeroDivisionError where den vanishes."""
        x = as_fraction(point)
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"evaluation at pole t = {x}")
        return self.num(x) / d

    def shift(self, offset: RationalLike) -> "RationalFunction":
        """Return f(t + offset)."""
        return RationalFunction(self.num.shift(offset), self.den.shift(offset))


# ---------------------------------------------------------------------------
# Truncated power series at a shifted center
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Exact jet of a function at a center: sum of c_j (t - center)^j, j < order."""

    __slots__ = ("center", "coeffs")

    def __init__(self, center: RationalLike, coeffs: Sequence[RationalLike]):
        if not coeffs:
            raise ValueError("series order must be at least 1")
        object.__setattr__(self, "center", as_fraction(center))
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in coeffs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries(center={self.center}, coeffs={[str(c) for c in self.coeffs]})"

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.center != other.center or self.order != other.order:
            raise ValueError("series have different centers or orders")
        m = self.order
        out = [Fraction(0)] * m
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(m - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(self.center, out)


# ---------------------------------------------------------------------------
# Least-common-multiple table  D_n = lcm(1..n), D_0 = 1
# ---------------------------------------------------------------------------

_lcm_lock = threading.Lock()
_lcm_table: list[int] = [1]


def lcm_upto(n: int) -> int:
    """D_n = lcm(1, 2, ..., n), with D_0 = 1; cached incrementally."""
    if n < 0:
        raise ValueError("lcm_upto requires n >= 0")
    table = _lcm_table
    if n < len(table):
        return table[n]
    with _lcm_lock:
        while len(_lcm_table) <= n:
            m = len(_lcm_table)
            _lcm_table.append(math.lcm(_lcm_table[-1], m))
        return _lcm_table[n]


# ---------------------------------------------------------------------------
# Decimal-precision helpers (the one floating-point corner of this module)
# ---------------------------------------------------------------------------


def _integer_ratio(value: RationalLike | tuple[int, int]) -> tuple[int, int]:
    """(num, den > 0) of a rational, or the ratio (num, den) itself, reduced or not."""
    return value if isinstance(value, tuple) else value.as_integer_ratio()


def round_dyadic(value: RationalLike | tuple[int, int], digits: int) -> tuple[int, int]:
    """(man, exp) with man 2^exp an exact rational, or a ratio (num, den > 0)
    reduced or not, rounded to the binary precision of `digits` decimal digits
    by mpmath's rule (`dps_to_prec`, 37 bits at 10 digits).

    One rounding, to nearest, ties to even, as mpmath's `from_rational`, from a
    quotient of prec + 3 or 4 bits and a sticky bit for its remainder, with no
    normalising of the full-width operands.  No hidden guard digits: the
    caller states the working precision.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    prec = round((digits + 1) * math.log2(10))
    num, den = _integer_ratio(value)
    shift = prec + 3 - abs(num).bit_length() + den.bit_length()
    quotient, rest = divmod(abs(num) << max(shift, 0), den << max(-shift, 0))
    man = quotient << 1 | (rest != 0)
    drop = max(man.bit_length() - prec, 0)
    low, man = man & ((1 << drop) - 1), man >> drop
    if 2 * low > 1 << drop or (2 * low == 1 << drop and man & 1):
        man += 1
    return (-man if num < 0 else man), drop - shift - 1


def to_mpf(value: RationalLike | tuple[int, int], digits: int) -> mpf:
    """`value` rounded by round_dyadic, as an mpmath float."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp

    return mp.make_mpf(from_man_exp(*round_dyadic(value, digits)))


def decimal_string(value: RationalLike | tuple[int, int], places: int) -> str:
    """Exact decimal rendering of a rational, or of a ratio (num, den > 0)
    reduced or not, with `places` digits after the point.

    Rounds to nearest, ties to even, by one integer division.
    """
    if places < 0:
        raise ValueError("places must be nonnegative")
    num, den = _integer_ratio(value)
    sign = "-" if num < 0 else ""
    whole, rem = divmod(abs(num) * 10**places, den)
    twice = 2 * rem
    if twice > den or (twice == den and whole % 2):
        whole += 1
    if places == 0:
        return f"{sign}{whole}"
    digits = str(whole).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def exponent_string(value: RationalLike) -> str:
    """A rational `value` > 0 as mpmath's nstr(value, 6) prints it once that
    rounds below 1e-4 or to 1e6 and up: seven leading digits rounded half up
    to six, trailing zeros stripped to one after the point, "d.ddddde-K"."""
    num, den = _integer_ratio(value)
    k = math.floor((num.bit_length() - den.bit_length() - 1) * math.log10(2))
    # 10^k < value < 10^(k+2), so the floor of value 10^(6-k) has 7 or 8 digits
    head = num * 10 ** (6 - k) // den if k <= 6 else num // (den * 10 ** (k - 6))
    if head >= 10**7:
        head, k = head // 10, k + 1
    text = str((head + 5) // 10)  # "1000000" when 9.999995 rounds up to 10
    k += len(text) - 6
    text = text.rstrip("0")
    return f"{text[0]}.{text[1:] or '0'}e{'+' if k >= 0 else ''}{k}"
