"""The two rational kernels, their pole tables, and the linear-form
coefficients they produce.

Each kernel is described once, as data (`KERNELS`): a scale and runs of
consecutive linear factors, a run (r0, L, m) standing for
prod_{i<L} (t-r0-i)^m.  The run with m < 0 holds the poles, of order -m.

    R_n(t) = n! (2t+n+1) t(t-1)...(t-n+1) (t+n+1)...(t+2n) / ((t+1/2)...(t+n+1/2))^3
           = sum_{j<3} sum_{k<=n} A_jk / (t+k+1/2)^(3-j)

is the catalan kernel, and

    H_n(t) = (2t+n) ((t-1)...(t-n))^2 ((t+n+1)...(t+2n))^2 / (t(t+1)...(t+n))^4
           = sum_{j<4} sum_{k<=n} B_jk / (t+k)^(4-j)

the zeta4 family's inner function.  From a description follow the exact
value and log-derivative at a point (`FactorRuns`) and the pole table
(`pole_table`): each column is the jet at a pole of a product of linear
factors, which `exp_jet` gives from the power sums of the factors' offsets
from the pole, and prefix tables over the runs give those in integers.

Alternating sums of the columns of A_jk produce the coefficients
(U, U', U'', V) for which F_n = sum_t (-1)^t R_n(t) equals U' G - V with
U = U'' = 0, G being Catalan's constant: the cross-check with the
recurrence is U'_n = 8 u_n and V_n = 8 v_n.  F_n has one numerical route,
`f_numeric`, whose accelerated term count is proved from the table.
`zeta4_decomposition` sums sum_{t>=1} H_n'(t) from B_jk into exact
coefficients of zeta(2..5) and a rational part: the exact second route to
u_n zeta(4) - v_n.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .acceleration import alternating_sum, terms_for_bound
from .exact import Polynomial, RationalFunction, TruncatedSeries, lcm_upto, to_mpf

if TYPE_CHECKING:
    from mpmath import mpf


class KernelParts(NamedTuple):
    """The kernel R_n together with its building blocks.

    P1 and P2 are the integer-valued falling/rising factorial polynomials
    scaled by 1/n!; Q is n! over the half-integer Pochhammer product, so that
    R = (2t+n+1) P1 P2 Q^3.  Q and R are unreduced pairs: R's denominator is
    the cubed product for every n, though for even n one factor cancels.
    """

    n: int
    P1: Polynomial
    P2: Polynomial
    Q: RationalFunction
    R: RationalFunction


class PartialFractionTable(NamedTuple):
    """Exact coefficients A[j][k] of the pole expansion of R_n.

    Row j (0, 1, 2) holds the coefficients of 1/(t+k+1/2)^(3-j) for
    k = 0..n.
    """

    n: int
    A: tuple[tuple[Fraction, ...], ...]


class CoefficientQuadruple(NamedTuple):
    """Linear-form coefficients assembled from the partial-fraction table."""

    n: int
    U: Fraction
    Uprime: Fraction
    Udoubleprime: Fraction
    V: Fraction


def _half(k: int) -> Fraction:
    """The pole location -k-1/2."""
    return Fraction(-(2 * k + 1), 2)


def _pole_factor(k: int) -> Polynomial:
    """The monic linear factor (t + k + 1/2)."""
    return Polynomial([Fraction(2 * k + 1, 2), Fraction(1)])


_kernel_lock = threading.Lock()
_kernel_cache: dict[int, KernelParts] = {}


def build_kernel(n: int) -> KernelParts:
    """Exact construction of R_n and its factors, memoized per n."""
    if n < 0:
        raise ValueError("kernel index must be nonnegative")
    with _kernel_lock:
        cached = _kernel_cache.get(n)
    if cached is not None:
        return cached

    scale, runs = factor_runs("catalan", n)
    # t + (n+1)/2, t(t-1)...(t-n+1), (t+n+1)...(t+2n), (t+1/2)...(t+n+1/2)
    two_t, falling, rising, poch = (
        Polynomial.from_roots([r0 + i for i in range(length)]) for r0, length, _ in runs
    )
    fact = math.factorial(n)
    r = RationalFunction(falling * rising * two_t * scale, poch**3)
    p1, p2 = falling * Fraction(1, fact), rising * Fraction(1, fact)
    parts = KernelParts(n=n, P1=p1, P2=p2, Q=RationalFunction(fact, poch), R=r)
    with _kernel_lock:
        _kernel_cache[n] = parts
    return parts


def q_residues(n: int) -> list[Fraction]:
    """Residues of Q_n at its poles: value of Q_n(t)(t+k+1/2) at t = -k-1/2.

    Evaluates the cleared product directly; the result is the alternating
    binomial (-1)^k C(n, k), which tests assert independently.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    fact = math.factorial(n)
    return [Fraction(fact, math.prod(l - k for l in range(n + 1) if l != k)) for k in range(n + 1)]


def exp_jet(
    center: Fraction, value: Fraction, power_sums: Sequence[Fraction], order: int
) -> TruncatedSeries:
    """Order-`order` jet at the center of a product of factors (t-r)^m with
    the given value there and power sums p_j = sum m / (center-r)^j, for
    j = 1..order-1.

    The product is value * exp(sum_j (-1)^(j+1) p_j x^j / j) in x = t-center,
    and e = exp(a) satisfies e' = a' e, so its coefficients follow from
    e_0 = 1 and e_m = (1/m) sum_{i=1..m} (-1)^(i+1) p_i e_(m-i).
    """
    e = [Fraction(1)]
    for m in range(1, order):
        e.append(
            sum((-1) ** (i + 1) * power_sums[i - 1] * e[m - i] for i in range(1, m + 1)) / m
        )
    return TruncatedSeries(center, [value * c for c in e])


# -- the kernels as factor runs ------------------------------------------------


class FactorRuns(NamedTuple):
    """A kernel as data: K(t) = scale * prod over runs (r0, L, m) of
    prod_{i<L} (t - r0 - i)^m.  The run with m < 0 holds the poles, of
    order -m."""

    scale: int
    runs: tuple[tuple[Fraction | int, int, int], ...]

    def value(self, t: Fraction | int) -> Fraction:
        """K(t) at a rational t that is not a pole.  With t - r0 = p/q, a run
        contributes (prod_{i<L} (p - iq) / q^L)^m, one integer product."""
        tn, td = t.as_integer_ratio()
        num, den = self.scale, 1
        for first, length, mult in self.runs:
            q = td * first.denominator
            p = tn * first.denominator - first.numerator * td
            part = math.prod(range(p - (length - 1) * q, p + 1, q))
            if mult > 0:
                num *= part**mult
                den *= q ** (length * mult)
            else:
                den *= part**-mult
                num *= q ** (-length * mult)
        return Fraction(num, den)

    def log_derivative(self, t: Fraction | int) -> Fraction:
        """K'(t)/K(t) = sum m/(t - r) = sum m q/(p - iq) over the factors, at a
        rational t that is not a pole, over one common denominator in integers."""
        tn, td = t.as_integer_ratio()
        top, bottom = 0, 1
        for first, length, mult in self.runs:
            q = td * first.denominator
            p = tn * first.denominator - first.numerator * td
            weight = mult * q
            for x in range(p - (length - 1) * q, p + 1, q):
                top, bottom = top * x + weight * bottom, bottom * x
        return Fraction(top, bottom)


#: Each kernel's description as a function of n.
KERNELS = {
    # R_n: 2t+n+1, t(t-1)...(t-n+1), (t+n+1)...(t+2n); poles -n-1/2..-1/2, order 3
    "catalan": lambda n: FactorRuns(2 * math.factorial(n), (
        (Fraction(-n - 1, 2), 1, 1), (0, n, 1), (-2 * n, n, 1),
        (Fraction(-2 * n - 1, 2), n + 1, -3),
    )),
    # H_n: 2t+n, ((t-1)...(t-n))^2, ((t+n+1)...(t+2n))^2; poles -n..0, order 4
    "zeta4": lambda n: FactorRuns(2, (
        (Fraction(-n, 2), 1, 1), (1, n, 2), (-2 * n, n, 2), (-n, n + 1, -4),
    )),
}


def factor_runs(kernel: str, n: int) -> FactorRuns:
    """The description of R_n (kernel "catalan") or H_n ("zeta4")."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {tuple(KERNELS)}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    return KERNELS[kernel](n)


def _grid_count(v: int) -> int:
    """How many of 1, 3, 5, ... (v odd) or 2, 4, 6, ... (v even) are <= v."""
    return (v + 1) // 2 if v > 0 else 0


def pole_table(kernel: str, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The exact pole table of a kernel: row j, column k holds the
    coefficient of 1/(t-p_k)^(order-j), where the run (r0, L, -order) gives
    the poles p_k = r0+L-1-k.

    Column k is the jet of K(t) (t-p_k)^order at p_k.  In doubled units,
    the offsets 2(p_k-r0-i) of a run are a step-2 stretch of the odd or the
    even integers, so prefix products and prefix sums of (2/x)^j (integers
    over one common denominator) give each run's value and power sums in
    O(1) per pole.  Factors that vanish at p_k enter as the monomial x^z, z
    the order plus their multiplicities (the pole's own among them), so
    z > 0 only where the numerator vanishes too.
    """
    scale, runs = factor_runs(kernel, n)
    first, count, mult = next(run for run in runs if run[2] < 0)
    order, depth = -mult, -mult - 1
    # doubled offset 2(p_k - r0) of each run: start - 2k
    starts = [int(2 * (first + count - 1 - r0)) for r0, _, _ in runs]
    extents = [0, 0]
    for start, (_, length, _) in zip(starts, runs):
        low = start - 2 * (count - 1) - 2 * (length - 1)
        extents[start % 2] = max(extents[start % 2], abs(start), abs(low))
    grids = [range(2, extents[0] + 1, 2), range(1, extents[1] + 1, 2)]
    common = math.lcm(*grids[0], *grids[1])
    denominators = [common**j for j in range(1, order)]  # of the power sums
    tables = []
    for grid in grids:
        prod, sums = [1], [[0] for _ in range(depth)]
        for x in grid:
            prod.append(prod[-1] * x)
            base, power = 2 * common // x, 1  # 1/(x/2)^j = base^j / common^j
            for row in sums:
                power *= base
                row.append(row[-1] + power)
        tables.append((prod, sums))
    jets = []
    for k in range(count):
        pole = first + count - 1 - k
        num, den, twos, zeros = scale, 1, 0, order
        power_sums = [0] * depth
        for start, (_, length, m) in zip(starts, runs):
            high = start - 2 * k
            low = high - 2 * (length - 1)
            prod, sums = tables[high % 2]
            a, b = _grid_count(low - 2), _grid_count(high)  # positive offsets
            c, d = _grid_count(-high - 2), _grid_count(-low)  # negative offsets
            if low <= 0 <= high and high % 2 == 0:
                zeros += m
            part = (prod[b] // prod[a]) * (prod[d] // prod[c]) * (-1) ** (d - c)
            if m > 0:
                num *= part**m
            else:
                den *= part**-m
            twos += m * (b - a + d - c)
            for j, row in enumerate(sums, 1):
                power_sums[j - 1] += m * (row[b] - row[a] + (-1) ** j * (row[d] - row[c]))
        value = Fraction(num, den << twos) if twos >= 0 else Fraction(num << -twos, den)
        monomial = TruncatedSeries(pole, [int(i == zeros) for i in range(order)])
        sums_at_pole = [Fraction(p, q) for p, q in zip(power_sums, denominators)]
        jets.append(monomial * exp_jet(pole, value, sums_at_pole, order))
    return tuple(tuple(jet.coeffs[j] for jet in jets) for j in range(order))


_table_lock = threading.Lock()
_table_cache: dict[int, PartialFractionTable] = {}


def partial_fractions(n: int) -> PartialFractionTable:
    """The exact 3 x (n+1) coefficient table of the pole expansion of R_n,
    `pole_table("catalan", n)`, memoized per n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    with _table_lock:
        cached = _table_cache.get(n)
    if cached is not None:
        return cached
    table = PartialFractionTable(n=n, A=pole_table("catalan", n))
    with _table_lock:
        _table_cache[n] = table
    return table


def reconstruction(table: PartialFractionTable) -> RationalFunction:
    """Reassemble sum_{j,k} A_jk / (t+k+1/2)^(3-j) as one rational function,
    over the product of the cubed pole factors."""
    num, den = Polynomial(), Polynomial.constant(1)
    for k in range(table.n + 1):
        factor = _pole_factor(k)
        local = Polynomial()
        for j in range(3):
            local = local + factor**j * table.A[j][k]
        num, den = num * factor**3 + local * den, den * factor**3
    return RationalFunction(num, den)


def beta_partial_sum(k: int, power: int) -> Fraction:
    """Exact partial sum sum_{l=0}^{k-1} (-1)^l / (2l+1)^power."""
    total = Fraction(0)
    for l in range(k):
        term = Fraction(1, (2 * l + 1) ** power)
        total += term if l % 2 == 0 else -term
    return total


def coefficient_quadruple(n: int) -> CoefficientQuadruple:
    """Alternating column sums of the table, with exact inner beta partial sums
    carried along k in one pass.

    U  = 8 sum (-1)^k A_0k        (coefficient that multiplies beta(3))
    U' = 4 sum (-1)^k A_1k        (coefficient of beta(2) = G)
    U''= 2 sum (-1)^k A_2k        (coefficient of beta(1))
    V  = sum_j 2^(3-j) sum_k (-1)^k A_jk sum_{l<k} (-1)^l/(2l+1)^(3-j)
    """
    table = partial_fractions(n)
    sums = [Fraction(0)] * 3    # sum_k (-1)^k A_jk
    inner = [Fraction(0)] * 3   # sum_k (-1)^k A_jk beta_partial_sum(k, 3-j)
    beta = [Fraction(0)] * 3    # beta_partial_sum(k, 3-j), carried along k
    for k in range(n + 1):
        sign = 1 if k % 2 == 0 else -1
        for j in range(3):
            term = sign * table.A[j][k]
            sums[j] += term
            inner[j] += term * beta[j]
            beta[j] += Fraction(sign, (2 * k + 1) ** (3 - j))
    return CoefficientQuadruple(
        n=n,
        U=8 * sums[0],
        Uprime=4 * sums[1],
        Udoubleprime=2 * sums[2],
        V=sum(2 ** (3 - j) * inner[j] for j in range(3)),
    )


# -- the zeta4 family: the inner function H_n -----------------------------------


class Zeta4Decomposition(NamedTuple):
    """The pole expansion of the zeta4 family's inner function and the exact
    sum of its derivative over t >= 1.

    B[j][k] (j = 0..3, k = 0..n) is the coefficient of 1/(t+k)^(4-j).  With
    c_jk = -(4-j) B[j][k] and s = 5-j,

        sum_{t>=1} H_n'(t) = sum_{j,k} c_jk (zeta(s) - H_k^(s))
                           = sum_s zeta[s-2] zeta(s) + rational,

    where zeta[s-2] = sum_k c_jk is the coefficient of zeta(s), s = 2..5, and
    rational = -sum_{j,k} c_jk H_k^(s), H_k^(s) = sum_{m<=k} 1/m^s.
    """

    n: int
    B: tuple[tuple[Fraction, ...], ...]
    zeta: tuple[Fraction, ...]
    rational: Fraction


def zeta4_decomposition(n: int) -> Zeta4Decomposition:
    """The exact 4 x (n+1) pole table `pole_table("zeta4", n)` of the zeta4
    family's inner function H_n, and the zeta and rational coefficients of
    sum_{t>=1} H_n'(t).

    H_n is proper (degree gap 3) with poles of order 4 at t = -k, k = 0..n,
    except the middle pole of even n, of order 3, where 2t+n vanishes.  The
    rational part is summed by columns, -sum_k c_jk H_k^(s) =
    -sum_{m>=1} m^-s sum_{k>=m} c_jk.  The identity (-1)^(n+1)/6 sum_t H_n'(t) = u_n zeta(4) - v_n of the zeta4
    family means zeta[0], zeta[1] and zeta[3] vanish,
    (-1)^(n+1) zeta[2]/6 = u_n and (-1)^(n+1) rational/6 = -v_n; tests
    assert it exactly.
    """
    table = pole_table("zeta4", n)
    zeta = [Fraction(0)] * 4
    rational = Fraction(0)
    for j, row in enumerate(table):
        tail, weighted = Fraction(0), Fraction(0)  # sum_{k>=m} B_jk, its m^-s sum
        for m in range(n, 0, -1):
            tail += row[m]
            weighted += tail / m ** (5 - j)
        zeta[3 - j] = -(4 - j) * (tail + row[0])
        rational += (4 - j) * weighted
    return Zeta4Decomposition(n=n, B=table, zeta=tuple(zeta), rational=rational)


# -- auxiliary integrality checks ---------------------------------------------


def _is_integer(q: Fraction) -> bool:
    return q.denominator == 1


def check_arith_lemmas(n: int) -> bool:
    """Exact verification of the auxiliary integrality statements for one n.

    Over the window k = -2n..2n:
      * 2^(2n) P(-k-1/2) is an integer for P in {P1, P2};
      * 2^(2n) D_n^j (1/j!) P^(j)(-k-1/2) is an integer for j = 1, 2.
    Over k = 0..n:
      * the j-th jet coefficient of Q_n(t)(t+k+1/2) at the pole equals
        (-1)^(j-1) sum_{l != k} a_l / (l-k)^j, and D_n^j times it is an
        integer, for j = 1, 2;
      * 2^(4n) D_n^j A_jk is an integer for j = 0, 1, 2.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    kern = build_kernel(n)
    table = partial_fractions(n)
    residues = q_residues(n)
    d_n = lcm_upto(n)
    two_2n = 2 ** (2 * n)
    two_4n = 2 ** (4 * n)

    for poly in (kern.P1, kern.P2):
        for k in range(-2 * n, 2 * n + 1):
            jet = TruncatedSeries.from_polynomial(poly, _half(k), 3).coeffs
            if not _is_integer(two_2n * jet[0]):
                return False
            for j in (1, 2):
                if not _is_integer(two_2n * d_n**j * jet[j]):
                    return False

    fact = math.factorial(n)
    for k in range(n + 1):
        center = _half(k)
        den_jet = TruncatedSeries.constant(1, center, 3)
        for l in range(n + 1):
            if l != k:
                den_jet = den_jet * TruncatedSeries.from_polynomial(
                    _pole_factor(l), center, 3
                )
        cleared = TruncatedSeries.constant(fact, center, 3) * den_jet.reciprocal()
        for j in (1, 2):
            expected = Fraction(0)
            for l in range(n + 1):
                if l != k:
                    expected += residues[l] / Fraction(l - k) ** j
            expected *= (-1) ** (j - 1)
            if cleared.coefficient(j) != expected:
                return False
            if not _is_integer(d_n**j * cleared.coefficient(j)):
                return False
        for j in range(3):
            if not _is_integer(two_4n * d_n**j * table.A[j][k]):
                return False
    return True


# -- numerical evaluation of the alternating kernel sum -------------------------


def f_numeric(n: int, digits: int) -> mpf:
    """The alternating sum F_n = sum_{t>=0} (-1)^t R_n(t), within 10^-digits.

    The raw series converges only polynomially (the degree gap of R_n is
    n+2), so it is accelerated.  R_n(t) = sum A_jk / (t+k+1/2)^(3-j) is the
    moment sequence of a signed measure on [0, 1] whose total variation is at
    most M_n = sum |A_jk| (k+1/2)^-(3-j), exactly from the partial-fraction
    table, so N = terms_for_bound(M_n, digits+5) exact terms bring the
    Chebyshev estimate within 10^-(digits+5) of F_n (Cohen, Rodriguez Villegas
    and Zagier 2000).  It is rounded once, at digits+15.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    mass = sum(
        abs(a) / Fraction(2 * k + 1, 2) ** (3 - j)
        for j, row in enumerate(partial_fractions(n).A)
        for k, a in enumerate(row)
    )
    count = terms_for_bound(mass, digits + 5)
    kernel = factor_runs("catalan", n)
    terms = [kernel.value(t) for t in range(count)]
    return to_mpf(alternating_sum(terms), digits + 15)
