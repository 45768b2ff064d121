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
value, jet and poles (`FactorRuns`), the ratios in n and in t
(`kernel_ratio`), R_n (`build_kernel`), the integrality windows
(`check_arith_lemmas`) and the pole table (`pole_table`): each column is
the jet at a pole of a product of linear factors, which `exp_jet` gives
from the power sums of the factors' offsets from the pole, and one window
of the runs' factors, walked from pole to pole, keeps those in integers.

One reader, `lattice_sum`, sums a pole table over the kernel's lattice
(`LATTICES`) into coefficients of L-values and a rational part:
F_n = sum_t (-1)^t R_n(t) = U' G - V in beta values, G = beta(2) being
Catalan's constant (`coefficient_quadruple`), and sum_{t>=1} H_n'(t) in zeta
values (`zeta4_decomposition`).  Each is kappa_n (u_n C - v_n) against the
recurrence.  F_n has one numerical route, `f_numeric`, whose accelerated
term count is proved from the table.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from .acceleration import alternating_sum, terms_for_bound
from .exact import Polynomial, RationalFunction, TruncatedSeries, lcm_upto, to_mpf

if TYPE_CHECKING:
    from mpmath import mpf


class KernelParts(NamedTuple):
    """The kernel R_n as one unreduced rational function: its denominator is
    the cubed Pochhammer product for every n, though for even n one factor
    cancels."""

    n: int
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


_kernel_lock = threading.Lock()
_kernel_cache: dict[int, KernelParts] = {}


def build_kernel(n: int) -> KernelParts:
    """Exact construction of R_n from `factor_runs("catalan", n)`, memoized
    per n: the runs with m > 0 and those with m < 0, each root repeated |m|
    times, are multiplied out over the integers (`Polynomial.from_roots`).
    """
    if n < 0:
        raise ValueError("kernel index must be nonnegative")
    with _kernel_lock:
        cached = _kernel_cache.get(n)
    if cached is not None:
        return cached

    scale, runs = factor_runs("catalan", n)
    top, bottom = [], []
    for first, length, mult in runs:
        (top if mult > 0 else bottom).extend([first + i for i in range(length)] * abs(mult))
    parts = KernelParts(
        n=n, R=RationalFunction(Polynomial.from_roots(top, scale), Polynomial.from_roots(bottom))
    )
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
    order -m.  The value and the jet at a point, the poles, and so the pole
    table, `build_kernel`'s polynomials and the integrality windows all
    follow from it."""

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

    def jet(self, t: Fraction | int, order: int) -> TruncatedSeries:
        """The order-`order` jet of K at a rational t that is no root or pole,
        by `exp_jet`.  The power sums sum m/(t - r)^j = sum m q^j/(p - iq)^j
        over the factors are accumulated in integers, over one common
        denominator per j."""
        tn, td = t.as_integer_ratio()
        tops, bottoms = [0] * (order - 1), [1] * (order - 1)
        for first, length, mult in self.runs:
            q = td * first.denominator
            p = tn * first.denominator - first.numerator * td
            for x in range(p - (length - 1) * q, p + 1, q):
                for j in range(1, order):
                    tops[j - 1] = tops[j - 1] * x**j + mult * q**j * bottoms[j - 1]
                    bottoms[j - 1] *= x**j
        sums = [Fraction(top, bottom) for top, bottom in zip(tops, bottoms)]
        return exp_jet(t, self.value(t), sums, order)

    @property
    def poles(self) -> tuple[Fraction | int, ...]:
        """The pole run's locations r0+L-1-k, k = 0..L-1: column k of the
        pole table is the expansion at the k-th."""
        first, count, _ = next(run for run in self.runs if run[2] < 0)
        return tuple(first + count - 1 - k for k in range(count))


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


class Lattice(NamedTuple):
    """sum_{t>=start} sign^t K_n(t), of K_n' if `derivative` is 1, for poles
    at t = -(k + r/q): kappa(n) (u_n C - v_n), C the L-value at `s`."""

    q: int
    r: int
    sign: int
    start: int
    derivative: int
    s: int
    kappa: Callable[[int], int]


#: Each kernel's lattice: sum_{t>=0} (-1)^t R_n(t) = 8 (u_n G - v_n) with
#: G = beta(2), and sum_{t>=1} H_n'(t) = 6 (-1)^(n+1) (u_n zeta(4) - v_n).
LATTICES = {
    "catalan": Lattice(2, 1, -1, 0, 0, 2, lambda n: 8),
    "zeta4": Lattice(1, 0, 1, 1, 1, 4, lambda n: 6 * (-1) ** (n + 1)),
}


def factor_runs(kernel: str, n: int) -> FactorRuns:
    """The description of R_n (kernel "catalan") or H_n ("zeta4")."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {tuple(KERNELS)}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    return KERNELS[kernel](n)


def kernel_ratio(kernel: str, n: int, dn: int = 0, dt: int = 0) -> RationalFunction:
    """K_{n+dn}(t+dt) / K_n(t) with the common linear factors cancelled: the
    ratio in n for dn = +-1, dt = 0, and the ratio in t for dn = 0, dt = 1.

    Both descriptions are read into one multiset of roots in doubled
    integer units (a factor t + dt - r of the top has the doubled root
    2r - 2dt), the bottom's with their multiplicities negated.  Each run of
    the top is paired with the same run of the bottom; where both have one
    multiplicity and parity their overlap cancels, so only the run ends
    outside it are added, the few factors that are left: O(1) per call.
    """
    top, bottom = factor_runs(kernel, n + dn), factor_runs(kernel, n)
    roots: Counter[int] = Counter()
    for (first, length, mult), (first0, length0, mult0) in zip(top.runs, bottom.runs):
        a, b = int(2 * first) - 2 * dt, int(2 * first0)
        segments = [(a, a + 2 * length, mult), (b, b + 2 * length0, -mult0)]
        lo, hi = max(a, b), min(a + 2 * length, b + 2 * length0)
        if mult == mult0 and (a - b) % 2 == 0 and lo < hi:  # cut the overlap out
            segments = [(x, lo, m) for x, _, m in segments] + [(hi, y, m) for _, y, m in segments]
        for start, end, m in segments:
            for x in range(start, end, 2):
                roots[x] += m
    num = [Fraction(x, 2) for x, mult in roots.items() for _ in range(mult)]
    den = [Fraction(x, 2) for x, mult in roots.items() for _ in range(-mult)]
    return RationalFunction(
        Polynomial.from_roots(num, Fraction(top.scale, bottom.scale)), Polynomial.from_roots(den)
    )


def pole_table(kernel: str, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The exact pole table of a kernel: row j, column k holds the
    coefficient of 1/(t-p_k)^(order-j), where the run (r0, L, -order) gives
    the poles p_k = r0+L-1-k.

    Column k is the jet of K(t) (t-p_k)^order at p_k.  One window walks the
    poles: in doubled units a run's offsets from p_k are x = 2(p_k-r0-i),
    i < L, and each step lowers them by 2, so one factor leaves at the near
    end of every run and one enters at its far end.  So in O(1) per pole the
    window keeps the value of the factors that do not vanish, the count z of
    those that do (the monomial x^z), and the power sums sum m/(x/2)^j as
    integers over common^j, common = lcm(1..reach), reach the largest |x|
    at the run ends at the first and the last pole.  z is the order plus the
    vanishing factors' multiplicities, the pole's own (-order) among them,
    so z > 0 only where the numerator vanishes too.
    """
    scale, runs = description = factor_runs(kernel, n)
    poles = description.poles
    order = -next(m for _, _, m in runs if m < 0)
    starts = [int(2 * (poles[0] - r0)) for r0, _, _ in runs]  # x at p_0, i = 0
    last = 2 * len(poles) - 2  # x = start - 2k - 2i spans start - last - 2(L-1)..start
    reach = max(abs(x) for s, (_, L, _) in zip(starts, runs) for x in (s, s - last - 2 * L + 2))
    common = math.lcm(*range(1, reach + 1))
    denominators = [common**j for j in range(1, order)]  # of the power sums

    def changes(k):  # (x, m) of each factor entering the window at p_k, (x, -m) leaving it
        for s, (_, length, m) in zip(starts, runs):
            if k == 0:
                yield from ((x, m) for x in range(s, s - 2 * length, -2))
            else:
                yield from ((s - 2 * k + 2, -m), (s - 2 * (k + length - 1), m))

    # each factor counts x/2 in the value, a vanishing one (counted in z) 2/2 = 1
    value = Fraction(scale) / Fraction(2) ** sum(length * m for _, length, m in runs)
    zeros, sums, jets = order, [0] * (order - 1), []
    for k, pole in enumerate(poles):
        num, den = 1, 1
        for x, m in changes(k):
            if m > 0:
                num *= (x or 2) ** m
            else:
                den *= (x or 2) ** -m
            if x == 0:
                zeros += m
                continue
            base, power = 2 * common // x, m  # 1/(x/2)^j = base^j / common^j
            for j in range(order - 1):
                power *= base
                sums[j] += power
        value *= Fraction(num, den)
        monomial = TruncatedSeries(pole, [int(i == zeros) for i in range(order)])
        sums_at_pole = [Fraction(p, q) for p, q in zip(sums, denominators)]
        jets.append(monomial * exp_jet(pole, value, sums_at_pole, order))
    return tuple(tuple(jet.coeffs[j] for jet in jets) for j in range(order))


@functools.cache
def partial_fractions(n: int) -> PartialFractionTable:
    """The exact 3 x (n+1) coefficient table of the pole expansion of R_n,
    `pole_table("catalan", n)`, memoized per n: `decompose` reads the table
    and then `coefficient_quadruple(n)`, which reads it again."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return PartialFractionTable(n=n, A=pole_table("catalan", n))


def reconstruction(table: PartialFractionTable) -> RationalFunction:
    """Reassemble sum_{j,k} A_jk / (t+k+1/2)^(3-j) as one rational function,
    over the product of the cubed pole factors."""
    num, den = Polynomial(), Polynomial.constant(1)
    for k, pole in enumerate(factor_runs("catalan", table.n).poles):
        factor = Polynomial.linear(pole)
        local = Polynomial()
        for j in range(3):
            local = local + factor**j * table.A[j][k]
        num, den = num * factor**3 + local * den, den * factor**3
    return RationalFunction(num, den)


def lattice_rows(kernel: str, table: Sequence) -> Iterator[tuple[int, int, Sequence]]:
    """(s, weight, row) for each row j of the kernel's pole table, by its
    `LATTICES` entry: row j holds T_jk at 1/(t+k+r/q)^e, e = order - j, which
    the lattice sum takes at the power s = e + derivative with the weight
    (-e)^derivative q^s."""
    q, _, _, _, derivative, _, _ = LATTICES[kernel]
    for j, row in enumerate(table):
        e = len(table) - j
        yield e + derivative, (-e) ** derivative * q ** (e + derivative), row


def lattice_sum(kernel: str, n: int, table: Sequence) -> tuple[dict[int, Fraction], Fraction]:
    """(L, rational): the kernel's sum over its `LATTICES` entry is
    sum_s L[s] L(s) + rational, read from its pole table.

    Row j holds T_jk at 1/(t+k+r/q)^e, e = order - j, or -e T_jk at
    1/(t+k+r/q)^(e+1) after a derivative: the power s and weight of
    `lattice_rows`.  With m = q(t+k) + r and psi(m) = sign^((m-r)/q) where
    q divides m - r, 0 elsewhere,

        sum_{t>=t0} sign^t / (t+k+r/q)^s
            = q^s sign^k (L(s) - sum_{1<=m<q(t0+k)+r} psi(m)/m^s),

    L(s) = sum_{m>=1} psi(m)/m^s: beta(s) for catalan, zeta(s) for zeta4.
    By columns, m = q(t0+k-1)+r weighs the tail sum_{k'>=k} sign^k' T_jk',
    carried from k = n down in integers over the row's common denominator.
    """
    q, r, sign, start, _, _, _ = LATTICES[kernel]
    L, rational = {}, Fraction(0)
    for s, weight, row in lattice_rows(kernel, table):
        common = math.lcm(*(x.denominator for x in row))
        tail, weighted = 0, Fraction(0)
        for k in range(n, -1, -1):
            tail += sign**k * row[k].numerator * (common // row[k].denominator)
            m = q * (start + k - 1) + r
            if m > 0:
                weighted += Fraction(tail, sign ** (start + k - 1) * m**s)
        L[s] = Fraction(weight * tail, common)
        rational -= weight * weighted / common
    return L, rational


def coefficient_quadruple(n: int) -> CoefficientQuadruple:
    """F_n = U' G - V from `lattice_sum` over the table: U, U' and U'' are
    the coefficients of beta(3), beta(2) = G and beta(1)."""
    L, rational = lattice_sum("catalan", n, partial_fractions(n).A)
    return CoefficientQuadruple(n=n, U=L[3], Uprime=L[2], Udoubleprime=L[1], V=-rational)


# -- the zeta4 family: the inner function H_n -----------------------------------


class Zeta4Decomposition(NamedTuple):
    """B[j][k] (j = 0..3, k = 0..n), the coefficient of 1/(t+k)^(4-j) in H_n,
    and sum_{t>=1} H_n'(t) = sum_s zeta[s-2] zeta(s) + rational, s = 2..5."""

    n: int
    B: tuple[tuple[Fraction, ...], ...]
    zeta: tuple[Fraction, ...]
    rational: Fraction


def zeta4_decomposition(n: int) -> Zeta4Decomposition:
    """The pole table of H_n (`pole_table("zeta4", n)`: order 4 at t = -k,
    but 3 at the middle pole of even n, where 2t+n vanishes) and, from
    `lattice_sum`, sum_{t>=1} H_n'(t) = 6 (-1)^(n+1) (u_n zeta(4) - v_n):
    zeta[0], zeta[1] and zeta[3] vanish; tests assert it exactly."""
    table = pole_table("zeta4", n)
    L, rational = lattice_sum("zeta4", n, table)
    return Zeta4Decomposition(n, table, tuple(L[s] for s in range(2, 6)), rational)


# -- auxiliary integrality checks ---------------------------------------------


def check_arith_lemmas(n: int) -> bool:
    """Exact verification of the auxiliary integrality statements for one n,
    every jet taken from the runs of R_n (`FactorRuns.jet`): n! P1 and n! P2
    are runs 1 and 2, t(t-1)...(t-n+1) and (t+n+1)...(t+2n), and
    Q_n = n!/((t+1/2)...(t+n+1/2)) is n! over the pole run.

    Over the window k = -2n..2n:
      * 2^(2n) P(-k-1/2) is an integer for P in {P1, P2};
      * 2^(2n) D_n^j (1/j!) P^(j)(-k-1/2) is an integer for j = 1, 2.
    Over the poles -k-1/2, k = 0..n:
      * the j-th jet coefficient of Q_n(t)(t+k+1/2), n! over the other pole
        factors, equals (-1)^(j-1) sum_{l != k} a_l / (l-k)^j with a_l the
        residues (`q_residues`), and D_n^j times it is an integer, j = 1, 2;
      * 2^(4n) D_n^j A_jk is an integer for j = 0, 1, 2.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    kernel = factor_runs("catalan", n)
    _, falling, rising, (first, count, _) = kernel.runs
    poles = kernel.poles
    table, residues = partial_fractions(n).A, q_residues(n)
    fact, d_n = math.factorial(n), lcm_upto(n)
    scaled = []  # the numbers that must be integers
    for part in (FactorRuns(1, (falling,)), FactorRuns(1, (rising,))):
        for k in range(-2 * n, 2 * n + 1):
            jet = part.jet(poles[0] - k, 3)
            scaled += [2 ** (2 * n) * d_n**j * c / fact for j, c in enumerate(jet.coeffs)]
    for k, pole in enumerate(poles):
        i = count - 1 - k  # the pole's place in its run
        cleared = FactorRuns(fact, ((first, i, -1), (first + i + 1, k, -1))).jet(pole, 3)
        for j in (1, 2):
            terms = (residues[l] / Fraction(l - k) ** j for l in range(n + 1) if l != k)
            if cleared.coeffs[j] != (-1) ** (j - 1) * sum(terms):
                return False
            scaled.append(d_n**j * cleared.coeffs[j])
        scaled += [2 ** (4 * n) * d_n**j * table[j][k] for j in range(3)]
    return all(x.denominator == 1 for x in scaled)


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
    kernel = factor_runs("catalan", n)
    mass = sum(
        abs(a) / abs(pole) ** (3 - j)
        for j, row in enumerate(partial_fractions(n).A)
        for pole, a in zip(kernel.poles, row)
    )
    count = terms_for_bound(mass, digits + 5)
    terms = [kernel.value(t) for t in range(count)]
    return to_mpf(alternating_sum(terms), digits + 15)
