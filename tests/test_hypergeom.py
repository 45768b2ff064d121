"""Kernel construction, partial fractions, linear-form coefficients."""

import math
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from aperylike import hypergeom
from aperylike.exact import (
    Polynomial,
    RationalFunction,
    horner_int,
    integer_coefficients,
    lcm_upto,
    poly_gcd,
)
from aperylike.hypergeom import (
    KERNELS,
    FactorRuns,
    PartialFractionTable,
    build_kernel,
    check_arith_lemmas,
    coefficient_quadruple,
    exp_jet,
    f_numeric,
    factor_runs,
    kernel_ratio,
    partial_fractions,
    pole_table,
    q_residues,
    reconstruction,
    zeta4_decomposition,
)
from aperylike.sequences import catalan_pair, zeta4_pair
from tests.conftest import (
    coefficients,
    kernel_ratio_by_walk,
    mpf_frac,
    series_pole_jets,
    series_reciprocal,
    series_zeta4_pole_jets,
    taylor_jet,
)


def pole_factor(k: int) -> Polynomial:
    return Polynomial([Fraction(2 * k + 1, 2), 1])


def linear_product(roots) -> Polynomial:
    return math.prod(map(Polynomial.linear, roots), start=Polynomial.constant(1))


def kernel_parts(n: int) -> tuple[Polynomial, Polynomial, RationalFunction]:
    """R_n's building blocks from their roots: P1 = t(t-1)...(t-n+1)/n!,
    P2 = (t+n+1)...(t+2n)/n! and Q = n!/((t+1/2)...(t+n+1/2)), so that
    R_n = (2t+n+1) P1 P2 Q^3."""
    fact = math.factorial(n)
    p1 = linear_product(range(n)) * Fraction(1, fact)
    p2 = linear_product(range(-2 * n, -n)) * Fraction(1, fact)
    q = RationalFunction(fact, linear_product(Fraction(-(2 * k + 1), 2) for k in range(n + 1)))
    return p1, p2, q


def derivative(p: Polynomial) -> Polynomial:
    return Polynomial([i * c for i, c in enumerate(coefficients(p))][1:])


def zeta4_inner(n: int) -> RationalFunction:
    """H_n = (2t+n) ((t-1)...(t-n))^2 ((t+n+1)...(t+2n))^2 / (t(t+1)...(t+n))^4,
    expanded as polynomials."""
    g1 = Polynomial.from_roots(range(1, n + 1))
    g2 = Polynomial.from_roots([-(n + i) for i in range(1, n + 1)])
    den = Polynomial.from_roots([-i for i in range(n + 1)]) ** 4
    return RationalFunction(Polynomial([n, 2]) * g1 * g1 * g2 * g2, den)


def reference_table(jets) -> tuple:
    """Row j holds coefficient j of every jet."""
    return tuple(zip(*(jet.coeffs for jet in jets)))


def beta_partial_sum(k: int, power: int) -> Fraction:
    """sum_{l<k} (-1)^l / (2l+1)^power, term by term."""
    return sum((Fraction((-1) ** l, (2 * l + 1) ** power) for l in range(k)), Fraction(0))


def zeta4_table_holds(n: int, table) -> bool:
    """Whether the zeta4 pole table B at n has the antisymmetry
    B_{j,n-k} = (-1)^(j+1) B_jk, row 0 in closed form,
    B_0k = (n-2k) C(n,k)^4 C(n+k,n)^2 C(2n-k,n)^2, and
    u_n = (-1)^n sum_k B_1k / 2, each exactly."""
    symmetric = all(
        row[n - k] == (-1) ** (j + 1) * row[k] for j, row in enumerate(table) for k in range(n + 1)
    )
    comb = math.comb
    closed_form = all(
        table[0][k] == (n - 2 * k) * (comb(n, k) ** 2 * comb(n + k, n) * comb(2 * n - k, n)) ** 2
        for k in range(n + 1)
    )
    return symmetric and closed_form and (-1) ** n * sum(table[1]) / 2 == zeta4_pair(n).u


class TestKernel:
    def test_r0_is_two_over_square(self):
        r = build_kernel(0).R
        expected = RationalFunction(Polynomial([2]), pole_factor(0) ** 2)
        assert r == expected

    def test_r1_partial_fraction_display(self):
        # R_1 = -3/4 x0^-3 - 3/4 x1^-3 + 7/4 x0^-2 - 7/4 x1^-2, x_k = t+k+1/2.
        # Both sides are proper with denominators dividing x0^3 x1^3, of
        # degree 6, so x0^3 x1^3 times their difference is a polynomial of
        # degree below 6: agreement at the 7 non-poles t = 0..6 proves it.
        r = build_kernel(1).R
        for t in range(7):
            x0, x1 = Fraction(2 * t + 1, 2), Fraction(2 * t + 3, 2)
            display = (
                Fraction(-3, 4) / x0**3
                - Fraction(3, 4) / x1**3
                + Fraction(7, 4) / x0**2
                - Fraction(7, 4) / x1**2
            )
            assert r(t) == display

    @pytest.mark.parametrize("n", range(7))
    def test_degree_gap(self, n):
        r = build_kernel(n).R
        assert len(r.num.ints) - len(r.den.ints) == -(n + 2)

    @pytest.mark.parametrize("n", range(7))
    def test_factorization_into_parts(self, n):
        p1, p2, q = kernel_parts(n)
        two_t = RationalFunction(Polynomial([n + 1, 2]))  # 2t + n + 1
        assembled = two_t * RationalFunction(p1) * RationalFunction(p2) * q * q * q
        assert build_kernel(n).R == assembled

    @pytest.mark.parametrize("n", range(61))
    def test_construction_matches_public_constructor(self, n):
        # Polynomial products of linear factors, coefficient by coefficient
        r = build_kernel(n).R
        falling = linear_product(range(n))
        rising = linear_product([-(n + i) for i in range(1, n + 1)])
        poch = linear_product([Fraction(-(2 * k + 1), 2) for k in range(n + 1)])
        num = Polynomial.constant(math.factorial(n)) * Polynomial([n + 1, 2]) * falling * rising
        assert (r.num, r.den) == (num, poch**3)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_kernel_vanishes_at_zero(self, n):
        assert build_kernel(n).R(0) == 0

    def test_integer_valued_building_blocks(self):
        for n in range(6):
            p1, p2, _ = kernel_parts(n)
            for t in range(-12, 13):
                assert p1(t).denominator == 1
                assert p2(t).denominator == 1


class TestResidues:
    def test_known_row(self):
        assert q_residues(4) == [1, -4, 6, -4, 1]

    def test_trivial_row(self):
        assert q_residues(0) == [1]

    @pytest.mark.parametrize("n", range(13))
    def test_alternating_binomials(self, n):
        assert q_residues(n) == [(-1) ** k * math.comb(n, k) for k in range(n + 1)]

    @pytest.mark.parametrize("n", range(9))
    def test_residues_reconstruct_the_product(self, n):
        # Q_n and sum_k a_k / (t+k+1/2) are proper with denominators dividing
        # the n+1 pole factors' product, so that product times their
        # difference has degree at most n: agreement at the n+1 non-poles
        # t = 0..n proves it.
        residues = q_residues(n)
        _, _, q = kernel_parts(n)
        for t in range(n + 1):
            factors = [Fraction(2 * (t + k) + 1, 2) for k in range(n + 1)]  # t+k+1/2
            assert q(t) == sum(a / x for a, x in zip(residues, factors))


class TestPartialFractions:
    def test_table_n0(self):
        table = partial_fractions(0)
        assert table.A == ((Fraction(0),), (Fraction(2),), (Fraction(0),))

    def test_table_n1(self):
        table = partial_fractions(1)
        assert table.A[0] == (Fraction(-3, 4), Fraction(-3, 4))
        assert table.A[1] == (Fraction(7, 4), Fraction(-7, 4))
        assert table.A[2] == (Fraction(0), Fraction(0))

    def test_threads_share_the_memoized_tables(self):
        # concurrent first calls may each build a table; every caller gets
        # the exact one, and later calls get the stored one.  Other tests
        # fill the memo up to n = 100, so these indices start cold.
        indices = (101, 102)
        results, errors = [], []

        def worker():
            try:
                results.extend(partial_fractions(n) for n in indices)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 * len(indices)
        for n in indices:
            expected = pole_table("catalan", n)
            assert all(table.A == expected for table in results if table.n == n)
            assert partial_fractions(n) is partial_fractions(n)

    @pytest.mark.parametrize("n", list(range(13)) + [20])
    def test_reconstruction_identity(self, n):
        assert reconstruction(partial_fractions(n)) == build_kernel(n).R

    @pytest.mark.parametrize("n", range(7))
    def test_jets_match_factored_product_form(self, n):
        # same coefficients from the product (2t+n+1) P1 P2 (Q (t+k+1/2))^3,
        # expanded factor by factor
        p1, p2, _ = kernel_parts(n)
        fact = math.factorial(n)
        table = partial_fractions(n)
        for k in range(n + 1):
            center = Fraction(-(2 * k + 1), 2)
            jet = taylor_jet(Polynomial([n + 1, 2]), center, 3)
            jet = jet * taylor_jet(p1, center, 3)
            jet = jet * taylor_jet(p2, center, 3)
            cleared_den = Polynomial.constant(1)
            for l in range(n + 1):
                if l != k:
                    cleared_den = cleared_den * pole_factor(l)
            cleared = taylor_jet(Polynomial([fact]), center, 3) * series_reciprocal(
                taylor_jet(cleared_den, center, 3)
            )
            jet = jet * cleared * cleared * cleared
            for j in range(3):
                assert jet.coeffs[j] == table.A[j][k], (n, j, k)


class TestClosedFormJets:
    @pytest.mark.parametrize("n", list(range(31)) + [60])
    def test_table_equals_the_series_reference(self, n):
        assert partial_fractions(n).A == reference_table(series_pole_jets(n))

    @pytest.mark.parametrize("n", range(25))
    def test_pole_orders(self, n):
        # every pole is triple (A_0k != 0) except the middle pole of even n,
        # where 2t+n+1 vanishes: A_0k = 0 and A_1k != 0
        table = partial_fractions(n)
        for k in range(n + 1):
            if 2 * k == n:
                assert table.A[0][k] == 0 and table.A[1][k] != 0
            else:
                assert table.A[0][k] != 0

    def test_jets_are_centered_at_their_poles(self):
        # column k leads with the value of the pole-cleared kernel at its
        # pole, -k-1/2 for R_n and -k for H_n, from the expanded polynomials
        for n in (5, 6):
            for kernel, numerator, order, pole in [
                ("catalan", build_kernel(n).R.num, 3, lambda k: Fraction(-(2 * k + 1), 2)),
                ("zeta4", zeta4_inner(n).num, 4, lambda k: Fraction(-k)),
            ]:
                leading = pole_table(kernel, n)[0]
                for k in range(n + 1):
                    p = pole(k)
                    cleared = math.prod((p - pole(l)) ** order for l in range(n + 1) if l != k)
                    assert leading[k] == numerator(p) / cleared, (kernel, n, k)

    def test_integrality_to_one_hundred(self):
        # 2^(4n) D_n^j A_jk is an integer; check_arith_lemmas checks it by
        # the series route for small n only
        for n in range(101):
            scale = 2 ** (4 * n)
            d_n = lcm_upto(n)
            for j, row in enumerate(partial_fractions(n).A):
                for k, a in enumerate(row):
                    assert (scale * d_n**j * a).denominator == 1, (n, j, k)


class TestExpJet:
    def test_order_three_is_the_log_jet_formula(self):
        # value (1 + s1 x + (s1^2 - s2) x^2/2), the closed form it replaced
        for value, s1, s2 in [
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(-3, 4), Fraction(7, 5), Fraction(2, 9)),
            (Fraction(11), Fraction(-1, 3), Fraction(-5, 2)),
        ]:
            jet = exp_jet(Fraction(-5, 2), value, (s1, s2), 3)
            assert jet.center == Fraction(-5, 2)
            assert jet.coeffs == (value, value * s1, value * (s1 * s1 - s2) / 2)

    def test_order_four_is_a_product_of_linear_factors(self):
        # (t-1)^2 (t+3)^-1 (t-4/3)^3 at t = 1/2
        center = Fraction(1, 2)
        factors = [(Fraction(1), 2), (Fraction(-3), -1), (Fraction(4, 3), 3)]
        product = taylor_jet(Polynomial([1]), center, 4)
        for root, m in factors:
            jet = taylor_jet(Polynomial([-root, 1]), center, 4)
            if m < 0:
                jet = series_reciprocal(jet)
            for _ in range(abs(m)):
                product = product * jet
        value = Fraction(1)
        for root, m in factors:
            value *= (center - root) ** m
        sums = [sum(m / (center - root) ** j for root, m in factors) for j in (1, 2, 3)]
        jet = exp_jet(center, value, sums, 4)
        assert (jet.center, jet.coeffs) == (product.center, product.coeffs)


class TestZeta4Decomposition:
    @pytest.mark.parametrize("n", range(31))
    def test_table_equals_the_series_reference(self, n):
        assert zeta4_decomposition(n).B == reference_table(series_zeta4_pole_jets(n))

    @pytest.mark.parametrize("n", range(61))
    def test_series_identity_is_exact(self, n):
        # (-1)^(n+1)/6 sum_{t>=1} H_n'(t) = u_n zeta(4) - v_n, coefficient
        # by coefficient, with no tolerance
        parts = zeta4_decomposition(n)
        sign = Fraction((-1) ** (n + 1), 6)
        item = zeta4_pair(n)
        assert (parts.zeta[0], parts.zeta[1], parts.zeta[3]) == (0, 0, 0)
        assert sign * parts.zeta[2] == item.u
        assert sign * parts.rational == -item.v

    @pytest.mark.parametrize("n", range(25))
    def test_pole_orders(self, n):
        # every pole is of order 4 (B_0k != 0) except the middle pole of
        # even n, where 2t+n vanishes: B_0k = 0 and B_1k != 0
        table = zeta4_decomposition(n).B
        for k in range(n + 1):
            if 2 * k == n:
                assert table[0][k] == 0 and table[1][k] != 0
            else:
                assert table[0][k] != 0

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            zeta4_decomposition(-1)

    def test_antisymmetry_row_0_and_u_n_to_40(self):
        for n in range(41):
            assert zeta4_table_holds(n, pole_table("zeta4", n)), n

    @pytest.mark.parametrize("n", [5, 10])
    @pytest.mark.parametrize("change", ["B01+1", "B11 sign", "B21 sign"])
    def test_a_changed_table_fails(self, change, n):
        # row 1 is read by two statements, row 2 by the antisymmetry alone
        rows = [list(row) for row in pole_table("zeta4", n)]
        j = int(change[1])
        assert rows[j][1] != 0
        rows[j][1] = rows[j][1] + 1 if change.endswith("+1") else -rows[j][1]
        assert not zeta4_table_holds(n, rows)


class TestFactorRuns:
    @staticmethod
    def points(n: int) -> list[Fraction]:
        """Integers and halves from -2n-3 to n+3/2, which cover every pole
        and every root of both kernels."""
        return [Fraction(x, 2) for x in range(-4 * n - 6, 2 * n + 4)]

    @pytest.mark.parametrize("n", range(13))
    def test_values_equal_the_expanded_kernels(self, n):
        r, h = build_kernel(n).R, zeta4_inner(n)
        catalan, zeta4 = factor_runs("catalan", n), factor_runs("zeta4", n)
        for t in self.points(n):
            if r.den(t) != 0:
                assert catalan.value(t) == r(t), t
            if h.den(t) != 0:
                assert zeta4.value(t) == h(t), t

    @pytest.mark.parametrize("n", [0, 1, 4, 7, 12])
    def test_jets_equal_the_expanded_kernels(self, n):
        # the numerator's jet times the reciprocal of the denominator's
        for kernel, rational in [("catalan", build_kernel(n).R), ("zeta4", zeta4_inner(n))]:
            runs = factor_runs(kernel, n)
            num, den = rational.num, rational.den
            for t in self.points(n):
                if num(t) != 0 and den(t) != 0:
                    for order in range(1, 5):
                        expected = taylor_jet(num, t, order) * series_reciprocal(
                            taylor_jet(den, t, order)
                        )
                        jet = runs.jet(t, order)
                        assert jet.center == expected.center, (kernel, t, order)
                        assert jet.coeffs == expected.coeffs, (kernel, t, order)

    @pytest.mark.parametrize("n", [0, 1, 4, 7, 12])
    def test_log_derivatives_equal_the_quotient_rule(self, n):
        # K'/K from the order-2 jet
        for kernel, rational in [("catalan", build_kernel(n).R), ("zeta4", zeta4_inner(n))]:
            runs = factor_runs(kernel, n)
            num, den = rational.num, rational.den
            for t in self.points(n):
                if num(t) != 0 and den(t) != 0:
                    expected = derivative(num)(t) / num(t) - derivative(den)(t) / den(t)
                    value, slope = runs.jet(t, 2).coeffs
                    assert slope / value == expected, (kernel, t)

    @pytest.mark.parametrize("n", [0, 1, 4, 7, 12])
    def test_poles_are_the_table_columns(self, n):
        # column k of R_n's table is at -k-1/2, of H_n's at -k
        assert factor_runs("catalan", n).poles == tuple(
            Fraction(-(2 * k + 1), 2) for k in range(n + 1)
        )
        assert factor_runs("zeta4", n).poles == tuple(-k for k in range(n + 1))

    def test_tables_are_the_pole_tables(self):
        for n in (0, 1, 8):
            assert partial_fractions(n).A == pole_table("catalan", n)
            assert zeta4_decomposition(n).B == pole_table("zeta4", n)

    @pytest.mark.parametrize("change", ["multiplicity", "first root"])
    @pytest.mark.parametrize("run", range(4))
    @pytest.mark.parametrize(
        "kernel, reference", [("catalan", series_pole_jets), ("zeta4", series_zeta4_pole_jets)]
    )
    def test_a_changed_run_changes_the_table(self, monkeypatch, kernel, reference, run, change):
        n = 6
        expected = reference_table(reference(n))
        assert pole_table(kernel, n) == expected
        describe = KERNELS[kernel]

        def changed(m: int) -> FactorRuns:
            scale, runs = describe(m)
            first, length, mult = runs[run]
            runs = list(runs)
            if change == "multiplicity":
                runs[run] = (first, length, mult + 1)
            else:
                runs[run] = (first + 1, length, mult)
            return FactorRuns(scale, tuple(runs))

        monkeypatch.setitem(KERNELS, kernel, changed)
        assert pole_table(kernel, n) != expected

    def test_rejects_unknown_kernels_and_negative_indices(self):
        with pytest.raises(ValueError):
            factor_runs("apery", 3)
        with pytest.raises(ValueError):
            kernel_ratio("catalan", 0, dn=-1)
        with pytest.raises(ValueError):
            pole_table("catalan", -1)


class TestKernelRatios:
    #: (dn, dt) of the ratios in n and the ratio in t
    STEPS = [(1, 0), (-1, 0), (0, 1)]

    @pytest.mark.parametrize("n", [*range(13), 40])
    @pytest.mark.parametrize("kernel", ["catalan", "zeta4"])
    def test_ratios_are_quotients_of_values(self, kernel, n):
        # every root and pole of both kernels is an integer or a half
        points = [Fraction(1, 3), Fraction(-7, 5), Fraction(10**6 + 1, 7)]
        for dn, dt in self.STEPS:
            if n + dn < 0:
                continue
            ratio = kernel_ratio(kernel, n, dn=dn, dt=dt)
            top, bottom = factor_runs(kernel, n + dn), factor_runs(kernel, n)
            for t in points:
                assert ratio(t) == top.value(t + dt) / bottom.value(t), (dn, dt, t)

    @pytest.mark.parametrize("n", [*range(13), 40])
    @pytest.mark.parametrize("kernel", ["catalan", "zeta4"])
    def test_common_factors_are_cancelled(self, kernel, n):
        # at most the factors at the ends of the runs are left: degree at most
        # 9 (the zeta4 ratio in t), and no root shared by num and den
        for dn, dt in self.STEPS:
            if n + dn >= 0:
                ratio = kernel_ratio(kernel, n, dn=dn, dt=dt)
                assert max(len(ratio.num.ints), len(ratio.den.ints)) <= 10
                assert poly_gcd(ratio.num, ratio.den) == Polynomial.constant(1)

    @pytest.mark.parametrize("kernel", ["catalan", "zeta4"])
    def test_equals_the_walk_over_every_root(self, kernel):
        for n in range(1, 81):
            for dn, dt in self.STEPS:
                ratio = kernel_ratio(kernel, n, dn=dn, dt=dt)
                walked = kernel_ratio_by_walk(kernel, n, dn=dn, dt=dt)
                assert coefficients(ratio.num) == coefficients(walked.num), (n, dn, dt)
                assert coefficients(ratio.den) == coefficients(walked.den), (n, dn, dt)

    @pytest.mark.parametrize("kernel", ["catalan", "zeta4"])
    def test_roots_added_do_not_grow_with_n(self, kernel, monkeypatch):
        # a structural test: the ratio, and the number of root updates made
        # to build it, are the same at n = 50 and n = 5000
        class CountingCounter(Counter):
            updates = 0

            def __setitem__(self, key, value):
                CountingCounter.updates += 1
                super().__setitem__(key, value)

        monkeypatch.setattr(hypergeom, "Counter", CountingCounter)
        for dn, dt in self.STEPS:
            sizes = []
            for n in (50, 5000):
                CountingCounter.updates = 0
                ratio = kernel_ratio(kernel, n, dn=dn, dt=dt)
                roots = len(ratio.num.ints) + len(ratio.den.ints) - 2
                sizes.append((roots, CountingCounter.updates))
            assert sizes[0] == sizes[1], (dn, dt, sizes)
            assert 0 < sizes[0][0] <= 18

    @pytest.mark.parametrize("n", range(13))
    def test_catalan_ratios_are_quotients_of_kernels(self, n):
        # compared by cross-multiplication (RationalFunction.__eq__)
        r = build_kernel(n).R
        assert kernel_ratio("catalan", n, dn=1) == RationalFunction(
            build_kernel(n + 1).R.num * r.den, build_kernel(n + 1).R.den * r.num
        )
        if n > 0:
            assert kernel_ratio("catalan", n, dn=-1) == RationalFunction(
                build_kernel(n - 1).R.num * r.den, build_kernel(n - 1).R.den * r.num
            )
        shifted = r.shift(1)
        assert kernel_ratio("catalan", n, dt=1) == RationalFunction(
            shifted.num * r.den, shifted.den * r.num
        )


class TestQuadruple:
    def test_n0(self):
        q = coefficient_quadruple(0)
        assert (q.U, q.Uprime, q.Udoubleprime, q.V) == (0, 8, 0, 0)

    def test_n1(self):
        q = coefficient_quadruple(1)
        assert (q.U, q.Uprime, q.Udoubleprime, q.V) == (0, 14, 0, 13)

    def test_n2(self):
        q = coefficient_quadruple(2)
        assert (q.U, q.Uprime, q.Udoubleprime, q.V) == (
            0,
            Fraction(649, 8),
            0,
            Fraction(10699, 144),
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 30])
    def test_one_pass_v_matches_the_partial_sum_route(self, n):
        # V = sum_j 2^(3-j) sum_k (-1)^k A_jk beta_partial_sum(k, 3-j)
        table = partial_fractions(n)
        v = sum(
            2 ** (3 - j) * (-1) ** k * table.A[j][k] * beta_partial_sum(k, 3 - j)
            for j in range(3)
            for k in range(n + 1)
        )
        assert coefficient_quadruple(n).V == v

    def test_u_and_udoubleprime_vanish_to_twenty(self):
        for n in range(21):
            q = coefficient_quadruple(n)
            assert q.U == 0 and q.Udoubleprime == 0

    def test_cross_path_consistency_with_recurrence(self):
        # the table route and the recurrence route agree: U' = 8u, V = 8v
        for n in range(21):
            q = coefficient_quadruple(n)
            item = catalan_pair(n)
            assert q.Uprime == 8 * item.u
            assert q.V == 8 * item.v

    def test_linear_form_denominator_inclusions_to_fifty(self):
        from aperylike.exact import lcm_upto

        for n in range(51):
            q = coefficient_quadruple(n)
            scale = 2 ** (4 * n)
            assert (scale * lcm_upto(n) * q.Uprime).denominator == 1
            assert (scale * lcm_upto(max(2 * n - 1, 0)) ** 3 * q.V).denominator == 1


class TestArithLemmas:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10])
    def test_window_checks_pass(self, n):
        assert check_arith_lemmas(n)

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("change", ["A01", "A12", "A2n", "residue"])
    def test_a_changed_input_fails(self, monkeypatch, change, n):
        # A_01 off by 2^-(4n+1), A_12 or A_2n by 1/1009 (a prime above n),
        # or one residue off by 1
        rows = [list(row) for row in partial_fractions(n).A]
        residues = q_residues(n)
        if change == "A01":
            rows[0][1] += Fraction(1, 2 ** (4 * n + 1))
        elif change == "A12":
            rows[1][2] += Fraction(1, 1009)
        elif change == "A2n":
            rows[2][n] += Fraction(1, 1009)
        else:
            residues[1] += 1
        table = PartialFractionTable(n, tuple(map(tuple, rows)))
        monkeypatch.setattr(hypergeom, "partial_fractions", lambda m: table)
        monkeypatch.setattr(hypergeom, "q_residues", lambda m: residues)
        assert not check_arith_lemmas(n)


class TestKernelSum:
    def test_n0_is_eight_catalan(self, catalan_200):
        value = f_numeric(0, 40)
        with mp.workdps(60):
            assert abs(value - 8 * catalan_200) < mp.mpf(10) ** -38

    def test_n1_matches_quadruple_form(self, catalan_200):
        value = f_numeric(1, 40)
        with mp.workdps(60):
            expected = 14 * catalan_200 - 13
            assert abs(value - expected) < mp.mpf(10) ** -38

    @pytest.mark.parametrize("n", [20, 40])
    def test_deep_kernel_sums_within_the_target(self, n):
        # F_n = U'_n G - V_n, about 10^-(n+1); 50 digits leave 10^-55 absolute
        value = f_numeric(n, 50)
        quad = coefficient_quadruple(n)
        with mp.workdps(320):
            expected = mpf_frac(quad.Uprime) * mp.catalan - mpf_frac(quad.V)
            assert abs(expected) > mp.mpf(10) ** -45
            assert abs(value - expected) < mp.mpf(10) ** -55

    def test_signs_alternate_to_ten(self):
        for n in range(11):
            value = f_numeric(n, 25)
            assert (value > 0) == (n % 2 == 0), n

    @pytest.mark.parametrize("n", range(5))
    def test_integer_scaled_kernel_keeps_its_values(self, n):
        # one common scale keeps num/den, so the integer lists evaluate R_n
        r = build_kernel(n).R
        [num, den], _ = integer_coefficients(r.num, r.den)
        for t in range(6):
            assert Fraction(horner_int(num, t), horner_int(den, t)) == r(t)

    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            f_numeric(-1, 10)
        with pytest.raises(ValueError):
            f_numeric(0, 0)
