"""Recurrence families: exact generation, integrality, measured rates."""

import math
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mp

from aperylike import sequences
from aperylike.exact import horner_int
from aperylike.sequences import (
    RECURRENCES,
    _CATALAN_P,
    _carried,
    _scaled_pairs,
    _values,
    asymptotic_report,
    catalan_pair,
    check_inclusions,
    recurrence_coefficients,
    zeta4_pair,
)
from tests.conftest import mpf_frac, stepped_pairs


def recurrence_residual(family, n):
    """lead x_{n+1} - mid x_n - back x_{n-1} for the package's u and v at
    n >= 1; both must be the exact zero."""
    (u0, v0), (u1, v1), (u2, v2) = (_values(family, m) for m in (n - 1, n, n + 1))
    lead, mid, back = recurrence_coefficients(family, n)
    return lead * u2 - mid * u1 - back * u0, lead * v2 - mid * v1 - back * v0


@pytest.fixture
def cold_memo(monkeypatch):
    """Give both families a memo holding only their initial rows, and
    `check_inclusions` no carry; all are put back afterwards."""
    for family in RECURRENCES:
        monkeypatch.setitem(sequences._pairs, family, sequences._pairs[family][:2])
    monkeypatch.setattr(sequences, "_carries", {})


def over(rows, scale):
    """Integer pairs over a common scale as pairs of Fractions."""
    return tuple(tuple(Fraction(x, scale) for x in pair) for pair in rows)


def consecutive(family, n):
    """The pairs at n-1 and n, from `_scaled_pairs`."""
    (current, previous), scale = _scaled_pairs(family, n)
    return over((previous, current), scale)


def twin_texts(family, n):
    """The decimal twins of memo row n as the text of (u_n, v_n); the memo
    must hold row n."""
    return tuple(map(sequences._text, sequences._pairs[family][n]))


def twos_and_odd(den):
    """(e, A) with den = 2^e A, A odd, for den > 0."""
    twos = (den & -den).bit_length() - 1
    return twos, den >> twos


def decimal_row(pair):
    """A memo row built from the exact pair (u, v): each value at factor 1,
    split by hand as P = q A + r over 2^e A, its twins read off by Decimal()."""
    row = []
    for x in pair:
        twos, odd = twos_and_odd(x.denominator)
        quotient, remainder = divmod(x.numerator, odd)
        texts = Decimal(x.numerator), Decimal(x.denominator)
        row.append(sequences._Cleared(quotient, remainder, odd, twos, *texts, factor=1))
    return tuple(row)


def terms(row):
    """(numerator, denominator) of each value of a memo row: (q A + r, 2^e A)."""
    return tuple((x.quotient * x.odd + x.remainder, x.odd << x.twos) for x in row)


def fraction_terms(pair):
    """(numerator, denominator) of each Fraction of a pair."""
    return tuple((x.numerator, x.denominator) for x in pair)


def reduced(num, den):
    """num/den (den > 0) as the deep `pair` reduces it: `_lowest_terms`, then
    a Fraction with no second gcd."""
    p, q, g = sequences._lowest_terms(num, den)
    assert (p * g, q * g) == (num, den)
    return sequences._coprime_fraction(p, q)


def step_reduced(num, den):
    """num/den (den > 0) as a step reduces it: split as P = q A + r over 2^e A
    for `_reduced`, whose result must keep the row invariants; the Fraction it
    stands for, and the divisor it took out."""
    twos, odd = twos_and_odd(den)
    *row, divisor = sequences._reduced(*divmod(num, odd), odd, twos)
    quotient, remainder, odd, twos = row
    assert_row_invariants(quotient, remainder, odd, twos)
    p, q = quotient * odd + remainder, odd << twos
    assert (p * divisor, q * divisor) == (num, den)
    return Fraction(p, q), divisor


def assert_row_invariants(quotient, remainder, odd, twos):
    """P / (2^e A) in lowest terms, P = q A + r: A odd, 0 <= r < A,
    gcd(r, A) = 1, and P odd when e > 0."""
    assert odd > 0 and odd % 2 == 1 and twos >= 0
    assert 0 <= remainder < odd and math.gcd(remainder, odd) == 1
    assert twos == 0 or (quotient * odd + remainder) % 2 == 1


def assert_twins(value, x=None):
    """A cleared value keeps the row invariants, its twins are P and 2^e A as
    decimal integers, and it is F x when x is given."""
    assert_row_invariants(value.quotient, value.remainder, value.odd, value.twos)
    num, den = value.quotient * value.odd + value.remainder, value.odd << value.twos
    twins = (value.num_text, value.den_text)
    assert twins == (Decimal(num), Decimal(den))
    assert all(twin.as_tuple().exponent == 0 for twin in twins)
    assert value.whole is (den == 1)
    if x is not None:
        assert Fraction(num, den) == value.factor * x


class TestCoefficientPolynomials:
    # p, q and r enter the recurrences as lead(n) = (2n+1)^2 (2n+2)^2 p(n)
    # and mid(n) = q(n) (catalan), and mid(n) = r(n) (zeta4).

    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 13), (2, 65)])
    def test_catalan_p(self, n, expected):
        lead = recurrence_coefficients("catalan", n)[0]
        assert lead == (2 * n + 1) ** 2 * (2 * n + 2) ** 2 * expected

    @pytest.mark.parametrize("n,expected", [(0, 7), (1, 10699), (-1, 171)])
    def test_catalan_q(self, n, expected):
        assert recurrence_coefficients("catalan", n)[1] == expected

    @pytest.mark.parametrize("n,expected", [(0, 12), (1, 2142)])
    def test_zeta4_r(self, n, expected):
        assert recurrence_coefficients("zeta4", n)[1] == expected

    def test_zeta4_r_factored_form(self):
        for n in range(51):
            factored = 3 * (2 * n + 1) * (3 * n**2 + 3 * n + 1) * (15 * n**2 + 15 * n + 4)
            assert recurrence_coefficients("zeta4", n)[1] == factored

    @pytest.mark.parametrize(
        "n", [0, 7, -3, 1921, Fraction(1, 2), Fraction(-7, 3)], ids=str
    )
    def test_values_and_type_at_integer_and_rational_n(self, n):
        # the expanded forms, in Fraction; the coefficients are ints at integer n
        x = Fraction(n)

        def p(y):
            return 20 * y**2 - 8 * y + 1

        q = 3520 * x**6 + 5632 * x**5 + 2064 * x**4 - 384 * x**3 - 156 * x**2 + 16 * x + 7
        r = 270 * x**5 + 675 * x**4 + 702 * x**3 + 378 * x**2 + 105 * x + 12
        expected = {
            "catalan": (
                (2 * x + 1) ** 2 * (2 * x + 2) ** 2 * p(x),
                q,
                (2 * x - 1) ** 2 * (2 * x) ** 2 * p(x + 1),
            ),
            "zeta4": ((x + 1) ** 5, r, 3 * x**3 * (3 * x - 1) * (3 * x + 1)),
        }
        for family, values in expected.items():
            result = recurrence_coefficients(family, n)
            assert result == values
            if isinstance(n, int):
                assert all(type(c) is int for c in result)

    def test_catalan_p_has_no_integer_roots(self):
        # negative discriminant b^2 - 4ac = 64 - 80: p has no real roots, so
        # the catalan lead, the divisor of each one-leaf product M_k that
        # _matrix_product asserts positive, never vanishes
        c, b, a = _CATALAN_P
        assert b * b - 4 * a * c == 8**2 - 80 < 0
        for n in range(-50, 51):
            assert horner_int(_CATALAN_P, n) != 0


class TestRecurrenceTable:
    # The closed forms are written out here independently of the package's
    # table.  Stepping, the residual and the continued fractions all read that
    # table, so their agreement with each other cannot catch a transcription
    # slip in it; this comparison can.
    CLOSED_FORMS = {
        "catalan": (
            lambda k: 4 * (k + 1) ** 2 * (2 * k + 1) ** 2 * (20 * k**2 - 8 * k + 1),
            lambda k: 3520 * k**6 + 5632 * k**5 + 2064 * k**4 - 384 * k**3
            - 156 * k**2 + 16 * k + 7,
            lambda k: 4 * k**2 * (2 * k - 1) ** 2 * (20 * k**2 + 32 * k + 13),
        ),
        "zeta4": (
            lambda k: k**5 + 5 * k**4 + 10 * k**3 + 10 * k**2 + 5 * k + 1,
            lambda k: 3 * (2 * k + 1) * (3 * k**2 + 3 * k + 1) * (15 * k**2 + 15 * k + 4),
            lambda k: 27 * k**5 - 3 * k**3,
        ),
    }

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_coefficients_match_closed_forms(self, family):
        lead, mid, back = self.CLOSED_FORMS[family]
        for k in range(-2, 61):
            assert recurrence_coefficients(family, k) == (lead(k), mid(k), back(k))


class TestPairs:
    def test_catalan_initial_data(self):
        assert (catalan_pair(0).u, catalan_pair(0).v) == (1, 0)
        assert (catalan_pair(1).u, catalan_pair(1).v) == (
            Fraction(7, 4),
            Fraction(13, 8),
        )

    def test_catalan_first_step(self):
        item = catalan_pair(2)
        assert item.u == Fraction(649, 64)
        assert item.v == Fraction(10699, 1152)

    def test_zeta4_initial_data(self):
        assert (zeta4_pair(0).u, zeta4_pair(0).v) == (1, 0)
        assert (zeta4_pair(1).u, zeta4_pair(1).v) == (12, 13)

    def test_zeta4_first_step(self):
        item = zeta4_pair(2)
        assert item.u == 804
        assert item.v == Fraction(13923, 16)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            catalan_pair(-1)

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_recurrence_residual_exactly_zero(self, family):
        for n in range(1, 301):
            assert recurrence_residual(family, n) == (0, 0)

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_positivity(self, family):
        for n in range(0, 200):
            item = sequences.pair(family, n)
            assert item.u > 0
            assert item.v > 0 or (n == 0 and item.v == 0)

    def test_ratio_envelopes(self):
        for n in range(1, 120):
            c = catalan_pair(n)
            assert 0 < c.v / c.u < 1
            z = zeta4_pair(n)
            assert 1 < z.v / z.u < 2

    def test_bracketing_alternates_around_catalan(self, catalan_200):
        # the sign of v_n/u_n - G flips with n
        with mp.workdps(160):
            signs = []
            for n in range(1, 51):
                item = catalan_pair(n)
                signs.append(1 if mpf_frac(item.v / item.u) - catalan_200 > 0 else -1)
        assert all(a == -b for a, b in zip(signs, signs[1:]))


class TestStep:
    """The deep pair's reduction, the memo step's gcd and the memo's stepped
    rows against plain Fraction arithmetic."""

    CASES = {
        "zero": [(0, 1), (0, 3), (0, 2**40), (0, 2**9 * 15)],
        "negative": [(-6, 4), (-7, 8), (-(3**50), 3 * 2**200), (-14, 21)],
        "powers of 2": [(2**10, 2**4), (2**4, 2**10), (2**300, 2**300), (-(2**64), 8), (1, 2**4000)],
        "odd denominator": [(10, 3), (5**40 * 4, 5**20 * 7), (-(2**90), 3**70), (9, 1)],
        "both even": [(12, 18), (3 * 2**100, 9 * 2**50), (-15 * 2**7, 35 * 2**9), (6, 2**4001)],
    }

    @pytest.mark.parametrize("kind", CASES)
    def test_reduction_equals_the_fraction(self, kind):
        for num, den in self.CASES[kind]:
            got, want = reduced(num, den), Fraction(num, den)
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            assert step_reduced(num, den) == (want, math.gcd(num, den))

    def test_reduction_on_random_pairs(self):
        rng = random.Random(2)
        for _ in range(3000):
            num = rng.randint(-(10**30), 10**30) << rng.randint(0, 90)
            den = rng.randint(1, 10**20) << rng.randint(0, 90)
            got, want = reduced(num, den), Fraction(num, den)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            assert step_reduced(num, den) == (want, math.gcd(num, den))

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_memo_equals_the_fraction_step_to_1200(self, family, cold_memo):
        reference = stepped_pairs(family, 1200)
        for n in range(1201):
            item = sequences.pair(family, n)
            assert fraction_terms((item.u, item.v)) == fraction_terms(reference[n]), n
        memo = sequences._pairs[family]
        assert len(memo) == 1201
        for n, (got, want) in enumerate(zip(memo, reference)):
            assert terms(got) == fraction_terms(want), n
            assert [x.factor for x in got] == [1, 1], n
            for value in got:
                assert_row_invariants(value.quotient, value.remainder, value.odd, value.twos)

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_no_gcd_operand_is_wider_than_the_odd_denominators_times_the_lead(
        self, family, cold_memo, monkeypatch
    ):
        # each step's one gcd reads r < A' = lcm(A_k, A_{k-1}) D_o, D_o the
        # lead's odd part: never the numerator, and under half the widest one
        operands = []
        original = sequences._reduced

        def counted(quotient, remainder, odd, twos):
            operands.append((remainder, odd, quotient * odd + remainder))
            return original(quotient, remainder, odd, twos)

        monkeypatch.setattr(sequences, "_reduced", counted)
        sequences.row_texts(family, 1000)
        reference = stepped_pairs(family, 1000)
        assert len(operands) == 2 * 999
        for i, (remainder, odd, num) in enumerate(operands):
            k, which = 1 + i // 2, i % 2
            lead = recurrence_coefficients(family, k)[0]
            odds = (twos_and_odd(reference[m][which].denominator)[1] for m in (k - 1, k))
            assert 0 <= remainder < odd <= math.lcm(*odds) * twos_and_odd(lead)[1], (k, which)
        widest = max(odd.bit_length() for _, odd, _ in operands)
        assert 2 * widest < max(num.bit_length() for _, _, num in operands)


class TestProductTree:
    INDICES = (2, 3, 10, 1000)

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_equals_stepping_from_a_cold_memo(self, family, cold_memo):
        reference = stepped_pairs(family, max(self.INDICES))
        for n in self.INDICES:
            assert consecutive(family, n) == (reference[n - 1], reference[n])
            assert _values(family, n) == reference[n]

    # inside a memo walked to 300: its first rows, its last rows and past it
    WALKED_INDICES = (2, 250, 251, 400)

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_same_rows_and_scale_after_a_walk_to_300(self, family, cold_memo):
        # the trees start at the initial rows, so the integers and their
        # scale depend on (family, n) alone, not on how far the memo reaches
        def scaled(n):
            return _scaled_pairs(family, n), _scaled_pairs(family, n, top=True)

        reference = stepped_pairs(family, max(self.WALKED_INDICES))
        cold = [scaled(n) for n in self.WALKED_INDICES]
        sequences.row_texts(family, 300)
        assert len(sequences._pairs[family]) == 301
        for n, before in zip(self.WALKED_INDICES, cold):
            assert scaled(n) == before, n
            assert consecutive(family, n) == (reference[n - 1], reference[n]), n
            assert _values(family, n) == reference[n], n

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_deep_index_is_not_stored(self, family, cold_memo):
        for n in range(5):
            _values(family, n)
        _values(family, 400)
        _scaled_pairs(family, 401)
        assert len(sequences._pairs[family]) == 5
        # the index just past the end is still one step, and is stored
        _values(family, 5)
        assert len(sequences._pairs[family]) == 6

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_residual_from_three_trees(self, family, cold_memo):
        # n-1, n and n+1 are each past the memo's end: three product trees
        assert recurrence_residual(family, 1500) == (0, 0)
        assert len(sequences._pairs[family]) == 2

    def test_threads_streaming_and_jumping_keep_the_memo_exact(self, cold_memo):
        # each thread walks n upwards (appending) and jumps ahead (storing
        # nothing); a step appended twice would shift every later entry
        reference = stepped_pairs("zeta4", 400)
        errors = []

        def worker(offset):
            try:
                for n in range(200):
                    assert _values("zeta4", n) == reference[n]
                    if n % 25 == offset:
                        ahead = n + 150 + offset
                        assert _values("zeta4", ahead) == reference[ahead]
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        # the jump from n = 50 to 200 appends one step when another thread
        # has already walked the memo to 200 entries
        memo = sequences._pairs["zeta4"]
        assert len(memo) in (200, 201)
        assert [terms(row) for row in memo] == [fraction_terms(p) for p in reference[: len(memo)]]
        for n in range(len(memo)):
            assert twin_texts("zeta4", n) == tuple(map(str, reference[n])), n

    def test_rejects_index_below_one(self):
        with pytest.raises(ValueError):
            _scaled_pairs("catalan", 0)

    # (m, n): one-leaf spans, spans from m = 1, and a long span
    SPANS = ((1, 2), (2, 3), (7, 8), (999, 1000), (1, 3), (1, 60), (30, 47), (7, 1000))

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_advance_equals_stepping(self, family):
        # one tree carries the pairs at m and m-1, over the lcm of their
        # denominators, to n and n-1 over that times the leads; one leaf
        # after another does too
        reference = stepped_pairs(family, 1000)
        for m, n in self.SPANS:
            scale = math.lcm(*(x.denominator for k in (m - 1, m) for x in reference[k]))
            start = tuple(tuple(int(x * scale) for x in reference[k]) for k in (m, m - 1))
            rows, divisor = _carried(family, m, n, start)
            assert over(rows, divisor * scale) == (reference[n], reference[n - 1]), (m, n)
            top, top_divisor = _carried(family, m, n, start, top=True)
            assert over(top, top_divisor) == over(rows[:1], divisor), (m, n)
            rows = start
            for k in range(m, n):
                rows, lead = _carried(family, k, k + 1, rows)
                scale *= lead
            assert over(rows, scale) == (reference[n], reference[n - 1]), (m, n)

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_advance_leaves_the_memo_as_it_is(self, family, cold_memo):
        for n in range(9):
            _values(family, n)
        memo = sequences._pairs[family]
        before = list(memo)
        # inside the memo, at its last row, one past it and far past it
        for n in (1, 5, 8, 9, 10, 300):
            rows, _ = _scaled_pairs(family, n)
            _carried(family, n, n + 1, rows)
            _scaled_pairs(family, n, top=True)
        assert sequences._pairs[family] is memo
        assert len(memo) == len(before) and all(a is b for a, b in zip(memo, before))

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_scaled_pairs_and_one_step_equal_stepping_to_400(self, family):
        reference = stepped_pairs(family, 401)
        memo = sequences._pairs[family]
        before = list(memo)
        for n in range(1, 401):
            rows, scale = _scaled_pairs(family, n)
            assert scale > 0 and over(rows, scale) == (reference[n], reference[n - 1]), n
            top, top_scale = _scaled_pairs(family, n, top=True)
            assert over(top, top_scale) == over(rows[:1], scale), n
            stepped, lead = _carried(family, n, n + 1, rows)
            assert lead == recurrence_coefficients(family, n)[0]
            assert over(stepped, lead * scale) == (reference[n + 1], reference[n]), n
        assert sequences._pairs[family] is memo
        assert len(memo) == len(before) and all(a is b for a, b in zip(memo, before))

    # (lo, hi): the longest leaf run, one node over two leaf runs, deeper
    # trees, an odd offset and the span of `digits --constant catalan --digits 4000`
    NODE_SPANS = ((1, 9), (1, 10), (1, 17), (30, 47), (500, 1012), (1, 1921))

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_tree_nodes_carry_no_content(self, family):
        for lo, hi in self.NODE_SPANS:
            # M_{hi-1} ... M_lo and lead_lo ... lead_{hi-1}, one leaf at a time
            (a, b), (c, d), leads = (1, 0), (0, 1), 1
            for k in range(lo, hi):
                lead, mid, back = recurrence_coefficients(family, k)
                (a, b), (c, d) = (mid * a + back * c, mid * b + back * d), (lead * a, lead * b)
                leads *= lead
            product = over(((a, b), (c, d)), leads)
            for top in (False, True):
                rows, divisor = sequences._matrix_product(family, lo, hi, top)
                if hi - lo <= 8:  # a leaf run keeps the product of the leads
                    assert (rows, divisor) == (((a, b), (c, d))[: len(rows)], leads)
                else:
                    content = math.gcd(divisor, *(x for row in rows for x in row))
                    assert content == 1, (lo, hi, top)
                assert over(rows, divisor) == product[: len(rows)], (lo, hi, top)

    def test_deep_scales_are_near_the_clearing_factors(self):
        # over the product of the leads they would have 125,078 and 51,371 bits
        assert _scaled_pairs("catalan", 1921)[1].bit_length() < 25_000
        assert _scaled_pairs("zeta4", 1173)[1].bit_length() < 8_000


class TestNoReduction:
    """Deep paths read the unreduced integers of one product tree: values
    are not reduced; tree nodes lose their content.  Only a pair forms
    Fractions, a deep one by reducing once per value."""

    @pytest.fixture
    def reductions(self, monkeypatch, cold_memo):
        """The Fractions the package forms, from a cold memo."""
        calls = []
        original = sequences._coprime_fraction

        def counted(num, den):
            calls.append((num, den))
            return original(num, den)

        monkeypatch.setattr(sequences, "_coprime_fraction", counted)
        return calls

    def test_digits_linear_form_and_cf_reduce_nothing(self, reductions, capsys):
        from aperylike import analytic, cli

        analytic.catalan_digits(600)
        analytic.zeta4_digits(600)
        analytic.linear_form("catalan", 300, 20)
        analytic.linear_form("zeta4", 200, 20)
        sequences.asymptotic_report("catalan", 150, 10)
        analytic.cf_convergent("catalan", 250)
        assert cli.run(["cf", "--family", "zeta4", "--n", "300"]).status == "ok"
        assert cli.run(["digits", "--constant", "catalan", "--digits", "300"]).status == "ok"
        capsys.readouterr()
        assert reductions == []

    def test_one_content_gcd_per_internal_node(self, monkeypatch, capsys):
        from aperylike import analytic, cli

        nodes, gcds = [], []
        matrix_product, content_free = sequences._matrix_product, sequences._content_free

        def counted_product(family, lo, hi, top=False):
            if hi - lo > 8:
                nodes.append((family, lo, hi, top))
            return matrix_product(family, lo, hi, top)

        def counted_gcd(rows, divisor):
            gcds.append(divisor)
            return content_free(rows, divisor)

        monkeypatch.setattr(sequences, "_matrix_product", counted_product)
        monkeypatch.setattr(sequences, "_content_free", counted_gcd)
        analytic.catalan_digits(600)
        sequences.asymptotic_report("catalan", 150, 10)
        assert cli.run(["cf", "--family", "catalan", "--n", "300"]).status == "ok"
        capsys.readouterr()
        assert nodes and len(gcds) == len(nodes)

    def test_check_reduces_nothing_and_stores_no_row(self, reductions, monkeypatch, capsys):
        from aperylike import cli

        gcds = []
        original = sequences._reduced

        def counted(quotient, remainder, odd, twos):
            gcds.append((remainder, odd))
            return original(quotient, remainder, odd, twos)

        monkeypatch.setattr(sequences, "_reduced", counted)
        for family in RECURRENCES:
            for mode in sequences.MODES:
                argv = ["check", "--family", family, "--n-max", "1000", "--mode", mode]
                assert cli.run(argv).status == "ok"
                capsys.readouterr()
            assert check_inclusions(family, 1500, "strong").ok
            assert len(sequences._pairs[family]) == 2
        # each step's gcd is against its lead's odd part: no full-width gcd
        assert reductions == [] and gcds
        assert max(x.bit_length() for operands in gcds for x in operands) < 128

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_a_deep_pair_reduces_twice(self, reductions, family):
        item = sequences.pair(family, 500)
        assert len(reductions) == 2
        assert (item.u, item.v) == stepped_pairs(family, 500)[500]


class TestDecimalTwins:
    """The decimal twins that range prints from memo rows and check from its
    carry."""

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_equal_str_of_every_row_to_1200(self, family, cold_memo, no_int_str_limit):
        for n in range(1201):
            item = sequences.pair(family, n)
            texts = (str(item.u), str(item.v))
            assert twin_texts(family, n) == texts, n
            assert sequences.row_texts(family, n) == texts, n
        # the last rows are past the 4,300-digit limit on int->str
        assert max(len(text) for text in texts) > 4300

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_memo_twins_are_the_decimals_of_num_and_den_to_1200(self, family, cold_memo):
        sequences.row_texts(family, 1200)
        memo = sequences._pairs[family]
        assert len(memo) == 1201
        for n, row in enumerate(memo):
            for value in row:
                assert_twins(value)
                assert value.factor == 1, n

    # the carry: a walk, a jump (a restart), steps again, and a restart backwards
    CARRY_WALK = (*range(41), *range(200, 301), 120, 121)

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    @pytest.mark.parametrize("mode", ["proved", "strong"])
    @pytest.mark.parametrize("ones", [False, True], ids=["clearing", "ones-at-odd-n"])
    def test_carry_twins_are_the_decimals_of_num_and_den(
        self, monkeypatch, family, mode, ones, cold_memo
    ):
        # with the factors replaced by 1 at odd n, those rows fail: den > 1
        clearing = sequences._clearing_factors

        def factors(fam, n, m):
            return (1, 1) if ones and n % 2 else clearing(fam, n, m)

        monkeypatch.setattr(sequences, "_clearing_factors", factors)
        dens = set()
        for n in self.CARRY_WALK:
            check_inclusions(family, n, mode)
            last, cur, prev = sequences._carries[family, mode]
            assert last == n and tuple(x.factor for x in cur) == factors(family, n, mode)
            for value in (*cur, *(prev or ())):
                assert_twins(value)
                dens.add(value.odd << value.twos)
        assert (dens == {1}) is not ones
        assert len(sequences._pairs[family]) == 2

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    @pytest.mark.parametrize("mode", ["proved", "strong"])
    def test_witness_texts_equal_str_to_600(self, family, mode, cold_memo):
        for n in range(601):
            report = check_inclusions(family, n, mode)
            assert report.ok, n
            assert sequences.witness_texts(report) == (
                str(report.witness_u),
                str(report.witness_v),
            ), n

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_failing_witnesses_print_empty(self, monkeypatch, family, cold_memo):
        # at odd n the factors are replaced by 1, so that those rows fail
        clearing = sequences._clearing_factors

        def factors(fam, n, m):
            return clearing(fam, n, m) if n % 2 == 0 else (1, 1)

        monkeypatch.setattr(sequences, "_clearing_factors", factors)
        failed = 0
        for n in range(81):
            report = check_inclusions(family, n, "strong")
            witnesses = (report.witness_u, report.witness_v)
            expected = tuple("" if w is None else str(w) for w in witnesses)
            assert sequences.witness_texts(report) == expected, n
            failed += "" in expected
        assert failed > 0

    def test_row_texts_reject_an_unknown_family_or_a_negative_index(self):
        with pytest.raises(ValueError):
            sequences.row_texts("pi", 3)
        with pytest.raises(ValueError):
            sequences.row_texts("zeta4", -1)

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_a_memo_replaced_by_equal_rows_prints_from_its_own_rows(
        self, monkeypatch, family, cold_memo
    ):
        for n in range(30):
            _values(family, n)
        # equal rows that are other objects, and the rows stepped from them
        replaced = [decimal_row(pair) for pair in stepped_pairs(family, 29)]
        monkeypatch.setitem(sequences._pairs, family, replaced[:])
        for n in range(60):
            item = sequences.pair(family, n)
            assert sequences.row_texts(family, n) == (str(item.u), str(item.v)), n
            report = check_inclusions(family, n, "proved")
            assert sequences.witness_texts(report) == (
                str(report.witness_u),
                str(report.witness_v),
            ), n
        memo = sequences._pairs[family]
        assert len(memo) == 60 and all(memo[n] is row for n, row in enumerate(replaced))

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_a_memo_put_back_to_its_initial_rows_grows_twins_again(
        self, monkeypatch, family, cold_memo
    ):
        for n in range(40):
            _values(family, n)
        # the dropped rows are stepped again
        monkeypatch.setitem(sequences._pairs, family, sequences._pairs[family][:2])
        for n in range(30):
            item = sequences.pair(family, n)
            assert twin_texts(family, n) == (str(item.u), str(item.v)), n
        assert len(sequences._pairs[family]) == 30

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_a_jumped_index_prints_by_walking_the_memo(self, family, cold_memo):
        for n in range(10):
            _values(family, n)
        item = sequences.pair(family, 300)
        report = check_inclusions(family, 300, "strong")
        _scaled_pairs(family, 301)
        # the jumps store nothing; printing row 300 walks the memo up to it
        assert len(sequences._pairs[family]) == 10
        assert sequences.row_texts(family, 300) == (str(item.u), str(item.v))
        assert len(sequences._pairs[family]) == 301
        assert sequences.witness_texts(report) == (str(report.witness_u), str(report.witness_v))


def casoratian(family, n):
    """u_n v_{n+1} - u_{n+1} v_n."""
    (u_n, v_n), (u_next, v_next) = consecutive(family, n + 1)
    return u_n * v_next - u_next * v_n


class TestCasoratian:
    # Closed forms of W_n = u_n v_{n+1} - u_{n+1} v_n: the recurrence gives
    # W_n = -(back_n / lead_n) W_{n-1}, and the product telescopes.

    @staticmethod
    def catalan_closed_form(n):
        return Fraction(
            (-1) ** n * (20 * (n + 1) ** 2 - 8 * (n + 1) + 1),
            2 * (2 * n + 1) ** 2 * (2 * n + 2) ** 2,
        )

    @staticmethod
    def zeta4_closed_form(n):
        product = math.prod(
            Fraction(3 * k**3 * (9 * k**2 - 1), (k + 1) ** 5) for k in range(1, n + 1)
        )
        return 13 * (-1) ** n * product

    def test_catalan_below_forty(self):
        for n in range(40):
            assert casoratian("catalan", n) == self.catalan_closed_form(n)

    def test_catalan_at_1500(self, cold_memo):
        assert casoratian("catalan", 1500) == self.catalan_closed_form(1500)

    def test_zeta4_below_sixty(self):
        for n in range(60):
            assert casoratian("zeta4", n) == self.zeta4_closed_form(n)


class TestInclusions:
    def test_catalan_proved_at_zero(self):
        report = check_inclusions("catalan", 0, "proved")
        assert report.ok and report.witness_u == 8 and report.witness_v == 0

    def test_catalan_strong_witnesses(self):
        report = check_inclusions("catalan", 2, "strong")
        assert report.ok
        assert report.witness_u == 2596
        assert report.witness_v == 85592

    def test_zeta4_strong_witnesses(self):
        report = check_inclusions("zeta4", 2, "strong")
        assert report.ok
        assert report.witness_u == 804
        assert report.witness_v == 13923

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    @pytest.mark.parametrize("mode", ["proved", "strong"])
    def test_sweep_to_sixty(self, family, mode):
        for n in range(61):
            assert check_inclusions(family, n, mode).ok, (family, mode, n)

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    @pytest.mark.parametrize("mode", ["proved", "strong"])
    def test_divmod_clearing_equals_the_fraction_route(self, monkeypatch, family, mode):
        # at odd n the factors are replaced by 1, so that some rows fail
        clearing = sequences._clearing_factors

        def factors(fam, n, m):
            return clearing(fam, n, m) if n % 2 == 0 else (1, 1)

        monkeypatch.setattr(sequences, "_clearing_factors", factors)
        failed = 0
        for n in range(201):
            report = check_inclusions(family, n, mode)
            cleared = [x * f for x, f in zip(sequences._values(family, n), factors(family, n, mode))]
            passes = [c.denominator == 1 for c in cleared]
            witnesses = [c.numerator if ok else None for c, ok in zip(cleared, passes)]
            assert [report.pass_u, report.pass_v] == passes, n
            assert [report.witness_u, report.witness_v] == witnesses, n
            failed += not report.ok
        assert failed > 0

    def test_bad_mode_rejected(self, monkeypatch):
        # before the pair, which at a deep index takes minutes to compute
        def unreachable(*args, **kwargs):
            raise AssertionError("the pair was computed before the mode was checked")

        monkeypatch.setattr(sequences, "_values", unreachable)
        monkeypatch.setattr(sequences, "_scaled_pairs", unreachable)
        monkeypatch.setattr(sequences, "_carries", {})
        with pytest.raises(ValueError, match="unknown mode"):
            check_inclusions("catalan", 200_000, "bogus")

    @pytest.mark.parametrize("mode", ["proved", "bogus"])
    def test_negative_index_rejected(self, mode):
        # the index is checked first, before the mode and any helper
        with pytest.raises(ValueError, match="sequence index must be nonnegative"):
            check_inclusions("catalan", -1, mode)

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            check_inclusions("zeta5", 1, "proved")


def cleared_reference(family, mode, n):
    """(pass_u, pass_v, witness_u, witness_v) of F x by the Fraction route,
    F = `_clearing_factors`, x from one Fraction step at a time."""
    factors = sequences._clearing_factors(family, n, mode)
    cleared = [x * f for x, f in zip(stepped_pairs(family, n)[n], factors)]
    passes = [c.denominator == 1 for c in cleared]
    return (*passes, *(c.numerator if ok else None for c, ok in zip(cleared, passes)))


def checked(family, mode, n):
    """The report's fields from pass_u on, and its witness texts."""
    report = check_inclusions(family, n, mode)
    return tuple(report[3:]), sequences.witness_texts(report)


def expected(family, mode, n):
    fields = cleared_reference(family, mode, n)
    return fields, tuple("" if w is None else str(w) for w in fields[2:])


KEYS = [(family, mode) for family in RECURRENCES for mode in sequences.MODES]


class TestCheckCarry:
    """`check_inclusions` steps the cleared values of its last two rows, or
    restarts them, in any order of calls: each report and its witness texts
    equal F x by the Fraction route."""

    @pytest.mark.parametrize("family, mode", KEYS)
    def test_ascending_from_a_cold_memo(self, family, mode, cold_memo):
        for n in range(401):
            assert checked(family, mode, n) == expected(family, mode, n), n
        assert len(sequences._pairs[family]) == 2

    @pytest.mark.parametrize("family, mode", KEYS)
    def test_carry_rows_keep_the_row_invariants_to_1000(self, family, mode, cold_memo):
        reference = stepped_pairs(family, 1000)
        for n in range(1001):
            check_inclusions(family, n, mode)
            last, cur, _ = sequences._carries[family, mode]
            assert last == n
            assert tuple(value.factor for value in cur) == sequences._clearing_factors(family, n, mode)
            for value, x in zip(cur, reference[n]):
                assert_twins(value, x)

    @pytest.mark.parametrize("family, mode", KEYS)
    def test_descending(self, family, mode, cold_memo):
        for n in range(400, -1, -1):
            assert checked(family, mode, n) == expected(family, mode, n), n

    @pytest.mark.parametrize("family, mode", KEYS)
    def test_a_jump_then_steps(self, family, mode, cold_memo):
        for n in (0, 300, 301, 302):
            assert checked(family, mode, n) == expected(family, mode, n), n

    @pytest.mark.parametrize("family, mode", KEYS)
    def test_a_jump_builds_one_tree(self, family, mode, cold_memo, monkeypatch):
        # the restart keeps rows n and n-1, so the step after it, a repeated
        # call and the witness texts build no second tree
        calls = []
        scaled_pairs = sequences._scaled_pairs

        def counted(family, n, top=False):
            calls.append(n)
            return scaled_pairs(family, n, top)

        monkeypatch.setattr(sequences, "_scaled_pairs", counted)
        first = checked(family, mode, 600)
        assert checked(family, mode, 600) == first == expected(family, mode, 600)
        assert checked(family, mode, 601) == expected(family, mode, 601)
        assert calls == [600]

    def test_keys_interleaved(self, cold_memo):
        for n in range(201):
            for family, mode in KEYS:
                assert checked(family, mode, n) == expected(family, mode, n), (family, mode, n)

    def test_within_a_long_memo(self, cold_memo):
        for n in range(300):
            sequences.pair("zeta4", n)
        for n in (299, 250, 251, 252, 0, 1, 2):
            assert checked("zeta4", "proved", n) == expected("zeta4", "proved", n), n

    def test_threads_match_a_sequential_run(self, cold_memo):
        # the main thread and a third thread stream one key, two threads
        # stream two others
        main, other, third = KEYS[0], KEYS[1], KEYS[3]
        keys = [other, third, main]
        n_max = 150
        sequential = {key: [checked(*key, n) for n in range(n_max + 1)] for key in KEYS}
        for key, rows in sequential.items():
            assert rows == [expected(*key, n) for n in range(n_max + 1)], key
        sequences._carries.clear()
        results = {}

        def stream(index, key):
            results[index] = [checked(*key, n) for n in range(n_max + 1)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=stream, args=item) for item in enumerate(keys)]
            for thread in threads:
                thread.start()
            stream(len(keys), main)
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index, key in enumerate(keys + [main]):
            assert results[index] == sequential[key], key


class TestAsymptotics:
    def test_smoke_small_n(self):
        rates = asymptotic_report("catalan", 2, 50)
        assert mp.isfinite(rates.rate_u) and mp.isfinite(rates.rate_form)

    def test_catalan_rates_at_500(self):
        rates = asymptotic_report("catalan", 500, 700)
        assert abs(rates.rate_u - 2.40605912) < 0.05
        assert abs(rates.rate_form - (-2.40605912)) < 0.05

    def test_zeta4_rates_converge(self):
        # the (log n)/n corrections shrink by half from n=300 to n=600
        r300 = asymptotic_report("zeta4", 300, 700)
        assert abs(r300.rate_u - 5.59879212) < 0.06
        assert abs(r300.rate_form - (-2.30295525)) < 0.06
        r600 = asymptotic_report("zeta4", 600, 700)
        assert abs(r600.rate_u - 5.59879212) < 0.035
        assert abs(r600.rate_form - (-2.30295525)) < 0.035

    @pytest.mark.parametrize(
        "family, n, digits",
        [
            ("catalan", 500, 700),
            ("zeta4", 300, 700),
            ("catalan", 2, 50),
            ("zeta4", 2, 50),
            ("catalan", 1000, 30),
        ],
    )
    def test_rates_right_to_the_reporting_precision(self, family, n, digits):
        # every reported digit counts, not only those left after cancellation
        rates = asymptotic_report(family, n, digits)
        u, v = stepped_pairs(family, n)[n]
        with mp.workdps(2500):
            constant = mp.catalan if family == "catalan" else mp.zeta(4)
            rate_u = mp.log(mpf_frac(u)) / n
            rate_form = mp.log(abs(mpf_frac(u) * constant - mpf_frac(v))) / n
            tolerance = mp.mpf(10) ** -(digits - 10)
            assert abs(rates.rate_form - rate_form) < tolerance
            assert abs(rates.rate_u - rate_u) < tolerance

    @pytest.mark.parametrize("family, n, digits", [("catalan", 300, 30), ("zeta4", 2, 50)])
    def test_steps_on_from_an_early_start(self, monkeypatch, family, n, digits):
        # an overstated rate starts N at n + 1, so the stop loop has to step
        # N on by single leaves until the convergent bracket is tight enough
        expected = asymptotic_report(family, n, digits)
        monkeypatch.setitem(sequences.DIGITS_PER_STEP, family, 60.0)
        steps = []
        carried = sequences._carried

        def counted(family, m, stop, rows, top=False):
            steps.append(stop - m)
            return carried(family, m, stop, rows, top)

        monkeypatch.setattr(sequences, "_carried", counted)
        assert asymptotic_report(family, n, digits) == expected
        assert steps[-1] == 1 and len(steps) > 5

    def test_rates_need_n_at_least_two(self):
        with pytest.raises(ValueError):
            asymptotic_report("catalan", 1, 50)

    @pytest.mark.parametrize(
        "family, n, digits",
        [("zeta5", 10, 30), ("catalan", -1, 30), ("zeta4", 0, 30), ("catalan", 10, 0)],
    )
    def test_bad_arguments_are_value_errors(self, family, n, digits):
        with pytest.raises(ValueError):
            asymptotic_report(family, n, digits)
