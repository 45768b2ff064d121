"""Exact core: polynomials, rational functions, series, lcm table."""

import math
import random
from fractions import Fraction

import pytest

from aperylike.exact import (
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    decimal_string,
    exponent_string,
    format_rational,
    integer_coefficients,
    lcm_upto,
    poly_gcd,
    round_dyadic,
    to_mpf,
)
from aperylike.hypergeom import build_kernel
from tests.conftest import (
    coefficients,
    naive_divmod,
    naive_product,
    naive_taylor,
    series_reciprocal,
    taylor_jet,
)


def random_fraction(rng, span=30):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def degree(p: Polynomial) -> int:
    """The degree; -1 for the zero polynomial."""
    return len(p.ints) - 1


def random_poly(rng, max_degree=8):
    return Polynomial([random_fraction(rng) for _ in range(rng.randint(0, max_degree + 1))])


class TestRationalInvariants:
    def test_always_reduced_with_positive_denominator(self):
        rng = random.Random(7)
        for _ in range(300):
            q = random_fraction(rng)
            assert q.denominator >= 1
            assert math.gcd(abs(q.numerator), q.denominator) == 1

    def test_field_axioms_on_random_triples(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c = (random_fraction(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == 0
            if a != 0:
                assert a * (1 / a) == 1

    def test_serialization_round_trip(self):
        for q in (Fraction(7, 4), Fraction(-13, 8), Fraction(12), Fraction(0)):
            assert Fraction(format_rational(q)) == q


class TestPolynomial:
    def test_canonical_no_trailing_zeros(self):
        assert coefficients(Polynomial([1, 2, 0, 0])) == (1, 2)
        assert not Polynomial([0, 0])
        assert coefficients(Polynomial()) == ()

    def test_from_roots_is_the_product_of_linear_factors(self):
        rng = random.Random(19)
        for _ in range(40):
            roots = [random_fraction(rng) for _ in range(rng.randint(0, 9))]
            scale = random_fraction(rng)
            expected = Polynomial.constant(scale)
            for r in roots:
                expected = expected * Polynomial.linear(r)
            assert Polynomial.from_roots(roots, scale) == expected
        assert Polynomial.from_roots(range(3)) == Polynomial([0, 2, -3, 1])

    def test_degree_additivity(self):
        rng = random.Random(23)
        for _ in range(100):
            f, g = random_poly(rng), random_poly(rng)
            if not f or not g:
                assert not f * g
            else:
                assert degree(f * g) == degree(f) + degree(g)

    def test_ring_identities(self):
        rng = random.Random(31)
        for _ in range(60):
            f, g, h = (random_poly(rng, 6) for _ in range(3))
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h

    def test_divmod_reconstructs(self):
        rng = random.Random(43)
        pairs = [(random_poly(rng, 8), random_poly(rng, 4)) for _ in range(60)]
        operands = kernel_operands()  # mixed denominators, negative leads
        pairs += [(f, g) for f in operands for g in operands[1::3]]
        for f, g in pairs:
            if not g:
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert not r or degree(r) < degree(g)

    def test_evaluation(self):
        assert Polynomial([1, -2, 3])(2) == 9  # 3t^2 - 2t + 1 at t = 2
        # integer Horner against Fraction Horner (the order-0 Taylor coefficient)
        rng = random.Random(13)
        points = [0, 1, -1, -5, Fraction(-7, 3), Fraction(1, 10**12 + 39)]
        points += [mixed_fraction(rng) for _ in range(12)]
        for f in kernel_operands():
            for x in points:
                value = f(x)
                assert type(value) is Fraction
                assert value == naive_taylor(coefficients(f), Fraction(x), 1)[0], (f, x)

    @pytest.mark.parametrize(
        "offset",
        [0, 1, Fraction(-7, 2), Fraction(5, 3)],
        ids=["0", "1", "-7over2", "5over3"],
    )
    @pytest.mark.parametrize(
        "f",
        [Polynomial(), Polynomial([Fraction(-4, 9)])]
        + [random_poly(random.Random(seed), 12) for seed in range(6)],
        ids=["zero", "constant"] + [f"random{seed}" for seed in range(6)],
    )
    def test_evaluation_and_shift(self, f, offset):
        shifted = f.shift(offset)  # f(t + offset)
        for x in (-3, 0, 2, Fraction(1, 2), Fraction(-11, 7)):
            assert shifted(x) == f(x + offset)
        assert shifted.shift(-offset) == f
        if offset == 0 or not f:
            assert shifted is f

    def test_gcd_of_products(self):
        rng = random.Random(59)
        for _ in range(40):
            f, g, h = (random_poly(rng, 4) for _ in range(3))
            if not f or not g or not h:
                continue
            left = f * h
            right = g * h
            d = poly_gcd(left, right)
            assert not divmod(left, d)[1] and not divmod(right, d)[1]
            assert degree(d) >= degree(h)  # at least the planted common factor

    def test_integer_coefficients_share_one_scale(self):
        half_plus_third_t = Polynomial([Fraction(1, 2), Fraction(1, 3)])
        lists, _ = integer_coefficients(half_plus_third_t, Polynomial([Fraction(1, 4)]))
        assert lists == [[6, 4], [3]]
        assert integer_coefficients(Polynomial())[0] == [[]]


def mixed_fraction(rng):
    """Numerator and denominator of either sign, denominators from 1 to 10^12."""
    den = rng.choice([1, rng.randint(2, 40), rng.randint(10**6, 10**12)])
    return Fraction(rng.randint(-(10**4), 10**4), rng.choice([-1, 1]) * den)


def mixed_poly(rng, max_degree=9):
    length = rng.randint(0, max_degree + 1)
    return Polynomial([mixed_fraction(rng) for _ in range(length)])


def kernel_operands():
    """Seeded random polynomials with mixed and negative denominators, plus
    the zero polynomial and constants."""
    rng = random.Random(2024)
    specials = [
        Polynomial(),
        Polynomial([Fraction(-4, 9)]),
        Polynomial([7]),
        Polynomial([0, 0, Fraction(3, -8)]),
    ]
    return specials + [mixed_poly(rng) for _ in range(24)]


def assert_reduced(values):
    """Every coefficient a reduced Fraction with a positive denominator."""
    for c in values:
        assert type(c) is Fraction
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


def assert_canonical(values):
    assert_reduced(values)
    assert not values or values[-1] != 0


class TestIntegerKernels:
    """The integer kernels against the plain Fraction loops in conftest."""

    def test_product_matches_reference(self):
        operands = kernel_operands()
        for f in operands:
            for g in operands[::3]:
                product = f * g
                assert list(coefficients(product)) == naive_product(coefficients(f), coefficients(g))
                assert_canonical(coefficients(product))

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "remainder"])
    def test_divmod_matches_reference(self, exact):
        rng = random.Random(97 + exact)
        divisors = [
            Polynomial([Fraction(-4, 9)]),
            Polynomial([Fraction(5, 2), Fraction(-7, 3)]),  # lead -7/3
            Polynomial([1, Fraction(-1, 6), Fraction(9, 10**9 + 7)]),
        ] + [mixed_poly(rng, 5) for _ in range(10)]
        for g in divisors:
            if not g:
                continue
            for f in kernel_operands()[::2]:
                dividend = f * g
                if not exact:
                    dividend = dividend + mixed_poly(rng, max(degree(g) - 1, 0))
                quotient, remainder = divmod(dividend, g)
                want_q, want_r = naive_divmod(coefficients(dividend), coefficients(g))
                assert list(coefficients(quotient)) == want_q
                assert list(coefficients(remainder)) == want_r
                assert_canonical(coefficients(quotient))
                assert_canonical(coefficients(remainder))
                if exact:
                    assert quotient == f and not remainder

    @pytest.mark.parametrize(
        "center",
        [0, 1, Fraction(-7, 2), Fraction(5, 3), Fraction(-1, 3)],
        ids=["0", "1", "-7over2", "5over3", "-1over3"],
    )
    def test_taylor_coefficients_match_reference(self, center):
        center = Fraction(center)
        for f in kernel_operands():
            # orders below, at and above degree + 1
            d = degree(f)
            for order in {1, 2, d, d + 1, d + 4} - {-1, 0}:
                jet = taylor_jet(f, center, order).coeffs
                assert list(jet) == naive_taylor(coefficients(f), center, order)
                assert_reduced(jet)
            shifted = f.shift(center)
            want = naive_taylor(coefficients(f), center, len(f.ints))
            assert list(coefficients(shifted)) == want
            assert_canonical(coefficients(shifted))

    def test_integer_coefficients_return_their_scale(self):
        f = Polynomial([Fraction(1, 2), Fraction(-1, 3)])
        g = Polynomial([Fraction(3, 4)])
        assert integer_coefficients(f, g) == ([[6, -4], [9]], 12)
        assert integer_coefficients(Polynomial()) == ([[]], 1)


def assert_stored_form(p: Polynomial):
    """Integers over one positive denominator in lowest terms, with a nonzero
    last entry; zero is ((), 1)."""
    assert type(p.ints) is tuple and all(type(c) is int for c in p.ints)
    assert type(p.den) is int and p.den > 0
    assert math.gcd(p.den, *p.ints) == 1
    assert p.ints[-1] != 0 if p.ints else p.den == 1


class TestStoredForm:
    """The integer representation: one stored form per polynomial, kept by
    every operation."""

    def test_every_operation_keeps_the_stored_form(self):
        operands = kernel_operands()
        rng = random.Random(5)
        for f in operands:
            assert_stored_form(f)
            assert_stored_form(f.shift(Fraction(-7, 3)))
            assert_stored_form(f.monic())
            for scalar in (0, -3, Fraction(-9, 4), Fraction(10**9 + 7, 6)):
                assert_stored_form(f * scalar)
            for g in operands[::5]:
                assert_stored_form(f + g)
                assert_stored_form(f * g)
                if g:
                    for part in divmod(f, g):
                        assert_stored_form(part)
        for _ in range(20):
            roots = [mixed_fraction(rng) for _ in range(rng.randint(0, 6))]
            assert_stored_form(Polynomial.from_roots(roots, mixed_fraction(rng)))
        assert (Polynomial([0, 0]).ints, Polynomial([0, 0]).den) == ((), 1)
        assert (Polynomial([Fraction(2, 6), Fraction(-1, 4)]).ints,
                Polynomial([Fraction(2, 6), Fraction(-1, 4)]).den) == ((4, -3), 12)

    def test_one_polynomial_built_four_ways(self):
        roots = [Fraction(1, 2), -3, Fraction(-5, 3), 0, Fraction(7, 4), Fraction(1, 2)]
        scale = Fraction(-6, 5)
        listed = [scale]
        for r in roots:
            listed = naive_product(listed, (-Fraction(r), Fraction(1)))
        built = [
            Polynomial(listed),
            Polynomial.from_roots(roots, scale),
            math.prod(map(Polynomial.linear, roots), start=Polynomial.constant(scale)),
        ]
        built += [built[0].shift(a).shift(-a) for a in (Fraction(5, 3), -2, Fraction(-1, 7))]
        for p in built:
            assert (p.ints, p.den) == (built[0].ints, built[0].den)
            assert p == built[0]
        # lead -6/5 over the lcm 40 of the coefficient denominators
        assert (built[0].den, built[0].ints[0], built[0].ints[-1]) == (40, 0, -48)


class TestRationalFunction:
    def test_pair_kept_as_given(self):
        t2_minus_1 = Polynomial([-1, 0, 1])
        t_minus_1 = Polynomial([-1, 1])
        f = RationalFunction(t2_minus_1, t_minus_1)  # (t^2-1)/(t-1)
        assert f.num == t2_minus_1 and f.den == t_minus_1
        assert f == Polynomial([1, 1])

    def test_equality_is_exact(self):
        r = build_kernel(4).R
        for i in range(len(r.num.ints)):
            coeffs = list(coefficients(r.num))
            coeffs[i] += 1
            assert RationalFunction(Polynomial(coeffs), r.den) != r
        with pytest.raises(TypeError):
            hash(RationalFunction(r.num, r.den))

    def test_cancellation_equality(self):
        t2_minus_1 = Polynomial([-1, 0, 1])
        t_minus_1 = Polynomial([-1, 1])
        assert RationalFunction(t2_minus_1, t_minus_1) == RationalFunction(
            Polynomial([1, 1])
        )

    def test_distinct_poles_not_equal(self):
        one_over_t = RationalFunction(Polynomial([1]), Polynomial([0, 1]))
        one_over_t1 = RationalFunction(Polynomial([1]), Polynomial([1, 1]))
        assert one_over_t != one_over_t1

    def test_field_arithmetic_matches_evaluation(self):
        rng = random.Random(67)
        for _ in range(30):
            f = RationalFunction(random_poly(rng, 4), Polynomial([1, 0, 1]))
            g = RationalFunction(random_poly(rng, 4), Polynomial([2, 1]))
            for x in (0, 1, Fraction(3, 2)):
                assert (f * g)(x) == f(x) * g(x)

    def test_shift_translates_values(self):
        f = RationalFunction(Polynomial([0, 2]), Polynomial([Fraction(1, 2), 1]))
        g = f.shift(1)
        for x in (0, 5):
            assert g(x) == f(x + 1)

    def test_evaluation_at_pole_raises(self):
        f = RationalFunction(Polynomial([1]), Polynomial([0, 1]))
        with pytest.raises(ZeroDivisionError):
            f(0)
        g = RationalFunction(Polynomial([1, 1]), Polynomial.from_roots([Fraction(-1, 2), 3]))
        for pole in (Fraction(-1, 2), 3):
            with pytest.raises(ZeroDivisionError):
                g(pole)
        assert g(1) == Fraction(-2, 3)  # 2 / ((3/2)(-2))
        assert g(Fraction(1, 2)) == Fraction(-3, 5)  # (3/2) / (1 (-5/2))


def jet(f, center, order):
    """Taylor jet of a rational function at a non-pole, as the quotient of
    the jets of its numerator and denominator."""
    num = taylor_jet(f.num, center, order)
    return num * series_reciprocal(taylor_jet(f.den, center, order))


class TestTruncatedSeries:
    # the jet references of tests/conftest.py, multiplied by the package's
    # TruncatedSeries
    def test_geometric_series(self):
        f = RationalFunction(Polynomial([1]), Polynomial([1, 1]))  # 1/(t+1)
        s = jet(f, 0, 3)
        assert list(s.coeffs) == [1, -1, 1]

    def test_binomial_shift(self):
        f = RationalFunction(Polynomial([0, 0, 1]))  # t^2
        s = jet(f, 1, 3)
        assert list(s.coeffs) == [1, 2, 1]

    def test_pole_cleared_kernel_value(self):
        # R_0(t) (t+1/2)^2 is the constant 2; its order-1 jet at -1/2 is [2].
        # The product keeps the pole in its pair, so divide it out exactly
        r0 = RationalFunction(
            Polynomial([2]), Polynomial([Fraction(1, 4), 1, 1])
        )
        product = r0 * RationalFunction(Polynomial([Fraction(1, 2), 1]) ** 2)
        quotient, remainder = divmod(product.num, product.den)
        assert not remainder
        s = jet(RationalFunction(quotient), Fraction(-1, 2), 1)
        assert list(s.coeffs) == [2]

    def test_pole_at_center_raises(self):
        f = RationalFunction(Polynomial([1]), Polynomial([0, 1]))
        with pytest.raises(ZeroDivisionError):
            jet(f, 0, 3)

    def test_truncation_coherence(self):
        rng = random.Random(71)
        for _ in range(30):
            num = random_poly(rng, 5)
            den = Polynomial([1, *(random_fraction(rng) for _ in range(3))][::-1])
            if den(Fraction(1, 3)) == 0:
                continue
            f = RationalFunction(num, den)
            long = jet(f, Fraction(1, 3), 7)
            short = jet(f, Fraction(1, 3), 4)
            assert long.coeffs[:4] == short.coeffs

    def test_reciprocal_inverts(self):
        s = TruncatedSeries(0, [Fraction(2), Fraction(1), Fraction(-3), Fraction(5)])
        product = s * series_reciprocal(s)
        assert list(product.coeffs) == [1, 0, 0, 0]

    def test_series_matches_derivatives(self):
        f = RationalFunction(Polynomial([1, 2, 1]), Polynomial([3, 1]))
        c = Fraction(1, 2)
        s = jet(f, c, 3)
        num, den = f.num, f.den
        num_prime, den_prime = Polynomial([2, 2]), Polynomial([1])
        value = f(c)
        # quotient-rule first derivative
        d1 = (num_prime(c) * den(c) - num(c) * den_prime(c)) / den(c) ** 2
        assert s.coeffs[:2] == (value, d1)


class TestLcmTable:
    def test_documented_values(self):
        assert lcm_upto(0) == 1
        assert lcm_upto(1) == 1
        assert lcm_upto(6) == 60

    def test_divisibility_up_to_200(self):
        for n in range(201):
            d = lcm_upto(n)
            for m in range(1, n + 1):
                assert d % m == 0

    def test_each_entry_divides_the_next(self):
        for n in range(1, 120):
            assert lcm_upto(n) % lcm_upto(n - 1) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lcm_upto(-1)


class TestEdgeCases:
    def test_series_order_must_be_positive(self):
        with pytest.raises(ValueError):
            TruncatedSeries(0, [])
        with pytest.raises(ValueError):
            taylor_jet(Polynomial([1, 1]), 0, 0)

    def test_negative_polynomial_power_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([1, 1]) ** -1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial([1]), Polynomial())

    def test_decimal_string_rejects_negative_places(self):
        with pytest.raises(ValueError):
            decimal_string(Fraction(1, 3), -1)

    def test_polynomial_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Polynomial([1, 1]), Polynomial())


class TestDecimalHelpers:
    def test_decimal_string_rounds_to_nearest(self):
        assert decimal_string(Fraction(1, 3), 4) == "0.3333"
        assert decimal_string(Fraction(2, 3), 4) == "0.6667"
        assert decimal_string(Fraction(-1, 8), 2) == "-0.12"  # ties to even
        assert decimal_string(Fraction(5, 2), 0) == "2"

    def test_to_mpf_round_trip_scale(self):
        x = to_mpf(Fraction(7, 4), 30)
        assert abs(x - 1.75) < 1e-25

    @staticmethod
    def half_ulp(q, digits):
        """Half the spacing of `digits`-digit mpmath floats at |q|: 2^(e - prec)
        for 2^e <= |q| < 2^(e+1)."""
        from mpmath import mp

        with mp.workdps(digits):
            prec = mp.prec
        num, den = abs(q.numerator), q.denominator
        e = num.bit_length() - den.bit_length()
        if Fraction(num, den) < Fraction(2) ** e:
            e -= 1
        return Fraction(2) ** (e - prec)

    @pytest.mark.parametrize("digits", [5, 30, 200])
    def test_to_mpf_rounds_once_to_nearest(self, digits):
        rng = random.Random(digits)
        values = [
            Fraction(rng.choice([-1, 1]) * rng.randrange(1, 2**bits), rng.randrange(1, 2**bits))
            for bits in (8, 40, 120, 900)
            for _ in range(50)
        ]
        # mpf(p) / mpf(q) at 5 digits rounds p, q and the quotient, and lands
        # more than half an ulp from this one
        values.append(Fraction(99760271522, 14806516449))
        for q in values:
            sign, man, exp, _ = to_mpf(q, digits)._mpf_
            rounded = (-1) ** sign * Fraction(man) * Fraction(2) ** exp
            assert abs(rounded - q) <= self.half_ulp(q, digits), q

    def test_three_roundings_miss_the_nearest_float(self):
        from mpmath import mp, mpf

        q = Fraction(99760271522, 14806516449)
        with mp.workdps(5):
            _, man, exp, _ = (mpf(q.numerator) / mpf(q.denominator))._mpf_
        assert abs(Fraction(man) * Fraction(2) ** exp - q) > self.half_ulp(q, 5)


def fraction_decimal_string(q: Fraction, places: int) -> str:
    """`places` digits of q after the point, rounded to nearest, ties to even,
    by Fraction arithmetic: the reference for the one integer division of
    `decimal_string` on an unreduced ratio."""
    scaled = abs(q) * 10**places
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem > scaled.denominator or (2 * rem == scaled.denominator and whole % 2):
        whole += 1
    text = str(whole).rjust(places + 1, "0")
    return ("-" if q < 0 else "") + (f"{text[:-places]}.{text[-places:]}" if places else text)


class TestUnreducedRatios:
    """to_mpf and decimal_string of (num, den) pairs that share a factor
    round as the reduced rational does."""

    @staticmethod
    def ratios(digits):
        """Unreduced (num, den > 0): random ones of 200 to 20,000 bits, exact
        and near ties of rounding to the `digits`-digit binary precision, and
        of rounding to `digits` decimal places, and zero."""
        from mpmath import mp

        with mp.workdps(digits):
            prec = mp.prec
        rng = random.Random(digits)
        out = [(0, 3 * 2**300)]
        for bits in (200, 1000, 5000, 20000):
            for _ in range(25):
                common = rng.getrandbits(bits // 4) + 1
                num = rng.choice((-1, 1)) * rng.getrandbits(bits)
                den = rng.getrandbits(bits - rng.randrange(-200, 200)) + 1
                out.append((num * common, den * common))
        for _ in range(20):
            common = rng.getrandbits(rng.choice((200, 2000, 20000))) + 1
            sign = rng.choice((-1, 1))
            # (2M+1) / 2^t with M of prec bits lies halfway between two floats
            tie, shift = 2 * (rng.getrandbits(prec - 1) | 1 << (prec - 1)) + 1, rng.randrange(300)
            den = 1 << (shift + rng.randrange(-40, 40) + 40)
            out += [(sign * ((tie << shift) + d) * common, den * common) for d in (0, 1, -1)]
            # (2w+1) / (2 10^digits) lies halfway between two decimals
            tie, scale = 2 * rng.getrandbits(rng.choice((8, 200, 2000))) + 1, 2**rng.randrange(200)
            den = 2 * 10**digits * scale
            out += [(sign * (tie * scale + d) * common, den * common) for d in (0, 1, -1)]
        return out

    @pytest.mark.parametrize("digits", [10, 35, 300])
    def test_to_mpf_equals_from_rational(self, digits):
        from mpmath import mp
        from mpmath.libmp import from_rational, round_nearest

        for num, den in self.ratios(digits):
            with mp.workdps(digits):
                want = from_rational(num, den, mp.prec, round_nearest)
            assert to_mpf((num, den), digits)._mpf_ == want, (num, den)
            assert to_mpf(Fraction(num, den), digits)._mpf_ == want, (num, den)

    @pytest.mark.parametrize("digits", [10, 35, 300])
    def test_decimal_string_equals_the_reduced_fraction(self, digits):
        for num, den in self.ratios(digits):
            want = fraction_decimal_string(Fraction(num, den), digits)
            assert decimal_string((num, den), digits) == want, (num, den)
            assert decimal_string(Fraction(num, den), digits) == want, (num, den)

    def test_ties_are_in_the_cases(self):
        # the exact binary and decimal ties above do lie halfway
        from mpmath import mp

        for digits in (10, 35, 300):
            with mp.workdps(digits):
                prec = mp.prec
            binary = decimal = 0
            for num, den in self.ratios(digits):
                q = abs(Fraction(num, den)) * 10**digits
                decimal += q.denominator == 2
                # odd / 2^k, the odd part of prec + 1 bits
                q = abs(Fraction(num, den))
                odd = q.numerator >> ((q.numerator & -q.numerator).bit_length() - 1) if q else 0
                binary += q.denominator.bit_count() == 1 and odd.bit_length() == prec + 1
            assert decimal >= 20 and binary >= 20, (digits, decimal, binary)


class TestExponentString:
    """The integer formatter of `digits`' error bound against mpmath's nstr."""

    def test_precision_is_dps_to_prec(self):
        from mpmath.libmp import dps_to_prec

        # 1/3 = 0.0101...b rounds to a mantissa of exactly prec bits
        bits = [round_dyadic(Fraction(1, 3), d)[0].bit_length() for d in range(1, 1001)]
        assert bits == [dps_to_prec(d) for d in range(1, 1001)]
        assert bits[9] == 37

    def test_equals_nstr_of_random_ratios(self):
        # past 3,500 bits nstr divides by an approximate power of ten; values
        # lie in (2^(e-1), 2^(e+1)), outside nstr's fixed-point range 1e-4..1e6
        from mpmath import mp

        rng = random.Random(2002)
        for _ in range(3000):
            e = rng.choice((rng.randrange(-70_000, -18), rng.randrange(21, 60)))
            num, den = rng.getrandbits(64) | 1 << 63, rng.getrandbits(64) | 1 << 63
            q = (num << e, den) if e > 0 else (num, den << -e)
            man, exp = round_dyadic(q, 10)
            want = mp.nstr(to_mpf(q, 10), 6)
            assert exponent_string(Fraction(man) * Fraction(2) ** exp) == want, q

    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(9999995, 10**18), "1.0e-11"),  # carry into the exponent
            (Fraction(9999994999, 10**21), "9.99999e-12"),
            (Fraction(1999995, 10**16), "2.0e-10"),
            (Fraction(5, 10**10), "5.0e-10"),  # trailing zeros
            (Fraction(125, 10**12), "1.25e-10"),
            (Fraction(1234565, 10**16), "1.23457e-10"),  # exact half: up, not to even
            (Fraction(12345649999, 10**20), "1.23456e-10"),
            (Fraction(1234565000), "1.23457e+9"),
            (Fraction(3, 2**200), "1.8669e-60"),
        ],
    )
    def test_rounds_half_up_and_strips_zeros(self, value, text):
        from mpmath import mp

        assert exponent_string(value) == text
        if value.denominator & (value.denominator - 1) == 0:  # exact in binary
            assert mp.nstr(to_mpf(value, 10), 6) == text
