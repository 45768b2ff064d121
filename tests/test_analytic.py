"""Reference constants, digit extraction, continued fractions, integral, series."""

import hashlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from aperylike.acceleration import alternating_sum, chebyshev_scale, terms_for_bound
from aperylike.analytic import (
    DIGITS_PER_STEP,
    _log10_above,
    _zeta4_stop_index,
    beukers_integral,
    catalan_digits,
    cf_convergent,
    linear_form,
    reference_catalan,
    reference_zeta4,
    zeta4_digits,
    zeta4_series,
)
from aperylike import hypergeom
from aperylike.errors import PrecisionError
from aperylike.sequences import catalan_pair, pair, recurrence_coefficients, zeta4_pair
from aperylike.exact import Polynomial, decimal_string, exponent_string, to_mpf
from tests.conftest import (
    coefficients,
    mpf_frac,
    sequential_alternating_sum,
    stepped_pairs,
    termwise_zeta4_series,
)


class TestReferenceConstants:
    def test_catalan_against_mpmath(self, catalan_200):
        for digits in (10, 50, 120):
            value = reference_catalan(digits)
            with mp.workdps(digits + 20):
                assert abs(value - catalan_200) < mp.mpf(10) ** -digits

    @pytest.mark.parametrize("digits", [30, 100])
    def test_catalan_within_chebyshev_bound(self, digits):
        # the exact estimate that reference_catalan rounds: mass 1, so the
        # fewest N with d_N > 10^(digits+10) leave an error below 1/d_N
        count = terms_for_bound(1, digits + 10)
        assert chebyshev_scale(count - 1) <= 10 ** (digits + 10) < chebyshev_scale(count)
        terms = [Fraction(1, (2 * k + 1) ** 2) for k in range(count)]
        estimate = alternating_sum(terms)
        assert reference_catalan(digits) == to_mpf(estimate, digits + 15)
        with mp.workdps(digits + 40):
            error = abs(mpf_frac(estimate) - mp.catalan)
            assert error < mpf_frac(Fraction(1, chebyshev_scale(count)))

    def test_catalan_at_linear_form_precision_matches_sequential_sum(self):
        # just above the 2131 digits that linear_form("catalan", 1000, 30) uses
        count = terms_for_bound(1, 2136 + 10)
        terms = [Fraction(1, (2 * k + 1) ** 2) for k in range(count)]
        estimate = sequential_alternating_sum(terms)
        assert reference_catalan(2136) == to_mpf(estimate, 2136 + 15)

    def test_zeta4_at_linear_form_precision(self):
        # just above the 2099 digits that linear_form("zeta4", 600, 30) uses
        value = reference_zeta4(2104)
        with mp.workdps(2104 + 50):
            assert abs(value - mp.zeta(4)) < mp.mpf(10) ** -2104

    def test_catalan_first_digits(self):
        value = reference_catalan(10)
        assert mp.nstr(value, 10) == "0.9159655942"

    def test_zeta4_against_mpmath(self, zeta4_200):
        for digits in (10, 50, 120):
            value = reference_zeta4(digits)
            with mp.workdps(digits + 20):
                assert abs(value - zeta4_200) < mp.mpf(10) ** -digits

    def test_zeta4_against_direct_sum_with_tail_bracket(self):
        # second oracle: sum 1/k^4 to N plus the integral bracket of the tail
        N = 2000
        partial = sum(Fraction(1, k**4) for k in range(1, N + 1))
        low = partial + Fraction(1, 3 * (N + 1) ** 3)
        high = partial + Fraction(1, 3 * N**3)
        value = reference_zeta4(12)
        with mp.workdps(40):
            assert mpf_frac(low) < value < mpf_frac(high)

    def test_zeta4_against_recurrence_ratio(self):
        item = zeta4_pair(20)
        value = reference_zeta4(60)
        with mp.workdps(80):
            assert abs(mpf_frac(item.v / item.u) - value) < mp.mpf(10) ** -60

    def test_catalan_agrees_with_recurrence_path(self):
        item = catalan_pair(20)
        value = reference_catalan(40)
        with mp.workdps(60):
            assert abs(mpf_frac(item.v / item.u) - value) < mp.mpf(10) ** -40


class TestDigits:
    def test_paper_convergence_claim_at_ten(self, catalan_200):
        item = catalan_pair(10)
        with mp.workdps(60):
            assert abs(mpf_frac(item.v / item.u) - catalan_200) < mp.mpf(10) ** -20

    def test_catalan_twenty_digits_string(self):
        result = catalan_digits(20)
        assert result.value == "0.91596559417721901505"

    def test_catalan_single_digit(self):
        assert catalan_digits(1).value == "0.9"

    def test_zeta4_ten_digits_string(self):
        assert zeta4_digits(10).value == "1.0823232337"

    def test_zeta4_twenty_five_uses_at_most_thirteen_terms(self):
        assert zeta4_digits(25).n_used <= 13

    @pytest.mark.parametrize("digits", [10, 50, 100, 500])
    def test_catalan_agrees_with_reference(self, digits):
        result = catalan_digits(digits)
        reference = reference_catalan(digits + 5)
        with mp.workdps(digits + 20):
            assert abs(mp.mpf(result.value) - reference) < mp.mpf(10) ** -digits

    @pytest.mark.parametrize("digits", [10, 50, 100])
    def test_zeta4_agrees_with_reference(self, digits):
        result = zeta4_digits(digits)
        reference = reference_zeta4(digits + 5)
        with mp.workdps(digits + 20):
            assert abs(mp.mpf(result.value) - reference) < mp.mpf(10) ** -digits

    def test_error_bound_is_certified(self, catalan_200):
        result = catalan_digits(30)
        item, after = catalan_pair(result.n_used), catalan_pair(result.n_used + 1)
        gap = abs(after.v / after.u - item.v / item.u)  # d_n, exactly
        assert gap < Fraction(999, 100) * gap < result.error_bound
        with mp.workdps(80):
            true_error = abs(mpf_frac(item.v / item.u) - catalan_200)
            assert true_error < to_mpf(result.error_bound, 80)
            assert to_mpf(result.error_bound, 80) < mp.mpf(10) ** -31

    @pytest.mark.parametrize("extract", [catalan_digits, zeta4_digits])
    def test_error_bound_is_a_37_bit_dyadic(self, extract):
        for digits in (1, 2, 3, 10, 37, 100, 400):
            bound = extract(digits).error_bound
            assert isinstance(bound, Fraction)
            assert bound.denominator.bit_count() == 1 and bound.numerator < 2**37

    def test_rejects_nonpositive_digits(self):
        with pytest.raises(ValueError):
            catalan_digits(0)


def convergent_gaps(family, n):
    """(d_n - d_{n+1}, d_n) for d_k = |r_{k+1} - r_k|, r_k = v_k/u_k, from
    stepped pairs: the bracket of |C - r_n| that linear_form relies on."""
    r = [v / u for u, v in stepped_pairs(family, n + 2)[n:]]
    return abs(r[1] - r[0]) - abs(r[2] - r[1]), abs(r[1] - r[0])


class TestLinearForm:
    CONSTANTS = {"catalan": lambda: mp.catalan, "zeta4": lambda: mp.zeta(4)}

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 60, 300])
    @pytest.mark.parametrize("digits", [10, 40])
    def test_relative_error(self, family, n, digits):
        low, high = convergent_gaps(family, n)
        u, v = stepped_pairs(family, n)[n]
        # linear_form's working precision (digits, the digits the cancellation
        # costs, 10 guard digits), plus 200
        lost = int(mp.ceil(-mp.log10(mpf_frac(low, 20))))
        working = digits + lost + 10 + 200
        form = linear_form(family, n, digits)
        with mp.workdps(working):
            constant = self.CONSTANTS[family]()
            expected = mpf_frac(u) * constant - mpf_frac(v)
            # the Casoratian bracket d_n - d_{n+1} < |C - r_n| < d_n
            assert mpf_frac(low) < abs(constant - mpf_frac(v / u)) < mpf_frac(high)
            assert abs(form / expected - 1) < mp.mpf(10) ** -digits

    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            linear_form("zeta5", 3, 10)
        with pytest.raises(ValueError):
            linear_form("catalan", -1, 10)
        with pytest.raises(ValueError):
            linear_form("catalan", 3, 0)


def assert_catalan_form_bound(n):
    """Each step of the bound on F_n = 8(u_n G - v_n) in `linear_form`'s
    docstring, exactly at n >= 1, against the kernel of `factor_runs`.

    Every factor is written over 2, so that t + k + 1/2 is (2t+2k+1)/2:
    R_n(t) = n! (2t+n+1) prod_{i<n} (t-i) prod_{i=1..n} (t+n+i) 8^(n+1)
    / prod_{k<=n} (2t+2k+1)^3.  The pairing takes pole k = i for t-i, k = i
    for t+n+i and k = n for 2t+n+1, and leaves n+2 pole factors."""
    kernel = hypergeom.factor_runs("catalan", n)
    for t in {0, *range(max(n - 6, 0), n)}:
        assert kernel.value(t) == 0, (n, t)
    used = [*range(n), *range(1, n + 1), n]
    left = Counter({k: 3 for k in range(n + 1)}) - Counter(used)
    assert left.total() == n + 2
    for t in (n, n + 1, n + 2, n + 3, 2 * n + 1, 6 * n + 19):
        pole = [2 * t + 2 * k + 1 for k in range(n + 1)]
        # (t-i)/(t+i+1/2) in [0, 1]; (t+n+i)/(t+i+1/2) < 2;
        # (2t+n+1)/(t+n+1/2) <= 2; each factor left is at least t+1/2
        assert all(0 <= 2 * (t - i) <= pole[i] for i in range(n)), (n, t)
        assert all(2 * (t + n + i) < 2 * pole[i] for i in range(1, n + 1)), (n, t)
        assert 2 * t + n + 1 <= pole[n], (n, t)
        assert all(pole[k] >= 2 * t + 1 for k in left), (n, t)
        top = math.factorial(n) * (2 * t + n + 1) * 8 ** (n + 1)
        top *= math.prod(range(t - n + 1, t + 1)) * math.prod(range(t + n + 1, t + 2 * n + 1))
        value = Fraction(top, math.prod(pole) ** 3)
        assert kernel.value(t) == value, (n, t)
        # so R_n(t) <= 2^(n+1) n! / (t+1/2)^(n+2)
        assert value * (2 * t + 1) ** (n + 2) <= 2 ** (2 * n + 3) * math.factorial(n), (n, t)
    # sum_{t>=n} (t+1/2)^-(n+2) <= integral from n-1/2 of x^-(n+2) dx
    bound = Fraction(2 ** (2 * n + 2) * math.factorial(n), (n + 1) * (2 * n - 1) ** (n + 1))
    form = 8 * linear_form("catalan", n, 10)
    with mp.workdps(20):
        assert 0 < abs(form) < mpf_frac(bound, 20), n


class TestCatalanFormBound:
    def test_every_step_to_200(self):
        for n in range(1, 201):
            assert_catalan_form_bound(n)

    def test_kernel_one_factor_short_fails(self, monkeypatch):
        # t(t-1)...(t-n+2): R_n(n-1) is then not 0
        full = hypergeom.KERNELS["catalan"]

        def short(n):
            scale, (middle, _, *rest) = full(n)
            return hypergeom.FactorRuns(scale, (middle, (0, n - 1, 1), *rest))

        monkeypatch.setitem(hypergeom.KERNELS, "catalan", short)
        for n in (1, 2, 5):
            with pytest.raises(AssertionError, match=rf"\({n}, {n - 1}\)"):
                assert_catalan_form_bound(n)


def assert_zeta4_form_bound(n, harmonic):
    """Each step of the bound on u_n zeta(4) - v_n in `linear_form`'s
    docstring, exactly at n >= 1, against the kernel of `factor_runs`:
    H_n(t) = (2t+n) prod_{i=1..n} (t-i)^2 (t+n+i)^2 / prod_{i<=n} (t+i)^4,
    with `harmonic[m]` = 1 + 1/2 + ... + 1/m."""
    kernel = hypergeom.factor_runs("zeta4", n)
    # H_n and H_n' vanish at t = 1..n: each is a root of multiplicity 2
    multiplicity = Counter()
    for first, length, mult in kernel.runs:
        for i in range(length):
            multiplicity[first + i] += mult
    for t in range(1, n + 1):
        assert multiplicity[t] >= 2, (n, t)
    for t in {1, *range(max(n - 5, 1), n + 1)}:
        assert kernel.value(t) == 0, (n, t)
    h = harmonic[n]
    for t in (n + 1, n + 2, n + 3, n + 4, 2 * n + 1, 6 * n + 19):
        # (t-i)/(t+i) in (0, 1]; (t+n+i)/(t+i) <= 2, both for i = 1..n
        assert all(0 < t - i <= t + i for i in range(1, n + 1)), (n, t)
        assert all(t + n + i <= 2 * (t + i) for i in range(1, n + 1)), (n, t)
        paired = math.prod(range(t - n, t)) * math.prod(range(t + n + 1, t + 2 * n + 1))
        top = (2 * t + n) * paired**2
        value = Fraction(top, math.prod(range(t, t + n + 1)) ** 4)
        assert kernel.value(t) == value, (n, t)
        # so 0 < H_n(t) <= (2t+n) 4^n / t^4
        assert 0 < value and value * t**4 <= (2 * t + n) * 4**n, (n, t)
        # H_n'/H_n = up - down: up = 2/(2t+n) + sum 2/(t-i) + sum 2/(t+n+i)
        # <= 2 h_n + 2, down = sum_{i<=n} 4/(t+i) <= 4
        near = harmonic[t - 1] - harmonic[t - n - 1]  # sum 1/(t-i) <= h_n
        up = Fraction(2, 2 * t + n) + 2 * near + 2 * (harmonic[t + 2 * n] - harmonic[t + n])
        down = 4 * (harmonic[t + n] - harmonic[t - 1])
        assert near <= h and up <= 2 * h + 2 and down <= 4, (n, t)
        assert abs(up - down) <= 2 * h + 4, (n, t)
        if t == n + 1:  # the written log-derivative is the kernel's
            jet = kernel.jet(t, 2).coeffs
            assert jet[1] / jet[0] == up - down, (n, t)
    # |sum_{t>n} H_n'(t)| / 6 with (2t+n) <= 3t and sum_{t>n} t^-3 <= 1/(2n^2)
    bound = (2 * h + 4) * Fraction(4**n, 4 * n**2)
    form = linear_form("zeta4", n, 10)
    with mp.workdps(20):
        assert 0 < abs(form) < mpf_frac(bound, 20), n


class TestZeta4FormBound:
    @staticmethod
    def harmonic(m_max):
        sums = [Fraction(0)]
        for m in range(1, m_max + 1):
            sums.append(sums[-1] + Fraction(1, m))
        return sums

    def test_every_step_to_200(self):
        harmonic = self.harmonic(6 * 200 + 19 + 2 * 200)
        for n in range(1, 201):
            assert_zeta4_form_bound(n, harmonic)

    def test_u_n_grows_at_least_sixtyfold(self):
        # in k-1, mid_k - 60 lead_k has positive coefficients and back_k none
        # negative, so u_{k+1} >= 60 u_k from u_1 = 12
        lead = Polynomial([1, 1]) ** 5
        mid = Polynomial([3, 6]) * Polynomial([1, 3, 3]) * Polynomial([4, 15, 15])
        back = Polynomial([0, 0, 0, 3]) * Polynomial([-1, 3]) * Polynomial([1, 3])
        for k in range(8):  # degree 5: six points fix each polynomial
            assert recurrence_coefficients("zeta4", k) == (lead(k), mid(k), back(k))
        assert all(c > 0 for c in coefficients((mid + lead * -60).shift(1)))
        assert all(c >= 0 for c in coefficients(back.shift(1)))
        for n in range(1, 201):
            assert zeta4_pair(n).u >= 12 * 60 ** (n - 1), n

    def test_kernel_one_factor_short_fails(self, monkeypatch):
        # ((t-1)...(t-n+1))^2: H_n(n) is then not 0
        full = hypergeom.KERNELS["zeta4"]

        def short(n):
            scale, (middle, _, *rest) = full(n)
            return hypergeom.FactorRuns(scale, (middle, (1, n - 1, 2), *rest))

        monkeypatch.setitem(hypergeom.KERNELS, "zeta4", short)
        harmonic = TestZeta4FormBound.harmonic(100)
        for n in (1, 2, 5):
            with pytest.raises(AssertionError, match=rf"\({n}, {n}\)"):
                assert_zeta4_form_bound(n, harmonic)


def digits_by_stepping(family, digits):
    """(value, n_used, error_bound) of the digit extraction, from stepped pairs."""
    n = math.ceil(digits / DIGITS_PER_STEP[family]) + 5
    threshold = Fraction(1, 10 ** (digits + 1))
    while True:
        rows = stepped_pairs(family, n + 1)
        ratio = rows[n][1] / rows[n][0]
        bound = 10 * abs(ratio - rows[n + 1][1] / rows[n + 1][0])
        if bound < threshold:
            return decimal_string(ratio, digits), n, to_mpf(bound, 10)
        n += 1


class TestDigitsMatchStepping:
    @pytest.mark.parametrize("digits", [50, 500, 4000])
    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_same_result_as_stepping(self, family, digits):
        extract = catalan_digits if family == "catalan" else zeta4_digits
        result = extract(digits)
        assert (result.value, result.n_used, result.error_bound) == digits_by_stepping(
            family, digits
        )

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_steps_on_from_an_early_start(self, family, monkeypatch):
        # an overstated rate starts the search too early, so the bound loop
        # has to extend n by single steps past the product tree's pairs
        monkeypatch.setitem(DIGITS_PER_STEP, family, 60.0)
        extract = catalan_digits if family == "catalan" else zeta4_digits
        result = extract(300)
        assert result.n_used > math.ceil(300 / 60.0) + 5 + 10
        assert (result.value, result.n_used, result.error_bound) == digits_by_stepping(
            family, 300
        )


class TestDeepDigitsPinned:
    # SHA-256 of `value`, n_used and the printed error_bound: how the product
    # tree scales its integers must move no digit, no index and no bound
    PINNED = {
        "catalan": (
            "51792f08db7ed297647fe35b4d2635eb5975dc50d5c325bae3c2019ff30d1e17",
            9579,
            "2.2529e-20018",
        ),
        "zeta4": (
            "b089310db0f6f1d925ecf89b0dfb1d263800123960ee3b7b0572fad385a2a3a8",
            5836,
            "2.4182e-20026",
        ),
    }

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_twenty_thousand_digits(self, family):
        extract = catalan_digits if family == "catalan" else zeta4_digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the value has 20,001 digits
        try:
            result = extract(20000)
        finally:
            sys.set_int_max_str_digits(limit)
        digest = hashlib.sha256(result.value.encode()).hexdigest()
        assert (digest, result.n_used, exponent_string(result.error_bound)) == self.PINNED[family]


class TestContinuedFractions:
    def test_first_convergents(self):
        assert cf_convergent("catalan", 1).value == Fraction(13, 14)
        assert cf_convergent("zeta4", 1).value == Fraction(13, 12)

    def test_second_convergents(self):
        assert cf_convergent("catalan", 2).value == Fraction(10699, 11682)
        assert cf_convergent("zeta4", 2).value == Fraction(4641, 4288)

    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_equals_recurrence_ratio_to_fifty(self, family):
        for n in range(1, 51):
            item = pair(family, n)
            assert cf_convergent(family, n).value == item.v / item.u, (family, n)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            cf_convergent("catalan", 0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            cf_convergent("pi", 3)


class TestDigitsPerStep:
    @pytest.mark.parametrize("family", ["catalan", "zeta4"])
    def test_rate_is_the_characteristic_root_ratio_rounded_down(self, family):
        # the roots of lambda^2 - (mid/lead) lambda - back/lead have product
        # -back/lead, so lambda_1/|lambda_2| = lambda_1^2 lead/back
        lead, mid, back = recurrence_coefficients(family, 10**6)
        a, b = float(mid / lead), float(back / lead)
        root = (a + math.sqrt(a * a + 4 * b)) / 2
        rate = math.log10(root * root / b)
        assert DIGITS_PER_STEP[family] <= rate < DIGITS_PER_STEP[family] + 0.002


def _sizes(digits, rng):
    """The least, the largest and one random integer with `digits` digits."""
    low, high = 10 ** (digits - 1), 10**digits
    return [low, high - 1, rng.randrange(low, high)]


class TestLog10Above:
    @pytest.mark.parametrize(
        "num_digits, den_digits",
        [(1, 1), (1, 10_000), (10_000, 1), (10_000, 10_000), (50, 3_000), (3_000, 50)],
    )
    def test_within_two_above_log10(self, num_digits, den_digits):
        # log10 q <= h < log10 q + 2, i.e. 10^(h-2) < q <= 10^h, compared exactly
        rng = random.Random(num_digits * 100_003 + den_digits)
        for num in _sizes(num_digits, rng):
            for den in _sizes(den_digits, rng):
                q = Fraction(num, den)
                h = _log10_above(q)
                assert Fraction(10) ** (h - 2) < q <= Fraction(10) ** h, (num, den)

    def test_unreduced_ratio_within_two_above_log10(self):
        rng = random.Random(5)
        for digits in (1, 50, 3_000):
            for num in _sizes(digits, rng):
                for den in _sizes(digits + rng.randrange(30), rng):
                    common = rng.getrandbits(rng.choice((1, 64, 4_000))) + 1
                    h = _log10_above((num * common, den * common))
                    q = Fraction(num, den)
                    assert Fraction(10) ** (h - 2) < q <= Fraction(10) ** h, (num, den)


class TestIntegral:
    def test_n0_is_eight_catalan(self, catalan_200):
        value = beukers_integral(0, 8)
        with mp.workdps(30):
            assert abs(value - 8 * catalan_200) < mp.mpf(10) ** -9

    def test_linear_form_relation_with_eighth_prefactor(self, catalan_200):
        # measured relation: (-1)^n/8 * integral = u_n G - v_n
        with mp.workdps(40):
            for n in range(4):
                integral = beukers_integral(n, 8)
                item = catalan_pair(n)
                form = mpf_frac(item.u) * catalan_200 - mpf_frac(item.v)
                sign = 1 if n % 2 == 0 else -1
                assert abs(sign * integral / 8 - form) < mp.mpf(10) ** -7, n

    def test_printed_quarter_prefactor_is_off_by_two(self, catalan_200):
        # the as-printed prefactor (-1)^n/4 leaves a residual equal to the
        # linear form itself; checked exactly at n = 0 by two series terms:
        # the integrand expansion gives term_0 + term_1 = 4 + 8/9 > 4 G,
        # so the integral cannot be 4 G.
        first_two_terms = Fraction(4) + Fraction(8, 9)
        with mp.workdps(30):
            assert mpf_frac(first_two_terms) > 4 * catalan_200
        value = beukers_integral(0, 8)
        with mp.workdps(30):
            residual_quarter = abs(value / 4 - catalan_200)
            assert residual_quarter > mp.mpf("0.8")  # ~ G, nowhere near zero

    def test_sign_pattern(self, catalan_200):
        with mp.workdps(40):
            for n in range(4):
                item = catalan_pair(n)
                form = mpf_frac(item.u) * catalan_200 - mpf_frac(item.v)
                if n > 0:  # form at n=0 is G > 0
                    assert (form > 0) == (n % 2 == 0)

    def test_series_route_consistency(self):
        # kernel sum = 8 (u G - v) = (-1)^n * integral, at modest precision
        from aperylike.hypergeom import f_numeric

        with mp.workdps(30):
            for n in range(3):
                integral = beukers_integral(n, 8)
                kernel_sum = f_numeric(n, 12)
                sign = 1 if n % 2 == 0 else -1
                assert abs(sign * integral - kernel_sum) < mp.mpf(10) ** -7

    @pytest.mark.parametrize(
        "n, digits", [(0, 13), (5, 30), (60, 15), (200, 15), (300, 15)]
    )
    def test_matches_exact_linear_form(self, n, digits):
        # reference 8 (-1)^n (u_n G - v_n) with guard digits for the
        # ~2.1 n digits that the linear form cancels
        value = beukers_integral(n, digits)
        item = catalan_pair(n)
        with mp.workdps(int(digits + 2.1 * n + 20)):
            form = mpf_frac(item.u) * mp.catalan - mpf_frac(item.v)
            exact = 8 * (-1) ** n * form
            assert abs(value - exact) < mp.mpf(10) ** -digits * abs(exact)

    def test_digit_cap_enforced(self):
        with pytest.raises(ValueError):
            beukers_integral(0, 51)
        with pytest.raises(ValueError):
            beukers_integral(-1, 8)


class TestZeta4Series:
    def test_n0_is_zeta4(self, zeta4_200):
        value = zeta4_series(0, 8)
        with mp.workdps(30):
            assert abs(value - zeta4_200) < mp.mpf(10) ** -9

    def test_n1_matches_linear_form(self, zeta4_200):
        value = zeta4_series(1, 6)
        with mp.workdps(30):
            expected = 12 * zeta4_200 - 13
            assert abs(value - expected) < mp.mpf(10) ** -7

    def test_residuals_to_three(self, zeta4_200):
        with mp.workdps(40):
            for n in range(4):
                value = zeta4_series(n, 6)
                item = zeta4_pair(n)
                form = mpf_frac(item.u) * zeta4_200 - mpf_frac(item.v)
                assert abs(value - form) < mp.mpf(10) ** -5, n

    def test_sign_matches_linear_form(self, zeta4_200):
        with mp.workdps(40):
            for n in range(5):
                value = zeta4_series(n, 6)
                item = zeta4_pair(n)
                form = mpf_frac(item.u) * zeta4_200 - mpf_frac(item.v)
                assert mp.sign(value) == mp.sign(form), n

    @pytest.mark.parametrize("n, digits", [(0, 8), (1, 6), (3, 8)])
    def test_equals_the_termwise_sum(self, n, digits):
        # the same stop index and partial sum as adding the terms one by one
        stop, expected = termwise_zeta4_series(n, digits)
        assert _zeta4_stop_index(n, digits) == stop
        with mp.workdps(40):
            assert abs(zeta4_series(n, digits) - expected) < mp.mpf(10) ** -20

    def test_digit_cap_enforced(self):
        with pytest.raises(ValueError):
            zeta4_series(0, 11)

    def test_term_cap_raises_cleanly(self):
        # the first candidate stop index, 1,000,064, lies past the cap
        with pytest.raises(PrecisionError):
            zeta4_series(200_000, 8)
