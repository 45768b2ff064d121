"""Alternating-series acceleration against classically known sums."""

from fractions import Fraction

import pytest
from mpmath import mp

from aperylike.acceleration import alternating_sum, chebyshev_scale, terms_for_bound
from aperylike.hypergeom import build_kernel
from tests.conftest import mpf_frac, sequential_alternating_sum


def test_chebyshev_scale_recurrence():
    # d_k = 6 d_{k-1} - d_{k-2}; first values 1, 3, 17, 99, 577
    assert [chebyshev_scale(k) for k in range(5)] == [1, 3, 17, 99, 577]


def test_log_two_to_forty_digits():
    terms = [Fraction(1, k + 1) for k in range(60)]
    estimate = alternating_sum(terms)
    with mp.workdps(60):
        error = abs(mpf_frac(estimate) - mp.log(2))
        assert error < mp.mpf(10) ** -40


def test_pi_over_four_leibniz():
    terms = [Fraction(1, 2 * k + 1) for k in range(80)]
    estimate = alternating_sum(terms)
    with mp.workdps(80):
        error = abs(mpf_frac(estimate) - mp.pi / 4)
        assert error < mp.mpf(10) ** -55


def test_terms_for_bound_is_minimal():
    # d_{N-1} <= mass 10^digits < d_N, for integer and Fraction masses
    for mass in (1, 7, 10**6, Fraction(1, 3), Fraction(22, 7), Fraction(1, 10**9)):
        for digits in (0, 1, 10, 45, 300):
            count = terms_for_bound(mass, digits)
            limit = mass * 10**digits
            assert chebyshev_scale(count) > limit, (mass, digits)
            assert count == 0 or chebyshev_scale(count - 1) <= limit, (mass, digits)
    assert terms_for_bound(0, 50) == 0
    with pytest.raises(ValueError):
        terms_for_bound(-1, 10)


def signed_term(k):
    # 3/(k+1/2)^2 - 5/(k+3/2) + 2/(k+1)^3: moments of a signed measure of
    # total variation at most 3/(1/2)^2 + 5/(3/2) + 2 = 52/3
    return (
        Fraction(12, (2 * k + 1) ** 2)
        - Fraction(10, 2 * k + 3)
        + Fraction(2, (k + 1) ** 3)
    )


@pytest.mark.parametrize("digits", [10, 45])
def test_bound_holds_for_a_signed_combination(digits):
    mass = Fraction(52, 3)
    count = terms_for_bound(mass, digits)
    estimate = alternating_sum([signed_term(k) for k in range(count)])
    with mp.workdps(digits + 30):
        # 4 G, 2 (1 - pi/4) and eta(3) = 3 zeta(3)/4 term by term
        exact = 12 * mp.catalan - 10 * (1 - mp.pi / 4) + 3 * mp.zeta(3) / 2
        assert abs(mpf_frac(estimate) - exact) < mp.mpf(10) ** -digits


def test_empty_prefix_is_zero():
    assert alternating_sum([]) == 0


PREFIXES = {
    "log-two": lambda: [Fraction(1, k + 1) for k in range(60)],
    "leibniz": lambda: [Fraction(1, 2 * k + 1) for k in range(80)],
    "signed-combination": lambda: [
        signed_term(k) for k in range(terms_for_bound(Fraction(52, 3), 45))
    ],
    "integers": lambda: [(-3) ** k + k * k - 7 for k in range(40)],
    "length-one": lambda: [Fraction(-5, 7)],
    "length-two": lambda: [Fraction(5, 7), Fraction(2, 3)],
    "kernel-values": lambda: [build_kernel(5).R(t) for t in range(60)],
}


@pytest.mark.parametrize("name", PREFIXES)
def test_equals_the_sequential_rational_recursion(name):
    # integer weights and the summation tree give the very same rational
    terms = PREFIXES[name]()
    estimate = alternating_sum(terms)
    assert isinstance(estimate, Fraction)
    assert estimate == sequential_alternating_sum(terms)
