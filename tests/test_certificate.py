"""Telescoping certificate: transcription, exact identity, numeric transfer."""

from fractions import Fraction

import pytest
from mpmath import mp

from aperylike.certificate import (
    build_certificate,
    certificate_denominator,
    certificate_numerator_coefficients,
    verify_telescoping,
)
from aperylike.exact import Polynomial, RationalFunction
from aperylike.hypergeom import coefficient_quadruple, f_numeric
from aperylike.sequences import recurrence_coefficients


class TestTranscription:
    def test_numerator_values_at_one(self):
        # hand-expanded from the coefficient products: ascending in t
        assert certificate_numerator_coefficients(1) == [
            98514,
            194337,
            120341,
            25038,
            520,
        ]

    def test_leading_coefficient_formula_at_one(self):
        assert certificate_numerator_coefficients(1)[4] == 8 * 1 * 1 * 65 == 520

    def test_denominator_at_two(self):
        expected = (
            Polynomial([3, 2]) * Polynomial([3, 1]) * Polynomial([4, 1]) * 2
        )  # 2 (2t+3)(t+3)(t+4)
        assert certificate_denominator(2) == expected

    def test_certificate_equals_raw_fraction(self):
        for n in (1, 2, 3):
            raw = RationalFunction(
                Polynomial(certificate_numerator_coefficients(n)),
                certificate_denominator(n),
            )
            assert build_certificate(n).s == raw


class TestCertificateStructure:
    @pytest.mark.parametrize("n", list(range(1, 13)) + [25, 50])
    def test_vanishes_at_zero(self, n):
        assert build_certificate(n).S(0) == 0

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            build_certificate(0)


class TestTelescoping:
    @pytest.mark.parametrize("n", list(range(1, 101)))
    def test_identity_exact(self, n):
        assert verify_telescoping(n)

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            verify_telescoping(0)

    def test_quadruples_satisfy_the_recurrence(self):
        # the table-route coefficients inherit the three-term recurrence
        for n in range(1, 21):
            prev = coefficient_quadruple(n - 1)
            cur = coefficient_quadruple(n)
            nxt = coefficient_quadruple(n + 1)
            forward, middle, backward = recurrence_coefficients("catalan", n)
            for field in ("U", "Uprime", "Udoubleprime", "V"):
                combo = (
                    forward * getattr(nxt, field)
                    - middle * getattr(cur, field)
                    - backward * getattr(prev, field)
                )
                assert combo == 0, (n, field)


class TestCheckerSensitivity:
    def test_detects_a_corrupted_certificate(self, monkeypatch):
        # guard against the identity check being vacuously true: perturbing a
        # single transcribed coefficient must break the telescoping
        from aperylike import certificate as cert_module

        original = cert_module.certificate_numerator_coefficients

        def corrupted(n):
            coeffs = original(n)
            coeffs[2] += 1
            return coeffs

        monkeypatch.setattr(
            cert_module, "certificate_numerator_coefficients", corrupted
        )
        assert not cert_module.verify_telescoping(2)

    def test_detects_wrong_recurrence_weight(self, monkeypatch):
        # the real check, with the middle weight off by one, must fail
        from aperylike import certificate as cert_module

        original = cert_module.recurrence_coefficients

        def off_by_one(family, k):
            forward, middle, backward = original(family, k)
            return forward, middle + 1, backward

        monkeypatch.setattr(cert_module, "recurrence_coefficients", off_by_one)
        assert not cert_module.verify_telescoping(2)
        assert not cert_module.verify_telescoping(7)

    @pytest.mark.parametrize("weight", [0, 2])
    def test_detects_wrong_outer_weights(self, monkeypatch, weight):
        # forward + 1 (weight 0) or back + 1 (weight 2)
        from aperylike import certificate as cert_module

        original = cert_module.recurrence_coefficients

        def off_by_one(family, k):
            weights = list(original(family, k))
            weights[weight] += 1
            return tuple(weights)

        monkeypatch.setattr(cert_module, "recurrence_coefficients", off_by_one)
        for n in (1, 2, 7):
            assert not cert_module.verify_telescoping(n), n

    @pytest.mark.parametrize("change", ["pole factor dropped", "scale off by one"])
    def test_detects_a_wrong_ratio_in_n(self, monkeypatch, change):
        # R_{n+1}/R_n = (n+1) (...) / ((2t+n+1)(t+n+1)(t+n+3/2)^3): drop one
        # (t+n+3/2) from the denominator, or use the scale ratio n+2
        from aperylike import certificate as cert_module

        original = cert_module.kernel_ratio

        def changed(kernel, n, dn=0, dt=0):
            ratio = original(kernel, n, dn=dn, dt=dt)
            if dn != 1:
                return ratio
            if change == "pole factor dropped":
                pole = Polynomial([Fraction(2 * n + 3, 2), 1])
                quotient, remainder = divmod(ratio.den, pole)
                assert not remainder
                return RationalFunction(ratio.num, quotient)
            return RationalFunction(ratio.num * Fraction(n + 2, n + 1), ratio.den)

        monkeypatch.setattr(cert_module, "kernel_ratio", changed)
        for n in (1, 2, 7):
            assert not cert_module.verify_telescoping(n), n


def transfer_residual(n, digits):
    """|lead F_{n+1} - mid F_n - back F_{n-1}| for the accelerated kernel
    sums F_m = f_numeric(m), each within 10^-(digits+10)."""
    forward, middle, backward = recurrence_coefficients("catalan", n)
    working = digits + 10
    f_prev, f_cur, f_next = (f_numeric(m, working) for m in (n - 1, n, n + 1))
    with mp.workdps(working):
        return abs(forward * f_next - middle * f_cur - backward * f_prev)


class TestRecurrenceTransfer:
    # the numeric route: the alternating kernel sums obey the recurrence
    # that the exact identity proves

    def test_depth_one_at_thirty_digits(self):
        assert transfer_residual(1, 30) < mp.mpf(10) ** -25

    def test_depth_two_at_thirty_digits(self):
        assert transfer_residual(2, 30) < mp.mpf(10) ** -25

    def test_depth_five_at_twenty_digits(self):
        assert transfer_residual(5, 20) < mp.mpf(10) ** -15

    def test_rejects_index_zero(self):
        # the transfer at n = 0 needs F_{-1}, which f_numeric rejects
        with pytest.raises(ValueError):
            transfer_residual(0, 20)

    def test_residual_is_small_not_just_true(self, catalan_200):
        # reconstruct the residual by hand from the quadruple forms
        n = 3
        with mp.workdps(60):
            values = []
            for m in (n - 1, n, n + 1):
                q = coefficient_quadruple(m)
                values.append(
                    mp.mpf(q.Uprime.numerator) / q.Uprime.denominator * catalan_200
                    - mp.mpf(q.V.numerator) / q.V.denominator
                )
            forward, middle, backward = recurrence_coefficients("catalan", n)
            residual = abs(forward * values[2] - middle * values[1] - backward * values[0])
            assert residual < mp.mpf(10) ** -45
