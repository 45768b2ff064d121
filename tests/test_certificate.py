"""Telescoping certificate: transcription, exact identity, numeric transfer."""

import pytest
from mpmath import mp

from aperylike.certificate import (
    build_certificate,
    certificate_denominator,
    certificate_numerator_coefficients,
    verify_recurrence_transfer,
    verify_telescoping,
)
from aperylike.exact import Polynomial, RationalFunction
from aperylike.hypergeom import coefficient_quadruple
from aperylike.sequences import catalan_p, catalan_q


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
    @pytest.mark.parametrize("n", list(range(1, 13)))
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
            forward = (2 * n + 1) ** 2 * (2 * n + 2) ** 2 * catalan_p(n)
            middle = catalan_q(n)
            backward = (2 * n - 1) ** 2 * (2 * n) ** 2 * catalan_p(n + 1)
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

    def test_detects_wrong_recurrence_weight(self):
        # same accumulation, one weight off by one: numerator must not vanish
        from aperylike.certificate import build_certificate
        from aperylike.exact import poly_gcd
        from aperylike.hypergeom import build_kernel
        from aperylike.sequences import recurrence_coefficients

        n = 2
        forward, middle, backward = recurrence_coefficients("catalan", n)
        big_s = build_certificate(n).S
        shifted = big_s.shift(1)
        terms = [
            (build_kernel(n + 1).R.num * forward, build_kernel(n + 1).R.den),
            (build_kernel(n).R.num * (-(middle + 1)), build_kernel(n).R.den),
            (build_kernel(n - 1).R.num * (-backward), build_kernel(n - 1).R.den),
            (shifted.num, shifted.den),
            (big_s.num, big_s.den),
        ]
        acc_num, acc_den = terms[0]
        for num, den in terms[1:]:
            g = poly_gcd(acc_den, den)
            den_extra = den // g
            acc_num = acc_num * den_extra + num * (acc_den // g)
            acc_den = acc_den * den_extra
        assert not acc_num.is_zero


class TestRecurrenceTransfer:
    def test_depth_one_at_thirty_digits(self):
        assert verify_recurrence_transfer(1, 30)

    def test_depth_two_at_thirty_digits(self):
        assert verify_recurrence_transfer(2, 30)

    def test_depth_five_at_twenty_digits(self):
        assert verify_recurrence_transfer(5, 20)

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            verify_recurrence_transfer(0, 20)

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
            forward = (2 * n + 1) ** 2 * (2 * n + 2) ** 2 * catalan_p(n)
            middle = catalan_q(n)
            backward = (2 * n - 1) ** 2 * (2 * n) ** 2 * catalan_p(n + 1)
            residual = abs(
                int(forward) * values[2] - int(middle) * values[1] - int(backward) * values[0]
            )
            assert residual < mp.mpf(10) ** -45
