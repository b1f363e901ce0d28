import random
from fractions import Fraction
from math import comb

import pytest

from oracles import laurent_divide_reference

from kasteleyn.matrices import ring_adapter
from kasteleyn.rings import (
    DomainError,
    ExactDivisionError,
    LaurentPoly,
    RationalPoly,
    _kronecker_pack,
    _kronecker_unpack,
    _kronecker_width,
    cyclotomic,
    factor_q_round,
    format_laurent,
    gaussian_binomial,
    integer_squarefree,
    parse_laurent,
    q_integer,
    smooth_factor,
)


def L(text):
    return parse_laurent(text)


def random_laurent(rng, max_terms=5, max_exp=6, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(terms)


class TestQInteger:
    def test_small_values(self):
        assert q_integer(1) == LaurentPoly.one()
        assert q_integer(2) == L("1 + q")
        assert q_integer(3) == L("1 + q + q^2")

    def test_domain_error(self):
        with pytest.raises(DomainError):
            q_integer(0)
        with pytest.raises(DomainError):
            q_integer(-3)

    def test_product_at_one(self):
        for m in range(1, 7):
            for n in range(1, 7):
                assert (q_integer(m) * q_integer(n)).evaluate(1) == m * n


class TestGaussianBinomial:
    def test_base_cases(self):
        assert gaussian_binomial(2, 1) == q_integer(2)
        for n in range(0, 6):
            assert gaussian_binomial(n, 0) == LaurentPoly.one()
        assert gaussian_binomial(2, 5).is_zero()

    def test_4_choose_2(self):
        # oracle: expand (3)_q (4)_q and divide by (2)_q exactly
        expected = (q_integer(3) * q_integer(4)).divide(q_integer(2))
        assert gaussian_binomial(4, 2) == expected
        assert gaussian_binomial(4, 2) == L("1 + q + 2*q^2 + q^3 + q^4")

    def test_specializes_to_binomial(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                assert gaussian_binomial(n, k).evaluate(1) == comb(n, k)

    def test_pascal_recurrence(self):
        q = LaurentPoly.q_power(1)
        for n in range(1, 8):
            for k in range(1, n):
                lhs = gaussian_binomial(n, k)
                rhs = gaussian_binomial(n - 1, k - 1) + q ** k * gaussian_binomial(n - 1, k)
                assert lhs == rhs


class TestLaurentArithmetic:
    def test_ring_axioms_randomized(self):
        rng = random.Random(20260808)
        for _ in range(200):
            a, b, c = (random_laurent(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_exact_division_roundtrip(self):
        rng = random.Random(17)
        checked = 0
        while checked < 100:
            g = random_laurent(rng)
            h = random_laurent(rng)
            if g.is_zero():
                continue
            f = g * h
            assert f.divide(g) * g == f
            checked += 1

    def test_try_divide_against_long_division(self):
        # one-term divisors c0 q^e0 take the shift path; the rest long division
        rng = random.Random(20261018)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            c0 = rng.choice((1, -1, 2, -2, 3, -3))
            g = random_laurent(rng)
            for d in (LaurentPoly({rng.randint(-6, 6): c0}), g):
                if d.is_zero():
                    continue
                for f in (random_laurent(rng), d * random_laurent(rng), LaurentPoly.zero()):
                    want = laurent_divide_reference(f, d)
                    assert f.try_divide(d) == want
                    outcomes[want is None] += 1
        assert min(outcomes.values()) > 100

    def test_monomial_division(self):
        assert L("4*q^-2 + 6*q").try_divide(L("-2*q^-1")) == L("-2*q^-1 - 3*q^2")
        assert L("3*q^-2 + 4*q").try_divide(L("2*q^-1")) is None
        assert L("0").try_divide(L("3*q^5")).is_zero()
        assert L("q^-3 - q").try_divide(L("-q^-3")) == L("-1 + q^4")

    def test_division_abort(self):
        assert L("q + 2").try_divide(L("2")) is None
        assert L("1 + q + q^2").try_divide(L("1 + q")) is None
        with pytest.raises(ExactDivisionError):
            L("1 + q + q^2").divide(L("1 + q"))

    def test_unit_normalize(self):
        sign, exp, f = L("-q^-2 - q^-1").unit_normalize()
        assert (sign, exp) == (-1, -2)
        assert f == L("1 + q")
        for text in ("q^3", "-5*q^-1 + q^2", "7"):
            g = L(text)
            s, k, h = g.unit_normalize()
            assert LaurentPoly.q_power(k, s) * h == g


class TestSpecialize:
    def test_examples(self):
        assert q_integer(3).evaluate(1) == 3
        assert q_integer(2).evaluate(-1) == 0
        assert L("q^-1 + q").evaluate(-1) == -2

    def test_coefficient_sum(self):
        rng = random.Random(99)
        for _ in range(50):
            f = random_laurent(rng)
            assert f.evaluate(1) == sum(c for _, c in f.items())

    def test_zero_with_negative_exponents(self):
        with pytest.raises(DomainError):
            L("q^-1 + 1").evaluate(0)

    def test_rational_point(self):
        assert L("q^-1 + q").evaluate(Fraction(1, 2)) == Fraction(5, 2)

    def test_integer_point_matches_fraction_formula(self):
        # evaluation at an integer runs on ints; the value and its type
        # (int when integral, else Fraction) are those of the term-by-term
        # Fraction sum
        def by_fractions(f, q0):
            total = sum((c * Fraction(q0) ** e for e, c in f.items()), Fraction(0))
            return int(total) if total.denominator == 1 else total

        rng = random.Random(1015)
        fractional = 0
        for _ in range(300):
            f = LaurentPoly({rng.randint(-6, 6): rng.randint(-(1 << 70), 1 << 70)
                             for _ in range(rng.randint(0, 5))})
            for q0 in (-3, -2, -1, 1, 2, 5, Fraction(-2), Fraction(2, 3)):
                got, want = f.evaluate(q0), by_fractions(f, q0)
                assert type(got) is type(want) and got == want
                fractional += type(got) is Fraction
            if f.is_zero() or f.min_exp >= 0:
                assert f.evaluate(0) == f.coeff(0)
            else:
                with pytest.raises(DomainError):
                    f.evaluate(0)
        assert fractional > 300
        with pytest.raises(TypeError):
            L("q^-1 + q").evaluate(2.0)


class TestParsePrint:
    def test_examples_roundtrip(self):
        for text in ("1 - 2*q + q^3", "q^-1 + 1", "0", "-q", "3*q^-2 - 7"):
            f = parse_laurent(text)
            assert parse_laurent(format_laurent(f)) == f
            assert parse_laurent(format_laurent(f, compact=True)) == f

    def test_roundtrip_randomized(self):
        rng = random.Random(4)
        for _ in range(300):
            f = random_laurent(rng)
            assert parse_laurent(format_laurent(f)) == f
            assert parse_laurent(format_laurent(f, compact=True)) == f

    def test_rejects_garbage(self):
        garbage = ("", "q^", "* q", "1 + + q", "x + 1",
                   "abc", "2q", "1/0", "--q", "0.5*q", "1e2", "1 2", "1*-q", "+")
        for parse in (parse_laurent, ring_adapter("qpoly").parse):
            for bad in garbage:
                with pytest.raises(DomainError):
                    parse(bad)

    def test_ring_rules(self):
        # one grammar; Laurent refuses n/d coefficients, Q[q] negative exponents
        for bad in ("1/2", "3 - 2/2*q", "1/2 + 1/2"):
            with pytest.raises(DomainError):
                parse_laurent(bad)
        with pytest.raises(DomainError):
            RationalPoly.parse("1 + q^-1")
        assert parse_laurent("1 + q^-1") == LaurentPoly({0: 1, -1: 1})
        assert RationalPoly.parse("2/2 + 1/2*q + 1/2*q") == RationalPoly((1, 1))

    def test_rational_poly_text(self):
        p = RationalPoly((Fraction(1, 2), 0, -3))
        assert str(p) == "1/2 - 3*q^2"
        assert RationalPoly.parse(str(p)) == p
        assert ring_adapter("qpoly").to_str(p) == "1/2-3*q^2"
        assert str(RationalPoly((0, Fraction(-3, 4)))) == "-3/4*q"
        assert str(RationalPoly((1, 1))) == "1 + q" == format_laurent(L("1 + q"))

    def test_rational_poly_roundtrip_randomized(self):
        rng = random.Random(5)
        for _ in range(300):
            p = RationalPoly([rng.choice((0, 1, -1, rng.randint(-9, 9),
                                          Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
                              for _ in range(rng.randint(0, 6))])
            assert RationalPoly.parse(str(p)) == p
            assert RationalPoly.parse(p.to_str(compact=True)) == p


class TestFactorQRound:
    def test_single_q_integer(self):
        out = factor_q_round(L("1 + q + q^2"))
        assert out.success
        assert out.sign == 1 and out.exp == 0
        assert out.factor_names() == ("(3)_q",)

    def test_box_det_factorization(self):
        f = q_integer(2) * q_integer(2) * q_integer(5)
        out = factor_q_round(f)
        assert out.success
        assert sorted(out.factor_names()) == ["(2)_q", "(2)_q", "(5)_q"]
        assert out.rebuild() == f

    def test_unit_extraction(self):
        f = (q_integer(3) * LaurentPoly.q_power(-2, -1))
        out = factor_q_round(f)
        assert out.success
        assert (out.sign, out.exp) == (-1, -2)
        assert out.rebuild() == f

    def test_non_round_witness(self):
        f = L("1 + q + q^3")
        # independent oracle: no cyclotomic of degree <= 3 divides f
        for d in range(1, 2 * 9 + 3):
            phi = cyclotomic(d)
            if phi.span <= 3:
                assert f.try_divide(phi) is None
        out = factor_q_round(f)
        assert not out.success
        assert out.residual == f
        assert out.rebuild() == f

    def test_rebuild_random_products(self):
        rng = random.Random(7)
        for _ in range(40):
            f = LaurentPoly.one()
            for _ in range(rng.randint(1, 4)):
                f = f * q_integer(rng.randint(2, 6))
            f = f.shift(rng.randint(-3, 3))
            if rng.random() < 0.5:
                f = -f
            out = factor_q_round(f)
            assert out.success
            assert out.rebuild() == f

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factor_q_round(LaurentPoly.zero())


class TestCyclotomic:
    def test_first_few(self):
        assert cyclotomic(1) == L("-1 + q")
        assert cyclotomic(2) == L("1 + q")
        assert cyclotomic(3) == L("1 + q + q^2")
        assert cyclotomic(4) == L("1 + q^2")
        assert cyclotomic(6) == L("1 - q + q^2")

    def test_product_identity(self):
        for n in (4, 6, 12):
            prod = LaurentPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == LaurentPoly({n: 1, 0: -1})


class TestSmoothFactor:
    def test_examples(self):
        out = smooth_factor(20, 10)
        assert out.primes == (2, 2, 5) and out.residual == 1
        n = 4
        out = smooth_factor(2 ** (n * (n + 1) // 2), 2)
        assert set(out.primes) == {2} and out.residual == 1
        out = smooth_factor(97, 50)
        assert out.primes == () and out.residual == 97

    def test_rebuild_and_sign(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(-10**6, 10**6)
            if n == 0:
                continue
            out = smooth_factor(n, 30)
            assert out.rebuild() == n
            assert all(p <= 30 for p in out.primes)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            smooth_factor(0, 10)


class TestSquarefreeFromFactorization:
    """The square-free verdicts read off `factor_q_round` and `smooth_factor`
    against the gcd with the derivative over Q and against trial division,
    on seeded products built to hit both verdicts."""

    POOL = [q_integer(n) for n in range(2, 9)] + [cyclotomic(d) for d in range(1, 13)]
    RESIDUALS = [L("2 + q"), L("1 + q + 2*q^2"), L("3 + q^2"), L("1 + 2*q + 3*q^3"),
                 L("2 - q + 2*q^2")]

    def cyclotomic_product(self, rng):
        # up to four pool entries, each to the power 0, 1 or 2, and a unit
        f = LaurentPoly.q_power(rng.randint(-3, 3), rng.choice((1, -1)))
        for g in rng.sample(self.POOL, rng.randint(1, 4)):
            f = f * g ** rng.randint(0, 2)
        return f

    @staticmethod
    def agree(f):
        got = factor_q_round(f).is_squarefree()
        assert got == RationalPoly.from_laurent(f.normal()).is_squarefree(), str(f)
        return got

    def test_q_round_products(self, monkeypatch):
        rng = random.Random(28)
        # Phi_1 and overlapping q-integers: (2)_q (4)_q = Phi_2^2 Phi_4
        fixed = [q_integer(2) * q_integer(4), q_integer(3) * q_integer(6),
                 cyclotomic(1) * q_integer(5), cyclotomic(1) ** 2,
                 q_integer(4) * cyclotomic(4), q_integer(6) * cyclotomic(1)]
        cases = fixed + [self.cyclotomic_product(rng) for _ in range(60)]
        calls = []
        real = RationalPoly.is_squarefree
        monkeypatch.setattr(RationalPoly, "is_squarefree",
                            lambda self: calls.append(self) or real(self))
        # the verdict of a q-round product never reaches the gcd
        verdicts = [factor_q_round(f).is_squarefree() for f in cases]
        assert calls == []
        monkeypatch.undo()
        assert verdicts == [self.agree(f) for f in cases]
        assert verdicts[:6] == [False, False, True, False, False, True]
        assert True in verdicts[6:] and False in verdicts[6:]

    def test_non_cyclotomic_residuals(self):
        rng = random.Random(29)
        verdicts = []
        for _ in range(60):
            f = self.cyclotomic_product(rng) * rng.choice((2, 3))
            for g in rng.sample(self.RESIDUALS, rng.randint(1, 2)):
                f = f * g ** rng.randint(1, 2)
            assert factor_q_round(f).residual.span > 0
            verdicts.append(self.agree(f))
        assert True in verdicts and False in verdicts

    def test_integers_with_large_primes(self):
        rng = random.Random(30)
        bound = 13
        verdicts = []
        for _ in range(60):
            n = rng.choice((1, -1))
            for p in rng.sample((2, 3, 5, 7, 11, 13), rng.randint(0, 3)):
                n *= p ** rng.randint(0, 2)
            for _ in range(rng.randint(1, 2)):
                n *= rng.choice((17, 101, 1009, 10007, 65537))
            got = smooth_factor(n, bound).is_squarefree()
            assert got == integer_squarefree(n), n
            verdicts.append(got)
        assert True in verdicts and False in verdicts


def assert_stored_form(p):
    """Integral coefficients are ints, the others Fractions; never a float."""
    for c in p.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


class TestRationalPoly:
    def test_integral_coefficients_are_ints(self):
        p = RationalPoly((Fraction(4, 2), Fraction(1, 3)))
        assert p.coeffs == (2, Fraction(1, 3))
        assert [type(c) for c in p.coeffs] == [int, Fraction]
        m = RationalPoly((1, 2, 4)).monic()
        assert m.coeffs == (Fraction(1, 4), Fraction(1, 2), 1)
        a, b = RationalPoly((1, 2, 3)), RationalPoly((1, 2))
        q, r = a.divmod(b)
        assert q.coeffs == (Fraction(1, 4), Fraction(3, 2))
        assert r.coeffs == (Fraction(3, 4),)
        assert q * b + r == a
        # gcd 3q + 3 before normalization: the cofactors carry 1/3 exactly
        a, b = RationalPoly((3, 3)), RationalPoly((4, 6, 2))
        g, x, y = a.gcdext(b)
        assert g == RationalPoly((1, 1))
        assert x * a + y * b == g
        inverse = ring_adapter("qpoly").unit_inverse
        third, two = inverse(RationalPoly.const(3)), inverse(RationalPoly.const(Fraction(1, 2)))
        assert third.coeffs == (Fraction(1, 3),) and two.coeffs == (2,)
        for f in (p, m, q, r, g, x, y, third, two, q * b + r):
            assert_stored_form(f)

    def test_int_and_fraction_inputs_equal_and_hash_equal(self):
        pairs = [
            (RationalPoly((2, 0, -1)), RationalPoly((Fraction(2), Fraction(0), Fraction(-1)))),
            (RationalPoly((1, Fraction(1, 3))), RationalPoly((Fraction(3, 3), Fraction(2, 6)))),
            (RationalPoly((0, 0)), RationalPoly((Fraction(0),))),
            (RationalPoly.from_laurent(L("1 + 2*q")), RationalPoly((Fraction(1), Fraction(2)))),
            (RationalPoly.const(Fraction(5, 1)), RationalPoly.const(5)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            assert [type(c) for c in a.coeffs] == [type(c) for c in b.coeffs]
            assert_stored_form(a)
        assert RationalPoly.one().is_one() and RationalPoly((Fraction(2, 2),)).is_one()

    def test_divmod_and_gcd(self):
        a = RationalPoly((2, 3, 1))   # (q+1)(q+2)
        b = RationalPoly((1, 1))      # q+1
        q, r = a.divmod(b)
        assert r.is_zero() and q == RationalPoly((2, 1))
        assert a.gcd(RationalPoly((3, 4, 1))) == RationalPoly((1, 1))  # (q+1)(q+3)

    def test_gcdext(self):
        a = RationalPoly((0, 0, 1))
        b = RationalPoly((1, 1))
        g, x, y = a.gcdext(b)
        assert g.is_one()
        assert x * a + y * b == g

    def test_laurent_conversion(self):
        f = L("1 + 2*q + q^4")
        assert RationalPoly.from_laurent(f).to_laurent() == f

    def test_primitive_form(self):
        f = RationalPoly((Fraction(1, 2), Fraction(3, 2)))
        assert f.primitive_integer_form() == RationalPoly((1, 3))
        g = RationalPoly((2, -4))
        assert g.primitive_integer_form() == RationalPoly((-1, 2))

    def test_squarefree(self):
        assert RationalPoly((1, 1)).is_squarefree()
        assert not (RationalPoly((1, 1)) * RationalPoly((1, 1))).is_squarefree()


def test_integer_squarefree():
    assert integer_squarefree(1)
    assert integer_squarefree(30)
    assert not integer_squarefree(12)
    assert not integer_squarefree(0)
    assert integer_squarefree(-97)


class TestExactCoefficients:
    """The exact rings refuse a coefficient whose value they would have to
    round: a float anywhere, a non-integral Fraction in Z[q, q^-1]."""

    def test_laurent_refuses_inexact_coefficients(self):
        for make in (lambda: LaurentPoly({0: Fraction(7, 2)}),
                     lambda: LaurentPoly.const(Fraction(7, 2)),
                     lambda: LaurentPoly.q_power(3, 2.9),
                     lambda: LaurentPoly({0: 1e30}),
                     lambda: LaurentPoly.const(2.0),
                     lambda: LaurentPoly([(1, Fraction(1, 3))])):
            with pytest.raises(TypeError):
                make()

    def test_laurent_keeps_ints_bools_and_integral_fractions(self):
        f = LaurentPoly({0: Fraction(6, 2), 1: True, 2: 10 ** 30, 3: False})
        assert f.items() == [(0, 3), (1, 1), (2, 10 ** 30)]
        assert all(type(c) is int for _, c in f.items())
        assert LaurentPoly.const(Fraction(-4, 2)) == -2
        assert LaurentPoly.q_power(3, Fraction(4, 2)) == L("2*q^3")
        assert LaurentPoly.q_power(-1, True) == L("q^-1")

    def test_rational_refuses_floats(self):
        for make in (lambda: RationalPoly.const(0.1),
                     lambda: RationalPoly([1, 0.5]),
                     lambda: RationalPoly((Fraction(1, 3), 2.0))):
            with pytest.raises(TypeError):
                make()
        p = RationalPoly((True, Fraction(4, 2), Fraction(1, 10)))
        assert p.coeffs == (1, 2, Fraction(1, 10))
        assert_stored_form(p)

    def test_text_round_trip(self):
        for text in ("1 - 2*q + q^3", "q^-1 + 1", "0", "-q", "3*q^-2 - 7 + 10*q^5",
                     f"{10 ** 30}*q^-4 - 7"):
            f = parse_laurent(text)
            assert format_laurent(f) == text
            assert parse_laurent(format_laurent(f, compact=True)) == f
        for text in ("1/2 - 3*q^2", "0", "-3/4*q + q^7"):
            p = RationalPoly.parse(text)
            assert p.to_str() == text and RationalPoly.parse(p.to_str(compact=True)) == p


class TestKroneckerCodec:
    """The one Kronecker codec of the packed determinant and the matching
    oracle: a term map packed at q = 2^b reads back exactly, and so does a
    product of packed values when b is the width for its L1 bound."""

    @staticmethod
    def terms(rng, bits):
        return {e: c for e, c in ((rng.randint(-5, 5), rng.randint(-(1 << bits), 1 << bits))
                                  for _ in range(rng.randint(0, 6))) if c}

    def test_width_leaves_room_for_a_sign(self):
        assert [_kronecker_width(n) for n in (0, 1, 2, 3, 4, 255, 256)] == [2, 2, 3, 3, 4, 9, 10]

    def test_round_trip(self):
        rng = random.Random(3301)
        for _ in range(300):
            t = self.terms(rng, rng.choice((1, 8, 70)))
            lo = min(t, default=0) - rng.randint(0, 3)
            b = _kronecker_width(max(map(abs, t.values()), default=0))
            assert _kronecker_unpack(_kronecker_pack(t, b, lo), b, lo) == t

    def test_products_read_back(self):
        rng = random.Random(3302)
        for _ in range(200):
            f, g = (LaurentPoly(self.terms(rng, rng.choice((1, 20)))) for _ in range(2))
            lf, lg = (min(x._terms, default=0) for x in (f, g))
            bound = sum(map(abs, f._terms.values())) * sum(map(abs, g._terms.values()))
            b = _kronecker_width(bound)
            value = _kronecker_pack(f._terms, b, lf) * _kronecker_pack(g._terms, b, lg)
            assert LaurentPoly._from_terms(_kronecker_unpack(value, b, lf + lg)) == f * g
