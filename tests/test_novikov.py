"""Series arithmetic over rational exponents, exact and floating modes."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpot import EXACT, FLOAT, INF, NovikovSeries, parse_series
from toricpot.errors import ModeMismatch, NeedsTranscendental


def S(*terms, **kw):
    return NovikovSeries(terms, **kw)


def rand_series(rng, mode=EXACT, nterms=None, maxden=6, lo=-3, hi=8):
    nterms = rng.randint(1, 5) if nterms is None else nterms
    terms = []
    for _ in range(nterms):
        den = rng.randint(1, maxden)
        e = Fraction(rng.randint(lo * den, hi * den), den)
        if mode == EXACT:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        else:
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        terms.append((e, c))
    return NovikovSeries(terms, mode=mode)


class TestConstruction:
    def test_merges_equal_exponents(self):
        s = S((0, 1), (0, 2), (Fraction(1, 2), 3))
        assert s.terms == ((Fraction(0), Fraction(3)),
                           (Fraction(1, 2), Fraction(3)))

    def test_exact_zero_dropped(self):
        s = S((1, 1), (1, -1))
        assert s.is_zero

    def test_terms_at_or_past_trunc_dropped(self):
        s = S((0, 1), (2, 5), trunc=2)
        assert s.terms == ((Fraction(0), Fraction(1)),)

    def test_float_prune(self):
        s = S((0, 1e-15), (1, 1.0), mode=FLOAT)
        assert s.terms == ((Fraction(1), 1.0 + 0j),)

    def test_immutable(self):
        s = NovikovSeries.one()
        with pytest.raises(AttributeError):
            s.trunc = 3

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ModeMismatch):
            NovikovSeries.one() + NovikovSeries.one(mode=FLOAT)


class TestValuation:
    def test_valuation_of_zero(self):
        assert NovikovSeries.zero().valuation() is INF

    def test_truncated_zero_factor_caps_product_knowledge(self):
        z = NovikovSeries.zero(trunc=3)
        a = NovikovSeries.one() + NovikovSeries.monomial(1, 1, trunc=10)
        assert (z * a).trunc == 3

    def test_membership(self):
        assert NovikovSeries.monomial(1, Fraction(1, 2)).in_lambda_plus()
        assert NovikovSeries.one().in_lambda0()
        assert not NovikovSeries.one().in_lambda_plus()
        assert NovikovSeries.one().is_unit()
        assert not NovikovSeries.monomial(1, -1).in_lambda0()

    def test_product_valuation_additive(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = rand_series(rng), rand_series(rng)
            assert (a * b).valuation() == a.valuation() + b.valuation()

    def test_ultrametric(self):
        rng = random.Random(8)
        for _ in range(200):
            a, b = rand_series(rng), rand_series(rng)
            va, vb = a.valuation(), b.valuation()
            vs = (a + b).valuation()
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)


class TestArithmetic:
    def test_ring_axioms_random(self):
        rng = random.Random(9)
        for _ in range(100):
            a, b, c = (rand_series(rng) for _ in range(3))
            assert a * b == b * a
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)

    def test_power(self):
        t = NovikovSeries.monomial(2, Fraction(1, 3))
        assert t ** 3 == NovikovSeries.monomial(8, 1)
        assert t ** 0 == NovikovSeries.one()
        assert t ** -2 == NovikovSeries.monomial(Fraction(1, 4),
                                                 Fraction(-2, 3))

    def test_product_truncation_credits_valuation(self):
        a = S((1, 1), trunc=3)          # known mod T^3
        b = NovikovSeries.monomial(1, 2)  # exact, valuation 2
        assert (a * b).trunc == 5

    def test_truncation_of_sum(self):
        a = S((0, 1), trunc=2)
        b = S((0, 1), trunc=3)
        assert (a + b).trunc == 2

    def test_truncation_monotone(self):
        rng = random.Random(10)
        for _ in range(100):
            a = rand_series(rng)
            t1 = Fraction(rng.randint(0, 12), rng.randint(1, 4))
            t2 = Fraction(rng.randint(0, 12), rng.randint(1, 4))
            assert a.truncate(t1).truncate(t2) == a.truncate(min(t1, t2))


class TestInversion:
    def test_unit_inverse_round_trip_exact(self):
        rng = random.Random(11)
        for _ in range(100):
            a = rand_series(rng, lo=0) + NovikovSeries.one()
            if not a.is_unit():
                continue
            t = Fraction(6)
            prod = (a * a.inverse(trunc=t)).truncate(t)
            assert prod == NovikovSeries.one().truncate(t)

    def test_nonunit_has_no_inverse_in_lambda0(self):
        t = NovikovSeries.monomial(1, 1)
        inv = t.inverse(trunc=3)
        assert inv.valuation() == -1

    def test_monomial_inverse_exact(self):
        t = NovikovSeries.monomial(2, Fraction(1, 2))
        assert t.inverse() == NovikovSeries.monomial(Fraction(1, 2),
                                                     Fraction(-1, 2))


class TestExp:
    def test_exp_of_plus_part_exact(self):
        a = NovikovSeries.monomial(1, 1, trunc=4)
        e = a.exp()
        for k in range(4):
            assert e.coefficient(k) == Fraction(1, math.factorial(k))

    def test_exact_unit_needs_transcendental(self):
        with pytest.raises(NeedsTranscendental):
            NovikovSeries.one().exp()

    def test_unit_split(self):
        a = NovikovSeries.one() + NovikovSeries.monomial(1, 1, trunc=3)
        e = a.exp(unit_exp=Fraction(2))
        assert e.coefficient(0) == 2
        assert e.coefficient(1) == 2

    def test_float_exp_matches_cmath(self):
        a = NovikovSeries.const(0.5 + 0.25j, mode=FLOAT, trunc=2)
        import cmath
        assert abs(a.exp().coefficient(0) - cmath.exp(0.5 + 0.25j)) < 1e-12


class TestSerialization:
    def test_records_round_trip_exact(self):
        rng = random.Random(12)
        for _ in range(50):
            a = rand_series(rng)
            assert NovikovSeries.from_records(a.to_records()) == a

    def test_records_round_trip_float(self):
        rng = random.Random(13)
        for _ in range(50):
            a = rand_series(rng, mode=FLOAT)
            b = NovikovSeries.from_records(a.to_records(), mode=FLOAT)
            assert a.approx_eq(b, tol=1e-14)

    def test_parse_literal(self):
        s = parse_series("1 + 2*T^1/2 - T^3")
        assert s == S((0, 1), (Fraction(1, 2), 2), (3, -1))

    def test_parse_negative_exponent(self):
        s = parse_series("3*T^-1/2")
        assert s == NovikovSeries.monomial(3, Fraction(-1, 2))


_fractions = st.fractions(min_value=-5, max_value=9, max_denominator=6)
_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=5)
_series = st.lists(st.tuples(_fractions, _coeffs), min_size=0,
                   max_size=6).map(lambda ts: NovikovSeries(ts))
_truncs = st.fractions(min_value=Fraction(1, 6), max_value=4,
                       max_denominator=6)
# the positive-valuation part of a random series, known mod T^trunc
_small = st.tuples(st.lists(st.tuples(_fractions, _coeffs), max_size=6),
                   _truncs).map(lambda a: NovikovSeries(
                       [(e, c) for e, c in a[0] if e > 0], trunc=a[1]))


def exp_by_powers(p):
    """Slow reference: sum of p^k / k! until the powers vanish mod trunc."""
    acc = power = NovikovSeries.one(trunc=p.trunc)
    k = 0
    while not power.is_zero:
        k += 1
        power = (power * p).truncate(p.trunc).scale(Fraction(1, k))
        acc = acc + power
    return acc


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(_series, _series)
    def test_product_valuation_and_commutativity(self, a, b):
        assert a * b == b * a
        if not a.is_zero and not b.is_zero:
            assert (a * b).valuation() == a.valuation() + b.valuation()

    @settings(max_examples=200, deadline=None)
    @given(_series, _series, _series)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=200, deadline=None)
    @given(_series, _series)
    def test_ultrametric_inequality(self, a, b):
        s = a + b
        if s.is_zero:
            return
        va, vb = a.valuation(), b.valuation()
        assert s.valuation() >= min(va, vb)
        if va != vb:
            assert s.valuation() == min(va, vb)

    @settings(max_examples=100, deadline=None)
    @given(_small)
    def test_exp_matches_power_sum(self, p):
        assert p.exp() == exp_by_powers(p)

    @settings(max_examples=100, deadline=None)
    @given(_small)
    def test_exp_of_negative_is_inverse(self, p):
        assert p.exp() * (-p).exp() == NovikovSeries.one(trunc=p.trunc)

    @settings(max_examples=100, deadline=None)
    @given(_small)
    def test_unit_inverse_round_trip(self, u):
        a = 1 + u
        assert a.inverse() * a == NovikovSeries.one(trunc=u.trunc)

    @settings(max_examples=100, deadline=None)
    @given(_small)
    def test_float_exp_matches_exact(self, p):
        exact = p.exp().to_float()
        scale = max(abs(c) for _, c in exact.terms)
        assert p.to_float().exp().approx_eq(exact, tol=1e-9 * scale)


class TestSupportRecurrenceCost:
    def test_sparse_support_on_fine_grid(self):
        # q = 1000, so a dense grid below the truncation has 3000 slots;
        # the monoid generated by the support has 9 elements below it
        p = S((Fraction(999, 1000), 1), (1, 1), trunc=3)
        t = time.perf_counter()
        e, fe, inv = p.exp(), p.to_float().exp(), (1 + p).inverse()
        assert time.perf_counter() - t < 0.2
        assert len(e.terms) == len(fe.terms) == len(inv.terms) == 9
        assert e.coefficient(2) == Fraction(1, 2)
        assert e.coefficient(Fraction(2997, 1000)) == Fraction(1, 6)
        assert inv.coefficient(Fraction(1999, 1000)) == 2
        assert fe.approx_eq(e.to_float(), tol=1e-12)


class TestDenseMul:
    def test_matches_naive_product(self):
        rng = random.Random(14)
        for _ in range(30):
            a = rand_series(rng, mode=FLOAT, nterms=20, maxden=4, lo=0, hi=4)
            b = rand_series(rng, mode=FLOAT, nterms=20, maxden=4, lo=0, hi=4)
            fast = a * b  # 20 x 20 terms through the sparse product
            slow = NovikovSeries.zero(mode=FLOAT)
            for e, c in a.terms:
                slow = slow + b.scale(c) * NovikovSeries.monomial(
                    1, e, mode=FLOAT)
            assert fast.approx_eq(slow, tol=1e-9)
