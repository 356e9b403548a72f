"""Series arithmetic over rational exponents, exact and floating modes."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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

    def test_exact_zero_float_coefficient_dropped_for_any_tol(self):
        s = NovikovSeries([(0, 1.0), (1, 0.0)], mode=FLOAT, tol=0.0)
        assert s.terms == ((Fraction(0), 1 + 0j),)
        assert (s - s).is_zero

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

    def test_float_constant_inverse_without_pruning(self):
        # c * (1/c) - 1 leaves 4e-17 here, which no tolerance this small
        # prunes; the constant term of the unit part is dropped exactly
        c = NovikovSeries.const(0.25 + 0.75j, mode=FLOAT, tol=1e-300)
        inv = c.inverse()
        assert len(inv.terms) == 1
        assert inv.valuation() == 0
        assert abs(inv.coefficient(0) - (0.4 - 1.2j)) < 1e-15

    def test_float_one_inverse_with_zero_tolerance(self):
        one = NovikovSeries.one(mode=FLOAT, tol=0.0)
        assert one.inverse() == one
        assert one.inverse().coefficient(0) == 1


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


# -- reference: Fraction-keyed dict arithmetic ------------------------------
#
# A series as ({exponent: coefficient}, trunc) with Fraction exponents,
# the representation NovikovSeries used before int exponent indices.
# Products accumulate in the same order (both factors by increasing
# exponent), so float results must agree bit for bit as well.

def ref(s):
    return dict(s.terms), s.trunc


def ref_clean(d, trunc, tol=0.0):
    return {e: c for e, c in d.items()
            if e < trunc and c != 0 and not abs(c) < tol}, trunc


def ref_add(a, b, tol=0.0):
    (da, ta), (db, tb) = a, b
    out = dict(da)
    for e, c in db.items():
        out[e] = out[e] + c if e in out else c
    return ref_clean(out, min(ta, tb), tol)


def ref_neg(a):
    return {e: -c for e, c in a[0].items()}, a[1]


def ref_mul(a, b, tol=0.0):
    (da, ta), (db, tb) = a, b
    va = min(da) if da else ta
    vb = min(db) if db else tb
    trunc = min([t + v for t, v in ((ta, vb), (tb, va))
                 if t is not INF and v is not INF], default=INF)
    out = {}
    for ea in sorted(da):
        for eb in sorted(db):
            if ea + eb < trunc:
                out[ea + eb] = out.get(ea + eb, 0) + da[ea] * db[eb]
    return ref_clean(out, trunc, tol)


def ref_truncate(a, order):
    return ref_clean(a[0], min(a[1], order))


def ref_exp(p):
    """exp(p), p of positive valuation known mod T^trunc: sum of p^k/k!."""
    acc = power = ({Fraction(0): Fraction(1)}, p[1])
    k = 0
    while power[0]:
        k += 1
        power = ref_truncate(ref_mul(power, p), p[1])
        power = ({e: c / k for e, c in power[0].items()}, power[1])
        acc = ref_add(acc, power)
    return acc


def ref_inverse(a):
    """1/a for a = c T^v (1 + u) known mod T^trunc: T^-v/c times the
    geometric series of -u, known mod T^(trunc - 2v)."""
    d, trunc = a
    v = min(d)
    c = d[v]
    minus_u = ({e - v: -x / c for e, x in d.items() if e != v}, trunc - v)
    acc = power = ({Fraction(0): Fraction(1)}, trunc - v)
    while power[0]:
        power = ref_truncate(ref_mul(power, minus_u), trunc - v)
        acc = ref_add(acc, power)
    return ref_clean({e - v: x / c for e, x in acc[0].items()}, trunc - 2 * v)


def same(s, r):
    """``s`` holds exactly the reference series ``r``."""
    return s.terms == tuple(sorted(r[0].items())) and s.trunc == r[1]


# exponents and truncations on mixed denominators up to 12; a truncation
# whose denominator no term has is drawn as often as one that matches
_mixed_exps = st.fractions(min_value=-3, max_value=5, max_denominator=12)
_mixed_truncs = st.one_of(st.just(INF), st.fractions(
    min_value=-2, max_value=6, max_denominator=12))
# small coefficients, and as often numerators up to 10^12 over
# denominators up to 10^6, so that sums and products meet coprime and
# shared denominators far from 1
_big_coeffs = st.builds(Fraction, st.integers(-10**12, 10**12),
                        st.integers(1, 10**6))
_wide_coeffs = st.one_of(_coeffs, _big_coeffs)
_mixed = st.builds(
    lambda ts, t: NovikovSeries(ts, trunc=t),
    st.lists(st.tuples(_mixed_exps, _wide_coeffs), max_size=5), _mixed_truncs)
_mixed_float = st.builds(
    lambda ts, t: NovikovSeries(ts, trunc=t, mode=FLOAT),
    st.lists(st.tuples(_mixed_exps, st.complex_numbers(
        max_magnitude=4, allow_nan=False, allow_infinity=False)),
        max_size=5), _mixed_truncs)
# positive-valuation part with a finite truncation, for exp
_mixed_small = st.builds(
    lambda ts, t: NovikovSeries([(e, c) for e, c in ts if e > 0], trunc=t),
    st.lists(st.tuples(st.fractions(min_value=Fraction(1, 4), max_value=3,
                                    max_denominator=12), _wide_coeffs),
             max_size=4),
    st.fractions(min_value=Fraction(1, 12), max_value=2, max_denominator=12))
# nonzero, known mod T^(v + t) past its valuation v, for inverse
_invertible = st.builds(
    lambda v, c, tail, t: NovikovSeries(
        [(v, c)] + [(v + d, x) for d, x in tail], trunc=v + t),
    _mixed_exps, _wide_coeffs.filter(bool),
    st.lists(st.tuples(st.fractions(min_value=Fraction(1, 4), max_value=3,
                                    max_denominator=12), _wide_coeffs),
             max_size=4),
    st.fractions(min_value=Fraction(1, 12), max_value=3, max_denominator=12))
_zero_with_trunc = NovikovSeries.zero(trunc=Fraction(5, 7))
_odd_trunc = NovikovSeries([(Fraction(1, 2), 3), (Fraction(-1, 3), 1)],
                           trunc=Fraction(9, 5))
# coefficient denominators 999983 and 999979 (primes), or 999983, 10^6
# and 2^6 (10^6 and 2^6 share a factor), with numerators near 10^12 that
# cancel between _big_coprime and _big_shared
_big_coprime = NovikovSeries(
    [(0, Fraction(10**12 - 1, 999983)), (Fraction(1, 3), Fraction(-7, 999979)),
     (Fraction(5, 4), Fraction(10**12, 999979))], trunc=Fraction(11, 4))
_big_shared = NovikovSeries(
    [(0, Fraction(-(10**12 - 1), 999983)), (Fraction(1, 3), Fraction(3, 10**6)),
     (Fraction(1, 2), Fraction(999999, 2**6))], trunc=Fraction(7, 3))
_big_small = NovikovSeries(
    [(Fraction(1, 4), Fraction(10**12 - 11, 999983)),
     (Fraction(2, 3), Fraction(-(10**12), 7))], trunc=Fraction(13, 6))


def ref_scale(a, c):
    return ref_clean({e: c * x for e, x in a[0].items()}, a[1])


class TestAgainstFractionReference:
    @settings(max_examples=100, deadline=None)
    @given(_mixed, _mixed)
    @example(_zero_with_trunc, _odd_trunc)
    @example(_odd_trunc, _zero_with_trunc)
    @example(_zero_with_trunc, NovikovSeries.zero())
    @example(_big_coprime, _big_shared)
    @example(_big_shared, _big_small)
    @example(_big_coprime, _big_coprime)
    def test_sum_difference_product(self, a, b):
        assert same(a + b, ref_add(ref(a), ref(b)))
        assert same(a - b, ref_add(ref(a), ref_neg(ref(b))))
        assert same(a * b, ref_mul(ref(a), ref(b)))
        assert same(-a, ref_neg(ref(a)))

    @settings(max_examples=100, deadline=None)
    @given(_mixed_float, _mixed_float)
    def test_float_sum_and_product_bit_for_bit(self, a, b):
        assert same(a + b, ref_add(ref(a), ref(b), tol=a.tol))
        assert same(a * b, ref_mul(ref(a), ref(b), tol=a.tol))

    @settings(max_examples=100, deadline=None)
    @given(_mixed, st.one_of(_wide_coeffs, st.integers(-10**6, 10**6)))
    @example(_big_coprime, 0)
    @example(_big_coprime, Fraction(0))
    @example(_big_coprime, Fraction(999983, 10**12 - 1))
    @example(_big_shared, Fraction(-(10**6), 3))
    @example(_zero_with_trunc, Fraction(2, 3))
    def test_scale(self, a, c):
        assert same(a.scale(c), ref_scale(ref(a), Fraction(c)))
        assert same(a * c, ref_scale(ref(a), Fraction(c)))

    @settings(max_examples=100, deadline=None)
    @given(_mixed, _mixed_exps)
    @example(_odd_trunc, Fraction(1, 7))
    @example(_zero_with_trunc, Fraction(1, 3))
    @example(_big_coprime, Fraction(1, 3))
    @example(_big_shared, Fraction(1, 2))
    def test_truncate(self, a, order):
        assert same(a.truncate(order), ref_truncate(ref(a), order))

    @settings(max_examples=100, deadline=None)
    @given(_mixed_small)
    @example(NovikovSeries([(Fraction(1, 3), 2)], trunc=Fraction(7, 4)))
    @example(NovikovSeries.zero(trunc=Fraction(3, 5)))
    @example(_big_small)
    @example(NovikovSeries([(Fraction(1, 2), Fraction(10**12 - 1, 999983)),
                            (Fraction(3, 4), Fraction(5, 10**6))], trunc=2))
    def test_exp(self, p):
        assert same(p.exp(), ref_exp(ref(p)))

    @settings(max_examples=100, deadline=None)
    @given(_invertible)
    @example(_odd_trunc)
    @example(_big_coprime)
    @example(_big_shared)
    @example(_big_small)
    def test_inverse(self, a):
        assert same(a.inverse(), ref_inverse(ref(a)))


def _by_other_paths(a):
    """Series equal to ``a`` built without its constructor call."""
    t = a.trunc
    x = NovikovSeries([(Fraction(1, 5), 2), (Fraction(-2, 3), 1)])
    yield (a + x) - x
    yield -(-a)
    yield a * NovikovSeries.one()
    yield a.scale(2).scale(Fraction(1, 2))
    yield 1 - (1 - a)                                   # __rsub__
    yield NovikovSeries.from_records(a.to_records(), mode=EXACT, trunc=t)
    wider = NovikovSeries(a.terms + ((t + 1, 5),) if t is not INF else a.terms,
                          trunc=INF if t is INF else t + 2)
    yield wider.truncate(t)
    yield NovikovSeries(reversed(a.terms), trunc=t)
    big = Fraction(10**12 - 1, 999983)
    yield a.scale(big).scale(1 / big)
    yield a * NovikovSeries.const(big) * NovikovSeries.const(1 / big)
    y = NovikovSeries([(0, big), (Fraction(1, 3), Fraction(-7, 10**6))])
    yield (a - y) + y
    yield a + a.scale(0)
    yield a.scale(3) - a.scale(2)


class TestCanonicalStorage:
    @settings(max_examples=100, deadline=None)
    @given(_mixed)
    @example(_zero_with_trunc)
    @example(_odd_trunc)
    @example(_big_coprime)
    @example(_big_shared)
    def test_equal_series_are_equal_and_hash_equal(self, a):
        for b in _by_other_paths(a):
            assert b == a
            assert hash(b) == hash(a)
            assert b.terms == a.terms and b.trunc == a.trunc

    @settings(max_examples=100, deadline=None)
    @given(_mixed, _mixed)
    def test_denominator_is_least(self, a, b):
        for s in (a, a + b, a * b, a.truncate(Fraction(7, 3))):
            dens = [e.denominator for e, _ in s.terms]
            if s.trunc is not INF:
                dens.append(s.trunc.denominator)
            assert s._q == math.lcm(*dens)

    @settings(max_examples=100, deadline=None)
    @given(_mixed, _mixed, _wide_coeffs)
    @example(_big_coprime, _big_shared, Fraction(999983, 10**12 - 1))
    @example(_big_shared, _big_shared, Fraction(0))
    def test_coefficient_denominator_is_least(self, a, b, c):
        # the numerators over one denominator are in lowest terms: the
        # denominator is the lcm of the coefficients' own ones (1 for 0)
        for s in (a, a + b, a - b, a * b, a.truncate(Fraction(1, 3)),
                  a.scale(c), a.scale(0), a.scale(Fraction(-3, 10**6))):
            assert s._den == math.lcm(*[x.denominator for _, x in s.terms])
            if s.is_zero:
                assert s._den == 1

    def test_rsub_with_scalars(self):
        a = parse_series("2 + T^1/3", trunc=Fraction(3, 2))
        assert 3 - a == parse_series("1 - T^1/3", trunc=Fraction(3, 2))
        assert hash(3 - a) == hash(-(a - 3))
        f = a.to_float()
        assert (1.5 - f).approx_eq(-(f - 1.5), tol=0)


def _storage(s):
    return (s._q, s._idx, s._coeffs, s._den, s._cap, s.mode, s.tol)


class TestDirectConstructors:
    """``zero``, ``const``, ``one`` and ``monomial`` store their one term
    directly; the result is what the generic constructor stores."""

    @settings(max_examples=100, deadline=None)
    @given(_mixed_exps, st.one_of(_wide_coeffs, st.just(0), st.integers(-5, 5)),
           _mixed_truncs)
    @example(Fraction(5, 7), Fraction(3), Fraction(5, 7))   # at trunc
    @example(Fraction(1, 3), 0, Fraction(7, 4))            # zero term
    def test_exact_monomial(self, e, c, t):
        want = NovikovSeries([(e, c)], trunc=t)
        assert _storage(NovikovSeries.monomial(c, e, trunc=t)) == \
            _storage(want)
        if e == 0:
            assert _storage(NovikovSeries.const(c, trunc=t)) == \
                _storage(want)

    @settings(max_examples=100, deadline=None)
    @given(_mixed_exps, st.one_of(
        st.complex_numbers(max_magnitude=4, allow_nan=False,
                           allow_infinity=False),
        st.just(1e-12), st.just(0.0)), _mixed_truncs)
    def test_float_monomial(self, e, c, t):
        want = NovikovSeries([(e, c)], trunc=t, mode=FLOAT)
        assert _storage(NovikovSeries.monomial(c, e, trunc=t, mode=FLOAT)) \
            == _storage(want)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("t", [INF, Fraction(0), Fraction(5, 7),
                                   Fraction(-3, 2), Fraction(4)])
    def test_zero_and_one(self, mode, t):
        assert _storage(NovikovSeries.zero(mode=mode, trunc=t)) == \
            _storage(NovikovSeries((), trunc=t, mode=mode))
        assert _storage(NovikovSeries.one(mode=mode, trunc=t, tol=0.5)) == \
            _storage(NovikovSeries([(0, 1)], trunc=t, mode=mode, tol=0.5))

    def test_checks_as_the_constructor(self):
        with pytest.raises(ModeMismatch):
            NovikovSeries.const(0.5)
        with pytest.raises(TypeError):
            NovikovSeries.monomial(1, 0.5)
        with pytest.raises(TypeError):
            NovikovSeries.zero(trunc=0.5)
        with pytest.raises(ValueError):
            NovikovSeries.one(mode="double")
        assert NovikovSeries.monomial(2, INF).is_zero


# -- the Fraction boundary of exact series ----------------------------------

# numerators and denominators far beyond 2^53 (the float mantissa), with
# quotients inside the float range
_huge_coeffs = st.builds(Fraction, st.integers(-2**200, 2**200),
                         st.integers(1, 2**180))
_exact_dicts = st.dictionaries(
    _mixed_exps, st.one_of(_wide_coeffs, _huge_coeffs).filter(bool),
    max_size=6)


def ref_repr(terms, trunc):
    """``repr`` of a series from its ``(exponent, Fraction)`` terms."""
    body = " + ".join(f"{c}" if e == 0 else f"{c}*T^{e}"
                      for e, c in terms) or "0"
    if trunc is not INF:
        body += f" (mod T^{trunc})"
    return f"<{body}>"


def bits(z):
    return z.real.hex(), z.imag.hex()


class TestFractionBoundary:
    @settings(max_examples=200, deadline=None)
    @given(_exact_dicts)
    @example({Fraction(0): Fraction(2**53 + 1, 3**40),
              Fraction(1, 2): Fraction(-(10**30) - 7, 2**60 + 1),
              Fraction(2, 3): Fraction(2**200 - 1, 2**180 - 1)})
    @example({Fraction(1, 3): Fraction(1, 10**320),      # subnormal
              Fraction(1, 2): Fraction(10**300, 3)})
    def test_to_float_is_complex_of_fraction_bit_for_bit(self, d):
        # the numerators share a denominator, the lcm of the ones of d
        f = NovikovSeries(d.items()).to_float(tol=0.0)
        for e, c in d.items():
            assert bits(f.coefficient(e)) == bits(complex(c))

    @settings(max_examples=100, deadline=None)
    @given(_exact_dicts, _mixed_truncs)
    @example({Fraction(-1, 2): Fraction(10**12 + 1, 999983),
              Fraction(0): Fraction(1, 2), Fraction(1, 3): Fraction(-2)},
             Fraction(7, 3))
    @example({}, INF)
    @example({Fraction(1, 4): Fraction(3, 10**6)}, Fraction(1, 4))
    def test_fractions_and_strings(self, d, t):
        a = NovikovSeries(d.items(), trunc=t)
        want = sorted((e, c) for e, c in d.items() if e < t)
        assert a.terms == tuple(want)
        assert all(type(c) is Fraction for _, c in a.terms)
        for e in list(d) + [Fraction(1, 97)]:
            c = a.coefficient(e)
            assert type(c) is Fraction and c == dict(want).get(e, 0)
        # the constant term, when it is the lowest one
        r = a.reduction()
        assert type(r) is Fraction
        assert r == (want[0][1] if want and want[0][0] == 0 else 0)
        if want:
            assert a.leading() == want[0]
            assert type(a.leading()[1]) is Fraction
        assert a.to_records() == [{"exp": str(e), "num": str(c)}
                                  for e, c in want]
        assert NovikovSeries.from_records(a.to_records(), trunc=t) == a
        assert repr(a) == ref_repr(want, t)

    def test_pinned_strings(self):
        a = NovikovSeries([(0, Fraction(1, 2)), (Fraction(1, 3), -2),
                           (Fraction(-1, 2), Fraction(10**12 + 1, 999983))],
                          trunc=Fraction(7, 3))
        assert repr(a) == ("<1000000000001/999983*T^-1/2 + 1/2 + -2*T^1/3 "
                           "(mod T^7/3)>")
        assert a.to_records() == [
            {"exp": "-1/2", "num": "1000000000001/999983"},
            {"exp": "0", "num": "1/2"}, {"exp": "1/3", "num": "-2"}]
        assert a.to_float(tol=0).to_records() == [
            {"exp": "-1/2", "re": 1000017.0002900049, "im": 0.0},
            {"exp": "0", "re": 0.5, "im": 0.0},
            {"exp": "1/3", "re": -2.0, "im": 0.0}]
        assert repr(NovikovSeries.zero(trunc=3)) == "<0 (mod T^3)>"
        assert repr(NovikovSeries.zero()) == "<0>"
