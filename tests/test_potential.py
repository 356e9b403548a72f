"""Potential assembly, bulk deformation, gradients, and Hessians."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpot import (EXACT, FLOAT, INF, BulkDeformation, BulkEntry,
                      NovikovSeries, PotentialFunction, build_example,
                      euler_check,
                      fano_bulk_potential, leading_potential, parse_series,
                      with_gapped_tail)
from toricpot.errors import (BadGappedTerm, NonUnitEvaluation, OutOfScope)


@pytest.fixture(scope="module")
def twoblow():
    return build_example("two_point_blowup", Fraction(2, 5), Fraction(3, 10))


class TestLeadingPotential:
    def test_cp1_terms(self):
        P = build_example("cp1")
        u = (Fraction(1, 3),)
        F = leading_potential(P, u, mode=EXACT)
        terms = {e: c for c, e in F.terms}
        assert terms[(1,)] == NovikovSeries.monomial(1, Fraction(1, 3))
        assert terms[(-1,)] == NovikovSeries.monomial(1, Fraction(2, 3))

    def test_one_term_per_facet_direction(self, twoblow):
        u = (Fraction(1, 3), Fraction(3, 10))
        F = leading_potential(P=twoblow, u=u, mode=EXACT)
        assert len(F.terms) == len(twoblow.facets)
        exps = {e for _, e in F.terms}
        assert exps == {f.v for f in twoblow.facets}

    def test_coefficient_orders_are_ell_values(self, twoblow):
        u = (Fraction(13, 40), Fraction(3, 10))
        F = leading_potential(twoblow, u, mode=EXACT)
        for f in twoblow.facets:
            assert F.coefficient(f.v).valuation() == f.ell(u)


class TestBulkDeformation:
    def test_plus_part_must_be_positive_order(self):
        with pytest.raises(ValueError):
            BulkDeformation({0: NovikovSeries.one()})

    def test_exp_factor_constant_for_zero_entry(self):
        b = BulkDeformation.zero(mode=FLOAT)
        assert b.exp_factor(3, trunc=2).coefficient(0) == 1

    def test_exp_factor_of_monomial(self):
        b = BulkDeformation({0: parse_series("T^1/2")})
        f = b.exp_factor(0, trunc=Fraction(3, 2))
        assert f.coefficient(0) == 1
        assert f.coefficient(Fraction(1, 2)) == 1
        assert f.coefficient(1) == Fraction(1, 2)

    def test_unit_split_entry(self):
        e = BulkEntry(parse_series("T^1", mode=FLOAT), unit=2.0)
        b = BulkDeformation({1: e}, mode=FLOAT)
        f = b.exp_factor(1, trunc=2)
        assert abs(f.coefficient(0) - 2.0) < 1e-12
        assert abs(f.coefficient(1) - 2.0) < 1e-12

    def test_fano_bulk_multiplies_facet_terms(self, twoblow):
        u = (Fraction(1, 3), Fraction(3, 10))
        w = 0.7 + 0.1j
        bulk = BulkDeformation(
            {1: NovikovSeries.monomial(w, Fraction(1, 100), mode=FLOAT)},
            mode=FLOAT)
        F = fano_bulk_potential(twoblow, u, bulk, trunc=1)
        c = F.coefficient((0, 1))
        ell = Fraction(3, 10)
        assert abs(c.coefficient(ell) - 1) < 1e-12
        assert abs(c.coefficient(ell + Fraction(1, 100)) - w) < 1e-12

    def test_non_fano_out_of_scope(self):
        # the second cut leaves a (-2)-curve
        P = build_example("k_point_blowup", Fraction(2, 5), Fraction(1, 50),
                          Fraction(1, 100))
        with pytest.raises(OutOfScope):
            fano_bulk_potential(P, (Fraction(13, 40), Fraction(3, 10)),
                                BulkDeformation.zero(mode=FLOAT), trunc=1)

    def test_gapped_tail_requires_higher_order(self, twoblow):
        u = (Fraction(1, 3), Fraction(3, 10))
        base = leading_potential(twoblow, u, mode=EXACT)
        tail = [(Fraction(1), (1, 1, 0, 0, 0), Fraction(1, 2))]
        G = with_gapped_tail(base, twoblow, u, tail)
        added = G.coefficient((1, 1))
        # ell_1 + ell_2 + gap on top of the leading (1,1) contribution
        gap_order = twoblow.facets[0].ell(u) + twoblow.facets[1].ell(u) \
            + Fraction(1, 2)
        assert added.coefficient(gap_order) == 1
        with pytest.raises(BadGappedTerm):
            with_gapped_tail(base, twoblow, u,
                             [(1, (1, 0, 0, 0, 0), Fraction(0))])
        with pytest.raises(BadGappedTerm):
            with_gapped_tail(base, twoblow, u,
                             [(1, (0, 0, 0, 0, 0), Fraction(1, 2))])


class TestCalculus:
    def test_equality_compares_merged_terms(self):
        a = NovikovSeries.monomial(1, Fraction(1, 2))
        F = PotentialFunction(2, [(a, (1, 0)), (NovikovSeries.const(3),
                                                (0, -1))])
        # terms are merged and sorted, so order and splitting do not matter
        assert F == PotentialFunction(2, [(NovikovSeries.const(1), (0, -1)),
                                          (a, (1, 0)),
                                          (NovikovSeries.const(2), (0, -1))])
        assert F != PotentialFunction(2, [(a, (1, 0)),
                                          (NovikovSeries.const(2), (0, -1))])
        assert PotentialFunction(2, []) != PotentialFunction(3, [])
        assert F != F.terms
        P = build_example("cp1")
        assert leading_potential(P, (Fraction(1, 3),)) \
            == leading_potential(P, (Fraction(1, 3),))

    def test_gradient_residual_zero_at_critical_point(self):
        P = build_example("cp1")
        F = leading_potential(P, (Fraction(1, 2),), mode=EXACT)
        for sign in (1, -1):
            res, kv = F.gradient_residual([NovikovSeries.const(sign)])
            assert kv is INF
            assert all(r.is_zero for r in res)

    def test_gradient_residual_detects_noncritical(self):
        P = build_example("cp1")
        F = leading_potential(P, (Fraction(1, 2),), mode=EXACT)
        _, kv = F.gradient_residual([NovikovSeries.const(2)])
        assert kv == Fraction(1, 2)

    def test_evaluate_requires_units(self):
        P = build_example("cp1")
        F = leading_potential(P, (Fraction(1, 2),), mode=EXACT)
        with pytest.raises(NonUnitEvaluation):
            F.evaluate([NovikovSeries.monomial(1, 1)])

    def test_hessian_cp1(self):
        P = build_example("cp1")
        F = leading_potential(P, (Fraction(1, 2),), mode=EXACT)
        hd = F.hessian([NovikovSeries.const(1)])
        assert hd.matrix[0][0] == NovikovSeries.monomial(2, Fraction(1, 2))
        assert not hd.degenerate
        assert hd.residue_self_pairing == NovikovSeries.monomial(
            Fraction(1, 2), Fraction(-1, 2))

    def test_hessian_symmetric(self, twoblow):
        u = (Fraction(13, 40), Fraction(3, 10))
        F = leading_potential(twoblow, u, mode=FLOAT, trunc=2)
        y = [NovikovSeries.const(1.0, mode=FLOAT),
             NovikovSeries.const(-1.0, mode=FLOAT)]
        hd = F.hessian(y)
        assert hd.matrix[0][1] == hd.matrix[1][0]

    def test_hessian_inverts_each_distinct_power_once(self, twoblow,
                                                      monkeypatch):
        # the terms y1^-1 y2^-1 and y2^-1 share y2^-1, so the term values
        # take one inverse for each of y1^-1 and y2^-1, and the residue
        # pairing takes one more
        u = (Fraction(13, 40), Fraction(3, 10))
        F = fano_bulk_potential(twoblow, u, BulkDeformation.zero(mode=FLOAT),
                                trunc=2)
        y = [NovikovSeries([(0, 1.5), (Fraction(1, 10), 0.3)], mode=FLOAT,
                           trunc=2),
             NovikovSeries([(0, -1.0), (Fraction(1, 40), 0.2)], mode=FLOAT,
                           trunc=2)]
        calls = []
        inverse = NovikovSeries.inverse

        def counted(self, *args, **kwargs):
            calls.append(self)
            return inverse(self, *args, **kwargs)

        monkeypatch.setattr(NovikovSeries, "inverse", counted)
        hd = F.hessian(y)
        assert not hd.degenerate
        assert len(calls) == 3

    def test_float_tolerance_has_no_floor(self):
        # a potential prunes at its coefficients' own tolerance, so a term
        # below the series default of 1e-10 survives a tolerance of 0
        c = NovikovSeries([(0, 5e-11)], mode=FLOAT, tol=0.0)
        F = PotentialFunction(1, [(c, (1,))])
        assert F.tol == 0.0
        value = F.evaluate([NovikovSeries.const(1.0, mode=FLOAT, tol=0.0)])
        assert value.terms == ((Fraction(0), 5e-11),)


class TestEulerIdentity:
    @pytest.mark.parametrize("name,params,u", [
        ("cp1", (), (Fraction(2, 5),)),
        ("cpn", (2,), (Fraction(1, 3), Fraction(1, 4))),
        ("two_point_blowup", (Fraction(2, 5), Fraction(3, 10)),
         (Fraction(13, 40), Fraction(3, 10))),
        ("one_point_blowup_monotone", (), (Fraction(1, 3), Fraction(1, 3))),
    ])
    def test_euler_identity_with_random_bulk(self, name, params, u):
        P = build_example(name, *params)
        rng = random.Random(f"euler-{name}")
        entries = {}
        for i in range(len(P.facets)):
            if rng.random() < 0.5:
                continue
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            kap = Fraction(rng.randint(1, 8), 20)
            entries[i] = NovikovSeries.monomial(w, kap, mode=FLOAT)
        bulk = BulkDeformation(entries, mode=FLOAT)
        equal, residual = euler_check(P, bulk, u, N=5)
        assert equal, f"Euler identity residual {residual}"


# -- reference: derive-then-evaluate, as PotentialFunction did before ------
#
# Each logarithmic derivative was built as a potential of its own, with
# every coefficient scaled by its exponent, and then evaluated term by term.

def _ref_log_derivative(F, k):
    return PotentialFunction(F.n, [(c.scale(e[k]), e) for c, e in F.terms
                                   if e[k] != 0])


def _ref_evaluate(F, y):
    total = NovikovSeries.zero(mode=F.mode, tol=F.tol)
    for coeff, expvec in F.terms:
        value = coeff
        for yi, fi in zip(y, expvec):
            if fi:
                value = value * (yi ** fi)
        total = total + value
    return total


def _ref_gradient(F, y):
    return [_ref_evaluate(_ref_log_derivative(F, k), y) for k in range(F.n)]


def _ref_hessian(F, y):
    return [[_ref_evaluate(_ref_log_derivative(_ref_log_derivative(F, i), j),
                           y) for j in range(F.n)] for i in range(F.n)]


@st.composite
def _potential_at_unit_point(draw, mode):
    """A potential in n <= 3 variables and a point with unit coordinates;
    float data are multiples of 1/7, so that no sum cancels to near the
    pruning tolerance, and the series themselves prune nothing."""
    n = draw(st.integers(1, 3))
    trunc = Fraction(draw(st.integers(1, 3)))
    tol = 0.0 if mode == FLOAT else 1e-10

    def scalar(nonzero=False):
        lo = 1 if nonzero else 0
        if mode == EXACT:
            sign = draw(st.sampled_from([1, -1]))
            return sign * Fraction(draw(st.integers(lo, 9)),
                                   draw(st.integers(1, 4)))
        return complex(draw(st.integers(lo, 9)),
                       draw(st.integers(-9, 9))) / 7

    def series(low, size):
        terms = [(Fraction(draw(st.integers(low, 9)), draw(st.integers(1, 3))),
                  scalar()) for _ in range(size)]
        return NovikovSeries(terms, trunc=trunc, mode=mode, tol=tol)

    exps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                         min_size=1, max_size=5))
    F = PotentialFunction(n, [(series(-3, draw(st.integers(1, 3))), e)
                              for e in exps])
    y = [NovikovSeries.const(scalar(nonzero=True), mode=mode, trunc=trunc,
                             tol=tol) + series(1, draw(st.integers(0, 2)))
         for _ in range(n)]
    return F, y


class TestDerivativesMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(_potential_at_unit_point(EXACT))
    def test_exact_equal(self, data):
        F, y = data
        assert F.evaluate(y) == _ref_evaluate(F, y)
        residuals, min_val = F.gradient_residual(y)
        assert residuals == _ref_gradient(F, y)
        assert min_val == min(r.valuation() for r in residuals)
        assert F.hessian(y).matrix == _ref_hessian(F, y)

    @settings(max_examples=150, deadline=None)
    @given(_potential_at_unit_point(FLOAT))
    def test_float_within_roundoff(self, data):
        F, y = data
        # the largest coefficient of any term value c_t y^(e_t)
        scale = max((abs(a) for c, e in F.terms for _, a in _ref_evaluate(
            PotentialFunction(F.n, [(c, e)]), y).terms), default=0.0)

        def close(a, b):
            da, db = dict(a.terms), dict(b.terms)
            return a.trunc == b.trunc and all(
                abs(da.get(x, 0) - db.get(x, 0)) <= 1e-12 * scale
                for x in da.keys() | db.keys())

        assert close(F.evaluate(y), _ref_evaluate(F, y))
        residuals, _ = F.gradient_residual(y)
        assert all(map(close, residuals, _ref_gradient(F, y)))
        for row, ref_row in zip(F.hessian(y).matrix, _ref_hessian(F, y)):
            assert all(map(close, row, ref_row))
