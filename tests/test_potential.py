"""Potential assembly, bulk deformation, gradients, and Hessians."""

import random
from fractions import Fraction

import pytest

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
        P = build_example("k_point_blowup", Fraction(2, 5), Fraction(1, 50))
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
