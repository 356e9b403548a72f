"""Moment polytope ingestion, validation, and z-variable rewriting."""

import random
from fractions import Fraction

import pytest

from toricpot import (MomentPolytope, Monomial, NovikovSeries, build_example,
                      lattice)
from toricpot.errors import BadKahlerParams, NotInLambda0P


@pytest.fixture(scope="module")
def twoblow():
    return build_example("two_point_blowup", Fraction(2, 5), Fraction(3, 10))


class TestExamples:
    @pytest.mark.parametrize("name,params", [
        ("cp1", ()),
        ("cpn", (2,)),
        ("cpn", (3,)),
        ("two_point_blowup", (Fraction(2, 5), Fraction(3, 10))),
        ("k_point_blowup", (Fraction(2, 5), Fraction(1, 50))),
        ("one_point_blowup_monotone", ()),
    ])
    def test_examples_validate(self, name, params):
        P = build_example(name, *params)
        report = P.validate()
        assert report.valid, report.failures

    @pytest.mark.parametrize("name,params", [
        ("cp1", ()),
        ("cpn", (2,)),
        ("cpn", (3,)),
        ("two_point_blowup", (Fraction(2, 5), Fraction(3, 10))),
        ("k_point_blowup", (Fraction(2, 5),)),
        ("k_point_blowup", (Fraction(2, 5), Fraction(1, 50))),
        ("k_point_blowup", (Fraction(2, 5), Fraction(1, 50),
                            Fraction(1, 100))),
        ("one_point_blowup_monotone", ()),
    ])
    def test_fano_label_matches_fan(self, name, params):
        # -K is ample iff at each vertex the m with <v_i, m> = -1 on the
        # active facets has <v_j, m> > -1 on every other facet
        P = build_example(name, *params)
        fano = True
        for vertex in P.vertices():
            assert len(vertex.active) == P.n
            m = lattice.solve([P.facets[i].v for i in vertex.active],
                              [-1] * P.n)
            fano &= all(sum(a * b for a, b in zip(f.v, m)) > -1
                        for j, f in enumerate(P.facets)
                        if j not in vertex.active)
        assert P.fano is fano

    def test_cp1_vertices(self):
        P = build_example("cp1")
        points = sorted(v.point for v in P.vertices())
        assert points == [(0,), (1,)]

    def test_cp2_vertices(self):
        P = build_example("cpn", 2)
        points = sorted(v.point for v in P.vertices())
        assert points == [(0, 0), (0, 1), (1, 0)]

    def test_two_point_blowup_vertex_count(self, twoblow):
        assert len(twoblow.vertices()) == 5

    def test_bad_parameters_rejected(self):
        with pytest.raises(BadKahlerParams):
            build_example("two_point_blowup", Fraction(3, 4), Fraction(3, 4))
        with pytest.raises(BadKahlerParams):
            build_example("nonexistent")


class TestGeometry:
    def test_interior(self, twoblow):
        assert twoblow.is_interior((Fraction(1, 3), Fraction(3, 10)))
        assert not twoblow.is_interior((Fraction(0), Fraction(1, 2)))
        assert not twoblow.is_interior((Fraction(2), Fraction(2)))

    def test_ell_values_positive_inside(self, twoblow):
        u = (Fraction(1, 3), Fraction(3, 10))
        assert all(e > 0 for e in twoblow.ell_values(u))

    def test_ell_values_explicit(self, twoblow):
        u = (Fraction(13, 40), Fraction(3, 10))
        ells = twoblow.ell_values(u)
        assert ells[0] == Fraction(13, 40)          # u1 >= 0
        assert ells[1] == Fraction(3, 10)           # u2 >= 0
        assert ells[2] == Fraction(3, 10)           # u2 <= 3/5
        assert ells[3] == Fraction(13, 40)          # u1+u2 >= 3/10
        assert ells[4] == Fraction(3, 8)            # u1+u2 <= 1

    @pytest.mark.parametrize("n, facets, failure", [
        # a square pyramid: four facets meet at its apex
        (3, [((0, 0, 1), 0), ((1, 0, -1), 0), ((0, 1, -1), 0),
             ((-1, 0, -1), -1), ((0, -1, -1), -1)],
         "vertex (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)) is not "
         "simple: 4 active facets"),
        # a triangle whose normals (1, 0), (-1, -2) span an index-2 lattice
        (2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), -1)],
         "vertex (Fraction(0, 1), Fraction(1, 2)) not unimodular: |det| = 2"),
        # the unit square and u1 <= 2, which touches it nowhere
        (2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1),
             ((-1, 0), -2)],
         "facet 4 ((-1, 0), -2) is redundant"),
        # a segment in Q^2: 0 <= u1 <= 1 and u2 = 0
        (2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), 0)],
         "no interior point: polytope is lower dimensional"),
    ], ids=["non-simple", "non-unimodular", "redundant", "no-interior"])
    def test_validation_failure_messages(self, n, facets, failure):
        report = MomentPolytope(n, facets).validate()
        assert not report.valid
        assert failure in report.failures

    def test_validation_flags_empty_polytope(self):
        P = MomentPolytope(1, [((1,), Fraction(1)), ((-1,), Fraction(0))])
        assert not P.validate().valid

    @pytest.mark.parametrize("n, facets, ray", [
        # a strip-like wedge u1 >= 0, u2 >= 0, u2 >= u1 - 1: opens along u2
        (2, [((1, 0), 0), ((0, 1), 0), ((-1, 1), -1)], (0, 1)),
        # a prism over a triangle, open along u3
        (3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
             ((-1, -1, 0), -1)], (0, 0, 1)),
        # half-lines u1 >= 0 and u1 <= 1 open along +u1 and -u1
        (1, [((1,), 0)], (1,)),
        (1, [((-1,), -1)], (-1,)),
    ])
    def test_validation_finds_recession_ray(self, n, facets, ray):
        P = MomentPolytope(n, [(v, Fraction(lam)) for v, lam in facets])
        assert P._recession_ray() == ray
        report = P.validate()
        assert not report.valid
        assert report.failures[0].startswith("unbounded: recession direction")

    @pytest.mark.parametrize("n, facets, ray", [
        # a strip in Q^2 and a slab in Q^3, each between u1 = 0 and u1 = 1;
        # in the slab no two normals have a kernel line
        (2, [((1, 0), 0), ((-1, 0), -1)], (0, 1)),
        (3, [((1, 0, 0), 0), ((-1, 0, 0), -1)], (0, 0, 1)),
    ])
    def test_rank_deficient_normals_give_a_kernel_ray(self, n, facets, ray):
        P = MomentPolytope(n, [(v, Fraction(lam)) for v, lam in facets])
        assert P._recession_ray() == ray
        assert all(sum(a * b for a, b in zip(f.v, ray)) == 0
                   for f in P.facets)
        assert P.validate().failures == [
            "unbounded: facet normals do not span the space"]

    def test_bounded_polytope_has_no_recession_ray(self):
        assert build_example("cpn", 3)._recession_ray() is None
        assert build_example("cp1")._recession_ray() is None


class TestZVariables:
    def test_facet_variable_valuation_is_ell(self, twoblow):
        # z_j = T^{-lambda_j} y^{v_j} has T-valuation ell_j(u) at the fiber
        rng = random.Random(21)
        for _ in range(20):
            u = (Fraction(rng.randint(1, 19), 40),
                 Fraction(rng.randint(1, 19), 40))
            if not twoblow.is_interior(u):
                continue
            for j, f in enumerate(twoblow.facets):
                val = -f.lam + sum(a * b for a, b in zip(f.v, u))
                assert val == f.ell(u)

    def test_rewrite_round_trip(self, twoblow):
        rng = random.Random(22)
        for _ in range(30):
            exps = (rng.randint(-2, 2), rng.randint(-2, 2))
            shift = Fraction(rng.randint(0, 8), 4)
            coeff = NovikovSeries.monomial(1, shift + 2)  # stay in Lambda0
            mono = Monomial(coeff, exps)
            try:
                zx = twoblow.monomial_to_z(mono)
            except NotInLambda0P:
                value, _ = twoblow.monomial_min_valuation(mono)
                assert value < 0
                continue
            assert all(p >= 0 for p in zx.powers.values())
            back = twoblow.z_expression_to_monomial(zx)
            assert back.expvec == mono.expvec
            assert back.coeff == mono.coeff

    def test_min_valuation_at_vertex(self, twoblow):
        mono = Monomial(NovikovSeries.one(), (1, 0))
        value, vx = twoblow.monomial_min_valuation(mono)
        assert value == min(v.point[0] for v in twoblow.vertices())

    def test_negative_valuation_rejected(self, twoblow):
        mono = Monomial(NovikovSeries.monomial(1, -5), (1, 1))
        with pytest.raises(NotInLambda0P):
            twoblow.monomial_to_z(mono)


class TestSerialization:
    def test_dict_round_trip(self, twoblow):
        Q = MomentPolytope.from_dict(twoblow.to_dict())
        assert Q.n == twoblow.n
        assert [(f.v, f.lam) for f in Q.facets] == \
            [(f.v, f.lam) for f in twoblow.facets]
        assert Q.name == twoblow.name
        assert Q.fano == twoblow.fano

    def test_repr(self, twoblow):
        assert repr(twoblow) == "MomentPolytope(two_point_blowup, n=2, m=5)"
        P = MomentPolytope(1, [((1,), Fraction(0)), ((-1,), Fraction(-1))])
        assert repr(P) == "MomentPolytope(unnamed, n=1, m=2)"

    def test_dict_shape(self, twoblow):
        d = twoblow.to_dict()
        assert d["n"] == 2
        assert all(set(f) >= {"v", "lambda"} for f in d["facets"])
