"""Level structures, flag bases, and (generalized) leading term equations."""

from fractions import Fraction

import pytest

from toricpot import (MomentPolytope, build_example, flag_basis,
                      leading_equations, level_structure)
from toricpot import lattice


@pytest.fixture(scope="module")
def twoblow():
    return build_example("two_point_blowup", Fraction(2, 5), Fraction(3, 10))


class TestLevelStructure:
    def test_cp2_center_single_level(self):
        P = build_example("cpn", 2)
        ls = level_structure(P, (Fraction(1, 3), Fraction(1, 3)))
        assert len(ls.levels) == 1
        assert ls.levels[0].S == Fraction(1, 3)
        assert ls.K == 1
        assert ls.d == [2]

    def test_two_point_blowup_levels(self, twoblow):
        ls = level_structure(twoblow, (Fraction(13, 40), Fraction(3, 10)))
        assert [lev.S for lev in ls.levels] == \
            [Fraction(3, 10), Fraction(13, 40), Fraction(3, 8)]
        assert [sorted(i for i, _ in lev.members) for lev in ls.levels] == \
            [[1, 2], [0, 3], [4]]
        assert ls.d == [1, 1, 0]
        assert ls.K == 2

    def test_flag_never_full(self):
        # generic fiber of cp2: distinct levels but the first level spans
        # only one direction and subsequent directions repeat it
        P = build_example("cp1")
        ls = level_structure(P, (Fraction(1, 3),))
        assert ls.K == 1  # one facet at level 1 spans everything for n=1

    def test_levels_increasing_and_exhaustive(self, twoblow):
        u = (Fraction(17, 40), Fraction(11, 40))
        ls = level_structure(twoblow, u)
        values = [lev.S for lev in ls.levels]
        assert values == sorted(set(values))
        members = [i for lev in ls.levels for i, _ in lev.members]
        assert sorted(members) == list(range(len(twoblow.facets)))


class TestFlagBasis:
    def test_rows_are_unimodular_when_full(self, twoblow):
        ls = level_structure(twoblow, (Fraction(13, 40), Fraction(3, 10)))
        fb = flag_basis(ls)
        det = lattice.det([list(r) for r in fb.rows])
        assert abs(det) == 1

    def test_prefix_spans_match_level_increments(self, twoblow):
        ls = level_structure(twoblow, (Fraction(13, 40), Fraction(3, 10)))
        fb = flag_basis(ls)
        count = 0
        for l in range(1, ls.K + 1):
            count += ls.d[l - 1]
            prefix = [list(r) for r in fb.rows[:count]]
            normals = [list(f) for j in range(l)
                       for _, f in ls.level(j + 1).members]
            assert lattice.rank(prefix) == count
            assert lattice.rank(normals) == count

    def test_level_without_new_rank_adds_no_row(self):
        # [0, 1] x [0, 3] at (2/5, 3/2): levels {e1}, {-e1} and {e2, -e2}
        P = MomentPolytope(2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0),
                               ((0, -1), -3)])
        ls = level_structure(P, (Fraction(2, 5), Fraction(3, 2)))
        assert (ls.d, ls.K) == ([1, 0, 1], 3)
        fb = flag_basis(ls)
        assert fb.labels == [(1, 1), (3, 1)]
        assert fb.rows == [[1, 0], [0, 1]]

    def test_labels_levels(self, twoblow):
        ls = level_structure(twoblow, (Fraction(13, 40), Fraction(3, 10)))
        fb = flag_basis(ls)
        assert fb.labels == [(1, 1), (2, 1)]


class TestLeadingEquations:
    def test_cp2_center_system(self):
        P = build_example("cpn", 2)
        system = leading_equations(P, (Fraction(1, 3), Fraction(1, 3)))
        assert len(system.equations) == 2
        # dF/dy1 = 1 - (y1 y2)^{-1} y1^{-1};  dF/dy2 symmetric
        for eq in system.equations:
            assert len(eq.terms) == 2

    def test_interval_fiber_system(self, twoblow):
        system = leading_equations(twoblow,
                                   (Fraction(13, 40), Fraction(3, 10)))
        by_label = {eq.label: eq.terms for eq in system.equations}
        assert by_label[(1, 1)] == {(-2, 0): -1, (0, 0): 1}
        assert by_label[(2, 1)] == {(0, 0): 1, (1, 0): 1}

    def test_cutoff_restricts_levels(self, twoblow):
        system = leading_equations(twoblow,
                                   (Fraction(13, 40), Fraction(3, 10)),
                                   cutoff=1)
        assert [eq.label for eq in system.equations] == [(1, 1)]

    def test_generalized_coefficients(self, twoblow):
        u = (Fraction(3, 10), Fraction(3, 10))
        c = Fraction(2)
        system = leading_equations(twoblow, u, coefficients={1: c})
        assert system.generalized
        by_label = {eq.label: eq.terms for eq in system.equations}
        # weight c on the facet with normal (0,1)
        assert any(c in terms.values() for terms in by_label.values())

    def test_unit_coefficients_default_to_one(self, twoblow):
        u = (Fraction(13, 40), Fraction(3, 10))
        plain = leading_equations(twoblow, u)
        unit = leading_equations(twoblow, u,
                                 coefficients={i: 1 for i in range(5)})
        assert [eq.terms for eq in plain.equations] == \
            [eq.terms for eq in unit.equations]
