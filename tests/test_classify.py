"""Bulk-balancedness classification, thresholds, and polytope scans."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricpot import (INF, MomentPolytope, OutOfScope, balanced_locus,
                      build_example, classify, classify_fiber, lattice,
                      leading, lifting, report_bounds, scan)

# an unbounded quadrant, an unbounded strip whose normals span one line,
# and a slab in Q^3 whose normals span one line, so that no pair of them
# has a kernel line
QUADRANT = MomentPolytope(2, [((1, 0), 0), ((0, 1), 0)])
STRIP = MomentPolytope(2, [((1, 0), 0), ((-1, 0), -1)])
SLAB = MomentPolytope(3, [((1, 0, 0), 0), ((-1, 0, 0), -1)])


@pytest.fixture(scope="module")
def twoblow():
    return build_example("two_point_blowup", Fraction(2, 5), Fraction(3, 10))


class TestClassifyFiber:
    def test_balanced_interval_fiber(self, twoblow):
        r = classify_fiber(twoblow, (Fraction(13, 40), Fraction(3, 10)))
        assert r.status == "BulkBalanced"
        assert r.balanced
        assert r.threshold_bound is INF
        assert r.intersection_bound == 4
        assert r.witnesses
        w = r.witnesses[0]
        assert abs(w.values[(1, 1)] + 1) < 1e-9

    def test_cp2_off_center(self):
        P = build_example("cpn", 2)
        r = classify_fiber(P, (Fraction(1, 4), Fraction(1, 4)))
        assert r.status == "NoSolutionFound"
        assert r.certified
        assert r.partial_level == 0
        assert r.threshold_bound == Fraction(1, 4)

    def test_cp2_center_balanced(self):
        P = build_example("cpn", 2)
        r = classify_fiber(P, (Fraction(1, 3), Fraction(1, 3)))
        assert r.balanced
        assert len(r.witnesses) == 3

    def test_partial_up_to(self, twoblow):
        r = classify_fiber(twoblow, (Fraction(3, 8), Fraction(3, 10)))
        assert r.status == "PartialUpTo"
        assert r.partial_level == 1
        assert r.threshold_bound == Fraction(13, 40)

    def test_balanced_with_lift(self, twoblow):
        r = classify_fiber(twoblow, (Fraction(13, 40), Fraction(3, 10)),
                           lift_order=Fraction(2))
        assert r.balanced
        assert r.lift is not None
        rv = r.lift["residual_valuation"]
        assert rv == "inf" or Fraction(rv) >= 2

    def test_lift_builds_level_data_once(self, twoblow, monkeypatch):
        calls = {"level_structure": 0, "flag_basis": 0}
        for name in calls:
            original = getattr(leading, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in (leading, classify, lifting):
                monkeypatch.setattr(module, name, counting, raising=False)
        r = classify_fiber(twoblow, (Fraction(13, 40), Fraction(3, 10)),
                           lift_order=Fraction(2))
        assert r.lift is not None
        assert calls == {"level_structure": 1, "flag_basis": 1}

    def test_deterministic(self, twoblow):
        u = (Fraction(13, 40), Fraction(3, 10))
        a = classify_fiber(twoblow, u).to_dict()
        b = classify_fiber(twoblow, u).to_dict()
        assert a == b

    def test_no_full_flag(self):
        # levels {u1 = 1/3} and {1 - u1 = 2/3} both span only the u1 axis
        r = classify_fiber(STRIP, (Fraction(1, 3), Fraction(5)))
        assert r.status == "NoFullFlag"
        assert r.partial_level == 0
        assert r.threshold_bound == Fraction(1, 3)


class TestScan:
    def test_cp1_grid(self):
        P = build_example("cp1")
        reports = scan(P, Fraction(1, 10))
        assert len(reports) == 9
        assert balanced_locus(reports) == [(Fraction(1, 2),)]

    def test_row_constraint(self, twoblow):
        reports = scan(twoblow, Fraction(1, 40), row={2: Fraction(3, 10)})
        assert all(r.u[1] == Fraction(3, 10) for r in reports)
        assert balanced_locus(reports) == [
            (Fraction(13, 40), Fraction(3, 10)),
            (Fraction(7, 20), Fraction(3, 10))]

    def test_all_points_interior(self, twoblow):
        for r in scan(twoblow, Fraction(1, 5)):
            assert twoblow.is_interior(r.u)

    def test_threshold_monotone_toward_balanced_interval(self, twoblow):
        reports = scan(twoblow, Fraction(1, 40), row={2: Fraction(3, 10)})
        thr = {r.u[0]: r.threshold_bound for r in reports}
        # approaching the balanced interval from the left the bound grows
        left = [thr[Fraction(k, 40)] for k in range(1, 13)]
        assert left == sorted(left)

    def test_translation_invariance(self):
        # translating the polytope translates the classification with it
        P = build_example("cpn", 2)
        # lambda_i' = lambda_i + <v_i, t> for the translation t = (-1/10, 0)
        shifted = [((1, 0), Fraction(-1, 10)), ((0, 1), 0),
                   ((-1, -1), Fraction(-9, 10))]
        from toricpot import MomentPolytope
        Q = MomentPolytope(2, shifted, name="shifted", fano=True)
        for du in [Fraction(0), Fraction(1, 20)]:
            u = (Fraction(1, 3) + du, Fraction(1, 3))
            uq = (u[0] - Fraction(1, 10), u[1])
            assert classify_fiber(P, u).status == classify_fiber(Q, uq).status

    def test_invalid_step(self, twoblow):
        with pytest.raises(ValueError):
            scan(twoblow, Fraction(0))
        with pytest.raises(ValueError):
            scan(twoblow, Fraction(1, 10), row={5: Fraction(1, 2)})

    def test_float_step_rejected(self):
        # 0.1 as a Fraction is 3602879701896397/2^55: that grid misses
        # u = 1/2, the balanced fiber the scan with step 1/10 finds
        with pytest.raises(TypeError):
            scan(build_example("cp1"), 0.1)

    def test_float_row_value_rejected(self, twoblow):
        # the row 0.3 is off u2 = 3/10, so it missed the paper's interval
        with pytest.raises(TypeError):
            scan(twoblow, 0.025, row={2: 0.3})
        with pytest.raises(TypeError):
            scan(twoblow, Fraction(1, 40), row={2: 0.3})
        with pytest.raises(TypeError):
            scan(twoblow, 0.025, row={2: Fraction(3, 10)})

    def test_infinite_step_or_row_rejected(self, twoblow):
        with pytest.raises(ValueError):
            scan(twoblow, math.inf)
        with pytest.raises(ValueError):
            scan(twoblow, Fraction(1, 40), row={2: math.inf})

    @pytest.mark.parametrize("step", ["1/10", "0.1"])
    def test_string_step_scans_as_fraction(self, step):
        P = build_example("cp1")
        reports = scan(P, step)
        assert ([r.to_dict() for r in reports]
                == [r.to_dict() for r in scan(P, Fraction(1, 10))])
        assert balanced_locus(reports) == [(Fraction(1, 2),)]

    def test_string_row_scans_as_fraction(self, twoblow):
        reports = scan(twoblow, "1/40", row={2: "3/10"})
        assert ([r.to_dict() for r in reports] == [r.to_dict() for r in scan(
            twoblow, Fraction(1, 40), row={2: Fraction(3, 10)})])
        assert balanced_locus(reports) == [
            (Fraction(13, 40), Fraction(3, 10)),
            (Fraction(7, 20), Fraction(3, 10))]

    def test_int_step_and_row_scan_as_fraction(self):
        # the simplex u1, u2 >= 0, u1 + u2 <= 5 holds six unit grid points
        P = MomentPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -5)])
        reports = scan(P, 1)
        assert len(reports) == 6
        assert ([r.to_dict() for r in reports]
                == [r.to_dict() for r in scan(P, Fraction(1))])
        row = scan(P, 1, row={2: 2})
        assert [r.u for r in row] == [(1, 2), (2, 2)]
        assert ([r.to_dict() for r in row] == [r.to_dict() for r in scan(
            P, Fraction(1), row={2: Fraction(2)})])

    @pytest.mark.parametrize("P, ray", [
        (QUADRANT, (0, 1)), (STRIP, (0, 1)), (SLAB, (0, 0, 1))],
        ids=["quadrant", "strip", "slab"])
    def test_unbounded_polytope_raises(self, P, ray):
        assert P._recession_ray() == ray
        with pytest.raises(OutOfScope) as raised:
            scan(P, Fraction(1, 10))
        assert str(raised.value).endswith(f"recession direction {ray}")


def _interior_grid(P, step, row=None):
    """Interior points of the step grid, in scan order, built directly;
    a pinned coordinate takes its value, on the step grid or not."""
    verts = [vx.point for vx in P.vertices()]
    pinned = {i - 1: Fraction(v) for i, v in (row or {}).items()}
    axes = []
    for i in range(P.n):
        lo = min(p[i] for p in verts)
        hi = max(p[i] for p in verts)
        axes.append([pinned[i]] if i in pinned else
                    [k * step for k in range(math.floor(lo / step) + 1,
                                             math.ceil(hi / step))])
    return [u for u in itertools.product(*axes) if P.is_interior(u)]


class TestScanByPartition:
    """``scan`` classifies one fiber per K-prefix of the ordered level
    partition and copies its report to the fibers that share it."""

    CASES = [
        (("two_point_blowup", Fraction(2, 5), Fraction(3, 10)),
         Fraction(1, 20), None, None),
        (("k_point_blowup", Fraction(2, 5), Fraction(1, 50)),
         Fraction(1, 20), None, None),
        (("two_point_blowup", Fraction(2, 5), Fraction(3, 10)),
         Fraction(1, 20), None, {3: Fraction(2)}),
        (("cpn", 3), Fraction(1, 8), None, None),
        # u1 = 29/80, 3/8, 31/80 share one PartialUpTo partition whose
        # threshold is each fiber's own S_2, not S_1
        (("two_point_blowup", Fraction(2, 5), Fraction(3, 10)),
         Fraction(1, 80), {2: Fraction(3, 10)}, None),
    ]

    @pytest.mark.parametrize("example, step, row, coefficients", CASES,
                             ids=["two-point", "k-point", "two-point-coeffs",
                                  "cp3", "two-point-row"])
    def test_matches_classify_fiber(self, example, step, row, coefficients):
        P = build_example(*example)
        reports = scan(P, step, row=row, coefficients=coefficients)
        points = _interior_grid(P, step, row)
        assert [r.u for r in reports] == points
        assert len({id(r.witnesses) for r in reports}) == len(reports)
        assert [r.to_dict() for r in reports] == [
            classify_fiber(P, u, coefficients=coefficients).to_dict()
            for u in points]

    def test_flag_basis_once_per_k_prefix(self, twoblow, monkeypatch):
        calls = []
        original = leading.flag_basis

        def counting(ls):
            calls.append(ls.u)
            return original(ls)

        for module in (leading, classify):
            monkeypatch.setattr(module, "flag_basis", counting, raising=False)
        reports = scan(twoblow, Fraction(1, 20))
        partitions = {_partition(twoblow, r.u) for r in reports}
        prefixes = {_k_prefix(twoblow, p) for p in partitions}
        assert len(reports) > len(partitions) > len(prefixes)
        assert len(calls) == len(prefixes)


def _partition(P, u):
    """The ordered level partition of ``u``, from its ``Fraction`` values."""
    ell = P.ell_values(u)
    return tuple(tuple(i for i, e in enumerate(ell) if e == S)
                 for S in sorted(set(ell)))


def _k_prefix(P, partition):
    """The levels of ``partition`` up to the first whose normals, with
    those below it, span Q^n."""
    for K in range(1, len(partition) + 1):
        normals = [P.facets[i].v for part in partition[:K] for i in part]
        if lattice.rank(normals) == P.n:
            return partition[:K]
    return partition


_EXAMPLES = [("cpn", 2), ("cpn", 3), ("one_point_blowup_monotone",),
             ("two_point_blowup", Fraction(2, 5), Fraction(3, 10)),
             ("two_point_blowup", Fraction(13, 15), Fraction(1, 15)),
             ("k_point_blowup", Fraction(2, 5), Fraction(1, 50))]


@st.composite
def _interior_points(draw):
    """(example, points): rational interior points of an example polytope
    on a few lines of a grid its vertices lie on, so that facet values
    often tie."""
    example = draw(st.sampled_from(_EXAMPLES))
    P = build_example(*example)
    verts = [vx.point for vx in P.vertices()]
    q = math.lcm(*(x.denominator for p in verts for x in p))
    q *= draw(st.integers(2, 4))
    axes = []
    for i in range(P.n):
        lo = min(p[i] for p in verts) * q
        hi = max(p[i] for p in verts) * q
        ks = draw(st.sets(st.integers(int(lo) + 1, int(hi) - 1),
                          min_size=1, max_size=3))
        axes.append([Fraction(k, q) for k in sorted(ks)])
    return example, [u for u in itertools.product(*axes) if P.is_interior(u)]


class TestClassificationByKPrefix:
    """A fiber's classification reads only the levels 1..K of its ordered
    level partition, the K-prefix that ``scan`` memoises on."""

    @settings(max_examples=80, deadline=None)
    @given(_interior_points())
    # both fibers have the level-1 facets u2 >= 0 and u2 <= 1 - alpha;
    # level 2 makes the first balanced and the second PartialUpTo
    @example((("two_point_blowup", Fraction(2, 5), Fraction(3, 10)),
              [(Fraction(13, 40), Fraction(3, 10)),
               (Fraction(3, 8), Fraction(3, 10))]))
    def test_same_k_prefix_same_report(self, case):
        example, points = case
        P = build_example(*example)
        first = {}  # K-prefix -> report of its first fiber
        for u in points:
            report = classify_fiber(P, u).to_dict()
            del report["u"], report["threshold_bound"]
            prefix = leading.level_structure(P, u).k_prefix
            assert first.setdefault(prefix, report) == report


@st.composite
def _grid_cases(draw):
    """(example, step, row): a two- or three-point blow-up whose offsets
    have denominators the step's need not divide, a step 1/d with
    2 <= d <= 40, and a pinned row through the polytope whose value is
    often off the step grid."""
    den = draw(st.integers(3, 13))
    if draw(st.booleans()):
        a = draw(st.integers(1, den - 2))
        b = draw(st.integers(1, den - 1 - a))
        example = ("two_point_blowup", Fraction(a, den), Fraction(b, den))
    else:
        a = draw(st.integers(den // 3 + 1, den - 1))
        example = ("k_point_blowup", Fraction(a, den),
                   Fraction(1, draw(st.integers(20, 60))))
    step = Fraction(1, draw(st.integers(2, 40)))
    row = None
    if step < Fraction(1, 10) or draw(st.booleans()):
        axis = draw(st.sampled_from([1, 2]))
        values = [vx.point[axis - 1]
                  for vx in build_example(*example).vertices()]
        lo, hi = min(values), max(values)
        value = lo + Fraction(draw(st.integers(1, 10)), 11) * (hi - lo)
        if draw(st.booleans()):
            value = round(value / step) * step
        row = {axis: value}
    return example, step, row


class TestScanIntegerGrid:
    """``scan`` walks the grid in ints scaled by one common denominator;
    every fiber must read as ``classify_fiber`` reads it."""

    @settings(max_examples=60, deadline=None)
    @given(_grid_cases())
    @example((("two_point_blowup", Fraction(2, 5), Fraction(3, 10)),
              Fraction(1, 7), {2: Fraction(3, 10)}))
    def test_matches_classify_fiber(self, case):
        example, step, row = case
        P = build_example(*example)
        assume(P.validate().valid)
        points = _interior_grid(P, step, row)
        reports = scan(P, step, row=row)
        assert [r.u for r in reports] == points
        assert [r.to_dict() for r in reports] == [
            classify_fiber(P, u).to_dict() for u in points]


class TestIntLevelStructure:
    """The level structure ``scan`` builds from the ints ``ell_i(u) * D``
    equals the one built from ``Fraction`` values."""

    @settings(max_examples=60, deadline=None)
    @given(_grid_cases())
    def test_matches_fraction_level_structure(self, case):
        example, step, row = case
        P = build_example(*example)
        assume(P.validate().valid)
        for u in _interior_grid(P, step, row):
            D = math.lcm(*(x.denominator for x in u),
                         *(f.lam.denominator for f in P.facets))
            ell = [int(e * D) for e in P.ell_values(u)]
            parts = leading.level_partition(ell)
            got = leading._level_structure(P, u, ell, parts, D)
            want = leading.level_structure(P, u)
            assert [(lev.S, lev.members) for lev in got.levels] == \
                [(lev.S, lev.members) for lev in want.levels]
            assert (got.d, got.K) == (want.d, want.K)
            ranks = [lattice.rank([P.facets[i].v for part in parts[:l]
                                   for i in part])
                     for l in range(len(parts) + 1)]
            assert got.d == [b - a for a, b in zip(ranks, ranks[1:])]
            assert parts[:got.K] == _k_prefix(P, parts) == got.k_prefix


class TestBounds:
    def test_threshold_units(self):
        P = build_example("cpn", 2)
        r = classify_fiber(P, (Fraction(1, 4), Fraction(1, 4)))
        b = report_bounds(r)
        assert b["intersection_bound"] == 4
        assert b["threshold"]["area_over_2pi"] == "1/4"
        assert b["threshold"]["physical"] == "2*pi*1/4"
        assert abs(b["threshold"]["physical_value"] - math.pi / 2) < 1e-12
        assert b["displacement_energy_lower_bound"] == b["threshold"]

    def test_balanced_bounds_infinite(self, twoblow):
        r = classify_fiber(twoblow, (Fraction(13, 40), Fraction(3, 10)))
        b = report_bounds(r)
        assert b["threshold"]["area_over_2pi"] == "inf"
        assert b["threshold"]["physical_value"] == math.inf

    def test_intersection_bound_dimension(self):
        P = build_example("cpn", 3)
        r = classify_fiber(P, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
        assert r.intersection_bound == 8
