"""Solving leading systems over nonzero complex numbers with certification."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricpot import (build_example, lattice, leading_equations, solve,
                      solve_partial, solver)


@pytest.fixture(scope="module")
def twoblow():
    return build_example("two_point_blowup", Fraction(2, 5), Fraction(3, 10))


class TestFullSolve:
    def test_cp2_center_cube_roots(self):
        P = build_example("cpn", 2)
        system = leading_equations(P, (Fraction(1, 3), Fraction(1, 3)))
        result = solve(system)
        assert result.certified
        assert len(result.solutions) == 3
        for s in result.solutions:
            for v in s.values.values():
                assert abs(v ** 3 - 1) < 1e-8

    def test_interval_fiber_free_variable(self, twoblow):
        system = leading_equations(twoblow,
                                   (Fraction(13, 40), Fraction(3, 10)))
        result = solve(system)
        assert result.certified
        assert len(result.solutions) == 1
        s = result.solutions[0]
        assert abs(s.values[(1, 1)] + 1) < 1e-9
        assert s.free == {(2, 1)}
        assert s.residual < 1e-9

    def test_certified_empty(self, twoblow):
        # just outside the balanced interval the top level is obstructed
        system = leading_equations(twoblow, (Fraction(2, 5), Fraction(3, 10)))
        result = solve(system)
        assert result.solutions == []
        assert result.certified

    def test_residuals_certified(self, twoblow):
        system = leading_equations(twoblow,
                                   (Fraction(13, 40), Fraction(3, 10)))
        for s in solve(system).solutions:
            assert s.residual < 1e-9

    def test_multiplicity_detection(self):
        P = build_example("one_point_blowup_monotone")
        u = (Fraction(1, 3), Fraction(1, 3))
        facet = next(i for i, f in enumerate(P.facets) if f.v == (0, 1))
        system = leading_equations(P, u,
                                   coefficients={facet: Fraction(-27, 256)})
        result = solve(system)
        assert result.certified
        mults = sorted(s.multiplicity for s in result.solutions)
        assert 2 in mults
        assert sum(mults) == 4

    def test_solution_dict_shape(self, twoblow):
        system = leading_equations(twoblow,
                                   (Fraction(13, 40), Fraction(3, 10)))
        d = solve(system).solutions[0].to_dict()
        assert set(d) == {"values", "free", "multiplicity", "residual"}
        assert "Y2_1" in d["free"]


class TestPartialSolve:
    def test_vacuous_prefix_trivially_solvable(self):
        P = build_example("cpn", 2)
        result = solve_partial(P, (Fraction(1, 4), Fraction(1, 4)), 0)
        assert result.certified
        assert len(result.solutions) == 1

    def test_partial_level_one(self, twoblow):
        u = (Fraction(3, 8), Fraction(3, 10))
        result = solve_partial(twoblow, u, 1)
        assert result.certified
        assert len(result.solutions) >= 1

    def test_partial_obstructed_at_level_one(self, twoblow):
        # the level-1 system at this fiber contains a constant equation
        u = (Fraction(2, 5), Fraction(3, 10))
        result = solve_partial(twoblow, u, 1)
        assert result.certified
        assert result.solutions == []

    def test_obstructed_partial_certified_empty(self):
        P = build_example("cpn", 2)
        u = (Fraction(1, 4), Fraction(1, 4))
        result = solve_partial(P, u, 1)
        assert result.solutions == []
        assert result.certified


def _gauss_newton(equations, active_vars, point, tol, iters=60):
    """Gauss-Newton from one start with ``np.linalg.lstsq`` steps: the
    reference for the batched stage (c)."""
    idx = {j: t for t, j in enumerate(active_vars)}
    x = np.array([point[j] for j in active_vars], dtype=complex)
    for _ in range(iters):
        vals = np.zeros(len(equations), dtype=complex)
        jac = np.zeros((len(equations), len(active_vars)), dtype=complex)
        for r, terms in enumerate(equations):
            for e, c in terms.items():
                term = complex(c)
                for j in active_vars:
                    if e[j] != 0:
                        term *= x[idx[j]] ** e[j]
                vals[r] += term
                for j in active_vars:
                    if e[j] != 0:
                        jac[r, idx[j]] += term * e[j] / x[idx[j]]
        if np.max(np.abs(vals)) < tol * 1e-3:
            return {j: complex(x[idx[j]]) for j in active_vars}
        try:
            step, *_ = np.linalg.lstsq(jac, -vals, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        x = x + step
        if np.any(np.abs(x) < 1e-12):
            return None
    return None


def _reference_multistart(equations, active_vars, tol, max_starts=200):
    """Slow reference for ``solver._newton_multistart``, one start at a
    time."""
    radii = [0.5, 1.0, 2.0]
    phases = [cmath.exp(2j * cmath.pi * t / 8) for t in range(8)]
    seeds = itertools.islice(
        itertools.product(itertools.product(radii, phases),
                          repeat=len(active_vars)),
        max_starts)
    found = []
    for seed in seeds:
        point = {j: r * p for j, (r, p) in zip(active_vars, seed)}
        refined = _gauss_newton(equations, active_vars, point, tol)
        if refined is None:
            continue
        if any(abs(v) <= solver.ZERO_ROOT_TOL for v in refined.values()):
            continue
        if any(all(abs(refined[j] - prev[j]) < solver.DEDUP_TOL
                   for j in active_vars) for prev in found):
            continue
        found.append(refined)
    found.sort(key=lambda p: solver._root_key([p[j] for j in active_vars]))
    return found


# generalized leading systems at the centre of cpn(n) that reach stage (c)
CPN_CASES = [
    (3, None),
    (3, {0: Fraction(2), 1: Fraction(-3, 5), 2: Fraction(7, 4),
         3: Fraction(1, 3)}),
    (4, None),
    (4, {0: Fraction(-5, 3), 1: Fraction(2, 7), 2: Fraction(3),
         3: Fraction(9, 8), 4: Fraction(-1, 2)}),
]


def _cpn_system(n, coefficients):
    P = build_example("cpn", n)
    centre = (Fraction(1, n + 1),) * n
    return leading_equations(P, centre, coefficients=coefficients)


def _cpn_equations(n, coefficients):
    system = _cpn_system(n, coefficients)
    equations, _ = solver.normalize([eq.terms for eq in system.equations])
    return equations, list(range(n))


class TestStageC:
    @pytest.mark.parametrize("case", [
        *(f"cpn{n}-{i}" for i, (n, _) in enumerate(CPN_CASES)),
        "overdetermined", "underdetermined"])
    def test_batched_matches_per_start_reference(self, case):
        if case == "overdetermined":
            # xy = 2, yz = 3, xz = 6, x^2 = 4y^2: roots +-(2, 1, 3)
            equations = [{(1, 1, 0): 1, (0, 0, 0): -2},
                         {(0, 1, 1): 1, (0, 0, 0): -3},
                         {(1, 0, 1): 1, (0, 0, 0): -6},
                         {(2, 0, 0): 1, (0, 2, 0): -4}]
            active = [0, 1, 2]
        elif case == "underdetermined":
            # one equation on a curve: every start lands somewhere on it
            equations = [{(1, 1): 1, (2, 0): Fraction(1, 2), (0, 0): -1}]
            active = [0, 1]
        else:
            n, coefficients = CPN_CASES[int(case.split("-")[1])]
            equations, active = _cpn_equations(n, coefficients)
        tol = solver.RESIDUAL_TOL
        expected = _reference_multistart(equations, active, tol)
        got = solver._newton_multistart(equations, active, tol)
        assert len(expected) > 0
        assert len(got) == len(expected)
        for a, b in zip(expected, got):
            assert set(b) == set(active)
            assert max(abs(a[j] - b[j]) for j in active) <= 1e-9

    def test_rank_deficient_jacobian(self):
        # xy = 1 stated twice: the Jacobian has rank 1, and only the lstsq
        # cutoff keeps the roundoff-level singular value out of the step.
        # Starts on the line x = -y follow a chaotic Newton orbit, so where
        # they land depends on roundoff; compare the count, not the points.
        equations = [{(1, 1): 1, (0, 0): -1}, {(1, 1): 2, (0, 0): -2}]
        tol = solver.RESIDUAL_TOL
        expected = _reference_multistart(equations, [0, 1], tol)
        got = solver._newton_multistart(equations, [0, 1], tol)
        assert len(got) == len(expected)
        for point in got:
            assert abs(point[0] * point[1] - 1) <= tol


def _binomial_equations(rows, coefficients):
    """The equation c_a x^a + c_b x^b = 0 of each exponent row a - b, with
    a and b its positive and negative parts."""
    return [{tuple(max(p, 0) for p in row): ca,
             tuple(max(-p, 0) for p in row): cb}
            for row, (ca, cb) in zip(rows, coefficients)]


def _relative_residual(terms, point):
    """|sum of terms| / sum of |term| at ``point``, from logarithms so that
    no power overflows."""
    logs = [cmath.log(c) + sum(p * cmath.log(x) for p, x in zip(e, point))
            for e, c in terms.items()]
    top = max(t.real for t in logs)
    values = [cmath.exp(t - top) for t in logs]
    return abs(sum(values)) / sum(abs(v) for v in values)


def _relative_distance(p, q):
    return max(abs(a - b) / max(abs(a), abs(b)) for a, b in zip(p, q))


_ratio = st.builds(lambda sign, p, q: sign * Fraction(p, q),
                   st.sampled_from([1, -1]), st.integers(1, 9),
                   st.integers(1, 9))


@st.composite
def _binomial_systems(draw, sizes):
    """(rows, coefficients, |det|) of a nonsingular square binomial system
    with exponent differences in [-3, 3] and |det| <= 64."""
    n = draw(st.sampled_from(sizes))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    det = abs(lattice.det(rows))
    assume(0 < det <= 64)
    coefficients = draw(st.lists(st.tuples(_ratio, _ratio), min_size=n,
                                 max_size=n))
    return rows, coefficients, int(det)


def _within_double_range(rows, coefficients):
    """Whether every coordinate of the roots, and every partial product of
    every term, is far inside the double range; the moduli of the roots
    are fixed by log|x| = A^-1 log|r| alone."""
    log_r = [math.log(abs(cb / ca)) for ca, cb in coefficients]
    log_x = np.abs(np.linalg.solve(np.array(rows, dtype=float), log_r))
    sizes = list(log_x)
    for eq in _binomial_equations(rows, coefficients):
        sizes += [abs(math.log(abs(c))) + np.dot(e, log_x)
                  for e, c in eq.items()]
    return max(sizes) < 600


def _check_binomial_roots(points, certified, rows, coefficients, det):
    """A certified answer has all |det| roots, pairwise apart and with small
    residuals; an answer within the double range must be certified."""
    if _within_double_range(rows, coefficients):
        assert certified
    if not certified:
        return
    assert len(points) == det
    for p, q in itertools.combinations(points, 2):
        assert _relative_distance(p, q) > 1e-6
    equations = _binomial_equations(rows, coefficients)
    for point in points:
        for terms in equations:
            assert _relative_residual(terms, point) <= 1e-9


class TestBinomialStage:
    @pytest.mark.parametrize("n, coefficients", CPN_CASES)
    def test_cpn_centre_roots(self, n, coefficients):
        system = _cpn_system(n, coefficients)
        result = solve(system)
        assert result.path == "m"
        assert result.certified is True
        assert len(result.solutions) == n + 1
        equations, active = _cpn_equations(n, coefficients)
        expected = _reference_multistart(equations, active,
                                         solver.RESIDUAL_TOL)
        assert len(expected) == n + 1
        for s, point in zip(result.solutions, expected):
            assert s.multiplicity == 1
            assert s.residual <= 1e-9
            got = s.value_vector(system.variables)
            assert max(abs(got[j] - point[j]) for j in active) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(_binomial_systems(sizes=[1, 2, 3, 4]))
    def test_closed_form_roots(self, case):
        rows, coefficients, det = case
        n = len(rows)
        points, certified = solver._binomial_roots(
            _binomial_equations(rows, coefficients), list(range(n)),
            solver.RESIDUAL_TOL)
        points = [[p[j] for j in range(n)] for p in points]
        _check_binomial_roots(points, certified, rows, coefficients, det)

    @settings(max_examples=100, deadline=None)
    @given(_binomial_systems(sizes=[3, 4]))
    # |det| = 1 with roots from 1e-106 to 1e77: the one root fails the
    # float residual check, so the empty answer must not be certified
    @example(([[-1, -3, 3, 1], [-1, -3, -3, 0], [-3, -2, -1, -3],
               [-2, -2, 3, -1]],
              [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)),
               (Fraction(1), Fraction(2)), (Fraction(6), Fraction(1, 8))],
              1))
    def test_solve_equations_takes_stage_m(self, case):
        rows, coefficients, det = case
        # no equation in one variable, so stages (a) and (b) do not apply
        assume(all(sum(p != 0 for p in row) >= 2 for row in rows))
        n = len(rows)
        result = solver.solve_equations(
            _binomial_equations(rows, coefficients), list(range(n)))
        assert "m" in result.path
        assert all(s.multiplicity == 1 for s in result.solutions)
        points = [s.value_vector(range(n)) for s in result.solutions]
        _check_binomial_roots(points, result.certified, rows, coefficients,
                              det)

    def test_wrong_factorization_is_not_certified(self, monkeypatch):
        # the residual check, not the algebra, decides `certified`: feed
        # the stage a transposed V and it must refuse to certify
        def transposed_v(matrix):
            d, u, v = lattice.smith_normal_form(matrix)
            return d, u, [list(col) for col in zip(*v)]

        monkeypatch.setattr(solver, "smith_normal_form", transposed_v)
        result = solve(_cpn_system(3, CPN_CASES[1][1]))
        assert result.path == "m"
        assert result.certified is False

    def test_singular_system_takes_stage_c(self):
        # xy = 1 stated twice and z = x: square, binomial, det A = 0
        equations = [{(1, 1, 0): 1, (0, 0, 0): -1},
                     {(1, 1, 0): 2, (0, 0, 0): -2},
                     {(0, 0, 1): 1, (1, 0, 0): -1}]
        assert solver._binomial_roots(equations, [0, 1, 2],
                                      solver.RESIDUAL_TOL) is None
        result = solver.solve_equations(equations, ["x", "y", "z"])
        assert result.path == "c"
        assert result.certified is False

    def test_root_beyond_double_range_is_not_certified(self):
        # x y^3 = 1 and y = 1e-150 put x at 1e450
        equations = [{(1, 3): 1, (0, 0): -1}, {(0, 1): 1, (0, 0): -1e-150}]
        assert solver._binomial_roots(equations, [0, 1],
                                      solver.RESIDUAL_TOL) == ([], False)

    @pytest.mark.parametrize("equations, roots", [
        # x^3 = 1e200 y, y = 1e100 z, z = x: x = z = +-1e150 and
        # y = +-1e250 are doubles, but the power x^3 = +-1e450 is not
        ([{(3, 0, 0): 1, (0, 1, 0): -1e200},
          {(0, 1, 0): 1, (0, 0, 1): -1e100},
          {(0, 0, 1): 1, (1, 0, 0): -1}], 2),
        # xy = 1e200 z, z = x, y = z: x = y = z = 1e200, and the product
        # xy overflows without an error
        ([{(1, 1, 0): 1, (0, 0, 1): -1e200},
          {(0, 0, 1): 1, (1, 0, 0): -1},
          {(0, 1, 0): 1, (0, 0, 1): -1}], 1),
    ])
    def test_term_beyond_double_range_is_not_certified(self, equations,
                                                       roots):
        points, certified = solver._binomial_roots(
            equations, [0, 1, 2], solver.RESIDUAL_TOL)
        assert len(points) == roots and certified
        result = solver.solve_equations(equations, ["x", "y", "z"])
        assert result.path == "m"
        assert result.solutions == []
        assert result.certified is False


class TestSortKey:
    @pytest.mark.parametrize("offset", [1e-15, -1e-15])
    def test_conjugates_sort_by_imaginary_part(self, offset):
        # conjugate roots whose real parts agree only up to roundoff
        upper = complex(-0.5 + offset, 0.8660254037844386)
        lower = complex(-0.5, -0.8660254037844386)
        for points in ([upper, lower], [lower, upper]):
            ordered = sorted(([z] for z in points), key=solver._root_key)
            assert [p[0] for p in ordered] == [lower, upper]

    def test_solve_orders_conjugate_roots(self):
        # x^2 - x + 1: the companion-matrix roots (1 +- i sqrt 3)/2 come
        # back with real parts that differ in the last bit
        result = solver.solve_equations(
            [{(2,): 1, (1,): -1, (0,): 1}], [(1, 1)])
        imag = [s.values[(1, 1)].imag for s in result.solutions]
        assert len(imag) == 2 and imag[0] < 0 < imag[1]
