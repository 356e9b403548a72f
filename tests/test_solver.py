"""Solving leading systems over nonzero complex numbers with certification."""

import cmath
import itertools
from fractions import Fraction

import numpy as np
import pytest

from toricpot import (build_example, leading_equations, solve, solve_partial,
                      solver)


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
    @pytest.mark.parametrize("n, coefficients", CPN_CASES)
    def test_cpn_centre_roots(self, n, coefficients):
        result = solve(_cpn_system(n, coefficients))
        assert result.path == "c"
        assert result.certified is False
        assert len(result.solutions) == n + 1
        for s in result.solutions:
            assert s.residual <= 1e-9

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
