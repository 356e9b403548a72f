"""Order-by-order lifting of leading solutions and Newton point lifts."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from toricpot import (FLOAT, INF, BulkDeformation, MomentPolytope,
                      NovikovSeries, PotentialFunction, build_example,
                      case_analysis_two_point, fano_bulk_potential,
                      leading_equations, leading_potential, lift_bulk,
                      lift_point, solution_to_torus, solve)
from toricpot import lifting, solver
from toricpot.errors import (BadGenerator, BadKahlerParams,
                             DegenerateCritical, MonoidOverflow, OutOfScope)
from toricpot.lifting import (LIFT_TOL, _exp, _inverse, _monoid_close,
                              _power)


@pytest.fixture(scope="module")
def twoblow():
    return build_example("two_point_blowup", Fraction(2, 5), Fraction(3, 10))


class TestMonoidClosure:
    @given(st.lists(st.integers(1, 12), max_size=4), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_sums(self, gens, cap):
        sums, frontier = {0}, {0}
        while frontier:
            frontier = {x + g for x in frontier for g in gens
                        if x + g <= cap} - sums
            sums |= frontier
        reach = np.zeros(cap + 1, dtype=bool)
        reach[0] = True
        for g in gens:
            _monoid_close(reach, g)
        assert set(np.flatnonzero(reach).tolist()) == sums


def _bulk_record(P, u, sol, N, gens):
    """The certificate and weights of one bulk lift, as JSON data."""
    bulk, y, cert = lift_bulk(P, u, sol, N, gens)
    return {
        "steps": [str(s) for s in cert.steps],
        "monoid_generators": [str(g) for g in cert.monoid_generators],
        "monoid_grown": [str(g) for g in cert.monoid_grown],
        "residual_valuation": str(cert.residual_valuation),
        "congruences_checked": cert.congruences_checked,
        "y": [[c.real, c.imag] for c in y],
        "bulk": {str(i): [[str(e), c.real, c.imag] for e, c in b.plus.terms]
                 for i, b in sorted(bulk.items())},
    }


def _pinned_cases():
    """``(key, P, u, sol, N, gens)`` of every pinned bulk lift."""
    P = build_example("two_point_blowup", Fraction(2, 5), Fraction(3, 10))
    u = (Fraction(13, 40), Fraction(3, 10))
    for gens in [(), (Fraction(1, 7),), (Fraction(1, 2), Fraction(1, 3))]:
        for N in (Fraction(2), Fraction(5, 2)):
            key = f"2/5,3/10 at 13/40,3/10 N={N} gens="
            yield key + ",".join(map(str, gens)), P, u, [1, -1], N, gens
    # here the lift grows the monoid by 4/15
    P = build_example("two_point_blowup", Fraction(13, 15), Fraction(1, 15))
    u = (Fraction(4, 15), Fraction(1, 15))
    witness, = solve(leading_equations(P, u)).solutions
    yield "13/15,1/15 at 4/15,1/15 N=3 gens=", P, u, witness, Fraction(3), ()


PINNED = Path(__file__).parent / "data" / "lift_bulk_pinned.json"


class TestPinnedBulkLifts:
    """Bulk lifts against the records in ``data/lift_bulk_pinned.json``.

    The certificate fields and the exponents must match exactly; ``y``
    and the weight coefficients to within roundoff.  Regenerate, when a
    change of the lift is intended, with ``PYTHONPATH=src python
    tests/test_lifting.py``.
    """

    @pytest.mark.parametrize("case", list(_pinned_cases()),
                             ids=lambda c: c[0])
    def test_matches_record(self, case):
        key, *args = case
        want = json.loads(PINNED.read_text())[key]
        got = _bulk_record(*args)
        for field in ("steps", "monoid_generators", "monoid_grown",
                      "residual_valuation", "congruences_checked"):
            assert got[field] == want[field]
        close = dict(rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got["y"], want["y"], **close)
        assert got["bulk"].keys() == want["bulk"].keys()
        for i, terms in want["bulk"].items():
            assert [e for e, *_ in got["bulk"][i]] == [e for e, *_ in terms]
            np.testing.assert_allclose([c for _, *c in got["bulk"][i]],
                                       [c for _, *c in terms], **close)


class TestBulkLift:
    @pytest.mark.parametrize("y0", [(1, -1), (-1, -1)])
    def test_interval_fiber_lift_certified(self, twoblow, y0):
        u = (Fraction(13, 40), Fraction(3, 10))
        N = Fraction(2)
        bulk, y, cert = lift_bulk(twoblow, u, list(y0), N)
        assert cert.residual_valuation is INF or cert.residual_valuation >= N
        assert cert.congruences_checked
        # independent check: the weights really cancel the gradient
        F = fano_bulk_potential(twoblow, u, bulk, trunc=N)
        yser = [NovikovSeries.const(c, mode=FLOAT) for c in y]
        residuals, _ = F.gradient_residual(yser)
        for r in residuals:
            for e, c in r.terms:
                assert e >= N or abs(c) < 1e-8

    def test_lift_from_leading_solution(self, twoblow):
        u = (Fraction(13, 40), Fraction(3, 10))
        witness = solve(leading_equations(twoblow, u)).solutions[0]
        bulk, y, cert = lift_bulk(twoblow, u, witness, Fraction(2))
        assert cert.residual_valuation is INF or \
            cert.residual_valuation >= Fraction(2)

    @pytest.mark.parametrize("g", [0, Fraction(-1, 2)])
    def test_generators_must_be_positive(self, twoblow, g):
        u = (Fraction(13, 40), Fraction(3, 10))
        with pytest.raises(BadGenerator, match="not positive"):
            lift_bulk(twoblow, u, [1, -1], Fraction(2), gens=(g,))

    def test_weights_lie_in_lambda_plus(self, twoblow):
        u = (Fraction(13, 40), Fraction(3, 10))
        bulk, _, _ = lift_bulk(twoblow, u, [1, -1], Fraction(2))
        for entry in bulk.entries.values():
            assert entry.plus.is_zero or entry.plus.valuation() > 0


class TestRepeatedOrder:
    """A correction that leaves its order live makes that order repeat.

    The span check admits a residual up to ``tol * max(1, |E|)``, while
    an order stays live above the absolute ``tol``.  On the Hirzebruch
    surface F_3 the gradient coefficient reaches |E| = 3, so a correction
    short by 2 tol / |E| of its length passes the one and fails the
    other; the order repeats, and a facet's weight increment no longer
    comes at a strictly higher order than its last one.
    """

    def test_repeated_order_clears_congruence_flag(self, monkeypatch):
        P = MomentPolytope(2, [((1, 0), 0), ((0, 1), 0), ((0, -1), -1),
                               ((-1, -3), -4)], name="F3")
        u = (Fraction(5, 4), Fraction(1, 2))
        witness = solve(leading_equations(P, u)).solutions[0]
        _, _, cert = lift_bulk(P, u, witness, Fraction(2))
        assert cert.congruences_checked
        assert len(set(cert.steps)) == len(cert.steps)

        lstsq = np.linalg.lstsq
        shortened = []

        def short(A, b, rcond=None):
            c, *rest = lstsq(A, b, rcond=rcond)
            size = np.max(np.abs(b))
            if size > 2 and not shortened:
                shortened.append(size)
                c = c * (1 - 2 * LIFT_TOL / size)
            return (c, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", short)
        _, _, cert = lift_bulk(P, u, witness, Fraction(2))
        assert shortened
        assert len(set(cert.steps)) == len(cert.steps) - 1
        assert not cert.congruences_checked
        assert cert.residual_valuation is INF

class TestPointLift:
    def test_cp1_constant_critical_points(self):
        P = build_example("cp1")
        F = leading_potential(P, (Fraction(1, 2),), mode=FLOAT,
                              trunc=Fraction(4))
        for sign in (1, -1):
            y, kv = lift_point(F, [sign], Fraction(3))
            assert kv is INF or kv >= 3
            assert abs(y[0].coefficient(0) - sign) < 1e-9

    def test_degenerate_start_rejected(self):
        P = build_example("cp1")
        F = leading_potential(P, (Fraction(1, 2),), mode=FLOAT,
                              trunc=Fraction(4))
        with pytest.raises(DegenerateCritical):
            lift_point(F, [1j], Fraction(3))  # Hessian fine but not critical
            # a genuinely non-improvable start must raise

    def test_start_must_be_a_unit(self):
        P = build_example("cp1")
        F = leading_potential(P, (Fraction(1, 2),), mode=FLOAT,
                              trunc=Fraction(4))
        with pytest.raises(DegenerateCritical, match="not a unit"):
            lift_point(F, [0], Fraction(3))
        with pytest.raises(ValueError, match="positive"):
            lift_point(F, [1], Fraction(0))


class TestCaseAnalysis:
    def test_parameter_validation(self):
        with pytest.raises(BadKahlerParams):
            case_analysis_two_point(Fraction(1, 4), 1, Fraction(1, 100))
        with pytest.raises(BadKahlerParams):
            case_analysis_two_point(Fraction(2, 5), 0, Fraction(1, 100))
        with pytest.raises(BadKahlerParams):
            case_analysis_two_point(Fraction(2, 5), 1, Fraction(0))

    def test_small_weight_regime(self):
        reports = case_analysis_two_point(Fraction(2, 5), 1,
                                          Fraction(1, 100), N=Fraction(2))
        cases = {r.case: r for r in reports}
        assert set(cases) == {1, 3}
        r1, r3 = cases[1], cases[3]
        assert r1.u == (Fraction(69, 200), Fraction(3, 10))
        assert len(r1.solutions) == 2
        assert r3.u == (Fraction(31, 100), Fraction(3, 10))
        assert len(r3.solutions) == 1
        for r in reports:
            for s in r.solutions:
                assert s.lift_residual_valuation is INF or \
                    s.lift_residual_valuation >= 2

    def test_large_weight_regime(self):
        reports = case_analysis_two_point(Fraction(2, 5), 1, Fraction(1, 10),
                                          N=Fraction(2))
        assert [r.case for r in reports] == [2]
        r = reports[0]
        assert r.u == (Fraction(1, 3), Fraction(3, 10))
        assert len(r.solutions) == 3
        for s in r.solutions:
            assert abs(s.d_bar ** 3 + 2) < 1e-9

    def test_threshold_regime_double_root(self):
        w = -float((27 / 2) ** (1 / 3))
        reports = case_analysis_two_point(Fraction(2, 5), w, Fraction(1, 30),
                                          N=Fraction(2))
        assert [r.case for r in reports] == [4]
        r = reports[0]
        assert r.degenerate
        assert sorted(s.multiplicity for s in r.solutions) == [1, 2]
        for s in r.solutions:
            # cubic relation for the secondary variable
            val = s.d_bar ** 2 * (s.d_bar + w) + 2
            assert abs(val) < 1e-8

    @pytest.mark.parametrize("w", [1, 2, Fraction(1, 2), 10 ** 19])
    def test_case_one_roots_in_solver_order(self, w):
        # for w > 0 the roots of d^2 = -2/w are conjugate imaginaries whose
        # real parts are roundoff; the order must not rest on their signs
        reports = case_analysis_two_point(Fraction(2, 5), w, Fraction(1, 100))
        assert reports[0].case == 1
        got = [s.d_bar for s in reports[0].solutions]
        assert got[0].imag < 0 < got[1].imag
        assert got == sorted(got, key=lambda z: solver._root_key((z,)))
        # solve_equations orders the roots of the same equation alike
        result = solver.solve_equations([{(2,): 1, (0,): 2 / complex(w)}],
                                        [(1, 1)])
        want = [s.values[(1, 1)] for s in result.solutions]
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_tiny_weight_keeps_its_case_three_root(self):
        # case 3 solves d + w = 0; at w = 1e-10 its root is d = -1e-10
        reports = case_analysis_two_point(Fraction(2, 5), 1e-10,
                                          Fraction(1, 100))
        r3, = [r for r in reports if r.case == 3]
        s, = r3.solutions
        assert abs(s.d_bar + 1e-10) < 1e-22

    def test_huge_weight_keeps_its_case_one_roots(self):
        # case 1 solves d^2 + 2/w = 0; at w = 1e19 its roots are
        # d = +-i sqrt(2e-19), about +-4.47e-10 i
        reports = case_analysis_two_point(Fraction(2, 5), 1e19,
                                          Fraction(1, 100))
        r1, = [r for r in reports if r.case == 1]
        assert [s.multiplicity for s in r1.solutions] == [1, 1]
        root = math.sqrt(2e-19)
        got = sorted((s.d_bar for s in r1.solutions), key=lambda z: z.imag)
        for d, want in zip(got, (-1j * root, 1j * root)):
            assert abs(d - want) < 1e-6 * root


class TestSolutionToTorus:
    def test_round_trip_through_flag_coordinates(self, twoblow):
        u = (Fraction(13, 40), Fraction(3, 10))
        witness = solve(leading_equations(twoblow, u)).solutions[0]
        y = solution_to_torus(twoblow, u, witness)
        assert len(y) == 2
        F = leading_potential(twoblow, u, mode=FLOAT, trunc=Fraction(13, 40))
        yser = [NovikovSeries.const(c, mode=FLOAT) for c in y]
        residuals, kv = F.gradient_residual(yser)
        # critical through the first level by construction
        assert kv is INF or kv > Fraction(3, 10)


def _lifted_scale(reports):
    return max((abs(c) for r in reports for sol in r.solutions
                for y in sol.lifted or [] for _, c in y.terms), default=1.0)


def _gradient_oracle(alpha, w, kappa, N, report, sol):
    """Largest gradient coefficient below T^N at a lifted point, from
    sparse float series arithmetic (no grid)."""
    P = build_example("two_point_blowup", alpha, (1 - alpha) / 2)
    bulk = BulkDeformation(
        {1: NovikovSeries.monomial(w, kappa, mode=FLOAT)}, mode=FLOAT)
    F = fano_bulk_potential(P, report.u, bulk, trunc=Fraction(N) + 1)
    residuals, _ = F.gradient_residual(sol.lifted)
    return max((abs(c) for r in residuals for e, c in r.terms if e < N),
               default=0.0)


class TestLargeGrid:
    def test_fine_grid_lifts(self):
        # q = 420 and cap = 1260: more than the former q*cap limit of
        # the grid, whose sparse fallback raised after about 40 s
        alpha, w, kappa, N = Fraction(4, 7), 0.5, Fraction(71, 420), 3
        reports = case_analysis_two_point(alpha, w, kappa, N=N)
        assert [r.case for r in reports] == [2]
        sols = reports[0].solutions
        assert [s.multiplicity for s in sols] == [1, 1, 1]
        for s in sols:
            assert s.lift_residual_valuation >= 3
            assert max(y.valuation() for y in s.lifted) == 0
        scale = _lifted_scale(reports)
        worst = _gradient_oracle(alpha, w, kappa, N, reports[0], sols[0])
        assert worst <= 1e-9 * scale

    def test_double_root_weight_at_order_three(self):
        # Pins the current outcome: the previous engine raised
        # DegenerateCritical here, at order 12/5, and which of the two
        # happens rests on roundoff.  The lift's coefficients reach 3e52;
        # the same engine in long double agrees within 2e-12 of that.
        alpha, kappa, N = Fraction(2, 5), Fraction(1, 30), 3
        reports = case_analysis_two_point(alpha, DOUBLE_ROOT_W, kappa, N=N)
        assert [r.case for r in reports] == [4]
        r = reports[0]
        assert r.degenerate
        assert [s.multiplicity for s in r.solutions] == [1, 2]
        simple, double = r.solutions
        assert double.lifted is None
        assert simple.lift_residual_valuation is INF
        worst = _gradient_oracle(alpha, DOUBLE_ROOT_W, kappa, N, r, simple)
        assert worst <= 1e-9 * _lifted_scale(reports)

    def test_cap_bound_raises_before_allocating(self):
        P = build_example("cp1")
        F = leading_potential(P, (Fraction(1, 2),), mode=FLOAT,
                              trunc=Fraction(4))
        N = Fraction(10 ** 6 + 1, 7)           # q = 14, cap = 2000002
        with pytest.raises(MonoidOverflow, match=r"q=14, cap=2000002"):
            lift_point(F, [1], N)

    def test_bulk_lift_shares_the_grid_bound(self):
        # cp1 at its centre: q = 2, so order N is the grid cap = 2N
        P = build_example("cp1")
        u = (Fraction(1, 2),)
        assert lifting.MAX_LIFT_CAP == 10_000
        bulk, _, cert = lift_bulk(P, u, [1], Fraction(10_000, 2))
        assert not bulk.entries and cert.steps == []
        with pytest.raises(MonoidOverflow, match=r"q=2, cap=10001"):
            lift_bulk(P, u, [1], Fraction(10_001, 2))


class TestOutputSeries:
    def test_lifted_series_are_canonical(self):
        # the grid builds its output without the constructor's checks
        reports = case_analysis_two_point(Fraction(2, 5), 1, Fraction(1, 10),
                                          N=Fraction(2))
        for sol in reports[0].solutions:
            for y in sol.lifted:
                assert y == NovikovSeries(y.terms, trunc=Fraction(2),
                                          mode=FLOAT)
                assert y.tol == 1e-10

    def test_negative_exponent_out_of_scope(self):
        F = PotentialFunction(1, [(NovikovSeries.monomial(
            1.0, Fraction(-1, 2), mode=FLOAT), (1,))])
        with pytest.raises(OutOfScope):
            lift_point(F, [1], Fraction(2))


# -- reference: the per-series grid engine the Newton lift ran on before ----
#
# Kept verbatim (renamed) so that the array engine in lifting.py can be
# checked against it: same pivots and valuations, and lifted coefficients
# equal up to roundoff.

class _RefGrid:
    """Series calculus on the exponent grid (1/q)Z, truncated below cap/q.

    A series is a pair ``(base, arr)`` meaning ``sum arr[j] T^((base+j)/q)``,
    or ``None`` for zero.  Coefficients below ``tol`` count as noise when
    valuations are measured.
    """

    def __init__(self, q: int, cap: int, tol: float):
        self.q = q
        self.cap = cap
        self.tol = tol

    def trim(self, base, arr):
        arr = np.asarray(arr, dtype=complex)
        keep = self.cap - base
        if keep <= 0:
            return None
        arr = arr[:keep]
        nz = np.flatnonzero(arr)
        if nz.size == 0:
            return None
        arr = arr[nz[0]:nz[-1] + 1]
        return (base + int(nz[0]), arr)

    def from_series(self, s: NovikovSeries):
        if s.is_zero:
            return None
        pairs = []
        for e, c in s.terms:
            idx = Fraction(e) * self.q
            assert idx.denominator == 1
            pairs.append((int(idx), complex(c)))
        base = min(i for i, _ in pairs)
        arr = np.zeros(max(i for i, _ in pairs) - base + 1, dtype=complex)
        for i, c in pairs:
            arr[i - base] += c
        return self.trim(base, arr)

    def to_series(self, d, trunc):
        if d is None:
            return NovikovSeries.zero(mode=FLOAT, trunc=trunc)
        base, arr = d
        recs = [{"exp": Fraction(base + j, self.q), "re": c.real, "im": c.imag}
                for j, c in enumerate(arr) if abs(c) > self.tol]
        return NovikovSeries.from_records(recs, mode=FLOAT, trunc=trunc)

    def significant(self, d):
        """Drop leading noise; ``None`` when nothing exceeds the threshold."""
        if d is None:
            return None
        base, arr = d
        big = np.flatnonzero(np.abs(arr) > self.tol)
        if big.size == 0:
            return None
        j0 = int(big[0])
        return (base + j0, arr[j0:])

    def valuation(self, d):
        s = self.significant(d)
        return INF if s is None else Fraction(s[0], self.q)

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        base = min(a[0], b[0])
        end = max(a[0] + len(a[1]), b[0] + len(b[1]))
        arr = np.zeros(end - base, dtype=complex)
        arr[a[0] - base:a[0] - base + len(a[1])] += a[1]
        arr[b[0] - base:b[0] - base + len(b[1])] += b[1]
        return self.trim(base, arr)

    def neg(self, a):
        return None if a is None else (a[0], -a[1])

    def scale(self, a, c):
        if a is None or c == 0:
            return None
        return (a[0], a[1] * c)

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return self.trim(a[0] + b[0], np.convolve(a[1], b[1]))

    def inv(self, a):
        """Reciprocal by Newton doubling; leading noise is discarded first."""
        a = self.significant(a)
        if a is None:
            raise DegenerateCritical("cannot invert a series that vanishes "
                                     "to working order")
        base, arr = a
        L = self.cap + base          # indices of the result run below cap
        if L < 1:
            return None
        arr = arr[:L] if len(arr) > L else arr
        b = np.array([1.0 / arr[0]], dtype=complex)
        m = 1
        while m < L:
            m = min(2 * m, L)
            ab = np.convolve(arr[:m], b)[:m]
            b = np.concatenate([b, np.zeros(m - len(b), dtype=complex)])
            b = 2 * b - np.convolve(b, ab)[:m]
        return self.trim(-base, b)

    def powi(self, a, p: int):
        if p == 0:
            return (0, np.array([1.0 + 0j]))
        if p < 0:
            return self.powi(self.inv(a), -p)
        result = None
        sq = a
        while p:
            if p & 1:
                result = sq if result is None else self.mul(result, sq)
            sq = self.mul(sq, sq) if p > 1 else sq
            p >>= 1
        return result

    def exp(self, a):
        """Exponential via the derivative recurrence; needs valuation >= 0.

        Sub-threshold coefficients are kept — they are often exactly the
        corrections a Newton step computed — but genuinely significant
        entries at negative orders are refused.
        """
        if a is None:
            return (0, np.array([1.0 + 0j]))
        sig = self.significant(a)
        if sig is not None and sig[0] < 0:
            raise DegenerateCritical("exponent series has a pole; correction "
                                     "is not small")
        base, arr = a
        if base < 0:
            arr = arr[-base:]
            base = 0
            if len(arr) == 0:
                return (0, np.array([1.0 + 0j]))
        L = self.cap
        c = np.zeros(L, dtype=complex)
        end = min(L, base + len(arr))
        c[base:end] = arr[:end - base]
        import cmath
        e = np.zeros(L, dtype=complex)
        e[0] = cmath.exp(c[0])
        jc = np.arange(L) * c
        for k in range(1, L):
            e[k] = np.dot(jc[1:k + 1], e[:k][::-1]) / k
        return self.trim(0, e)


def _ref_grid_for(F: PotentialFunction, y0_series, N, tol, limit=250000):
    """Common exponent grid for a lift, or ``None`` when one is impractical."""
    q = 1
    exps = [N]
    for coeff, _ in F.terms:
        exps.extend(e for e, _ in coeff.terms)
    for s in y0_series:
        exps.extend(e for e, _ in s.terms)
    for e in exps:
        if e is INF:
            continue
        f = Fraction(e)
        if f < 0:
            return None
        q = q * f.denominator // math.gcd(q, f.denominator)
    cap = Fraction(N) * q
    cap = int(math.ceil(cap)) if cap.denominator != 1 else int(cap)
    if q * cap > limit:
        return None
    return _RefGrid(q, cap, tol)


def _ref_envelope(grid: _RefGrid, dense_list):
    """Running max of coefficient magnitudes by grid order.

    Entries of a sum that fall below roundoff times this envelope are
    numerically indistinguishable from zero, so valuations of residuals
    are measured against it.
    """
    env = np.zeros(grid.cap)
    for d in dense_list:
        if d is None:
            continue
        base, arr = d
        hi = min(grid.cap, base + len(arr))
        if hi > base >= 0:
            env[base:hi] = np.maximum(env[base:hi], np.abs(arr[:hi - base]))
    return np.maximum.accumulate(np.maximum(env, 1.0))


def _ref_val_scaled(grid: _RefGrid, d, env):
    """First order whose coefficient exceeds ``tol`` times the local scale."""
    if d is None:
        return INF
    base, arr = d
    hi = min(grid.cap, base + len(arr))
    for j in range(max(base, 0), hi):
        if abs(arr[j - base]) > grid.tol * env[j]:
            return Fraction(j, grid.q)
    return INF


def _reference_dense_lift(F: PotentialFunction, y0_series, N,
                          grid: _RefGrid, max_iter, tol):
    g = grid
    coeffs = [(g.from_series(c.to_float()), e) for c, e in F.terms]
    coeffs = [(c, e) for c, e in coeffs if c is not None]
    y = [g.from_series(s.to_float()) for s in y0_series]
    n = len(y)
    prev_val = None
    for _ in range(max_iter):
        # every term value feeds both the gradient and the second derivatives
        termvals = []
        powers = [{} for _ in range(n)]
        for c, e in coeffs:
            val = c
            for i, p in enumerate(e):
                if p:
                    if p not in powers[i]:
                        powers[i][p] = g.powi(y[i], p)
                    val = g.mul(val, powers[i][p])
            termvals.append((val, e))
        G = [None] * n
        for val, e in termvals:
            for k in range(n):
                if e[k]:
                    G[k] = g.add(G[k], g.scale(val, e[k]))
        env = _ref_envelope(g, [val for val, _ in termvals])
        k_res = min((_ref_val_scaled(g, r, env) for r in G), default=INF)
        if k_res >= N:
            return [g.to_series(yi, N) for yi in y], INF
        if prev_val is not None and k_res <= prev_val:
            raise DegenerateCritical(
                f"no progress at order {k_res}; leading critical point is "
                "degenerate")
        prev_val = k_res
        H = [[None] * n for _ in range(n)]
        for val, e in termvals:
            for r in range(n):
                if not e[r]:
                    continue
                for s in range(r, n):
                    if e[s]:
                        H[r][s] = g.add(H[r][s], g.scale(val, e[r] * e[s]))
        for r in range(n):
            for s in range(r + 1, n):
                H[s][r] = H[r][s]
        delta = _ref_dense_solve(g, H, [g.neg(r) for r in G])
        for d in delta:
            if g.valuation(d) <= 0:
                raise DegenerateCritical(
                    "correction is not small; leading critical point is "
                    "degenerate")
        y = [g.mul(yi, g.exp(d)) for yi, d in zip(y, delta)]
    raise MonoidOverflow(f"Newton failed to reach order {N} in {max_iter} "
                         "iterations")


def _ref_dense_solve(g: _RefGrid, H, rhs):
    """Gaussian elimination with valuation pivoting on grid series."""
    n = len(rhs)
    M = [row[:] + [rhs[i]] for i, row in enumerate(H)]
    for col in range(n):
        pivot = None
        best = INF
        for r in range(col, n):
            v = g.valuation(M[r][col])
            if v < best:
                best = v
                pivot = r
        if pivot is None or best is INF:
            raise DegenerateCritical("second-derivative matrix is singular "
                                     "to working order")
        M[col], M[pivot] = M[pivot], M[col]
        inv = g.inv(M[col][col])
        M[col] = [g.mul(x, inv) for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] is not None:
                f = M[r][col]
                M[r] = [g.add(a, g.neg(g.mul(f, b)))
                        for a, b in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]



def _reference_case_lifts(alpha, w, kappa, N):
    """The case analysis without lifting, each simple root then lifted by
    the reference engine."""
    P = build_example("two_point_blowup", alpha, (1 - alpha) / 2)
    bulk = BulkDeformation(
        {1: NovikovSeries.monomial(complex(w), kappa, mode=FLOAT)},
        mode=FLOAT)
    out = []
    for r in case_analysis_two_point(alpha, w, kappa):
        F = fano_bulk_potential(P, r.u, bulk, trunc=Fraction(N) + 1)
        Ft = F.to_float().truncate_coefficients(Fraction(N) + 1)
        lifts = []
        for s in r.solutions:
            if s.multiplicity != 1:
                lifts.append((s, None, None))
                continue
            y0 = [NovikovSeries.const(s.d_bar, mode=FLOAT, trunc=N),
                  NovikovSeries.const(-1, mode=FLOAT, trunc=N)
                  + NovikovSeries.monomial(s.c_bar, r.mu, mode=FLOAT,
                                           trunc=N)]
            grid = _ref_grid_for(Ft, y0, Fraction(N), LIFT_TOL)
            y, kv = _reference_dense_lift(Ft, y0, Fraction(N), grid, 80,
                                          LIFT_TOL)
            lifts.append((s, y, kv))
        out.append((r, lifts))
    return out


DOUBLE_ROOT_W = -(27 / 2) ** (1 / 3)
REFERENCE_INPUTS = [
    (Fraction(2, 5), 1, Fraction(1, 100), 2),        # cases 1 and 3
    (Fraction(2, 5), 1, Fraction(1, 100), 3),
    (Fraction(2, 5), 1, Fraction(1, 10), 2),         # case 2
    (Fraction(2, 5), 1, Fraction(1, 10), 3),
    (Fraction(2, 5), 1, Fraction(1, 30), 2),         # case 4
    (Fraction(2, 5), 1, Fraction(1, 30), 3),
    (Fraction(2, 5), DOUBLE_ROOT_W, Fraction(1, 30), 2),
    # coefficients up to 1e28: absolute valuations would never settle
    (Fraction(2, 5), complex(-0.6308099723035494, -0.40568310149967457),
     Fraction(1, 30), 3),
    (Fraction(3, 5), 0.75j, Fraction(1, 20), 3),     # cases 1 and 3
]


class TestReferenceLift:
    @pytest.mark.parametrize("alpha,w,kappa,N", REFERENCE_INPUTS)
    def test_matches_reference_engine(self, alpha, w, kappa, N):
        got = case_analysis_two_point(alpha, w, kappa, N=N)
        want = _reference_case_lifts(alpha, w, kappa, N)
        assert [r.case for r in got] == [r.case for r, _ in want]
        scale = _lifted_scale(got)
        for r, (r_ref, lifts) in zip(got, want):
            assert (r.u, r.mu, r.degenerate) == \
                (r_ref.u, r_ref.mu, r_ref.degenerate)
            assert len(r.solutions) == len(lifts)
            for s, (s_ref, y_ref, kv_ref) in zip(r.solutions, lifts):
                assert (s.c_bar, s.d_bar, s.multiplicity) == \
                    (s_ref.c_bar, s_ref.d_bar, s_ref.multiplicity)
                assert s.lift_residual_valuation == kv_ref
                if y_ref is None:
                    assert s.lifted is None
                    continue
                for y, yr in zip(s.lifted, y_ref, strict=True):
                    a, b = dict(y.terms), dict(yr.terms)
                    for e in set(a) | set(b):
                        assert abs(a.get(e, 0) - b.get(e, 0)) <= \
                            1e-10 * scale, (e, a.get(e), b.get(e))


# -- the simple roots of a case lift in lockstep ------------------------------

class TestLockstep:
    @pytest.mark.parametrize("alpha,w,kappa,N", REFERENCE_INPUTS)
    def test_together_equals_alone(self, alpha, w, kappa, N):
        # the lockstep _exp takes the least correction valuation of the
        # running starts as its block width, which moves only roundoff
        P = build_example("two_point_blowup", alpha, (1 - alpha) / 2)
        bulk = BulkDeformation(
            {1: NovikovSeries.monomial(complex(w), kappa, mode=FLOAT)},
            mode=FLOAT)
        reports = case_analysis_two_point(alpha, w, kappa, N=N)
        scale = _lifted_scale(reports)
        for r in reports:
            F = fano_bulk_potential(P, r.u, bulk, trunc=Fraction(N) + 1)
            for s in r.solutions:
                if s.multiplicity != 1:
                    continue
                start = [NovikovSeries.const(s.d_bar, mode=FLOAT),
                         NovikovSeries.const(-1, mode=FLOAT)
                         + NovikovSeries.monomial(s.c_bar, r.mu, mode=FLOAT)]
                [alone] = lifting._NewtonGrid(F, N, (r.mu,)).lift([start])
                for y, ya in zip(s.lifted, alone, strict=True):
                    a, b = dict(y.terms), dict(ya.terms)
                    for e in set(a) | set(b):
                        assert abs(a.get(e, 0) - b.get(e, 0)) <= \
                            1e-12 * scale, (e, a.get(e), b.get(e))

    @pytest.mark.parametrize("starts,match", [
        ([1j, 0], "singular"),          # the 1j start fails after the 0
        ([0, 1j], "not a unit"),
    ])
    def test_first_failing_start_raises(self, starts, match):
        # as if the starts ran one after another: the start [0] fails at
        # once, the start [1j] only in its first solve
        P = build_example("cp1")
        F = leading_potential(P, (Fraction(1, 2),), mode=FLOAT,
                              trunc=Fraction(4))
        grid = lifting._NewtonGrid(F, Fraction(3))
        with pytest.raises(DegenerateCritical, match=match):
            grid.lift([[NovikovSeries.const(c, mode=FLOAT)] for c in starts])

    def test_earlier_start_failing_later_raises(self):
        # y^3 - 3y^2 + 3y has the degenerate critical point y = 1: from
        # 1 + T^(1/2) Newton halves the error, so the gradient keeps its
        # valuation and the second iteration finds no progress, after
        # the start [0] has already failed
        one = NovikovSeries.one(mode=FLOAT)
        F = PotentialFunction(1, [(one, (3,)), (one.scale(-3), (2,)),
                                  (one.scale(3), (1,))])
        grid = lifting._NewtonGrid(F, Fraction(3), (Fraction(1, 2),))
        slow = [one + NovikovSeries.monomial(1, Fraction(1, 2), mode=FLOAT)]
        with pytest.raises(DegenerateCritical, match="no progress"):
            grid.lift([slow, [NovikovSeries.zero(mode=FLOAT)]])

    def test_starts_finish_independently(self):
        # a start that is already critical returns before the others
        P = build_example("cp1")
        F = leading_potential(P, (Fraction(1, 2),), mode=FLOAT,
                              trunc=Fraction(4))
        grid = lifting._NewtonGrid(F, Fraction(3))
        starts = [[NovikovSeries.const(c, mode=FLOAT)
                   + NovikovSeries.monomial(a, Fraction(1, 2), mode=FLOAT)]
                  for c, a in ((1, 0.1), (-1, 0), (-1, 0.3j))]
        lifted = grid.lift(starts)
        assert [y.terms for y in lifted[1]] == [((Fraction(0), -1),)]
        assert [[y.terms for y in ys] for ys in lifted] == \
            [[y.terms for y in grid.lift([start])[0]] for start in starts]
        assert grid.lift([]) == []


# -- the engine's primitives against sparse float series --------------------

@st.composite
def grid_series(draw, valuation=0):
    """(q, cap, series of valuation >= ``valuation``, its grid vector);
    ``valuation=None`` draws a zero prefix of any length up to ``cap``."""
    q = draw(st.integers(1, 12))
    cap = q * draw(st.integers(1, 3))
    if valuation is None:
        valuation = draw(st.integers(1, cap))
    idx = draw(st.lists(st.integers(valuation, cap - 1), min_size=1,
                        max_size=6, unique=True)) if valuation < cap else []
    coeffs = [draw(st.complex_numbers(min_magnitude=0.01, max_magnitude=2))
              for _ in idx]
    vec = np.zeros(cap, dtype=complex)
    for j, c in zip(idx, coeffs):
        vec[j] = c
    series = NovikovSeries([(Fraction(j, q), c) for j, c in zip(idx, coeffs)],
                           trunc=Fraction(cap, q), mode=FLOAT)
    return q, cap, series, vec


def _assert_vector_matches(vec, q, series):
    scale = max([abs(c) for _, c in series.terms] + [1.0])
    want = np.zeros(len(vec), dtype=complex)
    for e, c in series.terms:
        want[int(e * q)] = c
    assert np.abs(vec - want).max(initial=0) <= 1e-9 * scale


class TestGridPrimitives:
    @settings(max_examples=60, deadline=None)
    @given(grid_series(), st.integers(2, 4))
    def test_power_is_truncated_product(self, data, p):
        q, cap, a, va = data
        unit = a + 1.5             # keeps the constant term away from 0
        va[0] += 1.5
        _assert_vector_matches(_power(va, p, None), q,
                               (unit ** p).truncate(Fraction(cap, q)))

    @settings(max_examples=60, deadline=None)
    @given(grid_series(valuation=None), st.complex_numbers(min_magnitude=0.5,
                                                           max_magnitude=2),
           st.data())
    def test_inverse(self, data, lead, draw):
        # a zero run a[1:g] = 0 starts the doubling at g; L runs from 1
        # through lengths that are not powers of two
        q, cap, a, va = data
        L = draw.draw(st.integers(1, cap))
        unit = a + lead
        va[0] += lead
        inv = _inverse(va, L)
        _assert_vector_matches(inv, q, unit.inverse(Fraction(L, q)))
        _assert_vector_matches(_power(va[:L], -2, inv), q,
                               (unit ** -2).truncate(Fraction(L, q)))

    @pytest.mark.parametrize("a,L", [
        ([2, 1], 1),                    # L = 1: nothing to double
        ([2], 5),                       # no nonzero order: 1/a[0] alone
        ([2, 0, 0, 0, 1], 5),           # the gap reaches L - 1
        ([2, 0, 0, 1, 1, 0, 3], 7),     # doubling from 3 to 6, then 7
        ([2, 0, 1], 6),
    ])
    def test_inverse_after_a_gap(self, a, L):
        a = np.array(a, dtype=complex)
        got = _inverse(a, L)
        want = NovikovSeries([(j, complex(c)) for j, c in enumerate(a)
                              if c], mode=FLOAT).inverse(L)
        _assert_vector_matches(got, 1, want)

    @settings(max_examples=60, deadline=None)
    @given(grid_series(valuation=1), st.complex_numbers(min_magnitude=0.5,
                                                        max_magnitude=2),
           st.data())
    def test_inverse_of_shorter_input(self, data, lead, draw):
        # the pivot rows of the elimination are shorter than the inverse
        # they need; the missing orders count as 0
        q, cap, a, va = data
        k = draw.draw(st.integers(1, cap))
        va[0] += lead
        short = [(e, c) for e, c in (a + lead).terms if e < Fraction(k, q)]
        unit = NovikovSeries(short, trunc=Fraction(cap, q), mode=FLOAT)
        _assert_vector_matches(_inverse(va[:k], cap), q,
                               unit.inverse(Fraction(cap, q)))

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 7])
    def test_inverse_of_a_constant(self, L):
        want = np.zeros(L, dtype=complex)
        want[0] = 0.5
        assert np.array_equal(_inverse(np.array([2.0 + 0j]), L), want)

    @settings(max_examples=60, deadline=None)
    @given(grid_series(valuation=1), st.complex_numbers(max_magnitude=1))
    def test_exp(self, data, c0):
        q, cap, a, va = data
        va[0] += c0
        got = _exp(np.vstack([va, -va]))
        _assert_vector_matches(got[0], q, (a + c0).exp())
        _assert_vector_matches(np.convolve(got[0], got[1])[:cap], q,
                               NovikovSeries.one(mode=FLOAT))


# -- the engine's primitives against exact series ---------------------------

def _draw_exact(draw, q, cap, valuation):
    """An exact series on the grid (1/q)Z below ``cap/q`` with valuation
    at least ``valuation/q``, and its grid vector; ``valuation=None``
    draws a zero prefix of any length up to ``cap``."""
    if valuation is None:
        valuation = draw(st.integers(1, cap))
    idx = draw(st.lists(st.integers(valuation, cap - 1), max_size=6,
                        unique=True)) if valuation < cap else []
    coeffs = [draw(st.fractions(-2, 2, max_denominator=60).filter(bool))
              for _ in idx]
    vec = np.zeros(cap, dtype=complex)
    for j, c in zip(idx, coeffs):
        vec[j] = complex(c)
    series = NovikovSeries([(Fraction(j, q), c) for j, c in zip(idx, coeffs)])
    return series, vec


@st.composite
def exact_grid_series(draw, valuation=0):
    """(q, cap, exact series, its grid vector), as ``_draw_exact``."""
    q = draw(st.integers(1, 12))
    cap = q * draw(st.integers(1, 3))
    return (q, cap, *_draw_exact(draw, q, cap, valuation))


def _assert_matches_exact(vec, q, series):
    """``vec`` equals the exact ``series`` below ``T^(len(vec)/q)`` within
    1e-12 of its largest coefficient."""
    cap = len(vec)
    want = np.zeros(cap, dtype=complex)
    for e, c in series.truncate(Fraction(cap, q)).terms:
        want[int(e * q)] = complex(c)
    scale = max(np.abs(want).max(initial=0), 1.0)
    assert np.abs(vec - want).max(initial=0) <= 1e-12 * scale


_units = st.fractions(-2, 2, max_denominator=60).filter(lambda c: abs(c) >= 0.5)


class TestGridPrimitivesExact:
    @settings(max_examples=80, deadline=None)
    @given(exact_grid_series(valuation=1), _units,
           st.integers(-3, 4).filter(bool))
    def test_power(self, data, lead, p):
        q, cap, a, va = data
        unit = a + lead
        va[0] += complex(lead)
        if p > 0:
            got, want = _power(va, p, None), unit ** p
        else:
            got = _power(va, p, _inverse(va, cap))
            want = unit.inverse(Fraction(cap, q)) ** -p
        _assert_matches_exact(got, q, want)

    @settings(max_examples=80, deadline=None)
    @given(exact_grid_series(valuation=None), _units, st.data())
    def test_inverse(self, data, lead, draw):
        # also from a shorter input, as the elimination's pivot rows are,
        # after a zero run a[1:g] = 0, and to any length L from 1 on
        q, cap, a, va = data
        k = draw.draw(st.integers(1, cap))
        L = draw.draw(st.integers(1, cap))
        # the orders from k on count as 0
        unit = NovikovSeries([(e, c) for e, c in (a + lead).terms
                              if e < Fraction(k, q)])
        va[0] += complex(lead)
        _assert_matches_exact(_inverse(va[:k], L), q,
                              unit.inverse(Fraction(L, q)))

    @settings(max_examples=80, deadline=None)
    @given(exact_grid_series(valuation=None), st.data())
    def test_exp_after_zero_prefix(self, a, draw):
        # _exp's block width is the shortest zero prefix of its rows
        q, cap, sa, va = a
        sb, vb = _draw_exact(draw.draw, q, cap, None)
        got = _exp(np.vstack([va, -va, vb]))
        trunc = Fraction(cap, q)
        for row, s in zip(got, (sa, -sa, sb)):
            _assert_matches_exact(row, q, s.truncate(trunc).exp())


# -- Newton corrections start at their true valuation -----------------------

class TestCorrectionValuations:
    def test_case_two_corrections_double(self, monkeypatch):
        # The gradient's orders within the rounding-error bound of its sum
        # are zeroed before the solve, so each correction's first nonzero
        # index is its true valuation and roughly doubles per iteration.
        # Without that floor the roundoff left in the low orders of the
        # gradient gives corrections starting at 0, 1, 1, 1, 3.
        # The starts run in lockstep, so one _exp call serves all of them;
        # each start's corrections are read from its own iteration.
        seen = []
        newton = lifting._NewtonGrid._newton

        def traced_newton(self, y0):
            valuations = []
            seen.append(valuations)
            run, rows = newton(self, y0), None
            while True:
                try:
                    delta = run.send(rows)
                except StopIteration as done:
                    return done.value
                valuations.append(int(np.flatnonzero(delta.any(axis=0))[0]))
                rows = yield delta

        monkeypatch.setattr(lifting._NewtonGrid, "_newton", traced_newton)
        reports = case_analysis_two_point(Fraction(2, 5), 1, Fraction(1, 10),
                                          N=3)
        assert [(r.case, r.mu) for r in reports] == [(2, Fraction(1, 30))]
        assert seen == [[1, 2, 4, 8, 18]] * 3


if __name__ == "__main__":
    PINNED.write_text(json.dumps(
        {key: _bulk_record(*args) for key, *args in _pinned_cases()},
        indent=1) + "\n")
