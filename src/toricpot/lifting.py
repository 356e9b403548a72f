"""Order-by-order lifting of leading solutions.

Two inductions:

* ``lift_bulk`` — keep the torus point fixed and build divisor weights
  order by order so the point becomes critical for the deformed
  potential up to a requested order;
* ``lift_point`` — keep the potential fixed and correct a nondegenerate
  leading solution into a critical point with Novikov-series
  coordinates, Newton style.

Both run on the exponent grid: every exponent is a multiple of 1/q, so
an order is an int index ``j`` standing for ``j/q``, and a series of
valuation >= 0 truncated at ``T^N`` is a complex vector of length
``cap = qN``.  The bulk lift keeps the monoid of admissible weight
orders as a bool vector on that grid, closed under each new generator
by ``_monoid_close``; Newton lifting runs on ``_NewtonGrid``, which
lifts several starts in lockstep.  Both
take their grid from one rule, ``_grid``: a grid with ``cap`` above
``MAX_LIFT_CAP`` raises :class:`MonoidOverflow` before anything is
allocated.

Plus the closed-form parameter study of the two-point blow-up with a
one-divisor weight ``w T^kappa``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import lattice
from .errors import (BadGenerator, BadKahlerParams, DegenerateCritical,
                     MonoidOverflow, NoFullFlag, OutOfScope,
                     SpanViolation, ToricPotError)
from .leading import flag_basis, level_structure
from .novikov import DEFAULT_TOL, FLOAT, INF, NovikovSeries, as_exponent
from .polytope import MomentPolytope, build_example
from .potential import (BulkDeformation, PotentialFunction,
                        fano_bulk_potential)
from .solver import LeadingSolution, _root_clusters

LIFT_TOL = 1e-9
MAX_BULK_STEPS = 500    # weight corrections a bulk lift makes at most
MAX_LIFT_CAP = 10_000   # longest exponent grid a lift allocates


@dataclass
class LiftCertificate:
    order: Fraction
    residual_valuation: object       # Fraction or math.inf
    steps: list                      # orders handled during the induction
    monoid_generators: list
    monoid_grown: list
    congruences_checked: bool


def _monomial(y, v):
    """The value ``y^v`` of a Laurent monomial at the complex point ``y``."""
    acc = 1.0 + 0j
    for c, p in zip(y, v):
        acc *= c ** p
    return acc


def _flag_point_to_torus(fb, values: dict):
    """Original-coordinate values from flag-variable values.

    The flag rows form a lattice basis; ``y_i`` is the product of flag
    values raised to the i-th column of the inverse basis matrix.
    """
    inv = lattice.invert(fb.rows)
    if inv is None:
        raise NoFullFlag("flag basis is not full; cannot map to the torus")
    assert all(e.denominator == 1 for row in inv for e in row)
    ordered = [values[lab] for lab in fb.labels]
    return [_monomial(ordered, [int(e) for e in row]) for row in inv]


def solution_to_torus(P: MomentPolytope, u, sol: LeadingSolution):
    """Complex torus point of a leading solution, in y-coordinates."""
    ls = level_structure(P, u)
    if ls.K is None:
        raise NoFullFlag("level flag never spans the whole space")
    fb = flag_basis(ls)
    return _flag_point_to_torus(fb, sol.values)


def lift_bulk(P: MomentPolytope, u, sol, N, gens=(), tol=LIFT_TOL):
    """Divisor weights making a full leading solution critical mod T^N.

    At each order the lowest surviving coefficient vector of the
    gradient is cancelled by a least-norm combination of the level
    normal vectors whose levels lie strictly below that order; each
    chosen combination becomes a weight increment on its facet.
    ``gens`` are extra positive monoid generators.

    Returns ``(bulk, y, certificate)`` where ``y`` is the complex torus
    point used.
    """
    u = tuple(Fraction(x) for x in u)
    ls = level_structure(P, u)
    if ls.K is None:
        raise NoFullFlag("level flag never spans the whole space")
    fb = flag_basis(ls) if isinstance(sol, LeadingSolution) else None
    return _lift_bulk(P, u, ls, fb, sol, N, gens, tol)


def _grid(N, exponents):
    """The exponent grid ``(q, cap)`` of a lift to order ``N``: ``q`` is
    the lcm of the denominators of ``N`` and of ``exponents``, and
    ``cap = qN``, at most ``MAX_LIFT_CAP``."""
    q = math.lcm(N.denominator, *(x.denominator for x in exponents))
    cap = int(N * q)
    if cap > MAX_LIFT_CAP:
        raise MonoidOverflow(
            f"exponent grid q={q}, cap={cap} exceeds the lifting bound "
            f"cap <= {MAX_LIFT_CAP}")
    return q, cap


def _monoid_close(reach, g):
    """Close the bool vector ``reach`` in place under adding the int
    ``g > 0``: a running OR along each residue class mod ``g``."""
    L = len(reach)
    rows = -(-L // g)
    grid = np.zeros(rows * g, dtype=bool)
    grid[:L] = reach
    reach[:] = np.logical_or.accumulate(grid.reshape(rows, g)).ravel()[:L]


def _lift_bulk(P: MomentPolytope, u, ls, fb, sol, N, gens=(), tol=LIFT_TOL):
    """``lift_bulk`` from the fiber's full level structure ``ls`` and its
    flag basis ``fb``, which is read only when ``sol`` is a
    ``LeadingSolution``.

    Every order is an int index ``j`` on (1/q)Z below ``cap = qN``, where
    ``q`` is the lcm of the denominators of ``N``, of the facet values
    and of ``gens``.
    """
    N = as_exponent(N)
    gens = [Fraction(g) for g in gens]
    for g in gens:
        if g <= 0:
            raise BadGenerator(f"generator {g} is not positive")
    if isinstance(sol, LeadingSolution):
        y = _flag_point_to_torus(fb, sol.values)
    else:
        y = [complex(c) for c in sol]
    ell = [f.ell(u) for f in P.facets]
    q, cap = _grid(N, ell + gens)
    at = [int(x * q) for x in ell]
    yv = [_monomial(y, f.v) for f in P.facets]
    normals = np.array([[complex(p) for p in f.v] for f in P.facets])

    # facets usable for corrections, level by level, so the columns with
    # level below an order form a prefix
    cols = [i for part in ls.k_prefix for i in part]
    col_at = [at[i] for i in cols]
    col_normals = normals[cols].T

    # generator indices: the user's and the level gaps; reach[j] says
    # whether j/q is a sum of them
    monoid = {int(g * q) for g in gens}
    levels = {int(lev.S * q) for lev in ls.levels}
    monoid |= {b - a for a in levels for b in levels if b > a}
    grown = []
    reach = np.zeros(cap + 1, dtype=bool)
    reach[0] = True
    for g in monoid:
        if g <= cap:
            _monoid_close(reach, g)

    def admit(j):
        if not reach[j]:
            monoid.add(j)
            grown.append(j)
            _monoid_close(reach, j)

    # per-facet gradient contribution T^{ell_i} exp(b_i) y^{v_i}, updated
    # multiplicatively so the exponential never needs recomputing
    contrib = np.zeros((P.m, cap), dtype=complex)
    for i in range(P.m):
        if at[i] < cap:
            contrib[i, at[i]] = yv[i]
    pending: dict = {}   # facet -> {weight index: weight coefficient}
    prev: dict = {}      # facet -> index of its last weight increment
    steps = []
    congruent = True
    for _ in range(MAX_BULK_STEPS):
        # gradient residual vector, one dense series per torus direction
        residuals = normals.T @ contrib
        live = np.flatnonzero(np.abs(residuals).max(axis=0) > tol)
        if not live.size:
            break
        k = int(live[0])
        E_vec = residuals[:, k]
        width = bisect.bisect_left(col_at, k)
        if not width:
            raise SpanViolation(f"gradient term at order {Fraction(k, q)} "
                                "precedes every usable level")
        # the weight increment divides by the monomial value, so each
        # correction changes the gradient coefficient by its bare normal
        A = col_normals[:, :width]
        c, *_ = np.linalg.lstsq(A, -E_vec, rcond=None)
        if np.max(np.abs(A @ c + E_vec)) > tol * max(1.0, np.max(np.abs(E_vec))):
            raise SpanViolation(
                f"gradient coefficient at order {Fraction(k, q)} is outside "
                "the span of the available normal vectors")
        admit(k)
        for i, s, coeff in zip(cols, col_at, c):
            if abs(coeff) < tol * 1e-3:
                continue
            d = k - s
            admit(d)
            # successive weights must only change at strictly higher order
            if d <= prev.get(i, 0):
                congruent = False
            prev[i] = d
            a = coeff / yv[i]
            slot = pending.setdefault(i, {})
            slot[d] = slot.get(d, 0) + a
            # multiply by exp(a T^{d/q}) on the dense grid; the
            # exponential is sparse, so apply it as shifted adds
            base = contrib[i].copy()
            term = 1.0 + 0j
            m = 1
            while m * d < cap:
                term *= a / m
                contrib[i, m * d:] += term * base[:cap - m * d]
                m += 1
        steps.append(k)
    else:
        raise MonoidOverflow(f"gradient order failed to reach {N} within "
                             f"{MAX_BULK_STEPS} corrections")
    entries = {}
    for i, d in pending.items():
        idx = sorted(d)
        entries[i] = NovikovSeries._from_indices(
            q, idx, [d[j] for j in idx], INF, FLOAT, tol * 1e-3)
    bulk = BulkDeformation(entries, mode=FLOAT, tol=tol * 1e-3)
    return bulk, y, LiftCertificate(
        N, INF, [Fraction(j, q) for j in steps],
        [Fraction(g, q) for g in sorted(monoid)],
        [Fraction(g, q) for g in grown], congruent)


def lift_point(F: PotentialFunction, y0, N, tol=LIFT_TOL):
    """Newton-correct a leading solution into a critical point mod T^N.

    ``y0`` is a vector of nonzero complex numbers solving the system to
    leading order.  Each iteration solves the linearized critical-point
    equation on the exponent grid (see ``_NewtonGrid``) and multiplies
    the point by the exponential of the correction.  Returns ``(y,
    residual_valuation)``; the valuation is ``math.inf``, because the
    iteration stops only once the gradient vanishes below ``T^N``.
    """
    y0_series = [NovikovSeries.const(complex(c), mode=FLOAT) for c in y0]
    return _NewtonGrid(F, N, tol=tol).lift([y0_series])[0], INF


# -- two-point blow-up parameter study -------------------------------------

@dataclass
class CaseSolution:
    c_bar: complex
    d_bar: complex
    multiplicity: int
    lifted: Optional[list] = None          # y series when lifted
    lift_residual_valuation: object = None


@dataclass
class CaseReport:
    case: int
    alpha: Fraction
    beta: Fraction
    w: complex
    kappa: Fraction
    u: tuple                               # the distinguished fiber
    mu: Fraction
    solutions: list                        # of CaseSolution
    degenerate: bool                       # multiple secondary root present


def case_analysis_two_point(alpha, w, kappa, N=None):
    """Critical fibers of the two-point blow-up with weight ``w T^kappa``.

    The symmetric shape ``beta = (1-alpha)/2`` with ``alpha > 1/3`` is
    assumed.  At the fiber ``u = (u_1, beta)`` the substitution
    ``y_1 = d``, ``y_2 = -1 + c T^mu`` turns the critical-point equations,
    to leading order, into one polynomial equation in ``d``, with ``c`` a
    function of ``d``.  With ``t = alpha/2 - 1/6``, ``b = beta`` and
    ``k = kappa`` the cases are

    ====  =====  =================  ============  ============  =======
    case  when   u_1                mu            polynomial    c
    ====  =====  =================  ============  ============  =======
    1     k < t  (1+alpha)/4 - k/2  k             d^2 + 2/w     w/2
    3     k < t  b + k              1 - 3b - 2k   d + w         -1/w^2
    2     k > t  1/3                1/3 - b       d^3 + 2       d/2
    4     k = t  1/3                1/3 - b       d^2(d+w) + 2  (w+d)/2
    ====  =====  =================  ============  ============  =======

    Each report lists the roots ``d`` with their multiplicities in
    ``_root_key`` order.  Roots within 1e-5 of each other count as one
    multiple root, and a report with a multiple root is ``degenerate``.
    With ``N`` given, the simple roots of each case are Newton-lifted
    together, in lockstep on one grid, to critical points of the deformed
    potential mod ``T^N``.
    """
    alpha = Fraction(alpha)
    kappa = Fraction(kappa)
    w = complex(w)
    if not Fraction(1, 3) < alpha < 1:
        raise BadKahlerParams("requires 1/3 < alpha < 1")
    if kappa <= 0:
        raise BadKahlerParams("requires kappa > 0")
    if w == 0:
        raise BadKahlerParams("requires w != 0")
    beta = (1 - alpha) / 2
    threshold = alpha / 2 - Fraction(1, 6)
    third = Fraction(1, 3)
    # (case, sign of kappa - threshold, u_1, mu, polynomial in d, c(d))
    table = [
        (1, -1, (1 + alpha) / 4 - kappa / 2, kappa, [1, 0, 2 / w],
         lambda d: w / 2),
        (3, -1, beta + kappa, 1 - 3 * beta - 2 * kappa, [1, w],
         lambda d: -1 / w ** 2),
        (2, 1, third, third - beta, [1, 0, 0, 2], lambda d: d / 2),
        (4, 0, third, third - beta, [1, w, 0, 2], lambda d: (w + d) / 2),
    ]
    side = (kappa > threshold) - (kappa < threshold)
    P = build_example("two_point_blowup", alpha, beta)
    reports = []
    for case, row_side, u1, mu, poly, c_of in table:
        if row_side != side:
            continue
        solutions = [CaseSolution(c_of(complex(d)), complex(d), m)
                     for d, m in _root_clusters(poly, tol=1e-5)]
        if N is not None:
            bulk = BulkDeformation(
                {1: NovikovSeries.monomial(w, kappa, mode=FLOAT)}, mode=FLOAT)
            F = fano_bulk_potential(P, (u1, beta), bulk,
                                    trunc=as_exponent(N) + 1)
            simple = [sol for sol in solutions if sol.multiplicity == 1]
            starts = [[NovikovSeries.const(sol.d_bar, mode=FLOAT),
                       NovikovSeries.const(-1, mode=FLOAT)
                       + NovikovSeries.monomial(sol.c_bar, mu, mode=FLOAT)]
                      for sol in simple]
            lifted = _NewtonGrid(F, N, (mu,)).lift(starts)
            for sol, y in zip(simple, lifted):
                sol.lifted, sol.lift_residual_valuation = y, INF
        reports.append(CaseReport(
            case, alpha, beta, w, kappa, (u1, beta), mu, solutions,
            degenerate=any(sol.multiplicity > 1 for sol in solutions)))
    return reports


# -- Newton lifting on the exponent grid -----------------------------------
#
# A product of grid vectors is a truncated convolution.  Series Newton
# and inversion by doubling follow Brent & Kung, J. ACM 25 (1978), and
# von zur Gathen & Gerhard, Modern Computer Algebra, Sec. 9.1: a step
# from m to 2m exact orders needs only the orders m..2m-1 of the
# residual, and a unit whose orders 1..g-1 vanish starts the doubling
# at m = g.  The Newton iterations of several starts on one grid run in
# lockstep, so that one exponential serves all of their corrections.

MAX_NEWTON_ITER = 80    # Newton iterations a point lift makes at most


def _first(hit):
    """Index of the first True entry of a boolean vector, or None."""
    j = int(hit.argmax())
    return j if hit[j] else None


def _inverse(a, L):
    """First ``L`` coefficients of ``1/a``, ``a[0] != 0``, by Newton
    doubling; ``a`` may be shorter than ``L``.

    When the orders ``1..g-1`` of ``a`` vanish, ``1/a[0]`` is already
    exact below order ``g``, so doubling starts at ``m = g``.  Once ``b``
    is exact below ``m``, ``a b`` is ``1, 0, ..., 0`` below ``m``, so each
    step forms only the orders ``m..m2-1`` of ``a b`` and corrects ``b``
    by them.
    """
    b = np.zeros(max(L, 1), dtype=complex)
    b[0] = 1.0 / a[0]
    gap = np.flatnonzero(a[1:L])
    m = int(gap[0]) + 1 if gap.size else L
    if len(a) < L:
        a = np.concatenate([a, np.zeros(L - len(a), dtype=complex)])
    while m < L:
        m2 = min(2 * m, L)
        ab = np.convolve(a[:m2], b[:m])[m:m2]
        b[m:m2] = -np.convolve(b[:m2 - m], ab)[:m2 - m]
        m = m2
    return b


def _power(a, p, inv):
    """``a**p`` truncated to ``len(a)`` by repeated squaring, from ``a`` or,
    for ``p < 0``, from its inverse ``inv``."""
    L = len(a)
    if p < 0:
        a, p = inv, -p
    result = None
    while p:
        if p & 1:
            result = a if result is None else np.convolve(result, a)[:L]
        if p > 1:
            a = np.convolve(a, a)[:L]
        p >>= 1
    return result


def _exp(c):
    """``exp`` of each row of ``c`` (series of valuation >= 0), by the
    derivative recurrence ``k e_k = sum_j j c_j e_{k-j}``.

    When ``c_j = 0`` for ``0 < j < v``, the ``e_k`` of ``v`` consecutive
    orders depend only on earlier orders, so each such block is one
    product with the Toeplitz matrix ``(j c_j)``, read as a strided view.
    """
    R, L = c.shape
    e = np.zeros_like(c)
    e[:, 0] = np.exp(c[:, 0])
    jc = np.arange(L) * c
    nz = np.flatnonzero(jc.any(axis=0))
    if not nz.size:
        return e
    v = int(nz[0])
    # T[r, k, m] = jc[r, k - m], zero for m > k
    z = np.zeros((R, 2 * L - 1), dtype=complex)
    z[:, :L] = jc[:, ::-1]
    r_st, k_st = z.strides
    T = np.lib.stride_tricks.as_strided(
        z, shape=(R, L, L), strides=(r_st, k_st, k_st))[:, ::-1]
    for s in range(v, L, v):
        b = min(v, L - s)
        e[:, s:s + b] = (T[:, s:s + b, :s] @ e[:, :s, None])[..., 0] \
            / np.arange(s, s + b)
    return e


class _NewtonGrid:
    """A potential compiled onto the exponent grid (1/q)Z below ``N``.

    ``q`` is the lcm of the denominators of ``N``, of the coefficient
    exponents below ``N`` and of ``exponents`` (those of the starting
    points), and index ``j`` of a length-``cap`` vector stands for
    ``T^(j/q)``, ``cap = qN``.  The terms become an exponent matrix
    ``E`` (terms x n) and a coefficient matrix ``C`` (terms x cap); a
    monomial coefficient ``a T^(j/q)`` is applied as a shift by ``j`` and
    a scaling by ``a``.  A grid longer than ``MAX_LIFT_CAP`` raises
    :class:`MonoidOverflow` before anything is allocated.  Coefficients
    of modulus at most ``tol`` count as noise when valuations are
    measured.
    """

    def __init__(self, F: PotentialFunction, N, exponents=(), tol=LIFT_TOL):
        N = as_exponent(N)
        if not N > 0:
            raise ValueError(f"lift order must be positive, got {N}")
        terms = [([(x, c) for x, c in coeff.terms if x < N], e)
                 for coeff, e in F.terms]
        terms = [(c, e) for c, e in terms if c]
        exps = [x for c, _ in terms for x, _ in c]
        exps += [as_exponent(x) for x in exponents]
        if any(x < 0 for x in exps):
            raise OutOfScope("Newton lifting needs coefficients and starting "
                             "points of valuation >= 0")
        q, cap = _grid(N, exps)
        self.N, self.q, self.cap, self.tol = N, q, cap, tol
        self.n = F.n
        self.E = np.array([e for _, e in terms], dtype=float).reshape(-1, F.n)
        self.C = np.zeros((len(terms), cap), dtype=complex)
        # Rounding-error bound gamma_m = m u / (1 - m u) of a sum of m
        # products (Higham, Accuracy and Stability, 2002, Sec. 3.1), with
        # |E[t, r]| summed over the terms: coordinate r of ``E^T V`` at an
        # order where every term value is at most ``env`` is within
        # ``roundoff[r] * env`` of the exact sum.
        m, u = len(terms), np.finfo(float).eps / 2
        self.roundoff = m * u / (1 - m * u) * np.abs(self.E).sum(axis=0)
        self.shift = []          # (index, scalar) of a monomial coefficient
        for t, (coeff, _) in enumerate(terms):
            idx = [int(x * q) for x, _ in coeff]
            for j, (_, c) in zip(idx, coeff):
                self.C[t, j] = complex(c)
            self.shift.append((idx[0], self.C[t, idx[0]])
                              if len(idx) == 1 else None)

    def lift(self, starts):
        """Newton-correct each start (a list of unit series) into a
        critical point mod ``T^N``; returns their coordinates as float
        series, one list per start.

        The starts run in lockstep: each round advances every running
        start's iteration (``_newton``) to its next correction, and one
        ``_exp`` call on their stacked rows serves them all.  Its block
        width, the least correction valuation among them, is valid for
        every row.  If a start fails, the first failing start in start
        order raises, as it would if the starts ran one after another:
        the starts before it keep running, those after it are dropped.
        """
        runs = {k: self._newton(y0) for k, y0 in enumerate(starts)}
        lifted = [None] * len(runs)
        rows = dict.fromkeys(runs)
        error = None
        while runs:
            deltas = {}
            for k, run in list(runs.items()):
                try:
                    deltas[k] = run.send(rows[k])
                except StopIteration as done:
                    lifted[k] = done.value
                    del runs[k]
                except ToricPotError as exc:
                    error = exc
                    runs = {j: r for j, r in runs.items() if j < k}
                    break
            if deltas:
                e = _exp(np.vstack([x for d in deltas.values()
                                    for x in (d, -d)]))
                rows = {k: e[2 * self.n * r:2 * self.n * (r + 1)]
                        for r, k in enumerate(deltas)}
        if error is not None:
            raise error
        return lifted

    def _newton(self, y0):
        """The Newton iteration of one start, as a generator: it yields
        each correction ``delta`` (n x cap), is sent back the rows of
        ``exp(delta)`` and ``exp(-delta)``, and returns the lifted series.

        Each iteration evaluates the term values ``V``, the gradient
        ``E^T V`` and the Hessian, measures the gradient's valuation
        against the running maximum of ``|V|`` (an entry below ``tol``
        times that envelope is roundoff), solves for the correction
        ``delta`` and multiplies each coordinate by ``exp(delta)``.
        Gradient entries within the rounding-error bound of their sum
        are zeroed before the solve, so the correction has no roundoff
        orders below its true valuation.
        """
        q, cap, tol = self.q, self.cap, self.tol
        y = np.zeros((self.n, cap), dtype=complex)
        for i, s in enumerate(y0):
            for x, c in s.terms:
                if x < self.N:
                    y[i, int(x * q)] = complex(c)
        for i in range(self.n):
            if abs(y[i, 0]) <= tol:
                raise DegenerateCritical(
                    f"starting coordinate {i + 1} is not a unit")
        # 1/y, kept in step with y: y exp(delta) has inverse exp(-delta)/y
        yinv = np.array([_inverse(yi, cap) for yi in y])
        prev = None
        for _ in range(MAX_NEWTON_ITER):
            V = self._term_values(y, yinv)
            env = np.maximum.accumulate(
                np.maximum(np.abs(V).max(axis=0, initial=0), 1.0))
            G = self.E.T @ V
            # what the sum's roundoff can explain is zero, so that each
            # correction starts at its true valuation
            G[np.abs(G) <= self.roundoff[:, None] * env] = 0
            k = _first((np.abs(G) > tol * env).any(axis=0))
            if k is None:
                return [self._series(yi) for yi in y]
            if prev is not None and k <= prev:
                raise DegenerateCritical(
                    f"no progress at order {Fraction(k, q)}; leading critical "
                    "point is degenerate")
            prev = k
            H = np.einsum("tr,ts,tj->rsj", self.E, self.E, V)
            delta = np.zeros((self.n, cap), dtype=complex)
            for i, (d, lo) in enumerate(self._solve(H, -G)):
                j = _first(np.abs(d) > tol)
                if j is not None and j + lo <= 0:
                    raise DegenerateCritical(
                        "correction is not small; leading critical point is "
                        "degenerate")
                # the orders >= 0, sub-threshold ones included: they are
                # often the corrections themselves
                delta[i] = d[-lo:]
            e = yield delta
            for i in range(self.n):
                y[i] = np.convolve(y[i], e[i])[:cap]
                yinv[i] = np.convolve(yinv[i], e[self.n + i])[:cap]
        raise MonoidOverflow(f"Newton failed to reach order {self.N} in "
                             f"{MAX_NEWTON_ITER} iterations")

    def _term_values(self, y, yinv):
        """``V[t] = C[t] y^E[t]`` truncated below ``cap``."""
        cap = self.cap
        powers = [{} for _ in range(self.n)]
        one = np.zeros(cap, dtype=complex)
        one[0] = 1
        V = np.zeros((len(self.E), cap), dtype=complex)
        for t, e in enumerate(self.E):
            # a shifted coefficient needs only cap - j orders of y^e
            j, a = self.shift[t] or (0, None)
            L = cap - j
            val = None
            for i, p in enumerate(e):
                if p:
                    if p not in powers[i]:
                        powers[i][p] = _power(y[i], int(p), yinv[i])
                    pw = powers[i][p][:L]
                    val = pw if val is None else np.convolve(val, pw)[:L]
            if val is None:
                val = one[:L]
            if a is None:
                V[t] = np.convolve(self.C[t], val)[:cap]
            else:
                V[t, j:] = a * val
        return V

    def _solve(self, H, rhs):
        """``H x = rhs`` by Gauss-Jordan elimination with valuation pivoting.

        Row ``r`` of the augmented matrix is held as an array of its
        columns ``col..n`` over the orders ``lo[r]/q, ..., (cap-1)/q``,
        ``lo[r] <= 0``; a finished column is dropped, since nothing reads
        it again.  Normalising a row by a pivot of valuation ``v/q``
        shifts it down by ``v``, and every product is truncated below
        ``cap`` again.  Returns each solution entry with its ``lo``.
        """
        n, cap, tol = self.n, self.cap, self.tol
        rows = [np.vstack([H[r], rhs[r]]) for r in range(n)]
        lo = [0] * n
        for col in range(n):
            best, pivot = None, None
            for r in range(col, n):
                j = _first(np.abs(rows[r][0]) > tol)
                if j is not None and (best is None or j + lo[r] < best):
                    best, pivot = j + lo[r], r
            if pivot is None:
                raise DegenerateCritical("second-derivative matrix is "
                                         "singular to working order")
            rows[col], rows[pivot] = rows[pivot], rows[col]
            lo[col], lo[pivot] = lo[pivot], lo[col]
            # leading noise of the pivot is dropped before inverting
            inv = _inverse(rows[col][0, best - lo[col]:], cap + best)
            width = cap - lo[col] + best
            top = rows[col] = np.array([np.convolve(x, inv)[:width]
                                        for x in rows[col][1:]])
            lo[col] -= best
            for r in range(n):
                if r == col:
                    continue
                f, rows[r] = rows[r][0], rows[r][1:]
                if f.any():
                    start = lo[r] + lo[col]
                    row = np.zeros((len(top), cap - start), dtype=complex)
                    row[:, -lo[col]:] = rows[r]
                    row -= [np.convolve(f, t)[:cap - start] for t in top]
                    rows[r], lo[r] = row, start
        return [(rows[i][0], lo[i]) for i in range(n)]

    def _series(self, a):
        """The float series of a grid vector, without its noise."""
        mag = np.abs(a)
        idx = np.flatnonzero(mag > self.tol)
        return NovikovSeries._from_indices(
            self.q, idx.tolist(), a[idx].tolist(), self.cap, FLOAT,
            DEFAULT_TOL)
