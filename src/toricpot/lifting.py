"""Order-by-order lifting of leading solutions.

Two inductions:

* ``lift_bulk`` — keep the torus point fixed and build divisor weights
  order by order so the point becomes critical for the deformed
  potential up to a requested order;
* ``lift_point`` — keep the potential fixed and correct a nondegenerate
  leading solution into a critical point with Novikov-series
  coordinates, Newton style.

Plus the discrete-monoid bookkeeping for the exponents encountered, and
the closed-form parameter study of the two-point blow-up with a
one-divisor weight ``w T^kappa``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (BadGenerator, BadKahlerParams, DegenerateCritical,
                     MonoidOverflow, NoFullFlag, SpanViolation)
from .leading import flag_basis, level_structure
from .novikov import FLOAT, INF, NovikovSeries, as_exponent
from .polytope import MomentPolytope, build_example
from .potential import (BulkDeformation, BulkEntry, PotentialFunction,
                        fano_bulk_potential, leading_potential)
from .solver import LeadingSolution, cluster_roots, solve_equations

LIFT_TOL = 1e-9


def monoid_enumerate(gens, E):
    """All sums of the generators up to ``E``, ascending, including 0."""
    gens = sorted({Fraction(g) for g in gens})
    for g in gens:
        if g <= 0:
            raise BadGenerator(f"generator {g} is not positive")
    E = Fraction(E)
    out = []
    seen = {Fraction(0)}
    heap = [Fraction(0)]
    while heap:
        x = heapq.heappop(heap)
        out.append(x)
        for g in gens:
            y = x + g
            if y <= E and y not in seen:
                seen.add(y)
                heapq.heappush(heap, y)
    return out


@dataclass
class DiscreteMonoid:
    """Lazily grown set of admissible exponents."""
    generators: set = field(default_factory=set)
    grown: list = field(default_factory=list)  # generators added on demand


@dataclass
class LiftCertificate:
    order: Fraction
    residual_valuation: object       # Fraction or math.inf
    steps: list                      # orders handled during the induction
    monoid_generators: list
    monoid_grown: list
    congruences_checked: bool


def _flag_point_to_torus(fb, values: dict):
    """Original-coordinate values from flag-variable values.

    The flag rows form a lattice basis; ``y_i`` is the product of flag
    values raised to the i-th column of the inverse basis matrix.
    """
    from . import lattice
    n = len(fb.rows[0])
    inv = lattice.invert(fb.rows)
    if inv is None:
        raise NoFullFlag("flag basis is not full; cannot map to the torus")
    y = []
    ordered = [values[lab] for lab in fb.labels]
    for i in range(n):
        acc = 1.0 + 0j
        for t in range(n):
            e = inv[i][t]
            assert e.denominator == 1
            acc *= ordered[t] ** int(e)
        y.append(acc)
    return y


def solution_to_torus(P: MomentPolytope, u, sol: LeadingSolution):
    """Complex torus point of a leading solution, in y-coordinates."""
    ls = level_structure(P, u)
    if ls.K is None:
        raise NoFullFlag("level flag never spans the whole space")
    fb = flag_basis(ls)
    return _flag_point_to_torus(fb, sol.values)


def lift_bulk(P: MomentPolytope, u, sol, N, gens=(), max_steps=500,
              tol=LIFT_TOL):
    """Divisor weights making a full leading solution critical mod T^N.

    At each order the lowest surviving coefficient vector of the
    gradient is cancelled by a least-norm combination of the level
    normal vectors whose levels lie strictly below that order; each
    chosen combination becomes a weight increment on its facet.

    Returns ``(bulk, y, certificate)`` where ``y`` is the complex torus
    point used.
    """
    u = tuple(Fraction(x) for x in u)
    ls = level_structure(P, u)
    if ls.K is None:
        raise NoFullFlag("level flag never spans the whole space")
    fb = flag_basis(ls) if isinstance(sol, LeadingSolution) else None
    return _lift_bulk(P, u, ls, fb, sol, N, gens, max_steps, tol)


def _lift_bulk(P: MomentPolytope, u, ls, fb, sol, N, gens=(), max_steps=500,
               tol=LIFT_TOL):
    """``lift_bulk`` from the fiber's full level structure ``ls`` and its
    flag basis ``fb``, which is read only when ``sol`` is a
    ``LeadingSolution``."""
    N = as_exponent(N)
    if isinstance(sol, LeadingSolution):
        y = _flag_point_to_torus(fb, sol.values)
    else:
        y = [complex(c) for c in sol]
    yseries = [NovikovSeries.const(c, mode=FLOAT) for c in y]

    # facets usable for corrections, with their levels
    columns = []
    for l in range(1, ls.K + 1):
        lev = ls.level(l)
        for i, v in lev.members:
            yv = 1.0 + 0j
            for c, p in zip(y, v):
                yv *= c ** p
            columns.append((i, v, lev.S, yv))

    monoid = DiscreteMonoid(set(Fraction(g) for g in gens))
    # level gaps are always admissible exponents
    values = sorted({lev.S for lev in ls.levels})
    for a in values:
        for b in values:
            if b > a:
                monoid.generators.add(b - a)

    pending: dict = {}   # facet -> {exponent: weight coefficient}

    def build_bulk():
        entries = {
            i: NovikovSeries(sorted(d.items()), mode=FLOAT, tol=tol * 1e-3)
            for i, d in pending.items()}
        return BulkDeformation(entries, mode=FLOAT, tol=tol * 1e-3)

    steps = []
    congruent = True
    prev_orders: dict = {}
    # dense representation on the common exponent grid: index j stands
    # for the order j/q, covering everything strictly below N
    q = N.denominator
    for f in P.facets:
        q = q * f.ell(u).denominator // math.gcd(q, f.ell(u).denominator)
    for g in monoid.generators:
        g = Fraction(g)
        q = q * g.denominator // math.gcd(q, g.denominator)
    cap = int(math.ceil(N * q))
    if cap > 1_000_000:
        raise MonoidOverflow(
            f"exponent grid of size {cap} exceeds the supported range")
    # per-facet gradient contribution T^{ell_i} exp(b_i) y^{v_i}, updated
    # multiplicatively so the exponential never needs recomputing
    contrib = []
    for i, f in enumerate(P.facets):
        yv = 1.0 + 0j
        for c, p in zip(y, f.v):
            yv *= c ** p
        arr = np.zeros(cap, dtype=complex)
        idx = f.ell(u) * q
        if idx < cap:
            arr[int(idx)] = yv
        contrib.append(arr)
    normals = np.array([[complex(p) for p in f.v] for f in P.facets])

    # incremental monoid membership on the same grid (unbounded sums)
    reach = [False] * (cap + 1)
    reach[0] = True

    def reach_add(gi):
        for j in range(gi, cap + 1):
            if reach[j - gi]:
                reach[j] = True

    for g in sorted(monoid.generators):
        gi = Fraction(g) * q
        if gi.denominator == 1 and 0 < gi <= cap:
            reach_add(int(gi))

    def admit(x, xi):
        if xi <= cap and not reach[xi]:
            monoid.generators.add(x)
            monoid.grown.append(x)
            reach_add(xi)

    for _ in range(max_steps):
        # gradient residual vector, one dense series per torus direction
        stack = np.array(contrib)
        residuals = normals.T @ stack
        live = np.nonzero(np.abs(residuals).max(axis=0) > tol)[0]
        if len(live) == 0:
            return build_bulk(), y, LiftCertificate(
                N, INF, steps, sorted(monoid.generators),
                list(monoid.grown), congruent)
        idx = int(live[0])
        k = Fraction(idx, q)
        E_vec = residuals[:, idx]
        usable = [(i, v, S, yv) for i, v, S, yv in columns if S < k]
        if not usable:
            raise SpanViolation(
                f"gradient term at order {k} precedes every usable level")
        # the weight increment divides by the monomial value, so each
        # correction changes the gradient coefficient by its bare normal
        A = np.array([[complex(v[j]) for i, v, S, yv in usable]
                      for j in range(P.n)], dtype=complex)
        c, *_ = np.linalg.lstsq(A, -E_vec, rcond=None)
        if np.max(np.abs(A @ c + E_vec)) > tol * max(1.0, np.max(np.abs(E_vec))):
            raise SpanViolation(
                f"gradient coefficient at order {k} is outside the span of "
                "the available normal vectors")
        admit(k, idx)
        for (i, v, S, yv), coeff in zip(usable, c):
            if abs(coeff) < tol * 1e-3:
                continue
            delta_exp = k - S
            admit(delta_exp, idx - int(S * q))
            # successive weights must only change at strictly higher order
            if i in prev_orders and delta_exp <= prev_orders[i]:
                congruent = False
            prev_orders[i] = delta_exp
            a = coeff / yv
            slot = pending.setdefault(i, {})
            slot[delta_exp] = slot.get(delta_exp, 0) + a
            # multiply by exp(a T^{delta_exp}) on the dense grid; the
            # exponential is sparse, so apply it as shifted adds
            d_idx = int(delta_exp * q)
            base = contrib[i]
            new = base.copy()
            term = 1.0 + 0j
            m = 1
            while m * d_idx < cap:
                term *= a / m
                off = m * d_idx
                new[off:] += term * base[:cap - off]
                m += 1
            contrib[i] = new
        steps.append(k)
    raise MonoidOverflow(
        f"gradient order failed to reach {N} within {max_steps} corrections")


def _series_solve(H, rhs, trunc, tol):
    """Solve a square Novikov-series system by valuation-pivoted elimination."""
    n = len(rhs)
    M = [row[:] + [rhs[i]] for i, row in enumerate(H)]
    for col in range(n):
        pivot = None
        best = INF
        for r in range(col, n):
            v = M[r][col].valuation()
            if v < best:
                best = v
                pivot = r
        if pivot is None or best is INF:
            raise DegenerateCritical("second-derivative matrix is singular "
                                     "to working order")
        M[col], M[pivot] = M[pivot], M[col]
        inv = M[col][col].inverse(trunc)
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and not M[r][col].is_zero:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def lift_point(F: PotentialFunction, y0, N, max_iter=80, tol=LIFT_TOL):
    """Newton-correct a leading solution into a critical point mod T^N.

    ``y0`` is a vector of nonzero complex numbers solving the system to
    leading order.  Each iteration solves the linearized critical-point
    equation in Novikov arithmetic and multiplies the point by the
    exponential of the correction.  Returns ``(y, residual_valuation)``.
    """
    N = as_exponent(N)
    y0_series = [NovikovSeries.const(complex(c), mode=FLOAT, trunc=N)
                 for c in y0]
    return _lift_from_series(F, y0_series, N, max_iter=max_iter, tol=tol)


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

    @property
    def count(self):
        return len(self.solutions)


def case_analysis_two_point(alpha, w, kappa, N=None, lift=True):
    """Critical fibers of the two-point blow-up with weight ``w T^kappa``.

    The symmetric shape ``beta = (1-alpha)/2`` with ``alpha > 1/3`` is
    assumed.  Depending on how ``kappa`` compares with ``alpha/2 - 1/6``
    the critical fiber and the secondary equation change; the returned
    reports carry the leading values ``(c, d)`` of the substitution
    ``y_2 = -1 + c T^mu``, ``y_1 = d`` and, when requested, the lifted
    critical points with their residual certificates.
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
    P = build_example("two_point_blowup", alpha, beta)
    reports = []

    def lifted_solutions(u_vec, raw, mu):
        out = []
        if N is None or not lift:
            return [CaseSolution(c, d, m) for c, d, m in raw]
        bulk = BulkDeformation(
            {1: NovikovSeries.monomial(w, kappa, mode=FLOAT)}, mode=FLOAT)
        F = fano_bulk_potential(P, u_vec, bulk, trunc=as_exponent(N) + 1)
        for c_bar, d_bar, mult in raw:
            sol = CaseSolution(c_bar, d_bar, mult)
            if mult == 1:
                y0_series = [
                    NovikovSeries.const(d_bar, mode=FLOAT, trunc=N),
                    NovikovSeries.const(-1, mode=FLOAT, trunc=N)
                    + NovikovSeries.monomial(c_bar, mu, mode=FLOAT, trunc=N),
                ]
                y, kv = _lift_from_series(F, y0_series, as_exponent(N))
                sol.lifted = y
                sol.lift_residual_valuation = kv
            out.append(sol)
        return out

    if kappa < threshold:
        # Case 1: the weight order is the smallest correction scale
        u1 = (1 + alpha) / 4 - kappa / 2
        mu = kappa
        c_bar = w / 2
        roots = np.roots([1, 0, complex(2) / w])  # d^2 = -2/w
        raw = [(c_bar, complex(r), 1) for r in sorted(
            roots, key=lambda z: (z.real, z.imag))]
        reports.append(CaseReport(1, alpha, beta, w, kappa, (u1, beta), mu,
                                  lifted_solutions([u1, beta], raw, mu),
                                  degenerate=False))
        # Case 3: the weight order matches the level gap
        u1 = beta + kappa
        mu = 1 - beta - 2 * u1
        d_bar = -w
        c_bar = -1 / w ** 2
        raw = [(c_bar, d_bar, 1)]
        reports.append(CaseReport(3, alpha, beta, w, kappa, (u1, beta), mu,
                                  lifted_solutions([u1, beta], raw, mu),
                                  degenerate=False))
    elif kappa > threshold:
        # Case 2: the weight is too deep to matter; d^3 = -2
        u1 = Fraction(1, 3)
        mu = u1 - beta
        roots = np.roots([1, 0, 0, 2])
        raw = []
        for r in sorted(roots, key=lambda z: (z.real, z.imag)):
            d_bar = complex(r)
            raw.append((d_bar / 2, d_bar, 1))
        reports.append(CaseReport(2, alpha, beta, w, kappa, (u1, beta), mu,
                                  lifted_solutions([u1, beta], raw, mu),
                                  degenerate=False))
    else:
        # Case 4: all scales coincide; cubic d^2 (d + w) + 2 = 0
        u1 = Fraction(1, 3)
        mu = u1 - beta
        roots = np.roots([1, w, 0, 2])
        clusters = cluster_roots(list(roots), tol=1e-5)
        raw = [( (complex(w) + complex(r)) / 2, complex(r), m)
               for r, m in clusters]
        degenerate = any(m > 1 for _, _, m in raw)
        reports.append(CaseReport(4, alpha, beta, w, kappa, (u1, beta), mu,
                                  lifted_solutions([u1, beta], raw, mu),
                                  degenerate=degenerate))
    return reports


# -- dense fast path for Newton lifting ------------------------------------
#
# When every exponent in sight is a multiple of 1/q for a modest q, a
# float-mode series is just a complex coefficient vector on that grid and
# every product is a convolution.  This turns the Newton iteration from
# minutes of exact-rational bookkeeping into milliseconds of numpy work.

class _Grid:
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


def _grid_for(F: PotentialFunction, y0_series, N, tol, limit=250000):
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
    return _Grid(q, cap, tol)


def _envelope(grid: _Grid, dense_list):
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


def _val_scaled(grid: _Grid, d, env):
    """First order whose coefficient exceeds ``tol`` times the local scale."""
    if d is None:
        return INF
    base, arr = d
    hi = min(grid.cap, base + len(arr))
    for j in range(max(base, 0), hi):
        if abs(arr[j - base]) > grid.tol * env[j]:
            return Fraction(j, grid.q)
    return INF


def _dense_lift(F: PotentialFunction, y0_series, N, grid: _Grid, max_iter,
                tol):
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
        env = _envelope(g, [val for val, _ in termvals])
        k_res = min((_val_scaled(g, r, env) for r in G), default=INF)
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
        delta = _dense_solve(g, H, [g.neg(r) for r in G])
        for d in delta:
            if g.valuation(d) <= 0:
                raise DegenerateCritical(
                    "correction is not small; leading critical point is "
                    "degenerate")
        y = [g.mul(yi, g.exp(d)) for yi, d in zip(y, delta)]
    raise MonoidOverflow(f"Newton failed to reach order {N} in {max_iter} "
                         "iterations")


def _dense_solve(g: _Grid, H, rhs):
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


def _lift_from_series(F: PotentialFunction, y0_series, N, max_iter=80,
                      tol=LIFT_TOL):
    """Newton lifting starting from series-valued initial coordinates."""
    Ft = F.to_float().truncate_coefficients(N + Fraction(1))
    grid = _grid_for(Ft, y0_series, N, tol)
    if grid is not None:
        return _dense_lift(Ft, y0_series, N, grid, max_iter, tol)
    y = list(y0_series)
    prev_val = None
    for _ in range(max_iter):
        residuals, k = Ft.gradient_residual(y)
        if k >= N:
            return y, k
        if prev_val is not None and k <= prev_val:
            raise DegenerateCritical(
                f"no progress at order {k}; leading critical point is "
                "degenerate")
        prev_val = k
        hd = Ft.hessian(y)
        if hd.degenerate:
            raise DegenerateCritical("second-derivative matrix vanishes to "
                                     "working order")
        delta = _series_solve(hd.matrix, [-r for r in residuals], N, tol)
        for d in delta:
            if not d.is_zero and d.valuation() <= 0:
                raise DegenerateCritical(
                    "correction is not small; leading critical point is "
                    "degenerate")
        y = [yi * d.truncate(N).exp() for yi, d in zip(y, delta)]
    raise MonoidOverflow(f"Newton failed to reach order {N} in {max_iter} "
                         "iterations")
