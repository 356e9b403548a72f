"""Solutions of leading term systems over the torus of nonzero complexes.

The strategy ladder, in order of preference:

(a) triangular substitution — whenever some equation becomes univariate
    under the partial assignment, solve it by companion-matrix roots with
    multiplicity from root clustering;
(b) two-variable elimination by a numerically interpolated resultant;
(m) a square binomial system (every equation two terms, as many equations
    as variables, nonsingular exponent matrix) in closed form through the
    Smith normal form of its exponent matrix: all |det| roots, each
    simple, certified by a residual relative to the size of the terms;
(c) deterministic multistart Gauss-Newton (heuristic; results are
    certified only through their residuals, completeness is not).  All
    seeded starts advance together as one batch, and each takes the
    least-norm least-squares step that ``np.linalg.lstsq`` would take.

All variables range over nonzero complex numbers: zero roots are
discarded, and monomial factors are divided out during normalization.
Variables absent from every normalized equation are free; they are
reported as such and instantiated at 1.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lattice import smith_normal_form
from .leading import LeadingSystem, leading_equations

RESIDUAL_TOL = 1e-9
DEDUP_TOL = 1e-6
ZERO_ROOT_TOL = 1e-9


@dataclass
class LeadingSolution:
    values: dict                  # variable label -> complex
    free: set                     # labels of free variables (value set to 1)
    multiplicity: Optional[int]   # None when unknown (heuristic path)
    residual: float

    def value_vector(self, labels):
        return [self.values[lab] for lab in labels]

    def to_dict(self) -> dict:
        return {
            "values": {
                f"Y{l}_{s}": [v.real, v.imag]
                for (l, s), v in sorted(self.values.items())},
            "free": sorted(f"Y{l}_{s}" for l, s in self.free),
            "multiplicity": self.multiplicity,
            "residual": self.residual,
        }


@dataclass
class SolveResult:
    solutions: list
    certified: bool
    path: str                     # letters of the ladder stages used


# -- polynomial plumbing over exponent-tuple dicts -------------------------


def _substitute(terms: dict, assignment: dict):
    """Fold assigned variables into the complex coefficients; keys keep
    full length."""
    out: dict = {}
    for e, c in terms.items():
        value = c
        key = list(e)
        for j, v in assignment.items():
            if e[j] != 0:
                value *= v ** e[j]
                key[j] = 0
        key = tuple(key)
        out[key] = out.get(key, 0) + value
    return {e: c for e, c in out.items() if abs(c) > 1e-14}


def _term_size(terms: dict, point):
    """Sum of the moduli of the terms of one equation at a point."""
    return sum(abs(c) * math.prod(abs(point[j]) ** p
                                  for j, p in enumerate(e))
               for e, c in terms.items())


def _variables_of(terms: dict):
    used = set()
    for e in terms:
        for j, p in enumerate(e):
            if p != 0:
                used.add(j)
    return used


def _clear_monomial(terms: dict):
    """Shift exponents so they are nonnegative with no common factor."""
    if not terms:
        return terms
    n = len(next(iter(terms)))
    shift = [min(e[j] for e in terms) for j in range(n)]
    return {tuple(p - s for p, s in zip(e, shift)): c
            for e, c in terms.items()}


def normalize(equations: Sequence[dict]):
    """Clear negative powers and monomial factors; drop zero equations.

    Returns (normalized equation list, set of variable indices appearing
    in none of them).
    """
    cleaned = []
    nvars = None
    for terms in equations:
        if terms:
            nvars = len(next(iter(terms)))
        cleared = _clear_monomial(dict(terms))
        if cleared:
            cleaned.append(cleared)
    if nvars is None:
        nvars = 0
    used = set()
    for terms in cleaned:
        used |= _variables_of(terms)
    free = set(range(nvars)) - used
    return cleaned, free


def _univariate_coeffs(terms: dict, j: int):
    """Coefficient array (descending degree) of a univariate equation."""
    cleared = _clear_monomial(terms)
    deg = max(e[j] for e in cleared)
    coeffs = [0j] * (deg + 1)
    for e, c in cleared.items():
        coeffs[deg - e[j]] += complex(c)
    return coeffs


def _root_key(point):
    """Sort key of a point: each part of each coordinate rounded to 8
    decimals, so that roundoff (between conjugates, say) cannot decide
    the order."""
    return tuple((round(z.real, 8), round(z.imag, 8)) for z in point)


def _root_clusters(coeffs, tol=DEDUP_TOL):
    """Nonzero roots of a polynomial, grouped where they coincide.

    ``coeffs`` runs from the leading coefficient down; ``np.roots`` strips
    leading zeros.  Real coefficients are kept real, so that conjugate
    roots come out exactly paired.  Roots of modulus at most
    ``ZERO_ROOT_TOL`` are dropped, and a root within ``tol`` of a cluster
    joins it.  Returns (center, multiplicity) pairs in ``_root_key`` order.
    """
    roots = [r for r in np.roots(coeffs) if abs(r) > ZERO_ROOT_TOL]
    clusters = []
    for r in sorted(roots, key=lambda z: _root_key((z,))):
        for idx, (center, mult) in enumerate(clusters):
            if abs(r - center) < tol:
                clusters[idx] = ((center * mult + r) / (mult + 1), mult + 1)
                break
        else:
            clusters.append((r, 1))
    return clusters


# -- the ladder ------------------------------------------------------------


class _Search:
    def __init__(self, equations, nvars, tol):
        self.equations = equations
        self.nvars = nvars
        self.tol = tol
        self.solutions = []   # (assignment dict, multiplicity or None)
        self.certified = True
        self.paths = set()

    def run(self):
        self._branch({}, 1)
        return self

    def _branch(self, assignment, multiplicity):
        remaining = []
        for terms in self.equations:
            sub = _substitute(terms, assignment)
            varset = _variables_of(sub)
            if not varset:
                const = sum(sub.values())
                if abs(const) > self.tol:
                    return  # inconsistent branch, certified dead
                continue
            remaining.append((sub, varset))
        if not remaining:
            self.solutions.append((dict(assignment), multiplicity))
            return
        # stage (a): univariate equation available?
        univ = [(terms, varset) for terms, varset in remaining
                if len(varset) == 1]
        if univ:
            univ.sort(key=lambda tv: min(tv[1]))
            terms, varset = univ[0]
            j = next(iter(varset))
            self.paths.add("a")
            coeffs = _univariate_coeffs(terms, j)
            for center, mult in _root_clusters(coeffs):
                new_assignment = dict(assignment)
                new_assignment[j] = center
                self._branch(new_assignment, multiplicity * mult)
            return
        active_vars = sorted(set().union(*(v for _, v in remaining)))
        if len(active_vars) == 2 and len(remaining) >= 2:
            self.paths.add("b")
            self._resultant_branch(assignment, multiplicity, remaining,
                                   active_vars)
            return
        # stage (m): square binomial system in closed form
        if (len(remaining) == len(active_vars)
                and all(len(terms) == 2 for terms, _ in remaining)):
            found = _binomial_roots([t for t, _ in remaining], active_vars,
                                    self.tol)
            if found is not None:
                points, certified = found
                self.paths.add("m")
                self.certified &= certified
                for point in points:
                    new_assignment = dict(assignment)
                    new_assignment.update(point)
                    self.solutions.append((new_assignment, multiplicity))
                return
        # stage (c): heuristic multistart Newton
        self.paths.add("c")
        self.certified = False
        for point in _newton_multistart([t for t, _ in remaining],
                                        active_vars, self.tol):
            new_assignment = dict(assignment)
            new_assignment.update(point)
            self.solutions.append((new_assignment, None))

    def _resultant_branch(self, assignment, multiplicity, remaining, pair):
        x, y = pair
        f = _clear_monomial(remaining[0][0])
        g = _clear_monomial(remaining[1][0])
        for r, mult in _resultant_roots(f, g, x, y):
            new_assignment = dict(assignment)
            new_assignment[x] = r
            before = len(self.solutions)
            self._branch(new_assignment, multiplicity)
            # a repeated elimination root with a unique continuation is a
            # genuinely multiple solution of the pair
            if mult > 1 and len(self.solutions) == before + 1:
                sol, m = self.solutions[-1]
                if m is not None and m == multiplicity:
                    self.solutions[-1] = (sol, m * mult)


def _as_xy_poly(terms: dict, x: int, y: int):
    """Dense coefficient matrix c[i][j] of x^i y^j."""
    dx = max(e[x] for e in terms)
    dy = max(e[y] for e in terms)
    mat = np.zeros((dx + 1, dy + 1), dtype=complex)
    for e, c in terms.items():
        mat[e[x], e[y]] += complex(c)
    return mat


def _sylvester_det(fc, gc):
    """Determinant of the Sylvester matrix of two univariate coefficient
    arrays (ascending degree)."""
    fc = np.trim_zeros(np.array(fc, dtype=complex), "b")
    gc = np.trim_zeros(np.array(gc, dtype=complex), "b")
    m = fc.size - 1
    n = gc.size - 1
    if m < 0 or n < 0:
        return 0j
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    size = m + n
    S = np.zeros((size, size), dtype=complex)
    for i in range(n):
        S[i, i:i + m + 1] = fc[::-1]
    for i in range(m):
        S[n + i, i:i + n + 1] = gc[::-1]
    return complex(np.linalg.det(S))


def _resultant_roots(f: dict, g: dict, x: int, y: int):
    """x-values where f and g share a y-root, via interpolated resultant."""
    fm = _as_xy_poly(f, x, y)
    gm = _as_xy_poly(g, x, y)
    dfx, dfy = fm.shape[0] - 1, fm.shape[1] - 1
    dgx, dgy = gm.shape[0] - 1, gm.shape[1] - 1
    deg_bound = dfx * dgy + dgx * dfy
    if deg_bound == 0:
        return []
    # sample the resultant on a circle and interpolate the polynomial in x
    npts = deg_bound + 1
    xs = np.exp(2j * np.pi * np.arange(npts) / npts) * 1.17
    vals = []
    for x0 in xs:
        fy = fm.T @ (x0 ** np.arange(dfx + 1))
        gy = gm.T @ (x0 ** np.arange(dgx + 1))
        vals.append(_sylvester_det(fy, gy))
    coeffs = np.fft.fft(np.array(vals) / npts)
    coeffs = coeffs * (1.17 ** -np.arange(npts))
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        return []
    coeffs = np.where(np.abs(coeffs) > 1e-10 * scale, coeffs, 0)
    return _root_clusters(coeffs[::-1])


def _binomial_roots(equations, active_vars, tol):
    """Every root of a square binomial system; ``None`` when it is singular.

    Each equation c_a x^a + c_b x^b = 0 is the monomial equation
    x^(a-b) = r with r = -c_b/c_a.  With D = U A V the Smith normal form
    of the exponent matrix A, the substitution x_j = prod_k z_k^(V_jk)
    turns the system into z_k^(d_k) = prod_i r_i^(U_ki) (Huber &
    Sturmfels, Math. Comp. 1995).  Its roots are the |det A| choices of
    one d_k-th root for each k, all distinct and simple.  The roots are
    computed from logarithms, so no power overflows.  Returns
    ``(points, certified)``: points with a coordinate beyond the double
    range are left out, and ``certified`` holds when none is and every
    residual is at most ``tol`` relative to the size of the terms.
    """
    rows, log_r = [], []
    for eq in equations:
        (a, ca), (b, cb) = sorted(eq.items())
        rows.append([a[j] - b[j] for j in active_vars])
        log_r.append(cmath.log(-complex(cb) / complex(ca)))
    D, U, V = smith_normal_form(rows)
    d = np.diagonal(D)
    if not d.all():
        return None
    branches = np.array(list(itertools.product(*map(range, d))))
    log_z = (np.array(U) @ log_r + 2j * np.pi * branches) / d
    with np.errstate(over="ignore", under="ignore"):
        x = np.exp(log_z @ np.array(V).T)
    representable = np.isfinite(x).all(axis=1) & (x != 0).all(axis=1)
    x = x[representable]
    # |c_a x^a + c_b x^b| / (|c_a x^a| + |c_b x^b|) = |e^s - 1| / (1 + |e^s|)
    # with s = log r - (a - b).log x; it is even in s, so take Re s <= 0
    s = np.array(log_r) - np.log(x) @ np.array(rows).T
    s = np.where(s.real > 0, -s, s)
    residual = np.abs(np.expm1(s)) / (1 + np.abs(np.exp(s)))
    certified = bool(representable.all() and (residual <= tol).all())
    return [dict(zip(active_vars, p)) for p in x.tolist()], certified


def _newton_multistart(equations, active_vars, tol, max_starts=200):
    """Deterministic seeded Gauss-Newton over the remaining variables.

    Every start advances in the same iteration.  The equations are
    compiled once into an exponent matrix over ``active_vars`` and a
    coefficient vector, so each iteration evaluates the residuals and
    Jacobians of all live starts in a few array operations.  The step is
    the least-norm least-squares step of ``np.linalg.lstsq`` with its
    default cutoff, taken from one batched SVD, so non-square and
    rank-deficient Jacobians need no separate path.  A start converges at
    the first iterate whose residuals all lie below ``tol * 1e-3``.  It is
    dropped when its values, Jacobian or step are not finite, when a
    coordinate falls below 1e-12, or after 60 iterations.
    """
    k = len(active_vars)
    radii = [0.5, 1.0, 2.0]
    phases = [cmath.exp(2j * cmath.pi * t / 8) for t in range(8)]
    seeds = itertools.islice(
        itertools.product(itertools.product(radii, phases), repeat=k),
        max_starts)
    x = np.array([[r * p for r, p in seed] for seed in seeds], dtype=complex)
    # one row per term, grouped by equation; ``bounds`` marks the groups
    terms = [(e, c) for eq in equations for e, c in eq.items()]
    bounds = np.cumsum([0] + [len(eq) for eq in equations[:-1]])
    expo = np.array([[e[j] for j in active_vars] for e, _ in terms])
    coef = np.array([complex(c) for _, c in terms])
    rcond = np.finfo(float).eps * max(len(equations), k)
    live = np.arange(len(x))
    converged = {}
    for _ in range(60):
        if not live.size:
            break
        mono = coef * np.prod(x[:, None, :] ** expo, axis=2)
        vals = np.add.reduceat(mono, bounds, axis=1)
        jac = np.add.reduceat(mono[:, :, None] * expo / x[:, None, :],
                              bounds, axis=1)
        done = np.max(np.abs(vals), axis=1) < tol * 1e-3
        converged.update(zip(live[done], x[done]))
        keep = (~done & np.isfinite(vals).all(axis=1)
                & np.isfinite(jac).all(axis=(1, 2)))
        live, x, vals, jac = live[keep], x[keep], vals[keep], jac[keep]
        u, s, vh = np.linalg.svd(jac, full_matrices=False)
        significant = s > rcond * s[:, :1]
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=significant)
        coords = inv * np.einsum("smp,sm->sp", u.conj(), -vals)
        x = x + np.einsum("spk,sp->sk", vh.conj(), coords)
        keep = np.isfinite(x).all(axis=1) & (np.abs(x) >= 1e-12).all(axis=1)
        live, x = live[keep], x[keep]
    found = []
    for start in sorted(converged):
        point = converged[start].tolist()
        if any(abs(v) <= ZERO_ROOT_TOL for v in point):
            continue
        if any(all(abs(a - b) < DEDUP_TOL for a, b in zip(point, prev))
               for prev in found):
            continue
        found.append(point)
    found.sort(key=_root_key)
    return [dict(zip(active_vars, point)) for point in found]


# -- public API ------------------------------------------------------------


def solve_equations(equations: Sequence[dict], labels,
                    tol: float = RESIDUAL_TOL) -> SolveResult:
    """Solve a list of exponent-dict Laurent equations over (C\\{0})^n.

    A point is kept when each equation's residual there is at most ``tol``
    times the sum of the moduli of its terms, or ``tol`` when that sum is
    below 1.  A point that fails this check, or at which a term overflows
    a double, is dropped, and the result is then not certified.
    """
    # every stage computes in complex floats: convert each coefficient once
    original = [{e: complex(c) for e, c in t.items()} for t in equations]
    normalized, free_idx = normalize(original)
    nvars = len(labels)
    search = _Search(normalized, nvars, tol).run()
    certified = search.certified
    solutions = []
    for assignment, multiplicity in search.solutions:
        values = {}
        free = set()
        for j, lab in enumerate(labels):
            if j in assignment:
                values[lab] = assignment[j]
            else:
                values[lab] = 1.0 + 0j
                if j in free_idx:
                    free.add(lab)
        vec = {j: values[lab] for j, lab in enumerate(labels)}
        try:
            errors = [(abs(sum(_substitute(t, vec).values())),
                       _term_size(t, vec)) for t in original]
            finite = all(math.isfinite(e + size) for e, size in errors)
        except OverflowError:
            finite = False
        if not (finite and all(e / max(1.0, size) <= tol
                               for e, size in errors)):
            certified = False
            continue
        residual = max((e for e, _ in errors), default=0.0)
        solutions.append(LeadingSolution(values, free, multiplicity, residual))
    solutions.sort(key=lambda s: _root_key(s.value_vector(labels)))
    path = "".join(sorted(search.paths)) or "-"
    return SolveResult(solutions, certified, path)


def solve(system: LeadingSystem, tol: float = RESIDUAL_TOL) -> SolveResult:
    """Solve a leading term system in its cutoff variables."""
    labels = system.variables
    keep = [i for i, lab in enumerate(system.basis.labels)
            if lab[0] <= system.cutoff]
    projected = []
    for eq in system.equations:
        terms = {}
        for e, c in eq.terms.items():
            assert all(e[i] == 0 for i in range(len(e)) if i not in keep)
            terms[tuple(e[i] for i in keep)] = c
        projected.append(terms)
    return solve_equations(projected, labels, tol=tol)


def solve_partial(P, u, l0: Optional[int], coefficients=None,
                  tol: float = RESIDUAL_TOL) -> SolveResult:
    """Assemble and solve only the equations of levels up to ``l0``, or
    of every level when ``l0`` is ``None``."""
    system = leading_equations(P, u, cutoff=l0, coefficients=coefficients)
    return solve(system, tol=tol)
