"""Exact integer and rational linear algebra for small lattices.

Everything here works on plain lists of lists with ``int`` or
:class:`fractions.Fraction` entries.  Sizes are tiny (dimension <= 4,
facet counts <= ~12), so classical algorithms suffice and stay exact.
Over the rationals there is one Gauss-Jordan eliminator, :func:`_rref`;
``rank``, ``det``, ``solve``, ``invert``, ``kernel_vector`` and
``integer_coordinates`` read their answers off its reduced rows.  Over
the integers there is the Smith normal form, which ``saturation_basis``
and ``extend_basis`` use for their unimodular changes of basis.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _rref(m, ncols):
    """Reduce the Fraction rows ``m`` in place over their first ``ncols`` columns.

    Gauss-Jordan with the first nonzero entry as pivot: each pivot row is
    divided by its pivot and the pivot column is cleared in every other
    row; columns from ``ncols`` on are carried along.  Returns
    ``(pivots, values, swaps)``: the pivot columns in order, the pivot
    values before division, and the number of row swaps.
    """
    pivots, values, swaps = [], [], 0
    nrows = len(m)
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            swaps += 1
        pv = m[r][col]
        row = m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], row)]
        pivots.append(col)
        values.append(pv)
        r += 1
    return pivots, values, swaps


def rank(rows) -> int:
    """Rank over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    return len(_rref(m, len(m[0]) if m else 0)[0])


def det(matrix):
    """Exact determinant of a square rational matrix."""
    n = len(matrix)
    pivots, values, swaps = _rref([[Fraction(x) for x in row]
                                   for row in matrix], n)
    if len(pivots) < n:
        return Fraction(0)
    return math.prod(values, start=Fraction(-1) ** swaps)


def solve(matrix, rhs):
    """Solve a square rational system exactly; ``None`` when singular."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(matrix, rhs)]
    if len(_rref(m, n)[0]) < n:
        return None
    return [row[n] for row in m]


def invert(matrix):
    """Exact inverse of a square rational matrix; ``None`` when singular."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    if len(_rref(m, n)[0]) < n:
        return None
    return [row[n:] for row in m]


def kernel_vector(rows, n):
    """A nonzero rational kernel vector of ``rows`` (``n`` columns) when the
    kernel is a line, else ``None``.

    The vector is 1 at the one free column of the reduced rows.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = _rref(m, n)[0]
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for row, col in zip(m, pivots):
        vec[col] = -row[free]
    return vec


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(matrix):
    """Smith decomposition ``D = U @ A @ V`` with unimodular ``U``, ``V``.

    Returns ``(D, U, V)``; ``D`` is diagonal with nonnegative entries
    (divisibility chain not enforced beyond diagonality, which is all the
    lattice routines below need).
    """
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            # clear column
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            # clear row
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done and all(a[i][t] == 0 for i in range(t + 1, rows)) \
                    and all(a[t][j] == 0 for j in range(t + 1, cols)):
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def saturation_basis(rows):
    """Basis of the saturation (rational row span intersected with Z^n).

    Returned rows are primitive integer vectors, sign-normalized so the
    first nonzero entry is positive.
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return []
    n = len(rows[0])
    d, _, v = smith_normal_form(rows)
    # the nonzero diagonal entries of D lead it and count the rank
    r = sum(1 for k in range(min(len(d), n)) if d[k][k] != 0)
    if r == 0:
        return []
    vinv = invert(v)
    basis = []
    for i in range(r):
        vec = [int(x) for x in vinv[i][:n]]
        assert all(Fraction(x) == y for x, y in zip(vec, vinv[i]))
        basis.append(_normalize_sign(vec))
    return basis


def _normalize_sign(vec):
    for x in vec:
        if x != 0:
            return vec if x > 0 else [-v for v in vec]
    return vec


def integer_coordinates(vec, basis_rows):
    """Express ``vec`` as an integer combination of ``basis_rows``.

    The rows must be linearly independent, so that the rational
    combination is unique.  Returns the coefficient list, or ``None``
    when that combination does not exist or is not integral.  For
    dependent rows ``None`` may be returned although an integer
    combination exists: every free coefficient is set to 0.
    """
    if not basis_rows:
        return [] if all(x == 0 for x in vec) else None
    k = len(basis_rows)
    # solve c @ basis = vec on the augmented n x (k+1) transposed system
    m = [[Fraction(b[i]) for b in basis_rows] + [Fraction(x)]
         for i, x in enumerate(vec)]
    pivots = _rref(m, k)[0]
    if any(row[k] != 0 for row in m[len(pivots):]):
        return None
    coeffs = [0] * k
    for row, col in zip(m, pivots):
        if row[k].denominator != 1:
            return None
        coeffs[col] = int(row[k])
    return coeffs


def extend_basis(prev_rows, target_rows):
    """Extend ``prev_rows`` to a basis of the lattice spanned by ``target_rows``.

    ``prev_rows`` must be a basis of a saturated sublattice of the lattice
    with basis ``target_rows``.  Returns only the new rows.
    """
    if not prev_rows:
        return [list(r) for r in target_rows]
    coords = [integer_coordinates(p, target_rows) for p in prev_rows]
    if any(c is None for c in coords):
        return None
    k = len(target_rows)
    _, _, v = smith_normal_form(coords)
    vinv = invert(v)
    extension = []
    for i in range(len(prev_rows), k):
        coeff = [int(x) for x in vinv[i]]
        vec = [sum(c * target_rows[j][t] for j, c in enumerate(coeff))
               for t in range(len(target_rows[0]))]
        extension.append(_normalize_sign(vec))
    return extension


def reduce_against(vec, reducers, search=3):
    """Greedy L1-minimization of ``vec`` by integer combinations of ``reducers``.

    Deterministic small-scale cleanup used to canonicalize extension
    vectors of a flag basis; correctness does not depend on it.
    """
    best = list(vec)
    improved = True
    while improved:
        improved = False
        for red in reducers:
            for f in range(-search, search + 1):
                cand = [a + f * b for a, b in zip(best, red)]
                if _l1(cand) < _l1(best):
                    best = cand
                    improved = True
    return _normalize_sign(best)


def _l1(vec):
    return sum(abs(x) for x in vec)
