"""Exact integer and rational linear algebra for small lattices.

Everything here takes lists of lists with ``int`` or ``Fraction``
entries; sizes are tiny (dimension <= 4, facet counts <= ~12).  There is
one Gauss-Jordan eliminator, :func:`_rref`, fraction-free over Z:
``rank``, ``det``, ``solve``, ``invert``, ``kernel_vector`` and
``integer_coordinates`` scale rational rows to ints on entry and build
``Fraction``s only for their answers.  ``saturation_basis`` and
``extend_basis`` change basis by the Smith normal form over Z.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _int_row(row):
    """``(ints, s)``: the rational ``row`` times ``s``, the lcm of its
    denominators."""
    if all(type(x) is int for x in row):
        return list(row), 1
    row = [Fraction(x) for x in row]
    s = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (s // x.denominator) for x in row], s


def _rref(m, ncols):
    """Reduce the int rows ``m`` in place over their first ``ncols`` columns.

    Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 1968) on the first
    nonzero entry ``p`` of each column: every other row becomes
    ``(p * row - row[col] * pivot_row) / d``, an exact division by the
    previous pivot ``d``; columns from ``ncols`` on are carried along.
    Every pivot entry ends equal to the last pivot, so the reduced row
    echelon form is ``m / d``.  Returns ``(pivots, d, swaps)``: the pivot
    columns, that last pivot (1 if none) and the number of row swaps.
    """
    pivots, d, swaps = [], 1, 0
    nrows = len(m)
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            swaps += 1
        row = m[r]
        p = row[col]
        for i in range(nrows):
            f = m[i][col]
            if i != r and (f or p != d):
                m[i] = [(p * a - f * b) // d for a, b in zip(m[i], row)]
        pivots.append(col)
        d = p
    return pivots, d, swaps


def rank(rows) -> int:
    """Rank over the rationals."""
    m = [_int_row(row)[0] for row in rows]
    return len(_rref(m, len(m[0]) if m else 0)[0])


def det(matrix):
    """Exact determinant of a square rational matrix."""
    rows = [_int_row(row) for row in matrix]
    pivots, d, swaps = _rref([ints for ints, _ in rows], len(rows))
    if len(pivots) < len(rows):
        return Fraction(0)
    return Fraction((-1) ** swaps * d, math.prod(s for _, s in rows))


def solve(matrix, rhs):
    """Solve a square rational system exactly; ``None`` when singular."""
    n = len(matrix)
    m = [_int_row(list(row) + [b])[0] for row, b in zip(matrix, rhs)]
    pivots, d, _ = _rref(m, n)
    return None if len(pivots) < n else [Fraction(row[n], d) for row in m]


def _inverse(matrix):
    """``(m, d)`` with int rows ``m`` and ``m / d`` the inverse of a square
    rational matrix; ``None`` when it is singular."""
    n = len(matrix)
    # row operations take [S A | S], for the row scaling S, to [d I | d A^-1]
    m = [_int_row(list(row) + [int(i == j) for j in range(n)])[0]
         for i, row in enumerate(matrix)]
    pivots, d, _ = _rref(m, n)
    return None if len(pivots) < n else ([row[n:] for row in m], d)


def invert(matrix):
    """Exact inverse of a square rational matrix; ``None`` when singular."""
    inv = _inverse(matrix)
    if inv is None:
        return None
    return [[Fraction(x, inv[1]) for x in row] for row in inv[0]]


def kernel_vector(rows, n):
    """A nonzero rational kernel vector of ``rows`` (``n`` columns) when the
    kernel is a line, else ``None``.

    The vector is 1 at the one free column of the reduced rows.
    """
    m = [_int_row(row)[0] for row in rows]
    pivots, d, _ = _rref(m, n)
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for row, col in zip(m, pivots):
        vec[col] = Fraction(-row[free], d)
    return vec


def smith_normal_form(matrix):
    """Smith decomposition ``D = U @ A @ V`` with unimodular ``U``, ``V``.

    Returns ``(D, U, V)``; ``D`` is diagonal with nonnegative entries
    (divisibility chain not enforced beyond diagonality, which is all the
    lattice routines below need).
    """
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

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
        # pivot on the smallest nonzero entry, the first in row-major order
        sizes = [(abs(a[i][j]), i, j) for i in range(t, rows)
                 for j in range(t, cols) if a[i][j]]
        if not sizes:
            break
        _, i, j = min(sizes)
        swap_rows(t, i)
        swap_cols(t, j)
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
            if done:  # no remainder was left: row and column are clear
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
    vinv, unit = _inverse(v)  # v is unimodular: unit = det(v) = +-1
    return [_normalize_sign([x * unit for x in vinv[i]]) for i in range(r)]


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
    k = len(basis_rows)
    # solve c @ basis = vec on the augmented n x (k+1) transposed system
    m = [_int_row([b[i] for b in basis_rows] + [x])[0]
         for i, x in enumerate(vec)]
    pivots, d, _ = _rref(m, k)
    if any(row[k] for row in m[len(pivots):]):
        return None
    coeffs = [0] * k
    for row, col in zip(m, pivots):
        c, rest = divmod(row[k], d)
        if rest:
            return None
        coeffs[col] = c
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
    vinv, unit = _inverse(v)  # v is unimodular: unit = det(v) = +-1
    # rows len(prev_rows).. of V^-1 combine the target rows into new ones
    return [_normalize_sign([unit * sum(c * x for c, x in zip(vinv[i], col))
                             for col in zip(*target_rows)])
            for i in range(len(prev_rows), k)]


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
