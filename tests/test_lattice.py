"""Exact integer lattice routines."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricpot import lattice


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@st.composite
def _integer_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    # a small entry range makes singular and rank-deficient draws common
    entry = st.integers(-4, 4) | st.integers(-30, 30)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


class TestSmithNormalForm:
    @settings(max_examples=300, deadline=None)
    @given(_integer_matrices())
    @example([[0, 0], [0, 0]])
    @example([[2, 4, 6], [3, 6, 9], [1, 0, 1]])
    def test_decomposition(self, a):
        d, u, v = lattice.smith_normal_form(a)
        assert d == _matmul(_matmul(u, a), v)
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                assert x >= 0 if i == j else x == 0
        assert abs(lattice.det(u)) == 1
        assert abs(lattice.det(v)) == 1
        # the nonzero diagonal entries count the rank
        assert sum(d[k][k] != 0 for k in range(min(len(d), len(d[0])))) \
            == lattice.rank(a)


# -- reference: the eliminations lattice and polytope ran before -------------
#
# Kept verbatim (renamed) from the six hand-written Gauss-Jordan loops that
# ``lattice._rref`` replaced, so that every caller of the one eliminator can
# be checked against them exactly.


def _ref_frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _ref_rank(rows) -> int:
    m = _ref_frac_rows(rows)
    r = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def _ref_det(matrix):
    m = _ref_frac_rows(matrix)
    n = len(m)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pv = m[col][col]
        result *= pv
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return sign * result


def _ref_solve(matrix, rhs):
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def _ref_invert(matrix):
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [row[n:] for row in m]


def _ref_integer_coordinates(vec, basis_rows):
    if not basis_rows:
        return [] if all(x == 0 for x in vec) else None
    k = len(basis_rows)
    n = len(vec)
    m = [[Fraction(basis_rows[j][i]) for j in range(k)] + [Fraction(vec[i])]
         for i in range(n)]
    pivots = []
    row = 0
    for col in range(k):
        pivot = next((i for i in range(row, n) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(n):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
    for i in range(row, n):
        if m[i][k] != 0:
            return None
    coeffs = [Fraction(0)] * k
    for r_i, col in enumerate(pivots):
        coeffs[col] = m[r_i][k]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs]


def _ref_kernel_vector(rows, n):
    if _ref_rank(rows) != n - 1:
        return None
    m = _ref_frac_rows(rows)
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for r_i, col in enumerate(pivots):
        vec[col] = -m[r_i][free]
    return vec


_small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
# large entries exercise the exact divisions and the entry growth of the
# fraction-free eliminator
_large_integers = st.integers(-10 ** 12, 10 ** 12)
_fine_fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                            st.integers(1, 10 ** 6))


@st.composite
def _matrices(draw, rows=None, cols=None, min_rows=1):
    """Integer or Fraction matrices up to 4 x 6; a small entry range and an
    optional row that combines two others make singular and rank-deficient
    draws common.  Entries may reach 10^12, and denominators 10^6."""
    rows = draw(st.integers(min_rows, 4)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols
    entry = st.integers(-4, 4) | st.integers(-30, 30)
    if draw(st.booleans()):
        entry = entry | _small_fractions
    if draw(st.booleans()):
        entry = entry | _large_integers | _fine_fractions
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if rows >= 3 and draw(st.booleans()):
        scalars = _small_fractions | _fine_fractions
        a, b = draw(scalars), draw(scalars)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 4))
    return draw(_matrices(rows=n, cols=n))


@st.composite
def _coordinate_problems(draw):
    """(vec, basis_rows): ``vec`` is often an integer or a rational
    combination of the rows, and otherwise arbitrary; it may hold
    ``Fraction``s."""
    basis = draw(_matrices())
    n = len(basis[0])
    how = draw(st.sampled_from(["integer", "rational", "any"]))
    if how == "any":
        entry = st.integers(-9, 9) | _small_fractions | _fine_fractions
        vec = draw(st.lists(entry, min_size=n, max_size=n))
    else:
        scalars = (st.integers(-3, 3) | _large_integers if how == "integer"
                   else _small_fractions | _fine_fractions)
        coeffs = draw(st.lists(scalars, min_size=len(basis),
                               max_size=len(basis)))
        vec = [sum(c * row[t] for c, row in zip(coeffs, basis))
               for t in range(n)]
    return vec, basis


class TestAgainstReferenceElimination:
    @settings(max_examples=100, deadline=None)
    @given(_matrices(min_rows=0))
    @example([])
    @example([[0, 0, 0], [0, 0, 0]])
    def test_rank(self, m):
        assert lattice.rank(m) == _ref_rank(m)

    @settings(max_examples=100, deadline=None)
    @given(_square_matrices())
    @example([[0, 1], [1, 0]])
    @example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    @example([[1, 2], [2, 4]])
    def test_det(self, m):
        d = lattice.det(m)
        assert isinstance(d, Fraction)
        assert d == _ref_det(m)

    def test_det_sign_follows_row_swaps(self):
        # one swap flips the sign; the 3-cycle needs two and keeps it
        assert lattice.det([[0, 1], [1, 0]]) == -1
        assert lattice.det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
        assert lattice.det([[0, 2], [3, 0]]) == -6

    @settings(max_examples=100, deadline=None)
    @given(_square_matrices(), st.lists(st.integers(-9, 9) | _small_fractions,
                                        min_size=4, max_size=4))
    @example([[1, 2], [2, 4]], [1, 2, 0, 0])
    def test_solve(self, m, rhs):
        rhs = rhs[:len(m)]
        assert lattice.solve(m, rhs) == _ref_solve(m, rhs)

    @settings(max_examples=100, deadline=None)
    @given(_square_matrices())
    @example([[1, 2], [2, 4]])
    @example([[0, 0], [0, 0]])
    def test_invert(self, m):
        assert lattice.invert(m) == _ref_invert(m)

    def test_singular_solve_and_invert_give_none(self):
        singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert lattice.solve(singular, [1, 2, 3]) is None
        assert lattice.invert(singular) is None

    @settings(max_examples=100, deadline=None)
    @given(_coordinate_problems())
    @example(([1, 0, 0], [[0, 1, 0], [0, 0, 1]]))
    @example(([1, 1], [[2, 2]]))
    def test_integer_coordinates(self, problem):
        vec, basis = problem
        assert lattice.integer_coordinates(vec, basis) \
            == _ref_integer_coordinates(vec, basis)

    def test_integer_coordinates_inconsistent_or_not_integral(self):
        # (1, 0, 0) is outside the span; (1, 1) = (2, 2) / 2 is not integral
        assert lattice.integer_coordinates([1, 0, 0],
                                           [[0, 1, 0], [0, 0, 1]]) is None
        assert lattice.integer_coordinates([1, 1], [[2, 2]]) is None
        assert lattice.integer_coordinates([2, 2], [[1, 1], [2, 2]]) == [2, 0]

    @settings(max_examples=100, deadline=None)
    @given(_matrices(min_rows=0))
    @example([[1, 1, 0], [0, 1, 1]])
    @example([[1, 1, 0], [2, 2, 0]])
    def test_kernel_vector(self, m):
        n = len(m[0]) if m else 1
        kernel = lattice.kernel_vector(m, n)
        assert kernel == _ref_kernel_vector(m, n)
        if kernel is not None:
            assert all(sum(a * b for a, b in zip(row, kernel)) == 0
                       for row in m)

    @settings(max_examples=100, deadline=None)
    @given(_integer_matrices())
    def test_saturation_basis_has_rank_rows(self, a):
        # saturation_basis reads the rank off the Smith diagonal
        assert len(lattice.saturation_basis(a)) == _ref_rank(a)


def test_reduce_against_shortens_by_its_reducers():
    # (3, 1) - 3 (1, 0) = (0, 1); (-2, -5) + 5 (0, 1) = (-2, 0) takes two
    # passes of at most 3 multiples and is then sign-normalized
    assert lattice.reduce_against([3, 1], [[1, 0]]) == [0, 1]
    assert lattice.reduce_against([-2, -5], [[0, 1]]) == [2, 0]
    assert lattice.reduce_against([1, 1], [[0, 2]]) == [1, 1]
