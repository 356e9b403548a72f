"""Exact integer lattice routines."""

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
