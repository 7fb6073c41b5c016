import itertools
import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusionrep.errors import NotInSpan
from fusionrep.intlinalg import (hnf, integer_solution, kernel_basis,
                                 lattice_contains, smith_diagonal)


def test_hnf_basics():
    assert hnf([[0]]) == []
    assert hnf([[2], [3]]) == [[1]]
    H = hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # pivots positive, echelon shape
    assert all(next(v for v in row if v) > 0 for row in H)
    assert H == hnf([[10, 4, 16], [2, 4, 4], [-6, 6, 12]])


def test_hnf_canonical_for_equal_lattices():
    random.seed(1)
    for _ in range(20):
        rows = [[random.randint(-5, 5) for _ in range(3)] for _ in range(4)]
        H1 = hnf(rows)
        random.shuffle(rows)
        scaled = rows + [[2 * v for v in rows[0]]]
        assert hnf(scaled) == H1


def _det(M):
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


def _determinantal_divisor(M, k):
    """gcd of the k x k minors of M."""
    g = 0
    for rows in itertools.combinations(range(len(M)), k):
        for cols in itertools.combinations(range(len(M[0])), k):
            g = gcd(g, _det([[M[i][j] for j in cols] for i in rows]))
    return g


def test_snf_randomized():
    random.seed(0)
    for _ in range(30):
        m = [[random.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        d = smith_diagonal(m)
        assert len(d) == 3
        # d1 d2 .. dk is the gcd of the k x k minors
        prod = 1
        for k in range(1, 4):
            prod *= d[k - 1]
            assert prod == _determinantal_divisor(m, k), (m, d)
        for i in range(len(d) - 1):
            assert d[i] >= 0
            if d[i]:
                assert d[i + 1] % d[i] == 0
            else:
                assert d[i + 1] == 0
    # rank-deficient and empty shapes
    assert smith_diagonal([[2, 4], [3, 6]]) == [1, 0]
    assert smith_diagonal([]) == []


def test_kernel_randomized():
    random.seed(2)
    for _ in range(50):
        m = [[random.randint(-6, 6) for _ in range(5)] for _ in range(3)]
        for k in kernel_basis(m, 5):
            assert all(sum(r[i] * k[i] for i in range(5)) == 0 for r in m)


@st.composite
def independent_columns(draw):
    t = draw(st.integers(1, 4))
    n = draw(st.integers(t, 6))
    columns = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n,
                                     max_size=n), min_size=t, max_size=t))
    assume(len(hnf(columns)) == t)
    return columns


@settings(max_examples=60, deadline=None)
@given(independent_columns(), st.data())
def test_integer_solution_recovers_x(columns, data):
    x = tuple(data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                 min_size=len(columns),
                                 max_size=len(columns))))
    target = [sum(c * col[i] for c, col in zip(x, columns))
              for i in range(len(columns[0]))]
    assert integer_solution(columns, target) == x


@pytest.mark.parametrize("columns, target", [
    ([(2, 0), (0, 2)], (1, 1)),        # rational but not integral
    ([(1, 0, 0), (0, 1, 0)], (0, 0, 1)),  # outside the span
    ([(1, 0), (2, 0)], (1, 0)),        # dependent columns
    ([(1, 2, 3), (1, 2, 3)], (0, 0, 0)),
])
def test_integer_solution_not_in_span(columns, target):
    with pytest.raises(NotInSpan):
        integer_solution(columns, target)


def test_lattice_contains():
    big = hnf([[1, 0], [0, 1]])
    small = hnf([[2, 0], [0, 3]])
    assert lattice_contains(big, small)
    assert not lattice_contains(small, big)
