import itertools
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fusionrep import intlinalg
from fusionrep.errors import NotInSpan
from fusionrep.intlinalg import (IntegerSpan, _tagged_hnf, divide_lattice,
                                 hnf, int_matmul, lattice_contains,
                                 reduce_mod_lattice, smith_diagonal)
from fusionrep.jobspec import load_jobspec, realize
from fusionrep.permgroup import is_prime

from conftest import FIXTURES, fixture_path
from oracles import hnf as hnf_oracle
from oracles import kernel_basis
from oracles import reduce_mod_lattice as reduce_oracle
from oracles import solve as solve_oracle


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


def _check_smith(M):
    d = smith_diagonal(M)
    m, n = len(M), len(M[0]) if M else 0
    assert len(d) == min(m, n), (M, d)
    # d1 d2 .. dk is the gcd of the k x k minors
    prod = 1
    for k in range(1, len(d) + 1):
        prod *= d[k - 1]
        assert prod == _determinantal_divisor(M, k), (M, d)
    for i in range(len(d) - 1):
        assert d[i] >= 0
        if d[i]:
            assert d[i + 1] % d[i] == 0
        else:
            assert d[i + 1] == 0


def test_snf_randomized():
    """Shapes up to 6 x 6 with about 30 % zero entries, so that zero rows
    and columns and rank-deficient inputs occur."""
    random.seed(0)
    for _ in range(60):
        m, n = random.randint(0, 6), random.randint(1, 6)
        _check_smith([[0 if random.random() < 0.3 else random.randint(-9, 9)
                       for _ in range(n)] for _ in range(m)])
    # a zero row of any width: the diagonal of the zero lattice
    for t in (1, 3, 6):
        assert smith_diagonal([[0] * t]) == [0]
    # pivot-and-fold elimination by scalar row and column steps cycles on
    # this one
    _check_smith([[9, -6, 3, 3, 0, -8], [-3, 6, -9, -5, -9, 6],
                  [-5, -8, -3, 0, 7, -7], [5, 9, -2, 8, -8, -7],
                  [5, -2, 9, -8, 8, -3], [0, 0, -5, 0, 6, -9]])
    assert smith_diagonal([[2, 4], [3, 6]]) == [1, 0]
    assert smith_diagonal([[4, 0], [0, 6]]) == [2, 12]
    assert smith_diagonal([]) == []


def test_divide_lattice_examples():
    assert divide_lattice([], 5) == []
    # 4 x in 6Z exactly when x in 3Z
    assert divide_lattice([[6]], 4) == [[3]]
    assert divide_lattice([[2, 0], [0, 4]], 4) == [[1, 0], [0, 1]]
    # 3 (x, y) in the span of (3, 6) and (0, 9) when y - 2 x in 3Z
    assert divide_lattice([[3, 6], [0, 9]], 3) == [[1, 2], [0, 3]]
    # a lattice of lower rank: 2 (x, y, z) in the span of (2, 2, 4)
    assert divide_lattice([[2, 2, 4]], 2) == [[1, 1, 2]]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
             min_size=1, max_size=3),
    st.integers(1, 12))))
def test_divide_lattice_matches_brute_membership(case):
    """{x : m x in L} by brute force: in a box, x is in the computed lattice
    exactly when m x is in L; the result is a canonical HNF."""
    rows, m = case
    H = hnf(rows)
    got = divide_lattice(H, m)
    assert hnf(got) == got
    n = len(rows[0])
    for x in itertools.product(range(-4, 5), repeat=n):
        assert lattice_contains(got, [x]) == lattice_contains(
            H, [[m * v for v in x]]), (x, rows, m)


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
    """Several targets in one solve, with coefficients past int64 and no
    targets at all among the draws, against the per-target oracle."""
    bound = data.draw(st.sampled_from([10 ** 6, 2 ** 70]))
    X = data.draw(st.lists(st.lists(st.integers(-bound, bound),
                                    min_size=len(columns),
                                    max_size=len(columns)), max_size=4))
    n = len(columns[0])
    targets = np.array([[sum(c * col[i] for c, col in zip(x, columns))
                         for i in range(n)] for x in X],
                       dtype=object).reshape(len(X), n)
    span = IntegerSpan(columns)
    assert span.solve(targets) == X
    assert [list(solve_oracle(span, t)) for t in targets.tolist()] == X
    assert span.solve(targets[:0]) == []


@pytest.mark.parametrize("columns, target", [
    ([(2, 0), (0, 2)], (1, 1)),        # rational but not integral
    ([(1, 0, 0), (0, 1, 0)], (0, 0, 1)),  # outside the span
    ([(1, 0), (2, 0)], (1, 0)),        # dependent columns
    ([(1, 2, 3), (1, 2, 3)], (0, 0, 0)),
])
def test_integer_solution_not_in_span(columns, target):
    """The failing target follows one that solves; the error names it."""
    span = IntegerSpan(columns)
    with pytest.raises(NotInSpan) as ex:
        solve_oracle(span, target)
    with pytest.raises(NotInSpan, match=str(ex.value)) as batched:
        span.solve([[0] * len(target), target])
    assert batched.value.row == (0 if "dependent" in str(ex.value) else 1)


def test_lattice_contains():
    big = hnf([[1, 0], [0, 1]])
    small = hnf([[2, 0], [0, 3]])
    assert lattice_contains(big, small)
    assert not lattice_contains(small, big)


def _matrices(rows, cols, bound):
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def hnf_inputs(draw):
    """Small entries, entries just below 2^31, and entries past int64."""
    bound = draw(st.sampled_from([3, 20, 2 ** 31 - 1, 2 ** 70]))
    return draw(_matrices(draw(st.integers(0, 7)), draw(st.integers(1, 7)),
                          bound))


@settings(max_examples=200, deadline=None)
@given(hnf_inputs(), st.data())
def test_hnf_matches_the_oracle(rows, data):
    """The HNF, and the reduction of a drawn matrix modulo it (entries past
    int64 and no rows at all among the draws) against the per-vector
    oracle."""
    H = hnf(rows)
    assert H == hnf_oracle(rows)
    assert all(type(x) is int for row in H for x in row)
    n = len(rows[0]) if rows else 1
    V = data.draw(_matrices(data.draw(st.integers(0, 3)), n, 2 ** 70))
    reduced = reduce_mod_lattice(H, np.array(V, dtype=object).reshape(-1, n))
    assert reduced == [reduce_oracle(H, v) for v in V]
    assert lattice_contains(H, rows)


def test_kernels_take_int64_input_exactly():
    """int64 entries whose products wrap in int64 (2^40 * 2^40) come in
    through int(), so hnf, int_matmul and reduce_mod_lattice give the
    exact Python-int results."""
    rows = np.array([[2 ** 40, 3, 0], [5, 2 ** 40, 7], [0, 11, 2 ** 40]],
                    dtype=np.int64)
    H = hnf(rows)
    assert H == hnf_oracle(rows.tolist())
    assert all(type(x) is int for row in H for x in row)
    C = int_matmul(rows, rows)
    assert C == _python_product(rows.tolist(), rows.tolist())
    assert C[0][0] == 2 ** 80 + 15
    assert reduce_mod_lattice(H, rows) == [[0, 0, 0]] * 3


def _python_product(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


@st.composite
def products(draw):
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    A = draw(_matrices(m, k, 2 ** draw(st.integers(0, 60))))
    B = draw(_matrices(k, n, 2 ** draw(st.integers(0, 60))))
    return A, B


@settings(max_examples=200, deadline=None)
@given(products())
@example(([[2 ** 53]], [[0]]))
@example(([[2 ** 53 + 1, 1]], [[0], [1]]))
def test_int_matmul_matches_python_ints(AB):
    """Exact at any size of the entries, past 2^53 and 2^63 included."""
    A, B = AB
    C = int_matmul(A, B)
    assert C == _python_product(A, B)
    assert all(type(x) is int for row in C for x in row)


def test_int_matmul_batched():
    """The products of every pair of a stack of matrices, small and scaled
    past int64."""
    rng = np.random.default_rng(5)
    A = rng.integers(-9, 10, size=(3, 4, 4)).tolist()
    big = [[[x * 2 ** 40 for x in row] for row in M] for M in A]
    for i in range(3):
        for j in range(3):
            C = int_matmul(A[i], A[j])
            assert C == _python_product(A[i], A[j])
            assert int_matmul(big[i], big[j]) == [[x * 2 ** 80 for x in row]
                                                  for row in C]


def test_integer_span_builds_its_hnf_once(monkeypatch):
    """Solves against one IntegerSpan share its tagged HNF, and a fresh
    IntegerSpan builds its own."""
    columns = [(1, 2, 0), (0, 3, 1)]
    calls = []
    monkeypatch.setattr(intlinalg, "hnf",
                        lambda rows: calls.append(1) or hnf(rows))
    span = IntegerSpan(columns)
    X = [[1, 0], [-4, 7], [0, 0], [10 ** 30, -1]]
    for x in X:
        target = [sum(c * col[i] for c, col in zip(x, columns))
                  for i in range(3)]
        assert span.solve([target]) == [x]
    with pytest.raises(NotInSpan, match="not an integer combination"):
        span.solve([(0, 0, 1)])
    assert len(calls) == 1
    assert IntegerSpan(columns).solve([(1, 5, 1)]) == [[1, 1]]
    assert len(calls) == 2
    # a twisted job solves the action matrices of all basis elements of
    # R(F) against one span of the twisted basis, in one call, after one
    # call for all the products of pairs in R(F)
    job = realize(load_jobspec(fixture_path("a4_sl23.fus")), FIXTURES)
    assert len(job.basis) > 1
    twisted = [list(row) for row in job.twisted_basis.mults]
    spans, solves = [], []
    monkeypatch.setattr(intlinalg, "_tagged_hnf",
                        lambda cols: spans.append(cols) or _tagged_hnf(cols))
    real = IntegerSpan.solve
    monkeypatch.setattr(IntegerSpan, "solve", lambda self, targets: (
        solves.append(self.columns) or real(self, targets)))
    job.module
    assert spans.count(twisted) == 1
    assert solves == [[list(row) for row in job.basis.mults], twisted]


# a prime above 2^32
BIG_PRIME = 2 ** 32 + 15


def test_big_prime_is_prime():
    assert is_prime(BIG_PRIME)
