"""Exact linear algebra over Z and F_q.

Inputs and results are lists of Python ints or integer numpy arrays.  Three
kernels run on whole arrays and choose their representation from the
values, under a proven bound:

- int_matmul multiplies on float64 BLAS when max|A| * max|B| * k < 2^53
  for inner dimension k (every product and partial sum is then an exactly
  represented integer) and returns int64; otherwise it multiplies numpy
  arrays of Python ints (dtype object);
- hnf eliminates on an int64 array while every entry is below 2^31 and
  on Python ints from the first step that reaches it;
- nullspace_mod eliminates over F_q on int64 when q < 2^31, so every
  product of two residues fits, and on Python ints otherwise.

Lattices are represented by their canonical row Hermite normal form, which
makes equality, membership, sums, ranks and integer solves cheap and
deterministic.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import NotInSpan


# float64 holds every integer of absolute value below this exactly
_FLOAT_EXACT = 2 ** 53


def int_matmul(A, B) -> np.ndarray:
    """A @ B over Z, exact for any integer entries.

    With inner dimension k, every product and every partial sum of A @ B is
    an integer of absolute value at most max|A| * max|B| * k.  When that is
    below 2^53 (and so is every entry), float64 holds each of them exactly,
    in any summation order and with or without FMA, so the product runs on
    BLAS and comes back as int64.  Both operands reach BLAS C-contiguous,
    whatever the layout they arrive in: BLAS takes more CPU time on a
    transposed view.  Otherwise it runs in Python ints (dtype object).
    """
    A, B = _exact_array(A), _exact_array(B)
    a, b = _max_abs(A), _max_abs(B)
    if a < _FLOAT_EXACT and b < _FLOAT_EXACT and a * b * A.shape[-1] < _FLOAT_EXACT:
        return (np.ascontiguousarray(A, dtype=np.float64)
                @ np.ascontiguousarray(B, dtype=np.float64)).astype(np.int64)
    return A.astype(object) @ B.astype(object)


def _max_abs(A: np.ndarray) -> int:
    """max |entry| of an integer array, as a Python int (0 when empty)."""
    if not A.size:
        return 0
    return max(int(A.max()), -int(A.min()))


# --- Hermite normal form -----------------------------------------------------

def hnf(rows) -> list:
    """Canonical row HNF of the lattice spanned by the given integer rows.

    Pivots are positive, entries above each pivot lie in [0, pivot), zero rows
    are dropped.  The result is the unique canonical basis of the row span,
    as lists of Python ints.

    Each elimination step updates every row below (or above) the pivot row
    with one array operation; the pivot is the entry of least absolute value,
    lowest row first.  The array is int64 while every entry is below 2^31,
    so no product q * b reaches 2^62; once an entry reaches 2^31 the same
    steps continue on Python ints.
    """
    A = _exact_array(rows)
    if A.ndim != 2 or not A.size:
        return []
    A = A[(A != 0).any(1)]
    A, big = _widened(A, None if A.dtype == object else _max_abs(A))
    m, n = A.shape
    r = 0
    for c in range(n):
        while r < m:
            col = A[r:, c]
            nz = col.nonzero()[0]
            if not len(nz):
                break
            i0 = r + nz[np.abs(col[nz]).argmin()]
            if i0 != r:
                A[[r, i0]] = A[[i0, r]]
            if len(nz) == 1:
                break
            A, big = _eliminate(A, slice(r + 1, m), r, c, big)
            if not A[r + 1:, c].any():
                break
        if r < m and A[r, c]:
            if A[r, c] < 0:
                A[r] = -A[r]
            if r:
                A, big = _eliminate(A, slice(0, r), r, c, big)
            r += 1
            if r == m:
                break
    return [row for row in A[:r].tolist() if any(row)]


# int64 HNF entries stay below this bound
_HNF_INT64 = 2 ** 31


def _eliminate(A: np.ndarray, rows: slice, r: int, c: int, big):
    """Subtract q_i times the pivot row r from each row i of A[rows], with
    q_i = floor(A[i, c] / A[r, c]).  big bounds the absolute entries of an
    int64 A and is None on Python ints; returns A and the new bound.  Since
    |q_i| <= |A[i, c]| <= big, big + big^2 bounds the result."""
    block = A[rows]
    block -= (block[:, c] // A[r, c])[:, None] * A[r]
    if big is None:
        return A, None
    return _widened(A, big + big * big)


def _widened(A: np.ndarray, big):
    """(A, big) while big, an upper bound on the absolute entries of A, is
    below 2^31; otherwise A is measured, and held in Python ints (bound
    None) if an entry reaches 2^31."""
    if big is None or big < _HNF_INT64:
        return A, big
    big = _max_abs(A)
    if big < _HNF_INT64:
        return A, big
    return A.astype(object), None


def _exact_array(rows) -> np.ndarray:
    """rows as an int64 array, or as Python ints when some entry needs it."""
    try:
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        return np.asarray(rows, dtype=object)


def reduce_mod_lattice(basis_hnf: list, V) -> np.ndarray:
    """Canonical representatives of the rows of the matrix V modulo the
    lattice with the given canonical HNF rows, as an array of Python ints:
    one array step per HNF row, over all rows of V at once."""
    V = np.array(V, dtype=object)
    for row in basis_hnf:
        c = next(k for k, x in enumerate(row) if x)
        V -= (V[:, c] // row[c])[:, None] * np.array(row, dtype=object)
    return V


def lattice_contains(big_hnf: list, small_rows) -> bool:
    return not reduce_mod_lattice(big_hnf, small_rows).any()


# --- integer kernels ---------------------------------------------------------

def _tagged_hnf(columns) -> list:
    """HNF of the rows (columns[j] | e_j).

    Every row is (sum_j a_j columns[j] | a), so the rows with a zero first
    block span the integer relations among the columns.
    """
    t = len(columns)
    return hnf([list(col) + [int(i == j) for i in range(t)]
                for j, col in enumerate(columns)])


def kernel_basis(M: list, n: int) -> list:
    """Basis of {x in Z^n : M x = 0} for an integer matrix M (list of rows)."""
    m = len(M)
    H = _tagged_hnf([[row[i] for row in M] for i in range(n)])
    return [row[m:] for row in H if not any(row[:m])]


class IntegerSpan:
    """The Z-span of fixed integer columns, for exact solves against it.

    The tagged HNF of the columns is built once, so each solve is one
    reduction and one exact check.
    """

    __slots__ = ("columns", "tagged")

    def __init__(self, columns):
        self.columns = [list(col) for col in columns]
        self.tagged = _tagged_hnf(self.columns)

    def solve(self, targets) -> np.ndarray:
        """Python ints X with X @ columns = targets, one row per row of the
        matrix targets, verified exactly.

        Reducing (targets | 0) against the tagged HNF of the columns leaves
        (targets - X @ columns | -X), with a zero first block exactly where
        a target is in the Z-span; one integer product checks every row.
        Raises NotInSpan, with .row the first failing target, when the
        columns are dependent or a target is no integer combination of them.
        """
        H, columns = self.tagged, self.columns
        T = np.array(targets, dtype=object)
        n = T.shape[1]
        if any(not any(row[:n]) for row in H):
            raise NotInSpan("the basis vectors are linearly dependent", row=0)
        rest = reduce_mod_lattice(
            H, np.hstack([T, np.zeros((len(T), len(columns)), dtype=object)]))
        fails = rest[:, :n].any(1)
        if fails.any():
            raise NotInSpan("not an integer combination of the basis",
                            row=int(fails.argmax()))
        X = -rest[:, n:]
        fails = (int_matmul(X, np.reshape(columns, (-1, n))) != T).any(1)
        if fails.any():
            raise NotInSpan("the basis does not span the vector",
                            row=int(fails.argmax()))
        return X


# --- Smith normal form -------------------------------------------------------

def smith_diagonal(M: list) -> list:
    """The Smith normal form diagonal d1 | d2 | ... of an integer matrix.

    The list has min(m, n) entries, non-negative, zeros last.  Row HNFs of
    the matrix and of its transpose alternate until each row has one
    nonzero entry (Kannan and Bachem, SIAM J. Comput. 8, 1979); gcd/lcm
    exchanges then order those entries by divisibility.
    """
    size = min(len(M), len(M[0])) if len(M) else 0
    A = hnf(M)
    while any(sum(1 for x in row if x) > 1 for row in A):
        A = hnf(list(zip(*A)))
    d = [next(x for x in row if x) for row in A]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d + [0] * (size - len(d))


def nullspace_mod(mat, q):
    """Basis of the kernel of a square matrix over F_q, q prime.

    Gauss-Jordan elimination with one array operation per pivot: the
    pivot row is scaled to a leading 1, then every other row with a
    nonzero entry in the pivot column becomes (row - entry * pivot row)
    mod q.  Entries stay in [0, q), so while q < 2^31 every product fits
    an int64; from 2^31 on the same steps run on Python ints.  One basis
    vector per free column, in column order: 1 there, minus the reduced
    pivot rows' entries in that column at the pivot columns, 0 elsewhere.
    """
    m = np.array(mat, dtype=np.int64 if q < 2 ** 31 else object) % q
    n = len(m)
    pivots = []  # (column, row)
    r = 0
    for c in range(n):
        nz = np.flatnonzero(m[r:, c])
        if not nz.size:
            continue
        if nz[0]:
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, q) % q
        rows = np.flatnonzero(m[:, c])
        rows = rows[rows != r]
        m[rows] = (m[rows] - m[rows, c][:, None] * m[r]) % q
        pivots.append((c, r))
        r += 1
    done = {c for c, _ in pivots}
    basis = []
    for fc in range(n):
        if fc in done:
            continue
        vec = [0] * n
        vec[fc] = 1
        for c, pr in pivots:
            vec[c] = int(-m[pr, fc] % q)
        basis.append(vec)
    return basis
