"""Exact linear algebra over Z and F_q, and a primality test.

Vectors and matrices are plain lists of Python's unbounded ints.  Integer
matrix products run on numpy arrays of Python ints (dtype object).  Lattices
are represented by their canonical row Hermite normal form, which makes
equality, membership, sums, ranks and integer solves cheap and
deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import NotInSpan


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def int_matmul(A, B) -> np.ndarray:
    """A @ B over Z, exact for any entries: the product runs in Python ints."""
    return np.asarray(A, dtype=object) @ np.asarray(B, dtype=object)


# --- Hermite normal form -----------------------------------------------------

def hnf(rows) -> list:
    """Canonical row HNF of the lattice spanned by the given integer rows.

    Pivots are positive, entries above each pivot lie in [0, pivot), zero rows
    are dropped.  The result is the unique canonical basis of the row span.
    """
    A = [list(r) for r in rows if any(r)]
    if not A:
        return []
    m, n = len(A), len(A[0])
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if A[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(A[i][c]), i))
            if i0 != r:
                A[r], A[i0] = A[i0], A[r]
            done = True
            for i in range(r + 1, m):
                if A[i][c]:
                    q = A[i][c] // A[r][c]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    if A[i][c]:
                        done = False
            if done:
                break
        if r < m and A[r][c]:
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
            r += 1
            if r == m:
                break
    return [row for row in A[:r] if any(row)]


def reduce_mod_lattice(basis_hnf: list, v) -> list:
    """Canonical representative of v modulo the lattice (HNF rows)."""
    v = list(v)
    for row in basis_hnf:
        c = next(k for k, x in enumerate(row) if x)
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


def lattice_member(basis_hnf: list, v) -> bool:
    return not any(reduce_mod_lattice(basis_hnf, v))


def lattice_contains(big_hnf: list, small_rows) -> bool:
    return all(lattice_member(big_hnf, r) for r in small_rows)


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


def integer_solution(columns, target) -> tuple:
    """Integers x with sum_j x_j columns[j] = target, verified exactly.

    Reducing (target | 0) against the tagged HNF of the columns leaves
    (target - sum_j x_j columns[j] | -x), with a zero first block exactly
    when target lies in the Z-span.  Raises NotInSpan when the columns are
    dependent or target is no integer combination of them.
    """
    t = len(columns)
    H = _tagged_hnf(columns)
    n = len(target)
    if any(not any(row[:n]) for row in H):
        raise NotInSpan("the basis vectors are linearly dependent")
    rest = reduce_mod_lattice(H, list(target) + [0] * t)
    if any(rest[:n]):
        raise NotInSpan("not an integer combination of the basis")
    x = tuple(-c for c in rest[n:])
    if any(sum(c * col[i] for c, col in zip(x, columns)) != b
           for i, b in enumerate(target)):
        raise NotInSpan("the basis does not span the vector")
    return x


# --- Smith normal form -------------------------------------------------------

def smith_diagonal(M: list) -> list:
    """The Smith normal form diagonal d1 | d2 | ... of an integer matrix.

    The list has min(m, n) entries, non-negative, zeros last.
    """
    A = [list(r) for r in M]
    m = len(A)
    n = len(A[0]) if A else 0

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        A[t], A[best[0]] = A[best[0]], A[t]
        swap_cols(t, best[1])
        while True:
            reduced = True
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        reduced = False
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for row in A:
                        row[j] -= q * row[t]
                    if A[t][j]:
                        swap_cols(t, j)
                        reduced = False
            if reduced:
                break
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
        # divisibility: fold any non-multiple into the pivot and redo
        bad = next((i for i in range(t + 1, m)
                    if any(A[i][j] % A[t][t] for j in range(t + 1, n))), None)
        if bad is not None:
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            continue
        t += 1
    return [A[i][i] for i in range(min(m, n))]


def nullspace_mod(mat, q):
    """Basis of the kernel of a square matrix over F_q."""
    n = len(mat)
    m = [row[:] for row in mat]
    pivots = {}
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if m[i][c] % q), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, q)
        m[r] = [(x * inv) % q for x in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for c, pr in pivots.items():
            vec[c] = (-m[pr][fc]) % q
        basis.append(vec)
    return basis

