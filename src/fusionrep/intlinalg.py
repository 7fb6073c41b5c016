"""Exact linear algebra over Z, Q and F_q, and a primality test.

Vectors and matrices are plain lists; integer work uses Python's unbounded
ints, rational work uses fractions.Fraction.  Lattices are represented by
their canonical row Hermite normal form, which makes equality, membership and
sums cheap and deterministic.
"""

from __future__ import annotations

from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def lattice_eq(h1: list, h2: list) -> bool:
    return hnf(h1) == hnf(h2)


def lattice_contains(big_hnf: list, small_rows) -> bool:
    return all(lattice_member(big_hnf, r) for r in small_rows)


# --- integer kernels ---------------------------------------------------------

def kernel_basis(M: list, n: int) -> list:
    """Basis of {x in Z^n : M x = 0} for an integer matrix M (list of rows)."""
    m = len(M)
    B = []
    for i in range(n):
        row = [M[j][i] for j in range(m)] + [0] * n
        row[m + i] = 1
        B.append(row)
    H = hnf(B)
    out = [row[m:] for row in H if not any(row[:m])]
    return out


# --- Smith normal form -------------------------------------------------------

def snf_with_transforms(M: list):
    """U, A, V with U * M * V = A diagonal, d1 | d2 | ..., U and V unimodular.

    Returns (diag, U, V) where diag is the list of nonzero diagonal entries
    padded with zeros up to min(m, n).
    """
    A = [list(r) for r in M]
    m = len(A)
    n = len(A[0]) if A else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

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
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            reduced = True
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        reduced = False
            if reduced:
                break
        if A[t][t] < 0:
            negate_row(t)
        # divisibility: fold any non-multiple into the pivot and redo
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    diag = [A[i][i] for i in range(min(m, n))]
    return diag, U, V


# --- rational elimination ----------------------------------------------------

def solve_rational(A: list, b: list):
    """One exact solution x (Fractions) of A x = b, or None if inconsistent.

    Free variables are set to zero.  A is a list of m rows of length n.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(A, b)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if M[i][n]:
            return None
    x = [Fraction(0)] * n
    for k, c in enumerate(pivots):
        x[c] = M[k][n]
    return x


def rational_rank(A: list) -> int:
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[Fraction(x) for x in row] for row in A]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = 1 / M[rank][c]
        M[rank] = [x * inv for x in M[rank]]
        for i in range(m):
            if i != rank and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[rank])]
        rank += 1
        if rank == m:
            break
    return rank


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


def mat_mul(A: list, B: list) -> list:
    """Integer matrix product."""
    if not A or not B:
        return []
    n = len(B[0])
    out = []
    for row in A:
        out.append([sum(row[k] * B[k][j] for k in range(len(B))) for j in range(n)])
    return out
