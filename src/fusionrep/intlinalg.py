"""Exact linear algebra over Z.

Matrices are lists of rows of Python ints, so no entry can overflow and
every kernel has one representation whatever the size of its values.  A
kernel converts the entries it takes in with int(), so a fixed-width
integer scalar of another type never enters the arithmetic.

Lattices are represented by their canonical row Hermite normal form, which
makes equality, membership, sums, ranks and integer solves cheap and
deterministic.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import sub

from .errors import NotInSpan


def int_matmul(A, B) -> list:
    """A @ B over Z for matrices given as rows, as rows of Python ints.
    Only pairs of nonzero entries are multiplied, so sparse factors, such
    as the slices of a structure tensor, cost only their nonzero entries."""
    B = list(B)
    width = len(B[0]) if B else 0
    B = [[(k, int(y)) for k, y in enumerate(row) if y] for row in B]
    out = []
    for a in A:
        acc = [0] * width
        for x, b in zip(a, B):
            if x:
                x = int(x)
                for k, y in b:
                    acc[k] += x * y
        out.append(acc)
    return out


class PackedRows:
    """Fixed integer rows, for exact combinations sum_i c_i rows[i] by
    Kronecker substitution: each row is packed into one integer with a
    field of `size` bytes per entry, so a combination is one integer
    multiply-add per nonzero coefficient.

    A field holds its entry plus half = 2^(8 size - 1), so the sum of
    c_i packed[i] and (1 - sum_i c_i) times half in every field holds each
    entry of the combination plus half.  max(sum |c_i|, 1) times the
    largest absolute entry of the rows bounds every entry, and the size is
    the least power of two (8 bytes at least) that keeps the bound below
    half, so the fields come back exactly.  Rows are packed when first
    used at a size, and kept.
    """

    __slots__ = ("rows", "bound", "_packed")

    def __init__(self, rows):
        self.rows = [list(map(int, row)) for row in rows]
        self.bound = max(map(abs, chain.from_iterable(self.rows)), default=0)
        self._packed = {}  # size -> the packed rows, None until needed

    def combine(self, coeffs: list) -> list:
        """sum_i coeffs[i] rows[i], for Python-int coefficients."""
        need = (max(sum(map(abs, coeffs)), 1) * self.bound).bit_length()
        size = max(8, 1 << (need // 8).bit_length())
        half, width = 1 << (8 * size - 1), len(self.rows[0])
        packed = self._packed.setdefault(size, [None] * len(self.rows))
        total = (1 - sum(coeffs)) * int.from_bytes(
            half.to_bytes(size, "little") * width, "little")
        for i, c in enumerate(coeffs):
            if c:
                if packed[i] is None:
                    packed[i] = int.from_bytes(b"".join(
                        [(x + half).to_bytes(size, "little")
                         for x in self.rows[i]]), "little")
                total += c * packed[i]
        data = total.to_bytes(size * width, "little")
        return [int.from_bytes(data[i:i + size], "little") - half
                for i in range(0, len(data), size)]


# --- Hermite normal form -----------------------------------------------------

def hnf(rows) -> list:
    """Canonical row HNF of the lattice spanned by the given integer rows.

    Pivots are positive, entries above each pivot lie in [0, pivot), zero rows
    are dropped.  The result is the unique canonical basis of the row span,
    as lists of Python ints.

    The rows, each once, go into an echelon keyed by pivot column.  A row
    is cleared column by column: where the pivot divides its entry, that
    multiple of the pivot row is subtracted; otherwise one extended-gcd
    step makes a combination with the gcd as pivot the new pivot row, and
    the row zero there.  A new pivot row is reduced at the later pivots and
    reduces the earlier ones at its column, which keeps the entries near
    the size of the pivots.  A last pass reduces above each pivot.
    """
    tails = {}  # pivot column -> the pivot row from that column on
    seen = set()
    n = 0
    for row in rows:
        v = tuple(map(int, row))
        if v in seen:
            continue
        seen.add(v)
        v, n = list(v), len(v)
        c = 0
        while True:
            while c < n and not v[c]:
                c += 1
            if c == n:
                break
            t = tails.get(c)
            if t is None:
                _install(tails, c, v[c:] if v[c] > 0 else [-x for x in v[c:]])
                break
            a, b = t[0], v[c]
            q, r = divmod(b, a)
            if r:
                # s a + u b = g = gcd(a, b)
                g = gcd(a, b)
                s = pow(a // g, -1, abs(b // g))
                u = (g - s * a) // b
                w = v[c:]
                a, b = a // g, b // g
                v[c:] = [a * y - b * x for x, y in zip(t, w)]
                _install(tails, c, [s * x + u * y for x, y in zip(t, w)])
            else:
                v[c:] = map(sub, v[c:], map(q.__mul__, t))
            c += 1
    out = [[0] * c + tails[c] for c in sorted(tails)]
    for i, (c, row) in enumerate(zip(sorted(tails), out)):
        for above in out[:i]:
            _subtract(above, above[c] // row[c], row, c)
    return out


def _subtract(row: list, q: int, tail: list, c: int) -> None:
    """row -= q * (the row that is tail from column c on), in place."""
    if q:
        row[c:] = map(sub, row[c:], map(q.__mul__, tail[-(len(row) - c):]))


def _install(tails: dict, c: int, new: list) -> None:
    """Make new, the tail from column c of a row with positive entry at c,
    the pivot row of column c: reduce it at the later pivots, then the
    earlier pivot rows at column c."""
    for d in sorted(tails):
        if d > c:
            _subtract(new, new[d - c] // tails[d][0], tails[d], d - c)
    tails[c] = new
    for d, above in tails.items():
        if d < c:
            _subtract(above, above[c - d] // new[0], new, c - d)


def reduce_mod_lattice(basis_hnf: list, V) -> list:
    """Canonical representatives of the rows of the matrix V modulo the
    lattice with the given canonical HNF rows, as rows of Python ints."""
    pivots = [(next(k for k, x in enumerate(row) if x), row)
              for row in basis_hnf]
    out = []
    for v in V:
        v = list(map(int, v))
        for c, row in pivots:
            _subtract(v, v[c] // row[c], row, c)
        out.append(v)
    return out


def lattice_contains(big_hnf: list, small_rows) -> bool:
    return not any(map(any, reduce_mod_lattice(big_hnf, small_rows)))


# --- integer relations -------------------------------------------------------

def _tagged_hnf(columns) -> list:
    """HNF of the rows (columns[j] | e_j).

    Every row is (sum_j a_j columns[j] | a), so the rows with a zero first
    block span the integer relations among the columns.
    """
    t = len(columns)
    return hnf([list(col) + [int(i == j) for i in range(t)]
                for j, col in enumerate(columns)])


def divide_lattice(H: list, m: int) -> list:
    """Canonical HNF of {x in Z^n : m x in L}, for the canonical HNF rows H
    of a lattice L in Z^n and an integer m > 0: the rows y H / m for the y
    with y H = 0 mod m, one condition per distinct column of H.  The y are
    the relations (y, z) of the tagged HNF of the rows of H, on those
    columns, and of m I."""
    cols = list(dict.fromkeys(zip(*H)))
    d = len(cols)
    tagged = _tagged_hnf([list(row) for row in zip(*cols)]
                         + [[m * (j == k) for j in range(d)] for k in range(d)])
    ys = [row[d:d + len(H)] for row in tagged if not any(row[:d])]
    return hnf([x // m for x in row] for row in int_matmul(ys, H))


class IntegerSpan:
    """The Z-span of fixed integer columns, for exact solves against it.

    The tagged HNF of the columns is built once, so each solve is one
    reduction and one exact check.
    """

    __slots__ = ("columns", "tagged")

    def __init__(self, columns):
        self.columns = [list(map(int, col)) for col in columns]
        self.tagged = _tagged_hnf(self.columns)

    def solve(self, targets) -> list:
        """Rows X of Python ints with X @ columns = targets, one row per row
        of the matrix targets, verified exactly.

        Reducing (targets | 0) against the tagged HNF of the columns leaves
        (targets - X @ columns | -X), with a zero first block exactly where
        a target is in the Z-span; one integer product checks every row.
        Raises NotInSpan, with .row the first failing target, when the
        columns are dependent or a target is no integer combination of them.
        """
        H, columns = self.tagged, self.columns
        T = [list(map(int, t)) for t in targets]
        n = len(columns[0]) if columns else 0
        if any(not any(row[:n]) for row in H):
            raise NotInSpan("the basis vectors are linearly dependent", row=0)
        rest = reduce_mod_lattice(H, [t + [0] * len(columns) for t in T])
        for r, row in enumerate(rest):
            if any(row[:n]):
                raise NotInSpan("not an integer combination of the basis",
                                row=r)
        X = [[-x for x in row[n:]] for row in rest]
        for r, (got, t) in enumerate(zip(int_matmul(X, columns), T)):
            if got != t:
                raise NotInSpan("the basis does not span the vector", row=r)
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

