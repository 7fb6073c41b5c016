"""Fusion-invariant characters.

A character of S is F-invariant when it is constant on every F-class of
elements.  Over the canonical irreducible order this is a system of integer
linear conditions on multiplicity vectors; the non-negative solutions form a
monoid whose minimal generators are the irreducible F-invariant characters.
This module builds the condition matrix, computes the minimal generators,
and decomposes invariant (possibly virtual) vectors over them, products
with the members of a basis included.  A basis of characters is one
integer matrix: its rows are the members, written as multiplicities over
Irr.

The minimal generators form the Hilbert basis of the monoid.  Columns that
no condition touches split off as unit vectors.  The remaining columns are
merged by the ray of their column in a kernel-lattice basis, which leaves
at most six of the 55 columns on the order-343 fixtures, and a Pottier
completion runs on the merged columns in small int64 arrays under an
explicit entry bound, in rounds that reduce every pending pair sum at
once; its non-negative minimal members lift back exactly.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

import numpy as np

from .chartable import character_table
from .cyclotomic import value_json
from .errors import (
    DecompositionNotIntegral,
    FusionRepError,
    HilbertCapExceeded,
    InputError,
    NotInSpan,
    NotInvariant,
)
from .fusion import FusionSystem
from .intlinalg import IntegerSpan, _exact_array, int_matmul, kernel_basis

DEFAULT_HILBERT_CAP = 100_000


# --- the invariance conditions ------------------------------------------------


def _class_buckets(F: FusionSystem):
    """S-class indices grouped by the F-class of their representative.

    Buckets are keyed by F-class index; each bucket lists S-class indices in
    canonical table order, so the first entry is the comparison base.
    """
    class_of = F.element_class_of()
    buckets = {}
    for k, cls in enumerate(F.S.conjugacy_classes()):
        buckets.setdefault(class_of[cls[0]], []).append(k)
    return buckets


def invariance_matrix(F: FusionSystem) -> list:
    """Integer rows cutting out the F-invariant multiplicity vectors.

    Columns follow the canonical irreducible order of S.  For every F-class,
    each S-class it contains beyond the first contributes the condition
    "value here = value at the first", one row per power-basis coordinate of
    the common cyclotomic field, divided by its content.  Zero rows are
    dropped.
    """
    X = character_table(F.S).coords
    rows = []
    for _, ks in sorted(_class_buckets(F).items()):
        base = ks[0]
        for k in ks[1:]:
            for row in (X[:, k, :] - X[:, base, :]).T.tolist():
                if not any(row):
                    continue
                g = 0
                for x in row:
                    g = gcd(g, x)
                if g > 1:
                    row = [x // g for x in row]
                rows.append(row)
    return rows


# --- Hilbert basis of a lattice monoid ----------------------------------------

# Every stored completion vector has entries below this bound in absolute
# value, so the sum of two of them fits in an int64.
_INT64_BOUND = 2 ** 62


def _check_bound(largest) -> None:
    if largest >= _INT64_BOUND:
        raise FusionRepError("a Hilbert completion entry reaches 2^62, "
                             "past the int64 bound")


# bound on the entries of one temporary (rows x rows) of the completion
_POOL_BLOCK = 1 << 16


def _parts(V: np.ndarray) -> np.ndarray:
    """The positive parts of the rows of V, then their negative parts."""
    return np.hstack([np.maximum(V, 0), np.maximum(-V, 0)])


def _below(A: np.ndarray, B: np.ndarray, reduce) -> np.ndarray:
    """reduce(hit) for each block of rows of B, concatenated, where
    hit[a, b] says that A[a] <= B[b] componentwise.  One comparison per
    column, so the temporaries are len(A) x block, about _POOL_BLOCK
    entries whatever the number of rows of B."""
    step = max(1, _POOL_BLOCK // max(1, len(A)))
    out = [np.zeros(0, dtype=np.intp)]
    for lo in range(0, len(B), step):
        block = B[lo:lo + step]
        hit = np.ones((len(A), len(block)), dtype=bool)
        for c in range(A.shape[1]):
            hit &= A[:, c, None] <= block[:, c]
        out.append(reduce(hit))
    return np.concatenate(out)


def _minimal(A: np.ndarray) -> np.ndarray:
    """Mask of the rows of A, pairwise distinct, with no other row below."""
    return _below(A, A, lambda hit: hit.sum(0)) == 1


def _clash_pairs(G: np.ndarray, new: range) -> tuple:
    """(i, k) for each member k in new and each earlier member i with a
    coordinate of sign opposite to k's, k-major with i ascending."""
    P, N = G > 0, G < 0
    k = np.arange(new.start, new.stop)
    clash = (P[k] @ N.T) | (N[k] @ P.T)
    clash &= np.arange(len(G)) < k[:, None]
    kk, i = np.nonzero(clash)
    return i, k[kk]


def _normal_forms(pool: np.ndarray, G: np.ndarray,
                  parts: np.ndarray) -> np.ndarray:
    """Every pool row in normal form against the members G with the given
    parts, in place: all rows that have one subtract the first member, in
    insertion order, lying below them, until no row has one."""
    active = np.arange(len(pool))
    while active.size:
        first = _below(parts, _parts(pool[active]),
                       lambda hit: np.where(hit.any(0), hit.argmax(0), -1))
        active, first = active[first >= 0], first[first >= 0]
        pool[active] -= G[first]
    return pool


def _distinct(pool) -> np.ndarray:
    """The nonzero rows of pool, each once, in order of first occurrence:
    a stable lexicographic sort puts equal rows together, lowest index
    first."""
    pool = pool[pool.any(1)]
    order = np.lexsort(pool.T)
    ranked = pool[order]
    first = np.ones(len(pool), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(1)
    return pool[np.sort(order[first])]


def _column_rays(lattice: list, columns: list) -> tuple:
    """Group the columns by the ray of their column in the lattice basis.

    lattice is a basis over the given columns, one coordinate per column.
    Returns (reps, lift): reps lists the coordinate of one representative
    per ray, in order of first occurrence, and lift lists (j, k, g, g_k)
    for every column j whose lattice column is nonzero: its ray is the k-th,
    and g and g_k are the contents of its column and of the
    representative's.  Zero lattice columns are forced to zero and appear
    in neither.
    """
    reps, lift, ray_of = [], [], {}
    for c, j in enumerate(columns):
        col = [b[c] for b in lattice]
        g = 0
        for x in col:
            g = gcd(g, x)
        if not g:
            continue
        ray = tuple(x // g for x in col)
        if ray not in ray_of:
            ray_of[ray] = len(reps)
            reps.append((c, g))
        k = ray_of[ray]
        lift.append((j, k, g, reps[k][1]))
    return [c for c, _ in reps], lift


def hilbert_basis(rows, ncols: int = None, cap: int = DEFAULT_HILBERT_CAP) -> list:
    """Minimal nonzero elements of {x in Z^n, x >= 0 : rows * x = 0}.

    Columns that no row touches are free: each contributes its unit vector
    and takes no part in the rest.  The other columns are grouped by the ray
    of their column in one kernel-lattice basis, up to positive scaling;
    columns with a zero kernel column are forced to zero and dropped.  On a
    lattice vector the columns of one group are positive multiples of one
    another, so projecting onto one representative column per group is
    injective and keeps signs and dominance: the completion on the
    projection is the completion on the full columns, and each result lifts
    back exactly through x_j = x_k * g_j / g_k for the contents g of the
    kernel columns.

    The completion (Pottier, ISSAC 1996) seeds with the projected lattice
    basis and its negatives and closes under pairwise sums reduced to
    normal form: subtract the first member, in insertion order, whose
    positive and negative parts lie componentwise below (written u <= v).
    A pair whose members have no coordinate of opposite sign is skipped:
    its sum is already a sum of two members that lie below it.  The sums
    go in rounds.  A round forms every pending sum as one pool, reduces
    the whole pool against the current members, with one array pass per
    subtraction step, and drops zero and repeated rows.  The survivors
    minimal under <= among themselves become members; each other survivor
    has one of them below it and goes back into the next pool, with the
    sums of the new members' pairs.  Members live in an int64 array G,
    beside their positive parts and then negative parts; every entry stays
    below 2^62 in absolute value, and an entry past that bound raises
    FusionRepError.  The comparison temporaries hold about _POOL_BLOCK
    entries each, however large the pool.
    The non-negative members, minimal componentwise, lift to the basis.

    `cap` bounds the members plus the rows of the pool.
    Output sorted by (coordinate sum, entries).
    """
    rows = [list(r) for r in rows]
    if rows:
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise InputError("ragged invariance matrix")
        if ncols is not None and ncols != n:
            raise InputError("ncols disagrees with the matrix width")
    else:
        if ncols is None:
            raise InputError("ncols is required for an empty matrix")
        n = ncols
    touched = [j for j in range(n) if any(r[j] for r in rows)]
    out = [tuple(int(i == j) for i in range(n))
           for j in range(n) if j not in touched]
    if not rows:
        return sorted(out, key=_by_sum)

    # rebinding frees the full copy before kernel_basis builds its own
    rows = [[r[j] for j in touched] for r in rows]
    lattice = kernel_basis(rows, len(touched)) if touched else []
    reps, lift = _column_rays(lattice, touched)
    if reps:
        seeds = []
        for b in lattice:
            v = [b[c] for c in reps]
            seeds += [v, [-x for x in v]]
        _check_bound(max(abs(x) for v in seeds for x in v))
        G = np.array(seeds, dtype=np.int64)
        parts = _parts(G)
        carried = G[:0]
        new = range(len(G))
        while True:
            # clash pairs (i, k), i < k, of each new member k
            i, k = _clash_pairs(G, new)
            if len(G) + len(carried) + len(i) > cap:
                raise HilbertCapExceeded(
                    f"completion exceeded {cap} vectors; raise the cap to continue"
                )
            if not len(carried) + len(i):
                break
            sums = G[i] + G[k]
            if sums.size:
                _check_bound(np.abs(sums).max())
            pool = _distinct(_normal_forms(np.vstack([carried, sums]),
                                           G, parts))
            pool_parts = _parts(pool)
            minimal = _minimal(pool_parts)
            carried = pool[~minimal]
            new = range(len(G), len(G) + int(minimal.sum()))
            G = np.vstack([G, pool[minimal]])
            parts = np.vstack([parts, pool_parts[minimal]])

        # members are pairwise distinct: each new one is in normal form
        nonneg = G[(G >= 0).all(1)]
        for y in nonneg[_minimal(nonneg)].tolist():
            x = [0] * n
            for j, k, g, g_rep in lift:
                x[j], r = divmod(y[k] * g, g_rep)
                if r:
                    raise FusionRepError(
                        f"Hilbert basis lift gives column {j} a non-integer")
            out.append(tuple(x))
    return sorted(out, key=_by_sum)


def _by_sum(v: tuple) -> tuple:
    return sum(v), v


# --- bases of characters -----------------------------------------------------


def canonical_rows(solutions, degrees) -> np.ndarray:
    """Non-negative solutions over Irr as the rows of one int64 matrix:
    the trivial character (Irr index 0) first when it is among them, then
    the rest by (degree, row); degrees are those of Irr."""
    unit = tuple(int(j == 0) for j in range(len(degrees)))
    rows = sorted(map(tuple, solutions), key=lambda v: (
        v != unit, sum(m * d for m, d in zip(v, degrees)), v))
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(degrees))


class InvariantBasis:
    """Characters of the group fusion.S that meet the invariance conditions.

    Row i of the read-only int64 matrix mults holds the multiplicities of
    member i over Irr in canonical order; degrees, coords and span are
    read off it.  For R(F) the trivial character comes first, named "1",
    and the rest follow in the order (degree, row), named X1, X2, ...
    """

    def __init__(self, fusion: FusionSystem, mults, names, invariance_rows):
        table = character_table(fusion.S)
        M = np.array(mults, dtype=np.int64).reshape(len(names), len(table))
        M.flags.writeable = False
        # Python ints, one row per invariance condition, for int_matmul
        rows = np.array(invariance_rows, dtype=object).reshape(-1, len(table))
        rows.flags.writeable = False
        vars(self).update(
            fusion=fusion, mults=M, names=tuple(names), invariance_rows=rows,
            degrees=tuple((M @ np.array(table.degrees())).tolist()))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self):
        return len(self.mults)

    @cached_property
    def coords(self) -> np.ndarray:
        """Integer power-basis coordinates of the members, one row of
        values per member and class."""
        C = np.tensordot(self.mults, character_table(self.fusion.S).coords, 1)
        C.flags.writeable = False
        return C

    @cached_property
    def span(self) -> IntegerSpan:
        """The Z-span of the members."""
        return IntegerSpan(self.mults.tolist())

    def to_json(self) -> dict:
        S = self.fusion.S
        e = character_table(S).conductor
        at = [S.class_of()[cls[0]] for cls in self.fusion.element_classes()]
        return {
            "classes": [
                {"size": len(cls), "representative": S.describe_element(cls[0])}
                for cls in self.fusion.element_classes()
            ],
            "basis": [
                {
                    "name": name,
                    "degree": d,
                    "multiplicities": row,
                    "values": [value_json(e, v) for v in values],
                }
                for name, d, row, values in zip(
                    self.names, self.degrees, self.mults.tolist(),
                    self.coords[:, at].tolist())
            ],
        }


def irreducible_invariants(F: FusionSystem, cap: int = DEFAULT_HILBERT_CAP) -> InvariantBasis:
    """The minimal F-invariant characters, wrapped as a canonical basis.

    Checks, on every run, that the basis size equals the number of F-classes
    and that the basis characters separate the F-classes (nonsingular value
    matrix at class representatives).
    """
    table = character_table(F.S)
    rows = invariance_matrix(F)
    mults = canonical_rows(hilbert_basis(rows, ncols=len(table), cap=cap),
                           table.degrees())
    nclasses = len(F.element_classes())
    if len(mults) != nclasses:
        raise FusionRepError(
            f"{len(mults)} irreducible invariants for {nclasses} classes; "
            "the basis count must match the class count"
        )
    if mults[0].tolist() != [int(i == 0) for i in range(len(table))]:
        raise FusionRepError("the trivial character is missing from the basis")
    names = ["1"] + [f"X{k}" for k in range(1, len(mults))]
    basis = InvariantBasis(F, mults, names, rows)
    cls = [F.S.class_of()[c[0]] for c in F.element_classes()]
    if table.rank(basis.coords[:, cls]) != nclasses:
        raise FusionRepError("basis characters do not separate the classes")
    return basis


# --- decomposition -----------------------------------------------------------


def decompose(rows, B: InvariantBasis) -> np.ndarray:
    """Integer coordinates over the basis of every row of the matrix rows,
    each an invariant row of multiplicities over Irr (virtual, entries of
    any size), by one product with the invariance conditions and one solve.
    Raises NotInvariant when a row fails the invariance conditions and
    NotInSpan when it is no integer combination of the basis; .row names
    the first failing row.
    """
    V = _exact_array(rows)
    if V.ndim != 2 or V.shape[1] != B.mults.shape[1]:
        raise InputError("one multiplicity per irreducible required")
    fails = int_matmul(B.invariance_rows, V.T).any(0)
    if fails.any():
        raise NotInvariant("character is not constant on the fusion classes",
                           row=int(fails.argmax()))
    return B.span.solve(V)


def product_coefficients(coords, B: InvariantBasis) -> np.ndarray:
    """C[i, j, k], the coefficient of member k of B in f_i * B_j, for the
    class functions f_i of the group B.fusion.S with power-basis
    coordinates coords[i] (one row per class, at the table's conductor).

    One certified product over Irr takes every pair and one decompose
    rewrites them all, so each product passes the invariance conditions
    and the exact solve; a failure, or a negative coefficient, is
    DecompositionNotIntegral.
    """
    table = character_table(B.fusion.S)
    products = table.products(coords, B.coords)
    try:
        C = decompose(products.reshape(-1, len(table)), B)
    except (NotInvariant, NotInSpan) as ex:
        i, j = divmod(ex.row, len(B))
        raise DecompositionNotIntegral(
            f"the product of f{i} with {B.names[j]}: {ex}") from ex
    if (C < 0).any():
        raise DecompositionNotIntegral(
            f"coefficient {C[C < 0][0]} is not a non-negative integer")
    return C.reshape(products.shape[:2] + (len(B),))
