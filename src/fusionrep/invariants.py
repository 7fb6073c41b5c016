"""Fusion-invariant characters.

A character of S is F-invariant when it is constant on every F-class of
elements.  Over the canonical irreducible order this is a system of integer
linear conditions on multiplicity vectors; the non-negative solutions form a
monoid whose minimal generators are the irreducible F-invariant characters.
This module builds the condition matrix, computes the minimal generators,
and decomposes invariant (possibly virtual) vectors over them.

The minimal generators form the Hilbert basis of the monoid.  Columns that
no condition touches split off as unit vectors.  The remaining columns are
merged by the ray of their column in a kernel-lattice basis, which leaves
at most six of the 55 columns on the order-343 fixtures, and a Pottier
completion runs on the merged columns in small int64 arrays under an
explicit entry bound, in rounds that reduce every pending pair sum at
once; its non-negative minimal members lift back exactly.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .chartable import character_table
from .cyclotomic import value_json
from .errors import (
    FusionRepError,
    GroupMismatch,
    HilbertCapExceeded,
    InputError,
    NotInvariant,
)
from .fusion import FusionSystem
from .intlinalg import IntegerSpan, int_matmul, kernel_basis
from .permgroup import FiniteGroup

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


# --- invariant vectors and the canonical basis ---------------------------------


class RepVector:
    """A non-negative integer combination of the irreducibles of a group."""

    __slots__ = ("group", "multiplicities", "_coords")

    def __init__(self, group: FiniteGroup, multiplicities):
        mults = tuple(int(m) for m in multiplicities)
        table = character_table(group)
        if len(mults) != len(table):
            raise InputError("one multiplicity per irreducible required")
        if any(m < 0 for m in mults):
            raise InputError("multiplicities must be non-negative")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "multiplicities", mults)
        object.__setattr__(self, "_coords", None)

    def __setattr__(self, *a):
        raise AttributeError("RepVector is immutable")

    def degree(self) -> int:
        degs = character_table(self.group).degrees()
        return sum(m * d for m, d in zip(self.multiplicities, degs))

    @property
    def coords(self) -> np.ndarray:
        """Integer power-basis coordinates of the character, per class."""
        if self._coords is None:
            X = character_table(self.group).coords
            object.__setattr__(self, "_coords", np.tensordot(
                np.array(self.multiplicities, dtype=np.int64), X, 1))
        return self._coords

    def to_json(self) -> dict:
        return {"degree": self.degree(), "multiplicities": list(self.multiplicities)}

    def __eq__(self, other):
        if not isinstance(other, RepVector):
            return NotImplemented
        return self.group is other.group and self.multiplicities == other.multiplicities

    def __hash__(self):
        return hash((id(self.group), self.multiplicities))

    def __repr__(self):
        return f"RepVector(degree={self.degree()}, {self.multiplicities})"


class InvariantBasis:
    """The irreducible F-invariant characters in canonical order.

    Order is (degree, multiplicity tuple); the trivial character is always a
    member and is named "1", the rest are named X1, X2, ... in order.
    """

    __slots__ = ("fusion", "vectors", "names", "invariance_rows", "_span")

    def __init__(self, fusion: FusionSystem, vectors, names, invariance_rows):
        object.__setattr__(self, "fusion", fusion)
        object.__setattr__(self, "vectors", tuple(vectors))
        object.__setattr__(self, "names", tuple(names))
        # Python ints, one row per invariance condition, for int_matmul
        rows = np.array(invariance_rows, dtype=object).reshape(
            -1, len(self.vectors[0].multiplicities))
        rows.flags.writeable = False
        object.__setattr__(self, "invariance_rows", rows)
        object.__setattr__(self, "_span", None)

    def __setattr__(self, *a):
        raise AttributeError("InvariantBasis is immutable")

    def __len__(self):
        return len(self.vectors)

    @property
    def span(self) -> IntegerSpan:
        """The Z-span of the basis vectors, built on first use and kept."""
        if self._span is None:
            object.__setattr__(self, "_span", IntegerSpan(
                [vec.multiplicities for vec in self.vectors]))
        return self._span

    def class_representatives(self) -> tuple:
        return tuple(cls[0] for cls in self.fusion.element_classes())

    def to_json(self) -> dict:
        S = self.fusion.S
        e = character_table(S).conductor
        at = [S.class_of()[r] for r in self.class_representatives()]
        return {
            "classes": [
                {"size": len(cls), "representative": S.describe_element(cls[0])}
                for cls in self.fusion.element_classes()
            ],
            "basis": [
                {
                    "name": name,
                    "degree": vec.degree(),
                    "multiplicities": list(vec.multiplicities),
                    "values": [value_json(e, v)
                               for v in vec.coords[at].tolist()],
                }
                for name, vec in zip(self.names, self.vectors)
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
    sols = hilbert_basis(rows, ncols=len(table), cap=cap)
    vectors = sorted(
        (RepVector(F.S, v) for v in sols),
        key=lambda vec: (vec.degree(), vec.multiplicities),
    )
    nclasses = len(F.element_classes())
    if len(vectors) != nclasses:
        raise FusionRepError(
            f"{len(vectors)} irreducible invariants for {nclasses} classes; "
            "the basis count must match the class count"
        )
    trivial = tuple(int(i == 0) for i in range(len(table)))
    names = []
    k = 0
    for vec in vectors:
        if vec.multiplicities == trivial:
            names.append("1")
        else:
            k += 1
            names.append(f"X{k}")
    if "1" not in names:
        raise FusionRepError("the trivial character is missing from the basis")
    basis = InvariantBasis(F, vectors, names, rows)
    cls = [F.S.class_of()[r] for r in basis.class_representatives()]
    if table.rank(np.stack([vec.coords[cls] for vec in vectors])) != nclasses:
        raise FusionRepError("basis characters do not separate the classes")
    return basis


# --- decomposition and covering -------------------------------------------------


def _as_multiplicities(v, B: InvariantBasis) -> tuple:
    n = len(character_table(B.fusion.S))
    if isinstance(v, RepVector):
        if v.group is not B.fusion.S:
            raise GroupMismatch("vector lives on a different group")
        return v.multiplicities
    mults = tuple(int(x) for x in v)
    if len(mults) != n:
        raise InputError("one multiplicity per irreducible required")
    return mults


def decompose(v, B: InvariantBasis) -> tuple:
    """Integer coordinates of an invariant vector over the basis.

    Accepts a RepVector or a raw integer vector (virtual elements, possibly
    negative, are allowed).  Raises NotInvariant when the vector fails the
    invariance conditions and NotInSpan when it is not an integer
    combination of the basis.
    """
    mults = _as_multiplicities(v, B)
    if int_matmul(B.invariance_rows, mults).any():
        raise NotInvariant("character is not constant on the fusion classes")
    return B.span.solve(mults)
