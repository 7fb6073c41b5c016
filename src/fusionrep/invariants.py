"""Fusion-invariant characters.

A character of S is F-invariant when it is constant on every F-class of
elements.  Over the canonical irreducible order this is a system of integer
linear conditions on multiplicity vectors; the non-negative solutions form a
monoid whose minimal generators are the irreducible F-invariant characters.
This module builds the condition matrix, computes the minimal generators by
Pottier-style completion, and decomposes invariant (possibly virtual)
vectors over them.
"""

from __future__ import annotations

from collections import deque
from math import gcd

import numpy as np

from .chartable import ClassFunction, character_table
from .cyclotomic import Cyclotomic
from .errors import (
    FusionRepError,
    GroupMismatch,
    HilbertCapExceeded,
    InputError,
    NotInvariant,
)
from .fusion import FusionSystem
from .intlinalg import integer_solution, kernel_basis
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


def _pos_neg(v):
    pos = tuple(x if x > 0 else 0 for x in v)
    neg = tuple(-x if x < 0 else 0 for x in v)
    return pos, neg


def _dominates(ap, an, bp, bn) -> bool:
    # a "covers" b: b+ <= a+ and b- <= a- componentwise
    return all(x <= y for x, y in zip(bp, ap)) and all(x <= y for x, y in zip(bn, an))


def hilbert_basis(rows, ncols: int = None, cap: int = DEFAULT_HILBERT_CAP) -> list:
    """Minimal nonzero elements of {x in Z^n, x >= 0 : rows * x = 0}.

    Pottier completion: seed with a kernel-lattice basis and its negatives,
    close under pairwise sums reduced to normal form (subtracting any member
    whose positive and negative parts are componentwise below), then keep
    the componentwise-minimal non-negative members.  `cap` bounds both the
    completion set and the pending-pair queue.  Output sorted by
    (coordinate sum, entries).
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
    if n == 0:
        return []
    if not rows:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]

    lattice = kernel_basis(rows, n)
    if not lattice:
        return []

    gens = []  # (vector, positive part, negative part)
    for b in lattice:
        v = tuple(b)
        for w in (v, tuple(-x for x in v)):
            gens.append((w, *_pos_neg(w)))

    def normal_form(v):
        while any(v):
            vp, vn = _pos_neg(v)
            hit = False
            for g, gp, gn in gens:
                if _dominates(vp, vn, gp, gn):
                    v = tuple(x - y for x, y in zip(v, g))
                    hit = True
                    break
            if not hit:
                break
        return v

    pairs = deque(
        (i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))
    )
    while pairs:
        i, j = pairs.popleft()
        s = tuple(x + y for x, y in zip(gens[i][0], gens[j][0]))
        s = normal_form(s)
        if not any(s):
            continue
        k = len(gens)
        gens.append((s, *_pos_neg(s)))
        if k + 1 > cap or len(pairs) + k > cap:
            raise HilbertCapExceeded(
                f"completion exceeded {cap} vectors; raise the cap to continue"
            )
        pairs.extend((i2, k) for i2 in range(k))

    nonneg = sorted(
        {g for g, gp, gn in gens if not any(gn)},
        key=lambda v: (sum(v), v),
    )
    out = []
    for v in nonneg:
        if not any(
            all(x <= y for x, y in zip(u, v)) for u in out
        ):
            out.append(v)
    return out


# --- invariant vectors and the canonical basis ---------------------------------


class RepVector:
    """A non-negative integer combination of the irreducibles of a group."""

    __slots__ = ("group", "multiplicities", "_coords", "_char")

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
        object.__setattr__(self, "_char", None)

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

    @property
    def character(self) -> ClassFunction:
        if self._char is None:
            e = character_table(self.group).conductor
            object.__setattr__(self, "_char", ClassFunction(
                self.group, [Cyclotomic(e, v) for v in self.coords.tolist()]))
        return self._char

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

    __slots__ = ("fusion", "vectors", "names", "invariance_rows")

    def __init__(self, fusion: FusionSystem, vectors, names, invariance_rows):
        object.__setattr__(self, "fusion", fusion)
        object.__setattr__(self, "vectors", tuple(vectors))
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "invariance_rows", tuple(map(tuple, invariance_rows)))

    def __setattr__(self, *a):
        raise AttributeError("InvariantBasis is immutable")

    def __len__(self):
        return len(self.vectors)

    def class_representatives(self) -> tuple:
        return tuple(cls[0] for cls in self.fusion.element_classes())

    def to_json(self) -> dict:
        reps = self.class_representatives()
        S = self.fusion.S
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
                    "values": [vec.character.value_at_element(r).to_json() for r in reps],
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


# --- decomposition and stability ------------------------------------------------


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
    for row in B.invariance_rows:
        if sum(r * m for r, m in zip(row, mults)):
            raise NotInvariant("character is not constant on the fusion classes")
    return integer_solution([vec.multiplicities for vec in B.vectors], mults)


def is_stable(chi: ClassFunction, F: FusionSystem) -> bool:
    """True iff chi takes a single value on every F-class.

    Equivalently chi agrees with its pullback along every morphism of F;
    constancy on classes is the element-level form of that condition.
    """
    if chi.group is not F.S:
        raise GroupMismatch("class function lives on a different group")
    class_of = F.element_class_of()
    seen = {}
    for k, cls in enumerate(chi.group.conjugacy_classes()):
        f = class_of[cls[0]]
        if f in seen:
            if chi.values[k] != seen[f]:
                return False
        else:
            seen[f] = chi.values[k]
    return True


class CoveringReport:
    """Which irreducibles of S appear in some basis element."""

    __slots__ = ("ok", "uncovered", "basis_size")

    def __init__(self, ok: bool, uncovered: tuple, basis_size: int):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "uncovered", uncovered)
        object.__setattr__(self, "basis_size", basis_size)

    def __setattr__(self, *a):
        raise AttributeError("CoveringReport is immutable")

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "uncovered": list(self.uncovered),
            "basis_size": self.basis_size,
        }


def covering_check(F: FusionSystem, basis: InvariantBasis = None) -> CoveringReport:
    """Verify every irreducible of S occurs in at least one basis element."""
    B = basis if basis is not None else irreducible_invariants(F)
    n = len(character_table(F.S))
    covered = [False] * n
    for vec in B.vectors:
        for i, m in enumerate(vec.multiplicities):
            if m:
                covered[i] = True
    uncovered = tuple(i for i in range(n) if not covered[i])
    return CoveringReport(not uncovered, uncovered, len(B.vectors))
