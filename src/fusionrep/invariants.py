"""Fusion-invariant characters.

A character of S is F-invariant when it is constant on every F-class of
elements.  Over the canonical irreducible order the F-invariant virtual
characters form the lattice R(F), read off the dual of the character
table; the non-negative vectors of R(F) form a monoid whose minimal
generators are the irreducible F-invariant characters.  This module builds
the lattice, computes the minimal generators, and decomposes invariant
(possibly virtual) vectors over them, products with the members of a basis
included.  A basis of characters is one integer matrix: its rows are the
members, written as multiplicities over Irr.  A basis certifies its
members once, on their values; a decomposition is one exact solve over
the members, so a row that solves is invariant.

The minimal generators form the Hilbert basis of the monoid.  The columns
are merged by the ray of their column in the lattice basis, which leaves
at most seven of the 55 columns on the order-343 fixtures, and a Pottier
completion runs on the merged columns, in rounds that reduce every
pending pair sum, with support bitmasks ruling out most comparisons
before an entry is read; its non-negative minimal members lift back
exactly.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import add, sub

from .chartable import character_table
from .cyclotomic import value_json
from .errors import (
    DecompositionNotIntegral,
    FusionRepError,
    HilbertCapExceeded,
    InputError,
    NotInSpan,
)
from .fusion import FusionSystem
from .intlinalg import IntegerSpan, divide_lattice, hnf

DEFAULT_HILBERT_CAP = 100_000


# --- the lattice R(F) ---------------------------------------------------------


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


def invariant_lattice(F: FusionSystem, columns=None) -> list:
    """The canonical HNF rows of R(F), the F-invariant virtual characters
    of S, over the irreducibles of S with the given indices (all of them
    when columns is None).

    The sum of the dual rows (c, a) over the S-classes c of an F-class C
    is |S| times the rational coordinate of the multiplicities of zeta^a
    1_C, a combination of F-invariant Galois conjugates; and |S| <f, chi_k>
    for f in R(F) combines these sums by the coordinates of the values of
    f.  So the sums span L with |S| R(F) in L in R(F), and R(F) = {x : |S|
    x in L}.  Projecting onto the a-representations of a central extension
    keeps both inclusions.
    """
    table = character_table(F.S)
    sums = table.dual_sums(v for _, v in sorted(_class_buckets(F).items()))
    if columns is not None:
        sums = [[row[j] for j in columns] for row in sums]
    return divide_lattice(hnf(sums), F.S.order)


# --- Hilbert basis of a lattice monoid ----------------------------------------


def _support(v) -> int:
    """The signs of v as one bitmask: bit j for v_j > 0, bit len(v) + j
    for v_j < 0."""
    mask, n = 0, len(v)
    for j, x in enumerate(v):
        if x:
            mask |= 1 << (j if x > 0 else n + j)
    return mask


def _below(u, su: int, v, sv: int) -> bool:
    """Whether u <= v, for their supports su and sv (_support): the masks
    rule most pairs out before an entry is compared."""
    return not su & ~sv and all(x <= y if x > 0 else y <= x
                                for x, y in zip(u, v) if x)


def _normal_form(v: tuple, members: list, supports: list) -> tuple:
    """v less the first member, in insertion order, lying below it, until
    none does."""
    while True:
        outside = ~_support(v)
        for u, su in zip(members, supports):  # _below, inlined: the hot loop
            if not su & outside and all(x <= y if x > 0 else y <= x
                                        for x, y in zip(u, v) if x):
                v = tuple(map(sub, v, u))
                break
        else:
            return v


def _minimal(rows: list, supports: list) -> list:
    """Whether each of the rows, pairwise distinct, has no other row
    below it."""
    return [not any(_below(u, su, v, sv) for u, su in zip(rows, supports)
                    if u is not v)
            for v, sv in zip(rows, supports)]


def _column_rays(lattice: list) -> tuple:
    """Group the columns by the ray of their column in the lattice basis.

    Returns (reps, lift): reps lists one representative column per ray, in
    order of first occurrence, and lift lists (j, k, g, g_k) for every
    column j whose lattice column is nonzero: its ray is the k-th, and g
    and g_k are the contents of its column and of the representative's.
    Zero lattice columns are forced to zero and appear in neither.
    """
    reps, lift, ray_of = [], [], {}
    for j, col in enumerate(zip(*lattice)):
        g = 0
        for x in col:
            g = gcd(g, x)
        if not g:
            continue
        ray = tuple(x // g for x in col)
        if ray not in ray_of:
            ray_of[ray] = len(reps)
            reps.append((j, g))
        k = ray_of[ray]
        lift.append((j, k, g, reps[k][1]))
    return [j for j, _ in reps], lift


def hilbert_basis(lattice, cap: int = DEFAULT_HILBERT_CAP) -> list:
    """Minimal nonzero elements of {x in L, x >= 0} for the lattice L in
    Z^n with the basis rows lattice; none when the basis is empty.

    The columns are grouped by the ray of their column in the basis, up to
    positive scaling; columns with a zero column are forced to zero and
    dropped.  On a lattice vector the columns of one group are positive
    multiples of one another, so projecting onto one representative column
    per group is injective and keeps signs and dominance: the completion on
    the projection is the completion on the full columns, and each result
    lifts back exactly through x_j = x_k * g_j / g_k for the contents g of
    the columns.

    The completion (Pottier, ISSAC 1996) seeds with the projected lattice
    basis and its negatives and closes under pairwise sums reduced to
    normal form: subtract the first member, in insertion order, whose
    positive and negative parts lie componentwise below (written u <= v).
    A pair whose members have no coordinate of opposite sign is skipped:
    its sum is already a sum of two members that lie below it.  The sums
    go in rounds.  A round reduces every distinct pending sum against the
    current members and drops zero and repeated rows.  The survivors
    minimal under <= among themselves become members; each other survivor
    has one of them below it and goes back into the next pool, with the
    sums of the new members' pairs.  Sign supports, kept as bitmasks, rule
    out most pairs and comparisons before an entry is read.
    The non-negative members, minimal componentwise, lift to the basis.

    `cap` bounds the members plus the rows of the pool.
    Output sorted by (coordinate sum, entries).
    """
    reps, lift = _column_rays(lattice)
    if not reps:
        return []
    G = [tuple(s * b[c] for c in reps) for b in lattice for s in (1, -1)]
    supports = [_support(v) for v in G]
    half = len(reps)
    carried = []
    new = 0
    while True:
        # clash pairs (i, k), i < k, of each new member k: the positive
        # support of one meets the negative support of the other
        pairs = [(i, k) for k in range(new, len(G)) for i in range(k)
                 if (supports[i] >> half & supports[k]
                     | supports[k] >> half & supports[i])]
        if len(G) + len(carried) + len(pairs) > cap:
            raise HilbertCapExceeded(
                f"completion exceeded {cap} vectors; raise the cap to continue"
            )
        if not carried and not pairs:
            break
        # equal rows have equal normal forms, so each is reduced once
        pool = dict.fromkeys(carried + [tuple(map(add, G[i], G[k]))
                                        for i, k in pairs])
        pool = [v for v in dict.fromkeys(
            _normal_form(v, G, supports) for v in pool) if any(v)]
        pool_supports = [_support(v) for v in pool]
        minimal = _minimal(pool, pool_supports)
        carried = [v for v, m in zip(pool, minimal) if not m]
        new = len(G)
        for v, sv, m in zip(pool, pool_supports, minimal):
            if m:
                G.append(v)
                supports.append(sv)

    # members are pairwise distinct: each new one is in normal form
    nonneg = [v for v in G if min(v) >= 0]
    out = []
    for y, m in zip(nonneg, _minimal(nonneg, list(map(_support, nonneg)))):
        if not m:
            continue
        x = [0] * len(lattice[0])
        for j, k, g, g_rep in lift:
            x[j], r = divmod(y[k] * g, g_rep)
            if r:
                raise FusionRepError(
                    f"Hilbert basis lift gives column {j} a non-integer")
        out.append(tuple(x))
    return sorted(out, key=lambda v: (sum(v), v))


# --- bases of characters -----------------------------------------------------


def canonical_rows(solutions, degrees) -> tuple:
    """Non-negative solutions over Irr as the rows of one integer matrix:
    the trivial character (Irr index 0) first when it is among them, then
    the rest by (degree, row); degrees are those of Irr."""
    unit = tuple(int(j == 0) for j in range(len(degrees)))
    return tuple(sorted(map(tuple, solutions), key=lambda v: (
        v != unit, sum(m * d for m, d in zip(v, degrees)), v)))


class InvariantBasis:
    """Characters of the group fusion.S that are constant on the classes
    of the fusion system, each member checked on its values when the basis
    is made: FusionRepError when one is not.

    Row i of the integer matrix mults, a tuple of row tuples, holds the
    multiplicities of member i over Irr in canonical order; degrees, coords
    and span are read off it.  For R(F) the trivial character comes first,
    named "1", and the rest follow in the order (degree, row), named X1,
    X2, ...
    """

    def __init__(self, fusion: FusionSystem, mults, names):
        table = character_table(fusion.S)
        M = tuple(tuple(map(int, row)) for row in mults)
        vars(self).update(
            fusion=fusion, mults=M, names=tuple(names),
            degrees=tuple(sum(m * d for m, d in zip(row, table.degrees()))
                          for row in M))
        buckets = _class_buckets(fusion).values()
        for name, values in zip(self.names, self.coords):
            if any(values[c] != values[ks[0]] for ks in buckets for c in ks):
                raise FusionRepError(
                    f"basis member {name} is not constant on the classes "
                    "of the fusion system")

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self):
        return len(self.mults)

    @cached_property
    def coords(self) -> tuple:
        """Integer power-basis coordinates of the members, one row of
        values per member and class."""
        return tuple(map(character_table(self.fusion.S).combine, self.mults))

    @cached_property
    def span(self) -> IntegerSpan:
        """The Z-span of the members."""
        return IntegerSpan(self.mults)

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
                    "multiplicities": list(row),
                    "values": [value_json(e, values[c]) for c in at],
                }
                for name, d, row, values in zip(
                    self.names, self.degrees, self.mults, self.coords)
            ],
        }


def irreducible_invariants(F: FusionSystem, cap: int = DEFAULT_HILBERT_CAP) -> InvariantBasis:
    """The minimal F-invariant characters, the Hilbert basis of R(F)
    (invariant_lattice), wrapped as a canonical basis.

    The basis checks that each member is constant on the F-classes; then
    the size must equal the number of F-classes, and the members must
    separate the F-classes: they are F-invariant, so their value matrix at
    class representatives is nonsingular exactly when their rows over Irr
    are rationally independent, which the HNF of the rows reads off.
    """
    table = character_table(F.S)
    mults = canonical_rows(hilbert_basis(invariant_lattice(F), cap=cap),
                           table.degrees())
    names = ["1"] + [f"X{k}" for k in range(1, len(mults))]
    B = InvariantBasis(F, mults, names)
    nclasses = len(F.element_classes())
    if len(mults) != nclasses:
        raise FusionRepError(
            f"{len(mults)} irreducible invariants for {nclasses} classes; "
            "the basis count must match the class count"
        )
    if mults[0] != tuple(int(i == 0) for i in range(len(table))):
        raise FusionRepError("the trivial character is missing from the basis")
    if len(hnf(mults)) != nclasses:
        raise FusionRepError("basis characters do not separate the classes")
    return B


# --- decomposition -----------------------------------------------------------


def decompose(rows, B: InvariantBasis) -> list:
    """Integer coordinates over the basis of every row of the matrix rows,
    each a row of multiplicities over Irr (virtual, entries of any size),
    by one exact solve.  The members are invariant, so a row that solves
    is invariant too.
    Raises NotInSpan, with .row the first failing row, when a row is no
    integer combination of the basis, as no non-invariant row is.
    """
    n = len(character_table(B.fusion.S))
    V = [list(map(int, v)) for v in rows]
    if any(len(v) != n for v in V):
        raise InputError("one multiplicity per irreducible required")
    return B.span.solve(V)


def product_coefficients(coords, B: InvariantBasis) -> list:
    """C[i][j][k], the coefficient of member k of B in f_i * B_j, for the
    class functions f_i of the group B.fusion.S with power-basis
    coordinates coords[i] (one row per class, at the table's conductor).

    One certified product over Irr takes every pair and one decompose
    rewrites them all, so the exact solve is each product's one
    certificate; a failure, or a negative coefficient, is
    DecompositionNotIntegral.
    """
    table = character_table(B.fusion.S)
    products = table.products(coords, B.coords)
    try:
        C = decompose([m for row in products for m in row], B)
    except NotInSpan as ex:
        i, j = divmod(ex.row, len(B))
        raise DecompositionNotIntegral(
            f"the product of f{i} with {B.names[j]}: {ex}") from ex
    for c in (c for row in C for c in row):
        if c < 0:
            raise DecompositionNotIntegral(
                f"coefficient {c} is not a non-negative integer")
    return [C[i * len(B):(i + 1) * len(B)] for i in range(len(products))]
