"""Presentations of the ring of F-invariant characters.

The invariant basis {1, X1, .., Xm} is a Z-basis of the ring, so products of
basis elements rewrite linearly and the quadratic rewriting relations present
the ring over Z.  Shifting each generator by its degree turns the
presentation into one whose relations lie in the augmentation ideal, which
is the completed form.  R(S) and R(F) are both a Ring: a Z-basis whose
element 0 is 1, the basis degrees and an integer structure tensor.  A
presentation is that tensor with generator names, and both relation sets
are read off it.  Ideals are integer lattices in the basis, held as their
canonical HNF rows, and every I-adic chain comes from lattice_chain.
"""

from __future__ import annotations

from itertools import combinations

from .chartable import character_table
from .errors import (ExponentCapExceeded, FusionRepError, GroupMismatch,
                     InputError)
from .fusion import FusionSystem
from .intlinalg import hnf, int_matmul, lattice_contains, smith_diagonal
from .invariants import (InvariantBasis, irreducible_invariants,
                         product_coefficients)
from .permgroup import FiniteGroup

DEFAULT_EXPONENT_CAP = 64


# --- rings and presentations ---------------------------------------------------


class Ring:
    """A commutative ring on a Z-basis e_0 = 1, e_1, .., e_{n-1}.

    degrees[i] is the augmentation of e_i, and the integer structure tensor
    gives e_i e_j = sum_k tensor[i, j, k] e_k.  The constructor checks that
    e_0 is the unit, that the tensor is symmetric and non-negative, and that
    the augmentation is multiplicative.  The powers of an ideal are built
    once per ring and generating set, and kept.
    """

    def __init__(self, degrees, tensor):
        d = tuple(map(int, degrees))
        T = tuple(tuple(tuple(map(int, v)) for v in row) for row in tensor)
        n = len(d)
        if len(T) != n or any(len(row) != n or any(len(v) != n for v in row)
                              for row in T):
            raise InputError("the structure tensor must be rank x rank x rank")
        if d[0] != 1 or T[0] != tuple(tuple(int(i == j) for j in range(n))
                                      for i in range(n)):
            raise FusionRepError("basis element 0 is not the unit")
        if any(T[i][j] != T[j][i] for i in range(n) for j in range(i)):
            raise FusionRepError("structure constants are not symmetric")
        if any(x < 0 for row in T for v in row for x in v):
            raise FusionRepError("negative structure constant")
        if any(sum(map(int.__mul__, v, d)) != a * b
               for a, row in zip(d, T) for b, v in zip(d, row)):
            raise FusionRepError("structure constants break the degrees")
        self.degrees = d
        self.tensor = T
        self.rank = n
        self._chains = {}  # generators -> (lattice_chain, powers drawn)
        # (j, k, tensor[i][j][k]) for the nonzero entries, for each i
        self._entries = [[(j, k, x) for j, v in enumerate(Ti)
                          for k, x in enumerate(v) if x] for Ti in T]

    def times(self, u) -> list:
        """The matrix of multiplication by u, acting on row vectors: the
        nonzero entries of tensor[i] times u_i, for each u_i != 0."""
        M = [[0] * self.rank for _ in range(self.rank)]
        for c, entries in zip(map(int, u), self._entries):
            if c:
                for j, k, x in entries:
                    M[j][k] += c * x
        return M

    def ideal_power(self, generators, k: int) -> list:
        """I^k for the ideal I generated by the given elements, as
        canonical HNF rows."""
        gens = tuple(tuple(int(c) for c in g) for g in generators)
        if gens not in self._chains:
            self._chains[gens] = (
                lattice_chain([self.times(g) for g in gens], self.rank), [])
        chain, powers = self._chains[gens]
        while len(powers) < k:
            powers.append(next(chain))
        return powers[k - 1]

    def augmentation_power(self, k: int) -> list:
        """I^k for the augmentation ideal I, generated by {e_i - d_i}."""
        n = self.rank
        return self.ideal_power(
            [[-d if j == 0 else int(j == i) for j in range(n)]
             for i, d in enumerate(self.degrees) if i], k)


class RingPresentation:
    """Generators, their degrees and R(F) on the Z-basis (1, X1..Xm).

    X_i X_j = sum_k ring.tensor[i, j, k] X_k with X_0 = 1, and the
    relations are read off that tensor: squares first, then mixed products
    in lexicographic pair order.
    """

    __slots__ = ("names", "degrees", "ring", "basis")

    def __init__(self, names, ring: Ring, basis=None):
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "degrees", ring.degrees[1:])
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("RingPresentation is immutable")

    @property
    def relations(self) -> list:
        T = self.ring.tensor
        neg = [[[-x for x in v] for v in row[1:]] for row in T[1:]]
        return _relations(self.names, [[v[1:] for v in row] for row in neg],
                          [[v[0] for v in row] for row in neg])

    def __str__(self):
        return _ring_text("Z[{}]/( {} )", self.names, self.relations)

    def to_json(self) -> dict:
        T = self.ring.tensor
        return {
            "generators": [
                {"name": n, "degree": d} for n, d in zip(self.names, self.degrees)
            ],
            "constants": [[v[0] for v in row[1:]] for row in T[1:]],
            "coefficients": [[list(v[1:]) for v in row[1:]] for row in T[1:]],
            "relations": self.relations,
            "ring": str(self),
        }


class CompletedPresentation:
    """The presentation rewritten in the degree-shifted variables."""

    __slots__ = ("names", "shifts", "relations")

    def __init__(self, names, shifts, relations):
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "shifts", tuple(int(s) for s in shifts))
        object.__setattr__(self, "relations", tuple(relations))

    def __setattr__(self, *a):
        raise AttributeError("CompletedPresentation is immutable")

    def __str__(self):
        return _ring_text("Z[[{}]]/( {} )", self.names, self.relations)

    def to_json(self) -> dict:
        return {
            "variables": [
                {"name": n, "shift": s} for n, s in zip(self.names, self.shifts)
            ],
            "relations": list(self.relations),
            "ring": str(self),
        }


def _relations(names, linear, constant=None) -> list:
    """The relations X_i X_j + sum_k linear[i, j, k] X_k + constant[i, j],
    as text: squares first, then the pairs i < j.  Terms run in descending
    graded-lex order: the quadratic monomial, X_1..X_m, the constant."""
    m = len(names)
    out = []
    for i, j in [(i, i) for i in range(m)] + list(combinations(range(m), 2)):
        text = f"{names[i]}^2" if i == j else names[i] + names[j]
        terms = list(zip(linear[i][j], names))
        if constant is not None:
            terms.append((constant[i][j], ""))
        for c, name in terms:
            if c:
                body = name if abs(c) == 1 and name else f"{abs(c)}{name}"
                text += (" + " if c > 0 else " - ") + body
        out.append(text)
    return out


def _ring_text(form: str, names, relations) -> str:
    if not names:
        return "Z"
    return form.format(",".join(names), ", ".join(relations))


def apply_names(auto, mapping) -> tuple:
    """Relabel the automatic names of one kind (X*, v* or W*) by the
    mapping.  The results must be non-empty and pairwise distinct, and a
    name the mapping gives must be an identifier."""
    auto = tuple(auto)
    mapping = mapping or {}
    names = tuple(mapping.get(n, n) for n in auto)
    for i, name in enumerate(names):
        if not name:
            raise InputError(f"name mapping gives {auto[i]} an empty name")
        if auto[i] in mapping and not name.isidentifier():
            raise InputError(f"name mapping gives {auto[i]} the name "
                             f"{name!r}, which is not an identifier")
        if name in names[:i]:
            raise InputError(f"name mapping gives {auto[names.index(name)]} "
                             f"and {auto[i]} the same name {name!r}")
    return names


def structure_constants(B: InvariantBasis, names: dict = None) -> RingPresentation:
    """Multiply the basis elements pairwise and rewrite linearly.

    Every product of two members is certified over Irr(S) and rewritten
    over the invariant basis exactly (product_coefficients); a failure
    means an upstream bug, not bad input.  B lists the unit first, then
    the generators.
    """
    return RingPresentation(apply_names(B.names[1:], names),
                            Ring(B.degrees, product_coefficients(B.coords, B)),
                            B)


def presentation(B: InvariantBasis, names: dict = None) -> RingPresentation:
    """Alias of structure_constants, kept for the callers that use this
    name (perfbench/trace_job.py)."""
    return structure_constants(B, names)


def completed_presentation(P: RingPresentation, names: dict = None) -> CompletedPresentation:
    """Substitute X_i = v_i + d_i and expand.  The relation for {i, j}
    becomes v_i v_j + sum_k (d_j [k = i] + d_i [k = j] - T[i, j, k]) v_k;
    its constant d_i d_j - sum_k T[i, j, k] d_k - T[i, j, 0] is zero by the
    degree identity that Ring checks."""
    new_names = apply_names([f"v{i + 1}" for i in range(len(P.names))], names)
    d, T = P.degrees, P.ring.tensor
    linear = [[[d[j] * (k == i) + d[i] * (k == j) - T[i + 1][j + 1][k + 1]
                for k in range(len(d))] for j in range(len(d))]
              for i in range(len(d))]
    return CompletedPresentation(new_names, P.degrees,
                                 _relations(new_names, linear))


# --- ideal lattices -------------------------------------------------------------


def character_ring(G: FiniteGroup) -> Ring:
    """R(G) on the basis Irr(G), built once per character table."""
    table = character_table(G)
    if table.ring is None:
        table.ring = Ring(table.degrees(), table.structure_tensor())
    return table.ring


def lattice_chain(maps, n: int):
    """Yield L_1, L_2, .. for L_0 = Z^n and L_{k+1} = HNF{v M}, M in maps and
    v in the HNF basis of L_k, each as canonical HNF rows.

    maps are n x n integer matrices acting on row vectors.  When they
    multiply by the generators of an ideal, L_k is the k-th power of the
    ideal.
    """
    current = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        current = hnf([v for M in maps for v in int_matmul(current, M)])
        yield current


def quotient_by_ideal_power(P: RingPresentation, k: int) -> dict:
    """The finite-rank data of R/I^k: free rank and invariant factors."""
    if k < 1:
        raise InputError("k must be at least 1")
    diag = smith_diagonal(P.ring.augmentation_power(k))
    nonzero = [d for d in diag if d]
    return {
        "free_rank": P.ring.rank - len(nonzero),
        "torsion": [d for d in nonzero if d > 1],
    }


# --- comparison of the two adic topologies --------------------------------------


def adic_equivalence_exponent(F: FusionSystem, k: int = 1,
                              cap: int = DEFAULT_EXPONENT_CAP,
                              basis: InvariantBasis = None) -> int:
    """Least m with I(S)^m inside the ideal generated by the restricted
    invariant augmentation ideal, raised to the k-th power.

    Both ideals live in the character ring of S, which keeps their powers,
    so calls for k = 1, 2, .. on one system build each power once.  The
    reverse containment (the restricted power sits inside I(S)^k) is
    checked as well.  Failure to find m below the cap is reported loudly:
    it would contradict the equivalence of the two topologies.  Pass the
    invariant basis of F when it is already built.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    B = basis if basis is not None else irreducible_invariants(F)
    if B.fusion is not F:
        raise GroupMismatch("invariant basis belongs to a different system")
    ring = character_ring(F.S)
    # X - deg(X) over Irr(S) for every nontrivial member X
    gens = [[m - d * (j == 0) for j, m in enumerate(row)]
            for row, d in zip(B.mults[1:], B.degrees[1:])]
    Jk = ring.ideal_power(gens, k)
    if not lattice_contains(ring.augmentation_power(k), Jk):
        raise FusionRepError("restricted ideal power escapes I(S)^k")
    for m in range(1, cap + 1):
        ISm = ring.augmentation_power(m)
        if lattice_contains(Jk, ISm):
            return m
        if not lattice_contains(ISm, ring.augmentation_power(m + 1)):
            raise FusionRepError("ideal powers are not decreasing")
    raise ExponentCapExceeded(
        f"no exponent up to {cap} bounds I(S)-adic by the restricted ideal"
    )
