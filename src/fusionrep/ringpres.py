"""Presentations of the ring of F-invariant characters.

The invariant basis {1, X1, .., Xm} is a Z-basis of the ring, so products of
basis elements rewrite linearly and the quadratic rewriting relations present
the ring over Z.  Shifting each generator by its degree turns the
presentation into one whose relations lie in the augmentation ideal, which
is the completed form.  R(S) and R(F) are both a Ring: a Z-basis whose
element 0 is 1, the basis degrees and an integer structure tensor.  Ideals
are integer lattices in that basis, and every I-adic chain comes from
lattice_chain.
"""

from __future__ import annotations

import numpy as np

from .chartable import character_table
from .errors import (
    AmbientMismatch,
    DecompositionNotIntegral,
    ExponentCapExceeded,
    FusionRepError,
    GroupMismatch,
    InputError,
    NonzeroConstantTerm,
    NotInSpan,
    NotInvariant,
)
from .fusion import FusionSystem
from .intlinalg import (_exact_array, hnf, int_matmul, lattice_contains,
                        smith_diagonal)
from .invariants import InvariantBasis, decompose, irreducible_invariants
from .permgroup import FiniteGroup
from .polynomials import IntPolynomial

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
        d = np.array(degrees, dtype=np.int64)
        T = np.asarray(tensor, dtype=np.int64)
        n = len(d)
        if T.shape != (n, n, n):
            raise InputError("the structure tensor must be rank x rank x rank")
        if d[0] != 1 or not np.array_equal(T[0], np.eye(n, dtype=np.int64)):
            raise FusionRepError("basis element 0 is not the unit")
        if not np.array_equal(T, T.transpose(1, 0, 2)):
            raise FusionRepError("structure constants are not symmetric")
        if (T < 0).any():
            raise FusionRepError("negative structure constant")
        if not np.array_equal(int_matmul(T, d), int_matmul(d[:, None], d[None])):
            raise FusionRepError("structure constants break the degrees")
        self.degrees = tuple(d.tolist())
        self.tensor = T
        self.rank = n
        self._chains = {}  # generators -> (lattice_chain, powers drawn)

    def times(self, u) -> np.ndarray:
        """The matrix of multiplication by u, acting on row vectors; the
        work is one n x n slice per nonzero coordinate of u."""
        n = self.rank
        nz = [i for i, c in enumerate(u) if c]
        return int_matmul([[u[i] for i in nz]],
                          self.tensor[nz].reshape(len(nz), n * n)).reshape(n, n)

    def ideal_power(self, generators, k: int) -> "IdealLattice":
        """I^k for the ideal I generated by the given elements."""
        gens = tuple(tuple(int(c) for c in g) for g in generators)
        if gens not in self._chains:
            self._chains[gens] = (
                lattice_chain([self.times(g) for g in gens], self.rank), [])
        chain, powers = self._chains[gens]
        while len(powers) < k:
            powers.append(IdealLattice(self, next(chain)))
        return powers[k - 1]

    def augmentation_power(self, k: int) -> "IdealLattice":
        """I^k for the augmentation ideal I, generated by {e_i - d_i}."""
        n = self.rank
        return self.ideal_power(
            [[-d if j == 0 else int(j == i) for j in range(n)]
             for i, d in enumerate(self.degrees) if i], k)


class RingPresentation:
    """Generators, structure constants, and quadratic relations.

    X_i X_j = constants[i][j] + sum_k coefficients[i][j][k] X_k, with the
    relation polynomials listed squares first, then mixed products in
    lexicographic pair order.  ring is R(F) on the Z-basis (1, X1..Xm).
    """

    __slots__ = ("names", "degrees", "constants", "coefficients", "relations",
                 "basis", "ring")

    def __init__(self, names, degrees, constants, coefficients, relations, basis=None):
        names = tuple(names)
        degrees = tuple(int(d) for d in degrees)
        m = len(names)
        constants = tuple(tuple(int(x) for x in row) for row in constants)
        coefficients = tuple(
            tuple(tuple(int(x) for x in cell) for cell in row) for row in coefficients
        )
        T = np.zeros((m + 1,) * 3, dtype=np.int64)
        T[0] = T[:, 0] = np.eye(m + 1, dtype=np.int64)
        T[1:, 1:, 0] = np.array(constants, dtype=np.int64).reshape(m, m)
        T[1:, 1:, 1:] = np.array(coefficients, dtype=np.int64).reshape(m, m, m)
        object.__setattr__(self, "ring", Ring((1,) + degrees, T))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "relations", tuple(relations))
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("RingPresentation is immutable")

    def __str__(self):
        if not self.names:
            return "Z"
        gens = ",".join(self.names)
        rels = ", ".join(str(r) for r in self.relations)
        return f"Z[{gens}]/( {rels} )"

    def to_json(self) -> dict:
        return {
            "generators": [
                {"name": n, "degree": d} for n, d in zip(self.names, self.degrees)
            ],
            "constants": [list(row) for row in self.constants],
            "coefficients": [[list(c) for c in row] for row in self.coefficients],
            "relations": [str(r) for r in self.relations],
            "ring": str(self),
        }


class CompletedPresentation:
    """The presentation rewritten in the degree-shifted variables."""

    __slots__ = ("names", "shifts", "relations")

    def __init__(self, names, shifts, relations):
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "shifts", tuple(int(s) for s in shifts))
        rels = tuple(relations)
        for r in rels:
            if r.constant_term():
                raise NonzeroConstantTerm(f"completed relation {r} has a constant term")
        object.__setattr__(self, "relations", rels)

    def __setattr__(self, *a):
        raise AttributeError("CompletedPresentation is immutable")

    def __str__(self):
        if not self.names:
            return "Z"
        gens = ",".join(self.names)
        rels = ", ".join(str(r) for r in self.relations)
        return f"Z[[{gens}]]/( {rels} )"

    def to_json(self) -> dict:
        return {
            "variables": [
                {"name": n, "shift": s} for n, s in zip(self.names, self.shifts)
            ],
            "relations": [str(r) for r in self.relations],
            "ring": str(self),
        }


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
    """Multiply the nontrivial basis elements pairwise and rewrite linearly.

    The product multiplicities over the irreducibles come from the
    certified structure tensor of Irr(S); the rewriting over the invariant
    basis is verified exactly, and a failure means an upstream bug, not bad
    input.
    """
    table = character_table(B.fusion.S)
    positions = [k for k, n in enumerate(B.names) if n != "1"]
    trivial_pos = B.names.index("1")
    gen_names = apply_names([B.names[k] for k in positions], names)
    degrees = [B.vectors[k].degree() for k in positions]
    m = len(positions)
    constants = [[0] * m for _ in range(m)]
    coefficients = [[[0] * m for _ in range(m)] for _ in range(m)]
    mults = np.array([B.vectors[k].multiplicities for k in positions],
                     dtype=np.int64).reshape(m, len(table))
    # products[a, b] = multiplicities of X_a X_b over Irr(S)
    products = np.einsum("bj,ajk->abk", mults,
                         np.tensordot(mults, table.structure_tensor(), 1))
    for i in range(m):
        for j in range(i, m):
            try:
                coords = decompose(products[i, j].tolist(), B)
            except (NotInvariant, NotInSpan) as ex:
                raise DecompositionNotIntegral(
                    f"{gen_names[i]}*{gen_names[j]}: {ex}"
                ) from ex
            if any(c < 0 for c in coords):
                raise DecompositionNotIntegral(
                    f"{gen_names[i]}*{gen_names[j]} has a negative coordinate"
                )
            constants[i][j] = constants[j][i] = coords[trivial_pos]
            cs = [coords[k] for k in positions]
            coefficients[i][j] = coefficients[j][i] = cs
    variables = tuple(gen_names)
    relations = []
    pairs = [(i, i) for i in range(m)] + [
        (i, j) for i in range(m) for j in range(i + 1, m)
    ]
    for i, j in pairs:
        rel = IntPolynomial.variable(variables[i], variables) * IntPolynomial.variable(
            variables[j], variables
        )
        for k in range(m):
            if coefficients[i][j][k]:
                rel = rel - coefficients[i][j][k] * IntPolynomial.variable(
                    variables[k], variables
                )
        rel = rel - constants[i][j]
        relations.append(rel)
    return RingPresentation(variables, degrees, constants, coefficients, relations, B)


def presentation(B: InvariantBasis, names: dict = None) -> RingPresentation:
    """Alias of structure_constants, kept for the callers that use this
    name (perfbench/trace_job.py)."""
    return structure_constants(B, names)


def completed_presentation(P: RingPresentation, names: dict = None) -> CompletedPresentation:
    """Substitute X_i = v_i + d_i and expand; constant terms must vanish."""
    auto = [f"v{i + 1}" for i in range(len(P.names))]
    new_names = apply_names(auto, names)
    mapping = {
        old: IntPolynomial.variable(new, new_names) + int(d)
        for old, new, d in zip(P.names, new_names, P.degrees)
    }
    shifted = [rel.substitute(mapping) for rel in P.relations]
    return CompletedPresentation(new_names, P.degrees, shifted)


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
    ideal.  HNF entries have no bound, so each product runs through
    int_matmul: on BLAS while its certificate holds, else on Python ints.
    """
    M = _exact_array(maps).reshape(len(maps), n, n)
    current = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        V = _exact_array(current).reshape(len(current), n)
        current = hnf(int_matmul(V, M).reshape(len(M) * len(current), n)
                      .tolist())
        yield current


class IdealLattice:
    """A sublattice of a ring, held in canonical HNF."""

    __slots__ = ("ring", "basis")

    def __init__(self, ring: Ring, rows):
        for r in rows:
            if len(r) != ring.rank:
                raise AmbientMismatch("vector length does not match the ambient rank")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "basis", tuple(map(tuple, hnf([list(r) for r in rows]))))

    def __setattr__(self, *a):
        raise AttributeError("IdealLattice is immutable")

    def __eq__(self, other):
        if not isinstance(other, IdealLattice):
            return NotImplemented
        return self.ring is other.ring and self.basis == other.basis

    def __hash__(self):
        return hash((id(self.ring), self.basis))


def _same_ambient(L1, L2):
    if L1.ring is not L2.ring:
        raise AmbientMismatch("ideal lattices live in different rings")


def contains(L1: IdealLattice, L2: IdealLattice) -> bool:
    """Whether L2 is a sublattice of L1."""
    _same_ambient(L1, L2)
    return lattice_contains([list(r) for r in L1.basis], L2.basis)


def quotient_by_ideal_power(P: RingPresentation, k: int) -> dict:
    """The finite-rank data of R/I^k: free rank and invariant factors."""
    if k < 1:
        raise InputError("k must be at least 1")
    diag = smith_diagonal(P.ring.augmentation_power(k).basis)
    nonzero = [abs(d) for d in diag if d]
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
    gens = []
    for name, vec in zip(B.names, B.vectors):
        if name == "1":
            continue
        row = list(vec.multiplicities)
        row[0] -= vec.degree()
        gens.append(row)
    Jk = ring.ideal_power(gens, k)
    if not contains(ring.augmentation_power(k), Jk):
        raise FusionRepError("restricted ideal power escapes I(S)^k")
    for m in range(1, cap + 1):
        ISm = ring.augmentation_power(m)
        if contains(Jk, ISm):
            return m
        if not contains(ISm, ring.augmentation_power(m + 1)):
            raise FusionRepError("ideal powers are not decreasing")
    raise ExponentCapExceeded(
        f"no exponent up to {cap} bounds I(S)-adic by the restricted ideal"
    )
