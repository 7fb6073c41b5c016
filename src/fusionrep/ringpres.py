"""Presentations of the ring of F-invariant characters.

The invariant basis {1, X1, .., Xm} is a Z-basis of the ring, so products of
basis elements rewrite linearly and the quadratic rewriting relations present
the ring over Z.  Shifting each generator by its degree turns the
presentation into one whose relations lie in the augmentation ideal, which
is the completed form.  Ideal powers are handled as integer lattices in the
chosen ambient basis.
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
from .intlinalg import hnf, lattice_contains, snf_with_transforms
from .invariants import InvariantBasis, decompose, irreducible_invariants
from .permgroup import FiniteGroup
from .polynomials import IntPolynomial

DEFAULT_EXPONENT_CAP = 64


# --- presentations -------------------------------------------------------------


class RingPresentation:
    """Generators, structure constants, and quadratic relations.

    X_i X_j = constants[i][j] + sum_k coefficients[i][j][k] X_k, with the
    relation polynomials listed squares first, then mixed products in
    lexicographic pair order.
    """

    __slots__ = ("names", "degrees", "constants", "coefficients", "relations", "basis")

    def __init__(self, names, degrees, constants, coefficients, relations, basis=None):
        names = tuple(names)
        degrees = tuple(int(d) for d in degrees)
        m = len(names)
        constants = tuple(tuple(int(x) for x in row) for row in constants)
        coefficients = tuple(
            tuple(tuple(int(x) for x in cell) for cell in row) for row in coefficients
        )
        for i in range(m):
            for j in range(m):
                if constants[i][j] != constants[j][i] or (
                    coefficients[i][j] != coefficients[j][i]
                ):
                    raise FusionRepError("structure constants are not symmetric")
                if constants[i][j] < 0 or any(c < 0 for c in coefficients[i][j]):
                    raise FusionRepError("negative structure constant")
                total = constants[i][j] + sum(
                    c * d for c, d in zip(coefficients[i][j], degrees)
                )
                if total != degrees[i] * degrees[j]:
                    raise FusionRepError("structure constants break the degrees")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "relations", tuple(relations))
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("RingPresentation is immutable")

    def multiply(self, u, v) -> tuple:
        """Product of two elements written over the Z-basis (1, X1..Xm)."""
        m = len(self.names)
        if len(u) != m + 1 or len(v) != m + 1:
            raise InputError("elements have one coordinate per basis member")
        out = [0] * (m + 1)
        out[0] = u[0] * v[0]
        for k in range(m):
            out[k + 1] = u[0] * v[k + 1] + v[0] * u[k + 1]
        for i in range(m):
            if not u[i + 1]:
                continue
            for j in range(m):
                w = u[i + 1] * v[j + 1]
                if not w:
                    continue
                out[0] += w * self.constants[i][j]
                for k in range(m):
                    out[k + 1] += w * self.coefficients[i][j][k]
        return tuple(out)

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


def _apply_names(auto, mapping):
    if mapping is None:
        return tuple(auto)
    return tuple(mapping.get(n, n) for n in auto)


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
    gen_names = _apply_names([B.names[k] for k in positions], names)
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
    new_names = _apply_names(auto, names)
    mapping = {
        old: IntPolynomial.variable(new, new_names) + int(d)
        for old, new, d in zip(P.names, new_names, P.degrees)
    }
    shifted = [rel.substitute(mapping) for rel in P.relations]
    return CompletedPresentation(new_names, P.degrees, shifted)


# --- ideal lattices -------------------------------------------------------------


class GroupRingContext:
    """Multiplication of virtual characters over the irreducible basis."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.table = character_table(group)
        self.rank = len(self.table)
        self._cache = {}

    @property
    def key(self):
        return ("irreducibles", id(self.group))

    def _basis_product(self, i: int, j: int) -> tuple:
        row = self._cache.get((i, j))
        if row is None:
            row = tuple(self.table.structure_tensor()[i, j].tolist())
            self._cache[(i, j)] = self._cache[(j, i)] = row
        return row

    def product(self, u, v) -> tuple:
        out = [0] * self.rank
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                w = ui * vj
                for k, c in enumerate(self._basis_product(i, j)):
                    if c:
                        out[k] += w * c
        return tuple(out)


class InvariantRingContext:
    """Multiplication over the Z-basis (1, X1..Xm) of an invariant ring."""

    def __init__(self, pres: RingPresentation):
        self.presentation = pres
        self.rank = len(pres.names) + 1

    @property
    def key(self):
        return ("invariants", id(self.presentation))

    def product(self, u, v) -> tuple:
        return self.presentation.multiply(u, v)


class IdealLattice:
    """A sublattice of the ambient ring, held in canonical HNF."""

    __slots__ = ("context", "basis")

    def __init__(self, context, rows):
        for r in rows:
            if len(r) != context.rank:
                raise AmbientMismatch("vector length does not match the ambient rank")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "basis", tuple(map(tuple, hnf([list(r) for r in rows]))))

    def __setattr__(self, *a):
        raise AttributeError("IdealLattice is immutable")

    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, IdealLattice):
            return NotImplemented
        return self.context.key == other.context.key and self.basis == other.basis

    def __hash__(self):
        return hash((self.context.key, self.basis))

    def to_json(self) -> dict:
        return {"rank": self.rank(), "basis": [list(r) for r in self.basis]}


def _same_ambient(*lattices):
    keys = {L.context.key for L in lattices}
    if len(keys) != 1:
        raise AmbientMismatch("ideal lattices live in different rings")


def unit_ideal(context) -> IdealLattice:
    n = context.rank
    return IdealLattice(context, [[int(i == j) for j in range(n)] for i in range(n)])


def augmentation_ideal(obj) -> IdealLattice:
    """The span of {generator - degree} in the appropriate ambient basis.

    Accepts a RingPresentation (ambient 1, X1..Xm), an InvariantBasis
    (a presentation is built first), or a FiniteGroup (ambient Irr(S),
    spanned by {chi_i - d_i}).
    """
    if isinstance(obj, InvariantBasis):
        obj = structure_constants(obj)
    if isinstance(obj, RingPresentation):
        ctx = InvariantRingContext(obj)
        rows = []
        for k, d in enumerate(obj.degrees):
            row = [0] * ctx.rank
            row[0] = -d
            row[k + 1] = 1
            rows.append(row)
        return IdealLattice(ctx, rows)
    if isinstance(obj, FiniteGroup):
        ctx = GroupRingContext(obj)
        degs = ctx.table.degrees()
        rows = []
        for i in range(1, ctx.rank):
            row = [0] * ctx.rank
            row[0] = -degs[i]
            row[i] = 1
            rows.append(row)
        return IdealLattice(ctx, rows)
    raise InputError("expected a presentation, an invariant basis, or a group")


def ideal_product(L1: IdealLattice, L2: IdealLattice, context=None) -> IdealLattice:
    """Lattice spanned by pairwise products of the two bases."""
    _same_ambient(L1, L2)
    ctx = context if context is not None else L1.context
    if ctx.key != L1.context.key:
        raise AmbientMismatch("context does not match the lattices")
    rows = [ctx.product(u, v) for u in L1.basis for v in L2.basis]
    return IdealLattice(ctx, rows)


def contains(L1: IdealLattice, L2: IdealLattice) -> bool:
    """Whether L2 is a sublattice of L1."""
    _same_ambient(L1, L2)
    return lattice_contains([list(r) for r in L1.basis], [list(r) for r in L2.basis])


def quotient_by_ideal_power(P: RingPresentation, k: int) -> dict:
    """The finite-rank data of R/I^k: free rank and invariant factors."""
    if k < 1:
        raise InputError("k must be at least 1")
    L = augmentation_ideal(P)
    Lk = L
    for _ in range(k - 1):
        Lk = ideal_product(Lk, L)
    diag, _, _ = snf_with_transforms([list(r) for r in Lk.basis])
    nonzero = [abs(d) for d in diag if d]
    return {
        "free_rank": (len(P.names) + 1) - len(nonzero),
        "torsion": [d for d in nonzero if d > 1],
    }


# --- comparison of the two adic topologies --------------------------------------


def adic_equivalence_exponent(F: FusionSystem, k: int = 1,
                              cap: int = DEFAULT_EXPONENT_CAP,
                              basis: InvariantBasis = None) -> int:
    """Least m with I(S)^m inside the ideal generated by the restricted
    invariant augmentation ideal, raised to the k-th power.

    Both ideals live in the character ring of S.  The reverse containment
    (the restricted power sits inside I(S)^k) is checked as well.  Failure
    to find m below the cap is reported loudly: it would contradict the
    equivalence of the two topologies.  Pass the invariant basis of F when
    it is already built.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    B = basis if basis is not None else irreducible_invariants(F)
    if B.fusion is not F:
        raise GroupMismatch("invariant basis belongs to a different system")
    ctx = GroupRingContext(F.S)
    IS = augmentation_ideal(F.S)
    res_rows = []
    for name, vec in zip(B.names, B.vectors):
        if name == "1":
            continue
        row = list(vec.multiplicities)
        row[0] -= vec.degree()
        res_rows.append(row)
    if res_rows:
        J = ideal_product(IdealLattice(ctx, res_rows), unit_ideal(ctx), ctx)
    else:
        J = IdealLattice(ctx, [])
    Jk = J
    for _ in range(k - 1):
        Jk = ideal_product(Jk, J)
    ISk = IS
    for _ in range(k - 1):
        ISk = ideal_product(ISk, IS)
    if not lattice_contains([list(r) for r in ISk.basis], [list(r) for r in Jk.basis]):
        raise FusionRepError("restricted ideal power escapes I(S)^k")
    ISm = IS
    for m in range(1, cap + 1):
        if lattice_contains([list(r) for r in Jk.basis], [list(r) for r in ISm.basis]):
            return m
        nxt = ideal_product(ISm, IS)
        if not lattice_contains([list(r) for r in ISm.basis], [list(r) for r in nxt.basis]):
            raise FusionRepError("ideal powers are not decreasing")
        ISm = nxt
    raise ExponentCapExceeded(
        f"no exponent up to {cap} bounds I(S)-adic by the restricted ideal"
    )
