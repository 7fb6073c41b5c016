"""Cocycles, central extensions, and twisted invariant representations.

A normalized 2-cocycle on S with values in Z/p^k determines a central
extension S_alpha whose elements are pairs (a, s) multiplying by
(a1, s1)(a2, s2) = (a1 + a2 + alpha(s1, s2), s1 s2).  Twisted
representations of S are handled exclusively in untwisted form, as
representations of S_alpha on which the central subgroup A acts by a fixed
primitive root of unity; the direct twisted-matrix picture survives only in
a validation helper.

The twisted invariant group is the monoid of such A-representations whose
characters are constant on the classes of a lifted fusion system on
S_alpha.  It is a module over the untwisted invariant ring, and the same
completion machinery applies through the shifted action matrices.
"""

from __future__ import annotations

import numpy as np

from .chartable import ClassFunction, character_table, tensor
from .errors import (AmbientMismatch, BadSection, DecompositionNotIntegral,
                     FusionRepError, GroupMismatch, InputError, InvalidCocycle,
                     NotCentral, NotCyclicKernel, QuotientMismatch)
from .fusion import FusionSystem, quotient_fusion
from .intlinalg import hnf, lattice_eq, snf_with_transforms, solve_rational
from .invariants import (DEFAULT_HILBERT_CAP, CoveringReport, RepVector,
                         hilbert_basis, invariance_matrix)
from .permgroup import FiniteGroup, GroupHom, Subgroup, group_prime, is_p_group
from .cyclotomic import Cyclotomic, power_table, root_of_unity
from .ringpres import structure_constants

DEFAULT_CHAIN_CAP = 64
_VIOLATION_LIMIT = 20


class Cocycle:
    """Normalized integer 2-cocycle table on a finite group.

    table[s][t] is the value at the ordered pair (s, t), stored reduced mod
    the coefficient order.  Construction checks only shape and range;
    validate_cocycle reports on the algebraic identities.
    """

    __slots__ = ("group", "coeff", "table")

    def __init__(self, group: FiniteGroup, coeff: int, table):
        if coeff < 1:
            raise InputError("coefficient order must be >= 1")
        rows = []
        for row in table:
            rows.append(tuple(int(v) % coeff for v in row))
            if len(rows[-1]) != group.order:
                raise InputError("cocycle table must be |S| x |S|")
        if len(rows) != group.order:
            raise InputError("cocycle table must be |S| x |S|")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "table", tuple(rows))

    def __setattr__(self, *a):
        raise AttributeError("Cocycle is immutable")

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return (self.group is other.group and self.coeff == other.coeff
                and self.table == other.table)

    def __hash__(self):
        return hash((id(self.group), self.coeff, self.table))

    def transpose(self) -> "Cocycle":
        n = self.group.order
        return Cocycle(self.group, self.coeff,
                       [[self.table[t][s] for t in range(n)] for s in range(n)])

    def to_json(self) -> dict:
        return {"coeff": self.coeff, "table": [list(r) for r in self.table]}


def trivial_cocycle(group: FiniteGroup, coeff: int) -> Cocycle:
    return Cocycle(group, coeff, [[0] * group.order] * group.order)


def validate_cocycle(alpha: Cocycle) -> list:
    """All violations of normalization and the associativity identity.

    Empty list means valid.  Reported as data so callers can display them;
    only central_extension converts a nonempty report into an error.
    """
    S, n = alpha.group, alpha.coeff
    T = alpha.table
    out = []
    e = S.identity
    for s in range(S.order):
        if T[e][s] % n:
            out.append(f"alpha(1, {s}) = {T[e][s]} != 0")
        if T[s][e] % n:
            out.append(f"alpha({s}, 1) = {T[s][e]} != 0")
    tab = S.table()
    if tab is not None:
        Ta = np.array(T, dtype=np.int64)
        M = np.asarray(tab)
        for s1 in range(S.order):
            lhs = Ta[s1][:, None] + Ta[M[s1], :]
            rhs = Ta + Ta[s1][M]
            bad = np.argwhere((lhs - rhs) % n != 0)
            for s2, s3 in bad:
                if len(out) >= _VIOLATION_LIMIT:
                    out.append("... (further violations suppressed)")
                    return out
                out.append(f"associativity fails at ({s1}, {s2}, {s3})")
    else:
        for s1 in range(S.order):
            for s2 in range(S.order):
                s12 = S.mul(s1, s2)
                for s3 in range(S.order):
                    if (T[s1][s2] + T[s12][s3]
                            - T[s2][s3] - T[s1][S.mul(s2, s3)]) % n:
                        if len(out) >= _VIOLATION_LIMIT:
                            out.append("... (further violations suppressed)")
                            return out
                        out.append(
                            f"associativity fails at ({s1}, {s2}, {s3})")
    return out


class CentralExtensionData:
    """A central extension of the base group by a cyclic group of roots of
    unity, with its projection, a distinguished generator of the kernel,
    and bookkeeping to move between the pair picture and element indices."""

    def __init__(self, group: FiniteGroup, base: FiniteGroup, coeff: int,
                 A: Subgroup, a_gen: int, projection: GroupHom,
                 section: tuple, pairs: tuple):
        self.group = group
        self.base = base
        self.coeff = coeff
        self.A = A
        self.a_gen = a_gen
        self.projection = projection
        self.section = section  # base element index -> group element index
        self.pairs = pairs      # group element index -> (a, s)

    def a_value(self, x: int) -> int:
        return self.pairs[x][0]

    def s_value(self, x: int) -> int:
        return self.pairs[x][1]

    def to_json(self) -> dict:
        return {
            "order": self.group.order,
            "base_order": self.base.order,
            "coeff": self.coeff,
        }


def _check_coeff(base: FiniteGroup, coeff: int):
    if coeff < 2:
        raise InputError("coefficient order must be at least 2")
    if base.order > 1:
        p = group_prime(base)
        if p is None or not is_p_group(coeff, p):
            raise InputError(
                "coefficient order must be a power of the group prime")


def central_extension(S: FiniteGroup, alpha: Cocycle) -> CentralExtensionData:
    """Realize the extension of S by the cocycle as a permutation group on
    pairs (a, s) acting by left translation."""
    if alpha.group is not S:
        raise GroupMismatch("cocycle lives on a different group")
    _check_coeff(S, alpha.coeff)
    violations = validate_cocycle(alpha)
    if violations:
        raise InvalidCocycle("; ".join(violations[:3]))
    if "z" in S.names:
        raise InputError("base group already names a generator 'z'")
    n, sz = alpha.coeff, S.order
    N = n * sz
    T = alpha.table

    def lperm(a0, s0):
        row = T[s0]
        out = [0] * N
        for a in range(n):
            for s in range(sz):
                out[a * sz + s] = ((a0 + a + row[s]) % n) * sz + S.mul(s0, s)
        return tuple(out)

    pair_of = {}
    for a in range(n):
        for s in range(sz):
            pair_of[lperm(a, s)] = (a, s)
    zperm = lperm(1, S.identity)
    lifted = [lperm(0, g) for g in S.gen_indices]
    G = FiniteGroup(N, tuple([zperm] + lifted), tuple(sorted(pair_of)))
    G.names["z"] = G.index[zperm]
    for gi, perm in zip(S.gen_indices, lifted):
        name = S.name_of(gi)
        if name is not None:
            G.names[name] = G.index[perm]
    pairs = tuple(pair_of[p] for p in G.elements)
    section = [None] * sz
    for idx, (a, s) in enumerate(pairs):
        if a == 0:
            section[s] = idx
    A = G.subgroup((G.index[zperm],))
    projection = GroupHom(G.full_subgroup(), S,
                          tuple(p[1] for p in pairs))
    return CentralExtensionData(G, S, n, A, G.index[zperm], projection,
                                tuple(section), pairs)


def extension_from_groups(G: FiniteGroup, a_gen: int,
                          projection: GroupHom) -> CentralExtensionData:
    """Extension data from an explicitly given big group.

    The marked element must generate a central subgroup that is exactly the
    kernel of the projection; the canonical section picks the smallest
    preimage of each base element.
    """
    if projection.domain.parent is not G:
        raise GroupMismatch("projection domain is not the given group")
    if projection.domain.order != G.order:
        raise InputError("projection must be defined on the whole group")
    projection.validate()
    S = projection.codomain
    A = G.subgroup((a_gen,))
    for a in A.members:
        for g in G.gen_indices:
            if G.mul(a, g) != G.mul(g, a):
                raise NotCentral("marked subgroup is not central")
    kernel = frozenset(m for m in range(G.order)
                       if projection.apply(m) == S.identity)
    if kernel != frozenset(A.members):
        raise NotCyclicKernel(
            "projection kernel differs from the marked cyclic subgroup")
    if len(set(projection.images)) != S.order:
        raise InputError("projection is not surjective")
    _check_coeff(S, A.order)
    n = A.order
    dlog = {}
    cur = G.identity
    for j in range(n):
        dlog[cur] = j
        cur = G.mul(cur, a_gen)
    section = [None] * S.order
    for x in range(G.order):
        s = projection.apply(x)
        if section[s] is None:
            section[s] = x
    pairs = tuple(
        (dlog[G.mul(x, G.inv(section[projection.apply(x)]))],
         projection.apply(x))
        for x in range(G.order))
    return CentralExtensionData(G, S, n, A, a_gen, projection,
                                tuple(section), pairs)


def cocycle_from_extension(E: CentralExtensionData,
                           section=None) -> Cocycle:
    """The cocycle of a section; defaults to the extension's own section, so
    a round trip through central_extension returns the identical table."""
    G, S = E.group, E.base
    if section is None:
        sec = E.section
    else:
        sec = tuple(int(x) for x in section)
        if len(sec) != S.order:
            raise BadSection("one preimage per base element required")
        if sec[S.identity] != G.identity:
            raise BadSection("section must send the identity to the identity")
        for s, x in enumerate(sec):
            if E.projection.apply(x) != s:
                raise BadSection(f"section value at {s} is not a preimage")
    dlog = {}
    cur = G.identity
    for j in range(E.coeff):
        dlog[cur] = j
        cur = G.mul(cur, E.a_gen)
    table = []
    for s in range(S.order):
        row = []
        for t in range(S.order):
            d = G.mul(G.mul(sec[s], sec[t]), G.inv(sec[S.mul(s, t)]))
            row.append(dlog[d])
        table.append(row)
    return Cocycle(S, E.coeff, table)


def a_representations(E: CentralExtensionData) -> tuple:
    """Indices of the irreducibles of the big group on which the marked
    central generator acts by the primitive root of unity."""
    tab = character_table(E.group)
    e = tab.conductor
    zeta = np.array(power_table(e)[e // E.coeff], dtype=np.int64)
    X = tab.coords
    at_a = X[:, E.group.class_of()[E.a_gen]]
    at_one = X[:, E.group.class_of()[E.group.identity], :1]
    return tuple(np.flatnonzero((at_a == at_one * zeta).all(axis=1)).tolist())


class TwistedBasis:
    """Hilbert basis of the twisted invariant monoid, as vectors over the
    irreducibles of the big group."""

    def __init__(self, extension: CentralExtensionData, fusion: FusionSystem,
                 a_reps: tuple, vectors: tuple, names: tuple):
        self.extension = extension
        self.fusion = fusion
        self.a_reps = tuple(a_reps)
        self.vectors = tuple(vectors)
        self.names = tuple(names)

    def degrees(self) -> tuple:
        return tuple(v.degree() for v in self.vectors)

    def with_names(self, mapping: dict) -> "TwistedBasis":
        return TwistedBasis(self.extension, self.fusion, self.a_reps,
                            self.vectors,
                            tuple(mapping.get(n, n) for n in self.names))

    def to_json(self) -> dict:
        return {
            "a_representations": list(self.a_reps),
            "basis": [
                {"name": n, "degree": v.degree(),
                 "multiplicities": list(v.multiplicities)}
                for n, v in zip(self.names, self.vectors)
            ],
        }


def _quotient_match(E: CentralExtensionData, F_alpha: FusionSystem,
                    Fq: FusionSystem, base: FusionSystem):
    """Compare the quotient of the lifted system with the base system by
    matching generator graphs through the projection."""
    if base.S is not E.base:
        raise GroupMismatch("base fusion system lives on the wrong group")
    pre = {}
    for idx, pt in enumerate(Fq.projection):
        pre.setdefault(pt, idx)
    psi = {pt: E.projection.apply(x) for pt, x in pre.items()}
    if sorted(psi.values()) != list(range(E.base.order)):
        raise QuotientMismatch("quotient does not biject onto the base group")
    transported = set()
    for phi in Fq.generators:
        transported.add(frozenset(
            (psi[x], psi[phi.apply(x)]) for x in phi.domain.members))
    given = set()
    for phi in base.generators:
        given.add(frozenset(
            (x, phi.apply(x)) for x in phi.domain.members))
    if transported != given:
        raise QuotientMismatch(
            "quotient generators do not match the base fusion system")


def twisted_invariant_basis(E: CentralExtensionData, F_alpha: FusionSystem,
                            base: FusionSystem = None,
                            cap: int = DEFAULT_HILBERT_CAP) -> TwistedBasis:
    """Hilbert basis of the monoid of A-representations constant on the
    classes of the lifted fusion system.

    The lifted system must fix the kernel pointwise, and when the base
    system is supplied its quotient is checked against it.
    """
    if F_alpha.S is not E.group:
        raise GroupMismatch("lifted fusion system lives on the wrong group")
    Fq = quotient_fusion(F_alpha, E.A)  # raises GeneratorMovesA / NotCentral
    if base is not None:
        _quotient_match(E, F_alpha, Fq, base)
    a_reps = a_representations(E)
    tab = character_table(E.group)
    rows = [list(r) for r in invariance_matrix(F_alpha)]
    keep = set(a_reps)
    m = len(tab)
    for i in range(m):
        if i not in keep:
            unit = [0] * m
            unit[i] = 1
            rows.append(unit)
    basis = hilbert_basis(rows, ncols=m, cap=cap)
    vectors = sorted((RepVector(E.group, v) for v in basis),
                     key=lambda v: (v.degree(), v.multiplicities))
    names = tuple(f"W{k + 1}" for k in range(len(vectors)))
    return TwistedBasis(E, F_alpha, a_reps, tuple(vectors), names)


def in_twisted_monoid(TB: TwistedBasis, multiplicities) -> bool:
    """Support and invariance test for a raw multiplicity vector."""
    E, F_alpha = TB.extension, TB.fusion
    tab = character_table(E.group)
    v = tuple(int(x) for x in multiplicities)
    if len(v) != len(tab):
        raise InputError("one multiplicity per irreducible required")
    if any(x < 0 for x in v):
        return False
    keep = set(TB.a_reps)
    if any(x and i not in keep for i, x in enumerate(v)):
        return False
    rows = invariance_matrix(F_alpha)
    return all(sum(r[i] * v[i] for i in range(len(v))) == 0 for r in rows)


def twisted_covering(TB: TwistedBasis) -> CoveringReport:
    """Every A-representation must occur in some basis element."""
    uncovered = []
    for i in TB.a_reps:
        if all(v.multiplicities[i] == 0 for v in TB.vectors):
            uncovered.append(i)
    return CoveringReport(not uncovered, tuple(uncovered), len(TB.vectors))


# --- module structure ---------------------------------------------------------

def _mat_mul(A, B):
    t = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(t))
                       for j in range(t)) for i in range(t))


def _mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb))
                 for ra, rb in zip(A, B))


def _mat_scale(c, A):
    return tuple(tuple(c * a for a in row) for row in A)


def _mat_eye(t, c=1):
    return tuple(tuple(c if i == j else 0 for j in range(t))
                 for i in range(t))


def _mat_is_zero(A):
    return all(all(v == 0 for v in row) for row in A)


class TwistedModule:
    """Integer action matrices of the invariant ring generators on the
    twisted basis; column j of a matrix decomposes the product with the
    j-th twisted basis vector."""

    def __init__(self, basis: TwistedBasis, names: tuple, degrees: tuple,
                 matrices: tuple):
        t = len(basis.vectors)
        for M in matrices:
            if len(M) != t or any(len(row) != t for row in M):
                raise InputError("action matrices must be square on the basis")
            if any(v < 0 for row in M for v in row):
                raise FusionRepError("action matrix has a negative entry")
        for i in range(len(matrices)):
            for j in range(i + 1, len(matrices)):
                if _mat_mul(matrices[i], matrices[j]) != \
                        _mat_mul(matrices[j], matrices[i]):
                    raise FusionRepError(
                        f"action matrices for {names[i]} and {names[j]} "
                        "do not commute")
        self.basis = basis
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.matrices = tuple(tuple(tuple(row) for row in M)
                              for M in matrices)

    def matrix(self, name: str) -> tuple:
        return self.matrices[self.names.index(name)]

    def to_json(self) -> dict:
        return {
            "names": list(self.names),
            "degrees": list(self.degrees),
            "matrices": [[list(r) for r in M] for M in self.matrices],
        }


def _evaluate_relation(rel, names, matrices, t):
    """Relation polynomial evaluated on commuting matrices."""
    total = _mat_eye(t, 0)
    by_name = dict(zip(names, matrices))
    for exps, coeff in rel.terms.items():
        term = _mat_eye(t)
        for var, e in zip(rel.variables, exps):
            for _ in range(e):
                term = _mat_mul(term, by_name[var])
        total = _mat_add(total, _mat_scale(coeff, term))
    return total


def action_matrix(TB: TwistedBasis, chi: ClassFunction) -> tuple:
    """Matrix of tensoring with the pullback of a base-group character,
    decomposed over the twisted basis."""
    E = TB.extension
    tab = character_table(E.group)
    e = tab.conductor
    classes = E.group.conjugacy_classes()
    values = []
    for cls in classes:
        rep = min(cls)
        values.append(chi.value_at_element(E.s_value(rep)).lift(e))
    pullback = ClassFunction(E.group, values)
    m = len(tab)
    t = len(TB.vectors)
    cols = []
    for w in TB.vectors:
        prod = tensor(pullback, w.character)
        mults = tab.multiplicities(prod)
        target = []
        for v in mults:
            if v.denominator != 1 or v < 0:
                raise DecompositionNotIntegral(
                    f"product multiplicity {v} is not a non-negative integer")
            target.append(int(v))
        rows = [[TB.vectors[j].multiplicities[i] for j in range(t)]
                for i in range(m)]
        sol = solve_rational(rows, target)
        if sol is None:
            raise DecompositionNotIntegral(
                "product does not lie in the span of the twisted basis")
        col = []
        for v in sol:
            if v.denominator != 1 or v < 0:
                raise DecompositionNotIntegral(
                    f"coefficient {v} is not a non-negative integer")
            col.append(int(v))
        check = [sum(rows[i][j] * col[j] for j in range(t)) for i in range(m)]
        if check != target:
            raise DecompositionNotIntegral(
                "twisted basis does not span the product")
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(t)) for i in range(t))


def module_structure(F: FusionSystem, B, E: CentralExtensionData,
                     TB: TwistedBasis, P=None) -> TwistedModule:
    """Action of every nontrivial invariant basis generator on the twisted
    basis, verified to commute and to satisfy the ring relations.  P is the
    presentation structure_constants(B), built here when not passed."""
    if B.fusion is not F:
        raise GroupMismatch("invariant basis belongs to a different system")
    if F.S is not E.base:
        raise GroupMismatch("fusion system lives on the wrong group")
    if TB.extension is not E:
        raise GroupMismatch("twisted basis belongs to a different extension")
    if P is None:
        P = structure_constants(B)
    elif P.basis is not B:
        raise GroupMismatch("presentation belongs to a different basis")
    t = len(TB.vectors)
    trivial_pos = B.names.index("1")
    ident = action_matrix(TB, B.vectors[trivial_pos].character)
    if ident != _mat_eye(t):
        raise FusionRepError("unit does not act as the identity")
    matrices = []
    for name in P.names:
        pos = B.names.index(name)
        matrices.append(action_matrix(TB, B.vectors[pos].character))
    TM = TwistedModule(TB, P.names, P.degrees, tuple(matrices))
    for rel in P.relations:
        if not _mat_is_zero(_evaluate_relation(rel, P.names, TM.matrices, t)):
            raise FusionRepError(
                "action matrices violate a ring relation")
    tdegs = TB.degrees()
    for name, d, M in zip(TM.names, TM.degrees, TM.matrices):
        for j in range(t):
            if sum(tdegs[l] * M[l][j] for l in range(t)) != d * tdegs[j]:
                raise FusionRepError(
                    f"degree bookkeeping fails for {name}")
    return TM


class CompletedModule:
    """Completion of the twisted module along the augmentation ideal.

    kind "finite" reports the quotient of the basis lattice by the stable
    sublattice of the shifted-action chain; kind "symbolic" reports the
    generators and shifted matrices when the chain has not stabilized
    within the cap.
    """

    def __init__(self, kind: str, basis_names: tuple, action_names: tuple,
                 shifted: tuple, free_rank=None, torsion=None,
                 stable=None, steps=None):
        self.kind = kind
        self.basis_names = tuple(basis_names)
        self.action_names = tuple(action_names)
        self.shifted = tuple(shifted)
        self.free_rank = free_rank
        self.torsion = tuple(torsion) if torsion is not None else None
        self.stable = stable
        self.steps = steps

    def group_string(self) -> str:
        if self.kind != "finite":
            return "(not stabilized)"
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"

    def __str__(self):
        if self.kind == "finite":
            lines = [f"completed module: {self.group_string()}"]
        else:
            lines = ["completed module (symbolic): chain did not stabilize, "
                     f"generators ({', '.join(self.basis_names)})"]
        for name, M in zip(self.action_names, self.shifted):
            lines.append(f"  {name} acts by {list(list(r) for r in M)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "basis": list(self.basis_names),
            "actions": {n: [list(r) for r in M]
                        for n, M in zip(self.action_names, self.shifted)},
        }
        if self.kind == "finite":
            out["free_rank"] = self.free_rank
            out["torsion"] = list(self.torsion)
        return out


def completed_module(TM: TwistedModule, P, names=None,
                     cap: int = DEFAULT_CHAIN_CAP) -> CompletedModule:
    """Quotient along the stable image of the shifted action matrices.

    The chain L_{k+1} = sum_i N_i L_k is decreasing; equality of successive
    lattices detects stabilization and the quotient is reported through its
    Smith form.  Without stabilization within the cap the pair (generators,
    shifted matrices) is the answer.
    """
    if tuple(P.names) != TM.names or tuple(P.degrees) != TM.degrees:
        raise AmbientMismatch("module and presentation disagree on generators")
    if names is None:
        names = tuple(f"v{k + 1}" for k in range(len(TM.names)))
    else:
        names = tuple(names)
        if len(names) != len(TM.names):
            raise InputError("one completed name per generator required")
    t = len(TM.basis.vectors)
    shifted = tuple(_mat_add(M, _mat_eye(t, -d))
                    for M, d in zip(TM.matrices, TM.degrees))
    current = hnf([list(row) for row in _mat_eye(t)])
    steps = 0
    stable = None
    while steps < cap:
        images = []
        for N in shifted:
            for v in current:
                images.append([sum(N[i][k] * v[k] for k in range(t))
                               for i in range(t)])
        nxt = hnf(images)
        steps += 1
        if lattice_eq(nxt, current):
            stable = nxt
            break
        current = nxt
    if stable is None:
        return CompletedModule("symbolic", TM.basis.names, names, shifted,
                               steps=steps)
    diag = snf_with_transforms([list(r) for r in stable] or [[0] * t])[0]
    nonzero = [d for d in diag if d != 0]
    return CompletedModule(
        "finite", TM.basis.names, names, shifted,
        free_rank=t - len(nonzero),
        torsion=[d for d in nonzero if d != 1],
        stable=tuple(tuple(r) for r in stable), steps=steps)


def validate_twisted_table(E: CentralExtensionData, rho) -> list:
    """Check a twisted matrix table against its untwisting.

    rho is one square matrix per base group element (entries Cyclotomic or
    integers, one common conductor divisible by the coefficient order); the
    requirement is rho(s) rho(t) = zeta^alpha(s, t) rho(st), which is the
    same as (a, s) -> zeta^a rho(s) being multiplicative.  Violations are
    returned as data.
    """
    S = E.base
    rho = list(rho)
    if len(rho) != S.order:
        return ["one matrix per base group element required"]
    conductor = None
    for M in rho:
        for row in M:
            for v in row:
                if isinstance(v, Cyclotomic):
                    if conductor is None:
                        conductor = v.conductor
                    elif v.conductor != conductor:
                        return ["matrix entries mix conductors"]
    if conductor is None:
        conductor = E.coeff
    if conductor % E.coeff:
        return [f"conductor {conductor} not divisible by {E.coeff}"]

    def lift(v):
        return v if isinstance(v, Cyclotomic) else \
            Cyclotomic.rational(v, conductor)

    mats = [tuple(tuple(lift(v) for v in row) for row in M) for M in rho]
    d = len(mats[0])
    if any(len(M) != d or any(len(r) != d for r in M) for M in mats):
        return ["matrices are not square of one size"]
    eye = tuple(tuple(Cyclotomic.rational(1 if i == j else 0, conductor)
                      for j in range(d)) for i in range(d))
    out = []
    if mats[S.identity] != eye:
        out.append("matrix at the identity is not the identity")
    alpha = cocycle_from_extension(E)
    zeta = root_of_unity(conductor, conductor // E.coeff)

    def cmul(A, B):
        return tuple(tuple(
            sum((A[i][k] * B[k][j] for k in range(d)),
                Cyclotomic.zero(conductor))
            for j in range(d)) for i in range(d))

    for s in range(S.order):
        for t_ in range(S.order):
            lhs = cmul(mats[s], mats[t_])
            a = alpha.table[s][t_]
            scale = zeta if a == 1 else root_of_unity(conductor, (conductor // E.coeff) * a)
            target = mats[S.mul(s, t_)]
            rhs = tuple(tuple(scale * v for v in row) for row in target)
            if lhs != rhs:
                out.append(f"twisted multiplicativity fails at ({s}, {t_})")
                if len(out) >= _VIOLATION_LIMIT:
                    out.append("... (further violations suppressed)")
                    return out
    return out
