"""Twisted invariant representations and their module over R(F).

A central extension S_alpha of S (built by the extension module) carries
the twisted representations of S in untwisted form: they are handled
exclusively as representations of S_alpha on which the central subgroup
A acts by a fixed primitive root of unity.

The twisted invariant group is the monoid of such A-representations whose
characters are constant on the classes of a lifted fusion system on
S_alpha.  The lift is checked against the fusion system on S through the
projection alone: its generators fix A pointwise, and the projection
carries their graphs onto the graphs of the generators on S.  The monoid
is a module over the untwisted invariant ring: the action matrices rewrite
the products of the pulled-back invariant basis with the twisted members
over the twisted basis by invariants.product_coefficients, as the
structure constants of that ring are rewritten.  S is a p-group, so the
chain I^k M of the module under the augmentation ideal I stabilizes only at
0, and its completion at I is read off the nilpotency of the shifted action
matrices: the module itself when they are nilpotent, else symbolic.
"""

from __future__ import annotations

from .chartable import character_table
from .cyclotomic import power_table
from .errors import (AmbientMismatch, FusionRepError, GeneratorMovesA,
                     GroupMismatch, InputError, QuotientMismatch)
from .extension import CentralExtensionData
from .fusion import DEFAULT_MORPHISM_CAP, FusionSystem
from .intlinalg import int_matmul
from .invariants import (DEFAULT_HILBERT_CAP, InvariantBasis, canonical_rows,
                         hilbert_basis, invariance_matrix,
                         product_coefficients)
from .permgroup import GroupHom, Subgroup
from .ringpres import apply_names, structure_constants


def a_representations(E: CentralExtensionData) -> tuple:
    """Indices of the irreducibles of the big group on which the marked
    central generator acts by the primitive root of unity."""
    tab = character_table(E.group)
    e = tab.conductor
    zeta = power_table(e)[e // E.coeff]
    a, one = E.group.class_of()[E.a_gen], E.group.class_of()[E.group.identity]
    return tuple(k for k, ch in enumerate(tab.coords)
                 if list(ch[a]) == [ch[one][0] * z for z in zeta])


class TwistedBasis(InvariantBasis):
    """Hilbert basis of the twisted invariant monoid: rows over the
    irreducibles of the big group, supported on the a-representations."""

    def __init__(self, extension: CentralExtensionData, fusion: FusionSystem,
                 a_reps: tuple, mults, names: tuple, invariance_rows):
        super().__init__(fusion, mults, names, invariance_rows)
        vars(self).update(extension=extension, a_reps=tuple(a_reps))

    def with_names(self, mapping: dict) -> "TwistedBasis":
        return TwistedBasis(self.extension, self.fusion, self.a_reps,
                            self.mults, apply_names(self.names, mapping),
                            self.invariance_rows)

    def to_json(self) -> dict:
        return {
            "a_representations": list(self.a_reps),
            "basis": [
                {"name": n, "degree": d, "multiplicities": list(row)}
                for n, d, row in zip(self.names, self.degrees, self.mults)
            ],
        }


def _check_lift(E: CentralExtensionData, F_alpha: FusionSystem,
                base: FusionSystem):
    """Check that every generator of the lifted system fixes A pointwise
    and that the projection s carries the lifted system onto the base
    system.  A is central and fixed, so each generator phi pushes forward
    to s(x) -> s(phi(x)), which must be injective.  The systems are equal
    when each push-forward is a closed morphism of the base and each base
    generator one of the system the push-forwards generate, both read at
    the generators of the domain."""
    for phi in F_alpha.generators:
        for a in E.A.members:
            if phi.domain.contains(a) and phi.apply(a) != a:
                raise GeneratorMovesA(
                    "a fusion generator moves an element of the kernel")
    if base.S is not E.base:
        raise GroupMismatch("base fusion system lives on the wrong group")
    S, s = base.S, E.projection.images
    pushed = []
    for phi in F_alpha.generators:
        graph = {s[x]: s[phi.apply(x)] for x in phi.domain.members}
        members = tuple(sorted(graph))
        dom = Subgroup(S, members, tuple(s[g] for g in phi.domain.gen_indices))
        pushed.append(GroupHom(dom, S, tuple(graph[m] for m in members)))
        if not pushed[-1].is_injective():
            raise QuotientMismatch("a generator pushes forward to no injection")
    quotient = FusionSystem(S, tuple(pushed))
    for system, maps in ((base, pushed), (quotient, base.generators)):
        for phi in maps:
            gens = system._sub_gens(phi.domain)
            if tuple(phi.apply(g) for g in gens) not in system._hom_states(
                    gens, DEFAULT_MORPHISM_CAP):
                raise QuotientMismatch(
                    "quotient generators do not match the base fusion system")


def twisted_invariant_basis(E: CentralExtensionData, F_alpha: FusionSystem,
                            base: FusionSystem,
                            cap: int = DEFAULT_HILBERT_CAP) -> TwistedBasis:
    """Hilbert basis of the monoid of A-representations constant on the
    classes of the lifted fusion system.

    The lifted system must fix the kernel pointwise, and its quotient is
    checked against the base system (_check_lift).
    The members are the non-negative invariant vectors supported on the
    a-representations, so the Hilbert basis is taken on those columns and
    embedded into Irr of the big group.
    """
    if F_alpha.S is not E.group:
        raise GroupMismatch("lifted fusion system lives on the wrong group")
    _check_lift(E, F_alpha, base)
    a_reps = list(a_representations(E))
    tab = character_table(E.group)
    rows = invariance_matrix(F_alpha)
    sols = hilbert_basis([[r[j] for j in a_reps] for r in rows],
                         ncols=len(a_reps), cap=cap)
    full = [[0] * len(tab) for _ in sols]
    for row, sol in zip(full, sols):
        for j, x in zip(a_reps, sol):
            row[j] = x
    mults = canonical_rows(full, tab.degrees())
    names = tuple(f"W{k + 1}" for k in range(len(mults)))
    return TwistedBasis(E, F_alpha, a_reps, mults, names, rows)


# --- module structure ---------------------------------------------------------

class TwistedModule:
    """Integer action matrices of the invariant ring generators on the
    twisted basis; column j of a matrix decomposes the product with the
    j-th twisted basis vector."""

    def __init__(self, basis: TwistedBasis, names: tuple, degrees: tuple,
                 matrices: tuple):
        self.basis = basis
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.matrices = tuple(tuple(tuple(row) for row in M)
                              for M in matrices)

    def to_json(self) -> dict:
        return {
            "names": list(self.names),
            "degrees": list(self.degrees),
            "matrices": [[list(r) for r in M] for M in self.matrices],
        }


def action_matrices(TB: TwistedBasis, coords) -> list:
    """Matrix i of tensoring with the pullback of character i of the base
    group (power-basis coordinates coords[i], one row per base class): its
    column j rewrites the product with the j-th twisted basis vector over
    the twisted basis (product_coefficients, which checks it against the
    invariance conditions of the lifted system)."""
    E = TB.extension
    base_class = E.base.class_of()
    s = E.projection.images
    at = [base_class[s[cls[0]]] for cls in E.group.conjugacy_classes()]
    pulled = character_table(E.group).pullback(
        coords, character_table(E.base).conductor, at)
    return [[list(col) for col in zip(*C)]
            for C in product_coefficients(pulled, TB)]


def module_structure(F: FusionSystem, B, E: CentralExtensionData,
                     TB: TwistedBasis, P=None) -> TwistedModule:
    """Action of every nontrivial invariant basis generator on the twisted
    basis, verified to satisfy the ring relations M_i M_j =
    sum_k T[i, j, k] M_k of R(F), with M_0 the identity; T is symmetric, so
    the matrices commute.  P is the presentation structure_constants(B),
    with or without display names; it is built here when not passed, and
    the module takes its names."""
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
    t = len(TB)
    # B lists the unit first, then the generators of P
    Ms = action_matrices(TB, B.coords)
    if Ms[0] != [[int(i == j) for j in range(t)] for i in range(t)]:
        raise FusionRepError("unit does not act as the identity")
    TM = TwistedModule(TB, P.names, P.degrees, Ms[1:])
    flat = [sum(M, []) for M in Ms]
    for Mi, Ti in zip(Ms, P.ring.tensor):
        for Mj, Tij in zip(Ms, Ti):
            if sum(int_matmul(Mi, Mj), []) != int_matmul([Tij], flat)[0]:
                raise FusionRepError("action matrices violate a ring relation")
    tdegs = TB.degrees
    for name, d, M in zip(TM.names, TM.degrees, Ms[1:]):
        if int_matmul([tdegs], M)[0] != [d * x for x in tdegs]:
            raise FusionRepError(f"degree bookkeeping fails for {name}")
    return TM


class CompletedModule:
    """Completion of the twisted module M along the augmentation ideal.

    kind "finite": the chain I^k M reaches 0, and the completion is M
    itself, free on the basis; kind "symbolic": the chain never
    stabilizes, and the generators with the shifted matrices are the
    answer.
    """

    def __init__(self, kind: str, basis_names: tuple, action_names: tuple,
                 shifted: tuple):
        self.kind = kind
        self.basis_names = tuple(basis_names)
        self.action_names = tuple(action_names)
        self.shifted = tuple(shifted)

    def group_string(self) -> str:
        if self.kind != "finite":
            return "(not stabilized)"
        t = len(self.basis_names)
        if t > 1:
            return f"Z^{t}"
        return "Z" if t else "0"

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
            out["free_rank"] = len(self.basis_names)
            out["torsion"] = []
        return out


def completed_module(TM: TwistedModule, P, names=None) -> CompletedModule:
    """The completion of the twisted module M at the augmentation ideal I
    of R(F), read off the nilpotency of the shifted matrices.

    N_i = M_i - d_i acts on M as the generator i - d_i of I does.  S is a
    p-group, so I^n lies in p I for some n, and a nonzero I^k M would hold
    I^(k+n) M inside p I^k M: the chain I^k M stabilizes only at 0.  The
    N_i commute (module_structure checks the ring relations), so the
    chain reaches 0 exactly when each N_i is nilpotent, and then within
    t = rank M steps.  So the kind is "finite", with completion Z^t, when
    every N_i^t is 0, and "symbolic" otherwise.
    """
    if tuple(P.names) != TM.names or tuple(P.degrees) != TM.degrees:
        raise AmbientMismatch("module and presentation disagree on generators")
    if names is None:
        names = tuple(f"v{k + 1}" for k in range(len(TM.names)))
    else:
        names = tuple(names)
        if len(names) != len(TM.names):
            raise InputError("one completed name per generator required")
    t = len(TM.basis)
    shifted = tuple(tuple(tuple(v - d * (i == j) for j, v in enumerate(row))
                          for i, row in enumerate(M))
                    for M, d in zip(TM.matrices, TM.degrees))
    # squaring up to N^(2^j) with 2^j >= t: zero exactly when N^t is
    powers = list(shifted)
    for _ in range((t - 1).bit_length()):
        powers = [int_matmul(N, N) for N in powers]
    kind = "symbolic" if any(any(r) for N in powers for r in N) else "finite"
    return CompletedModule(kind, TM.basis.names, names, shifted)
