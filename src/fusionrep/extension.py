"""Cocycles and the central extensions they define.

A normalized 2-cocycle on S with values in Z/n determines a central
extension S_alpha whose elements are pairs (a, s) multiplying by
(a1, s1)(a2, s2) = (a1 + a2 + alpha(s1, s2), s1 s2).  central_extension
realizes it as a permutation group on those pairs, and
extension_from_groups takes an extension given by its group, a marked
central generator and the projection onto S.

This is the set-up half of the twisted pipeline.  Only a cocycle that
fails the check has its violations listed, by a full scan over the rows
of the table of S.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import (GroupMismatch, InputError, InvalidCocycle, NotCentral,
                     NotCyclicKernel)
from .permgroup import FiniteGroup, GroupHom, Subgroup, group_prime, is_p_group

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

    def transpose(self) -> "Cocycle":
        n = self.group.order
        return Cocycle(self.group, self.coeff,
                       [[self.table[t][s] for t in range(n)] for s in range(n)])


def validate_cocycle(alpha: Cocycle) -> list:
    """All violations of normalization and the associativity identity.

    Empty list means valid.  Reported as data so callers can display them;
    only central_extension converts a nonempty report into an error.

    A normalized table is checked at the generators of S alone, by Light's
    associativity test.  In E = A x S with the product of the module
    docstring, associativity ((a, s)(b, t))(c, u) = (a, s)((b, t)(c, u))
    at a middle element (b, t) is exactly the identity
    alpha(s, t) + alpha(st, u) = alpha(t, u) + alpha(s, tu) at (s, t, u)
    for all s, u.  The elements that associate in the middle are closed
    under products: if y and y' do, (x(yy'))z = ((xy)y')z = (xy)(y'z) =
    x(y(y'z)) = x((yy')z).  Normalization makes (1, e) one of them, and
    the identity at t = g for every generator g makes the lifts (0, g)
    others; products of these reach every (a, s), so the identity holds at
    every t.  A table that fails either check has its violations listed
    by a full scan on the rows of the table of S, in the order
    (s1, s2, s3): a pass over the |S| values of s3 for each (s1, s2)
    finds whether it holds a violation, and only then are they listed.
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
    if not out and _associative_at_generators(alpha):
        return out
    t = S.rows()
    for s1 in range(S.order):
        T1, row1 = T[s1], t[s1]
        for s2 in range(S.order):
            a, lhs, rhs = T1[s2], T[row1[s2]], T[s2]
            at = [T1[x] for x in t[s2]]
            if not any((a + x - y - z) % n for x, y, z in zip(lhs, rhs, at)):
                continue
            for s3, (x, y, z) in enumerate(zip(lhs, rhs, at)):
                if (a + x - y - z) % n:
                    if len(out) >= _VIOLATION_LIMIT:
                        out.append("... (further violations suppressed)")
                        return out
                    out.append(f"associativity fails at ({s1}, {s2}, {s3})")
    return out


def _associative_at_generators(alpha: Cocycle) -> bool:
    """Whether alpha(s, g) + alpha(sg, u) = alpha(g, u) + alpha(s, gu)
    mod n for every generator g of S and all s, u: one row pick per (g, s)
    on the table rows."""
    S, n, T = alpha.group, alpha.coeff, alpha.table
    order = range(S.order)
    for g in S.gen_indices:
        if g == S.identity:
            continue
        row_g = T[g]
        # g is not the identity, so |S| > 1 and the picker returns tuples
        at_gu = itemgetter(*[S.mul(g, u) for u in order])
        for s in order:
            a, lhs, rhs = T[s][g], T[S.mul(s, g)], at_gu(T[s])
            if any((a + x - y - z) % n for x, y, z in zip(lhs, row_g, rhs)):
                return False
    return True


class CentralExtensionData:
    """A central extension of the base group by a cyclic group of roots of
    unity, with its projection onto the base group (projection.images[x] is
    the image of element x) and a distinguished generator of the kernel."""

    def __init__(self, group: FiniteGroup, base: FiniteGroup, coeff: int,
                 A: Subgroup, a_gen: int, projection: GroupHom):
        self.group = group
        self.base = base
        self.coeff = coeff
        self.A = A
        self.a_gen = a_gen
        self.projection = projection

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

    zperm = lperm(1, S.identity)
    lifted = [lperm(0, g) for g in S.gen_indices]
    G = FiniteGroup(N, tuple([zperm] + lifted), tuple(sorted(
        lperm(a, s) for a in range(n) for s in range(sz))))
    G.names["z"] = G.index[zperm]
    for gi, perm in zip(S.gen_indices, lifted):
        name = S.name_of(gi)
        if name is not None:
            G.names[name] = G.index[perm]
    # lperm(a, s) sends point S.identity to point a |S| + s
    projection = GroupHom(G.full_subgroup(), S, tuple(
        perm[S.identity] % sz for perm in G.elements))
    return extension_from_groups(G, G.index[zperm], projection)


def extension_from_groups(G: FiniteGroup, a_gen: int,
                          projection: GroupHom) -> CentralExtensionData:
    """Extension data from an explicitly given big group.

    The marked element must generate a central subgroup that is exactly the
    kernel of the projection.
    """
    if projection.domain.parent is not G:
        raise GroupMismatch("projection domain is not the given group")
    if projection.domain.order != G.order:
        raise InputError("projection must be defined on the whole group")
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
    return CentralExtensionData(G, S, A.order, A, a_gen, projection)
