"""Fusion systems over finite p-groups, presented by generating morphisms.

A fusion system here is the one generated by inner conjugation together with
a finite list of injective homomorphisms between subgroups of S (proved by
make_hom, not again here).  Everything is computed by closure: element
and subgroup classes as orbits of the generating maps, morphism sets by a
breadth-first search over generator-image tuples (post-compose with an
inner conjugation, a listed generator, or a generator inverse, whenever the
current image lies in the relevant domain).  The search is exact for
generated systems, where every morphism is a composite of restrictions of
the listed maps, their inverses, and inner conjugations.

The element classes run in pure Python on the generating maps, so a job
that stops at them imports no numpy; the morphism closures and the
saturation check gather on arrays and import numpy when first called.
"""

from __future__ import annotations

from .errors import (
    DomainNotSubgroup,
    FusionRepError,
    GroupMismatch,
    MorphismCapExceeded,
    NotAPrimePowerGroup,
    NotInjective,
)
from .permgroup import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    group_prime,
    orbits,
    p_part,
    replay,
)

DEFAULT_MORPHISM_CAP = 1_000_000
_N_PHI_BATCH = 256  # morphisms per N_phi gather, to bound its arrays


def _small_gens(G: FiniteGroup, members) -> tuple:
    """A short generating sequence for a known subgroup member set: its
    members in order, each one not yet generated by those before."""
    gens, have = [], {G.identity}
    for m in sorted(members):
        if m not in have and len(have) < len(members):
            gens.append(m)
            have = set(G.closure(gens))
    if len(have) != len(members):
        raise AssertionError("member set was not closed")
    return tuple(gens)


class SaturationReport:
    def __init__(self, ok: bool, violations: list, classes_checked: int,
                 morphisms_checked: int):
        self.ok = ok
        self.violations = violations
        self.classes_checked = classes_checked
        self.morphisms_checked = morphisms_checked

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": self.violations,
            "subgroup_classes_checked": self.classes_checked,
            "morphisms_checked": self.morphisms_checked,
        }


class FusionSystem:
    """Fusion system on S generated by a list of injective GroupHoms.

    Immutable after construction; morphism caches are write-once.
    """

    def __init__(self, S: FiniteGroup, generators: tuple):
        self.S = S
        self.generators = tuple(generators)
        self.p = group_prime(S)
        if self.p is None and S.order > 1:
            raise NotAPrimePowerGroup(f"|S| = {S.order} is not a prime power")
        for phi in self.generators:
            if not isinstance(phi, GroupHom) or not isinstance(phi.domain, Subgroup):
                raise DomainNotSubgroup("generators must be subgroup homomorphisms")
            if phi.domain.parent is not S:
                raise DomainNotSubgroup("generator domain lives in a different group")
            if phi.codomain is not S:
                raise GroupMismatch("generator codomain is not S")
            if not phi.is_injective():
                raise NotInjective("fusion generators must be injective")
        self._element_classes = None
        self._element_class_of = None
        self._hom_cache = {}
        self._maps = None
        self._maps_array = None
        self._aut_s_cache = {}
        # gens_n -> (walk position of each element, replay, pgens -> values)
        self._ext_index_cache = {}

    # -- element classes --

    def element_classes(self) -> tuple:
        """F-classes of elements, each sorted, ordered by minimal member:
        the orbits of the maps that generate F (_step_maps)."""
        if self._element_classes is None:
            self._element_classes, self._element_class_of = orbits(
                self._step_maps(), self.S.order)
        return self._element_classes

    def element_class_of(self) -> tuple:
        self.element_classes()
        return self._element_class_of

    def subgroup_classes(self, subgroups) -> tuple:
        """F-classes of all subgroups of S, ordered by least member: orbits
        of the step maps, each moving a subgroup in its domain to its image."""
        subs = sorted(sub.members for sub in subgroups)
        at = {mem: k for k, mem in enumerate(subs)}
        maps = [[at[tuple(sorted(m[x] for x in mem))]
                 if min(m[x] for x in mem) >= 0 else -1 for mem in subs]
                for m in self._step_maps()]
        return tuple(tuple(subs[k] for k in cls)
                     for cls in orbits(maps, len(subs))[0])

    # -- morphism closure over generator-image states --

    def _hom_states(self, gens: tuple, cap: int) -> tuple:
        """All F-morphisms out of <gens> as image tuples aligned with gens.
        A cached closure larger than `cap` raises as a fresh one would."""
        hit = self._hom_cache.get(gens)
        if hit is not None:
            if len(hit) > cap:
                raise MorphismCapExceeded(f"morphism closure exceeds cap {cap}")
            return hit
        import numpy as np
        if self._maps_array is None:
            self._maps_array = np.array(
                self._step_maps(), dtype=np.int32).reshape(-1, self.S.order)
        maps = self._maps_array
        start = tuple(gens)
        seen = {start}
        frontier = np.array([start], dtype=np.int32).reshape(1, len(start))
        while len(frontier):
            t = maps[:, frontier]  # every step map on every state
            new = set(map(tuple, t[(t >= 0).all(2)].tolist())) - seen
            seen |= new
            if len(seen) > cap:
                raise MorphismCapExceeded(f"morphism closure exceeds cap {cap}")
            frontier = np.array(sorted(new), dtype=np.int32).reshape(
                len(new), len(start))
        out = tuple(sorted(seen))
        self._hom_cache[gens] = out
        return out

    def _step_maps(self) -> tuple:
        """The maps a state is post-composed with, as tuples over S (-1
        outside the domain): conjugation by each generator of S, then each
        listed generator and its inverse.  _hom_states stacks them into
        one int32 array on first use."""
        if self._maps is None:
            maps = list(self.S.conjugation_maps())
            for phi in self.generators:
                for x, y in ((phi.domain.members, phi.images),
                             (phi.images, phi.domain.members)):
                    m = [-1] * self.S.order
                    for a, b in zip(x, y):
                        m[a] = b
                    maps.append(tuple(m))
            self._maps = tuple(maps)
        return self._maps

    def _sub_gens(self, P: Subgroup) -> tuple:
        if P.order == 1:
            return ()
        if 0 < len(P.gen_indices) <= 3:
            return P.gen_indices
        return _small_gens(self.S, P.members)

    def _replay(self, gens: tuple, states) -> tuple:
        """(reach, images): the elements of <gens> in walk order and, in
        column k, their images under states[k] (permgroup.replay)."""
        import numpy as np
        walk = self.S.walk(gens)
        st = np.array(states, dtype=np.int32).reshape(len(states), len(gens))
        return walk[0], replay(walk, st, self.S)

    # -- saturation --

    def check_saturation(
        self,
        cap: int = DEFAULT_MORPHISM_CAP,
        subgroup_cap: int = None,
        allow_large: bool = False,
    ) -> SaturationReport:
        """Exhaustive test of the two saturation axioms over all subgroups.

        Axiom one is checked at every fully normalized member of every
        F-class of subgroups (fully centralized + Sylow condition); axiom two
        searches, for every closed morphism phi: P -> Q onto a fully
        centralized member, an extension to its N_phi among closed
        morphisms out of N_phi.

        Subgroup classes are orbits (subgroup_classes), and |Aut_F(P)| is the
        size of P's one closure over that of its class.  The work is gathers on
        the multiplication and conjugation tables.  The closed morphisms out of
        P are replayed once into an image array (one gather per layer of the
        walk of P's generators).  For each phi, row g of phi(C[N_S(P),
        phi^-1(Q's generators)]) holds phi c_g phi^-1 at Q's generators; N_phi
        is the set of g whose row is a row of Aut_S(Q), both encoded as
        integers in base |Q|.  N_phi is one of the enumerated subgroups and
        takes its generators from there, and the values at P's generators of
        the closed morphisms out of N_phi come from the same replay.

        The check runs on a group of any order.  The work is bounded by
        cap, the morphisms closed out of each subgroup, and subgroup_cap,
        the closures H<g> that the layered subgroup enumeration builds;
        exceeding either raises a CapExceeded.  allow_large
        is accepted and ignored: it once lifted an order cap, and
        perfbench/trace_job.py still passes it.
        """
        import numpy as np
        S = self.S
        if S.order == 1:
            return SaturationReport(True, [], 1, 0)
        p = self.p
        subs = (S.all_subgroups() if subgroup_cap is None
                else S.all_subgroups(subgroup_cap))
        by_key = {sub.members: sub for sub in subs}
        norm_sub = {sub.members: S.normalizer(sub) for sub in subs}
        cent_ord = {sub.members: S.centralizer(sub).order for sub in subs}
        described = {}  # a violation names few subgroups, many times

        def describe(mem):
            if mem not in described:
                described[mem] = _describe(S, mem)
            return described[mem]

        classes = self.subgroup_classes(subs)
        closed = {sub.members: self._hom_states(self._sub_gens(sub), cap)
                  for sub in subs}

        violations = []
        morphisms = 0
        for cls in classes:
            max_norm = max(norm_sub[mem].order for mem in cls)
            max_cent = max(cent_ord[mem] for mem in cls)
            for mem in cls:
                if norm_sub[mem].order != max_norm:
                    continue
                if cent_ord[mem] != max_cent:
                    violations.append(
                        f"axiom I: fully normalized {describe(mem)} is not "
                        f"fully centralized ({cent_ord[mem]} < {max_cent})")
                aut_s = norm_sub[mem].order // cent_ord[mem]
                aut_f = len(closed[mem]) // len(cls)
                if p_part(aut_f, p) != aut_s:
                    violations.append(
                        f"axiom I: Aut_S{describe(mem)} of order {aut_s} is "
                        f"not Sylow in Aut_F of order {aut_f}")
            if len(cls[0]) == 1:
                continue  # morphisms out of the trivial subgroup all extend
            inside = np.zeros((len(cls), S.order), dtype=bool)
            for j, m in enumerate(cls):
                inside[j, list(m)] = True
            full_cent = np.array([cent_ord[m] == max_cent for m in cls])
            for mem in cls:
                P = by_key[mem]
                pgens = self._sub_gens(P)
                states = closed[mem]
                # a state's image is the one member holding all its values
                st = np.array(states, dtype=np.int32).reshape(len(states), -1)
                owner = inside[:, st].all(2).argmax(0)
                checked = full_cent[owner]
                morphisms += int(checked.sum())
                NP = norm_sub[mem]
                if NP.order == P.order:
                    continue  # P <= N_phi <= N_S(P) = P: phi extends itself
                reach, images = self._replay(pgens, states)
                targets = []
                hit = np.bincount(owner[checked], minlength=len(cls))
                for j in np.flatnonzero(hit).tolist():
                    cols = np.flatnonzero(checked & (owner == j))
                    targets.append((by_key[cls[j]], norm_sub[cls[j]], cols))
                n_phi = self._n_phi(reach, NP, images, targets)
                NPm = np.array(NP.members)
                # where N_phi = P, phi extends itself
                for k in np.flatnonzero(n_phi.sum(0) > P.order).tolist():
                    n_mem = tuple(NPm[n_phi[:, k]].tolist())
                    gens_n = self._sub_gens(by_key[n_mem])
                    if states[k] in self._ext_index(gens_n, pgens, cap):
                        continue
                    violations.append(
                        f"axiom II: no extension of {describe(mem)} -> "
                        f"{describe(cls[owner[k]])} to N_phi of order "
                        f"{len(n_mem)}")
        return SaturationReport(not violations, violations,
                                len(classes), morphisms)

    def _n_phi(self, reach, NP: Subgroup, images, targets):
        """N_phi = {g in N_S(P) : phi c_g phi^-1 in Aut_S(Q)} as a mask over
        N_S(P) (rows) for each morphism phi: P -> Q given by a column of
        images of the members of P listed in reach; targets lists (Q,
        N_S(Q), columns onto Q).  Columns not listed stay empty."""
        import numpy as np
        S = self.S
        conj = S.conj_table()[np.array(NP.members)]
        pos_p = np.full(S.order, -1, dtype=np.int32)
        pos_p[reach] = np.arange(len(reach), dtype=np.int32)
        out = np.zeros((NP.order, images.shape[1]), dtype=bool)
        for Q, NQ, cols in targets:
            qgens, pos_q, radix, codes = self._aut_s_codes(Q, NQ)
            for lo in range(0, len(cols), _N_PHI_BATCH):
                batch = cols[lo:lo + _N_PHI_BATCH]
                phi = images[:, batch]
                r = np.arange(len(batch))[:, None]
                pre = np.empty((len(batch), S.order), dtype=np.int32)
                pre[r, phi.T] = reach  # phi^-1 on Q
                # row g, column phi: phi c_g phi^-1 at Q's generators
                values = phi[pos_p[conj[:, pre[:, qgens]]], r]
                found = pos_q[values] @ radix
                at = np.searchsorted(codes, found).clip(max=len(codes) - 1)
                out[:, batch] = codes[at] == found
        return out

    def _aut_s_codes(self, Q: Subgroup, NQ: Subgroup) -> tuple:
        """(Q's generators, position in Q of each element of S or -1,
        radix, sorted codes): the values of the inner conjugations by N_S(Q)
        at Q's generators, each row read as its positions in Q in base |Q|.
        The codes stay below |Q|^k for k generators, so k is checked to keep
        them inside int64."""
        hit = self._aut_s_cache.get(Q.members)
        if hit is not None:
            return hit
        import numpy as np
        S = self.S
        qgens = np.array(self._sub_gens(Q), dtype=np.int32)
        if Q.order ** len(qgens) > 2 ** 63:
            raise FusionRepError(
                f"Aut_S(Q) codes in base {Q.order} on {len(qgens)} generators "
                "pass the int64 bound")
        pos_q = np.full(S.order, -1, dtype=np.int64)
        pos_q[np.array(Q.members)] = np.arange(Q.order)
        radix = Q.order ** np.arange(len(qgens), dtype=np.int64)
        rows = S.conj_table()[np.ix_(np.array(NQ.members), qgens)]
        codes = np.sort(pos_q[rows] @ radix)
        codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
        out = (qgens, pos_q, radix, codes)
        self._aut_s_cache[Q.members] = out
        return out

    def _ext_index(self, gens_n: tuple, pgens: tuple, cap: int) -> frozenset:
        """Values at pgens of every closed morphism out of <gens_n>.  The
        morphisms are replayed once per gens_n, and each pgens reads its
        rows off that replay."""
        hit = self._ext_index_cache.get(gens_n)
        if hit is None:
            reach, images = self._replay(gens_n, self._hom_states(gens_n, cap))
            hit = self._ext_index_cache[gens_n] = (
                {g: i for i, g in enumerate(reach)}, images, {})
        at, images, index = hit
        if pgens not in index:
            index[pgens] = frozenset(
                zip(*images[[at[g] for g in pgens]].tolist()))
        return index[pgens]


def _describe(S: FiniteGroup, members) -> str:
    gens = _small_gens(S, members)
    if not gens:
        return "<1>"
    return "<" + ", ".join(S.describe_element(g) for g in gens) + ">"


def build_fusion(S: FiniteGroup, generators=()) -> FusionSystem:
    """The fusion system on S generated by inner maps plus the given homs."""
    return FusionSystem(S, tuple(generators))
