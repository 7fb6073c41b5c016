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

Everything here runs on the generating maps and the rows of S's
multiplication table, the saturation check included.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .errors import (
    DomainNotSubgroup,
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
)

DEFAULT_MORPHISM_CAP = 1_000_000


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


def _picker(keys):
    """itemgetter(*keys), with a tuple for one key too."""
    if len(keys) == 1:
        key = keys[0]
        return lambda seq: (seq[key],)
    return itemgetter(*keys)


def _conjugation_cosets(S: FiniteGroup, N: Subgroup, gens) -> dict:
    """The members of N by their conjugation at gens: the values g x g^-1
    at the x in gens -> the g with those values, in order.  When N
    normalizes <gens>, these are the cosets of C_N(<gens>) in N, one for
    each automorphism of <gens> that N induces."""
    t = S.rows()
    out = {}
    for g in N.members:
        row, g_inv = t[g], S.inv(g)
        out.setdefault(tuple([t[row[x]][g_inv] for x in gens]), []).append(g)
    return out


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
        self._ext_index_cache = {}  # (gens_n, pgens) -> values at pgens

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
        maps = self._step_maps()
        seen = {tuple(gens)}
        frontier = list(seen) if gens else []
        while frontier:
            new = set()
            for state in frontier:
                new.update(map(_picker(state), maps))
            new = {image for image in new - seen if -1 not in image}
            seen |= new
            if len(seen) > cap:
                raise MorphismCapExceeded(f"morphism closure exceeds cap {cap}")
            frontier = new
        out = tuple(sorted(seen))
        self._hom_cache[gens] = out
        return out

    def _step_maps(self) -> tuple:
        """The maps a state is post-composed with, as tuples over S (-1
        outside the domain): conjugation by each generator of S, then each
        listed generator and its inverse."""
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

    def _values(self, gens: tuple, xs, states) -> list:
        """For each state (the images of gens of a map), its values at xs,
        members of <gens>, as a tuple.  They are read off the walk of gens,
        phi(reach[k]) = phi(reach[back[k]]) phi(gens[via[k]]), along the
        steps that lead to xs alone, each step for all states at once."""
        S = self.S
        reach, back, via, _ = S.walk(gens)
        at = {x: k for k, x in enumerate(reach)}
        want = [at[x] for x in xs]
        need = set()
        for k in want:
            while k and k not in need:
                need.add(k)
                k = back[k]
        t = S.rows()
        images = [[state[v] for state in states] for v in range(len(gens))]
        cols = {0: [S.identity] * len(states)}
        for k in sorted(need):
            cols[k] = [t[x][g] for x, g in zip(cols[back[k]], images[via[k]])]
        return list(zip(*[cols[k] for k in want]))

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
        size of P's one closure over that of its class.  Everything runs on
        the rows of the multiplication table.  N_phi, the g in N_S(P) with
        c_g in phi^-1 Aut_S(Q) phi on P, is a union of cosets of C_S(P)
        (_extension_domains), and each phi is replayed only at the
        conjugates of P's generators.  N_phi is one of the enumerated
        subgroups and takes its generators from there; the values at P's
        generators of the closed morphisms out of N_phi are read off one
        replay per pair of generator sets (_ext_index).

        The check runs on a group of any order.  The work is bounded by
        cap, the morphisms closed out of each subgroup, and subgroup_cap,
        the closures H<g> that the layered subgroup enumeration builds;
        exceeding either raises a CapExceeded.  allow_large
        is accepted and ignored: it once lifted an order cap, and
        perfbench/trace_job.py still passes it.
        """
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
        auts = {}  # Q's members -> (h, h^-1) for each c_h in Aut_S(Q)

        def aut_s_of(Q: Subgroup) -> list:
            if Q.members not in auts:
                cosets = _conjugation_cosets(S, norm_sub[Q.members],
                                             self._sub_gens(Q)).values()
                auts[Q.members] = [(c[0], S.inv(c[0])) for c in cosets]
            return auts[Q.members]

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
            holders = {}  # element -> the members of cls holding it
            for j, m in enumerate(cls):
                for x in m:
                    holders.setdefault(x, set()).add(j)
            full_cent = [cent_ord[m] == max_cent for m in cls]
            for mem in cls:
                P = by_key[mem]
                NP = norm_sub[mem]
                checked = []  # (state, its image's position in cls)
                for state in closed[mem]:
                    # a state's image is the one member holding all its values
                    j = min(set.intersection(*[holders[x] for x in state]))
                    if full_cent[j]:
                        checked.append((state, j))
                morphisms += len(checked)
                if NP.order == P.order:
                    continue  # P <= N_phi <= N_S(P) = P: phi extends itself
                pgens = self._sub_gens(P)
                n_phis = self._extension_domains(
                    pgens, NP, by_key,
                    [(state, aut_s_of(by_key[cls[j]])) for state, j in checked])
                for (state, j), (n_mem, gens_n) in zip(checked, n_phis):
                    if (len(n_mem) == P.order  # phi extends itself
                            or state in self._ext_index(gens_n, pgens, cap)):
                        continue
                    violations.append(
                        f"axiom II: no extension of {describe(mem)} -> "
                        f"{describe(cls[j])} to N_phi of order {len(n_mem)}")
        return SaturationReport(not violations, violations,
                                len(classes), morphisms)

    def _extension_domains(self, pgens: tuple, NP: Subgroup, by_key: dict,
                           morphisms: list) -> list:
        """N_phi = {g in N_S(P) : c_g in phi^-1 Aut_S(Q) phi on P} as
        (members, generators) for each morphism phi: P -> Q, given as its
        state and Aut_S(Q) (one (h, h^-1) for each automorphism).

        N_S(P) falls into the cosets of C_S(P), one for each c_g in
        Aut_S(P), keyed by the values g x g^-1 at P's generators x.  g lies
        in N_phi exactly when some h in N_S(Q) has h phi(x) h^-1 =
        phi(g x g^-1) at each x, since the phi(x) generate Q.  So phi is
        replayed at the conjugates alone, and N_phi is the union of the
        cosets that the conjugations of Aut_S(Q) hit; by_key gives the
        subgroup, once for each set of cosets hit.  When N_S(P) = C_S(P),
        N_phi = N_S(P) with no replay."""
        cosets = _conjugation_cosets(self.S, NP, pgens)
        if len(cosets) == 1:
            return [(NP.members, self._sub_gens(by_key[NP.members]))
                    ] * len(morphisms)
        r = len(pgens)
        values = self._values(pgens, list(chain.from_iterable(cosets)),
                              [state for state, _ in morphisms])
        cosets = list(cosets.values())
        t = self.S.rows()
        domains = {}  # indices of the cosets hit -> (members, generators)
        out = []
        for (state, aut), img in zip(morphisms, values):
            # phi(g x g^-1) at P's generators x -> the coset of g
            coset_of = {img[r * i:r * i + r]: i for i in range(len(cosets))}
            hit = []
            for h, h_inv in aut:
                row = t[h]
                i = coset_of.get(tuple([t[row[y]][h_inv] for y in state]))
                if i is not None:
                    hit.append(i)
            hit = tuple(sorted(hit))
            if hit not in domains:
                members = tuple(sorted(chain.from_iterable(
                    cosets[i] for i in hit)))
                domains[hit] = (members, self._sub_gens(by_key[members]))
            out.append(domains[hit])
        return out

    def _ext_index(self, gens_n: tuple, pgens: tuple, cap: int) -> frozenset:
        """Values at pgens of every closed morphism out of <gens_n>, read
        off the paths to pgens in the walk of gens_n (_values), once per
        pair (gens_n, pgens)."""
        key = (gens_n, pgens)
        if key not in self._ext_index_cache:
            self._ext_index_cache[key] = frozenset(self._values(
                gens_n, pgens, self._hom_states(gens_n, cap)))
        return self._ext_index_cache[key]


def _describe(S: FiniteGroup, members) -> str:
    gens = _small_gens(S, members)
    if not gens:
        return "<1>"
    return "<" + ", ".join(S.describe_element(g) for g in gens) + ">"


def build_fusion(S: FiniteGroup, generators=()) -> FusionSystem:
    """The fusion system on S generated by inner maps plus the given homs."""
    return FusionSystem(S, tuple(generators))
