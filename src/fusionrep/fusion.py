"""Fusion systems over finite p-groups, presented by generating morphisms.

A fusion system here is the one generated by inner conjugation together with
a finite list of injective homomorphisms between subgroups of S.  Everything
is computed by closure: element classes by graph reachability, morphism sets
by a breadth-first search over generator-image tuples (post-compose with an
inner conjugation, a listed generator, or a generator inverse, whenever the
current image lies in the relevant domain).  The search is exact for
generated systems, where every morphism is a composite of restrictions of
the listed maps, their inverses, and inner conjugations.
"""

from __future__ import annotations

from .errors import (
    DomainNotSubgroup,
    GeneratorMovesA,
    GroupMismatch,
    MorphismCapExceeded,
    NotAPrimePowerGroup,
    NotCentral,
    NotInjective,
    SaturationCapExceeded,
)
from .permgroup import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    compose,
    coset_action,
    core_p,
    group_prime,
    make_hom,
    p_part,
)

DEFAULT_MORPHISM_CAP = 1_000_000
DEFAULT_SATURATION_ORDER_CAP = 128


def _small_gens(G: FiniteGroup, members) -> tuple:
    """A short generating sequence for a known subgroup member set."""
    mem = sorted(members)
    if len(mem) == 1:
        return ()
    gens = []
    for m in mem:
        if gens and m in have:
            continue
        if not gens and m == G.identity:
            continue
        gens.append(m)
        have = set(G.closure(tuple(gens)))
        if len(have) == len(mem):
            return tuple(gens)
    raise AssertionError("member set was not closed")


class MorphismSet:
    """All F-isomorphisms between members of a tracked subgroup family."""

    def __init__(self, family: tuple, table: dict):
        self.family = family
        self._table = table

    def isos(self, i: int, j: int) -> tuple:
        return self._table.get((i, j), ())

    def aut(self, i: int) -> tuple:
        return self.isos(i, i)

    def __len__(self):
        return sum(len(v) for v in self._table.values())


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
            phi.validate()
        self._inverses = tuple(phi.inverse() for phi in self.generators)
        self._element_classes = None
        self._element_class_of = None
        self._hom_cache = {}
        self._recipe_cache = {}
        self._conj_set_cache = {}
        self._ext_index_cache = {}

    # -- element classes --

    def element_classes(self) -> tuple:
        """F-classes of elements, each sorted, ordered by minimal member."""
        if self._element_classes is None:
            self._element_classes, self._element_class_of = (
                self._compute_element_classes())
        return self._element_classes

    def element_class_of(self) -> tuple:
        self.element_classes()
        return self._element_class_of

    def _compute_element_classes(self):
        S = self.S
        n = S.order
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        for g in S.gen_indices:
            for x in range(n):
                union(x, S.conj(g, x))
        for phi in self.generators:
            for x in phi.domain.members:
                union(x, phi.apply(x))
        groups = {}
        for x in range(n):
            groups.setdefault(find(x), []).append(x)
        classes = tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))
        assert classes[0] == (S.identity,), "identity fused with something"
        class_of = [0] * n
        for k, c in enumerate(classes):
            for x in c:
                class_of[x] = k
        return classes, tuple(class_of)

    # -- morphism closure over generator-image states --

    def _hom_states(self, gens: tuple, cap: int) -> tuple:
        """All F-morphisms out of <gens> as image tuples aligned with gens."""
        hit = self._hom_cache.get(gens)
        if hit is not None:
            return hit
        S = self.S
        start = tuple(gens)
        seen = {start}
        frontier = [start]
        while frontier:
            new = []
            for st in frontier:
                candidates = [tuple(S.conj(g, x) for x in st)
                              for g in S.gen_indices]
                for phi, inv in zip(self.generators, self._inverses):
                    if all(phi.domain.contains(x) for x in st):
                        candidates.append(tuple(phi.apply(x) for x in st))
                    if all(inv.domain.contains(x) for x in st):
                        candidates.append(tuple(inv.apply(x) for x in st))
                for t in candidates:
                    if t not in seen:
                        if len(seen) >= cap:
                            raise MorphismCapExceeded(
                                f"morphism closure exceeds cap {cap}")
                        seen.add(t)
                        new.append(t)
            frontier = new
        out = tuple(sorted(seen))
        self._hom_cache[gens] = out
        return out

    def _sub_gens(self, P: Subgroup) -> tuple:
        if P.order == 1:
            return ()
        if 0 < len(P.gen_indices) <= 3:
            return P.gen_indices
        return _small_gens(self.S, P.members)

    def _recipe(self, gens: tuple):
        """(domain Subgroup, steps) where replaying steps extends any
        generator-image state to a full map.  steps[k] = (y, x, i) meaning
        image[y] = image[x] * state[i]."""
        hit = self._recipe_cache.get(gens)
        if hit is not None:
            return hit
        S = self.S
        dom = S.subgroup(gens) if gens else S.trivial_subgroup()
        steps = []
        seen = {S.identity}
        frontier = [S.identity]
        while frontier:
            new = []
            for x in frontier:
                for i, g in enumerate(gens):
                    y = S.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        steps.append((y, x, i))
                        new.append(y)
            frontier = new
        out = (dom, tuple(steps))
        self._recipe_cache[gens] = out
        return out

    def _full_hom(self, gens: tuple, state: tuple) -> GroupHom:
        """Extend a generator-image state to a full GroupHom.  States come
        from composing genuine homomorphisms, so no re-validation is done."""
        S = self.S
        dom, steps = self._recipe(gens)
        img = {S.identity: S.identity}
        for y, x, i in steps:
            img[y] = S.mul(img[x], state[i])
        return GroupHom(dom, S, tuple(img[m] for m in dom.members))

    @staticmethod
    def _owning_member(st: tuple, member_sets: list):
        for j, fs in enumerate(member_sets):
            if all(x in fs for x in st):
                return j
        return None

    def subgroup_class(self, P: Subgroup, cap: int = DEFAULT_MORPHISM_CAP) -> tuple:
        """The F-conjugates of P, as sorted member tuples (P included)."""
        self.S._check_parent(P)
        if P.order == 1:
            return ((self.S.identity,),)
        gens = self._sub_gens(P)
        found = [P.members]
        found_sets = [frozenset(P.members)]
        for st in self._hom_states(gens, cap):
            if self._owning_member(st, found_sets) is None:
                img = tuple(self.S.closure(st))
                found.append(img)
                found_sets.append(frozenset(img))
        return tuple(sorted(found))

    def morphism_closure(self, family, cap: int = DEFAULT_MORPHISM_CAP) -> MorphismSet:
        """Full-map F-isomorphisms between family members."""
        family = tuple(family)
        for P in family:
            self.S._check_parent(P)
        table = {}
        total = 0
        for i, P in enumerate(family):
            gens = self._sub_gens(P)
            sets_of_same_order = [
                (j, frozenset(Q.members)) for j, Q in enumerate(family)
                if Q.order == P.order
            ]
            for st in self._hom_states(gens, cap):
                j = None
                for jj, fs in sets_of_same_order:
                    if all(x in fs for x in st):
                        j = jj
                        break
                if j is None:
                    continue
                total += 1
                if total > cap:
                    raise MorphismCapExceeded(f"morphism closure exceeds cap {cap}")
                table.setdefault((i, j), []).append(self._full_hom(gens, st))
        table = {k: tuple(sorted(v, key=lambda h: h.images))
                 for k, v in table.items()}
        return MorphismSet(family, table)

    def aut_count(self, P: Subgroup, cap: int = DEFAULT_MORPHISM_CAP) -> int:
        """|Aut_F(P)| without materializing full maps."""
        if P.order == 1:
            return 1
        gens = self._sub_gens(P)
        mem = frozenset(P.members)
        return sum(1 for st in self._hom_states(gens, cap)
                   if all(x in mem for x in st))

    def aut_F(self, P: Subgroup, cap: int = DEFAULT_MORPHISM_CAP) -> tuple:
        """Aut_F(P) as full-map GroupHoms P -> P (inside S)."""
        if P.order == 1:
            return (GroupHom(self.S.trivial_subgroup(), self.S,
                             (self.S.identity,)),)
        gens = self._sub_gens(P)
        mem = frozenset(P.members)
        out = [self._full_hom(gens, st)
               for st in self._hom_states(gens, cap)
               if all(x in mem for x in st)]
        return tuple(sorted(out, key=lambda h: h.images))

    # -- centric / radical --

    def is_centric(self, P: Subgroup, cap: int = DEFAULT_MORPHISM_CAP) -> bool:
        for mem in self.subgroup_class(P, cap):
            Q = self.S.subgroup_from_members(mem)
            C = self.S.centralizer(Q)
            if not all(Q.contains(x) for x in C.members):
                return False
        return True

    def is_radical(self, P: Subgroup, cap: int = DEFAULT_MORPHISM_CAP) -> bool:
        """O_p(Out_F(P)) = 1, with Out_F(P) realized by left translation on
        the cosets of Inn(P) inside Aut_F(P) (both as permutations of P)."""
        if P.order == 1:
            return True
        auts = self.aut_F(P, cap)
        perms = sorted(
            tuple(P.pos(phi.apply(m)) for m in P.members) for phi in auts
        )
        inn = sorted(
            set(tuple(P.pos(self.S.conj(g, m)) for m in P.members)
                for g in P.members)
        )
        if len(inn) == len(perms):
            return True
        if len(inn) == 1:
            elements = perms  # Out = Aut acts faithfully on P itself
        else:
            coset_of = {}
            reps = []
            for q in perms:
                if q in coset_of:
                    continue
                rid = len(reps)
                reps.append(q)
                for h in inn:
                    coset_of[compose(q, h)] = rid
            elements = sorted(tuple(coset_of[compose(r, s)] for s in reps)
                              for r in reps)
        gens = _perm_set_gens(elements)
        out_group = FiniteGroup(len(elements[0]), gens, tuple(elements))
        if out_group.order % self.p != 0:
            return True
        return core_p(out_group, self.p).order == 1

    # -- saturation --

    def check_saturation(
        self,
        order_cap: int = DEFAULT_SATURATION_ORDER_CAP,
        allow_large: bool = False,
        cap: int = DEFAULT_MORPHISM_CAP,
        subgroup_cap: int = None,
    ) -> SaturationReport:
        """Exhaustive test of the two saturation axioms over all subgroups.

        Axiom one is checked at every fully normalized member of every
        F-class of subgroups (fully centralized + Sylow condition); axiom two
        searches, for every closed morphism onto a fully centralized member,
        an extension to its N_phi among closed morphisms out of N_phi.
        """
        S = self.S
        if S.order > order_cap and not allow_large:
            raise SaturationCapExceeded(
                f"|S| = {S.order} exceeds saturation cap {order_cap}; "
                "rerun with the large-order flag to force the check")
        if S.order == 1:
            return SaturationReport(True, [], 1, 0)
        p = self.p
        subs = (S.all_subgroups() if subgroup_cap is None
                else S.all_subgroups(subgroup_cap))
        by_key = {sub.members: sub for sub in subs}
        norm_sub = {sub.members: S.normalizer(sub) for sub in subs}
        cent_ord = {sub.members: S.centralizer(sub).order for sub in subs}

        seen = set()
        classes = []
        for sub in sorted(subs, key=lambda q: q.members):
            if sub.members in seen:
                continue
            cls = self.subgroup_class(sub, cap)
            seen.update(cls)
            classes.append(cls)

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
                        f"axiom I: fully normalized {_describe(S, mem)} is not "
                        f"fully centralized ({cent_ord[mem]} < {max_cent})")
                aut_s = norm_sub[mem].order // cent_ord[mem]
                aut_f = self.aut_count(by_key[mem], cap)
                if p_part(aut_f, p) != aut_s:
                    violations.append(
                        f"axiom I: Aut_S{_describe(S, mem)} of order {aut_s} is "
                        f"not Sylow in Aut_F of order {aut_f}")
            if len(cls[0]) == 1:
                continue  # morphisms out of the trivial subgroup all extend
            member_sets = [frozenset(m) for m in cls]
            for mem in cls:
                P = by_key[mem]
                pgens = self._sub_gens(P)
                for st in self._hom_states(pgens, cap):
                    j = self._owning_member(st, member_sets)
                    img = cls[j]
                    if cent_ord[img] != max_cent:
                        continue
                    morphisms += 1
                    self._axiom_two(P, pgens, st, by_key[img], norm_sub,
                                    cap, violations)
        return SaturationReport(not violations, violations,
                                len(classes), morphisms)

    def _conj_set(self, Q: Subgroup, qgens: tuple, NQ: Subgroup) -> frozenset:
        """Values of inner conjugations of N_S(Q) at Q's generators."""
        key = Q.members
        hit = self._conj_set_cache.get(key)
        if hit is not None:
            return hit
        S = self.S
        out = frozenset(tuple(S.conj(h, q) for q in qgens)
                        for h in NQ.members)
        self._conj_set_cache[key] = out
        return out

    def _ext_index(self, gens_n: tuple, pgens: tuple, cap: int) -> frozenset:
        """Values at pgens of every closed morphism out of <gens_n>."""
        key = (gens_n, pgens)
        hit = self._ext_index_cache.get(key)
        if hit is not None:
            return hit
        S = self.S
        dom, steps = self._recipe(gens_n)
        vals = set()
        for st in self._hom_states(gens_n, cap):
            img = {S.identity: S.identity}
            for y, x, i in steps:
                img[y] = S.mul(img[x], st[i])
            vals.add(tuple(img[pg] for pg in pgens))
        out = frozenset(vals)
        self._ext_index_cache[key] = out
        return out

    def _axiom_two(self, P: Subgroup, pgens: tuple, st: tuple, Q: Subgroup,
                   norm_sub: dict, cap: int, violations: list):
        S = self.S
        phi = self._full_hom(pgens, st)
        pre = {v: m for m, v in zip(phi.domain.members, phi.images)}
        qgens = self._sub_gens(Q)
        NQ = norm_sub[Q.members]
        conj_set = self._conj_set(Q, qgens, NQ)
        NP = norm_sub[P.members]
        n_phi = [
            g for g in NP.members
            if tuple(phi.apply(S.conj(g, pre[q])) for q in qgens) in conj_set
        ]
        if len(n_phi) == P.order:
            return  # N_phi = P and phi extends itself
        gens_n = _small_gens(S, n_phi)
        if st in self._ext_index(gens_n, pgens, cap):
            return
        violations.append(
            f"axiom II: no extension of {_describe(S, P.members)} -> "
            f"{_describe(S, Q.members)} to N_phi of order {len(n_phi)}")


def _perm_set_gens(perms) -> tuple:
    """Small generating set for a set of permutations known to be a group."""
    n = len(perms)
    idp = tuple(range(len(perms[0])))
    if n == 1:
        return (idp,)
    gens = []
    for q in perms:
        if q == idp or (gens and q in have):
            continue
        gens.append(q)
        have = {idp}
        frontier = [idp]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = compose(x, g)
                    if y not in have:
                        have.add(y)
                        new.append(y)
            frontier = new
        if len(have) == n:
            return tuple(gens)
    raise AssertionError("permutation set was not a group")


def _describe(S: FiniteGroup, members) -> str:
    gens = _small_gens(S, members)
    if not gens:
        return "<1>"
    return "<" + ", ".join(S.describe_element(g) for g in gens) + ">"


def build_fusion(S: FiniteGroup, generators=()) -> FusionSystem:
    """The fusion system on S generated by inner maps plus the given homs."""
    return FusionSystem(S, tuple(generators))


def quotient_fusion(F: FusionSystem, A: Subgroup) -> FusionSystem:
    """Quotient fusion system on S/A for central A fixed pointwise by every
    generator.  The result carries .projection (element index of S -> element
    index of S/A) and .big_group, for callers that match data through the
    quotient."""
    S = F.S
    S._check_parent(A)
    Z = S.center()
    if not all(Z.contains(x) for x in A.members):
        raise NotCentral("quotient kernel is not inside the center")
    for phi in F.generators:
        for a in A.members:
            if phi.domain.contains(a) and phi.apply(a) != a:
                raise GeneratorMovesA(
                    "a fusion generator moves an element of the kernel")
    Sq, proj = coset_action(S, A)
    gens_q = []
    for phi in F.generators:
        dom_members = sorted(set(proj[m] for m in phi.domain.members))
        pre = {}
        for m in phi.domain.members:
            pre.setdefault(proj[m], m)
        dom_gens = _small_gens(Sq, dom_members)
        dom_q = Sq.subgroup(dom_gens) if dom_gens else Sq.trivial_subgroup()
        images = tuple(proj[phi.apply(pre[g])] for g in dom_gens)
        gens_q.append(make_hom(dom_q, images, Sq))
    Fq = FusionSystem(Sq, tuple(gens_q))
    Fq.projection = proj
    Fq.big_group = S
    return Fq
