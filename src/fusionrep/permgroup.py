"""Finite permutation groups with exact integer machinery.

Elements are permutations in one-line notation: tuples of 0-based images.
A group stores its full (lexicographically sorted) element list, so element
indices are canonical and deterministic.  Groups of order <= _TABLE_LIMIT get
a numpy multiplication table; larger groups fall back to tuple composition.

External notation (parsing and printing) is 1-based cycle notation.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import (
    EvenPrime,
    GroupMismatch,
    InputError,
    NotAHomomorphism,
    NotAPermutation,
    NotASubgroup,
    NotInjective,
    OrderCapExceeded,
    SubgroupEnumerationCapExceeded,
)

Perm = tuple  # tuple[int, ...], images in one-line notation

_TABLE_LIMIT = 4096  # above this order no dense multiplication table is built

DEFAULT_ORDER_CAP = 20000
DEFAULT_SUBGROUP_CAP = 100000


# --- permutation utilities ---------------------------------------------------

def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[i] for i in q)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    seen = [False] * len(p)
    n = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        n = n * length // gcd(n, length)
    return n


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation like "(1 2 3)(4 5)"; "()" is the identity."""
    s = text.strip()
    if s in ("", "()"):
        return identity_perm(degree)
    if not s.startswith("("):
        raise NotAPermutation(f"expected cycle notation, got {text!r}")
    images = list(range(degree))
    used = set()
    i = 0
    while i < len(s):
        if s[i].isspace():
            i += 1
            continue
        if s[i] != "(":
            raise NotAPermutation(f"unexpected {s[i]!r} in {text!r}")
        j = s.find(")", i)
        if j < 0:
            raise NotAPermutation(f"unbalanced parentheses in {text!r}")
        body = s[i + 1 : j].replace(",", " ").split()
        cycle = []
        for tok in body:
            try:
                v = int(tok)
            except ValueError:
                raise NotAPermutation(f"bad point {tok!r} in {text!r}") from None
            if not 1 <= v <= degree:
                raise NotAPermutation(f"point {v} outside 1..{degree}")
            v -= 1
            if v in used:
                raise NotAPermutation(f"point {v + 1} repeated in {text!r}")
            used.add(v)
            cycle.append(v)
        for k, v in enumerate(cycle):
            images[v] = cycle[(k + 1) % len(cycle)]
        i = j + 1
    return tuple(images)


def format_cycles(p: Perm) -> str:
    """1-based disjoint cycle string; fixed points omitted; identity is "()"."""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = p[j]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


# --- groups ------------------------------------------------------------------

class FiniteGroup:
    """Immutable permutation group with canonical element indexing.

    Construct through build_group / extraspecial_p3 / coset_action.  Lazy
    caches (multiplication table, conjugacy classes) are write-once; all
    public fields are read-only by convention.
    """

    def __init__(self, degree: int, gens: tuple, elements: tuple, names=None):
        self.degree = degree
        self.gens = gens
        self.elements = elements  # sorted tuple of Perm
        self.order = len(elements)
        self.index = {p: i for i, p in enumerate(elements)}
        self.identity = self.index[identity_perm(degree)]
        self.gen_indices = tuple(self.index[g] for g in gens)
        self.names = dict(names) if names else {}  # name -> element index
        self._table = None
        self._inv = None
        self._orders = None
        self._classes = None
        self._class_of = None
        self._chartable = None  # populated by chartable.character_table
        self._subgroups = None

    # -- basics --

    def mul(self, i: int, j: int) -> int:
        t = self.table()
        if t is not None:
            return int(t[i, j])
        return self.index[compose(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        return int(self.inv_array()[i])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def table(self):
        if self.order > _TABLE_LIMIT:
            return None
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self):
        n = self.order
        E = np.array(self.elements, dtype=np.int32)
        key = {p: i for i, p in enumerate(self.elements)}
        table = np.empty((n, n), dtype=np.int32)
        for i in range(n):
            rows = E[i][E]  # rows[j] = elements[i] o elements[j]
            table[i] = [key[tuple(r)] for r in rows.tolist()]
        return table

    def inv_array(self):
        if self._inv is None:
            inv = np.empty(self.order, dtype=np.int32)
            for i, p in enumerate(self.elements):
                inv[i] = self.index[invert(p)]
            self._inv = inv
        return self._inv

    def element_orders(self) -> tuple:
        if self._orders is None:
            self._orders = tuple(perm_order(p) for p in self.elements)
        return self._orders

    def exponent(self) -> int:
        e = 1
        for o in set(self.element_orders()):
            e = e * o // gcd(e, o)
        return e

    def name_of(self, i: int):
        for name, j in self.names.items():
            if j == i:
                return name
        return None

    def describe_element(self, i: int) -> str:
        return self.name_of(i) or format_cycles(self.elements[i])

    def power(self, x: int, n: int) -> int:
        """x^n, n may be negative."""
        if n < 0:
            x, n = self.inv(x), -n
        acc = self.identity
        for _ in range(n):
            acc = self.mul(acc, x)
        return acc

    # -- conjugacy classes --

    def conjugacy_classes(self) -> tuple:
        """Classes as sorted index tuples, ordered by (rep order, min index)."""
        if self._classes is None:
            self._classes, self._class_of = self._compute_classes()
        return self._classes

    def class_of(self) -> tuple:
        self.conjugacy_classes()
        return self._class_of

    def _compute_classes(self):
        orders = self.element_orders()
        seen = [False] * self.order
        classes = []
        for i in range(self.order):
            if seen[i]:
                continue
            orbit = {i}
            frontier = [i]
            seen[i] = True
            while frontier:
                x = frontier.pop()
                for g in self.gen_indices:
                    y = self.conj(g, x)
                    if y not in orbit:
                        orbit.add(y)
                        seen[y] = True
                        frontier.append(y)
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda c: (orders[c[0]], c[0]))
        class_of = [0] * self.order
        for k, c in enumerate(classes):
            for x in c:
                class_of[x] = k
        return tuple(classes), tuple(class_of)

    # -- subgroups --

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)), self.gen_indices)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (self.identity,), ())

    def subgroup(self, gen_indices) -> "Subgroup":
        gen_indices = tuple(gen_indices)
        return Subgroup(self, self.closure(gen_indices), gen_indices)

    def subgroup_from_members(self, members) -> "Subgroup":
        members = tuple(sorted(members))
        sub = Subgroup(self, members, members)
        if not sub.is_closed():
            raise NotASubgroup("member set is not closed under multiplication")
        return sub

    def closure(self, gen_indices) -> Perm:
        """Sorted member indices of the subgroup generated by gen_indices."""
        t = self.table()
        current = {self.identity}
        current.update(int(g) for g in gen_indices)
        frontier = sorted(current)
        members = sorted(current)
        while frontier:
            if t is not None:
                mem = np.fromiter(members, dtype=np.int32, count=len(members))
                fr = np.fromiter(frontier, dtype=np.int32, count=len(frontier))
                prods = np.concatenate(
                    [t[np.ix_(fr, mem)].ravel(), t[np.ix_(mem, fr)].ravel()]
                )
                new = set(np.unique(prods).tolist()) - current
            else:
                new = set()
                for x in frontier:
                    for y in members:
                        new.add(self.mul(x, y))
                        new.add(self.mul(y, x))
                new -= current
            current.update(new)
            members = sorted(current)
            frontier = sorted(new)
        return tuple(members)

    def centralizer(self, sub: "Subgroup") -> "Subgroup":
        self._check_parent(sub)
        gens = sub.gen_indices or sub.members
        members = [
            g
            for g in range(self.order)
            if all(self.mul(g, x) == self.mul(x, g) for x in gens)
        ]
        return Subgroup(self, tuple(members), tuple(members))

    def normalizer(self, sub: "Subgroup") -> "Subgroup":
        self._check_parent(sub)
        mset = set(sub.members)
        gens = sub.gen_indices or sub.members
        members = [
            g for g in range(self.order) if all(self.conj(g, x) in mset for x in gens)
        ]
        return Subgroup(self, tuple(members), tuple(members))

    def center(self) -> "Subgroup":
        return self.centralizer(self.full_subgroup())

    def conjugate_subgroup(self, sub: "Subgroup", g: int) -> "Subgroup":
        members = tuple(sorted(self.conj(g, x) for x in sub.members))
        gens = tuple(self.conj(g, x) for x in sub.gen_indices)
        return Subgroup(self, members, gens)

    def all_subgroups(self, cap: int = DEFAULT_SUBGROUP_CAP) -> list:
        if self._subgroups is None:
            self._subgroups = self._enumerate_subgroups(cap)
        return list(self._subgroups)

    def _enumerate_subgroups(self, cap: int) -> tuple:
        """All subgroups: cyclic ones, then closure under pairwise join."""
        candidates = 0
        known = {}  # frozenset of members -> generator tuple
        for i in range(self.order):
            candidates += 1
            if candidates > cap:
                raise SubgroupEnumerationCapExceeded(f"more than {cap} candidates")
            members = self.closure((i,))
            known.setdefault(frozenset(members), (i,))
        work = list(known.items())
        while work:
            new_work = []
            items = list(known.items())
            for fs_a, gens_a in work:
                for fs_b, gens_b in items:
                    if fs_a <= fs_b or fs_b <= fs_a:
                        continue
                    candidates += 1
                    if candidates > cap:
                        raise SubgroupEnumerationCapExceeded(
                            f"more than {cap} candidates"
                        )
                    gens = tuple(dict.fromkeys(gens_a + gens_b))
                    fs = frozenset(self.closure(gens))
                    if fs not in known:
                        known[fs] = gens
                        new_work.append((fs, gens))
            work = new_work
        subs = [Subgroup(self, tuple(sorted(fs)), gens) for fs, gens in known.items()]
        subs.sort(key=lambda s: (s.order, s.members))
        return tuple(subs)

    def _check_parent(self, sub: "Subgroup"):
        if sub.parent is not self:
            raise GroupMismatch("subgroup belongs to a different group")

    def __repr__(self):
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


class Subgroup:
    """A subgroup given by its sorted member indices within a parent group."""

    def __init__(self, parent: FiniteGroup, members: tuple, gen_indices: tuple):
        self.parent = parent
        self.members = members
        self.gen_indices = tuple(gen_indices)
        self.order = len(members)
        self._pos = None

    def _positions(self) -> dict:
        if self._pos is None:
            self._pos = {m: k for k, m in enumerate(self.members)}
        return self._pos

    def pos(self, i: int) -> int:
        """Position of parent element i inside self.members."""
        return self._positions()[i]

    def contains(self, i: int) -> bool:
        return i in self._positions()

    def is_closed(self) -> bool:
        if self.parent.identity not in self._positions():
            return False
        t = self.parent.table()
        if t is not None:
            mem = np.fromiter(self.members, dtype=np.int32, count=self.order)
            prods = t[np.ix_(mem, mem)]
            return bool(np.isin(prods, mem).all())
        mset = set(self.members)
        return all(
            self.parent.mul(x, y) in mset for x in self.members for y in self.members
        )

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return set(other.members) <= set(self.members)

    def exponent(self) -> int:
        orders = self.parent.element_orders()
        e = 1
        for m in self.members:
            e = e * orders[m] // gcd(e, orders[m])
        return e

    def key(self) -> frozenset:
        return frozenset(self.members)

    def __repr__(self):
        return f"Subgroup(order={self.order}, parent order={self.parent.order})"


class GroupHom:
    """Homomorphism from a Subgroup into a FiniteGroup.

    images[k] is the codomain element index of domain.members[k].
    """

    def __init__(self, domain: Subgroup, codomain: FiniteGroup, images: tuple):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)

    def apply(self, i: int) -> int:
        return self.images[self.domain.pos(i)]

    def image_members(self) -> tuple:
        return tuple(sorted(self.images))

    def image_subgroup(self) -> Subgroup:
        gens = tuple(self.apply(g) for g in self.domain.gen_indices) or self.images
        return Subgroup(self.codomain, self.image_members(), gens)

    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def validate(self):
        """Exhaustive homomorphism check over all member pairs."""
        G = self.domain.parent
        H = self.codomain
        mem = self.domain.members
        t_dom, t_cod = G.table(), H.table()
        if t_dom is not None and t_cod is not None:
            mem_a = np.fromiter(mem, dtype=np.int32, count=len(mem))
            img_a = np.fromiter(self.images, dtype=np.int32, count=len(self.images))
            img_map = np.full(G.order, -1, dtype=np.int32)
            img_map[mem_a] = img_a
            lhs = img_map[t_dom[np.ix_(mem_a, mem_a)]]
            if (lhs < 0).any():
                raise NotAHomomorphism("domain is not multiplicatively closed")
            rhs = t_cod[np.ix_(img_a, img_a)]
            if not np.array_equal(lhs, rhs):
                raise NotAHomomorphism("images violate the multiplication table")
            return
        img = {m: v for m, v in zip(mem, self.images)}
        for x in mem:
            for y in mem:
                if img[G.mul(x, y)] != H.mul(img[x], img[y]):
                    raise NotAHomomorphism("images violate the multiplication table")

    def restrict(self, sub: Subgroup) -> "GroupHom":
        if sub.parent is not self.domain.parent:
            raise GroupMismatch("restriction target lives in a different group")
        if not set(sub.members) <= set(self.domain.members):
            raise NotASubgroup("restriction target is not inside the domain")
        return GroupHom(sub, self.codomain, tuple(self.apply(m) for m in sub.members))

    def inverse(self) -> "GroupHom":
        if not self.is_injective():
            raise NotInjective("only injective maps invert")
        image = self.image_subgroup()
        pre = {v: m for m, v in zip(self.domain.members, self.images)}
        return GroupHom(image, self.domain.parent,
                        tuple(pre[m] for m in image.members))

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self o other; other's image must land inside self's domain."""
        if not set(other.images) <= set(self.domain.members):
            raise NotASubgroup("composition image escapes the outer domain")
        return GroupHom(
            other.domain,
            self.codomain,
            tuple(self.apply(i) for i in other.images),
        )

    def key(self):
        return (self.domain.members, self.images)

    def __repr__(self):
        return f"GroupHom(|dom|={self.domain.order}, injective={self.is_injective()})"


# --- constructors ------------------------------------------------------------

def build_group(degree: int, gens, cap: int = DEFAULT_ORDER_CAP, names=None) -> FiniteGroup:
    """Group generated by permutations (tuples or 1-based cycle strings)."""
    perms = []
    for g in gens:
        if isinstance(g, str):
            perms.append(parse_cycles(g, degree))
        else:
            p = tuple(int(x) for x in g)
            if sorted(p) != list(range(degree)):
                raise NotAPermutation(f"{g!r} is not a permutation of 0..{degree - 1}")
            perms.append(p)
    elements = {identity_perm(degree)}
    frontier = [identity_perm(degree)]
    while frontier:
        new = []
        for x in frontier:
            for g in perms:
                y = compose(x, g)
                if y not in elements:
                    if len(elements) >= cap:
                        raise OrderCapExceeded(f"order exceeds cap {cap}")
                    elements.add(y)
                    new.append(y)
        frontier = new
    group = FiniteGroup(degree, tuple(perms), tuple(sorted(elements)))
    if names:
        for name, perm in zip(names, perms):
            group.names[name] = group.index[perm]
    return group


_EXTRASPECIAL_CACHE: dict = {}


def extraspecial_p3(p: int) -> FiniteGroup:
    """Extraspecial group of order p^3 and exponent p, p an odd prime.

    Presentation <a, b | a^p = b^p = [a, b]^p = 1, [a, b] central>, with
    c = [a, b], realized faithfully on the p^2 cosets of <b>.  Elements are
    named a, b, c.  Results are cached per p and shared (immutable).
    """
    if p == 2:
        raise EvenPrime("p = 2 has no exponent-p extraspecial group of order 8")
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise InputError(f"{p} is not an odd prime")
    if p in _EXTRASPECIAL_CACHE:
        return _EXTRASPECIAL_CACHE[p]

    def point(i, k):
        return (i % p) * p + (k % p)

    perm_a = [0] * (p * p)
    perm_b = [0] * (p * p)
    perm_c = [0] * (p * p)
    for i in range(p):
        for k in range(p):
            perm_a[point(i, k)] = point(i + 1, k)
            perm_b[point(i, k)] = point(i, k - i)
            perm_c[point(i, k)] = point(i, k + 1)
    group = build_group(p * p, [tuple(perm_a), tuple(perm_b)], cap=p**3 + 1,
                        names=["a", "b"])
    group.names["c"] = group.index[tuple(perm_c)]
    _EXTRASPECIAL_CACHE[p] = group
    return group


def make_hom(domain: Subgroup, gen_images, codomain: FiniteGroup = None,
             require_injective: bool = True) -> GroupHom:
    """Extend generator images multiplicatively and verify the result.

    gen_images aligns with domain.gen_indices.  Raises NotAHomomorphism if the
    images are inconsistent, NotInjective when an injection is required.
    """
    G = domain.parent
    H = codomain if codomain is not None else G
    gens = domain.gen_indices
    if len(gens) != len(gen_images):
        raise InputError("one image per declared generator required")
    img = {G.identity: H.identity}
    frontier = [G.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, gi in zip(gens, gen_images):
                y = G.mul(x, g)
                v = H.mul(img[x], gi)
                if y in img:
                    if img[y] != v:
                        raise NotAHomomorphism("generator images are inconsistent")
                else:
                    img[y] = v
                    new.append(y)
        frontier = new
    if len(img) != domain.order:
        raise InputError("declared generators do not generate the subgroup")
    hom = GroupHom(domain, H, tuple(img[m] for m in domain.members))
    hom.validate()
    if require_injective and not hom.is_injective():
        raise NotInjective("map collapses distinct elements")
    return hom


def coset_action(G: FiniteGroup, N: Subgroup):
    """Left action of G on the cosets of N.

    Returns (quotient FiniteGroup, projection list: element index -> point).
    For normal N the image realizes G/N faithfully.  Coset points are numbered
    by minimal member index; generator names carry over where unambiguous.
    """
    G._check_parent(N)
    coset_of = {}
    reps = []
    for i in range(G.order):
        if i in coset_of:
            continue
        members = sorted(G.mul(i, x) for x in N.members)
        rep = members[0]
        reps.append(rep)
        for m in members:
            coset_of[m] = rep
    reps.sort()
    point = {r: k for k, r in enumerate(reps)}
    degree = len(reps)

    def perm_of(g: int) -> tuple:
        return tuple(point[coset_of[G.mul(g, r)]] for r in reps)

    gen_perms = [perm_of(g) for g in G.gen_indices]
    quotient = build_group(degree, gen_perms, cap=G.order + 1)
    for gi, p in zip(G.gen_indices, gen_perms):
        name = G.name_of(gi)
        if name is not None and name not in quotient.names:
            quotient.names[name] = quotient.index[p]
    projection = [point[coset_of[i]] for i in range(G.order)]
    return quotient, projection


# --- p-group helpers ---------------------------------------------------------

def p_part(n: int, p: int) -> int:
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def is_p_group(order: int, p: int) -> bool:
    while order % p == 0:
        order //= p
    return order == 1


def group_prime(G: FiniteGroup):
    """The prime p with |G| = p^a > 1, or None."""
    n = G.order
    if n == 1:
        return None
    p = min(d for d in range(2, n + 1) if n % d == 0)
    return p if is_p_group(n, p) else None


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """One Sylow p-subgroup, grown through normalizers."""
    target = p_part(G.order, p)
    orders = G.element_orders()
    current = G.trivial_subgroup()
    while current.order < target:
        N = G.normalizer(current)
        mset = set(current.members)
        grown = False
        for x in N.members:
            if x in mset or not is_p_group(orders[x], p):
                continue
            cand = G.subgroup(tuple(current.gen_indices) + (x,))
            if is_p_group(cand.order, p):
                current = cand
                grown = True
                break
        if not grown:  # cannot happen for correct inputs (Sylow theory)
            raise NotASubgroup("sylow growth stalled")
    return current


def core_p(G: FiniteGroup, p: int) -> Subgroup:
    """O_p(G): the intersection of all Sylow p-subgroups."""
    if G.order % p != 0:
        return G.trivial_subgroup()
    syl = sylow_subgroup(G, p)
    start = frozenset(syl.members)
    seen = {start}
    frontier = [start]
    inter = set(syl.members)
    while frontier:
        fs = frontier.pop()
        for g in G.gen_indices:
            img = frozenset(G.conj(g, x) for x in fs)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
                inter &= img
    return G.subgroup_from_members(sorted(inter))


def _pairwise_commutators(G: FiniteGroup, members: tuple) -> set:
    t = G.table()
    inv = G.inv_array()
    if t is not None:
        mem = np.fromiter(members, dtype=np.int32, count=len(members))
        A = t[np.ix_(inv[mem], inv[mem])]  # x^-1 y^-1
        B = t[np.ix_(mem, mem)]  # x y
        return set(np.unique(t[A, B]).tolist())
    out = set()
    for x in members:
        for y in members:
            out.add(G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y)))
    return out


def derived_subgroup(G: FiniteGroup, sub: Subgroup) -> Subgroup:
    """[H, H] for H = sub, as a subgroup of G."""
    comms = _pairwise_commutators(G, sub.members)
    return G.subgroup_from_members(G.closure(tuple(sorted(comms))))


def frattini_maximals(G: FiniteGroup, sub: Subgroup, p: int) -> list:
    """Maximal subgroups of a p-subgroup H: preimages of the hyperplanes of
    the elementary abelian quotient H / Phi(H), Phi(H) = [H,H] H^p."""
    if sub.order == 1:
        return []
    phi_gens = _pairwise_commutators(G, sub.members)
    for x in sub.members:
        phi_gens.add(G.power(x, p))
    phi = G.closure(tuple(sorted(phi_gens)))
    coset_rep = {}
    for m in sub.members:
        if m in coset_rep:
            continue
        block = sorted(G.mul(m, f) for f in phi)
        rep = block[0]
        for b in block:
            coset_rep[b] = rep
    reps = sorted(set(coset_rep.values()))
    id_rep = coset_rep[G.identity]
    basis = []
    vec = {id_rep: ()}
    for r in reps:
        if r in vec:
            continue
        basis.append(r)
        grown = {}
        for cr, v in vec.items():
            grown[cr] = v + (0,)
            acc = cr
            for e in range(1, p):
                acc = coset_rep[G.mul(acc, r)]
                grown[acc] = v + (e,)
        vec = grown
    rank = len(basis)
    if rank == 0:
        return []
    maximals = []
    for f in _functionals(p, rank):
        members = [
            m
            for m in sub.members
            if sum(fc * vc for fc, vc in zip(f, vec[coset_rep[m]])) % p == 0
        ]
        maximals.append(G.subgroup_from_members(members))
    return maximals


def _functionals(p: int, r: int) -> list:
    """Nonzero functionals on F_p^r up to scalar (first nonzero entry 1)."""
    out = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == r:
            if any(prefix):
                lead = next(c for c in prefix if c)
                if lead == 1:
                    out.append(prefix)
            continue
        for c in range(p - 1, -1, -1):
            stack.append(prefix + (c,))
    return out
