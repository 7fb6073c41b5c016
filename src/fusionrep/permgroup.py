"""Finite permutation groups with exact integer machinery.

Elements are permutations in one-line notation: tuples of 0-based images.
A group stores its full (lexicographically sorted) element list, so element
indices are canonical and deterministic.  Groups of order <= _TABLE_LIMIT get
a multiplication table, a tuple of row tuples; larger groups fall back to
tuple composition.  The table is the regular representation grown along the
Cayley graph: each generator's left-multiplication map is composed once from
the tuples, and the row of x o g is the row of x picked through g's map (one
operator.itemgetter per generator), which is exact by associativity; so a
table costs |generators| * |G| tuple compositions and one row pick per
element.  The other layers build on two graph searches: FiniteGroup.walk,
the layered walk of the Cayley graph from the identity (closure, make_hom
and the replay of maps from their generator images), and orbits, the orbits
of injective index maps (conjugacy and fusion classes).

Building a group, its subgroups (the layered enumeration, normalizers and
centralizers, read off the rows t as t[t[g][x]][g^-1] and t[g][x] ==
t[x][g]), homomorphisms and orbits runs in pure Python on the rows of the
table (FiniteGroup.rows, which above _TABLE_LIMIT composes at each
lookup).  The rows are the one form of the table: the other layers, the
character tables and the cocycle check included, read them too.

External notation (parsing and printing) is 1-based cycle notation.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from .errors import (
    EvenPrime,
    GroupMismatch,
    InputError,
    NotAHomomorphism,
    NotAPermutation,
    NotAPrimePowerGroup,
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

    Construct through build_group or extraspecial_p3.  Lazy caches
    (multiplication table, inverses, conjugacy classes, subgroups) are
    write-once; all public fields are read-only by convention.
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
        t = self._table if self._table is not None else self.table()
        if t is not None:
            return t[i][j]
        return self.index[compose(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        return self._inverses()[i]

    def _inverses(self) -> tuple:
        if self._inv is None:
            self._inv = tuple(self.index[invert(p)] for p in self.elements)
        return self._inv

    def table(self):
        """table[i][j] = index(elements[i] o elements[j]) as a tuple of row
        tuples, or None above _TABLE_LIMIT."""
        if self.order > _TABLE_LIMIT:
            return None
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> tuple:
        """The rows of the table, by a breadth-first search of the Cayley
        graph from the identity, whose row is range(|G|).

        For each generator g taken, L_g[j] = index(g o elements[j]) is
        composed once from the tuples.  When the search reaches y = x o g
        from a row x already built, row y is row x picked at L_g, one
        itemgetter call: (x o g) o e = x o (g o e) by associativity, so
        every row is exact.  A generator already reached lies in the
        subgroup the earlier ones generate and is skipped, so the tuple
        compositions are at most |generators taken| * |G| even when every
        member is a generator.  Raises InputError when the generators miss
        an element.
        """
        n = self.order
        rows = [None] * n
        rows[self.identity] = tuple(range(n))
        taken = []  # (index of g, picker of L_g) for the generators taken
        for g, gi in zip(self.gens, self.gen_indices):
            if rows[gi] is not None:
                continue
            # g is not the identity, so n > 1 and the picker returns tuples
            taken.append((gi, itemgetter(
                *[self.index[compose(g, e)] for e in self.elements])))
            queue = [x for x in range(n) if rows[x] is not None]
            for x in queue:  # g acts on all of them
                row = rows[x]
                for h, pick in taken:
                    y = row[h]
                    if rows[y] is None:
                        rows[y] = pick(row)
                        queue.append(y)
        if None in rows:
            raise InputError("declared generators do not generate the group")
        return tuple(rows)

    def rows(self):
        """rows()[x][y] = mul(x, y): the table, or above _TABLE_LIMIT a
        stand-in that composes the two permutations at each lookup."""
        t = self._table if self._table is not None else self.table()
        return t if t is not None else _ComposedRows(self)

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
        """x^n for any integer n, reduced modulo the order of x."""
        acc = self.identity
        for _ in range(n % perm_order(self.elements[x])):
            acc = self.mul(acc, x)
        return acc

    # -- conjugacy classes --

    def conjugacy_classes(self) -> tuple:
        """Classes as sorted index tuples, ordered by (rep order, min index)."""
        if self._classes is None:
            orders = self.element_orders()
            self._classes, self._class_of = orbits(
                self.conjugation_maps(), self.order,
                key=lambda c: (orders[c[0]], c[0]))
        return self._classes

    def class_of(self) -> tuple:
        self.conjugacy_classes()
        return self._class_of

    def conjugation_maps(self) -> tuple:
        """x -> g x g^-1 over the group, as a tuple of indices, for each
        generator g."""
        mul = self.mul
        maps = []
        for g in self.gen_indices:
            g_inv = self.inv(g)
            maps.append(tuple(mul(mul(g, x), g_inv)
                              for x in range(self.order)))
        return tuple(maps)

    # -- subgroups --

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)), self.gen_indices)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (self.identity,), ())

    def subgroup(self, gen_indices) -> "Subgroup":
        gen_indices = tuple(gen_indices)
        return Subgroup(self, self.closure(gen_indices), gen_indices)

    def closure(self, gen_indices) -> Perm:
        """Sorted member indices of the subgroup generated by gen_indices.

        It is the reach of the walk by the powers of the generators, which
        in a finite group give the same monoid, in fewer layers.
        """
        powers = set()
        for g in set(gen_indices):
            x = int(g)
            while x != self.identity:
                powers.add(x)
                x = self.mul(x, g)
        return tuple(sorted(self.walk(sorted(powers))[0]))

    def walk(self, gens) -> tuple:
        """The layered walk of the Cayley graph from the identity by right
        multiplication by gens: (reach, back, via, ends), lists of ints.

        reach lists the elements of <gens>, the identity first, then layer
        by layer; layer j is reach[ends[j]:ends[j + 1]].  For k > 0,
        reach[k] is first reached from reach[back[k]] in the layer before,
        by gens[via[k]]: reach[k] = reach[back[k]] gens[via[k]].  A layer
        takes the frontier in order and each generator in order, and keeps
        the first product that reaches an element.
        """
        gens = [int(g) for g in gens]
        t = self.rows()
        seen = [False] * self.order
        seen[self.identity] = True
        reach, back, via, ends = [self.identity], [0], [0], [0, 1]
        while gens:
            for k in range(ends[-2], ends[-1]):
                row = t[reach[k]]
                for v, g in enumerate(gens):
                    y = row[g]
                    if not seen[y]:
                        seen[y] = True
                        reach.append(y)
                        back.append(k)
                        via.append(v)
            if len(reach) == ends[-1]:
                break
            ends.append(len(reach))
        return reach, back, via, ends

    def centralizer(self, sub: "Subgroup") -> "Subgroup":
        """C(sub): the g with t[g][x] == t[x][g] at each generator x."""
        self._check_parent(sub)
        t = self.rows()
        members = range(self.order)
        for x in sub.gen_indices or sub.members:
            members = [g for g in members if t[g][x] == t[x][g]]
        return Subgroup(self, tuple(members), tuple(members))

    def normalizer(self, sub: "Subgroup") -> "Subgroup":
        self._check_parent(sub)
        members = tuple(self._normalizing(sub, set(sub.members)))
        return Subgroup(self, members, members)

    def _normalizing(self, sub: "Subgroup", inside: set) -> list:
        """N(sub) in order, from sub's member set: the g with
        t[t[g][x]][g^-1] in inside at each generator x of sub."""
        t, inv = self.rows(), self._inverses()
        members = range(self.order)
        for x in sub.gen_indices or sub.members:
            members = [g for g in members if t[t[g][x]][inv[g]] in inside]
        return members

    def all_subgroups(self, cap: int = DEFAULT_SUBGROUP_CAP) -> list:
        """All subgroups of a p-group, ordered by (order, members).  Each
        K > 1 records in K.built_from the pair (H, g) it was built from: H
        is listed before K, normal in K of index p, and K = H<g>.  The
        enumeration is cached with its count of closures H<g> built, so a
        later call with a smaller cap raises as a fresh enumeration would;
        cap may be math.inf.  Raises NotAPrimePowerGroup when the order is
        not a power of a prime."""
        if self._subgroups is None:
            self._subgroups = self._enumerate_subgroups(cap)
        subs, candidates = self._subgroups
        if candidates > cap:
            raise SubgroupEnumerationCapExceeded(f"more than {cap} candidates")
        return list(subs)

    def _enumerate_subgroups(self, cap: int) -> tuple:
        """(all subgroups, closures H<g> built), one order p^i at a time.

        In a p-group every subgroup K > 1 has a normal subgroup H of index
        p, and K = H<g> for every g in K outside H.  Conversely, for g in
        N(H) outside H with g^p in H, H<g> is the union of the cosets
        H g^k, k < p, and has order p|H|.  So the next layer comes from
        walking, for each H of this one, the cosets of H in N(H) other
        than H by their smallest element g: when g^p is in H, H<g> is
        built (one candidate, counted against cap) and all of it is
        crossed off; otherwise only the coset Hg is.  H<g> is generated
        by g when g has order p|H|, else by H's generators and g, so no
        subgroup gets more generators than log_p of its order.
        """
        p = group_prime(self)
        if p is None and self.order > 1:
            raise NotAPrimePowerGroup(f"order {self.order} is not a prime power")
        orders = self.element_orders()
        t = self.rows()
        candidates = 0
        layer = [self.trivial_subgroup()]
        subs = list(layer)
        while layer:
            found = {}  # member set -> Subgroup
            for H in layer:
                inside = set(H.members)
                crossed = set(inside)
                for g in self._normalizing(H, inside):
                    if g in crossed:
                        continue
                    powers = [self.identity]
                    for _ in range(p):
                        powers.append(t[powers[-1]][g])
                    if powers.pop() not in inside:
                        crossed.update([t[h][g] for h in H.members])
                        continue
                    candidates += 1
                    if candidates > cap:
                        raise SubgroupEnumerationCapExceeded(
                            f"more than {cap} candidates")
                    K = frozenset([t[h][y] for h in H.members for y in powers])
                    crossed |= K
                    if K not in found:
                        kmem = tuple(sorted(K))
                        found[K] = Subgroup(
                            self, kmem, (g,) if orders[g] == len(kmem)
                            else H.gen_indices + (g,), built_from=(H, g))
            layer = sorted(found.values(), key=lambda s: s.members)
            subs.extend(layer)
        return tuple(subs), candidates

    def _check_parent(self, sub: "Subgroup"):
        if sub.parent is not self:
            raise GroupMismatch("subgroup belongs to a different group")

    def __repr__(self):
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


class Subgroup:
    """A subgroup given by its sorted member indices within a parent group."""

    def __init__(self, parent: FiniteGroup, members: tuple, gen_indices: tuple,
                 built_from=None):
        self.parent = parent
        self.members = members
        self.gen_indices = tuple(gen_indices)
        self.order = len(members)
        self.built_from = built_from  # (H, g), self = H<g>: see all_subgroups
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

    def __repr__(self):
        return f"Subgroup(order={self.order}, parent order={self.parent.order})"


class _ComposedRows:
    """FiniteGroup.rows of a group above _TABLE_LIMIT: row x, and entry y
    of it, index(elements[x] o elements[y]) composed at each lookup."""

    __slots__ = ("group", "x")

    def __init__(self, group: FiniteGroup, x: int = None):
        self.group = group
        self.x = x

    def __getitem__(self, i: int):
        if self.x is None:
            return _ComposedRows(self.group, i)
        return self.group.mul(self.x, i)


class GroupHom:
    """Homomorphism from a Subgroup into a FiniteGroup; build it with
    make_hom, which proves the map.

    images[k] is the codomain element index of domain.members[k].
    """

    def __init__(self, domain: Subgroup, codomain: FiniteGroup, images: tuple):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)

    def apply(self, i: int) -> int:
        return self.images[self.domain.pos(i)]

    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def __repr__(self):
        return f"GroupHom(|dom|={self.domain.order}, injective={self.is_injective()})"


def orbits(maps, n: int, key=None) -> tuple:
    """(orbits, orbit index of each point) of the group generated by maps
    on range(n), each a sequence of indices, -1 off its domain and
    injective on it; orbits are sorted tuples, ordered by key, else by
    least point.  A union-find: every pair x -> m[x] joins the trees of its
    ends under the smaller root, so each root is the least point of its
    orbit."""
    parent = list(range(n))
    for m in maps:
        for x, y in enumerate(m):
            if y < 0:
                continue
            while parent[x] != x:
                parent[x] = parent[parent[x]]  # path halving
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]  # path halving
                y = parent[y]
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y
    found = {}  # least point -> orbit
    least = []
    for x in range(n):
        r = parent[x]
        while parent[r] != r:
            r = parent[r]
        least.append(r)
        found.setdefault(r, []).append(x)
    classes = tuple(sorted(map(tuple, found.values()), key=key))
    at = {c[0]: k for k, c in enumerate(classes)}
    return classes, tuple(at[r] for r in least)


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
    if not is_prime(p):
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
    """Extend generator images multiplicatively, proving the result.

    gen_images aligns with domain.gen_indices.  The images are replayed
    along the walk of the generators, phi(reach[k]) = phi(reach[back[k]])
    gen_images[via[k]], then phi(x g) = phi(x) phi(g) is checked for every
    element x reached and generator g; that proves phi(x y) = phi(x)
    phi(y), by induction on a word in the generators for y.  Raises NotAHomomorphism if the
    images are inconsistent, InputError if the generators do not give
    the domain's members, NotInjective when an injection is required.
    """
    G = domain.parent
    H = codomain if codomain is not None else G
    if len(domain.gen_indices) != len(gen_images):
        raise InputError("one image per declared generator required")
    gens = domain.gen_indices
    gen_img = [int(h) for h in gen_images]
    reach, back, via, _ = G.walk(gens)
    img = [H.identity]
    for k in range(1, len(reach)):
        img.append(H.mul(img[back[k]], gen_img[via[k]]))
    phi = [-1] * G.order  # phi[x] for x reached
    for x, fx in zip(reach, img):
        phi[x] = fx
    for x, fx in zip(reach, img):
        for g, h in zip(gens, gen_img):
            if phi[G.mul(x, g)] != H.mul(fx, h):
                raise NotAHomomorphism("generator images are inconsistent")
    images = tuple(phi[m] for m in domain.members)
    if len(reach) != domain.order or -1 in images:
        raise InputError("declared generators do not generate the subgroup")
    hom = GroupHom(domain, H, images)
    if require_injective and not hom.is_injective():
        raise NotInjective("map collapses distinct elements")
    return hom


# --- p-group helpers ---------------------------------------------------------

_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41, which decides primality
    below _MILLER_RABIN_BOUND (Sorenson and Webster, Math. Comp. 86, 2017);
    InputError from there on."""
    if n >= _MILLER_RABIN_BOUND:
        raise InputError(f"the primality of {n} cannot be certified: it is "
                         f"past {_MILLER_RABIN_BOUND}")
    d, s = n - 1, 0
    while n > 2 and not d % 2:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % a == 0 or n < 2:
            return n == a
        x = [pow(a, d << r, n) for r in range(s)]  # a^(d 2^r), r < s
        if x[0] != 1 and n - 1 not in x:
            return False
    return True


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
