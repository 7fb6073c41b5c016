"""Exact character tables of finite p-groups.

Irreducible characters are found by monomial induction: every irreducible of
a p-group is induced from a linear character of some subgroup H, and its
degree [G:H] satisfies [G:H]^2 <= |G|.  So only subgroups down to that index
bound are visited (walking maximal-subgroup chains), linear characters are
read off the abelianization H/[H,H], induced, and kept when their norm is 1.

Character values lie in Z[zeta_e] for e = exp(G), so a table holds them as
integer power-basis coordinates X[irr, class, phi(e)].  Inner products are
evaluated modulo one prime q = 1 (mod e) above |G|, through the ring map
Z[zeta_e] -> F_q that sends zeta_e to a primitive e-th root of unity
(Dixon's modular method).  A modular result is used only where it is exact:
either the true value is an integer known to lie in [0, q), or an integer
identity in coordinates certifies it.  The Cyclotomic values built from X
serve display and JSON.  Rows are sorted by degree and then by value vectors
under the fixed total order on cyclotomic values, so row indices are
canonical.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .cyclotomic import Cyclotomic, degree_phi, power_table
from .errors import (
    ConductorMismatch,
    FusionRepError,
    GroupMismatch,
    NotAPrimePowerGroup,
)
from .intlinalg import is_prime
from .permgroup import (
    FiniteGroup,
    Subgroup,
    derived_subgroup,
    frattini_maximals,
    group_prime,
)

# integer coordinates above this size take the exact path
_COORD_LIMIT = 2 ** 31
# bound on the entries of one numpy temporary in the table search
_CHUNK = 1 << 20


class ClassFunction:
    """A class function on a FiniteGroup: one value per conjugacy class."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values):
        self.group = group
        vals = tuple(values)
        if len(vals) != len(group.conjugacy_classes()):
            raise ValueError("one value per conjugacy class required")
        self.values = vals

    @property
    def conductor(self) -> int:
        return self.values[0].conductor

    def degree(self) -> Fraction:
        return self.values[0].as_rational()

    def value_at_element(self, i: int) -> Cyclotomic:
        return self.values[self.group.class_of()[i]]

    def _check(self, other: "ClassFunction"):
        if self.group is not other.group:
            raise GroupMismatch("class functions on different groups")
        if self.conductor != other.conductor:
            raise ConductorMismatch(
                f"conductors {self.conductor} and {other.conductor}; lift first"
            )

    def __add__(self, other):
        self._check(other)
        return ClassFunction(self.group,
                             [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(self.group,
                             [a - b for a, b in zip(self.values, other.values)])

    def scale(self, k) -> "ClassFunction":
        return ClassFunction(self.group, [v * k for v in self.values])

    def conjugate(self) -> "ClassFunction":
        return ClassFunction(self.group, [v.conjugate() for v in self.values])

    def lift(self, e: int) -> "ClassFunction":
        return ClassFunction(self.group, [v.lift(e) for v in self.values])

    def sort_key(self):
        return tuple(v.sort_key() for v in self.values)

    def to_json(self) -> dict:
        return {"values": [v.to_json() for v in self.values]}

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.group is other.group
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"ClassFunction({[str(v) for v in self.values]})"


class ModularImage:
    """The ring map Z[zeta_e] -> F_q, zeta_e -> w, on power-basis coordinates.

    q is the smallest prime with q = 1 (mod e) and q > |G|, and w is a
    primitive e-th root of unity in F_q; w is a root of Phi_e mod q, so the
    map is well defined.  weights[c] = |C_c| / |G| in F_q.
    """

    def __init__(self, G: FiniteGroup):
        e = G.exponent()
        q = (G.order // e) * e + 1
        if q <= G.order:
            q += e
        while not is_prime(q):
            q += e
        classes = G.conjugacy_classes()
        if len(classes) * q * q >= 2 ** 63:
            raise FusionRepError(f"modulus {q} is too large for int64 sums")
        w = _primitive_root(e, q)
        phi = degree_phi(e)
        self.q = q
        self.up = np.array([pow(w, k, q) for k in range(phi)], dtype=np.int64)
        self.down = np.array([pow(w, (e - k) % e, q) for k in range(phi)],
                             dtype=np.int64)
        sizes = np.array([len(c) for c in classes], dtype=np.int64)
        self.weights = sizes * pow(G.order, -1, q) % q

    def image(self, coords: np.ndarray) -> np.ndarray:
        """Residues of the values, the power basis on the last axis."""
        return coords @ self.up % self.q

    def conj_image(self, coords: np.ndarray) -> np.ndarray:
        """Residues of the complex conjugate values."""
        return coords @ self.down % self.q


def _primitive_root(e: int, q: int) -> int:
    primes = [r for r in range(2, e + 1) if e % r == 0 and is_prime(r)]
    for a in range(1, q):
        w = pow(a, (q - 1) // e, q)
        if all(pow(w, e // r, q) != 1 for r in primes):
            return w
    raise FusionRepError(f"no primitive {e}-th root of unity mod {q}")


def _product_matrix(e: int) -> np.ndarray:
    """M with (x outer y).reshape(phi^2) @ M = the coordinates of x*y."""
    phi = degree_phi(e)
    powers = np.array(power_table(e)[:2 * phi - 1], dtype=np.int64)
    return powers[np.add.outer(np.arange(phi), np.arange(phi))].reshape(
        phi * phi, phi)


def _times(x: np.ndarray, y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Exact products of coordinate arrays (power basis on the last axis)."""
    phi = M.shape[1]
    outer = x[..., :, None] * y[..., None, :]
    return outer.reshape(outer.shape[:-2] + (phi * phi,)) @ M


class CharacterTable:
    """Canonically ordered irreducible characters of a p-group.

    coords[i, c] holds the power-basis coordinates of chi_i at class c, at
    the conductor e = exp(G); the ClassFunction rows are built from it on
    first use.
    """

    def __init__(self, group: FiniteGroup, coords: np.ndarray):
        self.group = group
        self.coords = coords
        self.conductor = group.exponent()
        self._degrees = tuple(coords[:, 0, 0].tolist())
        self.modular = ModularImage(group)
        # dual[k, c] = |C_c| conj(chi_k(c)) / |G| in F_q
        self._dual = (self.modular.conj_image(coords)
                      * self.modular.weights % self.modular.q)
        self._tensor = None

    @cached_property
    def irreducibles(self) -> tuple:
        """The rows as ClassFunctions of exact Cyclotomic values."""
        e = self.conductor
        return tuple(ClassFunction(self.group, [Cyclotomic(e, v) for v in row])
                     for row in self.coords.tolist())

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, k) -> ClassFunction:
        return self.irreducibles[k]

    def degrees(self) -> tuple:
        return self._degrees

    def structure_tensor(self) -> np.ndarray:
        """N[i, j, k] = <chi_i chi_j, chi_k>, computed once and cached.

        Each entry is an integer in [0, d_i d_j], and d_i d_j <= |G| < q, so
        its residue mod q is the entry.  The result is certified over Z
        anyway: sum_k N[i, j, k] chi_k must equal chi_i chi_j in integer
        coordinates.  The work runs one i at a time to bound memory.
        """
        if self._tensor is None:
            X, q = self.coords, self.modular.q
            n = len(self)
            flat = X.reshape(n, -1)
            V = self.modular.image(X)
            M = _product_matrix(self.conductor)
            N = np.empty((n, n, n), dtype=np.int64)
            for i in range(n):
                N[i] = V[i] * V % q @ self._dual.T % q
                if not np.array_equal(N[i] @ flat,
                                      _times(X[i], X, M).reshape(n, -1)):
                    raise FusionRepError(
                        f"products of chi{i + 1} fail the integer certificate")
            self._tensor = N
        return self._tensor

    def multiplicities(self, f: ClassFunction) -> tuple:
        """<f, chi_k> for every irreducible, as Fractions.

        When f has integer coordinates at the table's conductor, the
        multiplicities are read mod q (in (-q/2, q/2]) and kept if
        sum_k n_k chi_k reproduces f exactly.  Otherwise the exact inner
        products are returned, with their errors.
        """
        C = self._integer_coords(f)
        if C is not None:
            q = self.modular.q
            n = self.modular.image(C) @ self._dual.T % q
            n = np.where(n > q // 2, n - q, n)
            if np.array_equal(n @ self.coords.reshape(len(self), -1),
                              C.reshape(-1)):
                return tuple(Fraction(int(x)) for x in n)
        return tuple(inner_product(f, ch) for ch in self.irreducibles)

    def _integer_coords(self, f: ClassFunction):
        if f.group is not self.group or f.conductor != self.conductor:
            return None
        rows = [v.coeffs for v in f.values]
        if any(c.denominator != 1 or abs(c) >= _COORD_LIMIT
               for row in rows for c in row):
            return None
        return np.array([[int(c) for c in row] for row in rows],
                        dtype=np.int64)

    def to_json(self) -> dict:
        classes = self.group.conjugacy_classes()
        return {
            "order": self.group.order,
            "conductor": self.conductor,
            "classes": [
                {
                    "size": len(c),
                    "representative": self.group.describe_element(c[0]),
                    "representative_order": self.group.element_orders()[c[0]],
                }
                for c in classes
            ],
            "characters": [
                {"degree": d, "values": [v.to_json() for v in ch.values]}
                for d, ch in zip(self.degrees(), self.irreducibles)
            ],
        }


def trivial_character(G: FiniteGroup, e: int = None) -> ClassFunction:
    e = e if e is not None else G.exponent()
    one = Cyclotomic.rational(1, e)
    return ClassFunction(G, [one] * len(G.conjugacy_classes()))


def regular_character(G: FiniteGroup, e: int = None) -> ClassFunction:
    e = e if e is not None else G.exponent()
    vals = [Cyclotomic.rational(G.order, e)] + [
        Cyclotomic.zero(e) for _ in G.conjugacy_classes()[1:]
    ]
    return ClassFunction(G, vals)


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """<f, g> = (1/|G|) sum |C| f(C) conj(g(C)); must come out rational."""
    f._check(g)
    classes = f.group.conjugacy_classes()
    total = Cyclotomic.zero(f.conductor)
    for c, fv, gv in zip(classes, f.values, g.values):
        if fv.is_zero() or gv.is_zero():
            continue
        total = total + fv * gv.conjugate() * len(c)
    return (total * Fraction(1, f.group.order)).as_rational()


def tensor(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    f._check(g)
    return ClassFunction(f.group, [a * b for a, b in zip(f.values, g.values)])


def _subgroup_group(P: Subgroup) -> FiniteGroup:
    """Realize a Subgroup as its own FiniteGroup (cached on the Subgroup)."""
    cached = getattr(P, "_as_group", None)
    if cached is not None:
        return cached
    parent = P.parent
    elements = tuple(parent.elements[m] for m in P.members)
    gens = tuple(parent.elements[g] for g in P.gen_indices) or elements
    G = FiniteGroup(parent.degree, gens, elements)
    for name, idx in parent.names.items():
        if P.contains(idx):
            G.names.setdefault(name, G.index[parent.elements[idx]])
    P._as_group = G
    return G


def restrict(f: ClassFunction, P: Subgroup) -> ClassFunction:
    """Restriction to a subgroup of f's group, on P realized as a group."""
    if P.parent is not f.group:
        raise GroupMismatch("subgroup of a different group")
    H = _subgroup_group(P)
    parent = f.group
    vals = []
    for c in H.conjugacy_classes():
        rep_perm = H.elements[c[0]]
        vals.append(f.value_at_element(parent.index[rep_perm]))
    return ClassFunction(H, vals)


def _left_transversal(G: FiniteGroup, H: Subgroup) -> np.ndarray:
    """The least element of every left coset gH, in increasing order."""
    covered = np.zeros(G.order, dtype=bool)
    out = []
    for i in range(G.order):
        if not covered[i]:
            out.append(i)
            covered[[G.mul(i, m) for m in H.members]] = True
    return np.array(out, dtype=np.int64)


def _conjugates(G: FiniteGroup, transversal: np.ndarray) -> np.ndarray:
    """x[t, c] = t^-1 g_c t for the class representatives g_c."""
    reps = [c[0] for c in G.conjugacy_classes()]
    tab = G.table()
    if tab is not None:
        inv = G.inv_array()
        return tab[tab[inv[transversal]][:, reps], transversal[:, None]]
    return np.array([[G.mul(G.mul(G.inv(t), g), t) for g in reps]
                     for t in transversal.tolist()], dtype=np.int64)


def _positions(G: FiniteGroup, H: Subgroup) -> np.ndarray:
    """pos[x] = index of x in H.members, or -1 off H."""
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[list(H.members)] = np.arange(H.order)
    return pos


def induce(f: ClassFunction, H: Subgroup) -> ClassFunction:
    """Induction from a subgroup H (f lives on H realized as a group)."""
    G = H.parent
    HG = _subgroup_group(H)
    if f.group is not HG:
        raise GroupMismatch("class function does not live on the given subgroup")
    e = G.exponent()
    e = e * f.conductor // gcd(e, f.conductor)
    fv = [f.value_at_element(HG.index[G.elements[m]]).lift(e)
          for m in H.members]
    pos = _positions(G, H)[_conjugates(G, _left_transversal(G, H))]
    vals = []
    for col in pos.T.tolist():
        acc = Cyclotomic.zero(e)
        for k in col:
            if k >= 0:
                acc = acc + fv[k]
        vals.append(acc)
    return ClassFunction(G, vals)


def _induced_coords(G: FiniteGroup, H: Subgroup, exps: np.ndarray,
                    powers: np.ndarray) -> np.ndarray:
    """Coordinates of the characters induced from linear characters of H.

    exps[l, m] is the exponent k of the value zeta_e^k of the l-th linear
    character at H.members[m]; powers[k] holds the coordinates of zeta_e^k.
    The value at class c sums powers[exps[l, pos(t^-1 g_c t)]] over the
    transversal elements t with t^-1 g_c t in H.
    """
    pos = _positions(G, H)[_conjugates(G, _left_transversal(G, H))]
    inside = (pos >= 0)[:, :, None]
    pos = np.where(pos >= 0, pos, 0)
    step = max(1, _CHUNK // (pos.size * powers.shape[1]))
    out = [(powers[chunk[:, pos]] * inside).sum(axis=1)
           for chunk in np.split(exps, range(step, len(exps), step))]
    return np.concatenate(out)


# --- linear characters of a subgroup ------------------------------------------

def _abelian_basis(reps: list, qmul, qid, qorder) -> list:
    """Independent generators [(rep, order)] of a finite abelian p-group
    given by coset representatives; recursion through the quotient by the
    element of maximal order."""
    if len(reps) == 1:
        return []
    g = min(reps, key=lambda r: (-qorder(r), r))
    og = qorder(g)
    pow_of = {}
    acc = qid
    for k in range(og):
        pow_of[acc] = k
        acc = qmul(acc, g)
    # quotient by <g>
    rep2 = {}
    for r in reps:
        if r in rep2:
            continue
        block = []
        acc = r
        for _ in range(og):
            block.append(acc)
            acc = qmul(acc, g)
        rep = min(block)
        for b in block:
            rep2[b] = rep
    reps_q = sorted(set(rep2.values()))

    def qmul2(x, y):
        return rep2[qmul(x, y)]

    qid2 = rep2[qid]

    def qorder2(x):
        k = 1
        acc = x
        while acc != qid2:
            acc = qmul2(acc, x)
            k += 1
        return k

    sub = _abelian_basis(reps_q, qmul2, qid2, qorder2)
    out = [(g, og)]
    for h, oh in sub:
        # lift h to an element of true order oh: correct by a power of g
        z = qid
        for _ in range(oh):
            z = qmul(z, h)
        t = pow_of[z]  # h^oh = g^t with oh | t (og is maximal)
        corr = (og - t // oh) % og
        lifted = h
        for _ in range(corr):
            lifted = qmul(lifted, g)
        out.append((lifted, oh))
    return out


def _linear_characters(G: FiniteGroup, H: Subgroup, e: int) -> np.ndarray:
    """All linear characters of H as exponents mod e: row l, column m holds
    k with chi_l(H.members[m]) = zeta_e^k (orders in H/[H,H] divide e)."""
    D = derived_subgroup(G, H)
    dm = D.members
    rep_of = {}
    for m in H.members:
        if m in rep_of:
            continue
        block = sorted(G.mul(m, d) for d in dm)
        rep = block[0]
        for b in block:
            rep_of[b] = rep
    reps = sorted(set(rep_of.values()))
    qid = rep_of[G.identity]

    def qmul(x, y):
        return rep_of[G.mul(x, y)]

    def qorder(x):
        k = 1
        acc = x
        while acc != qid:
            acc = qmul(acc, x)
            k += 1
        return k

    basis = _abelian_basis(reps, qmul, qid, qorder)
    vec = {qid: ()}
    for idx, (b, ob) in enumerate(basis):
        grown = {}
        for r, v in vec.items():
            acc = r
            grown[r] = v + (0,)
            for k in range(1, ob):
                acc = qmul(acc, b)
                grown[acc] = v + (k,)
        vec = grown
    assert len(vec) == len(reps), "abelian decomposition failed"
    nb = len(basis)
    steps = np.array([e // ob for _, ob in basis], dtype=np.int64)
    coords = np.array([vec[rep_of[m]] for m in H.members],
                      dtype=np.int64).reshape(H.order, nb)
    duals = np.array(list(itertools.product(*[range(ob) for _, ob in basis])),
                     dtype=np.int64).reshape(-1, nb)
    return (duals * steps) @ coords.T % e


def _index_bounded_subgroups(G: FiniteGroup, p: int) -> list:
    """Subgroups of index d with d^2 <= |G|, one per conjugacy class."""
    bound = 1
    while (bound * p) ** 2 <= G.order:
        bound *= p
    level = {frozenset(range(G.order)): G.full_subgroup()}
    chosen = dict(level)
    index = 1
    while index < bound:
        nxt = {}
        for sub in level.values():
            for m in frattini_maximals(G, sub, p):
                nxt.setdefault(m.key(), m)
        # keep one per G-conjugacy orbit (conjugate subgroups induce equal sets)
        seen = set()
        reduced = {}
        for key in sorted(nxt, key=lambda fs: sorted(fs)):
            if key in seen:
                continue
            orbit = {key}
            frontier = [key]
            while frontier:
                fs = frontier.pop()
                for g in G.gen_indices:
                    img = frozenset(G.conj(g, x) for x in fs)
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
            seen |= orbit
            reduced[key] = nxt[key]
        for key, sub in reduced.items():
            chosen.setdefault(key, sub)
        # descending through class representatives suffices: a subgroup of a
        # conjugate maximal is conjugate to a subgroup of the representative
        level = reduced
        index *= p
    return [chosen[k] for k in sorted(chosen, key=lambda fs: (-len(fs), sorted(fs)))]


def character_table(G: FiniteGroup) -> CharacterTable:
    """The full irreducible character table of a p-group (cached on G)."""
    if G._chartable is None:
        G._chartable = _compute_table(G)
    return G._chartable


def _compute_table(G: FiniteGroup) -> CharacterTable:
    classes = G.conjugacy_classes()
    if G.order == 1:
        return CharacterTable(G, np.ones((1, 1, 1), dtype=np.int64))
    p = group_prime(G)
    if p is None:
        raise NotAPrimePowerGroup(f"order {G.order} is not a prime power")
    e = G.exponent()
    powers = np.array(power_table(e)[:e], dtype=np.int64)
    modular = ModularImage(G)
    found = {}
    for H in _index_bounded_subgroups(G, p):
        chars = _induced_coords(G, H, _linear_characters(G, H, e), powers)
        if H.order < G.order:
            # <psi, psi> is an integer in [1, [G:H]] and q > |G|
            norms = (modular.image(chars) * modular.conj_image(chars)
                     % modular.q @ modular.weights % modular.q)
            chars = chars[norms == 1]
        for ch in chars:
            found.setdefault(ch.tobytes(), ch)
    chars = sorted(found.values(),
                   key=lambda ch: (int(ch[0, 0]), (-ch).ravel().tolist()))
    if len(chars) != len(classes):
        raise NotAPrimePowerGroup(
            f"monomial search found {len(chars)} irreducibles, "
            f"expected {len(classes)}"
        )
    total = sum(int(ch[0, 0]) ** 2 for ch in chars)
    assert total == G.order, f"degree check failed: {total} != {G.order}"
    return CharacterTable(G, np.array(chars))
