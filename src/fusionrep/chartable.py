"""Exact character tables of finite p-groups.

Irreducible characters are found by monomial induction: every irreducible of
a p-group is induced from a linear character of some subgroup H, and its
degree [G:H] satisfies [G:H]^2 <= |G|.  So the subgroups of that index bound
are taken from the cached enumeration G.all_subgroups(), the linear
characters of each are extended layer by layer along the pairs (H, g) that
enumeration built its subgroups from, and the induced characters are kept
when their norm is 1.  The subgroups are walked from the largest down, and
the search stops once the squared degrees found sum to |G|.

Character values lie in Z[zeta_e] for e = exp(G) and take one form, their
integer power-basis coordinates: coords[irr][class] is a tuple of phi(e)
Python ints.  An inner product is an exact integer sum divided by |G|, the
coordinates of f times the rows of one dual, packed (intlinalg.PackedRows).
Class functions multiply one way: products(X, Y) takes every pair of two
stacks and certifies their multiplicities, the structure tensor of Irr is
products(Irr, Irr), and pullback brings the class functions of a quotient
to this group.  Rows are sorted by degree and then by descending
coordinates, so row indices are canonical.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import inf

from .cyclotomic import degree_phi, power_table, value_json
from .errors import FusionRepError, NotAPrimePowerGroup
from .intlinalg import PackedRows, hnf, int_matmul
from .permgroup import FiniteGroup, Subgroup, group_prime


def _multiplier(x, powers: tuple, phi: int):
    """The coordinates of x * zeta^b, one row for each b < phi, for the
    value with coordinates x; None when x is 0."""
    terms = [(a, c) for a, c in enumerate(x) if c]
    if not terms:
        return None
    out = []
    for b in range(phi):
        row = [0] * phi
        for a, c in terms:
            row = [s + c * z for s, z in zip(row, powers[a + b])]
        out.append(row)
    return out


class CharacterTable:
    """Canonically ordered irreducible characters of a p-group.

    coords[i][c] holds the power-basis coordinates of chi_i at class c, at
    the conductor e = exp(G).
    """

    def __init__(self, group: FiniteGroup, coords):
        self.group = group
        self.coords = tuple(tuple(tuple(map(int, value)) for value in row)
                            for row in coords)
        self.conductor = group.exponent()
        self._degrees = tuple(row[0][0] for row in self.coords)
        self.ring = None  # populated by ringpres.character_ring

    def __len__(self):
        return len(self.coords)

    def degrees(self) -> tuple:
        return self._degrees

    @cached_property
    def _dual(self) -> PackedRows:
        """Row (c, a) holds the rational coordinate of zeta^a |C_c|
        conj(chi_k(c)) at column k: conj(zeta^b) = zeta^(e - b), so it is
        |C_c| sum_b chi_k(c)[b] rat(zeta^(a - b)).  Values repeat across
        the table, so each distinct value is expanded once."""
        e, phi = self.conductor, degree_phi(self.conductor)
        rat = [z[0] for z in power_table(e)[:e]]
        expanded = {x: [sum(y * rat[(a - b) % e] for b, y in enumerate(x))
                        for a in range(phi)]
                    for x in set(chain.from_iterable(self.coords))}
        sizes = [len(c) for c in self.group.conjugacy_classes()]
        return PackedRows([n * expanded[ch[c]][a] for ch in self.coords]
                          for c, n in enumerate(sizes) for a in range(phi))

    def products(self, X, Y) -> list:
        """N[i][j][k] = <x_i y_j, chi_k> for the stacks X and Y of class
        functions at this table's conductor, certified by multiplicities.

        The pairs are certified in row-major order, and a product that
        fails raises FusionRepError with .row = i * len(Y) + j for the
        first failing pair (i, j).  When X is Y the products commute, so a
        pair below the diagonal copies its mirror, which failed first.
        """
        phi, powers = degree_phi(self.conductor), power_table(self.conductor)
        symmetric = X is Y
        Y = [[tuple(map(int, v)) for v in y] for y in Y]
        out = []
        for i, x in enumerate(X):
            mx = [_multiplier(tuple(map(int, v)), powers, phi) for v in x]
            first = i if symmetric else 0  # the mirror gives the rest
            stack = []
            for y in Y[first:]:
                values = []
                for m, v in zip(mx, y):
                    f = [0] * phi
                    if m is not None:
                        for b, c in enumerate(v):
                            if c:
                                f = [s + c * z for s, z in zip(f, m[b])]
                    values.append(f)
                stack.append(values)
            try:
                row = self.multiplicities(stack)
            except FusionRepError as ex:
                j = first + ex.row
                raise FusionRepError(
                    f"the product x{i} y{j} fails the integer "
                    "certificate", row=i * len(Y) + j) from ex
            out.append([out[j][i] for j in range(first)] + row)
        return out

    def structure_tensor(self) -> list:
        """N[i][j][k] = <chi_i chi_j, chi_k>, every pair certified."""
        try:
            return self.products(self.coords, self.coords)
        except FusionRepError as ex:
            i, j = divmod(ex.row, len(self))
            raise FusionRepError(f"the product chi{i + 1} chi{j + 1} fails "
                                 "the integer certificate") from ex

    def pullback(self, coords, conductor: int, class_map) -> list:
        """Coordinates at this table's conductor e of f o pi for every f in
        coords.

        Each f is a class function of a quotient group, given by its
        power-basis coordinates at conductor (a divisor of e), one row per
        class of the quotient; class c of this group maps to class
        class_map[c] of the quotient.
        """
        e = self.conductor
        lift = [power_table(e)[k * (e // conductor)]
                for k in range(degree_phi(conductor))]
        return [tuple(map(tuple, int_matmul([f[k] for k in class_map], lift)))
                for f in coords]

    def rank(self, values) -> int:
        """Rank over Q(zeta_e) of a matrix of values in Z[zeta_e], rows x
        columns x phi(e) coordinates: 1/phi(e) of the rank, read off the
        HNF, of the integer matrix of the same map over Q (restriction of
        scalars), whose block (i, j) multiplies by values[i][j]."""
        phi, powers = degree_phi(self.conductor), power_table(self.conductor)
        scalars = []
        for row in values:
            blocks = [_multiplier(tuple(map(int, v)), powers, phi)
                      or [[0] * phi] * phi for v in row]
            scalars += [sum((m[b] for m in blocks), []) for b in range(phi)]
        return len(hnf(scalars)) // phi

    def multiplicities(self, C) -> list:
        """<f, chi_k> over Irr, a row of Python ints, for every virtual
        character f in the stack C, certified: f holds the coordinates of
        its values, integers of any size, one row per class.

        The coordinates of f times the dual rows give the rational
        coordinates of |G| <f, chi_k>; each must be divisible by |G|, and
        Irr combined with the quotients must give back f exactly, which
        makes the rational coordinate enough.  A class function that fails
        is no virtual character: FusionRepError names (and sets as .row)
        the first failing row of the stack.
        """
        return [self._certified(list(map(int, chain.from_iterable(f))), r)
                for r, f in enumerate(C)]

    def combine(self, mults) -> tuple:
        """sum_k mults[k] chi_k, one coordinate tuple per class."""
        flat = self._flat.combine(list(map(int, mults)))
        phi = len(self.coords[0][0])
        return tuple(tuple(flat[i:i + phi]) for i in range(0, len(flat), phi))

    def _certified(self, flat: list, r: int) -> list:
        """The certified multiplicities of the class function with the
        flattened coordinates flat, row r of its stack."""
        whole = self._dual.combine(flat)
        order = self.group.order
        mults = [w // order for w in whole]
        if any(w % order for w in whole) or self._flat.combine(mults) != flat:
            raise FusionRepError(
                f"class function {r} is not a virtual character: it fails "
                "the integer certificate", row=r)
        return mults

    @cached_property
    def _flat(self) -> PackedRows:
        """Each irreducible's coordinates, class after class, in one row."""
        return PackedRows([x for v in ch for x in v] for ch in self.coords)

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
                {"degree": d,
                 "values": [value_json(self.conductor, v) for v in row]}
                for d, row in zip(self.degrees(), self.coords)
            ],
        }


def _left_transversal(G: FiniteGroup, H: Subgroup) -> list:
    """The least element of every left coset gH, in increasing order: the
    least element not yet covered starts the next coset, and its row
    covers the coset."""
    rows = G.rows()
    covered = [False] * G.order
    out = []
    for i in range(G.order):
        if not covered[i]:
            out.append(i)
            row = rows[i]
            for h in H.members:
                covered[row[h]] = True
    return out


def _conjugates(G: FiniteGroup, transversal: list) -> list:
    """x[t][c] = t^-1 g_c t for the class representatives g_c."""
    rows, inv = G.rows(), G.inv
    reps = [c[0] for c in G.conjugacy_classes()]
    return [[rows[rows[inv(x)][r]][x] for r in reps] for x in transversal]


def _positions(H: Subgroup) -> dict:
    """The index of every member of H in H.members."""
    return {x: m for m, x in enumerate(H.members)}


def _induced_coords(G: FiniteGroup, H: Subgroup, exps: list,
                    powers: tuple) -> list:
    """Coordinates of the characters induced from linear characters of H.

    exps[l][m] is the exponent k of the value zeta_e^k of the l-th linear
    character at H.members[m]; powers[k] holds the coordinates of zeta_e^k.
    The value at class c sums powers[exps[l][pos(t^-1 g_c t)]] over the
    transversal elements t with t^-1 g_c t in H.
    """
    pos = _positions(H)
    conj = _conjugates(G, _left_transversal(G, H))
    hits = [[pos[x] for x in at if x in pos] for at in zip(*conj)]
    zero = (0,) * len(powers[0])
    return [tuple(powers[row[at[0]]] if len(at) == 1 else
                  tuple(map(sum, zip(zero, *[powers[row[m]] for m in at])))
                  for at in hits) for row in exps]


# --- linear characters of a subgroup ------------------------------------------

def _linear_characters(G: FiniteGroup, K: Subgroup, lin: dict,
                       e: int) -> list:
    """All linear characters of K as exponents mod e: row l, column m holds
    k with lambda_l(K.members[m]) = zeta_e^k.

    K = H<g> with H normal of index p (K.built_from), and the rows of H come
    from the same recursion; lin keeps the rows of every subgroup reached.
    K/H is cyclic, so a linear character mu of H extends to K when
    mu(g h g^-1) = mu(h) on H, and then in exactly p ways (Isaacs, Character
    Theory of Finite Groups, Cor. 11.22): lambda(h g^j) = mu(h) + j a with
    p a = mu(g^p) mod e, that is a = mu(g^p)/p + t e/p for t < p.  Every
    linear character of K restricts to such a mu, so the rows are all of
    them, each once.
    """
    if K in lin:
        return lin[K]
    if K.built_from is None:  # the trivial subgroup
        lin[K] = [[0]]
        return lin[K]
    H, g = K.built_from
    p = K.order // H.order
    rows = G.rows()
    pos = _positions(H)
    row_g, g_inv = rows[g], G.inv(g)
    conj = [pos[rows[row_g[h]][g_inv]] for h in H.members]
    gpow = [G.identity]
    for _ in range(p):
        gpow.append(rows[gpow[-1]][g])
    at_gp = pos[gpow.pop()]
    # h g^j goes to column cosets[h * p + j] of K's rows
    where = _positions(K)
    cosets = [where[rows[h][y]] for h in H.members for y in gpow]
    out = []
    for mu in _linear_characters(G, H, lin, e):
        if any(mu[k] != x for k, x in zip(conj, mu)):
            continue
        for t in range(p):
            a = mu[at_gp] // p + t * (e // p)
            row = [0] * K.order
            for k, x in zip(cosets, [(x + a * j) % e for x in mu
                                     for j in range(p)]):
                row[k] = x
            out.append(row)
    lin[K] = out
    return out


def character_table(G: FiniteGroup) -> CharacterTable:
    """The full irreducible character table of a p-group (cached on G)."""
    if G._chartable is None:
        G._chartable = _compute_table(G)
    return G._chartable


def _compute_table(G: FiniteGroup) -> CharacterTable:
    classes = G.conjugacy_classes()
    if G.order == 1:
        return CharacterTable(G, [[[1]]])
    if group_prime(G) is None:
        raise NotAPrimePowerGroup(f"order {G.order} is not a prime power")
    e = G.exponent()
    powers = power_table(e)[:e]
    phi = len(powers[0])
    # rational[k] is the rational coordinate of zeta^k, and
    # zeta^a conj(zeta^b) = zeta^(a - b)
    rational = [z[0] for z in powers]
    sizes = [len(c) for c in classes]
    found = {}
    lin = {}  # subgroup -> _linear_characters, for this table only
    squares = 0  # sum of the squared degrees found; |G| once Irr is complete
    # the Irr search reads the whole enumeration, so it takes no subgroup cap
    for H in reversed(G.all_subgroups(inf)):
        if squares == G.order:
            break
        if (G.order // H.order) ** 2 > G.order:
            continue
        for ch in _induced_coords(G, H, _linear_characters(G, H, lin, e),
                                  powers):
            # |G| <psi, psi> = sum_c |C_c| psi(c) conj(psi(c)) is an
            # integer, so the rational coordinates of the terms sum to it
            if H.order < G.order and sum(
                    n * x * y * rational[(a - b) % e]
                    for n, v in zip(sizes, ch)
                    for a, x in enumerate(v) if x
                    for b, y in enumerate(v) if y) != G.order:
                continue
            if found.setdefault(ch, ch) is ch:
                squares += ch[0][0] ** 2
    chars = sorted(found, key=lambda ch: (ch[0][0], [-x for v in ch
                                                     for x in v]))
    if len(chars) != len(classes):
        raise NotAPrimePowerGroup(
            f"monomial search found {len(chars)} irreducibles, "
            f"expected {len(classes)}"
        )
    total = sum(ch[0][0] ** 2 for ch in chars)
    assert total == G.order, f"degree check failed: {total} != {G.order}"
    return CharacterTable(G, chars)
