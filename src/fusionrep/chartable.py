"""Exact character tables of finite p-groups.

Irr(G) is built by Clifford theory up a central series 1 = N_0 < ... <
N_n = G read off the multiplication table, with N_{i+1} = N_i<g> for a g
whose p-th power and commutators with the generators of G lie in N_i
(Conlon, "Calculating characters of p-groups", J. Symbolic Comput. 9,
1990).  Each irreducible theta of N_i is carried as a monomial pair, theta
= Ind_H^{N_i} lambda for a linear character lambda of a subgroup H, with its
values on N_i.  When some h in g N_i normalizes H and fixes lambda, theta
extends to N_{i+1} in p ways, induced from H<h>; otherwise its p
g-conjugates, found on the values, induce one irreducible.  The last step
evaluates only at the class representatives of G, and no subgroup lattice
is walked.  Every row of degree above 1 must have norm 1, and the rows must
be distinct, one per class, with squared degrees summing to |G|.

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

from .cyclotomic import degree_phi, power_table, value_json
from .errors import FusionRepError, NotAPrimePowerGroup
from .intlinalg import PackedRows, int_matmul
from .permgroup import FiniteGroup, group_prime


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
    the conductor e = exp(G): a tuple of rows, each a tuple of value tuples
    of Python ints, taken as given.
    """

    def __init__(self, group: FiniteGroup, coords: tuple):
        self.group = group
        self.coords = coords
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

    def dual_sums(self, groups) -> list:
        """The sum of the dual rows (c, a) over the classes c of each group
        of class indices, for a < phi(e), group after group."""
        phi, rows = degree_phi(self.conductor), self._dual.rows
        return [list(map(sum, zip(*[rows[c * phi + a] for c in group])))
                for group in groups for a in range(phi)]

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


class _Clifford:
    """The pass that builds Irr(G) of a p-group G up a central series.

    The series 1 = N_0 < ... < N_n = G has N_{i+1} = N_i<g_i>, where g_i is
    the least element outside N_i whose p-th power and commutators with
    the generators of G lie in N_i.  So every N_i is normal in G and
    N_{i+1}/N_i is central of order p; such an element exists while N_i < G,
    as the centre of the p-group G/N_i is not trivial.  members lists G so
    that N_i is members[:p^i] and members[j p^i + k] = members[k] g_i^j; a
    position is an index into members.

    An irreducible theta of N_i is carried as (lam, gens, transversal,
    values) with theta = Ind_H^{N_i} lam: lam maps each member of H to the
    exponent k of its value zeta_e^k, gens generate H, transversal is a left
    transversal of H in N_i, and values[k] holds the coordinates of theta at
    position k.  A linear theta, with H = N_i, is (None, None, None, values),
    its values exponents.
    """

    def __init__(self, G: FiniteGroup, p: int, e: int):
        self.identity, self.p, self.e = G.identity, p, e
        self.rows, self.inv = G.rows(), G._inverses()
        self.powers = power_table(e)[:e]
        self.phi = len(self.powers[0])
        rows, inv = self.rows, self.inv
        inside = [False] * G.order
        inside[G.identity] = True
        self.gens, self.members = [], [G.identity]
        while len(self.members) < G.order:
            for g in range(G.order):
                if inside[g]:
                    continue
                x = g
                for _ in range(p - 1):
                    x = rows[x][g]
                if inside[x] and all(
                        inside[rows[rows[rows[g][s]][inv[g]]][inv[s]]]
                        for s in G.gen_indices):
                    break
            n = len(self.members)
            for j in range(1, p):
                self.members += [rows[y][g] for y in
                                 self.members[(j - 1) * n:j * n]]
            for x in self.members[n:]:
                inside[x] = True
            self.gens.append(g)
        self.pos = [0] * G.order
        for k, x in enumerate(self.members):
            self.pos[x] = k

    def table(self, reps) -> list:
        """The coordinates of every irreducible of G at the elements reps."""
        irr = [(None, None, None, [0])]
        for i in range(len(self.gens)):
            last = i + 1 == len(self.gens)
            irr = self._step(irr, i, [self.pos[x] for x in reps] if last
                             else range(self.p ** (i + 1)), last)
        return [tuple(values) for *_, values in irr]

    def _coords(self, counts, s: int) -> tuple:
        """The coordinates of sum_m counts[m] zeta^(m + s), for 0 <= s < e:
        zeta^(k + (p-1)e/p) is minus the sum of zeta^(k + j e/p) over
        j < p - 1."""
        phi, q = self.phi, self.e // self.p
        return tuple(counts[k - s] - counts[phi + k % q - s]
                     for k in range(phi))

    def _step(self, irr, i: int, targets, last: bool) -> list:
        """Irr(N_{i+1}) from Irr(N_i), valued at the positions targets; at
        the last step the values are coordinates and the pairs are left out.

        A theta of N_i is stable under g = g_i when some h = g t, t in its
        transversal, normalizes H and fixes lam: then h^p lies in H, and the
        p characters Ind_K mu_t of K = H<h>, mu_t(y h^j) = lam(y) + j a_t
        with p a_t = lam(h^p) mod e, a_t = a_0 + t e/p, extend theta.  The
        monomial pairs built this way are unique up to conjugacy in N_i, so
        every stable theta finds such an h.  Every other theta has p
        distinct g-conjugates, found on the values, and Ind theta, from H
        with the transversal g^j t, is irreducible, built once per orbit.
        """
        p, e, rows, inv, pos = self.p, self.e, self.rows, self.inv, self.pos
        members, powers, identity = self.members, self.powers, self.identity
        n, g, shift = p ** i, self.gens[i], e // p
        conj = [pos[rows[rows[g][x]][inv[g]]] for x in members[:n]]
        gpow = [identity]
        for _ in range(p - 1):
            gpow.append(rows[gpow[-1]][g])
        out, moved = [], []
        for ch in irr:
            lam, gens, tr, vals = ch
            if lam is None:
                # H = N_i, so h = g; the generators g_k of N_i sit at p^k
                if any(vals[conj[p ** k]] != vals[p ** k] for k in range(i)):
                    moved.append(ch)
                    continue
                a0 = vals[pos[rows[gpow[-1]][g]]] // p
                for t in range(p):
                    a = a0 + t * shift
                    ext = [(vals[k % n] + k // n * a) % e for k in targets]
                    out.append((None, None, None,
                                [powers[x] for x in ext] if last else ext))
                continue
            h = next((h for h in (rows[g][x] for x in tr) if all(
                lam.get(rows[rows[h][y]][inv[h]]) == lam[y] for y in gens)),
                None)
            if h is None:
                moved.append(ch)
                continue
            hpow = [identity]  # h^j for j <= p
            for _ in range(p):
                hpow.append(rows[hpow[-1]][h])
            a0 = lam[hpow[p]] // p
            h_inv = [inv[x] for x in hpow]
            counts = {}  # chi_0 off N_i: the exponents of mu_0 it sums
            for k in targets:
                if k >= n:
                    j, x, c = k // n, members[k], [0] * e
                    for u in tr:  # u^-1 x u = y h^j
                        ex = lam.get(rows[rows[rows[inv[u]][x]][u]][h_inv[j]])
                        if ex is not None:
                            c[(ex + j * a0) % e] += 1
                    counts[k] = c
            for t in range(p):
                values = [vals[k] if k < n else
                          self._coords(counts[k], t * (k // n) % p * shift)
                          for k in targets]
                if last:
                    out.append((None, None, None, values))
                    continue
                a, mu = a0 + t * shift, dict(lam)
                for j in range(1, p):
                    mu.update((rows[y][hpow[j]], (ex + j * a) % e)
                              for y, ex in lam.items())
                out.append((mu, gens + (h,), tr, values))
        index = {tuple(ch[3]): m for m, ch in enumerate(moved)}
        done = [False] * len(moved)
        zero = (0,) * self.phi
        for m, (lam, gens, tr, vals) in enumerate(moved):
            if done[m]:
                continue
            done[m] = True
            orbit = [vals]
            for _ in range(p - 1):
                orbit.append([orbit[-1][c] for c in conj])
                c = index.get(tuple(orbit[-1]))
                if c is None or done[c]:
                    raise FusionRepError("a stable character of a normal "
                                         "subgroup has no monomial extension")
                done[c] = True
            if lam is None:
                orbit = [[powers[x] for x in theta] for theta in orbit]
                lam, gens, tr = (dict(zip(members[:n], vals)),
                                 tuple(self.gens[:i]), [identity])
            values = [tuple(map(sum, zip(*[theta[k] for theta in orbit])))
                      if k < n else zero for k in targets]
            out.append((None, None, None, values) if last else
                       (lam, gens, [rows[x][u] for x in gpow for u in tr],
                        values))
        return out


def character_table(G: FiniteGroup) -> CharacterTable:
    """The full irreducible character table of a p-group (cached on G)."""
    if G._chartable is None:
        G._chartable = _compute_table(G)
    return G._chartable


def _compute_table(G: FiniteGroup) -> CharacterTable:
    classes = G.conjugacy_classes()
    if G.order == 1:
        return CharacterTable(G, (((1,),),))
    p = group_prime(G)
    if p is None:
        raise NotAPrimePowerGroup(f"order {G.order} is not a prime power")
    e = G.exponent()
    powers = power_table(e)[:e]
    # rational[k] is the rational coordinate of zeta^k, and
    # zeta^a conj(zeta^b) = zeta^(a - b)
    rational = [z[0] for z in powers]
    sizes = [len(c) for c in classes]
    chars = _Clifford(G, p, e).table([c[0] for c in classes])
    for ch in chars:
        # |G| <chi, chi> = sum_c |C_c| chi(c) conj(chi(c)) is an integer,
        # so the rational coordinates of the terms sum to it; a linear
        # character takes roots of unity only
        if ch[0][0] > 1 and sum(
                n * x * y * rational[(a - b) % e]
                for n, v in zip(sizes, ch)
                for a, x in enumerate(v) if x
                for b, y in enumerate(v) if y) != G.order:
            raise FusionRepError(
                f"a character of degree {ch[0][0]} is not irreducible")
    if len(set(chars)) != len(classes):
        raise FusionRepError(
            f"the Clifford pass found {len(set(chars))} irreducibles, "
            f"expected {len(classes)}")
    total = sum(ch[0][0] ** 2 for ch in chars)
    assert total == G.order, f"degree check failed: {total} != {G.order}"
    # by degree, then by descending coordinates: the values of a row have
    # one length, so the rows compare as their flattened coordinates
    return CharacterTable(G, tuple(sorted(sorted(chars, reverse=True),
                                          key=lambda ch: ch[0][0])))
