"""Exact character tables of finite p-groups.

Irreducible characters are found by monomial induction: every irreducible of
a p-group is induced from a linear character of some subgroup H, and its
degree [G:H] satisfies [G:H]^2 <= |G|.  So the subgroups of that index bound
are taken from the cached enumeration G.all_subgroups(), the linear
characters of each are extended layer by layer along the pairs (H, g) that
enumeration built its subgroups from, and the induced characters are kept
when their norm is 1.  The subgroups are walked from the largest down, and
the search stops once the squared degrees found sum to |G|.

Character values lie in Z[zeta_e] for e = exp(G), and integer power-basis
coordinates are the only form a value takes: a table holds
X[irr, class, phi(e)] as an int64 array.  Every inner product is an exact
integer sum divided by |G|: a table keeps one (classes * phi) x |Irr| dual,
the rational coordinate of zeta^a |C_c| conj(chi_k(c)) at row (c, a) and
column k, so the numerators of <f, chi_k> for a stack of class functions f
are one integer product.  Class functions multiply one way: products(X, Y)
takes every pair of two stacks in blocks and certifies their
multiplicities, the structure tensor of Irr is products(Irr, Irr), and
pullback brings the class functions of a quotient to this group.  Rows
are sorted by degree and then by descending coordinates, so row indices
are canonical.
"""

from __future__ import annotations

from math import inf

import numpy as np

from .cyclotomic import degree_phi, power_table, value_json
from .errors import FusionRepError, NotAPrimePowerGroup
from .intlinalg import hnf, int_matmul
from .permgroup import FiniteGroup, Subgroup, group_prime

# bound on the entries of one numpy temporary in the table search
_CHUNK = 1 << 20
# bound on the entries of the temporaries of one block of products
_PAIR_BLOCK = 1 << 16


def _product_matrix(e: int) -> np.ndarray:
    """M with (x outer y).reshape(phi^2) @ M = the coordinates of x*y."""
    phi = degree_phi(e)
    powers = np.array(power_table(e)[:2 * phi - 1], dtype=np.int64)
    return powers[np.add.outer(np.arange(phi), np.arange(phi))].reshape(
        phi * phi, phi)


def _conjugation(e: int) -> np.ndarray:
    """C with x @ C = the coordinates of the complex conjugate of x."""
    powers = power_table(e)
    return np.array([powers[-k % e] for k in range(degree_phi(e))],
                    dtype=np.int64)


def _multipliers(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The matrices of multiplication by the values x: the coordinates of
    x * y are y @ _multipliers(x, M), for each value of x."""
    phi = M.shape[1]
    return int_matmul(x, M.reshape(phi, phi * phi)).reshape(
        x.shape[:-1] + (phi, phi))


def _times(mx: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact products x[i] * y[r] at [i, r] for stacks x and y of class
    functions, the power basis on the last axis, from the multiplication
    matrices mx = _multipliers(x, M): y's first axis becomes the rows of
    one small product per value of x, so no temporary holds phi^2 entries
    per product."""
    return np.moveaxis(int_matmul(np.moveaxis(y, 0, -2), mx), -2, 1)


def _class_sizes(G: FiniteGroup) -> np.ndarray:
    return np.array([len(c) for c in G.conjugacy_classes()], dtype=np.int64)


class CharacterTable:
    """Canonically ordered irreducible characters of a p-group.

    coords[i, c] holds the power-basis coordinates of chi_i at class c, at
    the conductor e = exp(G).
    """

    def __init__(self, group: FiniteGroup, coords: np.ndarray):
        self.group = group
        self.coords = coords
        self.conductor = group.exponent()
        self._degrees = tuple(coords[:, 0, 0].tolist())
        n, classes, phi = coords.shape
        # W[k, c] = |C_c| conj(chi_k(c)); R[a, b] is the rational
        # coordinate of zeta^(a + b), so (W @ R)[k, c, a] is that of
        # zeta^a W[k, c].
        W = coords @ _conjugation(self.conductor) * _class_sizes(group)[:, None]
        R = _product_matrix(self.conductor)[:, 0].reshape(phi, phi)
        self._dual = int_matmul(W.reshape(-1, phi),
                                R).reshape(n, classes * phi).T
        self.ring = None  # populated by ringpres.character_ring

    def __len__(self):
        return len(self.coords)

    def degrees(self) -> tuple:
        return self._degrees

    def products(self, X, Y) -> np.ndarray:
        """N[i, j, k] = <x_i y_j, chi_k> for the stacks X and Y of class
        functions at this table's conductor, certified by multiplicities.

        The blocks run over the rows of X and of Y, and every temporary,
        the multiplication matrices of the rows of X included, holds about
        _PAIR_BLOCK entries; a block takes several rows of X only with all
        of Y, so the blocks meet the pairs in row-major order.  A product
        that fails the certificate raises FusionRepError with .row =
        i * len(Y) + j for the first failing pair (i, j).
        """
        X, Y = np.asarray(X), np.asarray(Y)
        M = _product_matrix(self.conductor)
        out = np.empty((len(X), len(Y), len(self)), dtype=np.int64)
        # one class function has `per` entries, its multiplication matrices
        # per * phi; a block short of all of Y holds more than half of
        # _PAIR_BLOCK, so it takes one row of X
        per, phi = self._dual.shape[0], M.shape[1]
        step_y = max(1, min(len(Y), _PAIR_BLOCK // per))
        step_x = max(1, _PAIR_BLOCK // (per * max(phi, step_y)))
        for i in range(0, len(X), step_x):
            mx = _multipliers(X[i:i + step_x], M)
            for j in range(0, len(Y), step_y):
                block = _times(mx, Y[j:j + step_y])
                try:
                    out[i:i + step_x, j:j + step_y] = self.multiplicities(block)
                except FusionRepError as ex:
                    a, b = divmod(ex.row, block.shape[1])
                    raise FusionRepError(
                        f"the product x{i + a} y{j + b} fails the integer "
                        "certificate", row=(i + a) * len(Y) + j + b) from ex
        return out

    def structure_tensor(self) -> np.ndarray:
        """N[i, j, k] = <chi_i chi_j, chi_k>, every pair certified."""
        try:
            return self.products(self.coords, self.coords)
        except FusionRepError as ex:
            i, j = divmod(ex.row, len(self))
            raise FusionRepError(f"the product chi{i + 1} chi{j + 1} fails "
                                 "the integer certificate") from ex

    def pullback(self, coords, conductor: int, class_map) -> np.ndarray:
        """Coordinates at this table's conductor e of f o pi for every f in
        coords.

        Each f is a class function of a quotient group, given by its
        power-basis coordinates at conductor (a divisor of e), one row per
        class of the quotient; class c of this group maps to class
        class_map[c] of the quotient.
        """
        e = self.conductor
        lift = np.array([power_table(e)[k * (e // conductor)]
                         for k in range(degree_phi(conductor))], dtype=np.int64)
        return np.asarray(coords)[..., list(class_map), :] @ lift

    def rank(self, values: np.ndarray) -> int:
        """Rank over Q(zeta_e) of a matrix of values in Z[zeta_e].

        values holds integer power-basis coordinates, rows x columns x
        phi(e).  The rank is read from the HNF of the integer matrix of the
        same map over Q (restriction of scalars): block (i, j) multiplies by
        values[i, j], and its rank over Q is phi(e) times the rank over
        Q(zeta_e).
        """
        rows, cols, phi = values.shape
        blocks = _multipliers(values, _product_matrix(self.conductor))
        scalars = blocks.transpose(0, 2, 1, 3).reshape(rows * phi, cols * phi)
        return len(hnf(scalars.tolist())) // phi

    def multiplicities(self, C) -> np.ndarray:
        """<f, chi_k> over Irr for every virtual character f in the stack
        C, certified: C has the shape (..., classes, phi(e)), int64 or
        Python ints of any size, and the result (..., |Irr|).

        One product with the dual gives the rational coordinates of |G|
        <f, chi_k>; each must be divisible by |G|, and the combination of
        Irr with the quotients must give back f exactly, which makes the
        rational coordinate enough.  A class function that fails is no
        virtual character: FusionRepError names (and sets as .row) the
        first failing row of the flattened stack.
        """
        n = len(self)
        flat = np.reshape(C, (-1, self._dual.shape[0]))
        whole = int_matmul(flat, self._dual)
        mults = whole // self.group.order
        fails = ((whole % self.group.order).any(1)
                 | (int_matmul(mults, self.coords.reshape(n, -1)) != flat)
                 .any(1))
        if fails.any():
            r = int(fails.argmax())
            raise FusionRepError(
                f"class function {r} is not a virtual character: it fails "
                "the integer certificate", row=r)
        return mults.reshape(np.shape(C)[:-2] + (n,))

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
                for d, row in zip(self.degrees(), self.coords.tolist())
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


def _positions(G: FiniteGroup, H: Subgroup) -> np.ndarray:
    """pos[x] = index of x in H.members, or -1 off H."""
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[list(H.members)] = np.arange(H.order)
    return pos


def _induced_coords(G: FiniteGroup, H: Subgroup, exps: np.ndarray,
                    powers: np.ndarray) -> np.ndarray:
    """Coordinates of the characters induced from linear characters of H.

    exps[l, m] is the exponent k of the value zeta_e^k of the l-th linear
    character at H.members[m]; powers[k] holds the coordinates of zeta_e^k.
    The value at class c sums powers[exps[l, pos(t^-1 g_c t)]] over the
    transversal elements t with t^-1 g_c t in H.
    """
    pos = _positions(G, H)[np.array(_conjugates(G, _left_transversal(G, H)))]
    inside = (pos >= 0)[:, :, None]
    pos = np.where(pos >= 0, pos, 0)
    step = max(1, _CHUNK // (pos.size * powers.shape[1]))
    out = [(powers[chunk[:, pos]] * inside).sum(axis=1)
           for chunk in np.split(exps, range(step, len(exps), step))]
    return np.concatenate(out)


# --- linear characters of a subgroup ------------------------------------------

def _linear_characters(G: FiniteGroup, K: Subgroup, lin: dict,
                       e: int) -> np.ndarray:
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
        lin[K] = np.zeros((1, 1), dtype=np.int32)
        return lin[K]
    H, g = K.built_from
    p = K.order // H.order
    rows = G.rows()
    pos = _positions(G, H)
    mu = _linear_characters(G, H, lin, e)
    row_g, g_inv = rows[g], G.inv(g)
    conj = [rows[row_g[h]][g_inv] for h in H.members]
    mu = mu[(mu[:, pos[conj]] == mu).all(1)]
    gpow = [G.identity]
    for _ in range(p):
        gpow.append(rows[gpow[-1]][g])
    a = mu[:, pos[gpow.pop()]] // p
    a = a[:, None] + np.arange(p) * (e // p)  # [mu, t]
    values = (mu[:, None, :, None]
              + a[:, :, None, None] * np.arange(p)) % e  # [mu, t, h, j]
    out = np.empty((len(mu) * p, K.order), dtype=np.int32)
    cosets = [rows[h][y] for h in H.members for y in gpow]  # h g^j
    out[:, _positions(G, K)[cosets]] = values.reshape(len(out), -1)
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
        return CharacterTable(G, np.ones((1, 1, 1), dtype=np.int64))
    if group_prime(G) is None:
        raise NotAPrimePowerGroup(f"order {G.order} is not a prime power")
    e = G.exponent()
    powers = np.array(power_table(e)[:e], dtype=np.int64)
    phi = powers.shape[1]
    # rational[a, b] is the rational coordinate of zeta^a conj(zeta^b)
    rational = powers[np.subtract.outer(np.arange(phi), np.arange(phi)) % e, 0]
    sizes = _class_sizes(G)
    found = {}
    lin = {}  # subgroup -> _linear_characters, for this table only
    squares = 0  # sum of the squared degrees found; |G| once Irr is complete
    # the Irr search reads the whole enumeration, so it takes no subgroup cap
    for H in reversed(G.all_subgroups(inf)):
        if squares == G.order:
            break
        if (G.order // H.order) ** 2 > G.order:
            continue
        chars = _induced_coords(G, H, _linear_characters(G, H, lin, e),
                                powers)
        if H.order < G.order:
            # |G| <psi, psi> = sum_c |C_c| psi(c) conj(psi(c)) is an integer,
            # so the rational coordinates of the terms sum to it
            norms = int_matmul((int_matmul(chars, rational) * chars).sum(2),
                               sizes)
            chars = chars[norms == G.order]
        for ch in chars:
            if found.setdefault(ch.tobytes(), ch) is ch:
                squares += int(ch[0, 0]) ** 2
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
