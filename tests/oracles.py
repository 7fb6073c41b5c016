"""Slow reference implementations that the tests compare the library with.

pottier_hilbert_basis is the pure-Python Pottier completion that
invariants.hilbert_basis replaced, kept verbatim as an oracle: it runs on
the full columns, with tuples, and skips no pair.  brute_hilbert searches
a box exhaustively.  small_fusions yields the fusion systems on every
fixture group of order at most 16.  closure and ExhaustiveSaturation are
the scalar subgroup closure and saturation check that the table gathers
of FiniteGroup.closure and FusionSystem.check_saturation replaced;
enumerate_subgroups, normalizer and centralizer the pairwise-join search
and the loops over the group that the subgroup layers and the normalizer
and centralizer of FiniteGroup replaced.
check_linear_characters holds the linear characters that chartable
extends along the subgroup layers to their definition, with the derived
subgroup as the closure of the commutators.
build_table is the multiplication table by one tuple lookup per entry,
which the Cayley-graph search of FiniteGroup._build_table replaced.
cayley_table, array_walk, array_orbits and array_make_hom are the numpy
Cayley-graph table, walk, orbits and make_hom that the pure-Python ones
replaced, so that building a group and its fusion classes imports no
numpy; replay_walk is the array replay along a walk that they call.
_table_array and _mul_array are the int32 copy of the table and its
gathers, per entry above the table limit, that FiniteGroup kept until the
character tables read the rows; the array oracles gather on them.
make_hom_by_search and validate are the scalar extension of generator
images and the check over all member pairs that the layered gathers of
make_hom and GroupHom.validate replaced.  conjugacy_classes,
element_classes, recipe and replay are the scalar searches that
FiniteGroup.walk, permgroup.replay and permgroup.orbits replaced, with
the scalar conj they ran on, and inverse the inverse of an injective
GroupHom.  hnf is the row-by-row
Hermite normal form that intlinalg.hnf replaced, nullspace_mod the row-by-row
kernel over F_q that the array steps of intlinalg.nullspace_mod
replaced, and structure_tensor the row-by-row structure tensor mod a
prime q, through the F_q image ModularImage, that the exact batched
pairs of CharacterTable.structure_tensor replaced.
structure_constants and action_matrices are the presentation of R(F),
contracted from the structure tensor of Irr(S), and the twisted module
action through pullback_products, with their own solves and sign checks,
that invariants.product_coefficients replaced.
multiplicities, reduce_mod_lattice, solve and decompose are the
per-vector decompositions that the batched ones replaced: the
Fraction-valued inner products over Irr, one reduction per vector, one
solve per target and one decomposition per row.
value_product, value_conjugate and inner_product are the exact reference
for the character kernel: one value of Z[zeta_e] at a time, as a tuple of
integer power-basis coordinates, in Python ints and Fractions.
subgroup_group realizes a subgroup as a FiniteGroup of its own, and
constant_on_fusion_classes is the stability test of a class function under
a fusion system.  monic_factors finds the irreducible factors of Phi_n
mod q by trying every monic polynomial of the one degree they share, the
search that Berlekamp's algorithm replaced in spectrum.primes_above.
PrimeSymbol, symbol_leq and is_connected are the invariant-ring primes,
their pairwise containment test and the union-find connectivity that
spectrum.prime_symbols replaced by reading the poset off its
construction; symbol_nodes lists the symbols in the order of
prime_symbols, and containments runs symbol_leq on every ordered pair.
is_centric and is_radical test a subgroup of a fusion system, with
core_p for O_p of a finite group.  coset_action and quotient_fusion build
S/A and the quotient fusion system of a lift, and quotient_match compares
it with the base system on the closed morphisms out of every subgroup.
section_cocycle is the cocycle of a section of a central extension, by
default of zero_section, the section s -> (0, s) of
extension.central_extension, whose inverse it is.  cocycle_violations
is the plain scan over every triple that extension.validate_cocycle
replaced by Light's test at the generators.  chain_completed_module
is the completion of a twisted module that twisted.completed_module
replaced by a nilpotency test: it runs the chain I^k M of the shifted
matrices until two lattices agree, within a cap, and reads the quotient
off the Smith form, reported as a ChainCompletedModule.
unit_row_twisted_hilbert is the twisted Hilbert basis over all the
columns of Irr of the extension, with a unit row for every irreducible
that is not an a-representation, which twisted.twisted_invariant_basis
replaced by the Hilbert basis on the a-representation columns.
ideal_product multiplies two ideals' HNF rows pair by pair, the reference
for the powers that Ring.ideal_power reads off lattice_chain, and
ring_product multiplies two ring elements through Ring.times.
augmentation_nilpotence is the least N with I^N inside p I for the
augmentation ideal I of a ring, read off Ring.augmentation_power.  spec_text
writes a JobSpec back as text, so that parsing it again tests the parser.
"""

import itertools
import weakref
from collections import deque
from fractions import Fraction

import numpy as np

from fusionrep.chartable import character_table
from fusionrep.cyclotomic import (cyclotomic_polynomial, degree_phi,
                                  power_table)
from fusionrep.errors import (AmbientMismatch, DecompositionNotIntegral,
                              FusionRepError,
                              GeneratorMovesA, GroupMismatch,
                              HilbertCapExceeded, InputError,
                              MorphismCapExceeded, NotAHomomorphism,
                              NotCentral, NotInjective, NotInSpan,
                              NotInvariant, QuotientMismatch,
                              SubgroupEnumerationCapExceeded)
from fusionrep.fusion import (DEFAULT_MORPHISM_CAP, SaturationReport,
                              _describe, _small_gens, build_fusion)
from fusionrep.intlinalg import kernel_basis, lattice_contains, smith_diagonal
from fusionrep.invariants import (DEFAULT_HILBERT_CAP, hilbert_basis,
                                  invariance_matrix)
from fusionrep.invariants import decompose as batched_decompose
from fusionrep.permgroup import (FiniteGroup, GroupHom, Subgroup, build_group,
                                 compose, format_cycles, is_p_group, is_prime,
                                 make_hom, p_part)
from fusionrep.ringpres import (Ring, RingPresentation, apply_names,
                                lattice_chain)
from fusionrep.spectrum import (CycPrime, _mult_order, _polmod_divmod,
                                _reduce_mod, primes_above)
from fusionrep.twisted import a_representations



# --- the array helpers of the character kernel --------------------------------
# The numpy forms of the value arithmetic that chartable ran on before its
# kernels moved to Python ints, kept as the oracles' own: int_matmul is an
# exact product on arrays of Python ints, and a table's coordinates come in
# through coords_array.


def int_matmul(A, B) -> np.ndarray:
    """A @ B over Z on arrays of Python ints (dtype object), exactly."""
    return np.asarray(A, dtype=object) @ np.asarray(B, dtype=object)


def coords_array(coords) -> np.ndarray:
    """Nested coordinate tuples as one int64 array."""
    return np.array(coords, dtype=np.int64)


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
        np.shape(x)[:-1] + (phi, phi))


def _class_sizes(G: FiniteGroup) -> np.ndarray:
    return np.array([len(c) for c in G.conjugacy_classes()], dtype=np.int64)

def _pos_neg(v):
    pos = tuple(x if x > 0 else 0 for x in v)
    neg = tuple(-x if x < 0 else 0 for x in v)
    return pos, neg


def _dominates(ap, an, bp, bn) -> bool:
    # a "covers" b: b+ <= a+ and b- <= a- componentwise
    return all(x <= y for x, y in zip(bp, ap)) and all(x <= y for x, y in zip(bn, an))


def pottier_hilbert_basis(rows, ncols: int = None, cap: int = DEFAULT_HILBERT_CAP) -> list:
    """Minimal nonzero elements of {x in Z^n, x >= 0 : rows * x = 0}.

    Pottier completion: seed with a kernel-lattice basis and its negatives,
    close under pairwise sums reduced to normal form (subtracting any member
    whose positive and negative parts are componentwise below), then keep
    the componentwise-minimal non-negative members.  `cap` bounds both the
    completion set and the pending-pair queue.  Output sorted by
    (coordinate sum, entries).
    """
    rows = [list(r) for r in rows]
    if rows:
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise InputError("ragged invariance matrix")
        if ncols is not None and ncols != n:
            raise InputError("ncols disagrees with the matrix width")
    else:
        if ncols is None:
            raise InputError("ncols is required for an empty matrix")
        n = ncols
    if n == 0:
        return []
    if not rows:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]

    lattice = kernel_basis(rows, n)
    if not lattice:
        return []

    gens = []  # (vector, positive part, negative part)
    for b in lattice:
        v = tuple(b)
        for w in (v, tuple(-x for x in v)):
            gens.append((w, *_pos_neg(w)))

    def normal_form(v):
        while any(v):
            vp, vn = _pos_neg(v)
            hit = False
            for g, gp, gn in gens:
                if _dominates(vp, vn, gp, gn):
                    v = tuple(x - y for x, y in zip(v, g))
                    hit = True
                    break
            if not hit:
                break
        return v

    pairs = deque(
        (i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))
    )
    while pairs:
        i, j = pairs.popleft()
        s = tuple(x + y for x, y in zip(gens[i][0], gens[j][0]))
        s = normal_form(s)
        if not any(s):
            continue
        k = len(gens)
        gens.append((s, *_pos_neg(s)))
        if k + 1 > cap or len(pairs) + k > cap:
            raise HilbertCapExceeded(
                f"completion exceeded {cap} vectors; raise the cap to continue"
            )
        pairs.extend((i2, k) for i2 in range(k))

    nonneg = sorted(
        {g for g, gp, gn in gens if not any(gn)},
        key=lambda v: (sum(v), v),
    )
    out = []
    for v in nonneg:
        if not any(
            all(x <= y for x, y in zip(u, v)) for u in out
        ):
            out.append(v)
    return out


def brute_hilbert(rows, ncols, bound):
    """Irreducible nonneg solutions of rows . v = 0 with entries <= bound."""
    sols = []
    for v in itertools.product(range(bound + 1), repeat=ncols):
        if any(v) and all(sum(r[i] * v[i] for i in range(ncols)) == 0
                          for r in rows):
            sols.append(v)
    solset = set(sols)
    irred = []
    for v in sols:
        decomposable = False
        for u in sols:
            if u == v:
                continue
            w = tuple(a - b for a, b in zip(v, u))
            if all(x >= 0 for x in w) and any(w) and w in solset:
                decomposable = True
                break
        if decomposable:
            continue
        irred.append(v)
    return set(irred)


def small_fusions():
    Z3 = build_group(3, ["(1 2 3)"], names=["s"])
    s = Z3.names["s"]
    yield build_fusion(Z3, [])
    yield build_fusion(Z3, [make_hom(Z3.full_subgroup(), (Z3.power(s, 2),))])
    V4 = build_group(4, ["(1 2)(3 4)", "(1 3)(2 4)"], names=["x", "y"])
    x, y = V4.names["x"], V4.names["y"]
    yield build_fusion(V4, [make_hom(V4.full_subgroup(), (y, V4.mul(x, y)))])
    Q8 = build_group(8, ["(1 2 4 7)(3 6 8 5)", "(1 3 4 8)(2 5 7 6)"],
                     names=["i", "j"])
    i, j = Q8.names["i"], Q8.names["j"]
    yield build_fusion(Q8, [make_hom(Q8.full_subgroup(), (j, Q8.mul(i, j)))])
    Z9 = build_group(9, ["(1 2 3 4 5 6 7 8 9)"], names=["s"])
    t = Z9.names["s"]
    yield build_fusion(Z9, [make_hom(Z9.full_subgroup(), (Z9.power(t, 2),))])


# --- the pure-Python Hermite normal form --------------------------------------
# The code that the array steps of intlinalg.hnf replaced, kept verbatim:
# one list comprehension per row update.


def hnf(rows) -> list:
    """Canonical row HNF of the lattice spanned by the given integer rows.

    Pivots are positive, entries above each pivot lie in [0, pivot), zero rows
    are dropped.  The result is the unique canonical basis of the row span.
    """
    A = [list(r) for r in rows if any(r)]
    if not A:
        return []
    m, n = len(A), len(A[0])
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if A[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(A[i][c]), i))
            if i0 != r:
                A[r], A[i0] = A[i0], A[r]
            done = True
            for i in range(r + 1, m):
                if A[i][c]:
                    q = A[i][c] // A[r][c]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    if A[i][c]:
                        done = False
            if done:
                break
        if r < m and A[r][c]:
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
            r += 1
            if r == m:
                break
    return [row for row in A[:r] if any(row)]


# --- the kernel over F_q one row at a time -----------------------------------
# The code that the array steps of intlinalg.nullspace_mod replaced, kept
# verbatim: one list comprehension per row operation.


def nullspace_mod(mat, q):
    """Basis of the kernel of a square matrix over F_q."""
    n = len(mat)
    m = [row[:] for row in mat]
    pivots = {}
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if m[i][c] % q), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, q)
        m[r] = [(x * inv) % q for x in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for c, pr in pivots.items():
            vec[c] = (-m[pr][fc]) % q
        basis.append(vec)
    return basis


# --- the structure tensor one row at a time, mod q --------------------------
# The code that the batched pairs of CharacterTable.structure_tensor
# replaced, kept verbatim as functions of the table: every row i of N mod
# one prime q above |G| (Dixon's modular method, with the F_q image that
# the tables held before their inner products became exact integer sums),
# and its certificate in raw int64 products, with _times as it was then.


def _times(x: np.ndarray, y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Exact products of coordinate arrays (power basis on the last axis)."""
    phi = M.shape[1]
    outer = x[..., :, None] * y[..., None, :]
    return outer.reshape(outer.shape[:-2] + (phi * phi,)) @ M


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


def structure_tensor(self) -> np.ndarray:
    modular = ModularImage(self.group)
    X, q = coords_array(self.coords), modular.q
    n = len(self)
    flat = X.reshape(n, -1)
    V = modular.image(X)
    # dual[k, c] = |C_c| conj(chi_k(c)) / |G| in F_q
    dual = modular.conj_image(X) * modular.weights % q
    M = _product_matrix(self.conductor)
    N = np.empty((n, n, n), dtype=np.int64)
    for i in range(n):
        N[i] = V[i] * V % q @ dual.T % q
        if not np.array_equal(N[i] @ flat,
                              _times(X[i], X, M).reshape(n, -1)):
            raise FusionRepError(
                f"products of chi{i + 1} fail the integer certificate")
    return N


# --- decompositions one vector at a time ------------------------------------
# The per-vector code that the batched CharacterTable.multiplicities,
# IntegerSpan.solve, invariants.decompose and intlinalg.reduce_mod_lattice
# replaced, kept verbatim as functions: the Fraction-valued inner products
# against the 4-D dual the tables held then, one solve per target and one
# reduction per vector.


def multiplicities(self, C) -> tuple:
    """<f, chi_k> for every irreducible, as Fractions, exactly.

    C holds the integer power-basis coordinates of the class function f
    at the table's conductor, one row per class (int64, or Python ints
    of any size).  The numerators sum_c |C_c| f(c) conj(chi_k(c)) are
    formed in Z[zeta_e] by one exact integer product with the dual; each
    must be an integer, its other coordinates zero, and is divided by
    |G|.
    """
    X = coords_array(self.coords)
    n, classes, phi = X.shape
    # W[k, c] = |C_c| conj(chi_k(c)), and the integer dual
    # D[c, a, k] = zeta^a W[k, c]: sum_{c, a} f(c)_a D[c, a, k] is
    # |G| <f, chi_k> for the coordinates f(c)_a of a class function f.
    # Row b of _product_matrix, reshaped, is zeta^b times every zeta^a.
    W = X @ _conjugation(self.conductor) * _class_sizes(
        self.group)[:, None]
    D = int_matmul(W.reshape(-1, phi),
                   _product_matrix(self.conductor).reshape(phi, -1))
    dual = np.ascontiguousarray(
        D.reshape(n, classes, phi, phi).transpose(1, 2, 0, 3))
    num = int_matmul(np.reshape(C, (1, -1)),
                     dual.reshape(-1, n * phi)).reshape(n, phi)
    if num[:, 1:].any():
        k = int(num[:, 1:].any(1).argmax())
        raise FusionRepError(
            f"the inner product with chi{k + 1} is not rational")
    return tuple(Fraction(int(x), self.group.order) for x in num[:, 0])


def reduce_mod_lattice(basis_hnf: list, v) -> list:
    """Canonical representative of v modulo the lattice (HNF rows)."""
    v = list(v)
    for row in basis_hnf:
        c = next(k for k, x in enumerate(row) if x)
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


def solve(self, target) -> tuple:
    """Integers x with sum_j x_j columns[j] = target, verified exactly,
    for the IntegerSpan self.

    Reducing (target | 0) against the tagged HNF of the columns leaves
    (target - sum_j x_j columns[j] | -x), with a zero first block
    exactly when target lies in the Z-span.  Raises NotInSpan when the
    columns are dependent or target is no integer combination of them.
    """
    H, columns = self.tagged, self.columns
    n = len(target)
    if any(not any(row[:n]) for row in H):
        raise NotInSpan("the basis vectors are linearly dependent")
    rest = reduce_mod_lattice(H, list(target) + [0] * len(columns))
    if any(rest[:n]):
        raise NotInSpan("not an integer combination of the basis")
    x = tuple(-c for c in rest[n:])
    if any(sum(c * col[i] for c, col in zip(x, columns)) != b
           for i, b in enumerate(target)):
        raise NotInSpan("the basis does not span the vector")
    return x


def decompose(v, B) -> tuple:
    """Integer coordinates over the basis of an invariant row of
    multiplicities over Irr (virtual, possibly negative, entries of any
    size are allowed).  Raises NotInvariant when the row fails the
    invariance conditions and NotInSpan when it is not an integer
    combination of the basis.
    """
    mults = [int(x) for x in v]
    if len(mults) != len(B.mults[0]):
        raise InputError("one multiplicity per irreducible required")
    if int_matmul(B.invariance_rows, mults).any():
        raise NotInvariant("character is not constant on the fusion classes")
    return solve(B.span, mults)


# --- structure constants and module actions through the Irr(S) tensor --------
# The code that invariants.product_coefficients replaced, kept verbatim as
# functions, with the group or table as first argument: structure_constants
# contracts the invariant basis against the structure tensor of Irr(S) and
# rewrites the pairs i <= j, mirrored; action_matrices multiplies through
# pullback_products, with _times as it was then, and runs its own solve and
# sign checks.  decompose is the batched invariants.decompose.


def _times_by_multipliers(x: np.ndarray, y: np.ndarray,
                          M: np.ndarray) -> np.ndarray:
    """Exact products x * y[r] for every r, coordinate arrays with the
    power basis on the last axis: y's first axis becomes the rows of one
    small product per value of x, with that value's multiplication matrix,
    so no temporary holds phi^2 entries per product."""
    return np.moveaxis(int_matmul(np.moveaxis(y, 0, -2), _multipliers(x, M)),
                       -2, 0)


def pullback_products(self, coords, conductor: int, class_map,
                      vectors) -> np.ndarray:
    """Coordinates of (f o pi) * v at [v, f] for every v in vectors and
    every f in coords, exactly.

    Each f is a class function of a quotient group, given by its
    power-basis coordinates at conductor (a divisor of this table's
    conductor), one row per class of the quotient; class c of this group
    maps to class class_map[c] of the quotient.  vectors has the shape
    (t, classes, phi(e)) at this table's conductor e.
    """
    e = self.conductor
    lift = np.array([power_table(e)[k * (e // conductor)]
                     for k in range(degree_phi(conductor))], dtype=np.int64)
    pullback = np.asarray(coords)[..., list(class_map), :] @ lift
    return _times_by_multipliers(pullback, vectors, _product_matrix(e))


def structure_constants(B, names: dict = None) -> RingPresentation:
    """Multiply the nontrivial basis elements pairwise and rewrite linearly.

    The product multiplicities over the irreducibles come from the
    certified structure tensor of Irr(S); the rewriting over the invariant
    basis is verified exactly, and a failure means an upstream bug, not bad
    input.
    """
    table = character_table(B.fusion.S)
    # B lists the unit first, then the generators
    gen_names = apply_names(B.names[1:], names)
    degrees = list(B.degrees[1:])
    m = len(degrees)
    T = np.zeros((m + 1,) * 3, dtype=np.int64)
    T[0] = T[:, 0] = np.eye(m + 1, dtype=np.int64)
    mults = np.array(B.mults[1:], dtype=np.int64).reshape(m, len(table))
    # products[a, b] = multiplicities of X_a X_b over Irr(S)
    products = np.einsum("bj,ajk->abk", mults, np.tensordot(
        mults, np.array(table.structure_tensor(), dtype=np.int64), 1))
    i, j = np.triu_indices(m)
    try:
        coords = np.array(batched_decompose(products[i, j], B),
                          dtype=object).reshape(len(i), m + 1)
    except (NotInvariant, NotInSpan) as ex:
        r = ex.row
        raise DecompositionNotIntegral(
            f"{gen_names[i[r]]}*{gen_names[j[r]]}: {ex}") from ex
    negative = (coords < 0).any(1)
    if negative.any():
        r = int(negative.argmax())
        raise DecompositionNotIntegral(
            f"{gen_names[i[r]]}*{gen_names[j[r]]} has a negative coordinate")
    T[i + 1, j + 1] = T[j + 1, i + 1] = coords
    return RingPresentation(gen_names, Ring([1] + degrees, T), B)


def action_matrices(TB, coords) -> np.ndarray:
    """Matrix i of tensoring with the pullback of character i of the base
    group (power-basis coordinates coords[i], one row per base class): its
    column j decomposes the product with the j-th twisted basis vector.
    One multiplicities call and one solve take every product, and both
    results must be non-negative."""
    E = TB.extension
    tab = character_table(E.group)
    base_class = E.base.class_of()
    s = E.projection.images
    at = [base_class[s[cls[0]]] for cls in E.group.conjugacy_classes()]
    products = pullback_products(
        tab, coords, character_table(E.base).conductor, at,
        coords_array(TB.coords).reshape(len(TB), len(at), -1))
    mults = np.array(tab.multiplicities(products.reshape(
        (-1,) + products.shape[2:]).tolist()), dtype=object).reshape(
            products.shape[:2] + (len(tab),))
    if (mults < 0).any():
        raise DecompositionNotIntegral(
            f"product multiplicity {mults[mults < 0][0]} is not a "
            "non-negative integer")
    try:
        cols = np.array(TB.span.solve(mults.reshape(-1, len(tab))),
                        dtype=object).reshape(-1, len(TB))
    except NotInSpan as ex:
        raise DecompositionNotIntegral(
            f"product with the twisted basis: {ex}") from ex
    if (cols < 0).any():
        raise DecompositionNotIntegral(
            f"coefficient {cols[cols < 0][0]} is not a non-negative integer")
    # row (j, i) of cols is column j of matrix i
    return cols.reshape(mults.shape[:2] + (len(TB),)).transpose(1, 2, 0)


# --- the multiplication table by tuple lookups -------------------------------
# The code that FiniteGroup._build_table replaced, kept verbatim: every row
# composes one element with all of them and looks each product up.


def build_table(self):
    n = self.order
    E = np.array(self.elements, dtype=np.int32)
    key = {p: i for i, p in enumerate(self.elements)}
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        rows = E[i][E]  # rows[j] = elements[i] o elements[j]
        table[i] = [key[tuple(r)] for r in rows.tolist()]
    return table


# --- the table as an int32 array -------------------------------------------

_ARRAYS = weakref.WeakKeyDictionary()  # group -> _table_array


def _table_array(G: FiniteGroup):
    """G.table() as a read-only int32 array, built once per group, or None
    above the table limit."""
    t = G.table()
    if t is None:
        return None
    if G not in _ARRAYS:
        a = np.array(t, dtype=np.int32)
        a.flags.writeable = False
        _ARRAYS[G] = a
    return _ARRAYS[G]


def _mul_array(G: FiniteGroup, a, b):
    """Products of two broadcast index arrays, elementwise: one gather on
    the table, or one lookup in G.rows() per entry above the limit."""
    t = _table_array(G)
    if t is not None:
        return t[a, b]
    a, b = np.broadcast_arrays(a, b)
    rows = G.rows()
    out = [rows[x][y] for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
    return np.array(out, dtype=np.int32).reshape(a.shape)


# --- the table, the walk, the orbits and make_hom on numpy arrays -----------
# The code that the pure-Python FiniteGroup._build_table, FiniteGroup.walk,
# permgroup.orbits and permgroup.make_hom replaced, kept verbatim (with the
# group as first argument, and array_make_hom calling array_walk and
# replay_walk): an int32 table grown by row gathers, a walk of one
# _mul_array gather per layer, orbits by rounds of label lowering over
# index arrays, and make_hom by two _mul_array gathers.  replay_walk is the
# array replay along a walk that permgroup.replay was until the saturation
# check read its values off the walk in pure Python (FusionSystem._values).


def cayley_table(self):
    n = self.order
    table = np.empty((n, n), dtype=np.int32)
    table[self.identity] = np.arange(n, dtype=np.int32)
    reached = np.zeros(n, dtype=bool)
    reached[self.identity] = True
    taken = []  # (index of g, L_g) for the generators taken
    for g, gi in zip(self.gens, self.gen_indices):
        if reached[gi]:
            continue
        taken.append((gi, np.array(
            [self.index[compose(g, e)] for e in self.elements],
            dtype=np.intp)))
        queue = np.flatnonzero(reached).tolist()  # g acts on all of them
        for x in queue:
            row = table[x]
            for h, L in taken:
                y = int(row[h])
                if not reached[y]:
                    reached[y] = True
                    table[y] = row[L]
                    queue.append(y)
    if not reached.all():
        raise InputError("declared generators do not generate the group")
    return table


def array_walk(self, gens) -> tuple:
    gens = np.array(gens, dtype=np.int32)
    seen = np.zeros(self.order, dtype=bool)
    seen[self.identity] = True
    slot = np.empty(self.order, dtype=np.intp)  # a flat index giving y
    frontier = np.array([self.identity], dtype=np.int32)
    reach, back, via, ends = [frontier], [(0,)], [(0,)], [0, 1]
    while len(gens):
        y = _mul_array(self, frontier[:, None], gens).ravel()
        at = (~seen[y]).nonzero()[0]
        if not at.size:
            break
        new = y[at]
        slot[new] = at
        first = at[slot[new] == at]  # one product per new element
        frontier = y[first]
        seen[frontier] = True
        b, v = np.divmod(first, len(gens))
        reach.append(frontier)
        back.append(b + ends[-2])
        via.append(v)
        ends.append(ends[-1] + len(frontier))
    return (np.concatenate(reach), np.concatenate(back),
            np.concatenate(via), ends)


def replay_walk(walk: tuple, states, codomain: FiniteGroup):
    """Entry (k, j) is the image of reach[k] of a walk (FiniteGroup.walk)
    under the map whose values at the walk's generators are row j of
    states, read off reach[k] = reach[back[k]] gens[via[k]].  One
    _mul_array gather per layer replays every state; nothing is checked."""
    reach, back, via, ends = walk
    back, via = np.array(back), np.array(via)
    st = np.asarray(states, dtype=np.int32).T
    img = np.empty((len(reach), st.shape[1]), dtype=np.int32)
    img[0] = codomain.identity
    for lo, hi in zip(ends[1:], ends[2:]):
        img[lo:hi] = _mul_array(codomain, img[back[lo:hi]],
                                st[via[lo:hi]])
    return img


def array_orbits(maps, n: int, key=None) -> tuple:
    label = np.arange(n)
    pairs = [(np.flatnonzero(m >= 0), m[m >= 0]) for m in maps]
    while True:
        before = label.copy()
        for x, y in pairs:
            low = np.minimum(label[x], label[y])
            label[x] = low
            label[y] = low
        label = label[label]
        if np.array_equal(label, before):
            break
    found = {}  # least point -> orbit
    for x, least in enumerate(label.tolist()):
        found.setdefault(least, []).append(x)
    classes = tuple(sorted(map(tuple, found.values()), key=key))
    at = {c[0]: k for k, c in enumerate(classes)}
    return classes, tuple(at[least] for least in label.tolist())


def array_make_hom(domain: Subgroup, gen_images, codomain: FiniteGroup = None,
                   require_injective: bool = True) -> GroupHom:
    G = domain.parent
    H = codomain if codomain is not None else G
    if len(domain.gen_indices) != len(gen_images):
        raise InputError("one image per declared generator required")
    gens = np.array(domain.gen_indices, dtype=np.int32)
    gen_img = np.array(gen_images, dtype=np.int32)
    walk = array_walk(G, gens)
    reach = walk[0]
    img = replay_walk(walk, gen_img[None, :], H)[:, 0]
    pos = np.full(G.order, -1, dtype=np.intp)
    pos[reach] = np.arange(len(reach))
    lhs = img[pos[_mul_array(G, reach[:, None], gens[None, :])]]
    rhs = _mul_array(H, img[:, None], gen_img[None, :])
    if not np.array_equal(lhs, rhs):
        raise NotAHomomorphism("generator images are inconsistent")
    members = np.array(domain.members, dtype=np.int32)
    if len(reach) != domain.order or (pos[members] < 0).any():
        raise InputError("declared generators do not generate the subgroup")
    hom = GroupHom(domain, H, tuple(img[pos[members]].tolist()))
    if require_injective and not hom.is_injective():
        raise NotInjective("map collapses distinct elements")
    return hom


# --- homomorphisms by a scalar search and an |H|^2 check ---------------------
# The code that make_hom and GroupHom.validate replaced, kept verbatim:
# make_hom extends the generator images one element and generator at a
# time and then validates, and validate compares one product table of all
# member pairs on each side.


def make_hom_by_search(domain: Subgroup, gen_images,
                       codomain: FiniteGroup = None,
                       require_injective: bool = True) -> GroupHom:
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
    validate(hom)
    if require_injective and not hom.is_injective():
        raise NotInjective("map collapses distinct elements")
    return hom


def validate(self):
    G = self.domain.parent
    mem_a = np.array(self.domain.members, dtype=np.int32)
    img_a = np.array(self.images, dtype=np.int32)
    img_map = np.full(G.order, -1, dtype=np.int32)
    img_map[mem_a] = img_a
    lhs = img_map[_mul_array(G, mem_a[:, None], mem_a[None, :])]
    if (lhs < 0).any():
        raise NotAHomomorphism("domain is not multiplicatively closed")
    rhs = _mul_array(self.codomain, img_a[:, None], img_a[None, :])
    if not np.array_equal(lhs, rhs):
        raise NotAHomomorphism("images violate the multiplication table")


# --- classes, replays and inverses before the walk and the orbits -----------
# The code that FiniteGroup.walk, permgroup.replay and permgroup.orbits
# replaced, kept verbatim (with the group or the fusion system as first
# argument): FiniteGroup.conj, the breadth-first conjugacy classes, the
# union-find element classes of FusionSystem, its recipe of scalar steps
# and their replay, one gather per step (without the recipe cache), and
# GroupHom.inverse with the two methods it called.


def conj(self, g: int, x: int) -> int:
    """g x g^-1."""
    return self.mul(self.mul(g, x), self.inv(g))


def conjugacy_classes(self):
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
                y = conj(self, g, x)
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


def element_classes(self):
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
            union(x, conj(S, g, x))
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


def recipe(self, gens: tuple):
    """(domain Subgroup, steps) where replaying steps extends any
    generator-image state to a full map.  steps[k] = (y, x, i) meaning
    image[y] = image[x] * state[i], with y and x positions in the
    domain's member order."""
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
                    steps.append((dom.pos(y), dom.pos(x), i))
                    new.append(y)
        frontier = new
    out = (dom, tuple(steps))
    return out


def replay(self, gens: tuple, states) -> np.ndarray:
    """Full maps of generator-image states: column k holds the images of
    the members of <gens>, in member order, under states[k].  One
    gather per recipe step replays every state at once."""
    S = self.S
    dom, steps = recipe(self, gens)
    st = np.array(states, dtype=np.int32).reshape(len(states), len(gens)).T
    img = np.empty((dom.order, len(states)), dtype=np.int32)
    img[dom.pos(S.identity)] = S.identity
    for y, x, i in steps:
        img[y] = _mul_array(S, img[x], st[i])
    return img


def image_members(self) -> tuple:
    return tuple(sorted(self.images))


def image_subgroup(self) -> Subgroup:
    gens = tuple(self.apply(g) for g in self.domain.gen_indices) or self.images
    return Subgroup(self.codomain, image_members(self), gens)


def inverse(self) -> "GroupHom":
    if not self.is_injective():
        raise NotInjective("only injective maps invert")
    image = image_subgroup(self)
    pre = {v: m for m, v in zip(self.domain.members, self.images)}
    return GroupHom(image, self.domain.parent,
                    tuple(pre[m] for m in image.members))


# --- the exhaustive saturation check before the table gathers ----------------
# closure and the methods of ExhaustiveSaturation are the code that
# FiniteGroup.closure and FusionSystem.check_saturation replaced, kept
# verbatim: two-sided frontier products in closure, and in the check a
# scalar breadth-first search of the morphisms, a dict replay of each
# morphism, N_phi by one conj and apply per element and generator, and
# one _small_gens per morphism.


def closure(self, gen_indices) -> tuple:
    """Sorted member indices of the subgroup generated by gen_indices."""
    t = _table_array(self)
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


# --- subgroups, normalizers and centralizers before the layers ---------------
# enumerate_subgroups is the pairwise-join search that the layered
# FiniteGroup._enumerate_subgroups replaced, and normalizer and centralizer
# the loops over the group that FiniteGroup.normalizer and centralizer
# replaced, kept verbatim (with the group as first argument).


def enumerate_subgroups(self, cap: int) -> tuple:
    """(all subgroups, candidates tried): cyclic ones, then closure
    under pairwise join."""
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
    return tuple(subs), candidates


def centralizer(self, sub: Subgroup) -> Subgroup:
    self._check_parent(sub)
    gens = sub.gen_indices or sub.members
    members = [
        g
        for g in range(self.order)
        if all(self.mul(g, x) == self.mul(x, g) for x in gens)
    ]
    return Subgroup(self, tuple(members), tuple(members))


def normalizer(self, sub: Subgroup) -> Subgroup:
    self._check_parent(sub)
    mset = set(sub.members)
    gens = sub.gen_indices or sub.members
    members = [
        g for g in range(self.order) if all(conj(self, g, x) in mset for x in gens)
    ]
    return Subgroup(self, tuple(members), tuple(members))


# --- linear characters --------------------------------------------------------

def derived_subgroup(G, H: Subgroup) -> tuple:
    """Members of [H, H]: the closure of the commutators x^-1 y^-1 x y."""
    mem = np.array(H.members)
    inv = np.array([G.inv(x) for x in H.members])
    comms = _mul_array(G, _mul_array(G, inv[:, None], inv[None, :]),
                       _mul_array(G, mem[:, None], mem[None, :]))
    return G.closure(tuple(np.unique(comms).tolist()))


def check_linear_characters(G, H: Subgroup, rows, e: int):
    """Assert that rows (exponents mod e at H.members) are the linear
    characters of H: each is a homomorphism H -> Z/e on H x H, the rows are
    distinct, and there are [H : H'] of them."""
    rows = np.asarray(rows, dtype=np.int64)
    mem = np.array(H.members)
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[mem] = np.arange(H.order)
    prod = pos[_mul_array(G, mem[:, None], mem[None, :])]
    assert (prod >= 0).all()
    for row in rows:
        assert ((row[:, None] + row[None, :] - row[prod]) % e == 0).all()
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert len(rows) * len(derived_subgroup(G, H)) == H.order


# --- exact values on integer coordinates -------------------------------------

def value_product(e: int, x, y) -> tuple:
    """The coordinates of x * y in Z[zeta_e]."""
    powers = power_table(e)
    out = [0] * len(x)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                for k, c in enumerate(powers[i + j]):
                    out[k] += a * b * c
    return tuple(out)


def value_conjugate(e: int, x) -> tuple:
    """The coordinates of the complex conjugate, zeta_e -> zeta_e^-1."""
    powers = power_table(e)
    out = [0] * len(x)
    for k, a in enumerate(x):
        if a:
            for i, c in enumerate(powers[-k % e]):
                out[i] += a * c
    return tuple(out)


def inner_product(G, e: int, f, g) -> Fraction:
    """<f, g> = (1/|G|) sum_c |C_c| f(c) conj(g(c)) for class functions
    given as one coordinate row per class of G; it must be rational."""
    total = [0] * len(f[0])
    for cls, x, y in zip(G.conjugacy_classes(), f, g):
        if any(x) and any(y):
            xy = value_product(e, x, value_conjugate(e, y))
            total = [t + len(cls) * c for t, c in zip(total, xy)]
    assert not any(total[1:]), "the inner product is not rational"
    return Fraction(total[0], G.order)


def subgroup_group(P: Subgroup) -> FiniteGroup:
    """P realized as its own FiniteGroup, with the parent's names in it."""
    parent = P.parent
    elements = tuple(parent.elements[m] for m in P.members)
    gens = tuple(parent.elements[g] for g in P.gen_indices) or elements
    G = FiniteGroup(parent.degree, gens, elements)
    for name, idx in parent.names.items():
        if P.contains(idx):
            G.names.setdefault(name, G.index[parent.elements[idx]])
    return G


def constant_on_fusion_classes(F, coords) -> bool:
    """Whether the class function (one coordinate row per class of F.S)
    takes a single value on every F-class of elements."""
    class_of = F.element_class_of()
    seen = {}
    for row, cls in zip(np.asarray(coords).tolist(),
                        F.S.conjugacy_classes()):
        if seen.setdefault(class_of[cls[0]], row) != row:
            return False
    return True


# --- primes of Z[zeta_n] by exhaustive search --------------------------------

def monic_factors(q: int, n: int) -> list:
    """The monic irreducible factors of Phi_n mod q, for a prime q not
    dividing n, sorted: every one has degree the order d of q mod n, so
    each monic polynomial of degree d that divides is one of them."""
    phi = _reduce_mod(cyclotomic_polynomial(n), q)
    d = _mult_order(q, n)
    found = []
    for code in range(q ** d):
        cand = []
        for _ in range(d):
            cand.append(code % q)
            code //= q
        cand.append(1)
        if not _polmod_divmod(phi, tuple(cand), q)[1]:
            found.append(tuple(cand))
    assert len(found) * d == len(phi) - 1
    return sorted(found)


# --- the spectrum poset by pairwise containment ------------------------------

class PrimeSymbol:
    """A prime of the invariant ring: a coefficient prime and an F-class.

    The stored class index is already canonical: over the defining prime of
    S every class is identified with the class of the identity.
    """

    __slots__ = ("fusion", "prime", "fclass")

    def __init__(self, fusion, prime: CycPrime, fclass: int):
        if not 0 <= fclass < len(fusion.element_classes()):
            raise InputError("class index out of range")
        if prime.q is not None and prime.q == fusion.p:
            fclass = _class_of_identity(fusion)
        object.__setattr__(self, "fusion", fusion)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "fclass", fclass)

    def __setattr__(self, *a):
        raise AttributeError("PrimeSymbol is immutable")

    def is_minimal(self) -> bool:
        return self.prime.q is None

    def __eq__(self, other):
        if not isinstance(other, PrimeSymbol):
            return NotImplemented
        return (self.fusion is other.fusion and self.prime == other.prime
                and self.fclass == other.fclass)

    def __hash__(self):
        return hash((id(self.fusion), self.prime, self.fclass))

    def __str__(self):
        return f"P[{self.prime}, class {self.fclass}]"

    __repr__ = __str__


def _class_of_identity(F) -> int:
    return F.element_class_of()[F.S.identity]


def symbol_leq(a: PrimeSymbol, b: PrimeSymbol) -> bool:
    """Containment of invariant-ring primes.

    Holds when the coefficient primes are nested and the class indices agree
    after canonicalizing both at the larger prime (so over the defining
    prime every minimal symbol sits below the single collapsed symbol).
    """
    if a.fusion is not b.fusion:
        raise FusionRepError("symbols belong to different fusion systems")
    if a == b:
        return True
    if a.prime.q is not None:
        return False
    if b.prime.q is None:
        return False
    x = a.fclass
    if b.prime.q == a.fusion.p:
        x = _class_of_identity(a.fusion)
    return x == b.fclass


def is_connected(nodes, edges) -> bool:
    """Whether the edges join all the nodes, by union-find."""
    n = len(nodes)
    if n == 0:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    root = find(0)
    return all(find(i) == root for i in range(n))


def symbol_nodes(F, primes, n: int) -> list:
    """The symbols over the zero ideal and the listed rational primes, in
    the order of spectrum.prime_symbols, at conductor n."""
    k = len(F.element_classes())
    nodes = [PrimeSymbol(F, CycPrime(n), x) for x in range(k)]
    for q in sorted(set(int(v) for v in primes)):
        for p in primes_above(q, n):
            if q == F.p:
                nodes.append(PrimeSymbol(F, p, _class_of_identity(F)))
            else:
                nodes.extend(PrimeSymbol(F, p, x) for x in range(k))
    return nodes


def containments(symbols) -> list:
    """Every pair (i, j), i != j, with symbols[i] below symbols[j], by
    symbol_leq on every ordered pair."""
    return [(i, j) for i, a in enumerate(symbols)
            for j, b in enumerate(symbols) if i != j and symbol_leq(a, b)]


# --- centric and radical subgroups ------------------------------------------

def is_centric(F, P: Subgroup) -> bool:
    """Whether every F-conjugate Q of P contains its centralizer C_S(Q)."""
    S = F.S
    return all(set(S.centralizer(Subgroup(S, mem, mem)).members) <= set(mem)
               for mem in ExhaustiveSaturation(F).subgroup_class(P))


def core_p(A: FiniteGroup, p: int) -> tuple:
    """O_p(A), the largest normal p-subgroup, as sorted member indices: the
    union of the conjugacy classes whose normal closure is a p-group."""
    C = np.array([[conj(A, g, x) for x in range(A.order)]
                  for g in range(A.order)])  # C[g, x] = g x g^-1
    seen = np.zeros(A.order, dtype=bool)
    core = []
    for x in range(A.order):
        if not seen[x]:
            cls = np.unique(C[:, x])
            seen[cls] = True
            if is_p_group(len(A.closure(cls.tolist())), p):
                core += cls.tolist()
    return tuple(sorted(core))


def is_radical(F, P: Subgroup) -> bool:
    """Whether O_p(Out_F(P)) = 1.  Inn(P) is a normal p-subgroup of
    Aut_F(P), so this holds when O_p(Aut_F(P)) = Inn(P).  Both act on the
    positions of P's members; Aut_F(P) is replayed from the closed
    morphisms out of P that land in P."""
    if P.order == 1:
        return True
    S = F.S
    gens = F._sub_gens(P)
    inside = frozenset(P.members)
    states = [st for st in F._hom_states(gens, DEFAULT_MORPHISM_CAP)
              if inside.issuperset(st)]
    auts = sorted({tuple(P.pos(x) for x in col)
                   for col in replay(F, gens, states).T.tolist()})
    A = FiniteGroup(P.order, tuple(auts), tuple(auts))
    center = set(S.centralizer(P).members) & set(P.members)
    return len(core_p(A, F.p)) == P.order // len(center)  # |Inn(P)|


# --- quotients of groups and fusion systems ----------------------------------
# The code that twisted._check_lift replaced, kept verbatim except that the
# center is the centralizer of the whole group: the quotient S/A as the
# action on the cosets of A and the quotient fusion system; then the
# comparison of its closed morphisms with the base system's.


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


def quotient_fusion(F, A: Subgroup):
    """Quotient fusion system on S/A for central A fixed pointwise by every
    generator.  The result carries .projection (element index of S -> element
    index of S/A), for callers that match data through the quotient."""
    S = F.S
    S._check_parent(A)
    Z = S.centralizer(S.full_subgroup())
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
    Fq = build_fusion(Sq, tuple(gens_q))
    Fq.projection = proj
    return Fq


def quotient_match(E, Fq, base):
    """Compare the quotient of the lifted system with the base system
    subgroup by subgroup: through the bijection psi of S/A with the base
    group, the closed morphisms out of every subgroup of the base, found
    by the scalar search of ExhaustiveSaturation, are the same."""
    if base.S is not E.base:
        raise GroupMismatch("base fusion system lives on the wrong group")
    pre = {}
    for idx, pt in enumerate(Fq.projection):
        pre.setdefault(pt, idx)
    psi = {pt: E.projection.apply(x) for pt, x in pre.items()}
    if sorted(psi.values()) != list(range(E.base.order)):
        raise QuotientMismatch("quotient does not biject onto the base group")
    point = {x: pt for pt, x in psi.items()}
    quotient, given = ExhaustiveSaturation(Fq), ExhaustiveSaturation(base)
    for P in E.base.all_subgroups():
        gens = _small_gens(E.base, P.members)
        pushed = quotient._hom_states(tuple(point[g] for g in gens),
                                      DEFAULT_MORPHISM_CAP)
        if {tuple(psi[x] for x in st) for st in pushed} != set(
                given._hom_states(gens, DEFAULT_MORPHISM_CAP)):
            raise QuotientMismatch(
                "quotient morphisms do not match the base fusion system")


def unit_row_twisted_hilbert(E, F_alpha, cap: int = DEFAULT_HILBERT_CAP) -> list:
    """The Hilbert basis of the twisted invariant monoid over all of
    Irr(E.group): the invariance rows of the lifted system, then one unit
    row for every irreducible that is not an a-representation."""
    a_reps = a_representations(E)
    tab = character_table(E.group)
    rows = [list(r) for r in invariance_matrix(F_alpha)]
    keep = set(a_reps)
    m = len(tab)
    for i in range(m):
        if i not in keep:
            unit = [0] * m
            unit[i] = 1
            rows.append(unit)
    return hilbert_basis(rows, ncols=m, cap=cap)


# --- cocycles, ideals and job specs ------------------------------------------

def zero_section(E) -> tuple:
    """The section s -> (0, s) of an extension that
    extension.central_extension built: (0, s) is the element whose
    permutation sends point S.identity to point s."""
    e = E.base.identity
    sec = [None] * E.base.order
    for x, perm in enumerate(E.group.elements):
        if perm[e] < E.base.order:
            sec[perm[e]] = x
    return tuple(sec)


def section_cocycle(E, section=None) -> tuple:
    """The cocycle table of a section of the central extension E, by
    default zero_section(E): alpha(s, t) is the discrete logarithm, to the
    base E.a_gen, of sec(s) sec(t) sec(st)^-1.  For the extension that
    extension.central_extension builds from a cocycle this is that
    cocycle's table."""
    G, S = E.group, E.base
    sec = zero_section(E) if section is None else tuple(section)
    dlog = {}
    cur = G.identity
    for j in range(E.coeff):
        dlog[cur] = j
        cur = G.mul(cur, E.a_gen)
    return tuple(
        tuple(dlog[G.mul(G.mul(sec[s], sec[t]), G.inv(sec[S.mul(s, t)]))]
              for t in range(S.order))
        for s in range(S.order))


def cocycle_violations(alpha, limit: int = 20) -> list:
    """The report of extension.validate_cocycle by a plain scan: the
    normalization failures, then every triple (s1, s2, s3), in order, at
    which alpha(s1, s2) + alpha(s1 s2, s3) = alpha(s2, s3) + alpha(s1, s2 s3)
    fails mod n, cut after limit entries."""
    S, n, T = alpha.group, alpha.coeff, alpha.table
    e = S.identity
    out = []
    for s in range(S.order):
        if T[e][s] % n:
            out.append(f"alpha(1, {s}) = {T[e][s]} != 0")
        if T[s][e] % n:
            out.append(f"alpha({s}, 1) = {T[s][e]} != 0")
    for s1, s2, s3 in itertools.product(range(S.order), repeat=3):
        if (T[s1][s2] + T[S.mul(s1, s2)][s3] - T[s2][s3]
                - T[s1][S.mul(s2, s3)]) % n:
            if len(out) >= limit:
                out.append("... (further violations suppressed)")
                return out
            out.append(f"associativity fails at ({s1}, {s2}, {s3})")
    return out


class ChainCompletedModule:
    """The completed module as chain_completed_module reports it: kind
    "finite" with the free rank and the torsion of the quotient by the
    stable lattice, or "symbolic" when the chain did not stabilize."""

    def __init__(self, kind, basis_names, action_names, shifted,
                 free_rank=None, torsion=None):
        self.kind = kind
        self.basis_names = tuple(basis_names)
        self.action_names = tuple(action_names)
        self.shifted = tuple(shifted)
        self.free_rank = free_rank
        self.torsion = tuple(torsion) if torsion is not None else None

    def group_string(self) -> str:
        if self.kind != "finite":
            return "(not stabilized)"
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"

    def __str__(self):
        if self.kind == "finite":
            lines = [f"completed module: {self.group_string()}"]
        else:
            lines = ["completed module (symbolic): chain did not stabilize, "
                     f"generators ({', '.join(self.basis_names)})"]
        for name, M in zip(self.action_names, self.shifted):
            lines.append(f"  {name} acts by {list(list(r) for r in M)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "basis": list(self.basis_names),
            "actions": {n: [list(r) for r in M]
                        for n, M in zip(self.action_names, self.shifted)},
        }
        if self.kind == "finite":
            out["free_rank"] = self.free_rank
            out["torsion"] = list(self.torsion)
        return out


def chain_completed_module(TM, P, names=None, cap: int = 64):
    """Quotient of the twisted module along the stable lattice of the chain
    L_{k+1} = sum_i N_i L_k of the shifted matrices N_i = M_i - d_i.

    Equality of successive lattices detects stabilization, and the quotient
    is reported through its Smith form; without stabilization within the
    cap the answer is symbolic.
    """
    if tuple(P.names) != TM.names or tuple(P.degrees) != TM.degrees:
        raise AmbientMismatch("module and presentation disagree on generators")
    if names is None:
        names = tuple(f"v{k + 1}" for k in range(len(TM.names)))
    t = len(TM.basis)
    shifted = tuple(tuple(tuple(v - d * (i == j) for j, v in enumerate(row))
                          for i, row in enumerate(M))
                    for M, d in zip(TM.matrices, TM.degrees))
    # N acts on column vectors, so v -> N v is the row action of N^T
    chain = lattice_chain([np.array(N, dtype=np.int64).reshape(t, t).T
                           for N in shifted], t)
    current = [[int(i == j) for j in range(t)] for i in range(t)]
    for _ in range(cap):
        nxt = next(chain)
        if nxt == current:
            diag = smith_diagonal([list(r) for r in nxt] or [[0] * t])
            nonzero = [d for d in diag if d != 0]
            return ChainCompletedModule(
                "finite", TM.basis.names, names, shifted,
                free_rank=t - len(nonzero),
                torsion=[d for d in nonzero if d != 1])
        current = nxt
    return ChainCompletedModule("symbolic", TM.basis.names, names, shifted)


def ring_product(ring, u, v) -> tuple:
    """u v in a ringpres.Ring, both written over its basis."""
    return tuple(int_matmul([v], ring.times(u))[0].tolist())


def ideal_product(ring, L1, L2) -> list:
    """The HNF rows of the lattice spanned by the pairwise products of two
    ideal bases of a ringpres.Ring."""
    return hnf([ring_product(ring, u, v) for u in L1 for v in L2])


def augmentation_nilpotence(ring, p: int, cap: int = 64) -> int:
    """Least N with I^N inside p I for the augmentation ideal I of a
    ringpres.Ring; such an N makes the I-adic and p-adic topologies on I
    agree."""
    I = ring.augmentation_power(1)
    # p times canonical HNF rows are the canonical HNF rows of p I
    pI = [[p * c for c in row] for row in I]
    for n in range(1, cap + 1):
        if lattice_contains(pI, ring.augmentation_power(n)):
            return n
    raise AssertionError(f"no N up to {cap} has I^N inside {p} I")


def _word_text(word) -> str:
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in word)


def _entry_text(entry) -> str:
    if entry[0] == "gl2":
        m = entry[1]
        return f"gl2 = [[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]"
    _, target, words = entry
    return f"{target} -> " + ", ".join(map(_word_text, words))


def spec_text(spec) -> str:
    """A jobspec.JobSpec written in the job file format."""
    out = ["[group]"]
    if spec.group_constructor is not None:
        out.append(f"constructor = {spec.group_constructor}")
        out.append(f"p = {spec.group_p}")
    else:
        out.append(f"degree = {spec.group_degree}")
        for name, perm in spec.group_gens:
            out.append(f"{name} = {format_cycles(perm)}")
    if spec.subgroups:
        out += ["", "[subgroups]"]
        for name, words in spec.subgroups:
            out.append(f"{name} = " + ", ".join(map(_word_text, words)))
    if spec.fusion:
        out += ["", "[fusion]"] + [_entry_text(e) for e in spec.fusion]
    if spec.extension is not None:
        out += ["", "[extension]"]
        if spec.extension[0] == "cocycle":
            _, n, fname, transpose = spec.extension
            out.append(f"coefficients = {n}")
            out.append(f"cocycle = {fname}")
            if transpose:
                out.append("transpose = true")
        else:
            _, degree, gens, kernel, projections = spec.extension
            out.append(f"degree = {degree}")
            for name, perm in gens:
                out.append(f"{name} = {format_cycles(perm)}")
            out.append(f"kernel = {_word_text(kernel)}")
            out.append("projection = "
                       + ", ".join(map(_word_text, projections)))
    if spec.fusion_alpha:
        out += ["", "[fusion_alpha]"]
        out += [_entry_text(e) for e in spec.fusion_alpha]
    if spec.options:
        out += ["", "[options]"]
        for key, value in spec.options:
            if key == "primes":
                out.append("primes = " + ", ".join(map(str, value)))
            else:
                out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


class ExhaustiveSaturation:
    """check_saturation of a FusionSystem F with the scalar code it had
    before the gathers, with the generators' inverses of the oracle
    inverse.  Attributes it does not define (S, p, generators, _sub_gens)
    are F's."""

    def __init__(self, F):
        self.F = F
        self._inverses = tuple(inverse(phi) for phi in F.generators)
        self._hom_cache = {}
        self._recipe_cache = {}
        self._conj_set_cache = {}
        self._ext_index_cache = {}

    def __getattr__(self, name):
        return getattr(self.F, name)

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
                candidates = [tuple(conj(S, g, x) for x in st)
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

    def aut_count(self, P: Subgroup, cap: int = DEFAULT_MORPHISM_CAP) -> int:
        """|Aut_F(P)| without materializing full maps."""
        if P.order == 1:
            return 1
        gens = self._sub_gens(P)
        mem = frozenset(P.members)
        return sum(1 for st in self._hom_states(gens, cap)
                   if all(x in mem for x in st))

    def check_saturation(
        self,
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
        if S.order == 1:
            return SaturationReport(True, [], 1, 0)
        p = self.p
        subs = (S.all_subgroups() if subgroup_cap is None
                else S.all_subgroups(subgroup_cap))
        by_key = {sub.members: sub for sub in subs}
        norm_sub = {sub.members: normalizer(S, sub) for sub in subs}
        cent_ord = {sub.members: centralizer(S, sub).order for sub in subs}

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
        out = frozenset(tuple(conj(S, h, q) for q in qgens)
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
            if tuple(phi.apply(conj(S, g, pre[q])) for q in qgens) in conj_set
        ]
        if len(n_phi) == P.order:
            return  # N_phi = P and phi extends itself
        gens_n = _small_gens(S, n_phi)
        if st in self._ext_index(gens_n, pgens, cap):
            return
        violations.append(
            f"axiom II: no extension of {_describe(S, P.members)} -> "
            f"{_describe(S, Q.members)} to N_phi of order {len(n_phi)}")
