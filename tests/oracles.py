"""Slow reference implementations that the tests compare the library with.

pottier_hilbert_basis is the pure-Python Pottier completion that
invariants.hilbert_basis replaced, kept verbatim as an oracle: it runs on
the full columns, with tuples, and skips no pair.  brute_hilbert searches
a box exhaustively.  small_fusions yields the fusion systems on every
fixture group of order at most 16.
"""

import itertools
from collections import deque

from fusionrep.errors import HilbertCapExceeded, InputError
from fusionrep.fusion import build_fusion
from fusionrep.intlinalg import kernel_basis
from fusionrep.invariants import DEFAULT_HILBERT_CAP
from fusionrep.permgroup import build_group, make_hom


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
