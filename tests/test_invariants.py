import itertools

import pytest

from fusionrep.chartable import character_table, regular_character
from fusionrep.errors import HilbertCapExceeded, NotInvariant
from fusionrep.fusion import build_fusion
from fusionrep.intlinalg import hnf, kernel_basis
from fusionrep.invariants import (RepVector, covering_check, decompose,
                                  hilbert_basis, invariance_matrix,
                                  irreducible_invariants, is_stable)
from fusionrep.permgroup import build_group, extraspecial_p3, make_hom


def test_hilbert_unit():
    assert hilbert_basis([], ncols=3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert hilbert_basis([[1, -1]]) == [(1, 1)]
    hb = hilbert_basis([[1, 1, -2]])
    assert set(hb) == {(1, 1, 1), (2, 0, 1), (0, 2, 1)}
    assert hilbert_basis([[1, 1]]) == []


def test_hilbert_cap():
    with pytest.raises(HilbertCapExceeded):
        hilbert_basis([[1, 1, -2]], cap=2)


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


def test_hilbert_against_bruteforce():
    """Oracle on every fixture group of order at most 16."""
    for F in small_fusions():
        assert F.S.order <= 16
        rows = invariance_matrix(F)
        ncols = len(character_table(F.S).irreducibles)
        B = irreducible_invariants(F)
        computed = {v.multiplicities for v in B.vectors}
        bound = max(max(v) for v in computed) + 1
        assert computed == brute_hilbert(rows, ncols, bound)


def test_sigma3_basis():
    Z3 = build_group(3, ["(1 2 3)"], names=["s"])
    s = Z3.names["s"]
    F = build_fusion(Z3, [make_hom(Z3.full_subgroup(), (Z3.power(s, 2),))])
    assert len(hnf(invariance_matrix(F))) == 1
    B = irreducible_invariants(F)
    assert B.names == ("1", "X1")
    assert [v.degree() for v in B.vectors] == [1, 2]
    assert B.vectors[1].multiplicities == (0, 1, 1)


def test_trivial_fusion_basis_is_irr():
    Z3 = build_group(3, ["(1 2 3)"], names=["s"])
    F = build_fusion(Z3, [])
    assert invariance_matrix(F) == []
    B = irreducible_invariants(F)
    assert len(B) == 3
    assert all(sum(v.multiplicities) == 1 for v in B.vectors)


def test_a4_basis_decompose_covering():
    V4 = build_group(4, ["(1 2)(3 4)", "(1 3)(2 4)"], names=["x", "y"])
    x, y = V4.names["x"], V4.names["y"]
    F = build_fusion(V4, [make_hom(V4.full_subgroup(), (y, V4.mul(x, y)))])
    B = irreducible_invariants(F)
    assert [v.degree() for v in B.vectors] == [1, 3]
    assert B.vectors[1].multiplicities == (0, 1, 1, 1)
    assert decompose([1, 1, 1, 1], B) == (1, 1)
    assert decompose([2, 1, 1, 1], B) == (2, 1)
    assert decompose([-1, -1, -1, -1], B) == (-1, -1)
    with pytest.raises(NotInvariant):
        decompose([0, 1, 0, 0], B)
    rep = covering_check(F, B)
    assert rep.ok and rep.uncovered == ()
    tab = character_table(V4)
    assert is_stable(B.vectors[1].character, F)
    assert not is_stable(tab[1], F)
    assert is_stable(regular_character(V4), F)


def test_basis_count_matches_classes(pipeline):
    for stem in ("sigma_3", "sigma_5", "sigma_7", "a4", "onan", "onan_2",
                 "he", "he_2", "fi24p", "fi24", "rv1", "rv2", "rv3"):
        P = pipeline(stem)
        assert len(P.basis) == len(P.fusion.element_classes()), stem


def test_onan_basis(pipeline):
    P = pipeline("onan")
    B = P.basis
    assert [v.degree() for v in B.vectors] == [1, 150, 192]
    tab = character_table(P.group)
    d7 = [i for i, d in enumerate(tab.degrees()) if d == 7]
    vA, vB = B.vectors[1].multiplicities, B.vectors[2].multiplicities
    assert all(vA[i] == 3 for i in d7)
    assert all(vB[i] == 4 for i in d7)
    rep = covering_check(P.fusion, B)
    assert rep.ok, rep.uncovered
    # the sum of the nonlinear irreducibles alone is not stable
    zvec = [0] * 55
    for i in d7:
        zvec[i] = 1
    assert not is_stable(RepVector(P.group, zvec).character, P.fusion)
    assert is_stable(B.vectors[1].character, P.fusion)


def test_covering_all_fixtures(pipeline):
    for stem in ("sigma_3", "sigma_5", "sigma_7", "a4", "onan", "he",
                 "he_2", "fi24p", "rv2"):
        P = pipeline(stem)
        rep = covering_check(P.fusion, P.basis)
        assert rep.ok, (stem, rep.uncovered)


def test_exact_rank_when_the_modular_test_reports_a_kernel(pipeline,
                                                           monkeypatch):
    import fusionrep.chartable as chartable
    stems = ("sigma_3", "a4", "onan", "he")
    want = {stem: pipeline(stem).basis.vectors for stem in stems}
    exact = []

    def counted_hnf(rows):
        exact.append(len(rows))
        return hnf(rows)

    monkeypatch.setattr(chartable, "nullspace_mod", lambda mat, q: [[1]])
    monkeypatch.setattr(chartable, "hnf", counted_hnf)
    for stem in stems:
        assert irreducible_invariants(pipeline(stem).fusion).vectors \
            == want[stem]
    assert len(exact) == len(stems)
    for stem in ("sigma_7", "a4"):
        tab = character_table(pipeline(stem).group)
        values = tab.coords.copy()
        assert tab.rank(values) == len(tab)
        values[-1] = values[0]
        assert tab.rank(values) == len(tab) - 1
