import random
from fractions import Fraction

import numpy as np
import pytest

from fusionrep import chartable
from fusionrep.chartable import (_compute_table, _induced_coords,
                                 _linear_characters, character_table)
from fusionrep.cyclotomic import power_table, value_json
from fusionrep.errors import SubgroupEnumerationCapExceeded
from fusionrep.permgroup import FiniteGroup, build_group, extraspecial_p3

from oracles import inner_product, value_conjugate, value_product


def rows(tab):
    """The irreducibles as nested tuples: row, class, coordinate."""
    return list(tab.coords)


def inner(tab, f, g):
    return inner_product(tab.group, tab.conductor, f, g)


def orthonormal(tab):
    chars = rows(tab)
    for i, f in enumerate(chars):
        for j, g in enumerate(chars):
            assert inner(tab, f, g) == (1 if i == j else 0)


def vanishes_off_the_center(tab, k):
    S = tab.group
    Z = S.centralizer(S.full_subgroup())
    for x in range(S.order):
        if not Z.contains(x):
            assert not any(tab.coords[k][S.class_of()[x]])


def test_cyclic_nine():
    G = build_group(9, ["(1 2 3 4 5 6 7 8 9)"], names=["s"])
    tab = character_table(G)
    assert tab.degrees() == (1,) * 9
    assert all(v[0] == 1 for v in tab.coords[0])  # trivial first
    assert not any(any(v[1:]) for v in tab.coords[0])
    orthonormal(tab)


def test_quaternion():
    Q8 = build_group(8, ["(1 2 4 7)(3 6 8 5)", "(1 3 4 8)(2 5 7 6)"])
    assert Q8.order == 8
    tab = character_table(Q8)
    assert tab.degrees() == (1, 1, 1, 1, 2)
    orthonormal(tab)


def test_extraspecial_three():
    S = extraspecial_p3(3)
    tab = character_table(S)
    assert tab.degrees() == (1,) * 9 + (3, 3)
    orthonormal(tab)
    # nonlinear characters vanish off the center
    for k in range(9, 11):
        vanishes_off_the_center(tab, k)


def test_extraspecial_seven():
    S = extraspecial_p3(7)
    tab = character_table(S)
    assert tab.degrees() == (1,) * 49 + (7,) * 6
    assert sum(int(d) ** 2 for d in tab.degrees()) == S.order
    random.seed(0)
    pairs = [(i, j) for i in range(55) for j in range(55)]
    random.shuffle(pairs)
    chars = rows(tab)
    for i, j in pairs[:300]:
        assert inner(tab, chars[i], chars[j]) == (1 if i == j else 0)
    c = S.class_of()[S.names["c"]]
    for k in range(49, 55):
        assert any(tab.coords[k][c])
        vanishes_off_the_center(tab, k)


def test_irr_shares_the_subgroup_enumeration_without_its_cap():
    """character_table reads the cached enumeration that saturation caps
    (73 closures for the 39 subgroups of 5^{1+2}) but takes no cap itself."""
    S = extraspecial_p3(5)
    G = FiniteGroup(S.degree, S.gens, S.elements)
    assert len(character_table(G)) == 29
    with pytest.raises(SubgroupEnumerationCapExceeded):
        G.all_subgroups(72)
    assert len(G.all_subgroups(73)) == 39
    G = FiniteGroup(S.degree, S.gens, S.elements)
    with pytest.raises(SubgroupEnumerationCapExceeded):
        G.all_subgroups(5)
    assert len(character_table(G)) == 29


@pytest.mark.parametrize("make,calls", [
    (lambda: extraspecial_p3(7), 2),
    (lambda: extraspecial_p3(3), 2),
    (lambda: build_group(10, [f"({2 * k + 1} {2 * k + 2})"
                              for k in range(5)]), 1),
], ids=["7^{1+2}", "3^{1+2}", "(Z/2)^5"])
def test_irr_search_stops_once_the_degrees_fill_the_order(monkeypatch, make,
                                                          calls):
    """Walking the subgroups from the largest down, an abelian group is done
    with its own linear characters and an extraspecial one after a single
    maximal subgroup adds its p - 1 characters of degree p."""
    S = make()
    want = rows(character_table(S))
    G = FiniteGroup(S.degree, S.gens, S.elements)
    counted = []

    def counting(*a):
        counted.append(a)
        return _induced_coords(*a)

    monkeypatch.setattr(chartable, "_induced_coords", counting)
    assert rows(_compute_table(G)) == want
    assert len(counted) == calls


def test_degree_sum_small_groups():
    for degree, gens, order in ((6, ["(1 2 3)", "(4 5 6)"], 9),
                                (4, ["(1 2)(3 4)", "(1 3)(2 4)"], 4)):
        G = build_group(degree, gens)
        assert G.order == order
        tab = character_table(G)
        assert sum(int(d) ** 2 for d in tab.degrees()) == order


def test_frobenius_reciprocity():
    """<Ind_H lambda, psi>_G = <lambda, Res_H psi>_H for the linear
    characters lambda of H = <a> induced by the table search."""
    S = extraspecial_p3(7)
    tab = character_table(S)
    a = S.subgroup((S.names["a"],))
    # the enumeration's copy, which knows the pair it was built from
    H, = [H for H in S.all_subgroups() if H.members == a.members]
    exps = _linear_characters(S, H, {}, 7)
    induced = _induced_coords(S, H, exps, power_table(7)[:7])
    chars = rows(tab)
    for r in (0, 3):
        lam, ind = exps[r], induced[r]
        mults, = tab.multiplicities([ind])
        for k in list(range(6)) + list(range(49, 55)):
            psi = chars[k]
            # sum over h in H of lambda(h) conj(psi(h)), in coordinates
            terms = [value_product(7, power_table(7)[lam[m]],
                                   value_conjugate(7, psi[S.class_of()[h]]))
                     for m, h in enumerate(H.members)]
            total = [sum(cs) for cs in zip(*terms)]
            assert not any(total[1:])
            want = Fraction(total[0], H.order)
            assert inner(tab, ind, psi) == want
            assert mults[k] == want


def test_regular_character():
    S = extraspecial_p3(3)
    tab = character_table(S)
    reg = [[0, 0] for _ in S.conjugacy_classes()]
    reg[S.class_of()[S.identity]][0] = S.order
    assert tab.multiplicities([reg]) == [list(tab.degrees())]


def test_tensor_multiplicities():
    S = extraspecial_p3(3)
    tab = character_table(S)
    big = rows(tab)[9]
    prod = [value_product(3, v, value_conjugate(3, v)) for v in big]
    mults, = tab.multiplicities([prod])
    assert sum(mults) == 9 and mults[0] == 1
    assert all(type(m) is int and m >= 0 for m in mults)
    assert mults == [inner(tab, prod, chi) for chi in rows(tab)]


def test_conductor_uniform():
    for G in (build_group(3, ["(1 2 3)"]), extraspecial_p3(3)):
        tab = character_table(G)
        assert tab.conductor == G.exponent() == 3
        assert np.shape(tab.coords) == (len(tab), len(G.conjugacy_classes()),
                                        2)


def test_trivial_character_and_json():
    G = build_group(3, ["(1 2 3)"])
    tab = character_table(G)
    triv = [[1, 0] for _ in range(3)]
    assert tab.multiplicities([triv]) == [[1, 0, 0]]
    assert inner(tab, triv, rows(tab)[0]) == 1
    j = tab.to_json()
    assert j["order"] == 3 and len(j["classes"]) == 3
    assert [ch["values"] for ch in j["characters"]] == [
        [value_json(3, v) for v in row] for row in tab.coords]
