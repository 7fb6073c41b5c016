import random
from fractions import Fraction

import pytest

from fusionrep.chartable import (ClassFunction, _subgroup_group,
                                 character_table, induce, inner_product,
                                 regular_character, restrict, tensor,
                                 trivial_character)
from fusionrep.errors import SubgroupEnumerationCapExceeded
from fusionrep.permgroup import FiniteGroup, build_group, extraspecial_p3


def orthonormal(tab):
    n = len(tab.irreducibles)
    for i in range(n):
        for j in range(n):
            assert inner_product(tab[i], tab[j]) == (1 if i == j else 0)


def test_cyclic_nine():
    G = build_group(9, ["(1 2 3 4 5 6 7 8 9)"], names=["s"])
    tab = character_table(G)
    assert tab.degrees() == (1,) * 9
    assert all(v == 1 for v in tab[0].values)  # trivial first
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
    Z = S.center()
    for chi in tab.irreducibles[9:]:
        for x in range(S.order):
            if not Z.contains(x):
                assert chi.value_at_element(x).is_zero()


def test_extraspecial_seven():
    S = extraspecial_p3(7)
    tab = character_table(S)
    assert tab.degrees() == (1,) * 49 + (7,) * 6
    assert sum(int(d) ** 2 for d in tab.degrees()) == S.order
    random.seed(0)
    pairs = [(i, j) for i in range(55) for j in range(55)]
    random.shuffle(pairs)
    for i, j in pairs[:300]:
        assert inner_product(tab[i], tab[j]) == (1 if i == j else 0)
    Z = S.center()
    c = S.names["c"]
    for chi in tab.irreducibles[49:]:
        assert not chi.value_at_element(c).is_zero()
        for x in range(S.order):
            if not Z.contains(x):
                assert chi.value_at_element(x).is_zero()


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


def test_degree_sum_small_groups():
    for degree, gens, order in ((6, ["(1 2 3)", "(4 5 6)"], 9),
                                (4, ["(1 2)(3 4)", "(1 3)(2 4)"], 4)):
        G = build_group(degree, gens)
        assert G.order == order
        tab = character_table(G)
        assert sum(int(d) ** 2 for d in tab.degrees()) == order


def test_frobenius_reciprocity():
    S = extraspecial_p3(7)
    tab = character_table(S)
    H = S.subgroup((S.names["a"],))
    HG = _subgroup_group(H)
    tabH = character_table(HG)
    chi = tabH[3]
    ind = induce(ClassFunction(HG, [v.lift(7) for v in chi.values]), H)
    for psi in tab.irreducibles[:6] + tab.irreducibles[49:]:
        assert inner_product(ind, psi) == inner_product(chi, restrict(psi, H))


def test_regular_character():
    S = extraspecial_p3(3)
    tab = character_table(S)
    mult = tab.multiplicities(regular_character(S))
    assert tuple(mult) == tuple(Fraction(int(c.degree()))
                                for c in tab.irreducibles)


def test_tensor_multiplicities():
    S = extraspecial_p3(3)
    tab = character_table(S)
    big = tab.irreducibles[9]
    prod = tensor(big, big.conjugate())
    mults = tab.multiplicities(prod)
    assert sum(mults) == 9 and mults[0] == 1
    assert all(m >= 0 and m.denominator == 1 for m in mults)


def test_conductor_uniform():
    for G in (build_group(3, ["(1 2 3)"]), extraspecial_p3(3)):
        tab = character_table(G)
        assert len({ch.conductor for ch in tab.irreducibles}) == 1


def test_trivial_character_and_json():
    G = build_group(3, ["(1 2 3)"])
    tab = character_table(G)
    triv = trivial_character(G, tab.irreducibles[0].conductor)
    assert inner_product(triv, tab[0]) == 1
    j = tab.to_json()
    assert j["order"] == 3 and len(j["classes"]) == 3
