import os
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from fusionrep import chartable
from fusionrep.chartable import CharacterTable, character_table
from fusionrep.cyclotomic import degree_phi, power_table, value_json
from fusionrep.errors import SubgroupEnumerationCapExceeded
from fusionrep.jobspec import load_jobspec, realize
from fusionrep.permgroup import (FiniteGroup, build_group, extraspecial_p3,
                                 group_prime)

from oracles import (built_from, induced_coords, inner_product,
                     linear_characters, search_table, value_conjugate,
                     value_product)


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


def test_irr_builds_no_subgroup_enumeration(monkeypatch):
    """character_table never enumerates subgroups, so it leaves nothing
    cached: the enumeration that saturation caps (73 closures for the 39
    subgroups of 5^{1+2}) still counts from scratch afterwards, and a cap
    that failed before does not stop the table."""
    S = extraspecial_p3(5)
    G = FiniteGroup(S.degree, S.gens, S.elements)

    def refuse(self, cap):
        raise AssertionError("the subgroup lattice was enumerated")

    with monkeypatch.context() as m:
        m.setattr(FiniteGroup, "_enumerate_subgroups", refuse)
        assert len(character_table(G)) == 29
    assert G._subgroups is None
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
    """Walking the subgroups from the largest down, the oracle's search is
    done with an abelian group's own linear characters, and with an
    extraspecial group after a single maximal subgroup adds its p - 1
    characters of degree p."""
    S = make()
    want = rows(character_table(S))
    G = FiniteGroup(S.degree, S.gens, S.elements)
    counted = []

    def counting(*a):
        counted.append(a)
        return induced_coords(*a)

    monkeypatch.setattr(oracles, "induced_coords", counting)
    assert search_table(G) == want
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
    characters lambda of H = <a> induced by the oracle's search."""
    S = extraspecial_p3(7)
    tab = character_table(S)
    a = S.subgroup((S.names["a"],))
    # the enumeration's copy, which built_from keys
    H, = [H for H in S.all_subgroups() if H.members == a.members]
    exps = linear_characters(S, H, {}, 7, built_from(S))
    induced = induced_coords(S, H, exps, power_table(7)[:7])
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


SPECS = os.path.join(os.path.dirname(__file__), "specs")


def _spec_group(stem):
    """The group of a spec under tests/specs, realized with nothing cached."""
    return realize(load_jobspec(os.path.join(SPECS, stem + ".fus")),
                   SPECS).group


def column_orthogonality(tab):
    """Assert sum_chi chi(x) conj(chi(y)) = |C_G(x)| delta_xy for all
    classes x, y, exactly: the sums are taken on exponent vectors of
    length e and reduced to power-basis coordinates, zeta^(k + (p-1)e/p)
    being minus the sum of zeta^(k + j e/p) over j < p - 1."""
    G, e = tab.group, tab.conductor
    phi, q = degree_phi(e), e // group_prime(G)
    A = np.zeros((len(G.conjugacy_classes()), len(tab), e), dtype=np.int64)
    A[:, :, :phi] = np.array(tab.coords).transpose(1, 0, 2)
    conj = A[:, :, -np.arange(e) % e]  # conj(zeta^a) = zeta^(e - a)
    P = np.einsum("xka,ykb->xyab", A, conj)
    V = np.zeros(P.shape[:2] + (e,), dtype=np.int64)
    for a in range(e):
        for b in range(e):
            V[:, :, (a + b) % e] += P[:, :, a, b]
    got = V[:, :, :phi] - V[:, :, phi + np.arange(phi) % q]
    want = np.zeros_like(got)
    for x, cls in enumerate(G.conjugacy_classes()):
        want[x, x, 0] = G.order // len(cls)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("stem,order,classes", [
    ("syl2_s10", 256, 40), ("syl2_s12", 1024, 100), ("z2_7", 128, 128),
    ("extraspecial_3_squared", 729, 121)])
def test_larger_p_groups_satisfy_column_orthogonality(stem, order, classes):
    """Irr of a Sylow 2-subgroup of S_10 and of S_12, of (Z/2)^7 and of
    3^{1+2} x 3^{1+2}, from specs with their generators written out,
    checked by the second orthogonality relation, which depends on no
    search."""
    tab = character_table(_spec_group(stem))
    assert (tab.group.order, len(tab)) == (order, classes)
    assert sum(d * d for d in tab.degrees()) == order
    column_orthogonality(tab)


def test_sylow_2_of_s10_matches_the_search():
    G = _spec_group("syl2_s10")
    assert list(character_table(G).coords) == search_table(
        FiniteGroup(G.degree, G.gens, G.elements))


def _count_stable_extensions(monkeypatch):
    """A list that grows by one for each value of a stable non-linear
    character's extension that the Clifford pass computes."""
    calls, coords = [], chartable._Clifford._coords
    monkeypatch.setattr(chartable._Clifford, "_coords",
                        lambda self, counts, s: calls.append(s)
                        or coords(self, counts, s))
    return calls


def test_square_of_extraspecial_3_matches_the_search(monkeypatch):
    """On 3^{1+2} x 3^{1+2} the series runs up the second factor through
    non-abelian proper normal subgroups whose characters of degree 3 are
    stable, so the extension mu_t takes the shift t j e/p on the coset of
    g^j, and 4e/3 at t = j = 2 must be taken mod e."""
    G = _spec_group("extraspecial_3_squared")
    calls = _count_stable_extensions(monkeypatch)
    assert list(character_table(G).coords) == search_table(
        FiniteGroup(G.degree, G.gens, G.elements))
    assert calls


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stable_characters_at_odd_p_match_the_search(monkeypatch, p):
    """C_p x p^{1+2}, with C_p on the first p points: the series passes
    through a non-abelian normal subgroup of order p^3, whose characters of
    degree p are stable under the last generator and extend in p ways,
    with shifts up to (p-1)^2 e/p."""
    X = extraspecial_p3(p)
    fixed = tuple(range(p))
    G = build_group(p + p * p, [fixed[1:] + fixed[:1] + tuple(
        range(p, p + p * p))] + [fixed + tuple(p + x for x in X.elements[i])
                                 for i in X.gen_indices])
    calls = _count_stable_extensions(monkeypatch)
    assert list(character_table(G).coords) == search_table(
        FiniteGroup(G.degree, G.gens, G.elements))
    assert calls


def test_column_orthogonality_rejects_a_changed_value():
    tab = character_table(extraspecial_p3(3))
    column_orthogonality(tab)
    coords = [list(row) for row in tab.coords]
    # chi10 at a central class off the identity, 3 zeta_3 or its conjugate
    k = next(k for k, v in enumerate(coords[9]) if k and any(v))
    coords[9][k] = value_conjugate(3, coords[9][k])
    with pytest.raises(AssertionError):
        column_orthogonality(CharacterTable(tab.group,
                                            tuple(map(tuple, coords))))
