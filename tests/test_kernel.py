"""The integer character kernel against the exact Cyclotomic oracle.

Random permutation p-groups of order at most 81, drawn as subgroups of the
Sylow 2-subgroup of S_8 and the Sylow 3-subgroup of S_9.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fusionrep.chartable import (CharacterTable, ClassFunction,
                                 character_table, inner_product, tensor)
from fusionrep.cyclotomic import Cyclotomic
from fusionrep.errors import FusionRepError
from fusionrep.permgroup import build_group

SYLOW = {
    2: build_group(8, ["(1 2)", "(1 3)(2 4)", "(1 5)(2 6)(3 7)(4 8)"]),
    3: build_group(9, ["(1 2 3)", "(1 4 7)(2 5 8)(3 6 9)"]),
}
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def p_groups(draw):
    P = SYLOW[draw(st.sampled_from(sorted(SYLOW)))]
    picks = draw(st.lists(st.integers(0, P.order - 1), min_size=1,
                          max_size=3))
    G = build_group(P.degree, [P.elements[i] for i in picks])
    assume(G.order <= 81)
    return G


def _pairs(draw, n, count):
    return draw(st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)),
                         min_size=1, max_size=count))


@SETTINGS
@given(st.data())
def test_table_is_orthonormal(data):
    G = data.draw(p_groups())
    tab = character_table(G)
    assert len(tab) == len(G.conjugacy_classes())
    assert sum(d * d for d in tab.degrees()) == G.order
    n = len(tab)
    pairs = [(i, i) for i in range(n)] + _pairs(data.draw, n, 30)
    for i, j in pairs:
        assert inner_product(tab[i], tab[j]) == (1 if i == j else 0)


@SETTINGS
@given(st.data())
def test_structure_tensor_matches_exact(data):
    G = data.draw(p_groups())
    tab = character_table(G)
    N = tab.structure_tensor()
    n = len(tab)
    for i, j in _pairs(data.draw, n, 8):
        prod = tensor(tab[i], tab[j])
        for k in data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=4)):
            assert N[i, j, k] == inner_product(prod, tab[k])
        assert tab.multiplicities(prod) == tuple(N[i, j].tolist())


@SETTINGS
@given(st.data())
def test_multiplicities_of_non_characters(data):
    G = data.draw(p_groups())
    tab = character_table(G)
    n = len(tab)
    i = data.draw(st.integers(0, n - 1))
    half = tab[i].scale(Fraction(1, 2))
    assert tab.multiplicities(half) == tuple(
        Fraction(1, 2) if k == i else 0 for k in range(n))
    # integer coordinates, but not a virtual character: the certificate
    # fails and the exact inner products come back
    e = tab.conductor
    delta = ClassFunction(G, [Cyclotomic.rational(int(c == 0), e)
                              for c in range(len(G.conjugacy_classes()))])
    want = tuple(Fraction(d, G.order) for d in tab.degrees())
    assert tab.multiplicities(delta) == want
    assert want == tuple(inner_product(delta, ch) for ch in tab.irreducibles)


def test_coordinates_match_the_values():
    G = SYLOW[3]
    tab = character_table(G)
    assert tab.coords.dtype == np.int64
    for row, ch in zip(tab.coords.tolist(), tab.irreducibles):
        assert [[int(c) for c in v.coeffs] for v in ch.values] == row
    q = tab.modular.q
    assert q > G.order and q % tab.conductor == 1


def test_table_without_a_multiplication_table(monkeypatch):
    import fusionrep.permgroup as permgroup
    gens = ["(1 2 3)", "(1 4 7)(2 5 8)(3 6 9)"]
    want = character_table(build_group(9, gens)).coords
    monkeypatch.setattr(permgroup, "_TABLE_LIMIT", 0)
    G = build_group(9, gens)
    assert G.table() is None
    assert np.array_equal(character_table(G).coords, want)


def test_structure_tensor_certificate_rejects_a_bad_table():
    G = build_group(3, ["(1 2 3)"])
    coords = character_table(G).coords.copy()
    coords[1] *= 2
    with pytest.raises(FusionRepError, match="certificate"):
        CharacterTable(G, coords).structure_tensor()
