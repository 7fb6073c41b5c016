"""The integer character kernel against the pure-Python oracle on integer
coordinates.

Random permutation p-groups of order at most 81, drawn as subgroups of the
Sylow 2-subgroup of S_8 and the Sylow 3-subgroup of S_9.
"""

import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fusionrep.chartable import CharacterTable, character_table
from fusionrep.cyclotomic import value_json
from fusionrep.errors import FusionRepError
from fusionrep.permgroup import build_group

from conftest import FIXTURES
from oracles import inner_product, value_product
from oracles import multiplicities as multiplicities_oracle
from oracles import structure_tensor as structure_tensor_oracle

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
    X = tab.coords
    pairs = [(i, i) for i in range(n)] + _pairs(data.draw, n, 30)
    for i, j in pairs:
        assert inner_product(G, tab.conductor, X[i], X[j]) \
            == (1 if i == j else 0)


@SETTINGS
@given(st.data())
def test_structure_tensor_matches_exact(data):
    G = data.draw(p_groups())
    tab = character_table(G)
    N = tab.structure_tensor()
    n, e = len(tab), tab.conductor
    X = tab.coords
    pairs = _pairs(data.draw, n, 8)
    prods = []
    for i, j in pairs:
        prods.append([value_product(e, x, y) for x, y in zip(X[i], X[j])])
        for k in data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=4)):
            assert N[i][j][k] == inner_product(G, e, prods[-1], X[k])
    # the stack of products in one call, then scaled past int64, and the
    # empty stack, against the Fraction oracle one product at a time
    want = [N[i][j] for i, j in pairs]
    assert tab.multiplicities(prods) == want
    assert [list(multiplicities_oracle(tab, np.array(p))) for p in prods] \
        == want
    huge = np.array(prods, dtype=object) * 2 ** 70
    assert tab.multiplicities(huge) == [
        [2 ** 70 * m for m in row] for row in want]
    assert [list(multiplicities_oracle(tab, p)) for p in huge] == [
        [2 ** 70 * m for m in row] for row in want]
    assert tab.multiplicities([]) == []


@SETTINGS
@given(st.data())
def test_multiplicities_of_non_characters(data):
    """Integer coordinates of a class function that is not a virtual
    character: multiplicities rejects it, naming the row, and the oracle
    keeps the exact rational inner products."""
    G = data.draw(p_groups())
    tab = character_table(G)
    delta = np.zeros(np.shape(tab.coords)[1:], dtype=np.int64)
    delta[G.class_of()[G.identity], 0] = 1
    want = tuple(Fraction(d, G.order) for d in tab.degrees())
    assert multiplicities_oracle(tab, delta) == want
    assert want == tuple(inner_product(G, tab.conductor, delta.tolist(), row)
                         for row in tab.coords)
    if G.order > 1:
        with pytest.raises(FusionRepError, match="^class function 1 is not "
                           "a virtual character") as ex:
            tab.multiplicities([tab.coords[0], delta])
        assert ex.value.row == 1


def test_multiplicities_past_half_the_modulus(pipeline):
    """100 chi_1 + chi_2 on the Q8 extension group of a4_sl23, past half
    of q = 13, the modulus of an F_q image of its table: the multiplicity
    100 is exact, and so is one past int64.  A class function with a value
    off Q has rational coordinates of its numerators divisible by |G|, here
    all zero, and fails the reconstruction check; the oracle finds its
    inner products not rational."""
    G = pipeline("a4_sl23").extension.group
    tab = character_table(G)
    assert tab.conductor == 4
    X = np.array(tab.coords, dtype=np.int64)
    assert tab.multiplicities([100 * X[0] + X[1]]) == [[100, 1, 0, 0, 0]]
    huge = np.array(tab.coords[1], dtype=object) * 10 ** 30
    assert tab.multiplicities([huge]) == [[0, 10 ** 30, 0, 0, 0]]
    i_at_one = np.zeros(X.shape[1:], dtype=np.int64)
    i_at_one[G.class_of()[G.identity], 1] = 1
    with pytest.raises(FusionRepError,
                       match="class function 0 is not a virtual character"):
        tab.multiplicities([i_at_one])
    with pytest.raises(FusionRepError,
                       match="inner product with chi1 is not rational"):
        multiplicities_oracle(tab, i_at_one)


def test_multiplicities_take_int64_input_exactly():
    """2^60 chi_k as int64 coordinates on the Sylow 3-subgroup of S_9: the
    numerators pass
    2^63, where int64 sums would wrap, and come back exact, as do the
    products of two such stacks, whose values pass 2^120."""
    G = SYLOW[3]
    tab = character_table(G)
    X = np.array(tab.coords, dtype=np.int64) * 2 ** 60
    n = len(tab)
    assert tab.multiplicities(X) == [[2 ** 60 * (i == k) for k in range(n)]
                                     for i in range(n)]
    N = tab.structure_tensor()
    assert tab.products(X[:3], X[:2]) == [[[2 ** 120 * m for m in N[i][j]]
                                           for j in range(2)]
                                          for i in range(3)]


def test_coordinates_match_the_values():
    G = SYLOW[3]
    tab = character_table(G)
    assert all(type(x) is int for row in tab.coords for v in row for x in v)
    for row, ch in zip(tab.coords, tab.to_json()["characters"]):
        assert ch["values"] == [value_json(tab.conductor, v) for v in row]
        assert ch["degree"] == row[0][0]


def test_table_without_a_multiplication_table(monkeypatch):
    import fusionrep.permgroup as permgroup
    gens = ["(1 2 3)", "(1 4 7)(2 5 8)(3 6 9)"]
    want = character_table(build_group(9, gens)).coords
    monkeypatch.setattr(permgroup, "_TABLE_LIMIT", 0)
    G = build_group(9, gens)
    assert G.table() is None
    assert character_table(G).coords == want


def test_structure_tensor_certificate_rejects_a_bad_table():
    G = build_group(3, ["(1 2 3)"])
    coords = np.array(character_table(G).coords)
    coords[1] *= 2
    with pytest.raises(FusionRepError, match="certificate"):
        CharacterTable(G, coords).structure_tensor()


def test_structure_tensor_certificate_names_the_first_failing_pair():
    G = build_group(3, ["(1 2 3)"])
    coords = np.array(character_table(G).coords)
    coords[2] *= 2
    with pytest.raises(FusionRepError,
                       match="chi1 chi3 fails the integer certificate"):
        CharacterTable(G, coords).structure_tensor()


STEMS = sorted(f[:-4] for f in os.listdir(FIXTURES) if f.endswith(".fus"))


@pytest.mark.parametrize("stem", STEMS)
def test_structure_tensor_matches_the_row_oracle(pipeline, stem):
    """Every pair, in blocks of products, gives the tensor the one-row-
    at-a-time code gave, on every bundled fixture."""
    table = character_table(pipeline(stem).group)
    fresh = CharacterTable(table.group, table.coords)
    assert np.array_equal(fresh.structure_tensor(),
                          structure_tensor_oracle(table))


@SETTINGS
@given(p_groups())
def test_structure_tensor_matches_the_row_oracle_in_any_blocks(G):
    """Irr x Irr taken as the triangular block of pairs i <= j, mirrored
    (the structure tensor, where both stacks are one), and as the full
    block (products of two distinct stacks) agree with the row oracle on
    random p-groups."""
    table = character_table(G)
    want = structure_tensor_oracle(table)
    fresh = CharacterTable(G, table.coords)
    assert np.array_equal(fresh.structure_tensor(), want)
    assert np.array_equal(fresh.products(table.coords, list(table.coords)),
                          want)


@SETTINGS
@given(p_groups(), st.data())
def test_products_match_the_coordinate_oracle(G, data):
    """products of small integer combinations of Irr rows against the
    exact product of the coordinates, one value at a time, decomposed by
    the Fraction oracle."""
    tab = character_table(G)
    n, e = len(tab), tab.conductor
    combos = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=1, max_size=4)
    X = np.tensordot(np.array(data.draw(combos), dtype=np.int64),
                     np.array(tab.coords), 1)
    Y = np.tensordot(np.array(data.draw(combos), dtype=np.int64),
                     np.array(tab.coords), 1)
    got = tab.products(X, Y)
    assert np.shape(got) == (len(X), len(Y), n)
    for i, x in enumerate(X.tolist()):
        for j, y in enumerate(Y.tolist()):
            prod = [value_product(e, a, b) for a, b in zip(x, y)]
            assert multiplicities_oracle(tab, np.array(prod)) \
                == tuple(got[i][j])


@pytest.mark.parametrize("scale", [1, 50, 65536])
def test_products_name_the_first_failing_pair(scale):
    """x1 * delta is the only product off the virtual characters, where
    delta is 1 at the identity and 0 elsewhere: row 1 * 2 + 1 at any
    scale of x1, which sets the width of the packed fields."""
    G = build_group(3, ["(1 2 3)"])
    tab = character_table(G)
    chi = np.array(tab.coords)
    delta = np.zeros_like(chi[0])
    delta[G.class_of()[G.identity], 0] = 1
    X = [0 * chi[0], scale * chi[0]]
    Y = [chi[1], delta]
    with pytest.raises(FusionRepError, match="x1 y1 fails") as ex:
        tab.products(X, Y)
    assert ex.value.row == 3
