import itertools
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import (augmentation_nilpotence, ideal_product, ring_product,
                     value_product)
from oracles import structure_constants as structure_constants_oracle
from test_fusion import gl2_matrices, gl2_spec

from conftest import FIXTURES

from fusionrep.chartable import character_table
from fusionrep.errors import FusionRepError
from fusionrep.fusion import build_fusion
from fusionrep.intlinalg import hnf, lattice_contains
from fusionrep.invariants import decompose, irreducible_invariants
from fusionrep.jobspec import parse_jobspec, realize
from fusionrep.permgroup import build_group, make_hom
from fusionrep.ringpres import (Ring, adic_equivalence_exponent,
                                character_ring, completed_presentation,
                                presentation, quotient_by_ideal_power,
                                structure_constants)


def degree_defects(P):
    """d_i d_j - sum_k T[i, j, k] d_k over the basis (1, X1..Xm) of P: the
    constant term each completed relation would have, all zero when the
    degrees are multiplicative."""
    d = np.array(P.ring.degrees, dtype=object)
    return np.outer(d, d) - np.array(P.ring.tensor, dtype=object) @ d


def sigma3_pipeline():
    Z3 = build_group(3, ["(1 2 3)"], names=["s"])
    s = Z3.names["s"]
    F = build_fusion(Z3, [make_hom(Z3.full_subgroup(), (Z3.power(s, 2),))])
    return F, irreducible_invariants(F)


def test_sigma_presentations():
    F, B = sigma3_pipeline()
    P = presentation(B, {"X1": "x"})
    assert str(P) == "Z[x]/( x^2 - x - 2 )"
    C = completed_presentation(P, {"v1": "y"})
    assert str(C) == "Z[[y]]/( y^2 + 3y )"

    Z7 = build_group(7, ["(1 2 3 4 5 6 7)"], names=["s"])
    s7 = Z7.names["s"]
    F7 = build_fusion(Z7, [make_hom(Z7.full_subgroup(), (Z7.power(s7, 3),))])
    P7 = presentation(irreducible_invariants(F7), {"X1": "x"})
    assert str(P7) == "Z[x]/( x^2 - 5x - 6 )"
    assert str(completed_presentation(P7, {"v1": "y"})) \
        == "Z[[y]]/( y^2 + 7y )"


def test_a4_presentation():
    V4 = build_group(4, ["(1 2)(3 4)", "(1 3)(2 4)"], names=["x", "y"])
    xi, yi = V4.names["x"], V4.names["y"]
    F = build_fusion(V4, [make_hom(V4.full_subgroup(),
                                   (yi, V4.mul(xi, yi)))])
    P = presentation(irreducible_invariants(F), {"X1": "x"})
    assert str(P) == "Z[x]/( x^2 - 2x - 3 )"
    assert str(completed_presentation(P, {"v1": "y"})) \
        == "Z[[y]]/( y^2 + 4y )"


def test_onan_presentation(pipeline):
    P = pipeline("onan")
    pres = structure_constants(P.basis, {"X1": "A", "X2": "B"})
    assert str(pres) == ("Z[A,B]/( A^2 - 65A - 66B - 78, "
                         "B^2 - 108A - 107B - 120, AB - 84A - 84B - 72 )")
    comp = completed_presentation(pres, {"v1": "z", "v2": "w"})
    assert str(comp) == ("Z[[z,w]]/( z^2 + 235z - 66w, "
                         "w^2 - 108z + 277w, zw + 108z + 66w )")


def test_onan_structure_constants_sound(pipeline):
    P = pipeline("onan")
    B = P.basis
    pres = structure_constants(P.basis, {"X1": "A", "X2": "B"})
    tab = character_table(P.group)
    one, chA, chB = np.array(B.coords)

    def times(f, g):
        return np.array([value_product(7, x, y)
                         for x, y in zip(f.tolist(), g.tolist())])

    mults = tab.multiplicities([times(chA, chB)])
    assert decompose(mults, B) == [[72, 84, 84]]
    # A^2 - 65A - 66B - 78 vanishes as a class function
    val = times(chA, chA) - 65 * chA - 66 * chB - 78 * one
    assert not val.any()


def test_multiplication_associative(pipeline):
    for stem in ("sigma_3", "a4", "onan", "he_2"):
        ring = pipeline(stem).presentation.ring
        m = ring.rank - 1
        for i, j, k in itertools.product(range(m + 1), repeat=3):
            ei = [0] * (m + 1)
            ej = list(ei)
            ek = list(ei)
            ei[i] = ej[j] = ek[k] = 1
            left = ring_product(ring, ring_product(ring, ei, ej), ek)
            right = ring_product(ring, ei, ring_product(ring, ej, ek))
            assert left == right, (stem, i, j, k)


def test_completed_relations_have_no_constant_term(pipeline):
    for stem in ("sigma_3", "sigma_5", "sigma_7", "a4", "onan", "he",
                 "he_2", "fi24p", "rv2"):
        P = pipeline(stem).presentation
        assert not degree_defects(P).any(), stem


def test_ideal_arithmetic():
    Z2 = build_group(2, ["(1 2)"], names=["g"])
    ring = character_ring(Z2)
    I = ring.augmentation_power(1)
    assert I == [[1, -1]]
    I2 = ideal_product(ring, I, I)
    assert I2 == [[2, -2]]
    assert lattice_contains(I, I2)
    assert not lattice_contains(I2, I)


def test_quotients_by_ideal_power():
    F, B = sigma3_pipeline()
    P = presentation(B)
    assert quotient_by_ideal_power(P, 1) == {"free_rank": 1, "torsion": []}
    assert quotient_by_ideal_power(P, 2) == {"free_rank": 1, "torsion": [3]}
    assert quotient_by_ideal_power(P, 3) == {"free_rank": 1, "torsion": [9]}


def test_adic_exponents():
    Z3 = build_group(3, ["(1 2 3)"], names=["s"])
    Ftriv = build_fusion(Z3, [])
    for k in (1, 2, 3):
        assert adic_equivalence_exponent(Ftriv, k) == k
    F, _ = sigma3_pipeline()
    assert adic_equivalence_exponent(F, 1) == 2


@pytest.mark.parametrize("stem", ["sigma_3", "a4", "onan"])
def test_chain_matches_repeated_products(pipeline, stem):
    """The cached chain gives I^k = I^(k-1) * I for I(S) and I(F)."""
    P = pipeline(stem)
    for ring in (character_ring(P.group), P.presentation.ring):
        n = ring.rank
        gens = [[-d if j == 0 else int(j == i) for j in range(n)]
                for i, d in enumerate(ring.degrees) if i]
        I = hnf(gens)
        power = I
        assert ring.augmentation_power(1) == I, stem
        for k in (2, 3):
            power = ideal_product(ring, power, I)
            assert ring.augmentation_power(k) == power, (stem, k)


NILPOTENCE = {"a4": 2, "a4_sl23": 2, "rv1": 2, "rv2": 2, "rv3": 2,
              "sigma_3": 2, "sigma_5": 2, "sigma_7": 2, "fi24": 3, "fi24p": 3,
              "he_2": 3, "onan": 3, "onan_2": 3, "he": 5}


@pytest.mark.parametrize("stem", sorted(NILPOTENCE))
def test_augmentation_ideal_power_lies_in_p_times_the_ideal(pipeline, stem):
    """I(F)^N lies in p I(F), the premise under which the chain I^k M of a
    twisted module stabilizes only at 0; N is the least such power."""
    job = pipeline(stem)
    ring = job.presentation.ring
    assert augmentation_nilpotence(ring, job.fusion.p) == NILPOTENCE[stem]


@pytest.mark.slow
def test_onan_adic_exponent(pipeline):
    P = pipeline("onan")
    assert adic_equivalence_exponent(P.fusion, 1, basis=P.basis) == 18


def test_structure_constants_names_equal_presentation(pipeline):
    P = pipeline("a4")
    assert structure_constants(P.basis).relations \
        == presentation(P.basis).relations


def test_ring_rejects_a_tensor_that_breaks_the_degrees():
    """R(Z/2) is Z[x]/(x^2 - 1) with x of degree 1.  Putting x^2 = 2x
    instead breaks the degrees (1 != 2); shifting x = v + 1 would give the
    relation v^2 - 1, whose constant term a completed relation cannot
    have.  Ring refuses the tensor."""
    Ring((1, 1), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    with pytest.raises(FusionRepError, match="break the degrees"):
        Ring((1, 1), [[[1, 0], [0, 1]], [[0, 1], [0, 2]]])


STEMS = sorted(f[:-4] for f in os.listdir(FIXTURES) if f.endswith(".fus"))


def assert_structure_constants_match_the_oracle(B):
    """The basis products, certified and rewritten, give the tensor that
    the contraction with the Irr(S) structure tensor gave, and the same
    relations."""
    P, want = structure_constants(B), structure_constants_oracle(B)
    assert np.array_equal(P.ring.tensor, want.ring.tensor)
    assert P.ring.degrees == want.ring.degrees
    assert P.relations == want.relations


@pytest.mark.parametrize("stem", STEMS)
def test_structure_constants_match_the_tensor_oracle(pipeline, stem):
    assert_structure_constants_match_the_oracle(pipeline(stem).basis)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(gl2_matrices(3), max_size=3))
def test_structure_constants_match_the_oracle_on_random_3_systems(matrices):
    """The systems of the saturation oracle test whose basis builds: an
    unsaturated one may have fewer invariants than classes."""
    F = realize(parse_jobspec(gl2_spec(3, matrices))).fusion
    try:
        B = irreducible_invariants(F)
    except FusionRepError:
        return
    assert_structure_constants_match_the_oracle(B)
