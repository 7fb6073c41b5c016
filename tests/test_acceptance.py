"""End-to-end checks, one test per numbered acceptance item.

Each test prints a "criterion N: PASS" line on success, so a verbose run
reads as a checklist.  Items with a runtime budget rebuild everything
from the fixture file inside the measured window instead of reusing the
session cache; the shared extraspecial group and its character table are
library-level caches whose fresh cost is bounded separately by the
character-table item.  Relation sets are compared as rows read off the
structure tensor and keyed by generator name, not as strings, so the
generator order chosen by the pipeline does not matter.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from conftest import FIXTURES, fixture_path
from oracles import (brute_hilbert, inner_product, invariance_matrix,
                     is_centric, is_radical, named_subgroups, ring_product,
                     small_fusions, value_conjugate)

from fusionrep.chartable import _compute_table, character_table
from fusionrep.cli import main
from fusionrep.cyclotomic import power_table
from fusionrep.fusion import build_fusion
from fusionrep.invariants import irreducible_invariants
from fusionrep.jobspec import load_jobspec, realize
from fusionrep.permgroup import extraspecial_p3, make_hom
from fusionrep.ringpres import (adic_equivalence_exponent,
                                completed_presentation, structure_constants)
from fusionrep.spectrum import prime_symbols
from fusionrep.twisted import (completed_module, module_structure,
                               twisted_invariant_basis)

ALL_STEMS = ("a4", "a4_sl23", "fi24", "fi24p", "he", "he_2", "onan",
             "onan_2", "rv1", "rv2", "rv3", "sigma_3", "sigma_5", "sigma_7")


def fresh(stem):
    spec = load_jobspec(fixture_path(stem + ".fus"))
    return realize(spec, FIXTURES)


_RINGDATA = {}


def ringdata(stem):
    """Realized job plus invariant basis, shared across criteria."""
    if stem not in _RINGDATA:
        job = fresh(stem)
        _RINGDATA[stem] = (job, irreducible_invariants(job.fusion))
    return _RINGDATA[stem]


# -- relation comparison ------------------------------------------------------
# A relation X_i X_j = sum_k c_k X_k + c_0 is keyed by the names {X_i, X_j}
# and holds the nonzero c_k by name and the constant c_0.


def relation_rows(names, T):
    """The relations of the tensor T over the basis (1, names), where
    X_i X_j = sum_k T[i, j, k] X_k with X_0 = 1."""
    m = len(names)
    T = np.asarray(T)
    return {(frozenset((names[i], names[j])),
             frozenset((names[k], int(T[i + 1, j + 1, k + 1]))
                       for k in range(m) if T[i + 1, j + 1, k + 1]),
             int(T[i + 1, j + 1, 0]))
            for i in range(m) for j in range(i, m)}


def completed_rows(P, C):
    """relation_rows of the completed presentation C of P: in the shifted
    variables v_i = X_i - d_i, v_i v_j = sum_k c_k v_k + c_0 with
    c_k = T[i, j, k] - d_j [k = i] - d_i [k = j] and
    c_0 = sum_k T[i, j, k] d_k + T[i, j, 0] - d_i d_j."""
    T = np.array(P.ring.tensor, dtype=object)
    d = np.array(P.ring.degrees, dtype=object)
    S = T.copy()
    S[1:, 1:, 0] = T[1:, 1:] @ d - np.outer(d, d)[1:, 1:]
    for i in range(1, len(d)):
        S[i, 1:, i] -= d[1:]
        S[1:, i, i] -= d[1:]
    return relation_rows(C.names, S)


def rows_of(vs, rows):
    """relation_rows of the listed relations (i, j, lin[, const]) over the
    names vs."""
    return {(frozenset((vs[i], vs[j])),
             frozenset((v, c) for v, c in zip(vs, lin) if c),
             rest[0] if rest else 0)
            for i, j, lin, *rest in rows}


def gens_by_degree(B, wanted):
    """Rename maps keyed by generator degree.

    wanted: degree -> (generator name, completed variable name).  Returns
    the presentation rename dict and the completed rename dict.
    """
    auto = [(n, d) for n, d in zip(B.names, B.degrees) if n != "1"]
    assert sorted(d for _, d in auto) == sorted(wanted)
    ren = {n: wanted[d][0] for n, d in auto}
    cren = {f"v{i + 1}": wanted[d][1] for i, (n, d) in enumerate(auto)}
    return ren, cren


# -- shared value-table data ----------------------------------------------------
# Everything lives in Z[zeta_7], a value being its tuple of six integer
# power-basis coordinates; theta is the quadratic period of the index-2
# subgroup of Galois.

W = power_table(7)[:7]


def c7(n):
    return (n, 0, 0, 0, 0, 0)


def add(*xs):
    return tuple(sum(cs) for cs in zip(*xs))


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


TH = add(W[1], W[2], W[4])
THB = value_conjugate(7, TH)


def crow(*vals):
    return tuple(c7(v) if isinstance(v, int) else v for v in vals)


def standard_reps(E):
    """1, c, b, a, ab, ab^2, ..., ab^6 as element indices."""
    a, b, c = E.names["a"], E.names["b"], E.names["c"]
    return [E.identity, c, b, a] + [E.mul(a, E.power(b, t))
                                    for t in range(1, 7)]


_Y1_TAIL = (add(TH, c7(3)), add(TH, c7(3)), add(TH, TH), add(TH, TH),
            c7(-1), add(TH, TH), c7(-1), c7(-1))
_Y2_TAIL = (add(THB, c7(3)), add(THB, c7(3)), add(THB, THB), add(THB, THB),
            c7(-1), add(THB, THB), c7(-1), c7(-1))
_Y3_TAIL = (add(TH, TH, TH), add(TH, TH, TH), sub(THB, c7(1)),
            sub(THB, c7(1)), c7(2), sub(THB, c7(1)), c7(2), c7(2))
_Y4_TAIL = (add(THB, THB, THB), add(THB, THB, THB), sub(TH, c7(1)),
            sub(TH, c7(1)), c7(2), sub(TH, c7(1)), c7(2), c7(2))

EXPECTED_ROWS = {
    "Z": crow(42, -7, 0, 0, 0, 0, 0, 0, 0, 0),
    "X1": crow(12, 12, 5, 5, -2, -2, -2, -2, -2, -2),
    "X2": crow(12, 12, -2, -2, 5, -2, -2, -2, -2, 5),
    "X3": crow(24, 24, -4, -4, -4, 3, 3, 3, 3, -4),
    "A": crow(150, 3, 3, 3, 3, -4, -4, -4, -4, 3),
    "B": crow(192, -4, -4, -4, -4, 3, 3, 3, 3, -4),
    "U": crow(342, -1, -1, -1, -1, -1, -1, -1, -1, -1),
    "Y1": (c7(6), c7(6)) + _Y1_TAIL,
    "Y2": (c7(6), c7(6)) + _Y2_TAIL,
    "Y3": (c7(9), c7(9)) + _Y3_TAIL,
    "Y4": (c7(9), c7(9)) + _Y4_TAIL,
    "Y5": crow(18, 18, -3, -3, 4, 4, -3, 4, -3, -3),
    "D1": (c7(48), c7(-1)) + _Y1_TAIL,
    "D2": (c7(48), c7(-1)) + _Y2_TAIL,
    "D3": (c7(51), c7(2)) + _Y3_TAIL,
    "D4": (c7(51), c7(2)) + _Y4_TAIL,
    "D5": crow(144, -3, -3, -3, 4, 4, -3, 4, -3, -3),
    "M1": crow(96, -2, 5, 5, -2, -2, -2, -2, -2, -2),
    "M2": crow(102, 4, -3, -3, -3, -3, 4, -3, 4, 4),
    "N": crow(246, 1, -6, -6, 1, 1, 1, 1, 1, 1),
}


def value_row(B, k, reps):
    class_of = B.fusion.S.class_of()
    return tuple(B.coords[k][class_of[g]] for g in reps)


def nontrivial_rows(B, reps):
    return {value_row(B, k, reps)
            for k, n in enumerate(B.names) if n != "1"}


def gl2_hom(S, p, matrix):
    """Automorphism of the extraspecial group from an invertible matrix:
    a and b map to the words read off the columns."""
    (a11, a12), (a21, a22) = matrix
    a, b = S.names["a"], S.names["b"]

    def word(i, k):
        return S.mul(S.power(a, i % p), S.power(b, k % p))

    return make_hom(S.full_subgroup(), (word(a11, a21), word(a12, a22)), S)


def gl2_fusion(matrices):
    E = extraspecial_p3(7)
    return build_fusion(E, [gl2_hom(E, 7, m) for m in matrices])


# -- criteria --------------------------------------------------------------------


def test_criterion_01_sigma_family():
    expected = {
        3: ("Z[x]/( x^2 - x - 2 )", "Z[[y]]/( y^2 + 3y )"),
        5: ("Z[x]/( x^2 - 3x - 4 )", "Z[[y]]/( y^2 + 5y )"),
        7: ("Z[x]/( x^2 - 5x - 6 )", "Z[[y]]/( y^2 + 7y )"),
    }
    for p, (ring, completed) in expected.items():
        t0 = time.monotonic()
        job = fresh(f"sigma_{p}")
        B = irreducible_invariants(job.fusion)
        ren, cren = gens_by_degree(B, {p - 1: ("x", "y")})
        P = structure_constants(B, ren)
        C = completed_presentation(P, cren)
        took = time.monotonic() - t0
        assert str(P) == ring
        assert str(C) == completed
        assert took < 1.0, f"sigma_{p} took {took:.2f}s"
    print("criterion 1: PASS")


def test_criterion_02_a4_klein_four():
    t0 = time.monotonic()
    job = fresh("a4")
    B = irreducible_invariants(job.fusion)
    ren, cren = gens_by_degree(B, {3: ("x", "y")})
    P = structure_constants(B, ren)
    C = completed_presentation(P, cren)
    took = time.monotonic() - t0
    assert str(P) == "Z[x]/( x^2 - 2x - 3 )"
    assert str(C) == "Z[[y]]/( y^2 + 4y )"
    assert took < 1.0, f"a4 took {took:.2f}s"
    print("criterion 2: PASS")


def test_criterion_03_twisted_a4():
    t0 = time.monotonic()
    job = fresh("a4_sl23")
    B = irreducible_invariants(job.fusion)
    P = structure_constants(B)
    TB = twisted_invariant_basis(job.extension, job.fusion_alpha,
                                 base=job.fusion)
    TM = module_structure(job.fusion, B, job.extension, TB)
    CM = completed_module(TM, P)
    took = time.monotonic() - t0
    assert TB.degrees == (2,)
    assert TM.degrees == (3,)
    assert TM.matrices == (((3,),),)
    assert CM.kind == "finite"
    assert CM.to_json()["free_rank"] == 1 and CM.to_json()["torsion"] == []
    assert CM.shifted == (((0,),),)
    assert str(CM).startswith("completed module: Z")
    assert took < 5.0, f"twisted pipeline took {took:.2f}s"
    print("criterion 3: PASS")


def test_criterion_04_extraspecial_chartable():
    E = extraspecial_p3(7)
    t0 = time.monotonic()
    table = _compute_table(E)
    took = time.monotonic() - t0
    degs = list(table.degrees())
    assert degs.count(1) == 49 and degs.count(7) == 6 and len(degs) == 55
    reps = [E.class_of()[g] for g in standard_reps(E)]
    zeros = tuple(c7(0) for _ in range(8))
    expected = {(c7(7), tuple(7 * c for c in W[k])) + zeros
                for k in range(1, 7)}
    rows = {tuple(row[c] for c in reps)
            for row, d in zip(table.coords, degs) if d == 7}
    assert rows == expected
    assert took < 30.0, f"character table took {took:.2f}s"
    print("criterion 4: PASS")


def test_criterion_05_onan():
    t0 = time.monotonic()
    job = fresh("onan")
    B = irreducible_invariants(job.fusion)
    assert len(job.fusion.element_classes()) == 3
    ren, cren = gens_by_degree(B, {150: ("A", "z"), 192: ("B", "w")})
    P = structure_constants(B, ren)
    C = completed_presentation(P, cren)
    took = time.monotonic() - t0
    vs = ("A", "B")
    assert relation_rows(P.names, P.ring.tensor) == rows_of(vs, [
        (0, 0, (65, 66), 78),
        (1, 1, (108, 107), 120),
        (0, 1, (84, 84), 72),
    ])
    cs = ("z", "w")
    assert completed_rows(P, C) == rows_of(cs, [
        (0, 0, (-235, 66)),
        (1, 1, (108, -277)),
        (0, 1, (-108, -66)),
    ])
    assert took < 300.0, f"onan took {took:.2f}s"
    _RINGDATA["onan"] = (job, B)
    print("criterion 5: PASS")


HE_RELATIONS = [
    (0, 0, (7, 8, 8, 6, 6), 6),
    (1, 1, (8, 7, 6, 8, 6), 6),
    (2, 2, (6, 6, 7, 10, 8), 6),
    (3, 3, (6, 6, 10, 7, 8), 6),
    (4, 4, (60, 60, 60, 60, 61), 72),
    (0, 1, (7, 7, 6, 6, 7), 12),
    (0, 2, (6, 6, 8, 6, 8), 6),
    (0, 3, (6, 9, 6, 8, 7), 6),
    (0, 4, (21, 18, 20, 22, 20), 18),
    (1, 2, (9, 6, 8, 6, 7), 6),
    (1, 3, (6, 6, 6, 8, 8), 6),
    (1, 4, (18, 21, 22, 20, 20), 18),
    (2, 3, (9, 9, 7, 7, 7), 15),
    (2, 4, (21, 24, 20, 22, 21), 18),
    (3, 4, (24, 21, 22, 20, 21), 18),
]

HE_COMPLETED = [
    (0, 0, (-89, 8, 8, 6, 6)),
    (1, 1, (8, -89, 6, 8, 6)),
    (2, 2, (6, 6, -95, 10, 8)),
    (3, 3, (6, 6, 10, -95, 8)),
    (4, 4, (60, 60, 60, 60, -227)),
    (0, 1, (-41, -41, 6, 6, 7)),
    (0, 2, (-45, 6, -40, 6, 8)),
    (0, 3, (-45, 9, 6, -40, 7)),
    (0, 4, (-123, 18, 20, 22, -28)),
    (1, 2, (9, -45, -40, 6, 7)),
    (1, 3, (6, -45, 6, -40, 8)),
    (1, 4, (18, -123, 22, 20, -28)),
    (2, 3, (9, 9, -44, -44, 7)),
    (2, 4, (21, 24, -124, 22, -30)),
    (3, 4, (24, 21, 22, -124, -30)),
]


def test_criterion_06_he():
    t0 = time.monotonic()
    job = fresh("he")
    B = irreducible_invariants(job.fusion)
    degrees = sorted(B.degrees)
    assert degrees == [1, 48, 48, 51, 51, 144]
    # the two degree-48 and the two degree-51 generators are Galois twins,
    # so the labels are pinned by character values, not by degree
    reps = standard_reps(job.group)
    ren = {}
    for k, name in enumerate(B.names):
        if name == "1":
            continue
        row = value_row(B, k, reps)
        hits = [d for d in ("D1", "D2", "D3", "D4", "D5")
                if EXPECTED_ROWS[d] == row]
        assert len(hits) == 1, f"{name} matches {hits}"
        ren[name] = hits[0]
    assert sorted(ren.values()) == ["D1", "D2", "D3", "D4", "D5"]
    auto = [n for n in B.names if n != "1"]
    cren = {f"v{i + 1}": "v" + ren[n][1] for i, n in enumerate(auto)}
    P = structure_constants(B, ren)
    C = completed_presentation(P, cren)
    took = time.monotonic() - t0
    vs = ("D1", "D2", "D3", "D4", "D5")
    assert relation_rows(P.names, P.ring.tensor) == rows_of(vs, HE_RELATIONS)
    cs = ("v1", "v2", "v3", "v4", "v5")
    assert completed_rows(P, C) == rows_of(cs, HE_COMPLETED)
    assert took < 300.0, f"he took {took:.2f}s"
    _RINGDATA["he"] = (job, B)
    print("criterion 6: PASS")


def test_criterion_07_he_2():
    job, B = ringdata("he_2")
    ren, cren = gens_by_degree(B, {96: ("M1", "t1"), 102: ("M2", "t2"),
                                   144: ("D5", "t3")})
    P = structure_constants(B, ren)
    C = completed_presentation(P, cren)
    vs = ("M1", "M2", "D5")
    assert relation_rows(P.names, P.ring.tensor) == rows_of(vs, [
        (0, 0, (29, 26, 26), 36),
        (1, 1, (30, 31, 30), 42),
        (2, 2, (60, 60, 61), 72),
        (0, 1, (27, 28, 30), 24),
        (0, 2, (39, 42, 40), 36),
        (1, 2, (45, 42, 42), 36),
    ])
    cs = ("t1", "t2", "t3")
    assert completed_rows(P, C) == rows_of(cs, [
        (0, 0, (-163, 26, 26)),
        (1, 1, (30, -173, 30)),
        (2, 2, (60, 60, -227)),
        (0, 1, (-75, -68, 30)),
        (0, 2, (-105, 42, -56)),
        (1, 2, (45, -102, -60)),
    ])
    print("criterion 7: PASS")


def test_criterion_08_fi24p():
    job, B = ringdata("fi24p")
    ren, cren = gens_by_degree(B, {96: ("M1", "r"), 246: ("N", "s")})
    P = structure_constants(B, ren)
    C = completed_presentation(P, cren)
    vs = ("M1", "N")
    assert relation_rows(P.names, P.ring.tensor) == rows_of(vs, [
        (0, 0, (29, 26), 36),
        (1, 1, (180, 175), 186),
        (0, 1, (66, 70), 60),
    ])
    cs = ("r", "s")
    assert completed_rows(P, C) == rows_of(cs, [
        (0, 0, (-163, 26)),
        (1, 1, (180, -317)),
        (0, 1, (-180, -26)),
    ])
    print("criterion 8: PASS")


def test_criterion_09_rv_family():
    for stem in ("rv1", "rv2", "rv3"):
        job, B = ringdata(stem)
        ren, cren = gens_by_degree(B, {342: ("U", "u")})
        P = structure_constants(B, ren)
        C = completed_presentation(P, cren)
        assert str(P) == "Z[U]/( U^2 - 341U - 342 )", stem
        assert str(C) == "Z[[u]]/( u^2 + 343u )", stem
    print("criterion 9: PASS")


def cli_text(command, stem):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, fixture_path(stem + ".fus")])
    assert code == 0
    return buf.getvalue()


def test_criterion_10_equality_pairs():
    for a, b in (("onan", "onan_2"), ("fi24p", "fi24"), ("rv2", "rv3")):
        for command in ("repring", "ktheory"):
            assert cli_text(command, a) == cli_text(command, b), \
                f"{command}: {a} vs {b}"
    print("criterion 10: PASS")


def test_criterion_11_value_table():
    E = extraspecial_p3(7)
    reps = standard_reps(E)

    def expect(*names):
        return {EXPECTED_ROWS[n] for n in names}

    onan_outer = gl2_fusion([[[-1, 0], [0, 1]], [[2, 0], [0, 2]],
                             [[0, 1], [-1, 0]]])
    B = irreducible_invariants(onan_outer)
    assert nontrivial_rows(B, reps) == expect("Z", "X1", "X2", "X3")

    he_outer = gl2_fusion([[[2, 0], [0, 4]], [[2, 0], [0, 2]],
                           [[0, 1], [1, 0]]])
    B = irreducible_invariants(he_outer)
    assert nontrivial_rows(B, reps) == expect("Z", "Y1", "Y2", "Y3", "Y4",
                                              "Y5")

    for stem, names in (("onan", ("A", "B")),
                        ("rv2", ("U",)),
                        ("he", ("D1", "D2", "D3", "D4", "D5")),
                        ("he_2", ("M1", "M2", "D5")),
                        ("fi24p", ("M1", "N"))):
        job, basis = ringdata(stem)
        assert nontrivial_rows(basis, reps) == expect(*names), stem
    print("criterion 11: PASS")


def test_criterion_12_property_suites():
    # basis size, covering, associativity, and the degree identity that
    # leaves the completed relations without constant terms, on every
    # fixture
    for stem in ALL_STEMS:
        job, B = ringdata(stem)
        F = job.fusion
        assert len(B.names) == len(F.element_classes()), stem
        # every irreducible of S occurs in some basis element
        assert all(map(any, zip(*B.mults))), stem
        P = structure_constants(B)
        m = len(P.names) + 1
        units = [tuple(int(i == k) for k in range(m)) for i in range(m)]
        for u in units:
            for v in units:
                uv = ring_product(P.ring, u, v)
                for w in units:
                    assert ring_product(P.ring, uv, w) == ring_product(
                        P.ring, u, ring_product(P.ring, v, w))
        # the completed relations have no constant term: d is multiplicative
        d = np.array(P.ring.degrees, dtype=object)
        assert (np.array(P.ring.tensor, dtype=object) @ d
                == np.outer(d, d)).all(), stem

    # twisted side of covering on the one extension fixture
    job, B = ringdata("a4_sl23")
    TB = twisted_invariant_basis(job.extension, job.fusion_alpha,
                                 base=job.fusion)
    # every A-representation occurs in some twisted basis element
    assert all(any(row[j] for row in TB.mults) for j in TB.a_reps)

    # orthogonality and degree sums for every distinct group in play,
    # extension total space included
    groups = {}
    for stem in ALL_STEMS:
        job, _ = ringdata(stem)
        groups[id(job.group)] = job.group
    ext = ringdata("a4_sl23")[0].extension
    groups[id(ext.group)] = ext.group
    for G in groups.values():
        table = character_table(G)
        chars = table.coords
        assert sum(d ** 2 for d in table.degrees()) == G.order
        for i in range(len(chars)):
            for j in range(i, len(chars)):
                want = 1 if i == j else 0
                assert inner_product(G, table.conductor, chars[i],
                                     chars[j]) == want

    # minimal-solution solver against exhaustive search on all groups of
    # order at most 16
    for F in small_fusions():
        assert F.S.order <= 16
        rows = invariance_matrix(F)
        ncols = len(character_table(F.S))
        computed = set(irreducible_invariants(F).mults)
        bound = max(max(v) for v in computed) + 1
        assert computed == brute_hilbert(rows, ncols, bound)

    # prime poset sizes and connectivity: with the defining prime listed
    # the poset is connected, without it the minimal symbols fall apart
    for stem, with_p, count, without_p in (
            ("sigma_3", [2, 3], 5, [2]),
            ("a4", [2, 3], 5, [3]),
            ("onan", [2, 7], 10, [2])):
        F = ringdata(stem)[0].fusion
        k = len(F.element_classes())
        pos = prime_symbols(F, with_p)
        assert len(pos.nodes) == count, stem
        assert sum(prime.q is None for prime, _ in pos.nodes) == k, stem
        assert pos.connected, stem
        pos = prime_symbols(F, without_p)
        assert len(pos.nodes) == count - 1, stem
        assert not pos.connected, stem

    # the two adic topologies coincide with small exponents
    for stem in ("sigma_3", "a4"):
        F = ringdata(stem)[0].fusion
        for k in (1, 2):
            m = adic_equivalence_exponent(F, k)
            assert 1 <= m <= 64, (stem, k, m)

    # saturation of the two small systems inside the time budget
    t0 = time.monotonic()
    for stem in ("sigma_3", "a4"):
        report = ringdata(stem)[0].fusion.check_saturation()
        assert report.ok, stem
    assert time.monotonic() - t0 < 10.0
    print("criterion 12: PASS (fast properties)")


@pytest.mark.slow
def test_criterion_12_onan_saturation():
    job, B = ringdata("onan")
    F = job.fusion
    report = F.check_saturation()
    assert report.ok and not report.violations
    # the centric radical family is the full group plus the two rigid
    # elementary abelian classes; nothing of order at most 7 can be
    # centric because its centralizer contains the center and more
    S = F.S
    family = [P for P in S.all_subgroups()
              if P.order >= 49 and is_centric(F, P) and is_radical(F, P)]
    expected = {frozenset(S.full_subgroup().members)}
    named = named_subgroups(load_jobspec(fixture_path("onan.fus")), S)
    for cls in F.subgroup_classes(S.all_subgroups()):
        if any(named[name].members in cls for name in ("A0", "A1")):
            expected.update(map(frozenset, cls))
    assert {frozenset(P.members) for P in family} == expected
    print("criterion 12: PASS (large saturation)")
