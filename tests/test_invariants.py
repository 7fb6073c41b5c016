import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from oracles import (brute_hilbert, constant_on_fusion_classes,
                     pottier_hilbert_basis, small_fusions)
from oracles import decompose as decompose_oracle

from fusionrep.chartable import character_table
from fusionrep.errors import HilbertCapExceeded, NotInvariant
from fusionrep.fusion import build_fusion
from fusionrep.intlinalg import IntegerSpan, hnf, kernel_basis
from fusionrep import twisted
from fusionrep.invariants import (DEFAULT_HILBERT_CAP, decompose,
                                  hilbert_basis, invariance_matrix,
                                  irreducible_invariants)
from fusionrep.permgroup import build_group, extraspecial_p3, make_hom


def test_hilbert_unit():
    assert hilbert_basis([], ncols=3) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert hilbert_basis([[0, 0, 0]]) == hilbert_basis([], ncols=3)
    assert hilbert_basis([[1, -1]]) == [(1, 1)]
    hb = hilbert_basis([[1, 1, -2]])
    assert set(hb) == {(1, 1, 1), (2, 0, 1), (0, 2, 1)}
    assert hilbert_basis([[1, 1]]) == []


def test_hilbert_cap():
    with pytest.raises(HilbertCapExceeded):
        hilbert_basis([[1, 1, -2]], cap=2)


def test_hilbert_lifts_merged_columns_exactly():
    # columns 0 and 1 share one kernel ray with contents 3 and 2, so the
    # lift from the representative multiplies by the ratio 2/3
    assert hilbert_basis([[2, -3]]) == [(3, 2)]
    rows = [[2, -3, 1, -1, 0], [0, 0, 2, -2, 0]]
    assert hilbert_basis(rows) == pottier_hilbert_basis(rows)
    assert hilbert_basis(rows) == [(0, 0, 0, 0, 1), (0, 0, 1, 1, 0),
                                   (3, 2, 0, 0, 0)]
    # column 1 is forced to zero and column 4 is free
    rows = [[1, 0, 2, -4, 0], [0, 1, 0, 0, 0]]
    assert hilbert_basis(rows) == pottier_hilbert_basis(rows) \
        == [(0, 0, 0, 0, 1), (0, 0, 2, 1, 0), (2, 0, 1, 1, 0),
            (4, 0, 0, 1, 0)]


def test_hilbert_entry_bound():
    """x = 2^63 y has one minimal non-negative solution, whose entry is
    past int64; the completion runs on it exactly."""
    assert hilbert_basis([[1, -(2 ** 63)]]) == [(2 ** 63, 1)]


@st.composite
def small_matrices(draw):
    """1-3 rows and 2-6 columns with entries in -3..3, built column by
    column; a column may repeat or scale an earlier one, or be zero."""
    m = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    cols = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["fresh", "repeat", "scale", "zero"]))
        if kind == "fresh" or not cols:
            col = draw(st.lists(entry, min_size=m, max_size=m))
        elif kind == "zero":
            col = [0] * m
        else:
            base = draw(st.sampled_from(cols))
            k = 1 if kind == "repeat" else draw(st.sampled_from([-3, -2, 2, 3]))
            col = [x * k for x in base]
            if max(map(abs, col), default=0) > 3:
                col = [-x for x in base]
        cols.append(col)
    return [[col[i] for col in cols] for i in range(m)]


# Some 2 x 6 matrices already need completions of thousands of vectors,
# minutes for either side; the oracle's cap discards those examples.
ORACLE_CAP = 2000


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_hilbert_matches_the_pottier_oracle(rows):
    try:
        want = pottier_hilbert_basis(rows, cap=ORACLE_CAP)
    except HilbertCapExceeded:
        assume(False)
    assert hilbert_basis(rows) == want


STEMS = sorted(f[:-4] for f in os.listdir(FIXTURES) if f.endswith(".fus"))


@pytest.mark.parametrize("stem", STEMS)
def test_hilbert_matches_the_oracle_on_every_fixture(pipeline, stem,
                                                    monkeypatch):
    job = pipeline(stem)
    rows = invariance_matrix(job.fusion)
    n = len(character_table(job.group))
    assert hilbert_basis(rows, ncols=n) == pottier_hilbert_basis(rows, ncols=n)
    if job.extension is None:
        return
    # the twisted basis runs on the a-representation columns
    checked = []

    def checked_hilbert_basis(rows, ncols=None, cap=DEFAULT_HILBERT_CAP):
        got = hilbert_basis(rows, ncols, cap)
        assert got == pottier_hilbert_basis(rows, ncols, cap)
        checked.append(len(got))
        return got

    monkeypatch.setattr(twisted, "hilbert_basis", checked_hilbert_basis)
    twisted.twisted_invariant_basis(job.extension, job.fusion_alpha,
                                    base=job.fusion)
    assert checked


@pytest.mark.parametrize("stem", STEMS)
def test_basis_reads_degrees_coords_and_span_off_its_rows(pipeline, stem):
    """Both bases hold one matrix of multiplicities, a tuple of row tuples
    of Python ints, and their degrees, coordinates and span are those of
    its rows, one row at a time."""
    job = pipeline(stem)
    for B in [job.basis] + ([job.twisted_basis] if job.extension else []):
        tab = character_table(B.fusion.S)
        assert type(B.mults) is tuple and np.shape(B.mults) == (len(B),
                                                                len(tab))
        assert all(type(x) is int for row in B.mults for x in row)
        rows = [list(row) for row in B.mults]
        assert B.degrees == tuple(
            sum(m * d for m, d in zip(row, tab.degrees())) for row in rows)
        X = np.array(tab.coords)
        for row, coords in zip(rows, B.coords):
            assert np.array_equal(
                coords, sum(m * X[i] for i, m in enumerate(row)))
        assert B.span.columns == rows
        assert B.span.tagged == IntegerSpan(rows).tagged
        assert B.span.solve(rows) == np.eye(len(B), dtype=int).tolist()


def test_hilbert_against_bruteforce():
    """Oracle on every fixture group of order at most 16."""
    for F in small_fusions():
        assert F.S.order <= 16
        rows = invariance_matrix(F)
        ncols = len(character_table(F.S))
        B = irreducible_invariants(F)
        computed = set(B.mults)
        bound = max(max(v) for v in computed) + 1
        assert computed == brute_hilbert(rows, ncols, bound)


def test_sigma3_basis():
    Z3 = build_group(3, ["(1 2 3)"], names=["s"])
    s = Z3.names["s"]
    F = build_fusion(Z3, [make_hom(Z3.full_subgroup(), (Z3.power(s, 2),))])
    assert len(hnf(invariance_matrix(F))) == 1
    B = irreducible_invariants(F)
    assert B.names == ("1", "X1")
    assert list(B.degrees) == [1, 2]
    assert B.mults[1] == (0, 1, 1)


def test_trivial_fusion_basis_is_irr():
    Z3 = build_group(3, ["(1 2 3)"], names=["s"])
    F = build_fusion(Z3, [])
    assert invariance_matrix(F) == []
    B = irreducible_invariants(F)
    assert len(B) == 3
    assert all(sum(row) == 1 for row in B.mults)


def uncovered(B) -> list:
    """The irreducibles of S that occur in no basis element: the columns
    of the basis multiplicities that are zero throughout."""
    return [k for k, col in enumerate(zip(*B.mults)) if not any(col)]


def test_a4_basis_decompose_covering():
    V4 = build_group(4, ["(1 2)(3 4)", "(1 3)(2 4)"], names=["x", "y"])
    x, y = V4.names["x"], V4.names["y"]
    F = build_fusion(V4, [make_hom(V4.full_subgroup(), (y, V4.mul(x, y)))])
    B = irreducible_invariants(F)
    assert list(B.degrees) == [1, 3]
    assert B.mults[1] == (0, 1, 1, 1)
    assert decompose([[1, 1, 1, 1], [2, 1, 1, 1], [-1, -1, -1, -1]],
                     B) == [[1, 1], [2, 1], [-1, -1]]
    with pytest.raises(NotInvariant):
        decompose([[0, 1, 0, 0]], B)
    assert uncovered(B) == []
    tab = character_table(V4)
    assert constant_on_fusion_classes(F, B.coords[1])
    assert not constant_on_fusion_classes(F, tab.coords[1])
    regular = np.zeros(np.shape(tab.coords)[1:], dtype=np.int64)
    regular[V4.class_of()[V4.identity], 0] = V4.order
    assert constant_on_fusion_classes(F, regular)


@pytest.mark.parametrize("stem", ["sigma_3", "onan"])
def test_decompose_rejects_every_non_invariant_vector(pipeline, stem):
    """A unit vector over Irr(S) is invariant only when it is a basis
    member; the check is exact for entries of any size, and a batch names
    its first failing row.  Every answer is the per-row oracle's."""
    B = pipeline(stem).basis
    members = set(B.mults)
    n = len(B.mults[0])
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    inside = [u for u in units if u in members]
    assert decompose(inside, B) == [
        list(decompose_oracle(u, B)) for u in inside]
    assert all(row.count(1) == 1 for row in decompose(inside, B))
    rejected = 0
    for unit in units:
        if unit in members:
            continue
        # plus a huge invariant vector, beyond any fixed-width integer
        for v in (unit, [x + 10 ** 40 * m for x, m in
                         zip(unit, B.mults[-1])]):
            with pytest.raises(NotInvariant, match="^character is not "
                               "constant on the fusion classes$") as ex:
                decompose(inside + [v], B)
            assert ex.value.row == len(inside)
            with pytest.raises(NotInvariant):
                decompose_oracle(v, B)
        rejected += 1
    assert rejected > 0
    big = [10 ** 40 * m for m in B.mults[-1]]
    assert decompose([big], B) == [list(decompose_oracle(big, B))] \
        == [[10 ** 40 * int(k == len(B) - 1) for k in range(len(B))]]
    assert decompose(np.zeros((0, n), dtype=np.int64), B) == []


def test_basis_count_matches_classes(pipeline):
    for stem in ("sigma_3", "sigma_5", "sigma_7", "a4", "onan", "onan_2",
                 "he", "he_2", "fi24p", "fi24", "rv1", "rv2", "rv3"):
        P = pipeline(stem)
        assert len(P.basis) == len(P.fusion.element_classes()), stem


def test_onan_basis(pipeline):
    P = pipeline("onan")
    B = P.basis
    assert list(B.degrees) == [1, 150, 192]
    tab = character_table(P.group)
    d7 = [i for i, d in enumerate(tab.degrees()) if d == 7]
    vA, vB = B.mults[1], B.mults[2]
    assert all(vA[i] == 3 for i in d7)
    assert all(vB[i] == 4 for i in d7)
    assert uncovered(B) == []
    # the sum of the nonlinear irreducibles alone is not stable
    zvec = [0] * 55
    for i in d7:
        zvec[i] = 1
    assert not constant_on_fusion_classes(
        P.fusion, np.tensordot(zvec, np.array(tab.coords), 1))
    assert all(constant_on_fusion_classes(P.fusion, c) for c in B.coords)


def test_covering_all_fixtures(pipeline):
    for stem in ("sigma_3", "sigma_5", "sigma_7", "a4", "onan", "he",
                 "he_2", "fi24p", "rv2"):
        P = pipeline(stem)
        assert uncovered(P.basis) == [], stem


def test_exact_rank_when_the_modular_test_reports_a_kernel(pipeline,
                                                           monkeypatch):
    """rank reads every basis off one hnf of the integer restriction of
    scalars, and gets full and deficient rank."""
    import fusionrep.chartable as chartable
    stems = ("sigma_3", "a4", "onan", "he")
    want = {stem: pipeline(stem).basis.mults for stem in stems}
    exact = []

    def counted_hnf(rows):
        exact.append(len(rows))
        return hnf(rows)

    monkeypatch.setattr(chartable, "hnf", counted_hnf)
    for stem in stems:
        assert irreducible_invariants(pipeline(stem).fusion).mults \
            == want[stem]
    assert len(exact) == len(stems)
    for stem in ("sigma_7", "a4"):
        tab = character_table(pipeline(stem).group)
        values = list(tab.coords)
        assert tab.rank(values) == len(tab)
        values[-1] = values[0]
        assert tab.rank(values) == len(tab) - 1
