import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import FIXTURES
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import action_matrices as action_matrices_oracle
from oracles import structure_constants as structure_constants_oracle
from oracles import (chain_completed_module, cocycle_violations,
                     invariance_matrix, quotient_fusion, quotient_match,
                     section_cocycle, unit_row_twisted_hilbert, zero_section)
from test_golden import A4_SL23_EXPLICIT

from fusionrep import permgroup, twisted
from fusionrep.chartable import character_table
from fusionrep.errors import (DecompositionNotIntegral, FusionRepError,
                              GeneratorMovesA, InvalidCocycle, NotCentral,
                              NotCyclicKernel, NotInjective, QuotientMismatch)
from fusionrep.fusion import build_fusion
from fusionrep.invariants import (irreducible_invariants,
                                  product_coefficients)
from fusionrep.jobspec import parse_jobspec, realize
from fusionrep.permgroup import build_group, extraspecial_p3, make_hom
from fusionrep.ringpres import structure_constants
from fusionrep.extension import (Cocycle, central_extension,
                                 extension_from_groups, validate_cocycle)
from fusionrep.twisted import (TwistedModule, a_representations,
                               completed_module, module_structure,
                               twisted_invariant_basis)

QTABLE = [
    [0, 0, 0, 0],
    [0, 1, 0, 1],
    [0, 1, 1, 0],
    [0, 0, 1, 1],
]


def trivial_cocycle(G):
    return Cocycle(G, 2, [[0] * G.order] * G.order)


@pytest.fixture(scope="module")
def quaternion_setup():
    V4 = build_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)], names=["x", "y"])
    alpha = Cocycle(V4, 2, QTABLE)
    E = central_extension(V4, alpha)
    return V4, alpha, E


def test_cocycle_validation(quaternion_setup):
    V4, alpha, _ = quaternion_setup
    assert validate_cocycle(alpha) == []
    bad = Cocycle(V4, 2, [[0, 0, 0, 0], [1, 1, 0, 1],
                          [0, 1, 1, 0], [0, 0, 1, 1]])
    assert validate_cocycle(bad) != []
    assert validate_cocycle(trivial_cocycle(V4)) == []
    with pytest.raises(InvalidCocycle):
        central_extension(V4, bad)


def test_cocycle_validation_without_a_table(monkeypatch):
    """Above the table limit the products come from tuple composition,
    and the reports are the same: for a valid cocycle on V4, two invalid
    ones, and one on (Z/2)^3 with more violations than are listed."""
    cases = [
        ("v4", QTABLE),
        ("v4", [[0, 0, 0, 0], [1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]]),
        ("v4", [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
        ("c2^3", [[(s * t + s) % 2 if s and t else 0 for t in range(8)]
                  for s in range(8)]),
    ]

    def reports():
        groups = {"v4": build_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
                  "c2^3": build_group(6, ["(1 2)", "(3 4)", "(5 6)"])}
        return [validate_cocycle(Cocycle(groups[g], 2, T)) for g, T in cases]

    want = reports()
    assert want[0] == [] and all(want[1:])
    assert want[3][-1] == "... (further violations suppressed)"
    monkeypatch.setattr(permgroup, "_TABLE_LIMIT", 0)
    assert build_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)]).table() is None
    assert reports() == want


def test_quaternion_extension(quaternion_setup):
    V4, alpha, E = quaternion_setup
    Q8 = E.group
    assert Q8.order == 8
    assert len(Q8.conjugacy_classes()) == 5
    assert sum(1 for o in Q8.element_orders() if o == 2) == 1
    assert E.projection.apply(E.a_gen) == V4.identity
    assert all(E.projection.apply(zero_section(E)[s]) == s for s in range(4))
    assert section_cocycle(E) == alpha.table


def test_cyclic_four_extension():
    Z2 = build_group(2, [(1, 0)], names=["g"])
    aZ = Cocycle(Z2, 2, [[0, 0], [0, 1]])
    EZ = central_extension(Z2, aZ)
    assert EZ.group.order == 4
    assert max(EZ.group.element_orders()) == 4
    assert section_cocycle(EZ) == aZ.table
    E0 = central_extension(Z2, trivial_cocycle(Z2))
    assert max(E0.group.element_orders()) == 2


def test_extension_from_groups(quaternion_setup):
    """The extension given by its group has the cocycle, the twisted basis
    and the module of the one built from the cocycle."""
    V4, alpha, E = quaternion_setup
    Q8 = E.group
    E2 = extension_from_groups(Q8, E.a_gen, E.projection)
    assert section_cocycle(E2) == alpha.table
    FQ, FA4 = lifted_fusions(E)
    B = irreducible_invariants(FA4)
    TB = twisted_invariant_basis(E, FQ, base=FA4)
    TB2 = twisted_invariant_basis(E2, FQ, base=FA4)
    assert TB2.mults == TB.mults
    assert module_structure(FA4, B, E2, TB2).matrices \
        == module_structure(FA4, B, E, TB).matrices == (((3,),),)
    with pytest.raises(NotCyclicKernel):
        extension_from_groups(Q8, Q8.identity, E.projection)
    xi = V4.names["x"]
    with pytest.raises(NotCentral):
        extension_from_groups(Q8, zero_section(E)[xi], E.projection)
    S3 = build_group(3, [(1, 2, 0), (1, 0, 2)], names=["r", "t"])
    Z2b = build_group(2, [(1, 0)])
    sgn = make_hom(S3.full_subgroup(), (Z2b.identity, 1 - Z2b.identity),
                   codomain=Z2b, require_injective=False)
    with pytest.raises(NotCentral):
        extension_from_groups(S3, S3.names["r"], sgn)


def test_sections(quaternion_setup):
    """Another section of the extension gives another valid cocycle."""
    V4, alpha, E = quaternion_setup
    alt = list(zero_section(E))
    alt[V4.names["x"]] = E.group.mul(E.a_gen, alt[V4.names["x"]])
    alpha2 = Cocycle(V4, 2, section_cocycle(E, alt))
    assert alpha2.table != alpha.table
    assert validate_cocycle(alpha2) == []


def _cyclic(m):
    return build_group(m, [tuple((i + 1) % m for i in range(m))])


def _carry(S, p):
    """The carry cocycle of a cyclic group S with values in Z/p: 1 at (s, t)
    when the exponents of s and t over the generator add up to |S| or
    more."""
    exp, cur = {}, S.identity
    for k in range(S.order):
        exp[cur] = k
        cur = S.mul(cur, S.gen_indices[0])
    return [[int(exp[s] + exp[t] >= S.order) for t in range(S.order)]
            for s in range(S.order)]


# name -> (the group, built afresh, its prime, its nonzero base cocycles)
_COCYCLE_GROUPS = {
    "V4": (lambda: build_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)]), 2,
           lambda S: [QTABLE]),
    "Z4": (lambda: _cyclic(4), 2, lambda S: [_carry(S, 2)]),
    "C2^3": (lambda: build_group(6, ["(1 2)", "(3 4)", "(5 6)"]), 2,
             lambda S: []),
    "Z9": (lambda: _cyclic(9), 3, lambda S: [_carry(S, 3)]),
    "3^1+2": (lambda: extraspecial_p3(3), 3, lambda S: []),
}
_EXTENSIONS = {}


def _extensions(name):
    """The group and its extensions by the zero cocycle and by its base
    cocycles, built once."""
    if name not in _EXTENSIONS:
        build, p, bases = _COCYCLE_GROUPS[name]
        S = build()
        _EXTENSIONS[name] = S, [
            central_extension(S, Cocycle(S, p, T))
            for T in [[[0] * S.order] * S.order] + bases(S)]
    return _EXTENSIONS[name]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
@pytest.mark.parametrize("limit", [permgroup._TABLE_LIMIT, 0],
                         ids=["table", "no-table"])
def test_cocycle_check_matches_the_triple_scan(monkeypatch, limit, data):
    """validate_cocycle, Light's test at the generators with the full scan
    on failure, reports what the scan over every triple reports: on the
    cocycles of random normalized sections of extensions of V4, Z/4,
    (Z/2)^3, Z/9 and 3^{1+2}, on those with one entry changed, and on
    those with 1 added off the subgroup generated by one generator; with
    and without a multiplication table."""
    name = data.draw(st.sampled_from(sorted(_COCYCLE_GROUPS)))
    S, extensions = _extensions(name)
    E = data.draw(st.sampled_from(extensions))
    n, G, zs = E.coeff, E.group, zero_section(E)
    shift = data.draw(st.lists(st.integers(0, n - 1), min_size=S.order,
                               max_size=S.order))
    section = list(zs)
    for s in range(S.order):
        if s != S.identity:
            for _ in range(shift[s]):
                section[s] = G.mul(E.a_gen, section[s])
    T = [list(row) for row in section_cocycle(E, section)]
    change = data.draw(st.sampled_from(["none", "entry", "block"]))
    if change == "entry":
        s, t = (data.draw(st.integers(0, S.order - 1)) for _ in range(2))
        T[s][t] += data.draw(st.integers(1, n - 1))
    elif change == "block":
        # the identity still holds at every middle element of H = <g>, so
        # only the other generators can show a failure
        H = S.closure((data.draw(st.sampled_from(S.gen_indices)),))
        for s in set(range(S.order)) - set(H):
            for t in set(range(S.order)) - set(H):
                T[s][t] += 1
    monkeypatch.setattr(permgroup, "_TABLE_LIMIT", limit)
    if limit == 0:
        S = _COCYCLE_GROUPS[name][0]()
        assert S.table() is None
    alpha = Cocycle(S, n, T)
    assert validate_cocycle(alpha) == cocycle_violations(alpha)


def test_a_representations(quaternion_setup):
    V4, _, E = quaternion_setup
    ar = a_representations(E)
    tab = character_table(E.group)
    assert len(ar) == 1 and tab.degrees()[ar[0]] == 2
    assert tab.coords[ar[0]][E.group.class_of()[E.a_gen]] == (-2, 0)
    # degrees of the a-representations square-sum to |base|
    assert sum(tab.degrees()[k] ** 2 for k in ar) == V4.order

    Z2 = build_group(2, [(1, 0)], names=["g"])
    EZ = central_extension(Z2, Cocycle(Z2, 2, [[0, 0], [0, 1]]))
    arZ = a_representations(EZ)
    tabZ = character_table(EZ.group)
    assert len(arZ) == 2
    assert sum(tabZ.degrees()[k] ** 2 for k in arZ) == 2
    E0 = central_extension(Z2, trivial_cocycle(Z2))
    assert len(a_representations(E0)) == len(character_table(Z2))


def lifted_fusions(E):
    Q8 = E.group
    V4 = E.base
    zi, xq, yq = Q8.names["z"], Q8.names["x"], Q8.names["y"]
    tau = make_hom(Q8.full_subgroup(), (zi, yq, Q8.mul(xq, yq)))
    FQ = build_fusion(Q8, [tau])
    xi, yi = V4.names["x"], V4.names["y"]
    FA4 = build_fusion(V4, [make_hom(V4.full_subgroup(),
                                     (yi, V4.mul(xi, yi)))])
    return FQ, FA4


def test_twisted_basis(quaternion_setup):
    V4, _, E = quaternion_setup
    FQ, FA4 = lifted_fusions(E)
    ar = a_representations(E)
    TB = twisted_invariant_basis(E, FQ, base=FA4)
    assert len(TB) == 1
    assert TB.degrees == (2,)
    assert TB.mults[0][ar[0]] == 1
    # every A-representation occurs in a basis element
    assert np.array(TB.mults)[:, list(ar)].any(0).all()
    rows = np.array(invariance_matrix(FQ))

    def in_monoid(v):
        """Non-negative, supported on the A-representations, and
        constant on the classes of the lifted system."""
        v = np.array(v)
        return ((v >= 0).all() and not np.delete(v, list(ar)).any()
                and not (rows @ v).any())

    assert in_monoid(TB.mults[0])
    badvec = [0] * len(character_table(E.group))
    badvec[0] = 1
    assert not in_monoid(badvec)
    with pytest.raises(QuotientMismatch):
        twisted_invariant_basis(E, FQ, base=build_fusion(V4, []))


def test_generator_moving_kernel():
    V4 = build_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)], names=["x", "y"])
    EE = central_extension(V4, trivial_cocycle(V4))
    G8 = EE.group
    swap = make_hom(G8.full_subgroup(),
                    (G8.names["x"], G8.names["z"], G8.names["y"]))
    with pytest.raises(GeneratorMovesA):
        twisted_invariant_basis(EE, build_fusion(G8, [swap]),
                                base=build_fusion(V4, []))


def test_module_structure_and_completion(quaternion_setup):
    V4, _, E = quaternion_setup
    FQ, FA4 = lifted_fusions(E)
    B = irreducible_invariants(FA4)
    P = structure_constants(B)
    TB = twisted_invariant_basis(E, FQ, base=FA4)
    TM = module_structure(FA4, B, E, TB)
    assert TM.matrices == (((3,),),)
    CM = completed_module(TM, P)
    assert CM.kind == "finite"
    assert CM.to_json()["free_rank"] == 1 and CM.to_json()["torsion"] == []
    assert CM.shifted == (((0,),),)
    assert CM.group_string() == "Z"
    assert str(CM).startswith("completed module: Z")


def trivial_cocycle_setup():
    """The A4 system on V4, the extension of V4 by the trivial cocycle
    and the lift of the rotation to it."""
    V4 = build_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)], names=["x", "y"])
    xi, yi = V4.names["x"], V4.names["y"]
    FA4 = build_fusion(V4, [make_hom(V4.full_subgroup(),
                                     (yi, V4.mul(xi, yi)))])
    EE = central_extension(V4, trivial_cocycle(V4))
    G8 = EE.group
    lift = make_hom(G8.full_subgroup(),
                    (G8.names["z"], G8.names["y"],
                     G8.mul(G8.names["x"], G8.names["y"])))
    return FA4, EE, build_fusion(G8, [lift])


def test_trivial_cocycle_module():
    FA4, EE, FA4_lift = trivial_cocycle_setup()
    TB0 = twisted_invariant_basis(EE, FA4_lift, base=FA4)
    assert TB0.degrees == (1, 3)
    B = irreducible_invariants(FA4)
    TM0 = module_structure(FA4, B, EE, TB0)
    assert TM0.matrices == (((0, 3), (1, 2)),)
    # the shifted matrix has trace -4, so it is not nilpotent and the chain
    # keeps shrinking by a factor of 4: no finite report
    CM0 = completed_module(TM0, structure_constants(B))
    assert CM0.kind == "symbolic"
    assert CM0.group_string() == "(not stabilized)"
    assert "did not stabilize" in str(CM0)


class _Pair:
    """A stand-in twisted basis of two members."""

    names = ("W1", "W2")

    def __len__(self):
        return 2


def completion_inputs(name, pipeline, quaternion_setup):
    """(module, presentation, completed names) of one completion input."""
    if name in ("a4_sl23", "a4_sl23_explicit"):
        if name == "a4_sl23":
            job = pipeline("a4_sl23")
        else:
            with open(os.path.join(FIXTURES, "a4_sl23.names.json")) as fh:
                job = realize(parse_jobspec(A4_SL23_EXPLICIT), FIXTURES,
                              names=json.load(fh))
        return job.module, job.presentation, job.completed.names
    if name == "quaternion":
        FQ, FA4 = lifted_fusions(quaternion_setup[2])
        E, F, F_alpha = quaternion_setup[2], FA4, FQ
    elif name == "trivial_cocycle":
        F, E, F_alpha = trivial_cocycle_setup()
    else:
        # N = [[0, 1], [0, 0]]: the chain needs two steps to reach 0
        P = SimpleNamespace(names=("X1",), degrees=(3,))
        return TwistedModule(_Pair(), P.names, P.degrees,
                             [[[3, 1], [0, 3]]]), P, None
    B = irreducible_invariants(F)
    TB = twisted_invariant_basis(E, F_alpha, base=F)
    return module_structure(F, B, E, TB), structure_constants(B), None


@pytest.mark.parametrize("name, kind", [
    ("a4_sl23", "finite"), ("a4_sl23_explicit", "finite"),
    ("quaternion", "finite"), ("trivial_cocycle", "symbolic"),
    ("nilpotent_pair", "finite")])
def test_completed_module_matches_the_chain(pipeline, quaternion_setup,
                                            name, kind):
    """The nilpotency test reports what the chain I^k M reports: the same
    kind, shifted matrices, text and JSON."""
    TM, P, names = completion_inputs(name, pipeline, quaternion_setup)
    CM = completed_module(TM, P, names)
    want = chain_completed_module(TM, P, names)
    assert CM.kind == want.kind == kind
    assert CM.shifted == want.shifted
    assert str(CM) == str(want)
    assert CM.to_json() == want.to_json()


def test_basis_on_the_a_representations_matches_the_unit_rows(
        pipeline, quaternion_setup):
    """The Hilbert basis on the a-representation columns, embedded, is the
    one over all columns with the other columns forced to zero by unit
    rows, row for row in the canonical order (degree, row)."""
    job = pipeline("a4_sl23")
    FA4, EE, FA4_lift = trivial_cocycle_setup()
    FQ, FQA4 = lifted_fusions(quaternion_setup[2])
    for E, F_alpha, base, degrees in (
            (job.extension, job.fusion_alpha, job.fusion, (2,)),
            (EE, FA4_lift, FA4, (1, 3)),
            (quaternion_setup[2], FQ, FQA4, (2,))):
        TB = twisted_invariant_basis(E, F_alpha, base=base)
        assert TB.degrees == degrees
        degs = character_table(E.group).degrees()
        want = sorted(unit_row_twisted_hilbert(E, F_alpha), key=lambda v: (
            sum(m * d for m, d in zip(v, degs)), v))
        assert list(TB.mults) == want


def test_a4_sl23_fixture_pipeline(pipeline):
    P = pipeline("a4_sl23")
    E = P.extension
    assert E.group.order == 8
    TB = twisted_invariant_basis(E, P.fusion_alpha, base=P.fusion)
    assert TB.degrees == (2,)
    B = P.basis
    TM = module_structure(P.fusion, B, E, TB)
    assert TM.matrices == (((3,),),)
    CM = completed_module(TM, structure_constants(B))
    assert CM.group_string() == "Z"


def test_module_rejects_a_broken_ring_relation(pipeline, monkeypatch):
    """On a4_sl23 the generator X of degree 3 acts by (3), and X^2 = 2X + 3.
    One entry off by one breaks that relation."""
    P = pipeline("a4_sl23")
    E = P.extension
    TB = twisted_invariant_basis(E, P.fusion_alpha, base=P.fusion)
    real = twisted.action_matrices

    def perturbed(TB, coords):
        M = real(TB, coords)
        # the degree, the value at the identity, is 1 only for the unit
        for m, f in zip(M, coords):
            m[0][0] += f[0][0] != 1
        return M

    monkeypatch.setattr(twisted, "action_matrices", perturbed)
    with pytest.raises(FusionRepError, match="violate a ring relation"):
        module_structure(P.fusion, P.basis, E, TB)


def test_action_matrix_rejects_a_negative_coefficient(pipeline,
                                                      monkeypatch):
    """A solve that returns a negative coefficient is no module action."""
    P = pipeline("a4_sl23")
    E = P.extension
    TB = twisted_invariant_basis(E, P.fusion_alpha, base=P.fusion)

    class NegativeSpan:
        def solve(self, targets):
            return np.full((len(targets), 1), -1, dtype=object)

    monkeypatch.setitem(vars(TB), "span", NegativeSpan())
    with pytest.raises(DecompositionNotIntegral,
                       match="-1 is not a non-negative integer"):
        module_structure(P.fusion, P.basis, E, TB)


def _oracle_verdict(E, F_alpha, base):
    """The error class of the quotient oracle on a lift, or None."""
    try:
        quotient_match(E, quotient_fusion(F_alpha, E.A), base)
    except FusionRepError as ex:
        return type(ex)
    return None


def _lift_verdict(E, F_alpha, base):
    """The error class of the lift check on a lift, or None."""
    try:
        twisted._check_lift(E, F_alpha, base)
    except FusionRepError as ex:
        return type(ex)
    return None


def test_lift_check_agrees_with_the_quotient_oracle(pipeline,
                                                    quaternion_setup):
    """The projection check and the quotient oracle accept the same lifts
    and reject the same mutated ones: both compare the generated systems,
    not their generators.  A lift whose push-forward is not injective
    fails the quotient's make_hom, and the check rejects it."""
    P = pipeline("a4_sl23")
    _, _, EQ = quaternion_setup
    FQ, FA4 = lifted_fusions(EQ)
    Q8, V4 = EQ.group, EQ.base
    z, x, y = Q8.names["z"], Q8.names["x"], Q8.names["y"]
    xv, yv = V4.names["x"], V4.names["y"]
    # the inverse of the order-3 lift: it generates the same system
    back = make_hom(Q8.full_subgroup(), (z, Q8.mul(x, y), x))
    # swaps x and y: it fixes z and pushes forward to a transposition
    swap = make_hom(Q8.full_subgroup(), (z, y, x))
    # x -> x^-1, inner by y: it pushes forward to the identity of V4,
    # which is inner, so it lifts the trivial system
    inner = make_hom(Q8.full_subgroup(), (z, Q8.inv(x), y))
    trivial = build_fusion(V4, [])
    identity = build_fusion(V4, [make_hom(V4.full_subgroup(), (xv, yv))])
    E0 = central_extension(V4, trivial_cocycle(V4))
    G8 = E0.group
    z0, x0 = G8.names["z"], G8.names["x"]
    # x -> z on <x>: injective, fixes A (not in its domain), and pushes
    # forward to x -> 1
    collapse = make_hom(G8.subgroup((x0,)), (z0,))
    moves = make_hom(G8.full_subgroup(), (x0, z0, G8.names["y"]))
    cases = [
        ("a4_sl23", P.extension, P.fusion_alpha, P.fusion, None),
        ("q8 over v4", EQ, FQ, FA4, None),
        ("q8 over the trivial system", EQ, FQ, trivial, QuotientMismatch),
        ("inverse lift", EQ, build_fusion(Q8, [back]), FA4, None),
        ("swap lift", EQ, build_fusion(Q8, [swap]), FA4, QuotientMismatch),
        ("inner lift", EQ, build_fusion(Q8, [inner]), identity, None),
        ("inner lift over nothing", EQ, build_fusion(Q8, [inner]), trivial,
         None),
        ("inner lift over v4", EQ, build_fusion(Q8, [inner]), FA4,
         QuotientMismatch),
        ("moves A", E0, build_fusion(G8, [moves]), trivial,
         GeneratorMovesA),
    ]
    for label, E, F_alpha, base, want in cases:
        assert _oracle_verdict(E, F_alpha, base) is want, label
        assert _lift_verdict(E, F_alpha, base) is want, label
    collapsed = build_fusion(G8, [collapse])
    assert _oracle_verdict(E0, collapsed, trivial) is NotInjective
    assert _lift_verdict(E0, collapsed, trivial) is QuotientMismatch
    with pytest.raises(QuotientMismatch):
        twisted_invariant_basis(E0, collapsed, base=trivial)


def module_inputs(name, pipeline, quaternion_setup):
    """(base system, its invariant basis, extension, twisted basis) of a
    named twisted setup."""
    if name == "a4_sl23":
        job = pipeline("a4_sl23")
        return job.fusion, job.basis, job.extension, job.twisted_basis
    if name == "quaternion":
        E = quaternion_setup[2]
        F_alpha, F = lifted_fusions(E)
    else:
        F, E, F_alpha = trivial_cocycle_setup()
    return (F, irreducible_invariants(F), E,
            twisted_invariant_basis(E, F_alpha, base=F))


@pytest.mark.parametrize("name", ["a4_sl23", "quaternion", "trivial_cocycle"])
def test_action_matrices_match_the_pullback_oracle(pipeline, quaternion_setup,
                                                   name):
    """The module action through product_coefficients is the one that
    pullback_products, its own solve and its sign checks gave, and so is
    the structure tensor of R(F) that the module is checked against."""
    F, B, E, TB = module_inputs(name, pipeline, quaternion_setup)
    assert np.array_equal(np.array(structure_constants(B).ring.tensor),
                          structure_constants_oracle(B).ring.tensor)
    got = twisted.action_matrices(TB, B.coords)
    want = action_matrices_oracle(TB, B.coords)
    assert np.shape(got) == want.shape == (len(B), len(TB), len(TB))
    assert got == want.tolist()
    assert module_structure(F, B, E, TB).matrices == tuple(
        tuple(map(tuple, M)) for M in want[1:].tolist())


def test_product_coefficients_check_the_lifted_invariance():
    """A product with a twisted basis vector that is not constant on the
    classes of the lifted system is no element of the module: it is no
    integer combination of the twisted members, so the solve rejects it.
    The irreducibles of the extension group include such a factor."""
    F, E, F_alpha = trivial_cocycle_setup()
    TB = twisted_invariant_basis(E, F_alpha, base=F)
    with pytest.raises(DecompositionNotIntegral,
                       match="not an integer combination of the basis"):
        product_coefficients(character_table(E.group).coords, TB)
