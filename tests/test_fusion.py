import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import (ExhaustiveSaturation, conj, is_centric, is_radical,
                     quotient_fusion)

from conftest import FIXTURES, fixture_path

from fusionrep import permgroup
from fusionrep.errors import (FusionRepError, MorphismCapExceeded,
                              NotCentral, SubgroupEnumerationCapExceeded)
from fusionrep.fusion import DEFAULT_MORPHISM_CAP, FusionSystem, build_fusion
from fusionrep.jobspec import load_jobspec, parse_jobspec, realize
from fusionrep.permgroup import build_group, extraspecial_p3, make_hom


def sigma3():
    Z3 = build_group(3, ["(1 2 3)"], names=["s"])
    s = Z3.names["s"]
    return Z3, build_fusion(Z3, [make_hom(Z3.full_subgroup(),
                                          (Z3.power(s, 2),))])


def a4_fusion():
    V4 = build_group(4, ["(1 2)(3 4)", "(1 3)(2 4)"], names=["x", "y"])
    x, y = V4.names["x"], V4.names["y"]
    rot = make_hom(V4.full_subgroup(), (y, V4.mul(x, y)))
    return V4, build_fusion(V4, [rot])


def test_sigma3_classes():
    Z3, F = sigma3()
    assert F.element_classes() == ((0,), (1, 2))
    assert F.check_saturation().ok


def test_trivial_fusion_is_conjugation():
    S = extraspecial_p3(3)
    F = build_fusion(S, [])
    assert F.element_classes() == tuple(
        sorted(S.conjugacy_classes(), key=lambda c: c[0]))
    Z = S.centralizer(S.full_subgroup())
    assert (ExhaustiveSaturation(F).aut_count(S.full_subgroup())
            == S.order // Z.order)
    # the F-classes of subgroups are the S-conjugacy classes
    for cls in F.subgroup_classes(S.all_subgroups()):
        assert set(cls) == {tuple(sorted(conj(S, g, x) for x in cls[0]))
                            for g in range(S.order)}


def test_a4_fusion():
    V4, F = a4_fusion()
    cls = F.element_classes()
    assert len(cls) == 2 and len(cls[1]) == 3
    assert [len(c) for c in F.subgroup_classes(V4.all_subgroups())] \
        == [1, 3, 1]
    assert ExhaustiveSaturation(F).aut_count(V4.full_subgroup()) == 3
    assert is_centric(F, V4.full_subgroup())
    assert not is_centric(F, V4.subgroup((V4.names["x"],)))
    assert is_radical(F, V4.full_subgroup())
    rep = F.check_saturation()
    assert rep.ok, rep.violations


def axiom_one_system():
    Z9 = build_group(9, ["(1 2 3 4 5 6 7 8 9)"], names=["s"])
    s = Z9.names["s"]
    return build_fusion(Z9, [make_hom(Z9.full_subgroup(), (Z9.power(s, 4),))])


def axiom_two_system():
    P2 = build_group(6, ["(1 2 3)", "(4 5 6)"], names=["x", "y"])
    assert P2.order == 9
    x = P2.names["x"]
    L = P2.subgroup((x,))
    return build_fusion(P2, [make_hom(L, (P2.power(x, 2),))])


def test_unsaturated_axiom_one():
    rep = axiom_one_system().check_saturation()
    assert not rep.ok
    assert len(rep.violations) == 1 and "axiom I" in rep.violations[0]


def test_unsaturated_axiom_two():
    rep = axiom_two_system().check_saturation()
    assert not rep.ok
    assert any("axiom II" in v for v in rep.violations)


# the shapes of the saturation125 benchmark inputs on 5^{1+2}, as gl2 lines
GL2_5 = {
    "q8_5": (((2, 0), (0, 3)), ((0, 1), (4, 0))),
    "c4c4_5": (((2, 0), (0, 1)), ((1, 0), (0, 2))),
    "u5_5": (((1, 1), (0, 1)),),
}


@pytest.mark.parametrize("stem", ["sigma_3", "sigma_5", "sigma_7", "a4",
                                  "a4_sl23", *GL2_5])
def test_saturation_matches_the_exhaustive_oracle(pipeline, stem):
    """On the small fixtures and on the three 5^{1+2} systems of the
    saturation125 benchmark: Q8, diagonal C4 x C4 and unipotent C5."""
    F = (realize(parse_jobspec(gl2_spec(5, GL2_5[stem]))).fusion
         if stem in GL2_5 else pipeline(stem).fusion)
    assert (F.check_saturation().to_json()
            == ExhaustiveSaturation(F).check_saturation().to_json())


@pytest.mark.parametrize("system", [axiom_one_system, axiom_two_system])
def test_unsaturated_systems_match_the_exhaustive_oracle(system, monkeypatch):
    F = system()
    want = ExhaustiveSaturation(F).check_saturation().to_json()
    assert F.check_saturation().to_json() == want
    # the same check through mul, as on groups without a table
    monkeypatch.setattr(permgroup, "_TABLE_LIMIT", 0)
    assert system().check_saturation().to_json() == want


def gl2_spec(p: int, matrices) -> str:
    """F_S(S x| H) on S = p^{1+2}, H generated by matrices acting on
    S/Z(S) = F_p^2."""
    lines = ["[group]", "constructor = extraspecial_p3", f"p = {p}", "",
             "[fusion]"]
    lines += [f"gl2 = [[{a}, {b}], [{c}, {d}]]" for (a, b), (c, d) in matrices]
    return "\n".join(lines) + "\n"


def gl2_matrices(p):
    row = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    return st.tuples(row, row).filter(
        lambda m: (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(gl2_matrices(3), max_size=3))
def test_saturation_matches_the_oracle_on_random_3_systems(matrices):
    F = realize(parse_jobspec(gl2_spec(3, matrices))).fusion
    assert (F.check_saturation().to_json()
            == ExhaustiveSaturation(F).check_saturation().to_json())


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(0, 10 ** 6),
                          st.lists(st.integers(0, 26), min_size=3,
                                   max_size=3)), min_size=1, max_size=3))
def test_saturation_matches_the_oracle_on_random_maps(picks):
    """Systems on 3^{1+2} generated by maps between subgroups with random
    generator images, kept where make_hom proves them: most fail axiom II
    at subgroups P with N_S(P) > C_S(P), where N_phi is a proper union of
    cosets of C_S(P)."""
    S = extraspecial_p3(3)
    subs = S.all_subgroups()
    homs = []
    for k, images in picks:
        K = subs[1 + k % (len(subs) - 1)]
        try:
            homs.append(make_hom(K, images[:len(K.gen_indices)]))
        except FusionRepError:
            pass
    F = build_fusion(S, homs)
    assert (F.check_saturation().to_json()
            == ExhaustiveSaturation(F).check_saturation().to_json())


def assert_subgroup_classes_match_the_oracle(F):
    """subgroup_classes gives the oracle's classes in the oracle's order,
    and each closure out of P holds |Aut_F(P)| morphisms onto each
    F-conjugate of P."""
    subs = sorted(F.S.all_subgroups(), key=lambda q: q.members)
    oracle = ExhaustiveSaturation(F)
    want, seen = [], set()
    for sub in subs:
        if sub.members not in seen:
            want.append(oracle.subgroup_class(sub))
            seen.update(want[-1])
    classes = F.subgroup_classes(subs)
    assert classes == tuple(want)
    size = {mem: len(cls) for cls in classes for mem in cls}
    for sub in subs:
        closed = F._hom_states(F._sub_gens(sub), DEFAULT_MORPHISM_CAP)
        assert len(closed) // size[sub.members] == oracle.aut_count(sub)


@pytest.mark.parametrize("stem", ["sigma_3", "sigma_5", "sigma_7", "a4",
                                  "a4_sl23", "onan", "he"])
def test_subgroup_classes_match_the_oracle(pipeline, stem):
    assert_subgroup_classes_match_the_oracle(pipeline(stem).fusion)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(gl2_matrices(3), max_size=3))
def test_subgroup_classes_match_the_oracle_on_random_3_systems(matrices):
    F = realize(parse_jobspec(gl2_spec(3, matrices))).fusion
    assert_subgroup_classes_match_the_oracle(F)


def test_cached_subgroups_honour_a_smaller_cap():
    S = extraspecial_p3(5)
    S.all_subgroups()  # cached for every later job on 5^{1+2}
    job = realize(parse_jobspec(gl2_spec(5, [((1, 1), (0, 1))])),
                  caps={"subgroups": 5})
    with pytest.raises(SubgroupEnumerationCapExceeded):
        job.saturation()
    G = build_group(6, ["(1 2 3)", "(4 5 6)"])
    assert len(G.all_subgroups()) == 6
    with pytest.raises(SubgroupEnumerationCapExceeded):
        G.all_subgroups(5)


def test_cached_morphisms_honour_a_smaller_cap():
    V4, F = a4_fusion()
    gens = F._sub_gens(V4.full_subgroup())
    with pytest.raises(MorphismCapExceeded):
        F._hom_states(gens, 2)
    assert len(F._hom_states(gens, DEFAULT_MORPHISM_CAP)) == 3
    with pytest.raises(MorphismCapExceeded):
        F._hom_states(gens, 2)


@pytest.mark.slow
@pytest.mark.parametrize("stem", [
    "rv1", "rv2",
    pytest.param("rv3", marks=pytest.mark.xfail(strict=True, reason=(
        "the bundled rv3 fails axiom II at 2,688 morphisms (CHANGES.md, "
        "FOUND: the bundled rv3 fixture is not saturated)"))),
])
def test_exotic_systems_are_saturated(pipeline, stem):
    report = pipeline(stem).fusion.check_saturation()
    assert report.ok, report.violations[:3]


def test_saturation_replays_each_generator_set_once(monkeypatch):
    """On a4 the check closes 12 morphisms: 9 between the three subgroups
    P of order 2 and the 3 automorphisms of V4 = N_S(V4).  Each P has V4
    = C_S(P) as N_phi for all three of its morphisms, so no morphism out
    of P is replayed for N_phi, and _ext_index replays the morphisms out
    of V4 once for each (N_phi generators, P generators) pair."""
    job = realize(load_jobspec(fixture_path("a4.fus")), FIXTURES)
    calls = []
    real = FusionSystem._values

    def counted(self, gens, xs, states):
        calls.append((gens, tuple(xs)))
        return real(self, gens, xs, states)

    monkeypatch.setattr(FusionSystem, "_values", counted)
    report = job.fusion.check_saturation()
    assert report.ok and report.morphisms_checked == 12
    assert len(calls) == len(set(calls)) == 3


def test_saturation_cap():
    """The check has no order cap: on 7^{1+2} it runs until the morphism
    cap stops it."""
    F = build_fusion(extraspecial_p3(7), [])
    with pytest.raises(MorphismCapExceeded):
        F.check_saturation(cap=10)


def test_quotient_fusion():
    Q8 = build_group(8, ["(1 2 4 7)(3 6 8 5)", "(1 3 4 8)(2 5 7 6)"],
                     names=["i", "j"])
    i, j = Q8.names["i"], Q8.names["j"]
    tau = make_hom(Q8.full_subgroup(), (j, Q8.mul(i, j)))
    F = build_fusion(Q8, [tau])
    assert len(F.element_classes()) == 3
    A = Q8.centralizer(Q8.full_subgroup())
    assert A.order == 2
    Fq = quotient_fusion(F, A)
    cls = Fq.element_classes()
    assert len(cls) == 2 and len(cls[1]) == 3
    assert Fq.check_saturation().ok
    assert F.check_saturation().ok
    # projection maps Q8 onto the quotient
    assert len(Fq.projection) == Q8.order
    assert Fq.projection[Q8.identity] == Fq.S.identity
    with pytest.raises(NotCentral):
        quotient_fusion(F, Q8.subgroup((i,)))


def test_onan_element_classes(pipeline):
    P = pipeline("onan")
    F, S = P.fusion, P.group
    cls = F.element_classes()
    sizes = tuple(len(c) for c in cls)
    assert sizes == (1, 174, 168)
    a, b, c = S.names["a"], S.names["b"], S.names["c"]
    k = F.element_class_of()
    ab = S.mul(a, b)
    ab2 = S.mul(a, S.power(b, 2))
    assert k[c] == k[b] == k[a] == k[ab] == 1
    assert k[ab2] == 2


def test_onan_subgroup_classes(pipeline):
    P = pipeline("onan")
    F, S = P.fusion, P.group
    A0 = P.subgroups["A0"]
    A1 = P.subgroups["A1"]
    classes = F.subgroup_classes(S.all_subgroups())
    for A in (A0, A1):
        assert [len(c) for c in classes if A.members in c] == [2]
    assert ExhaustiveSaturation(F).aut_count(A0) == 672
    assert is_centric(F, A0) and is_radical(F, A0)
    assert is_centric(F, S.full_subgroup())
    assert not is_centric(F, S.centralizer(S.full_subgroup()))


def test_fusion_stores_generators():
    V4, F = a4_fusion()
    assert len(F.generators) == 1
    Z3, F3 = sigma3()
    assert len(F3.generators) == 1
