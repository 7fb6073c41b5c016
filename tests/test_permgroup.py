import os

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from oracles import (array_make_hom, array_orbits, array_walk, build_table,
                     built_from, cayley_table, centralizer,
                     check_linear_characters, closure, conj,
                     conjugacy_classes, core_p, coset_action,
                     element_classes, enumerate_subgroups,
                     linear_characters, make_hom_by_search, normalizer,
                     replay, search_table, small_fusions,
                     subgroup_group, validate)

from fusionrep import permgroup
from fusionrep.chartable import character_table
from fusionrep.errors import (EvenPrime, FusionRepError, InputError,
                              NotAHomomorphism,
                              NotAPermutation, NotAPrimePowerGroup,
                              NotInjective, OrderCapExceeded,
                              SubgroupEnumerationCapExceeded)
from fusionrep.fusion import DEFAULT_MORPHISM_CAP, build_fusion
from fusionrep.jobspec import load_jobspec, realize
from fusionrep.permgroup import (FiniteGroup, Subgroup, build_group, compose,
                                 extraspecial_p3, format_cycles, group_prime,
                                 invert, is_prime, make_hom, parse_cycles)

from conftest import FIXTURES


def test_parse_cycles():
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_cycles("()", 3) == (0, 1, 2)
    with pytest.raises(NotAPermutation):
        parse_cycles("(1 2", 2)
    with pytest.raises(NotAPermutation):
        parse_cycles("(1 1)", 2)
    with pytest.raises(NotAPermutation):
        parse_cycles("(1 5)", 4)


def test_format_cycles_roundtrip():
    p = parse_cycles("(1 3 2)(4 5)", 6)
    assert parse_cycles(format_cycles(p), 6) == p
    assert format_cycles((0, 1, 2)) == "()"


def test_klein_four():
    V4 = build_group(4, ["(1 2)(3 4)", "(1 3)(2 4)"], names=["x", "y"])
    assert V4.order == 4
    assert V4.identity == 0
    assert sorted(V4.element_orders()) == [1, 2, 2, 2]
    assert V4.name_of(V4.names["x"]) == "x"
    assert V4.describe_element(V4.identity) == "()"


def test_cyclic_nine():
    G = build_group(9, ["(1 2 3 4 5 6 7 8 9)"], names=["s"])
    assert G.order == 9
    assert G.exponent() == 9
    s = G.names["s"]
    assert G.power(s, 9) == G.identity
    assert G.power(s, -1) == G.inv(s)
    assert len(G.conjugacy_classes()) == 9


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_group(9, ["(1 2 3 4 5 6 7 8 9)"], cap=5)


def test_extraspecial_basics():
    for p in (3, 5, 7):
        S = extraspecial_p3(p)
        assert S.order == p ** 3
        assert S.exponent() == p
        Z = S.centralizer(S.full_subgroup())
        assert Z.order == p
        assert S.names["c"] in Z.members
        a, b, c = S.names["a"], S.names["b"], S.names["c"]
        # [a, b] = c is the defining relation
        comm = S.mul(S.mul(S.inv(a), S.inv(b)), S.mul(a, b))
        assert comm in (c, S.inv(c)) or comm in Z.members
        assert comm != S.identity
    with pytest.raises(EvenPrime):
        extraspecial_p3(2)


def test_extraspecial_structure():
    S = extraspecial_p3(7)
    assert len(S.conjugacy_classes()) == 55
    assert sum(1 for K in S.all_subgroups() if K.order == 49) == 8
    assert character_table(S).degrees().count(1) == 49  # so |S'| = 7
    Q, proj = coset_action(S, S.centralizer(S.full_subgroup()))
    assert Q.order == 49
    assert proj[S.identity] == Q.identity
    a, b = S.names["a"], S.names["b"]
    assert proj[S.mul(a, b)] == Q.mul(proj[a], proj[b])
    assert len(S.all_subgroups()) == 67


def test_sl2_f3_sylow_core():
    import itertools
    vecs = [v for v in itertools.product(range(3), repeat=2) if v != (0, 0)]
    vi = {v: i for i, v in enumerate(vecs)}

    def mat_perm(m):
        return tuple(vi[((m[0][0] * v[0] + m[0][1] * v[1]) % 3,
                         (m[1][0] * v[0] + m[1][1] * v[1]) % 3)]
                     for v in vecs)

    G = build_group(8, [mat_perm([[1, 1], [0, 1]]),
                        mat_perm([[0, -1], [1, 0]])])
    assert G.order == 24
    # O_2 is the normal quaternion Sylow 2-subgroup, O_3 is trivial
    assert len(core_p(G, 2)) == 8
    assert core_p(G, 3) == (G.identity,)


def test_make_hom_guards():
    Z3 = build_group(3, ["(1 2 3)"], names=["s"])
    s = Z3.names["s"]
    phi = make_hom(Z3.full_subgroup(), (Z3.power(s, 2),))
    assert phi.apply(s) == Z3.power(s, 2)
    assert phi.apply(Z3.identity) == Z3.identity
    with pytest.raises(NotAHomomorphism):
        Z2 = build_group(2, ["(1 2)"], names=["t"])
        make_hom(Z3.full_subgroup(), (Z2.names["t"],), codomain=Z2,
                 require_injective=False)
    with pytest.raises(NotInjective):
        make_hom(Z3.full_subgroup(), (Z3.identity,))


def test_subgroup_closure():
    S = extraspecial_p3(3)
    a, c = S.names["a"], S.names["c"]
    H = S.subgroup((a, c))
    assert H.order == 9
    assert H.contains(S.mul(a, c))
    assert not H.contains(S.names["b"])


CLOSURE_GROUPS = {
    "S4": ["(1 2)", "(1 2 3 4)"],
    "A5": ["(1 2 3)", "(1 2 3 4 5)"],
    "D8 x Z3": ["(1 2 3 4)", "(1 3)", "(5 6 7)"],
    "Sylow-3 of S9": ["(1 2 3)", "(1 4 7)(2 5 8)(3 6 9)"],
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CLOSURE_GROUPS)),
       st.lists(st.integers(0, 10 ** 6), max_size=4), st.booleans())
def test_closure_matches_the_oracle(name, picks, table):
    limit = permgroup._TABLE_LIMIT if table else 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permgroup, "_TABLE_LIMIT", limit)
        G = build_group(9, CLOSURE_GROUPS[name])
        picks = [i % G.order for i in picks]
        assert (G.table() is not None) == table
        assert G.closure(picks) == closure(G, picks)


def _assert_table_matches_the_oracles(G):
    """The rows are the tuple lookups and the numpy Cayley-graph table,
    as a tuple of int tuples."""
    want = build_table(G)
    assert np.array_equal(cayley_table(G), want)
    assert G.table() == tuple(map(tuple, want.tolist()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CLOSURE_GROUPS)),
       st.lists(st.integers(0, 10 ** 6), max_size=4))
def test_table_matches_the_oracle_on_random_generators(name, picks):
    G = build_group(9, CLOSURE_GROUPS[name])
    gens = tuple(G.elements[i % G.order] for i in picks)
    members = G.closure([i % G.order for i in picks])
    H = FiniteGroup(9, gens, tuple(G.elements[m] for m in members))
    _assert_table_matches_the_oracles(H)


STEMS = sorted(f[:-4] for f in os.listdir(FIXTURES) if f.endswith(".fus"))


@pytest.mark.parametrize("stem", STEMS)
def test_table_matches_the_oracle_on_every_fixture(pipeline, stem):
    _assert_table_matches_the_oracles(pipeline(stem).group)


def test_table_matches_the_oracle_on_derived_groups(pipeline):
    S = extraspecial_p3(5)
    A = S.subgroup((S.names["a"],))
    groups = [pipeline("a4_sl23").extension.group,
              build_group(1, []),
              subgroup_group(S.centralizer(A)),
              subgroup_group(S.normalizer(S.subgroup((S.names["c"],))))]
    assert [G.order for G in groups] == [8, 1, 25, 125]
    for G in groups:
        _assert_table_matches_the_oracles(G)


@pytest.mark.parametrize("all_members", [False, True])
def test_table_composes_few_tuples(monkeypatch, all_members):
    """|gens| * |G| compositions at most; with every member a generator,
    only the generators that enlarge the reached subgroup are composed,
    each by a factor of at least 7, so at most 3 on 7^{1+2}."""
    S = extraspecial_p3(7)
    G = FiniteGroup(S.degree, S.elements if all_members else S.gens,
                    S.elements)
    calls = []
    compose = permgroup.compose

    def counting_compose(p, q):
        calls.append((p, q))
        return compose(p, q)

    monkeypatch.setattr(permgroup, "compose", counting_compose)
    table = G.table()
    monkeypatch.undo()
    assert len(calls) <= (3 if all_members else len(G.gens)) * G.order
    assert table == tuple(map(tuple, build_table(G).tolist()))


def test_generators_that_miss_an_element_raise():
    S = extraspecial_p3(3)
    G = FiniteGroup(S.degree, S.gens[:1], S.elements)
    with pytest.raises(FusionRepError):
        G.table()


@pytest.mark.parametrize("n", [10 ** 18, -1, 0, 10 ** 6 + 5, "rv1"])
def test_power_reduces_the_exponent(n, monkeypatch):
    """x^n on Z/9; and, case rv1, the powers in a spec's words reduce by
    the order of x alone: realize plus the element classes on rv1 never
    compute the order of every element."""
    if n == "rv1":
        def element_orders(self):
            raise AssertionError("element_orders called")

        monkeypatch.setattr(FiniteGroup, "element_orders", element_orders)
        job = realize(load_jobspec(os.path.join(FIXTURES, "rv1.fus")),
                      FIXTURES)
        assert len(job.fusion.element_classes()) == 2
        return
    G = build_group(9, ["(1 2 3 4 5 6 7 8 9)"], names=["s"])
    s = G.names["s"]
    expected = G.identity
    for _ in range(n % 9):
        expected = G.mul(expected, s)
    assert G.power(s, n) == expected


# --- subgroups, normalizers and centralizers against the oracles -------------

SMALL_P_GROUPS = {  # name -> (degree, generators)
    "Q8": (8, ["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"]),
    "D8": (4, ["(1 2 3 4)", "(1 3)"]),
    "C3xC3": (6, ["(1 2 3)", "(4 5 6)"]),
    "C9xC3": (12, ["(1 2 3 4 5 6 7 8 9)", "(10 11 12)"]),
}
SYLOW_2_OF_S8 = build_group(8, ["(1 2)", "(1 3)(2 4)", "(1 5)(2 6)(3 7)(4 8)"])
SYLOW_3_OF_S9 = build_group(9, ["(1 2 3)", "(1 4 7)(2 5 8)(3 6 9)"])
EXTRASPECIAL_3 = build_group(9, ["(1 4 7)(2 5 8)(3 6 9)", "(1 2 3)(4 6 5)"])
_ORACLE_SUBGROUPS = {}  # element tuple -> the oracle's subgroups


def _p_group(name, pipeline):
    if name.startswith("extraspecial_"):
        return extraspecial_p3(int(name[-1]))
    if name in SMALL_P_GROUPS:
        return build_group(*SMALL_P_GROUPS[name])
    if name == "a4_sl23.extension":
        return pipeline("a4_sl23").extension.group
    return pipeline(name).fusion.S


def _assert_subgroups_match_the_oracle(G):
    if G.elements not in _ORACLE_SUBGROUPS:
        _ORACLE_SUBGROUPS[G.elements] = enumerate_subgroups(G, 10 ** 9)[0]
    want = _ORACLE_SUBGROUPS[G.elements]
    got = G.all_subgroups()
    assert [(K.order, K.members) for K in got] == [
        (K.order, K.members) for K in want]
    p = group_prime(G)
    for K in got:
        assert G.closure(K.gen_indices) == K.members
        assert p ** len(K.gen_indices) <= K.order


ORACLE_GROUPS = (["extraspecial_3", "extraspecial_5", "extraspecial_7"]
                 + sorted(SMALL_P_GROUPS) + STEMS + ["a4_sl23.extension"])


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_subgroups_match_the_oracle(pipeline, name):
    _assert_subgroups_match_the_oracle(_p_group(name, pipeline))


@st.composite
def random_p_groups(draw, larger=False):
    """Subgroups of order at most 32 of a Sylow 2-subgroup of S_8, or of a
    Sylow 3-subgroup of S_9 (order 81), on up to three random generators.
    With larger, half of them are subgroups of order 81 or 243 of
    3^{1+2} x 3^{1+2} on up to three generators; the series of most of these
    runs through a non-abelian proper normal subgroup with stable
    characters of degree 3."""
    if larger and draw(st.booleans()):
        # x y with x in the first factor, on the points 1-9, and y in the
        # second, on 10-18
        F = EXTRASPECIAL_3.elements
        pairs = draw(st.lists(st.tuples(st.integers(0, 26),
                                        st.integers(0, 26)),
                              min_size=1, max_size=3))
        G = build_group(18, [F[i] + tuple(9 + x for x in F[j])
                             for i, j in pairs])
        assume(81 <= G.order)
        return G
    P = draw(st.sampled_from([SYLOW_2_OF_S8, SYLOW_3_OF_S9]))
    picks = draw(st.lists(st.integers(0, P.order - 1), min_size=1,
                          max_size=3))
    G = build_group(P.degree, [P.elements[i] for i in picks])
    assume(G.order > 1 and (G.order <= 32 or P is SYLOW_3_OF_S9))
    return G


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(random_p_groups())
def test_subgroups_match_the_oracle_on_random_p_groups(G):
    _assert_subgroups_match_the_oracle(G)


def _assert_linear_characters_match_the_oracle(G):
    e = G.exponent()
    lin, pairs = {}, built_from(G)
    for K in G.all_subgroups():
        check_linear_characters(G, K, linear_characters(G, K, lin, e, pairs),
                                e)


@pytest.mark.parametrize("name", STEMS + ["a4_sl23.extension"])
def test_linear_characters_match_the_oracle(pipeline, name):
    _assert_linear_characters_match_the_oracle(_p_group(name, pipeline))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(random_p_groups())
def test_linear_characters_match_the_oracle_on_random_p_groups(G):
    _assert_linear_characters_match_the_oracle(G)


def _assert_table_matches_the_search(G):
    """The Clifford pass gives the rows that the subgroup search gives, on
    a copy of G with nothing cached."""
    fresh = [FiniteGroup(G.degree, G.gens, G.elements) for _ in range(2)]
    assert list(character_table(fresh[0]).coords) == search_table(fresh[1])


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_table_matches_the_search(pipeline, name):
    _assert_table_matches_the_search(_p_group(name, pipeline))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(random_p_groups(larger=True))
def test_table_matches_the_search_on_random_p_groups(G):
    _assert_table_matches_the_search(G)


def _assert_normalizers_and_centralizers_match_the_oracle(G):
    subs = G.all_subgroups()
    # a subgroup listed by all its members as well as by its generators
    subs += [Subgroup(G, K.members, K.members) for K in subs[-2:]]
    for K in subs:
        assert G.normalizer(K).members == normalizer(G, K).members
        assert G.centralizer(K).members == centralizer(G, K).members


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_normalizers_and_centralizers_match_the_oracle(pipeline, name):
    _assert_normalizers_and_centralizers_match_the_oracle(
        _p_group(name, pipeline))


@pytest.mark.parametrize("name", ["extraspecial_3", "Q8", "C9xC3"])
def test_subgroups_without_a_multiplication_table(pipeline, monkeypatch,
                                                  name):
    """The same subgroups, normalizers, centralizers, conjugacy classes and
    walks through mul, as on groups above _TABLE_LIMIT."""
    monkeypatch.setattr(permgroup, "_TABLE_LIMIT", 0)
    G = _p_group(name, pipeline)
    G = FiniteGroup(G.degree, G.gens, G.elements)  # no cached tables
    assert G.table() is None
    _assert_subgroups_match_the_oracle(G)
    _assert_normalizers_and_centralizers_match_the_oracle(G)
    _assert_classes_match_the_oracle(G)


@pytest.mark.parametrize("p, subgroups, candidates", [
    (3, 19, 33), (5, 39, 73), (7, 67, 129)])
def test_subgroup_candidates_on_extraspecial_groups(p, subgroups, candidates):
    """One candidate per new subgroup H<g> for each H, counted by the cap:
    p^2 + p + 1 of order p, p + 1 above the center and one above each
    other subgroup of order p, and one above each of order p^2."""
    S = extraspecial_p3(p)
    G = FiniteGroup(S.degree, S.gens, S.elements)
    assert len(G.all_subgroups(candidates)) == subgroups
    with pytest.raises(SubgroupEnumerationCapExceeded):
        G.all_subgroups(candidates - 1)  # cached
    with pytest.raises(SubgroupEnumerationCapExceeded):
        FiniteGroup(S.degree, S.gens, S.elements).all_subgroups(
            candidates - 1)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_subgroup_cap_counts_the_closures_built(pipeline, name):
    """For each H the enumeration builds each H<g> of order p|H| once and
    nothing else, so the cap counts the pairs H < K of the oracle's
    subgroups with [K : H] = p, also where g^p can fall outside H."""
    G = _p_group(name, pipeline)
    _assert_subgroups_match_the_oracle(G)
    subs = _ORACLE_SUBGROUPS[G.elements]
    p = group_prime(G)
    pairs = sum(1 for K in subs for H in subs if H.order * p == K.order
                and set(H.members) <= set(K.members))
    assert len(FiniteGroup(G.degree, G.gens, G.elements)
               .all_subgroups(pairs)) == len(subs)
    with pytest.raises(SubgroupEnumerationCapExceeded):
        FiniteGroup(G.degree, G.gens, G.elements).all_subgroups(pairs - 1)


def test_subgroups_of_a_group_that_is_not_a_p_group():
    S3 = build_group(3, ["(1 2 3)", "(1 2)"])
    with pytest.raises(NotAPrimePowerGroup):
        S3.all_subgroups()
    assert [K.members for K in build_group(1, []).all_subgroups()] == [(0,)]


# --- homomorphisms against the scalar search and the |H|^2 check -------------

HOM_GROUPS = ["Q8", "D8", "extraspecial_3", "C9xC3", "a4_sl23.extension"]


def _outcome(build):
    """The homomorphism's images, or the type and text of what it raised."""
    try:
        return build().images
    except FusionRepError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def generator_images(draw):
    """A group of HOM_GROUPS, a domain in it and one image per generator.

    The domain is the whole group or one of its subgroups, with its own
    generators or with random members as generators, which may miss some
    of its members.  The images are the conjugates of the generators by
    one element (an injection), random elements, or the identity."""
    pick = st.integers(0, 10 ** 6)
    return {"name": draw(st.sampled_from(HOM_GROUPS)),
            "domain": draw(st.sampled_from(["whole", "subgroup",
                                            "random generators"])),
            "images": draw(st.sampled_from(["conjugate", "random",
                                            "trivial"])),
            "seed": draw(pick),
            "generators": draw(st.lists(pick, min_size=1, max_size=3)),
            "random": draw(st.lists(pick, min_size=1, max_size=3)),
            "injective": draw(st.booleans())}


def _hom_input(G, case):
    if case["domain"] == "whole":
        D = G.full_subgroup()
    else:
        subs = G.all_subgroups()
        K = subs[case["seed"] % len(subs)]
        gens = K.gen_indices if case["domain"] == "subgroup" else tuple(
            K.members[i % K.order] for i in case["generators"])
        D = Subgroup(G, K.members, gens)
    n = len(D.gen_indices)
    if case["images"] == "conjugate":
        t = case["seed"] % G.order
        return D, tuple(conj(G, t, g) for g in D.gen_indices)
    if case["images"] == "random":
        picks = case["random"] * n
        return D, tuple(i % G.order for i in picks[:n])
    return D, (G.identity,) * n


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(generator_images())
def test_make_hom_matches_the_oracle(pipeline, case):
    G = _p_group(case["name"], pipeline)
    D, images = _hom_input(G, case)
    injective = case["injective"]
    want = _outcome(lambda: make_hom_by_search(D, images, G, injective))
    assert _outcome(lambda: array_make_hom(D, images, G, injective)) == want
    assert _outcome(lambda: make_hom(D, images, G, injective)) == want


def test_make_hom_proves_on_the_generators():
    """make_hom's check at the generators is a full proof: the map it
    builds passes the check over all member pairs."""
    S = extraspecial_p3(7)
    a, b = S.names["a"], S.names["b"]
    phi = make_hom(S.full_subgroup(), (b, a), S)
    assert (phi.apply(a), phi.apply(b)) == (b, a) and phi.is_injective()
    validate(phi)


def test_homs_without_a_multiplication_table(monkeypatch):
    """make_hom through mul, as on groups above _TABLE_LIMIT."""
    monkeypatch.setattr(permgroup, "_TABLE_LIMIT", 0)
    for p in (3, 5):
        S = extraspecial_p3(p)
        G = FiniteGroup(S.degree, S.gens, S.elements)  # no cached tables
        assert G.table() is None
        a, b = G.gen_indices
        D = G.full_subgroup()
        for images in [(b, a), (a, G.mul(a, b)), (a, a), (G.identity, b)]:
            want = _outcome(lambda: make_hom_by_search(D, images, G, False))
            assert _outcome(
                lambda: array_make_hom(D, images, G, False)) == want
            assert _outcome(lambda: make_hom(D, images, G, False)) == want


# --- the walk and the orbits against the scalar searches ---------------------

def _assert_walk_is_layered(G, gens):
    """The walk lists <gens> once each, layer by layer, every element
    reached from the layer before by the generator it records.  The
    layers are those of the walk on arrays, which kept one product per new
    element but not always the first."""
    reach, back, via, ends = walk = G.walk(gens)
    assert all(type(x) is list for x in walk)
    want, _, _, want_ends = array_walk(G, gens)
    assert ends == want_ends
    assert all(set(reach[lo:hi]) == set(want[lo:hi].tolist())
               for lo, hi in zip(ends, ends[1:]))
    assert sorted(reach) == list(closure(G, gens))
    assert reach[0] == G.identity and ends[:2] == [0, 1]
    assert ends[-1] == len(reach)
    for j in range(1, len(ends) - 1):
        lo, hi = ends[j], ends[j + 1]
        assert all(ends[j - 1] <= b < lo for b in back[lo:hi])
        for k in range(lo, hi):
            assert reach[k] == G.mul(reach[back[k]], gens[via[k]])


def _assert_classes_match_the_oracle(G):
    got = G.conjugacy_classes(), G.class_of()
    assert got == conjugacy_classes(G)
    orders = G.element_orders()
    assert got == array_orbits([np.array(m) for m in G.conjugation_maps()],
                                G.order, key=lambda c: (orders[c[0]], c[0]))
    for K in G.all_subgroups()[-3:]:
        _assert_walk_is_layered(G, K.gen_indices)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_classes_and_walks_match_the_oracle(pipeline, name):
    _assert_classes_match_the_oracle(_p_group(name, pipeline))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(random_p_groups())
def test_classes_and_walks_match_the_oracle_on_random_p_groups(G):
    _assert_classes_match_the_oracle(G)


@st.composite
def random_fusions(draw):
    """A fusion system on a random p-group G, generated by conjugations
    c_t: K -> G by elements t of the Sylow subgroup that G lies in, each
    on a subgroup K of G that t conjugates into G."""
    G = draw(random_p_groups())
    P = SYLOW_2_OF_S8 if G.degree == 8 else SYLOW_3_OF_S9
    subs = G.all_subgroups()
    homs = []
    pick = st.integers(0, 10 ** 6)
    for t, k in draw(st.lists(st.tuples(pick, pick), max_size=3)):
        t = P.elements[t % P.order]

        def moved(x):
            return G.index.get(compose(compose(t, G.elements[x]), invert(t)))

        fits = [K for K in subs if None not in map(moved, K.gen_indices)]
        K = fits[k % len(fits)]  # the trivial subgroup always fits
        homs.append(make_hom(K, tuple(map(moved, K.gen_indices)), G))
    return build_fusion(G, homs)


def _assert_fusion_matches_the_oracle(F):
    """Element classes as the scalar union-find and the orbits on arrays
    found them, and the values at every member of the closed morphisms out
    of a few subgroups, read off the walk (FusionSystem._values), as the
    replay of the recipe gave them."""
    got = F.element_classes(), F.element_class_of()
    assert got == element_classes(F)
    assert got == array_orbits([np.array(m) for m in F._step_maps()],
                                F.S.order)
    for P in [F.S.trivial_subgroup()] + F.S.all_subgroups()[-3:]:
        gens = F._sub_gens(P)
        states = F._hom_states(gens, DEFAULT_MORPHISM_CAP)
        assert (F._values(gens, P.members, states)
                == list(map(tuple, replay(F, gens, states).T.tolist())))


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_fusion_classes_and_replays_match_the_oracle(pipeline, name):
    if name in STEMS:
        F = pipeline(name).fusion
    else:
        F = build_fusion(_p_group(name, pipeline), [])
    _assert_fusion_matches_the_oracle(F)


def test_small_fusions_match_the_oracle():
    for F in small_fusions():
        _assert_classes_match_the_oracle(F.S)
        _assert_fusion_matches_the_oracle(F)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(random_fusions())
def test_fusions_match_the_oracle_on_random_p_groups(F):
    _assert_fusion_matches_the_oracle(F)


def _prime_by_trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10 ** 5)
            if is_prime(n) != _prime_by_trial_division(n)] == []


def test_is_prime_on_pseudoprimes_and_large_primes():
    """561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    the bases 2, 3, 5 and 7, and 3825123056546413051 to every prime base
    up to 23.  2^61 - 1 is a Mersenne prime."""
    for n in (561, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


def test_is_prime_refuses_past_the_proven_bound():
    """Miller-Rabin to the bases up to 41 is proven below
    3,317,044,064,679,887,385,961,981; from there on is_prime answers
    with an InputError, the Mersenne prime 2^89 - 1 included."""
    assert not is_prime(3_317_044_064_679_887_385_961_979)
    for n in (3_317_044_064_679_887_385_961_981, 2 ** 89 - 1):
        with pytest.raises(InputError, match="cannot be certified"):
            is_prime(n)
