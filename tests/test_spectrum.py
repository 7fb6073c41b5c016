import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (PrimeSymbol, berlekamp_factors, containments,
                     is_connected, monic_factors, polmod_divmod, polmod_mul,
                     symbol_leq, symbol_nodes)

from fusionrep.cli import main
from fusionrep.cyclotomic import cyclotomic_polynomial
from fusionrep.errors import FusionRepError
from fusionrep.fusion import build_fusion
from fusionrep.jobspec import parse_jobspec, realize
from fusionrep.permgroup import build_group, is_prime, make_hom
from fusionrep.spectrum import (CycPrime, _mult_order, _polmod_divmod,
                                _polmod_mul, _reduce_mod, format_poly,
                                prime_symbols, primes_above)

from conftest import FIXTURES, fixture_path

STEMS = tuple(sorted(f[:-4] for f in os.listdir(FIXTURES)
                     if f.endswith(".fus")))


def test_primes_above_small():
    assert [p.factor for p in primes_above(5, 4)] == [(2, 1), (3, 1)]
    ps = primes_above(3, 4)
    assert len(ps) == 1 and ps[0].factor == (1, 0, 1)
    ps = primes_above(7, 7)
    assert len(ps) == 1 and ps[0].factor == (6, 1)
    assert [p.factor for p in primes_above(2, 7)] \
        == [(1, 0, 1, 1), (1, 1, 0, 1)]
    for n in (1, 2):
        ps = primes_above(2, n)
        assert len(ps) == 1 and ps[0].factor == (1, 1)
    # inert case: order of 3 mod 7 is 6
    ps = primes_above(3, 7)
    assert len(ps) == 1 and len(ps[0].factor) == 7
    # split case: 29 = 1 mod 7
    ps = primes_above(29, 7)
    assert len(ps) == 6 and all(len(p.factor) == 2 for p in ps)


def test_primes_above_phi_343_mod_2():
    # 2 has order 147 mod 343, so Phi_343 mod 2 has two factors of
    # degree 147; far beyond the exhaustive search limit
    ps = primes_above(2, 343)
    assert len(ps) == 2
    assert all(len(p.factor) - 1 == 147 for p in ps)
    prod = _polmod_mul(ps[0].factor, ps[1].factor, 2)
    assert prod == _reduce_mod(cyclotomic_polynomial(343), 2)


def test_primes_above_at_q_10007():
    """The equal-degree splits by random draws give the factors that the
    search over every constant c in F_q gave."""
    assert [p.factor for p in primes_above(10007, 7)] == [
        (10006, 4953, 4954, 1), (10006, 5053, 5054, 1)]
    assert [p.factor for p in primes_above(10007, 9)] == [
        (1, 3381, 1), (1, 6842, 1), (1, 9791, 1)]
    assert [p.factor for p in primes_above(10007, 13)] == [
        (1, 4038, 2, 4037, 2, 4038, 1), (1, 5970, 2, 5969, 2, 5970, 1)]


@pytest.mark.parametrize("q", [1000003, 2 ** 31 + 11])
def test_large_primes_split_quickly(capsys, q):
    """A prime above 10^6, and one above 2^31, where a search over every
    constant in F_q would take hours; each factor of Phi_n mod q is monic
    of degree ord_n(q), and their product is Phi_n mod q."""
    start = time.perf_counter()
    code = main(["spectrum", fixture_path("sigma_7.fus"), "--primes", str(q)])
    assert code == 0 and time.perf_counter() - start < 1
    capsys.readouterr()
    for n in (7, 49, 343):
        factors = [p.factor for p in primes_above(q, n)]
        assert len(factors) > 1
        product = (1,)
        for f in factors:
            assert f[-1] == 1 and len(f) - 1 == _mult_order(q, n)
            product = _polmod_mul(product, f, q)
        assert product == _reduce_mod(cyclotomic_polynomial(n), q)


def test_cycprime_guards():
    with pytest.raises(FusionRepError):
        CycPrime(4, 5, (1, 1))


def test_poset_z2():
    Z2 = build_group(2, ["(1 2)"], names=["g"])
    F = build_fusion(Z2, [])
    pos = prime_symbols(F, [2])
    assert len(pos.nodes) == 3
    assert sum(prime.q is None for prime, _ in pos.nodes) == 2
    assert len(pos.edges) == 2
    assert pos.connected


def test_poset_z3_connectivity():
    Z3 = build_group(3, ["(1 2 3)"], names=["g"])
    F = build_fusion(Z3, [])
    pos2 = prime_symbols(F, [2])
    assert len(pos2.nodes) == 6 and not pos2.connected
    pos23 = prime_symbols(F, [2, 3])
    assert len(pos23.nodes) == 7 and pos23.connected
    dot = pos23.to_dot()
    assert dot.startswith("digraph spectrum {") and "n0" in dot
    j = pos23.to_json()
    assert j["connected"] and len(j["nodes"]) == 7


def test_poset_klein_four():
    V4 = build_group(4, ["(1 2)(3 4)", "(1 3)(2 4)"], names=["x", "y"])
    xi, yi = V4.names["x"], V4.names["y"]
    F = build_fusion(V4, [make_hom(V4.full_subgroup(),
                                   (yi, V4.mul(xi, yi)))])
    k = len(F.element_classes())
    assert k == 2
    pos = prime_symbols(F, [2, 3])
    # 2 zero symbols + collapsed over the defining prime 2 + one symbol
    # per class over the single prime above 3 in Z
    assert len(pos.nodes) == 5
    assert pos.connected
    assert sum(prime.q is None for prime, _ in pos.nodes) == k
    pos3 = prime_symbols(F, [3])
    assert not pos3.connected


def test_poset_onan(pipeline):
    P = pipeline("onan")
    F = P.fusion
    k = len(F.element_classes())
    assert k == 3
    pos = prime_symbols(F, [2, 7])
    assert len(pos.nodes) == 3 + 2 * 3 + 1
    assert pos.connected
    assert pos.conductor == 7
    assert not prime_symbols(F, [2]).connected


def test_conductor_order_mode():
    Z3 = build_group(3, ["(1 2 3)"], names=["g"])
    F = build_fusion(Z3, [])
    pos = prime_symbols(F, [3], conductor="order")
    assert pos.conductor == 3


def in_prime(coords, P: PrimeSymbol) -> bool:
    """Whether a class function, one coordinate row per class, lies in the
    prime: its value at the symbol's class, reduced in the residue field."""
    F = P.fusion
    value = coords[F.S.class_of()[min(F.element_classes()[P.fclass])]]
    if P.prime.q is None:
        return not value.any()
    q = P.prime.q
    return not _polmod_divmod(_reduce_mod(value.tolist(), q),
                              P.prime.factor, q)[1]


def test_residue_membership(pipeline):
    """chi - deg(chi) lies in the prime over 7 for every basis character
    of onan, and the trivial character does not."""
    P = pipeline("onan")
    F, S = P.fusion, P.group
    one = np.array(P.basis.coords[0])
    sym7 = PrimeSymbol(F, primes_above(7, 7)[0], 0)
    assert not in_prime(one, sym7)
    for coords, d in zip(np.array(P.basis.coords), P.basis.degrees):
        assert in_prime(coords - d * one, sym7)
    regular = 0 * one
    regular[S.class_of()[S.identity], 0] = S.order
    id_class = F.element_class_of()[S.identity]
    assert in_prime(regular - S.order * one,
                    PrimeSymbol(F, CycPrime(7), id_class))
    assert not in_prime(regular, PrimeSymbol(F, CycPrime(7), id_class))


def test_mult_order():
    assert [_mult_order(q, 1) for q in (2, 3, 7)] == [1, 1, 1]
    assert _mult_order(3, 7) == 6
    assert _mult_order(2, 343) == 147
    assert _mult_order(29, 7) == 1


def test_primes_above_matches_the_search():
    """The factors against the search over monic polynomials, for every
    prime q < 30 and conductor n < 40 prime to q, with a search of at
    most 3000 candidates."""
    checked = 0
    for q in filter(is_prime, range(2, 30)):
        for n in range(1, 40):
            if n % q == 0 or q ** _mult_order(q, n) > 3000:
                continue
            assert [p.factor for p in primes_above(q, n)] \
                == monic_factors(q, n), (q, n)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 19, 29, 10007, 1000003])
def test_primes_above_matches_berlekamp(q):
    """The lift and equal-degree split against Berlekamp's algorithm on
    Phi_n mod q, for prime powers n of 2, 3, 5 and 7 and composite n prime
    to q.  The grid holds Phi_16 mod 3, lifted from Phi_8 and not Phi_2,
    and (19, 49), where the least conductor is n itself."""
    for n in (8, 16, 32, 1024, 9, 27, 81, 25, 125, 49, 343, 12, 21, 45):
        if n % q:
            phi = _reduce_mod(cyclotomic_polynomial(n), q)
            assert [p.factor for p in primes_above(q, n)] \
                == berlekamp_factors(phi, q), (q, n)


@st.composite
def polynomials_mod_q(draw):
    """(a, b, q): reduced polynomials mod q, ascending, b monic and
    often sparse, q from 2 to above 2^32."""
    q = draw(st.sampled_from([2, 3, 19, 10007, 2 ** 32 + 15]))
    coeff = st.integers(0, q - 1)
    a = _reduce_mod(draw(st.lists(coeff, max_size=40)), q)
    low = draw(st.lists(st.sampled_from([0, 0, 1, q - 1]) | coeff,
                        max_size=20))
    return a, tuple(low) + (1,), q


@settings(max_examples=300, deadline=None)
@given(polynomials_mod_q())
def test_polmod_arithmetic_matches_the_schoolbook(case):
    """The Kronecker product and the sparse division give the schoolbook
    product and division, entries reduced and trimmed."""
    a, b, q = case
    assert _polmod_mul(a, b, q) == polmod_mul(a, b, q)
    assert _polmod_mul(b, a, q) == polmod_mul(a, b, q)
    assert _polmod_divmod(a, b, q) == polmod_divmod(a, b, q)


def test_symbol_order(pipeline):
    P = pipeline("onan")
    F = P.fusion
    zero_syms = [PrimeSymbol(F, CycPrime(7), x) for x in range(3)]
    p7 = primes_above(7, 7)[0]
    p2 = primes_above(2, 7)[0]
    sym7 = PrimeSymbol(F, p7, 0)
    s2 = PrimeSymbol(F, p2, 1)
    assert symbol_leq(zero_syms[1], s2)
    assert not symbol_leq(zero_syms[0], s2)
    assert all(symbol_leq(z, sym7) for z in zero_syms)
    assert not symbol_leq(s2, sym7)


def test_symbol_collapse_at_defining_prime(pipeline):
    P = pipeline("onan")
    F = P.fusion
    p7 = primes_above(7, 7)[0]
    assert PrimeSymbol(F, p7, 2) == PrimeSymbol(F, p7, 0)
    assert str(PrimeSymbol(F, p7, 0)).startswith("P[")


def test_format_poly():
    assert format_poly((1, 1, 0, 1)) == "t^3 + t + 1"


# the rational primes of the oracle cases: the prime of S first
PRIME_SETS = (None, (2,), (2, 3), (2, 3, 7), (5, 11))


@pytest.mark.parametrize("stem", STEMS + ("trivial",))
def test_prime_symbols_match_the_oracle(pipeline, stem):
    """The poset read off its construction has the nodes, in order, of the
    symbols that the pairwise search built, the containments that
    symbol_leq finds on every ordered pair, and the connectivity of
    union-find on them: on every fixture for the prime of S, 2, {2, 3},
    {2, 3, 7} and {5, 11}, and on the trivial group for 2, at both
    conductors."""
    if stem == "trivial":
        F = realize(parse_jobspec("[group]\ndegree = 1\nx = ()\n")).fusion
        prime_sets = ((2,),)
    else:
        F = pipeline(stem).fusion
        prime_sets = [ps or (F.p,) for ps in PRIME_SETS]
    for primes in prime_sets:
        for conductor in ("exponent", "order"):
            n = F.S.exponent() if conductor == "exponent" else F.S.order
            pos = prime_symbols(F, primes, conductor=conductor)
            assert pos.conductor == n
            symbols = symbol_nodes(F, primes, n)
            assert pos.labels() == [str(s) for s in symbols]
            assert [x for _, x in pos.nodes] == [s.fclass for s in symbols]
            assert list(pos.edges) == containments(symbols)
            assert pos.connected == is_connected(symbols, pos.edges)
