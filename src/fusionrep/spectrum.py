"""Prime-ideal structure of invariant character rings.

The coefficient ring is Z[zeta_n] in the power basis used everywhere else.
Its prime ideals are handled Kummer-Dedekind style: the zero ideal, or a
pair (q, f) with q a rational prime and f a monic irreducible factor of the
n-th cyclotomic polynomial modulo q.  For q prime to n the factors are
lifted, as g(x^(n/m)), from the factors g of Phi_m for the least conductor
m that allows it, and those are found by equal-degree splitting.

A prime of the invariant ring is a pair (coefficient prime, F-class).
Over the defining prime p of S every class collapses to the class of the
identity, so the poset is read off its construction: each prime above p
lies over every minimal prime, which is what makes the spectrum
connected once p is listed.
"""

from __future__ import annotations

import random

from .cyclotomic import cyclotomic_polynomial
from .errors import FusionRepError, InputError
from .fusion import FusionSystem
from .permgroup import is_prime

# an element of F_q[x] is a tuple of ints in [0, q), ascending degree,
# normalized so the leading entry is nonzero


def _trim(poly):
    k = len(poly)
    while k > 0 and poly[k - 1] == 0:
        k -= 1
    return tuple(poly[:k])


def _reduce_mod(coeffs, q):
    return _trim([c % q for c in coeffs])


def _polmod_mul(a, b, q):
    """The product mod q, by Kronecker substitution: a polynomial packs
    into one integer, w bytes a coefficient, wide enough for every
    coefficient of the product, so one integer product does the work."""
    if not a or not b:
        return ()
    w = (min(len(a), len(b)) * (q - 1) ** 2).bit_length() // 8 + 1

    def pack(p):
        return int.from_bytes(
            b"".join((c % q).to_bytes(w, "little") for c in p), "little")
    out = (pack(a) * pack(b)).to_bytes(w * (len(a) + len(b) - 1), "little")
    return _trim([int.from_bytes(out[i:i + w], "little") % q
                  for i in range(0, len(out), w)])


def _polmod_divmod(a, b, q):
    """Divide by a monic b; returns (quotient, remainder).  Only the
    nonzero lower coefficients of b are subtracted, and the entries of a
    are reduced mod q when they are read, so sparse b costs little."""
    a = list(a)
    db = len(b) - 1
    low = [(j, c) for j, c in enumerate(b[:db]) if c]
    quo = [0] * max(len(a) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        lead = quo[k] = a[k + db] % q
        if lead:
            for j, c in low:
                a[k + j] -= lead * c
    return _trim(quo), _reduce_mod(a[:db], q)


def _polmod_pow(a, e, modulus, q):
    """a^e mod (modulus, q) by square and multiply."""
    result = (1,)
    base = _polmod_divmod(a, modulus, q)[1]
    while e:
        if e & 1:
            result = _polmod_divmod(_polmod_mul(result, base, q), modulus, q)[1]
        base = _polmod_divmod(_polmod_mul(base, base, q), modulus, q)[1]
        e >>= 1
    return result


def _polmod_gcd(a, b, q):
    while b:
        a, b = b, _polmod_divmod(a, _make_monic(b, q), q)[1]
    return _make_monic(a, q)


def _make_monic(a, q):
    a = _trim(a)
    if not a:
        return ()
    inv = pow(a[-1], -1, q)
    return tuple((c * inv) % q for c in a)


def _mult_order(q: int, n: int) -> int:
    """The order of q in (Z/n)^*, for q prime to n; it is 1 for n = 1."""
    v, k = q % n, 1
    while v != 1 % n:
        v = (v * q) % n
        k += 1
    return k


def format_poly(poly) -> str:
    """Human form of an ascending coefficient tuple, e.g. t^3 + t + 1."""
    if not _trim(poly):
        return "0"
    parts = []
    for d in range(len(poly) - 1, -1, -1):
        c = poly[d]
        if c == 0:
            continue
        if d == 0:
            mono = str(c)
        else:
            v = "t" if d == 1 else f"t^{d}"
            mono = v if c == 1 else f"{c}{v}"
        parts.append(mono)
    return " + ".join(parts)


class CycPrime:
    """A prime of Z[zeta_n]: the zero ideal or (q, irreducible factor)."""

    __slots__ = ("q", "factor")

    def __init__(self, conductor: int, q=None, factor=None):
        if (q is None) != (factor is None):
            raise InputError("a nonzero prime needs both q and a factor")
        if q is not None:
            if not is_prime(q):
                raise InputError(f"{q} is not prime")
            factor = _reduce_mod(factor, q)
            if not factor or factor[-1] != 1:
                raise InputError("factor must be monic mod q")
            phi = _reduce_mod(cyclotomic_polynomial(conductor), q)
            if _polmod_divmod(phi, factor, q)[1]:
                raise FusionRepError(
                    "polynomial does not divide the cyclotomic polynomial "
                    f"of conductor {conductor} mod {q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "factor", factor)

    def __setattr__(self, *a):
        raise AttributeError("CycPrime is immutable")

    def __str__(self):
        if self.q is None:
            return "(0)"
        return f"({self.q}, {format_poly(self.factor)})"

    def to_json(self) -> dict:
        if self.q is None:
            return {"zero": True}
        return {"zero": False, "q": self.q, "factor": list(self.factor)}


def _equal_degree_factors(f, d, q):
    """The irreducible factors of a squarefree monic f mod q, q prime,
    all of whose irreducible factors have degree d (Cantor and Zassenhaus).

    For a drawn mod f from a fixed seed, w = a^((q^d - 1)/2) - 1 for odd q,
    or the trace a + a^2 + ... + a^(2^(d-1)) for q = 2, is a constant mod
    each irreducible factor: for odd q it is 0 exactly where a is a nonzero
    square, for q = 2 it is 0 or 1 alike.  So gcd(g, w) separates any two
    factors of a factor g of f with probability about 1/2 per draw.  Each
    w is taken mod f, which is sparse for a cyclotomic f, and splits every
    factor found so far.
    """
    rng = random.Random(0)
    factors = [f]
    while len(factors) < (len(f) - 1) // d:
        a = [rng.randrange(q) for _ in range(len(f) - 1)]
        if q == 2:
            w, t = a[:], a
            for _ in range(d - 1):
                t = _polmod_divmod(_polmod_mul(t, t, q), f, q)[1]
                for i, c in enumerate(t):
                    w[i] ^= c
        else:
            w = list(_polmod_pow(a, (q ** d - 1) // 2, f, q)) or [0]
            w[0] = (w[0] - 1) % q
        pieces = []
        for g in factors:
            h = g
            if len(g) - 1 > d:
                h = _polmod_gcd(g, _polmod_divmod(w, g, q)[1], q)
            if 0 < len(h) - 1 < len(g) - 1:
                pieces += [h, _polmod_divmod(g, h, q)[0]]
            else:
                pieces.append(g)
        factors = pieces
    return factors


def primes_above(q: int, n: int) -> list:
    """All primes of Z[zeta_n] over the rational prime q, sorted.

    When q divides n the reduction Phi_n = Phi_m^e mod q (m the prime-to-q
    part) hands the problem to the smaller conductor.  Otherwise every
    irreducible factor of Phi_n mod q has degree d = ord_n(q).  Take the
    least m dividing n with the prime divisors of n and d = (n/m) ord_m(q):
    then Phi_n(x) = Phi_m(x^(n/m)), and each irreducible factor g of Phi_m
    mod q gives the factor g(x^(n/m)) of Phi_n, of degree d.  The factors
    of Phi_m, all of degree ord_m(q), come from an equal-degree split.
    """
    if not is_prime(q):
        raise InputError(f"{q} is not prime")
    if n < 1:
        raise InputError("conductor must be >= 1")
    m = n
    while m % q == 0:
        m //= q
    if m == 1:
        return [CycPrime(n, q, ((-1) % q, 1))]
    if m != n:
        return [CycPrime(n, q, p.factor) for p in primes_above(q, m)]

    d = _mult_order(q, n)
    # m | n has every prime of n exactly when n divides m^(log2 n)
    m = next(m for m in range(2, n + 1)
             if n % m == 0 and pow(m, n.bit_length(), n) == 0
             and n // m * _mult_order(q, m) == d)
    k = n // m
    lifted = []
    for g in _equal_degree_factors(
            _reduce_mod(cyclotomic_polynomial(m), q), d // k, q):
        f = [0] * (d + 1)
        f[::k] = g
        lifted.append(tuple(f))
    return [CycPrime(n, q, f) for f in sorted(lifted)]


class SpectrumPoset:
    """The primes of the invariant ring, as (coefficient prime, F-class)
    pairs, with their strict containments (i, j), nodes[i] below nodes[j];
    the height is at most one."""

    def __init__(self, conductor: int, nodes, edges, connected: bool):
        self.conductor = conductor
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.connected = connected

    def labels(self) -> list:
        return [f"P[{prime}, class {x}]" for prime, x in self.nodes]

    def to_dot(self) -> str:
        lines = ["digraph spectrum {", "  rankdir=BT;"]
        for i, label in enumerate(self.labels()):
            shape = "ellipse" if self.nodes[i][0].q is None else "box"
            lines.append(f'  n{i} [label="{label}", shape={shape}];')
        for i, j in self.edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "nodes": [{"prime": prime.to_json(), "class": x}
                      for prime, x in self.nodes],
            "edges": [list(e) for e in self.edges],
            "connected": self.connected,
        }


def prime_symbols(F: FusionSystem, primes, conductor: str = "exponent"
                  ) -> SpectrumPoset:
    """The poset of invariant-ring primes over the zero ideal and the
    listed rational primes.

    conductor picks the cyclotomic coefficient ring: "exponent" (default)
    uses exp(S), "order" forces |S|.  The minimal primes are (0, x), one
    per F-class x.  Over a rational prime q other than p there is one
    prime (P, x) for each prime P of Z[zeta_n] above q and each class x,
    and it contains (0, x) alone.  Over p every class collapses to the
    class of the identity, so each prime above p contains every minimal
    prime, and the spectrum is connected exactly when p is listed or
    there is one class.
    """
    if conductor == "exponent":
        n = F.S.exponent()
    elif conductor == "order":
        n = F.S.order
    else:
        raise InputError("conductor must be 'exponent' or 'order'")
    k = len(F.element_classes())
    one = F.element_class_of()[F.S.identity]
    qs = sorted(set(int(v) for v in primes))
    nodes = [(CycPrime(n), x) for x in range(k)]
    for q in qs:
        for P in primes_above(q, n):
            if q == F.p:
                nodes.append((P, one))
            else:
                nodes.extend((P, x) for x in range(k))
    edges = [(x, j) for x in range(k) for j in range(k, len(nodes))
             if nodes[j][0].q == F.p or nodes[j][1] == x]
    return SpectrumPoset(n, nodes, edges, k == 1 or F.p in qs)
