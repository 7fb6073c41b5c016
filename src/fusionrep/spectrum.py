"""Prime-ideal structure of invariant character rings.

The coefficient ring is Z[zeta_n] in the power basis used everywhere else.
Its prime ideals are handled Kummer-Dedekind style: the zero ideal, or a
pair (q, f) with q a rational prime and f a monic irreducible factor of the
n-th cyclotomic polynomial modulo q, found by Berlekamp's algorithm.

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
from .intlinalg import nullspace_mod
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
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _trim(out)


def _polmod_divmod(a, b, q):
    """Divide by a monic b; returns (quotient, remainder)."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    quo = [0] * max(da - db + 1, 0)
    while da >= db and any(a):
        lead = a[da] % q
        if lead:
            quo[da - db] = lead
            for j, bj in enumerate(b):
                a[da - db + j] = (a[da - db + j] - lead * bj) % q
        da -= 1
    return _trim(quo), _trim(a)


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


def _berlekamp_factors(f, q):
    """Distinct irreducible factors of a squarefree monic f mod q.

    Every v in the Berlekamp kernel {v : v^q = v mod f} is a constant mod
    each irreducible factor, and the kernel dimension is the number of
    factors.  Factors are split by gcds with splitting polynomials until
    there are that many: for q = 2, v - c for each basis vector v and
    c in {0, 1}; for odd q, v^((q-1)/2) - 1 for random combinations v of
    the basis from a fixed seed, which separates two factors whenever the
    constants of v there differ in being nonzero squares, with probability
    about 1/2 per v.  The factors come back sorted, so the draws do not
    show in the result.
    """
    n = len(f) - 1
    # Q matrix: row i = coefficients of x^(q i) mod f.  Row i + 1 is row i
    # times x^q: for q < n, row i shifted up by q with its q top
    # coefficients folded back by x^n = -(f - x^n), from the top down;
    # else the product with x^q mod f, which then costs less.
    low = [(j, c) for j, c in enumerate(f[:n]) if c]
    xq = _polmod_pow((0, 1), q, f, q) if q >= n else None
    rows = [[1] + [0] * (n - 1)]
    for _ in range(n - 1):
        if xq is None:
            row = [0] * q + rows[-1]
            for d in range(n + q - 1, n - 1, -1):
                c = row.pop()
                if c:
                    for j, fj in low:
                        row[d - n + j] = (row[d - n + j] - c * fj) % q
        else:
            row = list(_polmod_divmod(_polmod_mul(rows[-1], xq, q), f, q)[1])
            row += [0] * (n - len(row))
        rows.append(row)
    # nullspace of (Q - I)^T acting on coefficient vectors
    mat = [[(rows[j][i] - (1 if i == j else 0)) % q for j in range(n)]
           for i in range(n)]
    basis = nullspace_mod(mat, q)
    factors = [f]
    splitters = _splitters(basis, f, q)
    while len(factors) < len(basis):
        w = next(splitters)
        pieces = []
        for g in factors:
            d = _polmod_gcd(g, _polmod_divmod(w, g, q)[1], q)
            if 0 < len(d) - 1 < len(g) - 1:
                pieces += [d, _polmod_divmod(g, d, q)[0]]
            else:
                pieces.append(g)
        factors = pieces
    return sorted(_make_monic(g, q) for g in factors)


def _splitters(basis, f, q):
    """The splitting polynomials of _berlekamp_factors, mod f."""
    if q == 2:
        for v in basis:
            for c in range(q):
                yield _trim([(v[0] - c) % q] + v[1:])
        return
    rng = random.Random(0)
    while True:
        v = [0] * (len(f) - 1)
        for b in basis:
            k = rng.randrange(q)
            v = [(x + k * y) % q for x, y in zip(v, b)]
        w = _polmod_pow(_trim(v), (q - 1) // 2, f, q)
        yield _trim([(w[0] - 1) % q if w else q - 1] + list(w[1:]))


def primes_above(q: int, n: int) -> list:
    """All primes of Z[zeta_n] over the rational prime q, sorted.

    When q does not divide n every irreducible factor of Phi_n mod q has
    degree equal to the multiplicative order of q mod n, so Phi_n stays
    irreducible when that order is phi(n); otherwise a deterministic
    Berlekamp split gives the factors.  When q divides n the reduction
    Phi_n = Phi_m^e mod q (m the prime-to-q part) hands the problem to the
    smaller conductor.
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

    phi = _reduce_mod(cyclotomic_polynomial(n), q)
    d = _mult_order(q, n)
    count = (len(phi) - 1) // d
    if count == 1:
        return [CycPrime(n, q, phi)]
    return [CycPrime(n, q, f) for f in _berlekamp_factors(phi, q)]


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
