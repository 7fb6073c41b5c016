"""Prime-ideal structure of invariant character rings.

The coefficient ring is Z[zeta_n] in the power basis used everywhere else.
Its prime ideals are handled Kummer-Dedekind style: the zero ideal, or a
pair (q, f) with q a rational prime and f a monic irreducible factor of the
n-th cyclotomic polynomial modulo q.  Membership questions never need ideal
arithmetic, only evaluation in the finite residue field F_q[t]/(f).

Primes of the invariant ring itself are symbols (prime, F-class index).
At the defining prime of S all classes collapse to the class of the
identity, which is what makes the spectrum connected.
"""

from __future__ import annotations

from .cyclotomic import cyclotomic_polynomial
from .errors import ConductorMismatch, FusionRepError, InputError
from .fusion import FusionSystem
from .intlinalg import is_prime, nullspace_mod

# polynomials over F_q are tuples of ints in [0, q), ascending degree,
# normalized so the leading entry is nonzero

EXHAUSTIVE_SEARCH_LIMIT = 200_000


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


def _polmod_pow_x(e, modulus, q):
    """x^e mod (modulus, q) by square and multiply."""
    result = (1,)
    base = _polmod_divmod((0, 1), modulus, q)[1] if len(modulus) <= 2 else (0, 1)
    while e:
        if e & 1:
            result = _polmod_divmod(_polmod_mul(result, base, q), modulus, q)[1]
        base = _polmod_divmod(_polmod_mul(base, base, q), modulus, q)[1]
        e >>= 1
    return result


def _polmod_gcd(a, b, q):
    while b:
        a, b = b, _polmod_divmod(_make_monic(a, q), _make_monic(b, q), q)[1]
        # remainder of non-monic divisor: normalize first
    return _make_monic(a, q)


def _make_monic(a, q):
    a = _trim(a)
    if not a:
        return ()
    inv = pow(a[-1], -1, q)
    return tuple((c * inv) % q for c in a)


def _mult_order(q: int, n: int) -> int:
    v, k = q % n, 1
    while v != 1:
        v = (v * q) % n
        k += 1
    return k


def format_poly(poly, var: str = "t") -> str:
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
            v = var if d == 1 else f"{var}^{d}"
            mono = v if c == 1 else f"{c}{v}"
        parts.append(mono)
    return " + ".join(parts)


class CycPrime:
    """A prime of Z[zeta_n]: the zero ideal or (q, irreducible factor)."""

    __slots__ = ("conductor", "q", "factor")

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
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "factor", factor)

    def __setattr__(self, *a):
        raise AttributeError("CycPrime is immutable")

    @staticmethod
    def zero(conductor: int) -> "CycPrime":
        return CycPrime(conductor)

    def is_zero(self) -> bool:
        return self.q is None

    def rational_prime(self) -> int:
        """The prime of Z below this prime; undefined for the zero ideal."""
        if self.q is None:
            raise FusionRepError("the zero ideal lies over no rational prime")
        return self.q

    def residue_degree(self) -> int:
        return 0 if self.q is None else len(self.factor) - 1

    def sort_key(self):
        return (0, 0, ()) if self.q is None else (1, self.q, self.factor)

    def __eq__(self, other):
        if not isinstance(other, CycPrime):
            return NotImplemented
        return (self.conductor, self.q, self.factor) == \
            (other.conductor, other.q, other.factor)

    def __hash__(self):
        return hash((self.conductor, self.q, self.factor))

    def __str__(self):
        if self.q is None:
            return "(0)"
        return f"({self.q}, {format_poly(self.factor)})"

    def __repr__(self):
        return f"CycPrime({self})"

    def to_json(self) -> dict:
        if self.q is None:
            return {"zero": True}
        return {"zero": False, "q": self.q, "factor": list(self.factor)}


def _berlekamp_factors(f, q):
    """Distinct irreducible factors of a squarefree monic f mod q."""
    n = len(f) - 1
    # Q matrix: row i = coefficients of x^(q i) mod f
    rows = []
    xq = _polmod_pow_x(q, f, q)
    power = (1,)
    for i in range(n):
        row = list(power) + [0] * (n - len(power))
        rows.append(row)
        power = _polmod_divmod(_polmod_mul(power, xq, q), f, q)[1]
    # nullspace of (Q - I)^T acting on coefficient vectors
    mat = [[(rows[j][i] - (1 if i == j else 0)) % q for j in range(n)]
           for i in range(n)]
    basis = nullspace_mod(mat, q)
    factors = [f]
    for vec in basis:
        v = _trim(vec)
        if len(v) <= 1:
            continue  # constant vectors split nothing
        next_factors = []
        for g in factors:
            if len(g) - 1 <= 1:
                next_factors.append(g)
                continue
            pieces = []
            rest = g
            for c in range(q):
                shifted = list(v)
                shifted[0] = (shifted[0] - c) % q
                d = _polmod_gcd(rest, _trim(shifted), q)
                if 0 < len(d) - 1 < len(rest) - 1:
                    pieces.append(d)
                    rest = _polmod_divmod(rest, d, q)[0]
                if len(rest) - 1 == 0:
                    break
            if len(rest) - 1 > 0:
                pieces.append(rest)
            next_factors.extend(pieces)
        factors = next_factors
    return sorted(_make_monic(g, q) for g in factors)


def primes_above(q: int, n: int) -> list:
    """All primes of Z[zeta_n] over the rational prime q, sorted.

    When q does not divide n every irreducible factor of Phi_n mod q has
    degree equal to the multiplicative order of q mod n, so the factor list
    comes from a search over monic polynomials of that one degree; past the
    search limit a deterministic Berlekamp split takes over.  When q divides
    n the reduction Phi_n = Phi_m^e mod q (m the prime-to-q part) hands the
    problem to the smaller conductor.
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
    if q ** d <= EXHAUSTIVE_SEARCH_LIMIT:
        found = []
        for code in range(q ** d):
            cand = []
            v = code
            for _ in range(d):
                cand.append(v % q)
                v //= q
            cand.append(1)
            if not _polmod_divmod(phi, tuple(cand), q)[1]:
                found.append(tuple(cand))
                if len(found) == count:
                    break
        return [CycPrime(n, q, f) for f in sorted(found)]
    return [CycPrime(n, q, f) for f in _berlekamp_factors(phi, q)]


class PrimeSymbol:
    """A prime of the invariant ring: a coefficient prime and an F-class.

    The stored class index is already canonical: over the defining prime of
    S every class is identified with the class of the identity.
    """

    __slots__ = ("fusion", "prime", "fclass")

    def __init__(self, fusion: FusionSystem, prime: CycPrime, fclass: int):
        if not 0 <= fclass < len(fusion.element_classes()):
            raise InputError("class index out of range")
        if not prime.is_zero() and prime.q == fusion.p:
            fclass = _class_of_identity(fusion)
        object.__setattr__(self, "fusion", fusion)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "fclass", fclass)

    def __setattr__(self, *a):
        raise AttributeError("PrimeSymbol is immutable")

    def is_minimal(self) -> bool:
        return self.prime.is_zero()

    def sort_key(self):
        return self.prime.sort_key() + (self.fclass,)

    def __eq__(self, other):
        if not isinstance(other, PrimeSymbol):
            return NotImplemented
        return (self.fusion is other.fusion and self.prime == other.prime
                and self.fclass == other.fclass)

    def __hash__(self):
        return hash((id(self.fusion), self.prime, self.fclass))

    def __str__(self):
        return f"P[{self.prime}, class {self.fclass}]"

    __repr__ = __str__


def _class_of_identity(F: FusionSystem) -> int:
    return F.element_class_of()[F.S.identity]


def symbol_leq(a: PrimeSymbol, b: PrimeSymbol) -> bool:
    """Containment of invariant-ring primes.

    Holds when the coefficient primes are nested and the class indices agree
    after canonicalizing both at the larger prime (so over the defining
    prime every minimal symbol sits below the single collapsed symbol).
    """
    if a.fusion is not b.fusion:
        raise FusionRepError("symbols belong to different fusion systems")
    if a == b:
        return True
    if not a.prime.is_zero():
        return False
    if b.prime.is_zero():
        return False
    x = a.fclass
    if b.prime.q == a.fusion.p:
        x = _class_of_identity(a.fusion)
    return x == b.fclass


class SpectrumPoset:
    """Symbols plus their strict containments; height is at most one."""

    def __init__(self, fusion: FusionSystem, conductor: int, nodes, edges):
        self.fusion = fusion
        self.conductor = conductor
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)  # (i, j) with nodes[i] < nodes[j]

    def minimal(self) -> tuple:
        return tuple(i for i, s in enumerate(self.nodes) if s.is_minimal())

    def maximal(self) -> tuple:
        return tuple(i for i, s in enumerate(self.nodes) if not s.is_minimal())

    def leq(self, i: int, j: int) -> bool:
        return i == j or (i, j) in set(self.edges)

    def is_connected(self) -> bool:
        n = len(self.nodes)
        if n == 0:
            return True
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in self.edges:
            parent[find(i)] = find(j)
        root = find(0)
        return all(find(i) == root for i in range(n))

    def to_dot(self) -> str:
        lines = ["digraph spectrum {", "  rankdir=BT;"]
        for i, s in enumerate(self.nodes):
            shape = "ellipse" if s.is_minimal() else "box"
            lines.append(f'  n{i} [label="{s}", shape={shape}];')
        for i, j in self.edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "nodes": [
                {"prime": s.prime.to_json(), "class": s.fclass}
                for s in self.nodes
            ],
            "edges": [list(e) for e in self.edges],
            "connected": self.is_connected(),
        }


def prime_symbols(F: FusionSystem, primes, conductor: str = "exponent"
                  ) -> SpectrumPoset:
    """The poset of invariant-ring primes over the zero ideal and the
    listed rational primes.

    conductor picks the cyclotomic coefficient ring: "exponent" (default)
    uses exp(S), "order" forces |S|.
    """
    if conductor == "exponent":
        n = F.S.exponent()
    elif conductor == "order":
        n = F.S.order
    else:
        raise InputError("conductor must be 'exponent' or 'order'")
    k = len(F.element_classes())
    nodes = [PrimeSymbol(F, CycPrime.zero(n), x) for x in range(k)]
    for q in sorted(set(int(v) for v in primes)):
        for p in primes_above(q, n):
            if q == F.p:
                nodes.append(PrimeSymbol(F, p, _class_of_identity(F)))
            else:
                nodes.extend(PrimeSymbol(F, p, x) for x in range(k))
    edges = []
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if i != j and symbol_leq(a, b):
                edges.append((i, j))
    return SpectrumPoset(F, n, nodes, tuple(edges))


def residue_membership(chi, P: PrimeSymbol) -> bool:
    """Whether the character lies in the prime: evaluate at a class
    representative and reduce in the residue field (exact zero test for the
    zero ideal)."""
    F = P.fusion
    n = P.prime.conductor
    if n % chi.conductor != 0:
        raise ConductorMismatch(
            f"character conductor {chi.conductor} does not divide {n}")
    rep = min(F.element_classes()[P.fclass])
    val = chi.value_at_element(rep).lift(n)
    if P.prime.is_zero():
        return val.is_zero()
    q, factor = P.prime.q, P.prime.factor
    poly = []
    for c in val.coeffs:
        if c.denominator % q == 0:
            raise InputError(
                f"value has denominator divisible by {q}; not integral here")
        inv = pow(c.denominator % q, -1, q)
        poly.append((c.numerator * inv) % q)
    return not _polmod_divmod(_trim(poly), factor, q)[1]
