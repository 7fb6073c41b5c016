"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Values are stored in the power basis 1, z, ..., z^(phi(e)-1) modulo the e-th
cyclotomic polynomial, with Fraction coefficients.  The representation is
canonical for a fixed conductor: two values are equal iff their coefficient
vectors are equal.  Arithmetic between different conductors is an error;
lift() moves a value into a larger conductor explicitly.  Plain ints and
Fractions mix freely with any conductor (rationals embed with all
non-constant coefficients zero).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ConductorMismatch, NotRational


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple:
    """Integer coefficients of Phi_e, ascending degree, monic."""
    if e < 1:
        raise ValueError("conductor must be >= 1")
    if e == 1:
        return (-1, 1)
    num = [0] * (e + 1)
    num[0], num[e] = -1, 1  # x^e - 1
    den = (1,)
    for d in range(1, e):
        if e % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    return tuple(_poly_div_exact(tuple(num), den))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _poly_div_exact(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("inexact polynomial division")
        c //= den[-1]
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def _ctx(e: int):
    """(phi, power reduction table): table[m] = coeffs of z^m, ints."""
    poly = cyclotomic_polynomial(e)
    phi = len(poly) - 1
    top = max(e, 2 * phi - 1)  # need z^m for m < top
    table = []
    for m in range(phi):
        row = [0] * phi
        row[m] = 1
        table.append(tuple(row))
    for m in range(phi, top):
        prev = table[m - 1]
        shifted = [0] + list(prev[:-1])
        lead = prev[-1]
        if lead:
            for j in range(phi):
                shifted[j] -= lead * poly[j]
        table.append(tuple(shifted))
    return phi, tuple(table)


def degree_phi(e: int) -> int:
    return _ctx(e)[0]


def power_table(e: int) -> tuple:
    """Integer power-basis coordinates of z^m, for m < max(e, 2 phi(e) - 1)."""
    return _ctx(e)[1]


class Cyclotomic:
    """An element of Q(zeta_e) in canonical power-basis form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        phi = _ctx(conductor)[0]
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != phi:
            raise ValueError(f"expected {phi} coefficients for conductor {conductor}")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors --

    @staticmethod
    def zero(e: int) -> "Cyclotomic":
        return Cyclotomic(e, [0] * degree_phi(e))

    @staticmethod
    def rational(q, e: int = 1) -> "Cyclotomic":
        phi = degree_phi(e)
        return Cyclotomic(e, [Fraction(q)] + [0] * (phi - 1))

    # -- predicates --

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRational(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic --

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductors {self.conductor} and {other.conductor}; lift first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.rational(other, self.conductor)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.conductor,
                          [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.conductor,
                          [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.conductor, [a * other for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        phi, table = _ctx(self.conductor)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[:phi])
        for m in range(phi, 2 * phi - 1):
            c = conv[m]
            if c:
                row = table[m]
                for j in range(phi):
                    if row[j]:
                        out[j] += c * row[j]
        return Cyclotomic(self.conductor, out)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta -> zeta^(e-1)."""
        return self.galois(self.conductor - 1 if self.conductor > 1 else 1)

    def galois(self, j: int) -> "Cyclotomic":
        """The automorphism zeta -> zeta^j (j coprime to the conductor)."""
        e = self.conductor
        phi, table = _ctx(e)
        out = [Fraction(0)] * phi
        for k, c in enumerate(self.coeffs):
            if c:
                row = table[(k * j) % e]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return Cyclotomic(e, out)

    def lift(self, e2: int) -> "Cyclotomic":
        """The same value at a larger conductor e2 (conductor | e2)."""
        e = self.conductor
        if e2 == e:
            return self
        if e2 % e:
            raise ConductorMismatch(f"{e} does not divide {e2}")
        step = e2 // e
        phi2, table2 = _ctx(e2)
        out = [Fraction(0)] * phi2
        for k, c in enumerate(self.coeffs):
            if c:
                row = table2[(k * step) % e2]
                for i in range(phi2):
                    if row[i]:
                        out[i] += c * row[i]
        return Cyclotomic(e2, out)

    # -- ordering / io --

    def sort_key(self):
        """Fixed total order: descending lexicographic on coefficients."""
        return tuple(-c for c in self.coeffs)

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        sym = f"z{self.conductor}"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            power = sym if k == 1 else f"{sym}^{k}"
            if c == 1:
                term = power
            elif c == -1:
                term = f"-{power}"
            else:
                term = f"{c}*{power}"
            parts.append(term)
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self})"


def root_of_unity(e: int, k: int = 1) -> Cyclotomic:
    """zeta_e^k at conductor e."""
    phi, table = _ctx(e)
    return Cyclotomic(e, table[k % e])

