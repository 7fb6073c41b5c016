"""The power basis of the cyclotomic integers Z[zeta_e].

A value is a row of integer coordinates in the basis 1, z, ..., z^(phi(e)-1)
modulo the e-th cyclotomic polynomial; the row is canonical for a fixed
conductor, so two values are equal iff their rows are.  The character
kernel computes on tuples of such rows.  This module gives the polynomial,
the reduction of the powers z^m to rows, and the text and JSON forms of a
row.
"""

from __future__ import annotations

from functools import lru_cache


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


def format_value(e: int, coeffs) -> str:
    """A value of Z[zeta_e] from its integer power-basis coordinates, as
    text: "-1 + z7 + 2*z7^3", or the integer when it is rational."""
    if not any(coeffs[1:]):
        return str(coeffs[0])
    sym = f"z{e}"
    parts = []
    for k, c in enumerate(coeffs):
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


def value_json(e: int, coeffs) -> dict:
    """The JSON form of the same value: conductor and coordinate strings."""
    return {"conductor": e, "coeffs": [str(c) for c in coeffs]}
