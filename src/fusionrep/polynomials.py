"""Integer multivariate polynomials with a fixed variable order.

Supports just enough arithmetic for ring presentations: addition,
multiplication, substitution of variables by polynomials, and printing in
graded-lexicographic term order with the conventional compact monomial form
("A^2 - 65A - 66B - 78").
"""

from __future__ import annotations

from .errors import InputError


class IntPolynomial:
    """A polynomial in Z[variables] keyed by exponent tuples."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        vs = tuple(variables)
        clean = {}
        for exps, c in dict(terms).items():
            e = tuple(int(x) for x in exps)
            if len(e) != len(vs):
                raise InputError("exponent tuple does not match the variables")
            if any(x < 0 for x in e):
                raise InputError("negative exponent")
            c = int(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    # -- constructors --

    @staticmethod
    def constant(c, variables) -> "IntPolynomial":
        vs = tuple(variables)
        zero = tuple(0 for _ in vs)
        return IntPolynomial(vs, {zero: int(c)})

    @staticmethod
    def variable(name, variables) -> "IntPolynomial":
        vs = tuple(variables)
        if name not in vs:
            raise InputError(f"unknown variable {name!r}")
        e = tuple(int(v == name) for v in vs)
        return IntPolynomial(vs, {e: 1})

    # -- arithmetic --

    def _check(self, other):
        if self.variables != other.variables:
            raise InputError("polynomials over different variables")

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(other, self.variables)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return IntPolynomial(self.variables, terms)

    def __neg__(self):
        return IntPolynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(other, self.variables)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(other, self.variables)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return IntPolynomial(self.variables, terms)

    __rmul__ = __mul__

    def substitute(self, mapping: dict) -> "IntPolynomial":
        """Replace each variable by a polynomial; all images must share variables."""
        images = {}
        target = None
        for v in self.variables:
            img = mapping.get(v)
            if img is None:
                raise InputError(f"no image for variable {v!r}")
            if target is None:
                target = img.variables
            elif img.variables != target:
                raise InputError("substitution images over different variables")
            images[v] = img
        if target is None:
            target = ()
        out = IntPolynomial.constant(0, target)
        for exps, c in self.terms.items():
            term = IntPolynomial.constant(c, target)
            for v, e in zip(self.variables, exps):
                for _ in range(e):
                    term = term * images[v]
            out = out + term
        return out

    # -- inspection --

    def constant_term(self) -> int:
        zero = tuple(0 for _ in self.variables)
        return self.terms.get(zero, 0)

    def sorted_terms(self) -> list:
        """(exponents, coefficient) pairs in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    # -- output --

    def __str__(self):
        terms = self.sorted_terms()
        if not terms:
            return "0"
        pieces = []
        for idx, (exps, c) in enumerate(terms):
            mono = "".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}{mono}"
            else:
                body = str(mag)
            if idx == 0:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"IntPolynomial({self})"

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))
