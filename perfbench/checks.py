"""Output checks for the benchmark, independent of the program.

Each check takes the parsed ``--json`` output of one job and returns a
list of problems (empty when the output is right).  The expected values
come from published presentations, from theory, or from the input
generator's own bookkeeping; nothing here imports the program or compares
against a saved copy of its output.  The checks run outside the timed
region.
"""

from __future__ import annotations

import itertools
import re

# Published quadratic presentations of the invariant rings on 7^{1+2}:
# generator degrees, then rows (i, j, (a_1..a_m), c) meaning
# X_i X_j = a_1 X_1 + ... + a_m X_m + c.  O'Nan, Held, Fi24' and the first
# Ruiz-Viruel exotic system.
PUBLISHED = {
    "onan": ((150, 192), [
        (0, 0, (65, 66), 78),
        (1, 1, (108, 107), 120),
        (0, 1, (84, 84), 72),
    ]),
    "he": ((48, 48, 51, 51, 144), [
        (0, 0, (7, 8, 8, 6, 6), 6),
        (1, 1, (8, 7, 6, 8, 6), 6),
        (2, 2, (6, 6, 7, 10, 8), 6),
        (3, 3, (6, 6, 10, 7, 8), 6),
        (4, 4, (60, 60, 60, 60, 61), 72),
        (0, 1, (7, 7, 6, 6, 7), 12),
        (0, 2, (6, 6, 8, 6, 8), 6),
        (0, 3, (6, 9, 6, 8, 7), 6),
        (0, 4, (21, 18, 20, 22, 20), 18),
        (1, 2, (9, 6, 8, 6, 7), 6),
        (1, 3, (6, 6, 6, 8, 8), 6),
        (1, 4, (18, 21, 22, 20, 20), 18),
        (2, 3, (9, 9, 7, 7, 7), 15),
        (2, 4, (21, 24, 20, 22, 21), 18),
        (3, 4, (24, 21, 22, 20, 21), 18),
    ]),
    "fi24p": ((96, 246), [
        (0, 0, (29, 26), 36),
        (1, 1, (180, 175), 186),
        (0, 1, (66, 70), 60),
    ]),
    "rv1": ((342,), [(0, 0, (341,), 342)]),
}


# --- polynomials as {exponent tuple: coefficient} ----------------------------


def _padd(a, b, scale=1):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + scale * c
        if not out[mono]:
            del out[mono]
    return out


def _pmul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _var(i, n):
    return {tuple(int(k == i) for k in range(n)): 1}


def _const(c, n):
    return {(0,) * n: c} if c else {}


def published_relations(degrees, rows, completed):
    """The published relations as polynomials; with ``completed`` the
    generators are shifted, X_i = v_i + d_i."""
    n = len(degrees)
    gens = [_var(i, n) for i in range(n)]
    if completed:
        gens = [_padd(g, _const(d, n)) for g, d in zip(gens, degrees)]
    rels = []
    for i, j, lin, c in rows:
        rel = _padd(_pmul(gens[i], gens[j]), _const(c, n), -1)
        for k, a in enumerate(lin):
            rel = _padd(rel, gens[k], -a)
        rels.append(rel)
    return rels


_TERM_RE = re.compile(r"\s*([+-])\s*")


def parse_relation(text, names):
    """Parse the program's relation text, e.g. ``v2v1 + 41v2 - 7v5`` or
    ``A^2 - 65A - 66B - 78``, over the given variable names."""
    n = len(names)
    by_len = sorted(names, key=len, reverse=True)
    parts = _TERM_RE.split(text.strip())
    if parts[0] == "":
        parts = parts[1:]
    else:
        parts = ["+"] + parts
    poly = {}
    for sign, term in zip(parts[0::2], parts[1::2]):
        m = re.match(r"(\d*)(.*)\Z", term.replace(" ", ""))
        coeff = int(m.group(1)) if m.group(1) else 1
        rest = m.group(2)
        exps = [0] * n
        while rest:
            name = next((v for v in by_len if rest.startswith(v)), None)
            if name is None:
                raise ValueError(f"cannot parse {term!r} in {text!r}")
            rest = rest[len(name):]
            e = 1
            em = re.match(r"\^(\d+)", rest)
            if em:
                e = int(em.group(1))
                rest = rest[em.end():]
            exps[names.index(name)] += e
        if not m.group(1) and not any(exps):
            raise ValueError(f"empty term in {text!r}")
        mono = tuple(exps)
        poly[mono] = poly.get(mono, 0) + (coeff if sign == "+" else -coeff)
    return {k: v for k, v in poly.items() if v}


def _normal(poly):
    """Frozen form, with the sign fixed by the first monomial of top degree."""
    top = max(poly, key=lambda m: (sum(m), m))
    s = 1 if poly[top] > 0 else -1
    return frozenset((m, s * c) for m, c in poly.items())


def same_up_to_renaming(got, got_degrees, want, want_degrees):
    """Whether two relation sets agree under a degree-preserving renaming
    of the generators."""
    if sorted(got_degrees) != sorted(want_degrees):
        return False
    want_set = {_normal(r) for r in want}
    slots = {}
    for k, d in enumerate(want_degrees):
        slots.setdefault(d, []).append(k)
    degs = sorted(slots)
    got_slots = [[k for k, d in enumerate(got_degrees) if d == deg]
                 for deg in degs]
    for choice in itertools.product(*(itertools.permutations(g)
                                      for g in got_slots)):
        perm = {}  # got index -> want index
        for deg, got_idx in zip(degs, choice):
            perm.update(zip(got_idx, slots[deg]))
        mapped = set()
        for rel in got:
            out = {}
            for mono, c in rel.items():
                new = [0] * len(mono)
                for k, e in enumerate(mono):
                    new[perm[k]] = e
                out[tuple(new)] = c
            mapped.add(_normal(out))
        if mapped == want_set:
            return True
    return False


# --- per-command checks -------------------------------------------------------


def check_classes(out, order):
    """fusion-classes: the classes partition S and {1} is one of them."""
    sizes = [c["size"] for c in out["classes"]]
    probs = []
    if sum(sizes) != order:
        probs.append(f"class sizes sum to {sum(sizes)}, not |S| = {order}")
    if sizes.count(1) < 1 or out["classes"][0]["representative"] != "()":
        probs.append("the identity class is missing")
    return probs


def check_ktheory(out, stem):
    names = [v["name"] for v in out["variables"]]
    degrees = [v["shift"] for v in out["variables"]]
    rels = [parse_relation(r, names) for r in out["relations"]]
    probs = []
    n = len(names)
    if any(r.get((0,) * n) for r in rels):
        probs.append("a completed relation has a constant term")
    want_deg, rows = PUBLISHED[stem]
    want = published_relations(want_deg, rows, completed=True)
    if not same_up_to_renaming(rels, degrees, want, want_deg):
        probs.append(f"completed presentation differs from the published "
                     f"one for {stem}")
    return probs


def check_repring(out, stem):
    gens = out["presentation"]["generators"]
    names = [g["name"] for g in gens]
    degrees = [g["degree"] for g in gens]
    rels = [parse_relation(r, names) for r in out["presentation"]["relations"]]
    want_deg, rows = PUBLISHED[stem]
    want = published_relations(want_deg, rows, completed=False)
    if not same_up_to_renaming(rels, degrees, want, want_deg):
        return [f"presentation differs from the published one for {stem}"]
    return []


def check_spectrum(out, nclasses):
    """With the defining prime listed the poset is connected and its
    minimal nodes are the F-classes (over the zero ideal)."""
    n = len(out["nodes"])
    above = {j for _, j in out["edges"]}
    minimal = [i for i in range(n) if i not in above]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in out["edges"]:
        parent[find(i)] = find(j)
    probs = []
    if len({find(i) for i in range(n)}) != 1:
        probs.append("prime poset is not connected")
    if len(minimal) != nclasses:
        probs.append(f"{len(minimal)} minimal primes for {nclasses} classes")
    return probs


def check_twisted_generated(out, p, orbits):
    """Extension p^{1+2} of (Z/p)^2 with H <= SL2(p) of order prime to p:
    one a-representation, of degree p; each X_i acts by [deg X_i]; one
    X_i per non-zero H-orbit; the completed module is Z with every v_i
    acting by 0."""
    probs = []
    basis = out["basis"]
    if len(basis["a_representations"]) != 1:
        probs.append(f"{len(basis['a_representations'])} a-representations")
    if [b["degree"] for b in basis["basis"]] != [p]:
        probs.append(f"twisted basis degrees "
                     f"{[b['degree'] for b in basis['basis']]} != [{p}]")
    mod = out["module"]
    if len(mod["degrees"]) != orbits:
        probs.append(f"{len(mod['degrees'])} generators X_i for {orbits} "
                     "non-zero H-orbits")
    for d, M in zip(mod["degrees"], mod["matrices"]):
        if M != [[d]]:
            probs.append(f"X of degree {d} acts by {M}")
    comp = out["completed"]
    if (comp.get("kind"), comp.get("free_rank"), comp.get("torsion")) != (
            "finite", 1, []):
        probs.append("completed module is not Z")
    if any(M != [[0]] for M in comp["actions"].values()):
        probs.append("some v_i acts non-trivially on the completed module")
    return probs


def check_twisted_a4(out):
    """SL(2,3) over A4: one twisted generator of degree 2, x acts by 3."""
    probs = []
    if [b["degree"] for b in out["basis"]["basis"]] != [2]:
        probs.append("a4_sl23 twisted degrees are not (2,)")
    if out["module"]["matrices"] != [[[3]]]:
        probs.append("a4_sl23 action matrices are not ((3,),)")
    comp = out["completed"]
    if (comp.get("free_rank"), comp.get("torsion")) != (1, []):
        probs.append("a4_sl23 completed module is not Z")
    return probs


def check_saturation(out, p_prime):
    """F_S(S x| H) is saturated exactly when H has order prime to p;
    otherwise Aut_F(S) has a p-part beyond Inn(S) and axiom I fails."""
    if p_prime:
        if not out["ok"] or out["violations"]:
            return ["p' system reported not saturated"]
        return []
    if out["ok"]:
        return ["system with a p-element in H reported saturated"]
    if not any(v.startswith("axiom I") for v in out["violations"]):
        return ["no axiom I violation reported"]
    return []


def _is_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def check_adic(out, p, inner, k, quotients):
    """m(k) = k under inner fusion, else m(k) >= k and non-decreasing;
    R/I^k has free rank 1 and p-power torsion factors, each dividing the
    next, equal to ``quotients`` (recomputed independently)."""
    probs = []
    res = out["results"]
    if [r["k"] for r in res] != list(range(1, k + 1)):
        return ["adic results do not cover k = 1..K"]
    ms = [r["m"] for r in res]
    for r in res:
        if inner and r["m"] != r["k"]:
            probs.append(f"inner fusion: m({r['k']}) = {r['m']}")
        if r["m"] < r["k"]:
            probs.append(f"m({r['k']}) = {r['m']} < k")
        if r["free_rank"] != 1:
            probs.append(f"free rank {r['free_rank']} at k = {r['k']}")
        tor = r["torsion"]
        if any(t <= 1 or not _is_power(t, p) for t in tor):
            probs.append(f"torsion {tor} is not made of powers of {p}")
        if any(b % a for a, b in zip(tor, tor[1:])):
            probs.append(f"torsion {tor} is not a divisor chain")
        if (r["free_rank"], tor) != quotients[r["k"] - 1]:
            probs.append(f"R/I^{r['k']} = {(r['free_rank'], tor)}, "
                         f"recomputed {quotients[r['k'] - 1]}")
    if any(b < a for a, b in zip(ms, ms[1:])):
        probs.append(f"m decreases: {ms}")
    return probs


def ideal_power_quotients(repring_out, k):
    """(free rank, torsion) of R/I^k for k = 1..K, from the structure
    constants of ``repring --json``, with sympy's Smith normal form.

    R has Z-basis (1, X_1..X_m) and I is spanned by X_i - d_i.
    """
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    pres = repring_out["presentation"]
    degs = [g["degree"] for g in pres["generators"]]
    consts, coefs = pres["constants"], pres["coefficients"]
    m = len(degs)

    def mul(u, v):
        out = [u[0] * v[0]] + [u[0] * v[i + 1] + v[0] * u[i + 1]
                               for i in range(m)]
        for i in range(m):
            for j in range(m):
                w = u[i + 1] * v[j + 1]
                if w:
                    out[0] += w * consts[i][j]
                    for t in range(m):
                        out[t + 1] += w * coefs[i][j][t]
        return out

    gens = []
    for i, d in enumerate(degs):
        row = [0] * (m + 1)
        row[0], row[i + 1] = -d, 1
        gens.append(row)
    result = []
    power = gens
    for step in range(1, k + 1):
        if step > 1:
            power = _row_basis([mul(u, v) for u in power for v in gens])
        if power:
            snf = smith_normal_form(Matrix(power), domain=ZZ)
            diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
        else:
            diag = []
        nonzero = sorted(d for d in diag if d)
        result.append((m + 1 - len(nonzero), [d for d in nonzero if d > 1]))
    return result


def _row_basis(rows):
    """A Z-basis of the lattice the integer rows span (echelon form by
    repeated gcd steps), to keep the products of the next power small."""
    rows = [list(r) for r in rows if any(r)]
    out = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivots = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            head = pivots[0]
            nxt = [head]
            for r in pivots[1:]:
                q = r[col] // head[col]
                r = [a - q * b for a, b in zip(r, head)]
                (nxt if r[col] else rows).append(r)
            pivots = nxt
        if pivots:
            out.append(pivots[0])
        rows = [r for r in rows if any(r)]
    return out
