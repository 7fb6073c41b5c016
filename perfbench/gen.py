"""Seeded input generator for the benchmark workloads.

Writes spec files for the ``twisted``, ``saturation125`` and ``adic27``
workloads, plus ``manifest.json`` describing them, into an output
directory.  Every input is a fusion system F_S(S x| H) with H a matrix
group acting on S/Z(S) = F_p^2.  The seed picks a conjugate of a fixed
generating set of H (by a random element of GL2(p)), shuffles the fusion
lines and, for the twisted inputs, relabels the points of the
permutation representation.  The isomorphism type of every input is
fixed, so every seed asks the program for the same amount of work.

The generator computes each |H| and the number of H-orbits on the
non-zero vectors of F_p^2 itself; the checks in ``checks.py`` read them
from the manifest, never from the program.

    python3 perfbench/gen.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random

# (workload, name, p, generators of H as 2x2 matrices over F_p)
# twisted: H <= SL2(p) of order prime to p, so the centre of the
#          extension is fixed pointwise.
# saturation125: p' subgroups (saturated) and a subgroup of order 5
#          (axiom I fails).
# adic27: 3^{1+2} with inner fusion only and with Q8 <= SL2(3).
SHAPES = (
    ("twisted", "tw5_q8", 5, (((2, 0), (0, 3)), ((0, 1), (4, 0)))),
    ("twisted", "tw7_sl23", 7, (((0, 1), (6, 0)), ((0, 2), (3, 1)))),
    ("saturation125", "sat5_q8", 5, (((2, 0), (0, 3)), ((0, 1), (4, 0)))),
    ("saturation125", "sat5_c4c4", 5, (((2, 0), (0, 1)), ((1, 0), (0, 2)))),
    ("saturation125", "sat5_u5", 5, (((1, 1), (0, 1)),)),
    ("adic27", "adic3_inner", 3, ()),
    ("adic27", "adic3_q8", 3, (((0, 1), (2, 0)), ((1, 1), (1, 2)))),
)


# --- 2x2 matrices over F_p --------------------------------------------------


def mat_mul(A, B, p):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) % p
                       for j in range(2)) for i in range(2))


def mat_det(A, p):
    return (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % p


def mat_inv(A, p):
    d = pow(mat_det(A, p), -1, p)
    return (((A[1][1] * d) % p, (-A[0][1] * d) % p),
            ((-A[1][0] * d) % p, (A[0][0] * d) % p))


def matrix_group(gens, p):
    """All elements of the group the matrices generate (BFS closure)."""
    ident = ((1, 0), (0, 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                x = mat_mul(g, h, p)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return seen


def nonzero_orbits(group, p):
    """Number of orbits of the matrix group on F_p^2 minus the origin."""
    seen = set()
    count = 0
    for v in ((x, y) for x in range(p) for y in range(p)):
        if v == (0, 0) or v in seen:
            continue
        count += 1
        for g in group:
            seen.add(((g[0][0] * v[0] + g[0][1] * v[1]) % p,
                      (g[1][0] * v[0] + g[1][1] * v[1]) % p))
    return count


def random_gl2(rng, p):
    while True:
        A = tuple(tuple(rng.randrange(p) for _ in range(2)) for _ in range(2))
        if mat_det(A, p):
            return A


def conjugate_gens(gens, rng, p):
    g = random_gl2(rng, p)
    gi = mat_inv(g, p)
    return [mat_mul(mat_mul(g, h, p), gi, p) for h in gens]


# --- spec text ----------------------------------------------------------------


def _word(pairs):
    """Word text from (name, exponent) pairs, dropping zero exponents."""
    toks = [n if e == 1 else f"{n}^{e}" for n, e in pairs if e]
    return " ".join(toks) if toks else None


def extraspecial_spec(p, gens, rng, comment):
    lines = [f"# {comment}", "[group]", "constructor = extraspecial_p3",
             f"p = {p}", "", "[fusion]"]
    body = [f"gl2 = [[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]"
            for m in gens]
    rng.shuffle(body)
    return "\n".join(lines + body) + "\n"


def _cycles(perm):
    seen = set()
    out = []
    for s in range(len(perm)):
        if s in seen or perm[s] == s:
            continue
        cyc = []
        x = s
        while x not in seen:
            seen.add(x)
            cyc.append(str(x + 1))
            x = perm[x]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def twisted_spec(p, gens, rng, comment):
    """(Z/p)^2 with H acting, twisted by the extension p^{1+2}.

    The extension group is the Heisenberg group {(x, y, z)} acting on the
    p^2 left cosets of <a> = {(t, 0, 0)}, i.e. on points (y, z):
    a: (y, z) -> (y, z + y), b: (y, z) -> (y + 1, z), c: (y, z) -> (y, z + 1).
    """
    pts = list(range(p * p))
    rng.shuffle(pts)            # random labelling of the points

    def perm(fn):
        out = [0] * (p * p)
        for y in range(p):
            for z in range(p):
                y2, z2 = fn(y, z)
                out[pts[y * p + z]] = pts[(y2 % p) * p + (z2 % p)]
        return out

    ext = {"a": perm(lambda y, z: (y, z + y)),
           "b": perm(lambda y, z: (y + 1, z)),
           "c": perm(lambda y, z: (y, z + 1))}
    base_x = "(" + " ".join(str(i + 1) for i in range(p)) + ")"
    base_y = "(" + " ".join(str(p + i + 1) for i in range(p)) + ")"
    fusion, alpha = [], []
    for m in gens:
        # columns of m give the images of the two generators
        ix = _word((("x", m[0][0]), ("y", m[1][0])))
        iy = _word((("x", m[0][1]), ("y", m[1][1])))
        ia = _word((("a", m[0][0]), ("b", m[1][0])))
        ib = _word((("a", m[0][1]), ("b", m[1][1])))
        fusion.append(f"S -> {ix}, {iy}")
        alpha.append(f"S -> {ia}, {ib}, c")
    order = list(range(len(gens)))
    rng.shuffle(order)
    lines = [f"# {comment}", "[group]", f"degree = {2 * p}",
             f"x = {base_x}", f"y = {base_y}", "", "[fusion]"]
    lines += [fusion[i] for i in order]
    lines += ["", "[extension]", f"degree = {p * p}"]
    lines += [f"{n} = {_cycles(ext[n])}" for n in ("a", "b", "c")]
    lines += ["kernel = c", f"projection = x, y, x^{p}", "", "[fusion_alpha]"]
    lines += [alpha[i] for i in order]
    return "\n".join(lines) + "\n"


def generate(seed: int, out_dir: str) -> dict:
    """Write every generated spec file and the manifest; return it."""
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    inputs = []
    for workload, name, p, base_gens in SHAPES:
        gens = conjugate_gens(base_gens, rng, p)
        group = matrix_group(gens, p)
        order = len(group)
        entry = {
            "workload": workload, "name": name, "file": name + ".fus",
            "p": p, "generators": [[list(r) for r in m] for m in gens],
            "h_order": order, "p_prime": order % p != 0,
            "special": all(mat_det(m, p) == 1 for m in gens),
            "nonzero_orbits": nonzero_orbits(group, p),
            "inner": order == 1,
        }
        comment = (f"F_S(S x| H), p = {p}, |H| = {order}, seed {seed}")
        if workload == "twisted":
            if not (entry["p_prime"] and entry["special"]):
                raise ValueError(f"{name}: H must be a p' subgroup of SL2")
            text = twisted_spec(p, gens, rng, comment)
        else:
            text = extraspecial_spec(p, gens, rng, comment)
        with open(os.path.join(out_dir, entry["file"]), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        inputs.append(entry)
    manifest = {"seed": seed, "inputs": inputs}
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    manifest = generate(args.seed, args.out)
    for e in manifest["inputs"]:
        print(f"{e['file']}: p {e['p']}, |H| {e['h_order']}, "
              f"orbits {e['nonzero_orbits']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
