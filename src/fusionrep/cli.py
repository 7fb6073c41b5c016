"""Command line interface.

fusionrep <command> <spec-file> [flags]

Commands: chartable, fusion-classes, saturation, repring, ktheory,
spectrum, twisted, adic.  Output is deterministic text, or JSON with
--json; the spectrum command also offers --dot.  Exit codes: 0 success,
1 input or parse problem, 2 mathematical validation failure, 3 cap
exceeded.

A name mapping file <spec stem>.names.json next to the spec file (or one
given via --names) relabels basis generators (X1, ...), completed
variables (v1, ...) and twisted basis elements (W1, ...) in every output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .chartable import character_table
from .errors import FusionRepError, InputError
from .invariants import irreducible_invariants
from .intlinalg import is_prime
from .jobspec import load_jobspec, realize
from .ringpres import (adic_equivalence_exponent, completed_presentation,
                       quotient_by_ideal_power, structure_constants)
from .spectrum import prime_symbols
from .twisted import (completed_module, module_structure,
                      twisted_invariant_basis)

COMMANDS = ("chartable", "fusion-classes", "saturation", "repring",
            "ktheory", "spectrum", "twisted", "adic")
_CAPS = ("order", "subgroups", "morphisms", "hilbert", "saturation",
         "chain", "adic")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fusionrep",
        description="Representation rings of fusion systems on finite "
                    "p-groups: exact presentations, completions, prime "
                    "spectra and twisted analogues.")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("specfile", help="job specification file")
    fmt = ap.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit JSON instead of text")
    fmt.add_argument("--dot", action="store_true",
                     help="emit DOT (spectrum only)")
    ap.add_argument("--primes", metavar="Q1,Q2",
                    help="rational primes for the spectrum")
    ap.add_argument("--k", type=int, metavar="K",
                    help="adic exponent / quotient power")
    ap.add_argument("--names", metavar="PATH",
                    help="name mapping JSON (default: <spec>.names.json)")
    ap.add_argument("--conductor-order", action="store_true",
                    help="use |S| instead of exp(S) as the cyclotomic "
                         "conductor for the spectrum")
    ap.add_argument("--transpose-cocycle", action="store_true",
                    help="transpose the cocycle table from the spec")
    ap.add_argument("--saturation-large", action="store_true",
                    help="run the saturation checker past its order cap")
    for cap in _CAPS:
        ap.add_argument(f"--cap-{cap}", type=int, metavar="N")
    return ap


class _Options:
    """Flag > [options] section > default, per knob."""

    def __init__(self, args, spec):
        if args.primes is not None:
            vals = []
            for part in args.primes.split(","):
                try:
                    q = int(part.strip())
                except ValueError:
                    raise InputError(f"bad prime {part.strip()!r}") from None
                if not is_prime(q):
                    raise InputError(f"{q} is not prime")
                vals.append(q)
            self.primes = tuple(vals)
        else:
            self.primes = spec.option("primes")  # None: default to (p,)
        self.k = args.k if args.k is not None else spec.option("k", 1)
        if self.k < 1:
            raise InputError("k must be at least 1")
        if args.conductor_order:
            self.conductor = "order"
        else:
            self.conductor = spec.option("conductor", "exponent")
        self.caps = {}
        for cap in _CAPS:
            flag = getattr(args, f"cap_{cap}")
            self.caps[cap] = (flag if flag is not None
                              else spec.option(f"cap_{cap}"))

    def cap_kw(self, cap: str, key: str) -> dict:
        v = self.caps[cap]
        return {} if v is None else {key: v}


def _load_mapping(args) -> dict:
    path = args.names
    if path is None:
        stem, _ = os.path.splitext(args.specfile)
        path = stem + ".names.json"
        if not os.path.exists(path):
            return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read name mapping: {exc}") from None
    except ValueError as exc:
        raise InputError(f"bad name mapping JSON: {exc}") from None
    if (not isinstance(data, dict)
            or any(not isinstance(k, str) or not isinstance(v, str)
                   for k, v in data.items())):
        raise InputError("name mapping must be a JSON object of strings")
    return data


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _degree_summary(degrees) -> str:
    counts = Counter(degrees)
    return " ".join(f"{d}^{n}" if n > 1 else str(d)
                    for d, n in sorted(counts.items()))


# --- commands -------------------------------------------------------------------


def _cmd_chartable(rj, mapping, opts, args):
    tab = character_table(rj.group)
    if args.json:
        return _emit_json({"schema": 1, "command": "chartable",
                           "table": tab.to_json()})
    classes = rj.group.conjugacy_classes()
    lines = [f"order {rj.group.order}",
             f"classes {len(classes)}",
             f"degrees {_degree_summary(tab.degrees())}",
             "class representatives: "
             + ", ".join(rj.group.describe_element(c[0]) for c in classes)]
    for k, chi in enumerate(tab.irreducibles):
        vals = ", ".join(str(v) for v in chi.values)
        lines.append(f"chi{k + 1} ({int(chi.degree())}): {vals}")
    return "\n".join(lines)


def _cmd_fusion_classes(rj, mapping, opts, args):
    F = rj.fusion
    classes = F.element_classes()
    if args.json:
        return _emit_json({
            "schema": 1, "command": "fusion-classes",
            "classes": [{"size": len(c),
                         "representative": rj.group.describe_element(c[0])}
                        for c in classes]})
    lines = [f"classes {len(classes)}"]
    for i, c in enumerate(classes, 1):
        lines.append(f"class {i}: size {len(c)}, "
                     f"rep {rj.group.describe_element(c[0])}")
    return "\n".join(lines)


def _cmd_saturation(rj, mapping, opts, args):
    kw = {}
    kw.update(opts.cap_kw("saturation", "order_cap"))
    kw.update(opts.cap_kw("morphisms", "cap"))
    kw.update(opts.cap_kw("subgroups", "subgroup_cap"))
    report = rj.fusion.check_saturation(allow_large=args.saturation_large,
                                        **kw)
    note = ("completed presentations and spectra assume a saturated system"
            if not report.ok else None)
    if args.json:
        payload = {"schema": 1, "command": "saturation", **report.to_json()}
        if note:
            payload["note"] = note
        return _emit_json(payload)
    lines = [f"saturated {'yes' if report.ok else 'no'}"]
    for v in report.violations:
        lines.append(f"violation: {v}")
    lines.append(f"subgroup classes checked {report.classes_checked}")
    lines.append(f"morphisms checked {report.morphisms_checked}")
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _basis_and_presentation(rj, mapping, opts):
    B = irreducible_invariants(rj.fusion, **opts.cap_kw("hilbert", "cap"))
    P = structure_constants(B, mapping)
    return B, P


def _cmd_repring(rj, mapping, opts, args):
    B, P = _basis_and_presentation(rj, mapping, opts)
    shown = [(mapping.get(n, n), v.degree())
             for n, v in zip(B.names, B.vectors)]
    if args.json:
        payload = B.to_json()
        for entry in payload["basis"]:
            entry["name"] = mapping.get(entry["name"], entry["name"])
        return _emit_json({"schema": 1, "command": "repring",
                           **payload, "presentation": P.to_json(),
                           "ring": str(P)})
    lines = [f"classes {len(rj.fusion.element_classes())}",
             "basis " + ", ".join(f"{n} ({d})" for n, d in shown),
             str(P)]
    return "\n".join(lines)


def _cmd_ktheory(rj, mapping, opts, args):
    _, P = _basis_and_presentation(rj, mapping, opts)
    C = completed_presentation(P, mapping)
    if args.json:
        return _emit_json({"schema": 1, "command": "ktheory",
                           **C.to_json()})
    return str(C)


def _cmd_spectrum(rj, mapping, opts, args):
    primes = opts.primes if opts.primes is not None else (rj.fusion.p,)
    poset = prime_symbols(rj.fusion, primes, conductor=opts.conductor)
    if args.dot:
        return poset.to_dot()
    if args.json:
        return _emit_json({"schema": 1, "command": "spectrum",
                           **poset.to_json()})
    lines = [f"conductor {poset.conductor}",
             f"nodes {len(poset.nodes)}"]
    for s in poset.nodes:
        lines.append(str(s))
    lines.append(f"edges {len(poset.edges)}")
    for i, j in poset.edges:
        lines.append(f"{poset.nodes[i]} < {poset.nodes[j]}")
    lines.append(f"connected {'yes' if poset.is_connected() else 'no'}")
    return "\n".join(lines)


def _cmd_twisted(rj, mapping, opts, args):
    if rj.extension is None:
        raise InputError("the twisted command needs an [extension] section")
    E = rj.extension
    F_alpha = rj.fusion_alpha
    B = irreducible_invariants(rj.fusion, **opts.cap_kw("hilbert", "cap"))
    TB = twisted_invariant_basis(E, F_alpha, base=rj.fusion,
                                 **opts.cap_kw("hilbert", "cap"))
    TBm = TB.with_names(mapping)
    P = structure_constants(B)
    TM = module_structure(rj.fusion, B, E, TB, P)
    vnames = tuple(mapping.get(f"v{i + 1}", f"v{i + 1}")
                   for i in range(len(P.names)))
    CM = completed_module(TM, P, names=vnames,
                          **opts.cap_kw("chain", "cap"))
    gen_names = tuple(mapping.get(n, n) for n in TM.names)
    if args.json:
        module = TM.to_json()
        module["names"] = list(gen_names)
        return _emit_json({"schema": 1, "command": "twisted",
                           "extension": E.to_json(),
                           "basis": TBm.to_json(),
                           "module": module,
                           "completed": CM.to_json()})
    lines = [f"extension order {E.group.order}, coefficients {E.coeff}",
             f"a-representations {len(TB.a_reps)}",
             "basis " + ", ".join(f"{n} ({v.degree()})" for n, v in
                                  zip(TBm.names, TBm.vectors))]
    for name, M in zip(gen_names, TM.matrices):
        lines.append(f"{name} acts by {[list(r) for r in M]}")
    lines.append(str(CM))
    return "\n".join(lines)


def _cmd_adic(rj, mapping, opts, args):
    B, P = _basis_and_presentation(rj, mapping, opts)
    results = []
    for i in range(1, opts.k + 1):
        m = adic_equivalence_exponent(rj.fusion, i, basis=B,
                                      **opts.cap_kw("adic", "cap"))
        q = quotient_by_ideal_power(P, i)
        results.append((i, m, q))
    if args.json:
        return _emit_json({
            "schema": 1, "command": "adic",
            "results": [{"k": i, "m": m, **q} for i, m, q in results]})
    lines = []
    for i, m, q in results:
        lines.append(f"k {i}: m {m}, free rank {q['free_rank']}, "
                     f"torsion {q['torsion']}")
    return "\n".join(lines)


_DISPATCH = {
    "chartable": _cmd_chartable,
    "fusion-classes": _cmd_fusion_classes,
    "saturation": _cmd_saturation,
    "repring": _cmd_repring,
    "ktheory": _cmd_ktheory,
    "spectrum": _cmd_spectrum,
    "twisted": _cmd_twisted,
    "adic": _cmd_adic,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    try:
        if args.dot and args.command != "spectrum":
            raise InputError("--dot only applies to the spectrum command")
        try:
            spec = load_jobspec(args.specfile)
        except OSError as exc:
            raise InputError(f"cannot read spec file: {exc}") from None
        base_dir = os.path.dirname(os.path.abspath(args.specfile))
        mapping = _load_mapping(args)
        opts = _Options(args, spec)
        if args.transpose_cocycle:
            spec = spec.with_transposed_cocycle()
        rj = realize(spec, base_dir, order_cap=opts.caps["order"])
        out = _DISPATCH[args.command](rj, mapping, opts, args)
    except FusionRepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    if out:
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
