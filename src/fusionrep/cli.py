"""Command line interface.

fusionrep <command> <spec-file> [flags]

Commands: chartable, fusion-classes, saturation, repring, ktheory,
spectrum, twisted, adic.  Output is deterministic text, or JSON with
--json; the spectrum command also offers --dot.  Exit codes: 0 success,
1 input or parse problem, 2 mathematical validation failure, 3 cap
exceeded.  Under --json an error is also written to stdout as JSON with
its type, message and exit code; that holds for a usage error too (an
unknown command or flag, a bad flag value, --json with --dot), with
"command": null when the command is missing or unknown, and in text mode
a usage error writes the usage line before its error line on stderr.

main settles the flags against the spec's [options] section and realizes
the spec as one jobspec.Job with the cap flags and the name mapping (a cap
flag wins over the spec's cap option); a command only formats the stages
of that job, which builds each stage once.

saturation checks a group of any order; --cap-morphisms and
--cap-subgroups bound its work.  --cap-subgroups counts the closures
H<g> that the subgroup enumeration builds, one per subgroup K containing
a subgroup H with index p (73 on 5^{1+2}, 129 on 7^{1+2}).
--saturation-large is parsed for the callers that still pass it and
ignored.

A name mapping file <spec stem>.names.json next to the spec file (or one
given via --names) relabels basis generators (X1, ...), completed
variables (v1, ...) and twisted basis elements (W1, ...) in every output.
Every key must be X<n>, v<n> or W<n> with n >= 1, and the names of one
kind must be non-empty and pairwise distinct.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter

from .errors import FusionRepError, InputError
from .jobspec import load_jobspec, realize
from .permgroup import is_prime

_MAPPING_KEY_RE = re.compile(r"[XvW][1-9][0-9]*\Z")
_CAPS = ("order", "subgroups", "morphisms", "hilbert", "adic")


def _usage_error(message):
    """The parser's error hook: raises InputError in place of printing the
    usage error and exiting, so main reports it as any bad input."""
    raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fusionrep",
        description="Representation rings of fusion systems on finite "
                    "p-groups: exact presentations, completions, prime "
                    "spectra and twisted analogues.")
    ap.add_argument("command", choices=_DISPATCH)
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
    ap.add_argument("--saturation-large", action="store_true",
                    help="ignored: saturation has no order cap")
    for cap in _CAPS:
        ap.add_argument(f"--cap-{cap}", type=int, metavar="N")
    ap.error = _usage_error
    return ap


def _resolve_options(args, spec) -> dict:
    """Settle args.primes, args.k and args.conductor, and return the cap
    flags; realize fills the caps not given from the [options] section."""
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
        args.primes = tuple(vals)
    else:
        args.primes = spec.option("primes")  # None: default to (p,)
    args.k = spec.option("k", 1) if args.k is None else args.k
    if args.k < 1:
        raise InputError("k must be at least 1")
    args.conductor = ("order" if args.conductor_order
                      else spec.option("conductor", "exponent"))
    caps = {}
    for cap in _CAPS:
        flag = getattr(args, f"cap_{cap}")
        if flag is not None and flag < 1:
            raise InputError(f"cap_{cap} must be positive")
        caps[cap] = flag
    return caps


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
    for key in data:
        if not _MAPPING_KEY_RE.match(key):
            raise InputError(f"name mapping key {key!r} is not X<n>, v<n> "
                             "or W<n>")
    return data


def _emit_json(args, **payload) -> str:
    return json.dumps({"schema": 1, "command": args.command, **payload},
                      indent=2, sort_keys=True) + "\n"


def _degree_summary(degrees) -> str:
    counts = Counter(degrees)
    return " ".join(f"{d}^{n}" if n > 1 else str(d)
                    for d, n in sorted(counts.items()))


# --- commands -------------------------------------------------------------------


def _cmd_chartable(job, args):
    from .chartable import character_table
    from .cyclotomic import format_value
    tab = character_table(job.group)
    if args.json:
        return _emit_json(args, table=tab.to_json())
    classes = job.group.conjugacy_classes()
    lines = [f"order {job.group.order}",
             f"classes {len(classes)}",
             f"degrees {_degree_summary(tab.degrees())}",
             "class representatives: "
             + ", ".join(job.group.describe_element(c[0]) for c in classes),
             *(f"chi{k + 1} ({d}): "
               + ", ".join(format_value(tab.conductor, v) for v in row)
               for k, (d, row) in enumerate(zip(tab.degrees(), tab.coords)))]
    return "\n".join(lines)


def _cmd_fusion_classes(job, args):
    classes = job.fusion.element_classes()
    if args.json:
        return _emit_json(args, classes=[
            {"size": len(c),
             "representative": job.group.describe_element(c[0])}
            for c in classes])
    return "\n".join([f"classes {len(classes)}",
                      *(f"class {i}: size {len(c)}, "
                        f"rep {job.group.describe_element(c[0])}"
                        for i, c in enumerate(classes, 1))])


def _cmd_saturation(job, args):
    report = job.saturation()
    note = ("completed presentations and spectra assume a saturated system"
            if not report.ok else None)
    if args.json:
        return _emit_json(args, **report.to_json(),
                          **({"note": note} if note else {}))
    lines = [f"saturated {'yes' if report.ok else 'no'}",
             *(f"violation: {v}" for v in report.violations),
             f"subgroup classes checked {report.classes_checked}",
             f"morphisms checked {report.morphisms_checked}",
             *([f"note: {note}"] if note else [])]
    return "\n".join(lines)


def _cmd_repring(job, args):
    B, P = job.basis, job.presentation
    names = ("1",) + P.names
    if args.json:
        payload = B.to_json()
        for entry, name in zip(payload["basis"], names):
            entry["name"] = name
        return _emit_json(args, **payload, presentation=P.to_json(),
                          ring=str(P))
    lines = [f"classes {len(job.fusion.element_classes())}",
             "basis " + ", ".join(f"{n} ({d})" for n, d in
                                  zip(names, B.degrees)),
             str(P)]
    return "\n".join(lines)


def _cmd_ktheory(job, args):
    C = job.completed
    if args.json:
        return _emit_json(args, **C.to_json())
    return str(C)


def _cmd_spectrum(job, args):
    poset = job.spectrum(args.primes, args.conductor)
    if args.dot:
        return poset.to_dot()
    if args.json:
        return _emit_json(args, **poset.to_json())
    labels = poset.labels()
    lines = [f"conductor {poset.conductor}", f"nodes {len(labels)}", *labels,
             f"edges {len(poset.edges)}",
             *(f"{labels[i]} < {labels[j]}" for i, j in poset.edges),
             f"connected {'yes' if poset.connected else 'no'}"]
    return "\n".join(lines)


def _cmd_twisted(job, args):
    TB, TM, CM = job.twisted_basis, job.module, job.completed_module
    E = job.extension
    if args.json:
        return _emit_json(args, extension=E.to_json(), basis=TB.to_json(),
                          module=TM.to_json(), completed=CM.to_json())
    lines = [f"extension order {E.group.order}, coefficients {E.coeff}",
             f"a-representations {len(TB.a_reps)}",
             "basis " + ", ".join(f"{n} ({d})" for n, d in
                                  zip(TB.names, TB.degrees)),
             *(f"{name} acts by {[list(r) for r in M]}"
               for name, M in zip(TM.names, TM.matrices)),
             str(CM)]
    return "\n".join(lines)


def _cmd_adic(job, args):
    results = [(i, *job.adic(i)) for i in range(1, args.k + 1)]
    if args.json:
        return _emit_json(args, results=[{"k": i, "m": m, **q}
                                         for i, m, q in results])
    return "\n".join(f"k {i}: m {m}, free rank {q['free_rank']}, "
                     f"torsion {q['torsion']}" for i, m, q in results)


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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    # the arguments read before a usage error stay in args, and the
    # command is None when it is missing or unknown
    args = argparse.Namespace()
    try:
        try:
            parser.parse_args(argv, args)
        except SystemExit:  # --help; a usage error raises InputError
            return 0
        except InputError:
            # the parser stops at the first bad argument, before a --json
            # that follows it
            args.json = "--json" in argv
            if not args.json:
                parser.print_usage(sys.stderr)
            raise
        if args.dot and args.command != "spectrum":
            raise InputError("--dot only applies to the spectrum command")
        try:
            spec = load_jobspec(args.specfile)
        except OSError as exc:
            raise InputError(f"cannot read spec file: {exc}") from None
        except UnicodeDecodeError:
            raise InputError(
                "cannot read spec file: not UTF-8 text") from None
        base_dir = os.path.dirname(os.path.abspath(args.specfile))
        mapping = _load_mapping(args)
        caps = _resolve_options(args, spec)
        job = realize(spec, base_dir, caps, mapping)
        out = _DISPATCH[args.command](job, args)
    except FusionRepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.json:
            sys.stdout.write(_emit_json(args, error={
                "type": type(exc).__name__, "message": str(exc),
                "exit_code": exc.exit_code}))
        return exc.exit_code
    if out:
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
