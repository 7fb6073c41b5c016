"""One traced job: the stages of a CLI command, called one by one.

    python3 perfbench/trace_job.py SRC_DIR COMMAND SPECFILE [--k K]
        [--primes Q1,Q2] [--conductor-order] [--saturation-large]

Runs in a fresh process, like the job it stands for.  It imports the
program from SRC_DIR and calls its public functions in the order the
command needs them, so a cache one stage fills (Irr(S), the element
classes) is charged to that stage and not to the next.  Prints one JSON
object: the spans (name, start, end) on the ``time.perf_counter`` clock,
which is system-wide, and the work counts.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SPANS = []
COUNTS = {}


class span:
    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        SPANS.append((self.name, self.start, time.perf_counter()))


def count(name, n):
    COUNTS[name] = COUNTS.get(name, 0) + n


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("src")
    ap.add_argument("command")
    ap.add_argument("specfile")
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--primes")
    ap.add_argument("--conductor-order", action="store_true")
    ap.add_argument("--saturation-large", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    with span("cli.import"):
        import fusionrep.cli  # noqa: F401  (imports every layer)
    from fusionrep.chartable import character_table
    from fusionrep.invariants import irreducible_invariants
    from fusionrep.jobspec import load_jobspec, realize
    from fusionrep.ringpres import (adic_equivalence_exponent,
                                    completed_presentation, presentation,
                                    quotient_by_ideal_power,
                                    structure_constants)
    from fusionrep.spectrum import prime_symbols
    from fusionrep.twisted import (completed_module, module_structure,
                                   twisted_invariant_basis)

    with span("jobspec.load"):
        spec = load_jobspec(args.specfile)
    with span("jobspec.realize"):
        job = realize(spec, os.path.dirname(os.path.abspath(args.specfile)))
    F = job.fusion
    cmd = args.command

    if cmd != "saturation":
        with span("fusion.element_classes"):
            F.element_classes()

    if cmd in ("repring", "ktheory", "adic", "twisted"):
        with span("chartable.table"):
            count("chartable.irreducibles", len(character_table(F.S)))
        with span("invariants.basis"):
            B = irreducible_invariants(F)
        count("invariants.basis_size", len(B.names))

    if cmd in ("repring", "ktheory", "adic"):
        with span("ringpres.structure_constants"):
            P = presentation(B)
    if cmd == "ktheory":
        with span("ringpres.completion"):
            completed_presentation(P)
    elif cmd == "spectrum":
        primes = [int(q) for q in args.primes.split(",")]
        with span("spectrum.poset"):
            poset = prime_symbols(F, primes, conductor="order"
                                  if args.conductor_order else "exponent")
        count("spectrum.nodes", len(poset.nodes))
    elif cmd == "saturation":
        with span("fusion.saturation"):
            rep = F.check_saturation(allow_large=args.saturation_large)
        count("fusion.morphisms_checked", rep.morphisms_checked)
        count("fusion.subgroup_classes_checked", rep.classes_checked)
    elif cmd == "adic":
        for i in range(1, args.k + 1):
            with span("ringpres.adic_exponent"):
                adic_equivalence_exponent(F, i)
            with span("ringpres.ideal_quotient"):
                quotient_by_ideal_power(P, i)
    elif cmd == "twisted":
        E = job.extension
        with span("chartable.ext_table"):
            count("chartable.irreducibles", len(character_table(E.group)))
        with span("twisted.basis"):
            TB = twisted_invariant_basis(E, job.fusion_alpha, base=F)
        count("twisted.a_representations", len(TB.a_reps))
        with span("twisted.module"):
            TM = module_structure(F, B, E, TB)
        with span("ringpres.structure_constants"):
            P = structure_constants(B)
        with span("twisted.completed_module"):
            completed_module(TM, P)

    end = time.perf_counter()
    json.dump({"start": _T0, "end": end, "spans": SPANS, "counts": COUNTS},
              sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
