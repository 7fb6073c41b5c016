"""Cold-CLI benchmark for fusionrep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a fixed list of
``fusionrep <command> <spec> --json`` jobs, run as a closed loop of cold
processes, one at a time, the way a user runs them.  Before each job a
cold ``fusion-classes`` run on the job's spec file measures set-up: process
start, imports, spec parsing, ``realize`` and the element classes.  Whole
rounds of the job list repeat until ``--seconds`` have passed, and at least
``MIN_ROUNDS`` times; each metric is the median over rounds, so drift on
the machine falls on every job.

The seed generates the inputs of the ``twisted``, ``saturation125`` and
``adic27`` workloads (see ``gen.py``) and orders the jobs of a round.
Every output is checked by ``checks.py`` after the timed region; a job
that exits non-zero or fails a check counts as failed.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
each job and set-up run is also repeated in a traced process
(``trace_job.py``) and the per-layer metrics are printed.  Spans go to
``.perfbench_out/trace-<workload>-<seed>.json``.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "fusionrep", "fixtures")
OUT = os.path.join(ROOT, ".perfbench_out")
ADIC_K = 3
# Even the longest workload takes a median over this many rounds.
MIN_ROUNDS = 2
# A run must end within 180 s: no process outlives this many seconds from
# the start, and one that would is killed and counted as failed.
HARD_LIMIT_S = 165.0

# (command, input, extra arguments).  An input is a bundled fixture stem or
# the name of a generated spec (gen.SHAPES).
WORKLOADS = {
    "ring343": [
        ("ktheory", "rv1", ()),
        ("ktheory", "onan", ()),
        ("ktheory", "he", ()),
        ("repring", "fi24p", ()),
        ("spectrum", "he", ("--conductor-order", "--primes", "2,3,7")),
    ],
    "twisted": [
        ("twisted", "a4_sl23", ()),
        ("twisted", "tw5_q8", ()),
        ("twisted", "tw7_sl23", ()),
    ],
    "saturation125": [
        ("saturation", "sat5_q8", ("--saturation-large",)),
        ("saturation", "sat5_c4c4", ("--saturation-large",)),
        ("saturation", "sat5_u5", ("--saturation-large",)),
    ],
    "adic27": [
        ("adic", "adic3_inner", ("--k", str(ADIC_K))),
        ("adic", "adic3_q8", ("--k", str(ADIC_K))),
        ("adic", "sigma_5", ("--k", str(ADIC_K))),
        ("adic", "sigma_7", ("--k", str(ADIC_K))),
        ("adic", "a4", ("--k", str(ADIC_K))),
    ],
}

# |S| and p of the bundled fixtures the workloads use.
FIXTURE_GROUPS = {"rv1": (343, 7), "onan": (343, 7),
                  "he": (343, 7), "fi24p": (343, 7),
                  "a4_sl23": (4, 2), "sigma_5": (5, 5), "sigma_7": (7, 7),
                  "a4": (4, 2)}

LAYERS = ("cli.import", "jobspec.load", "jobspec.realize",
          "fusion.element_classes", "chartable.table", "invariants.basis",
          "ringpres.structure_constants", "ringpres.completion",
          "spectrum.poset", "chartable.ext_table", "twisted.basis",
          "twisted.module", "twisted.completed_module", "fusion.saturation",
          "ringpres.adic_exponent", "ringpres.ideal_quotient")
COUNTS = ("chartable.irreducibles", "invariants.basis_size",
          "fusion.morphisms_checked", "fusion.subgroup_classes_checked",
          "twisted.a_representations", "spectrum.nodes")


class Input:
    def __init__(self, name, path, order, p, meta=None):
        self.name, self.path, self.order, self.p = name, path, order, p
        self.meta = meta or {}


def make_inputs(seed):
    """Bundled fixtures plus the generated specs for this seed."""
    inputs = {stem: Input(stem, os.path.join(FIXTURES, stem + ".fus"), n, p)
              for stem, (n, p) in FIXTURE_GROUPS.items()}
    gen_dir = os.path.join(OUT, f"inputs-{seed}")
    for e in gen.generate(seed, gen_dir)["inputs"]:
        order = e["p"] ** 2 if e["workload"] == "twisted" else e["p"] ** 3
        inputs[e["name"]] = Input(e["name"], os.path.join(gen_dir, e["file"]),
                                  order, e["p"], e)
    return inputs


def spawn(argv, out_path, deadline):
    """Run one cold process; return (exit code, wall s, cpu s, max rss MB).

    The process is killed at ``deadline`` (a ``time.perf_counter`` value).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


def cli_argv(command, inp, extra):
    return [sys.executable, "-m", "fusionrep.cli", command, inp.path,
            "--json", *extra]


def trace_argv(command, inp, extra):
    return [sys.executable, os.path.join(HERE, "trace_job.py"), SRC, command,
            inp.path, *extra]


class Op:
    """One cold process: a set-up probe or a job."""

    def __init__(self, kind, command, inp, extra):
        self.kind, self.command, self.inp, self.extra = kind, command, inp, extra
        self.results = []   # (exit code, wall, cpu, rss, output path)

    def key(self):
        return (self.command, self.inp.name, self.extra)


def run_round(ops, tmp, rnd, deadline, trace_spans=None):
    for n, op in enumerate(ops):
        path = os.path.join(tmp, f"r{rnd}-{n}.json")
        res = spawn(cli_argv(op.command, op.inp, op.extra), path, deadline)
        op.results.append(res + (path,))
        if trace_spans is not None:
            tpath = os.path.join(tmp, f"r{rnd}-{n}.trace.json")
            code, wall, _, _ = spawn(trace_argv(op.command, op.inp, op.extra),
                                     tpath, deadline)
            job = f"{rnd}-{n}"
            spans, counts = [], {}
            if code == 0:
                with open(tpath, encoding="utf-8") as fh:
                    trace = json.load(fh)
                counts = trace["counts"]
                spans = [{"name": "job", "start": trace["start"],
                          "end": trace["end"], "parent": None, "job": job}]
                spans += [{"name": name, "start": start, "end": end,
                           "parent": "job", "job": job}
                          for name, start, end in trace["spans"]]
            trace_spans.append({"job": job, "kind": op.kind,
                                "command": op.command, "input": op.inp.name,
                                "untraced_wall": res[1], "traced_wall": wall,
                                "exit": code, "spans": spans,
                                "counts": counts})


# --- checks -----------------------------------------------------------------------


def check_output(op, out, context):
    inp = op.inp
    if op.command == "fusion-classes":
        return checks.check_classes(out, inp.order)
    if op.command == "ktheory":
        return checks.check_ktheory(out, inp.name)
    if op.command == "repring":
        return checks.check_repring(out, inp.name)
    if op.command == "spectrum":
        return checks.check_spectrum(out, context["classes"][inp.name])
    if op.command == "twisted":
        if inp.meta:
            return checks.check_twisted_generated(
                out, inp.p, inp.meta["nonzero_orbits"])
        return checks.check_twisted_a4(out)
    if op.command == "saturation":
        return checks.check_saturation(out, inp.meta["p_prime"])
    if op.command == "adic":
        if context["quotients"][inp.name] is None:
            return ["repring for the recomputation of R/I^k failed"]
        return checks.check_adic(out, inp.p, inp.meta.get("inner", False),
                                 ADIC_K, context["quotients"][inp.name])
    return [f"no check for {op.command}"]


def check_all(ops, tmp, deadline):
    """Count failed operations; every distinct output is checked once."""
    context = {"classes": {}, "quotients": {}}
    for op in ops:
        if op.command == "fusion-classes":
            for code, *_, path in op.results:
                if code == 0:
                    with open(path, encoding="utf-8") as fh:
                        context["classes"][op.inp.name] = len(
                            json.load(fh)["classes"])
        if op.command == "adic" and op.inp.name not in context["quotients"]:
            path = os.path.join(tmp, f"repring-{op.inp.name}.json")
            code = spawn(cli_argv("repring", op.inp, ()), path, deadline)[0]
            quotients = None
            if code == 0:
                with open(path, encoding="utf-8") as fh:
                    try:
                        quotients = checks.ideal_power_quotients(
                            json.load(fh), ADIC_K)
                    except (ValueError, KeyError, TypeError, IndexError):
                        pass
            context["quotients"][op.inp.name] = quotients
    attempted = failed = wrong = 0
    problems = []
    verdicts = {}
    for op in ops:
        for code, *_, path in op.results:
            attempted += 1
            if code != 0:
                failed += 1
                problems.append(f"{op.command} {op.inp.name}: exit {code}")
                continue
            with open(path, "rb") as fh:
                raw = fh.read()
            key = (op.key(), raw)
            if key not in verdicts:
                try:
                    verdicts[key] = check_output(op, json.loads(raw), context)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    verdicts[key] = [f"unreadable output: {exc!r}"]
            if verdicts[key]:
                failed += 1
                wrong += 1
                problems.extend(f"{op.command} {op.inp.name}: {p}"
                                for p in verdicts[key])
    return attempted, failed, wrong, problems


# --- metrics ----------------------------------------------------------------------


def end_to_end(probes, jobs, nrounds):
    batch = [sum(j.results[r][1] for j in jobs) for r in range(nrounds)]
    cpu = [sum(j.results[r][2] for j in jobs) for r in range(nrounds)]
    slowest = max(statistics.median(res[1] for res in j.results)
                  for j in jobs)
    setup = statistics.median(res[1] for p in probes for res in p.results)
    rss = max(res[3] for j in jobs for res in j.results)
    return {
        "batch_s": (statistics.median(batch), "s"),
        "batch_cpu_s": (statistics.median(cpu), "s"),
        "slowest_job_s": (slowest, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(records, nrounds):
    """Self time of each layer and the counts, summed over a round (median
    over rounds), plus the untraced time no span covers and the overhead
    of tracing the jobs."""
    rounds = [[r for r in records if r["job"].startswith(f"{k}-")]
              for k in range(nrounds)]
    values = {f"{name}_s": [] for name in LAYERS}
    values.update({name: [] for name in COUNTS})
    values.update({"cli.unattributed_s": [], "trace.batch_s": [],
                   "trace.overhead_pct": []})
    for recs in rounds:
        sums = {k: 0 if k in COUNTS else 0.0 for k in values}
        untraced_jobs = traced_jobs = 0.0
        for r in recs:
            if r["exit"] != 0:
                continue
            covered = 0.0
            for sp in r["spans"]:
                if sp["parent"] is not None:   # stages have no children
                    sums[f"{sp['name']}_s"] += sp["end"] - sp["start"]
                    covered += sp["end"] - sp["start"]
            for name, n in r["counts"].items():
                sums[name] += n
            sums["cli.unattributed_s"] += r["untraced_wall"] - covered
            if r["kind"] == "job":
                untraced_jobs += r["untraced_wall"]
                traced_jobs += r["traced_wall"]
        sums["trace.batch_s"] = traced_jobs
        if untraced_jobs:
            sums["trace.overhead_pct"] = 100.0 * (traced_jobs / untraced_jobs
                                                  - 1)
        for k, v in sums.items():
            values[k].append(v)
    units = {name: "count" for name in COUNTS}
    units["trace.overhead_pct"] = "%"
    # a count that differs between rounds fails its op in main(); the lower
    # median keeps the others whole
    return {k: (statistics.median_low(v) if k in COUNTS
                else statistics.median(v), units.get(k, "s"))
            for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fusionrep cold-CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through spawn() so the running job is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "fusionrep", "cli.py")):
        print(f"error: no fusionrep sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        inputs = make_inputs(args.seed)
        order = list(WORKLOADS[args.workload])
        random.Random(args.seed).shuffle(order)
        probes, jobs, ops = [], [], []
        for command, name, extra in order:
            probe = Op("setup", "fusion-classes", inputs[name], ())
            job = Op("job", command, inputs[name], tuple(extra))
            probes.append(probe)
            jobs.append(job)
            ops += [probe, job]

        hard_end = time.perf_counter() + HARD_LIMIT_S
        # fill the bytecode cache: a user does not pay this on every run
        spawn(cli_argv("fusion-classes", inputs["a4"], ()),
              os.path.join(tmp, "warmup.json"), hard_end)
        records = [] if args.trace else None
        measure_end = time.perf_counter() + args.seconds
        nrounds = 0
        while True:
            run_round(ops, tmp, nrounds, hard_end, records)
            nrounds += 1
            if nrounds >= MIN_ROUNDS and time.perf_counter() >= measure_end:
                break

        attempted, failed, wrong, problems = check_all(ops, tmp, hard_end)
        if args.trace:
            first_counts = {}   # the counts of each op in its first round
            for r in records:
                attempted += 1
                if r["exit"] != 0:
                    failed += 1
                    problems.append(f"traced {r['command']} {r['input']}: "
                                    f"exit {r['exit']}")
                    continue
                want = first_counts.setdefault(r["job"].split("-")[1],
                                               r["counts"])
                if r["counts"] != want:
                    failed += 1
                    problems.append(f"traced {r['command']} {r['input']}: "
                                    f"counts {r['counts']}, earlier {want}")
            with open(os.path.join(
                    OUT, f"trace-{args.workload}-{args.seed}.json"), "w",
                    encoding="utf-8") as fh:
                json.dump(records, fh)
            metrics = per_layer(records, nrounds)
        else:
            metrics = end_to_end(probes, jobs, nrounds)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload}: {nrounds} round(s), {attempted} operations",
          file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
