"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py

For every workload in BENCHMARK.json, each of the two sets runs ``run.py``
once per seed, seeds 1 to 10, one set after the other.  For every
end-to-end metric it prints, per set, the median and the spread (the
distance between the first and third quartile over the median), and the
shift of the second set's median from the first's, each against the
metric's bound.  It also checks that the share of failed operations is the
same in every run.  Raw results go to ``.perfbench_out/steady-<time>.json``.
The exit code is 0 only if every spread and shift is within its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in workloads}
    t0 = time.time()
    for s in range(2):
        for w in workloads:
            runs = []
            for seed in SEEDS:
                r = one_run(w, seed, bench["run_seconds"])
                runs.append(r)
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in r["metrics"].items())
                    + f", failed {r['failed']}/{r['attempted']}",
                    file=sys.stderr, flush=True)
            results[w].append(runs)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out",
                        f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)

    ok = True
    print(f"2 sets x {len(SEEDS)} runs per workload, "
          f"{time.time() - t0:.0f} s; raw results in {path}")
    print("workload       metric          bound   set1 median  spread"
          "   set2 median  spread   shift")
    for w in workloads:
        sets = results[w]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets
                                       for r in runs):
            ok = False
            print(f"{w}: failed shares {sorted(shares)} or incorrect output")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells = []
            meds = []
            for runs in sets:
                sp, med = spread([r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                cells.append(f"{med:12.4f}  {sp:6.3f}")
                if sp > bound:
                    ok = False
            shift = meds[1] / meds[0] - 1   # every metric is lower-better
            if shift > bound:
                ok = False
            print(f"{w:14s} {name:14s} {bound:5.2f}   " + "   ".join(cells)
                  + f"   {shift:+.3f}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
