#!/usr/bin/env python3
"""Check that the benchmark's simulated statistics repeat exactly.

    python3 perfbench/check_exact.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs each workload (default: all four) twice through perfbench/run.py
with --trace 1 and one seed, in separate processes, and requires the
exact statistics ("exact NAME VALUE" lines) and the statistics digest
("digest 0x..." line) to agree bit for bit.  Within one run the benchmark
already requires every repetition, traced or not, to reproduce one
digest.  For the seed recorded in perfbench/digests.json the digests
must also equal the recorded ones: a change meant only to make the
simulator faster must leave them unchanged.  Exits 1 on any
disagreement.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("func_sharing", "func_scatter", "timed_crossbar", "sweep_mixed")


def exact_stats(workload, seed, seconds):
    """The exact statistics and digest one traced run prints."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True).stdout
    lines = out.splitlines()
    if not lines or not json.loads(lines[-1])["correct"]:
        sys.exit("check_exact: %s did not run correctly" % workload)
    stats = {}
    for line in lines:
        word = line.split()
        if len(word) == 3 and word[0] == "exact":
            stats[word[1]] = word[2]
        elif word and word[0] == "digest":
            stats["digest"] = word[1]
    if "digest" not in stats:
        sys.exit("check_exact: %s printed no digest" % workload)
    return stats


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=2)
    p.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = p.parse_args()
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    pinned = recorded["digests"] if args.seed == recorded["seed"] else {}

    ok = True
    for w in args.workloads:
        a = exact_stats(w, args.seed, args.seconds)
        b = exact_stats(w, args.seed, args.seconds)
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if w in pinned and a["digest"] != pinned[w]:
            differ.append("digest vs digests.json (%s)" % pinned[w])
        print("%-15s %s %s" % (w, a["digest"],
                               "ok" if not differ else
                               "DIFFER: " + ", ".join(differ)))
        ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
