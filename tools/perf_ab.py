#!/usr/bin/env python3
"""Compare two revisions of dir2b on the perfbench workloads.

    python3 tools/perf_ab.py BASE_REV HEAD_REV [--workload W ...]
                             [--pairs N] [--seconds S] [--seed N]

Checks each revision out into a temporary git worktree and builds it
through that tree's own perfbench/run.py.  Then, per workload and pair,
it runs both sides with --trace 0 (the end-to-end metrics) and then
both with --trace 1 (the per-layer ones); the side that goes first
alternates from pair to pair, so drift in the host's speed lands on
both alike.

For every metric it prints each side's median [q1, q3], the head/base
ratio of the medians and in how many pairs head was better, by the
direction in BASE's BENCHMARK.json (a change cannot loosen its own
gate).  Metrics equal in every pair, as exact counts must be, are only
named.  It also prints each side's failed share and whether the
statistics digests agree.

Exits 1 when a run is not correct, when on some workload head's failed
share exceeds base's, or when on some workload head's refs_per_s falls
below base x (1 - bound) in at least ceil(2N/3) of the N pairs, with
bound from BENCHMARK.json.  Absolute numbers never gate.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAILED = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`: (result JSON, digest or None)."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each tree builds into its own
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        result = FAILED
    digest = next((line.split()[1] for line in lines
                   if line.startswith("digest ")), None)
    return result, digest


def value(result, name):
    """A metric's value in one run's result, or None if it has none."""
    return (result["metrics"].get(name) or {}).get("value")


def fmt(x):
    if abs(x) >= 1e6:
        return "%.4gM" % (x / 1e6)
    if abs(x) >= 1e4:
        return "%.4gk" % (x / 1e3)
    return "%.4g" % x


def spread(xs):
    """('median [q1, q3]', median) of a list of numbers."""
    q1, med, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                   if len(xs) > 1 else xs * 3)
    return "%s [%s, %s]" % (fmt(med), fmt(q1), fmt(q3)), med


def report(bench, runs):
    """Print the metric table of one workload's runs."""
    rows = [("metric", "base median [q1, q3]", "head median [q1, q3]",
             "head/base", "wins")]
    same = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for m in bench[group]:
            b = [value(r, m["name"]) for r in runs["base"][trace]]
            h = [value(r, m["name"]) for r in runs["head"][trace]]
            if None in b + h or not any(b + h):
                continue
            if b == h:
                same.append(m["name"])
                continue
            (bs, bm), (hs, hm) = spread(b), spread(h)
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(b, h))
            rows.append((m["name"], bs, hs, "%.3f" % (hm / bm) if bm else "-",
                         "%d/%d" % (wins, len(b))))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    print(textwrap.fill("equal in every pair: " + (", ".join(same) or "-"),
                        width=79, subsequent_indent="  "))


def compare(args, trees, bench):
    """Run and report one workload after another; return the failures."""
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "refs_per_s")
    problems = []
    for w in args.workload:
        runs = {side: {0: [], 1: []} for side in trees}
        digests = {side: set() for side in trees}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for trace in (0, 1):
                for side in order:
                    print("perf_ab: %s pair %d/%d %s --trace %d"
                          % (w, i + 1, args.pairs, side, trace),
                          file=sys.stderr, flush=True)
                    result, digest = run(trees[side], w, args.seed,
                                         args.seconds, trace)
                    runs[side][trace].append(result)
                    digests[side].add(digest or "-")
        print("\n== %s: %d pairs x %d s, seed %d"
              % (w, args.pairs, args.seconds, args.seed))
        report(bench, runs)
        share = {}
        for side in trees:
            every = runs[side][0] + runs[side][1]
            if not all(r["correct"] for r in every):
                problems.append("%s: a %s run was not correct" % (w, side))
            attempted = sum(r["attempted"] for r in every)
            share[side] = sum(r["failed"] for r in every) / max(1, attempted)
        print("failed share: base %.4g, head %.4g"
              % (share["base"], share["head"]))
        if share["head"] > share["base"]:
            problems.append("%s: head fails more operations" % w)
        agree = digests["base"] == digests["head"] and len(digests["base"]) == 1
        print("digests %s: base %s, head %s"
              % ("agree" if agree else "DIFFER",
                 " ".join(sorted(digests["base"])),
                 " ".join(sorted(digests["head"]))))
        slower = sum((value(h, "refs_per_s") or 0) <
                     (value(b, "refs_per_s") or 0) * (1 - bound)
                     for b, h in zip(runs["base"][0], runs["head"][0]))
        if slower >= math.ceil(2 * args.pairs / 3):
            problems.append("%s: head refs_per_s below base x %.2f in %d "
                            "of %d pairs" % (w, 1 - bound, slower,
                                             args.pairs))
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--workload", action="append",
                   help="workload to compare (repeatable; default: all)")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    revs = {}
    for side in ("base", "head"):
        try:
            revs[side] = git("rev-parse", "--verify",
                             getattr(args, side) + "^{commit}")
        except subprocess.CalledProcessError:
            p.error("%s: no such revision" % getattr(args, side))

    tmp = tempfile.mkdtemp(prefix="perf_ab.")
    trees = {side: os.path.join(tmp, side) for side in revs}
    try:
        for side, rev in revs.items():
            git("worktree", "add", "--detach", trees[side], rev)
        with open(os.path.join(trees["base"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        args.workload = args.workload or names
        for w in args.workload:
            if w not in names:
                p.error("unknown workload %s (%s)" % (w, ", ".join(names)))
        print("perf_ab: base %s (%s), head %s (%s), %d CPUs"
              % (args.base, revs["base"][:12], args.head, revs["head"][:12],
                 os.cpu_count() or 0))
        for side in trees:
            # A short run builds the tree, so no measured run pays for it.
            print("perf_ab: building %s" % side, file=sys.stderr, flush=True)
            run(trees[side], args.workload[0], args.seed, 1, 0)
        problems = compare(args, trees, bench)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        git("worktree", "prune")
    print()
    for problem in problems:
        print("FAIL " + problem)
    print("perf_ab: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
