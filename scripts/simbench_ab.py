#!/usr/bin/env python3
"""Interleaved A/B comparison of two simbench binaries.

Runs each workload `--pairs` times on both binaries, alternating which side
runs first. For every end-to-end metric in BENCHMARK.json (the per-layer
ones with `--trace 1`) that the runs report, it prints each side's median
and quartiles, the median ratio (B / A), how many pairs B won, and whether
the medians differ by more than A's interquartile range.

Exits non-zero if any run reports `failed > 0` or an incorrect result, or if
the per-input digests of simulated outputs differ between the two sides
(pass `--allow-digest-change` for a declared re-bless).

Exits 2 before any run if the two binaries' resolved paths differ in length:
the build path is compiled into the binary and moves its code's layout, so
build both sides in checkouts whose paths have equal length.

    python3 scripts/simbench_ab.py BASE_BIN CHANGE_BIN \\
        --workloads serve_refresh serve_steady --pairs 10 --seconds 28 --seed 1
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
DIGEST = re.compile(r"^\s+(\d+): .* digest ([0-9a-f]+) ")


def run(binary, workload, seconds, seed, trace):
    """One simbench run: (result JSON, {input: digest})."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    digests = {m[1]: m[2] for m in map(DIGEST.match, lines) if m}
    if not digests:
        sys.exit(f"no per-input digests in the output of {' '.join(cmd)}")
    return json.loads(lines[-1]), digests


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(xs)

    def q(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return q(0.25), q(0.5), q(0.75)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline simbench binary")
    ap.add_argument("b", help="changed simbench binary")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--allow-digest-change", action="store_true",
                    help="do not fail when the two sides' digests differ")
    args = ap.parse_args()

    paths = [str(Path(b).resolve()) for b in (args.a, args.b)]
    if len(paths[0]) != len(paths[1]):
        print(f"error: the binaries' paths differ in length ({len(paths[0])} vs "
              f"{len(paths[1])} chars): {paths[0]} and {paths[1]}; build both "
              "sides at paths of equal length", file=sys.stderr)
        sys.exit(2)

    bench = json.loads(BENCHMARK.read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    ok = True
    for w in args.workloads:
        vals = {"a": [], "b": []}
        digests = {"a": set(), "b": set()}
        for i in range(args.pairs):
            for side in ("ab" if i % 2 == 0 else "ba"):
                res, dig = run(getattr(args, side), w, args.seconds, args.seed,
                               args.trace)
                if not res["correct"] or res["failed"] > 0:
                    print(f"FAIL {w} side {side} pair {i}: {json.dumps(res)}")
                    ok = False
                vals[side].append(res["metrics"])
                digests[side].add(tuple(sorted(dig.items())))
                print(f"  {w} pair {i} side {side}: "
                      + " ".join(f"{k}={v['value']:.6g}"
                                 for k, v in res["metrics"].items()), file=sys.stderr)

        runs = vals["a"] + vals["b"]
        metrics = [m for m in declared if all(m["name"] in r for r in runs)]

        print(f"\n{w}: {args.pairs} pairs, seed {args.seed}, {args.seconds} s, "
              f"trace {args.trace}")
        wide = max([len(m["name"]) for m in metrics] + [6])
        print(f"  {'metric':<{wide}} {'A median [q1, q3]':<36} {'B median [q1, q3]':<36}"
              f" {'B/A':>7} {'B wins':>7} {'>IQR(A)':>8}")
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            a = [r[name]["value"] for r in vals["a"]]
            b = [r[name]["value"] for r in vals["b"]]
            qa, qb = quartiles(a), quartiles(b)
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            beyond = abs(qb[1] - qa[1]) > qa[2] - qa[0]
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            cell_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            cell_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            print(f"  {name:<{wide}} {cell_a:<36} {cell_b:<36} {ratio:>7.3f}"
                  f" {f'{wins}/{args.pairs}':>7} {'yes' if beyond else 'no':>8}")

        for side in ("a", "b"):
            if len(digests[side]) != 1:
                print(f"FAIL {w}: side {side} digests vary between its own runs")
                ok = False
        if digests["a"] != digests["b"]:
            if args.allow_digest_change:
                print(f"NOTE {w}: digests differ between sides (allowed)")
            else:
                print(f"FAIL {w}: per-input digests differ between sides")
                ok = False
        else:
            print("  digests identical on both sides")

    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
