#!/usr/bin/env python3
"""Field-by-field diff of two JSON reports.

Walks both documents in step and prints every field whose values differ,
with the number of differing instances and the largest relative delta
|a - b| / max(|a|, |b|). A field is named by its path with list indices
folded to `[]`, so `tiers[].energy.read_j` covers every tier's entry.
Non-numeric differences and fields present on one side only count as an
infinite delta.

Exits 1 if a field whose name does not fully match the `--allow` regex
differs, or if any delta exceeds `--rtol` (default: no bound); exits 0
otherwise, printing "identical" when nothing differs.

    python3 scripts/report_fielddiff.py before.json after.json \\
        --allow '(.*\\.)?(energy_total_j|j_per_token|housekeeping_j|tiers\\[\\]\\.energy\\.\\w+)' \\
        --rtol 1e-9
"""

import argparse
import json
import math
import re
import sys


def rel_delta(a, b):
    """Relative delta of two values: 0 if equal, inf if not comparable."""
    if a == b and type(a) is type(b):
        return 0.0
    numeric = (int, float)
    if (isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        scale = max(abs(a), abs(b))
        return abs(a - b) / scale if scale and math.isfinite(scale) else math.inf
    return math.inf


def walk(a, b, path, out):
    """Records into `out` {field: [count, max delta]} every differing leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            sub = f"{path}.{k}" if path else k
            if k in a and k in b:
                walk(a[k], b[k], sub, out)
            else:
                note(out, sub, math.inf)
    elif isinstance(a, list) and isinstance(b, list):
        for x, y in zip(a, b):
            walk(x, y, path + "[]", out)
        if len(a) != len(b):
            note(out, path + "[].<length>", math.inf)
    else:
        d = rel_delta(a, b)
        if d:
            note(out, path or "<root>", d)


def note(out, field, delta):
    count, worst = out.get(field, (0, 0.0))
    out[field] = (count + 1, max(worst, delta))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline JSON report")
    ap.add_argument("b", help="changed JSON report")
    ap.add_argument("--allow", metavar="REGEX",
                    help="field names (full match) that may differ")
    ap.add_argument("--rtol", type=float, default=math.inf,
                    help="largest relative delta any field may show")
    args = ap.parse_args()

    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    allow = re.compile(args.allow) if args.allow else None
    diffs = {}
    walk(a, b, "", diffs)

    ok = True
    if not diffs:
        print("identical")
    wide = max([len(f) for f in diffs] + [5])
    for field, (count, worst) in diffs.items():
        allowed = bool(allow and allow.fullmatch(field))
        flags = []
        if not allowed:
            flags.append("NOT ALLOWED")
        if worst > args.rtol:
            flags.append(f"> rtol {args.rtol:g}")
        ok = ok and not flags
        print(f"{field:<{wide}}  {count:>6} differ  max rel {worst:.3e}"
              + (f"  {'; '.join(flags)}" if flags else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
