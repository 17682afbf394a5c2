#!/usr/bin/env python3
"""Golden ledger: every experiment's output, pinned by digest.

`check` builds the experiment bins and the examples, runs each entry of
ENTRIES at CI scale, and compares the sha256 of its stdout and of every
file it writes (the saved `experiments/*.json`, and for the cluster bins
the `--telemetry` JSONL and `--trace` JSON) with `GOLDEN.json`. It prints
each entry's wall time, and for a file that differs it names the file and
every field whose values moved (field digests are compared even where the
file digest matches, so a stale field digest fails too). JSON fields are named as in
`report_fielddiff.py`: the path with list indices folded to `[]`. It exits
1 if anything differs or an entry fails.

`bless` runs the same entries and rewrites `GOLDEN.json`. A re-bless is a
declared change, so it requires the `report_fielddiff.py --allow` regex and
`--rtol` the change was checked with, records both, and refuses to write if
a JSON field outside `--allow` moved against the previous ledger.

Fields that carry host time cannot be pinned. They are listed per file in
GOLDEN.json's `exclude` map (full-match regexes over field names), left out
of the field digests, and the file's digest is then taken over the kept
field digests instead of its bytes. `bless` keeps the map as it is.

    python3 scripts/golden.py check [--only e9_cluster e13_control]
    python3 scripts/golden.py bless --allow '' --rtol 0
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "GOLDEN.json"
# Relative to ROOT, so paths the bins echo to stdout are the same on every
# checkout.
OUT = Path("target") / "golden"
# Sweep bins print their worker count, so every one of them is pinned.
THREADS = ["--threads", "2"]


def obs_flags(name):
    return ["--telemetry", str(OUT / name / "telemetry.jsonl"),
            "--trace", str(OUT / name / "trace.json")]


# (entry name, "bin" or "example", target, extra args)
ENTRIES = [
    ("fig1_endurance", "bin", "fig1_endurance", []),
    ("t1_footprint", "bin", "t1_footprint", []),
    ("t2_rwratio", "bin", "t2_rwratio", []),
    ("t3_hbm", "bin", "t3_hbm", []),
    ("t4_techmatrix", "bin", "t4_techmatrix", []),
    ("t5_hybrid", "bin", "t5_hybrid", THREADS),
    ("e6_housekeeping", "bin", "e6_housekeeping", []),
    ("e7_dcm", "bin", "e7_dcm", THREADS),
    ("e8_ecc", "bin", "e8_ecc", []),
    ("e10_wear", "bin", "e10_wear", []),
    ("e11_prefix", "bin", "e11_prefix", []),
    ("a1_retention_sweep", "bin", "a1_retention_sweep", THREADS),
    ("a2_controller", "bin", "a2_controller", []),
    ("a3_mlc", "bin", "a3_mlc", []),
    ("a4_crossbar", "bin", "a4_crossbar", []),
    ("a5_compression", "bin", "a5_compression", []),
    ("a6_sensitivity", "bin", "a6_sensitivity", THREADS),
    ("e12_sessions", "bin", "e12_sessions", []),
    ("e9_cluster", "bin", "e9_cluster", THREADS + obs_flags("e9_cluster")),
    ("e11_faults", "bin", "e11_faults",
     ["--quick"] + THREADS + obs_flags("e11_faults")),
    ("e13_control", "bin", "e13_control",
     ["--quick"] + THREADS + obs_flags("e13_control")),
    ("e16_soak", "bin", "e16_soak", ["--quick"]),
    ("quickstart", "example", "quickstart", []),
    ("kv_cache_serving", "example", "kv_cache_serving", []),
    ("inference_cluster", "example", "inference_cluster", []),
    ("memory_planner", "example", "memory_planner", []),
]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def leaves(doc, path=""):
    """Yields (field, value) for every leaf, list indices folded to []."""
    if isinstance(doc, dict) and doc:
        for k, v in doc.items():
            yield from leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(doc, list) and doc:
        for v in doc:
            yield from leaves(v, path + "[]")
    else:
        yield path or "<root>", doc


def field_digests(doc, exclude):
    """{field: 16-hex digest of its values in document order}."""
    values = {}
    for field, v in leaves(doc):
        if not any(re.fullmatch(x, field) for x in exclude):
            values.setdefault(field, []).append(json.dumps(v))
    return {f: sha256("\n".join(vs).encode())[:16] for f, vs in values.items()}


def file_record(path, exclude):
    data = path.read_bytes()
    if path.suffix == ".jsonl":
        doc = [json.loads(line) for line in data.decode().splitlines()]
    elif path.suffix == ".json":
        doc = json.loads(data)
    else:
        return {"sha256": sha256(data)}
    fields = field_digests(doc, exclude)
    digest = (sha256(json.dumps(fields, sort_keys=True).encode())
              if exclude else sha256(data))
    return {"sha256": digest, "fields": fields}


def build():
    for args in (["-p", "mrm-bench", "--bins"], ["-p", "mrm", "--examples"]):
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"]
                       + args, cwd=ROOT, check=True)


def run_entry(name, kind, target, extra, exclude):
    """Runs one entry; returns (record, wall seconds, error or None)."""
    out = ROOT / OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    release = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / "target")) / "release"
    binary = release / ("examples" if kind == "example" else "") / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(OUT / name))
    start = time.monotonic()
    proc = subprocess.run([str(binary)] + extra, cwd=ROOT, env=env,
                          capture_output=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return None, wall, f"exit {proc.returncode}: {' | '.join(tail)}"
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        files[rel] = file_record(path, exclude.get(f"{name}/{rel}", []))
    record = {"argv": [target] + extra, "stdout": sha256(proc.stdout),
              "files": files}
    return record, wall, None


def diff(name, want, got):
    """Lines naming what differs between two records of one entry."""
    out = []
    if want["argv"] != got["argv"]:
        out.append(f"{name}: argv {got['argv']} != ledger {want['argv']}")
    if want["stdout"] != got["stdout"]:
        out.append(f"{name}: stdout differs")
    for rel in sorted(set(want["files"]) | set(got["files"])):
        w, g = want["files"].get(rel), got["files"].get(rel)
        if w is None or g is None:
            out.append(f"{name}/{rel}: {'not in ledger' if w is None else 'not written'}")
        else:
            # Field digests are compared whenever both records carry them,
            # so a stale field digest fails even when the file digest holds.
            wf, gf = w.get("fields", {}), g.get("fields", {})
            moved = [f for f in sorted(set(wf) | set(gf)) if wf.get(f) != gf.get(f)]
            if moved:
                out.append(f"{name}/{rel}: differs in " + ", ".join(moved))
            elif w["sha256"] != g["sha256"]:
                out.append(f"{name}/{rel}: differs in bytes only (layout)")
    return out


def run_all(names, exclude):
    build()
    records, failed, total = {}, [], 0.0
    for name, kind, target, extra in ENTRIES:
        if names and name not in names:
            continue
        record, wall, err = run_entry(name, kind, target, extra, exclude)
        total += wall
        print(f"  {name:<20} {wall:8.2f} s" + (f"  FAILED {err}" if err else ""),
              flush=True)
        if err:
            failed.append(f"{name}: {err}")
        else:
            records[name] = record
    print(f"  {'total':<20} {total:8.2f} s")
    return records, failed


def load():
    if not LEDGER.exists():
        return {"exclude": {}, "entries": {}}
    return json.loads(LEDGER.read_text())


def cmd_check(args):
    ledger = load()
    known = [e[0] for e in ENTRIES]
    unknown = [n for n in args.only if n not in known]
    if unknown:
        sys.exit(f"unknown entries {unknown}; known: {' '.join(known)}")
    stale = sorted(set(ledger["entries"]) ^ set(known))
    records, problems = run_all(args.only, ledger["exclude"])
    if stale and not args.only:
        problems.append(f"entry list differs from the ledger: {stale}")
    for name, got in records.items():
        want = ledger["entries"].get(name)
        if want is None:
            continue
        problems += diff(name, want, got)
    for p in problems:
        print(f"DIFF {p}")
    print("golden: " + ("OK" if not problems else f"{len(problems)} difference(s)"))
    sys.exit(1 if problems else 0)


def cmd_bless(args):
    ledger = load()
    try:
        allow = re.compile(args.allow)
    except re.error as e:
        sys.exit(f"--allow is not a regex: {e}")
    records, failed = run_all([], ledger["exclude"])
    if failed:
        sys.exit("not blessing, entries failed:\n" + "\n".join(failed))
    outside = []
    for name, got in records.items():
        want = ledger["entries"].get(name)
        for line in diff(name, want, got) if want else []:
            print(f"moved {line}")
        for rel, g in got["files"].items():
            w = (want or {}).get("files", {}).get(rel, {}).get("fields", {})
            outside += [f"{name}/{rel}: {f}" for f, d in g.get("fields", {}).items()
                        if w and w.get(f) != d and not allow.fullmatch(f)]
    if outside:
        sys.exit("not blessing, fields outside --allow moved:\n" + "\n".join(outside))
    ledger["bless"] = {"allow": args.allow, "rtol": args.rtol}
    ledger["entries"] = records
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"blessed {len(records)} entries into {LEDGER.name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    check = sub.add_parser("check", help="compare every entry with GOLDEN.json")
    check.add_argument("--only", nargs="+", default=[], metavar="ENTRY",
                       help="run only these entries")
    bless = sub.add_parser("bless", help="rewrite GOLDEN.json (declared re-bless)")
    bless.add_argument("--allow", required=True, metavar="REGEX",
                       help="report_fielddiff.py --allow regex of this re-bless")
    bless.add_argument("--rtol", required=True, type=float,
                       help="report_fielddiff.py --rtol of this re-bless")
    args = ap.parse_args()
    (cmd_check if args.cmd == "check" else cmd_bless)(args)


if __name__ == "__main__":
    main()
