#!/usr/bin/env bash
# Checks that the benchmark's soak loop reproduces e16_soak: at e16's
# seed and full scale, the counter tuple (checkpoints, sessions, kv_bytes,
# zone_rotations, work_items, reconfigs) must equal the one e16_soak saves,
# with the benchmark's per-call timers off and on.
#
# Run from the repository root: bash simbench/check_e16.sh
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
cargo run --release --offline --quiet -p mrm-bench --bin e16_soak > /dev/null
expected="$(tr -d ' \n' < "$target/experiments/e16_soak.json")"
echo "e16_soak saved:     $expected"

out="$(cargo run --release --offline --quiet --manifest-path simbench/Cargo.toml -- --e16-tuple)"
echo "$out" | sed 's/^/simbench /'
status=0
while read -r line; do
    got="$(echo "${line#*:}" | tr -d ' ')"
    if [ "$got" != "$expected" ]; then
        echo "MISMATCH: $line"
        status=1
    fi
done <<< "$out"
[ "$status" = 0 ] && echo "PASS: both tuples match e16_soak"
exit "$status"
