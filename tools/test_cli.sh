#!/bin/sh
# Command-line contract of the four drivers: serve and cluster write
# identical result files, output write errors fail the run, malformed
# numbers, listen specs and unknown flags are usage errors naming the
# flag or spec.
#
# Usage: test_cli.sh SOLVE SERVE SERVED CLUSTERD   (the four binaries)

set -u
solve=$1 serve=$2 served=$3 clusterd=$4
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

# expect RC NEEDLE CMD...: CMD must exit RC; a non-empty NEEDLE must
# appear in its stderr.
expect() {
    rc=$1 needle=$2
    shift 2
    "$@" > "$tmp/stdout" 2> "$tmp/stderr"
    got=$?
    if [ "$got" -ne "$rc" ]; then
        echo "FAIL (exit $got, want $rc): $*"
        sed 's/^/  stderr: /' "$tmp/stderr"
        failures=$((failures + 1))
    elif [ -n "$needle" ] && ! grep -q -- "$needle" "$tmp/stderr"; then
        echo "FAIL (stderr lacks '$needle'): $*"
        sed 's/^/  stderr: /' "$tmp/stderr"
        failures=$((failures + 1))
    else
        echo "ok: $*"
    fi
}

# One batch, two fronts, one byte stream.
expect 0 "" "$serve" --workload 8 --batch-seed 42 --out "$tmp/serve.jsonl"
expect 0 "" "$clusterd" --workload 8 --batch-seed 42 --workers 2 \
    --out "$tmp/cluster.jsonl"
if ! cmp "$tmp/serve.jsonl" "$tmp/cluster.jsonl"; then
    echo "FAIL: serve and clusterd result files differ"
    failures=$((failures + 1))
fi
if [ "$(wc -l < "$tmp/serve.jsonl")" -ne 8 ]; then
    echo "FAIL: expected 8 result lines"
    failures=$((failures + 1))
fi

# A lost result stream is an error, not a silent success.
if [ -w /dev/full ]; then
    expect 1 /dev/full "$serve" --workload 4 --out /dev/full
    expect 1 /dev/full "$serve" --workload 4 --out "$tmp/r.jsonl" \
        --telemetry /dev/full
    expect 1 /dev/full "$clusterd" --workload 4 --workers 2 --out /dev/full
fi

# Numbers are parsed whole; counts take no sign.
expect 1 --threads "$solve" --benchmark F1 --threads 0
expect 1 --iterations "$solve" --benchmark F1 --iterations 5x
expect 1 --threads "$serve" --workload 1 --threads abc
expect 1 --max-queue "$serve" --workload 1 --max-queue -5
expect 1 --cache-mb "$serve" --workload 1 --cache-mb 1x
expect 1 --max-cost "$serve" --workload 1 --max-cost 1e3x
# A budget of 2^33 MiB or more would not cross the cluster wire exactly.
expect 1 --cache-mb "$serve" --workload 1 --cache-mb 8589934592
expect 1 --max-queue "$served" --listen "unix:$tmp/d.sock" --max-queue -5
expect 1 --shed-margin "$served" --listen "unix:$tmp/d.sock" \
    --shed-margin 0.1.2
expect 1 --max-placements "$clusterd" --workload 1 --workers 1 \
    --max-placements 2x
expect 1 --workers "$clusterd" --workload 1 --workers -2

# Listen specs are strict: a bad port or host fails naming the spec,
# and a regular file at a unix socket path is never deleted.
echo "keep me" > "$tmp/precious"
expect 1 tcp:70000 "$served" --listen tcp:70000
expect 1 '"tcp:"' "$served" --listen tcp:
expect 1 "$tmp/precious" "$served" --listen "unix:$tmp/precious"
if [ "$(cat "$tmp/precious")" != "keep me" ]; then
    echo "FAIL: --listen unix:<regular file> touched the file"
    failures=$((failures + 1))
fi

# A raw control byte inside a request string fails the file at its line.
printf '{"id":"a\rb","benchmark":"F1","iterations":5}\n' > "$tmp/cr.jsonl"
expect 1 "cr.jsonl:1:" "$serve" --requests "$tmp/cr.jsonl"

# Cluster settings come from flags only, never the environment.
expect 1 "--workers" env RASENGAN_CLUSTER_WORKERS=2 "$clusterd" --workload 2

# Unknown flags, and the flags of removed features (the tuner, the
# kernel ISA override), are rejected everywhere.
for bin in "$solve" "$serve" "$served" "$clusterd"; do
    expect 1 --no-such-flag "$bin" --no-such-flag
    for removed in tune simd; do
        expect 1 "--$removed" "$bin" "--$removed" auto
    done
done

if [ "$failures" -ne 0 ]; then
    echo "$failures CLI check(s) failed"
    exit 1
fi
echo "all CLI checks passed"
