#!/bin/sh
# Cancellation smoke test: SIGINT a running sweep and assert the graceful
# shutdown contract — a valid partial CSV with cancelled rows, a summary on
# stderr, and a non-zero exit. `make cancel-smoke` and CI run this; the same
# contract is covered in-process by cmd/sweep's tests, so this script is the
# end-to-end check that the signal path itself works. A second step checks
# that cmd/experiments -timeout cancels a figure harness promptly.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/sweep" ./cmd/sweep

# A grid long enough that SIGINT lands mid-run on any machine.
"$tmp/sweep" -workloads 505.mcf_r -designs Simple,UnisonCache,DICE,Baryon \
    -accesses 500000 -seeds 1,2,3,4 \
    >"$tmp/out.csv" 2>"$tmp/err.log" &
pid=$!

sleep 3
kill -INT "$pid"

# The sweep must exit on its own (non-zero) after the signal.
status=0
wait "$pid" || status=$?
if [ "$status" -eq 0 ]; then
    echo "FAIL: sweep exited 0 after SIGINT" >&2
    exit 1
fi

# The partial CSV must be valid (header + consistent field count) and carry
# cancelled rows.
header=$(head -n1 "$tmp/out.csv")
case "$header" in
workload,design,mode,seed,status,*) ;;
*)
    echo "FAIL: missing/NAK CSV header: $header" >&2
    exit 1
    ;;
esac
fields=$(head -n1 "$tmp/out.csv" | awk -F, '{print NF}')
bad=$(awk -F, -v n="$fields" 'NF != n' "$tmp/out.csv" | wc -l)
if [ "$bad" -ne 0 ]; then
    echo "FAIL: $bad CSV rows with ragged field counts" >&2
    cat "$tmp/out.csv" >&2
    exit 1
fi
if ! awk -F, 'NR > 1 && $5 == "cancelled" { found = 1 } END { exit !found }' "$tmp/out.csv"; then
    echo "FAIL: no cancelled rows in partial CSV" >&2
    cat "$tmp/out.csv" >&2
    exit 1
fi
if ! grep -q "cancelled" "$tmp/err.log"; then
    echo "FAIL: stderr missing cancellation summary" >&2
    cat "$tmp/err.log" >&2
    exit 1
fi

echo "cancel-smoke OK: exit $status, $(wc -l <"$tmp/out.csv") CSV lines, summary: $(tail -n1 "$tmp/err.log")"

# cmd/experiments: a 1 s -timeout must cancel fig3b (16 Baryon runs, several
# seconds uncancelled) within 5 s of launch, report it cancelled and exit
# non-zero.
go build -o "$tmp/experiments" ./cmd/experiments
start=$(date +%s)
status=0
"$tmp/experiments" -only fig3b -timeout 1s >"$tmp/fig3b.out" 2>"$tmp/fig3b.err" || status=$?
elapsed=$(($(date +%s) - start))
if [ "$status" -eq 0 ]; then
    echo "FAIL: experiments -only fig3b -timeout 1s exited 0" >&2
    cat "$tmp/fig3b.err" >&2
    exit 1
fi
if ! grep -q "\[fig3b cancelled" "$tmp/fig3b.err"; then
    echo "FAIL: fig3b not reported cancelled on stderr" >&2
    cat "$tmp/fig3b.err" >&2
    exit 1
fi
if [ "$elapsed" -gt 5 ]; then
    echo "FAIL: experiments -only fig3b -timeout 1s took ${elapsed}s (> 5s)" >&2
    exit 1
fi

echo "cancel-smoke OK: experiments fig3b exit $status after ${elapsed}s, summary: $(tail -n1 "$tmp/fig3b.err")"
