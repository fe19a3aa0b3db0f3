#!/usr/bin/env bash
# Smoke-test crash-safe batch checkpoint/resume: run a batch with
# --journal, SIGKILL it mid-run, resume from the journal, and check the
# resumed output is byte-identical to an uninterrupted run.
#
# usage: scripts/resume_smoke.sh [path-to-buffopt-cli]
set -euo pipefail

CLI="${1:-target/release/buffopt-cli}"
if [[ ! -x "$CLI" ]]; then
    echo "error: $CLI is not an executable (build it or pass a path)" >&2
    exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
nets="$workdir/nets"
mkdir "$nets"

# Enough distinct, deliberately heavy nets (long repeater chains) that a
# mid-run kill lands between checkpoints even in a release build.
for i in $(seq -w 1 40); do
    {
        echo "net t$i"
        echo "driver 4$i 3e-11"
        prev=source
        for k in $(seq 1 60); do
            echo "wire $prev n$k 120 3.75e-13 1500 5.04e9"
            prev="n$k"
        done
        echo "sink n60 2e-14 1.2e-9 0.8"
    } >"$nets/t$i.net"
done

# The uninterrupted reference run.
full_status=0
"$CLI" --batch "$nets" --jobs 2 >"$workdir/full.jsonl" 2>"$workdir/full.stderr" \
    || full_status=$?
records=$(wc -l <"$workdir/full.jsonl")
[[ "$records" -eq 40 ]] || { echo "expected 40 records, got $records" >&2; exit 1; }

# The doomed run: journal each completed record, then SIGKILL mid-run.
journal="$workdir/checkpoint.journal"
"$CLI" --batch "$nets" --jobs 2 --journal "$journal" >"$workdir/doomed.jsonl" 2>/dev/null &
doomed_pid=$!
for _ in $(seq 1 200); do
    lines=0
    [[ -f "$journal" ]] && lines=$(wc -l <"$journal")
    [[ "$lines" -ge 3 ]] && break
    kill -0 "$doomed_pid" 2>/dev/null || break
    sleep 0.05
done
if kill -9 "$doomed_pid" 2>/dev/null; then
    echo "killed batch after $(wc -l <"$journal") of 40 checkpoints"
else
    echo "batch finished before the kill; resume will splice every record"
fi
wait "$doomed_pid" 2>/dev/null || true
[[ -f "$journal" ]] || { echo "no journal was written" >&2; exit 1; }
checkpointed=$(wc -l <"$journal")
[[ "$checkpointed" -ge 1 ]] || { echo "no checkpoints were journaled" >&2; exit 1; }

# Resume: journaled records are spliced verbatim, the rest recomputed.
resumed_status=0
"$CLI" --batch "$nets" --jobs 2 --resume "$journal" \
    >"$workdir/resumed.jsonl" 2>"$workdir/resumed.stderr" \
    || resumed_status=$?
grep -q "resumed from journal" "$workdir/resumed.stderr" \
    || { echo "resume did not report spliced records" >&2; cat "$workdir/resumed.stderr" >&2; exit 1; }

if ! cmp "$workdir/full.jsonl" "$workdir/resumed.jsonl"; then
    echo "resumed output differs from the uninterrupted run" >&2
    exit 1
fi
if [[ "$full_status" -ne "$resumed_status" ]]; then
    echo "exit codes differ: full=$full_status resumed=$resumed_status" >&2
    exit 1
fi
echo "resume smoke test passed ($checkpointed records spliced from the journal)"
