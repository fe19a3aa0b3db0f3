#!/usr/bin/env bash
# Runs exactly the named tests and fails unless every one of them ran.
#
# `cargo test NAME` exits 0 when NAME matches no test, so a renamed or
# folded test silently drops out of a step that names it. This script
# passes the names to the test harness with `--exact` and then checks
# that the number of tests that passed equals the number of names.
#
# usage: scripts/test_exact.sh CARGO_TEST_ARGS... -- TEST_NAME...
#
#   scripts/test_exact.sh --release -p buffopt-server --test chaos -- \
#       cache_bit_flip_is_detected_evicted_and_recomputed_identically
#
# A unit test is named by its full path (`journal::tests::...`). Each
# name must be distinct and exist in exactly one of the selected test
# targets.
set -euo pipefail

args=()
while [[ $# -gt 0 && $1 != -- ]]; do
    args+=("$1")
    shift
done
if [[ $# -lt 2 ]]; then
    echo "usage: scripts/test_exact.sh CARGO_TEST_ARGS... -- TEST_NAME..." >&2
    exit 2
fi
shift
names=("$@")

log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "${args[@]}" -- --exact "${names[@]}" 2>&1 | tee "$log"
ran=$(grep -oE '^test result: ok\. [0-9]+ passed' "$log" | awk '{ n += $4 } END { print n + 0 }')
if [[ $ran -ne ${#names[@]} ]]; then
    echo "error: ${#names[@]} test name(s) given, but $ran test(s) ran:" >&2
    printf '  %s\n' "${names[@]}" >&2
    exit 1
fi
