#!/usr/bin/env bash
# Smoke-test the `buffopt-cli serve` newline-JSON TCP service end to end.
#
# Drives the sharded reactor (2 shards, a --max-conns ceiling): a healthy request, a cache hit, a malformed line, a parse
# error, a length+CRC framed round-trip, a damaged frame, and a stats
# probe asserting the aggregate counters and the per-shard breakdown,
# then an orderly shutdown.
#
# usage: scripts/serve_smoke.sh [path-to-buffopt-cli]
set -euo pipefail

CLI="${1:-target/release/buffopt-cli}"
if [[ ! -x "$CLI" ]]; then
    echo "error: $CLI is not an executable (build it or pass a path)" >&2
    exit 1
fi

workdir="$(mktemp -d)"
server_out="$workdir/server.stdout"
server_pid=""
trap 'if [[ -n "$server_pid" ]]; then kill "$server_pid" 2>/dev/null || true; fi; rm -rf "$workdir"' EXIT

# wait_for DESCRIPTION SECONDS CMD...: poll CMD every 0.1s until it
# succeeds, failing loudly when the bound expires. Every wait in this
# script goes through here so a wedged server fails the job in seconds
# instead of hanging it.
wait_for() {
    local what="$1" deadline="$2"
    shift 2
    local tries=$((deadline * 10))
    for _ in $(seq 1 "$tries"); do
        if "$@"; then
            return 0
        fi
        sleep 0.1
    done
    echo "timed out after ${deadline}s waiting for $what" >&2
    exit 1
}

server_announced() {
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "server died early:" >&2
        cat "$server_out" >&2
        exit 1
    fi
    [[ -n "$(head -n1 "$server_out" 2>/dev/null | sed -n 's/^listening on //p')" ]]
}

server_gone() {
    ! kill -0 "$server_pid" 2>/dev/null
}

start_server() {
    : >"$server_out"
    "$CLI" serve --listen 127.0.0.1:0 "$@" >"$server_out" &
    server_pid=$!
    wait_for "the server to announce its address" 10 server_announced
    addr="$(head -n1 "$server_out" | sed -n 's/^listening on //p')"
    echo "server at $addr ($*)"
}

stop_server() {
    # The driver already sent {"cmd":"shutdown"} and read the ack; the
    # process must now exit 0 on its own within the bound.
    wait_for "the server to exit after shutdown" 15 server_gone
    local status=0
    wait "$server_pid" || status=$?
    server_pid=""
    if [[ "$status" -ne 0 ]]; then
        echo "server exited with $status" >&2
        exit 1
    fi
}

start_server --jobs 2 --shards 2 --max-conns 64

python3 - "$addr" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=10)
io = sock.makefile("rwb", buffering=0)


def crc64(data):
    # CRC-64/XZ, matching the server's frame checksum.
    crc = 0xFFFFFFFFFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = (crc >> 1) ^ (0xC96C5795D7870F42 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFFFFFFFFFF


assert crc64(b"123456789") == 0x995DC9BBDF1939FA, "crc64 self-check"


def request_raw(line):
    io.write(line + b"\n")
    return io.readline().rstrip(b"\n")


def request(obj_or_text):
    line = (
        obj_or_text
        if isinstance(obj_or_text, str)
        else json.dumps(obj_or_text)
    )
    return json.loads(request_raw(line.encode()))


def frame(payload):
    return b"!F " + f"{len(payload):08x} {crc64(payload):016x} ".encode() + payload


def unframe(line):
    assert line.startswith(b"!F "), line
    rest = line[3:]
    declared_len = int(rest[:8], 16)
    declared_crc = int(rest[9:25], 16)
    payload = rest[26:]
    assert len(payload) == declared_len, (declared_len, payload)
    assert crc64(payload) == declared_crc, "response frame CRC mismatch"
    return payload


net = "net smoke\ndriver 150 2e-11\nwire source s 40 1.25e-13 500\nsink s 1.5e-14 5e-10 0.8\n"

first = request({"id": "smoke", "net": net})
assert first["outcome"] == "optimized", first
assert first["cache"] == "miss", first

second = request({"id": "smoke", "net": net})
assert second["cache"] == "hit", second
assert second["net"] == first["net"] and second["buffers"] == first["buffers"], second

bad = request("this is not json")
assert "error" in bad, bad

broken = request({"id": "broken", "net": "driver 100 zero"})
assert broken["outcome"] == "parse_error", broken

# Framed round-trip: the framed request gets a framed, CRC-valid
# response whose payload is the same cache-hit answer.
framed = json.loads(
    unframe(request_raw(frame(json.dumps({"id": "smoke", "net": net}).encode())))
)
assert framed["cache"] == "hit", framed
assert framed["net"] == first["net"] and framed["buffers"] == first["buffers"], framed

# A damaged frame gets the typed bad_frame error (still framed), never a
# parse guess.
damaged = bytearray(frame(json.dumps({"id": "smoke", "net": net}).encode()))
damaged[-1] ^= 0x01
bad_frame = json.loads(unframe(request_raw(bytes(damaged))))
assert bad_frame.get("error") == "bad_frame", bad_frame

stats = request({"cmd": "stats"})
assert stats["requests"] == 4, stats
assert stats["cache"]["hits"] == 2, stats
assert stats["workers"] == 4, stats  # 2 shards x 2 jobs
conn = stats["connections"]
assert conn["bad_frames"] == 1, stats
assert conn["rejected_max_conns"] == 0, stats
shards = stats["shards"]
assert [s["shard"] for s in shards] == [0, 1], stats
assert sum(s["requests"] for s in shards) == stats["requests"], stats
assert sum(s["cache_hits"] for s in shards) == stats["cache"]["hits"], stats

ack = request({"cmd": "shutdown"})
assert ack == {"ok": "shutdown"}, ack
print("all requests answered correctly")
PY

stop_server

echo "serve smoke test passed"
