#!/usr/bin/env bash
# Replays the serve_zipf request stream that the last serve_zipf run wrote
# (.bench_build/results/serve_zipf-requests.tsv, serve-script format:
# pattern<TAB>tau per line) against a real `pti_cli serve --listen`
# process through `pti_client`, and checks that every answer equals what
# `pti_cli batch` reports for the same requests on the same index.
#
#   bash perfbench/replay.sh <seed> [lines]
#
# Run from the root of a checkout after a serve_zipf run with that seed.
# The index is rebuilt from the same seed: `pti_cli gen 300000 0.2 <seed>`
# generates the string the benchmark generates, and `pti_cli build-sharded`
# uses the benchmark's index defaults. Only the first `lines` requests
# (default 20000) are replayed, so the local reference stays quick.
set -euo pipefail

seed="${1:?usage: replay.sh <seed> [lines]}"
lines="${2:-20000}"
build=.bench_build/perfbench
work=.bench_build/replay
stream=.bench_build/results/serve_zipf-requests.tsv

[ -f "$stream" ] || { echo "replay.sh: run serve_zipf first" >&2; exit 2; }
grep -q "seed $seed:" <(head -1 "$stream") ||
  { echo "replay.sh: $stream was not written with seed $seed" >&2; exit 2; }

[ -f "$build/CMakeCache.txt" ] ||
  cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" --target pti_cli pti_client -j "$(nproc)" >/dev/null
cli="$build/pti/examples/pti_cli"
client="$build/pti/examples/pti_client"

mkdir -p "$work"
head -n "$((lines + 1))" "$stream" > "$work/requests.tsv"
"$cli" gen 300000 0.2 "$seed" "$work/string.pus" >/dev/null
"$cli" build-sharded "$work/string.pus" "$work/index.pti" 0.1 >/dev/null

# The server runs until its stdin closes; hold it open on a fifo.
rm -f "$work/ctl" "$work/port"
mkfifo "$work/ctl"
"$cli" serve "$work/index.pti" --listen=0 < "$work/ctl" > "$work/port" \
  2> "$work/server.log" &
server=$!
exec 3> "$work/ctl"
stop_server() { exec 3>&-; wait "$server" || true; }
trap stop_server EXIT
for _ in $(seq 100); do
  [ -s "$work/port" ] && break
  sleep 0.1
done
port="$(head -1 "$work/port")"

"$client" 127.0.0.1 "$port" "$work/requests.tsv" 0.1 > "$work/wire.out"
"$cli" batch "$work/index.pti" "$work/requests.tsv" 0.1 > "$work/local.out"
if cmp -s "$work/wire.out" "$work/local.out"; then
  echo "replay.sh: $lines requests, $(wc -l < "$work/wire.out") matches," \
    "identical over the wire and in process"
else
  echo "replay.sh: answers differ ($work/wire.out vs $work/local.out)" >&2
  exit 1
fi
