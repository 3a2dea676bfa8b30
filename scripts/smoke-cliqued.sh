#!/usr/bin/env bash
# smoke-cliqued.sh — CI smoke test for the cliqued daemon.
#
# Boots cliqued on a local port, asserts /healthz answers 200 ok with
# the build block, runs one quick experiment through POST
# /v1/experiments/{id}:run and checks the response is a valid
# cliquebench/v1 envelope — byte-equal to what the cliquebench CLI
# prints for the same request — exercises the cache, the ?trace=1
# envelope, the SSE progress stream, ad-hoc runs at tiny n, the
# latency histograms on /metrics, and verifies graceful shutdown on
# SIGTERM.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:18347
base="http://$addr"
tmp=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/cliqued" ./cmd/cliqued
"$tmp/cliqued" -addr "$addr" &
pid=$!

# Wait for the listener.
for _ in $(seq 1 100); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

echo "smoke: /healthz carries status and build attribution"
status=$(curl -sS -o "$tmp/healthz.json" -w '%{http_code}' "$base/healthz")
[ "$status" = 200 ] || { echo "healthz status $status" >&2; exit 1; }
grep -q '"ok"' "$tmp/healthz.json"
grep -q '"go_version"' "$tmp/healthz.json"
grep -q '"backends"' "$tmp/healthz.json"

echo "smoke: run one quick experiment"
status=$(curl -sS -o "$tmp/run.json" -w '%{http_code}' \
  -X POST -d '{"quick":true}' "$base/v1/experiments/thm2:run")
[ "$status" = 200 ] || { echo "run status $status: $(cat "$tmp/run.json")" >&2; exit 1; }
grep -q '"schema": "cliquebench/v1"' "$tmp/run.json"

echo "smoke: envelope is byte-identical to the cliquebench CLI"
# Built, not `go run`: the envelope's build block carries the VCS
# stamp, which `go run` binaries lack — both sides must be real builds
# of the same checkout for the byte comparison to be meaningful.
go build -o "$tmp/cliquebench" ./cmd/cliquebench
"$tmp/cliquebench" -exp thm2 -quick -backend=lockstep -format=json > "$tmp/cli.json"
cmp "$tmp/run.json" "$tmp/cli.json"

echo "smoke: repeat request hits the cache"
curl -fsS -X POST -d '{"quick":true}' "$base/v1/experiments/thm2:run" > "$tmp/run2.json"
cmp "$tmp/run.json" "$tmp/run2.json"

echo "smoke: ?trace=1 attaches the cliquetrace/v1 block"
curl -fsS -X POST -d '{"quick":true}' "$base/v1/experiments/fig1:run?trace=1" > "$tmp/traced.json"
grep -q '"cliquetrace/v1"' "$tmp/traced.json"
grep -q '"phases"' "$tmp/traced.json"

echo "smoke: SSE stream reports round-level progress"
curl -fsS -N -X POST -d '{"algorithm":"exchange","n":16,"seed":5}' \
  "$base/v1/run?stream=sse" > "$tmp/sse.txt"
grep -q '^event: progress$' "$tmp/sse.txt"
grep -q '"rounds"' "$tmp/sse.txt"
grep -q '"rounds_per_sec"' "$tmp/sse.txt"
grep -q '^event: result$' "$tmp/sse.txt"

echo "smoke: ad-hoc runs at n below an entry's k or at one node answer 200"
for body in '{"algorithm":"k-ds","n":2,"seed":1}' '{"algorithm":"mst-sketch","n":1,"seed":1}'; do
  status=$(curl -sS -o "$tmp/small.json" -w '%{http_code}' -X POST -d "$body" "$base/v1/run")
  [ "$status" = 200 ] || { echo "$body: status $status: $(cat "$tmp/small.json")" >&2; exit 1; }
  grep -q '"schema": "cliquebench/v1"' "$tmp/small.json"
done

echo "smoke: /metrics serves counters and latency histograms"
curl -fsS "$base/metrics" > "$tmp/metrics.json"
grep -q '"cache_hits": 1' "$tmp/metrics.json"
grep -q '"queue_wait_ns"' "$tmp/metrics.json"
grep -q '"run_wall_ns"' "$tmp/metrics.json"
grep -q '"rounds_per_sec_hist"' "$tmp/metrics.json"

echo "smoke: graceful shutdown"
kill -TERM "$pid"
wait "$pid"

echo "smoke: OK"
