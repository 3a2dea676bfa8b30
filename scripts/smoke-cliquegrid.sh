#!/usr/bin/env bash
# smoke-cliquegrid.sh — CI smoke test for the cliquegrid runner.
#
# Runs a tiny grid three times (sequential, -parallel=4, then -batch),
# asserts the full artefact set appears under paper_runs/<stamp>/, and
# checks the determinism contract: the -no-timing summary.json is
# byte-identical across worker counts and with seed sweeps batched, and
# runs.csv carries one row per repeat.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/cliquegrid" ./cmd/cliquegrid

cat > "$tmp/spec.json" <<'EOF'
{
  "name": "smoke",
  "repeats": 2,
  "experiments": [
    {"algorithm": "exchange", "ns": [8, 16], "seeds": [1, 2]},
    {"algorithm": "triangle", "ns": [8, 16]}
  ]
}
EOF

echo "smoke: sequential run writes the full artefact set"
"$tmp/cliquegrid" -spec "$tmp/spec.json" -out "$tmp/runs" -stamp seq \
  -parallel=1 -no-timing -progress=false | tee "$tmp/line.txt"
grep -q '^cliquegrid: smoke:' "$tmp/line.txt"
for f in runs.csv summary.json summary.md tables.tex; do
  [ -s "$tmp/runs/seq/$f" ] || { echo "missing artefact $f" >&2; exit 1; }
done
ls "$tmp/runs/seq/plots/"*.svg >/dev/null

echo "smoke: summary carries the cliquegrid/v1 envelope, csv one row per run"
grep -q '"schema": "cliquegrid/v1"' "$tmp/runs/seq/summary.json"
# Header + (2+2)·2 algorithm cells... 2 ns × 2 seeds + 2 ns, × 2 repeats = 12 rows.
rows=$(wc -l < "$tmp/runs/seq/runs.csv")
[ "$rows" = 13 ] || { echo "runs.csv has $rows lines, want 13" >&2; exit 1; }

echo "smoke: -no-timing summary is byte-identical across -parallel"
"$tmp/cliquegrid" -spec "$tmp/spec.json" -out "$tmp/runs" -stamp par \
  -parallel=4 -no-timing -progress=false >/dev/null
cmp "$tmp/runs/seq/summary.json" "$tmp/runs/par/summary.json"

echo "smoke: -no-timing summary is byte-identical with -batch"
"$tmp/cliquegrid" -spec "$tmp/spec.json" -out "$tmp/runs" -stamp batch \
  -batch -no-timing -progress=false >/dev/null
cmp "$tmp/runs/seq/summary.json" "$tmp/runs/batch/summary.json"

echo "smoke: -no-timing strips every wall-clock field"
if grep -q '"timing"' "$tmp/runs/seq/summary.json"; then
  echo "summary.json still carries timing" >&2; exit 1
fi

echo "smoke: malformed spec is rejected with a usage error"
if "$tmp/cliquegrid" -spec /dev/null -out "$tmp/runs" >/dev/null 2>&1; then
  echo "empty spec accepted" >&2; exit 1
fi

echo "smoke: OK"
