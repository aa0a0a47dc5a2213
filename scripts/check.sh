#!/usr/bin/env bash
# Full verification gate: build, vet, bulklint, race-enabled tests.
# Run from anywhere; operates on the module root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== bulklint =="
# Runs all thirteen analyzers including the waiver audit: a stale
# //bulklint: waiver (one that suppresses no live finding) fails the gate.
go run ./cmd/bulklint ./...

echo "== bulklint effect/layer rules (filtered run) =="
# The three effect-engine rules also pass standalone: the -rules path and
# its filtered stalewaiver semantics stay exercised.
go run ./cmd/bulklint -rules purehook,atomicmix,layerdep ./...

echo "== bulklint snapshot-coverage rules (filtered run) =="
# The snapstate field-coverage analyzer and the capturesafe closure-escape
# analyzer must hold tree-wide on their own: every annotated snapshot
# struct is fully captured with deep-copy witnesses, and every worker
# closure lands its writes in a race-free slot.
go run ./cmd/bulklint -rules snapstate,capturesafe ./...

echo "== stale-waiver audit smoke (snapstate-ignore) =="
# Plant a deliberately stale snapstate-ignore in a scratch file and require
# the audit to reject the tree — proof the gate would catch a rotting
# waiver, not just a missing field.
smoke="internal/check/zz_stale_waiver_smoke.go"
trap 'rm -f "$smoke"' EXIT
cat > "$smoke" <<'EOF'
package check

//bulklint:snapstate
type staleSmoke struct {
	//bulklint:snapstate-ignore clock not captured (deliberately stale: reset covers it)
	clock int
}

//bulklint:captures reset
func (s *staleSmoke) reset() { *s = staleSmoke{} }
EOF
# bulklint exits 1 on the planted finding — exactly what the smoke wants —
# so neutralize its status and assert on the reported message instead.
if ! (go run ./cmd/bulklint -rules snapstate,stalewaiver ./internal/check || true) \
    | grep -q 'stale //bulklint:snapstate-ignore'; then
  echo "stale-waiver audit smoke: the audit missed a planted stale snapstate-ignore" >&2
  exit 1
fi
rm -f "$smoke"
trap - EXIT

echo "== bulklint two-run byte determinism =="
# Findings are sorted and deduplicated output: two runs of the full suite
# over the same tree must be byte-identical, or CI diffs cannot be trusted.
if ! cmp -s <(go run ./cmd/bulklint ./... 2>&1) <(go run ./cmd/bulklint ./... 2>&1); then
  echo "bulklint output is not deterministic across runs" >&2
  exit 1
fi

echo "== bulklint -effects determinism =="
# The effect report is a published interface: two runs over the same tree
# must be byte-identical, or schedule-replay auditing cannot trust it.
if ! cmp -s <(go run ./cmd/bulklint -effects ./...) <(go run ./cmd/bulklint -effects ./...); then
  echo "bulklint -effects is not deterministic across runs" >&2
  exit 1
fi

echo "== go test -race =="
# ./... includes internal/par and the parallel experiment engine, so the
# race stage exercises the fan-out worker pool on every run.
go test -race ./...

echo "== bench harness smoke (-benchtime=1x) =="
# One iteration of each end-to-end run benchmark, so the bench harness
# scripts/bench.sh depends on cannot silently rot.
go test . -run '^$' -bench 'TMRun|TLSRun|CkptRun' -benchtime 1x
# The lint-suite benchmarks scripts/bench.sh records against
# bench/baseline/lint.txt must keep running too.
go test ./internal/lint/ -run '^$' -bench 'LintModule|InferEffects' -benchtime 1x
# One serial and one parallel iteration of the explorer-throughput
# benchmark scripts/bench.sh records into BENCH_check.json. The medium
# budget these run under carries the default snapshot-cache allowance, so
# this smoke drives the fork-point snapshot/resume engine end to end.
go test . -run '^$' -bench 'CheckExplore/tm-sweep/(w1|w4)$' -benchtime 1x

echo "== lint-suite wall-time ratchet =="
# Growing the suite from eleven to thirteen analyzers must not blow up its
# cost: the full BenchmarkLintModule run has to stay under 2x the committed
# eleven-analyzer baseline in bench/baseline/lint.txt.
lint_base_ns=$(awk '/^BenchmarkLintModule/ { print $3; exit }' bench/baseline/lint.txt)
lint_now_ns=$(go test ./internal/lint/ -run '^$' -bench 'LintModule$' \
  | awk '/^BenchmarkLintModule/ { print $3; exit }')
if [ -z "$lint_base_ns" ] || [ -z "$lint_now_ns" ]; then
  echo "lint ratchet: could not read a BenchmarkLintModule ns/op figure" >&2
  exit 1
fi
if awk -v now="$lint_now_ns" -v base="$lint_base_ns" 'BEGIN { exit !(now > 2 * base) }'; then
  echo "lint ratchet: LintModule at ${lint_now_ns} ns/op exceeds 2x the ${lint_base_ns} ns/op baseline" >&2
  exit 1
fi
echo "lint ratchet: ${lint_now_ns} ns/op vs ${lint_base_ns} ns/op baseline (2x ceiling)"

echo "== coverage gate =="
# Per-package statement-coverage floors for the runtimes and the model
# checker, set just under their measured values so coverage can only
# ratchet up. Raise a floor when you raise the coverage.
check_cover() {
  local pkg="$1" floor="$2"
  local line pct
  line=$(go test -cover "./internal/$pkg/" | tail -1)
  pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
  if [ -z "$pct" ]; then
    echo "coverage gate: no coverage figure for $pkg: $line" >&2
    exit 1
  fi
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "coverage gate: $pkg at ${pct}% is below the ${floor}% floor" >&2
    exit 1
  fi
  echo "coverage $pkg: ${pct}% (floor ${floor}%)"
}
check_cover tm 89
check_cover tls 89
check_cover ckpt 91
check_cover check 88
check_cover serve 85

echo "== bulkcheck smoke =="
# A small exhaustive sweep of every protocol must stay oracle-clean — and
# produce the identical report on a work-stealing worker pool — and every
# seeded protocol mutation must still be killed, serially and in parallel.
bc_tmp="$(mktemp -d)"
trap 'rm -rf "$bc_tmp"' EXIT
go build -o "$bc_tmp/bulkcheck" ./cmd/bulkcheck
"$bc_tmp/bulkcheck" -budget small -v | tee "$bc_tmp/serial.out"
"$bc_tmp/bulkcheck" -budget small -workers 4 -v > "$bc_tmp/parallel.out"
if ! cmp -s "$bc_tmp/serial.out" "$bc_tmp/parallel.out"; then
  echo "bulkcheck: parallel sweep report differs from serial" >&2
  diff "$bc_tmp/serial.out" "$bc_tmp/parallel.out" >&2 || true
  exit 1
fi
"$bc_tmp/bulkcheck" -mutations all -workers 4

echo "== bulkcheck snapshot-vs-replay identity =="
# The fork-point snapshot cache is an execution shortcut, never a report
# change: sweeps with no cache (-snapmem 0, every schedule replays from the
# pooled runner's base state), with a tiny cache that must evict
# constantly, and with the default allowance must emit byte-identical
# reports, and the mutation audit must kill every mutation without the
# cache too.
for snapmem in 0 1; do
  "$bc_tmp/bulkcheck" -budget small -v -snapmem "$snapmem" -workers 4 \
    > "$bc_tmp/snap$snapmem.out"
  if ! cmp -s "$bc_tmp/serial.out" "$bc_tmp/snap$snapmem.out"; then
    echo "bulkcheck: -snapmem $snapmem sweep report differs from the default" >&2
    diff "$bc_tmp/serial.out" "$bc_tmp/snap$snapmem.out" >&2 || true
    exit 1
  fi
done
"$bc_tmp/bulkcheck" -mutations all -snapmem 0 -workers 2

echo "== bulkcheck checkpoint/resume round-trip =="
# An interrupted-and-resumed sweep (across different worker counts) must
# report exactly what one uninterrupted sweep reports, and leave an
# identical final checkpoint.
"$bc_tmp/bulkcheck" -target tm-sweep -budget small -schedules 400 \
  -checkpoint "$bc_tmp/cp.bin" > /dev/null
# The checkpoint: trailer names the output file, so compare only the
# report lines.
"$bc_tmp/bulkcheck" -resume "$bc_tmp/cp.bin" -budget small -schedules 1000 \
  -workers 8 -checkpoint "$bc_tmp/cp_resumed.bin" -v \
  | tee /dev/stderr | grep -v '^checkpoint:' > "$bc_tmp/resumed.out"
"$bc_tmp/bulkcheck" -target tm-sweep -budget small -schedules 1000 \
  -checkpoint "$bc_tmp/cp_whole.bin" -v \
  | grep -v '^checkpoint:' > "$bc_tmp/whole.out"
if ! cmp -s "$bc_tmp/resumed.out" "$bc_tmp/whole.out"; then
  echo "bulkcheck: resumed sweep report differs from uninterrupted sweep" >&2
  diff "$bc_tmp/resumed.out" "$bc_tmp/whole.out" >&2 || true
  exit 1
fi
if ! cmp -s "$bc_tmp/cp_resumed.bin" "$bc_tmp/cp_whole.bin"; then
  echo "bulkcheck: resumed checkpoint bytes differ from uninterrupted sweep's" >&2
  exit 1
fi

echo "== bulkd smoke (daemon vs one-shot byte identity) =="
# The daemon's acceptance claim end to end: a live bulkd must answer each
# job kind with bytes identical to the one-shot CLIs, serve /metrics, and
# shut down cleanly on SIGTERM.
go build -o "$bc_tmp/bulkd" ./cmd/bulkd
go build -o "$bc_tmp/bulksim" ./cmd/bulksim
"$bc_tmp/bulkd" -addr 127.0.0.1:0 -workers 2 > "$bc_tmp/bulkd.log" 2>&1 &
bulkd_pid=$!
trap 'kill "$bulkd_pid" 2>/dev/null || true; rm -rf "$bc_tmp"' EXIT
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^bulkd: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$bc_tmp/bulkd.log")
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "bulkd smoke: daemon never reported its listen address" >&2
  cat "$bc_tmp/bulkd.log" >&2
  exit 1
fi
base="http://127.0.0.1:$port"
curl -fsS "$base/healthz" > /dev/null

# Exhibit job vs `bulksim -exp table8 -quick -notime`.
curl -fsS -X POST "$base/run" \
  -d '{"kind":"exhibit","exhibit":"table8","quick":true}' > "$bc_tmp/d_exhibit.out"
"$bc_tmp/bulksim" -exp table8 -quick -notime > "$bc_tmp/c_exhibit.out"
if ! cmp -s "$bc_tmp/d_exhibit.out" "$bc_tmp/c_exhibit.out"; then
  echo "bulkd smoke: exhibit response differs from bulksim -notime" >&2
  diff "$bc_tmp/d_exhibit.out" "$bc_tmp/c_exhibit.out" >&2 || true
  exit 1
fi

# Full sweep job vs `bulksim -exp all -quick -notime` — every exhibit, the
# blank-line section framing, and the cross-simulation meter trailer.
curl -fsS -X POST "$base/run" \
  -d '{"kind":"sweep","quick":true}' > "$bc_tmp/d_sweep.out"
"$bc_tmp/bulksim" -exp all -quick -notime > "$bc_tmp/c_sweep.out"
if ! cmp -s "$bc_tmp/d_sweep.out" "$bc_tmp/c_sweep.out"; then
  echo "bulkd smoke: sweep response differs from bulksim -exp all -notime" >&2
  diff "$bc_tmp/d_sweep.out" "$bc_tmp/c_sweep.out" >&2 || true
  exit 1
fi

# Check job vs `bulkcheck -protocol tls -budget small -v`.
curl -fsS -X POST "$base/run" \
  -d '{"kind":"check","protocol":"tls","budget":"small","verbose":true}' > "$bc_tmp/d_check.out"
"$bc_tmp/bulkcheck" -protocol tls -budget small -v > "$bc_tmp/c_check.out"
if ! cmp -s "$bc_tmp/d_check.out" "$bc_tmp/c_check.out"; then
  echo "bulkd smoke: check response differs from bulkcheck" >&2
  diff "$bc_tmp/d_check.out" "$bc_tmp/c_check.out" >&2 || true
  exit 1
fi

# Cached replay: the exhibit repeats inside the sweep above, so this third
# request is served from cache — the bytes must not change, and /metrics
# must confirm the cache actually fired.
curl -fsS -X POST "$base/run" \
  -d '{"kind":"exhibit","exhibit":"table8","quick":true}' > "$bc_tmp/d_cached.out"
if ! cmp -s "$bc_tmp/d_cached.out" "$bc_tmp/c_exhibit.out"; then
  echo "bulkd smoke: cached replay differs from the fresh response" >&2
  exit 1
fi
curl -fsS "$base/metrics" > "$bc_tmp/metrics.json"
if ! jq -e '.result_cache.hits >= 1 and .jobs.completed >= 4 and .queue.workers == 2' \
    "$bc_tmp/metrics.json" > /dev/null; then
  echo "bulkd smoke: /metrics is missing expected cache/job counters:" >&2
  cat "$bc_tmp/metrics.json" >&2
  exit 1
fi

# SIGTERM must drain and exit 0 with the clean-shutdown line.
kill -TERM "$bulkd_pid"
if ! wait "$bulkd_pid"; then
  echo "bulkd smoke: daemon exited nonzero after SIGTERM" >&2
  cat "$bc_tmp/bulkd.log" >&2
  exit 1
fi
trap 'rm -rf "$bc_tmp"' EXIT
if ! grep -q 'drained cleanly' "$bc_tmp/bulkd.log"; then
  echo "bulkd smoke: no clean-drain confirmation in the daemon log" >&2
  cat "$bc_tmp/bulkd.log" >&2
  exit 1
fi

echo "== native fuzz smoke (5s per target) =="
# The three runtimes, plus the workload layout determinism target the
# daemon's result cache leans on: cache keys assume identical (seed,
# config) inputs regenerate identical workloads.
for target in internal/tm:FuzzTMSchemes internal/tls:FuzzTLSSchemes \
    internal/ckpt:FuzzCkptModes internal/workload:FuzzWorkloadLayout; do
  pkg="${target%%:*}"
  fz="${target##*:}"
  go test "./$pkg/" -run '^$' -fuzz "^${fz}\$" -fuzztime 5s
done

echo "check.sh: all stages passed"
