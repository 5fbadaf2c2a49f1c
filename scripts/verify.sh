#!/usr/bin/env bash
# Full local verification: what CI would run. From the repo root:
#
#   scripts/verify.sh
#
# Builds the whole workspace in release mode, runs every test, then holds
# the code to clippy -D warnings, rustdoc -D warnings and rustfmt. Fails
# fast on the first error.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets

echo "== tests =="
cargo test -q --release --workspace

echo "== parallel drivers and the threaded QR at SKETCH_THREADS=1 (sequential path) and 3 (more workers than cores) =="
for t in 1 3; do
  SKETCH_THREADS="$t" cargo test -q --release -p parkit -p sketchcore -p densekit -p lstsq
  SKETCH_THREADS="$t" cargo test -q --release -p sparse-sketch --test numeric_contract --test sap_recovery
done

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy lint gate: no unwrap/expect on library paths =="
# Library crates must surface failures as typed errors, not panics; --lib
# keeps #[cfg(test)] modules, tests/ and bins exempt.
for c in sparsekit densekit rngkit obskit parkit faultkit sketchcore lstsq datagen sketchd; do
  cargo clippy -q -p "$c" --lib -- -D clippy::unwrap_used -D clippy::expect_used
done

echo "== rustdoc (-D warnings: dangling intra-doc links fail) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== rustfmt check =="
cargo fmt --all -- --check

echo "== trace smoke (repro --trace-out: balanced Perfetto spans, flamegraph SVG) =="
TRACE_TMP="$(mktemp /tmp/trace_verify_XXXXXX.json)"
FOLDED_TMP="$(mktemp /tmp/folded_verify_XXXXXX.txt)"
trap 'rm -f "$TRACE_TMP" "$FOLDED_TMP" "$FOLDED_TMP.svg"' EXIT
./target/release/repro smoke --trace-out "$TRACE_TMP" --trace-folded "$FOLDED_TMP"
B_COUNT="$(grep -c '"ph":"B"' "$TRACE_TMP")"
E_COUNT="$(grep -c '"ph":"E"' "$TRACE_TMP")"
if [ "$B_COUNT" -ne "$E_COUNT" ] || [ "$B_COUNT" -eq 0 ]; then
  echo "verify: trace span pairs unbalanced or empty (B=$B_COUNT E=$E_COUNT)" >&2
  exit 1
fi
grep -q '"nnz":' "$TRACE_TMP" || { echo "verify: no annotated kernel blocks in trace" >&2; exit 1; }
grep -q '"model_ns":' "$TRACE_TMP" || { echo "verify: no model predictions in trace" >&2; exit 1; }
grep -q '</svg>' "$FOLDED_TMP.svg" || { echo "verify: flamegraph SVG not written" >&2; exit 1; }
echo "trace smoke ok: $B_COUNT balanced span pairs, blocks annotated, SVG rendered"

echo "== telemetry JSONL smoke (repro --obs-json: meta, hist and counter lines) =="
OBS_TMP="$(mktemp /tmp/obs_verify_XXXXXX.jsonl)"
trap 'rm -f "$OBS_TMP" "$TRACE_TMP" "$FOLDED_TMP" "$FOLDED_TMP.svg"' EXIT
./target/release/repro smoke --obs-json "$OBS_TMP"
head -n1 "$OBS_TMP" | grep -q '"type":"meta"' || { echo "verify: JSONL does not start with a meta line" >&2; exit 1; }
grep -q '"type":"hist","path":"sketch/alg3"' "$OBS_TMP" || { echo "verify: no sketch/alg3 hist line in JSONL" >&2; exit 1; }
grep -q '"type":"counter","name":"samples"' "$OBS_TMP" || { echo "verify: no samples counter line in JSONL" >&2; exit 1; }
echo "telemetry JSONL ok: meta, sketch/alg3 hist and samples counter lines"

echo "== chaoscheck smoke (quick fault x scenario matrix: no panics, no hangs) =="
CHAOS_TMP="$(mktemp /tmp/chaos_verify_XXXXXX.jsonl)"
trap 'rm -f "$CHAOS_TMP" "$OBS_TMP" "$TRACE_TMP" "$FOLDED_TMP" "$FOLDED_TMP.svg"' EXIT
./target/release/chaoscheck --quick --report "$CHAOS_TMP"
grep -q '"outcome"' "$CHAOS_TMP" || { echo "verify: empty chaos report" >&2; exit 1; }

echo "== service smoke (sketchd on an ephemeral port + loadgen --quick + clean shutdown) =="
PORT_TMP="$(mktemp /tmp/sketchd_port_XXXXXX)"
SVC_LOG="$(mktemp /tmp/sketchd_log_XXXXXX)"
trap 'rm -f "$PORT_TMP" "$SVC_LOG" "$BENCHGATE_TMP" "$CHAOS_TMP" "$OBS_TMP" "$TRACE_TMP" "$FOLDED_TMP" "$FOLDED_TMP.svg"; kill "$SVC_PID" 2>/dev/null || true' EXIT
: > "$PORT_TMP"
./target/release/sketchd --addr 127.0.0.1:0 --port-file "$PORT_TMP" > "$SVC_LOG" 2>&1 &
SVC_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_TMP" ] && break
  sleep 0.05
done
[ -s "$PORT_TMP" ] || { echo "verify: sketchd never wrote its port file" >&2; exit 1; }
PORT="$(head -n1 "$PORT_TMP")"
./target/release/sketchctl --addr "127.0.0.1:$PORT" health
./target/release/loadgen --quick --port-file "$PORT_TMP"
./target/release/sketchctl --addr "127.0.0.1:$PORT" shutdown
# join() returns only when every acceptor/worker/connection thread has
# exited, so a prompt clean process exit IS the no-leaked-threads check.
SVC_RC=0
for _ in $(seq 1 100); do
  kill -0 "$SVC_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SVC_PID" 2>/dev/null; then
  echo "verify: sketchd still alive 10s after shutdown (leaked thread?)" >&2
  kill -9 "$SVC_PID"
  exit 1
fi
wait "$SVC_PID" || SVC_RC=$?
[ "$SVC_RC" -eq 0 ] || { echo "verify: sketchd exited nonzero ($SVC_RC)"; cat "$SVC_LOG" >&2; exit 1; }
grep -q "sketchd: clean shutdown" "$SVC_LOG" || { echo "verify: no clean-shutdown line"; cat "$SVC_LOG" >&2; exit 1; }
echo "service smoke ok: ephemeral port $PORT, loadgen --quick served, clean shutdown"

echo "== service chaoscheck (failpoints at accept/decode/dispatch/reply: typed frames, recovery) =="
./target/release/chaoscheck --quick --service-only

echo "== benchgate suite listing =="
./target/release/benchgate list --quick

echo "== benchgate self-check (record at smoke scale, compare back, expect pass) =="
BENCHGATE_TMP="$(mktemp /tmp/benchgate_verify_XXXXXX.json)"
trap 'rm -f "$BENCHGATE_TMP" "$CHAOS_TMP" "$OBS_TMP" "$TRACE_TMP" "$FOLDED_TMP" "$FOLDED_TMP.svg"' EXIT
./target/release/benchgate record --quick --out "$BENCHGATE_TMP"
# Generous --rel-tol: this exercises the record→parse→compare machinery and
# the bitwise counter cross-check; it must not flake on hypervisor steal
# (this host's noise can hit 2-3x — see EXPERIMENTS.md).
./target/release/benchgate --against "$BENCHGATE_TMP" --rel-tol 2.0

echo "verify: all checks passed"
