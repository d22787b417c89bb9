#!/usr/bin/env bash
# Traffic coverage: which code does any program path reach?
#
#   scripts/traffic-coverage.sh OUTDIR
#
# Builds every binary (cmd/*, examples/*, the bench harness) with coverage
# instrumentation of every repro package, drives each through its traffic —
# the paper studies, the robustness drills, vpsim on both back ends, kprof,
# the examples, a two-device daemon serving two vpsim sessions and then a
# second daemon restored from its checkpoint, and every benchmark workload
# untraced and traced — and writes:
#
#   OUTDIR/func.txt  go tool covdata func: statement coverage per function
#   OUTDIR/zero.txt  the functions no run reached (0.0 %)
#
# A function in zero.txt has no caller in the program traffic. It is a
# deletion candidate unless it is safety code (error and hostile-input
# paths), a platform fallback, a test oracle, a method an interface requires
# or API the bench module calls. Run from the repository root. Needs curl and
# the local ports 7175 and 7176. BENCH_SECONDS (default 2) sizes each
# benchmark run.
set -euo pipefail

out=${1:?usage: scripts/traffic-coverage.sh OUTDIR}
mkdir -p "$out/bin" "$out/data"
out=$(cd "$out" && pwd)
bin=$out/bin
secs=${BENCH_SECONDS:-2}

go build -cover -coverpkg=repro/... -o "$bin/" ./cmd/... ./examples/...
go build -C bench -cover -coverpkg=repro/... -o "$bin/bench" .
export GOCOVERDIR=$out/data

quiet() { "$@" > /dev/null; }

# The studies and the drills.
quiet "$bin/sigmavp" -workers 2 all
quiet "$bin/sigmavp" -workers 1 -metrics "$out/m.json" all
for drill in faults overload migrate checkpoint; do
  quiet "$bin/sigmavp" "$drill"
done
quiet "$bin/sigmavp" multigpu

# Guest applications on both back ends, the estimation path, the examples.
for backend in sigma emul; do
  for app in vectorAdd matrixMul BlackScholes; do
    quiet "$bin/vpsim" -backend "$backend" -trace -estimate "$app"
  done
done
quiet "$bin/kprof" -blocks matrixMul
quiet "$bin/kprof" -host k520 -blocks Mandelbrot
for ex in quickstart multivp powertiming coalescing multigpu; do
  quiet "$bin/$ex"
done

# A two-device daemon: two sessions, both endpoints, SIGTERM writing a
# checkpoint; then a second daemon restored from it.
daemon() {
  "$bin/sigmavpd" -listen 127.0.0.1:7175 -http 127.0.0.1:7176 "$@" &
  pid=$!
  for _ in $(seq 100); do
    curl -sf -o /dev/null http://127.0.0.1:7176/metrics && return
    sleep 0.1
  done
  echo "traffic-coverage: sigmavpd did not come up" >&2
  exit 1
}
stop() { kill -TERM "$pid" && wait "$pid"; }
daemon -gpus 2 -max-queued 64 -checkpoint-out "$out/ckpt.bin"
quiet "$bin/vpsim" -vps 2 -connect 127.0.0.1:7175 vectorAdd
quiet "$bin/vpsim" -vps 2 -connect 127.0.0.1:7175 matrixMul
curl -sf -o /dev/null http://127.0.0.1:7176/metrics
curl -sf -o /dev/null http://127.0.0.1:7176/trace
stop
daemon -gpus 2 -restore "$out/ckpt.bin" -placement least-loaded
quiet "$bin/vpsim" -vps 2 -connect 127.0.0.1:7175 vectorAdd
stop

# Every benchmark workload, untraced and traced, each in one process.
for w in coalesce-launch copy-stream farm-migrate lockstep-timing emul-kpl; do
  for trace in 0 1; do
    quiet "$bin/bench" -child -workload "$w" -seconds "$secs" -trace "$trace"
  done
done

go tool covdata func -i "$out/data" > "$out/func.txt"
awk '$NF == "0.0%"' "$out/func.txt" > "$out/zero.txt"
tail -n 1 "$out/func.txt"
echo "$(wc -l < "$out/zero.txt") functions at 0.0 %"
