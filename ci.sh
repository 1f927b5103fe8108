#!/usr/bin/env bash
# Offline CI for the ECL-CC workspace: build, test, lint, format.
# The workspace has no external dependencies, so every step runs with
# --offline and must succeed without registry access.
set -euo pipefail

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test -q --offline

echo "==> cargo test (perfbench)"
# perfbench is a workspace of its own, so the root `cargo test` skips it;
# its tests include the check that BENCHMARK.json matches its metric tables.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> batch engine kill-and-resume"
# A small batch is SIGKILLed partway through (timeout sends KILL after the
# first jobs have been journaled), then resumed from the journal; the
# resumed run must report a complete batch.
BATCH_DIR=$(mktemp -d)
trap 'rm -rf "$BATCH_DIR"' EXIT
# Sized so the whole batch takes a couple of seconds in release mode:
# the 0.6 s KILL below lands strictly inside it.
cat > "$BATCH_DIR/jobs.txt" <<'EOF'
rand-a   gnm:200000:600000:1
rmat     rmat:16:8:2
grid     grid:400:400
rand-b   gnm:150000:450000:3
ring     cycle:300000
kron     kronecker:15:7:4
rand-c   gnm:180000:360000:5
cliques  cliques:100:50
EOF
ECL=./target/release/ecl-cc
# Uninterrupted reference for byte-level comparison.
"$ECL" batch --jobs "$BATCH_DIR/jobs.txt" --workers 2 \
    --journal "$BATCH_DIR/ref.journal" --results "$BATCH_DIR/ref" \
    --report "$BATCH_DIR/ref.json" > /dev/null
# Killed run: SIGKILL from `timeout`, mid-batch (if the kill happens to
# land after completion on a fast machine the step still passes — resume
# is then a no-op).
set +e
timeout -s KILL 0.6 \
    "$ECL" batch --jobs "$BATCH_DIR/jobs.txt" --workers 2 \
    --journal "$BATCH_DIR/run.journal" --results "$BATCH_DIR/res" \
    --report "$BATCH_DIR/killed.json" > /dev/null 2>&1
KILL_STATUS=$?
set -e
echo "    killed mid-batch (exit $KILL_STATUS); resuming from journal"
"$ECL" batch --jobs "$BATCH_DIR/jobs.txt" --workers 2 \
    --resume "$BATCH_DIR/run.journal" --results "$BATCH_DIR/res" \
    --report "$BATCH_DIR/resumed.json" > /dev/null
grep -q '"complete": true' "$BATCH_DIR/resumed.json" \
    || { echo "resumed batch report is not complete"; exit 1; }
# Certified labels must be byte-identical to the uninterrupted run.
for f in "$BATCH_DIR"/ref/*.labels; do
    cmp -s "$f" "$BATCH_DIR/res/$(basename "$f")" \
        || { echo "resume produced different bytes for $(basename "$f")"; exit 1; }
done
echo "    resume complete, results byte-identical"
# The same batch through the faulted retry paths: a dead GPU behind a
# breaker that never cools down, and sharded runs under interconnect
# chaos. Every job must still certify the reference bytes.
"$ECL" batch --jobs "$BATCH_DIR/jobs.txt" --workers 1 --watchdog 1 \
    --breaker-threshold 2 --breaker-cooldown-ms 3600000 \
    --results "$BATCH_DIR/deadgpu" --report "$BATCH_DIR/deadgpu.json" > /dev/null
grep -q '"backend":"gpu-sim","state":"open"' "$BATCH_DIR/deadgpu.json" \
    || { echo "dead-GPU batch did not leave the gpu-sim breaker open"; exit 1; }
"$ECL" batch --jobs "$BATCH_DIR/jobs.txt" --shards 2 --fault-plan shard-chaos:3 \
    --results "$BATCH_DIR/sharded" --report "$BATCH_DIR/sharded.json" > /dev/null
for run in deadgpu sharded; do
    for f in "$BATCH_DIR"/ref/*.labels; do
        cmp -s "$f" "$BATCH_DIR/$run/$(basename "$f")" \
            || { echo "$run batch produced different bytes for $(basename "$f")"; exit 1; }
    done
done
echo "    dead-GPU and sharded-chaos batches byte-identical"

echo "==> serial vs host-parallel equivalence smoke"
# The same graph labeled with the simulator serial and host-parallel
# (--sim-workers 0 = one per core); certified labels must be
# byte-identical between the modes.
"$ECL" generate rmat16.sym -o "$BATCH_DIR/eq.ecl" --scale tiny > /dev/null
"$ECL" components "$BATCH_DIR/eq.ecl" --algo gpu \
    --labels "$BATCH_DIR/serial.labels" > /dev/null
"$ECL" components "$BATCH_DIR/eq.ecl" --algo gpu --sim-workers 0 \
    --labels "$BATCH_DIR/parallel.labels" > /dev/null
cmp -s "$BATCH_DIR/serial.labels" "$BATCH_DIR/parallel.labels" \
    || { echo "host-parallel labels differ from serial"; exit 1; }
# And under fault injection, where interleavings diverge the most.
"$ECL" components "$BATCH_DIR/eq.ecl" --algo gpu --fault-plan everything:7 \
    --labels "$BATCH_DIR/serial-fault.labels" > /dev/null
"$ECL" components "$BATCH_DIR/eq.ecl" --algo gpu --fault-plan everything:7 \
    --sim-workers 3 --labels "$BATCH_DIR/parallel-fault.labels" > /dev/null
cmp -s "$BATCH_DIR/serial-fault.labels" "$BATCH_DIR/parallel-fault.labels" \
    || { echo "host-parallel labels differ from serial under faults"; exit 1; }
echo "    serial and host-parallel labels byte-identical"

echo "==> unknown CLI flags are rejected"
# A flag the subcommand's usage does not list (a typo, or --sched) must
# fail loudly instead of silently running with defaults.
set +e
"$ECL" components "$BATCH_DIR/eq.ecl" --algo gpu --sim-workers 3 \
    --sched static > /dev/null 2> "$BATCH_DIR/flag.err"
FLAG_STATUS=$?
set -e
[ "$FLAG_STATUS" -eq 1 ] \
    || { echo "--sched static exited $FLAG_STATUS, expected 1"; exit 1; }
grep -q "unknown flag '--sched' for components" "$BATCH_DIR/flag.err" \
    || { echo "--sched static: missing unknown-flag error"; exit 1; }
echo "    --sched static rejected (exit 1)"

echo "==> execution-mode equivalence suite"
# The golden determinism contract: serial cycle counts and per-level
# cache stats pinned bit-for-bit, host-parallel labels byte-identical to
# serial across worker counts and fault plans. (Also covered by the full
# `cargo test` above; run explicitly so a failure names the contract.)
cargo test -q --offline --test exec_equivalence > /dev/null
echo "    equivalence suite green"

echo "==> observability: profile artifacts + recorder-off equivalence"
# The profile subcommand must emit a schema-valid Chrome trace and
# ecl-metrics-v2 exposition (--validate re-parses both and fails on any
# schema drift), and the recorder must be observation-only: the golden
# cycle pins in exec_equivalence (asserted with recording on AND off,
# above) plus the dedicated observability suite gate this.
"$ECL" profile --graph rmat16.sym --scale tiny \
    --trace "$BATCH_DIR/profile_trace.json" \
    --metrics "$BATCH_DIR/profile_metrics.prom" \
    --validate > /dev/null
grep -q '"schema":"ecl-trace-v1"' "$BATCH_DIR/profile_trace.json" \
    || { echo "profile trace missing schema tag"; exit 1; }
[ "$(head -1 "$BATCH_DIR/profile_metrics.prom")" = "# ecl-metrics-v2" ] \
    || { echo "profile metrics missing ecl-metrics-v2 header"; exit 1; }
cargo test -q --offline --test observability > /dev/null
echo "    profile artifacts schema-valid; recording is observation-only"

echo "==> simspeed self-timing"
# Wall-clock of the simulator itself, serial vs a host-parallel worker
# matrix; the experiment asserts byte-identical certified labels
# internally, and each record carries speedup_vs_serial plus
# sim_edges_per_sec.
./target/release/harness simspeed --scale tiny \
    --json BENCH_simspeed.json > /dev/null
grep -q '"experiment":"simspeed"' BENCH_simspeed.json \
    || { echo "BENCH_simspeed.json missing simspeed records"; exit 1; }
grep -q '"code":"sim-parallel:4"' BENCH_simspeed.json \
    || { echo "simspeed records missing the parallel:4 record"; exit 1; }
# Scaling gate, adaptive to the host's core count. The simulator
# multiplexes workers onto real cores, so scaling expectations only make
# sense where the cores exist:
#   >= 8 cores: on the two largest quick graphs, parallel:4 must beat
#               serial by >= 1.2x and parallel:8 must not regress below
#               parallel:4 (beyond 10% timer noise).
#   <  8 cores: parity gate — parallel:4 must stay within 15% of serial
#               (scheduler + pool overhead bound; there is nothing to
#               scale onto).
speedup_of() { # graph code -> speedup_vs_serial
    grep "\"graph\":\"$1\",\"code\":\"$2\"" BENCH_simspeed.json \
        | grep -o '"speedup_vs_serial":[0-9.]*' | cut -d: -f2
}
CORES=$(nproc 2>/dev/null || echo 1)
for G in rmat16.sym soc-LiveJournal1; do
    S4=$(speedup_of "$G" "sim-parallel:4")
    S8=$(speedup_of "$G" "sim-parallel:8")
    [ -n "$S4" ] && [ -n "$S8" ] \
        || { echo "missing parallel:4/parallel:8 records for $G"; exit 1; }
    if [ "$CORES" -ge 8 ]; then
        awk -v s="$S4" 'BEGIN { exit !(s >= 1.2) }' \
            || { echo "$G: parallel:4 speedup ${S4}x < 1.2x on a ${CORES}-core host"; exit 1; }
        awk -v a="$S8" -v b="$S4" 'BEGIN { exit !(a >= 0.9 * b) }' \
            || { echo "$G: parallel:8 (${S8}x) regressed below parallel:4 (${S4}x)"; exit 1; }
        echo "    $G: parallel:4 ${S4}x, parallel:8 ${S8}x (scaling gate, ${CORES} cores)"
    else
        awk -v s="$S4" 'BEGIN { exit !(s >= 0.85) }' \
            || { echo "$G: parallel:4 fell behind serial beyond tolerance (${S4}x < 0.85x)"; exit 1; }
        echo "    $G: parallel:4 ${S4}x (parity gate; only ${CORES} core(s), scaling not measurable)"
    fi
done
echo "    simspeed matrix written to BENCH_simspeed.json"

echo "==> serve: chaos + SIGKILL/resume smoke"
# The TCP server under concurrent load, a seeded chaos wave (truncated
# frames, stalls, disconnects, malformed/oversized lines), then a real
# SIGKILL mid-write-load followed by --resume. The experiment exits
# nonzero unless every acknowledged edge survives the kill, the drain is
# clean, and the server logs contain zero panics; the grep pins the
# greppable fields the acceptance gate names.
./target/release/harness serve --scale tiny \
    --json BENCH_serve.json > /dev/null
grep -q '"resume_verified":true' BENCH_serve.json \
    || { echo "serve: acked edges lost across SIGKILL/resume"; exit 1; }
grep -q '"server_panics":0' BENCH_serve.json \
    || { echo "serve: server panicked under chaos load"; exit 1; }
echo "    serve survived chaos + SIGKILL; all acked edges recovered"

echo "==> sharded vs serial byte-equality"
# The same graph labeled single-device serial and edge-cut across
# simulated devices; certified labels must be byte-identical, on two
# different topology classes (grid: tiny cut; RMAT: huge cut).
for G in 2d-2e20.sym rmat16.sym; do
    "$ECL" generate "$G" -o "$BATCH_DIR/shard.ecl" --scale tiny > /dev/null
    "$ECL" components "$BATCH_DIR/shard.ecl" \
        --labels "$BATCH_DIR/shard-serial.labels" > /dev/null
    for N in 2 3 5; do
        "$ECL" components "$BATCH_DIR/shard.ecl" --shards "$N" \
            --labels "$BATCH_DIR/shard-$N.labels" > /dev/null
        cmp -s "$BATCH_DIR/shard-serial.labels" "$BATCH_DIR/shard-$N.labels" \
            || { echo "$G: $N-shard labels differ from serial"; exit 1; }
    done
done
echo "    2/3/5-shard labels byte-identical to serial on both graphs"

echo "==> sharded chaos + mid-run device crash"
# Seeded interconnect chaos (dropped + corrupted frames) plus a device
# crash injected at exchange round 2; the run must recover the lost
# shard from its round-boundary checkpoint, still certify, and still
# produce the serial bytes.
"$ECL" components "$BATCH_DIR/shard.ecl" --shards 4 \
    --shard-chaos seed=5,drop=100,corrupt=60,crash=2 \
    --shard-ckpt "$BATCH_DIR/shard-ckpt" --crash-budget 1 \
    --labels "$BATCH_DIR/shard-crash.labels" > "$BATCH_DIR/shard-crash.out" 2>&1
grep -q "1 shards recovered" "$BATCH_DIR/shard-crash.out" \
    || { echo "device crash was not recovered"; cat "$BATCH_DIR/shard-crash.out"; exit 1; }
cmp -s "$BATCH_DIR/shard-serial.labels" "$BATCH_DIR/shard-crash.labels" \
    || { echo "post-recovery labels differ from serial"; exit 1; }
echo "    device crash recovered from checkpoint; labels still serial bytes"

echo "==> harness sharded gate"
# The full clean/chaos/crash matrix (quick graphs x 2/4/8 shards); the
# experiment itself exits nonzero unless every configuration is
# byte-identical to serial and every injected crash recovers.
./target/release/harness sharded --scale tiny \
    --json BENCH_sharded_ci.json > /dev/null
grep -q '"pass":true' BENCH_sharded_ci.json \
    || { echo "sharded matrix gate failed"; exit 1; }
rm -f BENCH_sharded_ci.json
echo "    sharded matrix: all configurations byte-identical, all crashes recovered"

echo "==> adaptive sampling byte-equality"
# The work-efficient variant (neighbor sampling + giant-component
# short-circuit) must produce the baseline bytes on every path. Two
# bundled graphs covering both regimes: power-law social network (big
# skip set) and grid (sampling is pure overhead but must stay exact).
for G in soc-LiveJournal1 2d-2e20.sym; do
    "$ECL" generate "$G" -o "$BATCH_DIR/adapt.ecl" --scale tiny > /dev/null
    "$ECL" components "$BATCH_DIR/adapt.ecl" \
        --labels "$BATCH_DIR/adapt-base.labels" > /dev/null
    for ALGO in serial "parallel --threads 1" "parallel --threads 2" gpu; do
        for SAMP in "" "--sampling 2"; do
            # $ALGO and $SAMP are unquoted on purpose: each is a word list.
            "$ECL" components "$BATCH_DIR/adapt.ecl" --algo $ALGO $SAMP \
                --labels "$BATCH_DIR/adapt-samp.labels" > /dev/null
            cmp -s "$BATCH_DIR/adapt-base.labels" "$BATCH_DIR/adapt-samp.labels" \
                || { echo "$G: --algo $ALGO $SAMP labels differ from baseline"; exit 1; }
        done
    done
done
echo "    labels byte-identical to baseline with and without --sampling 2 (serial, parallel x1/x2, gpu; both graphs)"

echo "==> harness adaptive gate"
# The full experiment: byte-identity on every graph plus the acceptance
# bar — >= 30% edge-inspection reduction on both social-network graphs.
# The experiment itself exits nonzero on any violation; the greps pin
# the greppable fields and re-check the bar explicitly.
./target/release/harness adaptive --scale tiny \
    --json BENCH_adaptive_ci.json > /dev/null
grep -q '"experiment":"adaptive"' BENCH_adaptive_ci.json \
    || { echo "adaptive summary missing experiment tag"; exit 1; }
grep -q '"pass":true' BENCH_adaptive_ci.json \
    || { echo "adaptive gate failed"; exit 1; }
grep -q '"social_reduction_met":true' BENCH_adaptive_ci.json \
    || { echo "adaptive: social-network reduction bar missed"; exit 1; }
REDUC=$(grep -o '"graph":"soc-LiveJournal1"[^}]*' BENCH_adaptive_ci.json \
    | grep -o '"reduction":[0-9.]*' | cut -d: -f2)
[ -n "$REDUC" ] || { echo "adaptive: no soc-LiveJournal1 record"; exit 1; }
awk -v r="$REDUC" 'BEGIN { exit !(r >= 0.30) }' \
    || { echo "soc-LiveJournal1 edge-inspection reduction $REDUC < 0.30"; exit 1; }
rm -f BENCH_adaptive_ci.json
# The committed bench-scale artifact must carry the same schema and pass.
for KEY in '"experiment":"adaptive"' '"pass":true' '"social_reduction_met":true' \
    '"records":' '"skip_fraction":' '"gpu_cycle_speedup":' '"serial_speedup":'; do
    grep -q "$KEY" BENCH_adaptive.json \
        || { echo "committed BENCH_adaptive.json missing $KEY"; exit 1; }
done
# The committed artifact must stay reproducible: a fresh bench-scale run
# must match every deterministic field of every record (edge counts, skip
# fraction, simulated cycles and L2 reads, label identity); timings vary.
./target/release/harness adaptive --scale bench \
    --json "$BATCH_DIR/adaptive-bench.json" > /dev/null
ADAPT_FIELDS='"(baseline_edges|sampling_edges|skip_fraction|gpu_base_cycles|gpu_sampling_cycles|gpu_base_l2_reads|gpu_sampling_l2_reads|labels_match)":[^,}]*'
diff <(grep -oE "$ADAPT_FIELDS" BENCH_adaptive.json) \
    <(grep -oE "$ADAPT_FIELDS" "$BATCH_DIR/adaptive-bench.json") \
    || { echo "harness adaptive --scale bench no longer reproduces BENCH_adaptive.json"; exit 1; }
rm -f "$BATCH_DIR/adaptive-bench.json"
echo "    adaptive gate: byte-identity + social reduction >= 30% (tiny run + committed artifact, reproduced at bench scale)"

echo "==> harness telemetry gate"
# The live-telemetry acceptance gates: recording-on vs recording-off
# serve throughput within 3%, histogram percentiles within one bucket
# width of exact, one SUBMIT's spans forming a connected
# serve/job/ladder/kernel tree, a forced fault leaving a valid
# postmortem, and the METRICS exposition surviving parse -> render
# byte-identically. The experiment exits nonzero on any violation.
./target/release/harness telemetry --json BENCH_telemetry_ci.json > /dev/null
grep -q '"pass":true' BENCH_telemetry_ci.json \
    || { echo "telemetry gate failed"; exit 1; }
grep -q '"overhead_ok":true' BENCH_telemetry_ci.json \
    || { echo "telemetry: recording overhead above 3%"; exit 1; }
grep -q '"trace_ok":true' BENCH_telemetry_ci.json \
    || { echo "telemetry: SUBMIT trace tree not connected"; exit 1; }
rm -f BENCH_telemetry_ci.json
# The committed artifact must carry the same schema and pass.
for KEY in '"experiment":"telemetry"' '"pass":true' '"overhead_ok":true' \
    '"histo_ok":true' '"trace_ok":true' '"flight_ok":true' \
    '"expo_roundtrip_ok":true'; do
    grep -q "$KEY" BENCH_telemetry.json \
        || { echo "committed BENCH_telemetry.json missing $KEY"; exit 1; }
done
echo "    telemetry gates: overhead/histogram/trace/flight/exposition all pass"

echo "==> live telemetry over the wire: METRICS dump + trace propagation"
# A real `ecl-cc serve` process driven over /dev/tcp: the METRICS reply
# must be a well-formed ecl-metrics-v2 document (schema-validated by the
# parser inside `harness telemetry` and the protocol_corpus tests; here
# the header, histogram and window series are pinned), and one SUBMIT's
# trace id must land in the serve, job, and kernel spans of the exported
# Chrome trace — a single request visible across every layer. The
# --metrics file written on drain is the same exposition plus the
# recorder totals, so the traced job shows up as ecl_engine_jobs.
TDIR="$BATCH_DIR/telemetry"
mkdir -p "$TDIR"
"$ECL" serve --dir "$TDIR/state" --addr 127.0.0.1:0 --vertices 1000 \
    --metrics-every 1 --trace "$TDIR/serve-trace.json" \
    --metrics "$TDIR/final.prom" \
    > "$TDIR/serve.out" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$TDIR/serve.out" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve never printed its address"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
read -r GREETING <&3
case "$GREETING" in
    "ECL/1 OK"*) ;;
    *) echo "bad serve greeting: $GREETING"; exit 1 ;;
esac
# One traced SUBMIT, polled to completion.
printf 'SUBMIT ci gnm:2000:6000:1\n' >&3
read -r SUB <&3
TRACE_ID=$(printf '%s' "$SUB" | sed -n 's/.*trace=\([0-9a-f]\{16\}\).*/\1/p')
JOB_ID=$(printf '%s' "$SUB" | sed -n 's/^OK job=\([0-9]*\).*/\1/p')
[ -n "$TRACE_ID" ] && [ -n "$JOB_ID" ] \
    || { echo "SUBMIT reply missing job/trace: $SUB"; exit 1; }
ST=""
for _ in $(seq 1 400); do
    printf 'JOB %s\n' "$JOB_ID" >&3
    read -r ST <&3
    case "$ST" in "OK done"*|"OK failed"*) break ;; esac
    sleep 0.05
done
case "$ST" in
    "OK done"*) ;;
    *) echo "traced job did not complete: $ST"; exit 1 ;;
esac
# Some request traffic, pipelined: 20 ADDs and a PING in one write must
# come back as 21 replies in order, all OK and the last `OK pong`. Then
# a METRICS dump read to exactly `lines=N`.
BURST=""
for i in $(seq 1 20); do
    BURST="${BURST}ADD $((i % 1000)) $(((i + 7) % 1000))\n"
done
printf "${BURST}PING\n" >&3
REPLY_LINE=""
for i in $(seq 1 21); do
    read -r -t 10 REPLY_LINE <&3 || { echo "pipelined reply $i missing"; exit 1; }
    case "$REPLY_LINE" in
        OK*) ;;
        *) echo "pipelined reply $i not OK: $REPLY_LINE"; exit 1 ;;
    esac
done
[ "$REPLY_LINE" = "OK pong" ] \
    || { echo "pipelined burst: last reply '$REPLY_LINE', want 'OK pong'"; exit 1; }
printf 'METRICS 10s\n' >&3
read -r HDR <&3
case "$HDR" in
    "OK ecl-metrics-v2 lines="*) ;;
    *) echo "bad METRICS header: $HDR"; exit 1 ;;
esac
NLINES=${HDR#OK ecl-metrics-v2 lines=}
: > "$TDIR/metrics.dump"
for _ in $(seq 1 "$NLINES"); do
    read -r L <&3
    printf '%s\n' "$L" >> "$TDIR/metrics.dump"
done
head -1 "$TDIR/metrics.dump" | grep -q '^# ecl-metrics-v2$' \
    || { echo "METRICS dump missing ecl-metrics-v2 header"; exit 1; }
grep -q '^ecl_request_latency_us_bucket{cmd="all",le="+Inf"}' "$TDIR/metrics.dump" \
    || { echo "METRICS dump missing latency histogram series"; exit 1; }
grep -q '^ecl_window_p99_us{window="10s"}' "$TDIR/metrics.dump" \
    || { echo "METRICS dump missing windowed p99 series"; exit 1; }
# Graceful drain; the trace is exported on join.
printf 'SHUTDOWN\n' >&3
read -r _ <&3
exec 3<&- 3>&-
wait "$SERVE_PID" || { echo "serve drain failed"; exit 1; }
# `--metrics-every 1` must have left an exposition file behind.
head -1 "$TDIR/state/metrics.prom" | grep -q '^# ecl-metrics-v2$' \
    || { echo "metrics.prom missing or missing header"; exit 1; }
# `--metrics FILE` must have written the drain-time exposition.
[ "$(head -1 "$TDIR/final.prom")" = "# ecl-metrics-v2" ] \
    || { echo "final.prom missing or missing header"; exit 1; }
grep -Eq '^ecl_engine_jobs [1-9]' "$TDIR/final.prom" \
    || { echo "final.prom missing ecl_engine_jobs from the traced SUBMIT"; exit 1; }
# The SUBMIT's trace id must appear in spans of every layer it crossed.
for CAT in serve job kernel; do
    grep "\"trace_id\":\"$TRACE_ID\"" "$TDIR/serve-trace.json" \
        | grep -q "\"cat\":\"$CAT\"" \
        || { echo "trace id $TRACE_ID missing from $CAT spans"; exit 1; }
done
echo "    METRICS exposition valid on the wire; trace $TRACE_ID spans serve/job/kernel"

echo "==> forced WAL poison leaves a valid postmortem"
# `--debug-poison-after N` trips the WAL after the Nth appended edge;
# the flight recorder must dump a digest-stamped postmortem.json the
# moment the first ADD surfaces the ERR io.
PDIR="$BATCH_DIR/poison"
mkdir -p "$PDIR"
"$ECL" serve --dir "$PDIR/state" --addr 127.0.0.1:0 --vertices 1000 \
    --debug-poison-after 10 --flight-dir "$PDIR" \
    > "$PDIR/serve.out" 2>&1 &
POISON_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$PDIR/serve.out" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "poison serve never printed its address"; kill "$POISON_PID" 2>/dev/null; exit 1; }
exec 4<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
read -r _ <&4
POISONED=false
for i in $(seq 1 40); do
    printf 'ADD %s %s\n' "$((i % 1000))" "$(((i + 1) % 1000))" >&4
    read -r R <&4
    case "$R" in "ERR io"*) POISONED=true; break ;; esac
done
exec 4<&- 4>&-
kill "$POISON_PID" 2>/dev/null || true
wait "$POISON_PID" 2>/dev/null || true
[ "$POISONED" = true ] || { echo "WAL poison never surfaced as ERR io"; exit 1; }
grep -q '"schema":"ecl-flight-v1"' "$PDIR/postmortem.json" \
    || { echo "postmortem.json missing or missing schema tag"; exit 1; }
grep -q '"reason":"wal-poison"' "$PDIR/postmortem.json" \
    || { echo "postmortem.json has wrong reason"; exit 1; }
grep -q '"digest":"' "$PDIR/postmortem.json" \
    || { echo "postmortem.json missing digest"; exit 1; }
echo "    postmortem.json valid (reason wal-poison, digest stamped)"

echo "CI OK"
