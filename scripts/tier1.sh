#!/usr/bin/env bash
# Tier-1 gate: what CI runs on every PR. Build + facade tests, then the
# full workspace suite, then clippy (warnings are errors) on every
# workspace crate and on the benchmark package, which sits outside the
# workspace, then rustdoc (warnings are errors) on the workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

# No manifest may bring the serde stack back: content keys hash through
# `KeyHasher`, and the memo file uses the wire codec.
if grep -n 'serde' Cargo.toml crates/*/Cargo.toml; then
    echo "tier1: a manifest names serde" >&2
    exit 1
fi

# A decoder's count guard comes from the element type's `Wire::MIN_BYTES`,
# never from a hand-counted literal, which can drift from the layout.
if grep -rnE '\.count\([[:space:]]*[0-9]' crates/*/src; then
    echo "tier1: a count guard takes a literal; use the element's MIN_BYTES" >&2
    exit 1
fi

cargo build --release
cargo test -q
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --all-targets --manifest-path pscp-benchmark/Cargo.toml -- -D warnings
# Rustdoc warnings are errors too: a public doc that links a private,
# deleted or ambiguous item fails here instead of landing unnoticed.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The scenario-server differential suite is the serving layer's spec:
# wire round-trips must be byte-identical to the in-process SimPool.
# Shard workers are scalar: each pops up to 8 queued jobs and runs them
# one after another on its one machine, through the pool's scenario
# loop; `batched_shards_are_byte_identical` pins multi-job pops at 1, 2
# and 4 workers.
# `serve_wire` also holds the socket-byte pin (a round of submissions
# sent in one write comes back as exactly the in-process outcome frames,
# each followed by its credit, however the server batches its writes)
# and the client send rule (a submit waits in the outbox until the
# client reads, writes another frame, takes its last credit or flushes).
# `serve_stats` pins the telemetry plane, including writes that coalesce
# frames (no more socket writes than outcomes) and per-scenario latency
# within a popped batch.
cargo test --release -p pscp-core --test serve_differential -q
# The wire codec's spec: `wire_golden` pins the bytes of every layout
# (each frame variant, the outcome, diagnostics, stats and explore-report
# bodies, a state key) by length and FNV-1a64 digest, and `memo_codec`
# pins the memo file's; `wire_fuzz` feeds every decoder arbitrary and
# bit-flipped input, which must decode to a value or a typed error,
# never panic, and request no more heap than the input length times
# `DECODE_HEAP_PER_BYTE`. That bound is derived from the decoded types
# (each layout's `HEAP_PER_BYTE` is the most of its parts', and a
# collection's covers its element's `size_of / MIN_BYTES`), so a new
# element type cannot escape it; `wire_fuzz` pins it at 16.
cargo test --release -p pscp-core --test wire_golden -q
cargo test --release -p pscp-core --test wire_fuzz -q
cargo test --release -p pscp-bench --test memo_codec -q
cargo test --release -p pscp-core --test serve_wire -q
cargo test --release -p pscp-core --test serve_backpressure -q
cargo test --release -p pscp-core --test serve_stats -q

# The determinism suite is the worker pools' spec: parallelism never
# changes results — DSE histories at every worker count, SimPool
# batches at every worker count, and the 560-transition gang system
# under sparse scripts at every worker count.
cargo test --release -p pscp-bench --test determinism -q

# The quiet-cycle differential suite is the quiet path's spec: a machine
# that completes quiet configuration cycles without sampling or
# transition selection must be byte-identical — reports, stats, clock,
# faults and the plant's recorded run — to an oracle environment that
# samples every cycle, on the pickup head against the SmdHead plant and
# on sparse timer scripts, at one and two workers, when a `done`
# predicate, step limit or deadline cuts a quiet stretch, and in the
# VCD waveform.
cargo test --release -p pscp-core --test quiet_differential -q

# The explore differential suite is the reachability engine's spec:
# reports must be byte-identical across worker counts against the
# one-worker run, every witness must replay to its claimed state key,
# and the exhaustive state count must match a brute-force enumeration.
# It also pins data-plane interning: a routine that rewrites a global
# with its own value must dedup against the routine-free edge, and a
# worker must reload a plane that a previous job from the same source
# wrote. And it pins the packed visited key (control words plus a plane
# id): on a 72-state chart whose active bitmap takes two words, with a
# `history` OR-state, a routine-raised internal event, a condition and
# two timers raising one event, the report must match brute force and
# be byte-identical at 1 and 4 workers; and along random reachable
# walks, restoring a state's packed words and plane must give back
# exactly that state, and two states must pack equal exactly when their
# canonical keys are equal. A pack that drops a history entry or a
# duplicate pending timer event fails both.
cargo test --release -p pscp-core --test explore_differential -q
cargo test --release -p pscp-statechart --lib -q packed_control
# The key-event unit tests pin the rule selection is indexed by: each
# transition sits in exactly one place (its key event's list or the
# unkeyed list), the key follows a trigger's (else a guard's) top-level
# conjunction on a fixture with every label shape, and a rotor chart in
# the gang chart's shape is keyed throughout, so a resolver change that
# silently unkeys every transition fails here, not only in the
# benchmark.
cargo test --release -p pscp-statechart --lib -q event_keys

# The DSE golden suite is the optimiser's spec: the `Debug` rendering of
# the chosen history, architecture, placement and timing must stay
# byte-identical to the recorded goldens (re-recorded, when the serde
# JSON goldens went, in a run that matched those byte for byte), at one
# and two workers, incremental and full; a file-backed memo must hold
# one entry per evaluated candidate under the recorded keys, serve a
# warm rerun without compiling, and restart cold from a corrupt file.
cargo test --release -p pscp-bench --test dse_golden -q
cargo test --release -p pscp-bench --test dse_memo -q

# The timing-graph property suite is the timing graph's spec: a graph
# built from one random chart's system, priced with another system's
# cost table and TEP count (what every DSE candidate is, an `AddTep`
# step included), must render a report byte-identical to the reference
# §4 DFS of that other system, and `validate_timing` must equal the
# reference walk on every random chart.
cargo test --release -p pscp-core --test proptest_incremental -q

# The allocation pin is the configuration cycle's heap spec, run here in
# release as well (the workspace run above is a debug build): with obs
# off, a fired cycle of the pickup head under a script allocates exactly
# its `CycleReport`'s vectors (`fired`, `transition_cycles`,
# `assigned_tep`, and `raised` when it is not empty); sampled idle
# cycles, quiet cycles, `PscpMachine::reset`, `CompiledNet::eval_into`
# and the serve writer's counters allocate nothing.
cargo test --release -p pscp-bench --test obs_alloc -q

# The selection-oracle suites are the executor's transition-selection
# spec. Selection is event-keyed (tables built once per compiled
# system): a cycle evaluates only the transitions filed under its
# present events plus the unkeyed ones, then runs the claimed-state
# conflict check. Its selected set must equal the synthesised SLA's
# fire set, cycle by cycle, under both encodings — on random charts
# whose transitions may leave or enter composite regions and whose
# labels take every compound shape (negated, conjoined and disjoined
# triggers, event and condition guards with and without a trigger, the
# empty label), on history re-entry, and on the 560-transition gang
# chart — and random walks must keep every configuration consistent
# and conflict-free.
# `proptest_differential` also holds the inhibition oracle: every fire
# signal's inhibitors are exactly the earlier-placed transitions whose
# scope is not orthogonal (a test-only copy of the pairwise rule), on
# random charts, the pickup head, the gang chart and an
# exclusive-sibling-scope fixture.
cargo test --release -p pscp-sla --test proptest_differential -q
cargo test --release -p pscp-statechart --test proptest_semantics -q
cargo test --release --test history_states -q
cargo test --release -p pscp-bench --test selection_differential -q

# The SLA golden suite is the emitted netlist's spec: the pickup head's
# BLIF and VHDL text under both encodings, and the gang chart's netlist
# digests, node and product-term counts, must stay byte-identical to
# the recorded goldens — synthesis pushes nodes in a fixed order, and
# that order is the bytes the hardware path consumes.
cargo test --release -p pscp-bench --test sla_golden -q

# SLA scaling smoke: synthesis on the gang chart at 70 to 2 240
# transitions runs to completion and prints its table.
cargo run --release -p pscp-bench --bin sla_scaling > /dev/null

# The benchmark package sits outside the workspace, so nothing above
# builds it; its tests keep it compiling against the crates' APIs and
# smoke all six workloads (explore_wide checks wide == scalar).
cargo test --release --offline --manifest-path pscp-benchmark/Cargo.toml -q

# The incremental-compilation differential suite is the codegen cache's
# spec: cached recompiles on one shared cache, as `optimize` runs them,
# must be byte-identical to full compiles across random charts x random
# arch/placement perturbations, and a poisoned cache entry must be
# detected, never served.
cargo test --release -p pscp-core --test compile_incremental -q

# The diagnostics suites are the recovering frontends' spec: every
# phase's findings land in one report, every error fixture is
# diagnosed, mutilated sources never panic, and a server's Diagnostics
# reply is byte-identical to the in-process report.
cargo test --release -p pscp-statechart --test diagnostics -q
cargo test --release -p pscp-action-lang --test diagnostics -q
cargo test --release -p pscp-core --test diagnostics -q

# Serving smoke: a loopback server + 4-client pickup-head session, 8
# scenarios per client. The session opens with a Compile → Diagnostics
# round-trip (wire report byte-identical to the in-process sink, then a
# scenario on the same connection); every outcome is differentially
# checked against the in-process pool, and the closing telemetry comes
# over a Stats scrape. It exits non-zero on a failed compile round-trip,
# a failed scrape or any mismatch, and the per-connection metrics
# snapshot must be valid JSON.
PSCP_OBS_DIR=target/obs \
    cargo run --release -p pscp-serve -- session --clients 4 --scenarios 8 > /dev/null
python3 -m json.tool target/obs/serve_metrics.json > /dev/null

# Exploration smoke: a loopback `pscp-serve explore` run must report
# the wire exploration byte-identical to the in-process one, replay
# every witness, and close the pickup head's state space without
# truncation.
cargo run --release -p pscp-serve -- explore --loopback --never-active MoveX \
    > target/tier1-explore.out
grep -q 'differential OK' target/tier1-explore.out
grep -q 'witness replay OK' target/tier1-explore.out
grep -q 'truncated=false' target/tier1-explore.out

# Telemetry smoke: a one-shot wire scrape against a self-contained
# loopback session must expose at least three Prometheus metric
# families — gauges, counters and histograms all travel the Stats
# frame.
cargo run --release -p pscp-serve -- stats --prom --loopback \
    > target/tier1-stats.prom
test "$(grep -c '^# TYPE pscp_' target/tier1-stats.prom)" -ge 3

# Diagnostics CLI smoke: `pscp-serve check` renders a seeded-error
# fixture with spans and exits 1; a clean chart reports OK and exits 0.
printf 'event TICK period 100;\norstate Root { contains A; default Zed; }\nbasicstate A {}\n' \
    > target/tier1-broken.chart
if cargo run --release -p pscp-serve -- check target/tier1-broken.chart > target/tier1-check.out 2>&1; then
    echo "tier1: check should have failed on the broken chart" >&2
    exit 1
fi
grep -q 'SC201' target/tier1-check.out
printf 'event TICK period 100;\norstate Root { contains A, B; default A; }\nbasicstate A { transition { target B; label "TICK"; } }\nbasicstate B { transition { target A; label "TICK"; } }\n' \
    > target/tier1-good.chart
cargo run --release -p pscp-serve -- check target/tier1-good.chart | grep -q 'OK (fingerprint'

# Observability smoke: one traced + waveform-dumped pickup-head run.
# The trace must be valid Chrome trace_event JSON, the VCD and metrics
# snapshot non-empty, and the report tool must render the snapshot.
PSCP_OBS=metrics,trace,vcd PSCP_OBS_DIR=target/obs \
    cargo run --release -p pscp-bench --bin obs_pickup_head > /dev/null
python3 -m json.tool target/obs/trace.json > /dev/null
test -s target/obs/pickup_head.vcd
test -s target/obs/metrics.json
scripts/obs-report.sh target/obs/metrics.json > /dev/null

echo "tier1: OK"
