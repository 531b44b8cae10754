//! The observability layer must be free when it is off: with `PSCP_OBS`
//! unset (forced here via `set_flags(0)` so a polluted environment
//! cannot flip the result), the allocation-free steady state still
//! holds with every obs hook compiled in. A counting global allocator
//! measures the exact heap traffic of `PscpMachine::step` idle cycles,
//! `CompiledNet::eval_into` and the serve writer's per-write counters
//! and insists on zero.
//!
//! It also pins the configuration cycle's heap traffic under a script
//! on the pickup head: once its buffers have grown, a cycle that fires
//! allocates exactly its `CycleReport`'s vectors (`fired`,
//! `transition_cycles`, `assigned_tep`, and `raised` when it is not
//! empty), and a sampled idle cycle, a quiet cycle and
//! `PscpMachine::reset` allocate nothing. Sampling a scripted row by
//! event id allocates nothing, its first row (which resolves the
//! script's names) included. A `SimPool` batch allocates
//! the same whether its quiet stretches last 1 000 or 100 000 cycles,
//! and with four times the fired cycles it allocates more only by its
//! cycle logs' buffers doubling: the scenario loop logs the machine's
//! report in place, so a fired cycle there allocates nothing. The same
//! holds for an outcome on the wire: `WireOutcome::from_batch(..)
//! .encode()` and `WireOutcome::decode` of a scenario with four times
//! the fired cycles allocate more only by buffers doubling, because the
//! outcome carries the scenario's `CycleLog` and its codec copies no
//! report's lists into a block of their own.
//!
//! Single `#[test]` on purpose: the harness runs tests on extra threads
//! and any sibling test's allocations would race the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pscp_bench::example_system;
use pscp_core::arch::PscpArch;
use pscp_core::machine::{Environment, NullEnvironment, PscpMachine, ScriptedEnvironment};
use pscp_core::pool::{BatchOptions, SimPool};
use pscp_core::serve::wire::WireOutcome;
use pscp_sla::compiled::CompiledNet;
use pscp_sla::net::LogicNet;
use pscp_statechart::semantics::SelectionTables;
use pscp_statechart::EventId;
use std::sync::Arc;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Replays a script by event id, as the machine samples a bare
/// `ScriptedEnvironment`, counting the cycles it lets the machine
/// complete quietly. Port writes are dropped: recording them would
/// allocate on the test's side.
struct Replay {
    script: ScriptedEnvironment,
    quiet: u64,
}

impl Environment for Replay {
    fn sample_events(&mut self, now: u64) -> Vec<String> {
        self.script.sample_events(now)
    }

    fn sample_event_ids(
        &mut self,
        now: u64,
        tables: &Arc<SelectionTables>,
        out: &mut Vec<EventId>,
    ) {
        self.script.sample_event_ids(now, tables, out)
    }

    fn quiet_sample(&mut self, now: u64) -> bool {
        let quiet = self.script.quiet_sample(now);
        self.quiet += u64::from(quiet);
        quiet
    }
}

/// A seeded pickup-head script: busy stretches where DATA_VALID and the
/// motor pulses arrive with p = 1/2 (plus rarer commands), then empty
/// stretches the machine idles through quietly.
fn pickup_script(rows: usize) -> Replay {
    const EVENTS: [(&str, u64); 7] = [
        ("DATA_VALID", 2),
        ("X_PULSE", 2),
        ("Y_PULSE", 2),
        ("PHI_PULSE", 16),
        ("INIT", 16),
        ("ALLRESET", 64),
        ("ERROR", 128),
    ];
    let mut seed = 0x5eed_u64;
    let script: Vec<Vec<&str>> = (0..rows)
        .map(|r| {
            if r == 0 {
                return vec!["POWER"];
            }
            if (r / 24) % 2 == 1 {
                return Vec::new();
            }
            EVENTS
                .iter()
                .filter(|&&(_, one_in)| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (seed >> 33).is_multiple_of(one_in)
                })
                .map(|&(name, _)| name)
                .collect()
        })
        .collect();
    Replay { script: ScriptedEnvironment::new(script), quiet: 0 }
}

/// Scenario `i` of the quiet-stretch batch: a few busy rows of the
/// seeded pickup script, `quiet_rows` empty rows, then busy rows again.
fn quiet_stretch(i: usize, quiet_rows: usize) -> Replay {
    let busy = pickup_script(48 + 24 * i).script.script();
    let (head, tail) = busy.split_at(24);
    let rows = head.iter().cloned().chain(vec![Vec::new(); quiet_rows]).chain(tail.iter().cloned());
    Replay { script: ScriptedEnvironment::new(rows.collect::<Vec<_>>()), quiet: 0 }
}

#[test]
fn disabled_obs_keeps_hot_paths_allocation_free() {
    // Pin the flags before measuring: lazy env init allocates once
    // inside `std::env::var`, and the test must not depend on the
    // driver's environment.
    pscp_obs::set_flags(0);
    assert!(!pscp_obs::metrics_enabled());
    assert!(!pscp_obs::trace_enabled());

    // --- PscpMachine::step, idle cycles ---
    let arch = PscpArch::md16_optimized();
    let system = example_system(&arch);
    let mut machine = PscpMachine::new(&system);
    let mut env = NullEnvironment;
    // Warm-up: first cycles may lazily size internal scratch.
    for _ in 0..8 {
        machine.step(&mut env).expect("idle cycle");
    }
    let before = allocs();
    for _ in 0..200 {
        machine.step(&mut env).expect("idle cycle");
    }
    let step_allocs = allocs() - before;
    assert_eq!(
        step_allocs, 0,
        "PscpMachine::step allocated {step_allocs} times over 200 idle cycles \
         with PSCP_OBS off"
    );

    // --- the configuration cycle under a script ---
    const ROWS: usize = 600;
    let system = example_system(&PscpArch::dual_md16(true));
    let mut machine = PscpMachine::new(&system);
    // Warm-up: one pass over the script grows every buffer to what the
    // measured pass needs, which replays the same cycles.
    let mut env = pickup_script(ROWS);
    for _ in 0..ROWS {
        machine.step(&mut env).expect("warm-up cycle");
    }
    let before = allocs();
    machine.reset();
    let reset_allocs = allocs() - before;
    assert_eq!(reset_allocs, 0, "PscpMachine::reset allocated {reset_allocs} times");

    let mut env = pickup_script(ROWS);
    let (mut fired, mut raising, mut sampled_idle, mut quiet) = (0, 0, 0, 0);
    for cycle in 0..ROWS {
        let quiet_before = env.quiet;
        let before = allocs();
        let report = machine.step(&mut env).expect("scripted cycle");
        let got = allocs() - before;
        let expected = if report.fired.is_empty() {
            if env.quiet > quiet_before {
                quiet += 1;
            } else {
                sampled_idle += 1;
            }
            0
        } else {
            fired += 1;
            raising += u64::from(!report.raised.is_empty());
            3 + u64::from(!report.raised.is_empty())
        };
        assert_eq!(
            got, expected,
            "cycle {cycle} allocated {got} times, expected {expected}: {report:?}"
        );
    }
    // Every kind of cycle the pin speaks of ran, and often.
    assert!(fired >= 50, "only {fired} fired cycles");
    assert!(raising >= 5, "only {raising} fired cycles raised events");
    assert!(sampled_idle >= 50, "only {sampled_idle} sampled idle cycles");
    assert!(quiet >= 50, "only {quiet} quiet cycles");

    // --- sampling scripted rows by event id ---
    let mut script = pickup_script(ROWS).script;
    let mut ids = Vec::with_capacity(64);
    let (mut busy_rows, mut sampled) = (0, 0);
    let before = allocs();
    for now in 0..ROWS as u64 {
        ids.clear();
        script.sample_event_ids(now, &system.selection, &mut ids);
        busy_rows += usize::from(!ids.is_empty());
        sampled += ids.len();
    }
    let sample_allocs = allocs() - before;
    assert_eq!(
        sample_allocs, 0,
        "sampling {busy_rows} scripted rows allocated {sample_allocs} times"
    );
    assert!(busy_rows >= 100 && sampled > busy_rows, "{busy_rows} rows, {sampled} events");

    // --- a batch's quiet stretches ---
    // The pool's scenario loop completes quiet cycles in place and logs
    // them by count, so a batch allocates the same whatever the length
    // of its quiet stretches. One worker: nothing is spawned.
    let pool = SimPool::with_threads(1);
    let batch = |quiet_rows: usize| {
        let envs: Vec<_> = (0..4).map(|i| quiet_stretch(i, quiet_rows)).collect();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: quiet_rows as u64 + 64 };
        let before = allocs();
        let out = pool.run_batch(&system, envs, &limits);
        let got = allocs() - before;
        let quiet: u64 = out.iter().map(|o| o.env.quiet).sum();
        assert!(quiet >= 4 * quiet_rows as u64, "only {quiet} quiet cycles");
        assert!(out.iter().all(|o| o.error.is_none() && o.stats.transitions > 0));
        got
    };
    batch(1_000); // warm-up
    let (short, long) = (batch(1_000), batch(100_000));
    assert_eq!(
        short, long,
        "a batch allocated {short} times with 1 000-cycle quiet stretches \
         but {long} times with 100 000-cycle ones"
    );

    // --- a batch's fired cycles ---
    // Each scenario's first `rows` rows are the same at both lengths,
    // so the longer batch repeats the shorter one's allocations and then
    // only grows its logs. A log keeps five buffers (its runs and four
    // lists), and four times the entries take each at most three more
    // doublings: two for the growth, one for where the shorter run's
    // capacity stood. The worker's machine may meet a cycle that fires
    // more transitions than any before and grow one of its report's
    // four lists once more.
    const SCENARIOS: usize = 4;
    let fired_batch = |rows: usize| {
        let envs: Vec<_> = (0..SCENARIOS).map(|_| pickup_script(rows)).collect();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: rows as u64 };
        let before = allocs();
        let out = pool.run_batch(&system, envs, &limits);
        let got = allocs() - before;
        assert!(out.iter().all(|o| o.error.is_none() && o.reports.len() == rows));
        let fired = out.iter().flat_map(|o| o.reports.iter()).filter(|r| !r.fired.is_empty());
        (got, fired.count())
    };
    fired_batch(ROWS); // warm-up
    let ((short, short_fired), (long, long_fired)) = (fired_batch(ROWS), fired_batch(4 * ROWS));
    assert!(short_fired >= 200 && long_fired >= 3 * short_fired, "{short_fired} vs {long_fired}");
    let doublings = (SCENARIOS * 5 * 3 + 4) as u64;
    assert!(
        long <= short + doublings,
        "a batch allocated {short} times over {short_fired} fired cycles but {long} times \
         over {long_fired}; the logs' doublings account for at most {doublings} more"
    );

    // --- an outcome on the wire ---
    // `from_batch` clones the log, the stats and the environment's
    // lists, a fixed number of blocks; the encoder writes each cycle
    // from the log into one buffer, and the decoder pushes each report
    // from one scratch report into a new log. With four times the fired
    // cycles, the encoder's buffer and the decoded log's five buffers
    // take each at most three more doublings, and the scratch report's
    // four lists at most one more each.
    let wire_round = |rows: usize| {
        let envs = vec![pickup_script(rows).script];
        let limits = BatchOptions { deadline: u64::MAX, max_steps: rows as u64 };
        let outcome = pool.run_batch(&system, envs, &limits).pop().expect("one outcome");
        assert!(outcome.error.is_none() && outcome.reports.len() == rows);
        let before = allocs();
        let bytes = WireOutcome::from_batch(&outcome).encode();
        let decoded = WireOutcome::decode(&bytes).expect("an encoded outcome decodes");
        let got = allocs() - before;
        assert!(decoded.encode() == bytes, "the decoded outcome encodes to other bytes");
        let fired = outcome.reports.iter().filter(|r| !r.fired.is_empty()).count();
        (got, fired)
    };
    wire_round(ROWS); // warm-up
    let ((short, short_fired), (long, long_fired)) = (wire_round(ROWS), wire_round(4 * ROWS));
    assert!(short_fired >= 50 && long_fired >= 3 * short_fired, "{short_fired} vs {long_fired}");
    let doublings = (6 * 3 + 4) as u64;
    assert!(
        long <= short + doublings,
        "an outcome's encode and decode allocated {short} times over {short_fired} fired \
         cycles but {long} times over {long_fired}; doublings account for at most {doublings} more"
    );

    // --- CompiledNet::eval_into with reused scratch ---
    let mut net = LogicNet::new();
    let a = net.input("a");
    let b = net.input("b");
    let c = net.input("c");
    let ab = net.and(vec![a, b]);
    let nc = net.not(c);
    let out = net.or(vec![ab, nc]);
    net.set_output("y", out);
    let compiled = CompiledNet::compile(&net);
    let mut scratch = Vec::new();
    // Warm-up sizes the scratch buffer once.
    compiled.eval_into(&[true, false, true], &mut scratch);
    let before = allocs();
    for i in 0..1000u32 {
        let bits = [i & 1 == 0, i & 2 == 0, i & 4 == 0];
        compiled.eval_into(&bits, &mut scratch);
    }
    let eval_allocs = allocs() - before;
    assert_eq!(
        eval_allocs, 0,
        "CompiledNet::eval_into allocated {eval_allocs} times over 1000 evals \
         with PSCP_OBS off"
    );

    // --- the serve writer's per-write counters ---
    let before = allocs();
    for conn in 0..100usize {
        pscp_obs::metrics::SERVE_FRAMES_OUT.add(conn, 2);
        pscp_obs::metrics::SERVE_WRITES.add(conn, 1);
    }
    let counter_allocs = allocs() - before;
    assert_eq!(counter_allocs, 0, "serve write counters allocated with PSCP_OBS off");
    assert_eq!(
        pscp_obs::metrics::SERVE_WRITES.values(),
        Vec::<u64>::new(),
        "serve_writes counted with PSCP_OBS off"
    );
}
