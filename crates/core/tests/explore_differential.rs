//! Differential harness for state-space exploration (ISSUE 10): the
//! explorer's report must be **byte-identical** — through the canonical
//! [`encode_explore_report`] encoding — across worker counts {1,4},
//! against the one-worker oracle; every
//! witness it emits must replay on a fresh machine to the exact
//! claimed state key; and on a hand-enumerable chart the exhaustive
//! state count must match an independent brute-force enumeration that
//! shares no code with the BFS engine.
//!
//! The chart reuses the serve-differential timer pattern (§6 hardware
//! timer armed by a port write, expiry raising a chart event) so the
//! state key exercises every field: configuration bitmaps, chart
//! conditions, armed-timer countdowns, pending timer events and TEP
//! data storage.

use proptest::prelude::*;
use pscp_core::arch::{PscpArch, TimerSpec};
use pscp_core::compile::{compile_system, CompiledSystem};
use pscp_core::explore::{
    alphabet, decode_state, encode_state, explore, replay, ExploreOptions, FnvHasher, Predicate,
    STATE_KEY_VERSION,
};
use pscp_core::machine::{NullEnvironment, PscpMachine, ScriptedEnvironment, SemanticState};
use pscp_core::pool::{BatchOptions, SimPool};
use pscp_core::serve::wire::{encode_explore_report, WireOutcome};
use pscp_statechart::semantics::ControlState;
use pscp_statechart::{ChartBuilder, EventId, StateId, StateKind};
use pscp_tep::codegen::CodegenOptions;
use pscp_tep::TepDataState;
use std::collections::{HashSet, VecDeque};
use std::hash::Hasher;

/// Timer reload port address (must match the `TLOAD` data port).
const TLOAD_ADDR: u16 = 0x40;

const TIMER_ACTIONS: &str = r#"
    int:16 fired;
    void Arm(int:16 n) { TLOAD = n; }
    void Disarm() { TLOAD = 0; }
    void Note(int:16 k) { fired = fired + k; OVER = fired >= 6; }
"#;

fn timer_system() -> CompiledSystem {
    let mut b = ChartBuilder::new("timed");
    b.event("TICK", Some(400));
    b.event("PING", None);
    b.event("T_EXP", Some(2_000));
    b.condition("OVER", false);
    use pscp_statechart::model::PortDirection::Output;
    b.data_port("TLOAD", 16, TLOAD_ADDR, Output);
    b.state("Top", StateKind::Or)
        .contains(["Idle", "Armed", "Fired", "Done"])
        .default_child("Idle");
    b.state("Idle", StateKind::Basic).transition("Armed", "TICK/Arm(3)");
    b.state("Armed", StateKind::Basic)
        .transition("Fired", "T_EXP/Note(1)")
        .transition("Idle", "PING/Disarm()");
    b.state("Fired", StateKind::Basic)
        .transition("Idle", "TICK [not OVER]/Note(2)")
        .transition("Done", "TICK [OVER]");
    b.basic("Done");
    let chart = b.build().unwrap();
    let mut arch = PscpArch::dual_md16(true);
    arch.timers.push(TimerSpec {
        name: "t0".into(),
        event: "T_EXP".into(),
        port_address: TLOAD_ADDR,
    });
    compile_system(&chart, TIMER_ACTIONS, &arch, &CodegenOptions::default()).unwrap()
}

fn toggle_system() -> CompiledSystem {
    let mut b = ChartBuilder::new("toggle");
    b.event("TICK", None);
    b.event("PING", None);
    b.state("Top", StateKind::Or).contains(["Off", "On"]).default_child("Off");
    b.state("Off", StateKind::Basic).transition("On", "TICK");
    b.state("On", StateKind::Basic).transition("Off", "TICK");
    let chart = b.build().unwrap();
    compile_system(&chart, "", &PscpArch::dual_md16(true), &CodegenOptions::default())
        .unwrap()
}

fn opts(threads: usize) -> ExploreOptions {
    ExploreOptions {
        threads,
        max_states: 100_000,
        predicates: vec![
            Predicate::StateNeverActive("Done".into()),
            Predicate::EventNeverRaised("T_EXP".into()),
        ],
        ..ExploreOptions::default()
    }
}

// ---------------------------------------------------------------------
// The acceptance grid: byte-identical to the scalar oracle
// ---------------------------------------------------------------------

#[test]
fn explore_grid_matches_scalar_oracle() {
    let sys = timer_system();
    let oracle = encode_explore_report(&explore(&sys, &opts(1)));
    for workers in [1usize, 4] {
        let got = encode_explore_report(&explore(&sys, &opts(workers)));
        assert_eq!(got, oracle, "workers={workers} diverged from the one-worker oracle");
    }
}

/// Truncation (max_states / max_depth cutoffs) is the determinism
/// stress case: the cutoff lands mid-layer and must land on the same
/// state regardless of how the layer was sharded.
#[test]
fn truncated_explores_stay_deterministic()  {
    let sys = timer_system();
    for (max_states, max_depth) in [(7, u32::MAX), (100_000, 3), (13, 5)] {
        let limited = |threads| ExploreOptions { max_states, max_depth, ..opts(threads) };
        let oracle = encode_explore_report(&explore(&sys, &limited(1)));
        for workers in [1usize, 4] {
            let got = encode_explore_report(&explore(&sys, &limited(workers)));
            assert_eq!(
                got, oracle,
                "max_states={max_states} max_depth={max_depth} workers={workers} diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Witness replay
// ---------------------------------------------------------------------

#[test]
fn every_witness_replays_to_its_claimed_state() {
    let sys = timer_system();
    let report = explore(&sys, &opts(4));
    assert!(!report.truncated, "timer chart must close without truncation");
    assert!(!report.violations.is_empty(), "Done is reachable — predicate must fire");

    for w in report.deadlocks.iter().chain(report.violations.iter().map(|v| &v.witness)) {
        let landed = replay(&sys, &w.trace).expect("witness trace must replay cleanly");
        assert_eq!(landed, w.state_key, "witness landed on a different state");
        // The key itself must be a decodable canonical encoding.
        let state = decode_state(&w.state_key).unwrap();
        assert_eq!(encode_state(&state), w.state_key);
    }
    for (fault, w) in &report.faults {
        // A fault witness replays *to the fault*: the trace's last step
        // is the one that faults from the claimed source state.
        let err = replay(&sys, &w.trace).expect_err("fault witness must reproduce the fault");
        assert_eq!(err.to_string(), *fault);
        assert_eq!(replay(&sys, &w.trace[..w.trace.len() - 1]).unwrap(), w.state_key);
    }
}

/// BFS discovery order guarantees the first violation witness is
/// minimal: no strictly shorter trace may reach a violating state.
#[test]
fn violation_witnesses_are_minimal_length() {
    let sys = timer_system();
    let report = explore(&sys, &opts(1));
    let alpha = alphabet(&sys);
    let done = "Done";
    let witness = &report
        .violations
        .iter()
        .find(|v| v.predicate.name() == done)
        .expect("Done violation")
        .witness;

    // Exhaustively walk every trace strictly shorter than the witness
    // and confirm none of them activates `Done`.
    let done_id = sys.chart.state_by_name(done).unwrap();
    let mut layer = vec![PscpMachine::new(&sys).capture()];
    for _ in 0..witness.trace.len().saturating_sub(1) {
        let mut nextl = Vec::new();
        let mut machine = PscpMachine::new(&sys);
        for state in &layer {
            assert!(!state.control.active[done_id.index()], "shorter trace reached Done");
            for sym in &alpha {
                machine.restore(state);
                if machine.step_injected(sym, &mut NullEnvironment).is_ok() {
                    nextl.push(machine.capture());
                }
            }
        }
        layer = nextl;
    }
    for state in &layer {
        assert!(!state.control.active[done_id.index()], "shorter trace reached Done");
    }
}

// ---------------------------------------------------------------------
// Brute-force enumeration oracle
// ---------------------------------------------------------------------

/// What the brute-force enumeration counts.
#[derive(Debug, PartialEq)]
struct BruteCounts {
    states: u64,
    edges: u64,
    /// Successors whose canonical key was already seen.
    dedup_hits: u64,
    /// Trace length of the deepest state discovered.
    depth: u32,
}

/// Independent worklist enumeration sharing no code with the explorer:
/// a plain `HashSet` of canonical keys, one scalar machine, one
/// restore-inject-step per edge. It dedups on canonical bytes, so
/// matching its dedup count checks the explorer's by-value dedup.
fn brute_force(system: &CompiledSystem) -> BruteCounts {
    let alpha = alphabet(system);
    let mut machine = PscpMachine::new(system);
    let root = machine.capture();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut queue = VecDeque::new();
    let (mut edges, mut dedup_hits, mut depth) = (0u64, 0u64, 0u32);
    seen.insert(encode_state(&root));
    queue.push_back((root, 0u32));
    while let Some((state, d)) = queue.pop_front() {
        for sym in &alpha {
            edges += 1;
            machine.restore(&state);
            if machine.step_injected(sym, &mut NullEnvironment).is_err() {
                continue;
            }
            let succ = machine.capture();
            if seen.insert(encode_state(&succ)) {
                depth = depth.max(d + 1);
                queue.push_back((succ, d + 1));
            } else {
                dedup_hits += 1;
            }
        }
    }
    BruteCounts { states: seen.len() as u64, edges, dedup_hits, depth }
}

#[test]
fn exhaustive_count_matches_brute_force_enumeration() {
    for sys in [toggle_system(), timer_system()] {
        let brute = brute_force(&sys);
        let report = explore(
            &sys,
            &ExploreOptions { threads: 4, ..ExploreOptions::default() },
        );
        assert!(!report.truncated);
        assert_eq!(report.states, brute.states, "state count diverged from brute force");
        assert_eq!(report.edges, brute.edges, "edge count diverged from brute force");
        assert_eq!(report.dedup_hits, brute.dedup_hits, "dedup hits diverged from brute force");
        assert_eq!(report.depth, brute.depth, "BFS depth diverged from brute force");
        // Every visited state is expanded exactly once under the full
        // alphabet, so the edge/state ratio is the alphabet size.
        assert_eq!(report.edges, brute.states * alphabet(&sys).len() as u64);
    }
}

// ---------------------------------------------------------------------
// Data-plane interning
// ---------------------------------------------------------------------

/// `A --TICK/Keep()--> B` rewrites `level` with the value it already
/// holds; `A --PING--> B` runs no routine. Both edges reach the same
/// semantic state.
fn rewrite_system() -> CompiledSystem {
    let mut b = ChartBuilder::new("rewrite");
    b.event("TICK", None);
    b.event("PING", None);
    b.state("Top", StateKind::Or).contains(["A", "B"]).default_child("A");
    b.state("A", StateKind::Basic)
        .transition("B", "TICK/Keep()")
        .transition("B", "PING");
    b.basic("B");
    let chart = b.build().unwrap();
    let actions = "int:16 level; void Keep() { level = 0; }";
    compile_system(&chart, actions, &PscpArch::dual_md16(true), &CodegenOptions::default())
        .unwrap()
}

/// A routine that rewrites a global with its current value leaves a
/// plane equal to the source's, so its successor must dedup against the
/// same configuration reached with no routine: planes are interned by
/// content, not by which edge produced them.
#[test]
fn rewritten_plane_dedups_against_the_untouched_one() {
    let sys = rewrite_system();
    // The TICK edge does run a routine, so its plane goes through
    // interning rather than the untouched-source shortcut.
    let mut machine = PscpMachine::new(&sys);
    let root = machine.capture();
    machine.restore(&root);
    assert!(!machine.tep().data_touched());
    let tick = sys.chart.event_by_name("TICK").unwrap();
    machine.step_injected(&[tick], &mut NullEnvironment).unwrap();
    assert!(machine.tep().data_touched(), "Keep() must run on the TICK edge");
    assert_eq!(machine.capture().data, root.data, "Keep() rewrites the value it read");

    let brute = brute_force(&sys);
    assert_eq!(brute.states, 2, "A and B, each with the one data plane");
    for threads in [1usize, 4] {
        let report =
            explore(&sys, &ExploreOptions { threads, ..ExploreOptions::default() });
        assert!(!report.truncated);
        assert_eq!(
            (report.states, report.edges, report.dedup_hits, report.depth),
            (brute.states, brute.edges, brute.dedup_hits, brute.depth),
            "threads={threads}: the rewritten plane was not interned by content"
        );
    }
}

/// From every `Run` state the alphabet `{}, E1, E2, E3, E4` alternates
/// jobs that leave the data plane alone with jobs that write it, so a
/// worker's chunk alternates them too — all from one source. A job
/// after a writing one must reload the source's plane: reusing the
/// written memory would carry `n` into `Side` wrongly and lose
/// `(Side, 0)`.
fn alternating_system() -> CompiledSystem {
    let mut b = ChartBuilder::new("alternating");
    for e in ["E1", "E2", "E3", "E4"] {
        b.event(e, None);
    }
    b.state("Top", StateKind::Or).contains(["Run", "Side"]).default_child("Run");
    b.state("Run", StateKind::Basic)
        .transition("Run", "E1/Add(1)")
        .transition("Side", "E2")
        .transition("Run", "E3/Add(2)")
        .transition("Side", "E4");
    b.state("Side", StateKind::Basic).transition("Run", "E1");
    let chart = b.build().unwrap();
    let actions = "int:16 n; void Add(int:16 k) { n = (n + k) % 5; }";
    compile_system(&chart, actions, &PscpArch::dual_md16(true), &CodegenOptions::default())
        .unwrap()
}

#[test]
fn alternating_writes_from_one_source_match_brute_force() {
    let sys = alternating_system();
    let brute = brute_force(&sys);
    // Run and Side with each n in 0..5, at least; the plane also holds
    // the argument `k`'s frame slot.
    assert!(brute.states >= 10, "only {} states", brute.states);
    let run = |threads| {
        explore(&sys, &ExploreOptions { threads, ..ExploreOptions::default() })
    };
    let oracle = encode_explore_report(&run(1));
    for threads in [1usize, 4] {
        let report = run(threads);
        assert!(!report.truncated);
        assert_eq!(
            (report.states, report.edges, report.dedup_hits, report.depth),
            (brute.states, brute.edges, brute.dedup_hits, brute.depth),
            "threads={threads}: a job reused a plane a previous job wrote"
        );
        assert_eq!(
            encode_explore_report(&report),
            oracle,
            "threads={threads} diverged from the one-worker report"
        );
    }
}

// ---------------------------------------------------------------------
// The packed visited key
// ---------------------------------------------------------------------

/// Ring length of [`packed_system`]: with the root, the ring and the
/// mode region the chart has more than 64 states, so its active bitmap
/// packs into two words.
const RING: usize = 64;

const PACKED_ACTIONS: &str = r#"
    event DONE;
    int:16 flips;
    void ArmBoth() { TLOAD0 = 3; TLOAD1 = 3; }
    void ArmOne() { TLOAD0 = 3; }
    void Flip() { flips = (flips + 1) % 2; FLAG = flips == 1; raise DONE; }
"#;

/// A chart that reaches every part of the packed key: a ring of [`RING`]
/// states beside a mode region, so active states sit in both bitmap
/// words; a `history` OR-state, `Hist`, left by `GO`, so the same
/// configuration is reached with different history memory; a
/// routine-raised internal event `DONE` and a condition `FLAG` written
/// by the same routine; and two timers raising one event `T_EXP`, armed
/// together or alone, so `Idle` is reached with `T_EXP` pending once
/// and twice — distinct states whose next cycles are equal.
fn packed_system() -> CompiledSystem {
    let mut b = ChartBuilder::new("packed");
    for e in ["STEP", "GO", "BACK", "ARM"] {
        b.event(e, None);
    }
    b.event("T_EXP", Some(2_000));
    b.internal_event("DONE");
    b.condition("FLAG", false);
    use pscp_statechart::model::PortDirection::Output;
    b.data_port("TLOAD0", 16, TLOAD_ADDR, Output);
    b.data_port("TLOAD1", 16, TLOAD_ADDR + 1, Output);
    b.state("Top", StateKind::And).contains(["Ring", "Mode"]);
    let ring: Vec<String> = (0..RING).map(|i| format!("S{i}")).collect();
    b.state("Ring", StateKind::Or).contains(ring.clone()).default_child(&ring[0]);
    for (i, s) in ring.iter().enumerate() {
        b.state(s, StateKind::Basic).transition(&ring[(i + 1) % RING], "STEP");
    }
    b.state("Mode", StateKind::Or).contains(["Idle", "Hist", "Away"]).default_child("Idle");
    b.state("Idle", StateKind::Basic)
        .transition("Hist", "GO")
        .transition("Idle", "ARM/ArmBoth()")
        .transition("Idle", "BACK/ArmOne()");
    b.state("Hist", StateKind::Or)
        .contains(["H1", "H2"])
        .default_child("H1")
        .history()
        .transition("Away", "GO");
    b.state("H1", StateKind::Basic).transition("H2", "BACK/Flip()");
    b.state("H2", StateKind::Basic)
        .transition("H1", "BACK")
        .transition("H2", "DONE [FLAG]/ArmOne()");
    b.state("Away", StateKind::Basic)
        .transition("Hist", "GO")
        .transition("Idle", "T_EXP");
    let chart = b.build().unwrap();
    let mut arch = PscpArch::dual_md16(true);
    for (i, addr) in [TLOAD_ADDR, TLOAD_ADDR + 1].into_iter().enumerate() {
        arch.timers.push(TimerSpec {
            name: format!("t{i}"),
            event: "T_EXP".into(),
            port_address: addr,
        });
    }
    compile_system(&chart, PACKED_ACTIONS, &arch, &CodegenOptions::default()).unwrap()
}

/// The packed chart's reports match the brute-force enumeration and are
/// byte-identical at one and four workers, and its witnesses replay —
/// so no two states the canonical key tells apart share a packed key.
#[test]
fn packed_chart_matches_brute_force_at_every_worker_count() {
    let sys = packed_system();
    assert!(sys.chart.state_count() > 64, "the active bitmap must take two words");
    let brute = brute_force(&sys);
    let run = |threads| {
        explore(
            &sys,
            &ExploreOptions {
                threads,
                predicates: vec![
                    Predicate::StateNeverActive("Away".into()),
                    Predicate::EventNeverRaised("DONE".into()),
                    Predicate::StateNeverActive(format!("S{}", RING - 1)),
                ],
                ..ExploreOptions::default()
            },
        )
    };
    let oracle = run(1);
    assert!(!oracle.truncated);
    assert_eq!(
        (oracle.states, oracle.edges, oracle.dedup_hits, oracle.depth),
        (brute.states, brute.edges, brute.dedup_hits, brute.depth),
        "the packed chart's exploration diverged from brute force"
    );
    assert_eq!(oracle.violations.len(), 3, "every watched name is reachable");
    for v in &oracle.violations {
        assert_eq!(replay(&sys, &v.witness.trace).unwrap(), v.witness.state_key);
    }
    assert_eq!(
        encode_explore_report(&run(4)),
        encode_explore_report(&oracle),
        "four workers diverged from one"
    );
}

// ---------------------------------------------------------------------
// Golden state keys
// ---------------------------------------------------------------------

/// Length and FNV-1a64 digest of a canonical state key.
fn key_digest(key: &[u8]) -> (usize, u64) {
    let mut h = FnvHasher::default();
    h.write(key);
    (key.len(), h.finish())
}

/// The state-key bytes are a format: witnesses and the wire carry
/// them. Any change to them must bump `STATE_KEY_VERSION` and re-pin
/// these values deliberately.
#[test]
fn state_key_bytes_are_pinned() {
    assert_eq!(STATE_KEY_VERSION, 1);
    let sys = timer_system();
    let mut machine = PscpMachine::new(&sys);
    let root = encode_state(&machine.capture());
    assert_eq!(key_digest(&root), (10_444, 4_792_653_744_474_044_780), "root key");
    let tick = sys.chart.event_by_name("TICK").unwrap();
    machine.step_injected(&[tick], &mut NullEnvironment).unwrap();
    let ticked = encode_state(&machine.capture());
    assert_eq!(key_digest(&ticked), (10_448, 1_355_725_566_359_516_905), "post-TICK key");
}

// ---------------------------------------------------------------------
// Scripted paths are bitwise unaffected by exploration
// ---------------------------------------------------------------------

/// Interleaving an exploration between two identical scripted batch
/// runs must leave the batch outcomes bitwise unchanged — the injected
/// stepping mode shares the machines but not the scripted entry path.
#[test]
fn exploration_leaves_scripted_runs_bit_identical() {
    let sys = timer_system();
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 16 };
    let script = vec![
        vec!["TICK".to_string()],
        vec!["T_EXP".to_string()],
        vec![],
        vec!["TICK".to_string(), "PING".to_string()],
    ];
    let run = || -> Vec<Vec<u8>> {
        let envs: Vec<_> =
            (0..8).map(|_| ScriptedEnvironment::new(script.clone())).collect();
        SimPool::with_threads(2)
            .run_batch(&sys, envs, &limits)
            .iter()
            .map(|o| WireOutcome::from_batch(o).encode())
            .collect()
    };
    let before = run();
    let _ = explore(&sys, &opts(4));
    assert_eq!(run(), before, "exploration perturbed the scripted path");
}

// ---------------------------------------------------------------------
// StateKey injectivity / round-trip properties
// ---------------------------------------------------------------------

fn arb_state() -> impl Strategy<Value = SemanticState> {
    let bitmap = || proptest::collection::vec(any::<bool>(), 0..12);
    let events = || {
        proptest::collection::vec((0usize..8).prop_map(EventId::from_index), 0..4)
    };
    let timers = proptest::collection::vec(
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        0..3,
    );
    let history = proptest::collection::vec(
        prop_oneof![Just(None), (0usize..9).prop_map(|i| Some(StateId::from_index(i)))],
        0..3,
    );
    let i64s = || proptest::collection::vec(any::<i64>(), 0..5);
    (
        (bitmap(), bitmap(), events(), history),
        (timers, events()),
        (any::<i64>(), any::<i64>(), i64s(), i64s(), i64s()),
    )
        .prop_map(
            |(
                (active, conditions, pending_internal, history),
                (timers, pending_timer_events),
                (acc, op, regs, iram, xram),
            )| SemanticState {
                control: ControlState { active, conditions, pending_internal, history },
                timers,
                pending_timer_events,
                data: TepDataState { acc, op, regs, iram, xram },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode ∘ encode is the identity over arbitrary semantic states —
    /// including states no chart would ever produce.
    #[test]
    fn state_key_round_trips(state in arb_state()) {
        let key = encode_state(&state);
        prop_assert_eq!(decode_state(&key).unwrap(), state);
    }

    /// Injectivity: two states share a key iff they are equal. The
    /// encoding may never let distinct CR values, timer loads or
    /// storage contents collide.
    #[test]
    fn distinct_states_never_collide(a in arb_state(), b in arb_state()) {
        prop_assert_eq!(encode_state(&a) == encode_state(&b), a == b);
    }

    /// Flipping any single bit of a key never decodes back to the
    /// original state — corruption is either rejected or visibly a
    /// different state, mirroring the wire-frame corruption pin.
    #[test]
    fn corrupt_state_key_never_decodes_to_the_original(
        state in arb_state(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut key = encode_state(&state);
        let i = flip_at % key.len();
        key[i] ^= 1 << flip_bit;
        if let Ok(decoded) = decode_state(&key) {
            prop_assert_ne!(decoded, state);
        }
    }

    /// Along reachable walks on the packed chart, the packed words and
    /// data plane of a state restore, on a machine holding another
    /// state, to exactly that state; and two states pack equal exactly
    /// when their canonical keys are equal.
    #[test]
    fn packed_words_are_exact_on_reachable_walks(
        walk in proptest::collection::vec(any::<usize>(), 1..24),
    ) {
        let sys = packed_system();
        let alpha = alphabet(&sys);
        let mut machine = PscpMachine::new(&sys);
        let mut other = PscpMachine::new(&sys);
        let mut seen: Vec<(Vec<u64>, TepDataState, Vec<u8>)> = Vec::new();
        for step in &walk {
            if machine.step_injected(&alpha[step % alpha.len()], &mut NullEnvironment).is_err() {
                break;
            }
            let state = machine.capture();
            let mut words = Vec::new();
            machine.capture_words(&mut words);
            other.restore_words(&words);
            other.restore_data(&state.data);
            prop_assert_eq!(&other.capture(), &state);
            let key = encode_state(&state);
            for (w, data, k) in &seen {
                prop_assert_eq!((w, data) == (&words, &state.data), *k == key);
            }
            seen.push((words, state.data, key));
        }
    }

    /// Keys captured along real scripted walks round-trip too — the
    /// reachable subspace is not special-cased by the codec.
    #[test]
    fn reachable_states_round_trip(walk in proptest::collection::vec(0usize..6, 0..10)) {
        const MENU: [&[&str]; 6] =
            [&["TICK"], &["PING"], &["T_EXP"], &["TICK", "T_EXP"], &["TICK", "PING"], &[]];
        let sys = timer_system();
        let mut machine = PscpMachine::new(&sys);
        for &step in &walk {
            let events: Vec<EventId> = MENU[step]
                .iter()
                .map(|name| sys.chart.event_by_name(name).unwrap())
                .collect();
            let _ = machine.step_injected(&events, &mut NullEnvironment);
            let state = machine.capture();
            let key = encode_state(&state);
            prop_assert_eq!(decode_state(&key).unwrap(), state);
        }
    }
}
