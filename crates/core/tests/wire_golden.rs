//! Golden byte pins for every layout the wire codec writes.
//!
//! The round-trip proptests, the socket-byte pin and the differential
//! suites all compare the codec with itself, so a layout change that
//! moves the encoder and the decoder together passes them. These pins
//! do not: each encodes a fixed, hand-built value and checks the
//! length and the 64-bit FNV-1a digest of the bytes. Every frame
//! variant is pinned (`Hello` with and without its feature word,
//! `Outcome` with and without its latency trailer), and so are the
//! canonical outcome, diagnostics, stats and explore-report bodies and
//! a state key with `Some` and `None` history entries and timers.
//!
//! A failing pin means the bytes moved. That is a protocol change: bump
//! the layout's version constant and re-pin on purpose.

use pscp_core::explore::{
    encode_state, ExploreReport, FnvHasher, Predicate, Violation, Witness, STATE_KEY_VERSION,
};
use pscp_core::machine::{CycleReport, MachineStats, SemanticState};
use pscp_core::pool::{BatchOptions, CycleLog};
use pscp_core::serve::wire::{
    encode_diagnostics, encode_explore_report, encode_frame, encode_stats, feature, ExploreRequest,
    Frame, HistogramSnapshot, MetricsSnapshot, OutcomeLatency, ServeGauges, Submit, WireOutcome,
    EXPLORE_REPORT_VERSION, PROTOCOL_VERSION, STATS_VERSION,
};
use pscp_diag::{Diagnostic, Pos, Severity, Source, Span};
use pscp_statechart::semantics::ControlState;
use pscp_statechart::{EventId, StateId, TransitionId};
use pscp_tep::TepDataState;
use std::hash::Hasher;

/// `(length, FNV-1a64)` of a byte string.
fn digest(bytes: &[u8]) -> (usize, u64) {
    let mut h = FnvHasher::default();
    h.write(bytes);
    (bytes.len(), h.finish())
}

fn outcome() -> WireOutcome {
    let mut reports = CycleLog::new();
    for r in [
        CycleReport {
            fired: vec![TransitionId::from_index(3), TransitionId::from_index(1)],
            transition_cycles: vec![40, 17],
            assigned_tep: vec![0, 1],
            cycle_length: 46,
            raised: vec![EventId::from_index(2), EventId::from_index(5)],
            interrupt_latency: Some(12),
        },
        CycleReport::default(),
        CycleReport {
            fired: vec![TransitionId::from_index(u32::MAX as usize)],
            transition_cycles: vec![u64::MAX],
            assigned_tep: vec![255],
            cycle_length: 1,
            raised: vec![],
            interrupt_latency: None,
        },
    ] {
        reports.push(&r);
    }
    WireOutcome {
        reports,
        stats: MachineStats {
            config_cycles: 3,
            transitions: 3,
            clock_cycles: 50,
            max_cycle_length: 46,
            tep_busy: vec![40, 17, 0],
        },
        clock_cycles: 50,
        leftover_script: vec![vec![], vec!["TICK".into(), "λ-événement".into()], vec![]],
        port_writes: vec![(0x20, -7, 46), (0xffff, i64::MIN, u64::MAX)],
        error: Some("divide by zero in `f` at pc 3".into()),
        latency: None,
    }
}

fn diagnostics() -> Vec<Diagnostic> {
    vec![
        Diagnostic::error(Source::Chart, "SC201", "unknown state `Off`"),
        Diagnostic {
            severity: Severity::Warning,
            source: Source::Action,
            code: "AL301".into(),
            span: Span::new(Pos::new(3, 9, 41), Pos::new(3, 14, 46)),
            message: "unused variable `total`".into(),
            notes: vec!["declared here".into(), "never read".into()],
        },
        Diagnostic {
            severity: Severity::Error,
            source: Source::System,
            code: String::new(),
            span: Span::NONE,
            message: String::new(),
            notes: vec![String::new()],
        },
    ]
}

fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![("machine_steps".into(), 1234), ("serve_errors".into(), 0)],
        per_worker: vec![("pool_scenarios".into(), vec![10, 0, 7]), ("idle".into(), vec![])],
        tep_instr: vec![("ldi".into(), 99)],
        histograms: vec![
            HistogramSnapshot {
                name: "serve_sim_ns".into(),
                count: 3,
                sum: 1500,
                buckets: vec![(256, 511, 2), (512, 1023, 1)],
            },
            HistogramSnapshot { name: "empty".into(), count: 0, sum: 0, buckets: vec![] },
        ],
    }
}

fn witness(key: &[u8], trace: &[&[u32]]) -> Witness {
    Witness { state_key: key.to_vec(), trace: trace.iter().map(|s| s.to_vec()).collect() }
}

fn report() -> ExploreReport {
    ExploreReport {
        states: 234,
        edges: 1170,
        dedup_hits: 937,
        depth: 17,
        truncated: true,
        deadlocks: vec![witness(&[1, 2, 3], &[&[], &[0, 2]]), witness(&[], &[])],
        unreachable_states: vec!["Fault".into(), String::new()],
        unreachable_transitions: vec![4, 9],
        violations: vec![
            Violation {
                predicate: Predicate::EventNeverRaised("ERR".into()),
                witness: witness(&[7; 9], &[&[1]]),
            },
            Violation {
                predicate: Predicate::StateNeverActive("MoveX".into()),
                witness: witness(&[0xff], &[&[], &[], &[3, 1]]),
            },
        ],
        faults: vec![("TEP 0: divide by zero".into(), witness(&[5, 5], &[&[2]]))],
    }
}

fn state() -> SemanticState {
    SemanticState {
        control: ControlState {
            active: vec![true, false, true, true, false, false, false, true, false, true, true],
            conditions: vec![false, true, false, false, false, false, true, false],
            pending_internal: vec![EventId::from_index(2), EventId::from_index(0)],
            history: vec![None, Some(StateId::from_index(3)), None, Some(StateId::from_index(0))],
        },
        timers: vec![Some(17), None, Some(0)],
        pending_timer_events: vec![EventId::from_index(1)],
        data: TepDataState {
            acc: -5,
            op: 9,
            regs: vec![1, -2],
            iram: vec![],
            xram: vec![i64::MIN, i64::MAX],
        },
    }
}

#[test]
fn layout_versions_are_pinned() {
    assert_eq!(PROTOCOL_VERSION, 2);
    assert_eq!(STATS_VERSION, 1);
    assert_eq!(EXPLORE_REPORT_VERSION, 1);
    assert_eq!(STATE_KEY_VERSION, 1);
}

#[test]
fn every_frame_variant_is_pinned() {
    let with_latency = WireOutcome {
        latency: Some(OutcomeLatency { queue_ns: 10, sim_ns: 2000, encode_ns: u64::MAX }),
        ..outcome()
    };
    let frames: Vec<(&str, Frame, (usize, u64))> = vec![
        (
            "hello, no features",
            Frame::Hello { window: 8, fingerprint: 0xdead_beef, features: 0 },
            (22, 6_107_171_735_339_078_629),
        ),
        (
            "hello, latency feature",
            Frame::Hello { window: 32, fingerprint: u64::MAX, features: feature::LATENCY },
            (26, 6_660_150_450_045_385_623),
        ),
        (
            "submit",
            Frame::Submit(Submit {
                seq: 42,
                limits: BatchOptions { deadline: u64::MAX, max_steps: 17 },
                script: vec![vec!["TICK".into()], vec![], vec!["A".into(), "B".into()]],
            }),
            (68, 5_186_053_978_291_733_054),
        ),
        (
            "outcome, no trailer",
            Frame::Outcome { seq: 7, outcome: outcome() },
            (312, 2_576_346_773_856_743_652),
        ),
        (
            "outcome, latency trailer",
            Frame::Outcome { seq: 7, outcome: with_latency },
            (337, 13_078_711_878_933_156_444),
        ),
        ("credit", Frame::Credit { n: 3 }, (14, 14_238_967_858_111_769_818)),
        (
            "error",
            Frame::Error { code: 2, message: "frame checksum mismatch".into() },
            (39, 6_930_072_989_475_665_339),
        ),
        (
            "compile",
            Frame::Compile {
                chart: "orstate Root { contains A; default A; }".into(),
                actions: "void f() { }".into(),
            },
            (69, 10_862_606_616_245_352_595),
        ),
        (
            "diagnostics",
            Frame::Diagnostics { fingerprint: 0xfeed_f00d, diagnostics: diagnostics() },
            (223, 15_515_080_325_077_815_091),
        ),
        (
            "diagnostics, empty",
            Frame::Diagnostics { fingerprint: 0, diagnostics: vec![] },
            (22, 14_663_712_397_968_785_217),
        ),
        ("stats request", Frame::StatsRequest, (10, 8_171_357_873_855_114_126)),
        (
            "stats",
            Frame::Stats {
                gauges: ServeGauges {
                    uptime_ns: 5_000_000_000,
                    registered_systems: 2,
                    live_connections: 1,
                    queue_depth: 4,
                    workers: 3,
                },
                snapshot: snapshot(),
            },
            (287, 10_591_795_211_215_464_903),
        ),
        (
            "explore",
            Frame::Explore(ExploreRequest {
                max_states: 10_000,
                max_depth: 64,
                max_witnesses: 8,
                predicates: vec![
                    Predicate::EventNeverRaised("ERR".into()),
                    Predicate::StateNeverActive("MoveX".into()),
                ],
            }),
            (48, 3_094_869_539_130_518_790),
        ),
        (
            "explore result",
            Frame::ExploreResult { seq: 3, last: true, chunk: vec![0, 1, 2, 0xff] },
            (23, 7_382_982_152_460_498_217),
        ),
    ];
    let mut wrong = Vec::new();
    for (what, frame, pin) in &frames {
        let got = digest(&encode_frame(frame));
        if got != *pin {
            wrong.push(format!("{what}: {got:?}"));
        }
    }
    assert!(wrong.is_empty(), "frame bytes moved:\n{}", wrong.join("\n"));
}

#[test]
fn canonical_bodies_are_pinned() {
    let bodies = [
        ("outcome", outcome().encode(), (294, 7_237_874_587_653_209_644)),
        ("outcome, default", WireOutcome::default().encode(), (57, 11_751_416_756_124_123_391)),
        ("diagnostics", encode_diagnostics(&diagnostics()), (205, 11_149_010_076_755_598_524)),
        ("stats", encode_stats(&snapshot()), (253, 9_898_463_869_870_245_770)),
        (
            "stats, empty",
            encode_stats(&MetricsSnapshot::default()),
            (18, 12_099_346_531_968_228_804),
        ),
        ("explore report", encode_explore_report(&report()), (222, 2_621_304_306_658_563_703)),
        (
            "explore report, empty",
            encode_explore_report(&ExploreReport::default()),
            (51, 10_426_280_726_849_493_516),
        ),
        ("state key", encode_state(&state()), (135, 12_202_062_807_012_847_428)),
    ];
    let mut wrong = Vec::new();
    for (what, bytes, pin) in &bodies {
        let got = digest(bytes);
        if got != *pin {
            wrong.push(format!("{what}: {got:?}"));
        }
    }
    assert!(wrong.is_empty(), "body bytes moved:\n{}", wrong.join("\n"));
}
