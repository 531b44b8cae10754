//! Arbitrary-input decoding: every decoder that reads untrusted bytes
//! returns a value or a typed `WireError`, never panics, and requests
//! no more heap than its input can back.
//!
//! The decoders are `decode_payload`, `WireOutcome::decode`,
//! `decode_diagnostics`, `decode_stats`, `decode_explore_report`,
//! `decode_state` and the memo-file loader (`MemoStore::at`). Each is
//! fed arbitrary bytes (biased towards small counts, and half the time
//! behind the layout's valid version prefix so the body is reached)
//! and bit-flipped valid encodings. Frame payloads get their checksum
//! recomputed after the damage; otherwise every case would stop at the
//! checksum before the body is read.
//!
//! The heap bound is the input length times
//! `wire::DECODE_HEAP_PER_BYTE`, plus a small constant. That ratio is
//! derived from the decoded types: each layout's `HEAP_PER_BYTE` is the
//! most of its parts', and a collection's is its element's
//! `size_of / MIN_BYTES` or more, so no element type a decoder collects
//! escapes it. A counting global allocator measures the heap, per
//! thread, so this suite has its own test binary.

use proptest::prelude::*;
use pscp_core::explore::{
    decode_state, encode_state, ExploreReport, Predicate, Violation, Witness, STATE_KEY_VERSION,
};
use pscp_core::machine::{CycleReport, MachineStats, SemanticState};
use pscp_core::optimize::memo::MEMO_FORMAT_VERSION;
use pscp_core::optimize::{MemoEntry, MemoStore};
use pscp_core::pool::{BatchOptions, CycleLog};
use pscp_core::serve::wire::{
    decode_diagnostics, decode_explore_report, decode_payload, decode_stats, encode_diagnostics,
    encode_explore_report, encode_payload, encode_stats, fnv1a32, ExploreRequest, Frame,
    HistogramSnapshot, MetricsSnapshot, OutcomeLatency, ServeGauges, Submit, WireError,
    WireOutcome, DECODE_HEAP_PER_BYTE, EXPLORE_REPORT_VERSION,
    PROTOCOL_VERSION, STATS_VERSION,
};
use pscp_core::timing::{EventCycle, TimingReport};
use pscp_diag::{Diagnostic, Pos, Severity, Source, Span};
use pscp_statechart::semantics::ControlState;
use pscp_statechart::{EventId, StateId, TransitionId};
use pscp_tep::TepDataState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = REQUESTED.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Constant heap a decode may request beyond its per-byte share: the
/// memo loader's path and the first node of its entry map.
const SLACK: usize = 1024;

/// The decoders under test.
#[derive(Debug, Clone, Copy)]
enum Codec {
    Frame,
    Outcome,
    Diagnostics,
    Stats,
    ExploreReport,
    StateKey,
    Memo,
}

const CODECS: [Codec; 7] = [
    Codec::Frame,
    Codec::Outcome,
    Codec::Diagnostics,
    Codec::Stats,
    Codec::ExploreReport,
    Codec::StateKey,
    Codec::Memo,
];

impl Codec {
    fn prefix(self) -> Vec<u8> {
        match self {
            Codec::Stats => STATS_VERSION.to_le_bytes().to_vec(),
            Codec::ExploreReport => EXPLORE_REPORT_VERSION.to_le_bytes().to_vec(),
            Codec::StateKey => vec![STATE_KEY_VERSION],
            Codec::Memo => [&b"PSCPMEMO"[..], &MEMO_FORMAT_VERSION.to_le_bytes()].concat(),
            Codec::Frame | Codec::Outcome | Codec::Diagnostics => vec![],
        }
    }
}

/// Seals a frame body (type tag onwards) into a payload with a valid
/// version byte and checksum.
fn payload(body: &[u8]) -> Vec<u8> {
    let mut p = vec![PROTOCOL_VERSION];
    p.extend_from_slice(body);
    let checksum = fnv1a32(&p);
    p.extend_from_slice(&checksum.to_le_bytes());
    p
}

fn memo_path() -> PathBuf {
    let thread = format!("{:?}", std::thread::current().id());
    let tag: String = thread.chars().filter(char::is_ascii_digit).collect();
    std::env::temp_dir().join(format!("pscp-wire-fuzz-{}-{tag}.bin", std::process::id()))
}

/// Runs one decoder on `bytes`, checks it ends in a value or a typed
/// error, and returns the heap bytes it requested and the input length
/// the bound scales with (a frame's whole payload).
fn decode(codec: Codec, bytes: &[u8]) -> (usize, usize) {
    let payload = payload(bytes);
    let path = memo_path();
    if let Codec::Memo = codec {
        std::fs::write(&path, bytes).unwrap();
    }
    let before = REQUESTED.with(Cell::get);
    let result = match codec {
        Codec::Frame => decode_payload(&payload).map(drop),
        Codec::Outcome => WireOutcome::decode(bytes).map(drop),
        Codec::Diagnostics => decode_diagnostics(bytes).map(drop),
        Codec::Stats => decode_stats(bytes).map(drop),
        Codec::ExploreReport => decode_explore_report(bytes).map(drop),
        Codec::StateKey => decode_state(bytes).map(drop),
        // The loader turns every failure into a cold start.
        Codec::Memo => {
            drop(MemoStore::at(&path));
            Ok(())
        }
    };
    let requested = REQUESTED.with(Cell::get) - before;
    match result {
        Ok(()) | Err(WireError::Truncated | WireError::Malformed(_)) => {}
        Err(WireError::UnknownFrame { .. }) if matches!(codec, Codec::Frame) => {}
        Err(e) => panic!("{codec:?}: unexpected error {e:?}"),
    }
    if let Codec::Memo = codec {
        let _ = std::fs::remove_file(&path);
    }
    let len = if let Codec::Frame = codec { payload.len() } else { bytes.len() };
    (requested, len)
}

fn check_bound(codec: Codec, bytes: &[u8]) -> Result<(), TestCaseError> {
    let (requested, len) = decode(codec, bytes);
    let bound = len * DECODE_HEAP_PER_BYTE + SLACK;
    prop_assert!(
        requested <= bound,
        "{codec:?}: {requested} heap bytes from {len} input bytes (bound {bound})"
    );
    Ok(())
}

// --- Valid encodings to damage -------------------------------------------------

fn outcome() -> WireOutcome {
    let mut reports = CycleLog::new();
    reports.push(&CycleReport {
        fired: vec![TransitionId::from_index(3), TransitionId::from_index(1)],
        transition_cycles: vec![40, 17],
        assigned_tep: vec![0, 1],
        cycle_length: 46,
        raised: vec![EventId::from_index(2)],
        interrupt_latency: Some(12),
    });
    reports.push(&CycleReport::default());
    WireOutcome {
        reports,
        stats: MachineStats { config_cycles: 2, tep_busy: vec![40, 17], ..MachineStats::default() },
        clock_cycles: 50,
        leftover_script: vec![vec![], vec!["TICK".into(), "GO".into()]],
        port_writes: vec![(0x20, -7, 46)],
        error: Some("divide by zero".into()),
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
            message: "unused".into(),
            notes: vec!["declared here".into()],
        },
    ]
}

fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![("machine_steps".into(), 1234)],
        per_worker: vec![("pool_scenarios".into(), vec![10, 0, 7])],
        tep_instr: vec![("ldi".into(), 99)],
        histograms: vec![HistogramSnapshot {
            name: "serve_sim_ns".into(),
            count: 3,
            sum: 1500,
            buckets: vec![(256, 511, 2), (512, 1023, 1)],
        }],
    }
}

fn report() -> ExploreReport {
    let witness = |key: &[u8]| Witness { state_key: key.to_vec(), trace: vec![vec![], vec![1, 0]] };
    ExploreReport {
        states: 234,
        edges: 1170,
        dedup_hits: 937,
        depth: 17,
        truncated: false,
        deadlocks: vec![witness(&[1, 2])],
        unreachable_states: vec!["Fault".into()],
        unreachable_transitions: vec![4],
        violations: vec![
            Violation {
                predicate: Predicate::EventNeverRaised("ERR".into()),
                witness: witness(&[7]),
            },
            Violation { predicate: Predicate::StateNeverActive("X".into()), witness: witness(&[]) },
        ],
        faults: vec![("TEP 0: divide by zero".into(), witness(&[5]))],
    }
}

fn state() -> SemanticState {
    SemanticState {
        control: ControlState {
            active: vec![true, false, true, true, false, false, false, true, true],
            conditions: vec![false, true],
            pending_internal: vec![EventId::from_index(2)],
            history: vec![None, Some(StateId::from_index(3))],
        },
        timers: vec![Some(17), None],
        pending_timer_events: vec![EventId::from_index(1)],
        data: TepDataState { acc: -5, op: 9, regs: vec![1, -2], iram: vec![], xram: vec![3] },
    }
}

fn frames() -> Vec<Frame> {
    let with_latency = WireOutcome {
        latency: Some(OutcomeLatency { queue_ns: 1, sim_ns: 2, encode_ns: 3 }),
        ..outcome()
    };
    vec![
        Frame::Hello { window: 8, fingerprint: 0xdead_beef, features: 0 },
        Frame::Hello { window: 8, fingerprint: 0xdead_beef, features: 1 },
        Frame::Submit(Submit {
            seq: 42,
            limits: BatchOptions { deadline: u64::MAX, max_steps: 17 },
            script: vec![vec!["TICK".into()], vec![], vec!["A".into()]],
        }),
        Frame::Outcome { seq: 7, outcome: outcome() },
        Frame::Outcome { seq: 7, outcome: with_latency },
        Frame::Credit { n: 3 },
        Frame::Error { code: 2, message: "bad".into() },
        Frame::Compile { chart: "orstate Root {}".into(), actions: String::new() },
        Frame::Diagnostics { fingerprint: 1, diagnostics: diagnostics() },
        Frame::StatsRequest,
        Frame::Stats { gauges: ServeGauges::default(), snapshot: snapshot() },
        Frame::Explore(ExploreRequest {
            max_states: 100,
            max_depth: 8,
            max_witnesses: 2,
            predicates: vec![Predicate::StateNeverActive("X".into())],
        }),
        Frame::ExploreResult { seq: 0, last: true, chunk: vec![1, 2, 3] },
    ]
}

fn memo_file() -> Vec<u8> {
    let path = memo_path().with_extension("sample");
    let _ = std::fs::remove_file(&path);
    let timing = TimingReport {
        cycles: vec![EventCycle {
            event: "TICK".into(),
            path: vec![StateId::from_index(0), StateId::from_index(2)],
            transitions: vec![TransitionId::from_index(1)],
            length: 96,
        }],
        violations: vec![pscp_core::timing::Violation {
            event: "PULSE".into(),
            period: 40,
            worst: 96,
            path: vec![StateId::from_index(1)],
        }],
    };
    let mut store = MemoStore::at(&path);
    store.insert(u128::MAX, MemoEntry { timing: timing.clone(), area: 268 });
    store.insert(3, MemoEntry { timing, area: 0 });
    store.save();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Every valid sample, as `(codec, bytes)`. Frame samples are bodies
/// from the type tag on: the harness seals them again after damage.
fn samples() -> Vec<(Codec, Vec<u8>)> {
    let mut out: Vec<(Codec, Vec<u8>)> = frames()
        .iter()
        .map(|f| {
            let p = encode_payload(f);
            (Codec::Frame, p[1..p.len() - 4].to_vec())
        })
        .collect();
    out.extend([
        (Codec::Outcome, outcome().encode()),
        (Codec::Diagnostics, encode_diagnostics(&diagnostics())),
        (Codec::Stats, encode_stats(&snapshot())),
        (Codec::ExploreReport, encode_explore_report(&report())),
        (Codec::StateKey, encode_state(&state())),
        (Codec::Memo, memo_file()),
    ]);
    out
}

/// The derived bound is no looser than the hand-kept element list it
/// replaced, whose largest ratio was 16: a timer's `Option<u64>`, 16
/// heap bytes from one tag byte.
#[test]
fn heap_bound_is_the_timer_entry() {
    assert_eq!(DECODE_HEAP_PER_BYTE, 16);
}

/// Bytes with small values over-represented, so declared counts are
/// often small enough for a decoder to walk into the body.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![0u8..4, 0u8..4, 0u8..4, any::<u8>()], 0..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_decode_to_a_value_or_a_typed_error(
        codec in 0..CODECS.len(),
        prefixed in any::<bool>(),
        tag in 0u8..12,
        body in arb_bytes(),
    ) {
        let codec = CODECS[codec];
        let mut bytes = if prefixed { codec.prefix() } else { vec![] };
        if let Codec::Frame = codec {
            bytes.push(tag);
        }
        bytes.extend_from_slice(&body);
        check_bound(codec, &bytes)?;
    }

    #[test]
    fn flipped_encodings_decode_to_a_value_or_a_typed_error(
        sample in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        let samples = samples();
        let (codec, mut bytes) = samples[sample % samples.len()].clone();
        for (at, bit) in flips {
            let i = at % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        check_bound(codec, &bytes)?;
    }
}
