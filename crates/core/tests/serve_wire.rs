//! Wire-format torture tests: round-trip properties for every frame
//! type, and corrupt-input pins against a **live** server — a
//! truncated frame, a bad version byte, a wrong checksum, and an
//! oversized length prefix must each end the connection with a typed
//! `Error` frame, never a panic or a hang.

use proptest::prelude::*;
use pscp_core::arch::PscpArch;
use pscp_core::compile::{compile_system, CompiledSystem};
use pscp_core::explore::{self, ExploreReport, Predicate, Violation, Witness};
use pscp_core::machine::{CycleReport, MachineStats, ScriptedEnvironment};
use pscp_core::pool::{BatchOptions, CycleLog, SimPool};
use pscp_core::serve::wire::{
    self, error_code, ExploreRequest, Frame, HistogramSnapshot, MetricsSnapshot, OutcomeFrame,
    OutcomeLatency, ServeGauges, Submit, WireError, WireOutcome, DEFAULT_MAX_FRAME,
};
use pscp_core::serve::{self, ScenarioClient, ServeOptions, ServerHandle};
use pscp_statechart::{ChartBuilder, EventId, StateKind, TransitionId};
use pscp_tep::codegen::CodegenOptions;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

fn arb_script() -> impl Strategy<Value = Vec<Vec<String>>> {
    let event = prop_oneof![
        Just("TICK".to_string()),
        Just("PING".to_string()),
        Just("T_EXP".to_string()),
        Just(String::new()),
        Just("λ-événement".to_string()), // non-ASCII survives the wire
    ];
    proptest::collection::vec(proptest::collection::vec(event, 0..4), 0..6)
}

fn arb_events(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<EventId>> {
    proptest::collection::vec(any::<u32>().prop_map(|i| EventId::from_index(i as usize)), n)
}

/// One cycle's report, in each shape a `CycleLog` stores apart: idle at
/// one of two cycle lengths (so idle runs of both lengths meet back to
/// back), empty lists with an interrupt latency, raised events only,
/// and anything.
fn arb_report() -> impl Strategy<Value = CycleReport> {
    // fired / transition_cycles / assigned_tep share one length — the
    // CycleReport invariant the canonical encoding relies on.
    let any_report = (
        proptest::collection::vec((any::<u32>(), any::<u64>(), any::<u8>()), 0..4),
        any::<u64>(),
        arb_events(0..3),
        proptest::option::of(any::<u64>()),
    )
        .prop_map(|(firings, cycle_length, raised, interrupt_latency)| CycleReport {
            fired: firings.iter().map(|f| TransitionId::from_index(f.0 as usize)).collect(),
            transition_cycles: firings.iter().map(|f| f.1).collect(),
            assigned_tep: firings.iter().map(|f| f.2).collect(),
            cycle_length,
            raised,
            interrupt_latency,
        });
    prop_oneof![
        prop_oneof![Just(4u64), Just(9)]
            .prop_map(|cycle_length| CycleReport { cycle_length, ..CycleReport::default() }),
        (any::<u64>(), any::<u64>()).prop_map(|(cycle_length, latency)| CycleReport {
            cycle_length,
            interrupt_latency: Some(latency),
            ..CycleReport::default()
        }),
        (any::<u64>(), arb_events(1..3)).prop_map(|(cycle_length, raised)| CycleReport {
            cycle_length,
            raised,
            ..CycleReport::default()
        }),
        any_report,
    ]
}

fn arb_outcome() -> impl Strategy<Value = WireOutcome> {
    let reports = proptest::collection::vec(arb_report(), 0..8).prop_map(|reports| {
        let mut log = CycleLog::new();
        reports.iter().for_each(|r| log.push(r));
        log
    });
    let stats = (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u64>(), 0..3),
    )
        .prop_map(|(c, t, k, m, busy)| MachineStats {
            config_cycles: c,
            transitions: t,
            clock_cycles: k,
            max_cycle_length: m,
            tep_busy: busy,
        });
    (
        reports,
        stats,
        any::<u64>(),
        arb_script(),
        proptest::collection::vec((any::<u16>(), any::<i64>(), any::<u64>()), 0..4),
        prop_oneof![Just(None), Just(Some("TEP fault: stack overflow".to_string()))],
    )
        .prop_map(|(reports, stats, clock_cycles, leftover_script, port_writes, error)| {
            WireOutcome {
                reports,
                stats,
                clock_cycles,
                leftover_script,
                port_writes,
                error,
                latency: None,
            }
        })
}

fn arb_latency() -> impl Strategy<Value = Option<OutcomeLatency>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(queue_ns, sim_ns, encode_ns)| {
            Some(OutcomeLatency { queue_ns, sim_ns, encode_ns })
        }),
    ]
}

fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    ("[a-z_]{1,12}", proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..4))
        .prop_map(|(name, buckets)| {
            let count = buckets.iter().map(|&(_, _, n)| n).fold(0u64, u64::wrapping_add);
            let sum = buckets.iter().map(|&(lo, _, n)| lo.wrapping_mul(n)).fold(0, u64::wrapping_add);
            HistogramSnapshot { name, count, sum, buckets }
        })
}

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec(("[a-z_]{1,12}", any::<u64>()), 0..4),
        proptest::collection::vec(
            ("[a-z_]{1,12}", proptest::collection::vec(any::<u64>(), 0..5)),
            0..3,
        ),
        proptest::collection::vec(("[a-z]{1,6}", any::<u64>()), 0..4),
        proptest::collection::vec(arb_histogram(), 0..3),
    )
        .prop_map(|(counters, per_worker, tep_instr, histograms)| MetricsSnapshot {
            counters,
            per_worker,
            tep_instr,
            histograms,
        })
}

fn arb_gauges() -> impl Strategy<Value = ServeGauges> {
    (any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
        |(uptime_ns, registered_systems, live_connections, queue_depth, workers)| ServeGauges {
            uptime_ns,
            registered_systems,
            live_connections,
            queue_depth,
            workers,
        },
    )
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        "[A-Za-z_]{0,8}".prop_map(Predicate::EventNeverRaised),
        "[A-Za-z_]{0,8}".prop_map(Predicate::StateNeverActive),
    ]
}

fn arb_explore_request() -> impl Strategy<Value = ExploreRequest> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(arb_predicate(), 0..3),
    )
        .prop_map(|(max_states, max_depth, max_witnesses, predicates)| ExploreRequest {
            max_states,
            max_depth,
            max_witnesses,
            predicates,
        })
}

fn arb_witness() -> impl Strategy<Value = Witness> {
    (
        proptest::collection::vec(any::<u8>(), 0..16),
        proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..3), 0..4),
    )
        .prop_map(|(state_key, trace)| Witness { state_key, trace })
}

fn arb_explore_report() -> impl Strategy<Value = ExploreReport> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<bool>()),
        proptest::collection::vec(arb_witness(), 0..3),
        proptest::collection::vec("[A-Za-z_]{0,8}", 0..3),
        proptest::collection::vec(any::<u32>(), 0..4),
        proptest::collection::vec(
            (arb_predicate(), arb_witness())
                .prop_map(|(predicate, witness)| Violation { predicate, witness }),
            0..3,
        ),
        proptest::collection::vec((".{0,12}", arb_witness()), 0..2),
    )
        .prop_map(
            |(
                (states, edges, dedup_hits, depth, truncated),
                deadlocks,
                unreachable_states,
                unreachable_transitions,
                violations,
                faults,
            )| ExploreReport {
                states,
                edges,
                dedup_hits,
                depth,
                truncated,
                deadlocks,
                unreachable_states,
                unreachable_transitions,
                violations,
                faults,
            },
        )
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(window, fingerprint, features)| {
            Frame::Hello { window, fingerprint, features }
        }),
        (any::<u64>(), any::<u64>(), 1u64..=1_000_000, arb_script()).prop_map(
            |(seq, deadline, max_steps, script)| {
                Frame::Submit(Submit {
                    seq,
                    limits: BatchOptions { deadline, max_steps },
                    script,
                })
            }
        ),
        (any::<u64>(), arb_outcome(), arb_latency()).prop_map(|(seq, mut outcome, latency)| {
            outcome.latency = latency;
            Frame::Outcome { seq, outcome }
        }),
        any::<u32>().prop_map(|n| Frame::Credit { n }),
        (any::<u16>(), ".{0,12}").prop_map(|(code, message)| Frame::Error { code, message }),
        Just(Frame::StatsRequest),
        (arb_gauges(), arb_snapshot())
            .prop_map(|(gauges, snapshot)| Frame::Stats { gauges, snapshot }),
        arb_explore_request().prop_map(Frame::Explore),
        (any::<u32>(), any::<bool>(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(seq, last, chunk)| Frame::ExploreResult { seq, last, chunk }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An outcome body survives the wire both ways: its bytes decode
    /// to the same outcome, its log to the same runs, and the decoded
    /// outcome encodes to the same bytes.
    #[test]
    fn arbitrary_outcomes_round_trip(o in arb_outcome()) {
        let bytes = o.encode();
        let back = WireOutcome::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &o);
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Every frame survives encode → cursor → decode bit-exactly.
    #[test]
    fn every_frame_round_trips_through_the_cursor(frame in arb_frame()) {
        let bytes = wire::encode_frame(&frame);
        let mut cursor = wire::FrameCursor::new();
        cursor.feed(&bytes);
        let decoded = cursor.next_frame(DEFAULT_MAX_FRAME).unwrap().expect("one frame");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(cursor.buffered(), 0);
        prop_assert!(cursor.next_frame(DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    /// Concatenated frames split at arbitrary chunk boundaries decode
    /// to the same sequence.
    #[test]
    fn chunked_streams_decode_identically(
        frames in proptest::collection::vec(arb_frame(), 1..5),
        chunk in 1usize..=17,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&wire::encode_frame(f));
        }
        let mut cursor = wire::FrameCursor::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            cursor.feed(piece);
            while let Some(f) = cursor.next_frame(DEFAULT_MAX_FRAME).unwrap() {
                decoded.push(f);
            }
        }
        prop_assert_eq!(decoded, frames);
    }

    /// Flipping any single byte of a frame's payload never round-trips
    /// silently: the cursor either reports a typed error or (for a
    /// length-prefix flip) keeps waiting for more bytes — it never
    /// yields the original frame as if nothing happened.
    #[test]
    fn single_byte_corruption_never_passes(
        frame in arb_frame(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut bytes = wire::encode_frame(&frame);
        let i = flip_at % bytes.len();
        bytes[i] ^= 1 << flip_bit;
        let mut cursor = wire::FrameCursor::new();
        cursor.feed(&bytes);
        match cursor.next_frame(DEFAULT_MAX_FRAME) {
            Ok(Some(decoded)) => prop_assert_ne!(decoded, frame),
            Ok(None) => {} // length prefix grew: cursor waits for more
            Err(_) => {}   // typed rejection
        }
    }
}

// ---------------------------------------------------------------------
// Live-server corrupt-input pins
// ---------------------------------------------------------------------

fn tiny_system() -> CompiledSystem {
    let mut b = ChartBuilder::new("tiny");
    b.event("TICK", Some(400));
    b.state("Top", StateKind::Or).contains(["A", "B"]).default_child("A");
    b.state("A", StateKind::Basic).transition("B", "TICK");
    b.basic("B");
    let chart = b.build().unwrap();
    compile_system(&chart, "", &PscpArch::md16_optimized(), &CodegenOptions::default())
        .unwrap()
}

fn live_server() -> ServerHandle {
    let sys = Arc::new(tiny_system());
    serve::spawn(sys, "127.0.0.1:0", ServeOptions { threads: 1, ..ServeOptions::default() })
        .unwrap()
}

/// Sends raw bytes to a live server, half-closes the write side, and
/// returns the typed Error frame the server answers with. Panics if
/// the server hangs past the read timeout or answers anything else.
fn poke(server: &ServerHandle, bytes: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    match wire::read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        Ok(Frame::Error { code, message }) => (code, message),
        other => panic!("expected a typed Error frame, got {other:?}"),
    }
}

/// After the Error frame the server closes; reading again must yield
/// EOF, not data and not a hang.
fn assert_closed(server: &ServerHandle, bytes: &[u8]) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    match wire::read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        Ok(Frame::Error { .. }) => {}
        other => panic!("expected Error, got {other:?}"),
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server kept talking after a fatal Error frame");
}

#[test]
fn truncated_frame_gets_a_typed_error() {
    let server = live_server();
    let full = wire::encode_frame(&Frame::Hello { window: 4, fingerprint: 0, features: 0 });
    let (code, _) = poke(&server, &full[..full.len() - 3]);
    assert_eq!(code, error_code::MALFORMED);
    server.stop().unwrap();
}

#[test]
fn bad_version_byte_gets_a_typed_error() {
    let server = live_server();
    let mut bytes = wire::encode_frame(&Frame::Hello { window: 4, fingerprint: 0, features: 0 });
    bytes[4] = wire::PROTOCOL_VERSION + 1; // version byte follows the length prefix
    let (code, message) = poke(&server, &bytes);
    assert_eq!(code, error_code::BAD_VERSION);
    assert!(message.contains("version"), "unhelpful message: {message}");
    server.stop().unwrap();
}

#[test]
fn wrong_checksum_gets_a_typed_error() {
    let server = live_server();
    let mut bytes = wire::encode_frame(&Frame::Hello { window: 4, fingerprint: 0, features: 0 });
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF; // trailing checksum byte
    let (code, _) = poke(&server, &bytes);
    assert_eq!(code, error_code::BAD_CHECKSUM);
    server.stop().unwrap();
}

#[test]
fn oversized_length_prefix_gets_a_typed_error() {
    let server = live_server();
    // Claims a 64 MiB frame; the server must refuse on the prefix
    // alone without buffering anything.
    let mut bytes = (64u32 * 1024 * 1024).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 32]);
    let (code, _) = poke(&server, &bytes);
    assert_eq!(code, error_code::TOO_LARGE);
    assert_closed(&server, &bytes);
    server.stop().unwrap();
}

#[test]
fn unknown_frame_tag_gets_a_typed_error() {
    let server = live_server();
    // A checksummed, well-formed frame with an unassigned tag byte.
    let payload = [wire::PROTOCOL_VERSION, 0x7F];
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(u32::try_from(payload.len() + 4).unwrap()).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&wire::fnv1a32(&payload).to_le_bytes());
    let (code, _) = poke(&server, &bytes);
    assert_eq!(code, error_code::MALFORMED);
    server.stop().unwrap();
}

#[test]
fn non_hello_first_frame_gets_a_typed_error() {
    let server = live_server();
    let bytes = wire::encode_frame(&Frame::Credit { n: 1 });
    let (code, _) = poke(&server, &bytes);
    assert_eq!(code, error_code::UNEXPECTED_FRAME);
    server.stop().unwrap();
}

#[test]
fn corrupt_frame_after_handshake_gets_a_typed_error() {
    let server = live_server();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();

    // A healthy scenario first, proving the session was live.
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 3 };
    client.submit(vec![vec!["TICK".to_string()]], limits).unwrap();
    client.recv().unwrap();

    // Now a frame with a stomped checksum.
    let mut bytes = wire::encode_frame(&Frame::Submit(Submit {
        seq: 1,
        limits,
        script: vec![],
    }));
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    client.send_raw(&bytes).unwrap();

    match client.recv_frame() {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, error_code::BAD_CHECKSUM),
        Ok(Frame::Credit { .. }) => {
            // The credit for the healthy scenario may still be in
            // flight; the Error must follow it.
            match client.recv_frame() {
                Ok(Frame::Error { code, .. }) => {
                    assert_eq!(code, error_code::BAD_CHECKSUM);
                }
                other => panic!("expected Error after credit, got {other:?}"),
            }
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    drop(client);
    server.stop().unwrap();
}

#[test]
fn corrupt_stats_request_gets_a_typed_error_then_close() {
    let server = live_server();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();

    // A healthy scrape first, proving the telemetry plane was live.
    let (gauges, _snapshot) = client.stats().unwrap();
    assert!(gauges.workers >= 1);

    // Now a StatsRequest with a stomped checksum: typed Error, then
    // the server closes — same contract as every other tag.
    let mut bytes = wire::encode_frame(&Frame::StatsRequest);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    client.send_raw(&bytes).unwrap();
    match client.recv_frame() {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, error_code::BAD_CHECKSUM),
        other => panic!("expected Error frame, got {other:?}"),
    }
    match client.recv_frame() {
        Err(WireError::Closed) => {}
        other => panic!("server kept talking after a fatal Error frame: {other:?}"),
    }
    drop(client);
    server.stop().unwrap();
}

/// The client, too, rejects corruption with typed errors instead of
/// trusting the transport.
#[test]
fn client_side_decode_rejects_corruption() {
    let frame = wire::encode_frame(&Frame::Credit { n: 3 });

    // Wrong checksum.
    let mut bad = frame.clone();
    let last = bad.len() - 1;
    bad[last] ^= 1;
    let mut cursor = wire::FrameCursor::new();
    cursor.feed(&bad);
    assert!(matches!(cursor.next_frame(DEFAULT_MAX_FRAME), Err(WireError::BadChecksum)));

    // Truncation at EOF.
    let mut reader = std::io::Cursor::new(&frame[..frame.len() - 2]);
    assert!(matches!(
        wire::read_frame(&mut reader, DEFAULT_MAX_FRAME),
        Err(WireError::Truncated)
    ));

    // Oversized prefix.
    let mut huge = u32::MAX.to_le_bytes().to_vec();
    huge.extend_from_slice(&[0; 8]);
    let mut cursor = wire::FrameCursor::new();
    cursor.feed(&huge);
    assert!(matches!(
        cursor.next_frame(DEFAULT_MAX_FRAME),
        Err(WireError::TooLarge { .. })
    ));
}

// ---------------------------------------------------------------------
// Explore-report codec and chunking
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The canonical explore-report encoding round-trips bit-exactly —
    /// it is the byte-comparison currency of the differential suite,
    /// so decode ∘ encode must be the identity.
    #[test]
    fn explore_report_round_trips(report in arb_explore_report()) {
        let bytes = wire::encode_explore_report(&report);
        prop_assert_eq!(wire::decode_explore_report(&bytes).unwrap(), report);
    }

    /// Flipping any single byte of an encoded report never decodes
    /// back to the original: corruption is a typed error or a visibly
    /// different report, never silent.
    #[test]
    fn corrupt_explore_report_never_passes(
        report in arb_explore_report(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut bytes = wire::encode_explore_report(&report);
        let i = flip_at % bytes.len();
        bytes[i] ^= 1 << flip_bit;
        if let Ok(decoded) = wire::decode_explore_report(&bytes) {
            prop_assert_ne!(decoded, report);
        }
    }

    /// Chunking a report into `ExploreResult` frames at any chunk size
    /// reassembles to the exact encoding: seq ascends from zero, the
    /// `last` flag marks precisely the final chunk, and at least one
    /// frame is emitted even for a chunk-aligned or tiny report.
    #[test]
    fn explore_report_chunks_reassemble(
        report in arb_explore_report(),
        max_chunk in 1usize..=64,
    ) {
        let bytes = wire::encode_explore_report(&report);
        let frames = wire::explore_report_frames(&report, max_chunk);
        prop_assert!(!frames.is_empty());
        let mut reassembled = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            match frame {
                Frame::ExploreResult { seq, last, chunk } => {
                    prop_assert_eq!(*seq as usize, i);
                    prop_assert!(chunk.len() <= max_chunk);
                    prop_assert_eq!(*last, i == frames.len() - 1);
                    reassembled.extend_from_slice(chunk);
                }
                other => prop_assert!(false, "non-ExploreResult frame {:?}", other),
            }
        }
        prop_assert_eq!(reassembled, bytes);
        prop_assert_eq!(wire::decode_explore_report(
            &wire::encode_explore_report(&report)).unwrap(), report);
    }
}

#[test]
fn explore_report_version_is_pinned() {
    // The first two bytes of every canonical report are the codec
    // version — bump `EXPLORE_REPORT_VERSION` when the layout changes.
    let bytes = wire::encode_explore_report(&ExploreReport::default());
    assert_eq!(
        u16::from_le_bytes([bytes[0], bytes[1]]),
        wire::EXPLORE_REPORT_VERSION
    );
}

// ---------------------------------------------------------------------
// Live-server explore pins
// ---------------------------------------------------------------------

/// A wire exploration against a live server must be byte-identical to
/// running the same exploration in-process — with `max_frame` squeezed
/// small enough that the reply is forced through a real multi-frame
/// `ExploreResult` sequence, pinning live chunk reassembly end to end.
#[test]
fn live_explore_is_byte_identical_to_in_process() {
    let sys = Arc::new(tiny_system());
    let server = serve::spawn(
        sys.clone(),
        "127.0.0.1:0",
        ServeOptions { threads: 1, max_frame: 96, ..ServeOptions::default() },
    )
    .unwrap();
    let req = ExploreRequest {
        predicates: vec![Predicate::StateNeverActive("B".into())],
        ..ExploreRequest::default()
    };

    let mut client = ScenarioClient::connect(server.addr()).unwrap();
    let remote = client.explore(&req).unwrap();
    let local = explore::explore(&sys, &req.to_options(1));
    assert_eq!(
        wire::encode_explore_report(&remote),
        wire::encode_explore_report(&local),
        "wire exploration diverged from in-process"
    );

    // The squeezed frame cap really forced multiple chunks.
    let chunk_cap = 96usize.saturating_sub(64);
    assert!(
        wire::encode_explore_report(&local).len() > chunk_cap,
        "report too small to exercise multi-frame chunking"
    );

    // Witnesses that crossed the wire still replay exactly.
    assert!(!remote.violations.is_empty(), "state B is reachable");
    for v in &remote.violations {
        assert_eq!(
            explore::replay(&sys, &v.witness.trace).unwrap(),
            v.witness.state_key,
            "wire-transported witness failed replay"
        );
    }
    drop(client);
    server.stop().unwrap();
}

/// An exploration interleaves with in-flight scenarios: outcomes and
/// credits arriving while the client waits for chunks are folded into
/// its state, not dropped.
#[test]
fn explore_interleaves_with_inflight_scenarios() {
    let server = live_server();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 3 };
    let seq = client.submit(vec![vec!["TICK".to_string()]], limits).unwrap();
    let report = client.explore(&ExploreRequest::default()).unwrap();
    assert!(report.states >= 2);
    let (got_seq, outcome) = client.recv().unwrap();
    assert_eq!(got_seq, seq);
    assert!(outcome.error.is_none());
    drop(client);
    server.stop().unwrap();
}

/// A corrupt Explore frame after the handshake gets the same contract
/// as every other tag: a typed Error frame, then the server closes.
#[test]
fn corrupt_explore_request_gets_a_typed_error_then_close() {
    let server = live_server();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();

    let mut bytes = wire::encode_frame(&Frame::Explore(ExploreRequest::default()));
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    client.send_raw(&bytes).unwrap();
    match client.recv_frame() {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, error_code::BAD_CHECKSUM),
        other => panic!("expected Error frame, got {other:?}"),
    }
    match client.recv_frame() {
        Err(WireError::Closed) => {}
        other => panic!("server kept talking after a fatal Error frame: {other:?}"),
    }
    drop(client);
    server.stop().unwrap();
}

/// An Explore frame whose predicate carries an unknown kind tag is
/// malformed — typed rejection, no panic.
#[test]
fn unknown_predicate_kind_is_malformed() {
    let server = live_server();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();

    // Hand-roll an Explore payload with predicate kind 9.
    let mut payload = vec![wire::PROTOCOL_VERSION, 9u8]; // version, T_EXPLORE
    payload.extend_from_slice(&u64::MAX.to_le_bytes()); // max_states
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // max_depth
    payload.extend_from_slice(&1u32.to_le_bytes()); // max_witnesses
    payload.extend_from_slice(&1u32.to_le_bytes()); // one predicate
    payload.push(9); // unknown kind tag
    payload.extend_from_slice(&1u32.to_le_bytes()); // name "X"
    payload.push(b'X');
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(u32::try_from(payload.len() + 4).unwrap()).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&wire::fnv1a32(&payload).to_le_bytes());

    client.send_raw(&bytes).unwrap();
    match client.recv_frame() {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, error_code::MALFORMED),
        other => panic!("expected Error frame, got {other:?}"),
    }
    drop(client);
    server.stop().unwrap();
}

// ---------------------------------------------------------------------
// Socket bytes
// ---------------------------------------------------------------------

/// The bytes a connection receives do not depend on how the server
/// batches its work: 24 submissions shipped in one write (more than one
/// worker batch at the default lane bound) come back as exactly the
/// in-process outcome frames, each followed by its `Credit { n: 1 }`,
/// in submission order — byte for byte, whatever the number of socket
/// writes that carried them.
#[test]
fn coalesced_round_is_byte_identical_on_the_socket() {
    const N: u64 = 24;
    let sys = Arc::new(tiny_system());
    let server = live_server();
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 6 };
    let scripts: Vec<Vec<Vec<String>>> = (0..N as usize)
        .map(|i| {
            (0..i % 5)
                .map(|row| if (i + row) % 2 == 0 { vec!["TICK".to_string()] } else { vec![] })
                .collect()
        })
        .collect();
    let in_process = SimPool::with_threads(1).run_batch(
        &sys,
        scripts.iter().cloned().map(ScriptedEnvironment::new).collect(),
        &limits,
    );
    let credit = wire::encode_frame(&Frame::Credit { n: 1 });
    let mut expected = Vec::new();
    for (seq, outcome) in in_process.iter().enumerate() {
        expected.extend(
            OutcomeFrame::begin(seq as u64, &WireOutcome::from_batch(outcome)).finish(None),
        );
        expected.extend_from_slice(&credit);
    }

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    wire::write_frame(&mut stream, &Frame::Hello { window: N as u32, fingerprint: 0, features: 0 })
        .unwrap();
    match wire::read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap() {
        Frame::Hello { window, .. } => assert_eq!(window, N as u32),
        other => panic!("expected Hello, got {other:?}"),
    }
    let mut round = Vec::new();
    for (seq, script) in scripts.into_iter().enumerate() {
        round.extend(wire::encode_frame(&Frame::Submit(Submit {
            seq: seq as u64,
            limits,
            script,
        })));
    }
    stream.write_all(&round).unwrap();

    let mut received = Vec::new();
    let mut cursor = wire::FrameCursor::new();
    let (mut outcomes, mut credits) = (0u64, 0u64);
    let mut chunk = [0u8; 4096];
    while outcomes < N || credits < N {
        let n = stream.read(&mut chunk).expect("server went quiet before 24 outcomes");
        assert!(n > 0, "server closed after {outcomes} outcomes");
        received.extend_from_slice(&chunk[..n]);
        cursor.feed(&chunk[..n]);
        while let Some(frame) = cursor.next_frame(DEFAULT_MAX_FRAME).unwrap() {
            match frame {
                Frame::Outcome { .. } => outcomes += 1,
                Frame::Credit { .. } => credits += 1,
                other => panic!("unexpected frame: {other:?}"),
            }
        }
    }
    assert_eq!(received, expected, "socket bytes differ from the in-process frames");
    drop(stream);
    server.stop().unwrap();
}

// ---------------------------------------------------------------------
// Client send rule
// ---------------------------------------------------------------------

/// A client connected to a fake server: a raw socket that answers the
/// `Hello` and then only observes (and, where a call blocks for a
/// reply, pre-answers) what the client writes.
fn fake_server(window: u32) -> (ScenarioClient, TcpStream) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accept = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().unwrap();
        match wire::read_frame(&mut peer, DEFAULT_MAX_FRAME).unwrap() {
            Frame::Hello { .. } => {}
            other => panic!("expected Hello, got {other:?}"),
        }
        wire::write_frame(&mut peer, &Frame::Hello { window, fingerprint: 0, features: 0 })
            .unwrap();
        peer
    });
    let client = ScenarioClient::connect_with(addr, window, 0).unwrap();
    (client, accept.join().unwrap())
}

/// Every frame that reaches `peer` within a short quiet period.
fn frames_on_the_wire(peer: &mut TcpStream) -> Vec<Frame> {
    peer.set_read_timeout(Some(std::time::Duration::from_millis(150))).unwrap();
    let mut cursor = wire::FrameCursor::new();
    let mut chunk = [0u8; 4096];
    loop {
        match peer.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => cursor.feed(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => panic!("fake server read failed: {e}"),
        }
    }
    let mut frames = Vec::new();
    while let Some(frame) = cursor.next_frame(DEFAULT_MAX_FRAME).unwrap() {
        frames.push(frame);
    }
    assert_eq!(cursor.buffered(), 0, "a partial frame reached the wire");
    frames
}

fn submit_seqs(frames: &[Frame]) -> Vec<u64> {
    frames
        .iter()
        .map(|f| match f {
            Frame::Submit(s) => s.seq,
            other => panic!("expected Submit, got {other:?}"),
        })
        .collect()
}

const SEND_LIMITS: BatchOptions = BatchOptions { deadline: u64::MAX, max_steps: 3 };

fn tick() -> Vec<Vec<String>> {
    vec![vec!["TICK".to_string()]]
}

#[test]
fn a_submit_with_credits_left_waits_for_flush_or_recv() {
    let (mut client, mut peer) = fake_server(4);
    client.submit(tick(), SEND_LIMITS).unwrap();
    assert!(frames_on_the_wire(&mut peer).is_empty(), "submit wrote before a send point");
    client.flush().unwrap();
    assert_eq!(submit_seqs(&frames_on_the_wire(&mut peer)), [0]);

    // `recv` sends the buffered submit before it waits; the reply is
    // already queued, so it does not block.
    client.submit(tick(), SEND_LIMITS).unwrap();
    assert!(frames_on_the_wire(&mut peer).is_empty(), "submit wrote before a send point");
    wire::write_frame(&mut peer, &Frame::Outcome { seq: 0, outcome: WireOutcome::default() })
        .unwrap();
    assert_eq!(client.recv().unwrap().0, 0);
    assert_eq!(submit_seqs(&frames_on_the_wire(&mut peer)), [1]);
}

#[test]
fn a_submit_that_takes_the_last_credit_is_sent_at_once() {
    let (mut client, mut peer) = fake_server(3);
    client.submit(tick(), SEND_LIMITS).unwrap();
    client.submit(tick(), SEND_LIMITS).unwrap();
    assert!(frames_on_the_wire(&mut peer).is_empty(), "submit wrote before a send point");
    client.submit(tick(), SEND_LIMITS).unwrap();
    assert_eq!(submit_seqs(&frames_on_the_wire(&mut peer)), [0, 1, 2]);
}

#[test]
fn other_frames_send_buffered_submits_ahead_of_themselves() {
    let (mut client, mut peer) = fake_server(8);
    let mut next = 0u64;
    let mut buffer_two = |client: &mut ScenarioClient| {
        for _ in 0..2 {
            assert_eq!(client.submit(tick(), SEND_LIMITS).unwrap(), next);
            next += 1;
        }
        vec![next - 2, next - 1]
    };
    let split = |frames: Vec<Frame>| {
        let (last, submits) = frames.split_last().expect("nothing reached the wire");
        (submit_seqs(submits), last.clone())
    };

    // compile: the Diagnostics reply is queued before the call.
    let seqs = buffer_two(&mut client);
    wire::write_frame(&mut peer, &Frame::Diagnostics { fingerprint: 7, diagnostics: vec![] })
        .unwrap();
    assert_eq!(client.compile("chart", "actions").unwrap().0, 7);
    let (submitted, last) = split(frames_on_the_wire(&mut peer));
    assert_eq!(submitted, seqs);
    assert!(matches!(last, Frame::Compile { .. }), "got {last:?}");

    // stats
    let seqs = buffer_two(&mut client);
    let stats = Frame::Stats {
        gauges: ServeGauges::default(),
        snapshot: MetricsSnapshot::default(),
    };
    wire::write_frame(&mut peer, &stats).unwrap();
    client.stats().unwrap();
    let (submitted, last) = split(frames_on_the_wire(&mut peer));
    assert_eq!(submitted, seqs);
    assert_eq!(last, Frame::StatsRequest);

    // explore
    let seqs = buffer_two(&mut client);
    for frame in wire::explore_report_frames(&ExploreReport::default(), 1 << 16) {
        wire::write_frame(&mut peer, &frame).unwrap();
    }
    client.explore(&ExploreRequest::default()).unwrap();
    let (submitted, last) = split(frames_on_the_wire(&mut peer));
    assert_eq!(submitted, seqs);
    assert!(matches!(last, Frame::Explore(_)), "got {last:?}");

    // send_raw
    let seqs = buffer_two(&mut client);
    client.send_raw(&wire::encode_frame(&Frame::StatsRequest)).unwrap();
    let (submitted, last) = split(frames_on_the_wire(&mut peer));
    assert_eq!(submitted, seqs);
    assert_eq!(last, Frame::StatsRequest);
}
