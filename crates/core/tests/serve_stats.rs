//! The remote telemetry plane, pinned end to end:
//!
//! - **Quiesced byte-identity**: a wire-scraped `Stats` snapshot from a
//!   drained server encodes byte-for-byte equal to an in-process
//!   `pscp_obs::metrics::snapshot()` — the telemetry twin of the
//!   outcome differential contract.
//! - **Version gating**: latency trailers appear only on connections
//!   that negotiated `feature::LATENCY`; a default (PR-8-shaped)
//!   client sees byte-identical outcomes with no trailer.
//! - **Per-scenario latency**: scenarios a worker pops together each
//!   report their own simulation time.
//! - **Off switch**: `ServeOptions { stats: false }` answers scrapes
//!   with a typed error.
//! - **Deltas**: two scrapes bracketing traffic compose into the
//!   per-interval rates `pscp-serve top` renders.
//!
//! Metrics are process-wide globals, so every test here serializes on
//! one mutex and restores the flag word it found.

use pscp_core::arch::PscpArch;
use pscp_core::compile::{compile_system, CompiledSystem};
use pscp_core::pool::BatchOptions;
use pscp_core::serve::wire::{self, feature, Frame};
use pscp_core::serve::{self, ScenarioClient, ServeOptions, WireError, DEFAULT_WINDOW};
use pscp_statechart::{ChartBuilder, StateKind};
use pscp_tep::codegen::CodegenOptions;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A poisoned lock just means another test failed; the globals are
    // reset at the top of every test anyway.
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    }
}

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

const LIMITS: BatchOptions = BatchOptions { deadline: u64::MAX, max_steps: 8 };

fn script() -> Vec<Vec<String>> {
    vec![vec!["TICK".to_string()], vec![], vec!["TICK".to_string()]]
}

/// A guard that restores the observability flag word on drop, so a
/// failing test cannot leak enabled metrics into its neighbours.
struct FlagGuard(u8);

impl FlagGuard {
    fn set(flags: u8) -> Self {
        let prev = pscp_obs::flags();
        pscp_obs::set_flags(flags);
        FlagGuard(prev)
    }
}

impl Drop for FlagGuard {
    fn drop(&mut self) {
        pscp_obs::set_flags(self.0);
    }
}

#[test]
fn quiesced_wire_scrape_is_byte_identical_to_in_process_snapshot() {
    let _g = lock();
    let _flags = FlagGuard::set(pscp_obs::METRICS);
    pscp_obs::metrics::reset_all();

    let sys = Arc::new(tiny_system());
    let opts = ServeOptions { threads: 2, ..ServeOptions::default() };
    let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();
    for _ in 0..6 {
        client.submit(script(), LIMITS).unwrap();
    }
    for _ in 0..6 {
        client.recv().unwrap();
    }

    // Warmup scrape: its reply travels through the same writer queue as
    // the last outcome, so once it returns, every outcome-side counter
    // add on this connection has landed and the server is quiesced.
    client.stats().unwrap();

    let (gauges, scraped) = client.stats().unwrap();
    let inproc = pscp_obs::metrics::snapshot();
    assert_eq!(
        wire::encode_stats(&inproc),
        wire::encode_stats(&scraped),
        "wire-scraped snapshot must be byte-identical to the in-process encoding"
    );
    // The scrape counter includes both scrapes — counted before the
    // reply snapshot, so it is stable once the reply is on the wire.
    assert_eq!(scraped.counter("serve_stats_scrapes"), 2);
    // Sanity on the gauges riding alongside.
    assert!(gauges.uptime_ns > 0);
    assert_eq!(gauges.workers, 2);
    assert!(gauges.registered_systems >= 1);
    assert!(gauges.live_connections >= 1);

    drop(client);
    server.stop().unwrap();
}

#[test]
fn latency_trailers_are_gated_on_the_negotiated_feature() {
    let _g = lock();
    // Metrics stay OFF: the latency plumbing must work for a client
    // that asked for it even when process observability is disabled.
    let _flags = FlagGuard::set(0);

    let sys = Arc::new(tiny_system());
    let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
    let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();

    // A default client requests no features and must see none granted
    // and no trailers — the PR-8 wire shape, bit for bit.
    let mut plain = ScenarioClient::connect(server.addr()).unwrap();
    assert_eq!(plain.features(), 0);
    plain.submit(script(), LIMITS).unwrap();
    let (_, outcome) = plain.recv().unwrap();
    assert!(outcome.latency.is_none(), "un-negotiated outcome grew a trailer");
    drop(plain);

    // A latency client gets the feature echoed and a trailer on every
    // outcome.
    let mut timed = ScenarioClient::connect_latency(server.addr(), DEFAULT_WINDOW, 0).unwrap();
    assert_eq!(timed.features() & feature::LATENCY, feature::LATENCY);
    timed.submit(script(), LIMITS).unwrap();
    let (_, outcome) = timed.recv().unwrap();
    let lat = outcome.latency.expect("negotiated connection must carry latency trailers");
    // Durations, not timestamps: each bounded by a minute of wall time
    // on any sane run of this test.
    let minute = 60_000_000_000u64;
    assert!(lat.sim_ns < minute && lat.queue_ns < minute && lat.encode_ns < minute);
    // The trailer rides outside the canonical body: stripping it gives
    // exactly the bytes the plain client saw semantically.
    let mut stripped = outcome.clone();
    stripped.latency = None;
    assert_eq!(stripped.encode(), outcome.encode());
    drop(timed);
    server.stop().unwrap();
}

/// A worker runs the jobs it pops one after another, so each outcome
/// reports its own simulation time, not its batch's: one long scenario
/// and seven short ones sent in one write reach a one-worker server as
/// one popped batch, and every short scenario must report less
/// simulation time than the long one, and a queue time that covers the
/// long one it waited behind.
#[test]
fn latency_is_per_scenario_within_a_popped_batch() {
    let _g = lock();
    let _flags = FlagGuard::set(0);

    let sys = Arc::new(tiny_system());
    let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
    let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();
    let mut client = ScenarioClient::connect_latency(server.addr(), DEFAULT_WINDOW, 0).unwrap();
    assert_eq!(client.features() & feature::LATENCY, feature::LATENCY);
    let long = BatchOptions { deadline: u64::MAX, max_steps: 200_000 };
    let short = BatchOptions { deadline: u64::MAX, max_steps: 1 };
    // Submissions wait in the client's outbox; the first `recv` sends
    // all eight in one write.
    client.submit(script(), long).unwrap();
    for _ in 0..7 {
        client.submit(script(), short).unwrap();
    }
    let lat: Vec<_> = (0..8)
        .map(|_| client.recv().unwrap().1.latency.expect("negotiated latency trailer"))
        .collect();
    let long_sim = lat[0].sim_ns;
    for (i, l) in lat.iter().enumerate().skip(1) {
        assert!(l.sim_ns < long_sim, "short scenario {i} reports {l:?}, long sim_ns {long_sim}");
        assert!(l.queue_ns >= long_sim, "short scenario {i} reports {l:?}, long sim_ns {long_sim}");
    }
    drop(client);
    server.stop().unwrap();
}

#[test]
fn stats_disabled_answers_a_typed_error() {
    let _g = lock();
    let sys = Arc::new(tiny_system());
    let opts = ServeOptions { threads: 1, stats: false, ..ServeOptions::default() };
    let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();
    match client.stats() {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, wire::error_code::UNEXPECTED_FRAME);
            assert!(message.contains("stats"), "unhelpful message: {message}");
        }
        other => panic!("expected a typed remote error, got {other:?}"),
    }
    drop(client);
    server.stop().unwrap();
}

#[test]
fn scrape_deltas_count_the_traffic_between_them() {
    let _g = lock();
    let _flags = FlagGuard::set(pscp_obs::METRICS);
    pscp_obs::metrics::reset_all();

    let sys = Arc::new(tiny_system());
    let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
    let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();

    client.submit(script(), LIMITS).unwrap();
    client.recv().unwrap();
    client.stats().unwrap(); // quiesce (see byte-identity test)
    let (_, before) = client.stats().unwrap();

    let n = 5u64;
    for _ in 0..n {
        client.submit(script(), LIMITS).unwrap();
    }
    for _ in 0..n {
        client.recv().unwrap();
    }
    client.stats().unwrap(); // quiesce again
    let (_, after) = client.stats().unwrap();

    let delta = after.delta(&before);
    let ran: u64 = delta.per_worker_values("pool_scenarios").iter().sum();
    assert_eq!(ran, n, "delta must count exactly the scenarios between the scrapes");
    // The interval's queue/sim histograms cover those scenarios too.
    let queued = delta.histogram("serve_queue_ns").map_or(0, |h| h.count);
    assert_eq!(queued, n);
    // Self-delta is empty.
    assert!(after.delta(&after).histograms.is_empty());

    drop(client);
    server.stop().unwrap();
}

#[test]
fn scraping_mid_flight_does_not_disturb_scenarios() {
    let _g = lock();
    let _flags = FlagGuard::set(0);
    let sys = Arc::new(tiny_system());
    let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
    let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();
    // Interleave scrapes with submissions: outcomes and credits that
    // arrive while waiting for Stats fold into client state.
    for _ in 0..4 {
        client.submit(script(), LIMITS).unwrap();
        let (gauges, _snapshot) = client.stats().unwrap();
        assert_eq!(gauges.workers, 1);
    }
    for _ in 0..4 {
        client.recv().unwrap();
    }
    drop(client);
    server.stop().unwrap();
}

#[test]
fn stats_frames_cross_a_real_socket_intact() {
    // Belt and braces over the unit round-trips: a Stats frame built
    // from a *live* snapshot survives a real scrape and re-encodes to
    // the same frame bytes.
    let _g = lock();
    let _flags = FlagGuard::set(pscp_obs::METRICS);
    pscp_obs::metrics::reset_all();
    let sys = Arc::new(tiny_system());
    let server =
        serve::spawn(Arc::clone(&sys), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();
    client.submit(script(), LIMITS).unwrap();
    client.recv().unwrap();
    let (gauges, snapshot) = client.stats().unwrap();
    let reencoded = wire::encode_frame(&Frame::Stats { gauges, snapshot });
    let mut cursor = wire::FrameCursor::new();
    cursor.feed(&reencoded);
    assert!(matches!(
        cursor.next_frame(wire::DEFAULT_MAX_FRAME).unwrap(),
        Some(Frame::Stats { .. })
    ));
    drop(client);
    server.stop().unwrap();
}

#[test]
fn a_writer_coalesces_frames_into_fewer_socket_writes() {
    let _g = lock();
    let _flags = FlagGuard::set(pscp_obs::METRICS);
    pscp_obs::metrics::reset_all();

    let sys = Arc::new(tiny_system());
    let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
    let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();
    let n = 12u64;
    for _ in 0..n {
        client.submit(script(), LIMITS).unwrap();
    }
    for _ in 0..n {
        client.recv().unwrap();
    }
    client.stats().unwrap(); // quiesce (see byte-identity test)
    let (_, snapshot) = client.stats().unwrap();

    let writes: u64 = snapshot.per_worker_values("serve_writes").iter().sum();
    let frames_out: u64 = snapshot.per_worker_values("serve_frames_out").iter().sum();
    assert!(writes >= 1, "outcomes reached the client without a counted write");
    assert!(writes <= n, "{writes} socket writes for {n} outcomes");
    // Every outcome still travels with its own credit, plus the Hello.
    assert_eq!(frames_out, 2 * n + 1);

    drop(client);
    server.stop().unwrap();
}
