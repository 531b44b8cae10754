//! The sharded scenario server.
//!
//! One loaded [`CompiledSystem`], many concurrent client connections.
//! Work is sharded across a persistent pool of scenario workers — one
//! [`PscpMachine`](crate::machine::PscpMachine) (or one gang rig) per
//! worker, reused across scenarios exactly like a
//! [`SimPool`](crate::pool::SimPool) worker. Every scenario runs
//! through the same `BatchRunner` the in-process pool uses, which is
//! what makes server round-trips byte-identical to
//! `SimPool::run_batch` (the differential suite pins this).
//!
//! Per-connection flow control is credit-based: the handshake grants a
//! window of `W` in-flight scenarios; each completed outcome is
//! followed by a `Credit` frame returning one slot. A client that
//! submits past its window is cut off with a typed `Error` frame. A
//! stalled client (slow to read) blocks only its own connection's
//! writer thread — outcomes for other connections keep flowing, and
//! the server buffers at most `W` outcomes for the stalled peer.

use super::wire::{
    self, error_code, feature, ExploreRequest, Frame, OutcomeFrame, OutcomeLatency, ServeGauges,
    Submit, WireError, WireOutcome,
};
use super::ServeOptions;
use crate::compile::CompiledSystem;
use crate::machine::ScriptedEnvironment;
use crate::pool::{BatchOptions, BatchRunner};
use pscp_statechart::semantics::SelectionTables;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Read timeout on connection sockets, so an idle reader re-checks the
/// shutdown flag. Reads with data pending return immediately; this
/// bounds only how long a *quiet* connection takes to notice shutdown.
const POLL: Duration = Duration::from_millis(5);

/// Backstop for the drain wait: the external shutdown flag has no
/// condvar, so the drain loop re-checks it at this period. Completion
/// and death wake the drain immediately via [`Conn::drained`]; this
/// bound is only how long a drain takes to notice a *process-level*
/// shutdown.
const DRAIN_BACKSTOP: Duration = Duration::from_millis(50);

/// One queued scenario.
struct Job {
    conn: Arc<Conn>,
    seq: u64,
    env: ScriptedEnvironment,
    limits: BatchOptions,
    /// Enqueue instant, taken only when someone will consume the
    /// timing (metrics enabled or the connection negotiated
    /// [`feature::LATENCY`]) — the untimed hot path stays clock-free.
    enqueued: Option<Instant>,
}

/// The shared job queue all connections feed and all workers drain.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    open: AtomicBool,
}

impl Shared {
    fn new() -> Self {
        Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            open: AtomicBool::new(true),
        }
    }

    fn push(&self, job: Job) {
        let mut q = self.queue.lock().unwrap();
        q.push_back(job);
        pscp_obs::metrics::SERVE_QUEUE_DEPTH.record(q.len() as u64);
        drop(q);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` once the queue is closed and
    /// drained. Pure condvar wait — [`push`](Self::push) mutates the
    /// queue and [`close`](Self::close) flips the flag under the same
    /// lock, so a wakeup can never be missed and an idle worker costs
    /// nothing until signalled.
    fn pop(&self) -> Option<Job> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if !self.open.load(Ordering::Acquire) {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    /// Non-blocking: moves up to `max` more queued jobs into `out`, so
    /// a gang worker fills its lanes exactly when queue depth allows
    /// and never waits for lanemates.
    fn pop_extra(&self, max: usize, out: &mut Vec<Job>) {
        if max == 0 {
            return;
        }
        let mut q = self.queue.lock().unwrap();
        for _ in 0..max {
            match q.pop_front() {
                Some(job) => out.push(job),
                None => break,
            }
        }
    }

    /// Jobs queued right now — the `queue_depth` gauge.
    fn depth(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    fn close(&self) {
        // The flag must flip under the queue lock: a worker that just
        // found the queue empty holds the lock until its wait begins,
        // so this store+notify cannot slip into that gap and strand it.
        let _q = self.queue.lock().unwrap();
        self.open.store(false, Ordering::Release);
        self.ready.notify_all();
    }
}

/// Messages queued for a connection's writer thread.
enum Msg {
    /// A fully encoded `Outcome` frame; the writer follows it with a
    /// `Credit { n: 1 }` and releases the in-flight slot.
    Outcome(Vec<u8>),
    /// A fully encoded frame with no flow-control side effects
    /// (`Diagnostics` replies).
    Frame(Vec<u8>),
    /// A fully encoded `Stats` reply. Like [`Msg::Frame`] it bypasses
    /// the credit window, but it is also **excluded** from
    /// `SERVE_FRAMES_OUT` — a telemetry scrape must not perturb the
    /// counters it reports, or a quiesced server could never be
    /// byte-identical to an in-process snapshot.
    Stats(Vec<u8>),
    /// A fatal error frame; the writer sends it and stops.
    Error { code: u16, message: String },
    /// Orderly end of the connection.
    Close,
}

/// Per-connection shared state between reader, writer, and workers.
struct Conn {
    id: usize,
    /// The connection negotiated [`feature::LATENCY`]: outcomes carry
    /// a latency trailer.
    latency: bool,
    /// Scenarios submitted but not yet credited back.
    inflight: AtomicU32,
    /// Set once the connection is beyond saving (write error, protocol
    /// error); workers drop outcomes for dead connections.
    dead: AtomicBool,
    outbound: Mutex<VecDeque<Msg>>,
    ready: Condvar,
    /// Signalled (under [`flow`](Self::flow)) whenever `inflight`
    /// drops or the connection dies — what the reader's drain loop
    /// sleeps on instead of polling.
    flow: Mutex<()>,
    drained: Condvar,
}

impl Conn {
    fn new(id: usize, latency: bool) -> Self {
        Conn {
            id,
            latency,
            inflight: AtomicU32::new(0),
            dead: AtomicBool::new(false),
            outbound: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            flow: Mutex::new(()),
            drained: Condvar::new(),
        }
    }

    fn push(&self, msg: Msg) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        self.outbound.lock().unwrap().push_back(msg);
        self.ready.notify_one();
    }

    /// Blocks for the next outbound message. Pure condvar wait; the
    /// queue mutates under the lock and [`kill`](Self::kill) flips the
    /// dead flag under the same lock, so no wakeup is ever missed.
    fn pop(&self) -> Option<Msg> {
        let mut q = self.outbound.lock().unwrap();
        loop {
            if let Some(msg) = q.pop_front() {
                return Some(msg);
            }
            if self.dead.load(Ordering::Acquire) {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    /// Signals the drain loop that an in-flight slot was released.
    fn notify_drained(&self) {
        let _g = self.flow.lock().unwrap();
        self.drained.notify_all();
    }

    fn kill(&self) {
        // Flag flips under the outbound lock so a writer between its
        // empty-check and its wait cannot miss the wakeup (same
        // pattern as `Shared::close`).
        {
            let _q = self.outbound.lock().unwrap();
            self.dead.store(true, Ordering::Release);
            self.ready.notify_all();
        }
        self.notify_drained();
    }
}

/// Listener-lifetime state behind the [`ServeGauges`] a `Stats` reply
/// reports: these are point-in-time facts about the process, not
/// monotonic counters, so they live here rather than in `pscp-obs`.
struct ServerStats {
    start: Instant,
    live: AtomicU32,
    /// The served system's fingerprint — fixed for the listener's
    /// lifetime, so it rides here rather than as its own parameter.
    fingerprint: u64,
}

impl ServerStats {
    fn new(fingerprint: u64) -> Self {
        ServerStats { start: Instant::now(), live: AtomicU32::new(0), fingerprint }
    }

    fn uptime_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Counts a connection as live until the guard drops.
    fn live_guard(&self) -> LiveGuard<'_> {
        self.live.fetch_add(1, Ordering::AcqRel);
        LiveGuard(self)
    }
}

struct LiveGuard<'a>(&'a ServerStats);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What the reader loop saw next.
enum ReadEvent {
    Frame(Frame),
    /// Clean EOF at a frame boundary.
    Eof,
    /// The server is shutting down.
    Shutdown,
}

/// Reads the next frame with short timeouts so shutdown is honoured
/// even on an idle connection. The cursor preserves partial frames
/// across timeouts.
fn next_event(
    stream: &mut TcpStream,
    cursor: &mut wire::FrameCursor,
    max_frame: u32,
    shutdown: &AtomicBool,
) -> Result<ReadEvent, WireError> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(frame) = cursor.next_frame(max_frame)? {
            return Ok(ReadEvent::Frame(frame));
        }
        if shutdown.load(Ordering::Acquire) {
            return Ok(ReadEvent::Shutdown);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if cursor.buffered() == 0 {
                    Ok(ReadEvent::Eof)
                } else {
                    Err(WireError::Truncated)
                };
            }
            Ok(n) => cursor.feed(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
}

/// One scenario worker serving the shared queue. It pops one job
/// (blocking), then opportunistically drains up to `gang - 1` more
/// without waiting, and runs the batch on its [`BatchRunner`]: at
/// `gang <= 1` the classic scalar shard, one persistent machine and one
/// scenario at a time; wider, one lock-step [`GangRig`](crate::gang)
/// pass — scenarios from different connections can share a gang, since
/// every lane carries its own environment and limits. Outcomes are
/// byte-identical either way (the differential suite pins it), so gang
/// packing is purely a throughput choice. Every machine runs on the
/// server's one set of selection `tables`.
fn worker(
    w: usize,
    system: &CompiledSystem,
    tables: &Arc<SelectionTables>,
    shared: &Shared,
    gang: usize,
) {
    let _lane = pscp_obs::trace::worker_lane("serve-worker", w);
    let mut runner = BatchRunner::new(system, tables, gang);
    let mut batch: Vec<Job> = Vec::with_capacity(gang);
    while let Some(job) = shared.pop() {
        batch.push(job);
        shared.pop_extra(gang - 1, &mut batch);
        let timed = batch.iter().any(|j| j.enqueued.is_some());
        let dequeued = timed.then(Instant::now);
        let mut routes = Vec::with_capacity(batch.len());
        let mut jobs = Vec::with_capacity(batch.len());
        for job in batch.drain(..) {
            routes.push((job.conn, job.seq, elapsed_ns(job.enqueued, dequeued)));
            jobs.push((job.env, job.limits));
        }
        let outcomes = runner.run(w, jobs, &|_, _, _| false);
        let sim_end = dequeued.map(|_| Instant::now());
        // Every scenario of a batch reports the batch's shared wall
        // time: gang lanes simulate lock-step, so this is the honest
        // decomposition of server residency for a ganged scenario, and
        // a one-job batch's own simulation time.
        let sim_ns = elapsed_ns(dequeued, sim_end);
        if pscp_obs::metrics_enabled() {
            pscp_obs::metrics::SERVE_SIM_NS.record(w, sim_ns);
        }
        for ((conn, seq, queue_ns), outcome) in routes.into_iter().zip(outcomes) {
            let enc_start = dequeued.map(|_| Instant::now());
            let builder = OutcomeFrame::begin(seq, &WireOutcome::from_batch(&outcome));
            let encode_ns = elapsed_ns(enc_start, enc_start.map(|_| Instant::now()));
            if pscp_obs::metrics_enabled() {
                pscp_obs::metrics::SERVE_QUEUE_NS.record(w, queue_ns);
                pscp_obs::metrics::SERVE_ENCODE_NS.record(encode_ns);
            }
            let latency = conn.latency.then_some(OutcomeLatency { queue_ns, sim_ns, encode_ns });
            conn.push(Msg::Outcome(builder.finish(latency)));
        }
    }
}

/// Nanoseconds between two optional instants; 0 when either is absent
/// (an untimed job) or the clock stepped oddly.
fn elapsed_ns(start: Option<Instant>, end: Option<Instant>) -> u64 {
    match (start, end) {
        (Some(a), Some(b)) => {
            u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
        }
        _ => 0,
    }
}

/// The writer half of a connection: drains the outbound queue to the
/// socket. Only this thread writes after the handshake, so a stalled
/// peer blocks here — never a worker.
fn writer(conn: &Conn, stream: &mut TcpStream) {
    while let Some(msg) = conn.pop() {
        let result = match msg {
            Msg::Outcome(frame_bytes) => stream
                .write_all(&frame_bytes)
                .and_then(|()| {
                    // Release the slot BEFORE the credit hits the wire:
                    // the client may react to the credit instantly, and
                    // its next submit must not race a stale count into a
                    // false violation.
                    conn.inflight.fetch_sub(1, Ordering::AcqRel);
                    conn.notify_drained();
                    stream.write_all(&wire::encode_frame(&Frame::Credit { n: 1 }))
                })
                .map(|()| pscp_obs::metrics::SERVE_FRAMES_OUT.add(conn.id, 2)),
            Msg::Frame(frame_bytes) => stream
                .write_all(&frame_bytes)
                .map(|()| pscp_obs::metrics::SERVE_FRAMES_OUT.add(conn.id, 1)),
            // Deliberately NOT counted in SERVE_FRAMES_OUT — see Msg::Stats.
            Msg::Stats(frame_bytes) => stream.write_all(&frame_bytes),
            Msg::Error { code, message } => {
                let r = stream
                    .write_all(&wire::encode_frame(&Frame::Error { code, message }));
                if r.is_ok() {
                    pscp_obs::metrics::SERVE_FRAMES_OUT.add(conn.id, 1);
                }
                conn.kill();
                r
            }
            Msg::Close => break,
        };
        if result.is_err() {
            conn.kill();
            break;
        }
    }
    let _ = stream.flush();
}

/// Compiles sources received in a `Compile` frame against the serving
/// system's architecture and default codegen options. Successful
/// compiles register in the per-process system table; the reply is
/// always a `Diagnostics` frame (fingerprint 0 on failure) carrying
/// the canonical span-sorted report.
fn handle_compile(system: &CompiledSystem, chart: &str, actions: &str) -> Frame {
    pscp_obs::metrics::SERVE_COMPILES.inc();
    let mut sink = pscp_diag::DiagnosticSink::new();
    let compiled = crate::diag::compile_sources(
        chart,
        actions,
        &system.arch,
        &pscp_tep::codegen::CodegenOptions::default(),
        &mut sink,
    );
    let diagnostics = sink.finish();
    let fingerprint = match compiled {
        Some(sys) => super::register_system(Arc::new(sys)),
        None => {
            pscp_obs::metrics::SERVE_COMPILE_ERRORS.inc();
            0
        }
    };
    Frame::Diagnostics { fingerprint, diagnostics }
}

/// Runs a wire-requested exploration and chunks the canonical report
/// into `ExploreResult` frames, each body slice sized so the complete
/// frame (headers, length prefixes, checksum) stays under `max_frame`.
/// Expansion fans out over the server's own worker count — the report
/// is byte-identical for any `threads` (the differential suite pins
/// it), so the request never carries it.
fn handle_explore(
    system: &CompiledSystem,
    req: &ExploreRequest,
    threads: usize,
    max_frame: u32,
) -> Vec<Frame> {
    pscp_obs::metrics::SERVE_EXPLORES.inc();
    let report = crate::explore::explore(system, &req.to_options(threads));
    // Leave generous headroom for the frame envelope: version, tag,
    // seq, flags, chunk length prefix, checksum.
    let max_chunk = (max_frame as usize).saturating_sub(64).max(1);
    wire::explore_report_frames(&report, max_chunk)
}

/// The reader half of a connection: handshake, then submissions.
fn handle_connection(
    mut stream: TcpStream,
    conn_id: usize,
    system: &CompiledSystem,
    shared: &Shared,
    stats: &ServerStats,
    opts: &ServeOptions,
    shutdown: &AtomicBool,
) {
    let fingerprint = stats.fingerprint;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    pscp_obs::metrics::SERVE_CONNECTIONS.inc();
    let _live = stats.live_guard();
    let mut cursor = wire::FrameCursor::new();

    // Handshake: the first frame must be a Hello.
    let (window, granted) = match next_event(&mut stream, &mut cursor, opts.max_frame, shutdown)
    {
        Ok(ReadEvent::Frame(Frame::Hello { window, fingerprint: fp, features })) => {
            pscp_obs::metrics::SERVE_FRAMES_IN.add(conn_id, 1);
            if fp != 0 && fp != fingerprint {
                pscp_obs::metrics::SERVE_ERRORS.inc();
                // Routing hint: a fingerprint the client got from a
                // Compile round may be registered in this process's
                // system table even though this listener serves a
                // different design — say which failure this is.
                let known = super::lookup_system(fp).is_some();
                let detail = if known {
                    " (registered in this process's system table, but not served here)"
                } else {
                    ""
                };
                let _ = wire::write_frame(
                    &mut stream,
                    &Frame::Error {
                        code: error_code::SYSTEM_MISMATCH,
                        message: format!(
                            "server system fingerprint {fingerprint:#018x}, client expected {fp:#018x}{detail}"
                        ),
                    },
                );
                return;
            }
            (window.clamp(1, opts.max_window.max(1)), features & feature::SUPPORTED)
        }
        Ok(ReadEvent::Frame(_)) => {
            pscp_obs::metrics::SERVE_ERRORS.inc();
            let _ = wire::write_frame(
                &mut stream,
                &Frame::Error {
                    code: error_code::UNEXPECTED_FRAME,
                    message: "expected Hello".into(),
                },
            );
            return;
        }
        Ok(ReadEvent::Eof) | Ok(ReadEvent::Shutdown) => return,
        Err(e) => {
            pscp_obs::metrics::SERVE_ERRORS.inc();
            let _ = wire::write_frame(
                &mut stream,
                &Frame::Error { code: e.code(), message: e.to_string() },
            );
            return;
        }
    };
    if wire::write_frame(&mut stream, &Frame::Hello { window, fingerprint, features: granted })
        .is_err()
    {
        return;
    }
    pscp_obs::metrics::SERVE_FRAMES_OUT.add(conn_id, 1);

    let conn = Arc::new(Conn::new(conn_id, granted & feature::LATENCY != 0));
    let writer_conn = Arc::clone(&conn);
    let Ok(mut write_stream) = stream.try_clone() else { return };
    let writer_thread = std::thread::spawn(move || writer(&writer_conn, &mut write_stream));

    // Submission loop.
    loop {
        match next_event(&mut stream, &mut cursor, opts.max_frame, shutdown) {
            Ok(ReadEvent::Frame(Frame::Submit(Submit { seq, limits, script }))) => {
                pscp_obs::metrics::SERVE_FRAMES_IN.add(conn_id, 1);
                let inflight = conn.inflight.fetch_add(1, Ordering::AcqRel) + 1;
                if inflight > window {
                    pscp_obs::metrics::SERVE_ERRORS.inc();
                    conn.push(Msg::Error {
                        code: error_code::CREDIT_VIOLATION,
                        message: format!("{inflight} scenarios in flight, window is {window}"),
                    });
                    break;
                }
                pscp_obs::metrics::SERVE_INFLIGHT.record(u64::from(inflight));
                shared.push(Job {
                    conn: Arc::clone(&conn),
                    seq,
                    env: ScriptedEnvironment::new(script),
                    limits,
                    enqueued: (pscp_obs::metrics_enabled() || conn.latency)
                        .then(Instant::now),
                });
            }
            Ok(ReadEvent::Frame(Frame::Compile { chart, actions })) => {
                pscp_obs::metrics::SERVE_FRAMES_IN.add(conn_id, 1);
                let reply = handle_compile(system, &chart, &actions);
                conn.push(Msg::Frame(wire::encode_frame(&reply)));
            }
            Ok(ReadEvent::Frame(Frame::Explore(req))) => {
                pscp_obs::metrics::SERVE_FRAMES_IN.add(conn_id, 1);
                // Exploration runs on this connection's reader thread
                // (its own scenario submissions wait behind it; other
                // connections are untouched) and fans out internally
                // across the configured worker count.
                let frames =
                    handle_explore(system, &req, opts.threads.max(1), opts.max_frame);
                for frame in frames {
                    conn.push(Msg::Frame(wire::encode_frame(&frame)));
                }
            }
            Ok(ReadEvent::Frame(Frame::StatsRequest)) => {
                // NOT counted in SERVE_FRAMES_IN: a scrape must leave
                // the counters it reports untouched (the quiesced
                // byte-identity pin depends on it).
                if !opts.stats {
                    pscp_obs::metrics::SERVE_ERRORS.inc();
                    conn.push(Msg::Error {
                        code: error_code::UNEXPECTED_FRAME,
                        message: "stats disabled (PSCP_SERVE_STATS=off)".into(),
                    });
                    break;
                }
                // Count the scrape BEFORE snapshotting, so the reply
                // includes its own scrape and the counter is stable
                // once the reply is on the wire.
                pscp_obs::metrics::SERVE_STATS_SCRAPES.inc();
                let snapshot = pscp_obs::metrics::snapshot();
                let gauges = ServeGauges {
                    uptime_ns: stats.uptime_ns(),
                    registered_systems: super::registered_systems() as u32,
                    live_connections: stats.live.load(Ordering::Acquire),
                    queue_depth: shared.depth() as u32,
                    workers: opts.threads.max(1) as u32,
                    gang: opts.gang.clamp(1, pscp_sla::gang::GANG_WIDTH) as u32,
                };
                conn.push(Msg::Stats(wire::encode_frame(&Frame::Stats { gauges, snapshot })));
            }
            Ok(ReadEvent::Frame(_)) => {
                pscp_obs::metrics::SERVE_ERRORS.inc();
                conn.push(Msg::Error {
                    code: error_code::UNEXPECTED_FRAME,
                    message: "only Submit, Compile, StatsRequest and Explore frames are valid \
                              after the handshake"
                        .into(),
                });
                break;
            }
            Ok(ReadEvent::Eof) => break,
            Ok(ReadEvent::Shutdown) => break,
            // A peer that closes with unread credits in its socket
            // buffer surfaces as a reset, not EOF — still a clean end.
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                break;
            }
            Err(e) => {
                pscp_obs::metrics::SERVE_ERRORS.inc();
                conn.push(Msg::Error { code: e.code(), message: e.to_string() });
                break;
            }
        }
    }

    // Drain: let queued scenarios finish and their outcomes flush, then
    // stop the writer. A dead connection (write failure, protocol
    // error) skips straight to the join. The writer signals `drained`
    // on every released slot, so completion wakes this immediately; the
    // timeout is only a backstop for the condvar-less external
    // shutdown flag.
    {
        let mut g = conn.flow.lock().unwrap();
        while conn.inflight.load(Ordering::Acquire) > 0
            && !conn.dead.load(Ordering::Acquire)
            && !shutdown.load(Ordering::Acquire)
        {
            let (guard, _) = conn.drained.wait_timeout(g, DRAIN_BACKSTOP).unwrap();
            g = guard;
        }
    }
    conn.push(Msg::Close);
    conn.kill();
    let _ = writer_thread.join();
}

/// Serves scenario batches for one compiled system until `shutdown` is
/// set. Blocks the calling thread; every worker and connection thread
/// lives inside a scope that borrows `system`.
///
/// The accept loop blocks in `accept()` — no polling — so a new
/// connection is picked up the moment it arrives. Setting `shutdown`
/// alone therefore does not wake an idle loop: after storing the flag,
/// nudge the listener by dialing its address (what
/// [`ServerHandle::stop`] does).
///
/// # Errors
///
/// Returns the underlying listener error when accepting fails for a
/// reason other than an empty backlog.
pub fn serve(
    system: &CompiledSystem,
    listener: TcpListener,
    opts: &ServeOptions,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let fingerprint = super::system_fingerprint(system);
    // The served system is itself a registry entry, so a client that
    // compiles identical sources gets the same fingerprint back and can
    // pin it in its next Hello.
    super::register_system(Arc::new(system.clone()));
    let shared = Shared::new();
    let stats = ServerStats::new(fingerprint);
    let threads = opts.threads.max(1);
    let gang = opts.gang.clamp(1, pscp_sla::gang::GANG_WIDTH);
    // Every worker's machines share one set of selection tables.
    let tables = Arc::new(SelectionTables::new(&system.chart));
    std::thread::scope(|s| {
        for w in 0..threads {
            let shared = &shared;
            let tables = &tables;
            s.spawn(move || worker(w, system, tables, shared, gang));
        }
        let mut next_conn = 0usize;
        let result = loop {
            if shutdown.load(Ordering::Acquire) {
                break Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // A post-shutdown connection is most likely the
                    // stop() nudge; hand it to a connection thread
                    // anyway (it sees EOF and exits) and re-check the
                    // flag at the top of the loop.
                    let conn_id = next_conn;
                    next_conn += 1;
                    let shared = &shared;
                    let stats = &stats;
                    s.spawn(move || {
                        handle_connection(stream, conn_id, system, shared, stats, opts, shutdown)
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        shared.close();
        result
    })
}

/// A background scenario server bound to a local address.
///
/// Owns its system via `Arc` so the serving thread is `'static`; drop
/// the handle only through [`ServerHandle::stop`] to get a clean join.
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the serving thread. The accept loop
    /// blocks in `accept()`, so after setting the flag this dials the
    /// listener once — the throwaway connection wakes the loop, which
    /// re-checks the flag and exits.
    ///
    /// # Errors
    ///
    /// Propagates the server loop's listener error, if any.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        match self.thread.take() {
            Some(t) => t.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves `system` on a background thread.
///
/// # Errors
///
/// Returns the bind error.
pub fn spawn(
    system: Arc<CompiledSystem>,
    addr: impl ToSocketAddrs,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let thread =
        std::thread::spawn(move || serve(&system, listener, &opts, &flag));
    Ok(ServerHandle { addr: local, shutdown, thread: Some(thread) })
}
