//! The sharded scenario server.
//!
//! One loaded [`CompiledSystem`], many concurrent client connections.
//! Work is sharded across a persistent pool of scenario workers — one
//! scalar [`PscpMachine`] per worker, reused across scenarios exactly
//! like a [`SimPool`](crate::pool::SimPool) worker, every machine on
//! the system's one set of selection tables. Every scenario runs
//! through the same scenario loop the in-process pool uses, which is
//! what makes server round-trips byte-identical to
//! `SimPool::run_batch` (the differential suite pins this).
//!
//! Per-connection flow control is credit-based: the handshake grants a
//! window of `W` in-flight scenarios; each completed outcome is
//! followed by a `Credit` frame returning one slot. A client that
//! submits past its window is cut off with a typed `Error` frame. A
//! stalled client (slow to read) blocks only its own connection's
//! writer thread — outcomes for other connections keep flowing, and
//! the server buffers at most `W` outcomes for a stalled peer that
//! keeps to its credits (`2W` for one that submits ahead of the credits
//! it has read: the writer releases a batch's slots before its write).
//!
//! Every hop moves a batch, not a frame: the reader queues the
//! submissions of one socket read under one lock, a worker hands a
//! connection its outcomes of one popped batch with one wakeup, and the
//! writer sends everything queued for its connection in one socket
//! write. The bytes on the wire are those of one write per frame.

use super::wire::{
    self, error_code, feature, ExploreRequest, Frame, OutcomeFrame, OutcomeLatency, ServeGauges,
    Submit, WireError, WireOutcome,
};
use super::ServeOptions;
use crate::compile::CompiledSystem;
use crate::machine::{PscpMachine, ScriptedEnvironment};
use crate::pool::{run_scenario, BatchOptions};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Read timeout on connection sockets, so an idle reader re-checks the
/// shutdown flag. Reads with data pending return immediately; this
/// bounds only how long a *quiet* connection takes to notice shutdown.
const POLL: Duration = Duration::from_millis(5);

/// Jobs a worker pops from the shared queue at once. A client round
/// arrives in one piece, so popping several jobs per lock round trip
/// and handing each connection its outcomes with one wakeup is what
/// keeps a coalesced round cheap; the bound keeps one worker from
/// taking a whole wide round while the others idle.
const POP_BATCH: usize = 8;

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

/// Locks a serve mutex, recovering it if a thread panicked while
/// holding it. Every critical section here is a single `VecDeque` push,
/// pop, swap or drain (or nothing at all, for the flow lock), which
/// leaves no half-done state behind, so a poisoned lock still guards
/// consistent data: recover it instead of failing every later caller.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Moves every staged job into the queue under one lock and wakes
    /// one worker. A worker that leaves jobs behind wakes the next
    /// (see [`pop_batch`](Self::pop_batch)), so a round wider than one
    /// worker's lane bound still fans out across the pool.
    fn push_all(&self, jobs: &mut Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let mut q = lock(&self.queue);
        for job in jobs.drain(..) {
            q.push_back(job);
            pscp_obs::metrics::SERVE_QUEUE_DEPTH.record(q.len() as u64);
        }
        drop(q);
        self.ready.notify_one();
    }

    /// Blocks for the next job, then moves it and up to `max - 1` more
    /// queued jobs into `out` without waiting for more to arrive. Jobs
    /// left queued wake another worker. Returns `false` once the queue is
    /// closed and drained. Pure condvar wait — [`push_all`](Self::push_all)
    /// mutates the queue and [`close`](Self::close) flips the flag under
    /// the same lock, so a wakeup can never be missed and an idle worker
    /// costs nothing until signalled.
    fn pop_batch(&self, max: usize, out: &mut Vec<Job>) -> bool {
        let mut q = lock(&self.queue);
        loop {
            if !q.is_empty() {
                let n = q.len().min(max.max(1));
                out.extend(q.drain(..n));
                let more = !q.is_empty();
                drop(q);
                if more {
                    self.ready.notify_one();
                }
                return true;
            }
            if !self.open.load(Ordering::Acquire) {
                return false;
            }
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Jobs queued right now — the `queue_depth` gauge.
    fn depth(&self) -> usize {
        lock(&self.queue).len()
    }

    fn close(&self) {
        // The flag must flip under the queue lock: a worker that just
        // found the queue empty holds the lock until its wait begins,
        // so this store+notify cannot slip into that gap and strand it.
        let _q = lock(&self.queue);
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
    /// `SERVE_FRAMES_OUT` and `SERVE_WRITES` — a telemetry scrape must
    /// not perturb the counters it reports, or a quiesced server could
    /// never be byte-identical to an in-process snapshot.
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
        self.push_all(std::iter::once(msg));
    }

    /// Queues messages for the writer, in order, under one lock and
    /// with one wakeup.
    fn push_all(&self, msgs: impl IntoIterator<Item = Msg>) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        lock(&self.outbound).extend(msgs);
        self.ready.notify_one();
    }

    /// Blocks until messages are queued, then swaps the whole queue
    /// into the empty `batch`; `false` once the connection is dead and
    /// nothing is left. Pure condvar wait; the queue mutates under the
    /// lock and [`kill`](Self::kill) flips the dead flag under the same
    /// lock, so no wakeup is ever missed.
    fn take_all(&self, batch: &mut VecDeque<Msg>) -> bool {
        let mut q = lock(&self.outbound);
        loop {
            if !q.is_empty() {
                std::mem::swap(&mut *q, batch);
                return true;
            }
            if self.dead.load(Ordering::Acquire) {
                return false;
            }
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Signals the drain loop that an in-flight slot was released.
    fn notify_drained(&self) {
        let _g = lock(&self.flow);
        self.drained.notify_all();
    }

    fn kill(&self) {
        // Flag flips under the outbound lock so a writer between its
        // empty-check and its wait cannot miss the wakeup (same
        // pattern as `Shared::close`).
        {
            let _q = lock(&self.outbound);
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

/// Reads the next frame with short timeouts so shutdown is honoured
/// even on an idle connection; `None` when the connection ends cleanly,
/// at EOF on a frame boundary or because the server is shutting down.
/// The cursor preserves partial frames across timeouts. `before_read`
/// runs whenever the buffered bytes hold no complete frame, just before
/// the socket read that may block — the reader flushes its staged jobs
/// there.
fn next_event(
    stream: &mut TcpStream,
    cursor: &mut wire::FrameCursor,
    max_frame: u32,
    shutdown: &AtomicBool,
    before_read: &mut dyn FnMut(),
) -> Result<Option<Frame>, WireError> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(frame) = cursor.next_frame(max_frame)? {
            return Ok(Some(frame));
        }
        if shutdown.load(Ordering::Acquire) {
            return Ok(None);
        }
        before_read();
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if cursor.buffered() == 0 { Ok(None) } else { Err(WireError::Truncated) };
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
/// (blocking), then up to [`POP_BATCH`]` - 1` more without waiting, and
/// runs them one after another on its one scalar machine. Each
/// connection gets its share of a batch's outcomes, in batch order,
/// with one push and one writer wakeup.
///
/// A timed job (see [`Job::enqueued`]) reports its own latency: it
/// queued from its enqueue to its own start, which includes the jobs
/// of its batch run before it, simulated from its start to its end, and
/// then encoded. An untimed job reads no clock.
fn worker(w: usize, system: &CompiledSystem, shared: &Shared) {
    let _lane = pscp_obs::trace::worker_lane("serve-worker", w);
    let mut machine = PscpMachine::new(system);
    let mut batch: Vec<Job> = Vec::with_capacity(POP_BATCH);
    let mut replies: Vec<(Arc<Conn>, Vec<Msg>)> = Vec::new();
    while shared.pop_batch(POP_BATCH, &mut batch) {
        for job in batch.drain(..) {
            let start = job.enqueued.map(|_| Instant::now());
            let outcome = run_scenario(w, &mut machine, job.env, &job.limits, &|_, _, _| false);
            let sim_end = start.map(|_| Instant::now());
            let builder = OutcomeFrame::begin(job.seq, &WireOutcome::from_batch(&outcome));
            let enc_end = start.map(|_| Instant::now());
            let queue_ns = elapsed_ns(job.enqueued, start);
            let sim_ns = elapsed_ns(start, sim_end);
            let encode_ns = elapsed_ns(sim_end, enc_end);
            if pscp_obs::metrics_enabled() {
                pscp_obs::metrics::SERVE_QUEUE_NS.record(w, queue_ns);
                pscp_obs::metrics::SERVE_SIM_NS.record(w, sim_ns);
                pscp_obs::metrics::SERVE_ENCODE_NS.record(encode_ns);
            }
            let latency =
                job.conn.latency.then_some(OutcomeLatency { queue_ns, sim_ns, encode_ns });
            let msg = Msg::Outcome(builder.finish(latency));
            match replies.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &job.conn)) {
                Some((_, msgs)) => msgs.push(msg),
                None => replies.push((job.conn, vec![msg])),
            }
        }
        for (conn, msgs) in replies.drain(..) {
            conn.push_all(msgs);
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
///
/// Each wakeup takes every queued message at once and sends them with
/// one `write_all`: each outcome followed by its `Credit { n: 1 }`,
/// exactly the bytes per-message writes would produce. An `Error` or
/// `Close` ends the batch and the connection; anything queued behind it
/// is dropped.
fn writer(conn: &Conn, stream: &mut TcpStream) {
    let credit = wire::encode_frame(&Frame::Credit { n: 1 });
    let mut batch = VecDeque::new();
    let mut buf = Vec::new();
    let mut open = true;
    while open && conn.take_all(&mut batch) {
        buf.clear();
        let (mut frames, mut released) = (0u64, 0u32);
        let mut fatal = false;
        for msg in batch.drain(..) {
            match msg {
                Msg::Outcome(bytes) => {
                    buf.extend_from_slice(&bytes);
                    buf.extend_from_slice(&credit);
                    frames += 2;
                    released += 1;
                }
                Msg::Frame(bytes) => {
                    buf.extend_from_slice(&bytes);
                    frames += 1;
                }
                // Deliberately NOT counted — see Msg::Stats.
                Msg::Stats(bytes) => buf.extend_from_slice(&bytes),
                Msg::Error { code, message } => {
                    buf.extend_from_slice(&wire::encode_frame(&Frame::Error { code, message }));
                    frames += 1;
                    fatal = true;
                    open = false;
                    break;
                }
                Msg::Close => {
                    open = false;
                    break;
                }
            }
        }
        // Release the slots BEFORE their credits hit the wire: the
        // client may react to a credit instantly, and its next submit
        // must not race a stale count into a false violation.
        if released > 0 {
            conn.inflight.fetch_sub(released, Ordering::AcqRel);
            conn.notify_drained();
        }
        // Counted before the write, so a client that has read these
        // bytes always sees them in a later scrape. A write carrying
        // only a Stats reply is not counted, like the reply itself.
        if frames > 0 {
            pscp_obs::metrics::SERVE_FRAMES_OUT.add(conn.id, frames);
            pscp_obs::metrics::SERVE_WRITES.add(conn.id, 1);
        }
        let written = buf.is_empty() || stream.write_all(&buf).is_ok();
        if fatal || !written {
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
    let hello = next_event(&mut stream, &mut cursor, opts.max_frame, shutdown, &mut || {});
    let (window, granted) = match hello {
        Ok(Some(Frame::Hello { window, fingerprint: fp, features })) => {
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
        Ok(Some(_)) => {
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
        Ok(None) => return,
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

    // Submission loop. `Submit` jobs decoded from bytes already
    // buffered are staged and enter the shard queue together, under one
    // lock: just before the reader would block on the socket, before
    // any other frame is handled, and on exit.
    let mut staged: Vec<Job> = Vec::new();
    loop {
        let event = next_event(&mut stream, &mut cursor, opts.max_frame, shutdown, &mut || {
            shared.push_all(&mut staged)
        });
        if !matches!(event, Ok(Some(Frame::Submit(_)))) {
            shared.push_all(&mut staged);
        }
        match event {
            Ok(Some(Frame::Submit(Submit { seq, limits, script }))) => {
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
                staged.push(Job {
                    conn: Arc::clone(&conn),
                    seq,
                    env: ScriptedEnvironment::new(script),
                    limits,
                    enqueued: (pscp_obs::metrics_enabled() || conn.latency)
                        .then(Instant::now),
                });
            }
            Ok(Some(Frame::Compile { chart, actions })) => {
                pscp_obs::metrics::SERVE_FRAMES_IN.add(conn_id, 1);
                let reply = handle_compile(system, &chart, &actions);
                conn.push(Msg::Frame(wire::encode_frame(&reply)));
            }
            Ok(Some(Frame::Explore(req))) => {
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
            Ok(Some(Frame::StatsRequest)) => {
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
                };
                conn.push(Msg::Stats(wire::encode_frame(&Frame::Stats { gauges, snapshot })));
            }
            Ok(Some(_)) => {
                pscp_obs::metrics::SERVE_ERRORS.inc();
                conn.push(Msg::Error {
                    code: error_code::UNEXPECTED_FRAME,
                    message: "only Submit, Compile, StatsRequest and Explore frames are valid \
                              after the handshake"
                        .into(),
                });
                break;
            }
            Ok(None) => break,
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

    shared.push_all(&mut staged);

    // Drain: let queued scenarios finish and their outcomes flush, then
    // stop the writer. A dead connection (write failure, protocol
    // error) skips straight to the join. The writer signals `drained`
    // on every released slot, so completion wakes this immediately; the
    // timeout is only a backstop for the condvar-less external
    // shutdown flag.
    {
        let mut g = lock(&conn.flow);
        while conn.inflight.load(Ordering::Acquire) > 0
            && !conn.dead.load(Ordering::Acquire)
            && !shutdown.load(Ordering::Acquire)
        {
            let (guard, _) = conn
                .drained
                .wait_timeout(g, DRAIN_BACKSTOP)
                .unwrap_or_else(PoisonError::into_inner);
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
    std::thread::scope(|s| {
        for w in 0..threads {
            let shared = &shared;
            s.spawn(move || worker(w, system, shared));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn job(conn: &Arc<Conn>, seq: u64) -> Job {
        Job {
            conn: Arc::clone(conn),
            seq,
            env: ScriptedEnvironment::new(Vec::<Vec<String>>::new()),
            limits: BatchOptions::default(),
            enqueued: None,
        }
    }

    #[test]
    fn a_panic_under_the_queue_lock_does_not_poison_the_queue() {
        let shared = Shared::new();
        let conn = Arc::new(Conn::new(0, false));
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _q = shared.queue.lock().unwrap();
                panic!("poison the shard queue");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(shared.queue.is_poisoned());

        let mut staged: Vec<Job> = (0..3).map(|seq| job(&conn, seq)).collect();
        shared.push_all(&mut staged);
        assert!(staged.is_empty());
        assert_eq!(shared.depth(), 3);
        let mut batch = Vec::new();
        assert!(shared.pop_batch(2, &mut batch));
        assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), [0, 1]);
        batch.clear();
        assert!(shared.pop_batch(2, &mut batch));
        assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), [2]);
        shared.close();
        assert!(!shared.pop_batch(2, &mut batch));
    }
}
