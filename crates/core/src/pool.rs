//! Batched multi-scenario co-simulation.
//!
//! The paper's co-simulation (Fig. 7) exercises one scenario at a time;
//! design-space exploration and regression sweeps want *many* — the
//! same controller driven by different command streams, fault
//! injections, or plant parameters. [`SimPool`] runs N independent
//! scenarios of one [`CompiledSystem`] across a worker pool, each
//! worker reusing a single [`PscpMachine`] via
//! [`PscpMachine::reset`](crate::machine::PscpMachine::reset) instead
//! of reconstructing it per scenario, and returns the per-scenario
//! [`CycleReport`] streams in submission order.
//!
//! A stream is a [`CycleLog`]: it reads as one report per cycle, but a
//! run of idle cycles is stored as one report and a count, so a
//! scenario that idles for millions of cycles between firings keeps
//! memory proportional to its firings, and the reports' lists share a
//! few buffers per log instead of owning a `Vec` each. A log is also
//! what an outcome carries on the wire, in a layout of one report per
//! cycle (its `Wire` impl below). The scenario loop builds no report: it
//! logs the machine's own and hands it to `done`; a quiet cycle, whose
//! report the machine left idle, only bumps the log's idle run count.
//!
//! Scenarios are fully independent (separate machine state, separate
//! environment), so the batch output is byte-identical for any worker
//! count — `PSCP_THREADS=1` and `PSCP_THREADS=16` produce the same
//! bytes, only wall-clock differs. Every parallel loop of this module
//! runs on one worker loop, `stream_chunks`: scoped workers claim
//! fixed-width chunks of jobs in order, and the calling thread takes
//! each chunk's results in job order. Batches ([`SimPool::run_batch_until`])
//! collect every result; state exploration ([`crate::explore()`])
//! streams them with a bounded lookahead, one scalar machine per
//! worker. The loop joins every worker before it returns, so a worker
//! thread has exited, and handed its malloc arena back, before the next
//! batch spawns its own; peak RSS then stays flat over many batches.
//!
//! A batch worker claims several scenarios per chunk, so workers take
//! the stream lock a few times per batch, not once per scenario. Every
//! machine runs on the selection tables compiled into the system, so a
//! batch builds none. Pool workers and the scenario server's shard
//! workers run every scenario through one loop, `run_scenario`.

use crate::compile::CompiledSystem;
use crate::machine::{
    CycleReport, Environment, MachineError, MachineStats, PscpMachine, IDLE_REPORT,
};
use crate::serve::wire::{self, Dec, Enc, Wire, WireError};
use pscp_statechart::{EventId, TransitionId};
use std::sync::{Condvar, Mutex, PoisonError};

/// Parses a `PSCP_THREADS`-style value; `None`/unparsable/zero fall
/// back to the machine's available parallelism.
pub fn threads_from(var: Option<&str>) -> usize {
    match var.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// The worker-pool width configured for this process: the
/// `PSCP_THREADS` environment variable when set to a positive integer,
/// otherwise the available hardware parallelism.
pub fn configured_threads() -> usize {
    threads_from(std::env::var("PSCP_THREADS").ok().as_deref())
}

/// Run limits for one scenario of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// Stop once the simulated clock reaches this many cycles.
    pub deadline: u64,
    /// Stop after this many configuration cycles.
    pub max_steps: u64,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { deadline: u64::MAX, max_steps: 1_000_000 }
    }
}

/// A scenario's per-configuration-cycle reports, run-length encoded
/// and stored flat.
///
/// It reads like a `Vec<CycleReport>` — one report per cycle in
/// execution order through [`len`](CycleLog::len),
/// [`iter`](CycleLog::iter) and [`report`](CycleLog::report) — but
/// stores a run of equal idle reports (nothing fired, raised or
/// interrupted, same cycle length) as one entry and a count. Reports of
/// cycles that fired are stored in full and never merged. A
/// co-simulation that idles on almost every cycle then keeps a few
/// bytes per idle stretch instead of a report per cycle.
///
/// A report's lists are not kept as a `Vec` each: [`push`](CycleLog::push)
/// appends them to four buffers the whole log shares, and a report
/// reads back as a [`CycleReportRef`] whose lists borrow those buffers.
/// A log owns five allocations however many of its cycles fired, not
/// three more per fired cycle, so a batch's outcomes hold a few blocks
/// per scenario instead of hundreds of thousands of small ones spread
/// over the pool workers' malloc arenas (see DESIGN.md, "Quiescent
/// cycles").
///
/// Runs are merged by emptiness checks and the cycle length, never by
/// comparing whole reports: `==` on an empty `Vec` is far slower than
/// those checks on the hot path (see DESIGN.md, "Quiescent cycles").
/// The merge rule is deterministic, so equal report sequences have
/// equal runs and buffers, and the derived equality is sequence
/// equality.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CycleLog {
    /// The runs in execution order; no two adjacent runs hold equal
    /// idle reports.
    runs: Vec<Run>,
    /// The stored reports' lists, one report after another: run `i`'s
    /// end at `runs[i].ends` and start where run `i - 1`'s end.
    fired: Vec<TransitionId>,
    transition_cycles: Vec<u64>,
    assigned_tep: Vec<u8>,
    raised: Vec<EventId>,
    /// Total cycles: the sum of the counts.
    len: usize,
}

/// `count` consecutive cycles of a [`CycleLog`] with one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    cycle_length: u64,
    interrupt_latency: Option<u64>,
    /// Where the report's lists end in the log's buffers.
    ends: Ends,
    /// More than 1 only for an idle report.
    count: usize,
}

/// Positions in a [`CycleLog`]'s four list buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ends {
    fired: u32,
    transition_cycles: u32,
    assigned_tep: u32,
    raised: u32,
}

impl CycleLog {
    /// An empty log.
    pub fn new() -> Self {
        CycleLog::default()
    }

    /// Appends one cycle's report.
    ///
    /// # Panics
    ///
    /// Panics when one of the log's list buffers would hold more than
    /// `u32::MAX` entries.
    pub fn push(&mut self, report: &CycleReport) {
        if report.is_idle() && self.extend_idle_run(report.cycle_length) {
            return;
        }
        self.fired.extend_from_slice(&report.fired);
        self.transition_cycles.extend_from_slice(&report.transition_cycles);
        self.assigned_tep.extend_from_slice(&report.assigned_tep);
        self.raised.extend_from_slice(&report.raised);
        let ends = Ends {
            fired: end(&self.fired),
            transition_cycles: end(&self.transition_cycles),
            assigned_tep: end(&self.assigned_tep),
            raised: end(&self.raised),
        };
        self.runs.push(Run {
            cycle_length: report.cycle_length,
            interrupt_latency: report.interrupt_latency,
            ends,
            count: 1,
        });
        self.len += 1;
    }

    /// Appends one cycle whose report is [`IDLE_REPORT`], as
    /// `push(&IDLE_REPORT)` would, without reading a report: after a
    /// run of such cycles it only bumps the run's count.
    pub(crate) fn push_idle(&mut self) {
        if !self.extend_idle_run(IDLE_REPORT.cycle_length) {
            self.push(&IDLE_REPORT);
        }
    }

    /// Counts one more cycle into the last run if that run is idle with
    /// `cycle_length`; returns whether it did.
    fn extend_idle_run(&mut self, cycle_length: u64) -> bool {
        match self.runs.len().checked_sub(1) {
            Some(last) if self.run_is_idle(last) && self.runs[last].cycle_length == cycle_length => {
                self.runs[last].count += 1;
                self.len += 1;
                true
            }
            _ => false,
        }
    }

    /// Whether run `i`'s report is idle: its lists are empty and it
    /// holds no interrupt latency.
    fn run_is_idle(&self, i: usize) -> bool {
        self.runs[i].ends == self.starts(i) && self.runs[i].interrupt_latency.is_none()
    }

    /// Where run `i`'s lists start: where run `i - 1`'s end.
    fn starts(&self, i: usize) -> Ends {
        i.checked_sub(1).map_or(Ends::default(), |p| self.runs[p].ends)
    }

    /// Run `i`'s report.
    fn run_report(&self, i: usize) -> CycleReportRef<'_> {
        let (s, run) = (self.starts(i), &self.runs[i]);
        let e = run.ends;
        CycleReportRef {
            fired: LogSlice(&self.fired[s.fired as usize..e.fired as usize]),
            transition_cycles: LogSlice(
                &self.transition_cycles[s.transition_cycles as usize..e.transition_cycles as usize],
            ),
            assigned_tep: LogSlice(
                &self.assigned_tep[s.assigned_tep as usize..e.assigned_tep as usize],
            ),
            cycle_length: run.cycle_length,
            raised: LogSlice(&self.raised[s.raised as usize..e.raised as usize]),
            interrupt_latency: run.interrupt_latency,
        }
    }

    /// Cycles logged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no cycle is logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The reports, one per cycle, in execution order.
    pub fn iter(&self) -> CycleLogIter<'_> {
        CycleLogIter { log: self, next_run: 0, current: None, repeat: 0, left: self.len }
    }

    /// The report of cycle `i`, found by a walk over the runs.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not below [`len`](CycleLog::len), as indexing
    /// a `Vec` past its end does.
    pub fn report(&self, i: usize) -> CycleReportRef<'_> {
        assert!(i < self.len, "cycle {i} out of range for a log of {} cycles", self.len);
        let mut start = 0;
        for (r, run) in self.runs.iter().enumerate() {
            if i < start + run.count {
                return self.run_report(r);
            }
            start += run.count;
        }
        unreachable!("the run counts sum to the length")
    }
}

/// A list buffer's length as a position.
fn end<T>(buffer: &[T]) -> u32 {
    u32::try_from(buffer.len()).expect("a cycle log's list buffer holds at most u32::MAX entries")
}

impl std::fmt::Debug for CycleLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<Vec<CycleReport>> for CycleLog {
    fn eq(&self, other: &Vec<CycleReport>) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(a, b)| a == *b)
    }
}

impl<'a> IntoIterator for &'a CycleLog {
    type Item = CycleReportRef<'a>;
    type IntoIter = CycleLogIter<'a>;

    fn into_iter(self) -> CycleLogIter<'a> {
        self.iter()
    }
}

/// The fewest bytes one cycle's report encodes to: the shared list
/// count, the cycle length, the raised-event count and the latency tag.
const REPORT_MIN_BYTES: usize =
    u32::MIN_BYTES + u64::MIN_BYTES + <Vec<EventId>>::MIN_BYTES + <Option<u64>>::MIN_BYTES;

/// What a buffer grown by pushes requests in all, per element it ends
/// with: each request at least doubles the capacity, and the last is at
/// most twice the length.
const GROWTH: usize = 4;

/// A `u32` cycle count, then each cycle's report in turn: one count for
/// the three per-transition lists, those lists, the cycle length, the
/// raised events and the interrupt latency. Decoding pushes each report
/// in turn from one scratch report, so a decoded log holds the runs
/// that pushing the same reports builds.
impl Wire for CycleLog {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    /// A report's fixed bytes back its run; a list entry's bytes back
    /// its entry in the log's buffer and in the scratch report, whose
    /// lists also grow by pushes.
    const HEAP_PER_BYTE: usize = wire::most(&[
        (GROWTH * size_of::<Run>()).div_ceil(REPORT_MIN_BYTES),
        2 * GROWTH
            * wire::most(&[
                wire::per_element::<TransitionId>(),
                wire::per_element::<u64>(),
                wire::per_element::<u8>(),
                wire::per_element::<EventId>(),
            ]),
    ]);
    fn enc(&self, e: &mut Enc) {
        e.buf.reserve(u32::MIN_BYTES + REPORT_MIN_BYTES * self.len);
        e.u32(self.len as u32);
        for r in self {
            e.u32(r.fired.len() as u32);
            TransitionId::enc_slice(&r.fired, e);
            u64::enc_slice(&r.transition_cycles, e);
            u8::enc_slice(&r.assigned_tep, e);
            r.cycle_length.enc(e);
            e.seq(&r.raised);
            r.interrupt_latency.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let mut log = CycleLog::new();
        let mut r = CycleReport::default();
        for _ in 0..d.count(REPORT_MIN_BYTES)? {
            let n = d.count(<(TransitionId, u64, u8)>::MIN_BYTES)?;
            d.refill(&mut r.fired, n)?;
            d.refill(&mut r.transition_cycles, n)?;
            d.refill(&mut r.assigned_tep, n)?;
            r.cycle_length = Wire::dec(d)?;
            let n = d.count(EventId::MIN_BYTES)?;
            d.refill(&mut r.raised, n)?;
            r.interrupt_latency = Wire::dec(d)?;
            log.push(&r);
        }
        Ok(log)
    }
}

/// A [`CycleReport`] as a [`CycleLog`] stores it: the same fields, with
/// the lists borrowed from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleReportRef<'a> {
    /// Transitions that fired, in execution order.
    pub fired: LogSlice<'a, TransitionId>,
    /// Measured execution cycles per fired transition (same order).
    pub transition_cycles: LogSlice<'a, u64>,
    /// Which TEP each transition ran on (same order).
    pub assigned_tep: LogSlice<'a, u8>,
    /// Length of this configuration cycle in clock cycles.
    pub cycle_length: u64,
    /// Events raised by routines (visible next cycle).
    pub raised: LogSlice<'a, EventId>,
    /// Cycles from cycle start until every interrupt-priority transition
    /// completed (`None` when no interrupt fired).
    pub interrupt_latency: Option<u64>,
}

impl CycleReportRef<'_> {
    /// The report as an owned [`CycleReport`].
    pub fn to_report(&self) -> CycleReport {
        CycleReport {
            fired: self.fired.to_vec(),
            transition_cycles: self.transition_cycles.to_vec(),
            assigned_tep: self.assigned_tep.to_vec(),
            cycle_length: self.cycle_length,
            raised: self.raised.to_vec(),
            interrupt_latency: self.interrupt_latency,
        }
    }
}

impl PartialEq<CycleReport> for CycleReportRef<'_> {
    fn eq(&self, r: &CycleReport) -> bool {
        self.cycle_length == r.cycle_length
            && self.interrupt_latency == r.interrupt_latency
            && *self.fired == r.fired[..]
            && *self.transition_cycles == r.transition_cycles[..]
            && *self.assigned_tep == r.assigned_tep[..]
            && *self.raised == r.raised[..]
    }
}

/// One list of a [`CycleReportRef`]: a slice of its log's buffer. It
/// derefs to the slice, and it and a reference to it iterate the
/// slice's elements by reference, as `&Vec` does.
pub struct LogSlice<'a, T>(&'a [T]);

impl<T> Clone for LogSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for LogSlice<'_, T> {}

impl<T> std::ops::Deref for LogSlice<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.0
    }
}

impl<'a, T> IntoIterator for LogSlice<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.0.iter()
    }
}

impl<'a, T> IntoIterator for &LogSlice<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.0.iter()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for LogSlice<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: PartialEq> PartialEq for LogSlice<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<T: Eq> Eq for LogSlice<'_, T> {}

/// Iterator over a [`CycleLog`]'s reports, one per cycle.
#[derive(Debug, Clone)]
pub struct CycleLogIter<'a> {
    log: &'a CycleLog,
    /// The run after the one being repeated.
    next_run: usize,
    /// The run being repeated, and how many more times.
    current: Option<CycleReportRef<'a>>,
    repeat: usize,
    /// Reports still to yield.
    left: usize,
}

impl<'a> Iterator for CycleLogIter<'a> {
    type Item = CycleReportRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<CycleReportRef<'a>> {
        if self.repeat == 0 {
            let run = self.log.runs.get(self.next_run)?;
            self.current = Some(self.log.run_report(self.next_run));
            self.repeat = run.count;
            self.next_run += 1;
        }
        self.repeat -= 1;
        self.left -= 1;
        self.current
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for CycleLogIter<'_> {}

/// The outcome of one scenario: everything the simulation produced plus
/// the environment handed back so callers can read its recorded
/// outputs (port writes, fault logs, …).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome<E> {
    /// Per-configuration-cycle reports, in execution order.
    pub reports: CycleLog,
    /// The machine statistics at scenario end.
    pub stats: MachineStats,
    /// Final simulated clock.
    pub clock_cycles: u64,
    /// The scenario's environment, returned by move.
    pub env: E,
    /// The fault that ended the scenario early, if any (the reports up
    /// to the fault are kept).
    pub error: Option<MachineError>,
}

/// A batch driver running independent scenarios of one compiled system
/// across a configurable worker pool.
#[derive(Debug, Clone)]
pub struct SimPool {
    threads: usize,
}

impl SimPool {
    /// A pool sized by `PSCP_THREADS` (default: available parallelism)
    /// that runs each worker's scenarios on one scalar machine.
    pub fn new() -> Self {
        SimPool::with_threads(configured_threads())
    }

    /// A pool with an explicit worker count (minimum 1) that runs each
    /// worker's scenarios on one scalar machine.
    pub fn with_threads(threads: usize) -> Self {
        SimPool { threads: threads.max(1) }
    }

    /// Returns the pool unchanged: `width` is ignored, and every worker
    /// runs its scenarios on one scalar machine. Kept only because the
    /// benchmark package still calls it.
    pub fn with_gang(self, _width: usize) -> Self {
        self
    }

    /// The worker count this pool dispatches on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every scenario to its [`BatchOptions`] limits. Results come
    /// back in submission order regardless of worker interleaving.
    pub fn run_batch<E>(
        &self,
        system: &CompiledSystem,
        envs: Vec<E>,
        limits: &BatchOptions,
    ) -> Vec<BatchOutcome<E>>
    where
        E: Environment + Send,
    {
        self.run_batch_until(system, envs, limits, |_, _, _| false)
    }

    /// Like [`SimPool::run_batch`], but also stops a scenario once
    /// `done` returns true for the cycle just executed (the final
    /// report is kept). `done` must be a pure function of its inputs
    /// for the batch to stay deterministic across worker counts.
    pub fn run_batch_until<E, F>(
        &self,
        system: &CompiledSystem,
        envs: Vec<E>,
        limits: &BatchOptions,
        done: F,
    ) -> Vec<BatchOutcome<E>>
    where
        E: Environment + Send,
        F: Fn(&PscpMachine<'_>, &E, &CycleReport) -> bool + Sync,
    {
        if envs.is_empty() {
            return Vec::new();
        }
        // A worker claims a few chunks of the batch, enough to balance
        // the workers without a lock round trip per scenario. Outcomes
        // do not depend on the chunking.
        let width = envs.len().div_ceil(self.threads * CLAIMS_PER_WORKER);
        let mut out = Vec::with_capacity(envs.len());
        stream_chunks(
            envs.into_iter(),
            width,
            self.threads,
            COLLECT_AHEAD,
            |w| (w, PscpMachine::new(system)),
            |(w, machine), chunk| {
                chunk.into_iter().map(|env| run_scenario(*w, machine, env, limits, &done)).collect()
            },
            |outcomes: Vec<_>| out.extend(outcomes),
        );
        out
    }
}

/// Chunks per worker a batch is cut into.
const CLAIMS_PER_WORKER: usize = 4;

/// The lookahead of a run whose consumer only collects: every result is
/// kept anyway, so workers never wait on the consumer and a slow job
/// stalls no other.
const COLLECT_AHEAD: usize = usize::MAX;

/// A [`stream_chunks`] run holds its lock only to claim jobs, never
/// while `expand` or `consume` runs, so no panic there can poison it.
const UNPOISONED: &str = "the stream lock is never held across user code";

/// Shared state of one [`stream_chunks`] run.
struct Stream<I, R> {
    /// Jobs not yet claimed, in job order.
    jobs: I,
    /// Next chunk a worker claims.
    next: usize,
    /// Chunks the consumer has taken.
    taken: usize,
    /// Finished chunks waiting for the consumer, by chunk index.
    done: Vec<Option<R>>,
    /// Set when either side panics, so the other stops waiting.
    stopped: bool,
}

/// Stops a [`stream_chunks`] run when dropped during a panic: the
/// other side wakes and unwinds instead of waiting forever.
struct StopOnPanic<'a, I, R>(&'a (Mutex<Stream<I, R>>, Condvar));

impl<I, R> Drop for StopOnPanic<'_, I, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let (lock, cv) = self.0;
            lock.lock().unwrap_or_else(PoisonError::into_inner).stopped = true;
            cv.notify_all();
        }
    }
}

/// The pool's one worker loop. Runs `expand` over consecutive
/// `width`-job chunks of `jobs` on up to `threads` scoped workers and
/// feeds each chunk's result to `consume` on the calling thread, in
/// chunk order, while the workers carry on. Each job is taken exactly once, by the
/// worker that claims its chunk, so jobs may be owned values. Workers
/// stay at most `ahead` chunks each ahead of the consumer. Worker `w`
/// builds its own state with `make_worker(w)`. A panic on either side
/// stops the other and reaches the caller. With one worker (or one
/// chunk) nothing is spawned and each chunk is consumed as soon as it
/// is expanded.
pub(crate) fn stream_chunks<J, R, W>(
    mut jobs: impl ExactSizeIterator<Item = J> + Send,
    width: usize,
    threads: usize,
    ahead: usize,
    make_worker: impl Fn(usize) -> W + Sync,
    expand: impl Fn(&mut W, Vec<J>) -> R + Sync,
    mut consume: impl FnMut(R),
) where
    J: Send,
    R: Send,
{
    let chunks = jobs.len().div_ceil(width);
    let threads = threads.min(chunks);
    if threads <= 1 {
        let mut worker = make_worker(0);
        for _ in 0..chunks {
            let chunk = jobs.by_ref().take(width).collect();
            consume(expand(&mut worker, chunk));
        }
        return;
    }
    let ahead = ahead.saturating_mul(threads);
    let shared = (
        Mutex::new(Stream {
            jobs,
            next: 0,
            taken: 0,
            done: (0..chunks).map(|_| None).collect(),
            stopped: false,
        }),
        Condvar::new(),
    );
    let (lock, cv) = &shared;
    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(threads);
        for w in 0..threads {
            let shared = &shared;
            let (make_worker, expand) = (&make_worker, &expand);
            workers.push(s.spawn(move || {
                let _lane = pscp_obs::trace::worker_lane("sim-worker", w);
                let _stop = StopOnPanic(shared);
                let mut worker = make_worker(w);
                loop {
                    let (i, chunk) = {
                        let mut st = lock.lock().expect(UNPOISONED);
                        while !st.stopped
                            && st.next < chunks
                            && st.next >= st.taken.saturating_add(ahead)
                        {
                            st = cv.wait(st).expect(UNPOISONED);
                        }
                        if st.stopped || st.next >= chunks {
                            pscp_obs::metrics::POOL_IDLE_POLLS.add(w, 1);
                            break;
                        }
                        st.next += 1;
                        (st.next - 1, st.jobs.by_ref().take(width).collect())
                    };
                    let out = expand(&mut worker, chunk);
                    lock.lock().expect(UNPOISONED).done[i] = Some(out);
                    cv.notify_all();
                }
            }));
        }
        let _stop = StopOnPanic(&shared);
        for i in 0..chunks {
            let out = {
                let mut st = lock.lock().expect(UNPOISONED);
                loop {
                    if let Some(out) = st.done[i].take() {
                        st.taken = i + 1;
                        break out;
                    }
                    assert!(!st.stopped, "an expansion worker panicked");
                    st = cv.wait(st).expect(UNPOISONED);
                }
            };
            cv.notify_all();
            consume(out);
        }
        // Join each worker before the scope ends: the scope itself
        // returns once the workers' closures finish, before the threads
        // exit and hand back their malloc arenas, so the next batch's
        // workers would open new ones and peak RSS would creep with the
        // batch count.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

impl Default for SimPool {
    fn default() -> Self {
        SimPool::new()
    }
}

/// Runs one scenario on a (dirty) machine after resetting it: the one
/// scenario loop, shared by [`SimPool`] workers and the scenario
/// server's shard workers ([`crate::serve`]), which is what keeps
/// served outcomes byte-identical to an in-process batch.
pub(crate) fn run_scenario<E, F>(
    worker: usize,
    machine: &mut PscpMachine<'_>,
    mut env: E,
    limits: &BatchOptions,
    done: &F,
) -> BatchOutcome<E>
where
    E: Environment,
    F: Fn(&PscpMachine<'_>, &E, &CycleReport) -> bool,
{
    // Scenario spans respect PSCP_OBS_SAMPLE: with a period of N each
    // worker thread records every Nth scenario it runs.
    thread_local! {
        static SCENARIO_SEQ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    let seq = SCENARIO_SEQ.with(|c| c.replace(c.get().wrapping_add(1)));
    let _span = pscp_obs::trace::span_sampled("scenario", seq);
    machine.reset();
    let mut reports = CycleLog::new();
    let mut error = None;
    while machine.now() < limits.deadline && (reports.len() as u64) < limits.max_steps {
        // The machine leaves each cycle's report in place. A quiet
        // cycle's is idle, so the log only bumps a count.
        match machine.step_in_place(&mut env) {
            Ok(true) => reports.push_idle(),
            Ok(false) => reports.push(machine.report()),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
        if done(machine, &env, machine.report()) {
            break;
        }
    }
    pscp_obs::metrics::POOL_SCENARIOS.add(worker, 1);
    pscp_obs::metrics::POOL_STEPS.add(worker, reports.len() as u64);
    BatchOutcome {
        reports,
        stats: machine.stats().clone(),
        clock_cycles: machine.now(),
        env,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PscpArch;
    use crate::compile::compile_system;
    use crate::machine::ScriptedEnvironment;
    use pscp_statechart::{Chart, ChartBuilder, StateKind};
    use pscp_tep::codegen::CodegenOptions;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Streaming lookahead of the `stream_chunks` tests, in chunks per
    /// worker.
    const AHEAD: usize = 4;

    fn counter_chart() -> Chart {
        let mut b = ChartBuilder::new("counter");
        b.event("TICK", Some(400));
        b.condition("OVER", false);
        b.state("Top", StateKind::Or).contains(["Run", "Stop"]).default_child("Run");
        b.state("Run", StateKind::Basic)
            .transition("Run", "TICK [not OVER]/Bump(5)")
            .transition("Stop", "TICK [OVER]");
        b.basic("Stop");
        b.build().unwrap()
    }

    const COUNTER_ACTIONS: &str = r#"
        int:16 total;
        void Bump(int:16 n) {
            total = total + n;
            OVER = total >= 20;
        }
    "#;

    fn system() -> crate::compile::CompiledSystem {
        compile_system(
            &counter_chart(),
            COUNTER_ACTIONS,
            &PscpArch::dual_md16(true),
            &CodegenOptions::default(),
        )
        .unwrap()
    }

    fn scenarios(n: usize) -> Vec<ScriptedEnvironment> {
        (0..n)
            .map(|i| {
                // Scenario i ticks on a different sparse cadence.
                let script: Vec<Vec<&str>> = (0..12)
                    .map(|k| if k % (1 + i % 3) == 0 { vec!["TICK"] } else { vec![] })
                    .collect();
                ScriptedEnvironment::new(script)
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_reference() {
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 12 };
        // Reference: a fresh machine per scenario, no pool.
        let reference: Vec<_> = scenarios(7)
            .into_iter()
            .map(|mut env| {
                let mut m = PscpMachine::new(&sys);
                let mut reports = Vec::new();
                for _ in 0..12 {
                    reports.push(m.step(&mut env).unwrap());
                }
                (reports, m.stats().clone(), m.now())
            })
            .collect();
        for threads in [1, 2, 4] {
            let got =
                SimPool::with_threads(threads).run_batch(&sys, scenarios(7), &limits);
            assert_eq!(got.len(), reference.len());
            for (out, (reports, stats, clock)) in got.iter().zip(&reference) {
                assert_eq!(&out.reports, reports, "threads={threads}");
                assert_eq!(&out.stats, stats, "threads={threads}");
                assert_eq!(&out.clock_cycles, clock, "threads={threads}");
                assert!(out.error.is_none());
            }
        }
    }

    #[test]
    fn scalar_chunks_match_fresh_machines() {
        // Batches of 1, k-1, k and k+1 scenarios, with k the batch size
        // at which a scalar chunk grows past one scenario, at 1, 2 and 3
        // workers. Each scenario ticks on its first and second-to-last
        // rows and idles between, and `done` stops it halfway through
        // that quiet stretch.
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 64 };
        let envs = |n: usize| -> Vec<ScriptedEnvironment> {
            (0..n)
                .map(|i| {
                    let len = 12 + i % 5;
                    let script: Vec<Vec<&str>> = (0..len)
                        .map(|r| if r == 0 || r == len - 2 { vec!["TICK"] } else { vec![] })
                        .collect();
                    ScriptedEnvironment::new(script)
                })
                .collect()
        };
        let done = |m: &PscpMachine<'_>, env: &ScriptedEnvironment, _: &CycleReport| {
            m.stats().config_cycles as usize == env.script().len() / 2
        };
        for threads in [1, 2, 3] {
            let k = threads * CLAIMS_PER_WORKER;
            for n in [1, k - 1, k, k + 1] {
                let reference = fresh_runs(&sys, envs(n), &limits, done);
                let pool = SimPool::with_threads(threads);
                let got = pool.run_batch_until(&sys, envs(n), &limits, done);
                assert_eq!(got.len(), n, "threads={threads} n={n}");
                for (i, (o, want)) in got.iter().zip(&reference).enumerate() {
                    let at = format!("threads={threads} n={n} scenario {i}");
                    assert_eq!(o.reports.len(), want.env.script().len() / 2, "{at}: cut by done");
                    assert_eq!(o.reports, want.reports, "{at}");
                    assert_eq!(o.stats, want.stats, "{at}");
                    assert_eq!(o.clock_cycles, want.clock_cycles, "{at}");
                    assert_eq!(o.env.port_writes, want.env.port_writes, "{at}");
                    assert!(o.error.is_none() && want.error.is_none(), "{at}");
                }
            }
        }
    }

    #[test]
    fn done_predicate_stops_scenarios() {
        let sys = system();
        let stop_state = sys.chart.state_by_name("Stop").unwrap();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 1_000 };
        let envs: Vec<_> =
            (0..4).map(|_| ScriptedEnvironment::new(vec![vec!["TICK"]; 1_000])).collect();
        let out = SimPool::with_threads(2).run_batch_until(
            &sys,
            envs,
            &limits,
            |m, _, _| m.executor().configuration().is_active(stop_state),
        );
        for o in &out {
            // 4 bumps of 5 reach 20, the 5th tick sees OVER and stops.
            assert_eq!(o.reports.len(), 5);
            assert_eq!(o.stats.transitions, 5);
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let sys = system();
        let out = SimPool::with_threads(4)
            .run_batch::<ScriptedEnvironment>(&sys, Vec::new(), &BatchOptions::default());
        assert!(out.is_empty());
    }

    #[test]
    fn empty_batch_with_predicate_is_empty() {
        // Regression pin: the `run_batch_until` early return must fire
        // before any machine is constructed or the predicate consulted.
        let sys = system();
        let out = SimPool::with_threads(4).run_batch_until::<ScriptedEnvironment, _>(
            &sys,
            Vec::new(),
            &BatchOptions::default(),
            |_, _, _| panic!("predicate must not run on an empty batch"),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn predicate_stopping_at_step_zero_keeps_one_report() {
        // Regression pin for the `slots` reassembly path: a predicate
        // that is true for the very first cycle must leave exactly one
        // report per scenario, identically across worker counts —
        // including pools wider than the batch.
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 1_000 };
        let mk = || scenarios(5);
        let reference = SimPool::with_threads(1).run_batch_until(
            &sys,
            mk(),
            &limits,
            |_, _, _| true,
        );
        assert_eq!(reference.len(), 5);
        for o in &reference {
            assert_eq!(o.reports.len(), 1, "stop at step 0 keeps the first report");
            assert_eq!(o.stats.config_cycles, 1);
            assert_eq!(o.clock_cycles, o.reports.report(0).cycle_length);
        }
        for threads in [2, 4, 8] {
            let got = SimPool::with_threads(threads).run_batch_until(
                &sys,
                mk(),
                &limits,
                |_, _, _| true,
            );
            assert_eq!(got.len(), reference.len(), "threads={threads}");
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.reports, b.reports, "threads={threads}");
                assert_eq!(a.stats, b.stats, "threads={threads}");
                assert_eq!(a.clock_cycles, b.clock_cycles, "threads={threads}");
            }
        }
    }

    #[test]
    fn zero_step_limit_yields_empty_reports() {
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 0 };
        for threads in [1, 4] {
            let out = SimPool::with_threads(threads).run_batch(&sys, scenarios(3), &limits);
            assert_eq!(out.len(), 3, "threads={threads}");
            for o in &out {
                assert!(o.reports.is_empty());
                assert_eq!(o.clock_cycles, 0);
                assert_eq!(o.stats.config_cycles, 0);
                assert!(o.error.is_none());
            }
        }
    }

    #[test]
    fn scenarios_with_empty_scripts_idle_to_the_limit() {
        // An empty script is a valid scenario: the machine idles for
        // `max_steps` cycles. Byte-identical across worker counts.
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 4 };
        let envs = || -> Vec<ScriptedEnvironment> {
            (0..3).map(|_| ScriptedEnvironment::new(Vec::<Vec<&str>>::new())).collect()
        };
        let reference = SimPool::with_threads(1).run_batch(&sys, envs(), &limits);
        for o in &reference {
            assert_eq!(o.reports.len(), 4);
            assert!(o.reports.iter().all(|r| r.fired.is_empty()));
        }
        let got = SimPool::with_threads(2).run_batch(&sys, envs(), &limits);
        for (a, b) in got.iter().zip(&reference) {
            assert_eq!(a.reports, b.reports);
            assert_eq!(a.stats, b.stats);
        }
    }

    /// Timer reload port address (must match the `TLOAD` data port).
    const TLOAD_ADDR: u16 = 0x40;

    /// A chart whose `Arm` routine loads a hardware timer by a port
    /// write with enough clock cycles that its countdown runs across
    /// idle cycles before the expiry raises `T_EXP`.
    fn timer_system() -> crate::compile::CompiledSystem {
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
        b.state("Idle", StateKind::Basic).transition("Armed", "TICK/Arm(60)");
        b.state("Armed", StateKind::Basic)
            .transition("Fired", "T_EXP/Note(1)")
            .transition("Idle", "PING/Disarm()");
        b.state("Fired", StateKind::Basic)
            .transition("Idle", "TICK [not OVER]/Note(2)")
            .transition("Done", "TICK [OVER]");
        b.basic("Done");
        let actions = r#"
            int:16 fired;
            void Arm(int:16 n) { TLOAD = n; }
            void Disarm() { TLOAD = 0; }
            void Note(int:16 k) { fired = fired + k; OVER = fired >= 6; }
        "#;
        let mut arch = PscpArch::dual_md16(true);
        arch.timers.push(crate::arch::TimerSpec {
            name: "t0".into(),
            event: "T_EXP".into(),
            port_address: TLOAD_ADDR,
        });
        compile_system(&b.build().unwrap(), actions, &arch, &CodegenOptions::default()).unwrap()
    }

    /// Scenario `i`'s script: external events, direct timer-expiry
    /// injections and empty rows, out of phase across scenarios.
    fn timer_script(i: usize) -> Vec<Vec<&'static str>> {
        const MENU: [&[&str]; 6] =
            [&["TICK"], &["PING"], &["T_EXP"], &["TICK", "T_EXP"], &["TICK", "PING"], &[]];
        (0..2 + (i * 5) % 9).map(|k| MENU[(i * 7 + k * 3) % MENU.len()].to_vec()).collect()
    }

    /// Each scenario on a fresh machine, outside the pool: the reference
    /// the pool's reused, chunk-claiming workers must reproduce.
    fn fresh_runs<F>(
        sys: &crate::compile::CompiledSystem,
        envs: Vec<ScriptedEnvironment>,
        limits: &BatchOptions,
        done: F,
    ) -> Vec<BatchOutcome<ScriptedEnvironment>>
    where
        F: Fn(&PscpMachine<'_>, &ScriptedEnvironment, &CycleReport) -> bool,
    {
        envs.into_iter()
            .map(|mut env| {
                let mut m = PscpMachine::new(sys);
                let mut reports = CycleLog::new();
                let mut error = None;
                while m.now() < limits.deadline && (reports.len() as u64) < limits.max_steps {
                    match m.step(&mut env) {
                        Ok(r) => {
                            let stop = done(&m, &env, &r);
                            reports.push(&r);
                            if stop {
                                break;
                            }
                        }
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
                let (stats, clock_cycles) = (m.stats().clone(), m.now());
                BatchOutcome { reports, stats, clock_cycles, env, error }
            })
            .collect()
    }

    #[test]
    fn timer_scenarios_match_fresh_machines() {
        // Mixed scripts, empty scripts, a zero step limit and a `done`
        // predicate that stops each scenario on its first firing cycle,
        // at batch sizes around the chunk widths and 1, 2 and 4 workers.
        let sys = timer_system();
        let mixed = |n: usize| (0..n).map(|i| ScriptedEnvironment::new(timer_script(i))).collect();
        let empty = |n: usize| {
            (0..n).map(|_| ScriptedEnvironment::new(Vec::<Vec<&str>>::new())).collect()
        };
        let never = |_: &PscpMachine<'_>, _: &ScriptedEnvironment, _: &CycleReport| false;
        let first_fire =
            |_: &PscpMachine<'_>, _: &ScriptedEnvironment, r: &CycleReport| !r.fired.is_empty();
        type Envs = fn(usize) -> Vec<ScriptedEnvironment>;
        type Done = fn(&PscpMachine<'_>, &ScriptedEnvironment, &CycleReport) -> bool;
        let cases: [(&str, Envs, u64, Done); 4] = [
            ("mixed", mixed, 16, never),
            ("empty", empty, 7, never),
            ("zero limit", mixed, 0, never),
            ("done on first fire", mixed, 24, first_fire),
        ];
        for (what, envs, max_steps, done) in cases {
            let limits = BatchOptions { deadline: u64::MAX, max_steps };
            for n in [1, 7, 8, 9, 70] {
                let want = fresh_runs(&sys, envs(n), &limits, done);
                for threads in [1, 2, 4] {
                    let got = SimPool::with_threads(threads).run_batch_until(
                        &sys,
                        envs(n),
                        &limits,
                        done,
                    );
                    assert_eq!(got.len(), n);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        let at = format!("{what}: n={n} threads={threads} scenario {i}");
                        assert_eq!(g.reports, w.reports, "{at}");
                        assert_eq!(g.stats, w.stats, "{at}");
                        assert_eq!(g.clock_cycles, w.clock_cycles, "{at}");
                        assert_eq!(g.error, w.error, "{at}");
                        assert_eq!(g.env.port_writes, w.env.port_writes, "{at}");
                        assert_eq!(g.env.script(), w.env.script(), "{at}");
                    }
                }
            }
        }
        // The mixed scripts leave a timer counting down across idle
        // cycles, so the cases above cover its carried state.
        let counting = AtomicUsize::new(0);
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 16 };
        fresh_runs(&sys, mixed(70), &limits, |m, _, r| {
            if r.fired.is_empty() && m.timer_remaining(0).is_some() {
                counting.fetch_add(1, Ordering::Relaxed);
            }
            false
        });
        assert!(counting.into_inner() > 0, "no timer counted down across an idle cycle");
    }

    /// An idle report of `len` clock cycles.
    fn idle(len: u64) -> CycleReport {
        CycleReport { cycle_length: len, ..Default::default() }
    }

    /// A fired report: transition `t` on TEP 0.
    fn fired(t: usize, len: u64) -> CycleReport {
        CycleReport {
            fired: vec![pscp_statechart::TransitionId::from_index(t)],
            transition_cycles: vec![len - 2],
            assigned_tep: vec![0],
            cycle_length: len,
            ..Default::default()
        }
    }

    #[test]
    fn cycle_log_reads_like_the_vec_of_its_pushes() {
        let pushes = [
            idle(4),
            idle(4),
            idle(4),
            fired(0, 30),
            fired(0, 30),
            idle(4),
            idle(9),
            idle(9),
            CycleReport { raised: vec![pscp_statechart::EventId::from_index(1)], ..idle(9) },
            idle(9),
            CycleReport { interrupt_latency: Some(3), ..idle(9) },
            fired(1, 12),
            idle(4),
        ];
        let mut log = CycleLog::new();
        let mut vec = Vec::new();
        assert!(log.is_empty() && log == vec);
        for r in pushes {
            log.push(&r);
            vec.push(r);
            assert_eq!(log.len(), vec.len());
            assert!(log == vec);
            assert!(log.iter().eq(vec.iter().cloned()));
            assert_eq!(log.iter().len(), vec.len());
            for (i, r) in vec.iter().enumerate() {
                assert_eq!(log.report(i).to_report(), *r, "cycle {i}");
            }
        }
        assert_eq!((&log).into_iter().count(), vec.len());
        let mut twin = CycleLog::new();
        vec.iter().for_each(|r| twin.push(r));
        assert_eq!(twin, log, "equal pushes give equal logs");
        twin.push(&idle(4));
        assert_ne!(twin, log);
        // Runs: idle(4)×3, the two equal fired reports apart, idle(4),
        // idle(9)×2, the raising and the interrupted ones apart from
        // the idle(9) between them, the last fired, idle(4).
        assert_eq!(log.runs.len(), 10);
        assert_eq!(log.runs[0].count, 3);
        assert!((0..log.runs.len()).all(|i| log.run_is_idle(i) || log.runs[i].count == 1));
        assert!(log != vec[..12].to_vec(), "a shorter sequence differs");
    }

    #[test]
    fn push_idle_logs_what_pushing_the_idle_report_logs() {
        // Each prefix: an empty log, one after a fired report, and one
        // after an idle run of another cycle length; then idle cycles
        // appended both ways, and a fired report after them.
        let prefixes: [&[CycleReport]; 3] =
            [&[], &[idle(4), fired(0, 30)], &[fired(1, 12), idle(9), idle(9)]];
        for prefix in prefixes {
            let (mut by_push, mut by_idle) = (CycleLog::new(), CycleLog::new());
            for r in prefix {
                by_push.push(r);
                by_idle.push(r);
            }
            for _ in 0..3 {
                by_push.push(&IDLE_REPORT);
                by_idle.push_idle();
                assert_eq!(by_idle, by_push, "after {prefix:?}");
                assert_eq!(by_idle.runs, by_push.runs, "after {prefix:?}");
            }
            by_push.push(&fired(2, 20));
            by_idle.push(&fired(2, 20));
            by_idle.push_idle();
            by_push.push(&IDLE_REPORT);
            assert_eq!(by_idle.runs, by_push.runs, "after {prefix:?}");
            assert_eq!(by_idle.len(), prefix.len() + 5);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cycle_log_index_past_the_end_panics() {
        let mut log = CycleLog::new();
        log.push(&idle(4));
        log.push(&idle(4));
        let _ = log.report(2);
    }

    #[test]
    fn threads_from_parses_env_shapes() {
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 8 ")), 8);
        // Explicit values pass through unclamped, even past the host.
        assert_eq!(threads_from(Some("64")), 64);
        let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(threads_from(Some("0")), fallback);
        assert_eq!(threads_from(Some("lots")), fallback);
        assert_eq!(threads_from(None), fallback);
    }

    #[test]
    fn stream_chunks_consumes_in_job_order_within_the_lookahead() {
        let jobs: Vec<usize> = (0..203).collect();
        for threads in [1, 2, 5] {
            for width in [1, 4, 64] {
                // Chunks expanded so far, against jobs consumed so far:
                // a worker may only run `AHEAD` chunks per worker
                // ahead of the consumer.
                let expanded = AtomicUsize::new(0);
                let mut out = Vec::new();
                stream_chunks(
                    jobs.iter().copied(),
                    width,
                    threads,
                    AHEAD,
                    |_| (),
                    |_, chunk| {
                        expanded.fetch_add(1, Ordering::SeqCst);
                        chunk.iter().map(|j| j * 10).collect()
                    },
                    |r: Vec<usize>| {
                        let taken = out.len() / width;
                        assert!(
                            expanded.load(Ordering::SeqCst) <= taken + 1 + AHEAD * threads,
                            "workers ran past the lookahead"
                        );
                        out.extend(r);
                    },
                );
                assert_eq!(out, (0..203).map(|j| j * 10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    #[should_panic(expected = "an expansion worker panicked")]
    fn stream_chunks_surfaces_a_worker_panic() {
        let jobs: Vec<usize> = (0..64).collect();
        stream_chunks(
            jobs.iter().copied(),
            4,
            2,
            AHEAD,
            |_| (),
            |_, chunk| {
                assert!(chunk[0] != 8, "boom");
                chunk.to_vec()
            },
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "consumer gave up")]
    fn stream_chunks_releases_workers_when_the_consumer_panics() {
        let jobs: Vec<usize> = (0..640).collect();
        stream_chunks(
            jobs.iter().copied(),
            4,
            2,
            AHEAD,
            |_| (),
            |_, chunk| chunk.to_vec(),
            |chunk| assert!(!chunk.contains(&5), "consumer gave up"),
        );
    }

    /// Panics on its first sample when armed.
    struct Tripwire(bool);

    impl Environment for Tripwire {
        fn sample_events(&mut self, _now: u64) -> Vec<String> {
            assert!(!self.0, "tripwire scenario");
            vec!["TICK".to_string()]
        }
    }

    #[test]
    fn a_panicking_scenario_panics_the_caller() {
        // The batch collects through a Condvar wait: a worker's panic
        // must wake the caller and unwind it, never leave it waiting.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let sys = system();
            let envs: Vec<_> = (0..8).map(|i| Tripwire(i == 5)).collect();
            let limits = BatchOptions { deadline: u64::MAX, max_steps: 4 };
            let pool = SimPool::with_threads(2);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_batch(&sys, envs, &limits).len()
            }));
            let _ = tx.send(result.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("the batch hung"));
        assert!(panicked, "the batch swallowed a scenario panic");
    }
}
