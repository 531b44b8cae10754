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
//! Scenarios are fully independent (separate machine state, separate
//! environment), so the batch output is byte-identical for any worker
//! count — `PSCP_THREADS=1` and `PSCP_THREADS=16` produce the same
//! bytes, only wall-clock differs. The same worker-queue primitive
//! ([`run_indexed`]) backs the parallel candidate evaluation in
//! [`optimize`](crate::optimize::optimize).
//!
//! On top of the thread pool, each worker packs up to `PSCP_GANG`
//! scenarios (default 64) into one bit-sliced gang ([`crate::gang`])
//! whose SLA/CR plane evaluates word-parallel — also byte-identical,
//! for any gang width. `PSCP_GANG=1` keeps the scalar loop verbatim as
//! the differential oracle.

use crate::compile::CompiledSystem;
use crate::gang::{Expansion, GangRig};
use crate::machine::{
    CycleReport, Environment, MachineError, MachineStats, NullEnvironment, PscpMachine,
    SemanticState,
};
use pscp_sla::gang::GANG_WIDTH;
use pscp_statechart::semantics::SelectionTables;
use pscp_statechart::EventId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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

/// Clamps a *default* worker count to the host's available parallelism
/// (never below 1). Explicit requests — a `PSCP_THREADS` value, an
/// API-level `threads` argument — pass through [`threads_from`] /
/// [`SimPool::with_threads`] unclamped; this helper is only for
/// defaults a caller picked without looking at the host, so e.g. a
/// 4-worker default on a 1-core box degrades to the pool's inline
/// sequential path instead of spawning threads that contend for one
/// core.
pub fn default_workers(requested: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    requested.clamp(1, hw)
}

/// Parses a `PSCP_GANG`-style value: the number of scenarios packed
/// into one bit-sliced gang per worker. Unset, empty, `auto`,
/// unparsable or zero select the full machine-word width
/// ([`GANG_WIDTH`]); explicit values clamp to `1..=64`. Width 1 is the
/// scalar path, kept verbatim as the differential oracle.
pub fn gang_from(var: Option<&str>) -> usize {
    match var.map(str::trim) {
        Some("") | Some("auto") | None => GANG_WIDTH,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n.min(GANG_WIDTH),
            _ => GANG_WIDTH,
        },
    }
}

/// The gang width configured for this process via `PSCP_GANG`
/// (default: the full 64-lane word).
pub fn configured_gang() -> usize {
    gang_from(std::env::var("PSCP_GANG").ok().as_deref())
}

/// Runs `f` over every job index on up to `threads` scoped workers
/// pulling from a shared queue, returning results in job order. With
/// `threads <= 1` (or a single job) no thread is spawned and the jobs
/// run inline, so a one-worker pool is *exactly* the sequential loop.
pub(crate) fn run_indexed<T, R, F>(jobs: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.iter().enumerate().map(|(i, job)| f(i, job)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for w in 0..threads.min(jobs.len()) {
            let next = &next;
            let slots = &slots;
            let f = &f;
            s.spawn(move || {
                if pscp_obs::trace_enabled() {
                    pscp_obs::trace::set_thread_lane_indexed("worker", w);
                }
                // Lifetime span so every spawned worker shows up in the
                // trace, even one the queue starved (free when off).
                let worker_span = pscp_obs::trace::span("worker.run");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let r = f(i, job);
                    *slots[i].lock().unwrap() = Some(r);
                }
                // Flush before the closure returns: the scope join can
                // complete before this thread's TLS destructors run, so
                // an exit-time flush may land after the caller exports.
                drop(worker_span);
                pscp_obs::trace::flush_current_thread();
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
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

/// The outcome of one scenario: everything the simulation produced plus
/// the environment handed back so callers can read its recorded
/// outputs (port writes, fault logs, …).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome<E> {
    /// Per-configuration-cycle reports, in execution order.
    pub reports: Vec<CycleReport>,
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
    gang: usize,
}

impl SimPool {
    /// A pool sized by `PSCP_THREADS` (default: available parallelism)
    /// with the `PSCP_GANG` gang width (default: 64).
    pub fn new() -> Self {
        SimPool { threads: configured_threads(), gang: configured_gang() }
    }

    /// A pool with an explicit worker count (minimum 1); gang width
    /// still comes from `PSCP_GANG`.
    pub fn with_threads(threads: usize) -> Self {
        SimPool { threads: threads.max(1), gang: configured_gang() }
    }

    /// Overrides the gang width: how many scenarios each worker packs
    /// into one bit-sliced gang (clamped to `1..=64`; 1 selects the
    /// scalar differential-oracle path).
    pub fn with_gang(mut self, width: usize) -> Self {
        self.gang = width.clamp(1, GANG_WIDTH);
        self
    }

    /// The worker count this pool dispatches on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The gang width this pool packs scenarios with.
    pub fn gang_width(&self) -> usize {
        self.gang
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
        // One set of selection tables for the whole batch, shared by
        // every worker's machines.
        let tables = Arc::new(SelectionTables::new(&system.chart));
        if self.gang > 1 {
            return self.run_batch_gang(system, &tables, envs, limits, &done);
        }
        let threads = self.threads.min(envs.len());
        if threads <= 1 {
            let mut machine = PscpMachine::with_tables(system, tables);
            return envs
                .into_iter()
                .map(|env| run_scenario(0, &mut machine, env, limits, &done))
                .collect();
        }

        let queue = AtomicUsize::new(0);
        let feed: Vec<Mutex<Option<E>>> =
            envs.into_iter().map(|e| Mutex::new(Some(e))).collect();
        let slots: Vec<Mutex<Option<BatchOutcome<E>>>> =
            feed.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for w in 0..threads {
                let queue = &queue;
                let feed = &feed;
                let slots = &slots;
                let done = &done;
                let tables = &tables;
                s.spawn(move || {
                    if pscp_obs::trace_enabled() {
                        pscp_obs::trace::set_thread_lane_indexed("sim-worker", w);
                    }
                    // Lifetime span so every spawned worker shows up in
                    // the trace, even one the queue starved.
                    let worker_span = pscp_obs::trace::span("worker.run");
                    // One machine per worker, reset between scenarios.
                    let mut machine = PscpMachine::with_tables(system, Arc::clone(tables));
                    loop {
                        let i = queue.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = feed.get(i) else {
                            pscp_obs::metrics::POOL_IDLE_POLLS.add(w, 1);
                            break;
                        };
                        let env = slot.lock().unwrap().take().expect("scenario taken once");
                        let outcome = run_scenario(w, &mut machine, env, limits, &done);
                        *slots[i].lock().unwrap() = Some(outcome);
                    }
                    // Flush before the closure returns: the scope join
                    // can complete before this thread's TLS destructors
                    // run, so an exit-time flush may land after the
                    // caller exports.
                    drop(worker_span);
                    pscp_obs::trace::flush_current_thread();
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
            .collect()
    }

    /// Gang-packed batch: scenarios are chunked into gangs of
    /// `self.gang` in submission order and each chunk runs lock-step on
    /// a [`GangRig`] (one rig per worker, reused across chunks).
    /// Byte-identical to the scalar path for any gang width and worker
    /// count — the gang differential suite pins this.
    fn run_batch_gang<E, F>(
        &self,
        system: &CompiledSystem,
        tables: &Arc<SelectionTables>,
        envs: Vec<E>,
        limits: &BatchOptions,
        done: &F,
    ) -> Vec<BatchOutcome<E>>
    where
        E: Environment + Send,
        F: Fn(&PscpMachine<'_>, &E, &CycleReport) -> bool + Sync,
    {
        // Shrink the gang width when the batch is too small to keep
        // every worker busy at the configured width: parallel workers
        // beat wide gangs until each worker has a full gang of its own.
        // Deterministic in (envs, threads), so outcomes stay pinned.
        let gang = self
            .gang
            .min(envs.len().div_ceil(self.threads.max(1)))
            .max(1);
        let mut chunks: Vec<Vec<E>> = Vec::with_capacity(envs.len().div_ceil(gang));
        let mut cur: Vec<E> = Vec::with_capacity(gang.min(envs.len()));
        for env in envs {
            cur.push(env);
            if cur.len() == gang {
                chunks.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }

        let threads = self.threads.min(chunks.len());
        if threads <= 1 {
            let mut rig = GangRig::new(system, tables);
            let mut out = Vec::new();
            for chunk in chunks {
                let jobs: Vec<(E, BatchOptions)> =
                    chunk.into_iter().map(|e| (e, *limits)).collect();
                out.extend(rig.run(0, jobs, done));
            }
            return out;
        }

        let queue = AtomicUsize::new(0);
        let feed: Vec<Mutex<Option<Vec<E>>>> =
            chunks.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let slots: Vec<Mutex<Option<Vec<BatchOutcome<E>>>>> =
            feed.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for w in 0..threads {
                let queue = &queue;
                let feed = &feed;
                let slots = &slots;
                s.spawn(move || {
                    if pscp_obs::trace_enabled() {
                        pscp_obs::trace::set_thread_lane_indexed("sim-worker", w);
                    }
                    let worker_span = pscp_obs::trace::span("worker.run");
                    // One gang rig per worker, lanes reset per chunk.
                    let mut rig = GangRig::new(system, tables);
                    loop {
                        let i = queue.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = feed.get(i) else {
                            pscp_obs::metrics::POOL_IDLE_POLLS.add(w, 1);
                            break;
                        };
                        let chunk =
                            slot.lock().unwrap().take().expect("chunk taken once");
                        let jobs: Vec<(E, BatchOptions)> =
                            chunk.into_iter().map(|e| (e, *limits)).collect();
                        *slots[i].lock().unwrap() = Some(rig.run(w, jobs, done));
                    }
                    // Flush before the closure returns: the scope join
                    // can complete before this thread's TLS destructors
                    // run, so an exit-time flush may land after the
                    // caller exports.
                    drop(worker_span);
                    pscp_obs::trace::flush_current_thread();
                });
            }
        });
        slots
            .into_iter()
            .flat_map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
            .collect()
    }

    /// Expands state-exploration jobs across the pool and hands
    /// `(successor, report)` per job to `consume` on the calling thread,
    /// in job order. A job is a `(state, symbol)` index pair into
    /// `states` and `symbols` — restore that state, inject that event
    /// set, run one configuration cycle — so jobs reference the caller's
    /// frontier and fanning a layer out copies no state. Results stream:
    /// workers run at most [`EXPAND_AHEAD`] chunks each ahead of
    /// `consume`, so the successors alive at once are bounded by the
    /// pool, not by the layer. The scalar path (`gang <= 1`) restores and
    /// steps one [`PscpMachine`] per worker (the differential oracle);
    /// wider gangs expand each chunk in one [`GangRig::expand`] pass
    /// that shares a bit-sliced SLA evaluation. Byte-identical for any
    /// worker count and gang width — each job is independent of its
    /// lane-mates, and the explore differential suite pins the whole
    /// grid. Every worker's machines run on `tables`, built once by the
    /// caller for `system.chart`.
    pub(crate) fn expand_states(
        &self,
        system: &CompiledSystem,
        tables: &Arc<SelectionTables>,
        states: &[SemanticState],
        symbols: &[Vec<EventId>],
        jobs: &[(u32, u32)],
        consume: impl FnMut(Expansion),
    ) {
        // Fixed-width chunks in job order (width independent of the
        // worker count, so chunk composition is pinned by the job list
        // alone).
        if self.gang <= 1 {
            stream_chunks(
                jobs,
                GANG_WIDTH,
                self.threads,
                || PscpMachine::with_tables(system, Arc::clone(tables)),
                |machine, chunk| {
                    chunk
                        .iter()
                        .map(|&(st, sym)| {
                            machine.restore(&states[st as usize]);
                            machine
                                .step_injected(&symbols[sym as usize], &mut NullEnvironment)
                                .map(|report| (machine.capture(), report))
                        })
                        .collect()
                },
                consume,
            );
        } else {
            stream_chunks(
                jobs,
                self.gang,
                self.threads,
                || GangRig::new(system, tables),
                |rig, chunk| rig.expand(states, symbols, chunk),
                consume,
            );
        }
    }
}

/// Chunks a streaming worker may have expanded but the consumer not yet
/// taken, per worker: enough to keep every worker busy while the
/// consumer catches up, few enough that a chunk's results are still in
/// cache when it is consumed.
const EXPAND_AHEAD: usize = 4;

/// A [`stream_chunks`] run never holds its lock while `expand` or
/// `consume` runs, so no panic can poison it.
const UNPOISONED: &str = "the stream lock is never held across user code";

/// Shared state of one [`stream_chunks`] run.
struct Stream<R> {
    /// Next chunk a worker claims.
    next: usize,
    /// Chunks the consumer has taken.
    taken: usize,
    /// Finished chunks waiting for the consumer, by chunk index.
    done: Vec<Option<Vec<R>>>,
    /// Set when either side panics, so the other stops waiting.
    stopped: bool,
}

/// Stops a [`stream_chunks`] run when dropped during a panic: the
/// other side wakes and unwinds instead of waiting forever.
struct StopOnPanic<'a, R>(&'a (Mutex<Stream<R>>, Condvar));

impl<R> Drop for StopOnPanic<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let (lock, cv) = self.0;
            lock.lock().unwrap_or_else(PoisonError::into_inner).stopped = true;
            cv.notify_all();
        }
    }
}

/// Runs `expand` over consecutive `width`-job chunks of `jobs` on up to
/// `threads` scoped workers and feeds every result to `consume` on the
/// calling thread, in job order, while the workers carry on. Workers
/// stay at most [`EXPAND_AHEAD`] chunks each ahead of the consumer.
/// With one worker (or one chunk) nothing is spawned and each chunk is
/// consumed as soon as it is expanded. Each worker builds its own state
/// with `make_worker`.
fn stream_chunks<J, R, W>(
    jobs: &[J],
    width: usize,
    threads: usize,
    make_worker: impl Fn() -> W + Sync,
    expand: impl Fn(&mut W, &[J]) -> Vec<R> + Sync,
    mut consume: impl FnMut(R),
) where
    J: Sync,
    R: Send,
{
    let chunks = jobs.len().div_ceil(width);
    let threads = threads.min(chunks);
    if threads <= 1 {
        let mut worker = make_worker();
        for chunk in jobs.chunks(width) {
            expand(&mut worker, chunk).into_iter().for_each(&mut consume);
        }
        return;
    }
    let ahead = EXPAND_AHEAD * threads;
    let shared = (
        Mutex::new(Stream {
            next: 0,
            taken: 0,
            done: (0..chunks).map(|_| None).collect(),
            stopped: false,
        }),
        Condvar::new(),
    );
    let (lock, cv) = &shared;
    std::thread::scope(|s| {
        for w in 0..threads {
            let shared = &shared;
            let (make_worker, expand) = (&make_worker, &expand);
            s.spawn(move || {
                if pscp_obs::trace_enabled() {
                    pscp_obs::trace::set_thread_lane_indexed("sim-worker", w);
                }
                let worker_span = pscp_obs::trace::span("worker.run");
                let _stop = StopOnPanic(shared);
                let mut worker = make_worker();
                loop {
                    let i = {
                        let mut st = lock.lock().expect(UNPOISONED);
                        while !st.stopped && st.next < chunks && st.next >= st.taken + ahead {
                            st = cv.wait(st).expect(UNPOISONED);
                        }
                        if st.stopped || st.next >= chunks {
                            pscp_obs::metrics::POOL_IDLE_POLLS.add(w, 1);
                            break;
                        }
                        st.next += 1;
                        st.next - 1
                    };
                    let chunk = &jobs[i * width..((i + 1) * width).min(jobs.len())];
                    let out = expand(&mut worker, chunk);
                    lock.lock().expect(UNPOISONED).done[i] = Some(out);
                    cv.notify_all();
                }
                drop(worker_span);
                pscp_obs::trace::flush_current_thread();
            });
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
            out.into_iter().for_each(&mut consume);
        }
    });
}

impl Default for SimPool {
    fn default() -> Self {
        SimPool::new()
    }
}

/// Runs one scenario on a (dirty) machine after resetting it. Shared
/// with the scenario server ([`crate::serve`]), whose shard workers
/// must be byte-identical to an in-process [`SimPool`] run — both go
/// through this one function.
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
    let seq = SCENARIO_SEQ.with(|c| {
        let v = c.get();
        c.set(v.wrapping_add(1));
        v
    });
    let _span = pscp_obs::trace::span_sampled("scenario", seq);
    machine.reset();
    let mut reports = Vec::new();
    let mut error = None;
    let mut steps = 0u64;
    while machine.now() < limits.deadline && steps < limits.max_steps {
        match machine.step(&mut env) {
            Ok(report) => {
                let stop = done(machine, &env, &report);
                reports.push(report);
                if stop {
                    break;
                }
            }
            Err(e) => {
                error = Some(e);
                break;
            }
        }
        steps += 1;
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
            assert_eq!(o.clock_cycles, o.reports[0].cycle_length);
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

    #[test]
    fn threads_from_parses_env_shapes() {
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 8 ")), 8);
        let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(threads_from(Some("0")), fallback);
        assert_eq!(threads_from(Some("lots")), fallback);
        assert_eq!(threads_from(None), fallback);
    }

    #[test]
    fn default_workers_clamps_to_host_parallelism() {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(default_workers(0), 1);
        assert_eq!(default_workers(1), 1);
        assert_eq!(default_workers(hw), hw);
        assert_eq!(default_workers(hw + 7), hw, "defaults never exceed the host");
        // Explicit values keep passing through unclamped.
        assert_eq!(threads_from(Some("64")), 64);
    }

    #[test]
    fn gang_from_parses_env_shapes() {
        assert_eq!(gang_from(None), GANG_WIDTH);
        assert_eq!(gang_from(Some("")), GANG_WIDTH);
        assert_eq!(gang_from(Some("auto")), GANG_WIDTH);
        assert_eq!(gang_from(Some(" auto ")), GANG_WIDTH);
        assert_eq!(gang_from(Some("0")), GANG_WIDTH);
        assert_eq!(gang_from(Some("bogus")), GANG_WIDTH);
        assert_eq!(gang_from(Some("1")), 1);
        assert_eq!(gang_from(Some("8")), 8);
        assert_eq!(gang_from(Some(" 63 ")), 63);
        assert_eq!(gang_from(Some("64")), 64);
        assert_eq!(gang_from(Some("1000")), GANG_WIDTH, "clamped to the word width");
    }

    #[test]
    fn gang_widths_match_scalar_oracle() {
        // The scalar path (width 1) is the oracle; every other width
        // and thread count must reproduce it byte-for-byte.
        let sys = system();
        let limits = BatchOptions { deadline: u64::MAX, max_steps: 12 };
        let reference = SimPool::with_threads(1).with_gang(1).run_batch(&sys, scenarios(7), &limits);
        for gang in [2, 8, 64] {
            for threads in [1, 4] {
                let got = SimPool::with_threads(threads)
                    .with_gang(gang)
                    .run_batch(&sys, scenarios(7), &limits);
                assert_eq!(got.len(), reference.len());
                for (a, b) in got.iter().zip(&reference) {
                    assert_eq!(a.reports, b.reports, "gang={gang} threads={threads}");
                    assert_eq!(a.stats, b.stats, "gang={gang} threads={threads}");
                    assert_eq!(a.clock_cycles, b.clock_cycles, "gang={gang} threads={threads}");
                    assert!(a.error.is_none());
                }
            }
        }
    }

    #[test]
    fn run_indexed_preserves_order() {
        let jobs: Vec<usize> = (0..37).collect();
        for threads in [1, 3, 8] {
            let out = run_indexed(&jobs, threads, |i, &j| {
                assert_eq!(i, j);
                j * 10
            });
            assert_eq!(out, (0..37).map(|j| j * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stream_chunks_consumes_in_job_order_within_the_lookahead() {
        let jobs: Vec<usize> = (0..203).collect();
        for threads in [1, 2, 5] {
            for width in [1, 4, 64] {
                // Chunks expanded so far, against jobs consumed so far:
                // a worker may only run `EXPAND_AHEAD` chunks per worker
                // ahead of the consumer.
                let expanded = AtomicUsize::new(0);
                let mut out = Vec::new();
                stream_chunks(
                    &jobs,
                    width,
                    threads,
                    || (),
                    |_, chunk| {
                        expanded.fetch_add(1, Ordering::SeqCst);
                        chunk.iter().map(|j| j * 10).collect()
                    },
                    |r| {
                        let taken = out.len() / width;
                        assert!(
                            expanded.load(Ordering::SeqCst) <= taken + 1 + EXPAND_AHEAD * threads,
                            "workers ran past the lookahead"
                        );
                        out.push(r);
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
            &jobs,
            4,
            2,
            || (),
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
            &jobs,
            4,
            2,
            || (),
            |_, chunk| chunk.to_vec(),
            |j| assert!(j != 5, "consumer gave up"),
        );
    }
}
