//! Gated atomic counters and log2 histograms.
//!
//! Every mutator first checks [`crate::metrics_enabled`]; with metrics
//! off the cost is one relaxed atomic load of the flag word and a
//! predictable branch — no stores, no allocation. The well-known
//! instruments below are plain statics (the registry is the explicit
//! list in [`snapshot`], not a lock-protected map), so recording never
//! takes a lock either.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::json::JsonWriter;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in statics).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` when metrics are enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::metrics_enabled() {
            self.0.fetch_add(n, Relaxed);
        }
    }

    /// Adds 1 when metrics are enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` unconditionally — for flushing locally batched counts
    /// that were themselves accumulated under the gate.
    #[inline]
    pub fn add_flushed(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Zeroes the counter.
    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// Bucket count of [`Histogram`]: one bucket for zero plus one per
/// power of two up to `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram: bucket 0 holds the value 0, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i - 1]`; `u64::MAX` lands in
/// bucket 64. `sum` wraps on overflow.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A zeroed histogram (usable in statics).
    pub const fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The `[lo, hi]` value range covered by bucket `i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records a sample when metrics are enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::metrics_enabled() {
            self.count.fetch_add(1, Relaxed);
            self.sum.fetch_add(v, Relaxed);
            self.buckets[Self::bucket_index(v)].fetch_add(1, Relaxed);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Wrapping sum of samples recorded.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Sample count of bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Relaxed)
    }

    /// Zeroes every cell.
    pub fn reset(&self) {
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }
}

impl Histogram {
    /// Reads every cell of this histogram exactly once into a local
    /// image. Count is derived from the bucket pass — not the `count`
    /// atomic — so the image is always internally consistent even
    /// while writers are racing: a record landing between two reads
    /// can skew `sum` by one sample's value but can never make
    /// `count != Σ buckets`.
    fn consistent_cells(&self) -> ([u64; HIST_BUCKETS], u64, u64) {
        let mut cells = [0u64; HIST_BUCKETS];
        let mut count = 0u64;
        for (local, cell) in cells.iter_mut().zip(&self.buckets) {
            let n = cell.load(Relaxed);
            *local = n;
            count += n;
        }
        (cells, count, self.sum.load(Relaxed))
    }
}

/// Slots of a [`PerWorker`] instrument; workers beyond the last slot
/// share it.
pub const WORKER_SLOTS: usize = 16;

/// A counter fanned out per pool worker.
#[derive(Debug)]
pub struct PerWorker(pub [Counter; WORKER_SLOTS]);

impl PerWorker {
    /// Zeroed slots (usable in statics).
    pub const fn new() -> Self {
        PerWorker([const { Counter::new() }; WORKER_SLOTS])
    }

    /// Adds `n` to `worker`'s slot (clamped to the last slot).
    #[inline]
    pub fn add(&self, worker: usize, n: u64) {
        self.0[worker.min(WORKER_SLOTS - 1)].add(n);
    }

    /// The value of `worker`'s slot.
    pub fn get(&self, worker: usize) -> u64 {
        self.0[worker.min(WORKER_SLOTS - 1)].get()
    }

    fn reset(&self) {
        self.0.iter().for_each(Counter::reset);
    }

    /// Slot values up to the last non-zero slot.
    pub fn values(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.0.iter().map(Counter::get).collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }
}

impl Default for PerWorker {
    fn default() -> Self {
        Self::new()
    }
}

/// A histogram fanned out per pool worker, merged into one
/// [`HistogramSnapshot`] at scrape time. Workers beyond the last slot
/// share it — same clamping as [`PerWorker`].
#[derive(Debug)]
pub struct PerWorkerHist(pub [Histogram; WORKER_SLOTS]);

impl PerWorkerHist {
    /// Zeroed slots (usable in statics).
    pub const fn new() -> Self {
        PerWorkerHist([const { Histogram::new() }; WORKER_SLOTS])
    }

    /// Records a sample into `worker`'s slot (clamped to the last
    /// slot) when metrics are enabled.
    #[inline]
    pub fn record(&self, worker: usize, v: u64) {
        self.0[worker.min(WORKER_SLOTS - 1)].record(v);
    }

    /// The slot a worker index lands in (clamped).
    pub fn slot(&self, worker: usize) -> &Histogram {
        &self.0[worker.min(WORKER_SLOTS - 1)]
    }

    /// Merges every slot into one snapshot with a consistent pass:
    /// each slot's cells are read exactly once into a local image
    /// before summing, and the merged count is derived from the bucket
    /// reads rather than the slots' own `count` atomics. Two workers
    /// sharing the clamped last slot are therefore counted exactly
    /// once, and a slot recording mid-merge can never produce
    /// `count != Σ buckets` in the result.
    pub fn merged(&self, name: &str) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        for slot in &self.0 {
            let (cells, slot_count, slot_sum) = slot.consistent_cells();
            for (acc, n) in buckets.iter_mut().zip(cells) {
                *acc += n;
            }
            count += slot_count;
            sum = sum.wrapping_add(slot_sum);
        }
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum,
            buckets: (0..HIST_BUCKETS)
                .filter(|&i| buckets[i] > 0)
                .map(|i| {
                    let (lo, hi) = Histogram::bucket_range(i);
                    (lo, hi, buckets[i])
                })
                .collect(),
        }
    }

    fn reset(&self) {
        self.0.iter().for_each(Histogram::reset);
    }
}

impl Default for PerWorkerHist {
    fn default() -> Self {
        Self::new()
    }
}

// --- Well-known instruments -------------------------------------------------

/// Optimiser memo lookups that found an entry.
pub static MEMO_HITS: Counter = Counter::new();
/// Optimiser memo lookups that missed.
pub static MEMO_MISSES: Counter = Counter::new();
/// Memo files that existed but were unreadable, corrupt, or
/// stale-versioned and were discarded for a cold start.
pub static MEMO_CORRUPT_RECOVERIES: Counter = Counter::new();

/// Improvement steps taken by `optimize()`.
pub static OPT_STEPS: Counter = Counter::new();
/// Candidates evaluated by `optimize()`: one per evaluation, improvement
/// steps and shrink removals alike, memo hits included.
pub static OPT_CANDIDATES: Counter = Counter::new();
/// Applicable improvements per optimisation step (only the first is
/// evaluated).
pub static OPT_STEP_CANDIDATES: Histogram = Histogram::new();
/// Wall-clock nanoseconds spent compiling candidate systems.
pub static OPT_COMPILE_NS: Counter = Counter::new();
/// Wall-clock nanoseconds spent in timing validation of candidates.
pub static OPT_VALIDATE_NS: Counter = Counter::new();
/// Per-candidate compile wall-clock nanoseconds (one sample per
/// candidate system built during `optimize()`).
pub static OPT_CANDIDATE_COMPILE_NS: Histogram = Histogram::new();

/// Per-routine codegen cache lookups that served a reusable body.
pub static COMPILE_CACHE_HITS: Counter = Counter::new();
/// Per-routine codegen cache lookups that missed and compiled fresh.
pub static COMPILE_CACHE_MISSES: Counter = Counter::new();
/// Cached bodies that failed structural validation (stale or poisoned
/// entries) and were discarded before a fresh recompile.
pub static COMPILE_CACHE_INVALIDATIONS: Counter = Counter::new();

/// Configuration cycles stepped by `PscpMachine`.
pub static MACHINE_STEPS: Counter = Counter::new();
/// Transitions fired across all machine steps.
pub static MACHINE_TRANSITIONS: Counter = Counter::new();
/// Configuration cycles completed on the quiet path (no sample, no
/// transition selection); a subset of [`MACHINE_STEPS`].
pub static MACHINE_QUIET_CYCLES: Counter = Counter::new();

/// `CompiledNet` arena evaluations.
pub static SLA_NET_EVALS: Counter = Counter::new();

/// Scenarios completed per `SimPool` worker.
pub static POOL_SCENARIOS: PerWorker = PerWorker::new();
/// Machine steps executed per `SimPool` worker.
pub static POOL_STEPS: PerWorker = PerWorker::new();
/// Queue polls that found no work, per `SimPool` worker.
pub static POOL_IDLE_POLLS: PerWorker = PerWorker::new();

/// Scenario-server connections accepted.
pub static SERVE_CONNECTIONS: Counter = Counter::new();
/// Scenario-server protocol errors (malformed frames, credit
/// violations, system mismatches) that ended a connection.
pub static SERVE_ERRORS: Counter = Counter::new();
/// Client-side submissions that had to wait for a credit frame.
pub static SERVE_CREDIT_STALLS: Counter = Counter::new();
/// `Compile` frames served (successful or not).
pub static SERVE_COMPILES: Counter = Counter::new();
/// `Compile` frames whose sources failed to compile (the `Diagnostics`
/// reply carried errors and no fingerprint).
pub static SERVE_COMPILE_ERRORS: Counter = Counter::new();
/// Frames received by the server, per connection slot.
pub static SERVE_FRAMES_IN: PerWorker = PerWorker::new();
/// Frames written by the server, per connection slot.
pub static SERVE_FRAMES_OUT: PerWorker = PerWorker::new();
/// Socket writes the server's connection writers issued, per
/// connection slot. A writer sends everything queued for its connection
/// in one write, so `serve_frames_out / serve_writes` is the frames each
/// write carried. Writes that carry only a `Stats` reply are not
/// counted, like the reply itself.
pub static SERVE_WRITES: PerWorker = PerWorker::new();
/// Per-connection in-flight scenario count, sampled at each submit
/// receipt. Bounded by the negotiated credit window — the backpressure
/// tests pin every sample at or below it.
pub static SERVE_INFLIGHT: Histogram = Histogram::new();
/// Shared job-queue depth, sampled at each enqueue.
pub static SERVE_QUEUE_DEPTH: Histogram = Histogram::new();
/// Nanoseconds a scenario sat in the shared queue before a shard
/// worker dequeued it, per worker slot.
pub static SERVE_QUEUE_NS: PerWorkerHist = PerWorkerHist::new();
/// Nanoseconds a shard worker spent simulating a scenario, per worker
/// slot.
pub static SERVE_SIM_NS: PerWorkerHist = PerWorkerHist::new();
/// Nanoseconds spent projecting and encoding one outcome frame.
pub static SERVE_ENCODE_NS: Histogram = Histogram::new();
/// `Stats` frames served (remote telemetry scrapes).
pub static SERVE_STATS_SCRAPES: Counter = Counter::new();

/// `Explore` frames served (wire-driven explorations).
pub static SERVE_EXPLORES: Counter = Counter::new();

/// State-space explorations run (`pscp_core::explore`).
pub static EXPLORE_RUNS: Counter = Counter::new();
/// Distinct states discovered across all explorations.
pub static EXPLORE_STATES: Counter = Counter::new();
/// Transitions (state, symbol) → state expanded.
pub static EXPLORE_EDGES: Counter = Counter::new();
/// Successor states already in the visited set (dedup hits).
pub static EXPLORE_DEDUP_HITS: Counter = Counter::new();
/// Distinct TEP data planes interned across all explorations: how many
/// of the visited states' data memories differ (collapse compression
/// stores each once).
pub static EXPLORE_DATA_PLANES: Counter = Counter::new();
/// Deadlocked states reported.
pub static EXPLORE_DEADLOCKS: Counter = Counter::new();
/// Safety-predicate violations reported.
pub static EXPLORE_VIOLATIONS: Counter = Counter::new();
/// BFS frontier width at each depth layer.
pub static EXPLORE_FRONTIER: Histogram = Histogram::new();
/// Final BFS depth of each exploration.
pub static EXPLORE_DEPTH: Histogram = Histogram::new();
/// Wall nanoseconds per exploration run.
pub static EXPLORE_RUN_NS: Histogram = Histogram::new();

/// Instruction-kind slots of [`TEP_INSTR`]. The order mirrors
/// `pscp_tep::isa::Instr` variant order (pinned by a test over there).
pub const TEP_KINDS: usize = 22;

/// Display names of the TEP instruction kinds, in slot order.
pub static TEP_KIND_NAMES: [&str; TEP_KINDS] = [
    "nop",
    "ldi",
    "load",
    "store",
    "load_indexed",
    "store_indexed",
    "tao",
    "alu",
    "cmp",
    "jump",
    "jump_if_zero",
    "jump_if_not_zero",
    "call",
    "return",
    "port_read",
    "port_write",
    "read_cond",
    "set_cond",
    "raise_event",
    "custom",
    "alu_mem",
    "halt",
];

/// Executed-instruction counts by kind, across every TEP machine.
pub static TEP_INSTR: [Counter; TEP_KINDS] = [const { Counter::new() }; TEP_KINDS];

/// Folds a machine-local kind-count array (accumulated under the
/// metrics gate) into the global [`TEP_INSTR`] counters.
pub fn flush_tep_instr(counts: &[u64]) {
    for (c, &n) in TEP_INSTR.iter().zip(counts) {
        if n > 0 {
            c.add_flushed(n);
        }
    }
}

// --- Snapshot ---------------------------------------------------------------

/// Point-in-time values of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    /// `(lo, hi, samples)` for each non-empty bucket.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// An upper-bound estimate of the `q`-quantile (0.0..=1.0): the
    /// high edge of the first bucket whose cumulative count reaches
    /// `q * count`. Log2 buckets make this exact to within one power
    /// of two — plenty for a p50/p99 console readout.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(_, hi, n) in &self.buckets {
            cum += n;
            if cum >= target {
                return hi;
            }
        }
        self.buckets.last().map_or(0, |&(_, hi, _)| hi)
    }

    /// Bucket-wise difference against an earlier scrape of the same
    /// histogram: monotonic counts subtract saturating, the wrapping
    /// sum subtracts wrapping, buckets absent earlier pass through.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let earlier_n = |lo: u64| {
            earlier.buckets.iter().find(|&&(l, _, _)| l == lo).map_or(0, |&(_, _, n)| n)
        };
        HistogramSnapshot {
            name: self.name.clone(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .map(|&(lo, hi, n)| (lo, hi, n.saturating_sub(earlier_n(lo))))
                .filter(|&(_, _, n)| n > 0)
                .collect(),
        }
    }
}

/// Point-in-time values of every well-known instrument. Names are
/// owned strings so a snapshot decoded off the wire (the `Stats`
/// frame) is the same type — and byte-identically re-encodable — as
/// one taken in-process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Scalar counters, in declaration order.
    pub counters: Vec<(String, u64)>,
    /// Per-worker counters: values indexed by worker slot.
    pub per_worker: Vec<(String, Vec<u64>)>,
    /// Executed TEP instructions by kind (non-zero kinds only).
    pub tep_instr: Vec<(String, u64)>,
    /// Histograms (recorded ones only).
    pub histograms: Vec<HistogramSnapshot>,
}

const SCALARS: &[(&str, &Counter)] = &[
    ("memo_hits", &MEMO_HITS),
    ("memo_misses", &MEMO_MISSES),
    ("memo_corrupt_recoveries", &MEMO_CORRUPT_RECOVERIES),
    ("opt_steps", &OPT_STEPS),
    ("opt_candidates", &OPT_CANDIDATES),
    ("opt_compile_ns", &OPT_COMPILE_NS),
    ("opt_validate_ns", &OPT_VALIDATE_NS),
    ("compile_cache_hits", &COMPILE_CACHE_HITS),
    ("compile_cache_misses", &COMPILE_CACHE_MISSES),
    ("compile_cache_invalidations", &COMPILE_CACHE_INVALIDATIONS),
    ("machine_steps", &MACHINE_STEPS),
    ("machine_transitions", &MACHINE_TRANSITIONS),
    ("machine_quiet_cycles", &MACHINE_QUIET_CYCLES),
    ("sla_net_evals", &SLA_NET_EVALS),
    ("serve_connections", &SERVE_CONNECTIONS),
    ("serve_errors", &SERVE_ERRORS),
    ("serve_credit_stalls", &SERVE_CREDIT_STALLS),
    ("serve_compiles", &SERVE_COMPILES),
    ("serve_compile_errors", &SERVE_COMPILE_ERRORS),
    ("serve_stats_scrapes", &SERVE_STATS_SCRAPES),
    ("serve_explores", &SERVE_EXPLORES),
    ("explore_runs", &EXPLORE_RUNS),
    ("explore_states", &EXPLORE_STATES),
    ("explore_edges", &EXPLORE_EDGES),
    ("explore_dedup_hits", &EXPLORE_DEDUP_HITS),
    ("explore_data_planes", &EXPLORE_DATA_PLANES),
    ("explore_deadlocks", &EXPLORE_DEADLOCKS),
    ("explore_violations", &EXPLORE_VIOLATIONS),
];

const PER_WORKER: &[(&str, &PerWorker)] = &[
    ("pool_scenarios", &POOL_SCENARIOS),
    ("pool_steps", &POOL_STEPS),
    ("pool_idle_polls", &POOL_IDLE_POLLS),
    ("serve_frames_in", &SERVE_FRAMES_IN),
    ("serve_frames_out", &SERVE_FRAMES_OUT),
    ("serve_writes", &SERVE_WRITES),
];

const HISTOGRAMS: &[(&str, &Histogram)] = &[
    ("opt_step_candidates", &OPT_STEP_CANDIDATES),
    ("opt_candidate_compile_ns", &OPT_CANDIDATE_COMPILE_NS),
    ("serve_inflight", &SERVE_INFLIGHT),
    ("serve_queue_depth", &SERVE_QUEUE_DEPTH),
    ("serve_encode_ns", &SERVE_ENCODE_NS),
    ("explore_frontier", &EXPLORE_FRONTIER),
    ("explore_depth", &EXPLORE_DEPTH),
    ("explore_run_ns", &EXPLORE_RUN_NS),
];

const PER_WORKER_HISTS: &[(&str, &PerWorkerHist)] = &[
    ("serve_queue_ns", &SERVE_QUEUE_NS),
    ("serve_sim_ns", &SERVE_SIM_NS),
];

/// Captures the current value of every well-known instrument.
pub fn snapshot() -> MetricsSnapshot {
    let mut histograms: Vec<HistogramSnapshot> = HISTOGRAMS
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|&(name, h)| {
            // Consistent pass: derive count from one bucket read per
            // cell, same contract as `PerWorkerHist::merged`.
            let (cells, count, sum) = h.consistent_cells();
            HistogramSnapshot {
                name: name.to_string(),
                count,
                sum,
                buckets: (0..HIST_BUCKETS)
                    .filter(|&i| cells[i] > 0)
                    .map(|i| {
                        let (lo, hi) = Histogram::bucket_range(i);
                        (lo, hi, cells[i])
                    })
                    .collect(),
            }
        })
        .collect();
    histograms.extend(
        PER_WORKER_HISTS
            .iter()
            .map(|&(name, h)| h.merged(name))
            .filter(|h| h.count > 0),
    );
    MetricsSnapshot {
        counters: SCALARS.iter().map(|&(n, c)| (n.to_string(), c.get())).collect(),
        per_worker: PER_WORKER.iter().map(|&(n, w)| (n.to_string(), w.values())).collect(),
        tep_instr: TEP_KIND_NAMES
            .iter()
            .zip(&TEP_INSTR)
            .filter(|(_, c)| c.get() > 0)
            .map(|(&n, c)| (n.to_string(), c.get()))
            .collect(),
        histograms,
    }
}

/// Zeroes every well-known instrument.
pub fn reset_all() {
    SCALARS.iter().for_each(|(_, c)| c.reset());
    PER_WORKER.iter().for_each(|(_, w)| w.reset());
    TEP_INSTR.iter().for_each(Counter::reset);
    HISTOGRAMS.iter().for_each(|(_, h)| h.reset());
    PER_WORKER_HISTS.iter().for_each(|(_, h)| h.reset());
}

impl MetricsSnapshot {
    /// The difference between this snapshot and an `earlier` one:
    /// monotonic counters subtract saturating, per-worker slots
    /// element-wise, histograms bucket-wise
    /// ([`HistogramSnapshot::delta`]). Instruments absent from the
    /// earlier snapshot pass through whole, so two scrapes of a live
    /// server compose directly into rates (`delta / dt`).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let scalar = |v: &[(String, u64)], name: &str| {
            v.iter().find(|(n, _)| n == name).map_or(0, |&(_, x)| x)
        };
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(scalar(&earlier.counters, n))))
                .collect(),
            per_worker: self
                .per_worker
                .iter()
                .map(|(n, values)| {
                    let base = earlier.per_worker.iter().find(|(en, _)| en == n);
                    let diffed = values
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            let b = base.and_then(|(_, bv)| bv.get(i)).copied().unwrap_or(0);
                            v.saturating_sub(b)
                        })
                        .collect();
                    (n.clone(), diffed)
                })
                .collect(),
            tep_instr: self
                .tep_instr
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(scalar(&earlier.tep_instr, n))))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|h| match earlier.histograms.iter().find(|eh| eh.name == h.name) {
                    Some(eh) => h.delta(eh),
                    None => h.clone(),
                })
                .filter(|h| h.count > 0)
                .collect(),
        }
    }

    /// Looks up a scalar counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
    }

    /// Looks up a per-worker counter's slot values by name.
    pub fn per_worker_values(&self, name: &str) -> &[u64] {
        self.per_worker
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[][..], |(_, v)| v.as_slice())
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a JSON document (the format
    /// `obs_report` and the bench tooling consume).
    pub fn to_json(&self) -> String {
        self.to_json_with(&[])
    }

    /// [`to_json`](Self::to_json) plus a `gauges` object for
    /// point-in-time values that are not monotonic counters (the
    /// serve-level uptime/connection/queue gauges a wire scrape
    /// carries). The document is versioned: `version` 2 is the first
    /// shape with the key (the PR-4 shape without it reads as v1).
    pub fn to_json_with(&self, gauges: &[(&str, u64)]) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("version").u64(2);
        if !gauges.is_empty() {
            w.key("gauges").begin_object();
            for &(name, v) in gauges {
                w.key(name).u64(v);
            }
            w.end_object();
        }
        w.key("counters").begin_object();
        for (name, v) in &self.counters {
            w.key(name).u64(*v);
        }
        w.end_object();
        w.key("per_worker").begin_object();
        for (name, values) in &self.per_worker {
            w.key(name).begin_array();
            for &v in values {
                w.u64(v);
            }
            w.end_array();
        }
        w.end_object();
        w.key("tep_instr").begin_object();
        for (name, v) in &self.tep_instr {
            w.key(name).u64(*v);
        }
        w.end_object();
        w.key("histograms").begin_object();
        for h in &self.histograms {
            w.key(&h.name).begin_object();
            w.key("count").u64(h.count);
            w.key("sum").u64(h.sum);
            w.key("buckets").begin_array();
            for &(lo, hi, n) in &h.buckets {
                w.begin_object();
                w.key("lo").u64(lo);
                w.key("hi").u64(hi);
                w.key("n").u64(n);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Serialises tests that flip the global flag word.
#[cfg(test)]
pub(crate) fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_ranges_tile_the_domain() {
        assert_eq!(Histogram::bucket_range(0), (0, 0));
        assert_eq!(Histogram::bucket_range(1), (1, 1));
        assert_eq!(Histogram::bucket_range(2), (2, 3));
        assert_eq!(Histogram::bucket_range(64), (1 << 63, u64::MAX));
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert!(lo <= hi);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            if i + 1 < HIST_BUCKETS {
                assert_eq!(hi + 1, Histogram::bucket_range(i + 1).0);
            }
        }
    }

    #[test]
    fn histogram_records_extremes_when_enabled() {
        let _g = super::flag_lock();
        let prev = crate::flags();
        crate::set_flags(crate::METRICS);
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(64), 1);
        // Wrapping sum: 0 + u64::MAX.
        assert_eq!(h.sum(), u64::MAX);
        crate::set_flags(prev);
    }

    #[test]
    fn counter_is_inert_when_disabled() {
        let _g = super::flag_lock();
        let prev = crate::flags();
        crate::set_flags(0);
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 0);
        crate::set_flags(crate::METRICS);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        crate::set_flags(prev);
    }

    #[test]
    fn per_worker_hist_merge_counts_each_slot_once() {
        let _g = super::flag_lock();
        let prev = crate::flags();
        crate::set_flags(crate::METRICS);
        let h = PerWorkerHist::new();
        h.record(0, 1);
        h.record(3, 100);
        // Worker 15 and worker 20 both clamp into the last slot — the
        // merge must count that slot exactly once, never per worker.
        h.record(WORKER_SLOTS - 1, 7);
        h.record(20, 7);
        let m = h.merged("t");
        assert_eq!(m.count, 4);
        assert_eq!(m.buckets.iter().map(|&(_, _, n)| n).sum::<u64>(), m.count);
        assert_eq!(m.sum, 1 + 100 + 7 + 7);
        let shared = m.buckets.iter().find(|&&(lo, hi, _)| lo <= 7 && 7 <= hi).unwrap();
        assert_eq!(shared.2, 2, "clamped workers share one slot, counted once");
        crate::set_flags(prev);
    }

    #[test]
    fn per_worker_hist_merge_count_matches_buckets_under_races() {
        // The consistency contract: even with writers racing the
        // merge, count always equals the sum of the merged buckets.
        let _g = super::flag_lock();
        let prev = crate::flags();
        crate::set_flags(crate::METRICS);
        static H: PerWorkerHist = PerWorkerHist::new();
        H.reset();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for w in 0..4usize {
                let stop = &stop;
                s.spawn(move || {
                    let mut v = 1u64;
                    while !stop.load(Relaxed) {
                        H.record(w, v);
                        v = v.wrapping_mul(7).wrapping_add(1) % 4096;
                    }
                });
            }
            for _ in 0..200 {
                let m = H.merged("race");
                assert_eq!(
                    m.buckets.iter().map(|&(_, _, n)| n).sum::<u64>(),
                    m.count,
                    "merged count must equal the bucket sum"
                );
            }
            stop.store(true, Relaxed);
        });
        H.reset();
        crate::set_flags(prev);
    }

    #[test]
    fn snapshot_delta_composes_into_rates() {
        let earlier = MetricsSnapshot {
            counters: vec![("machine_steps".into(), 100), ("serve_errors".into(), 1)],
            per_worker: vec![("pool_scenarios".into(), vec![10, 20])],
            tep_instr: vec![("ldi".into(), 50)],
            histograms: vec![HistogramSnapshot {
                name: "serve_sim_ns".into(),
                count: 3,
                sum: 12,
                buckets: vec![(2, 3, 2), (4, 7, 1)],
            }],
        };
        let later = MetricsSnapshot {
            counters: vec![("machine_steps".into(), 250), ("serve_errors".into(), 1)],
            // A later snapshot can expose a slot the earlier one
            // trimmed (values() drops trailing zeros).
            per_worker: vec![("pool_scenarios".into(), vec![15, 20, 5])],
            tep_instr: vec![("ldi".into(), 80), ("alu".into(), 4)],
            histograms: vec![HistogramSnapshot {
                name: "serve_sim_ns".into(),
                count: 5,
                sum: 40,
                buckets: vec![(2, 3, 2), (4, 7, 2), (8, 15, 1)],
            }],
        };
        let d = later.delta(&earlier);
        assert_eq!(d.counter("machine_steps"), 150);
        assert_eq!(d.counter("serve_errors"), 0);
        assert_eq!(d.per_worker_values("pool_scenarios"), &[5, 0, 5]);
        assert_eq!(d.tep_instr, vec![("ldi".to_string(), 30), ("alu".to_string(), 4)]);
        let h = d.histogram("serve_sim_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 28);
        assert_eq!(h.buckets, vec![(4, 7, 1), (8, 15, 1)]);
        // Self-delta is empty: counters zero, histograms dropped.
        let zero = later.delta(&later);
        assert_eq!(zero.counter("machine_steps"), 0);
        assert!(zero.histograms.is_empty());
    }

    #[test]
    fn quantile_walks_log2_buckets() {
        let h = HistogramSnapshot {
            name: "q".into(),
            count: 100,
            sum: 0,
            buckets: vec![(1, 1, 50), (2, 3, 40), (1024, 2047, 10)],
        };
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.9), 3);
        assert_eq!(h.quantile(0.99), 2047);
        assert_eq!(h.quantile(1.0), 2047);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_json_parses_and_lists_counters() {
        let _g = super::flag_lock();
        let prev = crate::flags();
        crate::set_flags(crate::METRICS);
        reset_all();
        MEMO_HITS.add(3);
        OPT_STEP_CANDIDATES.record(5);
        flush_tep_instr(&{
            let mut a = [0u64; TEP_KINDS];
            a[1] = 9; // ldi
            a
        });
        let snap = snapshot();
        let doc = crate::json::parse(&snap.to_json()).unwrap();
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("memo_hits")).and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            doc.get("tep_instr").and_then(|c| c.get("ldi")).and_then(|v| v.as_u64()),
            Some(9)
        );
        assert!(doc.get("histograms").and_then(|h| h.get("opt_step_candidates")).is_some());
        reset_all();
        crate::set_flags(prev);
    }
}
