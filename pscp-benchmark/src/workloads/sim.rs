//! The machinery the three simulation workloads share: batches of
//! scenarios through one `SimPool` (2 workers, default gang width),
//! checked against the scalar one-worker oracle.
//!
//! Their unit of work is the simulated configuration cycle, so
//! `ops_per_cpu_s` is simulated cycles per host CPU second and stays
//! comparable across seeds whose scenarios differ in length.

use crate::probe::{put, replay_envs, Layers};
use crate::record::Fnv;
use crate::runner::{RepLog, RunConfig, Stopwatch, Traced, Workload};
use crate::span::Tracer;
use crate::subject::Subject;
use crate::workloads::{count_outcomes, outcomes_digest, pool_layers};
use pscp_core::machine::{CycleReport, Environment, PscpMachine};
use pscp_core::pool::{BatchOptions, BatchOutcome, SimPool};
use std::marker::PhantomData;
use std::time::Instant;

/// Pool workers.
pub const THREADS: usize = 2;
/// Scenarios of a repetition the verify step checks against the oracle.
pub const VERIFY_SCENARIOS: usize = 16;

/// A scenario's stop predicate.
pub type Done<E> = Box<dyn Fn(&PscpMachine<'_>, &E, &CycleReport) -> bool + Send + Sync>;

/// What a simulation workload runs.
pub struct SimSetup<E> {
    pub subject: Subject,
    /// Scenarios per repetition, in submission order.
    pub scenarios: usize,
    /// Builds scenario `i`'s environment (untimed, just before its
    /// batch runs).
    pub env: Box<dyn Fn(usize) -> E + Send + Sync>,
    pub inputs_digest: String,
    /// Scenarios per `run_batch` call.
    pub batch: usize,
    pub limits: BatchOptions,
    pub done: Done<E>,
    /// Scenarios the configuration-cycle replay steps through.
    pub replay: usize,
}

/// A simulation workload's inputs and checks.
pub trait SimInputs {
    type Env: Environment + Clone + Send;
    /// Builds the system, the scenarios and their limits.
    fn build(cfg: &RunConfig) -> SimSetup<Self::Env>;
    /// Whether a scenario ran to its intended end.
    fn completed(o: &BatchOutcome<Self::Env>) -> bool {
        o.error.is_none()
    }
    /// Folds what the environment observed into a digest.
    fn env_digest(env: &Self::Env, h: Fnv) -> Fnv;
}

/// A simulation workload over inputs `S`.
pub struct Sim<S: SimInputs> {
    setup: SimSetup<S::Env>,
    pool: SimPool,
    /// Digest of the first [`VERIFY_SCENARIOS`] outcomes of the
    /// warm-up repetition, checked against the oracle by `verify`.
    warm_digest: Option<String>,
    _inputs: PhantomData<S>,
}

impl<S: SimInputs> Sim<S> {
    fn envs(&self, range: std::ops::Range<usize>) -> Vec<S::Env> {
        range.map(&self.setup.env).collect()
    }

    fn batches(&self) -> impl Iterator<Item = std::ops::Range<usize>> {
        let (n, b) = (self.setup.scenarios, self.setup.batch);
        (0..n).step_by(b).map(move |a| a..(a + b).min(n))
    }

    fn run(&self, pool: &SimPool, envs: Vec<S::Env>) -> Vec<BatchOutcome<S::Env>> {
        let done = &self.setup.done;
        pool.run_batch_until(
            &self.setup.subject.system,
            envs,
            &self.setup.limits,
            |m, e, r| done(m, e, r),
        )
    }

    fn digest(outcomes: &[BatchOutcome<S::Env>]) -> String {
        let mut h = Fnv::default().str(&outcomes_digest(outcomes));
        for o in outcomes {
            h = S::env_digest(&o.env, h);
        }
        h.hex()
    }

    /// Seconds to run one repetition at one gang width.
    fn time_at_gang(&self, gang: usize) -> f64 {
        let pool = SimPool::with_threads(THREADS).with_gang(gang);
        let mut secs = 0.0;
        for range in self.batches() {
            let envs = self.envs(range);
            let t = Instant::now();
            drop(self.run(&pool, envs));
            secs += t.elapsed().as_secs_f64();
        }
        secs
    }
}

impl<S: SimInputs> Workload for Sim<S> {
    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        Ok(Sim {
            setup: S::build(cfg),
            pool: SimPool::with_threads(THREADS),
            warm_digest: None,
            _inputs: PhantomData,
        })
    }

    fn inputs_digest(&self) -> String {
        self.setup.inputs_digest.clone()
    }

    fn rep(&mut self, log: &mut RepLog, mut trace: Option<&mut Tracer>) {
        for range in self.batches() {
            let envs = self.envs(range);
            let clock = Stopwatch::start();
            let out = self.run(&self.pool, envs);
            let (t0, end) = clock.stop(log);
            if let Some(t) = trace.as_deref_mut() {
                t.record("sim.run_batch", t0, end);
            }
            count_outcomes(log, &out);
            log.failed += out
                .iter()
                .filter(|o| o.error.is_none() && !S::completed(o))
                .count() as u64;
            log.ops += out.iter().map(|o| o.stats.config_cycles).sum::<u64>();
            if self.warm_digest.is_none() {
                // The first repetition is the untimed warm-up: its
                // outputs are the ones verify checks.
                self.warm_digest = Some(Self::digest(&out[..VERIFY_SCENARIOS.min(out.len())]));
            }
        }
    }

    fn subject(&self) -> &Subject {
        &self.setup.subject
    }

    fn layers(&mut self, traced: &mut Traced<'_>, out: &mut Layers) {
        let widths = [1, 8, 64].map(|w| {
            traced.tracer.begin("probe.gang_width");
            let secs = self.time_at_gang(w);
            traced.tracer.end();
            secs
        });
        put(out, "gang.speedup_w8", widths[0] / widths[1], "ratio", 1);
        put(out, "gang.speedup_w64", widths[0] / widths[2], "ratio", 1);
        let envs = self.envs(0..self.setup.replay.min(self.setup.scenarios));
        let system = &self.setup.subject.system;
        let done = &self.setup.done;
        traced.tracer.begin("probe.machine_replay");
        replay_envs(system, &envs, &self.setup.limits, |m, e, r| done(m, e, r)).insert(
            system,
            traced.clock_ns,
            out,
        );
        traced.tracer.end();
        // After the replay: the exact fired-cycle ratio of a whole
        // repetition replaces the replayed subset's.
        pool_layers(traced, out);
    }

    fn verify(&mut self) -> Result<String, String> {
        let warm = self.warm_digest.clone().ok_or("no repetition ran")?;
        let n = VERIFY_SCENARIOS
            .min(self.setup.batch)
            .min(self.setup.scenarios);
        let oracle = self.run(&SimPool::with_threads(1).with_gang(1), self.envs(0..n));
        if let Some(i) = oracle.iter().position(|o| !S::completed(o)) {
            return Err(format!("oracle scenario {i} did not complete"));
        }
        let expected = Self::digest(&oracle);
        if warm != expected {
            return Err(format!(
                "pool outcomes (digest {warm}) differ from the scalar oracle (digest {expected})"
            ));
        }
        Ok(expected)
    }
}
