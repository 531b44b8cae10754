//! `dse_beam2`: design-space exploration from the minimal architecture
//! until a two-head pickup controller meets its timing constraints.
//!
//! The smallest beam that still closes (14 steps): heads 3–6 exhaust
//! the step budget unsatisfied, and one head is dominated by fixed
//! costs. Compile, WCET and timing validation do all the work;
//! simulation does none. Takes no input from the seed.

use crate::probe::{put, replay_envs, Layers};
use crate::record::{Fnv, Value};
use crate::rng::SplitMix64;
use crate::runner::{RepLog, RunConfig, Stopwatch, Traced, Workload};
use crate::span::Tracer;
use crate::stats::{mean, median, tail_percentile};
use crate::subject::Subject;
use crate::workloads::dense_scripts;
use pscp_action_lang::ir::Program;
use pscp_core::arch::PscpArch;
use pscp_core::machine::ScriptedEnvironment;
use pscp_core::optimize::{optimize, MemoPersistence, OptimizationResult, OptimizeOptions};
use pscp_core::pool::BatchOptions;
use pscp_statechart::Chart;
use pscp_tep::codegen::CodegenOptions;
use std::collections::BTreeMap;

/// Parallel pickup heads on the beam.
const HEADS: usize = 2;
/// Solves per repetition. A process pools the 1000 solves its p99 needs
/// when its timed phase lasts 17–26 s on the reference host, as in a
/// traced run (one process) with `--seconds 30`.
const SOLVES_PER_REP: usize = 20;
/// Candidate-evaluation workers.
const THREADS: usize = 2;
/// Seeded scripts the traced pass replays on the chosen system.
const REPLAY_SCRIPTS: usize = 64;

fn options(incremental: bool) -> OptimizeOptions {
    OptimizeOptions {
        threads: Some(THREADS),
        incremental,
        verify_incremental: false,
        memo: MemoPersistence::Disabled,
        ..OptimizeOptions::default()
    }
}

/// The identity of a solve's outcome: steps, final area and the sum of
/// the final worst cycles.
fn signature(r: &OptimizationResult) -> [u64; 3] {
    let last = r
        .history
        .last()
        .expect("history starts with the initial compile");
    [
        r.history.len() as u64,
        u64::from(last.area_clbs),
        last.worst_by_event.values().sum(),
    ]
}

pub struct DseBeam2 {
    chart: Chart,
    ir: Program,
    subject: Subject,
    solves: usize,
    seed: u64,
    last: Option<OptimizationResult>,
}

impl Workload for DseBeam2 {
    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let (chart, ir) = pscp_bench::multi_head_inputs(HEADS);
        let subject = Subject::compile(
            chart.clone(),
            ir.clone(),
            PscpArch::minimal(),
            CodegenOptions::default(),
        );
        Ok(DseBeam2 {
            chart,
            ir,
            subject,
            solves: if cfg.smoke { 2 } else { SOLVES_PER_REP },
            seed: cfg.seed,
            last: None,
        })
    }

    fn inputs_digest(&self) -> String {
        Fnv::default()
            .str(&pscp_statechart::pretty::to_text(&self.chart))
            .str(&format!("{:?}", self.ir))
            .hex()
    }

    fn rep(&mut self, log: &mut RepLog, mut trace: Option<&mut Tracer>) {
        let opts = options(true);
        let mut first: Option<[u64; 3]> = None;
        for _ in 0..self.solves {
            if let Some(t) = trace.as_deref_mut() {
                t.begin("optimize");
            }
            let clock = Stopwatch::start();
            let r = optimize(&self.chart, &self.ir, &PscpArch::minimal(), &opts);
            let (t0, end) = clock.stop(log);
            let secs = (end - t0).as_secs_f64();
            log.series
                .entry("dse.solve_ms")
                .or_default()
                .push(secs * 1e3);
            if let Some(t) = trace.as_deref_mut() {
                t.end();
            }
            log.attempted += 1;
            match r {
                Ok(r) if r.satisfied && first.is_none_or(|f| f == signature(&r)) => {
                    let sig = signature(&r);
                    first = Some(sig);
                    log.ops += 1;
                    for (k, v) in ["dse.history_steps", "dse.area_clbs", "dse.worst_cycle_sum"]
                        .into_iter()
                        .zip(sig)
                    {
                        log.exact.insert(k, v);
                    }
                    self.last = Some(r);
                }
                _ => log.failed += 1,
            }
        }
    }

    fn summarize(&self, logs: &[RepLog], metrics: &mut BTreeMap<String, Value>) {
        let solves = RepLog::pooled(logs, "dse.solve_ms");
        let n = solves.len() as u64;
        let p50 = median(&solves).unwrap_or(f64::NAN);
        metrics.insert("dse.solve_p50_ms".into(), Value::new(p50, "ms", n));
        if let Some(p99) = tail_percentile(&solves, 0.99) {
            metrics.insert("dse.solve_p99_ms".into(), Value::new(p99, "ms", n));
        }
    }

    fn subject(&self) -> &Subject {
        &self.subject
    }

    fn layers(&mut self, traced: &mut Traced<'_>, out: &mut Layers) {
        let c = traced.counters;
        let solves: u64 = traced.logs.iter().map(|l| l.attempted).sum();
        let runs = solves.max(1) as f64;
        let candidates = c.counter("opt_candidates");
        let compiled = c
            .histogram("opt_candidate_compile_ns")
            .map_or(0, |h| h.count)
            .max(1) as f64;
        let (compile_ns, validate_ns) = (c.counter("opt_compile_ns"), c.counter("opt_validate_ns"));
        let solve_ms = RepLog::pooled(traced.logs, "dse.solve_ms");
        put(
            out,
            "optimize.candidates_per_run",
            candidates as f64 / runs,
            "count",
            solves,
        );
        put(
            out,
            "optimize.compile_us_per_candidate",
            compile_ns as f64 / compiled / 1e3,
            "us",
            compiled as u64,
        );
        put(
            out,
            "optimize.validate_us_per_candidate",
            validate_ns as f64 / compiled / 1e3,
            "us",
            compiled as u64,
        );
        // Candidate compile and validation run on the worker pool, so
        // their summed time is shared out over the workers.
        let candidate_ms = (compile_ns + validate_ns) as f64 / runs / THREADS as f64 / 1e6;
        put(
            out,
            "optimize.other_ms_per_run",
            mean(&solve_ms).unwrap_or(f64::NAN) - candidate_ms,
            "ms",
            solves,
        );
        let (hits, misses) = (
            c.counter("compile_cache_hits"),
            c.counter("compile_cache_misses"),
        );
        put(
            out,
            "codegen.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            hits + misses,
        );
        let (repriced, copied) = (c.counter("cycles_repriced"), c.counter("cycles_copied"));
        put(
            out,
            "timing.repriced_ratio",
            repriced as f64 / (repriced + copied).max(1) as f64,
            "ratio",
            repriced + copied,
        );
        put(
            out,
            "timing.full_fallbacks",
            c.counter("revalidate_full_fallbacks") as f64 / runs,
            "count",
            solves,
        );

        // The configuration-cycle layers on the system the exploration
        // chose, under seeded scripts over its external events.
        let system = &self.last.as_ref().expect("a solve succeeded").system;
        let chart = &system.chart;
        let events: Vec<(&str, f64)> = chart
            .event_ids()
            .filter(|&e| !chart.event(e).internal && chart.event(e).name != "POWER")
            .map(|e| (chart.event(e).name.as_str(), 0.08))
            .collect();
        let mut rng = SplitMix64::derive(self.seed, "dse_beam2.replay");
        let scripts = dense_scripts(&mut rng, REPLAY_SCRIPTS, |_| 256, &events);
        let envs: Vec<ScriptedEnvironment> = (0..REPLAY_SCRIPTS).map(|i| scripts.env(i)).collect();
        let limits = BatchOptions {
            deadline: u64::MAX,
            max_steps: 256,
        };
        replay_envs(system, &envs, &limits, |_, _, _| false).insert(system, traced.clock_ns, out);
    }

    fn verify(&mut self) -> Result<String, String> {
        let inc = self.last.as_ref().ok_or("no solve succeeded")?;
        if !inc.satisfied {
            return Err("the incremental solve did not close timing".into());
        }
        let full = optimize(&self.chart, &self.ir, &PscpArch::minimal(), &options(false))
            .map_err(|e| format!("full solve failed: {e}"))?;
        if inc.history != full.history || inc.timing != full.timing {
            return Err("incremental and full solves disagree on history or timing".into());
        }
        Ok(Fnv::default()
            .str(&format!("{:?}{:?}", inc.history, inc.timing))
            .hex())
    }
}
