//! The six workloads. Each takes its inputs from the run seed through
//! [`SplitMix64`](crate::rng::SplitMix64) (`dse_beam2` and
//! `explore_wide` take none), does a fixed amount of work per
//! repetition, and checks its outputs against an oracle afterwards.

pub mod cosim;
pub mod dse;
pub mod explore;
pub mod gang;
pub mod scripted;
pub mod serve;
pub mod sim;

use crate::probe::{put, Layers};
use crate::record::{Fnv, WorkloadResult};
use crate::rng::SplitMix64;
use crate::runner::{run, RepLog, RunConfig, Traced};
use pscp_core::machine::{MachineStats, ScriptedEnvironment};
use pscp_core::pool::BatchOutcome;

/// Runs the named workload in this process; `None` for a name no
/// workload has. `BENCHMARK.json` lists the workloads a run covers.
pub fn run_named(name: &str, cfg: &RunConfig) -> Option<WorkloadResult> {
    Some(match name {
        "dse_beam2" => run::<dse::DseBeam2>(name, cfg),
        "cosim_plant" => run::<cosim::CosimPlant>(name, cfg),
        "scripted_dense" => run::<scripted::ScriptedDense>(name, cfg),
        "gang_sparse" => run::<gang::GangSparse>(name, cfg),
        "serve_mix" => run::<serve::ServeMix>(name, cfg),
        "explore_wide" => run::<explore::ExploreWide>(name, cfg),
        _ => return None,
    })
}

/// Seeded event scripts, kept sparse: per script its row count and the
/// rows that raise anything, one bit per event. A `ScriptedEnvironment`
/// row of event names costs a hundred bytes; here an idle row costs
/// nothing, so a repetition's inputs stay small and each batch builds
/// its environments just before it runs.
#[derive(Debug, Clone)]
pub struct Scripts {
    /// Bit `i` of a mask raises `events[i]`.
    events: Vec<String>,
    /// `(rows, [(row, mask)])` per script, rows ascending.
    scripts: Vec<(usize, Vec<(u32, u32)>)>,
}

impl Scripts {
    /// No scripts yet, over at most 32 events.
    pub fn new(events: Vec<String>) -> Self {
        assert!(events.len() <= 32, "a mask holds at most 32 events");
        Scripts {
            events,
            scripts: Vec::new(),
        }
    }

    /// Appends a script of `rows` rows whose non-empty rows are `marks`
    /// (`(row, mask)`, rows ascending and below `rows`).
    pub fn push(&mut self, rows: usize, marks: Vec<(u32, u32)>) {
        debug_assert!(
            marks.windows(2).all(|w| w[0].0 < w[1].0)
                && marks.last().is_none_or(|m| (m.0 as usize) < rows)
        );
        self.scripts.push((rows, marks));
    }

    /// Script `i` as event names, row by row.
    pub fn script(&self, i: usize) -> Vec<Vec<String>> {
        let (rows, marks) = &self.scripts[i];
        let mut out = vec![Vec::new(); *rows];
        for &(row, mask) in marks {
            out[row as usize] = (0..self.events.len())
                .filter(|b| mask >> b & 1 == 1)
                .map(|b| self.events[b].clone())
                .collect();
        }
        out
    }

    /// Script `i` as an environment.
    pub fn env(&self, i: usize) -> ScriptedEnvironment {
        ScriptedEnvironment::new(self.script(i))
    }

    /// Digest of the event table and every script.
    pub fn digest(&self) -> String {
        let mut h = self
            .events
            .iter()
            .fold(Fnv::default(), |h, e| h.str(e))
            .u64(self.scripts.len() as u64);
        for (rows, marks) in &self.scripts {
            h = marks
                .iter()
                .fold(h.u64(*rows as u64).u64(marks.len() as u64), |h, &(r, m)| {
                    h.u64(u64::from(r)).u64(u64::from(m))
                });
        }
        h.hex()
    }
}

/// Dense event scripts: row 0 powers the controller up, then every
/// `(event, probability)` pair lands in each row independently.
pub fn dense_scripts(
    rng: &mut SplitMix64,
    scenarios: usize,
    mut rows: impl FnMut(&mut SplitMix64) -> usize,
    events: &[(&str, f64)],
) -> Scripts {
    let names = std::iter::once("POWER")
        .chain(events.iter().map(|&(e, _)| e))
        .map(String::from)
        .collect();
    let mut out = Scripts::new(names);
    for _ in 0..scenarios {
        let n = rows(rng);
        let marks = (0..n as u32)
            .map(|r| {
                let power = u32::from(r == 0);
                (
                    r,
                    events.iter().enumerate().fold(power, |m, (b, &(_, p))| {
                        m | u32::from(rng.chance(p)) << (b + 1)
                    }),
                )
            })
            .filter(|&(_, m)| m != 0)
            .collect();
        out.push(n, marks);
    }
    out
}

/// Folds the simulated counts of a batch's outcomes into a repetition
/// log: one operation per scenario, failed when it faulted.
pub fn count_outcomes<E>(log: &mut RepLog, outcomes: &[BatchOutcome<E>]) {
    for o in outcomes {
        log.attempted += 1;
        if o.error.is_some() {
            log.failed += 1;
        }
        *log.exact.entry("sim.scenarios").or_default() += 1;
        *log.exact.entry("sim.config_cycles").or_default() += o.stats.config_cycles;
        *log.exact.entry("sim.fired_cycles").or_default() +=
            o.reports.iter().filter(|r| !r.fired.is_empty()).count() as u64;
        *log.exact.entry("sim.clock_cycles").or_default() += o.clock_cycles;
        *log.exact.entry("sim.transitions").or_default() += o.stats.transitions;
        *log.exact.entry("sim.tep_busy_cycles").or_default() +=
            o.stats.tep_busy.iter().sum::<u64>();
    }
}

/// Digest of outcomes: every report, the statistics and the clock.
pub fn outcomes_digest<E>(outcomes: &[BatchOutcome<E>]) -> String {
    let mut h = Fnv::default();
    for o in outcomes {
        h = h.u64(o.reports.len() as u64).u64(o.clock_cycles);
        for r in &o.reports {
            h = h.u64(r.cycle_length).u64(r.fired.len() as u64);
            for t in &r.fired {
                h = h.u64(t.index() as u64);
            }
            for &c in &r.transition_cycles {
                h = h.u64(c);
            }
        }
        h = stats_digest(h, &o.stats);
        h = h.str(&o.error.as_ref().map(|e| e.to_string()).unwrap_or_default());
    }
    h.hex()
}

fn stats_digest(h: Fnv, s: &MachineStats) -> Fnv {
    let mut h = h
        .u64(s.config_cycles)
        .u64(s.transitions)
        .u64(s.clock_cycles)
        .u64(s.max_cycle_length);
    for &b in &s.tep_busy {
        h = h.u64(b);
    }
    h
}

/// Layer metrics every simulation workload reads off the traced pass:
/// the exact cycle counts of a repetition, pool balance from the
/// per-worker step counters, SLA network evaluations and modelled TEP
/// occupancy per cycle.
pub fn pool_layers(traced: &Traced<'_>, out: &mut Layers) {
    let rep = &traced.logs[0];
    let (cycles, fired) = (
        rep.count("sim.config_cycles"),
        rep.count("sim.fired_cycles"),
    );
    put(out, "machine.cycles_per_rep", cycles as f64, "count", 1);
    put(
        out,
        "machine.fired_cycle_ratio",
        fired as f64 / cycles.max(1) as f64,
        "ratio",
        cycles,
    );
    let steps = traced.counters.per_worker_values("pool_steps");
    let busy: Vec<f64> = steps.iter().take(sim::THREADS).map(|&s| s as f64).collect();
    if let (Some(max), Some(mean)) = (
        busy.iter().copied().reduce(f64::max),
        crate::stats::mean(&busy),
    ) {
        put(
            out,
            "pool.worker_imbalance",
            max / mean,
            "ratio",
            busy.len() as u64,
        );
    }
    let idle_polls: u64 = traced
        .counters
        .per_worker_values("pool_idle_polls")
        .iter()
        .sum();
    let reps = traced.logs.len().max(1) as f64;
    put(
        out,
        "pool.idle_polls",
        idle_polls as f64 / reps,
        "count",
        traced.logs.len() as u64,
    );
    let cycles: u64 = traced
        .logs
        .iter()
        .map(|l| l.count("sim.config_cycles"))
        .sum();
    let evals = traced.counters.counter("sla_net_evals");
    put(
        out,
        "sla.net_evals_per_cycle",
        evals as f64 / cycles.max(1) as f64,
        "1/cycle",
        cycles,
    );
    let clock: u64 = traced
        .logs
        .iter()
        .map(|l| l.count("sim.clock_cycles"))
        .sum();
    let busy: u64 = traced
        .logs
        .iter()
        .map(|l| l.count("sim.tep_busy_cycles"))
        .sum();
    put(
        out,
        "tep.busy_per_cycle",
        busy as f64 / clock.max(1) as f64,
        "ratio",
        clock,
    );
}
