//! `explore_wide`: exhaustive BFS over the gang system's semantic state
//! space, capped at a state count that takes a few seconds, on 2
//! workers at the default gang width. Takes no input from the seed.
//!
//! The frontier is wide (24 input symbols per state), so restore, step,
//! capture, state-key encoding and dedup dominate — the layers of the
//! open question why the wide path is barely faster than scalar.

use crate::probe::{injected_cr_bits, less_clock, put, Layers, MachineLayer, MAX_CR_SAMPLES};
use crate::record::Fnv;
use crate::runner::{RepLog, RunConfig, Stopwatch, Traced, Workload};
use crate::span::Tracer;
use crate::stats::median;
use crate::subject::Subject;
use pscp_core::explore::{alphabet, encode_state, explore, ExploreOptions, ExploreReport};
use pscp_core::machine::{NullEnvironment, PscpMachine, SemanticState};
use pscp_core::serve::wire::encode_explore_report;
use std::collections::HashSet;
use std::time::Instant;

/// States discovered per exploration. The explorer holds a full copy of
/// every frontier state per job (~11 KB each here), so memory grows
/// with the cap: 600 states peak near 220 MB, 1000 near 400 MB.
const MAX_STATES: u64 = 600;
/// Expansion workers.
const THREADS: usize = 2;

fn options(max_states: u64, threads: usize, gang: Option<usize>) -> ExploreOptions {
    let mut o = ExploreOptions {
        max_states,
        threads,
        ..ExploreOptions::default()
    };
    if let Some(g) = gang {
        o.gang = g;
    }
    o
}

pub struct ExploreWide {
    subject: Subject,
    max_states: u64,
    last: Option<ExploreReport>,
}

/// A scalar re-run of the explorer's BFS through the public machine
/// API, timing each call the explorer makes per edge.
#[derive(Default)]
struct Replay {
    /// Every discovered state, in discovery order — each is expanded
    /// under every alphabet symbol, exactly as `explore` does.
    states: Vec<SemanticState>,
    widths: Vec<f64>,
    edges: u64,
    dedup_hits: u64,
    key_bytes: u64,
    restore: Vec<f64>,
    step: Vec<f64>,
    capture: Vec<f64>,
    key: Vec<f64>,
    idle: Vec<f64>,
    fired: Vec<f64>,
}

fn replay_bfs(
    m: &mut PscpMachine<'_>,
    symbols: &[Vec<pscp_statechart::EventId>],
    max_states: u64,
) -> Replay {
    let mut r = Replay::default();
    let root = m.capture();
    let mut visited: HashSet<Vec<u8>> = HashSet::from([encode_state(&root)]);
    r.states.push(root);
    let mut frontier = 0..1;
    while !frontier.is_empty() {
        r.widths.push(frontier.len() as f64);
        let next_start = r.states.len();
        for i in frontier {
            for sym in symbols {
                let t0 = Instant::now();
                m.restore(&r.states[i]);
                let t1 = Instant::now();
                let result = m.step_injected(sym, &mut NullEnvironment);
                let t2 = Instant::now();
                r.edges += 1;
                let Ok(report) = result else { continue };
                let succ = m.capture();
                let t3 = Instant::now();
                let key = encode_state(&succ);
                let t4 = Instant::now();
                r.key_bytes += key.len() as u64;
                for (v, d) in [
                    (&mut r.restore, t1 - t0),
                    (&mut r.step, t2 - t1),
                    (&mut r.capture, t3 - t2),
                    (&mut r.key, t4 - t3),
                ] {
                    v.push(d.as_nanos() as f64);
                }
                if report.fired.is_empty() {
                    &mut r.idle
                } else {
                    &mut r.fired
                }
                .push((t2 - t1).as_nanos() as f64);
                if visited.contains(&key) {
                    r.dedup_hits += 1;
                } else if (visited.len() as u64) < max_states.max(1) {
                    visited.insert(key);
                    r.states.push(succ);
                }
            }
        }
        frontier = next_start..r.states.len();
    }
    r
}

impl Workload for ExploreWide {
    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        Ok(ExploreWide {
            subject: Subject::gang(),
            max_states: if cfg.smoke { 100 } else { MAX_STATES },
            last: None,
        })
    }

    fn inputs_digest(&self) -> String {
        Fnv::default()
            .str(&pscp_statechart::pretty::to_text(&self.subject.chart))
            .u64(self.max_states)
            .hex()
    }

    fn rep(&mut self, log: &mut RepLog, trace: Option<&mut Tracer>) {
        let opts = options(self.max_states, THREADS, None);
        let clock = Stopwatch::start();
        let report = explore(&self.subject.system, &opts);
        let (t0, end) = clock.stop(log);
        if let Some(t) = trace {
            t.record("explore", t0, end);
        }
        log.attempted += 1;
        if !report.faults.is_empty() {
            log.failed += 1;
        }
        log.ops += report.states;
        for (k, v) in [
            ("explore.states", report.states),
            ("explore.edges", report.edges),
            ("explore.dedup_hits", report.dedup_hits),
            ("explore.depth", u64::from(report.depth)),
        ] {
            log.exact.insert(k, v);
        }
        self.last = Some(report);
    }

    fn subject(&self) -> &Subject {
        &self.subject
    }

    fn layers(&mut self, traced: &mut Traced<'_>, out: &mut Layers) {
        let report = self.last.clone().expect("an exploration ran");
        let system = &self.subject.system;
        let symbols = alphabet(system);
        let clock = traced.clock_ns;
        let mut m = PscpMachine::new(system);

        traced.tracer.begin("probe.replay_bfs");
        let r = replay_bfs(&mut m, &symbols, self.max_states);
        traced.tracer.end();
        if (r.states.len() as u64, r.edges, r.dedup_hits)
            != (report.states, report.edges, report.dedup_hits)
        {
            traced.problems.push(format!(
                "scalar BFS replay found {} states / {} edges / {} dedup hits, explore reported {} / {} / {}",
                r.states.len(),
                r.edges,
                r.dedup_hits,
                report.states,
                report.edges,
                report.dedup_hits
            ));
        }
        let edges = r.edges.max(1);
        put(out, "explore.states", report.states as f64, "count", 1);
        put(out, "explore.edges", report.edges as f64, "count", 1);
        put(
            out,
            "explore.dedup_ratio",
            report.dedup_hits as f64 / report.edges.max(1) as f64,
            "ratio",
            report.edges,
        );
        let [restore, step, capture, key] =
            [&r.restore, &r.step, &r.capture, &r.key].map(|v| less_clock(v, clock));
        put(out, "explore.restore_ns", restore, "ns", edges);
        put(out, "explore.step_ns", step, "ns", edges);
        put(out, "explore.capture_ns", capture, "ns", edges);
        put(out, "explore.key_ns", key, "ns", edges);
        put(
            out,
            "explore.key_bytes",
            r.key_bytes as f64 / edges as f64,
            "bytes",
            edges,
        );
        // End to end per edge, untraced. Restore, step and capture run
        // on the pool's workers, so their share of wall time is divided
        // by the worker count; key encoding and dedup run in the
        // explorer's sequential merge.
        let ns_per_edge =
            1e9 * report.states as f64 / (traced.untraced_ops_per_s * report.edges.max(1) as f64);
        put(out, "explore.ns_per_edge", ns_per_edge, "ns", edges);
        put(
            out,
            "explore.other_ns_per_edge",
            ns_per_edge - (restore + step + capture) / THREADS as f64 - key,
            "ns",
            edges,
        );
        put(
            out,
            "explore.frontier_p50",
            median(&r.widths).unwrap_or(f64::NAN),
            "count",
            r.widths.len() as u64,
        );

        traced.tracer.begin("probe.explore_scalar");
        let t0 = Instant::now();
        let scalar = explore(system, &options(self.max_states, 1, Some(1)));
        let scalar_s = t0.elapsed().as_secs_f64();
        traced.tracer.end();
        let wide_s = report.states as f64 / traced.untraced_ops_per_s;
        put(out, "explore.wide_vs_scalar", scalar_s / wide_s, "ratio", 1);
        drop(scalar);

        // The universal configuration-cycle metrics: one cycle is one
        // restore plus one injected step.
        let mut layer = MachineLayer {
            idle_ns: r.idle,
            fired_ns: r.fired,
            ..MachineLayer::default()
        };
        let start = Instant::now();
        for st in &r.states {
            for sym in &symbols {
                m.restore(st);
                if let Ok(rep) = m.step_injected(sym, &mut NullEnvironment) {
                    layer.cycles += 1;
                    layer.fired_cycles += u64::from(!rep.fired.is_empty());
                }
            }
        }
        layer.loop_ns = start.elapsed().as_nanos() as f64;
        let stride = (layer.cycles / MAX_CR_SAMPLES).max(1);
        let prev = pscp_obs::flags();
        pscp_obs::set_flags(pscp_obs::METRICS);
        let before: u64 = pscp_obs::metrics::TEP_INSTR.iter().map(|c| c.get()).sum();
        let mut k = 0u64;
        for st in &r.states {
            for sym in &symbols {
                m.restore(st);
                if k.is_multiple_of(stride) && (layer.cr_bits.len() as u64) < MAX_CR_SAMPLES {
                    layer.cr_bits.push(injected_cr_bits(&m, sym));
                }
                k += 1;
                let _ = m.step_injected(sym, &mut NullEnvironment);
            }
        }
        // The TEP folds its instruction counts into the counters on reset.
        m.reset();
        layer.tep_instr = pscp_obs::metrics::TEP_INSTR
            .iter()
            .map(|c| c.get())
            .sum::<u64>()
            - before;
        pscp_obs::set_flags(prev);
        layer.insert(system, clock, out);
    }

    fn verify(&mut self) -> Result<String, String> {
        let wide = self.last.as_ref().ok_or("no exploration ran")?;
        let scalar = explore(&self.subject.system, &options(self.max_states, 1, Some(1)));
        let (a, b) = (encode_explore_report(wide), encode_explore_report(&scalar));
        if a != b {
            return Err("the wide report differs from the 1-worker scalar report".into());
        }
        Ok(Fnv::default().bytes(&a).hex())
    }
}
