//! Per-layer probes for the traced run.
//!
//! Every probe calls a layer's public functions from the benchmark and
//! times them there; nothing is instrumented inside the program. The
//! stage probes re-run each compile layer on the workload's own system;
//! the machine probe replays the workload's own scenarios on one scalar
//! machine, step by step.

use crate::record::Value;
use crate::stats::iq_mean;
use crate::subject::Subject;
use pscp_core::compile::{
    chart_env, compile_system_from_ir, compile_system_with, CompiledSystem, SystemArtifacts,
};
use pscp_core::diag::compile_sources;
use pscp_core::machine::{CycleReport, Environment, PscpMachine};
use pscp_core::pool::BatchOptions;
use pscp_core::timing::{transition_costs, wcet_report, TimingGraph, TimingOptions};
use pscp_sla::gang::{pack_lanes, GangScratch, GangSim, GANG_WIDTH};
use pscp_sla::sim::{SlaScratch, SlaSim};
use pscp_tep::codegen::{CodegenCache, CodegenOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Layer metrics by name.
pub type Layers = BTreeMap<String, Value>;

/// Inserts one layer metric.
pub fn put(out: &mut Layers, name: &str, value: f64, unit: &str, samples: u64) {
    out.insert(name.to_string(), Value::new(value, unit, samples));
}

/// Cost of reading the clock twice back to back (interquartile mean),
/// in ns — taken off every single-call timing.
pub fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    iq_mean(&samples).unwrap_or(0.0)
}

/// Times `f` call by call until `budget` has elapsed and at least
/// `min_calls` ran; per-call nanoseconds.
pub fn sample_calls<R>(budget: Duration, min_calls: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_calls || start.elapsed() < budget {
        let t = Instant::now();
        black_box(f());
        out.push(t.elapsed().as_nanos() as f64);
    }
    out
}

const STAGE_BUDGET: Duration = Duration::from_millis(60);

fn iq_mean_us(samples: &[f64]) -> f64 {
    iq_mean(samples).unwrap_or(f64::NAN) / 1e3
}

/// Times every compile layer on `s`: chart parse, chart artifacts (CR
/// layout + SLA synthesis), codegen cold and against a primed cache,
/// WCET, timing-graph build, and a dirty-set revalidation for a
/// one-component architecture change; where the action source is known
/// also the action-language compile and the whole source-to-system
/// compile a served `Compile` runs.
pub fn stage_probe(s: &Subject, out: &mut Layers) {
    let text = pscp_statechart::pretty::to_text(&s.chart);
    let timing = TimingOptions::default();
    let stage = |out: &mut Layers, name: &str, samples: Vec<f64>| {
        let n = samples.len() as u64;
        put(out, name, iq_mean_us(&samples), "us", n);
    };

    stage(
        out,
        "stage.parse_us",
        sample_calls(STAGE_BUDGET, 5, || {
            pscp_statechart::parse::parse_chart(&text).expect("chart text round-trips")
        }),
    );
    if let Some(actions) = &s.actions {
        let env = chart_env(&s.chart);
        stage(
            out,
            "stage.actions_us",
            sample_calls(STAGE_BUDGET, 5, || {
                pscp_action_lang::compile_with_env(actions, &env).expect("actions compile")
            }),
        );
        let sources = sample_calls(STAGE_BUDGET, 5, || {
            let mut sink = pscp_diag::DiagnosticSink::new();
            compile_sources(
                &text,
                actions,
                &s.system.arch,
                &CodegenOptions::default(),
                &mut sink,
            )
            .expect("sources compile")
        });
        put(
            out,
            "stage.compile_sources_ms",
            iq_mean(&sources).unwrap_or(f64::NAN) / 1e6,
            "ms",
            sources.len() as u64,
        );
    }
    stage(
        out,
        "stage.artifacts_us",
        sample_calls(STAGE_BUDGET, 5, || {
            SystemArtifacts::build(&s.chart, s.arch.encoding)
        }),
    );
    stage(
        out,
        "stage.codegen_cold_us",
        sample_calls(STAGE_BUDGET, 5, || {
            compile_system_from_ir(&s.chart, &s.ir, &s.arch, &s.opts).expect("compiles")
        }),
    );
    let artifacts = SystemArtifacts::build(&s.chart, s.arch.encoding);
    let cache = CodegenCache::with_enabled(true);
    compile_system_with(&artifacts, &s.ir, &s.arch, &s.opts, Some(&cache))
        .expect("primes the cache");
    stage(
        out,
        "stage.codegen_warm_us",
        sample_calls(STAGE_BUDGET, 5, || {
            compile_system_with(&artifacts, &s.ir, &s.arch, &s.opts, Some(&cache))
                .expect("compiles")
        }),
    );
    stage(
        out,
        "stage.wcet_us",
        sample_calls(STAGE_BUDGET, 5, || wcet_report(&s.system, &timing)),
    );
    stage(
        out,
        "stage.timing_graph_us",
        sample_calls(STAGE_BUDGET, 5, || TimingGraph::build(&s.system, &timing)),
    );

    // A DSE-shaped revalidation: the base evaluation of this system,
    // re-priced for the same chart with the multiply/divide unit flipped.
    let graph = TimingGraph::build(&s.system, &timing);
    let base = graph.evaluate(
        transition_costs(&s.system, &wcet_report(&s.system, &timing)),
        s.arch.n_teps,
    );
    let mut cand_arch = s.arch.clone();
    cand_arch.tep.calc.muldiv = !cand_arch.tep.calc.muldiv;
    let cand =
        compile_system_from_ir(&s.chart, &s.ir, &cand_arch, &s.opts).expect("candidate compiles");
    let cand_costs = transition_costs(&cand, &wcet_report(&cand, &timing));
    stage(
        out,
        "stage.revalidate_us",
        sample_calls(STAGE_BUDGET, 5, || {
            graph.revalidate(&base, cand_costs.clone(), cand_arch.n_teps)
        }),
    );
}

/// Raw material of the configuration-cycle layer metrics.
#[derive(Debug, Clone, Default)]
pub struct MachineLayer {
    /// Single idle / firing step calls, ns, clock overhead included.
    pub idle_ns: Vec<f64>,
    pub fired_ns: Vec<f64>,
    /// Whole-loop host time and the cycles it ran.
    pub loop_ns: f64,
    pub cycles: u64,
    pub fired_cycles: u64,
    /// TEP instructions executed over `cycles` (obs `TEP_INSTR`).
    pub tep_instr: u64,
    /// Environment self time over `cycles` and the environment calls it
    /// timed, when there is an environment.
    pub env_ns: Option<f64>,
    pub env_calls: u64,
    /// CR bit vectors sampled from the replay, for the SLA probes.
    pub cr_bits: Vec<Vec<bool>>,
}

/// CR snapshots kept per replay for the SLA probes.
pub const MAX_CR_SAMPLES: u64 = 4096;

impl MachineLayer {
    /// Writes the universal configuration-cycle metrics.
    pub fn insert(&self, system: &CompiledSystem, clock_ns: f64, out: &mut Layers) {
        let cycles = self.cycles.max(1) as f64;
        put(
            out,
            "machine.step_idle_ns",
            less_clock(&self.idle_ns, clock_ns),
            "ns",
            self.idle_ns.len() as u64,
        );
        put(
            out,
            "machine.step_fired_ns",
            less_clock(&self.fired_ns, clock_ns),
            "ns",
            self.fired_ns.len() as u64,
        );
        put(
            out,
            "machine.host_ns_per_cycle",
            self.loop_ns / cycles,
            "ns",
            self.cycles,
        );
        put(
            out,
            "machine.fired_cycle_ratio",
            self.fired_cycles as f64 / cycles,
            "ratio",
            self.cycles,
        );
        put(
            out,
            "tep.instr_per_cycle",
            self.tep_instr as f64 / cycles,
            "1/cycle",
            self.cycles,
        );
        if let Some(env_ns) = self.env_ns {
            let own = (env_ns - self.env_calls as f64 * clock_ns).max(0.0);
            put(out, "env.ns_per_cycle", own / cycles, "ns", self.cycles);
        }
        let (scalar, gang) = sla_probes(system, &self.cr_bits);
        let n = self.cr_bits.len() as u64;
        put(out, "sla.scalar_probe_ns", scalar, "ns", n);
        put(out, "sla.gang_probe_ns_per_lane", gang, "ns", n);
    }
}

/// Times the two SLA evaluators on recorded CR bits: the scalar
/// `SlaSim::fired_into` per snapshot, and the gang any-fire probe
/// (`GangSim::any_fire_words`) per lane, 64 snapshots to a word.
pub fn sla_probes(system: &CompiledSystem, bits: &[Vec<bool>]) -> (f64, f64) {
    if bits.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let sim = SlaSim::new(&system.chart, &system.layout, &system.sla);
    let mut scratch = SlaScratch::default();
    let mut fired = Vec::new();
    let (mut calls, start) = (0u64, Instant::now());
    while start.elapsed() < STAGE_BUDGET {
        for b in bits {
            sim.fired_into(black_box(b), &mut scratch, &mut fired);
            black_box(&fired);
        }
        calls += bits.len() as u64;
    }
    let scalar = start.elapsed().as_nanos() as f64 / calls as f64;

    let gang = GangSim::new(&system.chart, &system.layout, &system.sla);
    let packs: Vec<(Vec<u64>, usize)> = bits
        .chunks(GANG_WIDTH)
        .map(|c| {
            let lanes: Vec<&[bool]> = c.iter().map(Vec::as_slice).collect();
            (pack_lanes(&lanes), c.len())
        })
        .collect();
    let mut scratch = GangScratch::default();
    let (mut lanes, start) = (0u64, Instant::now());
    while start.elapsed() < STAGE_BUDGET {
        for (words, n) in &packs {
            black_box(gang.any_fire_words(black_box(words), &mut scratch));
            lanes += *n as u64;
        }
    }
    (scalar, start.elapsed().as_nanos() as f64 / lanes as f64)
}

/// An environment wrapper that times the wrapped environment's calls
/// and, when asked, records the event names it hands out.
struct TimedEnv<'a, E> {
    inner: &'a mut E,
    ns: u64,
    calls: u64,
    record: bool,
    events: Vec<String>,
}

impl<E> TimedEnv<'_, E> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut E) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

impl<E: Environment> Environment for TimedEnv<'_, E> {
    fn sample_events(&mut self, now: u64) -> Vec<String> {
        let ev = self.timed(|e| e.sample_events(now));
        if self.record {
            self.events.clone_from(&ev);
        }
        ev
    }

    fn sample_conditions(&mut self, now: u64) -> Vec<(String, bool)> {
        self.timed(|e| e.sample_conditions(now))
    }

    fn port_read(&mut self, address: u16, now: u64) -> i64 {
        self.timed(|e| e.port_read(address, now))
    }

    fn port_write(&mut self, address: u16, value: i64, now: u64) {
        self.timed(|e| e.port_write(address, value, now))
    }
}

/// The CR bits of the machine's state before its next cycle:
/// configuration, pending internal events and conditions; the caller
/// adds the cycle's external events.
fn cr_bits(m: &PscpMachine<'_>) -> Vec<bool> {
    let system = m.system();
    let (chart, layout, exec) = (&system.chart, &system.layout, m.executor());
    let mut bits = layout.encode(chart, exec.configuration());
    for e in exec.pending_events() {
        bits[layout.event_bit(e) as usize] = true;
    }
    for c in chart.condition_ids() {
        bits[layout.condition_bit(c) as usize] = exec.condition(c);
    }
    bits
}

/// Replays environment-driven scenarios on one scalar machine, the way
/// a `SimPool` worker runs them (reset, then step to the limits or the
/// `done` predicate), three times over: timed as a whole loop, timed
/// step by step, and with obs metrics on and the environment wrapped in
/// a timer to count TEP instructions, environment time and CR bits.
pub fn replay_envs<E, F>(
    system: &CompiledSystem,
    envs: &[E],
    limits: &BatchOptions,
    done: F,
) -> MachineLayer
where
    E: Environment + Clone,
    F: Fn(&PscpMachine<'_>, &E, &CycleReport) -> bool,
{
    let prev_flags = pscp_obs::flags();
    pscp_obs::set_flags(0);
    let mut m = PscpMachine::new(system);
    let mut layer = MachineLayer::default();

    let run =
        |m: &mut PscpMachine<'_>,
         env: &mut E,
         each: &mut dyn FnMut(&mut PscpMachine<'_>, &mut E) -> Option<CycleReport>| {
            m.reset();
            let mut steps = 0u64;
            while m.now() < limits.deadline && steps < limits.max_steps {
                let Some(report) = each(m, env) else { break };
                if done(m, env, &report) {
                    break;
                }
                steps += 1;
            }
        };

    let start = Instant::now();
    for env in envs {
        let mut env = env.clone();
        run(&mut m, &mut env, &mut |m, env| {
            let r = m.step(env).ok()?;
            layer.cycles += 1;
            layer.fired_cycles += u64::from(!r.fired.is_empty());
            Some(r)
        });
    }
    layer.loop_ns = start.elapsed().as_nanos() as f64;

    for env in envs {
        let mut env = env.clone();
        run(&mut m, &mut env, &mut |m, env| {
            let t = Instant::now();
            let r = m.step(env);
            let ns = t.elapsed().as_nanos() as f64;
            let r = r.ok()?;
            if r.fired.is_empty() {
                &mut layer.idle_ns
            } else {
                &mut layer.fired_ns
            }
            .push(ns);
            Some(r)
        });
    }

    pscp_obs::set_flags(pscp_obs::METRICS);
    let before: u64 = pscp_obs::metrics::TEP_INSTR.iter().map(|c| c.get()).sum();
    let stride = (layer.cycles / MAX_CR_SAMPLES).max(1);
    let (mut env_ns, mut env_calls, mut k) = (0u64, 0u64, 0u64);
    for env in envs {
        let mut env = env.clone();
        run(&mut m, &mut env, &mut |m, env| {
            let record = k.is_multiple_of(stride) && (layer.cr_bits.len() as u64) < MAX_CR_SAMPLES;
            k += 1;
            let mut timed = TimedEnv {
                inner: env,
                ns: 0,
                calls: 0,
                record,
                events: Vec::new(),
            };
            // The CR image is taken before the step and completed with
            // the external events the environment hands out in it.
            let pre = record.then(|| cr_bits(m));
            let r = m.step(&mut timed);
            env_ns += timed.ns;
            env_calls += timed.calls;
            if let Some(mut bits) = pre {
                let layout = &m.system().layout;
                for e in timed
                    .events
                    .iter()
                    .filter_map(|n| m.system().chart.event_by_name(n))
                {
                    bits[layout.event_bit(e) as usize] = true;
                }
                layer.cr_bits.push(bits);
            }
            r.ok()
        });
    }
    // The TEP folds its instruction counts into the counters on reset.
    m.reset();
    let after: u64 = pscp_obs::metrics::TEP_INSTR.iter().map(|c| c.get()).sum();
    layer.tep_instr = after - before;
    layer.env_ns = Some(env_ns as f64);
    layer.env_calls = env_calls;
    pscp_obs::set_flags(prev_flags);
    layer
}

/// `cr_bits` for a machine about to take an injected step: the
/// injected external events plus the machine's own pending state.
pub fn injected_cr_bits(m: &PscpMachine<'_>, events: &[pscp_statechart::EventId]) -> Vec<bool> {
    let mut bits = cr_bits(m);
    for &e in events {
        bits[m.system().layout.event_bit(e) as usize] = true;
    }
    bits
}

/// Interquartile mean of single-call timings minus the clock overhead,
/// never below zero.
pub fn less_clock(samples: &[f64], clock_ns: f64) -> f64 {
    (iq_mean(samples).unwrap_or(f64::NAN) - clock_ns).max(0.0)
}
