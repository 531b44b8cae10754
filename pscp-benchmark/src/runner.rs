//! One workload, one process: set-up, warm-up, timed repetitions of
//! fixed work, an optional traced pass, and an untimed verify.

use crate::host::{cpu_seconds, peak_rss_mib};
use crate::probe::{clock_overhead_ns, put, stage_probe, Layers};
use crate::record::{end_to_end, lookup, per_layer, Value, WorkloadResult};
use crate::span::Tracer;
use crate::stats::{median, quantile};
use crate::subject::Subject;
use pscp_obs::metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Minimum measured time of the timed phase, s.
    pub seconds: f64,
    /// Also run the traced pass and the layer probes.
    pub trace: bool,
    /// Tiny inputs, one repetition: a functional check, not a
    /// measurement.
    pub smoke: bool,
}

/// Timed repetitions per phase of one process, at least; a run pools
/// the repetitions of its processes.
pub const MIN_REPS: usize = 3;

/// The quantile of a run's set-up times it reports as `setup_s`. Within
/// one run the set-ups fall into a fast and a slow mode (on `gang_sparse`
/// 18 and 28 ms), and the share of each varies from run to run, so the
/// median jumps between the modes while the lower decile stays in the
/// fast one.
pub const SETUP_QUANTILE: f64 = 0.1;

/// What one repetition did.
#[derive(Debug, Clone, Default)]
pub struct RepLog {
    /// Units of work completed (solves, configuration cycles, scenarios,
    /// states).
    pub ops: u64,
    /// Wall time spent inside the program's calls, s — the denominator
    /// of `ops_per_s`, so input cloning between calls is not charged to
    /// the program.
    pub timed_s: f64,
    /// CPU time of the process over the same calls, s — the denominator
    /// of `ops_per_cpu_s`.
    pub cpu_s: f64,
    /// Operations attempted and failed (a scenario fault, a wire error,
    /// an unsatisfied solve, a refused request).
    pub attempted: u64,
    pub failed: u64,
    /// Errors the workload met, for the result's problem list.
    pub errors: Vec<String>,
    /// Per-operation samples (latencies and their parts), by name.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Simulated counts of the repetition; identical for every
    /// repetition of one run.
    pub exact: BTreeMap<&'static str, u64>,
}

impl RepLog {
    /// One series pooled over repetitions (empty when not recorded).
    pub fn pooled(logs: &[RepLog], name: &str) -> Vec<f64> {
        logs.iter()
            .flat_map(|l| l.series.get(name).into_iter().flatten().copied())
            .collect()
    }

    /// One exact count (0 when it was not recorded).
    pub fn count(&self, name: &str) -> u64 {
        self.exact.get(name).copied().unwrap_or(0)
    }
}

/// Wall and process CPU time of one timed region of a repetition.
pub struct Stopwatch {
    start: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        let cpu_s = cpu_seconds();
        Stopwatch {
            start: Instant::now(),
            cpu_s,
        }
    }

    /// Charges the region to `log`; returns its start and end.
    pub fn stop(self, log: &mut RepLog) -> (Instant, Instant) {
        let end = Instant::now();
        log.cpu_s += cpu_seconds() - self.cpu_s;
        log.timed_s += (end - self.start).as_secs_f64();
        (self.start, end)
    }
}

/// What the traced pass hands a workload's layer probes.
pub struct Traced<'a> {
    pub logs: &'a [RepLog],
    /// Obs counters accumulated over the traced repetitions.
    pub counters: &'a MetricsSnapshot,
    pub tracer: &'a mut Tracer,
    /// Median cost of two back-to-back clock reads, ns.
    pub clock_ns: f64,
    /// The untraced phase's median `ops_per_s`.
    pub untraced_ops_per_s: f64,
    /// Inconsistencies the probes found; they make the result incorrect.
    pub problems: Vec<String>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Set-up: compiles, input generation, oracles, servers.
    fn setup(cfg: &RunConfig) -> Result<Self, String>;
    /// Digest of the generated inputs.
    fn inputs_digest(&self) -> String;
    /// One repetition of fixed work. `trace` is set in the traced pass,
    /// where the workload records spans around its calls into layers.
    fn rep(&mut self, log: &mut RepLog, trace: Option<&mut Tracer>);
    /// Workload-specific end-to-end metrics from the timed repetitions.
    fn summarize(&self, _logs: &[RepLog], _metrics: &mut BTreeMap<String, Value>) {}
    /// The system the stage probes re-compile.
    fn subject(&self) -> &Subject;
    /// Layer metrics after the traced pass: the configuration-cycle
    /// replay plus anything particular to the workload.
    fn layers(&mut self, traced: &mut Traced<'_>, out: &mut Layers);
    /// Checks the outputs against the workload's oracle, untimed;
    /// returns the digest of what it verified.
    fn verify(&mut self) -> Result<String, String>;
}

/// Timed repetitions until `seconds` have passed (at least
/// [`MIN_REPS`]); `between` runs after each one, outside its timing.
fn timed_reps<W: Workload>(
    wl: &mut W,
    cfg: &RunConfig,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    mut between: impl FnMut(),
) -> Vec<RepLog> {
    let mut logs = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    loop {
        let mut log = RepLog::default();
        if let Some(t) = tracer.as_deref_mut() {
            t.begin("rep");
        }
        wl.rep(&mut log, tracer.as_deref_mut());
        if let Some(t) = tracer.as_deref_mut() {
            t.end();
        }
        logs.push(log);
        if cfg.smoke || (logs.len() >= MIN_REPS && start.elapsed() >= budget) {
            return logs;
        }
        between();
    }
}

/// Sets the workload up once, recording the CPU time that took.
fn timed_setup<W: Workload>(cfg: &RunConfig, samples: &mut Vec<f64>) -> Result<W, String> {
    let t = cpu_seconds();
    let w = W::setup(cfg)?;
    samples.push(cpu_seconds() - t);
    Ok(w)
}

/// Operations per second of wall time, one value per repetition.
fn ops_per_s(logs: &[RepLog]) -> Vec<f64> {
    logs.iter().map(|l| l.ops as f64 / l.timed_s).collect()
}

/// Operations per CPU second, one value per repetition.
fn ops_per_cpu_s(logs: &[RepLog]) -> Vec<f64> {
    logs.iter().map(|l| l.ops as f64 / l.cpu_s).collect()
}

/// Runs workload `W` to completion and returns its result.
pub fn run<W: Workload>(name: &str, cfg: &RunConfig) -> WorkloadResult {
    let mut result = WorkloadResult {
        workload: name.to_string(),
        ..WorkloadResult::default()
    };
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut wl = match timed_setup::<W>(cfg, &mut setup_s) {
        Ok(w) => w,
        Err(e) => {
            result.problems.push(format!("setup failed: {e}"));
            return result;
        }
    };
    result.inputs_digest = wl.inputs_digest();

    let mut warm = RepLog::default();
    wl.rep(&mut warm, None);
    // One more set-up after every timed repetition but the last, so the
    // set-up samples span the run the way the repetitions do and a
    // moment of host contention at start-up does not decide `setup_s`.
    let mut setup_errors = Vec::new();
    let logs = timed_reps(&mut wl, cfg, cfg.seconds, None, || {
        if let Err(e) = timed_setup::<W>(cfg, &mut setup_s) {
            setup_errors.push(format!("setup failed: {e}"));
        }
    });
    result.problems.extend(setup_errors.into_iter().take(1));
    let rss = peak_rss_mib().unwrap_or(f64::NAN);

    let throughput = ops_per_s(&logs);
    let cpu_throughput = ops_per_cpu_s(&logs);
    let m = &mut result.metrics;
    for (name, value, samples) in [
        (
            "ops_per_cpu_s",
            median(&cpu_throughput).unwrap_or(f64::NAN),
            logs.len(),
        ),
        (
            "ops_per_s",
            median(&throughput).unwrap_or(f64::NAN),
            logs.len(),
        ),
        (
            "setup_s",
            quantile(&setup_s, SETUP_QUANTILE).unwrap_or(f64::NAN),
            setup_s.len(),
        ),
        ("peak_rss_mb", rss, 1),
    ] {
        let unit = lookup(name).map_or("", |d| d.unit.as_str());
        m.insert(name.into(), Value::new(value, unit, samples as u64));
    }
    wl.summarize(&logs, m);
    result
        .reps
        .insert("ops_per_cpu_s".into(), cpu_throughput.clone());
    result.reps.insert("ops_per_s".into(), throughput.clone());
    result
        .reps
        .insert("timed_s".into(), logs.iter().map(|l| l.timed_s).collect());
    result
        .reps
        .insert("cpu_s".into(), logs.iter().map(|l| l.cpu_s).collect());
    result.reps.insert("setup_s".into(), setup_s);

    let mut all_logs = vec![warm];
    all_logs.extend(logs);
    if cfg.trace {
        let mut tracer = Tracer::new(started);
        pscp_obs::metrics::reset_all();
        pscp_obs::set_flags(pscp_obs::METRICS);
        // Half the untraced length: the traced pass feeds the layer
        // ledger and the overhead estimate, not the end-to-end numbers.
        let tlogs = timed_reps(&mut wl, cfg, cfg.seconds / 2.0, Some(&mut tracer), || {});
        let counters = pscp_obs::metrics::snapshot();
        pscp_obs::set_flags(0);

        let mut layers = Layers::new();
        // The overhead is CPU work, so it is taken on CPU throughput,
        // which host contention does not move.
        let traced_cpu = median(&ops_per_cpu_s(&tlogs)).unwrap_or(f64::NAN);
        let untraced_cpu = median(&cpu_throughput).unwrap_or(f64::NAN);
        let untraced_ops = median(&throughput).unwrap_or(f64::NAN);
        put(
            &mut layers,
            "trace_overhead_pct",
            (untraced_cpu / traced_cpu - 1.0) * 100.0,
            "%",
            tlogs.len() as u64,
        );
        tracer.begin("probe.stages");
        stage_probe(wl.subject(), &mut layers);
        tracer.end();
        tracer.begin("probe.layers");
        let mut traced = Traced {
            logs: &tlogs,
            counters: &counters,
            tracer: &mut tracer,
            clock_ns: clock_overhead_ns(),
            untraced_ops_per_s: untraced_ops,
            problems: Vec::new(),
        };
        wl.layers(&mut traced, &mut layers);
        result.problems.append(&mut traced.problems);
        tracer.end();
        for def in per_layer() {
            match layers.get(&def.name) {
                Some(v) if v.value.is_finite() => {}
                _ => result
                    .problems
                    .push(format!("layer metric {} missing", def.name)),
            }
        }
        result.layers = layers;
        write_trace(name, &tracer);
        all_logs.extend(tlogs);
    }

    let first = &all_logs[0];
    result.exact = first
        .exact
        .iter()
        .map(|(k, &v)| (k.to_string(), v))
        .collect();
    if all_logs.iter().any(|l| l.exact != first.exact) {
        result
            .problems
            .push("simulated counts differ between repetitions".into());
    }
    result.attempted = all_logs.iter().map(|l| l.attempted).sum();
    result.failed = all_logs.iter().map(|l| l.failed).sum();
    result.metrics.insert(
        "fail_ratio".into(),
        Value::new(
            result.failed as f64 / result.attempted.max(1) as f64,
            "ratio",
            result.attempted,
        ),
    );
    if result.failed > 0 {
        result.problems.push(format!(
            "{} of {} operations failed",
            result.failed, result.attempted
        ));
    }
    let mut errors: Vec<&String> = all_logs.iter().flat_map(|l| &l.errors).collect();
    errors.dedup();
    result.problems.extend(errors.into_iter().take(4).cloned());

    match wl.verify() {
        Ok(digest) => result.verify_digest = digest,
        Err(e) => result.problems.push(format!("verify: {e}")),
    }
    for def in end_to_end() {
        if !result
            .metrics
            .get(&def.name)
            .is_some_and(|v| v.value.is_finite() && v.value > 0.0)
        {
            result
                .problems
                .push(format!("end-to-end metric {} missing", def.name));
        }
    }
    result.correct = result.problems.is_empty();
    result
}

/// Writes the traced pass's spans to `target/bench/trace-<workload>.json`.
fn write_trace(name: &str, tracer: &Tracer) {
    let dir = std::path::Path::new("target").join("bench");
    let path = dir.join(format!("trace-{name}.json"));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_chrome()))
    {
        eprintln!("pscp-benchmark: cannot write {}: {e}", path.display());
    }
}
