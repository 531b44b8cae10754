//! `serve_mix`: a closed loop of two clients against an in-process
//! loopback `pscp-serve` server with two shard threads.
//!
//! Each client holds one connection and runs a fixed, seeded schedule
//! of rounds: submit a batch of 16 scenarios from a pool of 256
//! pickup-head scripts (3–16 rows each), then receive all 16 — callers
//! of `ScenarioClient::run_batch` wait for their replies, which is the
//! traffic being modelled. Every 64th round is instead a `Compile` of
//! one of 64 source variants (the pickup head with a seeded
//! `max_coord`), so writes that register systems interleave with
//! scenario reads. Short scenarios make wire, queue and encode the
//! dominant costs.

use crate::probe::{put, replay_envs, sample_calls, Layers};
use crate::record::{Fnv, Value};
use crate::rng::SplitMix64;
use crate::runner::{RepLog, RunConfig, Stopwatch, Traced, Workload};
use crate::span::Tracer;
use crate::stats::{iq_mean, median, tail_percentile};
use crate::subject::Subject;
use crate::workloads::{dense_scripts, scripted::EVENTS};
use pscp_core::arch::PscpArch;
use pscp_core::machine::ScriptedEnvironment;
use pscp_core::pool::{BatchOptions, SimPool};
use pscp_core::serve::{self, ScenarioClient, ServeOptions, ServerHandle, WireOutcome};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Shard worker threads of the server.
const SHARDS: usize = 2;
/// Scenarios a client submits before it waits for their outcomes.
const BATCH: usize = 16;
/// Distinct scenario scripts the batches draw from.
const POOL: usize = 256;
/// Distinct compile sources.
const VARIANTS: usize = 64;
/// Every this-many-th round of a client is a compile.
const COMPILE_EVERY: usize = 64;
/// Rounds per client per repetition.
const ROUNDS: usize = 256;
/// Per-scenario step limit.
const LIMITS: BatchOptions = BatchOptions {
    deadline: u64::MAX,
    max_steps: 16,
};

/// One round of a client's schedule.
#[derive(Debug, Clone)]
enum Round {
    /// Submit these pool scripts, then receive their outcomes.
    Batch(Vec<usize>),
    /// Compile this source variant.
    Compile(usize),
}

/// What one client measured in one repetition.
#[derive(Default)]
struct ClientLog {
    scenarios: u64,
    compiles: u64,
    failed: u64,
    /// Submit → in-order delivery, per scenario, µs.
    latency_us: Vec<f64>,
    compile_ms: Vec<f64>,
    /// Server-side breakdown when the connection carries latency
    /// trailers: queue, sim, encode and the client/wire rest, µs.
    queue_us: Vec<f64>,
    sim_us: Vec<f64>,
    encode_us: Vec<f64>,
    client_us: Vec<f64>,
    /// Outcomes that differed from the oracle bytes (checked rounds).
    mismatches: u64,
    checked: u64,
    /// `(variant, fingerprint)` of every compile.
    fingerprints: Vec<(usize, u64)>,
    error: Option<String>,
}

pub struct ServeMix {
    subject: Subject,
    scripts: Vec<Vec<Vec<String>>>,
    /// Digest of the scenario pool.
    inputs_digest: String,
    schedules: Vec<Vec<Round>>,
    chart_text: String,
    variants: Vec<String>,
    /// `WireOutcome::encode` of every pool script's in-process outcome.
    oracle: Vec<Vec<u8>>,
    /// Declared before `server` so connections close before it stops.
    clients: Vec<ScenarioClient>,
    /// Whether `clients` negotiated latency trailers.
    latency_conns: bool,
    server: ServerHandle,
    /// The first repetition checks every outcome against the oracle.
    warmed: bool,
    mismatches: u64,
    checked: u64,
    /// Every `(variant, fingerprint)` the server answered.
    fingerprints: BTreeSet<(usize, u64)>,
}

fn connect(addr: std::net::SocketAddr, latency: bool) -> Result<Vec<ScenarioClient>, String> {
    (0..CLIENTS)
        .map(|_| {
            let c = if latency {
                ScenarioClient::connect_latency(addr, serve::DEFAULT_WINDOW, 0)
            } else {
                ScenarioClient::connect(addr)
            };
            c.map_err(|e| format!("client connect: {e}"))
        })
        .collect()
}

fn run_client(
    client: &mut ScenarioClient,
    schedule: &[Round],
    scripts: &[Vec<Vec<String>>],
    chart_text: &str,
    variants: &[String],
    oracle: Option<&[Vec<u8>]>,
    mut tracer: Option<&mut Tracer>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut sent = Vec::with_capacity(BATCH);
    for round in schedule {
        match round {
            Round::Batch(ids) => {
                let start = Instant::now();
                sent.clear();
                for &i in ids {
                    sent.push(Instant::now());
                    if let Err(e) = client.submit(scripts[i].clone(), LIMITS) {
                        log.error = Some(format!("submit: {e}"));
                        log.failed += 1;
                        return log;
                    }
                }
                for (k, &i) in ids.iter().enumerate() {
                    let outcome = match client.recv() {
                        Ok((_, o)) => o,
                        Err(e) => {
                            log.error = Some(format!("recv: {e}"));
                            log.failed += 1;
                            return log;
                        }
                    };
                    let rtt_us = sent[k].elapsed().as_nanos() as f64 / 1e3;
                    log.scenarios += 1;
                    log.latency_us.push(rtt_us);
                    if outcome.error.is_some() {
                        log.failed += 1;
                    }
                    if let Some(l) = outcome.latency {
                        let [q, s, e] =
                            [l.queue_ns, l.sim_ns, l.encode_ns].map(|ns| ns as f64 / 1e3);
                        log.queue_us.push(q);
                        log.sim_us.push(s);
                        log.encode_us.push(e);
                        log.client_us.push(rtt_us - q - s - e);
                    }
                    if let Some(oracle) = oracle {
                        log.checked += 1;
                        if outcome.encode() != oracle[i] {
                            log.mismatches += 1;
                        }
                    }
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("serve.batch", start, Instant::now());
                }
            }
            Round::Compile(v) => {
                let start = Instant::now();
                let reply = client.compile(chart_text, &variants[*v]);
                let end = Instant::now();
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("serve.compile", start, end);
                }
                log.compiles += 1;
                log.compile_ms.push((end - start).as_secs_f64() * 1e3);
                match reply {
                    Ok((fp, _)) if fp != 0 => log.fingerprints.push((*v, fp)),
                    Ok(_) => log.failed += 1,
                    Err(e) => {
                        log.error = Some(format!("compile: {e}"));
                        log.failed += 1;
                        return log;
                    }
                }
            }
        }
    }
    log
}

/// The pickup-head action source with `max_coord` set to `value`.
fn variant(actions: &str, value: u64) -> String {
    const DEFAULT: &str = "uint:16 max_coord = 20000;";
    assert!(
        actions.contains(DEFAULT),
        "pickup-head actions declare max_coord"
    );
    actions.replace(DEFAULT, &format!("uint:16 max_coord = {value};"))
}

impl Workload for ServeMix {
    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let subject = Subject::pickup_head(PscpArch::dual_md16(true));
        let mut rng = SplitMix64::derive(cfg.seed, "serve_mix.scripts");
        let pool = if cfg.smoke { 16 } else { POOL };
        let compact = dense_scripts(&mut rng, pool, |rng| rng.range(3, 17) as usize, &EVENTS);
        let scripts: Vec<Vec<Vec<String>>> = (0..pool).map(|i| compact.script(i)).collect();
        let actions = pscp_motors::pickup_head_actions();
        let mut rng = SplitMix64::derive(cfg.seed, "serve_mix.variants");
        let variants: Vec<String> = (0..VARIANTS)
            .map(|_| variant(&actions, rng.range(1_000, 60_000)))
            .collect();
        let rounds = if cfg.smoke { COMPILE_EVERY } else { ROUNDS };
        let schedules = (0..CLIENTS)
            .map(|c| {
                let mut rng = SplitMix64::derive(cfg.seed, &format!("serve_mix.schedule.{c}"));
                (0..rounds)
                    .map(|r| {
                        if (r + 1) % COMPILE_EVERY == 0 {
                            Round::Compile(rng.below(VARIANTS as u64) as usize)
                        } else {
                            Round::Batch(
                                (0..BATCH)
                                    .map(|_| rng.below(pool as u64) as usize)
                                    .collect(),
                            )
                        }
                    })
                    .collect()
            })
            .collect();
        let oracle = SimPool::with_threads(1)
            .with_gang(1)
            .run_batch(
                &subject.system,
                scripts
                    .iter()
                    .cloned()
                    .map(ScriptedEnvironment::new)
                    .collect(),
                &LIMITS,
            )
            .iter()
            .map(|o| WireOutcome::from_batch(o).encode())
            .collect();
        let opts = ServeOptions {
            threads: SHARDS,
            ..ServeOptions::default()
        };
        let server = serve::spawn(
            std::sync::Arc::new(subject.system.clone()),
            "127.0.0.1:0",
            opts,
        )
        .map_err(|e| format!("loopback server: {e}"))?;
        let clients = connect(server.addr(), false)?;
        Ok(ServeMix {
            inputs_digest: compact.digest(),
            chart_text: pscp_statechart::pretty::to_text(&subject.chart),
            subject,
            scripts,
            schedules,
            variants,
            oracle,
            clients,
            latency_conns: false,
            server,
            warmed: false,
            mismatches: 0,
            checked: 0,
            fingerprints: BTreeSet::new(),
        })
    }

    fn inputs_digest(&self) -> String {
        let mut h = Fnv::default()
            .str(&self.inputs_digest)
            .str(&self.chart_text);
        for v in &self.variants {
            h = h.str(v);
        }
        for s in &self.schedules {
            for r in s {
                h = match r {
                    Round::Batch(ids) => ids.iter().fold(h.u64(0), |h, &i| h.u64(i as u64)),
                    Round::Compile(v) => h.u64(1).u64(*v as u64),
                };
            }
        }
        h.hex()
    }

    fn rep(&mut self, log: &mut RepLog, trace: Option<&mut Tracer>) {
        // The traced pass reconnects asking for latency trailers; the
        // untraced pass measures connections without them.
        if trace.is_some() != self.latency_conns {
            self.latency_conns = trace.is_some();
            self.clients = match connect(self.server.addr(), self.latency_conns) {
                Ok(c) => c,
                Err(e) => {
                    log.attempted += 1;
                    log.failed += 1;
                    log.errors.push(e);
                    return;
                }
            };
        }
        let check = !self.warmed;
        self.warmed = true;
        let oracle = check.then_some(self.oracle.as_slice());
        let mut forks: Vec<Option<Tracer>> = (0..CLIENTS)
            .map(|c| trace.as_deref().map(|t| t.fork(c as u32 + 1)))
            .collect();
        let (scripts, chart_text, variants) =
            (&self.scripts, self.chart_text.as_str(), &self.variants);
        let clock = Stopwatch::start();
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.schedules)
                .zip(forks.iter_mut())
                .map(|((client, schedule), fork)| {
                    s.spawn(move || {
                        run_client(
                            client,
                            schedule,
                            scripts,
                            chart_text,
                            variants,
                            oracle,
                            fork.as_mut(),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        clock.stop(log);
        if let Some(t) = trace {
            for f in forks.into_iter().flatten() {
                t.absorb(f);
            }
        }
        for c in logs {
            log.ops += c.scenarios;
            log.attempted += c.scenarios + c.compiles;
            log.failed += c.failed;
            *log.exact.entry("serve.scenarios").or_default() += c.scenarios;
            *log.exact.entry("serve.compiles").or_default() += c.compiles;
            for (name, v) in [
                ("serve.latency_us", c.latency_us),
                ("serve.compile_ms", c.compile_ms),
                ("serve.queue_us", c.queue_us),
                ("serve.sim_us", c.sim_us),
                ("serve.encode_us", c.encode_us),
                ("serve.client_us", c.client_us),
            ] {
                log.series.entry(name).or_default().extend(v);
            }
            self.mismatches += c.mismatches;
            self.checked += c.checked;
            self.fingerprints.extend(c.fingerprints);
            log.errors.extend(c.error);
        }
    }

    fn summarize(&self, logs: &[RepLog], metrics: &mut BTreeMap<String, Value>) {
        let latency = RepLog::pooled(logs, "serve.latency_us");
        let n = latency.len() as u64;
        let p50 = median(&latency).unwrap_or(f64::NAN);
        metrics.insert("serve.p50_us".into(), Value::new(p50, "us", n));
        if let Some(p99) = tail_percentile(&latency, 0.99) {
            metrics.insert("serve.p99_us".into(), Value::new(p99, "us", n));
        }
        let compile = RepLog::pooled(logs, "serve.compile_ms");
        let p50 = median(&compile).unwrap_or(f64::NAN);
        metrics.insert(
            "serve.compile_p50_ms".into(),
            Value::new(p50, "ms", compile.len() as u64),
        );
    }

    fn subject(&self) -> &Subject {
        &self.subject
    }

    fn layers(&mut self, traced: &mut Traced<'_>, out: &mut Layers) {
        let pooled = |name: &str| RepLog::pooled(traced.logs, name);
        let (queue, sim, encode, client) = (
            pooled("serve.queue_us"),
            pooled("serve.sim_us"),
            pooled("serve.encode_us"),
            pooled("serve.client_us"),
        );
        let n = queue.len() as u64;
        put(
            out,
            "serve.queue_p50_us",
            median(&queue).unwrap_or(f64::NAN),
            "us",
            n,
        );
        put(
            out,
            "serve.queue_p99_us",
            tail_percentile(&queue, 0.99).unwrap_or(f64::NAN),
            "us",
            n,
        );
        put(
            out,
            "serve.sim_p50_us",
            median(&sim).unwrap_or(f64::NAN),
            "us",
            n,
        );
        put(
            out,
            "serve.encode_p50_us",
            median(&encode).unwrap_or(f64::NAN),
            "us",
            n,
        );
        put(
            out,
            "serve.client_p50_us",
            median(&client).unwrap_or(f64::NAN),
            "us",
            n,
        );
        let c = traced.counters;
        for (metric, hist) in [
            ("serve.queue_depth_p99", "serve_queue_depth"),
            ("serve.inflight_p99", "serve_inflight"),
        ] {
            let h = c.histogram(hist);
            put(
                out,
                metric,
                h.map_or(0.0, |h| h.quantile(0.99) as f64),
                "count",
                h.map_or(0, |h| h.count),
            );
        }
        let scenarios: u64 = traced.logs.iter().map(|l| l.ops).sum();
        put(
            out,
            "serve.credit_stalls_per_1k",
            c.counter("serve_credit_stalls") as f64 * 1e3 / scenarios.max(1) as f64,
            "count",
            scenarios,
        );
        traced.tracer.begin("probe.wire_decode");
        let mut k = 0usize;
        let oracle = &self.oracle;
        let decode = sample_calls(Duration::from_millis(60), oracle.len(), || {
            k = (k + 1) % oracle.len();
            WireOutcome::decode(&oracle[k]).expect("oracle bytes decode")
        });
        traced.tracer.end();
        put(
            out,
            "wire.decode_us",
            iq_mean(&decode).unwrap_or(f64::NAN) / 1e3,
            "us",
            decode.len() as u64,
        );

        let envs: Vec<ScriptedEnvironment> = self
            .scripts
            .iter()
            .cloned()
            .map(ScriptedEnvironment::new)
            .collect();
        traced.tracer.begin("probe.machine_replay");
        replay_envs(&self.subject.system, &envs, &LIMITS, |_, _, _| false).insert(
            &self.subject.system,
            traced.clock_ns,
            out,
        );
        traced.tracer.end();
    }

    fn verify(&mut self) -> Result<String, String> {
        if self.checked == 0 {
            return Err("no outcome was checked".into());
        }
        if self.mismatches > 0 {
            return Err(format!(
                "{} of {} served outcomes differ from the in-process encoding",
                self.mismatches, self.checked
            ));
        }
        let opts = pscp_tep::codegen::CodegenOptions::default();
        let mut h = Fnv::default().u64(self.checked);
        for &(v, fp) in &self.fingerprints {
            let mut sink = pscp_diag::DiagnosticSink::new();
            let sys = pscp_core::diag::compile_sources(
                &self.chart_text,
                &self.variants[v],
                &self.subject.system.arch,
                &opts,
                &mut sink,
            )
            .ok_or_else(|| format!("variant {v} does not compile in process"))?;
            let expected = serve::system_fingerprint(&sys);
            if fp != expected {
                return Err(format!(
                    "variant {v}: served fingerprint {fp:#x}, in-process {expected:#x}"
                ));
            }
            h = h.u64(v as u64).u64(fp);
        }
        for o in &self.oracle {
            h = h.bytes(o);
        }
        Ok(h.hex())
    }
}
