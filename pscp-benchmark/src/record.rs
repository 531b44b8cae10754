//! The metric registry and the schema-stable result format.
//!
//! `BENCHMARK.json` at the repository root declares the [`workloads`]
//! and the metrics a result line carries — the [`end_to_end`] set with
//! the regression bounds, and the [`per_layer`] set — and is compiled in
//! and read from there. The end-to-end metrics only some workloads
//! report are declared here.
//!
//! A result file holds one or more invocations, each with the host it
//! ran on and one [`WorkloadResult`] per workload, including the
//! per-repetition values behind every median. History lives in git: the
//! file name never changes, [`SCHEMA`] does when the layout does.

use crate::stats::median;
use pscp_core::explore::FnvHasher;
use pscp_obs::json::{self, JsonValue, JsonWriter};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::OnceLock;

/// Version of the result-file layout.
pub const SCHEMA: u64 = 1;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// End-to-end metrics outside the result line: wall-clock throughput and
/// latencies, which follow the host's load too closely to gate a change
/// on, metrics only some workloads have, and `fail_ratio`, zero on a
/// healthy run: `(name, unit, better, bound)`. Recorded, printed and
/// compared; `BENCHMARK.md` gives the measured spread behind the bounds.
const WORKLOAD_END_TO_END: [(&str, &str, Better, Option<f64>); 7] = [
    ("ops_per_s", "1/s", Better::Higher, Some(0.25)),
    ("fail_ratio", "ratio", Better::Lower, None),
    ("dse.solve_p50_ms", "ms", Better::Lower, Some(0.25)),
    ("dse.solve_p99_ms", "ms", Better::Lower, Some(0.25)),
    ("serve.p50_us", "us", Better::Lower, Some(0.25)),
    ("serve.p99_us", "us", Better::Lower, Some(0.25)),
    ("serve.compile_p50_ms", "ms", Better::Lower, Some(0.25)),
];

struct Registry {
    workloads: Vec<String>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
    workload_metrics: Vec<MetricDef>,
}

/// The workload names `BENCHMARK.json` lists.
fn workload_list(doc: &JsonValue) -> Result<Vec<String>, String> {
    doc.get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("workloads is not a list")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .map(String::from)
                .ok_or_else(|| "a workload without a name".to_string())
        })
        .collect()
}

/// Reads one metric list of `BENCHMARK.json`.
fn metric_list(doc: &JsonValue, key: &str) -> Result<Vec<MetricDef>, String> {
    let entries = doc
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{key} is not a list"))?;
    entries
        .iter()
        .map(|e| {
            let text = |k: &str| {
                e.get(k)
                    .and_then(JsonValue::as_str)
                    .map(String::from)
                    .ok_or_else(|| format!("{key}: an entry without {k}"))
            };
            let better = match text("better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("{key}: better is {other:?}")),
            };
            Ok(MetricDef {
                name: text("name")?,
                unit: text("unit")?,
                better,
                bound: e.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).and_then(|doc| {
            Ok((
                workload_list(&doc)?,
                metric_list(&doc, "end_to_end")?,
                metric_list(&doc, "per_layer")?,
            ))
        });
        let (workloads, end_to_end, per_layer) =
            doc.unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
        Registry {
            workloads,
            end_to_end,
            per_layer,
            workload_metrics: WORKLOAD_END_TO_END
                .iter()
                .map(|&(name, unit, better, bound)| MetricDef {
                    name: name.into(),
                    unit: unit.into(),
                    better,
                    bound,
                })
                .collect(),
        }
    })
}

/// Every workload, in run order.
pub fn workloads() -> &'static [String] {
    &registry().workloads
}

/// End-to-end metrics every workload reports: the result line of a
/// single-workload run carries exactly these. What one operation of
/// `ops_per_cpu_s` is depends on the workload (`BENCHMARK.md` has the
/// table): a solve, a simulated configuration cycle, a served scenario
/// or an explored state.
pub fn end_to_end() -> &'static [MetricDef] {
    &registry().end_to_end
}

/// Per-layer metrics every workload's traced run reports, measured on
/// that workload's own system and inputs: the result line of a traced
/// single-workload run carries exactly these. Layers only some
/// workloads exercise (`optimize.*`, `serve.*`, `explore.*`, `pool.*`,
/// `gang.*`, ...) are recorded beside them.
pub fn per_layer() -> &'static [MetricDef] {
    &registry().per_layer
}

/// The declaration of an end-to-end metric, if any.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    let r = registry();
    r.end_to_end
        .iter()
        .chain(&r.workload_metrics)
        .find(|d| d.name == name)
}

/// One measured value with its unit and the number of samples behind
/// it (repetitions for medians, pooled operations for percentiles).
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: String,
    pub samples: u64,
}

impl Value {
    pub fn new(value: f64, unit: &str, samples: u64) -> Self {
        Value {
            value,
            unit: unit.to_string(),
            samples,
        }
    }
}

/// One workload's result within one invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    /// Every verify check passed and no operation failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics.
    pub metrics: BTreeMap<String, Value>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, Value>,
    /// Simulated counts of one repetition; a speed-only change must
    /// leave them identical.
    pub exact: BTreeMap<String, u64>,
    /// Per-repetition values behind the medians.
    pub reps: BTreeMap<String, Vec<f64>>,
    /// FNV-1a digest of the generated inputs.
    pub inputs_digest: String,
    /// FNV-1a digest of the verified outputs.
    pub verify_digest: String,
    /// Why the result is not correct, if it is not.
    pub problems: Vec<String>,
}

/// The machine an invocation ran on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Host {
    /// Processors online.
    pub nproc: u64,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: u64,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
}

/// One run of the benchmark command.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Invocation {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub host: Host,
    pub workloads: Vec<WorkloadResult>,
}

/// A result file: invocations in the order they were appended.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultFile {
    pub invocations: Vec<Invocation>,
}

fn write_values(w: &mut JsonWriter, key: &str, values: &BTreeMap<String, Value>) {
    w.key(key).begin_object();
    for (name, v) in values {
        w.key(name).begin_object();
        w.key("value").f64(v.value);
        w.key("unit").string(&v.unit);
        w.key("samples").u64(v.samples);
        w.end_object();
    }
    w.end_object();
}

impl WorkloadResult {
    pub(crate) fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("workload").string(&self.workload);
        w.key("correct").bool(self.correct);
        w.key("attempted").u64(self.attempted);
        w.key("failed").u64(self.failed);
        write_values(w, "metrics", &self.metrics);
        write_values(w, "layers", &self.layers);
        w.key("exact").begin_object();
        for (name, &v) in &self.exact {
            w.key(name).u64(v);
        }
        w.end_object();
        w.key("reps").begin_object();
        for (name, vs) in &self.reps {
            w.key(name).begin_array();
            for &v in vs {
                w.f64(v);
            }
            w.end_array();
        }
        w.end_object();
        w.key("inputs_digest").string(&self.inputs_digest);
        w.key("verify_digest").string(&self.verify_digest);
        w.key("problems").begin_array();
        for p in &self.problems {
            w.string(p);
        }
        w.end_array();
        w.end_object();
    }

    /// One line of JSON — what a workload child prints last.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write(&mut w);
        w.finish()
    }

    pub(crate) fn read(v: &JsonValue) -> Result<Self, String> {
        let values = |key: &str| -> Result<BTreeMap<String, Value>, String> {
            let mut out = BTreeMap::new();
            if let Some(JsonValue::Object(m)) = v.get(key) {
                for (name, x) in m {
                    out.insert(
                        name.clone(),
                        Value {
                            value: num(x.get("value"), name)?,
                            unit: x
                                .get("unit")
                                .and_then(JsonValue::as_str)
                                .unwrap_or("")
                                .to_string(),
                            samples: x.get("samples").and_then(JsonValue::as_u64).unwrap_or(0),
                        },
                    );
                }
            }
            Ok(out)
        };
        let mut exact = BTreeMap::new();
        if let Some(JsonValue::Object(m)) = v.get("exact") {
            for (name, x) in m {
                exact.insert(name.clone(), num(Some(x), name)? as u64);
            }
        }
        let mut reps = BTreeMap::new();
        if let Some(JsonValue::Object(m)) = v.get("reps") {
            for (name, x) in m {
                let vs = x
                    .as_array()
                    .ok_or_else(|| format!("reps.{name} is not an array"))?;
                reps.insert(
                    name.clone(),
                    vs.iter()
                        .map(|e| num(Some(e), name))
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
        }
        let text = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string()
        };
        Ok(WorkloadResult {
            workload: text("workload"),
            correct: matches!(v.get("correct"), Some(JsonValue::Bool(true))),
            attempted: v.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0),
            failed: v.get("failed").and_then(JsonValue::as_u64).unwrap_or(0),
            metrics: values("metrics")?,
            layers: values("layers")?,
            exact,
            reps,
            inputs_digest: text("inputs_digest"),
            verify_digest: text("verify_digest"),
            problems: v
                .get("problems")
                .and_then(JsonValue::as_array)
                .map(|ps| {
                    ps.iter()
                        .filter_map(|p| p.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// Parses a workload child's result line.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::read(&json::parse(text)?)
    }

    /// One result from the results of several processes that ran the
    /// same workload and seed: every metric is the median of the
    /// processes' values, counts add up, per-repetition values
    /// concatenate, and the processes must agree on the inputs, the
    /// verified outputs and the exact counts.
    pub fn merge(parts: Vec<WorkloadResult>) -> WorkloadResult {
        let Some((first, rest)) = parts.split_first() else {
            return WorkloadResult::default();
        };
        let mut out = first.clone();
        if rest.is_empty() {
            return out;
        }
        out.metrics = median_values(parts.iter().map(|r| &r.metrics));
        out.layers = median_values(parts.iter().map(|r| &r.layers));
        for r in rest {
            out.correct &= r.correct;
            out.attempted += r.attempted;
            out.failed += r.failed;
            for (name, vs) in &r.reps {
                out.reps.entry(name.clone()).or_default().extend(vs);
            }
            let agree = (&r.inputs_digest, &r.verify_digest, &r.exact)
                == (&out.inputs_digest, &out.verify_digest, &out.exact);
            if !agree && r.problems.is_empty() {
                out.problems.push(
                    "processes of one seed disagree on inputs, outputs or exact counts".into(),
                );
            }
            for p in &r.problems {
                if !out.problems.contains(p) {
                    out.problems.push(p.clone());
                }
            }
        }
        if let Some(v) = out.metrics.get_mut("fail_ratio") {
            v.value = out.failed as f64 / out.attempted.max(1) as f64;
        }
        out.correct &= out.problems.is_empty();
        out
    }
}

/// Every metric any of `all` holds: the median of its finite values,
/// with the samples behind them added up.
fn median_values<'a>(
    all: impl Iterator<Item = &'a BTreeMap<String, Value>> + Clone,
) -> BTreeMap<String, Value> {
    let names: std::collections::BTreeSet<&String> = all.clone().flat_map(|m| m.keys()).collect();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<&Value> = all.clone().filter_map(|m| m.get(name)).collect();
            let finite: Vec<f64> = values
                .iter()
                .map(|v| v.value)
                .filter(|v| v.is_finite())
                .collect();
            let merged = Value::new(
                median(&finite).unwrap_or(f64::NAN),
                &values[0].unit,
                values.iter().map(|v| v.samples).sum(),
            );
            (name.clone(), merged)
        })
        .collect()
}

fn num(v: Option<&JsonValue>, name: &str) -> Result<f64, String> {
    match v {
        Some(JsonValue::Number(n)) => Ok(*n),
        // Non-finite floats render as null.
        Some(JsonValue::Null) => Ok(f64::NAN),
        _ => Err(format!("{name}: expected a number")),
    }
}

impl Invocation {
    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("seed").u64(self.seed);
        w.key("seconds").u64(self.seconds);
        w.key("trace").bool(self.trace);
        w.key("smoke").bool(self.smoke);
        w.key("host").begin_object();
        w.key("nproc").u64(self.host.nproc);
        w.key("available_parallelism")
            .u64(self.host.available_parallelism);
        w.key("cpu_model").string(&self.host.cpu_model);
        w.key("rustc").string(&self.host.rustc);
        w.key("git_commit").string(&self.host.git_commit);
        w.end_object();
        w.key("workloads").begin_array();
        for r in &self.workloads {
            r.write(w);
        }
        w.end_array();
        w.end_object();
    }

    /// The invocation as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write(&mut w);
        w.finish()
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        let host = v.get("host").ok_or("invocation without host")?;
        let text = |key: &str| {
            host.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string()
        };
        let count = |key: &str| host.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        Ok(Invocation {
            seed: v
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or("invocation without seed")?,
            seconds: v.get("seconds").and_then(JsonValue::as_u64).unwrap_or(0),
            trace: matches!(v.get("trace"), Some(JsonValue::Bool(true))),
            smoke: matches!(v.get("smoke"), Some(JsonValue::Bool(true))),
            host: Host {
                nproc: count("nproc"),
                available_parallelism: count("available_parallelism"),
                cpu_model: text("cpu_model"),
                rustc: text("rustc"),
                git_commit: text("git_commit"),
            },
            workloads: v
                .get("workloads")
                .and_then(JsonValue::as_array)
                .ok_or("invocation without workloads")?
                .iter()
                .map(WorkloadResult::read)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Parses one invocation line.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::read(&json::parse(text)?)
    }
}

impl ResultFile {
    /// Renders the file: one invocation per line inside the envelope,
    /// so appends diff as added lines.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"schema\": {SCHEMA}, \"invocations\": [\n");
        for (i, inv) in self.invocations.iter().enumerate() {
            out.push_str(&inv.to_json());
            out.push_str(if i + 1 < self.invocations.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a result file, refusing other schema versions.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        match v.get("schema").and_then(JsonValue::as_u64) {
            Some(SCHEMA) => {}
            other => {
                return Err(format!(
                    "unsupported result schema {other:?} (expected {SCHEMA})"
                ))
            }
        }
        let invocations = v
            .get("invocations")
            .and_then(JsonValue::as_array)
            .ok_or("result file without invocations")?
            .iter()
            .map(Invocation::read)
            .collect::<Result<_, _>>()?;
        Ok(ResultFile { invocations })
    }
}

/// A digest builder over the explorer's 64-bit FNV-1a hasher: inputs
/// and verified outputs fold in field by field.
#[derive(Debug, Clone, Default)]
pub struct Fnv(FnvHasher);

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        self.0.write(bytes);
        self
    }

    /// Folds a length-prefixed string in, so concatenations stay
    /// unambiguous.
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Folds an integer in.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0.finish())
    }
}
