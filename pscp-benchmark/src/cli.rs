//! The command line: run workloads (each in a child process of its
//! own), print every metric, append results to a result file, and
//! compare two result files.

use crate::compare::{compare, Verdict};
use crate::host::host;
use crate::record::{
    end_to_end, per_layer, workloads, Invocation, ResultFile, Value, WorkloadResult,
};
use crate::runner::RunConfig;
use crate::workloads::run_named;
use pscp_obs::json::JsonWriter;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Usage text.
const USAGE: &str = "\
usage: pscp-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
                      [--smoke] [--out FILE]
       pscp-benchmark --compare A.json B.json

Runs each named workload (all six when none is named) in four child
processes of its own, each measuring a quarter of --seconds, and prints
every metric, the median over the four, with its unit; the last line of
standard output is one JSON object. Exits 1 when a verify fails.
  --workload NAME  dse_beam2, cosim_plant, scripted_dense, gang_sparse,
                   serve_mix or explore_wide (repeatable)
  --seed N         input seed (default 1)
  --seconds S      minimum length of the timed phases together (default 12)
  --trace [0|1]    also run the traced pass and report per-layer metrics
                   (one process a workload)
  --smoke          tiny inputs and one repetition: a functional check
  --out FILE       append this invocation to a result file
  --compare A B    per (metric, workload) verdicts between two result
                   files holding at least ten runs of each workload";

/// A workload's child processes get this long, together, before the
/// one running is killed.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

/// Child processes an untraced, full-size run of one workload is split
/// over. Each measures an equal share of `--seconds`; every metric is
/// the median over them. How a process's memory happens to be laid out
/// sets its speed for its whole life: runs of one seed in consecutive
/// processes spread 4 % in CPU throughput, 5-second windows within one
/// process 1–3 %. Only more processes average that out.
pub const PROCESSES: usize = 4;

/// What one command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Run workloads in child processes.
    Run(RunArgs),
    /// Run exactly one workload in this process (what a child does).
    Child(RunArgs),
    /// Compare two result files.
    Compare(PathBuf, PathBuf),
}

/// Arguments of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

impl RunArgs {
    /// Child processes per workload: one for a traced run, whose traced
    /// and untraced passes must share a process to be compared, and for
    /// a smoke run.
    pub fn processes(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            PROCESSES
        }
    }

    fn config(&self) -> RunConfig {
        RunConfig {
            seed: self.seed,
            seconds: self.seconds as f64 / self.processes() as f64,
            trace: self.trace,
            smoke: self.smoke,
        }
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending argument.
pub fn parse(args: &[String]) -> Result<Mode, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: 12,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut child = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !workloads().contains(&w) {
                    return Err(format!(
                        "unknown workload {w:?} (one of {})",
                        workloads().join(", ")
                    ));
                }
                run.workloads.push(w);
            }
            "--seed" => run.seed = number("--seed", &value("--seed")?)?,
            "--seconds" => {
                run.seconds = number("--seconds", &value("--seconds")?)?;
                if run.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => run.smoke = true,
            "--out" => run.out = Some(PathBuf::from(value("--out")?)),
            "--child" => child = true,
            "--compare" => {
                let a = value("--compare")?;
                let b = value("--compare")?;
                if it.next().is_some() {
                    return Err("--compare takes exactly two files".into());
                }
                return Ok(Mode::Compare(a.into(), b.into()));
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if child {
        if run.workloads.len() != 1 {
            return Err("--child runs exactly one --workload".into());
        }
        return Ok(Mode::Child(run));
    }
    if run.workloads.is_empty() {
        run.workloads = workloads().to_vec();
    }
    Ok(Mode::Run(run))
}

fn number(name: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{name}: {v:?} is not a whole number"))
}

/// Runs the command; returns the process exit code.
pub fn main_with(args: &[String]) -> i32 {
    let mode = match parse(args) {
        Ok(m) => m,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("pscp-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match mode {
        Mode::Child(run) => match run_named(&run.workloads[0], &run.config()) {
            Some(result) => {
                println!("{}", result.to_json());
                0
            }
            None => {
                eprintln!("pscp-benchmark: no workload is named {}", run.workloads[0]);
                2
            }
        },
        Mode::Run(run) => {
            if cfg!(debug_assertions) {
                eprintln!(
                    "pscp-benchmark: refusing to measure a debug build; build with --release"
                );
                return 2;
            }
            run_children(&run)
        }
        Mode::Compare(a, b) => run_compare(&a, &b),
    }
}

/// Runs one workload in [`RunArgs::processes`] child processes, one
/// after another, and merges their results.
fn run_workload(run: &RunArgs, workload: &str) -> WorkloadResult {
    let deadline = Instant::now() + CHILD_DEADLINE;
    let mut parts = Vec::new();
    for _ in 0..run.processes() {
        let part = spawn_child(run, workload, deadline);
        let failed = part.metrics.is_empty();
        parts.push(part);
        if failed {
            break;
        }
    }
    WorkloadResult::merge(parts)
}

/// Runs one workload in a child process with every `PSCP_*` variable
/// cleared, so no knob of the program leaks into the measurement. The
/// child is killed if it is still running at `deadline`.
fn spawn_child(run: &RunArgs, workload: &str, deadline: Instant) -> WorkloadResult {
    let failed = |problem: String| WorkloadResult {
        workload: workload.to_string(),
        problems: vec![problem],
        ..WorkloadResult::default()
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return failed(format!("cannot locate the benchmark executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        "--workload",
        workload,
        "--seed",
        &run.seed.to_string(),
    ])
    .args([
        "--seconds",
        &run.seconds.to_string(),
        "--trace",
        if run.trace { "1" } else { "0" },
    ])
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    if run.smoke {
        cmd.arg("--smoke");
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PSCP_") {
            cmd.env_remove(key);
        }
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return failed(format!("cannot start the workload process: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!(
                    "killed after {} s of the workload's processes",
                    CHILD_DEADLINE.as_secs()
                ));
            }
            Err(e) => break Err(format!("cannot wait for the workload process: {e}")),
        }
    };
    let text = reader.join().unwrap_or_default();
    match status {
        Err(e) => failed(e),
        Ok(s) if !s.success() => failed(format!("workload process exited with {s}")),
        Ok(_) => match text.lines().last().map(WorkloadResult::from_json) {
            Some(Ok(r)) => r,
            Some(Err(e)) => failed(format!("unreadable workload result: {e}")),
            None => failed("the workload process printed no result".into()),
        },
    }
}

fn run_children(run: &RunArgs) -> i32 {
    let results: Vec<WorkloadResult> = run.workloads.iter().map(|w| run_workload(run, w)).collect();
    let invocation = Invocation {
        seed: run.seed,
        seconds: run.seconds,
        trace: run.trace,
        smoke: run.smoke,
        host: host(),
        workloads: results,
    };
    print_invocation(&invocation);
    if let Some(path) = &run.out {
        if let Err(e) = append(path, &invocation) {
            eprintln!("pscp-benchmark: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    match invocation.workloads.as_slice() {
        [one] => println!("{}", result_line(one, run.trace)),
        _ => println!("{}", invocation.to_json()),
    }
    if invocation.workloads.iter().all(|w| w.correct) {
        0
    } else {
        1
    }
}

fn append(path: &Path, invocation: &Invocation) -> Result<(), String> {
    let mut file = match std::fs::read_to_string(path) {
        Ok(text) => ResultFile::from_json(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => ResultFile::default(),
        Err(e) => return Err(e.to_string()),
    };
    file.invocations.push(invocation.clone());
    std::fs::write(path, file.to_json()).map_err(|e| e.to_string())
}

/// The one-line result of a single-workload run: correctness, the
/// operation counts, and the end-to-end metrics (the per-layer ones
/// when traced), each with its unit.
pub fn result_line(r: &WorkloadResult, trace: bool) -> String {
    let (defs, values) = if trace {
        (per_layer(), &r.layers)
    } else {
        (end_to_end(), &r.metrics)
    };
    let value = |name: &str| values.get(name).map_or(f64::NAN, |v| v.value);
    let correct = r.correct && defs.iter().all(|d| value(&d.name).is_finite());
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct").bool(correct);
    w.key("attempted").u64(r.attempted.max(1));
    w.key("failed").u64(r.failed);
    w.key("metrics").begin_object();
    for def in defs {
        w.key(&def.name).begin_object();
        w.key("value").f64(value(&def.name));
        w.key("unit").string(&def.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn print_values(title: &str, values: &BTreeMap<String, Value>) {
    if values.is_empty() {
        return;
    }
    println!("  {title}:");
    for (name, v) in values {
        println!(
            "    {name:<36} {:>16} {:<8} (n={})",
            fmt_value(v.value),
            v.unit,
            v.samples
        );
    }
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "-".into()
    } else if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

fn print_invocation(inv: &Invocation) {
    let h = &inv.host;
    println!(
        "pscp-benchmark seed={} seconds={} trace={} smoke={} | nproc={} available_parallelism={} cpu={:?} {} commit={}",
        inv.seed,
        inv.seconds,
        inv.trace,
        inv.smoke,
        h.nproc,
        h.available_parallelism,
        h.cpu_model,
        h.rustc,
        h.git_commit
    );
    for r in &inv.workloads {
        println!(
            "== {} — {} (attempted {}, failed {})",
            r.workload,
            if r.correct {
                "verified"
            } else {
                "NOT VERIFIED"
            },
            r.attempted,
            r.failed
        );
        print_values("end-to-end", &r.metrics);
        print_values("per-layer", &r.layers);
        if !r.exact.is_empty() {
            println!("  exact counts:");
            for (name, v) in &r.exact {
                println!("    {name:<36} {v:>16}");
            }
        }
        println!(
            "  inputs {} / verified outputs {}",
            r.inputs_digest, r.verify_digest
        );
        for p in &r.problems {
            println!("  problem: {p}");
        }
    }
}

fn run_compare(a: &Path, b: &Path) -> i32 {
    let load = |p: &Path| -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        ResultFile::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let comparison = match load(a).and_then(|fa| load(b).and_then(|fb| compare(&fa, &fb))) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pscp-benchmark: {e}");
            return 2;
        }
    };
    println!(
        "{:<16} {:<28} {:<8} {:>14} {:>14} {:>6}  verdict",
        "workload", "metric", "unit", "median A", "median B", "pairs"
    );
    for r in &comparison.rows {
        println!(
            "{:<16} {:<28} {:<8} {:>14} {:>14} {:>6}  {}",
            r.workload,
            r.metric,
            r.unit,
            fmt_value(r.median_a),
            fmt_value(r.median_b),
            r.pairs,
            r.verdict.as_str()
        );
    }
    for (workload, what) in &comparison.behaviour_changes {
        println!("BEHAVIOUR CHANGE {workload}: {what}");
    }
    let regressed = comparison
        .rows
        .iter()
        .any(|r| r.verdict == Verdict::Regressed);
    i32::from(regressed || !comparison.behaviour_changes.is_empty())
}
