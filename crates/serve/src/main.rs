//! `pscp-serve` — the PSCP scenario server binary.
//!
//! * `pscp-serve` — serve the pickup-head example system on
//!   `PSCP_SERVE_ADDR` (default `127.0.0.1:7971`) until killed.
//! * `pscp-serve session --clients N [--scenarios M]` — spin up a
//!   loopback server, run `N` concurrent clients submitting `M`
//!   pickup-head scenarios each, differential-check every outcome
//!   against an in-process `SimPool`, and write the obs metrics
//!   snapshot to `<obs_dir>/serve_metrics.json`. Exits non-zero on
//!   any byte mismatch.
//! * `pscp-serve check <chart> [actions]` — compile the chart (and
//!   optionally an action-language file) without serving anything,
//!   printing every diagnostic with caret-underlined source excerpts.
//!   Exits 0 when the sources compile (warnings allowed), 1 on any
//!   error — the CI-friendly front door to the diagnostics pipeline.
//! * `pscp-serve stats [--json|--prom] [--addr A|--loopback]` —
//!   one-shot telemetry scrape over the wire (`StatsRequest`/`Stats`
//!   frames): serve gauges plus the full obs snapshot, rendered as a
//!   human table, versioned snapshot JSON, or Prometheus text
//!   exposition. `--loopback` spins a throwaway server with traffic —
//!   the self-contained CI smoke.
//! * `pscp-serve top [--interval MS] [--count N] [--addr A|--loopback]`
//!   — live console: polls Stats frames and renders scenarios/sec,
//!   p50/p99 queue+sim latency from histogram deltas, credit stalls,
//!   and per-shard throughput.
//! * `pscp-serve explore [--addr A|--loopback] [--max-states N]
//!   [--max-depth N] [--witnesses N] [--never-active STATE]...
//!   [--never-raised EVENT]...` — exhaustive state-space exploration
//!   over the wire (`Explore`/`ExploreResult` frames): reachable-state
//!   count, deadlocks, unreachable chart elements, and safety-predicate
//!   violations with replayable minimal counterexamples. `--loopback`
//!   spins a throwaway server, explores the same system in-process, and
//!   asserts the two reports byte-identical — the self-contained CI
//!   smoke. Every witness in a loopback run is replayed on a fresh
//!   machine and byte-checked against its claimed state.

use pscp_core::arch::PscpArch;
use pscp_core::machine::ScriptedEnvironment;
use pscp_core::pool::{BatchOptions, SimPool};
use pscp_core::serve::{
    self,
    wire::{MetricsSnapshot, WireOutcome},
    ScenarioClient, ServeGauges, ServeOptions,
};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() {
    eprintln!(
        "usage: pscp-serve [session --clients N [--scenarios M] [--window W]]\n\
         \x20      pscp-serve check <chart-file> [action-file]\n\
         \x20      pscp-serve stats [--json|--prom] [--addr A|--loopback]\n\
         \x20      pscp-serve top [--interval MS] [--count N] [--addr A|--loopback]\n\
         \x20      pscp-serve explore [--addr A|--loopback] [--max-states N] [--max-depth N]\n\
         \x20                [--witnesses N] [--never-active STATE]... [--never-raised EVENT]...\n\
         env:   PSCP_SERVE_ADDR (default 127.0.0.1:7971), PSCP_SERVE_WINDOW, PSCP_THREADS,\n\
         \x20      PSCP_SERVE_STATS (off disables the telemetry plane),\n\
         \x20      PSCP_EXPLORE_MAX_STATES, PSCP_EXPLORE_MAX_DEPTH, PSCP_EXPLORE_WITNESSES"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => run_server(),
        Some("session") => session(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("stats") => stats_cmd(&args[1..]),
        Some("top") => top_cmd(&args[1..]),
        Some("explore") => explore_cmd(&args[1..]),
        Some("--help" | "-h" | "help") => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("pscp-serve: unknown mode `{other}`");
            usage();
            ExitCode::from(2)
        }
    }
}

/// Foreground server on `PSCP_SERVE_ADDR`.
fn run_server() -> ExitCode {
    let system = pscp_bench::example_system(&PscpArch::dual_md16(true));
    let opts = ServeOptions::from_env();
    let addr = serve::addr_from_env();
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("pscp-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = listener.local_addr().expect("bound listener has an address");
    println!(
        "pscp-serve: serving pickup-head on {local} (workers={}, window<={}, fingerprint={:#018x})",
        opts.threads,
        opts.max_window,
        serve::system_fingerprint(&system)
    );
    let shutdown = AtomicBool::new(false);
    match serve::serve(&system, listener, &opts, &shutdown) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pscp-serve: server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `pscp-serve check`: compile chart (+ optional actions) and print
/// the full diagnostic report with caret-underlined source excerpts.
/// Chart-sourced diagnostics quote the chart file, action-sourced ones
/// the action file; system-level findings have no excerpt. Exit 0 when
/// the sources compile (warnings allowed), 1 on errors, 2 on usage or
/// unreadable files.
fn check(args: &[String]) -> ExitCode {
    use pscp_core::diag::{self, DiagnosticSink, Severity, Source};

    let Some(chart_path) = args.first() else {
        eprintln!("pscp-serve check: missing chart file");
        usage();
        return ExitCode::from(2);
    };
    let chart_src = match std::fs::read_to_string(chart_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pscp-serve check: cannot read {chart_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let action_src = match args.get(1) {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("pscp-serve check: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => String::new(),
    };

    let mut sink = DiagnosticSink::new();
    let compiled = diag::compile_sources(
        &chart_src,
        &action_src,
        &PscpArch::dual_md16(true),
        &pscp_core::diag::CodegenOptions::default(),
        &mut sink,
    );
    let report = sink.finish();
    for d in &report {
        let source = match d.source {
            Source::Chart => chart_src.as_str(),
            Source::Action => action_src.as_str(),
            Source::System => "",
        };
        println!("{}", d.render_with_source(source));
    }
    let errors = report.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = report.len() - errors;
    println!("{errors} error(s), {warnings} warning(s)");
    match compiled {
        Some(sys) => {
            println!(
                "pscp-serve check: OK (fingerprint {:#018x})",
                serve::system_fingerprint(&sys)
            );
            ExitCode::SUCCESS
        }
        None => ExitCode::FAILURE,
    }
}

/// A deterministic pickup-head script for (client, scenario) — mixes
/// power-up, data, and pulse traffic so shard workers see varied work.
fn script_for(client: usize, scenario: usize) -> Vec<Vec<String>> {
    const MENU: [&[&str]; 6] = [
        &["POWER"],
        &["DATA_VALID"],
        &["DATA_VALID"],
        &["X_PULSE"],
        &["X_PULSE", "Y_PULSE"],
        &[],
    ];
    let len = 3 + (client + scenario) % 5;
    (0..len)
        .map(|step| {
            MENU[(client * 7 + scenario * 3 + step) % MENU.len()]
                .iter()
                .map(|e| (*e).to_string())
                .collect()
        })
        .collect()
}

fn parse_flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A small chart/action pair for the live-compile round-trip.
const RT_CHART: &str = "\
event TICK period 100;
orstate Root { contains Off, On; default Off; }
basicstate Off { transition { target On; label \"TICK\"; } }
basicstate On { transition { target Off; label \"TICK\"; } }
";
const RT_ACTIONS: &str = "int:16 total;\nvoid Bump() { total = total + 1; }\n";
/// The same chart with the default pointing nowhere and a bad label —
/// must come back as diagnostics, never a protocol error.
const RT_BROKEN_CHART: &str = "\
event TICK period 100;
orstate Root { contains Off, On; default Missing; }
basicstate Off { transition { target On; label \"BOOM\"; } }
basicstate On { transition { target Off; label \"TICK\"; } }
";

/// One connection: compile good sources, compile broken sources, then
/// submit a scenario — asserting wire/in-process byte identity of both
/// diagnostic lists along the way.
fn compile_roundtrip(
    addr: std::net::SocketAddr,
    limits: &BatchOptions,
) -> Result<(), String> {
    use pscp_core::diag::{compile_sources, CodegenOptions, DiagnosticSink};
    use pscp_core::serve::wire::encode_diagnostics;

    let arch = PscpArch::dual_md16(true);
    let mut client =
        ScenarioClient::connect(addr).map_err(|e| format!("connect: {e}"))?;

    // Good sources: fingerprint registered, report byte-identical.
    let mut sink = DiagnosticSink::new();
    let local = compile_sources(RT_CHART, RT_ACTIONS, &arch, &CodegenOptions::default(), &mut sink);
    let local_diags = sink.finish();
    let (fp, wire_diags) =
        client.compile(RT_CHART, RT_ACTIONS).map_err(|e| format!("compile: {e}"))?;
    if local.is_none() {
        return Err("good sources failed to compile in-process".into());
    }
    if fp == 0 {
        return Err("good sources came back with fingerprint 0".into());
    }
    if encode_diagnostics(&wire_diags) != encode_diagnostics(&local_diags) {
        return Err("good-source diagnostic list differs from in-process compile".into());
    }

    // Broken sources: no fingerprint, errors present, still byte-identical.
    let mut sink = DiagnosticSink::new();
    let local =
        compile_sources(RT_BROKEN_CHART, RT_ACTIONS, &arch, &CodegenOptions::default(), &mut sink);
    let local_diags = sink.finish();
    let (fp, wire_diags) =
        client.compile(RT_BROKEN_CHART, RT_ACTIONS).map_err(|e| format!("compile: {e}"))?;
    if local.is_some() {
        return Err("broken sources compiled in-process".into());
    }
    if fp != 0 {
        return Err("broken sources came back with a fingerprint".into());
    }
    if wire_diags.is_empty() {
        return Err("broken sources produced an empty diagnostic list".into());
    }
    if encode_diagnostics(&wire_diags) != encode_diagnostics(&local_diags) {
        return Err("broken-source diagnostic list differs from in-process compile".into());
    }

    // The connection is still good for scenario traffic.
    client.submit(script_for(0, 0), *limits).map_err(|e| format!("submit: {e}"))?;
    client.recv().map_err(|e| format!("recv: {e}"))?;
    Ok(())
}

/// Loopback differential session.
fn session(args: &[String]) -> ExitCode {
    let clients = parse_flag(args, "--clients", 4).max(1);
    let per_client = parse_flag(args, "--scenarios", 8).max(1);
    let window = parse_flag(args, "--window", serve::DEFAULT_WINDOW as usize) as u32;

    pscp_obs::set_flags(pscp_obs::flags() | pscp_obs::METRICS);
    pscp_obs::metrics::reset_all();

    let system = Arc::new(pscp_bench::example_system(&PscpArch::dual_md16(true)));
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 16 };

    // The reference: every scenario through the in-process pool.
    let scripts: Vec<Vec<Vec<String>>> = (0..clients)
        .flat_map(|c| (0..per_client).map(move |i| script_for(c, i)))
        .collect();
    let envs = scripts.iter().cloned().map(ScriptedEnvironment::new).collect();
    let expected: Vec<Vec<u8>> = SimPool::new()
        .run_batch(&system, envs, &limits)
        .iter()
        .map(|o| WireOutcome::from_batch(o).encode())
        .collect();

    let opts = ServeOptions { max_window: window, ..ServeOptions::from_env() };
    let server = match serve::spawn(Arc::clone(&system), "127.0.0.1:0", opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pscp-serve: cannot start loopback server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();
    let fingerprint = serve::system_fingerprint(&system);

    // Compile→Diagnostics→Submit round-trip on one connection: the
    // wire diagnostic list must be byte-identical to an in-process
    // compile of the same sources, a good compile must hand back a
    // registered fingerprint, and the connection must still accept
    // submissions afterwards.
    if let Err(e) = compile_roundtrip(addr, &limits) {
        eprintln!("pscp-serve session: compile round-trip FAILED: {e}");
        let _ = server.stop();
        return ExitCode::FAILURE;
    }
    println!("pscp-serve session: compile round-trip OK (wire report byte-identical)");

    let mismatches: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let expected = &expected;
                s.spawn(move || -> usize {
                    let mut client = ScenarioClient::connect_with(addr, window, fingerprint)
                        .expect("session client connects");
                    let scripts: Vec<_> =
                        (0..per_client).map(|i| script_for(c, i)).collect();
                    let outcomes = client
                        .run_batch(&scripts, limits)
                        .expect("session batch completes");
                    outcomes
                        .iter()
                        .enumerate()
                        .filter(|(i, o)| o.encode() != expected[c * per_client + i])
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    });

    // The session's closing telemetry comes over the wire — the same
    // Stats frames an operator scrapes — not from process globals, so
    // the written file exercises the full remote plane every run.
    let scrape = ScenarioClient::connect_with(addr, window, fingerprint)
        .and_then(|mut c| c.stats());
    let _ = server.stop();
    let (gauges, snapshot) = match scrape {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("pscp-serve session: telemetry scrape failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let dir = pscp_obs::obs_dir();
    let snapshot_path = dir.join("serve_metrics.json");
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&snapshot_path, snapshot.to_json_with(&gauges.rows())))
    {
        eprintln!("pscp-serve: cannot write {}: {e}", snapshot_path.display());
        return ExitCode::FAILURE;
    }

    let total = clients * per_client;
    println!(
        "pscp-serve session: clients={clients} scenarios={total} window={window} \
         mismatches={mismatches} metrics={}",
        snapshot_path.display()
    );
    if mismatches == 0 {
        println!("pscp-serve session: differential OK (server byte-identical to SimPool)");
        ExitCode::SUCCESS
    } else {
        eprintln!("pscp-serve session: DIFFERENTIAL FAILURE");
        ExitCode::FAILURE
    }
}

/// The address a scrape should dial: `--addr` wins, else the env.
fn parse_addr(args: &[String]) -> String {
    args.iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(serve::addr_from_env)
}

/// Spin a throwaway loopback server on the example system, push a
/// little traffic through it, and scrape it over the wire — fully
/// self-contained, so CI can smoke the exposition format without a
/// running deployment.
fn loopback_scrape() -> Result<(ServeGauges, MetricsSnapshot), String> {
    pscp_obs::set_flags(pscp_obs::flags() | pscp_obs::METRICS);
    let system = Arc::new(pscp_bench::example_system(&PscpArch::dual_md16(true)));
    let server = serve::spawn(Arc::clone(&system), "127.0.0.1:0", ServeOptions::from_env())
        .map_err(|e| format!("loopback server: {e}"))?;
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 16 };
    let fingerprint = serve::system_fingerprint(&system);
    let result = (|| {
        let mut client =
            ScenarioClient::connect_latency(server.addr(), serve::DEFAULT_WINDOW, fingerprint)
                .map_err(|e| format!("loopback connect: {e}"))?;
        let scripts: Vec<_> = (0..16).map(|i| script_for(0, i)).collect();
        client.run_batch(&scripts, limits).map_err(|e| format!("loopback traffic: {e}"))?;
        client.stats().map_err(|e| format!("loopback scrape: {e}"))
    })();
    let _ = server.stop();
    result
}

/// `pscp-serve stats`: one-shot scrape, rendered human / JSON / Prom.
fn stats_cmd(args: &[String]) -> ExitCode {
    let scraped = if args.iter().any(|a| a == "--loopback") {
        loopback_scrape()
    } else {
        let addr = parse_addr(args);
        ScenarioClient::connect(addr.as_str())
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("scrape {addr}: {e}"))
    };
    let (gauges, snapshot) = match scraped {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("pscp-serve stats: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.iter().any(|a| a == "--prom") {
        print!("{}", render_prometheus(&gauges, &snapshot));
    } else if args.iter().any(|a| a == "--json") {
        println!("{}", snapshot.to_json_with(&gauges.rows()));
    } else {
        print!("{}", render_table(&gauges, &snapshot));
    }
    ExitCode::SUCCESS
}

/// Prometheus text exposition, dependency-free. Counters become
/// `pscp_<name>_total`, per-worker slots get a `worker` label, TEP
/// instruction counts a `kind` label, and histograms the standard
/// cumulative `le` buckets plus `_sum`/`_count`. Serve gauges are
/// `pscp_serve_<name>` gauge families.
fn render_prometheus(gauges: &ServeGauges, s: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, v) in gauges.rows() {
        let _ = writeln!(out, "# TYPE pscp_serve_{name} gauge\npscp_serve_{name} {v}");
    }
    for (name, v) in &s.counters {
        let _ = writeln!(out, "# TYPE pscp_{name}_total counter\npscp_{name}_total {v}");
    }
    for (name, slots) in &s.per_worker {
        let _ = writeln!(out, "# TYPE pscp_{name}_total counter");
        for (w, v) in slots.iter().enumerate() {
            let _ = writeln!(out, "pscp_{name}_total{{worker=\"{w}\"}} {v}");
        }
    }
    if !s.tep_instr.is_empty() {
        let _ = writeln!(out, "# TYPE pscp_tep_instr_total counter");
        for (kind, v) in &s.tep_instr {
            let _ = writeln!(out, "pscp_tep_instr_total{{kind=\"{kind}\"}} {v}");
        }
    }
    for h in &s.histograms {
        let name = &h.name;
        let _ = writeln!(out, "# TYPE pscp_{name} histogram");
        let mut cum = 0u64;
        for &(_lo, hi, n) in &h.buckets {
            cum += n;
            let _ = writeln!(out, "pscp_{name}_bucket{{le=\"{hi}\"}} {cum}");
        }
        let _ = writeln!(out, "pscp_{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "pscp_{name}_sum {}", h.sum);
        let _ = writeln!(out, "pscp_{name}_count {}", h.count);
    }
    out
}

/// Human-readable table for a bare `pscp-serve stats`.
fn render_table(gauges: &ServeGauges, s: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "serve gauges");
    for (name, v) in gauges.rows() {
        let _ = writeln!(out, "  {name:<22} {v}");
    }
    if !s.counters.is_empty() {
        let _ = writeln!(out, "counters");
        for (name, v) in &s.counters {
            let _ = writeln!(out, "  {name:<22} {v}");
        }
    }
    if !s.per_worker.is_empty() {
        let _ = writeln!(out, "per-worker");
        for (name, slots) in &s.per_worker {
            let total: u64 = slots.iter().sum();
            let cells: Vec<String> = slots.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "  {name:<22} {total}  [{}]", cells.join(" "));
        }
    }
    if !s.tep_instr.is_empty() {
        let _ = writeln!(out, "tep instruction mix");
        for (kind, v) in &s.tep_instr {
            let _ = writeln!(out, "  {kind:<22} {v}");
        }
    }
    if !s.histograms.is_empty() {
        let _ = writeln!(out, "histograms (count / p50 / p99)");
        for h in &s.histograms {
            let _ = writeln!(
                out,
                "  {:<22} {:>8}  {:>10}  {:>10}",
                h.name,
                h.count,
                fmt_ns(h.quantile(0.5)),
                fmt_ns(h.quantile(0.99)),
            );
        }
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// `pscp-serve top`: poll Stats frames and render per-interval rates.
/// `--loopback` runs a bounded demo against a throwaway server with a
/// background traffic driver, so the deltas have something to show.
fn top_cmd(args: &[String]) -> ExitCode {
    let interval = Duration::from_millis(parse_flag(args, "--interval", 1000).max(10) as u64);
    let loopback = args.iter().any(|a| a == "--loopback");
    // 0 = run until killed; the loopback demo defaults to a short run.
    let count = parse_flag(args, "--count", if loopback { 5 } else { 0 });
    let plain = args.iter().any(|a| a == "--plain");

    let mut server = None;
    let mut driver = None;
    let connected = if loopback {
        pscp_obs::set_flags(pscp_obs::flags() | pscp_obs::METRICS);
        let system = Arc::new(pscp_bench::example_system(&PscpArch::dual_md16(true)));
        match serve::spawn(Arc::clone(&system), "127.0.0.1:0", ServeOptions::from_env()) {
            Ok(s) => {
                let addr = s.addr();
                let fingerprint = serve::system_fingerprint(&system);
                let stop = Arc::new(AtomicBool::new(false));
                let stop_flag = Arc::clone(&stop);
                let traffic = std::thread::spawn(move || {
                    let limits = BatchOptions { deadline: u64::MAX, max_steps: 16 };
                    let Ok(mut c) =
                        ScenarioClient::connect_with(addr, serve::DEFAULT_WINDOW, fingerprint)
                    else {
                        return;
                    };
                    let mut round = 0usize;
                    while !stop_flag.load(Ordering::Relaxed) {
                        let scripts: Vec<_> = (0..8).map(|i| script_for(round, i)).collect();
                        if c.run_batch(&scripts, limits).is_err() {
                            break;
                        }
                        round += 1;
                    }
                });
                driver = Some((stop, traffic));
                let client = ScenarioClient::connect(addr);
                server = Some(s);
                client
            }
            Err(e) => {
                eprintln!("pscp-serve top: loopback server: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        ScenarioClient::connect(parse_addr(args).as_str())
    };

    let code = match connected {
        Ok(mut client) => run_top(&mut client, interval, count, plain),
        Err(e) => {
            eprintln!("pscp-serve top: connect: {e}");
            ExitCode::FAILURE
        }
    };
    if let Some((stop, traffic)) = driver {
        stop.store(true, Ordering::Relaxed);
        let _ = traffic.join();
    }
    if let Some(s) = server {
        let _ = s.stop();
    }
    code
}

/// Values of every occurrence of a repeated `--flag VALUE` pair.
fn parse_multi(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == name)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// `pscp-serve explore`: wire-driven exhaustive state-space
/// exploration. `--loopback` also explores in-process and asserts the
/// wire report byte-identical, then replays every emitted witness —
/// the self-contained differential smoke tier-1 runs.
fn explore_cmd(args: &[String]) -> ExitCode {
    use pscp_core::explore::{self, ExploreOptions, Predicate};
    use pscp_core::serve::wire::{encode_explore_report, ExploreRequest};

    let defaults = ExploreOptions::from_env();
    let mut req = ExploreRequest::from_options(&defaults);
    req.max_states = parse_flag(args, "--max-states", req.max_states as usize) as u64;
    req.max_depth = parse_flag(args, "--max-depth", req.max_depth as usize) as u32;
    req.max_witnesses = parse_flag(args, "--witnesses", req.max_witnesses as usize) as u32;
    for name in parse_multi(args, "--never-active") {
        req.predicates.push(Predicate::StateNeverActive(name));
    }
    for name in parse_multi(args, "--never-raised") {
        req.predicates.push(Predicate::EventNeverRaised(name));
    }

    let report = if args.iter().any(|a| a == "--loopback") {
        let system = Arc::new(pscp_bench::example_system(&PscpArch::dual_md16(true)));
        let opts = ServeOptions::from_env();
        let threads = opts.threads.max(1);
        let server = match serve::spawn(Arc::clone(&system), "127.0.0.1:0", opts) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("pscp-serve explore: loopback server: {e}");
                return ExitCode::FAILURE;
            }
        };
        let wired = ScenarioClient::connect(server.addr()).and_then(|mut c| c.explore(&req));
        let _ = server.stop();
        let wired = match wired {
            Ok(r) => r,
            Err(e) => {
                eprintln!("pscp-serve explore: wire exploration failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The differential: the same request explored in-process, with
        // the server's worker configuration, must produce the same
        // canonical bytes.
        let local = explore::explore(&system, &req.to_options(threads));
        if encode_explore_report(&wired) != encode_explore_report(&local) {
            eprintln!("pscp-serve explore: DIFFERENTIAL FAILURE (wire != in-process)");
            return ExitCode::FAILURE;
        }
        println!("pscp-serve explore: differential OK (wire report byte-identical)");
        // Witness-replay contract: every emitted trace lands exactly on
        // its claimed state (faults replay to the fault itself).
        let witnesses = wired
            .deadlocks
            .iter()
            .chain(wired.violations.iter().map(|v| &v.witness))
            .map(|w| (w, true))
            .chain(wired.faults.iter().map(|(_, w)| (w, false)));
        for (w, expect_state) in witnesses {
            match explore::replay(&system, &w.trace) {
                Ok(key) if !expect_state || key == w.state_key => {}
                Ok(_) => {
                    eprintln!("pscp-serve explore: WITNESS REPLAY MISMATCH");
                    return ExitCode::FAILURE;
                }
                Err(_) if !expect_state => {}
                Err(e) => {
                    eprintln!("pscp-serve explore: witness replay faulted: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("pscp-serve explore: witness replay OK");
        wired
    } else {
        let addr = parse_addr(args);
        match ScenarioClient::connect(addr.as_str()).and_then(|mut c| c.explore(&req)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("pscp-serve explore: {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let dedup_rate = if report.edges > 0 {
        report.dedup_hits as f64 / report.edges as f64
    } else {
        0.0
    };
    println!(
        "explore: states={} edges={} depth={} dedup_rate={dedup_rate:.3} truncated={}",
        report.states, report.edges, report.depth, report.truncated
    );
    println!(
        "  deadlocks={} unreachable_states={} unreachable_transitions={} violations={} faults={}",
        report.deadlocks.len(),
        report.unreachable_states.len(),
        report.unreachable_transitions.len(),
        report.violations.len(),
        report.faults.len()
    );
    for name in &report.unreachable_states {
        println!("  unreachable state: {name}");
    }
    for v in &report.violations {
        let what = match &v.predicate {
            pscp_core::explore::Predicate::EventNeverRaised(n) => format!("event {n} raised"),
            pscp_core::explore::Predicate::StateNeverActive(n) => format!("state {n} entered"),
        };
        println!("  violation: {what} after {} cycle(s)", v.witness.trace.len());
    }
    for (msg, w) in &report.faults {
        println!("  fault after {} cycle(s): {msg}", w.trace.len());
    }
    ExitCode::SUCCESS
}

/// The polling loop behind `pscp-serve top`. Every line is computed
/// from the *delta* of two server-side snapshots, so rates and
/// percentiles need no clock synchronisation with the server — both
/// ends of every histogram live on its monotonic clock.
fn run_top(
    client: &mut ScenarioClient,
    interval: Duration,
    count: usize,
    plain: bool,
) -> ExitCode {
    let pct = |h: Option<&pscp_core::serve::wire::HistogramSnapshot>, q: f64| {
        h.map_or(0, |h| h.quantile(q))
    };
    let mut prev: Option<(Instant, MetricsSnapshot)> = None;
    let mut ticks = 0usize;
    loop {
        let (gauges, snap) = match client.stats() {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("pscp-serve top: scrape failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let now = Instant::now();
        if !plain {
            print!("\x1b[2J\x1b[H"); // clear screen, cursor home
        }
        println!(
            "pscp-serve top — uptime {:.1}s  systems {}  conns {}  queue {}  workers {}",
            gauges.uptime_ns as f64 / 1e9,
            gauges.registered_systems,
            gauges.live_connections,
            gauges.queue_depth,
            gauges.workers,
        );
        match &prev {
            None => println!("  collecting baseline delta…"),
            Some((t0, earlier)) => {
                let secs = now.saturating_duration_since(*t0).as_secs_f64().max(1e-9);
                let d = snap.delta(earlier);
                let shard = d.per_worker_values("pool_scenarios").to_vec();
                let ran: u64 = shard.iter().sum();
                let frames_in: u64 = d.per_worker_values("serve_frames_in").iter().sum();
                let frames_out: u64 = d.per_worker_values("serve_frames_out").iter().sum();
                let writes: u64 = d.per_worker_values("serve_writes").iter().sum();
                println!(
                    "  {:>9.1} scenarios/s   frames +{frames_in}/+{frames_out}   \
                     {:.1} frames/write   credit stalls +{}",
                    ran as f64 / secs,
                    frames_out as f64 / writes.max(1) as f64,
                    d.counter("serve_credit_stalls"),
                );
                let cycles = d.counter("machine_steps");
                println!(
                    "  {:>9.1} cycles/s      quiet {:.1}%",
                    cycles as f64 / secs,
                    100.0 * d.counter("machine_quiet_cycles") as f64 / cycles.max(1) as f64,
                );
                let q = d.histogram("serve_queue_ns");
                let sim = d.histogram("serve_sim_ns");
                println!(
                    "  queue  p50 {:>9}  p99 {:>9}   sim  p50 {:>9}  p99 {:>9}",
                    fmt_ns(pct(q, 0.5)),
                    fmt_ns(pct(q, 0.99)),
                    fmt_ns(pct(sim, 0.5)),
                    fmt_ns(pct(sim, 0.99)),
                );
                for (w, n) in shard.iter().enumerate().filter(|&(_, &n)| n > 0) {
                    println!("  shard {w:>2}  {:>9.1}/s", *n as f64 / secs);
                }
            }
        }
        prev = Some((now, snap));
        ticks += 1;
        if count != 0 && ticks >= count {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}
