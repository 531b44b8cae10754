//! Observability demo on the paper's SMD pickup-head example: one
//! traced + metered + waveform-dumped run producing everything the obs
//! layer can emit.
//!
//! Honours `PSCP_OBS` when set; with it unset this binary force-enables
//! all three layers (it exists to demonstrate them). Artifacts go to
//! `PSCP_OBS_DIR` (default `target/obs`):
//!
//! * `trace.json`   — Chrome `trace_event` document; open in
//!   chrome://tracing or Perfetto to see the worker lanes.
//! * `pickup_head.vcd` — waveform of one scripted machine run; open in
//!   GTKWave.
//! * `metrics.json` — counter/histogram snapshot; pretty-print with
//!   `scripts/obs-report.sh`.
//!
//! Run with `PSCP_OBS=metrics,trace,vcd cargo run --release -p
//! pscp-bench --bin obs_pickup_head`.

use pscp_bench::{example_system, pickup_head_inputs};
use pscp_core::arch::PscpArch;
use pscp_core::machine::{PscpMachine, ScriptedEnvironment};
use pscp_core::optimize::{optimize, MemoPersistence, OptimizeOptions};
use pscp_core::pool::{BatchOptions, SimPool};
use pscp_motors::head::{Move, SmdHead};
const WORKERS: usize = 4;

fn main() {
    if pscp_obs::env_flags() == 0 {
        pscp_obs::set_flags(pscp_obs::ALL);
    } else {
        pscp_obs::set_flags(pscp_obs::env_flags());
    }
    pscp_obs::trace::set_thread_lane("main");
    let dir = pscp_obs::obs_dir();
    std::fs::create_dir_all(&dir).expect("create obs dir");

    // 1. A design-space exploration: `optimize`, `optimize.step` and
    // `candidate` spans land in the trace, the OPT_* counters in the
    // metrics.
    let (chart, ir) = pickup_head_inputs();
    let options = OptimizeOptions {
        verify_incremental: false,
        memo: MemoPersistence::Disabled,
        ..OptimizeOptions::default()
    };
    let result = optimize(&chart, &ir, &PscpArch::minimal(), &options).expect("optimize");
    println!(
        "optimize: {} steps, satisfied={}, final arch `{}`",
        result.history.len(),
        result.satisfied,
        result.arch.label
    );

    // 2. A batched co-simulation: `scenario` spans on `sim-worker-N`
    // lanes, POOL_* per-worker counters.
    let sys = example_system(&PscpArch::dual_md16(true));
    let idle1 = sys.chart.state_by_name("Idle1").unwrap();
    let scenarios: Vec<SmdHead> = (0..2 * WORKERS)
        .map(|i| {
            let i = i as u16;
            SmdHead::with_moves(&[Move { x: 10 + i, y: 8 + i, phi: 5 + i % 4 }])
        })
        .collect();
    let outcomes = SimPool::with_threads(WORKERS).run_batch_until(
        &sys,
        scenarios,
        &BatchOptions { deadline: u64::MAX, max_steps: 500_000 },
        |m, head, _| {
            head.pending_bytes() == 0
                && head.all_idle()
                && m.executor().configuration().is_active(idle1)
        },
    );
    println!("batch: {} scenarios across {WORKERS} workers", outcomes.len());

    // 3. A waveform of one short scripted run.
    if pscp_obs::vcd_enabled() {
        let mut machine = PscpMachine::new(&sys);
        machine.attach_vcd();
        let mut env = ScriptedEnvironment::new(vec![
            vec!["POWER"],
            vec!["DATA_VALID"],
            vec!["DATA_VALID"],
            vec!["X_PULSE", "Y_PULSE"],
            vec![],
            vec!["X_PULSE"],
            vec!["DATA_VALID", "Y_PULSE"],
            vec![],
            vec!["PHI_PULSE"],
            vec![],
        ]);
        for _ in 0..10 {
            machine.step(&mut env).expect("cycle executes");
        }
        let vcd = machine.detach_vcd().expect("probe attached");
        let path = dir.join("pickup_head.vcd");
        std::fs::write(&path, &vcd).expect("write VCD");
        println!("vcd: {} ({} bytes)", path.display(), vcd.len());
    }

    if pscp_obs::trace_enabled() {
        pscp_obs::trace::flush_current_thread();
        let lanes = pscp_obs::trace::collected_lane_count();
        let spans = pscp_obs::trace::collected_span_count();
        assert!(
            lanes >= 2,
            "expected >= 2 thread lanes from a {WORKERS}-worker run, got {lanes}"
        );
        let trace = pscp_obs::trace::export_chrome_trace();
        let path = dir.join("trace.json");
        std::fs::write(&path, &trace).expect("write trace");
        println!("trace: {} ({lanes} lanes, {spans} spans)", path.display());
    }

    if pscp_obs::metrics_enabled() {
        let snapshot = pscp_obs::metrics::snapshot().to_json();
        let path = dir.join("metrics.json");
        std::fs::write(&path, &snapshot).expect("write metrics");
        println!("metrics: {}", path.display());
    }
}
