//! Fixed-case differential pins for graph-priced timing validation
//! and the persistent memo store.
//!
//! * `optimize()` pricing each candidate on the shared timing graph
//!   must produce byte-identical results to the full-DFS-per-candidate
//!   path, on the paper's pickup-head system and on the small toggle
//!   system.
//! * The graph-based `validate_timing` must equal the reference walk
//!   on every Table 4 architecture.
//! * A warm memo file must reproduce the cold run exactly; a deleted
//!   or corrupted memo file degrades to a cold start, never an error.

use pscp_bench::{example_system, pickup_head_inputs, table4_architectures};
use pscp_core::arch::PscpArch;
use pscp_core::optimize::{optimize, MemoPersistence, OptimizeOptions};
use pscp_core::timing::{validate_timing, validate_timing_full, TimingOptions};
use pscp_statechart::{Chart, ChartBuilder, StateKind};
use std::path::PathBuf;

fn toggle_inputs() -> (Chart, pscp_action_lang::ir::Program) {
    let mut b = ChartBuilder::new("toggle");
    b.event("FLIP", Some(60));
    b.condition("ARMED", false);
    b.state("Top", StateKind::Or).contains(["Off", "On"]).default_child("Off");
    b.state("Off", StateKind::Basic).transition("On", "FLIP/Arm(1)");
    b.state("On", StateKind::Basic).transition("Off", "FLIP [ARMED]/Disarm()");
    let chart = b.build().unwrap();
    let actions = r#"
        int:16 flips;
        int:16 level;
        void Arm(int:16 step) {
            flips = flips + step;
            level = level * 3 + flips / 2;
            ARMED = flips >= 1;
        }
        void Disarm() {
            level = level - flips * 2;
            ARMED = level >= 100;
        }
    "#;
    let env = pscp_core::compile::chart_env(&chart);
    let ir = pscp_action_lang::compile_with_env(actions, &env).expect("toggle actions compile");
    (chart, ir)
}

fn run(
    chart: &Chart,
    ir: &pscp_action_lang::ir::Program,
    incremental: bool,
    memo: MemoPersistence,
) -> pscp_core::optimize::OptimizationResult {
    let options = OptimizeOptions {
        threads: Some(1),
        incremental,
        // The oracle re-runs the full DFS inside the incremental path;
        // keep it off here so this test compares the *production*
        // incremental path against the full path.
        verify_incremental: false,
        memo,
        ..OptimizeOptions::default()
    };
    optimize(chart, ir, &PscpArch::minimal(), &options).unwrap()
}

fn assert_same_result(
    a: &pscp_core::optimize::OptimizationResult,
    b: &pscp_core::optimize::OptimizationResult,
    what: &str,
) {
    assert_eq!(a.history, b.history, "{what}: history diverged");
    assert_eq!(a.arch, b.arch, "{what}: architecture diverged");
    assert_eq!(a.satisfied, b.satisfied, "{what}: satisfaction diverged");
    assert_eq!(a.timing, b.timing, "{what}: timing report diverged");
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pscp-inc-test-{}-{name}", std::process::id()))
}

#[test]
fn incremental_optimize_matches_full_on_pickup_head() {
    let (chart, ir) = pickup_head_inputs();
    let full = run(&chart, &ir, false, MemoPersistence::Disabled);
    let incremental = run(&chart, &ir, true, MemoPersistence::Disabled);
    assert!(full.history.len() > 1, "exploration must take steps");
    assert_same_result(&incremental, &full, "pickup-head");
}

#[test]
fn incremental_optimize_matches_full_on_toggle() {
    let (chart, ir) = toggle_inputs();
    let full = run(&chart, &ir, false, MemoPersistence::Disabled);
    let incremental = run(&chart, &ir, true, MemoPersistence::Disabled);
    assert_same_result(&incremental, &full, "toggle");
}

#[test]
fn graph_validation_matches_reference_on_table4_architectures() {
    for arch in table4_architectures() {
        let sys = example_system(&arch);
        let options = TimingOptions::default();
        assert_eq!(
            validate_timing(&sys, &options),
            validate_timing_full(&sys, &options),
            "graph vs reference diverged on '{}'",
            arch.label
        );
    }
}

#[test]
fn warm_memo_reproduces_cold_run() {
    let path = scratch("warm.json");
    let _ = std::fs::remove_file(&path);
    let (chart, ir) = toggle_inputs();
    let cold = run(&chart, &ir, true, MemoPersistence::Path(path.clone()));
    assert!(path.exists(), "memo file must be written");
    let warm = run(&chart, &ir, true, MemoPersistence::Path(path.clone()));
    assert_same_result(&warm, &cold, "warm vs cold");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_memo_degrades_to_cold_run() {
    let path = scratch("corrupt.json");
    let (chart, ir) = toggle_inputs();
    let reference = run(&chart, &ir, true, MemoPersistence::Disabled);

    // Outright garbage.
    std::fs::write(&path, "garbage, definitely not json").unwrap();
    let r = run(&chart, &ir, true, MemoPersistence::Path(path.clone()));
    assert_same_result(&r, &reference, "garbage memo");

    // A stale format version.
    std::fs::write(&path, r#"{"version":999999,"entries":{}}"#).unwrap();
    let r = run(&chart, &ir, true, MemoPersistence::Path(path.clone()));
    assert_same_result(&r, &reference, "stale-version memo");

    // Deleted between runs.
    let _ = std::fs::remove_file(&path);
    let r = run(&chart, &ir, true, MemoPersistence::Path(path.clone()));
    assert_same_result(&r, &reference, "deleted memo");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exhausted_budget_surfaces_worst_cycles() {
    let mut b = ChartBuilder::new("impossible");
    b.event("E", Some(3));
    b.state("Top", StateKind::Or).contains(["A", "B"]).default_child("A");
    b.state("A", StateKind::Basic).transition("B", "E/Crunch(7)");
    b.state("B", StateKind::Basic).transition("A", "E/Crunch(3)");
    let chart = b.build().unwrap();
    let actions = r#"
        int:16 acc;
        void Crunch(int:16 n) { acc = (acc * 3 + n) / (n + 1); }
    "#;
    let env = pscp_core::compile::chart_env(&chart);
    let ir = pscp_action_lang::compile_with_env(actions, &env).unwrap();
    let options = OptimizeOptions {
        threads: Some(1),
        max_steps: 2,
        memo: MemoPersistence::Disabled,
        ..OptimizeOptions::default()
    };
    let r = optimize(&chart, &ir, &PscpArch::minimal(), &options).unwrap();
    assert!(r.budget_exhausted);
    assert_eq!(
        r.exhausted_worst_cycles.len(),
        r.timing.violations.len(),
        "one surviving worst cycle per violated event"
    );
    for (cycle, v) in r.exhausted_worst_cycles.iter().zip(&r.timing.violations) {
        assert_eq!(cycle.event, v.event);
        assert_eq!(cycle.length, v.worst, "worst cycle must match the violation");
        assert!(!cycle.path.is_empty());
    }

    // A satisfiable run surfaces nothing.
    let mut loose = ChartBuilder::new("loose");
    loose.event("E", Some(1_000_000));
    loose.state("Top", StateKind::Or).contains(["A", "B"]).default_child("A");
    loose.state("A", StateKind::Basic).transition("B", "E/Crunch(7)");
    loose.state("B", StateKind::Basic).transition("A", "E/Crunch(3)");
    let loose_chart = loose.build().unwrap();
    let env2 = pscp_core::compile::chart_env(&loose_chart);
    let ir2 = pscp_action_lang::compile_with_env(actions, &env2).unwrap();
    let r2 = optimize(&loose_chart, &ir2, &PscpArch::minimal(), &options).unwrap();
    assert!(r2.satisfied);
    assert!(r2.exhausted_worst_cycles.is_empty());
}
