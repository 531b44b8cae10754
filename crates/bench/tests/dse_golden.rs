//! Golden regression test for the §4 design-space exploration.
//!
//! Runs `optimize` on a fixed set of inputs and compares the pretty
//! `Debug` rendering of everything a caller observes — the step
//! history, the final architecture, the placement decisions, the timing
//! report, and the `satisfied` / `budget_exhausted` /
//! `exhausted_worst_cycles` verdicts — byte-for-byte against checked-in
//! golden files. Each input runs at one and two workers and on both the
//! incremental and the full revalidation path; all four runs must
//! reproduce the same file. The files were recorded in a run whose
//! results also matched, byte for byte, the serialised JSON goldens
//! they replace.
//!
//! The cases cover the multi-head beam (one to three heads) and the
//! pickup head from the minimal architecture, a shrink-heavy chart on
//! the 16-bit M/D preset (several removals accepted in turn, so each
//! later removal is judged against a re-based system), and a run cut
//! off by the step budget.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p pscp-bench --test
//! dse_golden` (only when a change to the chosen designs is intended).

use pscp_action_lang::ir::Program;
use pscp_action_lang::ProgramEnv;
use pscp_bench::{multi_head_inputs, pickup_head_inputs};
use pscp_core::arch::PscpArch;
use pscp_core::optimize::{optimize, MemoPersistence, OptimizationResult, OptimizeOptions};
use pscp_statechart::{Chart, ChartBuilder, StateKind};
use std::path::PathBuf;

/// The rendering of one exploration outcome.
fn render(r: &OptimizationResult) -> String {
    format!(
        "history: {:#?}\narch: {:#?}\ncodegen: {:#?}\ntiming: {:#?}\nsatisfied: {}\n\
         budget_exhausted: {}\nexhausted_worst_cycles: {:#?}\n",
        r.history,
        r.arch,
        r.codegen,
        r.timing,
        r.satisfied,
        r.budget_exhausted,
        r.exhausted_worst_cycles,
    )
}

fn golden_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/dse")
        .join(format!("{case}.txt"))
}

/// Runs `case` at one and two workers, incremental and full, checks
/// every run against the golden file, and returns the last run.
fn check(
    case: &str,
    chart: &Chart,
    ir: &Program,
    start: &PscpArch,
    base: OptimizeOptions,
) -> OptimizationResult {
    let path = golden_path(case);
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut want = if update { None } else { std::fs::read_to_string(&path).ok() };
    let mut last = None;
    for threads in [1, 2] {
        for incremental in [true, false] {
            let options = OptimizeOptions {
                threads: Some(threads),
                incremental,
                memo: MemoPersistence::Disabled,
                ..base.clone()
            };
            let result = optimize(chart, ir, start, &options).expect("optimize succeeds");
            let got = render(&result);
            if update && want.is_none() {
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, &got).unwrap();
                want = Some(got.clone());
            }
            let want = want.as_deref().unwrap_or_else(|| {
                panic!("missing golden file {}; run with UPDATE_GOLDEN=1", path.display())
            });
            assert!(
                got == want,
                "`{case}` (threads={threads}, incremental={incremental}) diverged from {}.\n\
                 --- golden ---\n{want}\n--- current ---\n{got}",
                path.display()
            );
            last = Some(result);
        }
    }
    last.expect("at least one run")
}

fn multi_head(heads: usize) {
    let (chart, ir) = multi_head_inputs(heads);
    check(
        &format!("multi_head_{heads}"),
        &chart,
        &ir,
        &PscpArch::minimal(),
        OptimizeOptions::default(),
    );
}

#[test]
fn golden_multi_head_1() {
    multi_head(1);
}

#[test]
fn golden_multi_head_2() {
    multi_head(2);
}

#[test]
fn golden_multi_head_3() {
    multi_head(3);
}

#[test]
fn golden_pickup_head() {
    let (chart, ir) = pickup_head_inputs();
    check("pickup_head", &chart, &ir, &PscpArch::minimal(), OptimizeOptions::default());
}

#[test]
fn golden_shrink_plain() {
    // The `optimizer_flow` shrink chart: its routines never compare,
    // negate or shift, so the preset's datapath extras are removable.
    let mut b = ChartBuilder::new("plain");
    b.event("E", Some(100_000));
    b.state("A", StateKind::Basic).transition("B", "E/F()");
    b.state("B", StateKind::Basic).transition("A", "E/F()");
    let chart = b.build().unwrap();
    let ir = pscp_action_lang::compile_with_env(
        "int:16 g;\nvoid F() { g = g + 3; }",
        &ProgramEnv::default(),
    )
    .unwrap();
    let start = PscpArch::md16_optimized();
    let r = check("shrink_plain", &chart, &ir, &start, OptimizeOptions::default());
    // At least two acceptances, so a later removal is judged against
    // the system an earlier one produced.
    let removals = r
        .history
        .iter()
        .filter(|s| s.applied.as_deref().is_some_and(|a| a.starts_with("remove")))
        .count();
    assert!(removals >= 2, "history: {:?}", r.history);
}

#[test]
fn golden_budget_exhausted() {
    let (chart, ir) = multi_head_inputs(2);
    let options = OptimizeOptions { max_steps: 2, ..OptimizeOptions::default() };
    let r = check("budget_exhausted", &chart, &ir, &PscpArch::minimal(), options);
    assert!(r.budget_exhausted && !r.exhausted_worst_cycles.is_empty());
}
