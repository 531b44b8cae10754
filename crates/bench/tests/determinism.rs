//! Parallelism must never change results.
//!
//! The PR-2 worker pools (`optimize` candidate evaluation, `SimPool`
//! batch co-simulation) promise byte-identical output for every worker
//! count. These tests pin that promise on the paper's pickup-head
//! system, on a small toggle system and on the 560-transition gang
//! system, comparing the parallel runs against the one-worker path —
//! which spawns no threads at all and is therefore literally the
//! sequential loop.

use pscp_bench::pickup_head_inputs;
use pscp_core::arch::PscpArch;
use pscp_core::machine::{PscpMachine, ScriptedEnvironment};
use pscp_core::optimize::{optimize, OptimizationResult, OptimizeOptions};
use pscp_core::pool::{BatchOptions, SimPool};
use pscp_motors::head::{Move, SmdHead};
use pscp_statechart::{Chart, ChartBuilder, StateKind};

const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

fn run_optimize(
    chart: &Chart,
    ir: &pscp_action_lang::ir::Program,
    threads: usize,
) -> OptimizationResult {
    let options = OptimizeOptions { threads: Some(threads), ..OptimizeOptions::default() };
    optimize(chart, ir, &PscpArch::minimal(), &options).expect("optimize succeeds")
}

/// A two-state toggle controller with a tight deadline: small enough to
/// explore quickly, demanding enough that the optimiser takes several
/// steps (so the histories being compared are non-trivial).
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

#[test]
fn parallel_optimize_matches_sequential_on_pickup_head() {
    let (chart, ir) = pickup_head_inputs();
    let sequential = run_optimize(&chart, &ir, 1);
    assert!(sequential.history.len() > 1, "exploration must take steps");
    for threads in WORKER_COUNTS {
        let parallel = run_optimize(&chart, &ir, threads);
        assert_eq!(parallel.history, sequential.history, "threads={threads}");
        assert_eq!(parallel.arch, sequential.arch, "threads={threads}");
        assert_eq!(parallel.satisfied, sequential.satisfied, "threads={threads}");
        assert_eq!(
            parallel.budget_exhausted, sequential.budget_exhausted,
            "threads={threads}"
        );
        assert_eq!(
            parallel.timing.violations, sequential.timing.violations,
            "threads={threads}"
        );
    }
}

#[test]
fn parallel_optimize_matches_sequential_on_toggle() {
    let (chart, ir) = toggle_inputs();
    let sequential = run_optimize(&chart, &ir, 1);
    for threads in WORKER_COUNTS {
        let parallel = run_optimize(&chart, &ir, threads);
        assert_eq!(parallel.history, sequential.history, "threads={threads}");
        assert_eq!(parallel.arch, sequential.arch, "threads={threads}");
        assert_eq!(parallel.satisfied, sequential.satisfied, "threads={threads}");
    }
}

fn head_scenarios(n: u16) -> Vec<SmdHead> {
    (0..n)
        .map(|i| SmdHead::with_moves(&[Move { x: 6 + i, y: 4 + i, phi: 2 + i % 5 }]))
        .collect()
}

#[test]
fn sim_pool_is_byte_identical_across_worker_counts() {
    let sys = pscp_bench::example_system(&PscpArch::dual_md16(true));
    let idle1 = sys.chart.state_by_name("Idle1").unwrap();
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 400_000 };
    let sweep = |threads: usize| {
        SimPool::with_threads(threads).run_batch_until(&sys, head_scenarios(6), &limits, |m, head, _| {
            head.pending_bytes() == 0
                && head.all_idle()
                && m.executor().configuration().is_active(idle1)
        })
    };
    // Reference: a fresh machine per scenario, no pool involved at all.
    let reference: Vec<_> = head_scenarios(6)
        .into_iter()
        .map(|mut head| {
            let mut m = PscpMachine::new(&sys);
            let mut reports = Vec::new();
            loop {
                let report = m.step(&mut head).unwrap();
                let stop = head.pending_bytes() == 0
                    && head.all_idle()
                    && m.executor().configuration().is_active(idle1);
                reports.push(report);
                if stop {
                    break;
                }
            }
            (reports, m.stats().clone(), m.now())
        })
        .collect();
    for threads in [1, 2, 4, 8] {
        let got = sweep(threads);
        assert_eq!(got.len(), reference.len(), "threads={threads}");
        for (out, (reports, stats, clock)) in got.iter().zip(&reference) {
            assert_eq!(&out.reports, reports, "threads={threads}");
            assert_eq!(&out.stats, stats, "threads={threads}");
            assert_eq!(&out.clock_cycles, clock, "threads={threads}");
            assert!(out.error.is_none(), "threads={threads}");
        }
    }
}

#[test]
fn sim_pool_scripted_batch_matches_across_worker_counts() {
    let sys = pscp_bench::example_system(&PscpArch::md16_optimized());
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 40 };
    let scenarios = || -> Vec<ScriptedEnvironment> {
        (0..9)
            .map(|i| {
                let script: Vec<Vec<&str>> = (0..40)
                    .map(|k| {
                        if k == 0 {
                            vec!["POWER"]
                        } else if k % (2 + i % 4) == 0 {
                            vec!["DATA_VALID"]
                        } else {
                            vec![]
                        }
                    })
                    .collect();
                ScriptedEnvironment::new(script)
            })
            .collect()
    };
    let baseline = SimPool::with_threads(1).run_batch(&sys, scenarios(), &limits);
    for threads in WORKER_COUNTS {
        let got = SimPool::with_threads(threads).run_batch(&sys, scenarios(), &limits);
        assert_eq!(got.len(), baseline.len(), "threads={threads}");
        for (a, b) in got.iter().zip(&baseline) {
            assert_eq!(a.reports, b.reports, "threads={threads}");
            assert_eq!(a.stats, b.stats, "threads={threads}");
            assert_eq!(a.clock_cycles, b.clock_cycles, "threads={threads}");
        }
    }
}

/// The worker count must not change a single outcome on the SLA-bound
/// gang system: 256 sparse scenarios of 256 cycles.
#[test]
fn gang_system_is_identical_across_worker_counts() {
    const SCENARIOS: usize = 256;
    const CYCLES: usize = 256;
    let sys = pscp_bench::gang_system();
    let scripts = pscp_bench::gang_scripts(SCENARIOS, CYCLES);
    let limits = BatchOptions { deadline: u64::MAX, max_steps: CYCLES as u64 };
    let run = |threads: usize| {
        SimPool::with_threads(threads).run_batch(
            &sys,
            scripts.iter().cloned().map(ScriptedEnvironment::new).collect(),
            &limits,
        )
    };
    let reference = run(1);
    assert_eq!(reference.len(), SCENARIOS);
    assert!(
        reference.iter().any(|o| o.stats.transitions > 0),
        "the sparse scripts must fire somewhere"
    );
    for threads in WORKER_COUNTS {
        let got = run(threads);
        assert_eq!(got.len(), reference.len(), "threads={threads}");
        for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(a.reports, b.reports, "scenario {i}: threads={threads}");
            assert_eq!(a.stats, b.stats, "scenario {i}: threads={threads}");
            assert_eq!(a.clock_cycles, b.clock_cycles, "scenario {i}: threads={threads}");
        }
    }
}
