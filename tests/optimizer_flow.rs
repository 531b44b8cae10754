//! Integration test of the §4 iterative-improvement loop on the full
//! industrial example: starting from the minimal TEP, the optimiser must
//! discover (in increasing order of difficulty) the code optimisations,
//! the M/D calculation unit, and finally the second TEP — and end with
//! every Table 2 constraint met on a design that fits the XC4025.

use pscp::action_lang::ProgramEnv;
use pscp::core::arch::PscpArch;
use pscp::core::area::pscp_area;
use pscp::core::compile::chart_env;
use pscp::core::optimize::{optimize, OptimizeOptions};
use pscp::fpga::device::Device;
use pscp::motors::{pickup_head_actions, pickup_head_chart};

#[test]
fn optimizer_reaches_a_satisfying_architecture() {
    let chart = pickup_head_chart();
    let ir =
        pscp::action_lang::compile_with_env(&pickup_head_actions(), &chart_env(&chart)).unwrap();
    let options = OptimizeOptions { max_teps: 2, ..Default::default() };

    let result = optimize(&chart, &ir, &PscpArch::minimal(), &options).unwrap();
    assert!(result.satisfied, "violations: {:?}", result.timing.violations);

    let applied: Vec<&str> =
        result.history.iter().filter_map(|s| s.applied.as_deref()).collect();
    // Increasing order of difficulty (§4): code optimisation first,
    // datapath patterns in the middle, replication last.
    let pos = |needle: &str| {
        applied
            .iter()
            .position(|a| a.contains(needle))
            .unwrap_or_else(|| panic!("`{needle}` never applied; applied: {applied:?}"))
    };
    assert_eq!(pos("peephole"), 0);
    assert!(pos("peephole") < pos("multiply/divide"));
    assert!(pos("multiply/divide") < pos("add TEP"));
    assert_eq!(*applied.last().unwrap(), "add TEP");

    // The M/D unit is the decisive single improvement for X/Y (Table 4
    // row 1 -> row 2 jump).
    let xy: Vec<u64> = result
        .history
        .iter()
        .map(|s| {
            *s.worst_by_event
                .get("X_PULSE")
                .or(s.worst_by_event.get("Y_PULSE"))
                .unwrap_or(&0)
        })
        .collect();
    let md_step = pos("multiply/divide") + 1; // +1: history has the initial entry
    assert!(
        xy[md_step] * 5 < xy[md_step - 1],
        "M/D unit must slash the X/Y critical path: {:?}",
        xy
    );

    // Final design fits the paper's device.
    let area = pscp_area(&result.system).total();
    assert!(area.0 <= Device::xc4025().clbs(), "{area}");
    assert_eq!(result.arch.n_teps, 2);

    // The recorded history is monotone in constraint satisfaction at the
    // end (no step after the last is needed).
    assert_eq!(result.history.last().unwrap().violations, 0);
}

#[test]
fn optimizer_near_final_architecture_needs_at_most_register_promotion() {
    let chart = pickup_head_chart();
    let ir =
        pscp::action_lang::compile_with_env(&pickup_head_actions(), &chart_env(&chart)).unwrap();
    let result = optimize(
        &chart,
        &ir,
        &PscpArch::dual_md16(true),
        &OptimizeOptions::default(),
    )
    .unwrap();
    assert!(result.satisfied, "violations: {:?}", result.timing.violations);
    // Starting from the paper's final hardware, only the storage
    // promotion of the hot globals (part of "optimized code") remains —
    // everything after that is the §1 shrink phase removing hardware.
    let growth_steps = result
        .history
        .iter()
        .filter(|s| s.applied.as_deref().is_some_and(|a| !a.starts_with("remove")))
        .count();
    assert!(
        growth_steps <= 2,
        "history: {:?}",
        result.history.iter().map(|s| s.applied.clone()).collect::<Vec<_>>()
    );
    assert_eq!(result.arch.n_teps, 2, "no extra TEPs needed");
}

#[test]
fn shrink_phase_removes_unnecessary_hardware() {
    // A chart whose routines never compare or negate: the comparator and
    // two's-complement path added by presets are unnecessary and must be
    // shrunk away, without breaking the constraints.
    use pscp::statechart::{ChartBuilder, StateKind};
    let mut b = ChartBuilder::new("plain");
    b.event("E", Some(100_000));
    b.state("A", StateKind::Basic).transition("B", "E/F()");
    b.state("B", StateKind::Basic).transition("A", "E/F()");
    let chart = b.build().unwrap();
    let src = "int:16 g;
void F() { g = g + 3; }";
    let ir = pscp::action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();

    let result = optimize(
        &chart,
        &ir,
        &PscpArch::md16_optimized(),
        &OptimizeOptions::default(),
    )
    .unwrap();
    assert!(result.satisfied);
    let removed: Vec<&str> = result
        .history
        .iter()
        .filter_map(|s| s.applied.as_deref())
        .filter(|a| a.starts_with("remove"))
        .collect();
    assert!(
        removed.iter().any(|r| r.contains("comparator")),
        "unused comparator must be removed; history: {removed:?}"
    );
    assert!(!result.arch.tep.calc.comparator);
    // Area decreased monotonically through the shrink steps.
    let areas: Vec<u32> = result.history.iter().map(|s| s.area_clbs).collect();
    let first_remove = result
        .history
        .iter()
        .position(|s| s.applied.as_deref().is_some_and(|a| a.starts_with("remove")))
        .unwrap();
    for w in areas[first_remove.saturating_sub(1)..].windows(2) {
        assert!(w[1] <= w[0], "shrink must not grow area: {areas:?}");
    }
}
