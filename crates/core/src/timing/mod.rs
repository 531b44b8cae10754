//! Heuristic static timing validation (§4).
//!
//! Reachability analysis of statecharts is NP-complete, so the paper's
//! algorithm "localizes the problem by first searching for every state
//! that consumes the desired event in the chart. From there, a
//! depth-first search is started that tries to find event cycles in the
//! graph. An event cycle is a path between two states whose trigger sets
//! both contain the desired event."
//!
//! Whenever a step runs inside a parallel component, "the upper bound of
//! its parallel sibling … has to be added" — see [`bounds`] for the
//! OR=max / AND=sum recursion. On a multi-TEP PSCP, the sibling work can
//! run on the other processing elements; the step cost then becomes the
//! makespan of distributing {own transition, sibling bounds} over
//! `n_teps` processors.
//!
//! Transition lengths are "derived from the assembler code of their
//! associated routines" via the WCET analysis of `pscp-tep`, with
//! explicit `cost` annotations taking precedence.

pub mod bounds;
pub mod cycles;
pub mod graph;

pub use bounds::subtree_bound;
pub use cycles::{event_cycles, EventCycle};
pub use graph::{TimingEval, TimingGraph};

use crate::compile::CompiledSystem;
use crate::machine::overhead;
use pscp_statechart::{Chart, StateId, TransitionId};
use pscp_tep::timing::WcetReport;
use pscp_tep::WcetAnalysis;

/// Options for the validation pass.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TimingOptions {
    /// Maximum DFS path length (transitions) when hunting event cycles.
    pub max_depth: usize,
    /// Loop bound assumed for unannotated loops in routines.
    pub default_loop_bound: u64,
}

impl Default for TimingOptions {
    fn default() -> Self {
        TimingOptions { max_depth: 8, default_loop_bound: 16 }
    }
}

/// A detected timing violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The event whose arrival period is violated.
    pub event: String,
    /// Required period in cycles (Table 2).
    pub period: u64,
    /// Worst event-cycle length found.
    pub worst: u64,
    /// The offending cycle's states (interned; resolve with
    /// [`Violation::path_names`]).
    pub path: Vec<StateId>,
}

impl Violation {
    /// The offending cycle's path resolved to state names.
    pub fn path_names(&self, chart: &Chart) -> Vec<String> {
        self.path.iter().map(|&s| chart.state(s).name.clone()).collect()
    }
}

/// Result of validating a compiled system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingReport {
    /// All event cycles found, per constrained event.
    pub cycles: Vec<EventCycle>,
    /// Constraint violations.
    pub violations: Vec<Violation>,
}

impl TimingReport {
    /// True when every constraint is met.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Worst cycle length for an event, if any cycle was found.
    pub fn worst_for(&self, event: &str) -> Option<u64> {
        self.cycles.iter().filter(|c| c.event == event).map(|c| c.length).max()
    }
}

/// Per-transition worst-case execution cost: the explicit `cost`
/// annotation when present, otherwise the WCET of the label's routines
/// plus scheduler overheads, plus the entry actions of the statically
/// known entry set and the exit actions of the source's ancestor chain
/// up to the transition scope (the statically guaranteed part of the
/// exit set).
///
/// # Panics
///
/// Panics if `wcet` lacks a routine a binding calls, i.e. when it was
/// not produced from `system`'s program.
pub fn transition_cost(
    system: &CompiledSystem,
    wcet: &WcetReport,
    tid: TransitionId,
) -> u64 {
    let t = system.chart.transition(tid);
    if let Some(c) = t.explicit_cost {
        return c;
    }
    let binding_cost = |b: &crate::compile::TransitionBinding| -> u64 {
        b.calls
            .iter()
            .map(|call| {
                let name = &system.program.functions[call.func as usize].name;
                wcet.of(name).unwrap_or_else(|| {
                    panic!("WCET report has no entry for called routine '{name}'")
                })
            })
            .sum()
    };
    let mut total = overhead::DISPATCH + overhead::WRITEBACK;
    total += binding_cost(system.binding(tid));
    // Entry actions of the states this transition statically enters.
    for s in pscp_sla::synth::static_entry_set(&system.chart, tid) {
        total += binding_cost(&system.entry_bindings[s.index()]);
    }
    // Exit actions of the source and its ancestors up to the scope.
    let scope = system.chart.transition_scope(t.source, t.target);
    let mut cur = Some(t.source);
    while let Some(s) = cur {
        if s == scope {
            break;
        }
        total += binding_cost(&system.exit_bindings[s.index()]);
        cur = system.chart.state(s).parent;
    }
    total
}

/// Runs the WCET analysis for a system's program.
pub fn wcet_report(system: &CompiledSystem, options: &TimingOptions) -> WcetReport {
    WcetAnalysis::new(&system.arch.tep)
        .with_default_loop_bound(options.default_loop_bound)
        .analyze(&system.program)
}

/// The full per-transition cost table of a system under one WCET
/// report, indexed by `TransitionId::index`. This is the only
/// cost-bearing input of the timing validation — two candidates with
/// equal tables (and TEP counts) have identical timing reports.
///
/// # Panics
///
/// Panics under the same condition as [`transition_cost`].
pub fn transition_costs(system: &CompiledSystem, wcet: &WcetReport) -> Vec<u64> {
    system.chart.transition_ids().map(|t| transition_cost(system, wcet, t)).collect()
}

/// Validates every event with an arrival-period constraint.
///
/// Builds the [`TimingGraph`] timing IR and prices it once. Callers
/// validating many cost variants of one structure (the optimiser)
/// should build the graph once themselves and call
/// [`TimingGraph::evaluate`] per cost table.
pub fn validate_timing(system: &CompiledSystem, options: &TimingOptions) -> TimingReport {
    let graph = TimingGraph::build(system, options);
    let wcet = wcet_report(system, options);
    let eval = graph.evaluate(transition_costs(system, &wcet), system.arch.n_teps);
    graph.report(&eval)
}

/// Reference implementation of [`validate_timing`]: re-walks the chart
/// per event with the §4 DFS instead of evaluating the graph. Kept as
/// the differential oracle — the graph path is pinned byte-identical
/// to this one.
pub fn validate_timing_full(
    system: &CompiledSystem,
    options: &TimingOptions,
) -> TimingReport {
    let wcet = wcet_report(system, options);
    let costs = transition_costs(system, &wcet);
    let cost_of = |t: TransitionId| costs[t.index()];

    let mut all_cycles = Vec::new();
    let mut violations = Vec::new();
    for ev in system.chart.events() {
        let Some(period) = ev.period else { continue };
        let cycles = event_cycles(system, &ev.name, &cost_of, options);
        if let Some(worst) = cycles.iter().max_by_key(|c| c.length) {
            if worst.length > period {
                violations.push(Violation {
                    event: ev.name.clone(),
                    period,
                    worst: worst.length,
                    path: worst.path.clone(),
                });
            }
        }
        all_cycles.extend(cycles);
    }
    TimingReport { cycles: all_cycles, violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PscpArch;
    use crate::compile::compile_system;
    use pscp_statechart::{Chart, ChartBuilder, StateKind};
    use pscp_tep::codegen::CodegenOptions;

    fn chain_chart(period: u64) -> Chart {
        let mut b = ChartBuilder::new("chain");
        b.event("E", Some(period));
        b.state("Top", StateKind::Or).contains(["A", "B"]).default_child("A");
        b.state("A", StateKind::Basic).transition("B", "E/Heavy()");
        b.state("B", StateKind::Basic).transition("A", "E/Light()");
        b.build().unwrap()
    }

    const ACTIONS: &str = r#"
        int:16 x;
        void Heavy() {
            int:16 i = 0;
            while (i < 10) { x = x + i * 7; i = i + 1; }
        }
        void Light() { x = x + 1; }
    "#;

    #[test]
    fn finds_cycles_and_checks_periods() {
        let chart = chain_chart(100_000);
        let sys = compile_system(
            &chart,
            ACTIONS,
            &PscpArch::md16_unoptimized(),
            &CodegenOptions::default(),
        )
        .unwrap();
        let report = validate_timing(&sys, &TimingOptions::default());
        assert!(!report.cycles.is_empty());
        assert!(report.ok(), "huge period must pass: {:?}", report.violations);

        let tight = chain_chart(10);
        let sys2 = compile_system(
            &tight,
            ACTIONS,
            &PscpArch::md16_unoptimized(),
            &CodegenOptions::default(),
        )
        .unwrap();
        let report2 = validate_timing(&sys2, &TimingOptions::default());
        assert!(!report2.ok(), "period 10 must be violated");
        assert_eq!(report2.violations[0].event, "E");
    }

    #[test]
    fn explicit_cost_overrides_wcet() {
        let mut b = ChartBuilder::new("c");
        b.event("E", Some(500));
        b.state("A", StateKind::Basic).transition_costed("B", "E/Heavy()", 7);
        b.state("B", StateKind::Basic).transition("A", "E");
        let chart = b.build().unwrap();
        let sys = compile_system(
            &chart,
            ACTIONS,
            &PscpArch::md16_unoptimized(),
            &CodegenOptions::default(),
        )
        .unwrap();
        let wcet = wcet_report(&sys, &TimingOptions::default());
        let t0 = chart.transition_ids().next().unwrap();
        assert_eq!(transition_cost(&sys, &wcet, t0), 7);
    }

    #[test]
    #[should_panic(expected = "WCET report has no entry for called routine 'Heavy'")]
    fn transition_costs_reject_a_report_missing_a_routine() {
        let sys = compile_system(
            &chain_chart(100_000),
            ACTIONS,
            &PscpArch::md16_unoptimized(),
            &CodegenOptions::default(),
        )
        .unwrap();
        let empty = WcetReport { per_function: Default::default() };
        transition_costs(&sys, &empty);
    }

    #[test]
    fn graph_path_matches_reference_walk() {
        for period in [100_000, 10] {
            let chart = chain_chart(period);
            let sys = compile_system(
                &chart,
                ACTIONS,
                &PscpArch::md16_unoptimized(),
                &CodegenOptions::default(),
            )
            .unwrap();
            let options = TimingOptions::default();
            assert_eq!(
                validate_timing(&sys, &options),
                validate_timing_full(&sys, &options),
                "period {period}"
            );
        }
    }

    #[test]
    fn optimized_architecture_shortens_cycles() {
        let chart = chain_chart(100_000);
        let worst = |arch: PscpArch| {
            let sys =
                compile_system(&chart, ACTIONS, &arch, &CodegenOptions::default()).unwrap();
            validate_timing(&sys, &TimingOptions::default()).worst_for("E").unwrap()
        };
        let minimal = worst(PscpArch::minimal());
        let unopt = worst(PscpArch::md16_unoptimized());
        let opt = worst(PscpArch::md16_optimized());
        assert!(minimal > unopt, "{minimal} > {unopt}");
        assert!(unopt > opt, "{unopt} > {opt}");
    }
}
