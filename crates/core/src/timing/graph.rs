//! The timing IR: a graph built once per compiled system, priced once
//! per cost table.
//!
//! §4 validation has two ingredients of very different volatility. The
//! *structure* — which states consume each constrained event, which
//! event-cycle paths exist up to `max_depth`, the AND/OR sibling-bound
//! tree, which transitions preempt their siblings — depends only on the
//! chart and the interrupt flags, and is identical for every candidate
//! of a design-space exploration. The *numbers* — the per-transition
//! WCET costs and the TEP count — are all a candidate changes.
//! [`TimingGraph`] captures the structure once, and
//! [`TimingGraph::evaluate`] prices all of it for one cost table: every
//! subtree bound bottom-up, then every cycle length. The optimiser
//! prices each candidate with one such evaluation; the reference DFS
//! ([`validate_timing_full`](crate::timing::validate_timing_full)) is
//! pinned byte-identical to it by the differential tests.

use crate::compile::CompiledSystem;
use crate::timing::cycles::{
    enumerate_event_cycles, sort_and_dedup_cycles, EventCycle,
};
use crate::timing::{TimingOptions, TimingReport, Violation};
use pscp_statechart::{StateId, StateKind, TransitionId};
use std::ops::Range;

/// One constrained event and the slice of enumerated cycles feeding it.
#[derive(Debug, Clone)]
struct EventRow {
    name: String,
    period: u64,
    cycles: Range<usize>,
}

/// One structural cycle: step `k` fires `transitions[k]` at `states[k]`
/// (the last state closes the cycle and fires nothing).
#[derive(Debug, Clone)]
struct CycleRow {
    states: Vec<StateId>,
    transitions: Vec<TransitionId>,
}

/// The structural timing IR of one compiled system.
///
/// Valid for any candidate architecture sharing the chart and the
/// interrupt flags ([`TimingGraph::matches`]); candidates vary only the
/// cost table and `n_teps` passed to [`TimingGraph::evaluate`].
#[derive(Debug, Clone)]
pub struct TimingGraph {
    /// The DFS depth cap the cycles were enumerated with.
    max_depth: usize,
    /// Constrained events, in chart declaration order.
    events: Vec<EventRow>,
    /// Enumerated cycle paths, grouped per event.
    cycles: Vec<CycleRow>,
    /// Per transition: the step pays only its own routine (§6
    /// interrupt-priority preemption of the parallel siblings); the
    /// compiled system's `SchedulerTables::interrupt`.
    preempts: Vec<bool>,
    /// Per state: the parallel sibling roots charged by a step taken
    /// there (Fig. 4).
    sib_roots: Vec<Vec<StateId>>,
    /// Per state: kind, for the OR=max / AND=sum bound recursion.
    kind: Vec<StateKind>,
    /// Per state: children.
    children: Vec<Vec<StateId>>,
    /// Per state: own outgoing transitions.
    own_out: Vec<Vec<TransitionId>>,
    /// All states, children before parents (bottom-up bound order).
    postorder: Vec<StateId>,
}

/// One priced evaluation of a [`TimingGraph`]: the length of every
/// enumerated cycle, in graph cycle order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingEval {
    lengths: Vec<u64>,
}

impl TimingGraph {
    /// Builds the graph from a compiled system's structure. Costs are
    /// not consulted; see [`TimingGraph::evaluate`].
    pub fn build(system: &CompiledSystem, options: &TimingOptions) -> TimingGraph {
        let chart = &system.chart;
        let n_states = chart.state_ids().len();

        let mut kind = Vec::with_capacity(n_states);
        let mut children = Vec::with_capacity(n_states);
        let mut own_out = Vec::with_capacity(n_states);
        let mut sib_roots = Vec::with_capacity(n_states);
        for s in chart.state_ids() {
            let st = chart.state(s);
            kind.push(st.kind);
            children.push(st.children.clone());
            own_out.push(chart.outgoing(s).collect());
            sib_roots.push(chart.parallel_siblings(s));
        }

        // Children before parents: states sorted by depth descending
        // give a valid bottom-up order for the bound recursion.
        let mut postorder: Vec<StateId> = chart.state_ids().collect();
        postorder.sort_by_cached_key(|&s| std::cmp::Reverse(chart.depth(s)));

        let mut events = Vec::new();
        let mut cycles: Vec<CycleRow> = Vec::new();
        for ev in chart.events() {
            let Some(period) = ev.period else { continue };
            let start = cycles.len();
            cycles.extend(
                enumerate_event_cycles(chart, &ev.name, options.max_depth)
                    .into_iter()
                    .map(|p| CycleRow { states: p.states, transitions: p.transitions }),
            );
            events.push(EventRow {
                name: ev.name.clone(),
                period,
                cycles: start..cycles.len(),
            });
        }

        TimingGraph {
            max_depth: options.max_depth,
            events,
            cycles,
            preempts: system.tables.interrupt.clone(),
            sib_roots,
            kind,
            children,
            own_out,
            postorder,
        }
    }

    /// True when the graph's structure is valid for this system/options
    /// pair: same state count, same interrupt flags, same depth cap.
    pub fn matches(&self, system: &CompiledSystem, options: &TimingOptions) -> bool {
        self.max_depth == options.max_depth
            && self.kind.len() == system.chart.state_ids().len()
            && self.preempts == system.tables.interrupt
    }

    /// Prices the graph for one cost table: all subtree bounds bottom-up,
    /// then every cycle length.
    pub fn evaluate(&self, costs: Vec<u64>, n_teps: u8) -> TimingEval {
        debug_assert_eq!(costs.len(), self.preempts.len());
        let mut bounds = vec![0u64; self.kind.len()];
        for &s in &self.postorder {
            bounds[s.index()] = self.bound_of(s, &costs, &bounds);
        }
        let lengths = (0..self.cycles.len())
            .map(|c| self.cycle_length(c, &costs, &bounds, n_teps))
            .collect();
        TimingEval { lengths }
    }

    /// [`TimingGraph::evaluate`] under its old name; `_base` is ignored.
    /// Nothing in the workspace calls it. It stays only because the
    /// benchmark's `stage.revalidate_us` probe does, and goes once that
    /// probe times `evaluate` itself.
    pub fn revalidate(&self, _base: &TimingEval, costs: Vec<u64>, n_teps: u8) -> TimingEval {
        self.evaluate(costs, n_teps)
    }


    /// Renders an evaluation as the public [`TimingReport`] — same
    /// sorting, dedup and worst-cycle selection as the reference walk.
    pub fn report(&self, eval: &TimingEval) -> TimingReport {
        let mut all_cycles = Vec::new();
        let mut violations = Vec::new();
        for row in &self.events {
            let mut cycles: Vec<EventCycle> = row
                .cycles
                .clone()
                .map(|c| EventCycle {
                    event: row.name.clone(),
                    path: self.cycles[c].states.clone(),
                    transitions: self.cycles[c].transitions.clone(),
                    length: eval.lengths[c],
                })
                .collect();
            sort_and_dedup_cycles(&mut cycles);
            if let Some(worst) = cycles.iter().max_by_key(|c| c.length) {
                if worst.length > row.period {
                    violations.push(Violation {
                        event: row.name.clone(),
                        period: row.period,
                        worst: worst.length,
                        path: worst.path.clone(),
                    });
                }
            }
            all_cycles.extend(cycles);
        }
        TimingReport { cycles: all_cycles, violations }
    }

    /// §4 bound recursion for one state, reading children from `bounds`.
    fn bound_of(&self, s: StateId, costs: &[u64], bounds: &[u64]) -> u64 {
        let own = self.own_out[s.index()].iter().map(|&t| costs[t.index()]).max().unwrap_or(0);
        let from_children = match self.kind[s.index()] {
            StateKind::Basic => 0,
            StateKind::Or => self.children[s.index()]
                .iter()
                .map(|&c| bounds[c.index()])
                .max()
                .unwrap_or(0),
            StateKind::And => {
                self.children[s.index()].iter().map(|&c| bounds[c.index()]).sum()
            }
        };
        own.max(from_children)
    }

    /// Length of one cycle: the sum of its step makespans — identical
    /// arithmetic to [`crate::timing::cycles::step_cost`].
    fn cycle_length(&self, c: usize, costs: &[u64], bounds: &[u64], n_teps: u8) -> u64 {
        let row = &self.cycles[c];
        let m = n_teps.max(1) as u64;
        row.states
            .iter()
            .zip(&row.transitions)
            .map(|(&s, &t)| {
                let own = costs[t.index()];
                if self.preempts[t.index()] {
                    return own;
                }
                let mut total = own;
                let mut any = false;
                for &root in &self.sib_roots[s.index()] {
                    let b = bounds[root.index()];
                    if b > 0 {
                        total += b;
                        any = true;
                    }
                }
                if !any {
                    own
                } else {
                    own.max(total.div_ceil(m))
                }
            })
            .sum()
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PscpArch;
    use crate::compile::compile_system;
    use crate::timing::{transition_costs, validate_timing_full, wcet_report};
    use pscp_statechart::{Chart, ChartBuilder, StateKind};
    use pscp_tep::codegen::CodegenOptions;

    fn fig4_chart() -> Chart {
        let mut b = ChartBuilder::new("f4");
        b.event("E", Some(700));
        b.event("GO", None);
        b.state("Op", StateKind::And).contains(["DP", "Motion"]);
        b.state("DP", StateKind::Or)
            .contains(["Ready", "Empty"])
            .default_child("Ready");
        b.state("Ready", StateKind::Basic).transition_costed("Empty", "E", 100);
        b.state("Empty", StateKind::Basic).transition_costed("Ready", "GO", 40);
        b.state("Motion", StateKind::Or).contains(["RunX", "RunY"]).default_child("RunX");
        b.state("RunX", StateKind::Basic).transition_costed("RunY", "GO", 300);
        b.state("RunY", StateKind::Basic).transition_costed("RunX", "GO", 120);
        b.build().unwrap()
    }

    fn system(chart: &Chart, arch: PscpArch) -> CompiledSystem {
        compile_system(chart, "", &arch, &CodegenOptions::default()).unwrap()
    }

    fn explicit_costs(sys: &CompiledSystem) -> Vec<u64> {
        sys.chart
            .transition_ids()
            .map(|t| sys.chart.transition(t).explicit_cost.unwrap_or(0))
            .collect()
    }

    #[test]
    fn evaluate_matches_reference_walk() {
        let chart = fig4_chart();
        for arch in [PscpArch::md16_unoptimized(), PscpArch::dual_md16(false)] {
            let sys = system(&chart, arch);
            let options = TimingOptions::default();
            let graph = TimingGraph::build(&sys, &options);
            let wcet = wcet_report(&sys, &options);
            let costs = transition_costs(&sys, &wcet);
            let eval = graph.evaluate(costs, sys.arch.n_teps);
            let report = graph.report(&eval);
            let full = validate_timing_full(&sys, &options);
            assert_eq!(report, full);
        }
    }

    #[test]
    fn sibling_bound_growth_reaches_dependent_cycles() {
        // The E-cycle lives in DP; a cost rise in Motion (the parallel
        // sibling) must lengthen it through Motion's subtree bound.
        let chart = fig4_chart();
        let sys = system(&chart, PscpArch::md16_unoptimized());
        let graph = TimingGraph::build(&sys, &TimingOptions::default());
        let base_costs = explicit_costs(&sys);
        let base = graph.report(&graph.evaluate(base_costs.clone(), 1));

        let runx = sys.chart.state_by_name("RunX").unwrap();
        let t_runx = sys.chart.outgoing(runx).next().unwrap();
        let mut costs = base_costs;
        costs[t_runx.index()] = 5000; // Motion's bound jumps 300 → 5000
        let grown = graph.report(&graph.evaluate(costs, 1));
        let (before, after) = (base.worst_for("E").unwrap(), grown.worst_for("E").unwrap());
        assert_eq!(after - before, 2 * (5000 - 300), "both DP steps pay Motion's new bound");
    }

    #[test]
    fn matches_guards_structure() {
        let chart = fig4_chart();
        let sys = system(&chart, PscpArch::md16_unoptimized());
        let options = TimingOptions::default();
        let graph = TimingGraph::build(&sys, &options);
        assert!(graph.matches(&sys, &options));
        let deeper = TimingOptions { max_depth: 3, ..options.clone() };
        assert!(!graph.matches(&sys, &deeper));
        let mut other = sys.arch.clone();
        other.interrupt_events.insert("E".into());
        let sys2 = system(&chart, other);
        assert!(!graph.matches(&sys2, &options));
    }
}
