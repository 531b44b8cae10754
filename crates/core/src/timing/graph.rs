//! The timing IR: a dependency-tracked graph built once per compiled
//! system, evaluated many times.
//!
//! §4 validation has two ingredients of very different volatility. The
//! *structure* — which states consume each constrained event, which
//! event-cycle paths exist up to `max_depth`, the AND/OR sibling-bound
//! tree, which transitions preempt their siblings — depends only on the
//! chart and the interrupt-event set, and is identical for every
//! candidate of a design-space exploration. The *numbers* — the
//! per-transition WCET costs and the TEP count — are all a candidate
//! changes. [`TimingGraph`] captures the structure once;
//! [`TimingGraph::evaluate`] prices it for one cost table, and
//! [`TimingGraph::revalidate`] re-prices only what a cost delta can
//! reach:
//!
//! * a transition's cost feeds the *length* of exactly the cycles whose
//!   path contains it (`TimingGraph::direct_dependents`), and
//! * it feeds the *sibling bound* of its source's ancestor chain
//!   (`TimingGraph::chain`); a changed bound re-prices the cycles
//!   that charge that subtree as a parallel sibling
//!   (`TimingGraph::root_dependents`).
//!
//! Everything else is copied from the base evaluation verbatim, which
//! is what makes the incremental report byte-identical to the full
//! walk (pinned by the differential tests).

use crate::compile::CompiledSystem;
use crate::timing::cycles::{
    enumerate_event_cycles, sort_and_dedup_cycles, EventCycle,
};
use crate::timing::{TimingOptions, TimingReport, Violation};
use pscp_statechart::{StateId, StateKind, TransitionId};
use std::collections::BTreeSet;
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
/// interrupt-event set ([`TimingGraph::matches`]); candidates vary only
/// the cost table and `n_teps` passed to [`TimingGraph::evaluate`] /
/// [`TimingGraph::revalidate`].
#[derive(Debug, Clone)]
pub struct TimingGraph {
    /// The interrupt events the preempt flags were computed against.
    interrupt_events: BTreeSet<String>,
    /// The DFS depth cap the cycles were enumerated with.
    max_depth: usize,
    /// Constrained events, in chart declaration order.
    events: Vec<EventRow>,
    /// Enumerated cycle paths, grouped per event.
    cycles: Vec<CycleRow>,
    /// Per transition: the step pays only its own routine (§6
    /// interrupt-priority preemption of the parallel siblings).
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
    /// Per state: nesting depth (root = 0).
    depth: Vec<usize>,
    /// Per transition: the source and its ancestors — exactly the
    /// states whose subtree bound can change when this transition's
    /// cost does.
    chain: Vec<Vec<StateId>>,
    /// Per transition: indices of cycles whose path takes it.
    direct_dependents: Vec<Vec<u32>>,
    /// Per state: indices of cycles with a non-preempting step that
    /// charges this state as a parallel sibling root.
    root_dependents: Vec<Vec<u32>>,
}

/// One priced evaluation of a [`TimingGraph`]: the cost table it was
/// priced with, the resulting subtree bounds and cycle lengths, and the
/// TEP count the makespans were distributed over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingEval {
    /// Per-transition costs (indexed by `TransitionId::index`).
    pub costs: Vec<u64>,
    /// Per-state subtree bounds (indexed by `StateId::index`).
    bounds: Vec<u64>,
    /// Per-cycle lengths (graph cycle order).
    lengths: Vec<u64>,
    /// TEPs the sibling work was distributed over.
    n_teps: u8,
}

impl TimingGraph {
    /// Builds the graph from a compiled system's structure. Costs are
    /// not consulted; see [`TimingGraph::evaluate`].
    pub fn build(system: &CompiledSystem, options: &TimingOptions) -> TimingGraph {
        let chart = &system.chart;
        let n_states = chart.state_ids().len();
        let n_transitions = chart.transition_ids().len();

        let preempts: Vec<bool> = chart
            .transition_ids()
            .map(|t| {
                let tr = chart.transition(t);
                system.arch.interrupt_events.iter().any(|ev| {
                    tr.trigger.as_ref().is_some_and(|e| e.mentions_positively(ev))
                        || tr.guard.as_ref().is_some_and(|e| e.mentions_positively(ev))
                })
            })
            .collect();

        let mut kind = Vec::with_capacity(n_states);
        let mut children = Vec::with_capacity(n_states);
        let mut own_out = Vec::with_capacity(n_states);
        let mut sib_roots = Vec::with_capacity(n_states);
        let mut depth = Vec::with_capacity(n_states);
        for s in chart.state_ids() {
            let st = chart.state(s);
            kind.push(st.kind);
            children.push(st.children.clone());
            own_out.push(chart.outgoing(s).collect());
            sib_roots.push(chart.parallel_siblings(s));
            depth.push(chart.depth(s));
        }

        // Children before parents: states sorted by depth descending
        // give a valid bottom-up order for the bound recursion.
        let mut postorder: Vec<StateId> = chart.state_ids().collect();
        postorder.sort_by(|&a, &b| depth[b.index()].cmp(&depth[a.index()]));

        let chain: Vec<Vec<StateId>> = chart
            .transition_ids()
            .map(|t| chart.ancestors_inclusive(chart.transition(t).source).collect())
            .collect();

        let mut events = Vec::new();
        let mut cycles: Vec<CycleRow> = Vec::new();
        let mut direct_dependents = vec![Vec::new(); n_transitions];
        let mut root_dependents = vec![Vec::new(); n_states];
        for ev in chart.events() {
            let Some(period) = ev.period else { continue };
            let start = cycles.len();
            for p in enumerate_event_cycles(chart, &ev.name, options.max_depth) {
                let ci = cycles.len() as u32;
                for (&s, &t) in p.states.iter().zip(&p.transitions) {
                    direct_dependents[t.index()].push(ci);
                    if !preempts[t.index()] {
                        // A non-preempting step charges its sibling
                        // roots' bounds; registration is structural —
                        // a bound of 0 today can grow tomorrow.
                        for &root in &sib_roots[s.index()] {
                            root_dependents[root.index()].push(ci);
                        }
                    }
                }
                cycles.push(CycleRow { states: p.states, transitions: p.transitions });
            }
            events.push(EventRow {
                name: ev.name.clone(),
                period,
                cycles: start..cycles.len(),
            });
        }
        for deps in direct_dependents.iter_mut().chain(root_dependents.iter_mut()) {
            deps.dedup();
        }

        TimingGraph {
            interrupt_events: system.arch.interrupt_events.clone(),
            max_depth: options.max_depth,
            events,
            cycles,
            preempts,
            sib_roots,
            kind,
            children,
            own_out,
            postorder,
            depth,
            chain,
            direct_dependents,
            root_dependents,
        }
    }

    /// True when the graph's structure is valid for this system/options
    /// pair: same shape, same interrupt events, same depth cap.
    pub fn matches(&self, system: &CompiledSystem, options: &TimingOptions) -> bool {
        self.interrupt_events == system.arch.interrupt_events
            && self.max_depth == options.max_depth
            && self.kind.len() == system.chart.state_ids().len()
            && self.preempts.len() == system.chart.transition_ids().len()
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
        TimingEval { costs, bounds, lengths, n_teps }
    }

    /// Re-prices a base evaluation for a new cost table, recomputing
    /// only the bounds and cycle lengths the dirty set (transitions
    /// whose cost changed) can reach. Byte-identical to
    /// [`TimingGraph::evaluate`] on the same inputs.
    pub fn revalidate(&self, base: &TimingEval, costs: Vec<u64>, n_teps: u8) -> TimingEval {
        pscp_obs::metrics::REVALIDATE_CALLS.inc();
        if n_teps != base.n_teps {
            // A TEP-count change re-prices every distributed step; no
            // locality to exploit.
            pscp_obs::metrics::REVALIDATE_FULL_FALLBACKS.inc();
            return self.evaluate(costs, n_teps);
        }
        debug_assert_eq!(costs.len(), base.costs.len());
        let dirty: Vec<usize> =
            (0..costs.len()).filter(|&t| costs[t] != base.costs[t]).collect();
        pscp_obs::metrics::REVALIDATE_DIRTY.record(dirty.len() as u64);
        if dirty.is_empty() {
            pscp_obs::metrics::CYCLES_COPIED.add(base.lengths.len() as u64);
            return TimingEval {
                costs,
                bounds: base.bounds.clone(),
                lengths: base.lengths.clone(),
                n_teps,
            };
        }

        // Bounds can change only along the dirty transitions' source
        // ancestor chains. Recompute deepest-first so children are
        // final before their parents read them.
        let mut bounds = base.bounds.clone();
        let mut touched: Vec<StateId> =
            dirty.iter().flat_map(|&t| self.chain[t].iter().copied()).collect();
        touched.sort_by(|&a, &b| {
            self.depth[b.index()].cmp(&self.depth[a.index()]).then(a.cmp(&b))
        });
        touched.dedup();
        let mut changed_states = Vec::new();
        for &s in &touched {
            let nb = self.bound_of(s, &costs, &bounds);
            if nb != bounds[s.index()] {
                bounds[s.index()] = nb;
                changed_states.push(s);
            }
        }

        // Affected cycles: those taking a dirty transition, plus those
        // charging a changed subtree as a parallel sibling.
        let mut stamp = vec![false; self.cycles.len()];
        let mut affected = Vec::new();
        for &t in &dirty {
            for &c in &self.direct_dependents[t] {
                if !stamp[c as usize] {
                    stamp[c as usize] = true;
                    affected.push(c as usize);
                }
            }
        }
        for &s in &changed_states {
            for &c in &self.root_dependents[s.index()] {
                if !stamp[c as usize] {
                    stamp[c as usize] = true;
                    affected.push(c as usize);
                }
            }
        }
        let mut lengths = base.lengths.clone();
        for &c in &affected {
            lengths[c] = self.cycle_length(c, &costs, &bounds, n_teps);
        }
        pscp_obs::metrics::CYCLES_REPRICED.add(affected.len() as u64);
        pscp_obs::metrics::CYCLES_COPIED.add((lengths.len() - affected.len()) as u64);
        TimingEval { costs, bounds, lengths, n_teps }
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
    fn revalidate_equals_evaluate_on_perturbed_costs() {
        let chart = fig4_chart();
        let sys = system(&chart, PscpArch::md16_unoptimized());
        let options = TimingOptions::default();
        let graph = TimingGraph::build(&sys, &options);
        let base_costs = explicit_costs(&sys);
        let base = graph.evaluate(base_costs.clone(), 1);

        // Perturb each transition alone, then several together.
        let n = base_costs.len();
        let mut perturbations: Vec<Vec<u64>> = (0..n)
            .map(|i| {
                let mut c = base_costs.clone();
                c[i] = c[i] * 3 + 17;
                c
            })
            .collect();
        let mut all = base_costs.clone();
        for (i, c) in all.iter_mut().enumerate() {
            *c = (*c + 7) * (i as u64 + 1);
        }
        perturbations.push(all);
        perturbations.push(vec![0; n]); // everything drops to zero

        for costs in perturbations {
            let inc = graph.revalidate(&base, costs.clone(), 1);
            let full = graph.evaluate(costs, 1);
            assert_eq!(inc, full);
            assert_eq!(graph.report(&inc), graph.report(&full));
        }
    }

    #[test]
    fn revalidate_with_changed_teps_falls_back_to_full() {
        let chart = fig4_chart();
        let sys = system(&chart, PscpArch::md16_unoptimized());
        let options = TimingOptions::default();
        let graph = TimingGraph::build(&sys, &options);
        let costs = explicit_costs(&sys);
        let base = graph.evaluate(costs.clone(), 1);
        let inc = graph.revalidate(&base, costs.clone(), 2);
        assert_eq!(inc, graph.evaluate(costs, 2));
    }

    #[test]
    fn sibling_bound_growth_reaches_dependent_cycles() {
        // The E-cycle lives in DP; a cost change in Motion (the sibling)
        // must still re-price it through the root-dependents index.
        let chart = fig4_chart();
        let sys = system(&chart, PscpArch::md16_unoptimized());
        let options = TimingOptions::default();
        let graph = TimingGraph::build(&sys, &options);
        let base_costs = explicit_costs(&sys);
        let base = graph.evaluate(base_costs.clone(), 1);

        let runx = sys.chart.state_by_name("RunX").unwrap();
        let t_runx = sys.chart.outgoing(runx).next().unwrap();
        let mut costs = base_costs.clone();
        costs[t_runx.index()] = 5000; // Motion's bound jumps 300 → 5000
        let inc = graph.revalidate(&base, costs.clone(), 1);
        let full = graph.evaluate(costs, 1);
        assert_eq!(inc, full);
        assert_ne!(
            inc.lengths, base.lengths,
            "sibling growth must change the DP cycle length"
        );
    }

    #[test]
    fn zero_delta_reuses_everything() {
        let chart = fig4_chart();
        let sys = system(&chart, PscpArch::md16_unoptimized());
        let options = TimingOptions::default();
        let graph = TimingGraph::build(&sys, &options);
        let costs = explicit_costs(&sys);
        let base = graph.evaluate(costs.clone(), 1);
        let inc = graph.revalidate(&base, costs, 1);
        assert_eq!(inc, base);
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
