//! Event-cycle detection (§4, Table 3).
//!
//! For a constrained event the algorithm finds every *consumer* state —
//! a state with an outgoing transition whose trigger set (trigger or
//! guard) mentions the event positively — and runs a depth-first search
//! over the transition graph from each, recording every path that
//! reaches a consumer state again. The combined step costs of the path
//! bound how long the chart can be busy before it can consume the next
//! occurrence of the event.
//!
//! The search itself is purely *structural*: which paths exist depends
//! only on the chart and the depth cap, never on the per-transition
//! costs. [`enumerate_event_cycles`] produces those raw [`CyclePath`]s
//! once; costing them is a separate, cheap pass — this split is what
//! lets the [`TimingGraph`](crate::timing::graph::TimingGraph) reuse
//! one enumeration across every candidate of a design-space
//! exploration.

use crate::compile::CompiledSystem;
use crate::timing::bounds::sibling_penalties;
use crate::timing::TimingOptions;
use pscp_statechart::{Chart, StateId, TransitionId};

/// One event cycle, Table 3 style.
///
/// The path is stored as interned [`StateId`]s; resolve to names only
/// at display time via [`EventCycle::path_names`] or
/// [`EventCycle::display`] — the hot validation loop never touches
/// strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventCycle {
    /// The constrained event.
    pub event: String,
    /// Visited states, consumer to consumer.
    pub path: Vec<StateId>,
    /// Transitions taken.
    pub transitions: Vec<TransitionId>,
    /// Total length in cycles (step costs + parallel-sibling penalties,
    /// distributed over the available TEPs).
    pub length: u64,
}

impl EventCycle {
    /// The path resolved to state names.
    pub fn path_names(&self, chart: &Chart) -> Vec<String> {
        self.path.iter().map(|&s| chart.state(s).name.clone()).collect()
    }

    /// `{A, B, C}  length` rendering as in Table 3.
    pub fn display(&self, chart: &Chart) -> String {
        let names: Vec<&str> =
            self.path.iter().map(|&s| chart.state(s).name.as_str()).collect();
        format!("{{{}}} {}", names.join(", "), self.length)
    }
}

/// One structural event-cycle path: the states visited (consumer to
/// consumer, one more entry than transitions) and the transitions
/// taken. Step `k` fires `transitions[k]` while at `states[k]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclePath {
    /// Visited states.
    pub states: Vec<StateId>,
    /// Transitions taken.
    pub transitions: Vec<TransitionId>,
}

/// States with an outgoing transition consuming `event`.
pub fn consumer_states(chart: &Chart, event: &str) -> Vec<StateId> {
    let mut out: Vec<StateId> = chart
        .transitions()
        .filter(|t| {
            t.trigger.as_ref().is_some_and(|e| e.mentions_positively(event))
                || t.guard.as_ref().is_some_and(|e| e.mentions_positively(event))
        })
        .map(|t| t.source)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Cost of taking transition `t` from `at`: the transition's own cost
/// plus the parallel-sibling bounds, distributed over the PSCP's TEPs
/// (makespan lower bound: `max(largest piece, ceil(total/m))`).
///
/// This is the reference (re-walking) implementation; the
/// [`TimingGraph`](crate::timing::graph::TimingGraph) evaluates the
/// same formula from precomputed sibling-bound tables.
pub fn step_cost<F>(
    system: &CompiledSystem,
    cost_of: &F,
    at: StateId,
    t: TransitionId,
) -> u64
where
    F: Fn(TransitionId) -> u64,
{
    let own = cost_of(t);
    // Interrupt-priority transitions (§6 extension) preempt the parallel
    // siblings: their step pays only its own routine.
    let tr = system.chart.transition(t);
    let preempts = system.arch.interrupt_events.iter().any(|ev| {
        tr.trigger.as_ref().is_some_and(|e| e.mentions_positively(ev))
            || tr.guard.as_ref().is_some_and(|e| e.mentions_positively(ev))
    });
    if preempts {
        return own;
    }
    let sibs = sibling_penalties(&system.chart, cost_of, at);
    let m = system.arch.n_teps.max(1) as u64;
    if sibs.is_empty() {
        return own;
    }
    let total: u64 = own + sibs.iter().sum::<u64>();
    // Heuristic distribution over the TEPs: the sibling work spreads
    // across the processing elements (round-robin), so the step pays
    // `total/m`, never less than its own routine (which is not
    // splittable).
    own.max(total.div_ceil(m))
}

/// Enumerates every structural event-cycle path for one event, up to
/// `max_depth` transitions, in DFS discovery order.
pub fn enumerate_event_cycles(
    chart: &Chart,
    event: &str,
    max_depth: usize,
) -> Vec<CyclePath> {
    let consumers = consumer_states(chart, event);
    let mut paths = Vec::new();
    for &start in &consumers {
        let mut path_states = vec![start];
        let mut path_transitions = Vec::new();
        dfs(
            chart,
            &consumers,
            start,
            max_depth,
            &mut path_states,
            &mut path_transitions,
            &mut paths,
        );
    }
    paths
}

/// Finds the event cycles for one event: structural enumeration plus
/// the per-step costing, sorted by length descending then path.
pub fn event_cycles<F>(
    system: &CompiledSystem,
    event: &str,
    cost_of: &F,
    options: &TimingOptions,
) -> Vec<EventCycle>
where
    F: Fn(TransitionId) -> u64,
{
    let paths = enumerate_event_cycles(&system.chart, event, options.max_depth);
    let mut cycles: Vec<EventCycle> = paths
        .into_iter()
        .map(|p| {
            let length = p
                .states
                .iter()
                .zip(&p.transitions)
                .map(|(&s, &t)| step_cost(system, cost_of, s, t))
                .sum();
            EventCycle {
                event: event.to_string(),
                path: p.states,
                transitions: p.transitions,
                length,
            }
        })
        .collect();
    sort_and_dedup_cycles(&mut cycles);
    cycles
}

/// Deterministic cycle order: by length descending, then path; exact
/// duplicates (same path and length) collapse. Shared by the reference
/// walker and the graph evaluator so their reports stay byte-identical.
pub(crate) fn sort_and_dedup_cycles(cycles: &mut Vec<EventCycle>) {
    cycles.sort_by(|a, b| b.length.cmp(&a.length).then_with(|| a.path.cmp(&b.path)));
    cycles.dedup_by(|a, b| a.path == b.path && a.length == b.length);
}

/// Transitions a step can take from `state`: its own outgoing plus the
/// outgoing transitions of its ancestors (an active state is subject to
/// every enclosing transition, e.g. `ERROR/Stop()` on `Operation` in
/// Fig. 6).
fn steps_from(chart: &Chart, state: StateId) -> Vec<TransitionId> {
    let mut out: Vec<TransitionId> = chart.outgoing(state).collect();
    for anc in chart.ancestors(state) {
        out.extend(chart.outgoing(anc));
    }
    out
}

fn dfs(
    chart: &Chart,
    consumers: &[StateId],
    at: StateId,
    depth_left: usize,
    path_states: &mut Vec<StateId>,
    path_transitions: &mut Vec<TransitionId>,
    paths: &mut Vec<CyclePath>,
) {
    if depth_left == 0 {
        return;
    }
    for t in steps_from(chart, at) {
        let target = chart.transition(t).target;
        path_transitions.push(t);
        if consumers.contains(&target) {
            let mut states = path_states.clone();
            states.push(target);
            paths.push(CyclePath { states, transitions: path_transitions.clone() });
            // A consumer closes this cycle; do not extend further —
            // longer paths are covered by cycles starting at `target`.
        } else if !path_states.contains(&target) {
            path_states.push(target);
            dfs(
                chart,
                consumers,
                target,
                depth_left - 1,
                path_states,
                path_transitions,
                paths,
            );
            path_states.pop();
        }
        path_transitions.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PscpArch;
    use crate::compile::compile_system;
    use pscp_statechart::{ChartBuilder, StateKind};
    use pscp_tep::codegen::CodegenOptions;

    fn system_with(chart: pscp_statechart::Chart, arch: PscpArch) -> CompiledSystem {
        compile_system(&chart, "", &arch, &CodegenOptions::default()).unwrap()
    }

    fn costed_chart() -> pscp_statechart::Chart {
        let mut b = ChartBuilder::new("c");
        b.event("E", Some(1000));
        b.event("OTHER", None);
        b.state("Top", StateKind::Or)
            .contains(["A", "B", "C"])
            .default_child("A");
        b.state("A", StateKind::Basic).transition_costed("B", "E", 100);
        b.state("B", StateKind::Basic).transition_costed("C", "OTHER", 200);
        b.state("C", StateKind::Basic).transition_costed("A", "OTHER", 50);
        b.build().unwrap()
    }

    #[test]
    fn consumer_detection() {
        let chart = costed_chart();
        let consumers = consumer_states(&chart, "E");
        assert_eq!(consumers.len(), 1);
        assert_eq!(chart.state(consumers[0]).name, "A");
        // Guard mentions count too.
        let mut b = ChartBuilder::new("g");
        b.event("E", None);
        b.state("X", StateKind::Basic).transition("Y", "[E]");
        b.basic("Y");
        let c2 = b.build().unwrap();
        assert_eq!(consumer_states(&c2, "E").len(), 1);
        // Negative mentions do not.
        let mut b = ChartBuilder::new("n");
        b.event("E", None);
        b.state("X", StateKind::Basic).transition("Y", "not E");
        b.basic("Y");
        let c3 = b.build().unwrap();
        assert!(consumer_states(&c3, "E").is_empty());
    }

    #[test]
    fn finds_the_loop_cycle() {
        let chart = costed_chart();
        let sys = system_with(chart, PscpArch::md16_unoptimized());
        let cost = |t: TransitionId| sys.chart.transition(t).explicit_cost.unwrap_or(0);
        let cycles = event_cycles(&sys, "E", &cost, &TimingOptions::default());
        // A -> B -> C -> A: 100 + 200 + 50 = 350.
        assert!(
            cycles.iter().any(|c| c.length == 350
                && c.path_names(&sys.chart) == ["A", "B", "C", "A"]),
            "cycles: {:?}",
            cycles.iter().map(|c| c.display(&sys.chart)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn enumeration_is_structural() {
        // The same chart with different costs enumerates the same paths.
        let chart = costed_chart();
        let paths = enumerate_event_cycles(&chart, "E", 8);
        assert!(!paths.is_empty());
        for p in &paths {
            assert_eq!(p.states.len(), p.transitions.len() + 1);
        }
        // No costs were consulted: a second enumeration is identical.
        assert_eq!(paths, enumerate_event_cycles(&chart, "E", 8));
    }

    #[test]
    fn sibling_penalty_added_inside_and_state() {
        let mut b = ChartBuilder::new("p");
        b.event("E", Some(1500));
        b.state("Op", StateKind::And).contains(["DP", "Sib"]);
        b.state("DP", StateKind::Or).contains(["D1", "D2"]).default_child("D1");
        b.state("D1", StateKind::Basic).transition_costed("D2", "E", 100);
        b.state("D2", StateKind::Basic).transition_costed("D1", "E", 100);
        b.state("Sib", StateKind::Or).contains(["S1"]).default_child("S1");
        b.state("S1", StateKind::Basic).transition_costed("S1", "E", 300);
        let chart = b.build().unwrap();

        // 1 TEP: every step inside DP pays the sibling bound of 300.
        let sys1 = system_with(chart.clone(), PscpArch::md16_unoptimized());
        let cost = |t: TransitionId| sys1.chart.transition(t).explicit_cost.unwrap_or(0);
        let d1 = sys1.chart.state_by_name("D1").unwrap();
        let t0 = sys1.chart.outgoing(d1).next().unwrap();
        assert_eq!(step_cost(&sys1, &cost, d1, t0), 400);

        // 2 TEPs: the work distributes, max(own=100, ceil(400/2)) = 200.
        let sys2 = system_with(chart, PscpArch::dual_md16(false));
        let cost2 = |t: TransitionId| sys2.chart.transition(t).explicit_cost.unwrap_or(0);
        let d1b = sys2.chart.state_by_name("D1").unwrap();
        let t0b = sys2.chart.outgoing(d1b).next().unwrap();
        assert_eq!(step_cost(&sys2, &cost2, d1b, t0b), 200);
    }

    #[test]
    fn ancestor_transitions_explored() {
        // NoData -> (ERROR on the enclosing composite) -> ErrState -> Idle1,
        // as in Table 3's {NoData, ErrState, Idle1}.
        let mut b = ChartBuilder::new("anc");
        b.event("E", Some(1000));
        b.event("ERROR", None);
        b.state("Top", StateKind::Or)
            .contains(["Operation", "ErrState", "Idle1"])
            .default_child("Operation");
        b.state("Operation", StateKind::Or)
            .contains(["NoData"])
            .default_child("NoData")
            .transition_costed("ErrState", "ERROR", 30);
        b.state("NoData", StateKind::Basic).transition_costed("NoData", "E", 20);
        b.state("ErrState", StateKind::Basic).transition_costed("Idle1", "ERROR", 50);
        b.state("Idle1", StateKind::Basic).transition_costed("Idle1", "E", 10);
        let chart = b.build().unwrap();
        let sys = system_with(chart, PscpArch::md16_unoptimized());
        let cost = |t: TransitionId| sys.chart.transition(t).explicit_cost.unwrap_or(0);
        let cycles = event_cycles(&sys, "E", &cost, &TimingOptions::default());
        assert!(
            cycles.iter().any(|c| c.path_names(&sys.chart)
                == ["NoData", "ErrState", "Idle1"]
                && c.length == 80),
            "cycles: {:?}",
            cycles.iter().map(|c| c.display(&sys.chart)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn depth_cap_limits_search() {
        let chart = costed_chart();
        let sys = system_with(chart, PscpArch::md16_unoptimized());
        let cost = |t: TransitionId| sys.chart.transition(t).explicit_cost.unwrap_or(0);
        let shallow = TimingOptions { max_depth: 1, ..Default::default() };
        let cycles = event_cycles(&sys, "E", &cost, &shallow);
        assert!(cycles.is_empty(), "3-step loop invisible at depth 1");
    }
}
