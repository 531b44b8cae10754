//! Static well-formedness checks run by [`crate::ChartBuilder::build`],
//! and the non-fatal lint pass.

use crate::error::ChartError;
use crate::model::{Chart, StateKind};
use crate::trigger::Expr;

/// Checks structural invariants and name resolution of a built chart,
/// reporting every violation through `em`:
///
/// * every OR-state with children has a default that is one of them;
/// * basic states have no children;
/// * every trigger atom resolves to a declared event, and every guard atom
///   to a declared event or condition (guards such as `[DATA_VALID]` in
///   Fig. 6 test the *presence* of an event, so events are legal in
///   guards).
pub(crate) fn validate_into(chart: &Chart, em: &mut crate::diag::Emitter) {
    for s in chart.states() {
        match s.kind {
            StateKind::Basic => {
                if !s.children.is_empty() {
                    em.emit_chart(ChartError::BasicWithChildren(s.name.clone()));
                }
            }
            StateKind::Or => {
                if !s.children.is_empty() {
                    match s.default {
                        Some(d) => {
                            if !s.children.contains(&d) {
                                em.emit_chart(ChartError::DefaultNotChild {
                                    state: s.name.clone(),
                                    default: chart.state(d).name.clone(),
                                });
                            }
                        }
                        None => em.emit_chart(ChartError::MissingDefault(s.name.clone())),
                    }
                }
            }
            StateKind::And => {}
        }
    }

    let is_event = |a: &str| chart.event_by_name(a).is_some();
    let is_cond = |a: &str| chart.condition_by_name(a).is_some();

    for t in chart.transitions() {
        if let Some(trig) = &t.trigger {
            check_atoms_into(trig, |a| is_event(a) || is_cond(a), em);
        }
        if let Some(g) = &t.guard {
            check_atoms_into(g, |a| is_event(a) || is_cond(a), em);
        }
    }
}

fn check_atoms_into<F: Fn(&str) -> bool>(e: &Expr, ok: F, em: &mut crate::diag::Emitter) {
    for a in e.atoms() {
        if !ok(a) {
            em.emit_chart(ChartError::UnresolvedAtom(a.to_string()));
        }
    }
}

/// Non-fatal design warnings ("lint") for a chart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Warning {
    /// An AND-state with fewer than two children adds no concurrency.
    DegenerateAnd(String),
    /// A state is unreachable from the default configuration through any
    /// transition path (approximate reachability over the flattened
    /// transition graph, ignoring guards).
    PossiblyUnreachable(String),
    /// Two outgoing transitions of a state have triggers that can be
    /// simultaneously true, making the chart nondeterministic.
    NondeterministicChoice {
        /// The state with the conflicting transitions.
        state: String,
        /// Index of the first transition.
        first: usize,
        /// Index of the second transition.
        second: usize,
    },
    /// An event is declared but never used in any trigger or guard.
    UnusedEvent(String),
}

/// Runs the lint pass and returns all warnings.
pub fn lint(chart: &Chart) -> Vec<Warning> {
    let mut out = Vec::new();

    for s in chart.states() {
        if s.kind == StateKind::And && s.children.len() < 2 {
            out.push(Warning::DegenerateAnd(s.name.clone()));
        }
    }

    // Approximate reachability: a state is reachable if it lies on the
    // default-completion path of the root or is the target of some
    // transition, or contains/descends from such a state.
    let mut reach = vec![false; chart.state_count()];
    let mark = |id: crate::StateId, reach: &mut Vec<bool>| {
        // A target makes its whole ancestor chain and default subtree live.
        for a in chart.ancestors_inclusive(id) {
            reach[a.index()] = true;
        }
        let mut stack = vec![id];
        while let Some(x) = stack.pop() {
            reach[x.index()] = true;
            let st = chart.state(x);
            match st.kind {
                StateKind::Or => {
                    if let Some(d) = st.default {
                        stack.push(d);
                    }
                }
                StateKind::And => stack.extend(st.children.iter().copied()),
                StateKind::Basic => {}
            }
        }
    };
    mark(chart.root(), &mut reach);
    for t in chart.transitions() {
        mark(t.target, &mut reach);
    }
    for (i, s) in chart.states().enumerate() {
        if !reach[i] {
            out.push(Warning::PossiblyUnreachable(s.name.clone()));
        }
    }

    // Nondeterminism: two sibling transitions of the same state whose
    // triggers share a positively-mentioned atom (cheap sufficient check).
    for sid in chart.state_ids() {
        let outgoing: Vec<_> = chart.outgoing(sid).collect();
        for (i, &ta) in outgoing.iter().enumerate() {
            for &tb in &outgoing[i + 1..] {
                let (a, b) = (chart.transition(ta), chart.transition(tb));
                let shared = match (&a.trigger, &b.trigger) {
                    (Some(x), Some(y)) => {
                        x.atoms().iter().any(|at| y.mentions_positively(at) && x.mentions_positively(at))
                    }
                    // A triggerless transition competes with everything.
                    (None, _) | (_, None) => true,
                };
                if shared && a.guard.is_none() && b.guard.is_none() {
                    out.push(Warning::NondeterministicChoice {
                        state: chart.state(sid).name.clone(),
                        first: ta.index(),
                        second: tb.index(),
                    });
                }
            }
        }
    }

    for ev in chart.events() {
        let used = chart.transitions().any(|t| {
            t.trigger.as_ref().is_some_and(|e| e.atoms().contains(ev.name.as_str()))
                || t.guard.as_ref().is_some_and(|e| e.atoms().contains(ev.name.as_str()))
        });
        if !used {
            out.push(Warning::UnusedEvent(ev.name.clone()));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChartBuilder;
    use crate::model::StateKind;

    #[test]
    fn lint_flags_degenerate_and() {
        let mut b = ChartBuilder::new("c");
        b.state("Top", StateKind::And).contains(["Only"]);
        b.state("Only", StateKind::Basic);
        let chart = b.build().unwrap();
        assert!(lint(&chart).iter().any(|w| matches!(w, Warning::DegenerateAnd(n) if n == "Top")));
    }

    #[test]
    fn lint_flags_unreachable() {
        let mut b = ChartBuilder::new("c");
        b.event("E", None);
        b.state("Top", StateKind::Or).contains(["A", "B", "Island"]).default_child("A");
        b.state("A", StateKind::Basic).transition("B", "E");
        b.basic("B");
        b.basic("Island");
        let chart = b.build().unwrap();
        assert!(lint(&chart)
            .iter()
            .any(|w| matches!(w, Warning::PossiblyUnreachable(n) if n == "Island")));
    }

    #[test]
    fn lint_flags_nondeterminism() {
        let mut b = ChartBuilder::new("c");
        b.event("E", None);
        b.state("A", StateKind::Basic).transition("B", "E").transition("C", "E or E");
        b.basic("B");
        b.basic("C");
        let chart = b.build().unwrap();
        assert!(lint(&chart)
            .iter()
            .any(|w| matches!(w, Warning::NondeterministicChoice { state, .. } if state == "A")));
    }

    #[test]
    fn lint_flags_unused_event() {
        let mut b = ChartBuilder::new("c");
        b.event("USED", None);
        b.event("UNUSED", None);
        b.state("A", StateKind::Basic).transition("B", "USED");
        b.basic("B");
        let chart = b.build().unwrap();
        assert!(lint(&chart).iter().any(|w| matches!(w, Warning::UnusedEvent(n) if n == "UNUSED")));
        assert!(!lint(&chart).iter().any(|w| matches!(w, Warning::UnusedEvent(n) if n == "USED")));
    }

    #[test]
    fn guards_may_reference_events() {
        // Fig. 6 uses `[DATA_VALID]` — an event tested as a guard.
        let mut b = ChartBuilder::new("c");
        b.event("DATA_VALID", Some(1500));
        b.state("A", StateKind::Basic).transition("B", "[DATA_VALID]/GetByte()");
        b.basic("B");
        assert!(b.build().is_ok());
    }
}
