//! Programmatic construction of [`Chart`]s.
//!
//! The builder mirrors the textual format: states are declared flat and
//! connected by `contains` lists of child *names*; transitions carry
//! textual labels that are parsed with [`crate::trigger::parse_expr`].
//! [`ChartBuilder::build`] resolves all names, infers undeclared children
//! as basic states, attaches an implicit root when several top-level
//! states exist, and runs the structural validation checks.

use crate::error::ChartError;
use crate::model::{
    ActionCall, Chart, ConditionDecl, DataPortDecl, EventDecl, PortDirection, State, StateId,
    StateKind, Transition,
};
use crate::trigger::{parse_expr, Expr};
use pscp_diag::{Diagnostic, DiagnosticSink};
use std::collections::{BTreeMap, BTreeSet};

/// Name of the implicit root OR-state created when a chart declares
/// several top-level states.
pub const IMPLICIT_ROOT: &str = "__root";

#[derive(Debug, Clone)]
struct PendingState {
    name: String,
    kind: StateKind,
    contains: Vec<String>,
    default: Option<String>,
    is_reference: bool,
    history: bool,
    entry_actions: Vec<ActionCall>,
    exit_actions: Vec<ActionCall>,
    transitions: Vec<PendingTransition>,
}

#[derive(Debug, Clone)]
struct PendingTransition {
    target: String,
    trigger: Option<Expr>,
    guard: Option<Expr>,
    actions: Vec<ActionCall>,
    explicit_cost: Option<u64>,
}

/// Incremental chart constructor. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct ChartBuilder {
    name: String,
    states: Vec<PendingState>,
    events: Vec<EventDecl>,
    conditions: Vec<ConditionDecl>,
    data_ports: Vec<DataPortDecl>,
    default_first_child: bool,
}

impl ChartBuilder {
    /// Creates an empty builder for a chart with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ChartBuilder { name: name.into(), default_first_child: true, ..Default::default() }
    }

    /// Renames the chart being built (used by the `chart Name;` directive
    /// of the textual format).
    pub fn set_name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// When enabled (the default), an OR-state without an explicit
    /// `default` uses its first child, matching common statechart tools.
    /// Disable to make a missing default a hard error.
    pub fn default_first_child(&mut self, yes: bool) -> &mut Self {
        self.default_first_child = yes;
        self
    }

    /// Declares an event. `period` is the arrival-period timing constraint
    /// in reference-clock cycles (Table 2), or `None` when unconstrained.
    pub fn event(&mut self, name: impl Into<String>, period: Option<u64>) -> &mut Self {
        self.events.push(EventDecl {
            name: name.into(),
            width: 1,
            port: None,
            period,
            internal: false,
        });
        self
    }

    /// Declares an internal event (raised only by actions, no port).
    pub fn internal_event(&mut self, name: impl Into<String>) -> &mut Self {
        self.events.push(EventDecl {
            name: name.into(),
            width: 1,
            port: None,
            period: None,
            internal: true,
        });
        self
    }

    /// Declares an event with full control over the declaration record.
    pub fn event_decl(&mut self, decl: EventDecl) -> &mut Self {
        self.events.push(decl);
        self
    }

    /// Declares a condition with reset value `initial`.
    pub fn condition(&mut self, name: impl Into<String>, initial: bool) -> &mut Self {
        self.conditions.push(ConditionDecl { name: name.into(), width: 1, port: None, initial });
        self
    }

    /// Declares a condition with full control over the declaration record.
    pub fn condition_decl(&mut self, decl: ConditionDecl) -> &mut Self {
        self.conditions.push(decl);
        self
    }

    /// Declares an external data port.
    pub fn data_port(
        &mut self,
        name: impl Into<String>,
        width: u8,
        address: u16,
        direction: PortDirection,
    ) -> &mut Self {
        self.data_ports.push(DataPortDecl { name: name.into(), width, address, direction });
        self
    }

    /// Declares a state and returns a scoped sub-builder for its contents.
    pub fn state(&mut self, name: impl Into<String>, kind: StateKind) -> StateScope<'_> {
        self.states.push(PendingState {
            name: name.into(),
            kind,
            contains: Vec::new(),
            default: None,
            is_reference: false,
            history: false,
            entry_actions: Vec::new(),
            exit_actions: Vec::new(),
            transitions: Vec::new(),
        });
        let idx = self.states.len() - 1;
        StateScope { builder: self, idx }
    }

    /// Shorthand: declares a basic state with no transitions.
    pub fn basic(&mut self, name: impl Into<String>) -> &mut Self {
        self.state(name, StateKind::Basic);
        self
    }

    /// Resolves names, infers implicit basic states, validates, and
    /// produces the finished [`Chart`]. Lint does not run.
    ///
    /// # Errors
    ///
    /// Returns the first structural error found: duplicate or unknown
    /// names, containment cycles or multiple parents, missing OR
    /// defaults, unresolvable label atoms, and the other `SC2xx` cases
    /// [`crate::diag`] lists.
    pub fn build(&self) -> Result<Chart, Diagnostic> {
        let mut sink = DiagnosticSink::new();
        let chart = self.build_into(&mut crate::diag::Emitter::new(&mut sink));
        sink.into_result(chart)
    }

    /// Recovering core of [`ChartBuilder::build`]: each failure is
    /// reported and degrades locally — duplicate definitions keep the
    /// first, a second parent is ignored, a bad default falls back to
    /// the first child — and the walk continues, so the first emitted
    /// error is the one a fail-fast check in the same order would find.
    /// Containment cycles abort structure assembly (nothing downstream
    /// is meaningful on cyclic containment). Returns the chart only
    /// when nothing was emitted.
    pub(crate) fn build_into(&self, em: &mut crate::diag::Emitter) -> Option<Chart> {
        let errors_at_entry = em.errors();
        let mut this = self.clone();
        if this.states.is_empty() {
            em.emit_chart(ChartError::Empty);
            return None;
        }

        // Merge `reference;` declarations (off-page connectors) into
        // their definitions: a name may be declared on several pages as
        // long as at most one declaration is not a reference. The
        // definition supplies kind/children/default/history; every
        // declaration contributes its transitions and entry/exit
        // actions, in page order.
        {
            let mut merged: Vec<PendingState> = Vec::new();
            let mut index: BTreeMap<String, usize> = BTreeMap::new();
            for s in this.states.drain(..) {
                match index.get(&s.name) {
                    None => {
                        index.insert(s.name.clone(), merged.len());
                        merged.push(s);
                    }
                    Some(&i) => {
                        let dst = &mut merged[i];
                        if !dst.is_reference && !s.is_reference {
                            // Recovery: keep the first definition; the
                            // duplicate still contributes its reactions.
                            em.emit_chart(ChartError::DuplicateName(s.name.clone()));
                        }
                        if dst.is_reference && !s.is_reference {
                            // The definition arrived second: take its
                            // structure, keep the reference's reactions
                            // first (outer pages declare outer behaviour).
                            dst.kind = s.kind;
                            dst.contains = s.contains;
                            dst.default = s.default;
                            dst.history = s.history;
                            dst.is_reference = false;
                        }
                        dst.transitions.extend(s.transitions);
                        dst.entry_actions.extend(s.entry_actions);
                        dst.exit_actions.extend(s.exit_actions);
                    }
                }
            }
            this.states = merged;
        }

        // Duplicate detection across namespaces.
        let mut seen = BTreeSet::new();
        for s in &this.states {
            if !seen.insert(s.name.clone()) {
                em.emit_chart(ChartError::DuplicateName(s.name.clone()));
            }
        }
        let mut seen_ec = BTreeSet::new();
        for n in this.events.iter().map(|e| &e.name).chain(this.conditions.iter().map(|c| &c.name))
        {
            if !seen_ec.insert(n.clone()) {
                em.emit_chart(ChartError::DuplicateName(n.clone()));
            }
        }

        // Infer any state that is referenced (as child or transition
        // target) but never declared as a basic state.
        let declared: BTreeSet<String> = this.states.iter().map(|s| s.name.clone()).collect();
        let mut inferred = BTreeSet::new();
        for s in &this.states {
            for c in &s.contains {
                if !declared.contains(c) {
                    inferred.insert(c.clone());
                }
            }
            for t in &s.transitions {
                if !declared.contains(&t.target) {
                    inferred.insert(t.target.clone());
                }
            }
        }
        for name in inferred {
            this.states.push(PendingState {
                name,
                kind: StateKind::Basic,
                contains: Vec::new(),
                default: None,
                is_reference: false,
                history: false,
                entry_actions: Vec::new(),
                exit_actions: Vec::new(),
                transitions: Vec::new(),
            });
        }

        let index: BTreeMap<String, usize> =
            this.states.iter().enumerate().map(|(i, s)| (s.name.clone(), i)).collect();

        // Assign parents; detect multiple parents.
        let mut parent: Vec<Option<usize>> = vec![None; this.states.len()];
        for (i, s) in this.states.iter().enumerate() {
            for c in &s.contains {
                let ci = index[c];
                if parent[ci].is_some() {
                    // Recovery: the first parent wins.
                    em.emit_chart(ChartError::MultipleParents(c.clone()));
                    continue;
                }
                if ci == i {
                    // Recovery: drop the self-containment edge.
                    em.emit_chart(ChartError::ContainmentCycle(c.clone()));
                    continue;
                }
                parent[ci] = Some(i);
            }
        }

        // Cycle detection by walking up with a step bound. A cycle makes
        // every downstream structural stage meaningless, so this is the
        // one fatal case: report and stop.
        for start in 0..this.states.len() {
            let mut cur = start;
            let mut steps = 0usize;
            while let Some(p) = parent[cur] {
                cur = p;
                steps += 1;
                if steps > this.states.len() {
                    em.emit_chart(ChartError::ContainmentCycle(this.states[start].name.clone()));
                    return None;
                }
            }
        }

        // Root handling: a single orphan is the root, otherwise an
        // implicit OR root adopts all orphans.
        let orphans: Vec<usize> =
            (0..this.states.len()).filter(|&i| parent[i].is_none()).collect();
        let root_idx = if orphans.len() == 1 {
            orphans[0]
        } else {
            this.states.push(PendingState {
                name: IMPLICIT_ROOT.to_string(),
                kind: StateKind::Or,
                contains: orphans.iter().map(|&i| this.states[i].name.clone()).collect(),
                default: Some(this.states[orphans[0]].name.clone()),
                is_reference: false,
                history: false,
                entry_actions: Vec::new(),
                exit_actions: Vec::new(),
                transitions: Vec::new(),
            });
            let ri = this.states.len() - 1;
            parent.push(None);
            for &o in &orphans {
                parent[o] = Some(ri);
            }
            ri
        };

        // Materialise states.
        let index: BTreeMap<String, usize> =
            this.states.iter().enumerate().map(|(i, s)| (s.name.clone(), i)).collect();
        let mut states: Vec<State> = Vec::with_capacity(this.states.len());
        for (i, p) in this.states.iter().enumerate() {
            if p.kind == StateKind::Basic && !p.contains.is_empty() {
                em.emit_chart(ChartError::BasicWithChildren(p.name.clone()));
            }
            let children: Vec<StateId> =
                p.contains.iter().map(|c| StateId(index[c] as u32)).collect();
            let default = match (&p.default, p.kind) {
                (Some(d), StateKind::Or) => match index.get(d) {
                    Some(&di) => {
                        let did = StateId(di as u32);
                        if children.contains(&did) {
                            Some(did)
                        } else {
                            // Recovery: fall back to the first child.
                            em.emit_chart(ChartError::DefaultNotChild {
                                state: p.name.clone(),
                                default: d.clone(),
                            });
                            children.first().copied()
                        }
                    }
                    None => {
                        em.emit_chart(ChartError::UnknownState(d.clone()));
                        children.first().copied()
                    }
                },
                (None, StateKind::Or) => {
                    if let Some(first) = children.first().copied() {
                        if !this.default_first_child {
                            em.emit_chart(ChartError::MissingDefault(p.name.clone()));
                        }
                        Some(first)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if p.kind == StateKind::Or && children.is_empty() {
                // An OR-state with no children degenerates to basic.
            }
            states.push(State {
                name: p.name.clone(),
                kind: p.kind,
                parent: parent[i].map(|pi| StateId(pi as u32)),
                children,
                default,
                is_reference: p.is_reference,
                history: p.history,
                entry_actions: p.entry_actions.clone(),
                exit_actions: p.exit_actions.clone(),
            });
        }

        // Materialise transitions.
        let mut transitions = Vec::new();
        for (i, p) in this.states.iter().enumerate() {
            for t in &p.transitions {
                let Some(&target) = index.get(&t.target) else {
                    // Unreachable (targets are inferred), kept defensive.
                    em.emit_chart(ChartError::UnknownState(t.target.clone()));
                    continue;
                };
                transitions.push(Transition {
                    source: StateId(i as u32),
                    target: StateId(target as u32),
                    trigger: t.trigger.clone(),
                    guard: t.guard.clone(),
                    actions: t.actions.clone(),
                    explicit_cost: t.explicit_cost,
                });
            }
        }

        let chart = Chart {
            name: this.name.clone(),
            states,
            transitions,
            events: this.events.clone(),
            conditions: this.conditions.clone(),
            data_ports: this.data_ports.clone(),
            root: StateId(root_idx as u32),
        };
        crate::validate::validate_into(&chart, em);
        if em.errors() > errors_at_entry {
            return None;
        }
        Some(chart)
    }
}

/// Scoped access to one pending state during building.
#[derive(Debug)]
pub struct StateScope<'a> {
    builder: &'a mut ChartBuilder,
    idx: usize,
}

impl StateScope<'_> {
    fn state(&mut self) -> &mut PendingState {
        &mut self.builder.states[self.idx]
    }

    /// Adds child states by name (declared elsewhere or inferred basic).
    pub fn contains<I, S>(&mut self, names: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        self.state().contains.extend(names);
        self
    }

    /// Sets the default child of an OR-state.
    pub fn default_child(&mut self, name: impl Into<String>) -> &mut Self {
        let n = name.into();
        self.state().default = Some(n);
        self
    }

    /// Marks the state as an off-page reference (`@Name`).
    pub fn reference(&mut self) -> &mut Self {
        self.state().is_reference = true;
        self
    }

    /// Gives an OR-state a shallow-history connector: default completion
    /// re-enters the most recently active child.
    pub fn history(&mut self) -> &mut Self {
        self.state().history = true;
        self
    }

    /// Adds an entry action, `"Routine(arg, ...)"`.
    ///
    /// # Panics
    ///
    /// Panics if the call fails to parse.
    pub fn on_entry(&mut self, call: &str) -> &mut Self {
        let parsed = parse_label(&format!("/{call}")).expect("invalid entry action");
        self.state().entry_actions.extend(parsed.actions);
        self
    }

    /// Adds an exit action, `"Routine(arg, ...)"`.
    ///
    /// # Panics
    ///
    /// Panics if the call fails to parse.
    pub fn on_exit(&mut self, call: &str) -> &mut Self {
        let parsed = parse_label(&format!("/{call}")).expect("invalid exit action");
        self.state().exit_actions.extend(parsed.actions);
        self
    }

    /// Adds a transition with a textual `trigger[guard]/actions` label.
    ///
    /// # Panics
    ///
    /// Panics if the label fails to parse; use [`StateScope::try_transition`]
    /// for fallible construction.
    pub fn transition(&mut self, target: impl Into<String>, label: &str) -> &mut Self {
        self.try_transition(target, label, None).expect("invalid transition label")
    }

    /// Adds a transition with a textual label and an explicit cycle-cost
    /// annotation for the timing validator.
    ///
    /// # Panics
    ///
    /// Panics if the label fails to parse.
    pub fn transition_costed(
        &mut self,
        target: impl Into<String>,
        label: &str,
        cost: u64,
    ) -> &mut Self {
        self.try_transition(target, label, Some(cost)).expect("invalid transition label")
    }

    /// Fallible version of [`StateScope::transition`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error in `label`.
    pub fn try_transition(
        &mut self,
        target: impl Into<String>,
        label: &str,
        explicit_cost: Option<u64>,
    ) -> Result<&mut Self, String> {
        let parsed = parse_label(label)?;
        self.state().transitions.push(PendingTransition {
            target: target.into(),
            trigger: parsed.trigger,
            guard: parsed.guard,
            actions: parsed.actions,
            explicit_cost,
        });
        Ok(self)
    }
}

/// The three parts of a parsed transition label.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedLabel {
    /// Event expression, if present.
    pub trigger: Option<Expr>,
    /// Condition expression, if present.
    pub guard: Option<Expr>,
    /// Action calls, possibly empty.
    pub actions: Vec<ActionCall>,
}

/// Parses a full transition label `trigger [guard] / actions`.
///
/// All three parts are optional: `"TICK"`, `"[MOVE]"`, `"/Stop()"`,
/// `"E [C] / F(x), G()"` and the empty label are all valid.
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub fn parse_label(label: &str) -> Result<ParsedLabel, String> {
    let label = label.trim();
    let (head, action_text) = match split_top_level(label, '/') {
        Some((h, a)) => (h.trim(), Some(a.trim())),
        None => (label, None),
    };

    // Split guard `[...]` off the head.
    let (trigger_text, guard_text) = match head.find('[') {
        Some(open) => {
            let close = head.rfind(']').ok_or_else(|| "unterminated `[` in label".to_string())?;
            if close < open {
                return Err("mismatched `[` `]` in label".to_string());
            }
            (head[..open].trim(), Some(head[open + 1..close].trim()))
        }
        None => (head, None),
    };

    let trigger = if trigger_text.is_empty() {
        None
    } else {
        Some(parse_expr(trigger_text).map_err(|e| format!("trigger: {e}"))?)
    };
    let guard = match guard_text {
        Some(g) if !g.is_empty() => Some(parse_expr(g).map_err(|e| format!("guard: {e}"))?),
        _ => None,
    };
    let actions = match action_text {
        Some(a) if !a.is_empty() => parse_actions(a)?,
        _ => Vec::new(),
    };
    Ok(ParsedLabel { trigger, guard, actions })
}

/// Splits at the first top-level (not inside parentheses/brackets)
/// occurrence of `sep`.
fn split_top_level(s: &str, sep: char) -> Option<(&str, &str)> {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            c if c == sep && depth == 0 => return Some((&s[..i], &s[i + 1..])),
            _ => {}
        }
    }
    None
}

fn parse_actions(text: &str) -> Result<Vec<ActionCall>, String> {
    let mut out = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let open = rest
            .find('(')
            .ok_or_else(|| format!("expected `(` in action call near `{rest}`"))?;
        let name = rest[..open].trim();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(format!("invalid action name `{name}`"));
        }
        let close = find_matching_paren(rest, open)
            .ok_or_else(|| format!("unterminated `(` in action call `{name}`"))?;
        let args_text = &rest[open + 1..close];
        let args: Vec<String> = if args_text.trim().is_empty() {
            Vec::new()
        } else {
            args_text.split(',').map(|a| a.trim().to_string()).collect()
        };
        out.push(ActionCall { function: name.to_string(), args });
        rest = rest[close + 1..].trim();
        if let Some(stripped) = rest.strip_prefix([',', ';']) {
            rest = stripped.trim();
        }
    }
    Ok(out)
}

fn find_matching_paren(s: &str, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, c) in s.char_indices().skip(open) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StateKind;

    #[test]
    fn parse_label_full_form() {
        let l = parse_label("INIT or ALLRESET/InitializeAll()").unwrap();
        assert!(l.trigger.is_some());
        assert!(l.guard.is_none());
        assert_eq!(l.actions.len(), 1);
        assert_eq!(l.actions[0].function, "InitializeAll");
        assert!(l.actions[0].args.is_empty());
    }

    #[test]
    fn parse_label_guard_only() {
        let l = parse_label("[XFINISH and YFINISH and PHIFINISH]").unwrap();
        assert!(l.trigger.is_none());
        assert!(l.guard.is_some());
        assert!(l.actions.is_empty());
    }

    #[test]
    fn parse_label_guarded_event_with_action() {
        let l = parse_label("[DATA_VALID]/GetByte()").unwrap();
        assert!(l.trigger.is_none());
        assert_eq!(l.guard.unwrap().to_string(), "DATA_VALID");
        assert_eq!(l.actions[0].function, "GetByte");
    }

    #[test]
    fn parse_label_multi_arg_action() {
        let l =
            parse_label("not (X_PULSE or Y_PULSE)/PhiParameters(PhiParams, NewPhi, OldPhi)")
                .unwrap();
        assert_eq!(l.actions[0].args, vec!["PhiParams", "NewPhi", "OldPhi"]);
    }

    #[test]
    fn parse_label_action_only_and_empty() {
        let l = parse_label("/StartMotor(MX, XParams)").unwrap();
        assert!(l.trigger.is_none());
        assert_eq!(l.actions[0].function, "StartMotor");
        let l = parse_label("").unwrap();
        assert_eq!(l, ParsedLabel::default());
    }

    #[test]
    fn parse_label_multiple_actions() {
        let l = parse_label("E/F(), G(a), H(b, c)").unwrap();
        assert_eq!(l.actions.len(), 3);
        assert_eq!(l.actions[2].args, vec!["b", "c"]);
    }

    #[test]
    fn parse_label_errors() {
        assert!(parse_label("E/noparens").is_err());
        assert!(parse_label("[unclosed").is_err());
        assert!(parse_label("E or /F()").is_err());
    }

    #[test]
    fn build_simple_chart() {
        let mut b = ChartBuilder::new("toggle");
        b.event("TICK", Some(100));
        b.state("Root", StateKind::Or).contains(["Off", "On"]).default_child("Off");
        b.state("Off", StateKind::Basic).transition("On", "TICK");
        b.state("On", StateKind::Basic).transition("Off", "TICK");
        let chart = b.build().unwrap();
        assert_eq!(chart.state_count(), 3);
        assert_eq!(chart.transition_count(), 2);
        let root = chart.state(chart.root());
        assert_eq!(root.name, "Root");
        assert_eq!(root.children.len(), 2);
    }

    #[test]
    fn infers_undeclared_children_as_basic() {
        let mut b = ChartBuilder::new("c");
        b.event("E", None);
        b.state("Top", StateKind::Or).contains(["A", "B"]).default_child("A");
        b.state("A", StateKind::Basic).transition("B", "E");
        let chart = b.build().unwrap();
        let bid = chart.state_by_name("B").unwrap();
        assert_eq!(chart.state(bid).kind, StateKind::Basic);
        assert_eq!(chart.state(bid).parent, Some(chart.state_by_name("Top").unwrap()));
    }

    #[test]
    fn implicit_root_adopts_orphans() {
        let mut b = ChartBuilder::new("c");
        b.event("E", None);
        b.state("A", StateKind::Basic).transition("B", "E");
        b.basic("B");
        let chart = b.build().unwrap();
        assert_eq!(chart.state(chart.root()).name, IMPLICIT_ROOT);
        assert_eq!(chart.state(chart.root()).children.len(), 2);
    }

    /// Asserts that `b` fails to build with `code` and `message`.
    fn assert_build_err(b: &ChartBuilder, code: &str, message: &str) {
        let d = b.build().unwrap_err();
        assert_eq!((d.code.as_str(), d.message.as_str()), (code, message));
    }

    #[test]
    fn duplicate_state_rejected() {
        let mut b = ChartBuilder::new("c");
        b.basic("A");
        b.basic("A");
        assert_build_err(&b, "SC204", "duplicate name `A`");
    }

    #[test]
    fn multiple_parents_rejected() {
        let mut b = ChartBuilder::new("c");
        b.state("P1", StateKind::Or).contains(["X"]);
        b.state("P2", StateKind::Or).contains(["X", "Y"]);
        assert_build_err(&b, "SC205", "state `X` is contained in more than one parent");
    }

    #[test]
    fn containment_cycle_rejected() {
        let mut b = ChartBuilder::new("c");
        b.state("A", StateKind::Or).contains(["B"]);
        b.state("B", StateKind::Or).contains(["A"]);
        assert_build_err(&b, "SC206", "containment cycle through state `A`");
    }

    #[test]
    fn self_containment_rejected() {
        let mut b = ChartBuilder::new("c");
        b.state("A", StateKind::Or).contains(["A"]);
        assert_build_err(&b, "SC206", "containment cycle through state `A`");
    }

    #[test]
    fn default_must_be_child() {
        let mut b = ChartBuilder::new("c");
        b.state("Top", StateKind::Or).contains(["A"]).default_child("Elsewhere");
        b.basic("Elsewhere");
        assert_build_err(&b, "SC208", "default `Elsewhere` is not a child of or-state `Top`");
    }

    #[test]
    fn empty_chart_rejected() {
        assert_build_err(&ChartBuilder::new("c"), "SC214", "chart contains no states");
    }

    #[test]
    fn unresolved_label_atom_rejected() {
        let mut b = ChartBuilder::new("c");
        b.state("A", StateKind::Basic).transition("B", "NO_SUCH_EVENT");
        b.basic("B");
        assert_build_err(
            &b,
            "SC213",
            "label atom `NO_SUCH_EVENT` is neither an event nor a condition",
        );
    }
}
