//! Reference step semantics for extended statecharts.
//!
//! This executor defines the *functional* meaning of a chart against
//! which the synthesised SLA hardware and the full PSCP machine are
//! cross-checked. It follows the execution model of §3.1 of the paper:
//!
//! 1. at the beginning of a configuration cycle, external events are
//!    sampled (they live for exactly one cycle);
//! 2. the set of enabled, non-conflicting transitions is computed
//!    (the paper's SLA produces the transition addresses);
//! 3. all selected transitions execute: exit sets are left, targets and
//!    their default completions are entered, and action routines run —
//!    actions may raise events (visible *next* cycle) and set conditions
//!    (written back at the end of the cycle, like the condition caches);
//! 4. repeat.
//!
//! Conflicts are resolved by *outer-first* priority (a transition whose
//! scope is closer to the root preempts inner ones — this is what lets
//! `ERROR/Stop()` on `Operation` in Fig. 6 win over anything inside), and
//! by declaration order between equals.
//!
//! Everything selection needs from the chart — resolved triggers and
//! guards, priority keys, each transition's key event, transition
//! scopes and the states inside each scope — is computed once per chart
//! into [`SelectionTables`] and shared by every executor over it. A
//! transition whose trigger (or, lacking one, guard) requires an event
//! in its top-level conjunction is filed under that event, so a cycle
//! evaluates only the transitions filed under its present events plus
//! the unkeyed ones no single event gates, and resolves conflicts with
//! a claimed-state bitmap, the software shadow of the SLA's single
//! combinational pass.

use crate::intern::{ConditionNames, EventNames};
use crate::model::{ActionCall, Chart, ConditionId, EventId, StateId, StateKind, TransitionId};
use crate::trigger::Expr;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One node of a resolved trigger/guard expression, stored in a flat
/// arena shared by the whole chart.
///
/// [`Expr`] keeps atoms as names, so evaluating one means a name → id
/// scan per atom — per transition, per cycle, on the hot path. The
/// resolution happens once in [`SelectionTables::new`]; evaluation is
/// pure id lookups over the arena, and building it is a single `Vec`
/// rather than a box per node. Atoms naming neither an event nor a
/// condition evaluate to false, exactly like the unresolved path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResolvedOp {
    /// An atom naming a chart event.
    Event(EventId),
    /// An atom naming a chart condition.
    Condition(ConditionId),
    /// An atom naming nothing in the chart (always false).
    Unknown,
    /// Logical negation of the node at the given arena index.
    Not(u32),
    /// Logical conjunction.
    And(u32, u32),
    /// Logical disjunction.
    Or(u32, u32),
}

/// Appends the resolved form of `expr` to the arena; returns the root's
/// arena index.
fn resolve_expr(
    events: &EventNames,
    conditions: &ConditionNames,
    expr: &Expr,
    arena: &mut Vec<ResolvedOp>,
) -> u32 {
    let op = match expr {
        Expr::Atom(a) => {
            if let Some(e) = events.get(a) {
                ResolvedOp::Event(e)
            } else if let Some(c) = conditions.get(a) {
                ResolvedOp::Condition(c)
            } else {
                ResolvedOp::Unknown
            }
        }
        Expr::Not(e) => ResolvedOp::Not(resolve_expr(events, conditions, e, arena)),
        Expr::And(a, b) => ResolvedOp::And(
            resolve_expr(events, conditions, a, arena),
            resolve_expr(events, conditions, b, arena),
        ),
        Expr::Or(a, b) => ResolvedOp::Or(
            resolve_expr(events, conditions, a, arena),
            resolve_expr(events, conditions, b, arena),
        ),
    };
    arena.push(op);
    arena.len() as u32 - 1
}

/// Evaluates the arena node `root` against the current event bitmap
/// and condition values (indexed by [`EventId::index`] and
/// [`ConditionId::index`]).
fn eval_resolved(arena: &[ResolvedOp], root: u32, events: &[bool], conditions: &[bool]) -> bool {
    match arena[root as usize] {
        ResolvedOp::Event(e) => events[e.index()],
        ResolvedOp::Condition(c) => conditions[c.index()],
        ResolvedOp::Unknown => false,
        ResolvedOp::Not(x) => !eval_resolved(arena, x, events, conditions),
        ResolvedOp::And(a, b) => {
            eval_resolved(arena, a, events, conditions)
                && eval_resolved(arena, b, events, conditions)
        }
        ResolvedOp::Or(a, b) => {
            eval_resolved(arena, a, events, conditions)
                || eval_resolved(arena, b, events, conditions)
        }
    }
}

/// The key event of the expression rooted at `root`: the first
/// positive event atom of its top-level conjunction, found by walking
/// `And` nodes only. The expression is false whenever that event is
/// absent. `None` under a negation, a disjunction, a condition or an
/// unknown atom.
fn key_event(arena: &[ResolvedOp], root: u32) -> Option<EventId> {
    match arena[root as usize] {
        ResolvedOp::Event(e) => Some(e),
        ResolvedOp::And(a, b) => key_event(arena, a).or_else(|| key_event(arena, b)),
        ResolvedOp::Condition(_)
        | ResolvedOp::Unknown
        | ResolvedOp::Not(_)
        | ResolvedOp::Or(..) => None,
    }
}

/// Precomputed per-transition selection data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ResolvedTransition {
    /// The source state: the transition is a candidate only while it is
    /// active.
    source: StateId,
    /// Arena root of the resolved trigger.
    trigger: Option<u32>,
    /// Arena root of the resolved guard.
    guard: Option<u32>,
    /// The transition scope ([`Chart::transition_scope`]).
    scope: StateId,
    /// Outer-first priority key: scope depth in the high half,
    /// declaration index in the low half.
    priority: u64,
}

/// The per-chart tables transition selection and stepping run on,
/// built once in O(states + transitions · depth) by
/// [`SelectionTables::new`] and shared by `Arc` among every
/// [`Executor`] over the chart (see [`Executor::with_tables`]).
///
/// Holds the resolved trigger/guard arena and priority keys, the
/// transitions grouped by key event, each transition's scope, and the
/// chart in preorder with every state's subtree span — so the strict
/// descendants of a scope are one slice, listed in exactly the order
/// [`Chart::descendants_inclusive`] gives. The chart's event and
/// condition name tables, which resolve the triggers and guards, stay
/// here for resolving environment-supplied names too.
///
/// A transition's key event is a positive event atom of its resolved
/// trigger's top-level conjunction or, when the trigger has none, of
/// its guard's. The transition cannot be enabled in a cycle without
/// that event, so selection evaluates only the keyed transitions of the
/// cycle's present events plus the unkeyed rest: triggerless ones and
/// those gated only by conditions, negations or disjunctions. Each
/// transition sits in exactly one list and the priority key is a total
/// order, so the selected set is exactly that of evaluating every
/// transition of every active state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionTables {
    /// Arena backing the resolved expressions.
    arena: Vec<ResolvedOp>,
    /// Per transition, indexed by [`TransitionId::index`].
    transitions: Vec<ResolvedTransition>,
    /// `keyed[key_start[e]..key_start[e + 1]]` are the transitions whose
    /// key event is `e`, in declaration order.
    key_start: Vec<u32>,
    keyed: Vec<TransitionId>,
    /// The transitions without a key event, in declaration order.
    unkeyed: Vec<TransitionId>,
    /// Every state, preorder, children in declaration order.
    preorder: Vec<StateId>,
    /// Per state: its position in `preorder` and one past its subtree.
    span: Vec<(u32, u32)>,
    /// Number of declared events (the width of the event bitmap).
    event_count: usize,
    /// Event names → ids.
    event_names: EventNames,
    /// Condition names → ids.
    condition_names: ConditionNames,
}

impl SelectionTables {
    /// Builds the tables for `chart`.
    pub fn new(chart: &Chart) -> Self {
        let n = chart.state_count();
        let root = chart.root();

        // Preorder with depths and subtree spans. The root's tree comes
        // first; any other parentless state (not produced by the
        // builder) roots a tree of its own.
        let mut preorder = Vec::with_capacity(n);
        let mut depth = vec![0u32; n];
        // (preorder position, subtree size) until the sizes are summed,
        // then (position, end).
        let mut span = vec![(0u32, 1u32); n];
        let mut stack = Vec::new();
        let tops = std::iter::once(root)
            .chain(chart.state_ids().filter(|&s| s != root && chart.state(s).parent.is_none()));
        for top in tops {
            stack.push(top);
            while let Some(s) = stack.pop() {
                span[s.index()].0 = preorder.len() as u32;
                preorder.push(s);
                for &c in chart.state(s).children.iter().rev() {
                    depth[c.index()] = depth[s.index()] + 1;
                    stack.push(c);
                }
            }
        }
        // Subtree sizes bottom-up, then spans.
        for &s in preorder.iter().rev() {
            if let Some(p) = chart.state(s).parent {
                span[p.index()].1 += span[s.index()].1;
            }
        }
        for sp in &mut span {
            sp.1 += sp.0;
        }

        let event_names = EventNames::new(chart);
        let condition_names = ConditionNames::new(chart);
        let mut arena = Vec::new();
        let transitions = chart
            .transition_ids()
            .map(|tid| {
                let t = chart.transition(tid);
                let scope = chart.transition_scope(t.source, t.target);
                ResolvedTransition {
                    source: t.source,
                    trigger: t.trigger.as_ref().map(|e| {
                        resolve_expr(&event_names, &condition_names, e, &mut arena)
                    }),
                    guard: t.guard.as_ref().map(|e| {
                        resolve_expr(&event_names, &condition_names, e, &mut arena)
                    }),
                    scope,
                    priority: u64::from(depth[scope.index()]) << 32 | tid.index() as u64,
                }
            })
            .collect::<Vec<_>>();

        // Key-event lists: a counting sort of the keyed transitions by
        // key event, stable in declaration order.
        let event_count = chart.event_ids().len();
        let keys: Vec<Option<EventId>> = transitions
            .iter()
            .map(|rt| {
                let key = |root: Option<u32>| root.and_then(|r| key_event(&arena, r));
                key(rt.trigger).or_else(|| key(rt.guard))
            })
            .collect();
        let mut key_start = vec![0u32; event_count + 1];
        for e in keys.iter().flatten() {
            key_start[e.index() + 1] += 1;
        }
        for i in 0..event_count {
            key_start[i + 1] += key_start[i];
        }
        let mut fill = key_start.clone();
        let mut keyed = vec![TransitionId::from_index(0); key_start[event_count] as usize];
        let mut unkeyed = Vec::new();
        for (tid, key) in chart.transition_ids().zip(&keys) {
            match key {
                Some(e) => {
                    let slot = &mut fill[e.index()];
                    keyed[*slot as usize] = tid;
                    *slot += 1;
                }
                None => unkeyed.push(tid),
            }
        }

        SelectionTables {
            arena,
            transitions,
            key_start,
            keyed,
            unkeyed,
            preorder,
            span,
            event_count,
            event_names,
            condition_names,
        }
    }

    /// The chart's event-name table.
    pub fn event_names(&self) -> &EventNames {
        &self.event_names
    }

    /// The chart's condition-name table.
    pub fn condition_names(&self) -> &ConditionNames {
        &self.condition_names
    }

    /// The scope of transition `t` — equal to
    /// [`Chart::transition_scope`] of its endpoints.
    fn scope(&self, t: TransitionId) -> StateId {
        self.transitions[t.index()].scope
    }

    /// The states strictly inside `s`, in preorder — equal to
    /// [`Chart::descendants_inclusive`] without `s` itself.
    fn strict_descendants(&self, s: StateId) -> &[StateId] {
        let (start, end) = self.span[s.index()];
        &self.preorder[start as usize + 1..end as usize]
    }

    /// The transitions whose key event is `e`, in declaration order.
    fn keyed(&self, e: EventId) -> &[TransitionId] {
        let i = e.index();
        &self.keyed[self.key_start[i] as usize..self.key_start[i + 1] as usize]
    }

    /// True when these tables were built for a chart of `chart`'s shape.
    fn fits(&self, chart: &Chart) -> bool {
        self.span.len() == chart.state_count()
            && self.transitions.len() == chart.transition_count()
            && self.event_count == chart.event_ids().len()
    }

    /// The enabled, conflict-resolved transition set of one cycle,
    /// written to `scratch.selected` (ascending priority), for the
    /// cycle's event bitmap and present events already loaded into
    /// `scratch`.
    fn select(&self, active: &[bool], conditions: &[bool], scratch: &mut StepScratch) {
        let StepScratch { events, present, enabled, claimed, selected, .. } = scratch;
        let holds =
            |root: Option<u32>| root.is_none_or(|r| eval_resolved(&self.arena, r, events, conditions));
        let is_enabled = |&tid: &TransitionId| {
            let rt = &self.transitions[tid.index()];
            active[rt.source.index()] && holds(rt.trigger) && holds(rt.guard)
        };
        // Only the present events' keyed transitions and the unkeyed
        // ones can be enabled; each is considered once.
        enabled.clear();
        for &e in present.iter() {
            enabled.extend(self.keyed(e).iter().copied().filter(is_enabled));
        }
        enabled.extend(self.unkeyed.iter().copied().filter(is_enabled));

        // Outer-first priority: sort by scope depth, then declaration
        // order; then greedily keep a transition iff none of the active
        // states it would exit is already claimed by a kept one.
        enabled.sort_unstable_by_key(|&tid| self.transitions[tid.index()].priority);
        claimed.clear();
        claimed.resize(active.len(), false);
        selected.clear();
        for &tid in enabled.iter() {
            let exits = self.strict_descendants(self.transitions[tid.index()].scope);
            // Only active states are ever claimed.
            if exits.iter().any(|&s| claimed[s.index()]) {
                continue;
            }
            for &s in exits {
                if active[s.index()] {
                    claimed[s.index()] = true;
                }
            }
            selected.push(tid);
        }
    }
}

/// A stable snapshot of which states are active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    active: Vec<bool>,
}

impl Configuration {
    /// True when `s` is active.
    pub fn is_active(&self, s: StateId) -> bool {
        self.active[s.index()]
    }

    /// All active states, in arena order.
    pub fn active_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| StateId::from_index(i))
    }

    /// Active basic (leaf) states — the usual human-readable summary.
    pub fn active_leaves<'c>(&'c self, chart: &'c Chart) -> impl Iterator<Item = StateId> + 'c {
        self.active_states().filter(move |&s| chart.state(s).children.is_empty())
    }

    /// Checks the consistency invariants: the root is active; every
    /// active OR-state with children has exactly one active child; every
    /// active AND-state has all children active; children of inactive
    /// states are inactive.
    pub fn is_consistent(&self, chart: &Chart) -> bool {
        if !self.is_active(chart.root()) {
            return false;
        }
        for s in chart.state_ids() {
            let st = chart.state(s);
            let active_children = st.children.iter().filter(|&&c| self.is_active(c)).count();
            if self.is_active(s) {
                match st.kind {
                    StateKind::Or if !st.children.is_empty()
                        && active_children != 1 => {
                            return false;
                        }
                    StateKind::And
                        if active_children != st.children.len() => {
                            return false;
                        }
                    _ => {}
                }
            } else if active_children != 0 {
                return false;
            }
        }
        true
    }
}

/// Side effects requested by an action routine during reference
/// execution, by name. The full PSCP machine runs compiled TEP code
/// instead and reports effects by id through an [`EffectSink`]; this
/// hook exists so functional tests and co-simulations can model the same
/// effects.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActionEffects {
    /// Events raised; visible in the *next* configuration cycle.
    pub raise: Vec<String>,
    /// Condition assignments, applied at end of cycle (condition-cache
    /// write-back).
    pub set_conditions: Vec<(String, bool)>,
}

/// Where an action routine's side effects go during
/// [`Executor::step_with`]: raised events become pending for the next
/// cycle, condition writes are applied at the end of this one. The
/// sink writes into buffers the executor keeps, so reporting an effect
/// allocates nothing once they have grown.
#[derive(Debug)]
pub struct EffectSink<'a> {
    chart: &'a Chart,
    pending: &'a mut Vec<EventId>,
    raised: &'a mut Vec<EventId>,
    cond_writes: &'a mut Vec<(ConditionId, bool)>,
}

impl EffectSink<'_> {
    /// Raises `e`: it is visible in the *next* configuration cycle.
    pub fn raise(&mut self, e: EventId) {
        // The pending set stays ascending and duplicate-free.
        if let Err(at) = self.pending.binary_search(&e) {
            self.pending.insert(at, e);
        }
        self.raised.push(e);
    }

    /// Assigns condition `c`, written back at the end of the cycle.
    pub fn set_condition(&mut self, c: ConditionId, value: bool) {
        self.cond_writes.push((c, value));
    }

    /// Applies effects given by name; names the chart does not declare
    /// are ignored.
    fn apply(&mut self, effects: ActionEffects) {
        for name in effects.raise {
            if let Some(e) = self.chart.event_by_name(&name) {
                self.raise(e);
            }
        }
        for (name, v) in effects.set_conditions {
            if let Some(c) = self.chart.condition_by_name(&name) {
                self.set_condition(c, v);
            }
        }
    }
}

/// Where an action call originated, for [`Executor::step_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionSite {
    /// An exit action of `state`, run because `transition` fired.
    Exit {
        /// The exited state.
        state: StateId,
        /// The transition that caused the exit.
        transition: TransitionId,
    },
    /// An action on the transition's own label.
    Transition {
        /// The firing transition.
        transition: TransitionId,
    },
    /// An entry action of `state`, run because `transition` fired.
    Entry {
        /// The entered state.
        state: StateId,
        /// The transition that caused the entry.
        transition: TransitionId,
    },
}

impl ActionSite {
    /// The transition responsible for this action.
    pub fn transition(self) -> TransitionId {
        match self {
            ActionSite::Exit { transition, .. }
            | ActionSite::Transition { transition }
            | ActionSite::Entry { transition, .. } => transition,
        }
    }
}

/// What happened during one configuration cycle. The executor keeps
/// one and refills it every step, so stepping reuses its buffers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Transitions that fired, in execution order.
    pub fired: Vec<TransitionId>,
    /// States exited this cycle.
    pub exited: Vec<StateId>,
    /// States entered this cycle.
    pub entered: Vec<StateId>,
    /// Events raised by actions (become visible next cycle).
    pub raised: Vec<EventId>,
}

/// A snapshot of an [`Executor`]'s semantic control state — everything
/// transition selection depends on. Captured by
/// [`Executor::control_state`], reinstated by
/// [`Executor::restore_control_state`]; the cycle counter is excluded
/// (it never influences behaviour).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlState {
    /// Active-state bitmap, indexed by [`StateId`] index.
    pub active: Vec<bool>,
    /// Condition values, indexed by [`ConditionId`] index.
    pub conditions: Vec<bool>,
    /// Internal events raised last cycle, sorted ascending by id.
    pub pending_internal: Vec<EventId>,
    /// Shallow-history memory per state (`None` = no memory).
    pub history: Vec<Option<StateId>>,
}

/// Per-cycle scratch buffers, reused across steps.
#[derive(Debug, Clone, Default)]
struct StepScratch {
    /// The cycle's event bitmap, indexed by [`EventId::index`].
    events: Vec<bool>,
    /// The cycle's distinct in-range events: the set bits of `events`.
    present: Vec<EventId>,
    /// Enabled transitions before conflict resolution.
    enabled: Vec<TransitionId>,
    /// Per-state claimed bitmap of the conflict check.
    claimed: Vec<bool>,
    /// The selected transitions of the cycle.
    selected: Vec<TransitionId>,
    /// Entry path from a scope down to a target.
    path: Vec<StateId>,
    /// Condition assignments of the cycle, written back at its end.
    cond_writes: Vec<(ConditionId, bool)>,
}

impl StepScratch {
    /// Selects the cycle's transitions into `selected` for the
    /// configuration `active`, the `conditions` and the cycle's
    /// `events`, which load the event bitmap. Ids beyond the chart's
    /// events match no trigger, as in a set lookup.
    fn select(
        &mut self,
        tables: &SelectionTables,
        active: &[bool],
        conditions: &[bool],
        events: impl IntoIterator<Item = EventId>,
    ) {
        self.events.clear();
        self.events.resize(tables.event_count, false);
        self.present.clear();
        for e in events {
            if let Some(bit) = self.events.get_mut(e.index()) {
                if !*bit {
                    *bit = true;
                    self.present.push(e);
                }
            }
        }
        tables.select(active, conditions, self);
    }
}

/// The reference executor.
///
/// Selection data lives in [`SelectionTables`] behind an `Arc`:
/// [`Executor::new`] builds them for its chart, and
/// [`Executor::with_tables`] takes a set built once and shared by many
/// executors over the same chart — a compiled PSCP system builds its
/// set once, and every machine over the system runs on it. The executor's
/// own state is the control state plus reusable scratch buffers, so a
/// cycle allocates nothing for selection.
///
/// # Example
///
/// ```
/// use pscp_statechart::{ChartBuilder, StateKind};
/// use pscp_statechart::semantics::{Executor, SelectionTables};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ChartBuilder::new("toggle");
/// b.event("TICK", None);
/// b.state("Top", StateKind::Or).contains(["Off", "On"]).default_child("Off");
/// b.state("Off", StateKind::Basic).transition("On", "TICK");
/// b.state("On", StateKind::Basic).transition("Off", "TICK");
/// let chart = b.build()?;
///
/// let mut exec = Executor::new(&chart);
/// let off = chart.state_by_name("Off").unwrap();
/// let on = chart.state_by_name("On").unwrap();
/// assert!(exec.configuration().is_active(off));
/// exec.step_named(["TICK"], |_| Default::default());
/// assert!(exec.configuration().is_active(on));
///
/// // Executors over one chart can share one set of tables, built once.
/// let tables = Arc::new(SelectionTables::new(&chart));
/// let lanes: Vec<Executor> =
///     (0..4).map(|_| Executor::with_tables(&chart, Arc::clone(&tables))).collect();
/// assert!(lanes.iter().all(|lane| lane.configuration().is_active(off)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Executor<'c> {
    chart: &'c Chart,
    /// Selection tables, shared by every executor over the chart.
    tables: Arc<SelectionTables>,
    config: Configuration,
    conditions: Vec<bool>,
    /// Events raised by actions during the previous cycle, ascending
    /// and duplicate-free.
    pending_internal: Vec<EventId>,
    /// Shallow-history memory: last active child of each history
    /// OR-state.
    history_memory: Vec<Option<StateId>>,
    /// The states declared `history`, ascending: the only entries of
    /// `history_memory` a step writes, and so the only ones packed.
    history_states: Vec<StateId>,
    scratch: StepScratch,
    /// The last step's report, refilled by every step.
    report: StepReport,
    cycle: u64,
}

impl<'c> Executor<'c> {
    /// Creates an executor in the default configuration with conditions
    /// at their declared reset values, building its chart's
    /// [`SelectionTables`].
    pub fn new(chart: &'c Chart) -> Self {
        Executor::with_tables(chart, Arc::new(SelectionTables::new(chart)))
    }

    /// Like [`Executor::new`], but runs on `tables` — built once by
    /// [`SelectionTables::new`] for this chart and shared — instead of
    /// building its own.
    ///
    /// # Panics
    ///
    /// Panics when `tables` were built for a chart with a different
    /// number of states, transitions or events.
    pub fn with_tables(chart: &'c Chart, tables: Arc<SelectionTables>) -> Self {
        assert!(tables.fits(chart), "selection tables built for a different chart");
        let mut exec = Executor {
            chart,
            tables,
            config: Configuration { active: vec![false; chart.state_count()] },
            conditions: Vec::new(),
            pending_internal: Vec::new(),
            history_memory: vec![None; chart.state_count()],
            history_states: chart.state_ids().filter(|&s| chart.state(s).history).collect(),
            scratch: StepScratch::default(),
            report: StepReport::default(),
            cycle: 0,
        };
        exec.reset();
        exec
    }

    /// Returns the executor to its post-construction state — default
    /// configuration, conditions at their declared reset values, no
    /// pending internal events, history memory cleared — while keeping
    /// the shared selection tables and scratch buffers. A reset executor
    /// behaves byte-identically to a freshly constructed one, and
    /// resetting allocates nothing.
    pub fn reset(&mut self) {
        let chart = self.chart;
        self.config.active.iter_mut().for_each(|a| *a = false);
        self.history_memory.iter_mut().for_each(|h| *h = None);
        let (active, entered) = (&mut self.config.active, &mut self.scratch.path);
        enter_with_defaults(chart, chart.root(), active, entered, &self.history_memory);
        entered.clear();
        self.conditions.clear();
        self.conditions.extend(chart.conditions().map(|c| c.initial));
        self.pending_internal.clear();
        self.cycle = 0;
    }

    /// Snapshots the semantic control state: active configuration,
    /// condition values, pending internal events (sorted), and history
    /// memory. The cycle counter, selection tables, scratch buffers and
    /// the last step's report are excluded — they never influence
    /// transition selection.
    pub fn control_state(&self) -> ControlState {
        ControlState {
            active: self.config.active.clone(),
            conditions: self.conditions.clone(),
            pending_internal: self.pending_internal.clone(),
            history: self.history_memory.clone(),
        }
    }

    /// Restores a [`control_state`](Executor::control_state) snapshot
    /// taken from an executor over the same chart. The cycle counter is
    /// left untouched. Pending internal events need not be sorted or
    /// unique; they are restored as a set.
    pub fn restore_control_state(&mut self, s: &ControlState) {
        self.config.active.copy_from_slice(&s.active);
        self.conditions.copy_from_slice(&s.conditions);
        self.pending_internal.clear();
        self.pending_internal.extend_from_slice(&s.pending_internal);
        self.pending_internal.sort_unstable();
        self.pending_internal.dedup();
        self.history_memory.copy_from_slice(&s.history);
    }

    /// Appends the control state packed into words, the form the
    /// explorer keys its visited table on. The layout is fixed per
    /// chart, so two states pack equal exactly when their
    /// [`control_state`](Executor::control_state)s are equal:
    ///
    /// 1. the active-state bitmap, the condition bitmap and the
    ///    pending-internal-event bitmap, 64 flags per word, low bit
    ///    first (exact for the events, which are kept ascending and
    ///    duplicate-free);
    /// 2. the shallow-history memory of each state declared `history`,
    ///    in state order, two per word: the remembered child's index
    ///    plus one, `0` for none. A step writes no other entry.
    ///
    /// The active bitmap leads, so [`Executor::packed_active`] reads a
    /// state's activity from the words alone.
    pub fn pack_control(&self, out: &mut Vec<u64>) {
        pack_flags(&self.config.active, out);
        pack_flags(&self.conditions, out);
        let start = out.len();
        out.resize(start + self.tables.event_count.div_ceil(64), 0);
        for e in &self.pending_internal {
            debug_assert!(e.index() < self.tables.event_count, "pending event outside the chart");
            if let Some(w) = out.get_mut(start + e.index() / 64) {
                *w |= 1 << (e.index() % 64);
            }
        }
        debug_assert!(
            self.history_memory.iter().enumerate().all(|(s, h)| h.is_none()
                || self.history_states.binary_search(&StateId::from_index(s)).is_ok()),
            "history memory kept for a state not declared `history`"
        );
        for pair in self.history_states.chunks(2) {
            let entry = |s: &StateId| {
                self.history_memory[s.index()].map_or(0, |c| c.index() as u64 + 1)
            };
            out.push(pair.iter().rev().fold(0, |w, s| w << 32 | entry(s)));
        }
    }

    /// Restores a control state packed by
    /// [`pack_control`](Executor::pack_control) on an executor over the
    /// same chart, and returns the words after its own. The cycle
    /// counter is left untouched.
    ///
    /// # Panics
    ///
    /// Panics when `words` is shorter than the chart's layout.
    pub fn unpack_control<'w>(&mut self, words: &'w [u64]) -> &'w [u64] {
        let words = unpack_flags(words, &mut self.config.active);
        let words = unpack_flags(words, &mut self.conditions);
        let (pending, words) = words.split_at(self.tables.event_count.div_ceil(64));
        self.pending_internal.clear();
        for (i, &w) in pending.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let e = 64 * i + bits.trailing_zeros() as usize;
                self.pending_internal.push(EventId::from_index(e));
                bits &= bits - 1;
            }
        }
        let (history, words) = words.split_at(self.history_states.len().div_ceil(2));
        for (pair, &w) in self.history_states.chunks(2).zip(history) {
            for (k, s) in pair.iter().enumerate() {
                let entry = (w >> (32 * k)) as u32;
                self.history_memory[s.index()] =
                    entry.checked_sub(1).map(|c| StateId::from_index(c as usize));
            }
        }
        words
    }

    /// Whether state `s` is active in words packed by
    /// [`pack_control`](Executor::pack_control) — or by anything that
    /// starts with them.
    pub fn packed_active(words: &[u64], s: StateId) -> bool {
        words[s.index() / 64] >> (s.index() % 64) & 1 != 0
    }

    /// Current configuration.
    pub fn configuration(&self) -> &Configuration {
        &self.config
    }

    /// Number of configuration cycles executed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current value of a condition.
    pub fn condition(&self, c: ConditionId) -> bool {
        self.conditions[c.index()]
    }

    /// Overrides a condition (models an external condition port).
    pub fn set_condition(&mut self, c: ConditionId, value: bool) {
        self.conditions[c.index()] = value;
    }

    /// Internal events raised by actions last cycle, still pending
    /// delivery in the next step, in ascending order.
    pub fn pending_events(&self) -> impl Iterator<Item = EventId> + '_ {
        self.pending_internal.iter().copied()
    }

    /// Computes the enabled, conflict-resolved transition set for a given
    /// event set without executing anything. This is exactly the set of
    /// addresses the SLA would emit into the Transition Address Table.
    pub fn select_transitions<'e>(
        &self,
        events: impl IntoIterator<Item = &'e EventId>,
    ) -> Vec<TransitionId> {
        let mut scratch = StepScratch::default();
        let events = events.into_iter().copied();
        scratch.select(&self.tables, &self.config.active, &self.conditions, events);
        scratch.selected
    }

    /// Runs one configuration cycle with the given external events, using
    /// `effects` to model the action routines by name.
    pub fn step<'e, F>(
        &mut self,
        external: impl IntoIterator<Item = &'e EventId>,
        mut effects: F,
    ) -> &StepReport
    where
        F: FnMut(&ActionCall) -> ActionEffects,
    {
        self.step_with(external, |_, call, sink| sink.apply(effects(call)))
    }

    /// Like [`Executor::step`], but the callback also learns *where* each
    /// action comes from — a state's exit action, the transition's own
    /// label, or a state's entry action — and which transition caused it,
    /// and reports the action's effects by id into an [`EffectSink`].
    /// The full PSCP machine uses this to execute compiled routines in
    /// exactly the reference order and attribute their cycle costs.
    ///
    /// The returned report lives in the executor and is refilled by the
    /// next step; once its buffers have grown, a step allocates nothing.
    pub fn step_with<'e, F>(
        &mut self,
        external: impl IntoIterator<Item = &'e EventId>,
        mut effects: F,
    ) -> &StepReport
    where
        F: FnMut(ActionSite, &ActionCall, &mut EffectSink<'_>),
    {
        let Executor {
            chart,
            tables,
            config,
            conditions,
            pending_internal,
            history_memory,
            scratch,
            report,
            cycle,
            ..
        } = self;
        let chart: &Chart = chart;
        let active = &mut config.active;
        let cycle_events = external.into_iter().copied().chain(pending_internal.iter().copied());
        scratch.select(tables, active, conditions, cycle_events);
        pending_internal.clear();
        let StepScratch { selected, path, cond_writes, .. } = scratch;
        let StepReport { fired, exited, entered, raised } = &mut *report;
        fired.clear();
        exited.clear();
        entered.clear();
        raised.clear();
        cond_writes.clear();
        let mut sink = EffectSink { chart, pending: pending_internal, raised, cond_writes };

        for &tid in selected.iter() {
            let t = chart.transition(tid);
            let scope = tables.scope(tid);
            let exit_start = exited.len();
            let entry_start = entered.len();

            // Exit: deactivate everything strictly inside the scope that
            // is on the active path, recording shallow-history memory.
            for &s in tables.strict_descendants(scope) {
                if active[s.index()] {
                    active[s.index()] = false;
                    if let Some(p) = chart.state(s).parent {
                        if chart.state(p).history {
                            history_memory[p.index()] = Some(s);
                        }
                    }
                    exited.push(s);
                }
            }

            // Enter: activate the path scope -> target, then default
            // completion below the target; sibling AND components entered
            // along the way get their defaults too.
            path.clear();
            let mut cur = t.target;
            while cur != scope {
                path.push(cur);
                match chart.state(cur).parent {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            path.reverse();
            // When the scope itself is an AND-state (a transition crossing
            // parallel components of the root region), its other children
            // were exited above and must be default-entered again.
            let scope_state = chart.state(scope);
            if scope_state.kind == StateKind::And {
                let first_on_path = path.first().copied();
                for &c in &scope_state.children {
                    if Some(c) != first_on_path && !active[c.index()] {
                        enter_with_defaults(chart, c, active, entered, history_memory);
                    }
                }
            }
            for (i, &s) in path.iter().enumerate() {
                if !active[s.index()] {
                    active[s.index()] = true;
                    entered.push(s);
                }
                // When entering an AND-state on the way down, its other
                // children must be default-entered as well.
                let next_on_path = path.get(i + 1).copied();
                let st = chart.state(s);
                if st.kind == StateKind::And {
                    for &c in &st.children {
                        if Some(c) != next_on_path && !active[c.index()] {
                            enter_with_defaults(chart, c, active, entered, history_memory);
                        }
                    }
                }
            }
            // Default completion below the target itself.
            if !active[t.target.index()] {
                enter_with_defaults(chart, t.target, active, entered, history_memory);
            } else {
                let st = chart.state(t.target);
                let child;
                let completion: &[StateId] = match st.kind {
                    StateKind::And => &st.children,
                    StateKind::Or => {
                        child = if st.history {
                            history_memory[t.target.index()]
                                .filter(|c| st.children.contains(c))
                                .or(st.default)
                        } else {
                            st.default
                        };
                        child.as_slice()
                    }
                    StateKind::Basic => &[],
                };
                for &c in completion {
                    if !active[c.index()] {
                        enter_with_defaults(chart, c, active, entered, history_memory);
                    }
                }
            }

            // Actions, in the conventional order: exit actions of the
            // exited states, the transition's own label actions, entry
            // actions of the entered states. (The configuration bits were
            // already flipped above, which is unobservable to actions —
            // their effects are deferred to end of cycle.)
            for &s in &exited[exit_start..] {
                for call in &chart.state(s).exit_actions {
                    effects(ActionSite::Exit { state: s, transition: tid }, call, &mut sink);
                }
            }
            for call in &t.actions {
                effects(ActionSite::Transition { transition: tid }, call, &mut sink);
            }
            for &s in &entered[entry_start..] {
                for call in &chart.state(s).entry_actions {
                    effects(ActionSite::Entry { state: s, transition: tid }, call, &mut sink);
                }
            }
            fired.push(tid);
        }

        // Condition-cache write-back at end of cycle.
        for &(c, v) in sink.cond_writes.iter() {
            conditions[c.index()] = v;
        }

        *cycle += 1;
        debug_assert!(config.is_consistent(chart), "inconsistent configuration after step");
        report
    }

    /// Runs one configuration cycle that the caller has already proven
    /// idle — no transition is enabled for `external` plus the pending
    /// internal events. The gang simulator uses this after its
    /// bit-sliced SLA pass reports no fire bit for a lane, and the PSCP
    /// machine for quiet cycles: the cycle still consumes the events
    /// (they live exactly one cycle, so the pending set clears) and
    /// advances the cycle counter, but skips transition selection
    /// entirely. Debug builds re-check the idle claim by selecting on
    /// the executor's own scratch, so they allocate nothing either.
    pub fn step_idle(&mut self, external: &[EventId]) {
        if cfg!(debug_assertions) {
            let events = external.iter().chain(&self.pending_internal).copied();
            self.scratch.select(&self.tables, &self.config.active, &self.conditions, events);
            assert!(
                self.scratch.selected.is_empty(),
                "step_idle called on a cycle with enabled transitions"
            );
        }
        self.pending_internal.clear();
        self.cycle += 1;
        debug_assert!(
            self.config.is_consistent(self.chart),
            "inconsistent configuration after idle step"
        );
    }

    /// Convenience wrapper: step with events given by name.
    pub fn step_named<I, S, F>(&mut self, events: I, effects: F) -> &StepReport
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
        F: FnMut(&ActionCall) -> ActionEffects,
    {
        let set: BTreeSet<EventId> = events
            .into_iter()
            .filter_map(|n| self.chart.event_by_name(n.as_ref()))
            .collect();
        self.step(&set, effects)
    }
}

/// Appends `flags` packed 64 per word, low bit first.
fn pack_flags(flags: &[bool], out: &mut Vec<u64>) {
    out.extend(flags.chunks(64).map(|c| c.iter().rev().fold(0, |w, &f| w << 1 | u64::from(f))));
}

/// Reads `flags` back from the words [`pack_flags`] wrote at the front
/// of `words`, and returns the words after them.
fn unpack_flags<'w>(words: &'w [u64], flags: &mut [bool]) -> &'w [u64] {
    let (packed, rest) = words.split_at(flags.len().div_ceil(64));
    for (chunk, &w) in flags.chunks_mut(64).zip(packed) {
        for (i, f) in chunk.iter_mut().enumerate() {
            *f = w >> i & 1 != 0;
        }
    }
    rest
}

/// Activates `s` and recursively its default completion. Shallow-history
/// OR-states re-enter their remembered child instead of the default.
fn enter_with_defaults(
    chart: &Chart,
    s: StateId,
    active: &mut [bool],
    entered: &mut Vec<StateId>,
    history: &[Option<StateId>],
) {
    if !active[s.index()] {
        active[s.index()] = true;
        entered.push(s);
    }
    let st = chart.state(s);
    match st.kind {
        StateKind::Or => {
            let child = if st.history {
                history[s.index()]
                    .filter(|c| st.children.contains(c))
                    .or(st.default)
            } else {
                st.default
            };
            if let Some(d) = child {
                enter_with_defaults(chart, d, active, entered, history);
            }
        }
        StateKind::And => {
            for &c in &st.children {
                enter_with_defaults(chart, c, active, entered, history);
            }
        }
        StateKind::Basic => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChartBuilder;
    use crate::model::StateKind;

    fn no_effects(_: &ActionCall) -> ActionEffects {
        ActionEffects::default()
    }

    fn motorish() -> Chart {
        // A small AND-chart in the spirit of Fig. 5: two motors running
        // in parallel, each waiting for its own pulse event.
        let mut b = ChartBuilder::new("motors");
        b.event("X_PULSE", Some(300));
        b.event("Y_PULSE", Some(300));
        b.event("GO", None);
        b.event("STOP_ALL", None);
        b.condition("MOVING", false);
        b.state("Top", StateKind::Or).contains(["Idle", "Move"]).default_child("Idle");
        b.state("Idle", StateKind::Basic).transition("Move", "GO/StartMotor(MX)");
        b.state("Move", StateKind::And).contains(["MX", "MY"]);
        {
            b.state("MX", StateKind::Or).contains(["RunX"]).default_child("RunX");
        }
        b.state("RunX", StateKind::Basic).transition("RunX", "X_PULSE/DeltaT(MX)");
        b.state("MY", StateKind::Or).contains(["RunY"]).default_child("RunY");
        b.state("RunY", StateKind::Basic).transition("RunY", "Y_PULSE/DeltaT(MY)");
        b.build().unwrap()
    }

    /// A chart with every scope shape: an AND root crossed by a
    /// transition, a composite source preempting its leaves, a
    /// self-loop into an ancestor, and an AND-state on an entry path.
    fn nested() -> Chart {
        let mut b = ChartBuilder::new("nested");
        b.event("E", None);
        b.event("F", None);
        b.state("Top", StateKind::And).contains(["L", "R"]);
        b.state("L", StateKind::Or)
            .contains(["Op", "Err", "Par"])
            .default_child("Op")
            .transition("Par", "F");
        b.state("Op", StateKind::Or)
            .contains(["A", "B"])
            .default_child("A")
            .transition("Err", "E");
        b.state("A", StateKind::Basic).transition("B", "E").transition("Op", "F");
        b.state("B", StateKind::Basic).transition("R2", "E");
        b.state("Err", StateKind::Basic).transition("P1", "E");
        b.state("Par", StateKind::And).contains(["P", "Q"]);
        b.state("P", StateKind::Or).contains(["P1", "P2"]).default_child("P1");
        b.basic("P1");
        b.basic("P2");
        b.state("Q", StateKind::Or).contains(["Q1"]).default_child("Q1");
        b.basic("Q1");
        b.state("R", StateKind::Or).contains(["R1", "R2"]).default_child("R1");
        b.state("R1", StateKind::Basic).transition("R2", "E");
        b.basic("R2");
        b.build().unwrap()
    }

    #[test]
    fn restore_normalises_pending_internal_events() {
        let c = motorish();
        let go = c.event_by_name("GO").unwrap();
        let stop = c.event_by_name("STOP_ALL").unwrap();
        let mut e = Executor::new(&c);
        let mut snap = e.control_state();
        snap.pending_internal = vec![stop, go, stop];
        e.restore_control_state(&snap);
        snap.pending_internal = vec![go, stop];
        assert_eq!(e.control_state(), snap);
    }

    #[test]
    fn packed_control_restores_exactly() {
        let mut b = ChartBuilder::new("resume");
        b.event("GO", None);
        b.event("NEXT", None);
        b.internal_event("DONE");
        b.condition("C", true);
        b.state("Top", StateKind::Or).contains(["Off", "Mode"]).default_child("Off");
        b.state("Off", StateKind::Basic).transition("Mode", "GO");
        b.state("Mode", StateKind::Or)
            .contains(["M1", "M2"])
            .default_child("M1")
            .history()
            .transition("Off", "GO/Note()");
        b.state("M1", StateKind::Basic).transition("M2", "NEXT");
        b.basic("M2");
        let c = b.build().unwrap();
        let (done, m2) = (c.event_by_name("DONE").unwrap(), c.state_by_name("M2").unwrap());
        let mut e = Executor::new(&c);
        let mut other = Executor::new(&c);
        let raise_done =
            |_: &ActionCall| ActionEffects { raise: vec!["DONE".into()], ..Default::default() };
        for step in [&["GO"][..], &["NEXT"], &["GO"]] {
            e.step_named(step, raise_done);
        }
        let state = e.control_state();
        assert_eq!(state.history[c.state_by_name("Mode").unwrap().index()], Some(m2));
        assert_eq!(state.pending_internal, vec![done]);
        let mut words = Vec::new();
        e.pack_control(&mut words);
        words.push(7);
        assert_eq!(other.unpack_control(&words), &[7]);
        assert_eq!(other.control_state(), state);
        for s in c.state_ids() {
            assert_eq!(Executor::packed_active(&words, s), state.active[s.index()]);
        }
    }

    /// The place `tid` sits in `tables`: its key event's list, or
    /// `None` for the unkeyed list. Panics unless it sits in exactly
    /// one place.
    fn key_of(c: &Chart, tables: &SelectionTables, tid: TransitionId) -> Option<EventId> {
        let mut places: Vec<Option<EventId>> =
            c.event_ids().filter(|&e| tables.keyed(e).contains(&tid)).map(Some).collect();
        places.extend(tables.unkeyed.iter().filter(|&&t| t == tid).map(|_| None));
        assert_eq!(places.len(), 1, "T{} sits in {places:?}", tid.index());
        places[0]
    }

    /// Checks that every transition sits in exactly one place and that
    /// a keyed transition's trigger ∧ guard, evaluated by name on the
    /// chart's own expressions, is false on every event/condition
    /// assignment that lacks its key.
    fn check_keys(c: &Chart) {
        let tables = SelectionTables::new(c);
        assert_eq!(tables.keyed.len() + tables.unkeyed.len(), c.transition_count());
        let (n_events, n_conds) = (c.event_ids().len(), c.condition_ids().len());
        for tid in c.transition_ids() {
            let Some(key) = key_of(c, &tables, tid) else { continue };
            let t = c.transition(tid);
            for bits in 0u32..1 << (n_events + n_conds) {
                if bits >> key.index() & 1 == 1 {
                    continue;
                }
                let truth = |a: &str| match (c.event_by_name(a), c.condition_by_name(a)) {
                    (Some(e), _) => bits >> e.index() & 1 == 1,
                    (None, Some(k)) => bits >> (n_events + k.index()) & 1 == 1,
                    (None, None) => false,
                };
                let holds = |x: &Option<Expr>| x.as_ref().is_none_or(|x| x.eval(truth));
                assert!(
                    !(holds(&t.trigger) && holds(&t.guard)),
                    "T{} keyed under {} holds without it (assignment {bits:#b})",
                    tid.index(),
                    c.event(key).name
                );
            }
        }
    }

    #[test]
    fn tables_agree_with_chart_queries() {
        for c in [motorish(), nested()] {
            let tables = SelectionTables::new(&c);
            for tid in c.transition_ids() {
                let t = c.transition(tid);
                assert_eq!(tables.scope(tid), c.transition_scope(t.source, t.target));
            }
            for s in c.state_ids() {
                assert_eq!(tables.strict_descendants(s), &c.descendants_inclusive(s)[1..]);
            }
            check_keys(&c);
        }
    }

    #[test]
    fn event_keys_follow_the_top_level_conjunction() {
        let shapes = [
            ("Ea", Some("Ea")),
            ("not Ea", None),
            ("Ea and Eb", Some("Ea")),
            ("Cc and Eb", Some("Eb")),
            ("Ea or Eb", None),
            ("not (Ea or Eb)", None),
            ("Ea [Cc]", Some("Ea")),
            ("[Ea]", Some("Ea")),
            ("not Ea [Eb and Cc]", Some("Eb")),
            ("[Cc]", None),
            ("", None),
        ];
        let mut b = ChartBuilder::new("shapes");
        b.event("Ea", None);
        b.event("Eb", None);
        b.condition("Cc", true);
        b.state("Top", StateKind::Or).contains(["S", "T"]).default_child("S");
        {
            let mut s = b.state("S", StateKind::Basic);
            for (label, _) in shapes {
                s.transition("T", label);
            }
        }
        b.basic("T");
        let c = b.build().unwrap();
        let tables = SelectionTables::new(&c);
        for ((label, key), tid) in shapes.into_iter().zip(c.transition_ids()) {
            let found = key_of(&c, &tables, tid).map(|e| c.event(e).name.as_str());
            assert_eq!(found, key, "key of `{label}`");
        }
        check_keys(&c);

        // Keyed and unkeyed shapes alike are enabled exactly when their
        // label holds: `Cc` is set and only `Eb` is present (twice).
        let e = Executor::new(&c);
        let eb = c.event_by_name("Eb").unwrap();
        let mut scratch = StepScratch::default();
        scratch.select(&e.tables, &e.config.active, &e.conditions, [eb, eb]);
        assert_eq!(scratch.present, [eb], "a repeated event is present once");
        let mut enabled: Vec<&str> =
            scratch.enabled.iter().map(|&t| shapes[t.index()].0).collect();
        enabled.sort_unstable();
        assert_eq!(enabled, ["", "Cc and Eb", "Ea or Eb", "[Cc]", "not Ea", "not Ea [Eb and Cc]"]);
    }

    #[test]
    fn event_keys_cover_every_rotor_transition() {
        // A small rotor chart in the gang chart's shape: each region
        // rotates on its own event and on probe events shared across
        // regions. Every transition is keyed, so a cycle without
        // events evaluates nothing.
        let (regions, states, probes) = (3, 4, 2);
        let mut b = ChartBuilder::new("rotor");
        for r in 0..regions {
            b.event(format!("E{r}"), None);
        }
        for p in 0..probes {
            b.event(format!("P{p}"), None);
        }
        let names: Vec<String> = (0..regions).map(|r| format!("R{r}")).collect();
        b.state("Run", StateKind::And).contains(names.iter().map(String::as_str));
        for (r, region) in names.iter().enumerate() {
            let ring: Vec<String> = (0..states).map(|s| format!("R{r}S{s}")).collect();
            b.state(region, StateKind::Or)
                .contains(ring.iter().map(String::as_str))
                .default_child(&ring[0]);
            for s in 0..states {
                let next = &ring[(s + 1) % states];
                b.state(&ring[s], StateKind::Basic)
                    .transition(next, &format!("E{r}"))
                    .transition(next, &format!("P{}", (r + s) % probes));
            }
        }
        let c = b.build().unwrap();
        let tables = SelectionTables::new(&c);
        assert!(tables.unkeyed.is_empty());
        check_keys(&c);
        for r in 0..regions {
            let e = c.event_by_name(&format!("E{r}")).unwrap();
            assert_eq!(tables.keyed(e).len(), states);
        }
        for p in 0..probes {
            let e = c.event_by_name(&format!("P{p}")).unwrap();
            assert_eq!(tables.keyed(e).len(), regions * states / probes);
        }

        let mut e = Executor::new(&c);
        let mut scratch = StepScratch::default();
        scratch.select(&e.tables, &e.config.active, &e.conditions, []);
        assert!(scratch.enabled.is_empty() && scratch.selected.is_empty());
        // A probe moves the regions whose active state it keys.
        let p0 = c.event_by_name("P0").unwrap();
        let fired = e.step(&[p0], no_effects).fired.len();
        assert_eq!(fired, (0..regions).filter(|r| r % probes == 0).count());
    }

    #[test]
    fn outer_scope_claims_nested_exits() {
        // E enables Op->Err (scope L), A->B (scope Op) and R1->R2 (scope
        // R): the outer one preempts the inner, the orthogonal one fires.
        let c = nested();
        let mut e = Executor::new(&c);
        let name = |t: TransitionId| {
            let t = c.transition(t);
            (c.state(t.source).name.as_str(), c.state(t.target).name.as_str())
        };
        let r = e.step_named(["E"], no_effects);
        let fired: Vec<_> = r.fired.iter().map(|&t| name(t)).collect();
        assert_eq!(fired, [("Op", "Err"), ("R1", "R2")]);
        // Err->P1 enters the AND-state Par on the way down; its other
        // component is default-entered before the path continues.
        let r = e.step_named(["E"], no_effects);
        let entered: Vec<&str> = r.entered.iter().map(|&s| c.state(s).name.as_str()).collect();
        assert_eq!(entered, ["Par", "Q", "Q1", "P", "P1"]);
        assert!(e.configuration().is_consistent(&c));
    }

    #[test]
    fn shared_tables_step_identically() {
        let c = nested();
        let mut own = Executor::new(&c);
        let mut shared = Executor::with_tables(&c, Arc::new(SelectionTables::new(&c)));
        let mut seed = 0x5eed_u64;
        for _ in 0..200 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let evs: Vec<&str> =
                ["E", "F"].into_iter().enumerate().filter(|(i, _)| seed >> (40 + i) & 1 == 1).map(|(_, n)| n).collect();
            assert_eq!(own.step_named(&evs, no_effects), shared.step_named(&evs, no_effects));
        }
    }

    #[test]
    #[should_panic(expected = "different chart")]
    fn foreign_tables_are_rejected() {
        let tables = Arc::new(SelectionTables::new(&motorish()));
        let _ = Executor::with_tables(&nested(), tables);
    }

    #[test]
    fn initial_configuration_is_default_completion() {
        let c = motorish();
        let e = Executor::new(&c);
        assert!(e.configuration().is_consistent(&c));
        assert!(e.configuration().is_active(c.state_by_name("Idle").unwrap()));
        assert!(!e.configuration().is_active(c.state_by_name("Move").unwrap()));
    }

    #[test]
    fn entering_and_state_enters_all_components() {
        let c = motorish();
        let mut e = Executor::new(&c);
        e.step_named(["GO"], no_effects);
        for n in ["Move", "MX", "MY", "RunX", "RunY"] {
            assert!(
                e.configuration().is_active(c.state_by_name(n).unwrap()),
                "{n} should be active"
            );
        }
        assert!(!e.configuration().is_active(c.state_by_name("Idle").unwrap()));
    }

    #[test]
    fn parallel_transitions_fire_in_same_cycle() {
        let c = motorish();
        let mut e = Executor::new(&c);
        e.step_named(["GO"], no_effects);
        let mut calls = 0;
        let r = e.step_named(["X_PULSE", "Y_PULSE"], |_| {
            calls += 1;
            ActionEffects::default()
        });
        assert_eq!(r.fired.len(), 2, "both orthogonal self-loops fire");
        assert_eq!(calls, 2);
    }

    #[test]
    fn events_live_one_cycle() {
        let c = motorish();
        let mut e = Executor::new(&c);
        let r = e.step_named(["X_PULSE"], no_effects); // not in Move yet
        assert!(r.fired.is_empty());
        e.step_named(["GO"], no_effects);
        // The earlier X_PULSE is long gone.
        let r = e.step_named(Vec::<&str>::new(), no_effects);
        assert!(r.fired.is_empty());
    }

    #[test]
    fn raised_events_visible_next_cycle() {
        let mut b = ChartBuilder::new("relay");
        b.event("A", None);
        b.internal_event("B");
        b.state("S1", StateKind::Basic).transition("S2", "A/Raise()");
        b.state("S2", StateKind::Basic).transition("S3", "B");
        b.basic("S3");
        let c = b.build().unwrap();
        let mut e = Executor::new(&c);
        let raise = |call: &ActionCall| {
            if call.function == "Raise" {
                ActionEffects { raise: vec!["B".into()], ..Default::default() }
            } else {
                ActionEffects::default()
            }
        };
        e.step_named(["A"], raise);
        assert!(e.configuration().is_active(c.state_by_name("S2").unwrap()));
        // B was raised, fires now without external input.
        e.step_named(Vec::<&str>::new(), raise);
        assert!(e.configuration().is_active(c.state_by_name("S3").unwrap()));
    }

    #[test]
    fn outer_transition_preempts_inner() {
        // Like ERROR/Stop() on Operation in Fig. 6.
        let mut b = ChartBuilder::new("preempt");
        b.event("E", None);
        b.state("Top", StateKind::Or).contains(["Op", "Err"]).default_child("Op");
        b.state("Op", StateKind::Or).contains(["A", "B"]).default_child("A");
        {
            let mut s = b.state("A", StateKind::Basic);
            s.transition("B", "E");
        }
        b.basic("B");
        b.basic("Err");
        // Outer transition on the composite Op, same trigger.
        // Note: declared after the inner one, but outer priority wins.
        {
            // Need to re-open Op: builder keeps pending list, so add via a
            // second scope on a fresh builder instead.
        }
        let mut b2 = ChartBuilder::new("preempt");
        b2.event("E", None);
        b2.state("Top", StateKind::Or).contains(["Op", "Err"]).default_child("Op");
        b2.state("Op", StateKind::Or)
            .contains(["A", "B"])
            .default_child("A")
            .transition("Err", "E");
        b2.state("A", StateKind::Basic).transition("B", "E");
        b2.basic("B");
        b2.basic("Err");
        let c = b2.build().unwrap();
        let mut e = Executor::new(&c);
        let r = e.step_named(["E"], no_effects);
        assert_eq!(r.fired.len(), 1);
        assert!(e.configuration().is_active(c.state_by_name("Err").unwrap()));
        assert!(!e.configuration().is_active(c.state_by_name("B").unwrap()));
    }

    #[test]
    fn guard_blocks_until_condition_set() {
        let mut b = ChartBuilder::new("guard");
        b.event("E", None);
        b.condition("OK", false);
        b.state("A", StateKind::Basic).transition("B", "E [OK]");
        b.basic("B");
        let c = b.build().unwrap();
        let mut e = Executor::new(&c);
        e.step_named(["E"], no_effects);
        assert!(e.configuration().is_active(c.state_by_name("A").unwrap()));
        e.set_condition(c.condition_by_name("OK").unwrap(), true);
        e.step_named(["E"], no_effects);
        assert!(e.configuration().is_active(c.state_by_name("B").unwrap()));
    }

    #[test]
    fn condition_writes_apply_at_cycle_end() {
        // Two transitions in the same cycle: one sets a condition the
        // other one's guard tests. Write-back semantics mean the guard
        // still sees the old value this cycle.
        let mut b = ChartBuilder::new("wb");
        b.event("E", None);
        b.condition("C", false);
        b.state("P", StateKind::And).contains(["L", "R"]);
        b.state("L", StateKind::Or).contains(["L1", "L2"]).default_child("L1");
        b.state("L1", StateKind::Basic).transition("L2", "E/SetC()");
        b.basic("L2");
        b.state("R", StateKind::Or).contains(["R1", "R2"]).default_child("R1");
        b.state("R1", StateKind::Basic).transition("R2", "E [C]");
        b.basic("R2");
        let c = b.build().unwrap();
        let mut e = Executor::new(&c);
        let set_c = |call: &ActionCall| {
            if call.function == "SetC" {
                ActionEffects { set_conditions: vec![("C".into(), true)], ..Default::default() }
            } else {
                ActionEffects::default()
            }
        };
        let r = e.step_named(["E"], set_c);
        assert_eq!(r.fired.len(), 1, "guarded transition must not see the in-cycle write");
        assert!(e.configuration().is_active(c.state_by_name("R1").unwrap()));
        // Next cycle the condition is visible.
        e.step_named(["E"], set_c);
        assert!(e.configuration().is_active(c.state_by_name("R2").unwrap()));
    }

    #[test]
    fn triggerless_transition_fires_immediately() {
        // Fig. 5 XStart2 --/StartMotor()--> RunX is a completion
        // transition with actions only.
        let mut b = ChartBuilder::new("compl");
        b.event("GO", None);
        b.state("Top", StateKind::Or).contains(["Idle", "Start", "Run"]).default_child("Idle");
        b.state("Idle", StateKind::Basic).transition("Start", "GO");
        b.state("Start", StateKind::Basic).transition("Run", "/StartMotor(MX, XParams)");
        b.basic("Run");
        let c = b.build().unwrap();
        let mut e = Executor::new(&c);
        e.step_named(["GO"], no_effects);
        assert!(e.configuration().is_active(c.state_by_name("Start").unwrap()));
        let mut calls = 0;
        e.step_named(Vec::<&str>::new(), |_| {
            calls += 1;
            ActionEffects::default()
        });
        assert_eq!(calls, 1);
        assert!(e.configuration().is_active(c.state_by_name("Run").unwrap()));
    }

    #[test]
    fn reset_matches_fresh_executor() {
        let c = motorish();
        let all: Vec<String> = c.events().map(|ev| ev.name.clone()).collect();
        let walk = |e: &mut Executor| {
            let mut seed = 0xdeadbeefu64;
            let mut trace = Vec::new();
            for _ in 0..100 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mask = seed >> 32;
                let evs: Vec<&str> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, n)| n.as_str())
                    .collect();
                let r = e.step_named(evs, no_effects);
                trace.push((r.fired.clone(), r.entered.clone(), r.exited.clone()));
            }
            trace
        };
        let mut fresh = Executor::new(&c);
        let reference = walk(&mut fresh);
        // A dirtied then reset executor replays the identical trace.
        let mut reused = Executor::new(&c);
        walk(&mut reused);
        reused.reset();
        assert_eq!(reused.cycle(), 0);
        assert_eq!(walk(&mut reused), reference);
        assert!(reused.configuration().is_consistent(&c));
    }

    #[test]
    fn configuration_stays_consistent_under_random_events() {
        let c = motorish();
        let mut e = Executor::new(&c);
        let all: Vec<String> = c.events().map(|ev| ev.name.clone()).collect();
        // Deterministic pseudo-random walk.
        let mut seed = 0x9e3779b9u64;
        for _ in 0..500 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mask = seed >> 32;
            let evs: Vec<&str> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, n)| n.as_str())
                .collect();
            e.step_named(evs, no_effects);
            assert!(e.configuration().is_consistent(&c));
        }
    }
}
