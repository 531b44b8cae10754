//! The extended-statechart data model.
//!
//! A [`Chart`] owns arenas of [`State`]s and [`Transition`]s plus the
//! declarations of [`EventDecl`]s, [`ConditionDecl`]s and
//! [`DataPortDecl`]s. States reference each other through copyable index
//! handles ([`StateId`]); this keeps the whole chart `Clone + Send` and
//! makes graph algorithms cheap.

use crate::trigger::Expr;
use std::fmt;

/// Handle to a [`State`] inside its owning [`Chart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Index into [`Chart::states`] iteration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a handle from a raw index (for deserialised data).
    pub fn from_index(i: usize) -> Self {
        StateId(i as u32)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Handle to a [`Transition`] inside its owning [`Chart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(pub(crate) u32);

impl TransitionId {
    /// Index into [`Chart::transitions`] iteration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a handle from a raw index.
    pub fn from_index(i: usize) -> Self {
        TransitionId(i as u32)
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Handle to an [`EventDecl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u32);

impl EventId {
    /// Index into [`Chart::events`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a handle from a raw index.
    pub fn from_index(i: usize) -> Self {
        EventId(i as u32)
    }
}

/// Handle to a [`ConditionDecl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConditionId(pub(crate) u32);

impl ConditionId {
    /// Index into [`Chart::conditions`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a handle from a raw index.
    pub fn from_index(i: usize) -> Self {
        ConditionId(i as u32)
    }
}

/// The three flavours of a state in a statechart hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// A leaf state with no substructure.
    Basic,
    /// Exclusive-or decomposition: exactly one child is active at a time.
    Or,
    /// Parallel (orthogonal) decomposition: all children are active together.
    And,
}

impl fmt::Display for StateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateKind::Basic => write!(f, "basicstate"),
            StateKind::Or => write!(f, "orstate"),
            StateKind::And => write!(f, "andstate"),
        }
    }
}

/// A state node in the chart hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    /// Unique state name.
    pub name: String,
    /// Basic / OR / AND.
    pub kind: StateKind,
    /// Containing state, `None` only for the root.
    pub parent: Option<StateId>,
    /// Child states, in declaration order.
    pub children: Vec<StateId>,
    /// For OR-states: the default (initial) child.
    pub default: Option<StateId>,
    /// For OR-states: shallow-history entry. When the region is
    /// re-entered by default completion, the most recently active child
    /// is entered instead of the default. In the exclusivity-set CR
    /// encoding this is free hardware: the region's field simply keeps
    /// its last value while inactive.
    pub history: bool,
    /// Marks an off-page connector (`@Name` in the figures): the state is a
    /// reference stitched in from another diagram page. Purely descriptive.
    pub is_reference: bool,
    /// Routines executed every time the state is entered (Statemate-style
    /// static reactions; run after the transition's own actions).
    pub entry_actions: Vec<ActionCall>,
    /// Routines executed every time the state is exited (run before the
    /// transition's own actions).
    pub exit_actions: Vec<ActionCall>,
}

/// Direction of an external port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// Into the chart.
    Input,
    /// Out of the chart.
    Output,
    /// Both directions.
    Bidirectional,
}

impl fmt::Display for PortDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortDirection::Input => write!(f, "in"),
            PortDirection::Output => write!(f, "out"),
            PortDirection::Bidirectional => write!(f, "bidir"),
        }
    }
}

/// Declaration of an event, with the PSCP extensions: bit width, the
/// external port delivering it, and the arrival-period timing constraint
/// (Table 2 of the paper) expressed in reference-clock cycles.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EventDecl {
    /// Unique event name.
    pub name: String,
    /// Width in bits (events are usually single-bit pulses).
    pub width: u8,
    /// Name of the external port delivering the event, if any.
    pub port: Option<String>,
    /// Arrival period in reference-clock cycles: the event recurs at most
    /// this often and must be consumed within one period.
    pub period: Option<u64>,
    /// True when the event can only be raised internally (by an action).
    pub internal: bool,
}

/// Declaration of a condition (a persistent boolean, unlike the
/// single-cycle events).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConditionDecl {
    /// Unique condition name.
    pub name: String,
    /// Width in bits (conditions may be small enumerations).
    pub width: u8,
    /// Name of the external port carrying the condition, if any.
    pub port: Option<String>,
    /// Initial value at reset.
    pub initial: bool,
}

/// Declaration of an external data port (Fig. 2b `Port` records).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataPortDecl {
    /// Unique port name.
    pub name: String,
    /// Word width in bits.
    pub width: u8,
    /// Port address in the generated port architecture.
    pub address: u16,
    /// Transfer direction.
    pub direction: PortDirection,
}

/// A single action invocation on a transition label (`DeltaT(MX)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActionCall {
    /// Routine name, resolved against the action-language program.
    pub function: String,
    /// Textual arguments, passed through to the action compiler.
    pub args: Vec<String>,
}

impl fmt::Display for ActionCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.function, self.args.join(", "))
    }
}

/// A transition between two states.
///
/// The label follows the statechart convention
/// `trigger [guard] / action1(), action2()`: the *trigger* is a boolean
/// expression over events, the *guard* a boolean expression over
/// conditions, and the *actions* are calls into transition routines
/// written in the extended-C action language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Source state.
    pub source: StateId,
    /// Target state.
    pub target: StateId,
    /// Event expression enabling the transition; `None` means the
    /// transition is triggered by guard alone (evaluated every cycle).
    pub trigger: Option<Expr>,
    /// Condition expression gating the transition.
    pub guard: Option<Expr>,
    /// Action routines executed when the transition fires.
    pub actions: Vec<ActionCall>,
    /// Explicit execution-time annotation in cycles, used by the timing
    /// validator when no compiled routine is available ("otherwise explicit
    /// timing constraints must be specified", §4).
    pub explicit_cost: Option<u64>,
}

/// An extended statechart: the complete specification unit the PSCP flow
/// consumes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Chart {
    pub(crate) name: String,
    pub(crate) states: Vec<State>,
    pub(crate) transitions: Vec<Transition>,
    pub(crate) events: Vec<EventDecl>,
    pub(crate) conditions: Vec<ConditionDecl>,
    pub(crate) data_ports: Vec<DataPortDecl>,
    pub(crate) root: StateId,
}

impl Chart {
    /// Chart name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unique root state.
    pub fn root(&self) -> StateId {
        self.root
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Accesses a state by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this chart.
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.index()]
    }

    /// Accesses a transition by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this chart.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.index()]
    }

    /// Accesses an event declaration by handle.
    pub fn event(&self, id: EventId) -> &EventDecl {
        &self.events[id.index()]
    }

    /// Accesses a condition declaration by handle.
    pub fn condition(&self, id: ConditionId) -> &ConditionDecl {
        &self.conditions[id.index()]
    }

    /// Iterates over state handles in arena order.
    pub fn state_ids(&self) -> impl ExactSizeIterator<Item = StateId> + '_ {
        (0..self.states.len() as u32).map(StateId)
    }

    /// Iterates over states in arena order.
    pub fn states(&self) -> impl ExactSizeIterator<Item = &State> + '_ {
        self.states.iter()
    }

    /// Iterates over transition handles in arena order.
    pub fn transition_ids(&self) -> impl ExactSizeIterator<Item = TransitionId> + '_ {
        (0..self.transitions.len() as u32).map(TransitionId)
    }

    /// Iterates over transitions in arena order.
    pub fn transitions(&self) -> impl ExactSizeIterator<Item = &Transition> + '_ {
        self.transitions.iter()
    }

    /// Iterates over event handles.
    pub fn event_ids(&self) -> impl ExactSizeIterator<Item = EventId> + '_ {
        (0..self.events.len() as u32).map(EventId)
    }

    /// Iterates over event declarations.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &EventDecl> + '_ {
        self.events.iter()
    }

    /// Iterates over condition handles.
    pub fn condition_ids(&self) -> impl ExactSizeIterator<Item = ConditionId> + '_ {
        (0..self.conditions.len() as u32).map(ConditionId)
    }

    /// Iterates over condition declarations.
    pub fn conditions(&self) -> impl ExactSizeIterator<Item = &ConditionDecl> + '_ {
        self.conditions.iter()
    }

    /// Iterates over data-port declarations.
    pub fn data_ports(&self) -> impl ExactSizeIterator<Item = &DataPortDecl> + '_ {
        self.data_ports.iter()
    }

    /// Resolves a state name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|s| s.name == name).map(|i| StateId(i as u32))
    }

    /// Resolves an event name.
    pub fn event_by_name(&self, name: &str) -> Option<EventId> {
        self.events.iter().position(|e| e.name == name).map(|i| EventId(i as u32))
    }

    /// Resolves a condition name.
    pub fn condition_by_name(&self, name: &str) -> Option<ConditionId> {
        self.conditions.iter().position(|c| c.name == name).map(|i| ConditionId(i as u32))
    }

    /// Outgoing transitions of a state, in declaration order.
    pub fn outgoing(&self, s: StateId) -> impl Iterator<Item = TransitionId> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.source == s)
            .map(|(i, _)| TransitionId(i as u32))
    }

    /// Incoming transitions of a state, in declaration order.
    pub fn incoming(&self, s: StateId) -> impl Iterator<Item = TransitionId> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.target == s)
            .map(|(i, _)| TransitionId(i as u32))
    }
}
