//! The full-system PSCP simulator.
//!
//! Implements the execution model of §3.1: "The execution of the PSCP is
//! controlled by the scheduler, which enables the SLA at the beginning
//! of a configuration cycle. The SLA generates the addresses of the
//! transitions to be executed … The scheduler copies the contents of the
//! condition part of the CR into the local condition caches, and assigns
//! the execution of the individual transitions to the available TEPs
//! employing a round-robin protocol. … At the end of a transition
//! execution, the scheduler copies the condition cache back to the CR.
//! … The TEPs may generate new events in the CR … The scheduler then
//! enables the SLA to begin the next configuration cycle, at which time
//! the new external events are sampled into the CR."
//!
//! Functional state is kept in one canonical image (the chart executor
//! for control state, one TEP memory image for data — main memory is
//! shared between TEPs in Fig. 1); *timing* models the parallel TEPs:
//! the configuration-cycle length is the makespan of the round-robin
//! assignment of the fired transitions' measured execution times onto
//! `n_teps` processors, with mutually-exclusive routines forced onto the
//! same TEP (the "additional decode logic" of §4). That dealing rule is
//! one function, `schedule`, which the cycle calls and which unit tests
//! pin.
//!
//! A machine keeps one [`CycleReport`] ([`PscpMachine::report`]), which
//! every completed cycle leaves describing itself: a sampled or injected
//! cycle refills its lists in place. [`PscpMachine::step`] returns a
//! copy; the pool's scenario loop and the explorer read it in place.
//! Most co-simulation cycles are quiet: nothing was sampled or pending,
//! nothing fired, and the environment grants an empty sample
//! ([`Environment::quiet_sample`]). Such a cycle completes in place: it
//! advances the clock, timers, statistics, counters and VCD probe
//! exactly as an idle sampled cycle does, but leaves the report alone,
//! which the cycle before, having fired nothing, left [`IDLE_REPORT`].
//!
//! A sampled cycle takes its external events as ids
//! ([`Environment::sample_event_ids`]). The default resolves the names
//! of [`Environment::sample_events`] through the system's name table;
//! [`ScriptedEnvironment`] keeps its script interned, resolves each
//! distinct name once per table, and hands each row over without
//! allocating, its string method serving as the oracle.

use crate::compile::{ArgSpec, CompiledSystem};
use pscp_action_lang::interp::Host;
use pscp_obs::vcd::{SignalId, VcdWriter};
use pscp_statechart::semantics::{ActionSite, EffectSink, Executor, SelectionTables};
use pscp_statechart::{ConditionId, EventId, StateId, TransitionId};
use pscp_tep::machine::{TepError, TepMachine};
use pscp_tep::TepDataState;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Scheduler overhead constants, in clock cycles.
pub mod overhead {
    /// SLA evaluation + CR latch at the start of a configuration cycle.
    pub const SLA: u64 = 2;
    /// Per-transition dispatch: address pickup, condition-cache copy-in,
    /// trigger signal.
    pub const DISPATCH: u64 = 4;
    /// Condition-cache write-back at the end of a transition.
    pub const WRITEBACK: u64 = 2;
    /// An idle configuration cycle (no transitions fired).
    pub const IDLE: u64 = 2;
}

/// The plant / test-bench side of a co-simulation.
pub trait Environment {
    /// External events arriving for the configuration cycle starting at
    /// absolute cycle `now`, by name.
    fn sample_events(&mut self, now: u64) -> Vec<String>;

    /// Appends to `out` the ids of the external events arriving for the
    /// configuration cycle starting at `now`: the names
    /// [`sample_events`](Self::sample_events) returns, resolved by
    /// `tables`' event names, in order; names the chart does not
    /// declare are dropped. The machine samples events through this
    /// method.
    ///
    /// The default resolves `sample_events` by name. An environment
    /// that holds its events interned overrides it to sample without
    /// allocating; it must append what the default appends and leave
    /// itself as `sample_events` would, which makes `sample_events` the
    /// oracle of the override. One environment may be sampled against
    /// several systems' tables.
    fn sample_event_ids(
        &mut self,
        now: u64,
        tables: &Arc<SelectionTables>,
        out: &mut Vec<EventId>,
    ) {
        let names = tables.event_names();
        out.extend(self.sample_events(now).iter().filter_map(|name| names.get(name)));
    }

    /// External condition-port values, by name (applied before the SLA
    /// evaluates).
    fn sample_conditions(&mut self, _now: u64) -> Vec<(String, bool)> {
        Vec::new()
    }

    /// A TEP reads the data port at `address`.
    fn port_read(&mut self, _address: u16, _now: u64) -> i64 {
        0
    }

    /// A TEP writes the data port at `address`.
    fn port_write(&mut self, _address: u16, _value: i64, _now: u64) {}

    /// Takes the sample for the configuration cycle starting at `now`
    /// if it is empty. Returns `true` only when
    /// [`sample_events`](Self::sample_events) and
    /// [`sample_conditions`](Self::sample_conditions) at `now` would both
    /// return nothing, and then leaves the environment exactly as that
    /// sample would have. Returns `false` otherwise, leaving the
    /// environment untouched; the machine then samples as usual.
    ///
    /// A quiet machine ([`PscpMachine::step`]) asks this before every
    /// cycle, and on `true` completes the cycle without sampling or
    /// transition selection. The default, `false`, keeps every cycle on
    /// the sampling path — the oracle the quiet path is checked
    /// against.
    fn quiet_sample(&mut self, _now: u64) -> bool {
        false
    }
}

/// An environment that never produces events.
#[derive(Debug, Clone, Default)]
pub struct NullEnvironment;

impl Environment for NullEnvironment {
    fn sample_events(&mut self, _now: u64) -> Vec<String> {
        Vec::new()
    }
}

/// An environment replaying a fixed per-cycle event script.
///
/// The script is stored interned: its distinct names once, and per row
/// the indices of the names it raises. The `i`-th sample consumes row
/// `i`; [`script`](Self::script) shows consumed rows as empty.
/// Re-running a script requires a fresh environment.
///
/// The machine samples it through
/// [`sample_event_ids`](Environment::sample_event_ids): the distinct
/// names are resolved once per name table, and each row is then handed
/// over as event ids, with no allocation, free or string compare.
/// [`sample_events`](Environment::sample_events) builds the row's names
/// instead; it is the oracle the id path is checked against.
#[derive(Debug, Clone, Default)]
pub struct ScriptedEnvironment {
    /// The distinct event names, in order of first appearance.
    names: Vec<String>,
    /// `row_end[i]` is where row `i` ends in `row_syms`; it starts where
    /// row `i - 1` ends.
    row_end: Vec<u32>,
    /// Every row's name indices, row after row.
    row_syms: Vec<u32>,
    /// Rows sampled so far; it runs past the script's end when a run
    /// outlasts it.
    cursor: usize,
    /// `names` resolved against the last name table sampled with.
    resolved: Resolved,
    /// Recorded port writes `(address, value, cycle)`.
    pub port_writes: Vec<(u16, i64, u64)>,
}

/// A scripted environment's names resolved against one system's event
/// names.
#[derive(Clone, Default)]
struct Resolved {
    /// The tables `ids` were resolved against, `None` before the first
    /// non-empty sample. Holding the `Arc` keeps those tables alive, so
    /// a pointer-equal `Arc` is the same table, never another one at a
    /// reused address.
    tables: Option<Arc<SelectionTables>>,
    /// `ids[s]` is the event name `s` denotes in `tables`, `None` when
    /// the chart does not declare it. Sized when the script is built,
    /// so resolving again allocates nothing.
    ids: Vec<Option<EventId>>,
}

impl Resolved {
    /// The ids of `names` in `tables`, resolved when `tables` is not
    /// the table they were last resolved against.
    fn ids(&mut self, tables: &Arc<SelectionTables>, names: &[String]) -> &[Option<EventId>] {
        if !self.tables.as_ref().is_some_and(|t| Arc::ptr_eq(t, tables)) {
            let events = tables.event_names();
            for (id, name) in self.ids.iter_mut().zip(names) {
                *id = events.get(name);
            }
            self.tables = Some(Arc::clone(tables));
        }
        &self.ids
    }
}

impl fmt::Debug for Resolved {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resolved").field("ids", &self.ids).finish_non_exhaustive()
    }
}

impl ScriptedEnvironment {
    /// Creates a scripted environment: `script`'s `i`-th row holds the
    /// event names of the `i`-th configuration cycle. Interning takes
    /// time linear in the number of names.
    ///
    /// # Panics
    ///
    /// Panics when the script holds more than `u32::MAX` names.
    pub fn new<I, S>(script: I) -> Self
    where
        I: IntoIterator,
        I::Item: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut row_end = Vec::new();
        let mut row_syms = Vec::new();
        for row in script {
            for name in row {
                let next = u32::try_from(index.len()).expect("at most u32::MAX names");
                row_syms.push(*index.entry(name.into()).or_insert(next));
            }
            row_end.push(u32::try_from(row_syms.len()).expect("at most u32::MAX names"));
        }
        let mut names = vec![String::new(); index.len()];
        for (name, sym) in index {
            names[sym as usize] = name;
        }
        ScriptedEnvironment {
            resolved: Resolved { tables: None, ids: vec![None; names.len()] },
            names,
            row_end,
            row_syms,
            cursor: 0,
            port_writes: Vec::new(),
        }
    }

    /// The script as it stands: one row of event names per
    /// configuration cycle, the rows already sampled empty.
    pub fn script(&self) -> Vec<Vec<String>> {
        (0..self.row_end.len())
            .map(|i| if i < self.cursor { Vec::new() } else { self.row_names(i) })
            .collect()
    }

    /// Where row `i`'s name indices lie in `row_syms`; empty past the
    /// script's end.
    fn span(&self, i: usize) -> Range<usize> {
        let Some(&end) = self.row_end.get(i) else { return 0..0 };
        let start = i.checked_sub(1).map_or(0, |p| self.row_end[p]);
        start as usize..end as usize
    }

    fn row_names(&self, i: usize) -> Vec<String> {
        self.row_syms[self.span(i)].iter().map(|&s| self.names[s as usize].clone()).collect()
    }
}

impl Environment for ScriptedEnvironment {
    fn sample_events(&mut self, _now: u64) -> Vec<String> {
        let out = self.row_names(self.cursor);
        self.cursor += 1;
        out
    }

    fn sample_event_ids(
        &mut self,
        _now: u64,
        tables: &Arc<SelectionTables>,
        out: &mut Vec<EventId>,
    ) {
        let span = self.span(self.cursor);
        self.cursor += 1;
        if span.is_empty() {
            return;
        }
        let ids = self.resolved.ids(tables, &self.names);
        out.extend(self.row_syms[span].iter().filter_map(|&s| ids[s as usize]));
    }

    fn port_write(&mut self, address: u16, value: i64, now: u64) {
        self.port_writes.push((address, value, now));
    }

    fn quiet_sample(&mut self, _now: u64) -> bool {
        if !self.span(self.cursor).is_empty() {
            return false;
        }
        self.cursor += 1;
        true
    }
}

/// What happened in one configuration cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Transitions that fired, in execution order.
    pub fired: Vec<TransitionId>,
    /// Measured execution cycles per fired transition (same order).
    pub transition_cycles: Vec<u64>,
    /// Which TEP each transition ran on (same order).
    pub assigned_tep: Vec<u8>,
    /// Length of this configuration cycle in clock cycles.
    pub cycle_length: u64,
    /// Events raised by routines (visible next cycle).
    pub raised: Vec<EventId>,
    /// Cycles from cycle start until every interrupt-priority transition
    /// completed (§6 extension; `None` when no interrupt fired).
    pub interrupt_latency: Option<u64>,
}

impl CycleReport {
    /// Whether the lists are empty and there is no interrupt latency;
    /// cheaper than `==` on empty `Vec`s (DESIGN.md, "Quiescent cycles").
    pub(crate) fn is_idle(&self) -> bool {
        self.fired.is_empty()
            && self.transition_cycles.is_empty()
            && self.assigned_tep.is_empty()
            && self.raised.is_empty()
            && self.interrupt_latency.is_none()
    }
}

/// The report of every idle configuration cycle: nothing fired, raised
/// or interrupted, and the cycle took `SLA + IDLE` clock cycles. A fresh
/// or reset machine's report equals it, and so does a quiet cycle's
/// (see [`PscpMachine::report`]).
pub static IDLE_REPORT: CycleReport = CycleReport {
    fired: Vec::new(),
    transition_cycles: Vec::new(),
    assigned_tep: Vec::new(),
    cycle_length: overhead::SLA + overhead::IDLE,
    raised: Vec::new(),
    interrupt_latency: None,
};

/// Aggregate statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Configuration cycles executed.
    pub config_cycles: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Total clock cycles.
    pub clock_cycles: u64,
    /// Longest configuration cycle seen.
    pub max_cycle_length: u64,
    /// Busy clock cycles per TEP.
    pub tep_busy: Vec<u64>,
}

/// Machine-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A TEP faulted while executing a routine.
    Tep(TepError),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Tep(e) => write!(f, "TEP fault: {e}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<TepError> for MachineError {
    fn from(e: TepError) -> Self {
        MachineError::Tep(e)
    }
}

/// Reusable per-cycle working state. Every buffer the configuration
/// cycle needs lives here and is cleared — not reallocated — each
/// [`PscpMachine::step`].
#[derive(Debug, Default)]
struct StepScratch {
    /// Events sampled into the CR for this cycle, ascending and
    /// duplicate-free.
    events: Vec<EventId>,
    /// Condition part of the CR at cycle start (the local caches).
    cond_snapshot: Vec<bool>,
    /// Measured execution cycles per chart transition. All zero between
    /// cycles: a cycle resets exactly the entries it wrote.
    per_transition: Vec<u64>,
    /// Resolved arguments of the routine call being dispatched.
    args: Vec<i64>,
    /// Hardware-timer arms recorded during the cycle.
    timer_writes: Vec<(usize, u64)>,
    /// Dispatch order of the fired transitions.
    order: Vec<usize>,
    /// Accumulated load per TEP.
    tep_load: Vec<u64>,
}

/// Opt-in waveform capture: one VCD sample per configuration cycle,
/// taken at the cycle's end time — per-state activity bits, sampled
/// event bits, condition bits, per-TEP busy flags, timer remainders
/// and the cycle length. Attached with [`PscpMachine::attach_vcd`];
/// the machine pays one pointer test per step while detached.
#[derive(Debug)]
struct VcdProbe {
    writer: VcdWriter,
    states: Vec<(StateId, SignalId)>,
    events: Vec<(EventId, SignalId)>,
    conditions: Vec<(ConditionId, SignalId)>,
    teps: Vec<SignalId>,
    timers: Vec<SignalId>,
    cycle_len: SignalId,
}

impl VcdProbe {
    fn new(system: &CompiledSystem, exec: &Executor<'_>) -> Self {
        let chart = &system.chart;
        let mut writer = VcdWriter::new();
        let states: Vec<_> = chart
            .state_ids()
            .filter(|&s| s != chart.root())
            .map(|s| {
                let sig = writer.add_signal(&format!("st_{}", chart.state(s).name), 1);
                (s, sig)
            })
            .collect();
        let events: Vec<_> = chart
            .event_ids()
            .map(|e| (e, writer.add_signal(&format!("ev_{}", chart.event(e).name), 1)))
            .collect();
        let conditions: Vec<_> = chart
            .condition_ids()
            .map(|c| (c, writer.add_signal(&format!("cond_{}", chart.condition(c).name), 1)))
            .collect();
        let teps: Vec<_> = (0..system.arch.n_teps.max(1))
            .map(|i| writer.add_signal(&format!("tep{i}_busy"), 1))
            .collect();
        let timers: Vec<_> =
            (0..system.arch.timers.len()).map(|i| writer.add_signal(&format!("timer{i}"), 32)).collect();
        let cycle_len = writer.add_signal("cycle_len", 32);
        // Initial values: the reset configuration, nothing sampled,
        // everything idle.
        for &(s, sig) in &states {
            writer.change(sig, exec.configuration().is_active(s) as u64);
        }
        for &(c, sig) in &conditions {
            writer.change(sig, exec.condition(c) as u64);
        }
        VcdProbe { writer, states, events, conditions, teps, timers, cycle_len }
    }

    fn record(
        &mut self,
        t: u64,
        exec: &Executor<'_>,
        sampled: &[EventId],
        tep_load: &[u64],
        timers: &[Option<u64>],
        cycle_length: u64,
    ) {
        self.writer.set_time(t);
        for &(s, sig) in &self.states {
            self.writer.change(sig, exec.configuration().is_active(s) as u64);
        }
        for &(e, sig) in &self.events {
            self.writer.change(sig, sampled.binary_search(&e).is_ok() as u64);
        }
        for &(c, sig) in &self.conditions {
            self.writer.change(sig, exec.condition(c) as u64);
        }
        for (i, &sig) in self.teps.iter().enumerate() {
            self.writer.change(sig, (tep_load.get(i).copied().unwrap_or(0) > 0) as u64);
        }
        for (i, &sig) in self.timers.iter().enumerate() {
            self.writer.change(sig, timers.get(i).copied().flatten().unwrap_or(0));
        }
        self.writer.change(self.cycle_len, cycle_length);
    }
}

/// A complete semantic snapshot of a [`PscpMachine`]: chart control
/// state, hardware timers, pending timer expiries, and TEP data
/// memory. Everything the next cycle's behaviour depends on — and
/// nothing else (clock, statistics and probes are excluded). Captured
/// by [`PscpMachine::capture`], reinstated by [`PscpMachine::restore`],
/// canonically serialised by [`crate::explore::encode_state`]. The
/// explorer dedups on the packed words of
/// [`PscpMachine::capture_words`] and an interned data plane instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticState {
    /// Chart control state (configuration, conditions, pending
    /// internal events, history memory).
    pub control: pscp_statechart::semantics::ControlState,
    /// Remaining cycles of each armed hardware timer.
    pub timers: Vec<Option<u64>>,
    /// Timer events that expired last cycle, pending delivery.
    pub pending_timer_events: Vec<EventId>,
    /// TEP data memory (ACC, OP, registers, both RAM planes).
    pub data: pscp_tep::TepDataState,
}

/// The PSCP machine.
pub struct PscpMachine<'s> {
    system: &'s CompiledSystem,
    exec: Executor<'s>,
    tep: TepMachine<'s>,
    now: u64,
    stats: MachineStats,
    /// Remaining cycles of each armed hardware timer.
    timers: Vec<Option<u64>>,
    /// Timer events that expired during the previous cycle.
    pending_timer_events: Vec<EventId>,
    scratch: StepScratch,
    /// The last completed cycle's report ([`PscpMachine::report`]).
    report: CycleReport,
    /// Set after a cycle that started with no sampled or pending
    /// internal events, fired nothing and left no timer expiry pending:
    /// the chart's inputs are then unchanged, so an empty sample makes
    /// the next cycle idle too ([`PscpMachine::quiet_cycle`]). Between
    /// [`sample_phase`](Self::sample_phase) and the cycle's completion
    /// it holds the first half of that test.
    quiet: bool,
    /// Waveform probe; boxed so the detached (default) machine carries
    /// one pointer, and `None` costs one branch per step.
    vcd: Option<Box<VcdProbe>>,
}

impl fmt::Debug for PscpMachine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PscpMachine")
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'s> PscpMachine<'s> {
    /// Creates a machine in the chart's default configuration with data
    /// memory at reset values. The executor runs on the system's
    /// selection tables, so building a machine derives nothing from the
    /// chart.
    pub fn new(system: &'s CompiledSystem) -> Self {
        let chart = &system.chart;
        PscpMachine {
            system,
            exec: Executor::with_tables(chart, Arc::clone(&system.selection)),
            tep: TepMachine::new(&system.program),
            now: 0,
            stats: MachineStats {
                tep_busy: vec![0; system.arch.n_teps as usize],
                ..Default::default()
            },
            timers: vec![None; system.arch.timers.len()],
            pending_timer_events: Vec::new(),
            scratch: StepScratch {
                per_transition: vec![0; chart.transition_count()],
                ..StepScratch::default()
            },
            report: IDLE_REPORT.clone(),
            quiet: false,
            vcd: None,
        }
    }

    /// Attaches a waveform probe: from now on every [`PscpMachine::step`]
    /// appends one VCD sample (state/event/condition bits, TEP
    /// busy flags, timer remainders, cycle length) at the cycle's end
    /// time. The current configuration becomes the `$dumpvars` baseline.
    pub fn attach_vcd(&mut self) {
        self.vcd = Some(Box::new(VcdProbe::new(self.system, &self.exec)));
    }

    /// Detaches the waveform probe, returning the rendered VCD
    /// document; `None` when no probe was attached.
    pub fn detach_vcd(&mut self) -> Option<String> {
        self.vcd.take().map(|p| p.writer.finish())
    }

    /// Returns the machine to its power-on state — default chart
    /// configuration, data memory at reset values, clock and statistics
    /// at zero, timers disarmed, the report [`IDLE_REPORT`] — while
    /// reusing every allocation (the executor's selection tables and
    /// scratch, the TEP memory image, the step scratch buffers, the
    /// report's lists), so resetting allocates nothing. A
    /// reset machine is byte-identical in behaviour to a freshly
    /// constructed one, which lets a [`SimPool`](crate::pool::SimPool)
    /// worker run many scenarios on one machine instead of
    /// reconstructing per scenario.
    pub fn reset(&mut self) {
        self.exec.reset();
        self.tep.reset();
        self.now = 0;
        self.stats.config_cycles = 0;
        self.stats.transitions = 0;
        self.stats.clock_cycles = 0;
        self.stats.max_cycle_length = 0;
        self.stats.tep_busy.iter_mut().for_each(|b| *b = 0);
        self.timers.iter_mut().for_each(|t| *t = None);
        self.pending_timer_events.clear();
        let r = &mut self.report;
        r.fired.clear();
        r.transition_cycles.clear();
        r.assigned_tep.clear();
        r.raised.clear();
        r.cycle_length = IDLE_REPORT.cycle_length;
        r.interrupt_latency = None;
        self.quiet = false;
        // A reset starts a new run at time zero; a probe's timestamps
        // must stay monotonic, so capture does not survive reset.
        self.vcd = None;
    }

    /// Remaining cycles of hardware timer `i`, if armed.
    pub fn timer_remaining(&self, i: usize) -> Option<u64> {
        self.timers.get(i).copied().flatten()
    }

    /// The compiled system this machine runs.
    pub fn system(&self) -> &'s CompiledSystem {
        self.system
    }

    /// Snapshots the complete semantic state: chart control state,
    /// hardware timers, pending timer expiries, and TEP data memory.
    /// The clock, statistics and waveform probe are excluded — cycle
    /// behaviour depends only on what `capture` records, which is what
    /// makes state-space exploration by capture/restore sound.
    pub fn capture(&self) -> SemanticState {
        SemanticState {
            control: self.exec.control_state(),
            timers: self.timers.clone(),
            pending_timer_events: self.pending_timer_events.clone(),
            data: self.tep.data_state(),
        }
    }

    /// Restores a [`capture`](Self::capture) snapshot taken from a
    /// machine over the same system. Clock, statistics and probe state
    /// are left untouched.
    pub fn restore(&mut self, s: &SemanticState) {
        self.exec.restore_control_state(&s.control);
        self.timers.copy_from_slice(&s.timers);
        self.pending_timer_events.clear();
        self.pending_timer_events.extend_from_slice(&s.pending_timer_events);
        self.tep.restore_data_state(&s.data);
        self.quiet = false;
    }

    /// Appends [`capture`](Self::capture) without the TEP data memory,
    /// packed into words: the executor's words
    /// ([`Executor::pack_control`], so [`Executor::packed_active`]
    /// reads them), then a bitmap of the armed timers, one word per
    /// timer with its remaining cycles (`0` when disarmed), and the
    /// pending timer events two per word, each its index plus one, the
    /// last word zero-padded. The timer events keep their order and any
    /// duplicates: the list is in timer order, and two timers may raise
    /// one event. Two machines over one system pack equal exactly when
    /// their captures, data aside, are equal.
    pub fn capture_words(&self, out: &mut Vec<u64>) {
        self.exec.pack_control(out);
        let start = out.len();
        out.resize(start + self.timers.len().div_ceil(64), 0);
        for (i, t) in self.timers.iter().enumerate() {
            if t.is_some() {
                out[start + i / 64] |= 1 << (i % 64);
            }
        }
        out.extend(self.timers.iter().map(|t| t.unwrap_or(0)));
        out.extend(self.pending_timer_events.chunks(2).map(|pair| {
            pair.iter().rev().fold(0, |w, e| w << 32 | (e.index() as u64 + 1))
        }));
    }

    /// Restores words appended by [`capture_words`](Self::capture_words)
    /// on a machine over the same system; the TEP data memory keeps its
    /// contents (see [`TepMachine::data_touched`]). Clock, statistics
    /// and probe state are left untouched.
    ///
    /// # Panics
    ///
    /// Panics when `words` is shorter than the system's layout.
    pub fn restore_words(&mut self, words: &[u64]) {
        let words = self.exec.unpack_control(words);
        let n = self.timers.len();
        let (armed, words) = words.split_at(n.div_ceil(64));
        let (remaining, pending) = words.split_at(n);
        for (i, (t, &rem)) in self.timers.iter_mut().zip(remaining).enumerate() {
            *t = (armed[i / 64] >> (i % 64) & 1 != 0).then_some(rem);
        }
        self.pending_timer_events.clear();
        for &w in pending {
            for half in [w as u32, (w >> 32) as u32] {
                if let Some(e) = half.checked_sub(1) {
                    self.pending_timer_events.push(EventId::from_index(e as usize));
                }
            }
        }
        self.quiet = false;
    }

    /// Restores only the TEP data memory, which
    /// [`restore_words`](Self::restore_words) leaves alone.
    pub fn restore_data(&mut self, data: &TepDataState) {
        self.tep.restore_data_state(data);
    }

    /// Runs one configuration cycle with an injected external event set
    /// instead of sampling `env` for events/conditions: the given
    /// external events plus any pending timer expiries land in the CR,
    /// exactly as `sample_phase` would deliver them. `env` is still
    /// consulted for port reads/writes during routine execution.
    /// Returns a copy of the cycle's [`report`](Self::report).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] when a routine faults.
    pub fn step_injected<E: Environment>(
        &mut self,
        events: &[EventId],
        env: &mut E,
    ) -> Result<CycleReport, MachineError> {
        self.step_injected_in_place(events, env)?;
        Ok(self.report.clone())
    }

    /// [`step_injected`](Self::step_injected), leaving the report in
    /// [`report`](Self::report) instead of copying it out. The explorer
    /// ([`crate::explore()`]) expands a state under a symbol this way.
    pub(crate) fn step_injected_in_place<E: Environment>(
        &mut self,
        events: &[EventId],
        env: &mut E,
    ) -> Result<(), MachineError> {
        let set = &mut self.scratch.events;
        set.clear();
        set.extend_from_slice(events);
        set.append(&mut self.pending_timer_events);
        set.sort_unstable();
        set.dedup();
        self.quiet = false;
        self.execute_phase(env)
    }

    /// The chart executor (canonical control state).
    pub fn executor(&self) -> &Executor<'s> {
        &self.exec
    }

    /// Canonical data memory (shared TEP image).
    pub fn tep(&self) -> &TepMachine<'s> {
        &self.tep
    }

    /// Absolute clock cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The report of the last completed configuration cycle;
    /// [`IDLE_REPORT`] before the first. A cycle a routine fault cut
    /// short leaves the report of the cycle before it.
    pub fn report(&self) -> &CycleReport {
        &self.report
    }

    /// Runs one configuration cycle against the environment and returns
    /// a copy of its [`report`](Self::report). A quiet cycle's copy is
    /// [`IDLE_REPORT`]'s, which allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] when a routine faults (divide by zero,
    /// memory fault, cycle-limit).
    pub fn step<E: Environment>(&mut self, env: &mut E) -> Result<CycleReport, MachineError> {
        self.step_in_place(env)?;
        Ok(self.report.clone())
    }

    /// [`step`](Self::step), leaving the report in
    /// [`report`](Self::report) instead of copying it out; returns
    /// whether the cycle was quiet. The pool's scenario loop steps this
    /// way. Every cycle opens one sampled `step` span, quiet or not.
    pub(crate) fn step_in_place<E: Environment>(
        &mut self,
        env: &mut E,
    ) -> Result<bool, MachineError> {
        let _step_span = pscp_obs::trace::span_sampled("step", self.stats.config_cycles);
        if self.quiet_cycle(env) {
            return Ok(true);
        }
        self.sample_phase(env);
        self.execute_phase(env)?;
        Ok(false)
    }

    /// Completes the next configuration cycle in place if it is quiet:
    /// the machine is quiet and `env` takes an empty sample
    /// ([`Environment::quiet_sample`]). The chart then sees exactly the
    /// inputs of the last cycle, which fired nothing, so the cycle is
    /// idle. It closes like an idle cycle of
    /// [`execute_phase`](Self::execute_phase) (same clock advance, timer
    /// decrement, statistics, counters and VCD sample), without
    /// sampling, name resolution, the condition snapshot, transition
    /// selection or touching the report, which the last cycle left
    /// idle. The executor re-checks the idle claim in debug builds
    /// (`Executor::step_idle`). Returns `false`, having touched nothing,
    /// when the cycle must be sampled.
    fn quiet_cycle<E: Environment>(&mut self, env: &mut E) -> bool {
        if !(self.quiet && env.quiet_sample(self.now)) {
            return false;
        }
        // Quiet implies the last cycle's event set, which the VCD probe
        // re-reads, was empty, nothing is pending, and the last cycle
        // fired nothing, so its report is idle.
        debug_assert!(self.scratch.events.is_empty() && self.pending_timer_events.is_empty());
        let r = &self.report;
        debug_assert!(r.is_idle() && r.cycle_length == IDLE_REPORT.cycle_length);
        pscp_obs::metrics::MACHINE_QUIET_CYCLES.inc();
        self.exec.step_idle(&self.scratch.events);
        // No routine ran, so no timer was armed or disarmed.
        self.close_cycle(IDLE_REPORT.cycle_length, 0);
        true
    }

    /// Phase 1 of a configuration cycle: sample external events,
    /// expired hardware timers and condition ports into the CR, for
    /// [`step`](Self::step). Split from
    /// [`execute_phase`](Self::execute_phase) so that
    /// [`step_injected`](Self::step_injected) can take its events from
    /// the caller instead. Sampling consumes environment state
    /// (scripted rows are taken exactly once).
    fn sample_phase<E: Environment>(&mut self, env: &mut E) {
        let events = &mut self.scratch.events;
        events.clear();
        env.sample_event_ids(self.now, &self.system.selection, events);
        events.append(&mut self.pending_timer_events);
        events.sort_unstable();
        events.dedup();
        for (name, v) in env.sample_conditions(self.now) {
            if let Some(c) = self.system.selection.condition_names().get(&name) {
                self.exec.set_condition(c, v);
            }
        }
        self.quiet = events.is_empty() && self.exec.pending_events().next().is_none();
    }

    /// Phases 2–7 of a configuration cycle, operating on the events
    /// in the step scratch: those captured by
    /// [`sample_phase`](Self::sample_phase) for [`step`](Self::step),
    /// or those injected by [`step_injected`](Self::step_injected).
    /// The only writer of the machine's report, which it refills in
    /// place; a fault leaves the report as it was.
    fn execute_phase<E: Environment>(&mut self, env: &mut E) -> Result<(), MachineError> {
        let system = self.system;
        let chart = &system.chart;
        let tables = &system.tables;
        let StepScratch { events, cond_snapshot, per_transition, args, timer_writes, order, tep_load } =
            &mut self.scratch;

        // 2–4. The chart executor drives the cycle (its selection is the
        //      SLA's — differentially checked in the pscp-sla tests) and
        //      calls back for every routine in reference order: exit
        //      actions, transition actions, entry actions. The callback
        //      executes the compiled routine on the TEP image, measuring
        //      its cycles; conditions read from the cycle-start snapshot
        //      (the local condition caches).
        cond_snapshot.clear();
        cond_snapshot.extend(chart.condition_ids().map(|c| self.exec.condition(c)));
        let cond_snapshot: &[bool] = cond_snapshot;
        // Sized at construction; the entries a cycle writes are reset as
        // it reads them, so the buffer is all zero here.
        debug_assert!(per_transition.iter().all(|&c| c == 0));
        timer_writes.clear();
        let tep = &mut self.tep;
        let now = self.now;
        let mut fault: Option<MachineError> = None;
        let mut last_site: Option<ActionSite> = None;
        let mut cursor = 0usize;

        // A routine's raised events and condition writes go straight to
        // the executor's sink; on a fault, those it made before faulting
        // stay, and no later routine runs.
        let step = self.exec.step_with(events.iter(), |site, _call, effects| {
            if fault.is_some() {
                return;
            }
            if last_site != Some(site) {
                last_site = Some(site);
                cursor = 0;
            }
            let binding = match site {
                ActionSite::Exit { state, .. } => &system.exit_bindings[state.index()],
                ActionSite::Transition { transition } => &system.bindings[transition.index()],
                ActionSite::Entry { state, .. } => &system.entry_bindings[state.index()],
            };
            let bound = &binding.calls[cursor];
            cursor += 1;
            args.clear();
            args.extend(bound.args.iter().map(|a| match a {
                ArgSpec::Const(v) => *v,
                ArgSpec::Global(slot) => tep.global(*slot as usize),
            }));
            let mut host = PscpHost {
                system,
                env: &mut *env,
                cond_snapshot,
                effects,
                timer_writes: &mut *timer_writes,
                now,
            };
            let start = tep.cycles();
            if let Err(e) = tep.call_indexed(bound.func, args, &mut host) {
                fault = Some(MachineError::Tep(e));
                return;
            }
            per_transition[site.transition().index()] += tep.cycles() - start;
        });
        if let Some(e) = fault {
            for &tid in &step.fired {
                per_transition[tid.index()] = 0;
            }
            self.quiet = false;
            return Err(e);
        }

        // The report is refilled in place, so once its lists have grown
        // a cycle allocates nothing. Raised events become visible next
        // cycle (the executor holds them in the CR's event part).
        let report = &mut self.report;
        report.fired.clone_from(&step.fired);
        report.transition_cycles.clear();
        report.transition_cycles.extend(step.fired.iter().map(|tid| {
            std::mem::take(&mut per_transition[tid.index()])
                + overhead::DISPATCH
                + overhead::WRITEBACK
        }));
        report.raised.clone_from(&step.raised);

        // 5. Timing: the scheduler deals the fired transitions to the
        //    TEPs (`schedule`); the cycle lasts the SLA plus the busiest
        //    TEP's load.
        let n_teps = system.arch.n_teps.max(1) as usize;
        schedule(report, &tables.interrupt, &tables.exclusion, n_teps, order, tep_load);

        // 6. Hardware timers: apply arm/disarm writes; closing the
        //    cycle advances them.
        for &(i, v) in timer_writes.iter() {
            self.timers[i] = if v == 0 { None } else { Some(v) };
        }

        // 7. Book-keeping.
        for (&t, &cycles) in report.assigned_tep.iter().zip(&report.transition_cycles) {
            self.stats.tep_busy[t as usize] += cycles;
        }
        self.close_cycle(self.report.cycle_length, self.report.fired.len());
        Ok(())
    }

    /// Closes a completed cycle of `cycle_length` clock cycles that
    /// fired `fired` transitions, whichever way it completed: timers
    /// advance by the cycle just spent (expiries fire next cycle), the
    /// quiet flag, clock, statistics and counters take the cycle in,
    /// and an attached VCD probe samples it. The per-TEP busy time is
    /// the caller's, as only a cycle that fired has any.
    fn close_cycle(&mut self, cycle_length: u64, fired: usize) {
        let tables = &self.system.tables;
        for (i, t) in self.timers.iter_mut().enumerate() {
            if let Some(rem) = t {
                if *rem <= cycle_length {
                    if let Some(e) = tables.timer_event[i] {
                        self.pending_timer_events.push(e);
                    }
                    *t = None;
                } else {
                    *rem -= cycle_length;
                }
            }
        }

        self.quiet &= fired == 0 && self.pending_timer_events.is_empty();
        self.now += cycle_length;
        self.stats.config_cycles += 1;
        self.stats.transitions += fired as u64;
        self.stats.clock_cycles += cycle_length;
        self.stats.max_cycle_length = self.stats.max_cycle_length.max(cycle_length);
        pscp_obs::metrics::MACHINE_STEPS.inc();
        pscp_obs::metrics::MACHINE_TRANSITIONS.add(fired as u64);
        if let Some(probe) = self.vcd.as_deref_mut() {
            let StepScratch { events, tep_load, .. } = &mut self.scratch;
            if fired == 0 {
                // Every TEP idled; a quiet cycle never sized the loads.
                tep_load.clear();
                tep_load.resize(self.system.arch.n_teps.max(1) as usize, 0);
            }
            probe.record(self.now, &self.exec, events, tep_load, &self.timers, cycle_length);
        }
    }

    /// Runs configuration cycles until the clock passes `deadline`
    /// cycles or `max_steps` configuration cycles elapse.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MachineError`].
    pub fn run<E: Environment>(
        &mut self,
        env: &mut E,
        deadline: u64,
        max_steps: u64,
    ) -> Result<Vec<CycleReport>, MachineError> {
        let mut out = Vec::new();
        let mut steps = 0;
        while self.now < deadline && steps < max_steps {
            out.push(self.step(env)?);
            steps += 1;
        }
        Ok(out)
    }
}

/// The scheduler's dealing rule (§3.1, §4, §6 extension): deals
/// `report`'s fired transitions (`transition_cycles[i]` clock cycles
/// for `fired[i]`) to `n_teps` TEPs round-robin, the `k`-th dealt to
/// TEP `k % n_teps`, and writes the report's `assigned_tep`,
/// `interrupt_latency` and `cycle_length`. Interrupt-priority
/// transitions (`interrupt`, per chart transition) are dealt first,
/// each group in firing order. A transition with mutual-exclusion
/// partners (`exclusion`, per chart transition: sorted partner indices)
/// runs on the TEP of the first partner dealt before it instead.
/// Routines never split, so the cycle lasts the SLA plus the largest
/// per-TEP sum, or the SLA plus an idle cycle when nothing fired. The
/// interrupt latency runs from cycle start (SLA included) until every
/// interrupt-priority transition completed. `order` and `tep_load` are
/// working buffers; on return `tep_load` holds each TEP's load.
pub(crate) fn schedule(
    report: &mut CycleReport,
    interrupt: &[bool],
    exclusion: &[Vec<u32>],
    n_teps: usize,
    order: &mut Vec<usize>,
    tep_load: &mut Vec<u64>,
) {
    let CycleReport { fired, transition_cycles: costs, assigned_tep, .. } = report;
    order.clear();
    order.extend(0..fired.len());
    order.sort_by_key(|&i| (!interrupt[fired[i].index()], i));

    tep_load.clear();
    tep_load.resize(n_teps, 0);
    assigned_tep.clear();
    assigned_tep.resize(fired.len(), 0);
    report.interrupt_latency = None;
    for (k, &i) in order.iter().enumerate() {
        let tid = fired[i];
        let mut tep = k % n_teps;
        // Mutual exclusion: co-locate with the first earlier
        // conflicting transition.
        if n_teps > 1 {
            let partners = &exclusion[tid.index()];
            if !partners.is_empty() {
                for &j in &order[..k] {
                    if partners.binary_search(&(fired[j].index() as u32)).is_ok() {
                        tep = assigned_tep[j] as usize;
                        break;
                    }
                }
            }
        }
        tep_load[tep] += costs[i];
        assigned_tep[i] = tep as u8;
        if interrupt[tid.index()] {
            let done = overhead::SLA + tep_load[tep];
            let latency = report.interrupt_latency.map_or(done, |cur| cur.max(done));
            report.interrupt_latency = Some(latency);
        }
    }
    let makespan = tep_load.iter().copied().max().unwrap_or(0);
    report.cycle_length = overhead::SLA + if fired.is_empty() { overhead::IDLE } else { makespan };
}

/// Host bridging TEP execution into the PSCP: ports go to the
/// environment, conditions go through the local condition cache
/// (snapshot reads, recorded writes), events are recorded for the next
/// configuration cycle.
struct PscpHost<'a, 's, 'k, E: Environment> {
    system: &'s CompiledSystem,
    env: &'a mut E,
    /// The condition part of the CR at cycle start, copied into the
    /// local caches by the scheduler (§3.1).
    cond_snapshot: &'a [bool],
    /// The executor's sink for raised events and condition writes.
    effects: &'a mut EffectSink<'k>,
    /// Hardware-timer arms `(timer index, reload value)` recorded for
    /// end-of-cycle application.
    timer_writes: &'a mut Vec<(usize, u64)>,
    now: u64,
}

impl<E: Environment> Host for PscpHost<'_, '_, '_, E> {
    fn port_read(&mut self, port: u32) -> i64 {
        let address = self.system.program.ports[port as usize].address;
        self.env.port_read(address, self.now)
    }

    fn port_write(&mut self, port: u32, value: i64) {
        // Hardware-timer ports are internal to the PSCP; everything else
        // goes to the plant.
        if let Some(i) = self.system.tables.port_timer[port as usize] {
            self.timer_writes.push((i as usize, value.max(0) as u64));
            return;
        }
        let address = self.system.program.ports[port as usize].address;
        self.env.port_write(address, value, self.now);
    }

    fn raise_event(&mut self, event: u32) {
        if let Some(e) = self.system.tables.program_event[event as usize] {
            self.effects.raise(e);
        }
    }

    fn set_condition(&mut self, cond: u32, value: bool) {
        if let Some(c) = self.system.tables.program_condition[cond as usize] {
            self.effects.set_condition(c, value);
        }
    }

    fn read_condition(&mut self, cond: u32) -> bool {
        // Condition cache: snapshot of the CR at cycle start. Writes in
        // this cycle are not yet visible (write-back at cycle end).
        self.system.tables.program_condition[cond as usize]
            .map(|c| self.cond_snapshot[c.index()])
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PscpArch;
    use crate::compile::compile_system;
    use pscp_statechart::{Chart, ChartBuilder, StateKind};
    use pscp_tep::codegen::CodegenOptions;

    fn counter_chart() -> Chart {
        let mut b = ChartBuilder::new("counter");
        b.event("TICK", Some(400));
        b.condition("OVER", false);
        b.state("Top", StateKind::Or).contains(["Run", "Stop"]).default_child("Run");
        b.state("Run", StateKind::Basic)
            .transition("Run", "TICK [not OVER]/Bump(5)")
            .transition("Stop", "TICK [OVER]");
        b.basic("Stop");
        b.build().unwrap()
    }

    const COUNTER_ACTIONS: &str = r#"
        int:16 total;
        void Bump(int:16 n) {
            total = total + n;
            OVER = total >= 20;
        }
    "#;

    fn compiled(arch: PscpArch) -> CompiledSystem {
        compile_system(&counter_chart(), COUNTER_ACTIONS, &arch, &CodegenOptions::default())
            .unwrap()
    }

    #[test]
    fn runs_counter_to_completion() {
        let sys = compiled(PscpArch::md16_unoptimized());
        let mut m = PscpMachine::new(&sys);
        let mut env = ScriptedEnvironment::new(vec![vec!["TICK"]; 10]);
        for _ in 0..10 {
            m.step(&mut env).unwrap();
        }
        // 4 bumps of 5 reach 20, the 5th tick sees OVER and stops.
        assert!(m
            .executor()
            .configuration()
            .is_active(sys.chart.state_by_name("Stop").unwrap()));
        assert_eq!(m.tep().global_by_name("total"), Some(20));
        assert_eq!(m.stats().transitions, 5);
    }

    #[test]
    fn idle_cycles_are_cheap() {
        let sys = compiled(PscpArch::md16_unoptimized());
        let mut m = PscpMachine::new(&sys);
        let mut env = NullEnvironment;
        let r = m.step(&mut env).unwrap();
        assert!(r.fired.is_empty());
        assert_eq!(r.cycle_length, overhead::SLA + overhead::IDLE);
    }

    #[test]
    fn cycle_length_reflects_architecture() {
        let fast_sys = compiled(PscpArch::md16_optimized());
        let slow_sys = compiled(PscpArch::minimal());
        let run = |sys: &CompiledSystem| {
            let mut m = PscpMachine::new(sys);
            let mut env = ScriptedEnvironment::new(vec![vec!["TICK"]]);
            m.step(&mut env).unwrap().cycle_length
        };
        let fast = run(&fast_sys);
        let slow = run(&slow_sys);
        assert!(slow > fast, "minimal {slow} must be slower than optimized {fast}");
    }

    fn parallel_chart() -> Chart {
        let mut b = ChartBuilder::new("par");
        b.event("P", Some(1000));
        b.state("Top", StateKind::And).contains(["A", "B"]);
        b.state("A", StateKind::Or).contains(["A1"]).default_child("A1");
        b.state("A1", StateKind::Basic).transition("A1", "P/Work()");
        b.state("B", StateKind::Or).contains(["B1"]).default_child("B1");
        b.state("B1", StateKind::Basic).transition("B1", "P/Work()");
        b.build().unwrap()
    }

    const WORK: &str = r#"
        int:16 acc;
        void Work() {
            int:16 i = 0;
            while (i < 8) { acc = acc + i * 3; i = i + 1; }
        }
    "#;

    #[test]
    fn two_teps_shorten_parallel_cycles() {
        let chart = parallel_chart();
        let one = compile_system(
            &chart,
            WORK,
            &PscpArch::md16_unoptimized(),
            &CodegenOptions::default(),
        )
        .unwrap();
        let two = compile_system(
            &chart,
            WORK,
            &PscpArch::dual_md16(false),
            &CodegenOptions::default(),
        )
        .unwrap();
        let run = |sys: &CompiledSystem| {
            let mut m = PscpMachine::new(sys);
            let mut env = ScriptedEnvironment::new(vec![vec!["P"]]);
            let r = m.step(&mut env).unwrap();
            assert_eq!(r.fired.len(), 2, "both parallel transitions fire");
            r.cycle_length
        };
        let t1 = run(&one);
        let t2 = run(&two);
        assert!(
            t2 * 10 < t1 * 7,
            "two TEPs should cut the parallel cycle substantially: {t2} vs {t1}"
        );
    }

    #[test]
    fn mutual_exclusion_serializes() {
        let chart = parallel_chart();
        let mut arch = PscpArch::dual_md16(false);
        arch.mutual_exclusion.push([0u32, 1].into());
        let sys =
            compile_system(&chart, WORK, &arch, &CodegenOptions::default()).unwrap();
        let free = compile_system(
            &chart,
            WORK,
            &PscpArch::dual_md16(false),
            &CodegenOptions::default(),
        )
        .unwrap();
        let run = |sys: &CompiledSystem| {
            let mut m = PscpMachine::new(sys);
            let mut env = ScriptedEnvironment::new(vec![vec!["P"]]);
            m.step(&mut env).unwrap().cycle_length
        };
        assert!(run(&sys) > run(&free), "exclusion must serialize the two routines");
    }

    #[test]
    fn raised_events_drive_next_cycle() {
        let mut b = ChartBuilder::new("relay");
        b.event("GO", None);
        b.internal_event("DONE_EV");
        b.state("Top", StateKind::Or).contains(["S1", "S2", "S3"]).default_child("S1");
        b.state("S1", StateKind::Basic).transition("S2", "GO/Fire()");
        b.state("S2", StateKind::Basic).transition("S3", "DONE_EV");
        b.basic("S3");
        let chart = b.build().unwrap();
        let src = "event DONE_EV;\nvoid Fire() { raise DONE_EV; }";
        let sys = compile_system(
            &chart,
            src,
            &PscpArch::md16_unoptimized(),
            &CodegenOptions::default(),
        )
        .unwrap();
        let mut m = PscpMachine::new(&sys);
        let mut env = ScriptedEnvironment::new(vec![vec!["GO"], vec![]]);
        m.step(&mut env).unwrap();
        assert!(m.executor().configuration().is_active(chart.state_by_name("S2").unwrap()));
        m.step(&mut env).unwrap();
        assert!(m.executor().configuration().is_active(chart.state_by_name("S3").unwrap()));
    }

    #[test]
    fn reset_replays_identically() {
        let sys = compiled(PscpArch::dual_md16(true));
        let script = || ScriptedEnvironment::new(vec![vec!["TICK"]; 8]);
        let run = |m: &mut PscpMachine| -> (Vec<CycleReport>, MachineStats, u64) {
            let mut env = script();
            let mut reports = Vec::new();
            for _ in 0..8 {
                reports.push(m.step(&mut env).unwrap());
            }
            (reports, m.stats().clone(), m.now())
        };
        let mut fresh = PscpMachine::new(&sys);
        let reference = run(&mut fresh);
        let mut reused = PscpMachine::new(&sys);
        run(&mut reused); // dirty it
        let capacity = reused.report.fired.capacity();
        reused.reset();
        assert_eq!(reused.now(), 0);
        assert_eq!(reused.stats().config_cycles, 0);
        assert_eq!(reused.report(), PscpMachine::new(&sys).report());
        assert!(capacity > 0 && reused.report.fired.capacity() == capacity, "reset kept the lists");
        assert_eq!(run(&mut reused), reference);
    }

    /// A scripted environment that counts the cycles it grants quietly.
    struct CountQuiet {
        script: ScriptedEnvironment,
        granted: u64,
    }

    impl Environment for CountQuiet {
        fn sample_events(&mut self, now: u64) -> Vec<String> {
            self.script.sample_events(now)
        }

        fn sample_event_ids(
            &mut self,
            now: u64,
            tables: &Arc<SelectionTables>,
            out: &mut Vec<EventId>,
        ) {
            self.script.sample_event_ids(now, tables, out);
        }

        fn quiet_sample(&mut self, now: u64) -> bool {
            let quiet = self.script.quiet_sample(now);
            self.granted += u64::from(quiet);
            quiet
        }
    }

    #[test]
    fn report_holds_the_last_completed_cycle() {
        // The counter chart, plus a BOOM event whose routine divides by
        // zero in either state.
        let mut b = ChartBuilder::new("counter");
        b.event("TICK", Some(400));
        b.event("BOOM", None);
        b.condition("OVER", false);
        b.state("Top", StateKind::Or).contains(["Run", "Stop"]).default_child("Run");
        b.state("Run", StateKind::Basic)
            .transition("Run", "TICK [not OVER]/Bump(5)")
            .transition("Stop", "TICK [OVER]")
            .transition("Run", "BOOM/Crash()");
        b.state("Stop", StateKind::Basic).transition("Stop", "BOOM/Crash()");
        let chart = b.build().unwrap();
        let actions =
            format!("{COUNTER_ACTIONS} int:16 zero; void Crash() {{ total = total / zero; }}");
        let arch = PscpArch::dual_md16(true);
        let sys = compile_system(&chart, &actions, &arch, &CodegenOptions::default()).unwrap();
        let mut m = PscpMachine::new(&sys);
        assert_eq!(*m.report(), IDLE_REPORT, "a fresh machine's report");

        // Each firing row is followed by empty rows: the first samples
        // (the cycle after a firing is never quiet) and leaves the report
        // idle, and the rest complete quietly.
        let rows: [&[&str]; 9] = [&["TICK"], &[], &[], &[], &["TICK"], &[], &[], &[], &["TICK"]];
        let script = ScriptedEnvironment::new(rows.map(<[_]>::to_vec));
        let mut env = CountQuiet { script, granted: 0 };
        let (mut fired, mut sampled_idle, mut quiet, mut after_fired) = (0, 0, 0, false);
        for (cycle, row) in rows.iter().enumerate() {
            let granted = env.granted;
            let r = m.step(&mut env).unwrap();
            assert_eq!(*m.report(), r, "cycle {cycle}");
            if env.granted > granted {
                assert!(!after_fired, "cycle {cycle}: quiet right after a firing");
                quiet += 1;
            } else if r.fired.is_empty() {
                sampled_idle += 1;
            } else {
                fired += 1;
            }
            assert_eq!(r.fired.is_empty(), row.is_empty(), "cycle {cycle}");
            after_fired = !r.fired.is_empty();
        }
        assert_eq!((fired, sampled_idle, quiet), (3, 2, 4));

        // Injected cycles, firing and idle, then a sampled idle cycle and
        // a quiet one.
        let event = |name| sys.chart.event_by_name(name).unwrap();
        let (tick, boom) = (event("TICK"), event("BOOM"));
        for events in [&[tick][..], &[]] {
            let r = m.step_injected(events, &mut NullEnvironment).unwrap();
            assert_eq!(*m.report(), r, "injected {events:?}");
        }
        let mut env = CountQuiet { script: ScriptedEnvironment::new([[""; 0]; 2]), granted: 0 };
        for _ in 0..2 {
            assert_eq!(m.step(&mut env).unwrap(), *m.report());
        }
        assert_eq!((env.granted, m.report()), (1, &IDLE_REPORT));

        // A fault, sampled or injected, leaves the last completed
        // cycle's report, here one that fired.
        let last = m.step_injected(&[tick], &mut NullEnvironment).unwrap();
        assert!(!last.fired.is_empty());
        assert!(m.step_injected(&[boom], &mut NullEnvironment).is_err());
        assert_eq!(*m.report(), last);
        let mut env = ScriptedEnvironment::new([["BOOM"]]);
        assert!(m.step(&mut env).is_err());
        assert_eq!(*m.report(), last);
    }

    /// What [`deal`] reads back from a schedule.
    struct Dealt {
        assigned_tep: Vec<u8>,
        makespan: u64,
        interrupt_latency: Option<u64>,
    }

    /// Deals transitions `0..costs.len()`, fired in index order, to
    /// `n_teps` TEPs; the makespan is the busiest TEP's load.
    fn deal(costs: &[u64], interrupt: &[bool], exclusion: &[Vec<u32>], n_teps: usize) -> Dealt {
        let mut report = CycleReport {
            fired: (0..costs.len()).map(TransitionId::from_index).collect(),
            transition_cycles: costs.to_vec(),
            ..CycleReport::default()
        };
        let mut tep_load = Vec::new();
        schedule(&mut report, interrupt, exclusion, n_teps, &mut Vec::new(), &mut tep_load);
        Dealt {
            assigned_tep: report.assigned_tep,
            makespan: tep_load.iter().copied().max().unwrap_or(0),
            interrupt_latency: report.interrupt_latency,
        }
    }

    #[test]
    fn schedule_deals_round_robin_and_never_splits_a_routine() {
        let free = vec![Vec::new(); 3];
        let s = deal(&[492, 36, 492], &[false; 3], &free, 2);
        assert_eq!(s.assigned_tep, [0, 1, 0]);
        assert_eq!(s.makespan, 984, "both long routines land on TEP 0");
        assert_eq!(s.interrupt_latency, None);
        let s = deal(&[492, 492, 36], &[false; 3], &free, 2);
        assert_eq!(s.assigned_tep, [0, 1, 0]);
        assert_eq!(s.makespan, 528, "more than half the 1 020 total");
        let s = deal(&[492, 36, 492], &[false; 3], &free, 1);
        assert_eq!((s.assigned_tep, s.makespan), (vec![0, 0, 0], 1_020));
        let s = deal(&[], &[], &[], 2);
        assert_eq!((s.assigned_tep, s.makespan, s.interrupt_latency), (vec![], 0, None));
    }

    #[test]
    fn schedule_deals_interrupt_transitions_first() {
        let free = vec![Vec::new(); 4];
        // Transitions 1 and 3 are interrupt-priority: dealt first, in
        // firing order, then 0 and 2.
        let s = deal(&[10, 20, 30, 40], &[false, true, false, true], &free, 2);
        assert_eq!(s.assigned_tep, [0, 0, 1, 1]);
        assert_eq!(s.makespan, 70);
        // Every interrupt routine has completed once TEP 1's 40 has run.
        assert_eq!(s.interrupt_latency, Some(overhead::SLA + 40));
        let s = deal(&[10, 20, 30, 40], &[false, true, false, true], &free, 1);
        assert_eq!(s.interrupt_latency, Some(overhead::SLA + 60), "20 then 40 on one TEP");
    }

    #[test]
    fn schedule_co_locates_exclusion_partners() {
        // 0 and 3 exclude each other; round-robin alone would put 3 on
        // TEP 1.
        let exclusion = vec![vec![3], vec![], vec![], vec![0]];
        let s = deal(&[5, 6, 7, 8], &[false; 4], &exclusion, 2);
        assert_eq!(s.assigned_tep, [0, 1, 0, 0]);
        assert_eq!(s.makespan, 20);
        // The partner dealt first decides: with 3 interrupt-priority,
        // the deal is 3, 0, 1, 2, and 0 follows 3 onto TEP 0 although
        // its turn was TEP 1.
        let mut interrupt = [false; 4];
        interrupt[3] = true;
        let s = deal(&[5, 6, 7, 8], &interrupt, &exclusion, 2);
        assert_eq!(s.assigned_tep, [0, 0, 1, 0]);
        assert_eq!(s.makespan, 19);
        // On one TEP there is nothing to co-locate.
        let s = deal(&[5, 6, 7, 8], &[false; 4], &exclusion, 1);
        assert_eq!(s.makespan, 26);
    }

    #[test]
    fn stats_accumulate() {
        let sys = compiled(PscpArch::md16_unoptimized());
        let mut m = PscpMachine::new(&sys);
        let mut env = ScriptedEnvironment::new(vec![vec!["TICK"], vec![], vec!["TICK"]]);
        for _ in 0..3 {
            m.step(&mut env).unwrap();
        }
        let s = m.stats();
        assert_eq!(s.config_cycles, 3);
        assert_eq!(s.transitions, 2);
        assert_eq!(s.clock_cycles, m.now());
        assert!(s.max_cycle_length > overhead::SLA);
    }
}
