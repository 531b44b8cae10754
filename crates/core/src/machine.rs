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
//! same TEP (the "additional decode logic" of §4).

use crate::compile::{ArgSpec, CompiledSystem};
use pscp_action_lang::interp::Host;
use pscp_obs::vcd::{SignalId, VcdWriter};
use pscp_statechart::semantics::{ActionSite, EffectSink, Executor};
use pscp_statechart::{ConditionId, EventId, StateId, TransitionId};
use pscp_tep::machine::{TepError, TepMachine};
use pscp_tep::TepDataState;
use std::fmt;
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
/// The script is consumed as it is replayed: each cycle's entry is
/// handed to the machine by move, leaving an empty `Vec` behind.
/// Re-running a script requires a fresh environment.
#[derive(Debug, Clone, Default)]
pub struct ScriptedEnvironment {
    /// `script[i]` = events for the i-th configuration cycle.
    pub script: Vec<Vec<String>>,
    cursor: usize,
    /// Recorded port writes `(address, value, cycle)`.
    pub port_writes: Vec<(u16, i64, u64)>,
}

impl ScriptedEnvironment {
    /// Creates a scripted environment.
    pub fn new<I, S>(script: I) -> Self
    where
        I: IntoIterator,
        I::Item: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ScriptedEnvironment {
            script: script
                .into_iter()
                .map(|evs| evs.into_iter().map(Into::into).collect())
                .collect(),
            cursor: 0,
            port_writes: Vec::new(),
        }
    }
}

impl Environment for ScriptedEnvironment {
    fn sample_events(&mut self, _now: u64) -> Vec<String> {
        let out = self.script.get_mut(self.cursor).map(std::mem::take).unwrap_or_default();
        self.cursor += 1;
        out
    }

    fn port_write(&mut self, address: u16, value: i64, now: u64) {
        self.port_writes.push((address, value, now));
    }

    fn quiet_sample(&mut self, _now: u64) -> bool {
        if self.script.get(self.cursor).is_some_and(|row| !row.is_empty()) {
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

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        t: u64,
        exec: &Executor<'_>,
        sampled: &[EventId],
        tep_load: &[u64],
        timers: &[Option<u64>],
        report: &CycleReport,
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
        self.writer.change(self.cycle_len, report.cycle_length);
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
    /// Set after a cycle that started with no sampled or pending
    /// internal events, fired nothing and left no timer expiry pending:
    /// the chart's inputs are then unchanged, so an empty sample makes
    /// the next cycle idle too ([`PscpMachine::quiet_step`]). Between
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
    /// at zero, timers disarmed — while reusing every allocation (the
    /// executor's selection tables and scratch, the TEP memory image,
    /// the step scratch buffers), so resetting allocates nothing. A
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
    /// consulted for port reads/writes during routine execution. The
    /// state-space explorer ([`crate::explore()`]) expands a state under
    /// an input symbol this way.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] when a routine faults.
    pub fn step_injected<E: Environment>(
        &mut self,
        events: &[EventId],
        env: &mut E,
    ) -> Result<CycleReport, MachineError> {
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

    /// Runs one configuration cycle against the environment.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] when a routine faults (divide by zero,
    /// memory fault, cycle-limit).
    pub fn step<E: Environment>(&mut self, env: &mut E) -> Result<CycleReport, MachineError> {
        let _step_span = pscp_obs::trace::span_sampled("step", self.stats.config_cycles);
        if let Some(report) = self.quiet_step(env) {
            return Ok(report);
        }
        self.sample_phase(env);
        self.execute_phase(env)
    }

    /// Runs the next configuration cycle as a quiet one, if it is: the
    /// machine is quiet and `env` takes an empty sample
    /// ([`Environment::quiet_sample`]). The chart then sees exactly the
    /// inputs of the last cycle, which fired nothing, so the cycle is
    /// idle and completes by [`idle_phase`](Self::idle_phase) without
    /// sampling, name resolution or transition selection. Returns
    /// `None`, having touched nothing, when the cycle must be sampled.
    fn quiet_step<E: Environment>(&mut self, env: &mut E) -> Option<CycleReport> {
        if !(self.quiet && env.quiet_sample(self.now)) {
            return None;
        }
        // Quiet implies the last cycle's event set, which `idle_phase`
        // re-reads for the VCD probe, was empty and nothing is pending.
        debug_assert!(self.scratch.events.is_empty() && self.pending_timer_events.is_empty());
        pscp_obs::metrics::MACHINE_QUIET_CYCLES.inc();
        Some(self.idle_phase())
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
        for name in env.sample_events(self.now) {
            if let Some(e) = self.system.selection.event_names().get(&name) {
                events.push(e);
            }
        }
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
    fn execute_phase<E: Environment>(
        &mut self,
        env: &mut E,
    ) -> Result<CycleReport, MachineError> {
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

        // The report's vectors are the cycle's only allocations, each
        // sized exactly; an idle cycle's stay empty and allocate nothing.
        let fired = step.fired.clone();
        let mut transition_cycles = Vec::with_capacity(fired.len());
        for &tid in &fired {
            let cost = std::mem::take(&mut per_transition[tid.index()]);
            transition_cycles.push(cost + overhead::DISPATCH + overhead::WRITEBACK);
        }

        // 5. Timing: round-robin makespan over the TEPs, with mutual
        //    exclusion forcing conflicting transitions onto one TEP and
        //    interrupt-priority transitions dispatched first (§6
        //    extension; no-op when no events are marked as interrupts).
        let n = system.arch.n_teps.max(1) as usize;
        order.clear();
        order.extend(0..fired.len());
        order.sort_by_key(|&i| (!tables.interrupt[fired[i].index()], i));

        tep_load.clear();
        tep_load.resize(n, 0);
        let mut assigned_tep = vec![0u8; fired.len()];
        let mut interrupt_latency: Option<u64> = None;
        for (k, &i) in order.iter().enumerate() {
            let tid = fired[i];
            let mut tep = k % n;
            // Mutual exclusion: co-locate with the first earlier
            // conflicting transition.
            if n > 1 {
                let partners = &tables.exclusion[tid.index()];
                if !partners.is_empty() {
                    for &j in &order[..k] {
                        if partners.binary_search(&(fired[j].index() as u32)).is_ok() {
                            tep = assigned_tep[j] as usize;
                            break;
                        }
                    }
                }
            }
            tep_load[tep] += transition_cycles[i];
            assigned_tep[i] = tep as u8;
            if tables.interrupt[tid.index()] {
                let done = overhead::SLA + tep_load[tep];
                interrupt_latency =
                    Some(interrupt_latency.map_or(done, |cur| cur.max(done)));
            }
        }
        let makespan = tep_load.iter().copied().max().unwrap_or(0);
        let cycle_length = if fired.is_empty() {
            overhead::SLA + overhead::IDLE
        } else {
            overhead::SLA + makespan
        };

        // 6. Raised events become visible next cycle (the executor holds
        //    them in the CR's event part).
        let report = CycleReport {
            fired,
            transition_cycles,
            assigned_tep,
            cycle_length,
            raised: step.raised.clone(),
            interrupt_latency,
        };

        // 6b. Hardware timers: apply arm/disarm writes; closing the
        //     cycle advances them.
        for &(i, v) in timer_writes.iter() {
            self.timers[i] = if v == 0 { None } else { Some(v) };
        }

        // 7. Book-keeping.
        self.close_cycle(&report);
        Ok(report)
    }

    /// Completes a quiet cycle ([`quiet_step`](Self::quiet_step)),
    /// which is idle by construction. Bit-identical to
    /// [`execute_phase`](Self::execute_phase) on an idle cycle (same
    /// report, clock advance, timer decrement, statistics and VCD
    /// sample) but skips transition selection, the condition snapshot
    /// and the per-transition buffers entirely. The executor re-checks
    /// the idle claim in debug builds (`Executor::step_idle`).
    fn idle_phase(&mut self) -> CycleReport {
        self.exec.step_idle(&self.scratch.events);

        let report = CycleReport {
            cycle_length: overhead::SLA + overhead::IDLE,
            ..Default::default()
        };

        // No routine ran, so no timer was armed or disarmed.
        self.close_cycle(&report);
        report
    }

    /// Closes a completed cycle, whichever phase completed it: timers
    /// advance by the cycle just spent (expiries fire next cycle), the
    /// quiet flag, clock, statistics and counters take the cycle in,
    /// and an attached VCD probe samples it.
    fn close_cycle(&mut self, report: &CycleReport) {
        let tables = &self.system.tables;
        for (i, t) in self.timers.iter_mut().enumerate() {
            if let Some(rem) = t {
                if *rem <= report.cycle_length {
                    if let Some(e) = tables.timer_event[i] {
                        self.pending_timer_events.push(e);
                    }
                    *t = None;
                } else {
                    *rem -= report.cycle_length;
                }
            }
        }

        self.quiet &= report.fired.is_empty() && self.pending_timer_events.is_empty();
        self.now += report.cycle_length;
        self.stats.config_cycles += 1;
        self.stats.transitions += report.fired.len() as u64;
        self.stats.clock_cycles += report.cycle_length;
        self.stats.max_cycle_length = self.stats.max_cycle_length.max(report.cycle_length);
        for (i, &t) in report.assigned_tep.iter().enumerate() {
            self.stats.tep_busy[t as usize] += report.transition_cycles[i];
        }
        pscp_obs::metrics::MACHINE_STEPS.inc();
        pscp_obs::metrics::MACHINE_TRANSITIONS.add(report.fired.len() as u64);
        if let Some(probe) = self.vcd.as_deref_mut() {
            let StepScratch { events, tep_load, .. } = &mut self.scratch;
            if report.fired.is_empty() {
                // Every TEP idled; an idle phase never sized the loads.
                tep_load.clear();
                tep_load.resize(self.system.arch.n_teps.max(1) as usize, 0);
            }
            probe.record(self.now, &self.exec, events, tep_load, &self.timers, report);
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
        reused.reset();
        assert_eq!(reused.now(), 0);
        assert_eq!(reused.stats().config_cycles, 0);
        assert_eq!(run(&mut reused), reference);
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
