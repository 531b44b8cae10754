//! Exhaustive state-space exploration over the compiled system.
//!
//! The paper's reactive systems are finite-state by construction — a
//! statechart configuration, the CR's event/condition bits, the
//! hardware timers and the TEP data memory together bound the whole
//! state space — which makes exhaustive reachability tractable.
//! [`explore`] runs a breadth-first search over *semantic states*
//! ([`SemanticState`]): the initial machine is captured, every
//! reachable state is expanded under a finite input alphabet (the
//! empty event set plus each external event alone), and successors are
//! deduplicated by state equality in a visited table hashed by a
//! seedless word-at-a-time hasher.
//!
//! The table is collapse-compressed, as SPIN compresses its state
//! vectors: a state's TEP data memory — the bulk of it, ~10 KB on a
//! wide chart — is stored once per distinct content in a plane table,
//! and the visited key holds the small control part (configuration,
//! conditions, timers, pending events) plus that plane's id. Ids are
//! assigned by content, so key equality is exactly state equality.
//! Most cycles run no routine and leave the plane as it was; such a
//! successor reuses its source's id without copying or hashing the
//! plane, and only a cycle in which a routine ran has its plane
//! interned by content.
//!
//! Expansion has one path. A frontier layer is flattened into
//! `(frontier index, symbol index)` jobs that reference the layer
//! instead of copying it, and the pool's worker loop
//! (`pool::stream_chunks`) fans them out in `EXPAND_CHUNK`-job chunks
//! to workers that each restore-and-step one scalar [`PscpMachine`], on
//! the selection tables compiled into the system. A
//! worker restores a data plane only when its TEP memory does not
//! already hold it untouched ([`pscp_tep::TepMachine::data_touched`]),
//! so the jobs of one source — consecutive in a chunk — load its plane
//! once. Results stream back and are merged *sequentially in job order*
//! while the workers expand at most `EXPAND_AHEAD` chunks each ahead,
//! so the successors alive at once are bounded by the pool, not by the
//! layer, and the report is byte-identical for any worker count; the
//! explore differential suite pins that against the one-worker run and
//! a brute-force enumeration. `ExploreOptions::gang` is ignored.
//!
//! The report covers:
//!
//! * **deadlocks** — states every input symbol maps back to themselves;
//! * **unreachable states / transitions** — chart elements no explored
//!   state activates or edge fires;
//! * **bounded safety predicates** ([`Predicate`]) — an event is never
//!   raised by a routine, a state is never entered — each violation
//!   carrying a minimal-length counterexample (BFS order guarantees
//!   minimality);
//! * **routine faults** reached during expansion.
//!
//! Every witness is a trace of injected event sets from the initial
//! state plus the canonical encoding ([`encode_state`]) of the state it
//! claims to reach; [`replay`] re-executes the trace on a fresh machine
//! and returns the key it actually lands on, so witnesses are checkable
//! byte-for-byte. Canonical keys — and the full states they encode,
//! rebuilt from a visited key and its plane — are built only for
//! witnesses (and so for the wire), never per edge: `encode_state` is
//! injective, so deduplicating on state equality is deduplicating on
//! key equality.
//! This is sound because [`SemanticState`] captures *everything* the
//! next cycle's behaviour depends on — clock and statistics are
//! excluded precisely because they cannot influence it.

use crate::compile::CompiledSystem;
use crate::machine::{
    ControlPart, CycleReport, MachineError, NullEnvironment, PscpMachine, SemanticState,
};
use crate::pool::{configured_threads, stream_chunks};
use crate::serve::wire::{self, wire_struct, Dec, Enc, Wire, WireError};
use pscp_statechart::semantics::ControlState;
use pscp_statechart::{EventId, StateId};
use pscp_tep::TepDataState;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// Version prefix of the canonical state encoding; bumped when the
/// layout changes.
pub const STATE_KEY_VERSION: u8 = 1;

// --- Hashing -------------------------------------------------------------------

const FNV64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a streaming hasher. Deterministic (no per-process
/// seed), dependency-free and byte-at-a-time, so its digests are a
/// stable function of the bytes alone — suitable for pinning golden
/// values and digesting canonical encodings.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV64_BASIS)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }
}

/// Odd multiplier of the word fold (the FxHash constant).
const WORD_K: u64 = 0x517c_c1b7_2722_0a95;

/// Independent fold chains a long [`WordHasher::write`] interleaves, so
/// consecutive multiplies overlap instead of each waiting on the last.
const LANES: usize = 4;

/// One rotate-xor-multiply step: a bijection of `h` for a fixed `word`.
#[inline]
fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(WORD_K)
}

#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// The visited and plane tables' hasher: seedless and word-at-a-time —
/// every 8 bytes cost one rotate-xor-multiply, so hashing an `i64`
/// memory plane costs one multiply per word instead of one per byte,
/// and long writes spread their words over [`LANES`] chains that run
/// in parallel. Each fold is a bijection of its chain for a fixed word
/// and the chains fold back into the running state in order, so inputs
/// differing in one word never collide; `finish` avalanches the result
/// so the table's bucket (low) and tag (high) bits both depend on
/// every word.
#[derive(Debug, Clone, Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = fold(self.0, word);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // murmur3's 64-bit finaliser.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut blocks = bytes.chunks_exact(8 * LANES);
        if bytes.len() >= 8 * LANES {
            let mut lanes: [u64; LANES] = std::array::from_fn(|i| self.0.wrapping_add(i as u64));
            for block in &mut blocks {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = fold(*lane, le_word(&block[8 * i..8 * i + 8]));
                }
            }
            for lane in lanes {
                self.fold(lane);
            }
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for w in &mut words {
            self.fold(le_word(w));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(w));
        }
        // Zero-padding the tail would let `[0]` and `[0, 0]` share a
        // word; folding the length keeps them apart.
        self.fold(bytes.len() as u64);
    }
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

/// [`BuildHasher`] for the visited and plane tables.
#[derive(Debug, Clone, Default)]
struct BuildWordHasher;

impl BuildHasher for BuildWordHasher {
    type Hasher = WordHasher;
    fn build_hasher(&self) -> WordHasher {
        WordHasher::default()
    }
}

// --- Canonical state encoding ------------------------------------------------

/// Each bitmap is its `u32` length, then one bit per flag packed
/// low-bit first; `history` stores each entry as its index plus one,
/// with 0 for `None`.
impl Wire for ControlState {
    const MIN_BYTES: usize = 4 + 4 + <Vec<EventId>>::MIN_BYTES + 4;
    fn enc(&self, e: &mut Enc) {
        for bits in [&self.active, &self.conditions] {
            e.u32(bits.len() as u32);
            for byte in bits.chunks(8) {
                e.u8(byte.iter().rev().fold(0, |acc, &b| acc << 1 | u8::from(b)));
            }
        }
        self.pending_internal.enc(e);
        e.u32(self.history.len() as u32);
        for h in &self.history {
            e.u32(h.map_or(0, |st| st.index() as u32 + 1));
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let mut bitmap = || -> Result<Vec<bool>, WireError> {
            let n = u32::dec(d)? as usize;
            let bytes = d.take(n.div_ceil(8))?;
            Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
        };
        let (active, conditions) = (bitmap()?, bitmap()?);
        let pending_internal = Wire::dec(d)?;
        let n = d.count(u32::MIN_BYTES)?;
        let mut history = Vec::with_capacity(n);
        for _ in 0..n {
            history.push(u32::dec(d)?.checked_sub(1).map(|i| StateId::from_index(i as usize)));
        }
        Ok(ControlState { active, conditions, pending_internal, history })
    }
}

wire_struct!(TepDataState { acc: i64, op: i64, regs: Vec<i64>, iram: Vec<i64>, xram: Vec<i64> });
wire_struct!(SemanticState [STATE_KEY_VERSION, "unknown state-key version"] {
    control: ControlState,
    timers: Vec<Option<u64>>,
    pending_timer_events: Vec<EventId>,
    data: TepDataState,
});

/// Canonical, injective serialisation of a [`SemanticState`] — the
/// *state key* witnesses carry and the wire transports. Injective by
/// construction: every field is length-prefixed and decoded
/// unambiguously, so [`decode_state`]∘`encode_state` is the identity
/// (pinned by proptest), and distinct states can never share bytes —
/// which is why the explorer may dedup on state equality instead.
pub fn encode_state(s: &SemanticState) -> Vec<u8> {
    // The data planes dominate a key: reserve them up front so the
    // buffer is not regrown while they are copied in.
    let planes = s.data.regs.len() + s.data.iram.len() + s.data.xram.len();
    let mut e = Enc { buf: Vec::with_capacity(8 * planes + 64) };
    s.enc(&mut e);
    e.buf
}

/// Decodes a canonical state key back into a [`SemanticState`].
///
/// # Errors
///
/// Returns [`WireError`] on an unknown version, truncation, or
/// trailing bytes.
pub fn decode_state(bytes: &[u8]) -> Result<SemanticState, WireError> {
    wire::decode(bytes)
}

// --- Predicates, witnesses, report --------------------------------------------

/// A bounded safety predicate checked on every explored state/edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Violated when any reachable configuration cycle's routines
    /// raise the named event.
    EventNeverRaised(String),
    /// Violated when the named state is active in any reachable state
    /// (a state invariant: "never enter `Fault`").
    StateNeverActive(String),
}

impl Predicate {
    /// The event/state name the predicate watches.
    pub fn name(&self) -> &str {
        match self {
            Predicate::EventNeverRaised(n) | Predicate::StateNeverActive(n) => n,
        }
    }
}

/// A checkable counterexample: the injected event set of every cycle
/// from the initial state, plus the canonical key of the state the
/// trace claims to reach. [`replay`] verifies the claim.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Witness {
    /// Canonical encoding ([`encode_state`]) of the claimed state.
    pub state_key: Vec<u8>,
    /// `trace[i]` = external event indices injected on cycle `i`.
    pub trace: Vec<Vec<u32>>,
}

/// One violated safety predicate with its minimal counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The predicate that failed.
    pub predicate: Predicate,
    /// Minimal-length trace to the violating state (BFS order).
    pub witness: Witness,
}

/// The result of one exploration. Canonically serialisable
/// ([`crate::serve::wire::encode_explore_report`]) — the differential
/// and wire suites compare reports byte-for-byte through that
/// encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct reachable states discovered (including the initial).
    pub states: u64,
    /// Edges expanded (`frontier state × alphabet symbol` cycles run).
    pub edges: u64,
    /// Successor states already in the visited set.
    pub dedup_hits: u64,
    /// Depth (trace length) of the deepest state discovered.
    pub depth: u32,
    /// True when `max_states` or `max_depth` cut the search short —
    /// absence claims (unreachable, deadlock-free) are then bounded,
    /// not exhaustive.
    pub truncated: bool,
    /// States every alphabet symbol maps back to themselves, capped at
    /// `max_witnesses`.
    pub deadlocks: Vec<Witness>,
    /// Chart states never active in any explored state, in declaration
    /// order.
    pub unreachable_states: Vec<String>,
    /// Transition indices never fired on any explored edge, ascending.
    pub unreachable_transitions: Vec<u32>,
    /// Violated predicates, one minimal witness each, in predicate
    /// declaration order.
    pub violations: Vec<Violation>,
    /// Routine faults reached during expansion: rendered error plus
    /// the trace that triggers it, capped at `max_witnesses`.
    pub faults: Vec<(String, Witness)>,
}

/// Exploration limits and fan-out configuration.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Stop discovering new states past this many (`0` = just the
    /// initial state).
    pub max_states: u64,
    /// Maximum trace length explored.
    pub max_depth: u32,
    /// Cap on reported deadlock/fault witnesses.
    pub max_witnesses: u32,
    /// Worker threads for frontier expansion.
    pub threads: usize,
    /// Ignored: exploration expands on scalar machines whatever its
    /// value. Kept only because `pscp-benchmark` sets it.
    pub gang: usize,
    /// Safety predicates to check.
    pub predicates: Vec<Predicate>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 1_000_000,
            max_depth: u32::MAX,
            max_witnesses: 16,
            threads: configured_threads(),
            gang: 1,
            predicates: Vec::new(),
        }
    }
}

impl ExploreOptions {
    /// Defaults overridden by `PSCP_EXPLORE_MAX_STATES`,
    /// `PSCP_EXPLORE_MAX_DEPTH` and `PSCP_EXPLORE_WITNESSES` (threads
    /// follow `PSCP_THREADS` as everywhere else). Unparsable values
    /// keep the default.
    pub fn from_env() -> Self {
        fn parse<T: std::str::FromStr>(var: &str) -> Option<T> {
            std::env::var(var).ok()?.trim().parse().ok()
        }
        let mut o = ExploreOptions::default();
        if let Some(v) = parse("PSCP_EXPLORE_MAX_STATES") {
            o.max_states = v;
        }
        if let Some(v) = parse("PSCP_EXPLORE_MAX_DEPTH") {
            o.max_depth = v;
        }
        if let Some(v) = parse("PSCP_EXPLORE_WITNESSES") {
            o.max_witnesses = v;
        }
        o
    }
}

// --- The explorer --------------------------------------------------------------

/// What the visited table is keyed on: a state's control part and the
/// id of its interned data plane. Planes are interned by content, so
/// two keys are equal exactly when their [`SemanticState`]s are.
#[derive(Clone, PartialEq, Eq, Hash)]
struct StateKey {
    part: ControlPart,
    data: u32,
}

/// A discovered state in a frontier layer: its key, plus the data plane
/// the key's id stands for, shared with the plane table.
struct Node {
    key: StateKey,
    plane: Arc<TepDataState>,
}

impl Node {
    /// The full state, for a witness.
    fn state(&self) -> SemanticState {
        self.key.part.with_data(&self.plane)
    }
}

/// One expanded edge: the successor's control part, its data plane
/// when a routine ran (`None`: the source's plane, untouched), and the
/// cycle's report.
struct Successor {
    part: ControlPart,
    plane: Option<TepDataState>,
    report: CycleReport,
}

/// Jobs per expansion chunk: a worker's unit of claiming and of handing
/// results back. Fixed, so chunk composition is pinned by the job list
/// alone, whatever the worker count.
const EXPAND_CHUNK: usize = 64;

/// Chunks an expansion worker may have expanded but the merge not yet
/// taken, per worker: enough to keep every worker busy while the merge
/// catches up, few enough that a chunk's results are still in cache
/// when it is merged.
const EXPAND_AHEAD: usize = 4;

/// An expansion worker: one scalar machine that remembers which data
/// plane its TEP memory holds, so consecutive jobs from one source —
/// or from sources sharing a plane — restore it once.
struct Expander<'s> {
    machine: PscpMachine<'s>,
    /// Id of the plane last restored into the TEP memory; the memory
    /// still holds it while `data_touched` is clear.
    loaded: Option<u32>,
}

impl<'s> Expander<'s> {
    fn new(system: &'s CompiledSystem) -> Self {
        Expander { machine: PscpMachine::new(system), loaded: None }
    }

    /// Restores `src`, injects `symbol` and runs one configuration
    /// cycle. The data plane is restored only when the memory does not
    /// already hold it untouched, and captured only when a routine ran.
    fn expand(&mut self, src: &Node, symbol: &[EventId]) -> Result<Successor, MachineError> {
        let m = &mut self.machine;
        m.restore_control(&src.key.part);
        if self.loaded != Some(src.key.data) || m.tep().data_touched() {
            m.restore_data(&src.plane);
            self.loaded = Some(src.key.data);
        }
        let report = m.step_injected(symbol, &mut NullEnvironment)?;
        let plane = m.tep().data_touched().then(|| m.tep().data_state());
        Ok(Successor { part: m.capture_control(), plane, report })
    }
}

/// Reconstructs the trace to `idx` by walking the parent chain, then
/// appends the alphabet symbol `then` when given — the trace of the
/// edge `idx --then-->`.
fn trace_to(
    parents: &[(u32, u32)],
    alphabet: &[Vec<EventId>],
    mut idx: u32,
    then: Option<usize>,
) -> Vec<Vec<u32>> {
    let mut rev: Vec<u32> = then.map(|sym| sym as u32).into_iter().collect();
    while idx != 0 {
        let (parent, sym) = parents[idx as usize];
        rev.push(sym);
        idx = parent;
    }
    rev.reverse();
    rev.into_iter()
        .map(|sym| alphabet[sym as usize].iter().map(|e| e.index() as u32).collect())
        .collect()
}

/// Folds a state's active-state bitmap into the running union.
fn mark_active(union: &mut [bool], active: &[bool]) {
    for (u, &a) in union.iter_mut().zip(active) {
        *u |= a;
    }
}

/// The exploration input alphabet: the empty event set plus each
/// external (non-internal) event alone, in declaration order.
pub fn alphabet(system: &CompiledSystem) -> Vec<Vec<EventId>> {
    let chart = &system.chart;
    std::iter::once(Vec::new())
        .chain(chart.event_ids().filter(|&e| !chart.event(e).internal).map(|e| vec![e]))
        .collect()
}

/// Breadth-first reachability over the compiled system's semantic
/// state space. Deterministic: the report is byte-identical (through
/// [`crate::serve::wire::encode_explore_report`]) for any
/// `opts.threads`; `opts.gang` is ignored.
pub fn explore(system: &CompiledSystem, opts: &ExploreOptions) -> ExploreReport {
    let started = std::time::Instant::now();
    let _span = pscp_obs::trace::span("explore");
    let chart = &system.chart;
    let alphabet = alphabet(system);
    let threads = opts.threads.max(1);

    let mut report = ExploreReport::default();
    // The data planes of the visited states, each interned once under
    // an id assigned in discovery order.
    let mut planes: HashMap<Arc<TepDataState>, u32, BuildWordHasher> = HashMap::default();
    // Every visited state, deduplicated by key equality — a set that
    // uses the map's entry API so an edge costs one hash. Canonical
    // keys are encoded only where a witness needs one.
    let mut visited: HashMap<StateKey, (), BuildWordHasher> = HashMap::default();
    // Parent pointers: `parents[i]` = (parent state index, alphabet
    // symbol index) of the BFS tree edge that discovered state `i`.
    let mut parents: Vec<(u32, u32)> = Vec::new();
    let mut active_union = vec![false; chart.state_count()];
    let mut fired_union = vec![false; chart.transition_count()];
    // Predicates stop checking after their first (minimal) violation.
    let mut violated = vec![false; opts.predicates.len()];
    let mut violations: Vec<(usize, Witness)> = Vec::new();

    let root = {
        let machine = PscpMachine::new(system);
        let key = StateKey { part: machine.capture_control(), data: 0 };
        Node { key, plane: Arc::new(machine.tep().data_state()) }
    };
    planes.insert(Arc::clone(&root.plane), 0);
    parents.push((0, 0));
    let root_active = &root.key.part.control.active;
    mark_active(&mut active_union, root_active);
    for (pi, p) in opts.predicates.iter().enumerate() {
        if let Predicate::StateNeverActive(name) = p {
            if chart.state_by_name(name).is_some_and(|s| root_active[s.index()]) {
                violated[pi] = true;
                let state_key = encode_state(&root.state());
                violations.push((pi, Witness { state_key, trace: Vec::new() }));
            }
        }
    }
    visited.insert(root.key.clone(), ());

    // The BFS layer being expanded: its states carry the consecutive
    // discovery indices `base..base + frontier.len()`.
    let mut frontier: Vec<Node> = vec![root];
    let mut base: u32 = 0;
    let mut layer: u32 = 0;

    while !frontier.is_empty() {
        if layer >= opts.max_depth {
            report.truncated = true;
            break;
        }
        pscp_obs::metrics::EXPLORE_FRONTIER.record(frontier.len() as u64);

        // Flatten the layer into `(frontier index, symbol index)` jobs:
        // every frontier state × every alphabet symbol, in order — the
        // merge below consumes results in this exact order, which is
        // what pins determinism.
        let jobs: Vec<(u32, u32)> = (0..frontier.len() as u32)
            .flat_map(|f| (0..alphabet.len() as u32).map(move |si| (f, si)))
            .collect();

        let next_base = visited.len() as u32;
        let mut next: Vec<Node> = Vec::new();
        let mut merged = 0usize;
        let mut all_self = true;
        let expand = |expander: &mut Expander<'_>, chunk: Vec<(u32, u32)>| -> Vec<_> {
            chunk
                .into_iter()
                .map(|(f, si)| expander.expand(&frontier[f as usize], &alphabet[si as usize]))
                .collect()
        };
        let workers = |_| Expander::new(system);
        let merge = |result: Result<Successor, MachineError>| {
            let (f, si) = (merged / alphabet.len(), merged % alphabet.len());
            merged += 1;
            let src = &frontier[f];
            let src_idx = base + f as u32;
            if si == 0 {
                all_self = true;
            }
            report.edges += 1;
            match result {
                Err(e) => {
                    all_self = false;
                    if (report.faults.len() as u32) < opts.max_witnesses {
                        report.faults.push((
                            e.to_string(),
                            Witness {
                                state_key: encode_state(&src.state()),
                                trace: trace_to(&parents, &alphabet, src_idx, Some(si)),
                            },
                        ));
                    }
                }
                Ok(Successor { part, plane, report: cycle }) => {
                    for &t in &cycle.fired {
                        fired_union[t.index()] = true;
                    }
                    // The successor's plane: the source's when no
                    // routine ran, else the interned plane with the
                    // content the routines left. A plane no visited
                    // state holds is new; it is interned, under the
                    // next id, only if the state is admitted.
                    let (data, plane, new_plane) = match plane {
                        None => (src.key.data, Arc::clone(&src.plane), false),
                        Some(p) => match planes.get_key_value(&p) {
                            Some((known, &id)) => (id, Arc::clone(known), false),
                            None => (planes.len() as u32, Arc::new(p), true),
                        },
                    };
                    let key = StateKey { part, data };
                    if all_self && key != src.key {
                        all_self = false;
                    }
                    // Predicates see every edge, including ones into
                    // truncated or already-visited states; BFS order
                    // makes this edge the end of a minimal trace either
                    // way.
                    for (pi, p) in opts.predicates.iter().enumerate() {
                        if violated[pi] {
                            continue;
                        }
                        let hit = match p {
                            Predicate::EventNeverRaised(name) => chart
                                .event_by_name(name)
                                .is_some_and(|e| cycle.raised.contains(&e)),
                            Predicate::StateNeverActive(name) => chart
                                .state_by_name(name)
                                .is_some_and(|s| key.part.control.active[s.index()]),
                        };
                        if hit {
                            violated[pi] = true;
                            violations.push((
                                pi,
                                Witness {
                                    state_key: encode_state(&key.part.with_data(&plane)),
                                    trace: trace_to(&parents, &alphabet, src_idx, Some(si)),
                                },
                            ));
                        }
                    }
                    // The key moves into the table; only a newly
                    // discovered state is cloned, into the next layer.
                    let room = (visited.len() as u64) < opts.max_states.max(1);
                    match visited.entry(key) {
                        Entry::Occupied(_) => report.dedup_hits += 1,
                        Entry::Vacant(slot) if room => {
                            if new_plane {
                                planes.insert(Arc::clone(&plane), data);
                            }
                            parents.push((src_idx, si as u32));
                            mark_active(&mut active_union, &slot.key().part.control.active);
                            next.push(Node { key: slot.key().clone(), plane });
                            slot.insert(());
                        }
                        Entry::Vacant(_) => report.truncated = true,
                    }
                }
            }
            if si + 1 == alphabet.len()
                && all_self
                && (report.deadlocks.len() as u32) < opts.max_witnesses
            {
                report.deadlocks.push(Witness {
                    state_key: encode_state(&src.state()),
                    trace: trace_to(&parents, &alphabet, src_idx, None),
                });
            }
        };
        stream_chunks(
            jobs.into_iter(),
            EXPAND_CHUNK,
            threads,
            EXPAND_AHEAD,
            workers,
            expand,
            merge,
        );
        if !next.is_empty() {
            layer += 1;
            report.depth = layer;
        }
        frontier = next;
        base = next_base;
    }

    report.states = visited.len() as u64;
    report.unreachable_states = chart
        .state_ids()
        .filter(|&s| !active_union[s.index()])
        .map(|s| chart.state(s).name.clone())
        .collect();
    report.unreachable_transitions = chart
        .transition_ids()
        .filter(|&t| !fired_union[t.index()])
        .map(|t| t.index() as u32)
        .collect();
    violations.sort_by_key(|&(pi, _)| pi);
    report.violations = violations
        .into_iter()
        .map(|(pi, witness)| Violation { predicate: opts.predicates[pi].clone(), witness })
        .collect();

    pscp_obs::metrics::EXPLORE_RUNS.inc();
    pscp_obs::metrics::EXPLORE_STATES.add(report.states);
    pscp_obs::metrics::EXPLORE_EDGES.add(report.edges);
    pscp_obs::metrics::EXPLORE_DEDUP_HITS.add(report.dedup_hits);
    pscp_obs::metrics::EXPLORE_DATA_PLANES.add(planes.len() as u64);
    pscp_obs::metrics::EXPLORE_DEADLOCKS.add(report.deadlocks.len() as u64);
    pscp_obs::metrics::EXPLORE_VIOLATIONS.add(report.violations.len() as u64);
    pscp_obs::metrics::EXPLORE_DEPTH.record(u64::from(report.depth));
    pscp_obs::metrics::EXPLORE_RUN_NS.record(started.elapsed().as_nanos() as u64);
    report
}

/// Replays a witness trace on a fresh machine and returns the
/// canonical key of the state it lands on — equal to the witness's
/// `state_key` iff the claim is exact.
///
/// # Errors
///
/// Propagates routine faults (a fault witness replays to the fault
/// itself).
pub fn replay(system: &CompiledSystem, trace: &[Vec<u32>]) -> Result<Vec<u8>, MachineError> {
    let mut machine = PscpMachine::new(system);
    let mut events: Vec<EventId> = Vec::new();
    for step in trace {
        events.clear();
        events.extend(step.iter().map(|&i| EventId::from_index(i as usize)));
        machine.step_injected(&events, &mut NullEnvironment)?;
    }
    Ok(encode_state(&machine.capture()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PscpArch;
    use crate::compile::compile_system;
    use pscp_statechart::{ChartBuilder, StateKind};
    use pscp_tep::codegen::CodegenOptions;

    fn toggle_system() -> CompiledSystem {
        let mut b = ChartBuilder::new("toggle");
        b.event("TICK", None);
        b.state("Top", StateKind::Or).contains(["Off", "On"]).default_child("Off");
        b.state("Off", StateKind::Basic).transition("On", "TICK");
        b.state("On", StateKind::Basic).transition("Off", "TICK");
        let chart = b.build().unwrap();
        compile_system(&chart, "", &PscpArch::dual_md16(true), &CodegenOptions::default())
            .unwrap()
    }

    fn word_hash(bytes: &[u8]) -> u64 {
        let mut h = BuildWordHasher.build_hasher();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn word_hasher_folds_a_short_tail() {
        // One full word plus a 3-byte tail; only the very last byte
        // differs, so the tail fold alone must tell them apart.
        let a = *b"state-key-a";
        let mut b = a;
        b[10] ^= 1;
        assert_ne!(word_hash(&a), word_hash(&b));
        assert_ne!(word_hash(&[1]), word_hash(&[2]));
    }

    #[test]
    fn word_hasher_folds_the_length() {
        assert_ne!(word_hash(&[0]), word_hash(&[0, 0]));
        assert_ne!(word_hash(&[]), word_hash(&[0; 8]));
        assert_ne!(word_hash(&[0; 8]), word_hash(&[0; 16]));
    }

    #[test]
    fn word_hasher_is_pinned() {
        // Seedless: the same bytes hash the same in every process.
        assert_eq!(word_hash(b"PSCP semantic state"), 0xe739_3625_9fe8_2540);
    }

    #[test]
    fn word_hasher_lanes_keep_word_order() {
        // 40 bytes: one four-lane block plus a serial word. Swapping
        // two words of the block moves them between lanes, and a
        // change to either part must reach the result.
        let a: Vec<u8> = (0..40).collect();
        let mut swapped = a.clone();
        swapped[..16].rotate_left(8);
        assert_ne!(word_hash(&a), word_hash(&swapped));
        for i in [0, 31, 32, 39] {
            let mut b = a.clone();
            b[i] ^= 0x80;
            assert_ne!(word_hash(&a), word_hash(&b), "byte {i}");
        }
        assert_eq!(word_hash(&a), 0x3f00_3f12_2f03_5721);
    }

    #[test]
    fn state_key_round_trips() {
        let system = toggle_system();
        let state = PscpMachine::new(&system).capture();
        let key = encode_state(&state);
        assert_eq!(decode_state(&key).unwrap(), state);
    }

    #[test]
    fn toggle_chart_has_two_states() {
        let system = toggle_system();
        let report = explore(
            &system,
            &ExploreOptions { threads: 1, gang: 1, ..ExploreOptions::default() },
        );
        assert_eq!(report.states, 2);
        assert!(!report.truncated);
        assert!(report.deadlocks.is_empty());
        assert!(report.unreachable_states.is_empty());
        assert!(report.unreachable_transitions.is_empty());
    }

    #[test]
    fn witnesses_replay_to_claimed_state() {
        let system = toggle_system();
        let report = explore(
            &system,
            &ExploreOptions {
                threads: 1,
                gang: 1,
                predicates: vec![Predicate::StateNeverActive("On".into())],
                ..ExploreOptions::default()
            },
        );
        assert_eq!(report.violations.len(), 1);
        let w = &report.violations[0].witness;
        assert_eq!(replay(&system, &w.trace).unwrap(), w.state_key);
        assert_eq!(w.trace.len(), 1, "BFS witness must be minimal");
    }

    #[test]
    fn max_states_truncates_deterministically() {
        let system = toggle_system();
        let opts =
            ExploreOptions { threads: 1, gang: 1, max_states: 0, ..ExploreOptions::default() };
        let report = explore(&system, &opts);
        assert!(report.truncated);
        assert_eq!(report.states, 1);
    }
}
