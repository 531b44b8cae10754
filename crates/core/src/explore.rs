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
//! and the visited key is the rest of the state packed into words
//! ([`PscpMachine::capture_words`]: active, condition and
//! pending-event bitmaps, the memory of `history` states, timers and
//! pending timer events — three words on the 98-state gang chart)
//! followed by that plane's id. The layout is fixed per system and ids
//! are assigned by content, so key equality is exactly state equality.
//! Most cycles run no routine and leave the plane as it was; such a
//! successor reuses its source's id without copying or hashing the
//! plane, and only a cycle in which a routine ran has its plane
//! interned by content.
//!
//! Expansion has one path. A frontier layer — its keys back to back in
//! one buffer — is numbered into `frontier index × symbol` jobs, and
//! the pool's worker loop (`pool::stream_chunks`) fans them out in
//! `EXPAND_CHUNK`-job chunks to workers that each restore-and-step one
//! scalar [`PscpMachine`], on the selection tables compiled into the
//! system. A worker restores a data plane only when its TEP memory does
//! not already hold it untouched ([`pscp_tep::TepMachine::data_touched`]),
//! so the jobs of one source — consecutive in a chunk — load its plane
//! once. A worker appends each edge's successor key, fired transitions
//! and raised events to its chunk's flat buffers, reading the last two
//! off its machine's report, so no per-edge allocation crosses threads;
//! the merge looks each successor up by the slice its chunk holds, and
//! only an admitted state allocates a key of its own. Chunks are merged
//! *sequentially in job order* while the workers expand at most
//! `EXPAND_AHEAD` chunks each ahead, so the successors alive at once
//! are bounded by the pool, not by the layer, and the report is
//! byte-identical for any worker count; the explore differential suite
//! pins that against the one-worker run and a brute-force enumeration.
//! `ExploreOptions::gang` is ignored. Predicates are resolved against
//! the chart once, before the search, and read the packed active bits
//! through [`Executor::packed_active`].
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
//! rebuilt by restoring a visited key and its plane into the merge's
//! own machine — are built only for witnesses (and so for the wire),
//! never per edge: the packed key and `encode_state` are both
//! injective, so deduplicating on one is deduplicating on the other.
//! This is sound because [`SemanticState`] captures *everything* the
//! next cycle's behaviour depends on — clock and statistics are
//! excluded precisely because they cannot influence it.

use crate::compile::CompiledSystem;
use crate::machine::{MachineError, NullEnvironment, PscpMachine, SemanticState};
use crate::pool::{configured_threads, stream_chunks};
use crate::serve::wire::{self, wire_struct, Dec, Enc, Wire, WireError};
use pscp_statechart::semantics::{ControlState, Executor};
use pscp_statechart::{Chart, EventId, StateId, TransitionId};
use pscp_tep::TepDataState;
use std::collections::{HashMap, HashSet};
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
/// low-bit first, so an input byte decodes to eight `bool`s; `history`
/// stores each entry as its index plus one, with 0 for `None`.
impl Wire for ControlState {
    const MIN_BYTES: usize = 4 + 4 + <Vec<EventId>>::MIN_BYTES + 4;
    const HEAP_PER_BYTE: usize = wire::most(&[
        8 * size_of::<bool>(),
        size_of::<Option<StateId>>().div_ceil(u32::MIN_BYTES),
        <Vec<EventId>>::HEAP_PER_BYTE,
    ]);
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

/// A visited key: a state's packed control words
/// ([`PscpMachine::capture_words`]) followed by the id of its interned
/// data plane. Planes are interned by content, so two keys are equal
/// exactly when their [`SemanticState`]s are.
type Key = [u64];

/// Splits a key into its packed control words and its plane id.
fn split_key(key: &Key) -> (&[u64], u32) {
    let (&data, words) = key.split_last().expect("a key ends in its plane id");
    (words, data as u32)
}

/// A BFS layer: its states' keys back to back, and per state the end of
/// its key and the data plane the key's id stands for, shared with the
/// plane table.
#[derive(Default)]
struct Layer {
    keys: Vec<u64>,
    nodes: Vec<(usize, Arc<TepDataState>)>,
}

impl Layer {
    fn push(&mut self, key: &Key, plane: Arc<TepDataState>) {
        self.keys.extend_from_slice(key);
        self.nodes.push((self.keys.len(), plane));
    }

    /// State `i`'s key and data plane.
    fn node(&self, i: usize) -> (&Key, &Arc<TepDataState>) {
        let start = i.checked_sub(1).map_or(0, |p| self.nodes[p].0);
        let (end, plane) = &self.nodes[i];
        (&self.keys[start..*end], plane)
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// How an expanded edge ended.
#[derive(Clone, Copy)]
enum Outcome {
    /// No routine ran: the successor holds its source's data plane,
    /// whose id already ends its key.
    Untouched,
    /// A routine ran: the successor's plane is the chunk's next one,
    /// and the merge writes its id into the key's last word.
    Touched,
    /// A routine faulted: the chunk's next fault. The edge has no key.
    Fault,
}

/// Where one edge's entries end in its chunk's buffers.
#[derive(Clone, Copy)]
struct EdgeEnd {
    key: usize,
    fired: usize,
    raised: usize,
    outcome: Outcome,
}

/// One chunk's expanded edges, edge after edge in flat buffers, so a
/// chunk crosses from its worker to the merge in a fixed handful of
/// allocations whatever its edge count.
#[derive(Default)]
struct Expanded {
    edges: Vec<EdgeEnd>,
    /// Successor keys.
    keys: Vec<u64>,
    /// Transitions each edge fired.
    fired: Vec<TransitionId>,
    /// Events each edge's routines raised.
    raised: Vec<EventId>,
    /// Data planes of the `Touched` edges, in edge order.
    planes: Vec<TepDataState>,
    /// Faults of the `Fault` edges, in edge order.
    faults: Vec<MachineError>,
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

    /// Restores the state `key` over `plane`, injects `symbol`, runs one
    /// configuration cycle and appends the edge to `out`, copying what
    /// it needs from the machine's report, which stays in the machine.
    /// The data plane is restored only when the memory does not already
    /// hold it untouched, and captured only when a routine ran.
    fn expand(&mut self, key: &Key, plane: &TepDataState, symbol: &[EventId], out: &mut Expanded) {
        let (words, data) = split_key(key);
        let m = &mut self.machine;
        m.restore_words(words);
        if self.loaded != Some(data) || m.tep().data_touched() {
            m.restore_data(plane);
            self.loaded = Some(data);
        }
        let outcome = match m.step_injected_in_place(symbol, &mut NullEnvironment) {
            Err(e) => {
                out.faults.push(e);
                Outcome::Fault
            }
            Ok(()) => {
                m.capture_words(&mut out.keys);
                out.fired.extend_from_slice(&m.report().fired);
                out.raised.extend_from_slice(&m.report().raised);
                if m.tep().data_touched() {
                    out.planes.push(m.tep().data_state());
                    out.keys.push(0);
                    Outcome::Touched
                } else {
                    out.keys.push(u64::from(data));
                    Outcome::Untouched
                }
            }
        };
        out.edges.push(EdgeEnd {
            key: out.keys.len(),
            fired: out.fired.len(),
            raised: out.raised.len(),
            outcome,
        });
    }
}

/// A predicate resolved against the chart once, before the search:
/// the event or state it watches, `None` for a name the chart lacks,
/// which never hits.
#[derive(Clone, Copy)]
enum Watch {
    Raised(Option<EventId>),
    Active(Option<StateId>),
}

impl Watch {
    fn new(chart: &Chart, p: &Predicate) -> Self {
        match p {
            Predicate::EventNeverRaised(name) => Watch::Raised(chart.event_by_name(name)),
            Predicate::StateNeverActive(name) => Watch::Active(chart.state_by_name(name)),
        }
    }

    /// Whether an edge whose routines raised `raised` into the state
    /// packed as `words` violates the predicate.
    fn hit(self, raised: &[EventId], words: &[u64]) -> bool {
        match self {
            Watch::Raised(e) => e.is_some_and(|e| raised.contains(&e)),
            Watch::Active(s) => s.is_some_and(|s| Executor::packed_active(words, s)),
        }
    }
}

/// The canonical key ([`encode_state`]) of the state `key` over `plane`,
/// rebuilt by restoring it into `canon`.
fn state_key(canon: &mut PscpMachine<'_>, key: &Key, plane: &TepDataState) -> Vec<u8> {
    canon.restore_words(split_key(key).0);
    canon.restore_data(plane);
    encode_state(&canon.capture())
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

/// Folds the active states of the state `key` into the running union.
fn mark_active(union: &mut [bool], key: &Key) {
    let words = split_key(key).0;
    for (s, u) in union.iter_mut().enumerate() {
        *u |= Executor::packed_active(words, StateId::from_index(s));
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
    let watches: Vec<Watch> = opts.predicates.iter().map(|p| Watch::new(chart, p)).collect();

    let mut report = ExploreReport::default();
    // The data planes of the visited states, each interned once under
    // an id assigned in discovery order.
    let mut planes: HashMap<Arc<TepDataState>, u32, BuildWordHasher> = HashMap::default();
    // Every visited state's key. An edge looks its successor up by the
    // slice its chunk holds, so only an admitted state allocates.
    // Canonical keys are encoded only where a witness needs one.
    let mut visited: HashSet<Box<Key>, BuildWordHasher> = HashSet::default();
    // Parent pointers: `parents[i]` = (parent state index, alphabet
    // symbol index) of the BFS tree edge that discovered state `i`.
    let mut parents: Vec<(u32, u32)> = Vec::new();
    let mut active_union = vec![false; chart.state_count()];
    let mut fired_union = vec![false; chart.transition_count()];
    // Predicates stop checking after their first (minimal) violation.
    let mut violated = vec![false; opts.predicates.len()];
    let mut violations: Vec<(usize, Witness)> = Vec::new();

    // The merge's own machine: it packs the root and rebuilds the full
    // state of every witness.
    let mut canon = PscpMachine::new(system);
    let mut frontier = Layer::default();
    {
        let mut root = Vec::new();
        canon.capture_words(&mut root);
        root.push(0);
        let plane = Arc::new(canon.tep().data_state());
        planes.insert(Arc::clone(&plane), 0);
        parents.push((0, 0));
        mark_active(&mut active_union, &root);
        for (pi, w) in watches.iter().enumerate() {
            if w.hit(&[], split_key(&root).0) {
                violated[pi] = true;
                let state_key = state_key(&mut canon, &root, &plane);
                violations.push((pi, Witness { state_key, trace: Vec::new() }));
            }
        }
        visited.insert(root.as_slice().into());
        frontier.push(&root, plane);
    }

    // The BFS layer being expanded: its states carry the consecutive
    // discovery indices `base..base + frontier.len()`.
    let mut base: u32 = 0;
    let mut layer: u32 = 0;

    while frontier.len() > 0 {
        if layer >= opts.max_depth {
            report.truncated = true;
            break;
        }
        pscp_obs::metrics::EXPLORE_FRONTIER.record(frontier.len() as u64);

        // Job `j` expands frontier state `j / alphabet.len()` under
        // symbol `j % alphabet.len()`: every frontier state × every
        // alphabet symbol, in order — the merge below consumes results
        // in this exact order, which is what pins determinism.
        let jobs = 0..frontier.len() * alphabet.len();

        let next_base = visited.len() as u32;
        let mut next = Layer::default();
        let mut merged = 0usize;
        let mut all_self = true;
        let expand = |expander: &mut Expander<'_>, chunk: Vec<usize>| -> Expanded {
            let mut out = Expanded::default();
            for j in chunk {
                let (key, plane) = frontier.node(j / alphabet.len());
                expander.expand(key, plane, &alphabet[j % alphabet.len()], &mut out);
            }
            out
        };
        let workers = |_| Expander::new(system);
        let merge = |chunk: Expanded| {
            let Expanded { edges, mut keys, fired, raised, planes: touched, faults } = chunk;
            let (mut touched, mut faults) = (touched.into_iter(), faults.into_iter());
            let (mut key_at, mut fired_at, mut raised_at) = (0, 0, 0);
            for end in edges {
                let (f, si) = (merged / alphabet.len(), merged % alphabet.len());
                merged += 1;
                let (src_key, src_plane) = frontier.node(f);
                let src_idx = base + f as u32;
                if si == 0 {
                    all_self = true;
                }
                report.edges += 1;
                let key = &mut keys[key_at..end.key];
                let (edge_fired, edge_raised) =
                    (&fired[fired_at..end.fired], &raised[raised_at..end.raised]);
                (key_at, fired_at, raised_at) = (end.key, end.fired, end.raised);
                // The successor's plane: the source's when no routine
                // ran, else the interned plane with the content the
                // routines left. A plane no visited state holds is new;
                // it is interned, under the next id, only if the state
                // is admitted.
                let (plane, new_plane) = match end.outcome {
                    Outcome::Fault => {
                        all_self = false;
                        let e = faults.next().expect("a fault per faulted edge");
                        if (report.faults.len() as u32) < opts.max_witnesses {
                            report.faults.push((
                                e.to_string(),
                                Witness {
                                    state_key: state_key(&mut canon, src_key, src_plane),
                                    trace: trace_to(&parents, &alphabet, src_idx, Some(si)),
                                },
                            ));
                        }
                        (None, false)
                    }
                    Outcome::Untouched => (Some(Arc::clone(src_plane)), false),
                    Outcome::Touched => {
                        let p = touched.next().expect("a plane per touched edge");
                        let (id, plane, new_plane) = match planes.get_key_value(&p) {
                            Some((known, &id)) => (id, Arc::clone(known), false),
                            None => (planes.len() as u32, Arc::new(p), true),
                        };
                        key[key.len() - 1] = u64::from(id);
                        (Some(plane), new_plane)
                    }
                };
                if let Some(plane) = plane {
                    let key: &Key = key;
                    for &t in edge_fired {
                        fired_union[t.index()] = true;
                    }
                    if all_self && key != src_key {
                        all_self = false;
                    }
                    // Predicates see every edge, including ones into
                    // truncated or already-visited states; BFS order
                    // makes this edge the end of a minimal trace either
                    // way.
                    for (pi, w) in watches.iter().enumerate() {
                        if !violated[pi] && w.hit(edge_raised, split_key(key).0) {
                            violated[pi] = true;
                            violations.push((
                                pi,
                                Witness {
                                    state_key: state_key(&mut canon, key, &plane),
                                    trace: trace_to(&parents, &alphabet, src_idx, Some(si)),
                                },
                            ));
                        }
                    }
                    if visited.contains(key) {
                        report.dedup_hits += 1;
                    } else if (visited.len() as u64) < opts.max_states.max(1) {
                        if new_plane {
                            planes.insert(Arc::clone(&plane), split_key(key).1);
                        }
                        visited.insert(key.into());
                        parents.push((src_idx, si as u32));
                        mark_active(&mut active_union, key);
                        next.push(key, plane);
                    } else {
                        report.truncated = true;
                    }
                }
                if si + 1 == alphabet.len()
                    && all_self
                    && (report.deadlocks.len() as u32) < opts.max_witnesses
                {
                    report.deadlocks.push(Witness {
                        state_key: state_key(&mut canon, src_key, src_plane),
                        trace: trace_to(&parents, &alphabet, src_idx, None),
                    });
                }
            }
        };
        stream_chunks(jobs, EXPAND_CHUNK, threads, EXPAND_AHEAD, workers, expand, merge);
        if next.len() > 0 {
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
        machine.step_injected_in_place(&events, &mut NullEnvironment)?;
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
        let report = explore(&system, &ExploreOptions { threads: 1, ..ExploreOptions::default() });
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
        let opts = ExploreOptions { threads: 1, max_states: 0, ..ExploreOptions::default() };
        let report = explore(&system, &opts);
        assert!(report.truncated);
        assert_eq!(report.states, 1);
    }
}
