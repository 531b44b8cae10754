//! The scenario-serving wire format.
//!
//! A dependency-free binary codec for streaming scenario batches over a
//! byte stream. Every frame is length-prefixed and checksummed:
//!
//! ```text
//! +---------------+---------+--------+----------+-------------------+
//! | len: u32 LE   | version | type   | body ... | checksum: u32 LE  |
//! | (payload len) | u8 = 2  | u8     |          | FNV-1a over       |
//! |               |         |        |          | version..body     |
//! +---------------+---------+--------+----------+-------------------+
//! ```
//!
//! The version byte is [`PROTOCOL_VERSION`]. All integers are
//! little-endian. Strings are `u32` length + UTF-8 bytes; sequences are
//! a `u32` count + each element; an option is a `0`/`1` tag + the
//! value. Each layout is one impl of the crate-private `Wire` trait,
//! whose `MIN_BYTES` (a layout's smallest encoding) bounds every
//! declared count, and whose `HEAP_PER_BYTE` bounds the heap a decode
//! may request per input byte. The length prefix counts everything after itself (version,
//! type, body, checksum), and is capped at [`DEFAULT_MAX_FRAME`] by
//! default — an oversized prefix is rejected *before* any allocation,
//! so a corrupt or hostile peer cannot balloon memory.
//!
//! Frame types:
//!
//! | tag | frame                  | direction       | purpose                              |
//! |-----|------------------------|-----------------|--------------------------------------|
//! | 0   | [`Frame::Hello`]       | both            | version/window/fingerprint handshake |
//! | 1   | [`Frame::Submit`]      | client → server | one scripted scenario + limits       |
//! | 2   | [`Frame::Outcome`]     | server → client | one [`WireOutcome`], tagged by seq   |
//! | 3   | [`Frame::Credit`]      | server → client | in-flight window replenishment       |
//! | 4   | [`Frame::Error`]       | both            | typed fatal error, then close        |
//! | 5   | [`Frame::Compile`]     | client → server | chart + action sources to compile    |
//! | 6   | [`Frame::Diagnostics`] | server → client | compile report + system fingerprint  |
//! | 7   | [`Frame::StatsRequest`]| client → server | telemetry scrape request (empty body)|
//! | 8   | [`Frame::Stats`]       | server → client | serve gauges + canonical obs snapshot|
//! | 9   | [`Frame::Explore`]     | client → server | state-space exploration request      |
//! | 10  | [`Frame::ExploreResult`]| server → client| one chunk of a canonical explore report |
//!
//! An exploration report can exceed the frame cap (witness traces,
//! unreachable lists), so a [`Frame::Explore`] is answered by a
//! *sequence* of [`Frame::ExploreResult`] chunks — ascending `seq`,
//! `last` set on the final one — whose concatenated chunks are exactly
//! [`encode_explore_report`] of the server's report. Like `Stats`,
//! the reply bypasses the credit window.
//!
//! Like `Diagnostics`, a [`Frame::Stats`] reply bypasses the credit
//! window: scraping telemetry never competes with scenario credits.
//! The snapshot payload is encoded canonically ([`encode_stats`]) so a
//! wire scrape of a quiesced server is byte-identical to an in-process
//! [`pscp_obs::metrics::snapshot`] encoding.
//!
//! [`Frame::Error`] carries a stable `u16` code from the [`error_code`]
//! registry; codes are never renumbered, only appended:
//!
//! | code | name                                | meaning                                |
//! |------|-------------------------------------|----------------------------------------|
//! | 1    | [`error_code::BAD_VERSION`]         | unknown protocol version byte          |
//! | 2    | [`error_code::BAD_CHECKSUM`]        | frame checksum mismatch                |
//! | 3    | [`error_code::MALFORMED`]           | structurally invalid frame body        |
//! | 4    | [`error_code::TOO_LARGE`]           | length prefix above the frame cap      |
//! | 5    | [`error_code::CREDIT_VIOLATION`]    | submit past the granted credit window  |
//! | 6    | [`error_code::UNEXPECTED_FRAME`]    | valid frame, wrong direction or state  |
//! | 7    | [`error_code::SYSTEM_MISMATCH`]     | fingerprint does not match the system  |
//! | 8    | [`error_code::INTERNAL`]            | server-side internal failure           |
//!
//! Compile failures are **not** `Error` frames: a [`Frame::Compile`]
//! always answers with [`Frame::Diagnostics`], whose fingerprint is 0
//! when the compile produced errors. The diagnostic list is encoded
//! canonically ([`encode_diagnostics`]) so a wire round-trip is
//! byte-identical to an in-process [`pscp_diag::DiagnosticSink::finish`].
//!
//! [`WireOutcome`] is the canonical serialisation of a
//! [`BatchOutcome`]`<`[`ScriptedEnvironment`]`>`; the differential
//! harness compares server round-trips against in-process
//! [`SimPool`](crate::pool::SimPool) runs byte-for-byte through
//! [`WireOutcome::encode`].

use crate::explore::{ExploreOptions, ExploreReport, Predicate, Violation, Witness};
use crate::machine::{CycleReport, MachineStats, ScriptedEnvironment};
use crate::pool::{BatchOptions, BatchOutcome};
use pscp_diag::{Diagnostic, Pos, Severity, Source, Span};
pub use pscp_obs::metrics::{HistogramSnapshot, MetricsSnapshot};
use pscp_statechart::{EventId, StateId, TransitionId};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};

/// Version byte every frame carries; bumped on incompatible change.
pub const PROTOCOL_VERSION: u8 = 2;

/// Default cap on one frame's payload length (16 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Default credit window requested by clients / granted by servers.
pub const DEFAULT_WINDOW: u32 = 32;

/// Bytes of framing around a payload: the four length-prefix bytes.
const LEN_PREFIX: usize = 4;
/// Minimum payload: version + type + checksum.
const MIN_PAYLOAD: u32 = 6;

const T_HELLO: u8 = 0;
const T_SUBMIT: u8 = 1;
const T_OUTCOME: u8 = 2;
const T_CREDIT: u8 = 3;
const T_ERROR: u8 = 4;
const T_COMPILE: u8 = 5;
const T_DIAGNOSTICS: u8 = 6;
const T_STATS_REQUEST: u8 = 7;
const T_STATS: u8 = 8;
const T_EXPLORE: u8 = 9;
const T_EXPLORE_RESULT: u8 = 10;

/// Optional capabilities negotiated in the [`Frame::Hello`] handshake.
///
/// The client requests a bit set; the server grants the intersection
/// with [`feature::SUPPORTED`] and echoes it in its reply `Hello`.
/// A zero feature word is encoded as *absent* (the PR-8 `Hello`
/// layout), so old peers interoperate unchanged.
pub mod feature {
    /// Outcome frames carry an [`OutcomeLatency`](super::OutcomeLatency)
    /// trailer (`queue_ns`/`sim_ns`/`encode_ns`).
    pub const LATENCY: u32 = 1 << 0;
    /// Every feature this build understands.
    pub const SUPPORTED: u32 = LATENCY;
}

/// Error codes carried by [`Frame::Error`].
pub mod error_code {
    /// Peer spoke an unknown protocol version.
    pub const BAD_VERSION: u16 = 1;
    /// Frame checksum mismatch.
    pub const BAD_CHECKSUM: u16 = 2;
    /// Frame body malformed (truncated, trailing bytes, bad UTF-8…).
    pub const MALFORMED: u16 = 3;
    /// Length prefix above the frame cap.
    pub const TOO_LARGE: u16 = 4;
    /// Client submitted past its credit window.
    pub const CREDIT_VIOLATION: u16 = 5;
    /// Frame type valid but not allowed in this direction/state.
    pub const UNEXPECTED_FRAME: u16 = 6;
    /// Client fingerprint does not match the loaded system.
    pub const SYSTEM_MISMATCH: u16 = 7;
    /// Server-side internal failure.
    pub const INTERNAL: u16 = 8;
}

/// 32-bit FNV-1a, the frame checksum.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Codec and protocol failures.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport error.
    Io(std::io::Error),
    /// The peer closed the stream at a frame boundary.
    Closed,
    /// The stream ended (or the body ran out) mid-frame.
    Truncated,
    /// Length prefix above the configured frame cap.
    TooLarge {
        /// The offending declared payload length.
        len: u64,
        /// The cap it exceeded.
        max: u32,
    },
    /// Unknown protocol version byte.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// Frame checksum mismatch.
    BadChecksum,
    /// Unknown frame-type tag.
    UnknownFrame {
        /// The tag received.
        tag: u8,
    },
    /// Structurally invalid frame body.
    Malformed(&'static str),
    /// The peer reported a typed [`Frame::Error`] and closed.
    Remote {
        /// One of [`error_code`].
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// The peer sent a well-formed frame that violates the protocol
    /// state machine (e.g. an `Outcome` sent to the server).
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            WireError::BadVersion { got } => {
                write!(f, "unknown protocol version {got} (expected {PROTOCOL_VERSION})")
            }
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::UnknownFrame { tag } => write!(f, "unknown frame type {tag}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Remote { code, message } => {
                write!(f, "peer error {code}: {message}")
            }
            WireError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// The [`error_code`] a server reports this failure under.
    pub fn code(&self) -> u16 {
        match self {
            WireError::BadVersion { .. } => error_code::BAD_VERSION,
            WireError::BadChecksum => error_code::BAD_CHECKSUM,
            WireError::TooLarge { .. } => error_code::TOO_LARGE,
            WireError::Protocol(_) => error_code::UNEXPECTED_FRAME,
            WireError::Remote { code, .. } => *code,
            _ => error_code::MALFORMED,
        }
    }
}

/// One scripted scenario submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submit {
    /// Client-chosen sequence number; outcomes echo it, so clients can
    /// reassemble submission order under out-of-order completion.
    pub seq: u64,
    /// Run limits for this scenario.
    pub limits: BatchOptions,
    /// `script[i]` = external event names for the i-th cycle.
    pub script: Vec<Vec<String>>,
}

/// A state-space exploration request, carried by [`Frame::Explore`].
///
/// The thread count is deliberately *not* on the wire: exploration is
/// byte-identical across worker counts (pinned by the explore
/// differential suite), so it is the server's scaling choice, not part
/// of the request's meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreRequest {
    /// Stop discovering new states past this many.
    pub max_states: u64,
    /// Maximum trace length explored.
    pub max_depth: u32,
    /// Cap on reported deadlock/fault witnesses.
    pub max_witnesses: u32,
    /// Safety predicates to check.
    pub predicates: Vec<Predicate>,
}

impl ExploreRequest {
    /// The wire request for a set of [`ExploreOptions`] (the thread
    /// count stays local).
    pub fn from_options(opts: &ExploreOptions) -> Self {
        ExploreRequest {
            max_states: opts.max_states,
            max_depth: opts.max_depth,
            max_witnesses: opts.max_witnesses,
            predicates: opts.predicates.clone(),
        }
    }

    /// Server-side [`ExploreOptions`]: the request's bounds and
    /// predicates, expanded with the given worker count.
    /// [`ExploreOptions::gang`], which exploration ignores, is set to 1.
    pub fn to_options(&self, threads: usize) -> ExploreOptions {
        ExploreOptions {
            max_states: self.max_states,
            max_depth: self.max_depth,
            max_witnesses: self.max_witnesses,
            threads,
            gang: 1,
            predicates: self.predicates.clone(),
        }
    }
}

impl Default for ExploreRequest {
    fn default() -> Self {
        ExploreRequest::from_options(&ExploreOptions::default())
    }
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake. The client sends its requested window and the
    /// fingerprint of the system it expects (0 = any); the server
    /// replies with the negotiated window and the fingerprint of the
    /// system it actually serves.
    Hello {
        /// Requested (client) / granted (server) credit window.
        window: u32,
        /// Compiled-system fingerprint; 0 means "unknown/any".
        fingerprint: u64,
        /// Requested (client) / granted (server) [`feature`] bits.
        /// Encoded only when nonzero, so a zero word is byte-identical
        /// to the pre-feature `Hello` layout.
        features: u32,
    },
    /// One scenario submission (client → server).
    Submit(Submit),
    /// One finished scenario (server → client).
    Outcome {
        /// The submission's sequence number.
        seq: u64,
        /// The canonical outcome serialisation.
        outcome: WireOutcome,
    },
    /// Window replenishment: the client may have `n` more scenarios in
    /// flight (server → client).
    Credit {
        /// Credits granted.
        n: u32,
    },
    /// Fatal typed error; the sender closes after writing it.
    Error {
        /// One of [`error_code`].
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Chart and action sources for the server to compile
    /// (client → server). Always answered by [`Frame::Diagnostics`] —
    /// never by an `Error` frame, however broken the sources.
    Compile {
        /// Statechart source text.
        chart: String,
        /// Action-language source text.
        actions: String,
    },
    /// The full compile report (server → client): every diagnostic
    /// from every layer, span-sorted and deduplicated, plus the
    /// fingerprint of the freshly registered system when the compile
    /// succeeded (0 on failure).
    Diagnostics {
        /// [`system_fingerprint`](super::system_fingerprint) of the
        /// compiled system, now registered in the per-process system
        /// table; 0 when the compile produced errors.
        fingerprint: u64,
        /// The canonical report ([`pscp_diag::DiagnosticSink::finish`]).
        diagnostics: Vec<Diagnostic>,
    },
    /// Telemetry scrape request (client → server). Empty body; always
    /// answered with [`Frame::Stats`] (or a typed `Error` when stats
    /// are disabled via `PSCP_SERVE_STATS=off`). Not counted against
    /// the credit window, and excluded from `SERVE_FRAMES_IN` so a
    /// scrape does not perturb the counters it reports.
    StatsRequest,
    /// One telemetry snapshot (server → client): serve-level gauges
    /// plus the full canonical [`pscp_obs`] metrics snapshot.
    Stats {
        /// Point-in-time serve gauges (not monotonic counters).
        gauges: ServeGauges,
        /// The process-wide metrics snapshot, encoded canonically via
        /// [`encode_stats`].
        snapshot: MetricsSnapshot,
    },
    /// A state-space exploration request (client → server). Answered
    /// by a sequence of [`Frame::ExploreResult`] chunks; like `Stats`,
    /// the reply bypasses the credit window.
    Explore(ExploreRequest),
    /// One chunk of a canonical exploration report (server → client).
    /// Chunks arrive with ascending `seq` starting at 0; the chunk with
    /// `last` set completes the report, and the concatenation of every
    /// chunk's bytes is exactly [`encode_explore_report`] of the
    /// server's [`ExploreReport`].
    ExploreResult {
        /// Chunk index, ascending from 0.
        seq: u32,
        /// True on the final chunk of the report.
        last: bool,
        /// This chunk's slice of the canonical report bytes.
        chunk: Vec<u8>,
    },
}

/// Point-in-time serve-level gauges carried by [`Frame::Stats`],
/// alongside (not inside) the monotonic [`MetricsSnapshot`]: these
/// describe the server *now*, so they are excluded from the
/// byte-identity contract between in-process and wire snapshots and
/// from [`MetricsSnapshot::delta`] rate math.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeGauges {
    /// Nanoseconds since the listener started.
    pub uptime_ns: u64,
    /// Systems in the per-process compiled-system table.
    pub registered_systems: u32,
    /// Connections currently open.
    pub live_connections: u32,
    /// Jobs sitting in the shared shard queue right now.
    pub queue_depth: u32,
    /// Shard worker threads.
    pub workers: u32,
}

impl ServeGauges {
    /// `(name, value)` rows in canonical order, for report rendering.
    pub fn rows(&self) -> [(&'static str, u64); 5] {
        [
            ("uptime_ns", self.uptime_ns),
            ("registered_systems", u64::from(self.registered_systems)),
            ("live_connections", u64::from(self.live_connections)),
            ("queue_depth", u64::from(self.queue_depth)),
            ("workers", u64::from(self.workers)),
        ]
    }
}

/// Server-side latency decomposition of one outcome, in nanoseconds on
/// the server's monotonic clock. Carried as an optional trailer on
/// `Outcome` frames when the connection negotiated
/// [`feature::LATENCY`]; because every field is a *duration*, clients
/// can decompose end-to-end latency without any clock synchronisation
/// (the remainder after subtracting these from a locally-timed
/// round-trip is wire + client time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeLatency {
    /// Time from the submission's enqueue to the start of its
    /// simulation: its wait in the shard queue plus the scenarios its
    /// worker ran before it from the same popped batch.
    pub queue_ns: u64,
    /// Time simulating this scenario, from its start to its end.
    pub sim_ns: u64,
    /// Time encoding the outcome frame body.
    pub encode_ns: u64,
}

/// One configuration cycle on the wire — [`CycleReport`] with ids
/// flattened to indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Fired transition indices, in execution order.
    pub fired: Vec<u32>,
    /// Measured cycles per fired transition (same order).
    pub transition_cycles: Vec<u64>,
    /// TEP assignment per fired transition (same order).
    pub assigned_tep: Vec<u8>,
    /// Configuration-cycle length in clock cycles.
    pub cycle_length: u64,
    /// Event indices raised by routines.
    pub raised: Vec<u32>,
    /// Interrupt-servicing latency, when an interrupt fired.
    pub interrupt_latency: Option<u64>,
}

impl WireReport {
    /// Flattens a [`CycleReport`].
    pub fn from_report(r: &CycleReport) -> Self {
        WireReport {
            fired: r.fired.iter().map(|t| t.index() as u32).collect(),
            transition_cycles: r.transition_cycles.clone(),
            assigned_tep: r.assigned_tep.clone(),
            cycle_length: r.cycle_length,
            raised: r.raised.iter().map(|e| e.index() as u32).collect(),
            interrupt_latency: r.interrupt_latency,
        }
    }
}

/// [`MachineStats`] on the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
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

impl WireStats {
    /// Copies a [`MachineStats`].
    pub fn from_stats(s: &MachineStats) -> Self {
        WireStats {
            config_cycles: s.config_cycles,
            transitions: s.transitions,
            clock_cycles: s.clock_cycles,
            max_cycle_length: s.max_cycle_length,
            tep_busy: s.tep_busy.clone(),
        }
    }
}

/// The canonical serialisation of one scenario outcome. Everything a
/// [`BatchOutcome`]`<`[`ScriptedEnvironment`]`>` observably contains:
/// per-cycle reports, final statistics, the simulated clock, the
/// environment's recorded port writes and leftover script, and the
/// fault (as its display string) if one ended the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireOutcome {
    /// Per-configuration-cycle reports, in execution order.
    pub reports: Vec<WireReport>,
    /// Machine statistics at scenario end.
    pub stats: WireStats,
    /// Final simulated clock.
    pub clock_cycles: u64,
    /// The script rows as the scenario left them (consumed rows are
    /// empty).
    pub leftover_script: Vec<Vec<String>>,
    /// Recorded port writes `(address, value, cycle)`.
    pub port_writes: Vec<(u16, i64, u64)>,
    /// The fault that ended the scenario early, rendered.
    pub error: Option<String>,
    /// Server-side latency breakdown, when the connection negotiated
    /// [`feature::LATENCY`]. **Excluded** from the canonical
    /// [`encode`](WireOutcome::encode) body — the differential
    /// byte-identity contract covers only what the simulation
    /// determines, never wall-clock measurements. It travels as an
    /// optional trailer at the `Outcome`-frame layer instead.
    pub latency: Option<OutcomeLatency>,
}

impl WireOutcome {
    /// The canonical projection of an in-process outcome — the
    /// differential harness compares `from_batch(local).encode()`
    /// against server bytes.
    pub fn from_batch(o: &BatchOutcome<ScriptedEnvironment>) -> Self {
        WireOutcome {
            reports: o.reports.iter().map(WireReport::from_report).collect(),
            stats: WireStats::from_stats(&o.stats),
            clock_cycles: o.clock_cycles,
            leftover_script: o.env.script.clone(),
            port_writes: o.env.port_writes.clone(),
            error: o.error.as_ref().map(|e| e.to_string()),
            latency: None,
        }
    }

    /// Canonical body bytes (no framing). Never includes the
    /// [`latency`](WireOutcome::latency) trailer.
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// Decodes canonical body bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        decode(bytes)
    }
}

// --- The codec -----------------------------------------------------------------

pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Enc { buf: Vec::new() }
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// A sequence: `u32` count, then each element.
    pub(crate) fn seq<T: Wire>(&mut self, items: &[T]) {
        self.buf.reserve(4 + T::MIN_BYTES * items.len());
        self.u32(items.len() as u32);
        T::enc_slice(items, self);
    }
}

pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// A declared element count, sanity-bounded by the bytes left
    /// (every element costs at least `min_elem_bytes`), so a corrupt
    /// count can never drive a huge allocation.
    pub(crate) fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = u32::dec(self)? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
    /// `n` values of `T`, in one allocation. Callers bound `n` first.
    pub(crate) fn many<T: Wire>(&mut self, n: usize) -> Result<Vec<T>, WireError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::dec(self)?);
        }
        Ok(v)
    }
    pub(crate) fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

/// One byte layout. Every layout the crate writes — frame bodies,
/// outcomes, diagnostics, stats and explore reports, state keys and the
/// memo file — is exactly one impl, so its encoder and decoder are
/// written side by side and a new type gets a layout through
/// [`wire_struct!`].
pub(crate) trait Wire: Sized {
    /// The fewest bytes any value encodes to: the smallest value's
    /// length (all collections empty, `None`, zeros). `Vec<Self>`
    /// bounds a declared count with it, so a corrupt count cannot
    /// allocate more than the input can back.
    const MIN_BYTES: usize;
    /// The most heap bytes decoding a value requests per input byte.
    /// A collection's count guard admits one element per `MIN_BYTES`
    /// input bytes, so a collection of `T` costs at most
    /// [`per_element::<T>`](per_element), and a composite the most of
    /// its parts: the bytes behind one part never back another.
    /// Scalars cost nothing.
    const HEAP_PER_BYTE: usize;
    fn enc(&self, e: &mut Enc);
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError>;
    /// Writes each value in turn. Integers override it with one pass
    /// over a reserved region, which keeps a state key's `i64` planes
    /// cheap to encode.
    fn enc_slice(items: &[Self], e: &mut Enc) {
        for x in items {
            x.enc(e);
        }
    }
}

/// `T::MIN_BYTES` of a value, for version prefixes in [`wire_struct!`].
pub(crate) const fn min_bytes_of<T: Wire>(_: &T) -> usize {
    T::MIN_BYTES
}

/// The largest of `xs`, `0` for none: the `HEAP_PER_BYTE` of a value
/// made of parts.
pub(crate) const fn most(xs: &[usize]) -> usize {
    let (mut m, mut i) = (0, 0);
    while i < xs.len() {
        if xs[i] > m {
            m = xs[i];
        }
        i += 1;
    }
    m
}

/// Heap bytes per input byte of a decoded collection of `T`: the
/// element itself, `size_of::<T>()` per `T::MIN_BYTES` input bytes, or
/// what decoding the element requests, whichever is more.
pub(crate) const fn per_element<T: Wire>() -> usize {
    most(&[size_of::<T>().div_ceil(most(&[T::MIN_BYTES, 1])), T::HEAP_PER_BYTE])
}

/// Reads a version (or magic) prefix and rejects any other value.
pub(crate) fn expect_version<T: Wire + PartialEq>(
    d: &mut Dec<'_>,
    want: T,
    what: &'static str,
) -> Result<(), WireError> {
    if T::dec(d)? == want {
        Ok(())
    } else {
        Err(WireError::Malformed(what))
    }
}

/// A value's bytes.
pub(crate) fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.enc(&mut e);
    e.buf
}

/// Decodes exactly one value: trailing bytes are malformed.
pub(crate) fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Dec::new(bytes);
    let v = T::dec(&mut d)?;
    d.finish()?;
    Ok(v)
}

/// The most heap bytes per input byte any decoder of untrusted bytes
/// requests: the largest `HEAP_PER_BYTE` of the types they decode —
/// frames ([`decode_payload`]), outcomes, diagnostics, stats, explore
/// reports, state keys and the memo file. The types derive it from
/// their parts, so no element type a decoder collects can escape it;
/// the arbitrary-input suite holds every decode to its input length
/// times this, plus the constant cost of a map's first node.
#[doc(hidden)]
pub const DECODE_HEAP_PER_BYTE: usize = most(&[
    <Frame as Wire>::HEAP_PER_BYTE,
    <WireOutcome as Wire>::HEAP_PER_BYTE,
    <Vec<Diagnostic> as Wire>::HEAP_PER_BYTE,
    <MetricsSnapshot as Wire>::HEAP_PER_BYTE,
    <crate::explore::ExploreReport as Wire>::HEAP_PER_BYTE,
    <crate::machine::SemanticState as Wire>::HEAP_PER_BYTE,
    <BTreeMap<u128, crate::optimize::MemoEntry> as Wire>::HEAP_PER_BYTE,
]);

/// Writes a struct's [`Wire`] impl from its fields in wire order. Each
/// field uses its own impl, `MIN_BYTES` is the sum of theirs and
/// `HEAP_PER_BYTE` the most of theirs. An
/// optional `[VERSION, "error"]` writes and checks a version prefix
/// first; a trailing `..expr` fills the fields that do not travel.
macro_rules! wire_struct {
    ($ty:ident $([$ver:expr, $what:literal])? { $($field:ident: $fty:ty),* $(,)? }
     $(.. $rest:expr)?) => {
        impl $crate::serve::wire::Wire for $ty {
            const MIN_BYTES: usize = 0
                $(+ $crate::serve::wire::min_bytes_of(&$ver))?
                $(+ <$fty as $crate::serve::wire::Wire>::MIN_BYTES)*;
            const HEAP_PER_BYTE: usize = $crate::serve::wire::most(&[
                $(<$fty as $crate::serve::wire::Wire>::HEAP_PER_BYTE),*
            ]);
            fn enc(&self, e: &mut $crate::serve::wire::Enc) {
                $($crate::serve::wire::Wire::enc(&$ver, e);)?
                $($crate::serve::wire::Wire::enc(&self.$field, e);)*
            }
            fn dec(
                d: &mut $crate::serve::wire::Dec<'_>,
            ) -> Result<Self, $crate::serve::wire::WireError> {
                $($crate::serve::wire::expect_version(d, $ver, $what)?;)?
                Ok($ty { $($field: <$fty as $crate::serve::wire::Wire>::dec(d)?,)* $(..$rest)? })
            }
        }
    };
}
pub(crate) use wire_struct;

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            const HEAP_PER_BYTE: usize = 0;
            fn enc(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(d.take(Self::MIN_BYTES)?.try_into().expect("sized take")))
            }
            fn enc_slice(items: &[Self], e: &mut Enc) {
                let start = e.buf.len();
                e.buf.resize(start + Self::MIN_BYTES * items.len(), 0);
                for (dst, v) in e.buf[start..].chunks_exact_mut(Self::MIN_BYTES).zip(items) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64, i64);

/// A 128-bit content key: high half first.
impl Wire for u128 {
    const MIN_BYTES: usize = 16;
    const HEAP_PER_BYTE: usize = 0;
    fn enc(&self, e: &mut Enc) {
        e.u64((self >> 64) as u64);
        e.u64(*self as u64);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(u128::from(u64::dec(d)?) << 64 | u128::from(u64::dec(d)?))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    const HEAP_PER_BYTE: usize = 0;
    fn enc(&self, e: &mut Enc) {
        e.u8(u8::from(*self));
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        match u8::dec(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bad bool byte")),
        }
    }
}

/// `u32` length, then UTF-8 bytes: one heap byte per input byte.
impl Wire for String {
    const MIN_BYTES: usize = 4;
    const HEAP_PER_BYTE: usize = 1;
    fn enc(&self, e: &mut Enc) {
        e.str(self);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let n = u32::dec(d)? as usize;
        String::from_utf8(d.take(n)?.to_vec()).map_err(|_| WireError::Malformed("bad UTF-8"))
    }
}

/// `u32` count, then each element.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    const HEAP_PER_BYTE: usize = per_element::<T>();
    fn enc(&self, e: &mut Enc) {
        e.seq(self);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let n = d.count(T::MIN_BYTES)?;
        d.many(n)
    }
}

/// `u32` count, then each `(key, value)` in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    const MIN_BYTES: usize = 4;
    const HEAP_PER_BYTE: usize = per_element::<(K, V)>();
    fn enc(&self, e: &mut Enc) {
        e.u32(self.len() as u32);
        for (k, v) in self {
            k.enc(e);
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let mut map = BTreeMap::new();
        for _ in 0..d.count(<(K, V)>::MIN_BYTES)? {
            let (k, v) = Wire::dec(d)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

/// Tag byte `0` (absent) or `1` followed by the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    const HEAP_PER_BYTE: usize = T::HEAP_PER_BYTE;
    fn enc(&self, e: &mut Enc) {
        match self {
            Some(v) => {
                e.u8(1);
                v.enc(e);
            }
            None => e.u8(0),
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        match u8::dec(d)? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            _ => Err(WireError::Malformed("bad option tag")),
        }
    }
}

macro_rules! wire_tuple {
    ($($t:ident $v:ident),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;
            const HEAP_PER_BYTE: usize = most(&[$($t::HEAP_PER_BYTE),+]);
            fn enc(&self, e: &mut Enc) {
                let ($($v,)+) = self;
                $($v.enc(e);)+
            }
            fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
                Ok(($($t::dec(d)?,)+))
            }
        }
    };
}
wire_tuple!(A a, B b);
wire_tuple!(A a, B b, C c);

/// An index newtype travels as its `u32` index.
macro_rules! wire_id {
    ($($id:ident),*) => {$(
        impl Wire for $id {
            const MIN_BYTES: usize = 4;
            const HEAP_PER_BYTE: usize = 0;
            fn enc(&self, e: &mut Enc) {
                e.u32(self.index() as u32);
            }
            fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
                Ok($id::from_index(u32::dec(d)? as usize))
            }
        }
    )*};
}
wire_id!(EventId, StateId, TransitionId);

/// A diagnostic enum travels as its stable code byte.
macro_rules! wire_code {
    ($($ty:ident $what:literal),*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 1;
            const HEAP_PER_BYTE: usize = 0;
            fn enc(&self, e: &mut Enc) {
                e.u8(self.code());
            }
            fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
                $ty::from_code(u8::dec(d)?).ok_or(WireError::Malformed($what))
            }
        }
    )*};
}
wire_code!(Severity "bad severity byte", Source "bad source byte");

wire_struct!(Pos { line: u32, column: u32, offset: u32 });
wire_struct!(Span { start: Pos, end: Pos });
wire_struct!(Diagnostic {
    severity: Severity,
    source: Source,
    code: String,
    span: Span,
    message: String,
    notes: Vec<String>,
});

/// Canonical body bytes of a diagnostic list (count + each
/// diagnostic, no framing). The byte-identity contract hangs off this:
/// encoding [`pscp_diag::DiagnosticSink::finish`]'s output in-process
/// equals the `Diagnostics` frame body a server produces for the same
/// sources.
pub fn encode_diagnostics(diags: &[Diagnostic]) -> Vec<u8> {
    let mut e = Enc::new();
    e.seq(diags);
    e.buf
}

/// Decodes canonical diagnostic-list bytes.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, trailing bytes or invalid
/// severity/source bytes.
pub fn decode_diagnostics(bytes: &[u8]) -> Result<Vec<Diagnostic>, WireError> {
    decode(bytes)
}

// --- Outcomes ------------------------------------------------------------------

/// The three per-transition arrays share one count, guarded by the
/// bytes of one entry of each, which are also its heap.
impl Wire for WireReport {
    const MIN_BYTES: usize = 4 + u64::MIN_BYTES + <Vec<u32>>::MIN_BYTES + <Option<u64>>::MIN_BYTES;
    const HEAP_PER_BYTE: usize = most(&[
        (size_of::<u32>() + size_of::<u64>() + size_of::<u8>())
            .div_ceil(<(u32, u64, u8)>::MIN_BYTES),
        <Vec<u32>>::HEAP_PER_BYTE,
    ]);
    fn enc(&self, e: &mut Enc) {
        e.u32(self.fired.len() as u32);
        u32::enc_slice(&self.fired, e);
        u64::enc_slice(&self.transition_cycles, e);
        u8::enc_slice(&self.assigned_tep, e);
        self.cycle_length.enc(e);
        self.raised.enc(e);
        self.interrupt_latency.enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let n = d.count(<(u32, u64, u8)>::MIN_BYTES)?;
        Ok(WireReport {
            fired: d.many(n)?,
            transition_cycles: d.many(n)?,
            assigned_tep: d.many(n)?,
            cycle_length: Wire::dec(d)?,
            raised: Wire::dec(d)?,
            interrupt_latency: Wire::dec(d)?,
        })
    }
}

wire_struct!(WireStats {
    config_cycles: u64,
    transitions: u64,
    clock_cycles: u64,
    max_cycle_length: u64,
    tep_busy: Vec<u64>,
});
wire_struct!(WireOutcome {
    reports: Vec<WireReport>,
    stats: WireStats,
    clock_cycles: u64,
    leftover_script: Vec<Vec<String>>,
    port_writes: Vec<(u16, i64, u64)>,
    error: Option<String>,
} ..WireOutcome::default());
wire_struct!(OutcomeLatency { queue_ns: u64, sim_ns: u64, encode_ns: u64 });

/// The optional latency trailer of an `Outcome` frame: nothing when
/// absent, else tag `1` and the three durations.
fn latency_trailer(e: &mut Enc, latency: Option<OutcomeLatency>) {
    if latency.is_some() {
        latency.enc(e);
    }
}

// --- Stats snapshot codec ----------------------------------------------------

/// Version prefix of the canonical stats-snapshot encoding; bumped when
/// the snapshot layout changes (independently of [`PROTOCOL_VERSION`]).
pub const STATS_VERSION: u16 = 1;

wire_struct!(HistogramSnapshot { name: String, count: u64, sum: u64, buckets: Vec<(u64, u64, u64)> });
wire_struct!(MetricsSnapshot [STATS_VERSION, "unknown stats version"] {
    counters: Vec<(String, u64)>,
    per_worker: Vec<(String, Vec<u64>)>,
    tep_instr: Vec<(String, u64)>,
    histograms: Vec<HistogramSnapshot>,
});
wire_struct!(ServeGauges {
    uptime_ns: u64,
    registered_systems: u32,
    live_connections: u32,
    queue_depth: u32,
    workers: u32,
});

/// Canonical body bytes of a metrics snapshot (no framing). The
/// telemetry byte-identity contract hangs off this: encoding an
/// in-process [`pscp_obs::metrics::snapshot`] equals the snapshot
/// portion of the `Stats` frame a quiesced server produces.
pub fn encode_stats(s: &MetricsSnapshot) -> Vec<u8> {
    encode(s)
}

/// Decodes canonical stats-snapshot bytes.
///
/// # Errors
///
/// Returns [`WireError`] on an unknown stats version, truncation or
/// trailing bytes.
pub fn decode_stats(bytes: &[u8]) -> Result<MetricsSnapshot, WireError> {
    decode(bytes)
}

// --- Explore report codec ----------------------------------------------------

/// Version prefix of the canonical explore-report encoding; bumped when
/// the report layout changes (independently of [`PROTOCOL_VERSION`]).
pub const EXPLORE_REPORT_VERSION: u16 = 1;

/// Kind byte (`0` event-never-raised, `1` state-never-active), then
/// the watched name.
impl Wire for Predicate {
    const MIN_BYTES: usize = 1 + String::MIN_BYTES;
    const HEAP_PER_BYTE: usize = String::HEAP_PER_BYTE;
    fn enc(&self, e: &mut Enc) {
        e.u8(match self {
            Predicate::EventNeverRaised(_) => 0,
            Predicate::StateNeverActive(_) => 1,
        });
        e.str(self.name());
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let kind = u8::dec(d)?;
        match (kind, String::dec(d)?) {
            (0, name) => Ok(Predicate::EventNeverRaised(name)),
            (1, name) => Ok(Predicate::StateNeverActive(name)),
            _ => Err(WireError::Malformed("unknown predicate kind")),
        }
    }
}

wire_struct!(Witness { state_key: Vec<u8>, trace: Vec<Vec<u32>> });
wire_struct!(Violation { predicate: Predicate, witness: Witness });
wire_struct!(ExploreReport [EXPLORE_REPORT_VERSION, "unknown explore-report version"] {
    states: u64,
    edges: u64,
    dedup_hits: u64,
    depth: u32,
    truncated: bool,
    deadlocks: Vec<Witness>,
    unreachable_states: Vec<String>,
    unreachable_transitions: Vec<u32>,
    violations: Vec<Violation>,
    faults: Vec<(String, Witness)>,
});
wire_struct!(ExploreRequest {
    max_states: u64,
    max_depth: u32,
    max_witnesses: u32,
    predicates: Vec<Predicate>,
});

/// Canonical body bytes of an [`ExploreReport`] (no framing). The
/// exploration byte-identity contract hangs off this: the differential
/// suite compares reports across worker counts through these bytes,
/// and the concatenated [`Frame::ExploreResult`] chunks a server sends
/// are exactly this encoding of its report.
pub fn encode_explore_report(r: &ExploreReport) -> Vec<u8> {
    encode(r)
}

/// Decodes canonical explore-report bytes.
///
/// # Errors
///
/// Returns [`WireError`] on an unknown report version, truncation,
/// trailing bytes, or an unknown predicate kind.
pub fn decode_explore_report(bytes: &[u8]) -> Result<ExploreReport, WireError> {
    decode(bytes)
}

/// Splits a report's canonical bytes into [`Frame::ExploreResult`]
/// chunks of at most `max_chunk` body bytes each — always at least one
/// frame (an empty report still answers with one `last` chunk), `seq`
/// ascending from 0, `last` set on the final chunk. Concatenating the
/// chunks reproduces [`encode_explore_report`] exactly.
pub fn explore_report_frames(report: &ExploreReport, max_chunk: usize) -> Vec<Frame> {
    let bytes = encode_explore_report(report);
    let max_chunk = max_chunk.max(1);
    let n_chunks = bytes.len().div_ceil(max_chunk).max(1);
    (0..n_chunks)
        .map(|i| Frame::ExploreResult {
            seq: i as u32,
            last: i == n_chunks - 1,
            chunk: bytes[i * max_chunk..((i + 1) * max_chunk).min(bytes.len())].to_vec(),
        })
        .collect()
}

// --- Frame encode/decode -----------------------------------------------------

wire_struct!(BatchOptions { deadline: u64, max_steps: u64 });
wire_struct!(Submit { seq: u64, limits: BatchOptions, script: Vec<Vec<String>> });

/// Type tag, then the body. `Hello`'s feature word and `Outcome`'s
/// latency trailer are optional tails, so a frame is decoded from a
/// [`Dec`] that ends where its body ends.
impl Wire for Frame {
    const MIN_BYTES: usize = 1;
    const HEAP_PER_BYTE: usize = most(&[
        Submit::HEAP_PER_BYTE,
        WireOutcome::HEAP_PER_BYTE,
        OutcomeLatency::HEAP_PER_BYTE,
        String::HEAP_PER_BYTE,
        <Vec<Diagnostic>>::HEAP_PER_BYTE,
        ServeGauges::HEAP_PER_BYTE,
        MetricsSnapshot::HEAP_PER_BYTE,
        ExploreRequest::HEAP_PER_BYTE,
        <Vec<u8>>::HEAP_PER_BYTE,
    ]);
    fn enc(&self, e: &mut Enc) {
        match self {
            Frame::Hello { window, fingerprint, features } => {
                e.u8(T_HELLO);
                window.enc(e);
                fingerprint.enc(e);
                // A zero feature word is omitted: byte-identical to the
                // pre-feature layout, so old peers decode it unchanged.
                if *features != 0 {
                    features.enc(e);
                }
            }
            Frame::Submit(s) => {
                e.u8(T_SUBMIT);
                s.enc(e);
            }
            Frame::Outcome { seq, outcome } => {
                e.u8(T_OUTCOME);
                seq.enc(e);
                outcome.enc(e);
                latency_trailer(e, outcome.latency);
            }
            Frame::Credit { n } => {
                e.u8(T_CREDIT);
                n.enc(e);
            }
            Frame::Error { code, message } => {
                e.u8(T_ERROR);
                code.enc(e);
                message.enc(e);
            }
            Frame::Compile { chart, actions } => {
                e.u8(T_COMPILE);
                chart.enc(e);
                actions.enc(e);
            }
            Frame::Diagnostics { fingerprint, diagnostics } => {
                e.u8(T_DIAGNOSTICS);
                fingerprint.enc(e);
                diagnostics.enc(e);
            }
            Frame::StatsRequest => e.u8(T_STATS_REQUEST),
            Frame::Stats { gauges, snapshot } => {
                e.u8(T_STATS);
                gauges.enc(e);
                snapshot.enc(e);
            }
            Frame::Explore(req) => {
                e.u8(T_EXPLORE);
                req.enc(e);
            }
            Frame::ExploreResult { seq, last, chunk } => {
                e.u8(T_EXPLORE_RESULT);
                seq.enc(e);
                last.enc(e);
                chunk.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(match u8::dec(d)? {
            T_HELLO => Frame::Hello {
                window: Wire::dec(d)?,
                fingerprint: Wire::dec(d)?,
                // An absent feature word (a pre-feature peer) decodes as zero.
                features: if d.remaining() > 0 { Wire::dec(d)? } else { 0 },
            },
            T_SUBMIT => Frame::Submit(Wire::dec(d)?),
            T_OUTCOME => {
                let seq = Wire::dec(d)?;
                let mut outcome = WireOutcome::dec(d)?;
                if d.remaining() > 0 {
                    if u8::dec(d)? != 1 {
                        return Err(WireError::Malformed("bad latency trailer tag"));
                    }
                    outcome.latency = Some(Wire::dec(d)?);
                }
                Frame::Outcome { seq, outcome }
            }
            T_CREDIT => Frame::Credit { n: Wire::dec(d)? },
            T_ERROR => Frame::Error { code: Wire::dec(d)?, message: Wire::dec(d)? },
            T_COMPILE => Frame::Compile { chart: Wire::dec(d)?, actions: Wire::dec(d)? },
            T_DIAGNOSTICS => {
                Frame::Diagnostics { fingerprint: Wire::dec(d)?, diagnostics: Wire::dec(d)? }
            }
            T_STATS_REQUEST => Frame::StatsRequest,
            T_STATS => Frame::Stats { gauges: Wire::dec(d)?, snapshot: Wire::dec(d)? },
            T_EXPLORE => Frame::Explore(Wire::dec(d)?),
            T_EXPLORE_RESULT => Frame::ExploreResult {
                seq: Wire::dec(d)?,
                last: Wire::dec(d)?,
                chunk: Wire::dec(d)?,
            },
            tag => return Err(WireError::UnknownFrame { tag }),
        })
    }
}

/// Starts a frame: room for the length prefix, then the version byte.
fn open_frame() -> Enc {
    let mut e = Enc { buf: vec![0; LEN_PREFIX] };
    e.u8(PROTOCOL_VERSION);
    e
}

/// Seals a frame begun by [`open_frame`]: appends the checksum over
/// version..body and fills in the length prefix. The one place a
/// frame's framing is written.
fn seal_frame(mut e: Enc) -> Vec<u8> {
    let checksum = fnv1a32(&e.buf[LEN_PREFIX..]);
    e.u32(checksum);
    let len = (e.buf.len() - LEN_PREFIX) as u32;
    e.buf[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
    e.buf
}

/// Encodes a frame's payload (version, type, body, checksum — no
/// length prefix).
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    encode_frame(frame).split_off(LEN_PREFIX)
}

/// Encodes a complete frame, length prefix included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut e = open_frame();
    frame.enc(&mut e);
    seal_frame(e)
}

/// Two-phase `Outcome` frame builder for the serve workers.
///
/// `encode_ns` must appear *inside* the checksummed bytes it measures
/// the encoding of — a chicken-and-egg a one-shot encoder can't
/// resolve. [`begin`](OutcomeFrame::begin) does all the expensive body
/// encoding (time this part); [`finish`](OutcomeFrame::finish) appends
/// the measured trailer, checksums and length-prefixes.
pub struct OutcomeFrame {
    e: Enc,
}

impl OutcomeFrame {
    /// Encodes the frame body (version, tag, seq, canonical outcome).
    /// Any `latency` already on `outcome` is ignored — the trailer
    /// comes from [`finish`](OutcomeFrame::finish).
    pub fn begin(seq: u64, outcome: &WireOutcome) -> Self {
        let mut e = open_frame();
        e.u8(T_OUTCOME);
        seq.enc(&mut e);
        outcome.enc(&mut e);
        OutcomeFrame { e }
    }

    /// Appends the optional latency trailer, checksums, and returns the
    /// complete frame bytes (length prefix included).
    pub fn finish(mut self, latency: Option<OutcomeLatency>) -> Vec<u8> {
        latency_trailer(&mut self.e, latency);
        seal_frame(self.e)
    }
}

/// Decodes one payload (version, type, body, checksum).
///
/// # Errors
///
/// [`WireError::BadVersion`], [`WireError::BadChecksum`],
/// [`WireError::UnknownFrame`], [`WireError::Truncated`] or
/// [`WireError::Malformed`] for structural damage.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    if (payload.len() as u32) < MIN_PAYLOAD {
        return Err(WireError::Truncated);
    }
    let (body, tail) = payload.split_at(payload.len() - 4);
    if body[0] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion { got: body[0] });
    }
    let declared = u32::from_le_bytes(tail.try_into().unwrap());
    if fnv1a32(body) != declared {
        return Err(WireError::BadChecksum);
    }
    decode(&body[1..])
}

/// Incremental frame parser: feed raw bytes in, pull complete frames
/// out. Lets socket readers use short read timeouts without ever
/// losing the bytes of a partially received frame.
#[derive(Debug, Default)]
pub struct FrameCursor {
    buf: Vec<u8>,
    start: usize,
}

impl FrameCursor {
    /// An empty cursor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so the buffer doesn't grow without bound on a
        // long-lived connection.
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed buffered bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tries to parse the next complete frame. `Ok(None)` means more
    /// bytes are needed.
    ///
    /// # Errors
    ///
    /// Decode failures ([`WireError::TooLarge`] as soon as the length
    /// prefix arrives, the rest once the payload is complete). The
    /// cursor is poisoned conceptually after an error — callers close
    /// the connection.
    pub fn next_frame(&mut self, max_frame: u32) -> Result<Option<Frame>, WireError> {
        let avail = self.buffered();
        if avail < LEN_PREFIX {
            return Ok(None);
        }
        let len_bytes = &self.buf[self.start..self.start + LEN_PREFIX];
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap());
        if len > max_frame {
            return Err(WireError::TooLarge { len: u64::from(len), max: max_frame });
        }
        if len < MIN_PAYLOAD {
            return Err(WireError::Truncated);
        }
        let total = LEN_PREFIX + len as usize;
        if avail < total {
            return Ok(None);
        }
        let payload = &self.buf[self.start + LEN_PREFIX..self.start + total];
        let frame = decode_payload(payload)?;
        self.start += total;
        Ok(Some(frame))
    }
}

/// Writes one frame to a stream.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame))?;
    Ok(())
}

/// Blocking read of one frame. Returns [`WireError::Closed`] on EOF at
/// a frame boundary and [`WireError::Truncated`] on EOF mid-frame.
///
/// # Errors
///
/// Transport and decode failures.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Frame, WireError> {
    let mut cursor = FrameCursor::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = cursor.next_frame(max_frame)? {
            return Ok(frame);
        }
        match r.read(&mut chunk) {
            Ok(0) => {
                return Err(if cursor.buffered() == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => cursor.feed(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> WireOutcome {
        WireOutcome {
            reports: vec![
                WireReport {
                    fired: vec![3, 1],
                    transition_cycles: vec![40, 17],
                    assigned_tep: vec![0, 1],
                    cycle_length: 46,
                    raised: vec![2],
                    interrupt_latency: Some(12),
                },
                WireReport::default(),
            ],
            stats: WireStats {
                config_cycles: 2,
                transitions: 2,
                clock_cycles: 50,
                max_cycle_length: 46,
                tep_busy: vec![40, 17],
            },
            clock_cycles: 50,
            leftover_script: vec![vec![], vec!["TICK".into(), "GO".into()]],
            port_writes: vec![(0x20, -7, 46)],
            error: Some("divide by zero in `f` at pc 3".into()),
            latency: None,
        }
    }

    fn sample_diagnostics() -> Vec<Diagnostic> {
        vec![
            Diagnostic::error(Source::Chart, "SC201", "unknown state `Off`"),
            Diagnostic {
                severity: Severity::Warning,
                source: Source::Action,
                code: "AL301".into(),
                span: Span::new(Pos::new(3, 9, 41), Pos::new(3, 14, 46)),
                message: "unused variable `total`".into(),
                notes: vec!["declared here".into(), "never read".into()],
            },
        ]
    }

    /// `MIN_BYTES` is each layout's smallest encoding: the value with
    /// every collection empty, every option `None` and every number 0.
    /// The hand-written impls are the ones that can drift.
    #[test]
    fn min_bytes_is_the_smallest_encoding() {
        use crate::machine::SemanticState;
        use crate::optimize::MemoEntry;
        use crate::timing::{EventCycle, TimingReport};
        use pscp_statechart::semantics::ControlState;
        use pscp_tep::TepDataState;

        fn check<T: Wire>(smallest: T) {
            let name = std::any::type_name::<T>();
            assert_eq!(encode(&smallest).len(), T::MIN_BYTES, "{name}");
        }
        let control = || ControlState {
            active: vec![],
            conditions: vec![],
            pending_internal: vec![],
            history: vec![],
        };
        let data = || TepDataState { acc: 0, op: 0, regs: vec![], iram: vec![], xram: vec![] };
        let timing = || TimingReport { cycles: vec![], violations: vec![] };
        check(0u8);
        check(0u16);
        check(0u32);
        check(0u64);
        check(0i64);
        check(0u128);
        check(false);
        check(String::new());
        check(Vec::<WireReport>::new());
        check(BTreeMap::<u128, MemoEntry>::new());
        check(None::<u64>);
        check((0u64, String::new()));
        check((0u16, 0i64, 0u64));
        check(EventId::from_index(0));
        check(StateId::from_index(0));
        check(TransitionId::from_index(0));
        check(Severity::Error);
        check(Source::Chart);
        check(Span::NONE);
        check(Diagnostic::error(Source::Chart, "", ""));
        check(WireReport::default());
        check(WireStats::default());
        check(WireOutcome::default());
        check(OutcomeLatency::default());
        check(HistogramSnapshot { name: String::new(), count: 0, sum: 0, buckets: vec![] });
        check(MetricsSnapshot::default());
        check(ServeGauges::default());
        check(Predicate::EventNeverRaised(String::new()));
        check(Witness::default());
        let predicate = Predicate::StateNeverActive(String::new());
        check(Violation { predicate, witness: Witness::default() });
        check(ExploreReport::default());
        check(ExploreRequest { max_states: 0, max_depth: 0, max_witnesses: 0, predicates: vec![] });
        check(Submit {
            seq: 0,
            limits: BatchOptions { deadline: 0, max_steps: 0 },
            script: vec![],
        });
        check(Frame::StatsRequest);
        check(control());
        check(data());
        check(SemanticState {
            control: control(),
            timers: vec![],
            pending_timer_events: vec![],
            data: data(),
        });
        check(EventCycle { event: String::new(), path: vec![], transitions: vec![], length: 0 });
        check(crate::timing::Violation { event: String::new(), period: 0, worst: 0, path: vec![] });
        check(timing());
        check(MemoEntry { timing: timing(), area: 0 });
    }

    #[test]
    fn every_frame_round_trips() {
        let frames = vec![
            Frame::Hello { window: 8, fingerprint: 0xdead_beef, features: 0 },
            Frame::Hello { window: 8, fingerprint: 0xdead_beef, features: feature::LATENCY },
            Frame::Submit(Submit {
                seq: 42,
                limits: BatchOptions { deadline: u64::MAX, max_steps: 17 },
                script: vec![vec!["TICK".into()], vec![], vec!["A".into(), "B".into()]],
            }),
            Frame::Outcome { seq: 7, outcome: sample_outcome() },
            Frame::Credit { n: 3 },
            Frame::Error { code: error_code::BAD_CHECKSUM, message: "bad".into() },
            Frame::Compile {
                chart: "orstate Root { contains A; default A; }".into(),
                actions: "void f() { }".into(),
            },
            Frame::Diagnostics { fingerprint: 0xfeed_f00d, diagnostics: sample_diagnostics() },
            Frame::Diagnostics { fingerprint: 0, diagnostics: Vec::new() },
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            let mut cursor = FrameCursor::new();
            cursor.feed(&bytes);
            let got = cursor.next_frame(DEFAULT_MAX_FRAME).unwrap().unwrap();
            assert_eq!(got, f);
            assert_eq!(cursor.buffered(), 0);
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("machine_steps".into(), 1234), ("serve_errors".into(), 0)],
            per_worker: vec![("pool_scenarios".into(), vec![10, 0, 7])],
            tep_instr: vec![("ldi".into(), 99)],
            histograms: vec![HistogramSnapshot {
                name: "serve_sim_ns".into(),
                count: 3,
                sum: 1500,
                buckets: vec![(256, 511, 2), (512, 1023, 1)],
            }],
        }
    }

    #[test]
    fn outcome_body_round_trips() {
        let o = sample_outcome();
        assert_eq!(WireOutcome::decode(&o.encode()).unwrap(), o);
    }

    #[test]
    fn stats_frames_round_trip() {
        let frames = vec![
            Frame::StatsRequest,
            Frame::Stats {
                gauges: ServeGauges {
                    uptime_ns: 5_000_000_000,
                    registered_systems: 2,
                    live_connections: 1,
                    queue_depth: 4,
                    workers: 3,
                },
                snapshot: sample_snapshot(),
            },
            Frame::Stats { gauges: ServeGauges::default(), snapshot: MetricsSnapshot::default() },
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            let mut cursor = FrameCursor::new();
            cursor.feed(&bytes);
            assert_eq!(cursor.next_frame(DEFAULT_MAX_FRAME).unwrap().unwrap(), f);
        }
    }

    #[test]
    fn stats_body_round_trips() {
        let s = sample_snapshot();
        assert_eq!(decode_stats(&encode_stats(&s)).unwrap(), s);
        assert_eq!(
            decode_stats(&encode_stats(&MetricsSnapshot::default())).unwrap(),
            MetricsSnapshot::default()
        );
    }

    #[test]
    fn unknown_stats_version_is_malformed() {
        let mut bytes = encode_stats(&sample_snapshot());
        bytes[0] = 0xff;
        assert!(matches!(
            decode_stats(&bytes),
            Err(WireError::Malformed("unknown stats version"))
        ));
    }

    #[test]
    fn zero_feature_hello_matches_pre_feature_layout() {
        // The features word is omitted when zero, so a PR-9 client
        // that requests nothing emits bytes a PR-8 server accepts.
        let mut e = Enc::new();
        e.u8(PROTOCOL_VERSION);
        e.u8(T_HELLO);
        e.u32(8);
        e.u64(0xdead_beef);
        let checksum = fnv1a32(&e.buf);
        e.u32(checksum);
        let mut legacy = (e.buf.len() as u32).to_le_bytes().to_vec();
        legacy.extend_from_slice(&e.buf);
        let ours = encode_frame(&Frame::Hello {
            window: 8,
            fingerprint: 0xdead_beef,
            features: 0,
        });
        assert_eq!(ours, legacy);
        // And the legacy bytes decode with features == 0.
        let mut cursor = FrameCursor::new();
        cursor.feed(&legacy);
        assert_eq!(
            cursor.next_frame(DEFAULT_MAX_FRAME).unwrap().unwrap(),
            Frame::Hello { window: 8, fingerprint: 0xdead_beef, features: 0 }
        );
    }

    #[test]
    fn latency_trailer_rides_outside_the_canonical_body() {
        let mut o = sample_outcome();
        o.latency = Some(OutcomeLatency { queue_ns: 10, sim_ns: 2000, encode_ns: 30 });
        let mut plain = sample_outcome();
        plain.latency = None;
        // The canonical body ignores the trailer entirely…
        assert_eq!(o.encode(), plain.encode());
        // …but the Outcome *frame* carries and round-trips it.
        let f = Frame::Outcome { seq: 9, outcome: o.clone() };
        let bytes = encode_frame(&f);
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert_eq!(cursor.next_frame(DEFAULT_MAX_FRAME).unwrap().unwrap(), f);
        // A trailer-free frame is byte-identical to the PR-8 encoding
        // and decodes with latency == None.
        let f8 = Frame::Outcome { seq: 9, outcome: plain.clone() };
        let two_phase = OutcomeFrame::begin(9, &plain).finish(None);
        assert_eq!(encode_frame(&f8), two_phase);
    }

    #[test]
    fn outcome_frame_builder_matches_encode_frame() {
        let mut o = sample_outcome();
        let lat = OutcomeLatency { queue_ns: 1, sim_ns: 2, encode_ns: 3 };
        let built = OutcomeFrame::begin(77, &o).finish(Some(lat));
        o.latency = Some(lat);
        assert_eq!(built, encode_frame(&Frame::Outcome { seq: 77, outcome: o }));
    }

    #[test]
    fn diagnostic_body_round_trips() {
        let diags = sample_diagnostics();
        assert_eq!(decode_diagnostics(&encode_diagnostics(&diags)).unwrap(), diags);
        assert_eq!(decode_diagnostics(&encode_diagnostics(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn bad_severity_byte_is_malformed() {
        let mut bytes = encode_diagnostics(&sample_diagnostics());
        bytes[4] = 9; // first diagnostic's severity byte
        assert!(matches!(
            decode_diagnostics(&bytes),
            Err(WireError::Malformed("bad severity byte"))
        ));
    }

    #[test]
    fn cursor_handles_split_and_batched_frames() {
        let a = encode_frame(&Frame::Credit { n: 1 });
        let b = encode_frame(&Frame::Credit { n: 2 });
        let mut all = a.clone();
        all.extend_from_slice(&b);
        // Feed one byte at a time: frames appear exactly at their
        // boundaries.
        let mut cursor = FrameCursor::new();
        let mut seen = Vec::new();
        for &byte in &all {
            cursor.feed(&[byte]);
            while let Some(f) = cursor.next_frame(DEFAULT_MAX_FRAME).unwrap() {
                seen.push(f);
            }
        }
        assert_eq!(seen, vec![Frame::Credit { n: 1 }, Frame::Credit { n: 2 }]);
    }

    #[test]
    fn bad_version_is_typed() {
        let mut bytes = encode_frame(&Frame::Credit { n: 1 });
        bytes[LEN_PREFIX] = 9; // version byte
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(
            cursor.next_frame(DEFAULT_MAX_FRAME),
            Err(WireError::BadVersion { got: 9 })
        ));
    }

    #[test]
    fn corrupt_checksum_is_typed() {
        let mut bytes = encode_frame(&Frame::Credit { n: 1 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(cursor.next_frame(DEFAULT_MAX_FRAME), Err(WireError::BadChecksum)));
    }

    #[test]
    fn corrupt_body_fails_checksum_first() {
        let mut bytes = encode_frame(&Frame::Credit { n: 1 });
        bytes[LEN_PREFIX + 2] ^= 0x40; // a body byte
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(cursor.next_frame(DEFAULT_MAX_FRAME), Err(WireError::BadChecksum)));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_buffering() {
        let mut cursor = FrameCursor::new();
        cursor.feed(&u32::MAX.to_le_bytes());
        match cursor.next_frame(DEFAULT_MAX_FRAME) {
            Err(WireError::TooLarge { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, DEFAULT_MAX_FRAME);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_reports_truncated() {
        let bytes = encode_frame(&Frame::Hello { window: 4, fingerprint: 1, features: 0 });
        let cut = &bytes[..bytes.len() - 3];
        let mut reader = std::io::Cursor::new(cut.to_vec());
        assert!(matches!(
            read_frame(&mut reader, DEFAULT_MAX_FRAME),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn eof_at_boundary_is_closed() {
        let mut reader = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut reader, DEFAULT_MAX_FRAME), Err(WireError::Closed)));
    }

    #[test]
    fn undersized_length_prefix_is_truncated() {
        let mut cursor = FrameCursor::new();
        cursor.feed(&2u32.to_le_bytes());
        cursor.feed(&[PROTOCOL_VERSION, T_CREDIT]);
        assert!(matches!(cursor.next_frame(DEFAULT_MAX_FRAME), Err(WireError::Truncated)));
    }

    #[test]
    fn huge_declared_count_cannot_balloon_memory() {
        // A Submit frame whose script row count is enormous but whose
        // payload is tiny: the count guard must reject it as truncated
        // without attempting the allocation. Build the body by hand and
        // checksum it so only the count is wrong.
        let mut e = Enc::new();
        e.u8(PROTOCOL_VERSION);
        e.u8(T_SUBMIT);
        e.u64(0); // seq
        e.u64(u64::MAX); // deadline
        e.u64(1); // max_steps
        e.u32(u32::MAX); // declared rows — lie
        let checksum = fnv1a32(&e.buf);
        e.u32(checksum);
        let mut bytes = (e.buf.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&e.buf);
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(cursor.next_frame(DEFAULT_MAX_FRAME), Err(WireError::Truncated)));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut e = Enc::new();
        e.u8(PROTOCOL_VERSION);
        e.u8(T_CREDIT);
        e.u32(5);
        e.u8(0xaa); // trailing garbage inside the checksummed region
        let checksum = fnv1a32(&e.buf);
        e.u32(checksum);
        let mut bytes = (e.buf.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&e.buf);
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(
            cursor.next_frame(DEFAULT_MAX_FRAME),
            Err(WireError::Malformed("trailing bytes"))
        ));
    }

    #[test]
    fn unknown_frame_tag_is_typed() {
        let mut e = Enc::new();
        e.u8(PROTOCOL_VERSION);
        e.u8(200);
        let checksum = fnv1a32(&e.buf);
        e.u32(checksum);
        let mut bytes = (e.buf.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&e.buf);
        let mut cursor = FrameCursor::new();
        cursor.feed(&bytes);
        assert!(matches!(
            cursor.next_frame(DEFAULT_MAX_FRAME),
            Err(WireError::UnknownFrame { tag: 200 })
        ));
    }
}
