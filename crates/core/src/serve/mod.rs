//! Scenario serving: stream batched co-simulation over TCP.
//!
//! One long-running server loads a single [`CompiledSystem`] and
//! serves scripted scenarios from many concurrent clients, sharding
//! the work across a persistent pool of simulation workers. The wire
//! protocol ([`wire`]) is a versioned, length-prefixed, checksummed
//! binary frame format with no external dependencies; flow control is
//! credit-based per connection (see [`wire::Frame::Credit`]).
//!
//! The correctness contract is differential: a scenario submitted over
//! the wire must produce a [`wire::WireOutcome`] byte-identical to the
//! encoding of the same scenario run through
//! [`SimPool::run_batch`](crate::pool::SimPool::run_batch)
//! in-process. `crates/core/tests/serve_differential.rs` pins this
//! under worker/client concurrency and out-of-order interleavings.
//!
//! Environment:
//!
//! | variable            | meaning                               | default           |
//! |---------------------|---------------------------------------|-------------------|
//! | `PSCP_SERVE_ADDR`   | listen address for the server binary  | `127.0.0.1:7971`  |
//! | `PSCP_SERVE_WINDOW` | max per-connection credit window      | `32`              |
//! | `PSCP_THREADS`      | shard worker count (shared with pool) | available cores   |
//! | `PSCP_GANG`         | per-worker gang width (shared with pool) | `64` (`auto`)  |
//! | `PSCP_SERVE_STATS`  | telemetry scrapes (`off`/`0`/`false` disables) | on        |

pub mod wire;

mod client;
mod server;

pub use client::ScenarioClient;
pub use server::{serve, spawn, ServerHandle};
pub use wire::{
    Frame, OutcomeLatency, ServeGauges, WireError, WireOutcome, DEFAULT_MAX_FRAME, DEFAULT_WINDOW,
};

use crate::compile::CompiledSystem;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Shard worker threads (one persistent machine each).
    pub threads: usize,
    /// Upper bound on any connection's credit window; client requests
    /// are clamped into `1..=max_window`.
    pub max_window: u32,
    /// Largest accepted frame in bytes.
    pub max_frame: u32,
    /// Gang width: each shard worker packs up to this many queued
    /// scenarios into one bit-sliced gang when queue depth allows
    /// (clamped to `1..=64`; 1 is the scalar path). Outcomes stay
    /// byte-identical either way — the differential suite pins it.
    pub gang: usize,
    /// Answer `StatsRequest` frames (the remote telemetry plane). On
    /// by default; `PSCP_SERVE_STATS=off` disables, after which a
    /// scrape gets a typed `UNEXPECTED_FRAME` error.
    pub stats: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: crate::pool::configured_threads(),
            max_window: DEFAULT_WINDOW,
            max_frame: DEFAULT_MAX_FRAME,
            gang: crate::pool::configured_gang(),
            stats: true,
        }
    }
}

impl ServeOptions {
    /// Defaults overridden by `PSCP_SERVE_WINDOW` and
    /// `PSCP_SERVE_STATS` (plus `PSCP_THREADS` via
    /// [`configured_threads`](crate::pool::configured_threads) and
    /// `PSCP_GANG` via
    /// [`configured_gang`](crate::pool::configured_gang)).
    pub fn from_env() -> Self {
        let mut opts = Self::default();
        if let Ok(v) = std::env::var("PSCP_SERVE_WINDOW") {
            if let Ok(n) = v.trim().parse::<u32>() {
                opts.max_window = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("PSCP_SERVE_STATS") {
            if matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "false") {
                opts.stats = false;
            }
        }
        opts
    }
}

/// The listen address for the server binary: `PSCP_SERVE_ADDR`, or the
/// loopback default.
pub fn addr_from_env() -> String {
    std::env::var("PSCP_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7971".to_string())
}

/// 64-bit FNV-1a — companion to [`wire::fnv1a32`] for fingerprints.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why fingerprints never fall back on a serialisation error: the JSON
/// encoder builds a value tree and writes it into a `String`, and
/// neither step can fail, so `to_string` always returns `Ok`. A
/// fallback (an empty string, say) would silently give unrelated
/// inputs one fingerprint; should encoding ever fail, stop instead.
pub(crate) const JSON_INFALLIBLE: &str =
    "JSON encoding into a String is infallible for the model types";

/// A stable fingerprint of a compiled system, exchanged in the `Hello`
/// handshake so a client can refuse to talk to a server built from a
/// different design.
pub fn system_fingerprint(system: &CompiledSystem) -> u64 {
    let json = serde_json::to_string(system).expect(JSON_INFALLIBLE);
    fnv1a64(json.as_bytes())
}

/// The per-process system table: every system compiled over the wire
/// (and every system a server starts serving) registers here, keyed by
/// its [`system_fingerprint`]. The `Diagnostics` reply hands the
/// fingerprint back to the client, which can then pin it in a `Hello`
/// or retrieve the compiled system in-process via [`lookup_system`].
fn system_table() -> &'static Mutex<BTreeMap<u64, Arc<CompiledSystem>>> {
    static TABLE: OnceLock<Mutex<BTreeMap<u64, Arc<CompiledSystem>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Registers a compiled system in the per-process table and returns
/// its fingerprint. Registering the same system twice is idempotent
/// (same fingerprint, same key).
pub fn register_system(system: Arc<CompiledSystem>) -> u64 {
    let fp = system_fingerprint(&system);
    system_table().lock().unwrap().insert(fp, system);
    fp
}

/// Looks up a registered compiled system by fingerprint.
pub fn lookup_system(fingerprint: u64) -> Option<Arc<CompiledSystem>> {
    system_table().lock().unwrap().get(&fingerprint).cloned()
}

/// Number of systems currently registered in the per-process table.
pub fn registered_systems() -> usize {
    system_table().lock().unwrap().len()
}
