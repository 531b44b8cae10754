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
use pscp_tep::KeyHasher;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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
            stats: true,
        }
    }
}

impl ServeOptions {
    /// Defaults overridden by `PSCP_SERVE_WINDOW` and
    /// `PSCP_SERVE_STATS` (plus `PSCP_THREADS` via
    /// [`configured_threads`](crate::pool::configured_threads), read by
    /// [`Default`]).
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

/// A stable fingerprint of a compiled system, exchanged in the `Hello`
/// handshake so a client can refuse to talk to a server built from a
/// different design: the low half of its [`KeyHasher`] content key.
pub fn system_fingerprint(system: &CompiledSystem) -> u64 {
    KeyHasher::key(system) as u64
}

/// The per-process system table: every system compiled over the wire
/// (and every system a server starts serving) registers here, keyed by
/// its [`system_fingerprint`]. The `Diagnostics` reply hands the
/// fingerprint back to the client, which can then pin it in a `Hello`
/// or retrieve the compiled system in-process via [`lookup_system`].
fn system_table() -> MutexGuard<'static, BTreeMap<u64, Arc<CompiledSystem>>> {
    static TABLE: OnceLock<Mutex<BTreeMap<u64, Arc<CompiledSystem>>>> = OnceLock::new();
    // A `BTreeMap` insert or lookup leaves no half-done state behind, so
    // a thread that panicked while holding the lock cannot have broken
    // the table: recover it instead of failing every later caller.
    TABLE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Registers a compiled system in the per-process table and returns
/// its fingerprint. Registering the same system twice is idempotent
/// (same fingerprint, same key).
pub fn register_system(system: Arc<CompiledSystem>) -> u64 {
    let fp = system_fingerprint(&system);
    system_table().insert(fp, system);
    fp
}

/// Looks up a registered compiled system by fingerprint.
pub fn lookup_system(fingerprint: u64) -> Option<Arc<CompiledSystem>> {
    system_table().get(&fingerprint).cloned()
}

/// Number of systems currently registered in the per-process table.
pub fn registered_systems() -> usize {
    system_table().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PscpArch;
    use crate::compile::compile_system;
    use pscp_statechart::{ChartBuilder, StateKind};
    use pscp_tep::codegen::CodegenOptions;

    fn toggle_system(period: u64) -> CompiledSystem {
        let mut b = ChartBuilder::new("toggle");
        b.event("TICK", Some(period));
        b.state("Top", StateKind::Or).contains(["Off", "On"]).default_child("Off");
        b.state("Off", StateKind::Basic).transition("On", "TICK");
        b.state("On", StateKind::Basic).transition("Off", "TICK");
        let chart = b.build().unwrap();
        compile_system(&chart, "", &PscpArch::dual_md16(true), &CodegenOptions::default())
            .unwrap()
    }

    #[test]
    fn fingerprint_sees_content_not_sharing() {
        let shared = toggle_system(100);
        let deep = CompiledSystem {
            chart: Arc::new((*shared.chart).clone()),
            layout: Arc::new((*shared.layout).clone()),
            sla: Arc::new((*shared.sla).clone()),
            selection: Arc::new((*shared.selection).clone()),
            ..shared.clone()
        };
        assert!(!Arc::ptr_eq(&shared.chart, &deep.chart));
        assert!(!Arc::ptr_eq(&shared.selection, &deep.selection));
        assert_eq!(shared, deep);
        assert_eq!(system_fingerprint(&shared), system_fingerprint(&deep));
        assert_eq!(system_fingerprint(&shared), system_fingerprint(&shared.clone()));
        assert_ne!(system_fingerprint(&shared), system_fingerprint(&toggle_system(101)));
    }

    #[test]
    fn a_panic_under_the_lock_does_not_poison_the_table() {
        let poisoner = std::thread::spawn(|| {
            let _guard = system_table();
            panic!("poison the system table");
        });
        assert!(poisoner.join().is_err());
        let system = Arc::new(toggle_system(102));
        let fp = register_system(Arc::clone(&system));
        assert!(Arc::ptr_eq(&lookup_system(fp).expect("registered"), &system));
        assert!(registered_systems() >= 1);
    }
}
