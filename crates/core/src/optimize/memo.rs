//! Persistent candidate memo store.
//!
//! The optimiser's candidate cache maps *content* — everything a
//! candidate evaluation reads — to its result (timing report + area).
//! The key is a stable hash over the serde serialisation of those
//! inputs, never `Debug` output (which is not a stability contract):
//! a [`fingerprint`] over the per-run-constant inputs (chart, IR,
//! timing options) combined per candidate with the architecture and
//! the storage placement ([`cache_key`]).
//!
//! [`MemoStore`] optionally persists the map to a versioned JSON file
//! so repeated `optimize()` runs and the bench suite start warm. The
//! file is strictly a cache: a missing, corrupt, truncated or
//! version-mismatched file degrades to a cold start, never an error,
//! and saving is best-effort (write to a temp file, then rename).

use crate::serve::JSON_INFALLIBLE;
use crate::timing::TimingReport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Bumped whenever the entry layout or key derivation changes; files
/// written by other versions are ignored (cold start).
pub const MEMO_FORMAT_VERSION: u32 = 1;

/// Environment variable controlling default persistence: unset, `off`
/// or `0` keeps the memo in memory; any other value is the file path.
pub const MEMO_ENV: &str = "PSCP_MEMO";

/// One memoised candidate evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoEntry {
    /// The candidate's timing report.
    pub timing: TimingReport,
    /// The candidate's total area in CLBs.
    pub area: u32,
}

/// The on-disk layout.
#[derive(Debug, Serialize, Deserialize)]
struct MemoFile {
    version: u32,
    entries: BTreeMap<String, MemoEntry>,
}

/// Where an optimiser run keeps its candidate memo.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum MemoPersistence {
    /// Resolve from the [`MEMO_ENV`] environment variable; unset means
    /// in-memory only.
    #[default]
    Default,
    /// In-memory only, no file I/O.
    Disabled,
    /// Persist to this file.
    Path(PathBuf),
}

/// The candidate memo: an in-memory map with optional file persistence.
#[derive(Debug)]
pub struct MemoStore {
    path: Option<PathBuf>,
    entries: BTreeMap<String, MemoEntry>,
    loaded: usize,
    dirty: bool,
}

impl MemoStore {
    /// A purely in-memory store.
    pub fn in_memory() -> MemoStore {
        MemoStore { path: None, entries: BTreeMap::new(), loaded: 0, dirty: false }
    }

    /// A store backed by `path`, warm-loaded from it when the file is
    /// present, readable, and of the current format version — any
    /// other condition is a cold start, not an error.
    pub fn at(path: impl Into<PathBuf>) -> MemoStore {
        let path = path.into();
        let entries = load_entries(&path);
        if entries.is_none() && path.exists() {
            // Present but unreadable, corrupt, or stale-versioned:
            // recovered by discarding it.
            pscp_obs::metrics::MEMO_CORRUPT_RECOVERIES.inc();
        }
        let entries = entries.unwrap_or_default();
        let loaded = entries.len();
        MemoStore { path: Some(path), entries, loaded, dirty: false }
    }

    /// Opens the store a [`MemoPersistence`] policy describes.
    pub fn open(persistence: &MemoPersistence) -> MemoStore {
        match persistence {
            MemoPersistence::Disabled => MemoStore::in_memory(),
            MemoPersistence::Path(p) => MemoStore::at(p.clone()),
            MemoPersistence::Default => match std::env::var(MEMO_ENV) {
                Ok(v) if !v.is_empty() && v != "off" && v != "0" => MemoStore::at(v),
                _ => MemoStore::in_memory(),
            },
        }
    }

    /// True when a file backs the store, so entries can come warm from
    /// an earlier run.
    pub fn is_persistent(&self) -> bool {
        self.path.is_some()
    }

    /// Looks up a candidate by key.
    pub fn get(&self, key: &str) -> Option<&MemoEntry> {
        let entry = self.entries.get(key);
        match entry {
            Some(_) => pscp_obs::metrics::MEMO_HITS.inc(),
            None => pscp_obs::metrics::MEMO_MISSES.inc(),
        }
        entry
    }

    /// Records a candidate evaluation.
    pub fn insert(&mut self, key: String, entry: MemoEntry) {
        if self.entries.insert(key, entry).is_none() {
            self.dirty = true;
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries that came warm from the backing file.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Writes the store back to its backing file (no-op for in-memory
    /// stores or when nothing changed). Best-effort: the memo is a
    /// cache, an unwritable file only costs the next run its warmth.
    pub fn save(&self) {
        let Some(path) = &self.path else { return };
        if !self.dirty {
            return;
        }
        let file =
            MemoFile { version: MEMO_FORMAT_VERSION, entries: self.entries.clone() };
        let Ok(json) = serde_json::to_string(&file) else { return };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, json).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }
}

fn load_entries(path: &Path) -> Option<BTreeMap<String, MemoEntry>> {
    let text = std::fs::read_to_string(path).ok()?;
    let file: MemoFile = serde_json::from_str(&text).ok()?;
    (file.version == MEMO_FORMAT_VERSION).then_some(file.entries)
}

/// The conventional memo location: `target/pscp-memo.json` under the
/// enclosing workspace (found by walking up to `Cargo.lock`), falling
/// back to the current directory.
pub fn default_memo_path() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("target").join("pscp-memo.json");
        }
        if !dir.pop() {
            return PathBuf::from("target").join("pscp-memo.json");
        }
    }
}

/// 64-bit FNV-1a over `bytes`, mixed with `seed` so two independent
/// passes give independent halves of a wider key.
fn stable_hash64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable 128-bit hex key over a sequence of serialised parts. Parts
/// are length-prefixed so `["ab", "c"]` and `["a", "bc"]` differ.
pub fn stable_key(parts: &[&str]) -> String {
    let mut buf = Vec::with_capacity(parts.iter().map(|p| p.len() + 8).sum());
    for p in parts {
        buf.extend_from_slice(&(p.len() as u64).to_le_bytes());
        buf.extend_from_slice(p.as_bytes());
    }
    format!("{:016x}{:016x}", stable_hash64(&buf, 0), stable_hash64(&buf, 1))
}

/// Hash of the per-run-constant evaluation inputs: chart, action IR,
/// timing options. Ties persisted entries to the problem they were
/// computed for, so one memo file can serve many systems.
pub fn fingerprint(
    chart: &pscp_statechart::Chart,
    ir: &pscp_action_lang::ir::Program,
    timing: &crate::timing::TimingOptions,
) -> String {
    let chart_json = serde_json::to_string(chart).expect(JSON_INFALLIBLE);
    let ir_json = serde_json::to_string(ir).expect(JSON_INFALLIBLE);
    let timing_json = serde_json::to_string(timing).expect(JSON_INFALLIBLE);
    stable_key(&[&chart_json, &ir_json, &timing_json])
}

/// The memo key of one candidate: the run fingerprint plus everything
/// that varies per candidate — the full architecture and the storage
/// placement decisions.
pub fn cache_key(
    fingerprint: &str,
    arch: &crate::arch::PscpArch,
    codegen: &pscp_tep::codegen::CodegenOptions,
) -> String {
    let arch_json = serde_json::to_string(arch).expect(JSON_INFALLIBLE);
    let codegen_json = serde_json::to_string(codegen).expect(JSON_INFALLIBLE);
    stable_key(&[fingerprint, &arch_json, &codegen_json])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingReport;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pscp-memo-test-{}-{name}", std::process::id()))
    }

    fn entry(area: u32) -> MemoEntry {
        MemoEntry {
            timing: TimingReport { cycles: Vec::new(), violations: Vec::new() },
            area,
        }
    }

    #[test]
    fn roundtrip_through_file() {
        let path = scratch("roundtrip.json");
        let _ = std::fs::remove_file(&path);
        let mut store = MemoStore::at(&path);
        assert_eq!(store.loaded(), 0, "missing file is a cold start");
        store.insert("k1".into(), entry(100));
        store.insert("k2".into(), entry(200));
        store.save();

        let warm = MemoStore::at(&path);
        assert_eq!(warm.loaded(), 2);
        assert_eq!(warm.get("k1").unwrap().area, 100);
        assert_eq!(warm.get("k2").unwrap().area, 200);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_file_is_cold_not_fatal() {
        let path = scratch("corrupt.json");
        std::fs::write(&path, "{not json at all").unwrap();
        let store = MemoStore::at(&path);
        assert_eq!(store.loaded(), 0);
        assert!(store.is_empty());
        // And a truncated-but-valid-prefix file.
        std::fs::write(&path, r#"{"version":1,"entries":{"x""#).unwrap();
        assert_eq!(MemoStore::at(&path).loaded(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_version_is_ignored() {
        let path = scratch("stale.json");
        let json = format!(
            r#"{{"version":{},"entries":{{}}}}"#,
            MEMO_FORMAT_VERSION + 1
        );
        std::fs::write(&path, json).unwrap();
        let store = MemoStore::at(&path);
        assert_eq!(store.loaded(), 0, "future version must be ignored");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_without_changes_is_a_noop() {
        let path = scratch("noop.json");
        let _ = std::fs::remove_file(&path);
        let store = MemoStore::at(&path);
        store.save();
        assert!(!path.exists(), "nothing inserted, nothing written");
    }

    #[test]
    fn stable_key_separates_part_boundaries() {
        assert_ne!(stable_key(&["ab", "c"]), stable_key(&["a", "bc"]));
        assert_ne!(stable_key(&["x"]), stable_key(&["x", ""]));
        assert_eq!(stable_key(&["x", "y"]), stable_key(&["x", "y"]));
    }

    #[test]
    fn stable_key_golden_value_is_pinned() {
        // Golden pin: persisted memo files key on this exact derivation.
        // If this assertion ever fails, the key schema changed and
        // MEMO_FORMAT_VERSION must be bumped with it.
        assert_eq!(stable_key(&["pscp", "memo"]), "62bd103d966eaad9b2f2947fae2bc648");
    }

    #[test]
    fn arc_fields_serialize_transparently() {
        // `CompiledSystem`'s chart/layout/sla are Arc-shared; the memo
        // fingerprint and the serve-layer system fingerprint both hash
        // serde output, so Arc must serialise exactly like the inline
        // value.
        let v = vec![1u32, 2, 3];
        let arc = std::sync::Arc::new(v.clone());
        assert_eq!(
            serde_json::to_string(&arc).unwrap(),
            serde_json::to_string(&v).unwrap()
        );
    }

    #[test]
    fn disabled_and_default_do_no_io() {
        let store = MemoStore::open(&MemoPersistence::Disabled);
        assert!(store.path.is_none());
        // PSCP_MEMO is unset in the test environment.
        if std::env::var(MEMO_ENV).is_err() {
            assert!(MemoStore::open(&MemoPersistence::Default).path.is_none());
        }
    }
}
