//! Persistent candidate memo store.
//!
//! The optimiser's candidate cache maps *content* — everything a
//! candidate evaluation reads — to its result (timing report + area).
//! The key is a 128-bit [`KeyHasher`] hash over the `Hash` impls of
//! those inputs, never `Debug` output (which is not a stability
//! contract): a [`fingerprint`] over the per-run-constant inputs
//! (chart, IR, timing options) combined per candidate with the
//! architecture and the storage placement ([`cache_key`]).
//!
//! [`MemoStore`] optionally persists the map to a versioned binary file
//! so repeated `optimize()` runs start warm. The file is written with
//! the wire codec: the magic `PSCPMEMO`, the `u32` format version, the
//! `u32` entry count, then per entry the key as two `u64`s (high half
//! first), the `u32` area and the timing report. Every count is bounded
//! by the bytes left, so decoding never recurses and never allocates
//! past the file. The file is strictly a cache: a missing, corrupt,
//! truncated or version-mismatched file degrades to a cold start, never
//! an error, and saving is best-effort (write to a temp file, then
//! rename).

use crate::serve::wire::{expect_version, wire_struct, Dec, Enc, Wire};
use crate::timing::{EventCycle, TimingReport, Violation};
use pscp_statechart::{StateId, TransitionId};
use pscp_tep::KeyHasher;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Bumped whenever the file layout or key derivation changes; files
/// written by other versions are ignored (cold start).
pub const MEMO_FORMAT_VERSION: u32 = 2;

/// First bytes of every memo file, `PSCPMEMO`.
const MEMO_MAGIC: u64 = u64::from_le_bytes(*b"PSCPMEMO");

/// Environment variable controlling default persistence: unset, `off`
/// or `0` keeps the memo in memory; any other value is the file path.
pub const MEMO_ENV: &str = "PSCP_MEMO";

/// One memoised candidate evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoEntry {
    /// The candidate's timing report.
    pub timing: TimingReport,
    /// The candidate's total area in CLBs.
    pub area: u32,
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
    entries: BTreeMap<u128, MemoEntry>,
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
    pub fn get(&self, key: u128) -> Option<&MemoEntry> {
        let entry = self.entries.get(&key);
        match entry {
            Some(_) => pscp_obs::metrics::MEMO_HITS.inc(),
            None => pscp_obs::metrics::MEMO_MISSES.inc(),
        }
        entry
    }

    /// Records a candidate evaluation.
    pub fn insert(&mut self, key: u128, entry: MemoEntry) {
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
        let mut e = Enc::new();
        MEMO_MAGIC.enc(&mut e);
        MEMO_FORMAT_VERSION.enc(&mut e);
        self.entries.enc(&mut e);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, e.buf).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }
}

fn load_entries(path: &Path) -> Option<BTreeMap<u128, MemoEntry>> {
    let bytes = std::fs::read(path).ok()?;
    let mut d = Dec::new(&bytes);
    expect_version(&mut d, MEMO_MAGIC, "not a memo file").ok()?;
    expect_version(&mut d, MEMO_FORMAT_VERSION, "memo format version").ok()?;
    let entries = Wire::dec(&mut d).ok()?;
    d.finish().ok()?;
    Some(entries)
}

wire_struct!(MemoEntry { area: u32, timing: TimingReport });
wire_struct!(TimingReport { cycles: Vec<EventCycle>, violations: Vec<Violation> });
wire_struct!(EventCycle {
    event: String,
    path: Vec<StateId>,
    transitions: Vec<TransitionId>,
    length: u64,
});
wire_struct!(Violation { event: String, period: u64, worst: u64, path: Vec<StateId> });

/// Hash of the per-run-constant evaluation inputs: chart, action IR,
/// timing options. Ties persisted entries to the problem they were
/// computed for, so one memo file can serve many systems.
pub fn fingerprint(
    chart: &pscp_statechart::Chart,
    ir: &pscp_action_lang::ir::Program,
    timing: &crate::timing::TimingOptions,
) -> u128 {
    KeyHasher::key(&(chart, ir, timing))
}

/// The memo key of one candidate: the run fingerprint plus everything
/// that varies per candidate — the full architecture and the storage
/// placement decisions.
pub fn cache_key(
    fingerprint: u128,
    arch: &crate::arch::PscpArch,
    codegen: &pscp_tep::codegen::CodegenOptions,
) -> u128 {
    KeyHasher::key(&(fingerprint, arch, codegen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{PscpArch, TimerSpec};
    use crate::timing::TimingReport;
    use pscp_statechart::encoding::EncodingStyle;
    use pscp_tep::codegen::CodegenOptions;
    use pscp_tep::StorageClass;

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
        let path = scratch("roundtrip.bin");
        let _ = std::fs::remove_file(&path);
        let mut store = MemoStore::at(&path);
        assert_eq!(store.loaded(), 0, "missing file is a cold start");
        store.insert(1, entry(100));
        store.insert(u128::MAX, entry(200));
        store.save();

        let warm = MemoStore::at(&path);
        assert_eq!(warm.loaded(), 2);
        assert_eq!(warm.get(1).unwrap().area, 100);
        assert_eq!(warm.get(u128::MAX).unwrap().area, 200);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_without_changes_is_a_noop() {
        let path = scratch("noop.bin");
        let _ = std::fs::remove_file(&path);
        let store = MemoStore::at(&path);
        store.save();
        assert!(!path.exists(), "nothing inserted, nothing written");
    }

    /// The minimal architecture, then one variant per `PscpArch` field
    /// and per `CodegenOptions` field.
    fn candidates() -> Vec<(&'static str, (PscpArch, CodegenOptions))> {
        let arch = |f: fn(&mut PscpArch)| {
            let mut a = PscpArch::minimal();
            f(&mut a);
            (a, CodegenOptions::default())
        };
        let mut promoted = CodegenOptions::default();
        promoted.global_promotions.insert(0, StorageClass::Register);
        let timer = TimerSpec { name: "T".into(), event: "E".into(), port_address: 7 };
        let mut timers = PscpArch::minimal();
        timers.timers.push(timer);
        vec![
            ("minimal", arch(|_| {})),
            ("n_teps", arch(|a| a.n_teps = 2)),
            ("tep", arch(|a| a.tep.calc.comparator = !a.tep.calc.comparator)),
            ("encoding", arch(|a| a.encoding = EncodingStyle::OneHot)),
            ("mutual_exclusion", arch(|a| a.mutual_exclusion = vec![[0, 1].into()])),
            ("clock_mhz", arch(|a| a.clock_mhz = 15.5)),
            ("timers", (timers, CodegenOptions::default())),
            ("interrupt_events", arch(|a| {
                a.interrupt_events.insert("E".into());
            })),
            ("label", arch(|a| a.label.push('!'))),
            ("global_promotions", (PscpArch::minimal(), promoted)),
        ]
    }

    #[test]
    fn cache_key_sees_every_field() {
        let candidates = candidates();
        for (i, (what, (arch, cg))) in candidates.iter().enumerate() {
            let key = cache_key(7, arch, cg);
            assert_eq!(key, cache_key(7, &arch.clone(), &cg.clone()), "{what}: not deterministic");
            assert_ne!(key, cache_key(8, arch, cg), "{what}: fingerprint ignored");
            for (other, (arch2, cg2)) in &candidates[..i] {
                assert_ne!(key, cache_key(7, arch2, cg2), "{what} and {other} share a key");
            }
        }
    }

    #[test]
    fn cache_key_golden_value_is_pinned() {
        // Golden pin: persisted memo files key on this exact derivation.
        // If this assertion ever fails, the key schema changed and
        // MEMO_FORMAT_VERSION must be bumped with it.
        let key = cache_key(0x5053_4350, &PscpArch::minimal(), &CodegenOptions::default());
        assert_eq!(format!("{key:032x}"), "cdbe2fbbcf114cec5189fbcc7ee342f9");
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
