//! The memo file codec on real data and on unreadable files.
//!
//! A saved memo must load back equal: a pickup-head timing report with
//! event cycles and violations, and the same report with a cycle length
//! of `u64::MAX`. Every file the codec cannot read — any truncation,
//! trailing bytes, a wrong magic or version, a declared entry count
//! larger than the file, or a memo written in the old JSON format — must
//! be a cold start that counts one corrupt-file recovery. The bytes a
//! hand-built store saves are pinned by length and FNV-1a64 digest, so
//! a layout change that moves encoder and decoder together still fails.
//!
//! One `#[test]` in its own binary, because it reads a process-wide
//! metric counter.

use pscp_bench::{example_system, example_timing};
use pscp_core::arch::PscpArch;
use pscp_core::explore::FnvHasher;
use pscp_core::optimize::memo::MEMO_FORMAT_VERSION;
use pscp_core::optimize::{MemoEntry, MemoStore};
use pscp_core::timing::{EventCycle, TimingReport, Violation};
use pscp_obs::metrics::MEMO_CORRUPT_RECOVERIES;
use pscp_statechart::{StateId, TransitionId};
use std::hash::Hasher;
use std::path::Path;

/// Opens `bytes` as a memo file and checks it is a counted cold start.
fn assert_cold(path: &Path, bytes: &[u8], what: &str) {
    std::fs::write(path, bytes).unwrap();
    let before = MEMO_CORRUPT_RECOVERIES.get();
    let store = MemoStore::at(path);
    assert!(store.is_empty() && store.loaded() == 0, "{what}: loaded entries");
    assert_eq!(MEMO_CORRUPT_RECOVERIES.get() - before, 1, "{what}: recovery not counted");
}

#[test]
fn memo_file_round_trips_and_unreadable_files_start_cold() {
    pscp_obs::set_flags(pscp_obs::METRICS);
    let path = std::env::temp_dir().join(format!("pscp-memo-codec-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let timing = example_timing(&example_system(&PscpArch::md16_unoptimized()));
    assert!(!timing.cycles.is_empty() && !timing.violations.is_empty());
    let mut extreme = timing.clone();
    extreme.cycles[0].length = u64::MAX;
    let entries = [
        (u128::MAX, MemoEntry { timing, area: 412 }),
        (0, MemoEntry { timing: extreme, area: u32::MAX }),
    ];
    let mut store = MemoStore::at(&path);
    for (key, entry) in &entries {
        store.insert(*key, entry.clone());
    }
    store.save();
    let warm = MemoStore::at(&path);
    assert_eq!(warm.loaded(), entries.len());
    for (key, entry) in &entries {
        assert_eq!(warm.get(*key), Some(entry));
    }

    // Layout: 8-byte magic, u32 version, u32 entry count, entries.
    let good = std::fs::read(&path).unwrap();
    for len in 0..good.len() {
        assert_cold(&path, &good[..len], &format!("truncated to {len} bytes"));
    }
    assert_cold(&path, &[&good[..], &[0]].concat(), "trailing byte");
    let mut bad = good.clone();
    bad[0] ^= 0x20;
    assert_cold(&path, &bad, "wrong magic");
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&(MEMO_FORMAT_VERSION + 1).to_le_bytes());
    assert_cold(&path, &bad, "wrong version");
    let mut bad = good.clone();
    bad[12..16].copy_from_slice(&1000u32.to_le_bytes());
    assert_cold(&path, &bad, "count larger than the file");
    let v1 = concat!(
        r#"{"version":1,"entries":{"62bd103d966eaad9b2f2947fae2bc648":"#,
        r#"{"timing":{"cycles":[],"violations":[]},"area":268}}}"#
    );
    assert_cold(&path, v1.as_bytes(), "version-1 JSON memo");

    // The file is rewritten whole once a cold store gains an entry.
    let mut store = MemoStore::at(&path);
    store.insert(7, entries[0].1.clone());
    store.save();
    assert_eq!(MemoStore::at(&path).loaded(), 1);

    // The saved bytes of a hand-built store are pinned.
    let _ = std::fs::remove_file(&path);
    let states = |ids: &[usize]| ids.iter().map(|&i| StateId::from_index(i)).collect();
    let timing = TimingReport {
        cycles: vec![
            EventCycle {
                event: "DATA_VALID".into(),
                path: states(&[0, 4, 2]),
                transitions: vec![TransitionId::from_index(3), TransitionId::from_index(1)],
                length: 96,
            },
            EventCycle { event: String::new(), path: vec![], transitions: vec![], length: 0 },
        ],
        violations: vec![Violation {
            event: "PULSE".into(),
            period: 40,
            worst: u64::MAX,
            path: states(&[1]),
        }],
    };
    let mut store = MemoStore::at(&path);
    store.insert(u128::MAX - 5, MemoEntry { timing, area: 268 });
    store.insert(
        9,
        MemoEntry { timing: TimingReport { cycles: vec![], violations: vec![] }, area: 0 },
    );
    store.save();
    let bytes = std::fs::read(&path).unwrap();
    let mut h = FnvHasher::default();
    h.write(&bytes);
    assert_eq!(
        (bytes.len(), h.finish()),
        (175, 15_862_779_054_035_832_407),
        "memo file bytes moved"
    );
    let _ = std::fs::remove_file(&path);
}
