//! The persistent candidate memo under lazy candidate evaluation.
//!
//! `optimize` evaluates only the candidates its §4 reduction consumes:
//! one improvement per step, then each shrink removal in turn. A cold
//! file-backed run must therefore write exactly one memo entry per
//! evaluation, and a warm rerun must serve every evaluation from the
//! file without compiling a candidate. A file clobbered with garbage
//! must degrade to a cold run with the same result. The key derivation
//! is pinned by `golden/dse/memo_keys_multi_head_2.txt`, the keys of
//! the 16 evaluations: every one must be in the file a cold run writes.
//! The file was recorded in a run that also derived each evaluation's
//! key the earlier way, from serialised JSON, and found every one of
//! those among the keys of a memo file written when every applicable
//! candidate was still evaluated.
//!
//! One `#[test]` in its own binary, because it reads process-wide
//! metric counters.

use pscp_bench::multi_head_inputs;
use pscp_core::arch::PscpArch;
use pscp_core::optimize::{
    optimize, MemoPersistence, MemoStore, OptimizationResult, OptimizeOptions,
};
use pscp_obs::metrics::{MEMO_HITS, MEMO_MISSES, OPT_CANDIDATES, OPT_CANDIDATE_COMPILE_NS};

/// Winners (13 improvement steps) plus shrink removals tried (3, none
/// kept) on the two-head beam.
const EVALUATIONS: usize = 16;

/// Counter readings around one run.
#[derive(Debug, PartialEq)]
struct Counts {
    candidates: u64,
    compiled: u64,
    hits: u64,
    misses: u64,
}

fn counts() -> Counts {
    Counts {
        candidates: OPT_CANDIDATES.get(),
        compiled: OPT_CANDIDATE_COMPILE_NS.count(),
        hits: MEMO_HITS.get(),
        misses: MEMO_MISSES.get(),
    }
}

fn counted(run: impl FnOnce() -> OptimizationResult) -> (OptimizationResult, Counts) {
    let before = counts();
    let r = run();
    let after = counts();
    let delta = Counts {
        candidates: after.candidates - before.candidates,
        compiled: after.compiled - before.compiled,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
    };
    (r, delta)
}

fn assert_same(a: &OptimizationResult, b: &OptimizationResult) {
    assert_eq!(a.history, b.history);
    assert_eq!(a.arch, b.arch);
    assert_eq!(a.codegen, b.codegen);
    assert_eq!(a.timing, b.timing);
    assert_eq!(a.satisfied, b.satisfied);
}

#[test]
fn memo_file_holds_one_entry_per_evaluation_and_serves_a_warm_rerun() {
    pscp_obs::set_flags(pscp_obs::METRICS);
    let (chart, ir) = multi_head_inputs(2);
    let path = std::env::temp_dir().join(format!("pscp-dse-memo-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let solve = |memo: MemoPersistence| {
        let options = OptimizeOptions { memo, ..OptimizeOptions::default() };
        optimize(&chart, &ir, &PscpArch::minimal(), &options).expect("optimize succeeds")
    };

    // In memory: nothing to consult, every evaluation compiles.
    let (reference, mem) = counted(|| solve(MemoPersistence::Disabled));
    assert!(reference.satisfied);
    let n = EVALUATIONS as u64;
    assert_eq!(mem, Counts { candidates: n, compiled: n, hits: 0, misses: 0 });

    // Cold file: one miss, one compile and one entry per evaluation.
    let (cold, cold_counts) = counted(|| solve(MemoPersistence::Path(path.clone())));
    assert_same(&cold, &reference);
    assert_eq!(cold_counts, Counts { candidates: n, compiled: n, hits: 0, misses: n });
    let store = MemoStore::at(&path);
    assert_eq!(store.len(), EVALUATIONS);

    // Every recorded key is in the file.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dse/memo_keys_multi_head_2.txt"
    ))
    .unwrap();
    let keys: Vec<u128> =
        golden.lines().map(|k| u128::from_str_radix(k, 16).expect("hex key")).collect();
    assert_eq!(keys.len(), EVALUATIONS);
    for k in keys {
        assert!(store.get(k).is_some(), "memo key {k:032x} diverged from the recorded derivation");
    }

    // Warm file: every evaluation hits, no candidate compiles, the
    // result is unchanged and the file gains nothing.
    let (warm, warm_counts) = counted(|| solve(MemoPersistence::Path(path.clone())));
    assert_same(&warm, &reference);
    assert_eq!(warm_counts, Counts { candidates: n, compiled: 0, hits: n, misses: 0 });
    assert_eq!(MemoStore::at(&path).len(), EVALUATIONS);

    // Corrupt file: garbage on disk is a cold start, never a failure —
    // every evaluation compiles again and the file is rewritten whole.
    std::fs::write(&path, "definitely not a memo file").expect("clobber memo file");
    let (corrupt, corrupt_counts) = counted(|| solve(MemoPersistence::Path(path.clone())));
    assert_same(&corrupt, &reference);
    assert_eq!(corrupt_counts, Counts { candidates: n, compiled: n, hits: 0, misses: n });
    assert_eq!(MemoStore::at(&path).len(), EVALUATIONS);
    let _ = std::fs::remove_file(&path);
}
