//! The persistent candidate memo under lazy candidate evaluation.
//!
//! `optimize` evaluates only the candidates its §4 reduction consumes:
//! one improvement per step, then each shrink removal in turn. A cold
//! file-backed run must therefore write exactly one memo entry per
//! evaluation, and a warm rerun must serve every evaluation from the
//! file without compiling a candidate. A file clobbered with garbage
//! must degrade to a cold run with the same result. The key derivation
//! is pinned by the keys of a memo file written before evaluation
//! became lazy (`golden/dse/memo_keys_multi_head_2.txt`, recorded when
//! every applicable candidate was still evaluated): every key this run
//! writes must be one of them, so such a file keeps warm-starting the
//! run.
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
    let path = std::env::temp_dir().join(format!("pscp-dse-memo-{}.json", std::process::id()));
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
    assert_eq!(MemoStore::at(&path).len(), EVALUATIONS);

    // Every key written is one the pre-lazy run wrote too.
    let text = std::fs::read_to_string(&path).unwrap();
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dse/memo_keys_multi_head_2.txt"
    ))
    .unwrap();
    let shared = golden.lines().filter(|k| text.contains(&format!("\"{k}\""))).count();
    assert_eq!(shared, EVALUATIONS, "memo keys diverged from the recorded derivation");

    // Warm file: every evaluation hits, no candidate compiles, the
    // result is unchanged and the file gains nothing.
    let (warm, warm_counts) = counted(|| solve(MemoPersistence::Path(path.clone())));
    assert_same(&warm, &reference);
    assert_eq!(warm_counts, Counts { candidates: n, compiled: 0, hits: n, misses: 0 });
    assert_eq!(MemoStore::at(&path).len(), EVALUATIONS);

    // Corrupt file: garbage on disk is a cold start, never a failure —
    // every evaluation compiles again and the file is rewritten whole.
    std::fs::write(&path, "definitely not json").expect("clobber memo file");
    let (corrupt, corrupt_counts) = counted(|| solve(MemoPersistence::Path(path.clone())));
    assert_same(&corrupt, &reference);
    assert_eq!(corrupt_counts, Counts { candidates: n, compiled: n, hits: 0, misses: n });
    assert_eq!(MemoStore::at(&path).len(), EVALUATIONS);
    let _ = std::fs::remove_file(&path);
}
