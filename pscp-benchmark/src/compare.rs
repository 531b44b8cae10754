//! `--compare A B`: per (metric, workload) verdicts between two result
//! files holding at least ten runs of each workload they compare.
//!
//! The rule is the one a performance claim must pass: the change (`B`)
//! improves a metric when it wins at least nine tenths of the paired
//! invocations (ties count for neither side) and the two medians differ
//! by more than the parent's (`A`'s) own interquartile distance;
//! regressions mirror it, and a median worse than the parent's by more
//! than the metric's bound is a regression too. A metric whose spread
//! exceeds its bound on either side is unresolved rather than unchanged. Any difference in
//! an exact simulated count, or in the digest of the verified outputs,
//! between invocations with the same seed is a behaviour change.

use crate::record::{lookup, Better, ResultFile, WorkloadResult};
use crate::stats::{iqr, median, spread};
use std::collections::{BTreeMap, BTreeSet};

/// Runs of a workload each side must hold.
pub const MIN_RUNS: usize = 10;

/// The outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges paired samples of one metric: `a[i]` (parent) against `b[i]`
/// (change).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let pairs = a.len().min(b.len());
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let noise = iqr(a).unwrap_or(0.0);
    let (mut wins_a, mut wins_b) = (0usize, 0usize);
    for (&x, &y) in a.iter().zip(b) {
        let b_better = match better {
            Better::Higher => y > x,
            Better::Lower => y < x,
        };
        if b_better {
            wins_b += 1;
        } else if x != y {
            wins_a += 1;
        }
    }
    let beyond_noise = (mb - ma).abs() > noise;
    if pairs > 0 && wins_b * 10 >= pairs * 9 && beyond_noise {
        return Verdict::Improved;
    }
    // The no-regression rule: a median worse by more than the bound is a
    // regression even when the pairs are split.
    let worse = match better {
        Better::Higher => (ma - mb) / ma.abs(),
        Better::Lower => (mb - ma) / ma.abs(),
    };
    if (pairs > 0 && wins_a * 10 >= pairs * 9 && beyond_noise) || bound.is_some_and(|b| worse > b) {
        return Verdict::Regressed;
    }
    let too_wide = |v: &[f64]| match (bound, spread(v)) {
        (Some(limit), Some(s)) => s > limit,
        _ => false,
    };
    if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub verdict: Verdict,
    pub median_a: f64,
    pub median_b: f64,
    pub pairs: usize,
}

/// A full comparison: metric rows plus behaviour changes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// `(workload, what)` for every exact count or output digest that
    /// differs between same-seed invocations.
    pub behaviour_changes: Vec<(String, String)>,
}

/// Every untraced, full-size run of each workload in `file`, by seed, in
/// file order within a seed.
fn runs(file: &ResultFile) -> BTreeMap<&str, BTreeMap<u64, Vec<&WorkloadResult>>> {
    let mut out: BTreeMap<&str, BTreeMap<u64, Vec<&WorkloadResult>>> = BTreeMap::new();
    for inv in file.invocations.iter().filter(|i| !i.trace && !i.smoke) {
        for w in &inv.workloads {
            out.entry(w.workload.as_str())
                .or_default()
                .entry(inv.seed)
                .or_default()
                .push(w);
        }
    }
    out
}

/// Compares the untraced runs of `a` (parent) and `b` (change),
/// workload by workload. A run pairs only with a run of the same seed on
/// the other side; several runs of one seed pair in file order, and the
/// surplus of the side with more stays unpaired.
///
/// # Errors
///
/// When a workload present on both sides has fewer than [`MIN_RUNS`]
/// seed-matched pairs.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<Comparison, String> {
    let (ra, rb) = (runs(a), runs(b));
    let mut out = Comparison::default();
    for (wl, xs) in &ra {
        let Some(ys) = rb.get(wl) else { continue };
        let pairs: Vec<(&WorkloadResult, &WorkloadResult)> = xs
            .iter()
            .filter_map(|(seed, x)| {
                ys.get(seed)
                    .map(|y| x.iter().copied().zip(y.iter().copied()))
            })
            .flatten()
            .collect();
        if pairs.len() < MIN_RUNS {
            return Err(format!(
                "{wl}: {} runs pair by seed (A holds {}, B {}); --compare needs at least {MIN_RUNS}",
                pairs.len(),
                xs.values().map(Vec::len).sum::<usize>(),
                ys.values().map(Vec::len).sum::<usize>()
            ));
        }
        let metrics: BTreeSet<&String> = pairs
            .iter()
            .flat_map(|(x, y)| x.metrics.keys().filter(|k| y.metrics.contains_key(*k)))
            .collect();
        for name in metrics {
            let (mut va, mut vb) = (Vec::new(), Vec::new());
            let mut unit = "";
            for (x, y) in &pairs {
                if let (Some(p), Some(q)) = (x.metrics.get(name), y.metrics.get(name)) {
                    va.push(p.value);
                    vb.push(q.value);
                    unit = &p.unit;
                }
            }
            let (better, bound) =
                lookup(name).map_or((Better::Lower, None), |d| (d.better, d.bound));
            out.rows.push(Row {
                workload: wl.to_string(),
                metric: name.clone(),
                unit: unit.to_string(),
                verdict: verdict(&va, &vb, better, bound),
                median_a: median(&va).unwrap_or(f64::NAN),
                median_b: median(&vb).unwrap_or(f64::NAN),
                pairs: va.len(),
            });
        }
        let mut changed = BTreeSet::new();
        for (x, y) in &pairs {
            for k in x.exact.keys().chain(y.exact.keys()) {
                if x.exact.get(k) != y.exact.get(k) {
                    changed.insert(format!("exact {k}"));
                }
            }
            if x.verify_digest != y.verify_digest {
                changed.insert("verified output digest".to_string());
            }
        }
        out.behaviour_changes
            .extend(changed.into_iter().map(|c| (wl.to_string(), c)));
    }
    Ok(out)
}
