//! Iterative architecture/instruction improvement (§4).
//!
//! "If a violation for an event cycle is detected, improvements are
//! applied in increasing order of difficulty to the transitions in
//! question":
//!
//! 1. peephole optimisation of the microprograms (plus the
//!    assembler-level cleanup) — [`Improvement::EnableCodeOptimization`];
//! 2. storage promotion, "changed from external to internal to
//!    registers" — [`Improvement::PromoteGlobalsInternal`] /
//!    [`Improvement::PromoteGlobalsRegisters`];
//! 3. pattern matching on the datapath: comparator, two's complement,
//!    bus widening, the M/D unit — [`Improvement::AddComponent`];
//! 4. custom instructions for arithmetic expressions — see [`custom`];
//! 5. "the last resort is the addition of more TEPs", which needs the
//!    designer's mutual-exclusion annotations —
//!    [`Improvement::AddTep`].
//!
//! Every step recompiles (or transforms) the system, re-runs the timing
//! validation, and is recorded in the history that the Table 4 harness
//! prints.
//!
//! ## Lazy, in-order evaluation
//!
//! The paper's policy fixes the winner before anything is measured:
//! each step applies the first applicable improvement in the difficulty
//! order, and the shrink phase tries its removals one by one in a
//! fixed order. So the loop evaluates exactly those candidates — its
//! own `compile_system_from_ir` + `validate_timing` per candidate — on
//! the calling thread, and nothing it would throw away. A content-keyed
//! memo (architecture + storage placement → timing report + area) lets
//! a file-backed store from an earlier run serve candidates without
//! recompiling; see [`memo`] for the stable key derivation and the
//! optional cross-run persistence. Within one run every candidate's
//! content is new, so an in-memory store is never consulted.
//!
//! ## Incremental revalidation
//!
//! The timing structure — consumer states, enumerated event-cycle
//! paths, the sibling-bound tree — is identical for every candidate;
//! only the per-transition costs and the TEP count vary. The loop
//! builds one [`TimingGraph`] up front and revalidates each candidate
//! from the *dirty set* (transitions whose cost changed against the
//! current base), re-pricing only the cycles and bounds that delta can
//! reach ([`TimingGraph::revalidate`]). The incremental report is
//! byte-identical to the full §4 DFS; with
//! [`OptimizeOptions::verify_incremental`] a differential oracle
//! asserts exactly that on every candidate.

pub mod custom;
pub mod memo;

pub use memo::{MemoEntry, MemoPersistence, MemoStore};

use crate::arch::PscpArch;
use crate::area::pscp_area;
use crate::compile::{
    compile_system_from_ir, compile_system_with, CompiledSystem, SystemArtifacts,
};
use crate::library::Component;
use crate::timing::{
    transition_costs, validate_timing_full, wcet_report, EventCycle, TimingEval, TimingGraph,
    TimingOptions, TimingReport,
};
use pscp_action_lang::ir::{Inst as IrInst, Program};
use pscp_diag::Diagnostic;
use pscp_tep::codegen::{CodegenCache, CodegenOptions};
use pscp_tep::StorageClass;
use std::collections::{BTreeMap, BTreeSet};

/// One improvement the optimiser can apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Improvement {
    /// Turn on microcode peephole + assembler cleanup.
    EnableCodeOptimization,
    /// Move all globals from external to internal RAM.
    PromoteGlobalsInternal,
    /// Move the hottest scalar globals into the register file.
    PromoteGlobalsRegisters,
    /// Add a datapath component from the library.
    AddComponent(Component),
    /// Extract custom fused instructions from the compiled code.
    ExtractCustomOps,
    /// Add another TEP.
    AddTep,
}

impl std::fmt::Display for Improvement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Improvement::EnableCodeOptimization => write!(f, "peephole/code optimization"),
            Improvement::PromoteGlobalsInternal => {
                write!(f, "promote globals to internal RAM")
            }
            Improvement::PromoteGlobalsRegisters => {
                write!(f, "promote hot globals to registers")
            }
            Improvement::AddComponent(c) => write!(f, "add {c}"),
            Improvement::ExtractCustomOps => write!(f, "extract custom instructions"),
            Improvement::AddTep => write!(f, "add TEP"),
        }
    }
}

/// A recorded optimisation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizationStep {
    /// What was applied (`None` for the initial compile).
    pub applied: Option<String>,
    /// Architecture label after the step.
    pub arch_label: String,
    /// Total area after the step.
    pub area_clbs: u32,
    /// Worst cycle length per constrained event.
    pub worst_by_event: BTreeMap<String, u64>,
    /// Remaining violations.
    pub violations: usize,
}

/// Options for the optimisation loop.
#[derive(Debug, Clone)]
pub struct OptimizeOptions {
    /// Timing analysis options.
    pub timing: TimingOptions,
    /// Maximum number of TEPs the optimiser may instantiate.
    pub max_teps: u8,
    /// Designer-supplied mutual-exclusion classes, required before a
    /// second TEP may be added (§4).
    pub mutual_exclusion: Vec<BTreeSet<u32>>,
    /// Upper bound on optimisation steps (safety).
    pub max_steps: usize,
    /// Not read by [`optimize`]: candidates are evaluated lazily, in
    /// order, on the calling thread, so there is no worker pool to size.
    /// Kept because existing callers set it; any value gives the same
    /// result.
    pub threads: Option<usize>,
    /// Component catalog to draw from, in increasing order of
    /// difficulty. Defaults to [`Component::catalog`]; use
    /// [`Component::catalog_extended`] to allow the §6 future-work
    /// pipeline.
    pub catalog: Vec<Component>,
    /// After the constraints are met, try to remove hardware that turned
    /// out unnecessary ("performance optimizations will result in
    /// increased hardware resources, which is compensated by removing
    /// unnecessary hardware elements, instructions, and
    /// microoperations", §1). Each removal is kept only when the timing
    /// constraints still hold and the area shrank.
    pub shrink: bool,
    /// Revalidate candidates incrementally from the shared
    /// [`TimingGraph`] (dirty-set re-pricing) instead of re-running the
    /// full §4 DFS per candidate. The two are byte-identical; this
    /// switch exists for the differential bench and as an escape hatch.
    pub incremental: bool,
    /// Run the differential oracles: assert every cached delta compile
    /// equals a full compile, and every incremental candidate report
    /// equals the full DFS. Defaults on for debug builds (so the test
    /// suite exercises the oracles everywhere) and off for release.
    pub verify_incremental: bool,
    /// Candidate memo persistence across runs.
    pub memo: MemoPersistence,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            timing: TimingOptions::default(),
            max_teps: 4,
            mutual_exclusion: Vec::new(),
            max_steps: 24,
            threads: None,
            catalog: Component::catalog(),
            shrink: true,
            incremental: true,
            verify_incremental: cfg!(debug_assertions),
            memo: MemoPersistence::Default,
        }
    }
}

/// Result of the optimisation loop.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// The final architecture.
    pub arch: PscpArch,
    /// The final placement decisions.
    pub codegen: CodegenOptions,
    /// The final compiled system.
    pub system: CompiledSystem,
    /// The final timing report.
    pub timing: TimingReport,
    /// Step-by-step history (first entry = initial compile).
    pub history: Vec<OptimizationStep>,
    /// Whether all constraints are met.
    pub satisfied: bool,
    /// True when the loop stopped because [`OptimizeOptions::max_steps`]
    /// ran out while violations remained — the exploration was cut
    /// short, not proven infeasible.
    pub budget_exhausted: bool,
    /// When the budget was exhausted, the surviving worst event-cycle
    /// per violated event, so callers can act on the offending paths
    /// (empty otherwise).
    pub exhausted_worst_cycles: Vec<EventCycle>,
}

/// Runs the iterative improvement loop from a starting architecture.
///
/// # Errors
///
/// Returns the first diagnostic of a failed compile (label binding,
/// `PS401`..`PS403`).
pub fn optimize(
    chart: &pscp_statechart::Chart,
    ir: &Program,
    start: &PscpArch,
    options: &OptimizeOptions,
) -> Result<OptimizationResult, Diagnostic> {
    let _opt_span = pscp_obs::trace::span("optimize");
    let mut arch = start.clone();
    let mut codegen = CodegenOptions::default();

    // Chart/layout/SLA/selection tables are identical for every
    // candidate: build them once and share by Arc. The per-routine
    // codegen cache makes each candidate's compile a delta — the base
    // compile below warms it, so a candidate that flips one flag or
    // promotes one global only re-lowers the routines that
    // flag/placement can reach. The cache rides the `incremental`
    // switch, so the full path stays available as the differential
    // baseline.
    let artifacts = SystemArtifacts::build(chart, start.encoding);
    let compile_cache = CodegenCache::new();
    let cache = options.incremental.then_some(&compile_cache);
    let system = compile_system_with(&artifacts, ir, &arch, &codegen, cache)?;

    // The timing IR: one structural build shared by every candidate.
    // Candidates never change the chart or the interrupt-event set, so
    // only the cost table and the TEP count vary per evaluation.
    let graph = TimingGraph::build(&system, &options.timing);
    let wcet = wcet_report(&system, &options.timing);
    let eval = graph.evaluate(transition_costs(&system, &wcet), arch.n_teps);
    let mut timing = if options.incremental {
        graph.report(&eval)
    } else {
        validate_timing_full(&system, &options.timing)
    };
    let mut history = vec![record(None, &arch, &system, &timing)];
    let mut base = Base { system, eval };

    // Content-keyed memo: a stable hash of (chart, IR, timing options,
    // architecture, storage placement) → (timing report, area). Within
    // one run every evaluated candidate's content is new, so only
    // entries warm from a file written by an earlier run can hit; an
    // in-memory store is skipped, and with it the key derivation.
    let store = MemoStore::open(&options.memo);
    let mut persisted = store
        .is_persistent()
        .then(|| (store, memo::fingerprint(chart, ir, &options.timing)));
    let mut evaluate = |cand_arch: &PscpArch,
                        cand_codegen: &CodegenOptions,
                        base: &Base|
     -> Result<CandidateEval, Diagnostic> {
        let _cand_span = pscp_obs::trace::span("candidate");
        pscp_obs::metrics::OPT_CANDIDATES.inc();
        let memo_slot = persisted.as_mut().map(|(store, fingerprint)| {
            (store, memo::cache_key(*fingerprint, cand_arch, cand_codegen))
        });
        if let Some((store, key)) = &memo_slot {
            if let Some(entry) = store.get(*key) {
                return Ok(CandidateEval {
                    timing: entry.timing.clone(),
                    area: entry.area,
                    system: None,
                    eval: None,
                });
            }
        }
        let compile_watch = pscp_obs::StopWatch::start();
        let sys = compile_system_with(&artifacts, ir, cand_arch, cand_codegen, cache)?;
        let compile_ns = compile_watch.elapsed_ns();
        pscp_obs::metrics::OPT_COMPILE_NS.add(compile_ns);
        pscp_obs::metrics::OPT_CANDIDATE_COMPILE_NS.record(compile_ns);
        if cache.is_some() && options.verify_incremental {
            // Differential oracle: a cached delta compile must be
            // byte-identical to the from-scratch flow.
            let full = compile_system_from_ir(chart, ir, cand_arch, cand_codegen)?;
            assert_eq!(
                sys, full,
                "cached delta compile diverged from full compile for '{}'",
                cand_arch.label
            );
        }
        let validate_watch = pscp_obs::StopWatch::start();
        let use_incremental = options.incremental && graph.matches(&sys, &options.timing);
        let (timing, eval) = if use_incremental {
            let wcet = wcet_report(&sys, &options.timing);
            let ev = graph.revalidate(&base.eval, transition_costs(&sys, &wcet), cand_arch.n_teps);
            (graph.report(&ev), Some(ev))
        } else {
            (validate_timing_full(&sys, &options.timing), None)
        };
        pscp_obs::metrics::OPT_VALIDATE_NS.add(validate_watch.elapsed_ns());
        if use_incremental && options.verify_incremental {
            // Differential oracle: the dirty-set revalidation must be
            // byte-identical to the full §4 DFS.
            let full = validate_timing_full(&sys, &options.timing);
            assert_eq!(
                timing, full,
                "incremental timing diverged from full DFS for '{}'",
                cand_arch.label
            );
        }
        let area = pscp_area(&sys).total().0;
        if let Some((store, key)) = memo_slot {
            store.insert(key, MemoEntry { timing: timing.clone(), area });
        }
        Ok(CandidateEval { timing, area, system: Some(sys), eval })
    };

    // Makes an evaluated candidate the new base and returns its timing.
    // A memo hit carries no system, so the adopted configuration
    // compiles here (it compiled when the entry was created). The
    // incremental base rolls forward to the adopted candidate's graph
    // evaluation.
    let adopt = |eval: CandidateEval,
                 cand_arch: &mut PscpArch,
                 cand_codegen: &CodegenOptions,
                 base: &mut Base|
     -> Result<TimingReport, Diagnostic> {
        let system = match eval.system {
            Some(s) => s,
            None => compile_system_with(&artifacts, ir, cand_arch, cand_codegen, cache)?,
        };
        // Extraction (when enabled) ran inside the compile; pick up the
        // registered fused ops for subsequent area accounting.
        cand_arch.tep.custom_ops = system.arch.tep.custom_ops.clone();
        if options.incremental {
            base.eval = eval.eval.unwrap_or_else(|| {
                let wcet = wcet_report(&system, &options.timing);
                graph.evaluate(transition_costs(&system, &wcet), cand_arch.n_teps)
            });
        }
        base.system = system;
        Ok(eval.timing)
    };

    let mut steps = 0usize;
    while !timing.ok() && steps < options.max_steps {
        let candidates = applicable_improvements(&arch, ir, options);
        // The paper's increasing-difficulty policy: the head of the list
        // is the improvement applied next, and only it is evaluated.
        let Some(improvement) = candidates.first() else { break };
        steps += 1;
        let _step_span = pscp_obs::trace::span("optimize.step");
        pscp_obs::metrics::OPT_STEPS.inc();
        pscp_obs::metrics::OPT_STEP_CANDIDATES.record(candidates.len() as u64);

        let mut cand_arch = arch.clone();
        let mut cand_codegen = codegen.clone();
        apply_improvement(improvement, &mut cand_arch, &mut cand_codegen, ir, options);
        let eval = evaluate(&cand_arch, &cand_codegen, &base)?;
        timing = adopt(eval, &mut cand_arch, &cand_codegen, &mut base)?;
        arch = cand_arch;
        codegen = cand_codegen;
        history.push(record(Some(improvement.to_string()), &arch, &base.system, &timing));
    }

    let budget_exhausted = !timing.ok() && steps >= options.max_steps;
    let mut exhausted_worst_cycles: Vec<EventCycle> = Vec::new();
    if budget_exhausted {
        eprintln!(
            "pscp-core::optimize: step budget ({}) exhausted with {} remaining violation(s)",
            options.max_steps,
            timing.violations.len()
        );
        for v in &timing.violations {
            eprintln!(
                "  {}: worst cycle {} > period {} via {:?}",
                v.event,
                v.worst,
                v.period,
                v.path_names(&base.system.chart)
            );
            // Surface the surviving worst cycle itself, not just a log
            // line, so callers can act on the offending path.
            if let Some(worst) = timing
                .cycles
                .iter()
                .filter(|c| c.event == v.event)
                .max_by_key(|c| c.length)
            {
                exhausted_worst_cycles.push(worst.clone());
            }
        }
    }

    // Shrink phase (§1): drop hardware the final code does not need, as
    // long as the constraints keep holding. One pass over a fixed
    // candidate list, in order: each removal is tried once against the
    // base current when its turn comes, and kept when the constraints
    // still hold and the area strictly shrinks.
    if options.shrink && timing.ok() {
        for removal in shrink_candidates(&arch, ir) {
            let mut cand = arch.clone();
            (removal.apply)(&mut cand.tep);
            let current_area = pscp_area(&base.system).total().0;
            let eval = match evaluate(&cand, &codegen, &base) {
                Ok(ev) if ev.timing.ok() && ev.area < current_area => ev,
                // A failed compile is a rejection like any other.
                _ => continue,
            };
            cand.label = format!("{} - {}", arch.label, removal.name);
            timing = adopt(eval, &mut cand, &codegen, &mut base)?;
            arch = cand;
            let applied = format!("remove {}", removal.name);
            history.push(record(Some(applied), &arch, &base.system, &timing));
        }
    }

    if let Some((store, _)) = persisted {
        store.save();
    }

    let satisfied = timing.ok();
    Ok(OptimizationResult {
        arch,
        codegen,
        system: base.system,
        timing,
        history,
        satisfied,
        budget_exhausted,
        exhausted_worst_cycles,
    })
}

/// The configuration candidates are judged against: the current
/// system, plus the graph evaluation the incremental path re-prices
/// from (the dirty-set base).
struct Base {
    system: CompiledSystem,
    eval: TimingEval,
}

/// One evaluated candidate: its timing report and area, plus the
/// compiled system when this evaluation actually compiled (memo-cache
/// hits return `None` and adoption recompiles) and the graph
/// evaluation when the incremental path priced it (an adopted
/// candidate's becomes the next dirty-set base).
struct CandidateEval {
    timing: TimingReport,
    area: u32,
    system: Option<CompiledSystem>,
    eval: Option<TimingEval>,
}

/// Applies one improvement to an architecture/placement pair.
fn apply_improvement(
    improvement: &Improvement,
    arch: &mut PscpArch,
    codegen: &mut CodegenOptions,
    ir: &Program,
    options: &OptimizeOptions,
) {
    match improvement {
        Improvement::EnableCodeOptimization => {
            arch.tep.optimize_code = true;
            arch.label = format!("{} + opt code", arch.label);
        }
        Improvement::PromoteGlobalsInternal => {
            for slot in 0..ir.globals.len() as u32 {
                codegen.global_promotions.insert(slot, StorageClass::Internal);
            }
            arch.tep.global_storage = StorageClass::Internal;
            arch.label = format!("{} + int RAM", arch.label);
        }
        Improvement::PromoteGlobalsRegisters => {
            for slot in hottest_scalar_globals(ir, arch.tep.register_file as usize) {
                codegen.global_promotions.insert(slot, StorageClass::Register);
            }
            arch.label = format!("{} + reg globals", arch.label);
        }
        Improvement::AddComponent(c) => {
            c.apply(&mut arch.tep);
            arch.label = format!("{} + {c}", arch.label);
        }
        Improvement::ExtractCustomOps => {
            arch.tep.custom_instructions = true;
            arch.label = format!("{} + custom ops", arch.label);
        }
        Improvement::AddTep => {
            arch.n_teps += 1;
            arch.mutual_exclusion = options.mutual_exclusion.clone();
            arch.label = format!("{} TEPs", arch.n_teps);
        }
    }
}

/// A hardware element the shrink phase may try to remove.
struct Removal {
    name: &'static str,
    apply: Box<dyn Fn(&mut pscp_tep::TepArch)>,
}

fn shrink_candidates(arch: &PscpArch, ir: &Program) -> Vec<Removal> {
    let mut out: Vec<Removal> = Vec::new();
    // Comparator and two's-complement removals are always *safe*: the
    // code generator falls back to branch/complement expansions. The
    // shifter has no expansion, so it may only go when the program (and
    // the software mul/div runtime, which shifts) never shifts — i.e.
    // the program neither shifts nor multiplies/divides on an M/D-less
    // machine.
    let h = program_histogram(ir);
    let shifts_used = ir.functions.iter().any(|f| f.op_histogram().shift > 0)
        || (!arch.tep.calc.muldiv && h.mul + h.div > 0);
    if arch.tep.calc.comparator {
        out.push(Removal {
            name: "comparator",
            apply: Box::new(|t| t.calc.comparator = false),
        });
    }
    if arch.tep.calc.twos_complement {
        out.push(Removal {
            name: "two's-complement path",
            apply: Box::new(|t| t.calc.twos_complement = false),
        });
    }
    if arch.tep.calc.shifter && !shifts_used {
        out.push(Removal {
            name: "shifter",
            apply: Box::new(|t| t.calc.shifter = false),
        });
    }
    if arch.tep.custom_instructions {
        out.push(Removal {
            name: "custom instructions",
            apply: Box::new(|t| {
                t.custom_instructions = false;
                t.custom_ops.clear();
            }),
        });
    }
    if arch.tep.register_file > 0 {
        let half = arch.tep.register_file / 2;
        out.push(Removal {
            name: "half the register file",
            apply: Box::new(move |t| t.register_file = half),
        });
    }
    if arch.tep.pipelined {
        out.push(Removal {
            name: "pipelined fetch",
            apply: Box::new(|t| t.pipelined = false),
        });
    }
    out
}

fn record(
    applied: Option<String>,
    arch: &PscpArch,
    system: &CompiledSystem,
    timing: &TimingReport,
) -> OptimizationStep {
    let mut worst_by_event = BTreeMap::new();
    for ev in system.chart.events() {
        if ev.period.is_some() {
            if let Some(w) = timing.worst_for(&ev.name) {
                worst_by_event.insert(ev.name.clone(), w);
            }
        }
    }
    OptimizationStep {
        applied,
        arch_label: arch.label.clone(),
        area_clbs: pscp_area(system).total().0,
        worst_by_event,
        violations: timing.violations.len(),
    }
}

/// All improvements applicable to an architecture, in increasing order
/// of difficulty (the paper's §4 ordering). The head of this list is
/// what the loop applies next.
fn applicable_improvements(
    arch: &PscpArch,
    ir: &Program,
    options: &OptimizeOptions,
) -> Vec<Improvement> {
    let mut out = Vec::new();
    // 1. Simple code optimisations first.
    if !arch.tep.optimize_code {
        out.push(Improvement::EnableCodeOptimization);
    }
    // 2. Storage promotion.
    if arch.tep.global_storage == StorageClass::External && !ir.globals.is_empty() {
        out.push(Improvement::PromoteGlobalsInternal);
    }
    // 3. Datapath patterns, cheap to expensive.
    let hist = program_histogram(ir);
    let max_width = ir.functions.iter().map(|f| f.max_width()).max().unwrap_or(8);
    for c in options.catalog.iter().copied() {
        if c.already_in(&arch.tep) {
            continue;
        }
        let useful = match c {
            Component::Comparator => hist.compare > 0,
            Component::TwosComplement => hist.neg > 0,
            Component::WidenBus(w) => max_width > arch.tep.calc.width && w > arch.tep.calc.width,
            Component::MulDivUnit => hist.mul + hist.div > 0,
            Component::RegisterFile(_) => !ir.globals.is_empty(),
            Component::Pipeline => true, // straight-line win everywhere
            Component::ExtraTep => false, // handled below
        };
        if useful {
            out.push(Improvement::AddComponent(c));
        }
    }
    // 3b. Registers for the hottest globals once a register file exists.
    if arch.tep.register_file > 0
        && !hottest_scalar_globals(ir, arch.tep.register_file as usize).is_empty()
        && arch.tep.global_storage == StorageClass::Internal
        && !arch.label.contains("reg globals")
    {
        out.push(Improvement::PromoteGlobalsRegisters);
    }
    // 4. Custom instructions.
    if !arch.tep.custom_instructions {
        out.push(Improvement::ExtractCustomOps);
    }
    // 5. Last resort: replication.
    if arch.n_teps < options.max_teps {
        out.push(Improvement::AddTep);
    }
    out
}

#[derive(Debug, Default)]
struct ProgramHistogram {
    mul: usize,
    div: usize,
    compare: usize,
    neg: usize,
}

fn program_histogram(ir: &Program) -> ProgramHistogram {
    let mut h = ProgramHistogram::default();
    for f in &ir.functions {
        let fh = f.op_histogram();
        h.mul += fh.mul;
        h.div += fh.div;
        h.compare += fh.compare;
        for i in &f.insts {
            if matches!(
                i,
                IrInst::Un { op: pscp_action_lang::ir::UnOp::Neg, .. }
            ) {
                h.neg += 1;
            }
        }
    }
    h
}

/// The scalar globals with the most static load/store references,
/// register-file candidates ("changed … to registers"). Array and
/// struct slots accessed through indexed addressing are excluded.
pub fn hottest_scalar_globals(ir: &Program, limit: usize) -> Vec<u32> {
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    let mut indexed_bases: BTreeSet<u32> = BTreeSet::new();
    for f in &ir.functions {
        for inst in &f.insts {
            match inst {
                IrInst::LoadGlobal { slot, .. } | IrInst::StoreGlobal { slot, .. } => {
                    *counts.entry(*slot).or_default() += 1;
                }
                IrInst::LoadIndexed { base, .. } | IrInst::StoreIndexed { base, .. } => {
                    indexed_bases.insert(*base);
                }
                _ => {}
            }
        }
    }
    // Exclude any slot belonging to an indexed array (conservatively, by
    // name: `tab[3]` shares the `tab[` prefix with its base slot's name).
    let mut ranked: Vec<(u32, usize)> = counts
        .into_iter()
        .filter(|(slot, _)| {
            let name = &ir.globals[*slot as usize].name;
            !name.contains('[')
        })
        .collect();
    let _ = indexed_bases;
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.into_iter().take(limit).map(|(s, _)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_action_lang::ProgramEnv;
    use pscp_statechart::{Chart, ChartBuilder, StateKind};

    fn demanding_chart(period: u64) -> Chart {
        let mut b = ChartBuilder::new("d");
        b.event("E", Some(period));
        b.state("Top", StateKind::Or).contains(["A", "B"]).default_child("A");
        b.state("A", StateKind::Basic).transition("B", "E/Crunch(7)");
        b.state("B", StateKind::Basic).transition("A", "E/Crunch(3)");
        b.build().unwrap()
    }

    const CRUNCH: &str = r#"
        int:16 acc;
        int:16 scale = 3;
        void Crunch(int:16 n) {
            acc = (acc * scale + n) / (n + 1);
            acc = acc - -n;
            if (acc == 1000) { acc = 0; }
        }
    "#;

    fn ir() -> Program {
        pscp_action_lang::compile_with_env(CRUNCH, &ProgramEnv::default()).unwrap()
    }

    #[test]
    fn loose_constraint_needs_no_improvement() {
        let chart = demanding_chart(1_000_000);
        let r =
            optimize(&chart, &ir(), &PscpArch::minimal(), &OptimizeOptions::default()).unwrap();
        assert!(r.satisfied);
        assert_eq!(r.history.len(), 1, "no steps applied");
    }

    #[test]
    fn improvements_applied_in_difficulty_order() {
        let chart = demanding_chart(220);
        let r =
            optimize(&chart, &ir(), &PscpArch::minimal(), &OptimizeOptions::default()).unwrap();
        assert!(r.history.len() > 1);
        let applied: Vec<&str> =
            r.history.iter().filter_map(|s| s.applied.as_deref()).collect();
        // Code optimisation strictly before hardware patterns; the M/D
        // unit before any TEP replication.
        let pos = |needle: &str| applied.iter().position(|a| a.contains(needle));
        assert_eq!(pos("peephole"), Some(0), "applied: {applied:?}");
        if let (Some(md), Some(tep)) = (pos("multiply"), pos("add TEP")) {
            assert!(md < tep);
        }
        // Every step is recorded with area and worst-case numbers.
        for s in &r.history {
            assert!(s.area_clbs > 0);
        }
    }

    #[test]
    fn optimization_monotonically_improves_worst_case() {
        let chart = demanding_chart(150);
        let r =
            optimize(&chart, &ir(), &PscpArch::minimal(), &OptimizeOptions::default()).unwrap();
        let worsts: Vec<u64> =
            r.history.iter().filter_map(|s| s.worst_by_event.get("E").copied()).collect();
        assert!(worsts.len() >= 2);
        assert!(
            worsts.last().unwrap() < worsts.first().unwrap(),
            "final worst {worsts:?} must improve on initial"
        );
    }

    #[test]
    fn hottest_globals_ranked_by_references() {
        let src = r#"
            int:16 hot;
            int:16 cold;
            int:8 tab[4];
            void f(int:8 i) {
                hot = hot + 1; hot = hot * 2; hot = hot - 3;
                cold = cold + 1;
                tab[i] = 0;
            }
        "#;
        let p = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();
        let ranked = hottest_scalar_globals(&p, 2);
        assert_eq!(ranked[0], 0, "hot is slot 0");
        // Array slots never ranked.
        for &s in &ranked {
            assert!(!p.globals[s as usize].name.contains('['));
        }
    }

    #[test]
    fn unsatisfiable_budget_reported() {
        let chart = demanding_chart(3); // impossible
        let r =
            optimize(&chart, &ir(), &PscpArch::minimal(), &OptimizeOptions::default()).unwrap();
        assert!(!r.satisfied);
        assert!(r.history.last().unwrap().violations > 0);
        // The loop ran out of improvements, not steps.
        assert!(!r.budget_exhausted);
    }

    #[test]
    fn step_budget_exhaustion_is_flagged() {
        let chart = demanding_chart(3); // impossible
        let options = OptimizeOptions { max_steps: 2, ..OptimizeOptions::default() };
        let r = optimize(&chart, &ir(), &PscpArch::minimal(), &options).unwrap();
        assert!(!r.satisfied);
        assert!(r.budget_exhausted, "cut off at 2 steps with violations left");
        // 1 initial entry + exactly max_steps improvement entries.
        assert_eq!(r.history.len(), 3);

        // A satisfied run never reports an exhausted budget.
        let loose = demanding_chart(1_000_000);
        let r2 = optimize(&loose, &ir(), &PscpArch::minimal(), &options).unwrap();
        assert!(r2.satisfied);
        assert!(!r2.budget_exhausted);
    }

    #[test]
    fn worker_count_never_changes_the_history() {
        let chart = demanding_chart(220);
        let run = |threads: usize| {
            let options =
                OptimizeOptions { threads: Some(threads), ..OptimizeOptions::default() };
            optimize(&chart, &ir(), &PscpArch::minimal(), &options).unwrap()
        };
        let sequential = run(1);
        for threads in [2, 4, 8] {
            let parallel = run(threads);
            assert_eq!(parallel.history, sequential.history, "threads={threads}");
            assert_eq!(parallel.arch, sequential.arch, "threads={threads}");
            assert_eq!(parallel.timing, sequential.timing, "threads={threads}");
            assert_eq!(parallel.satisfied, sequential.satisfied);
        }
    }
}
