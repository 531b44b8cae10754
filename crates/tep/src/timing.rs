//! Instruction cost model and static worst-case execution time (WCET).
//!
//! Costs come from the microprogram lengths (§3.2): one microinstruction
//! per clock cycle. Operands wider than the data bus are processed in
//! bus-wide limbs, multiplying the data-path portion of the cost; the
//! multi-cycle M/D unit scales quadratically with the limb count, like
//! the partial-product structure it models.
//!
//! The WCET analysis walks a routine's instruction stream as a
//! control-flow DAG (longest path over branches) with back edges
//! collapsed into loop super-nodes whose body cost is multiplied by the
//! loop bound. "If possible, the transition lengths are derived from the
//! assembler code of their associated routines" (§4) — this is that
//! derivation; charts can still override with explicit `cost`
//! annotations.

use crate::arch::TepArch;
use crate::codegen::TepProgram;
use crate::isa::{AsmFunction, AsmInst, Instr};
use crate::microcode::{micro_len, InstrKind};
use std::collections::BTreeMap;

/// Per-instruction cycle-cost model for one architecture.
#[derive(Debug, Clone)]
pub struct CostModel {
    arch: TepArch,
    /// Effective base cycles per kind, indexed by the kind's position
    /// in [`InstrKind::ALL`]. Synthesising (and optionally peepholing)
    /// a microprogram per [`CostModel::cost`] call would dominate the
    /// WCET analysis; the table pays that once per model.
    base: [u64; InstrKind::ALL.len()],
}

impl CostModel {
    /// Builds the cost model for an architecture.
    pub fn new(arch: &TepArch) -> Self {
        let mut base = [0u64; InstrKind::ALL.len()];
        for (slot, &kind) in base.iter_mut().zip(InstrKind::ALL.iter()) {
            *slot = Self::compute_effective_base(arch, kind);
        }
        CostModel { arch: arch.clone(), base }
    }

    /// Base cycle count of one instruction kind before the width/limb
    /// scaling: the microprogram length, with the pipelined-fetch
    /// overlap already applied.
    fn effective_base(&self, kind: InstrKind) -> u64 {
        self.base[kind as usize]
    }

    fn compute_effective_base(arch: &TepArch, kind: InstrKind) -> u64 {
        let mut base = micro_len(kind, arch.optimize_code) as u64;
        // Pipelined fetch (§6 extension): straight-line instructions
        // overlap the fetch µop with the predecessor's execution; taken
        // control transfers pay the hazard instead (cost unchanged).
        if arch.pipelined
            && !matches!(
                kind,
                InstrKind::Jump | InstrKind::JumpCond | InstrKind::Call | InstrKind::Return
            )
        {
            base = base.saturating_sub(1).max(1);
        }
        base
    }

    /// Cycles consumed by one instruction (excluding callee time for
    /// `Call`).
    pub fn cost(&self, inst: &AsmInst) -> u64 {
        let kind = InstrKind::of(&inst.instr);
        let base = self.effective_base(kind);
        let limbs = self.arch.limbs(inst.width.max(1)) as u64;
        match kind {
            // Control flow, condition/event traffic and custom fused ops
            // are width-independent.
            InstrKind::Nop
            | InstrKind::Jump
            | InstrKind::JumpCond
            | InstrKind::Call
            | InstrKind::Return
            | InstrKind::ReadCond
            | InstrKind::SetCond
            | InstrKind::RaiseEvent
            | InstrKind::Custom
            | InstrKind::Halt => base,
            // Data ports "always move a complete data word" (§3.2).
            InstrKind::PortRead | InstrKind::PortWrite => base,
            // The M/D unit iterates over partial products: quadratic in
            // the limb count.
            InstrKind::AluMul => base * limbs * limbs,
            InstrKind::AluDiv => base * limbs * limbs + limbs,
            // Everything else processes one limb per pass.
            _ => base * limbs,
        }
    }
}

/// Result of analysing a whole program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetReport {
    /// Per-function worst-case cycles (including callees).
    pub per_function: BTreeMap<String, u64>,
}

impl WcetReport {
    /// WCET of a routine by name.
    pub fn of(&self, name: &str) -> Option<u64> {
        self.per_function.get(name).copied()
    }
}

/// Static WCET analysis over a compiled program.
#[derive(Debug, Clone)]
pub struct WcetAnalysis {
    cost: CostModel,
    /// Iteration bound assumed for loops without an annotation.
    pub default_loop_bound: u64,
}

impl WcetAnalysis {
    /// Creates the analysis with the paper-ish default loop bound of 16
    /// (one iteration per operand bit, the dominant loop shape in this
    /// domain).
    pub fn new(arch: &TepArch) -> Self {
        WcetAnalysis { cost: CostModel::new(arch), default_loop_bound: 16 }
    }

    /// Overrides the default loop bound.
    pub fn with_default_loop_bound(mut self, bound: u64) -> Self {
        self.default_loop_bound = bound;
        self
    }

    /// Analyses every function, callees before callers.
    ///
    /// # Panics
    ///
    /// Panics if the program's call graph is cyclic (the action-language
    /// front end rejects recursion, so this cannot happen for compiled
    /// programs).
    pub fn analyze(&self, program: &TepProgram) -> WcetReport {
        let mut per_function: BTreeMap<String, u64> = BTreeMap::new();
        let mut done: Vec<Option<u64>> = vec![None; program.functions.len()];

        // Iterate to fixpoint in bounded passes (call graph is a DAG, so
        // |functions| passes suffice).
        for _ in 0..=program.functions.len() {
            let mut progressed = false;
            for (fi, f) in program.functions.iter().enumerate() {
                if done[fi].is_some() {
                    continue;
                }
                if let Some(w) = self.function_wcet(f, &done) {
                    done[fi] = Some(w);
                    per_function.insert(f.name.clone(), w);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        assert!(
            done.iter().all(Option::is_some),
            "call graph not a DAG or dangling callee"
        );
        WcetReport { per_function }
    }

    /// WCET of a single function given already-computed callees; `None`
    /// when a callee is not yet resolved.
    fn function_wcet(&self, f: &AsmFunction, callees: &[Option<u64>]) -> Option<u64> {
        // Per-instruction cost including callee WCET for calls.
        let mut costs = Vec::with_capacity(f.code.len());
        for inst in &f.code {
            let mut c = self.cost.cost(inst);
            if let Instr::Call(target) = inst.instr {
                c += callees.get(target as usize).copied().flatten()?;
            }
            costs.push(c);
        }
        let bound = f.loop_bound.unwrap_or(self.default_loop_bound).max(1);
        Some(range_wcet(&f.code, &costs, 0, f.code.len(), bound))
    }
}

/// Longest-path cost of `code[lo..hi)` with back edges collapsed into
/// bounded loop super-nodes. Assumes well-nested loops, which our code
/// generator guarantees.
fn range_wcet(code: &[AsmInst], costs: &[u64], lo: usize, hi: usize, bound: u64) -> u64 {
    // Top-level loops in the range: back edge (src -> head) with
    // head <= src; keep only those not nested inside another.
    let mut loops: Vec<(usize, usize)> = Vec::new(); // (head, back_src)
    for (i, inst) in code.iter().enumerate().take(hi).skip(lo) {
        if let Some(t) = inst.instr.branch_target() {
            let t = t as usize;
            if t <= i && t >= lo {
                loops.push((t, i));
            }
        }
    }
    // Merge overlapping/nested into outermost.
    loops.sort();
    let mut top: Vec<(usize, usize)> = Vec::new();
    for (h, s) in loops {
        match top.last_mut() {
            Some((_, ls)) if h <= *ls => {
                // Nested or overlapping: extend the existing loop.
                if s > *ls {
                    *ls = s;
                }
            }
            _ => top.push((h, s)),
        }
    }

    // Longest path, backwards DP over positions lo..hi.
    let mut wc = vec![0u64; hi - lo + 1];
    let pos = |i: usize| i - lo;
    for i in (lo..hi).rev() {
        // Position inside a top-level loop but not its head: skipped —
        // handled via the super-node at the head.
        if let Some(&(h, s)) = top.iter().find(|&&(h, s)| i >= h && i <= s) {
            if i != h {
                continue;
            }
            // Super-node: body = longest path through [h, s] without the
            // back edges, times bound — plus one extra body traversal to
            // cover the final loop-header evaluation that exits the loop.
            let body = range_wcet_body(code, costs, h, s + 1, bound);
            let after = wc[pos(s + 1)];
            wc[pos(i)] = (bound + 1) * body + after;
            continue;
        }
        let c = costs[i];
        let inst = &code[i].instr;
        let next = |j: usize| -> u64 {
            if j >= hi {
                0
            } else if let Some(&(h, _)) = top.iter().find(|&&(h, s)| j > h && j <= s) {
                // Jumping into the middle of a loop: approximate with the
                // loop head's super-node cost.
                wc[pos(h)]
            } else {
                wc[pos(j)]
            }
        };
        wc[pos(i)] = match inst {
            Instr::Jump(t) => c + next(*t as usize),
            Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) => {
                c + next(*t as usize).max(next(i + 1))
            }
            Instr::Return | Instr::Halt => c,
            _ => c + next(i + 1),
        };
    }
    wc[0]
}

/// Longest path through one loop body `[lo, hi)` ignoring its back edges
/// (recursing for inner loops).
fn range_wcet_body(code: &[AsmInst], costs: &[u64], lo: usize, hi: usize, bound: u64) -> u64 {
    // Inner loops strictly inside (lo, hi): recurse through range_wcet on
    // a version that can't see the outer back edge. We temporarily treat
    // back edges targeting `lo` from inside as loop-terminating jumps by
    // masking them out.
    let mut masked: Vec<AsmInst> = code[lo..hi].to_vec();
    for inst in masked.iter_mut() {
        if let Some(t) = inst.instr.branch_target() {
            let t = t as usize;
            if t == lo {
                // Back edge of this loop: end of one iteration.
                inst.instr = match inst.instr {
                    Instr::Jump(_) => Instr::Jump(masked_end(hi, lo)),
                    Instr::JumpIfZero(_) => Instr::JumpIfZero(masked_end(hi, lo)),
                    Instr::JumpIfNotZero(_) => Instr::JumpIfNotZero(masked_end(hi, lo)),
                    ref other => other.clone(),
                };
            } else {
                // Rebase other targets into the slice.
                inst.instr.set_branch_target(t.saturating_sub(lo) as u32);
            }
        }
    }
    let local_costs: Vec<u64> = costs[lo..hi].to_vec();
    range_wcet(&masked, &local_costs, 0, masked.len(), bound)
}

fn masked_end(hi: usize, lo: usize) -> u32 {
    (hi - lo) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::TepArch;
    use crate::isa::{AluOp, AsmInst, Instr, Storage};

    fn inst(i: Instr) -> AsmInst {
        AsmInst::new(i, 16, true)
    }

    fn func(code: Vec<AsmInst>, bound: Option<u64>) -> AsmFunction {
        AsmFunction {
            name: "t".into(),
            param_count: 0,
            frame: Vec::new(),
            code,
            loop_bound: bound,
        }
    }

    fn wcet_of(f: AsmFunction, arch: &TepArch) -> u64 {
        let program = TepProgram::for_tests(vec![f], arch.clone());
        WcetAnalysis::new(arch).analyze(&program).of("t").unwrap()
    }

    #[test]
    fn straight_line_sums_costs() {
        let arch = TepArch::md16_unoptimized();
        let cm = CostModel::new(&arch);
        let code = vec![
            inst(Instr::Ldi(1)),
            inst(Instr::Tao),
            inst(Instr::Alu(AluOp::Add)),
            inst(Instr::Return),
        ];
        let expected: u64 = code.iter().map(|i| cm.cost(i)).sum();
        assert_eq!(wcet_of(func(code, None), &arch), expected);
    }

    #[test]
    fn branch_takes_worst_arm() {
        let arch = TepArch::md16_unoptimized();
        let cm = CostModel::new(&arch);
        // 0: jz 3 ; 1: nop ; 2: jmp 6 ; 3: nop ; 4: nop ; 5: nop ; 6: ret
        let code = vec![
            inst(Instr::JumpIfZero(3)),
            inst(Instr::Nop),
            inst(Instr::Jump(6)),
            inst(Instr::Nop),
            inst(Instr::Nop),
            inst(Instr::Nop),
            inst(Instr::Return),
        ];
        let w = wcet_of(func(code.clone(), None), &arch);
        let long_arm = cm.cost(&code[0])
            + cm.cost(&code[3]) * 3
            + cm.cost(&code[6]);
        assert_eq!(w, long_arm);
    }

    #[test]
    fn loop_multiplied_by_bound() {
        let arch = TepArch::md16_unoptimized();
        let cm = CostModel::new(&arch);
        // 0: nop ; 1: nop(body) ; 2: jnz 1 ; 3: ret
        let code = vec![
            inst(Instr::Nop),
            inst(Instr::Nop),
            inst(Instr::JumpIfNotZero(1)),
            inst(Instr::Return),
        ];
        let w8 = wcet_of(func(code.clone(), Some(8)), &arch);
        let w16 = wcet_of(func(code.clone(), Some(16)), &arch);
        let body = cm.cost(&code[1]) + cm.cost(&code[2]);
        // bound + 1 body traversals: the final header evaluation that
        // exits the loop is bounded by one extra pass.
        assert_eq!(w8, cm.cost(&code[0]) + (8 + 1) * body + cm.cost(&code[3]));
        assert_eq!(w16 - w8, 8 * body);
    }

    #[test]
    fn nested_loops_multiply() {
        let arch = TepArch::md16_unoptimized();
        // 0: nop
        // 1: nop           (outer body start)
        // 2: nop           (inner body)
        // 3: jnz 2         (inner back edge)
        // 4: jnz 1         (outer back edge)
        // 5: ret
        let code = vec![
            inst(Instr::Nop),
            inst(Instr::Nop),
            inst(Instr::Nop),
            inst(Instr::JumpIfNotZero(2)),
            inst(Instr::JumpIfNotZero(1)),
            inst(Instr::Return),
        ];
        let w2 = wcet_of(func(code.clone(), Some(2)), &arch);
        let w4 = wcet_of(func(code.clone(), Some(4)), &arch);
        // Cost grows superlinearly with the bound (nested loops).
        assert!(w4 > 2 * w2, "w2={w2} w4={w4}");
    }

    #[test]
    fn wide_operands_cost_more_on_narrow_bus() {
        let narrow = TepArch::minimal(); // 8-bit
        let wide = TepArch::md16_unoptimized(); // 16-bit
        let cm8 = CostModel::new(&narrow);
        let cm16 = CostModel::new(&wide);
        let add16 = AsmInst::new(Instr::Alu(AluOp::Add), 16, true);
        assert!(cm8.cost(&add16) > cm16.cost(&add16));
        let jmp = AsmInst::new(Instr::Jump(0), 16, false);
        assert_eq!(
            cm8.cost(&jmp),
            micro_len(InstrKind::Jump, false) as u64,
            "control flow does not limb-scale"
        );
    }

    #[test]
    fn hw_divide_quadratic_in_limbs() {
        let arch = TepArch::md16_unoptimized();
        let cm = CostModel::new(&arch);
        let div16 = AsmInst::new(Instr::Alu(AluOp::Div), 16, true);
        let div32 = AsmInst::new(Instr::Alu(AluOp::Div), 32, true);
        assert!(cm.cost(&div32) >= 4 * cm.cost(&div16) - 8);
    }

    #[test]
    fn optimized_code_is_cheaper() {
        let unopt = TepArch::md16_unoptimized();
        let opt = TepArch::md16_optimized();
        let code = vec![
            inst(Instr::Load(Storage::Internal(0))),
            inst(Instr::Tao),
            inst(Instr::Load(Storage::Internal(1))),
            inst(Instr::Alu(AluOp::Add)),
            inst(Instr::Store(Storage::Internal(2))),
            inst(Instr::Return),
        ];
        let wu = wcet_of(func(code.clone(), None), &unopt);
        let wo = wcet_of(func(code, None), &opt);
        assert!(wo < wu, "peepholed microcode must be faster: {wo} vs {wu}");
    }

    #[test]
    fn calls_include_callee_wcet() {
        let arch = TepArch::md16_unoptimized();
        let leaf = AsmFunction {
            name: "leaf".into(),
            param_count: 0,
            frame: Vec::new(),
            code: vec![inst(Instr::Nop), inst(Instr::Nop), inst(Instr::Return)],
            loop_bound: None,
        };
        let top = AsmFunction {
            name: "top".into(),
            param_count: 0,
            frame: Vec::new(),
            code: vec![inst(Instr::Call(0)), inst(Instr::Return)],
            loop_bound: None,
        };
        let program = TepProgram::for_tests(vec![leaf, top], arch.clone());
        let report = WcetAnalysis::new(&arch).analyze(&program);
        let cm = CostModel::new(&arch);
        assert_eq!(
            report.of("top").unwrap(),
            report.of("leaf").unwrap()
                + cm.cost(&inst(Instr::Call(0)))
                + cm.cost(&inst(Instr::Return))
        );
    }
}
