//! The assembler-level TEP instruction set.
//!
//! The basic instruction set (§3.2) "includes load and store
//! instructions, basic arithmetic and logic instructions, shift
//! instructions, jump instructions, and port instructions. Further
//! operations reset the transition registers, perform calls to the
//! transition routines, and communicate with the SLA."
//!
//! The TEP is an accumulator machine: binary operations combine the
//! accumulator `ACC` with the second operand register `OP`
//! (`ACC <- ACC op OP`); `Tao` transfers `ACC` into `OP`.
//!
//! Every instruction records the operand *width* it must process; when
//! that width exceeds the architecture's data-bus width the instruction
//! is executed over several bus-wide limbs, which multiplies its
//! microprogram cost (see [`crate::timing::CostModel`]).

use std::fmt;

/// Where a value lives. The component library offers "fast, but more
/// expensive registers, moderately fast and moderately expensive internal
/// RAM, and slower, but cheaper external RAM" (§3.3); the storage
/// promotion optimisation moves operands up this hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Storage {
    /// A register-file register (fastest).
    Register(u8),
    /// On-chip RAM word address.
    Internal(u16),
    /// External RAM word address (slowest).
    External(u16),
}

impl fmt::Display for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Storage::Register(r) => write!(f, "r{r}"),
            Storage::Internal(a) => write!(f, "iram[{a}]"),
            Storage::External(a) => write!(f, "xram[{a}]"),
        }
    }
}

/// ALU operations (`ACC <- ACC op OP`, unary ops use `ACC` only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AluOp {
    /// `ACC + OP`
    Add,
    /// `ACC - OP`
    Sub,
    /// `ACC & OP`
    And,
    /// `ACC | OP`
    Or,
    /// `ACC ^ OP`
    Xor,
    /// `~ACC` (unary)
    Not,
    /// `-ACC` (unary; requires a two's-complement-capable ALU)
    Neg,
    /// `ACC << OP` (requires a shifter)
    Shl,
    /// `ACC >> OP`, logical (requires a shifter)
    Shr,
    /// `ACC >> OP`, arithmetic (requires a shifter)
    Sar,
    /// `ACC * OP` (requires the M/D calculation unit)
    Mul,
    /// `ACC / OP` (requires the M/D calculation unit)
    Div,
    /// `ACC % OP` (requires the M/D calculation unit)
    Rem,
}

impl AluOp {
    /// Requires the multiply/divide extension of the calculation unit.
    pub fn needs_muldiv(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::Div | AluOp::Rem)
    }

    /// Requires the barrel/serial shifter block.
    pub fn needs_shifter(self) -> bool {
        matches!(self, AluOp::Shl | AluOp::Shr | AluOp::Sar)
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Not => "not",
            AluOp::Neg => "neg",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
        };
        f.write_str(s)
    }
}

/// Comparison kinds for [`Instr::Cmp`] (`ACC <- ACC cmp OP ? 1 : 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
        })
    }
}

/// One assembler-level instruction. Branch targets are indices into the
/// owning function's instruction vector; `func` operands index the
/// program's function table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr {
    /// No operation.
    Nop,
    /// `ACC <- imm`
    Ldi(i64),
    /// `ACC <- storage`
    Load(Storage),
    /// `storage <- ACC`
    Store(Storage),
    /// `ACC <- mem[base + ACC]` — indexed load for array access; the
    /// storage selects the memory bank of `base`.
    LoadIndexed(Storage),
    /// `mem[base + OP] <- ACC` — indexed store (index pre-loaded in OP).
    StoreIndexed(Storage),
    /// `OP <- ACC`
    Tao,
    /// `ACC <- ACC op OP` (or unary on ACC).
    Alu(AluOp),
    /// `ACC <- (ACC cmp OP) ? 1 : 0`; `signed` picks the comparison.
    /// Requires a comparator-equipped calculation unit; expanded by the
    /// code generator otherwise.
    Cmp {
        /// Comparison kind.
        op: CmpOp,
        /// Signed comparison?
        signed: bool,
    },
    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Jump when `ACC == 0`.
    JumpIfZero(u32),
    /// Jump when `ACC != 0`.
    JumpIfNotZero(u32),
    /// Call a routine by function-table index ("perform calls to the
    /// transition routines").
    Call(u32),
    /// Return (result, if any, in `ACC`).
    Return,
    /// `ACC <- data port`
    PortRead(u16),
    /// `data port <- ACC`
    PortWrite(u16),
    /// `ACC <- condition bit` (from the local condition cache).
    ReadCond(u16),
    /// `condition bit <- (ACC != 0)` (into the local condition cache).
    SetCond(u16),
    /// Raise an event in the CR (visible next configuration cycle) —
    /// one of the operations that "communicate with the SLA".
    RaiseEvent(u16),
    /// A custom fused instruction generated from an expression pattern
    /// (§3.3/§4); semantics live in the architecture's custom-op table.
    Custom(u16),
    /// Fused memory-operand ALU instruction, the workhorse custom
    /// operation extracted from the assembler code (§3.3): performs
    /// `OP <- ACC; ACC <- mem[src] op OP` in one instruction, replacing
    /// the three-instruction `Tao; Load src; Alu op` idiom.
    AluMem {
        /// The ALU operation.
        op: AluOp,
        /// The memory operand.
        src: Storage,
    },
    /// End of transition: signal the scheduler and stop.
    Halt,
}

/// The instruction's slot in the observability kind counters
/// (`pscp_obs::metrics::TEP_INSTR`); the order and the display names
/// in `pscp_obs::metrics::TEP_KIND_NAMES` mirror the variant order
/// here (pinned by a test below).
pub fn kind_index(i: &Instr) -> usize {
    match i {
        Instr::Nop => 0,
        Instr::Ldi(_) => 1,
        Instr::Load(_) => 2,
        Instr::Store(_) => 3,
        Instr::LoadIndexed(_) => 4,
        Instr::StoreIndexed(_) => 5,
        Instr::Tao => 6,
        Instr::Alu(_) => 7,
        Instr::Cmp { .. } => 8,
        Instr::Jump(_) => 9,
        Instr::JumpIfZero(_) => 10,
        Instr::JumpIfNotZero(_) => 11,
        Instr::Call(_) => 12,
        Instr::Return => 13,
        Instr::PortRead(_) => 14,
        Instr::PortWrite(_) => 15,
        Instr::ReadCond(_) => 16,
        Instr::SetCond(_) => 17,
        Instr::RaiseEvent(_) => 18,
        Instr::Custom(_) => 19,
        Instr::AluMem { .. } => 20,
        Instr::Halt => 21,
    }
}

impl Instr {
    /// The branch target, if this is a control-transfer within the
    /// function.
    pub fn branch_target(&self) -> Option<u32> {
        match self {
            Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) => Some(*t),
            _ => None,
        }
    }

    /// Rewrites the branch target (used by the assembler-level peephole).
    pub fn set_branch_target(&mut self, t: u32) {
        match self {
            Instr::Jump(x) | Instr::JumpIfZero(x) | Instr::JumpIfNotZero(x) => *x = t,
            _ => {}
        }
    }
}

/// An instruction together with its operand width and signedness.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsmInst {
    /// The operation.
    pub instr: Instr,
    /// Operand width in bits; limb expansion happens when it exceeds the
    /// data-bus width.
    pub width: u8,
    /// Whether the accumulator result wraps as a signed value of `width`
    /// bits (two's complement) or unsigned.
    pub signed: bool,
}

impl AsmInst {
    /// Convenience constructor.
    pub fn new(instr: Instr, width: u8, signed: bool) -> Self {
        AsmInst { instr, width, signed }
    }

    /// Wraps a raw accumulator value into this instruction's domain.
    pub fn wrap(&self, v: i64) -> i64 {
        let width = self.width.min(63) as u32;
        let mask: u64 = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        let t = (v as u64) & mask;
        if self.signed && width > 0 && t & (1 << (width - 1)) != 0 {
            (t | !mask) as i64
        } else {
            t as i64
        }
    }
}

/// One compiled routine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsmFunction {
    /// Routine name (matches the action-language function).
    pub name: String,
    /// Number of parameters (passed in the frame's first slots).
    pub param_count: u8,
    /// Storage locations of the parameter/virtual-register frame.
    pub frame: Vec<Storage>,
    /// Instruction stream.
    pub code: Vec<AsmInst>,
    /// Worst-case iteration bound applying to every loop in this routine,
    /// when statically known (set for the synthesised software mul/div
    /// runtime, whose loops iterate exactly `width` times). `None` makes
    /// the WCET analysis fall back to its configured default bound.
    pub loop_bound: Option<u64>,
}

impl AsmFunction {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the function has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_target_roundtrip() {
        let mut i = Instr::JumpIfZero(7);
        assert_eq!(i.branch_target(), Some(7));
        i.set_branch_target(9);
        assert_eq!(i.branch_target(), Some(9));
        assert_eq!(Instr::Halt.branch_target(), None);
    }

    #[test]
    fn alu_feature_requirements() {
        assert!(AluOp::Mul.needs_muldiv());
        assert!(!AluOp::Add.needs_muldiv());
        assert!(AluOp::Shl.needs_shifter());
        assert!(!AluOp::Xor.needs_shifter());
    }

    #[test]
    fn storage_display() {
        assert_eq!(Storage::Register(3).to_string(), "r3");
        assert_eq!(Storage::Internal(10).to_string(), "iram[10]");
        assert_eq!(Storage::External(5).to_string(), "xram[5]");
    }

    #[test]
    fn kind_index_matches_obs_slot_names() {
        use pscp_obs::metrics::{TEP_KINDS, TEP_KIND_NAMES};
        // One representative per variant, in variant order; the name
        // table over in pscp-obs must line up slot for slot.
        let reps: [(Instr, &str); TEP_KINDS] = [
            (Instr::Nop, "nop"),
            (Instr::Ldi(0), "ldi"),
            (Instr::Load(Storage::Register(0)), "load"),
            (Instr::Store(Storage::Register(0)), "store"),
            (Instr::LoadIndexed(Storage::Internal(0)), "load_indexed"),
            (Instr::StoreIndexed(Storage::Internal(0)), "store_indexed"),
            (Instr::Tao, "tao"),
            (Instr::Alu(AluOp::Add), "alu"),
            (Instr::Cmp { op: CmpOp::Eq, signed: false }, "cmp"),
            (Instr::Jump(0), "jump"),
            (Instr::JumpIfZero(0), "jump_if_zero"),
            (Instr::JumpIfNotZero(0), "jump_if_not_zero"),
            (Instr::Call(0), "call"),
            (Instr::Return, "return"),
            (Instr::PortRead(0), "port_read"),
            (Instr::PortWrite(0), "port_write"),
            (Instr::ReadCond(0), "read_cond"),
            (Instr::SetCond(0), "set_cond"),
            (Instr::RaiseEvent(0), "raise_event"),
            (Instr::Custom(0), "custom"),
            (Instr::AluMem { op: AluOp::Add, src: Storage::Register(0) }, "alu_mem"),
            (Instr::Halt, "halt"),
        ];
        for (slot, (inst, name)) in reps.iter().enumerate() {
            assert_eq!(kind_index(inst), slot, "{name} slot");
            assert_eq!(TEP_KIND_NAMES[slot], *name);
        }
    }
}
