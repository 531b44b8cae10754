//! Three-address intermediate representation.
//!
//! The IR is the "assembler-level representation" of §2: flat, linear
//! code over virtual registers with explicit loads/stores, port accesses
//! and chart interactions. The TEP code generator consumes it directly;
//! the iterative optimiser reads data-path requirements (operator mix,
//! operand widths) off it.

use crate::types::Scalar;
use std::fmt;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A branch target; resolved through [`Function::label_pos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// IR binary operators. Comparison results are `uint:1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (signedness from the instruction type).
    Div,
    /// Remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Shift right (arithmetic when signed).
    Shr,
    /// Equal.
    CmpEq,
    /// Not equal.
    CmpNe,
    /// Less than.
    CmpLt,
    /// Less or equal.
    CmpLe,
}

impl BinOp {
    /// True for the comparison operators.
    pub fn is_compare(self) -> bool {
        matches!(self, BinOp::CmpEq | BinOp::CmpNe | BinOp::CmpLt | BinOp::CmpLe)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::CmpEq => "cmpeq",
            BinOp::CmpNe => "cmpne",
            BinOp::CmpLt => "cmplt",
            BinOp::CmpLe => "cmple",
        };
        f.write_str(s)
    }
}

/// IR unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
        })
    }
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = value`
    Const {
        /// Destination.
        dst: VReg,
        /// Immediate value.
        value: i64,
    },
    /// `dst = src`
    Copy {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// `dst = lhs op rhs`
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// `dst = op src`
    Un {
        /// Operator.
        op: UnOp,
        /// Destination.
        dst: VReg,
        /// Operand.
        src: VReg,
    },
    /// `dst = globals[slot]`
    LoadGlobal {
        /// Destination.
        dst: VReg,
        /// Global slot.
        slot: u32,
    },
    /// `globals[slot] = src`
    StoreGlobal {
        /// Global slot.
        slot: u32,
        /// Source.
        src: VReg,
    },
    /// `dst = globals[base + index]` (array element)
    LoadIndexed {
        /// Destination.
        dst: VReg,
        /// Array base slot.
        base: u32,
        /// Dynamic index register.
        index: VReg,
    },
    /// `globals[base + index] = src`
    StoreIndexed {
        /// Array base slot.
        base: u32,
        /// Dynamic index register.
        index: VReg,
        /// Source.
        src: VReg,
    },
    /// `dst = port[p]`
    PortRead {
        /// Destination.
        dst: VReg,
        /// Port index.
        port: u32,
    },
    /// `port[p] = src`
    PortWrite {
        /// Port index.
        port: u32,
        /// Source.
        src: VReg,
    },
    /// `dst = condition[c]`
    ReadCondition {
        /// Destination.
        dst: VReg,
        /// Condition index.
        cond: u32,
    },
    /// `condition[c] = src != 0`
    SetCondition {
        /// Condition index.
        cond: u32,
        /// Source.
        src: VReg,
    },
    /// Raise event `e` (visible next configuration cycle).
    RaiseEvent {
        /// Event index.
        event: u32,
    },
    /// Call function `func` with `args`, optional result in `dst`.
    Call {
        /// Callee index into [`Program::functions`].
        func: u32,
        /// Argument registers.
        args: Vec<VReg>,
        /// Result register for non-void calls.
        dst: Option<VReg>,
    },
    /// Return, with optional value.
    Ret {
        /// Returned register, `None` for void.
        value: Option<VReg>,
    },
    /// Unconditional jump.
    Jump {
        /// Target label.
        target: Label,
    },
    /// Conditional branch on `cond != 0`.
    Branch {
        /// Condition register.
        cond: VReg,
        /// Taken when non-zero.
        if_true: Label,
        /// Taken when zero.
        if_false: Label,
    },
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::LoadGlobal { dst, .. }
            | Inst::LoadIndexed { dst, .. }
            | Inst::PortRead { dst, .. }
            | Inst::ReadCondition { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// The registers used by this instruction.
    pub fn uses(&self) -> Vec<VReg> {
        match self {
            Inst::Copy { src, .. } | Inst::Un { src, .. } => vec![*src],
            Inst::Bin { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::StoreGlobal { src, .. }
            | Inst::PortWrite { src, .. }
            | Inst::SetCondition { src, .. } => vec![*src],
            Inst::LoadIndexed { index, .. } => vec![*index],
            Inst::StoreIndexed { index, src, .. } => vec![*index, *src],
            Inst::Call { args, .. } => args.clone(),
            Inst::Ret { value: Some(v) } => vec![*v],
            Inst::Branch { cond, .. } => vec![*cond],
            _ => Vec::new(),
        }
    }
}

/// A compiled function: linear instruction list plus label table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter types; arguments arrive in `v0..vN`.
    pub params: Vec<Scalar>,
    /// Return type, `None` for void.
    pub ret: Option<Scalar>,
    /// Instruction stream.
    pub insts: Vec<Inst>,
    /// `labels[l]` = instruction index that label `l` points at.
    pub labels: Vec<usize>,
    /// Type of every virtual register.
    pub vreg_types: Vec<Scalar>,
}

impl Function {
    /// Instruction index a label resolves to.
    pub fn label_pos(&self, l: Label) -> usize {
        self.labels[l.0 as usize]
    }

    /// Number of virtual registers.
    pub fn vreg_count(&self) -> usize {
        self.vreg_types.len()
    }

    /// Type of a register.
    pub fn vreg_type(&self, v: VReg) -> Scalar {
        self.vreg_types[v.0 as usize]
    }

    /// Counts instructions per opcode kind (data-path requirement
    /// analysis: "the assembler-level instruction set is mostly used to
    /// analyze the data-path requirements of an application").
    pub fn op_histogram(&self) -> OpHistogram {
        let mut h = OpHistogram::default();
        for i in &self.insts {
            match i {
                Inst::Bin { op: BinOp::Mul, .. } => h.mul += 1,
                Inst::Bin { op: BinOp::Div, .. } | Inst::Bin { op: BinOp::Rem, .. } => {
                    h.div += 1
                }
                Inst::Bin { op: BinOp::Shl, .. } | Inst::Bin { op: BinOp::Shr, .. } => {
                    h.shift += 1
                }
                Inst::Bin { op, .. } if op.is_compare() => h.compare += 1,
                Inst::Bin { .. } | Inst::Un { .. } => h.alu += 1,
                Inst::LoadGlobal { .. }
                | Inst::StoreGlobal { .. }
                | Inst::LoadIndexed { .. }
                | Inst::StoreIndexed { .. } => h.mem += 1,
                Inst::PortRead { .. } | Inst::PortWrite { .. } => h.port += 1,
                Inst::Call { .. } => h.call += 1,
                _ => {}
            }
        }
        h
    }

    /// Maximum operand width used anywhere in the function.
    pub fn max_width(&self) -> u8 {
        self.vreg_types.iter().map(|t| t.width).max().unwrap_or(1)
    }
}

/// Operator mix of a function (for architecture selection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpHistogram {
    /// Multiplications.
    pub mul: usize,
    /// Divisions and remainders.
    pub div: usize,
    /// Shifts.
    pub shift: usize,
    /// Comparisons.
    pub compare: usize,
    /// Other ALU operations.
    pub alu: usize,
    /// Memory (global/array) accesses.
    pub mem: usize,
    /// Port accesses.
    pub port: usize,
    /// Calls.
    pub call: usize,
}

/// A complete compiled program.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Program {
    /// Functions; indices match [`Inst::Call::func`].
    pub functions: Vec<Function>,
    /// Flattened global slots with reset values.
    pub globals: Vec<GlobalInit>,
    /// External data ports.
    pub ports: Vec<PortInfo>,
    /// Raisable events, by name.
    pub events: Vec<String>,
    /// Chart conditions, by name.
    pub conditions: Vec<String>,
    /// Named constants (enum variants) visible to transition labels.
    pub consts: std::collections::BTreeMap<String, i64>,
    /// Callee-before-caller order.
    pub topo_order: Vec<u32>,
}

/// A flattened global slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GlobalInit {
    /// Diagnostic name.
    pub name: String,
    /// Slot type.
    pub ty: Scalar,
    /// Reset value.
    pub init: i64,
}

/// An external data port.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortInfo {
    /// Port name.
    pub name: String,
    /// Word width.
    pub width: u8,
    /// Port address.
    pub address: u16,
    /// Reads allowed.
    pub readable: bool,
    /// Writes allowed.
    pub writable: bool,
}

impl Program {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Index of a function by name.
    pub fn function_index(&self, name: &str) -> Option<u32> {
        self.functions.iter().position(|f| f.name == name).map(|i| i as u32)
    }

    /// Textual dump of the whole program, for snapshots and debugging.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.functions {
            let _ = writeln!(out, "fn {}({:?}) -> {:?}", f.name, f.params, f.ret);
            for (pc, inst) in f.insts.iter().enumerate() {
                for (li, &pos) in f.labels.iter().enumerate() {
                    if pos == pc {
                        let _ = writeln!(out, "L{li}:");
                    }
                }
                let _ = writeln!(out, "  {pc:3}: {inst:?}");
            }
        }
        out
    }
}
