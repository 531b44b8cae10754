//! TEP architecture description.
//!
//! "The TEP of an application is derived from a library of elements
//! consisting of hardware building blocks and associated microinstruction
//! sequences. The main library elements are calculation units of varying
//! size and functionality. There are units with or without associated
//! register files, and units with or without shifting capabilities.
//! Several styles of ALUs … are available." (§3.3)
//!
//! A [`TepArch`] value pins down one point in that design space; the
//! iterative optimiser of the core crate mutates it.

use crate::isa::AluOp;
use std::fmt;

/// Storage classes of the component library, ordered fastest-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StorageClass {
    /// Register file (fast, expensive).
    Register,
    /// On-chip RAM (moderate).
    Internal,
    /// External RAM (slow, cheap).
    External,
}

impl fmt::Display for StorageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StorageClass::Register => "register",
            StorageClass::Internal => "internal RAM",
            StorageClass::External => "external RAM",
        })
    }
}

/// Calculation-unit configuration (the datapath core of Fig. 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CalcUnit {
    /// Data-bus / ALU width in bits (the basic TEP is 8).
    pub width: u8,
    /// Hardware multiply/divide extension ("calculation units with extra
    /// multiply/division capability", §5).
    pub muldiv: bool,
    /// Dedicated comparator (inserted by the `if (a == b)` pattern rule).
    pub comparator: bool,
    /// Two's-complement negate path (inserted by the `x = -x` pattern).
    pub twos_complement: bool,
    /// Shifter block.
    pub shifter: bool,
}

impl CalcUnit {
    /// The minimal 8-bit unit of the basic TEP.
    pub fn minimal() -> Self {
        CalcUnit {
            width: 8,
            muldiv: false,
            comparator: false,
            twos_complement: false,
            shifter: true,
        }
    }

    /// The 16-bit multiply/divide unit of the paper's final architecture.
    pub fn md16() -> Self {
        CalcUnit {
            width: 16,
            muldiv: true,
            comparator: true,
            twos_complement: true,
            shifter: true,
        }
    }

    /// Whether the unit executes `op` natively.
    pub fn supports(&self, op: AluOp) -> bool {
        match op {
            _ if op.needs_muldiv() => self.muldiv,
            _ if op.needs_shifter() => self.shifter,
            AluOp::Neg => self.twos_complement,
            _ => true,
        }
    }
}

impl Default for CalcUnit {
    fn default() -> Self {
        CalcUnit::minimal()
    }
}

/// A custom fused instruction: a short expression DAG executed in a
/// single clock cycle. "Simple components such as shifters and registers
/// can be combined to custom operations, which are derived from the
/// assembler code. These instructions execute within one clock cycle.
/// Care must be taken that such instructions do not become the critical
/// paths inside the TEP." (§3.3)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CustomOp {
    /// Human-readable pattern, e.g. `acc*4+op`.
    pub name: String,
    /// The fused operation sequence (applied to ACC with OP as the
    /// second operand of each step).
    pub steps: Vec<CustomStep>,
    /// Estimated combinational depth in gate levels (checked against the
    /// architecture's critical-path budget).
    pub depth: u8,
}

/// One step of a custom op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CustomStep {
    /// Apply an ALU op with OP as right operand.
    WithOp(AluOp),
    /// Apply an ALU op with an immediate right operand.
    WithImm(AluOp, i64),
}

/// A complete TEP architecture.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct TepArch {
    /// The calculation unit.
    pub calc: CalcUnit,
    /// Register-file size (0 = no register file).
    pub register_file: u8,
    /// On-chip RAM words.
    pub internal_ram_words: u16,
    /// External RAM words available.
    pub external_ram_words: u16,
    /// Storage class used for program globals (promoted by the
    /// optimiser).
    pub global_storage: StorageClass,
    /// Storage class used for routine frames (locals / virtual
    /// registers).
    pub frame_storage: StorageClass,
    /// Custom instructions synthesised for this application.
    pub custom_ops: Vec<CustomOp>,
    /// Maximum combinational depth (gate levels) allowed in one clock
    /// cycle — limits custom-op fusion so they "do not become the
    /// critical paths inside the TEP".
    pub max_custom_depth: u8,
    /// Whether the assembler/microcode peephole optimisations are applied
    /// (off reproduces the "unoptimized code" rows of Table 4).
    pub optimize_code: bool,
    /// Whether application-specific fused instructions are extracted
    /// from the assembler code (§3.3 custom operations). Part of the
    /// "optimized code" configuration in Table 4.
    pub custom_instructions: bool,
    /// Pipelined microinstruction fetch: the next microinstruction is
    /// fetched while the current one executes, saving one cycle per
    /// instruction on straight-line code (taken control transfers pay a
    /// one-cycle hazard bubble instead). This is the "pipelined versions
    /// of the PSCP architecture" extension the paper lists as future
    /// work (§6) — off in every Table 4 configuration.
    pub pipelined: bool,
}

impl TepArch {
    /// The minimal functional TEP: 8-bit bus, no M/D, no comparator, no
    /// register file, globals in external RAM, unoptimised code.
    pub fn minimal() -> Self {
        TepArch {
            calc: CalcUnit::minimal(),
            register_file: 0,
            internal_ram_words: 128,
            external_ram_words: 1024,
            global_storage: StorageClass::External,
            frame_storage: StorageClass::Internal,
            custom_ops: Vec::new(),
            max_custom_depth: 6,
            optimize_code: false,
            custom_instructions: false,
            pipelined: false,
        }
    }

    /// The paper's improved TEP: 16-bit M/D calculation unit, small
    /// register file, still unoptimised code (Table 4 row 2).
    pub fn md16_unoptimized() -> Self {
        TepArch {
            calc: CalcUnit::md16(),
            register_file: 4,
            internal_ram_words: 256,
            external_ram_words: 1024,
            global_storage: StorageClass::External,
            frame_storage: StorageClass::Internal,
            custom_ops: Vec::new(),
            max_custom_depth: 6,
            optimize_code: false,
            custom_instructions: false,
            pipelined: false,
        }
    }

    /// The optimised 16-bit M/D TEP (Table 4 row 3): peephole, storage
    /// promotion and custom-instruction extraction applied.
    pub fn md16_optimized() -> Self {
        TepArch {
            global_storage: StorageClass::Internal,
            frame_storage: StorageClass::Internal,
            // "additional registers" are part of the paper's final
            // solution (§5).
            register_file: 16,
            optimize_code: true,
            custom_instructions: true,
            ..TepArch::md16_unoptimized()
        }
    }

    /// Looks up a custom op by id.
    pub fn custom_op(&self, id: u16) -> Option<&CustomOp> {
        self.custom_ops.get(id as usize)
    }

    /// Number of bus-wide limbs needed for a `width`-bit operand.
    pub fn limbs(&self, width: u8) -> u32 {
        width.div_ceil(self.calc.width) as u32
    }
}

impl Default for TepArch {
    fn default() -> Self {
        TepArch::minimal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_lacks_muldiv() {
        let a = TepArch::minimal();
        assert!(!a.calc.supports(AluOp::Mul));
        assert!(a.calc.supports(AluOp::Add));
        assert!(!a.calc.supports(AluOp::Neg));
    }

    #[test]
    fn md16_supports_everything() {
        let a = TepArch::md16_optimized();
        for op in [AluOp::Mul, AluOp::Div, AluOp::Neg, AluOp::Shl, AluOp::Add] {
            assert!(a.calc.supports(op), "{op}");
        }
    }

    #[test]
    fn limb_counts() {
        let a = TepArch::minimal(); // 8-bit bus
        assert_eq!(a.limbs(8), 1);
        assert_eq!(a.limbs(9), 2);
        assert_eq!(a.limbs(16), 2);
        assert_eq!(a.limbs(32), 4);
        let b = TepArch::md16_unoptimized(); // 16-bit bus
        assert_eq!(b.limbs(16), 1);
        assert_eq!(b.limbs(32), 2);
    }

    #[test]
    fn storage_class_ordering_fastest_first() {
        assert!(StorageClass::Register < StorageClass::Internal);
        assert!(StorageClass::Internal < StorageClass::External);
    }
}
