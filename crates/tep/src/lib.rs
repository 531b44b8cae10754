//! The Transition Execution Processor (TEP).
//!
//! §3.2 of the paper: the TEP is a modular, scalable accumulator
//! microcontroller with a Harvard architecture, an on-chip RAM, a
//! calculation unit (accumulator + operand register + ALU), ports for
//! events/conditions/data, and a *microprogrammed* control unit — each
//! assembler-level instruction is a microprogram of 16-bit
//! microinstructions (Table 1).
//!
//! Modules:
//!
//! * [`isa`] — the assembler-level instruction set.
//! * [`arch`] — the architecture description: bus width, calculation-unit
//!   features (M/D, comparator, two's complement, shifter), register-file
//!   size, storage classes, custom instructions.
//! * [`microcode`] — microinstruction format, per-instruction
//!   microprograms, decoder/ROM synthesis, the microcode peephole pass.
//! * [`codegen`] — action-language IR → TEP assembly, parameterised by
//!   the architecture (software mul/div expansion on machines without an
//!   M/D unit, comparator-less compare expansion, custom-instruction
//!   substitution).
//! * [`asm`] — textual assembler listing / disassembler.
//! * [`machine`] — cycle-accurate execution of assembled programs, with
//!   costs taken from the microprogram lengths.
//! * [`timing`] — the per-instruction cost model and static worst-case
//!   execution-time analysis of routines (used by the timing validator).

pub mod arch;
pub mod asm;
pub mod codegen;
pub mod isa;
pub mod machine;
pub mod microcode;
pub mod timing;

pub use arch::{CalcUnit, StorageClass, TepArch};
pub use codegen::{
    compile_program, compile_program_cached, CacheStats, CodegenCache, CodegenOptions,
    KeyHasher, TepProgram,
};
pub use machine::{TepDataState, TepMachine};
pub use timing::{CostModel, WcetAnalysis};
