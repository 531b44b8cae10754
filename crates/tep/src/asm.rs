//! Textual assembler listing (disassembler) for compiled programs.
//!
//! The paper's flow keeps three software representations — C code,
//! assembler code, microinstructions (§2). This module renders the
//! middle one for inspection, reports, and snapshot tests.

use crate::codegen::TepProgram;
use crate::isa::{AsmFunction, Instr};
use crate::timing::CostModel;
use std::fmt::Write as _;

/// Renders one routine as an assembler listing with per-instruction
/// cycle costs.
pub fn listing(f: &AsmFunction, cost: &CostModel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}: ; {} params, frame {} words", f.name, f.param_count, f.frame.len());
    for (pc, inst) in f.code.iter().enumerate() {
        let text = render(&inst.instr);
        let c = cost.cost(inst);
        let _ = writeln!(out, "  {pc:4}: {text:<24} ; w{:<2} {c} cy", inst.width);
    }
    out
}

/// Renders a whole program.
pub fn program_listing(p: &TepProgram) -> String {
    let cost = CostModel::new(&p.arch);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; TEP program: {} routines, {} instructions, bus {} bits, M/D {}",
        p.functions.len(),
        p.instruction_count(),
        p.arch.calc.width,
        if p.arch.calc.muldiv { "yes" } else { "no" },
    );
    for g in &p.globals {
        let _ = writeln!(out, "; global {:<20} {} init {}", g.name, g.storage, g.init);
    }
    for f in &p.functions {
        out.push('\n');
        out.push_str(&listing(f, &cost));
    }
    out
}

/// Renders a single instruction in assembler syntax.
pub fn render(i: &Instr) -> String {
    match i {
        Instr::Nop => "nop".into(),
        Instr::Ldi(v) => format!("ldi   {v}"),
        Instr::Load(s) => format!("ld    {s}"),
        Instr::Store(s) => format!("st    {s}"),
        Instr::LoadIndexed(s) => format!("ldx   {s}+acc"),
        Instr::StoreIndexed(s) => format!("stx   {s}+op"),
        Instr::Tao => "tao".into(),
        Instr::Alu(op) => format!("{op}"),
        Instr::Cmp { op, signed } => {
            format!("cmp{}{op}", if *signed { "s" } else { "u" })
        }
        Instr::Jump(t) => format!("jmp   {t}"),
        Instr::JumpIfZero(t) => format!("jz    {t}"),
        Instr::JumpIfNotZero(t) => format!("jnz   {t}"),
        Instr::Call(f) => format!("call  fn{f}"),
        Instr::Return => "ret".into(),
        Instr::PortRead(p) => format!("in    p{p}"),
        Instr::PortWrite(p) => format!("out   p{p}"),
        Instr::ReadCond(c) => format!("rdc   c{c}"),
        Instr::SetCond(c) => format!("stc   c{c}"),
        Instr::RaiseEvent(e) => format!("raise e{e}"),
        Instr::Custom(id) => format!("cust  #{id}"),
        Instr::AluMem { op, src } => format!("{op}m  {src}"),
        Instr::Halt => "halt".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::TepArch;
    use crate::codegen::{compile_program, CodegenOptions};
    use pscp_action_lang::ProgramEnv;

    #[test]
    fn listing_contains_all_routines() {
        let ir = pscp_action_lang::compile_with_env(
            "int:16 g;\nint:16 f(int:16 a) { g = a * 2; return g; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let p = compile_program(&ir, &TepArch::md16_unoptimized(), &CodegenOptions::default());
        let text = program_listing(&p);
        assert!(text.contains("f:"));
        assert!(text.contains("global g"));
        assert!(text.contains("mul"));
        assert!(text.contains("cy"));
    }

    #[test]
    fn render_covers_every_variant() {
        use crate::isa::{AluOp, CmpOp, Storage};
        let all = [
            Instr::Nop,
            Instr::Ldi(5),
            Instr::Load(Storage::Register(1)),
            Instr::Store(Storage::Internal(2)),
            Instr::LoadIndexed(Storage::External(3)),
            Instr::StoreIndexed(Storage::Internal(4)),
            Instr::Tao,
            Instr::Alu(AluOp::Add),
            Instr::Cmp { op: CmpOp::Lt, signed: true },
            Instr::Jump(1),
            Instr::JumpIfZero(2),
            Instr::JumpIfNotZero(3),
            Instr::Call(0),
            Instr::Return,
            Instr::PortRead(1),
            Instr::PortWrite(2),
            Instr::ReadCond(3),
            Instr::SetCond(4),
            Instr::RaiseEvent(5),
            Instr::Custom(0),
            Instr::Halt,
        ];
        for i in &all {
            assert!(!render(i).is_empty());
        }
    }
}
