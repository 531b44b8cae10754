//! Cycle-accurate execution of TEP programs.
//!
//! The machine executes assembler-level instructions; each one advances
//! the cycle counter by its microprogram length (scaled for limb
//! expansion) from [`crate::timing::CostModel`]. [`TepMachine::new`]
//! prices every instruction of the program once into a table that
//! clones share, so execution reads a cost instead of computing it; the
//! WCET analysis calls the model itself. Ports, conditions and
//! events go through the same [`Host`] trait the IR interpreter uses, so
//! the two can be compared instruction-for-effect in differential tests.

use crate::arch::CustomStep;
use crate::codegen::TepProgram;
use crate::isa::{AluOp, AsmInst, CmpOp, Instr, Storage};
use crate::timing::CostModel;
use pscp_action_lang::interp::Host;
use std::fmt;
use std::sync::Arc;

/// Runtime errors of the TEP machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TepError {
    /// Division by zero on the hardware M/D unit.
    DivideByZero {
        /// Routine name.
        function: String,
        /// Program counter.
        pc: usize,
    },
    /// Cycle budget exhausted (runaway loop).
    CycleLimit {
        /// The exhausted budget.
        limit: u64,
    },
    /// Call stack exceeded its (generous) bound.
    CallDepth,
    /// Unknown routine name.
    NoSuchFunction(String),
    /// The instruction requires a hardware feature the architecture
    /// lacks (generator bug if it ever fires).
    MissingFeature {
        /// Routine name.
        function: String,
        /// Description of the missing block.
        feature: &'static str,
    },
    /// Memory access out of the configured RAM ranges.
    MemoryFault {
        /// Routine name.
        function: String,
        /// The storage operand that faulted.
        storage: Storage,
    },
}

impl fmt::Display for TepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TepError::DivideByZero { function, pc } => {
                write!(f, "divide by zero in `{function}` at pc {pc}")
            }
            TepError::CycleLimit { limit } => write!(f, "cycle limit {limit} exhausted"),
            TepError::CallDepth => write!(f, "call depth exceeded"),
            TepError::NoSuchFunction(n) => write!(f, "no such routine `{n}`"),
            TepError::MissingFeature { function, feature } => {
                write!(f, "`{function}` needs missing hardware: {feature}")
            }
            TepError::MemoryFault { function, storage } => {
                write!(f, "memory fault in `{function}` at {storage}")
            }
        }
    }
}

impl std::error::Error for TepError {}

/// A snapshot of a [`TepMachine`]'s architecturally visible data
/// state: `ACC`, `OP`, the register file, and both RAM planes.
/// Captured by [`TepMachine::data_state`] and reinstated by
/// [`TepMachine::restore_data_state`]; cycle/retired counters and the
/// program itself are deliberately excluded.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TepDataState {
    /// Accumulator.
    pub acc: i64,
    /// Second operand register.
    pub op: i64,
    /// Register file contents.
    pub regs: Vec<i64>,
    /// On-chip RAM contents.
    pub iram: Vec<i64>,
    /// External RAM contents.
    pub xram: Vec<i64>,
}

/// The TEP machine state.
#[derive(Debug, Clone)]
pub struct TepMachine<'p> {
    program: &'p TepProgram,
    /// Cycles of every instruction, priced once by [`CostModel::cost`]:
    /// routine `f`'s instruction `pc` costs `costs[cost_start[f] + pc]`.
    costs: Arc<[u32]>,
    /// Where each routine's instructions start in `costs`.
    cost_start: Arc<[u32]>,
    /// Accumulator.
    acc: i64,
    /// Second operand register.
    op: i64,
    /// Register file.
    regs: Vec<i64>,
    /// On-chip RAM.
    iram: Vec<i64>,
    /// External RAM.
    xram: Vec<i64>,
    /// Executed cycles.
    cycles: u64,
    /// Executed instructions.
    retired: u64,
    cycle_limit: u64,
    /// Locally batched per-kind retire counts, folded into the global
    /// `pscp_obs::metrics::TEP_INSTR` counters on drop/reset so the
    /// execution loop never touches an atomic.
    kind_counts: [u64; pscp_obs::metrics::TEP_KINDS],
    /// Whether this call sequence records kind counts (sampled from
    /// the obs flag word once per routine call).
    count_kinds: bool,
    /// Set when data memory may differ from the last snapshot passed
    /// to [`TepMachine::restore_data_state`]; see
    /// [`TepMachine::data_touched`].
    data_touched: bool,
}

impl<'p> TepMachine<'p> {
    /// Creates a machine with globals initialised to their reset values.
    pub fn new(program: &'p TepProgram) -> Self {
        let arch = &program.arch;
        let model = CostModel::new(arch);
        let mut cost_start = Vec::with_capacity(program.functions.len());
        let mut costs = Vec::with_capacity(program.instruction_count());
        for f in &program.functions {
            cost_start.push(u32::try_from(costs.len()).expect("program fits u32 instructions"));
            costs.extend(f.code.iter().map(|inst| {
                u32::try_from(model.cost(inst)).expect("an instruction costs under u32::MAX cycles")
            }));
        }
        let mut m = TepMachine {
            program,
            costs: costs.into(),
            cost_start: cost_start.into(),
            acc: 0,
            op: 0,
            regs: vec![0; arch.register_file.max(1) as usize],
            iram: vec![0; arch.internal_ram_words.max(program.internal_words_used) as usize],
            xram: vec![0; arch.external_ram_words.max(program.external_words_used) as usize],
            cycles: 0,
            retired: 0,
            cycle_limit: 100_000_000,
            kind_counts: [0; pscp_obs::metrics::TEP_KINDS],
            count_kinds: false,
            data_touched: true,
        };
        m.reset_globals();
        m
    }

    /// Overrides the runaway cycle budget.
    pub fn with_cycle_limit(mut self, limit: u64) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Full power-on reset: zeroes every register and memory word,
    /// clears the cycle and retired counters, and reloads the globals'
    /// reset values. A reset machine behaves byte-identically to one
    /// built by [`TepMachine::new`]; the memory allocations are reused.
    pub fn reset(&mut self) {
        self.flush_kind_counts();
        self.acc = 0;
        self.op = 0;
        self.regs.iter_mut().for_each(|r| *r = 0);
        self.iram.iter_mut().for_each(|w| *w = 0);
        self.xram.iter_mut().for_each(|w| *w = 0);
        self.cycles = 0;
        self.retired = 0;
        self.reset_globals();
    }

    /// Snapshots the architecturally visible data state — everything a
    /// routine can read or write: `ACC`, `OP`, the register file, and
    /// both RAM planes. Cycle/retired counters are *not* part of the
    /// data state; callers that meter costs do so as deltas.
    pub fn data_state(&self) -> TepDataState {
        TepDataState {
            acc: self.acc,
            op: self.op,
            regs: self.regs.clone(),
            iram: self.iram.clone(),
            xram: self.xram.clone(),
        }
    }

    /// Restores a [`data_state`](TepMachine::data_state) snapshot. The
    /// cycle and retired counters are rewound to zero so arbitrarily
    /// many restore-and-step rounds (state-space exploration) never
    /// trip the runaway cycle budget — semantically invisible, since
    /// routine costs are always measured as deltas around a call.
    pub fn restore_data_state(&mut self, s: &TepDataState) {
        self.flush_kind_counts();
        self.acc = s.acc;
        self.op = s.op;
        self.regs.copy_from_slice(&s.regs);
        self.iram.copy_from_slice(&s.iram);
        self.xram.copy_from_slice(&s.xram);
        self.cycles = 0;
        self.retired = 0;
        self.data_touched = false;
    }

    /// Whether data memory may have changed since the last
    /// [`restore_data_state`](TepMachine::restore_data_state): set by
    /// every routine call (conservatively, whether or not the routine
    /// writes), by [`reset`](TepMachine::reset) and
    /// [`reset_globals`](TepMachine::reset_globals), and on a fresh
    /// machine; cleared only by a restore. While it is clear, the data
    /// memory still equals the restored snapshot, so a caller that
    /// remembers which snapshot it restored may skip restoring it again.
    pub fn data_touched(&self) -> bool {
        self.data_touched
    }

    /// Reinitialises all globals to their reset values.
    pub fn reset_globals(&mut self) {
        self.data_touched = true;
        for g in &self.program.globals {
            let v = g.init;
            match g.storage {
                Storage::Register(r) => self.regs[r as usize] = v,
                Storage::Internal(a) => self.iram[a as usize] = v,
                Storage::External(a) => self.xram[a as usize] = v,
            }
        }
    }

    /// The cycles executing instruction `pc` of routine `fi` charges
    /// (callee time excluded): its entry in the machine's cost table,
    /// which [`TepMachine::new`] priced with [`CostModel::cost`].
    ///
    /// # Panics
    ///
    /// Panics when the routine or instruction does not exist.
    pub fn instruction_cost(&self, fi: u32, pc: usize) -> u64 {
        let f = &self.program.functions[fi as usize];
        assert!(pc < f.code.len(), "`{}` has no instruction {pc}", f.name);
        u64::from(self.costs[self.cost_start[fi as usize] as usize + pc])
    }

    /// Total cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads a global by its IR slot index.
    pub fn global(&self, slot: usize) -> i64 {
        match self.program.globals[slot].storage {
            Storage::Register(r) => self.regs[r as usize],
            Storage::Internal(a) => self.iram[a as usize],
            Storage::External(a) => self.xram[a as usize],
        }
    }

    /// Reads a global by diagnostic name.
    pub fn global_by_name(&self, name: &str) -> Option<i64> {
        self.program.globals.iter().position(|g| g.name == name).map(|i| self.global(i))
    }

    /// Calls a routine by name with arguments; returns `ACC` (the
    /// return-value register) if the routine returns a value.
    ///
    /// # Errors
    ///
    /// Returns the runtime errors documented on [`TepError`].
    pub fn call<H: Host>(
        &mut self,
        name: &str,
        args: &[i64],
        host: &mut H,
    ) -> Result<i64, TepError> {
        let fi = self
            .program
            .function_index(name)
            .ok_or_else(|| TepError::NoSuchFunction(name.to_string()))?;
        self.call_indexed(fi, args, host)
    }

    /// Calls a routine by index.
    ///
    /// # Errors
    ///
    /// Same as [`TepMachine::call`].
    pub fn call_indexed<H: Host>(
        &mut self,
        fi: u32,
        args: &[i64],
        host: &mut H,
    ) -> Result<i64, TepError> {
        self.data_touched = true;
        // Spill arguments into the callee frame, as the calling sequence
        // does.
        let f = &self.program.functions[fi as usize];
        for (i, &a) in args.iter().enumerate() {
            let slot = f.frame[i];
            self.write_storage(slot, a, &f.name)?;
        }
        self.count_kinds = pscp_obs::metrics_enabled();
        self.exec(fi, host, 0)?;
        Ok(self.acc)
    }

    /// Folds the locally batched instruction-kind counts into the
    /// global observability counters. Runs automatically on reset and
    /// drop; the counts are not part of the machine's architectural
    /// state (a reset machine stays byte-identical in behaviour to a
    /// fresh one).
    fn flush_kind_counts(&mut self) {
        if self.kind_counts.iter().any(|&n| n > 0) {
            pscp_obs::metrics::flush_tep_instr(&self.kind_counts);
            self.kind_counts = [0; pscp_obs::metrics::TEP_KINDS];
        }
    }

    fn read_storage(&self, s: Storage, fname: &str) -> Result<i64, TepError> {
        // `ok_or_else`, not `ok_or`: the fault value allocates a String
        // and must not be built on the (hot) success path.
        match s {
            Storage::Register(r) => self
                .regs
                .get(r as usize)
                .copied()
                .ok_or_else(|| TepError::MemoryFault { function: fname.into(), storage: s }),
            Storage::Internal(a) => self
                .iram
                .get(a as usize)
                .copied()
                .ok_or_else(|| TepError::MemoryFault { function: fname.into(), storage: s }),
            Storage::External(a) => self
                .xram
                .get(a as usize)
                .copied()
                .ok_or_else(|| TepError::MemoryFault { function: fname.into(), storage: s }),
        }
    }

    fn write_storage(&mut self, s: Storage, v: i64, fname: &str) -> Result<(), TepError> {
        let cell = match s {
            Storage::Register(r) => self.regs.get_mut(r as usize),
            Storage::Internal(a) => self.iram.get_mut(a as usize),
            Storage::External(a) => self.xram.get_mut(a as usize),
        };
        match cell {
            Some(c) => {
                *c = v;
                Ok(())
            }
            None => Err(TepError::MemoryFault { function: fname.into(), storage: s }),
        }
    }

    fn indexed(&self, base: Storage, offset: i64) -> Storage {
        match base {
            Storage::Register(r) => Storage::Register((r as i64 + offset) as u8),
            Storage::Internal(a) => Storage::Internal((a as i64 + offset) as u16),
            Storage::External(a) => Storage::External((a as i64 + offset) as u16),
        }
    }

    fn exec<H: Host>(&mut self, fi: u32, host: &mut H, depth: u32) -> Result<(), TepError> {
        if depth > 64 {
            return Err(TepError::CallDepth);
        }
        let f = &self.program.functions[fi as usize];
        // Borrowed, not cloned: the name is only materialised on the
        // error paths below.
        let fname = f.name.as_str();
        let base = self.cost_start[fi as usize] as usize;
        let mut pc = 0usize;
        while pc < f.code.len() {
            let inst: &AsmInst = &f.code[pc];
            self.cycles += u64::from(self.costs[base + pc]);
            self.retired += 1;
            if self.cycles > self.cycle_limit {
                return Err(TepError::CycleLimit { limit: self.cycle_limit });
            }
            if self.count_kinds {
                self.kind_counts[crate::isa::kind_index(&inst.instr)] += 1;
            }
            match &inst.instr {
                Instr::Nop => {}
                Instr::Ldi(v) => self.acc = inst.wrap(*v),
                Instr::Load(s) => self.acc = self.read_storage(*s, fname)?,
                Instr::Store(s) => {
                    let v = inst.wrap(self.acc);
                    self.write_storage(*s, v, fname)?;
                }
                Instr::LoadIndexed(base) => {
                    let s = self.indexed(*base, self.acc);
                    self.acc = self.read_storage(s, fname)?;
                }
                Instr::StoreIndexed(base) => {
                    let s = self.indexed(*base, self.op);
                    let v = inst.wrap(self.acc);
                    self.write_storage(s, v, fname)?;
                }
                Instr::Tao => self.op = self.acc,
                Instr::Alu(op) => {
                    if !self.program.arch.calc.supports(*op) {
                        return Err(TepError::MissingFeature {
                            function: fname.to_string(),
                            feature: "calculation-unit extension",
                        });
                    }
                    let r = match op {
                        AluOp::Add => self.acc.wrapping_add(self.op),
                        AluOp::Sub => self.acc.wrapping_sub(self.op),
                        AluOp::And => self.acc & self.op,
                        AluOp::Or => self.acc | self.op,
                        AluOp::Xor => self.acc ^ self.op,
                        AluOp::Not => !self.acc,
                        AluOp::Neg => self.acc.wrapping_neg(),
                        AluOp::Shl => self.acc.wrapping_shl((self.op & 63) as u32),
                        AluOp::Shr => {
                            let mask = if inst.width >= 64 {
                                u64::MAX
                            } else {
                                (1u64 << inst.width) - 1
                            };
                            (((self.acc as u64) & mask) >> ((self.op & 63) as u64)) as i64
                        }
                        AluOp::Sar => self.acc.wrapping_shr((self.op & 63) as u32),
                        AluOp::Mul => self.acc.wrapping_mul(self.op),
                        AluOp::Div => {
                            if self.op == 0 {
                                return Err(TepError::DivideByZero { function: fname.to_string(), pc });
                            }
                            self.acc.wrapping_div(self.op)
                        }
                        AluOp::Rem => {
                            if self.op == 0 {
                                return Err(TepError::DivideByZero { function: fname.to_string(), pc });
                            }
                            self.acc.wrapping_rem(self.op)
                        }
                    };
                    self.acc = inst.wrap(r);
                }
                Instr::Cmp { op, signed } => {
                    if !self.program.arch.calc.comparator {
                        return Err(TepError::MissingFeature {
                            function: fname.to_string(),
                            feature: "comparator",
                        });
                    }
                    let _ = signed; // values are held sign-correct in i64
                    let r = match op {
                        CmpOp::Eq => self.acc == self.op,
                        CmpOp::Ne => self.acc != self.op,
                        CmpOp::Lt => self.acc < self.op,
                        CmpOp::Le => self.acc <= self.op,
                    };
                    self.acc = r as i64;
                }
                Instr::Jump(t) => {
                    pc = *t as usize;
                    continue;
                }
                Instr::JumpIfZero(t) => {
                    if self.acc == 0 {
                        pc = *t as usize;
                        continue;
                    }
                }
                Instr::JumpIfNotZero(t) => {
                    if self.acc != 0 {
                        pc = *t as usize;
                        continue;
                    }
                }
                Instr::Call(callee) => {
                    self.exec(*callee, host, depth + 1)?;
                }
                Instr::Return => return Ok(()),
                Instr::PortRead(p) => self.acc = inst.wrap(host.port_read(*p as u32)),
                Instr::PortWrite(p) => host.port_write(*p as u32, inst.wrap(self.acc)),
                Instr::ReadCond(c) => self.acc = host.read_condition(*c as u32) as i64,
                Instr::SetCond(c) => host.set_condition(*c as u32, self.acc != 0),
                Instr::RaiseEvent(e) => host.raise_event(*e as u32),
                Instr::Custom(id) => {
                    let custom = self.program.arch.custom_op(*id).ok_or(
                        TepError::MissingFeature { function: fname.to_string(), feature: "custom op" },
                    )?;
                    let mut acc = self.acc;
                    for step in &custom.steps {
                        let (op, rhs) = match step {
                            CustomStep::WithOp(op) => (*op, self.op),
                            CustomStep::WithImm(op, imm) => (*op, *imm),
                        };
                        acc = apply_alu(op, acc, rhs);
                    }
                    self.acc = inst.wrap(acc);
                }
                Instr::AluMem { op, src } => {
                    // Fused `Tao; Load src; Alu op`.
                    let old_acc = self.acc;
                    self.op = old_acc;
                    let m = self.read_storage(*src, fname)?;
                    let r = match op {
                        AluOp::Add => m.wrapping_add(old_acc),
                        AluOp::Sub => m.wrapping_sub(old_acc),
                        AluOp::And => m & old_acc,
                        AluOp::Or => m | old_acc,
                        AluOp::Xor => m ^ old_acc,
                        AluOp::Shl => m.wrapping_shl((old_acc & 63) as u32),
                        AluOp::Shr => {
                            let mask = if inst.width >= 64 {
                                u64::MAX
                            } else {
                                (1u64 << inst.width) - 1
                            };
                            (((m as u64) & mask) >> ((old_acc & 63) as u64)) as i64
                        }
                        AluOp::Sar => m.wrapping_shr((old_acc & 63) as u32),
                        _ => {
                            return Err(TepError::MissingFeature {
                                function: fname.to_string(),
                                feature: "fused op kind",
                            })
                        }
                    };
                    self.acc = inst.wrap(r);
                }
                Instr::Halt => return Ok(()),
            }
            pc += 1;
        }
        Ok(())
    }
}

impl Drop for TepMachine<'_> {
    fn drop(&mut self) {
        self.flush_kind_counts();
    }
}

/// Pure ALU evaluation used for custom fused ops.
fn apply_alu(op: AluOp, a: i64, b: i64) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Not => !a,
        AluOp::Neg => a.wrapping_neg(),
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => ((a as u64) >> ((b & 63) as u64)) as i64,
        AluOp::Sar => a.wrapping_shr((b & 63) as u32),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::TepArch;
    use crate::codegen::{compile_program, CodegenOptions};
    use pscp_action_lang::interp::{Interp, RecordingHost};
    use pscp_action_lang::ProgramEnv;

    fn machine_result(src: &str, func: &str, args: &[i64], arch: &TepArch) -> i64 {
        let ir = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();
        let p = compile_program(&ir, arch, &CodegenOptions::default());
        let mut m = TepMachine::new(&p);
        let mut h = RecordingHost::new();
        m.call(func, args, &mut h).unwrap()
    }

    fn interp_result(src: &str, func: &str, args: &[i64]) -> i64 {
        let ir = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();
        let mut i = Interp::new(&ir);
        let mut h = RecordingHost::new();
        i.call(func, args, &mut h).unwrap().unwrap_or(0)
    }

    #[test]
    fn reset_restores_power_on_state() {
        let src = r#"
            int:16 total = 7;
            int:16 scratch;
            void Bump(int:16 n) { scratch = scratch + n; total = total + scratch; }
        "#;
        let ir = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();
        let p = compile_program(&ir, &TepArch::md16_optimized(), &CodegenOptions::default());
        let mut m = TepMachine::new(&p);
        let mut h = RecordingHost::new();
        m.call("Bump", &[3], &mut h).unwrap();
        m.call("Bump", &[4], &mut h).unwrap();
        assert_ne!(m.global_by_name("total"), Some(7));
        assert!(m.cycles() > 0);
        m.reset();
        assert_eq!(m.global_by_name("total"), Some(7));
        assert_eq!(m.global_by_name("scratch"), Some(0));
        assert_eq!(m.cycles(), 0);
        assert_eq!(m.retired(), 0);
        // The reset machine replays the fresh machine's exact trace.
        let fresh_cost = {
            let mut f = TepMachine::new(&p);
            f.call("Bump", &[3], &mut h).unwrap();
            (f.cycles(), f.global_by_name("total"))
        };
        m.call("Bump", &[3], &mut h).unwrap();
        assert_eq!((m.cycles(), m.global_by_name("total")), fresh_cost);
    }

    #[test]
    fn data_touched_tracks_writes_since_the_last_restore() {
        let src = r#"
            int:16 total = 7;
            void Bump(int:16 n) { total = total + n; }
            void Nothing() { }
        "#;
        let ir = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();
        let p = compile_program(&ir, &TepArch::md16_optimized(), &CodegenOptions::default());
        let mut h = RecordingHost::new();
        let mut m = TepMachine::new(&p);
        assert!(m.data_touched(), "a fresh machine matches no restored snapshot");
        let snapshot = m.data_state();
        m.restore_data_state(&snapshot);
        assert!(!m.data_touched(), "a restore clears the flag");

        m.call("Bump", &[3], &mut h).unwrap();
        assert!(m.data_touched(), "a writing routine sets the flag");
        m.restore_data_state(&snapshot);
        m.call("Nothing", &[], &mut h).unwrap();
        assert!(m.data_touched(), "any routine call sets the flag, even one that writes nothing");
        assert_eq!(m.data_state(), snapshot);

        m.restore_data_state(&snapshot);
        m.reset();
        assert!(m.data_touched(), "reset sets the flag");
        m.restore_data_state(&snapshot);
        m.reset_globals();
        assert!(m.data_touched(), "reset_globals sets the flag");
    }

    fn differential(src: &str, func: &str, cases: &[Vec<i64>]) {
        let archs = [
            TepArch::minimal(),
            TepArch::md16_unoptimized(),
            TepArch::md16_optimized(),
        ];
        for case in cases {
            let expected = interp_result(src, func, case);
            for arch in &archs {
                let got = machine_result(src, func, case, arch);
                assert_eq!(
                    got, expected,
                    "{func}{case:?} on width={} muldiv={} opt={}",
                    arch.calc.width, arch.calc.muldiv, arch.optimize_code
                );
            }
        }
    }

    #[test]
    fn arithmetic_matches_interpreter() {
        differential(
            "int:16 f(int:16 a, int:16 b) { return (a + b) * 3 - a / 2; }",
            "f",
            &[vec![6, 7], vec![-5, 2], vec![0, 0], vec![1000, -1000], vec![-32768, 1]],
        );
    }

    #[test]
    fn comparisons_match_interpreter_all_archs() {
        differential(
            "uint:1 f(int:16 a, int:16 b) { return a < b; }",
            "f",
            &[vec![1, 2], vec![2, 1], vec![-3, 3], vec![3, -3], vec![5, 5], vec![-7, -7]],
        );
        differential(
            "uint:1 f(uint:8 a, uint:8 b) { return a <= b; }",
            "f",
            &[vec![0, 255], vec![255, 0], vec![128, 128], vec![200, 100]],
        );
        differential(
            "uint:1 f(int:16 a, int:16 b) { return a == b; }",
            "f",
            &[vec![4, 4], vec![4, 5], vec![-1, -1], vec![-1, 255]],
        );
    }

    #[test]
    fn software_multiply_matches_hardware() {
        let src = "int:16 f(int:16 a, int:16 b) { return a * b; }";
        differential(
            src,
            "f",
            &[
                vec![3, 5],
                vec![-3, 5],
                vec![3, -5],
                vec![-3, -5],
                vec![0, 99],
                vec![255, 255],
                vec![-128, 2],
            ],
        );
    }

    #[test]
    fn software_divide_matches_hardware() {
        let src = "int:16 f(int:16 a, int:16 b) { return a / b; }";
        differential(
            src,
            "f",
            &[
                vec![10, 3],
                vec![-10, 3],
                vec![10, -3],
                vec![-10, -3],
                vec![0, 7],
                vec![1000, 1],
                vec![7, 10],
            ],
        );
        let src = "int:16 f(int:16 a, int:16 b) { return a % b; }";
        differential(src, "f", &[vec![10, 3], vec![-10, 3], vec![10, -3], vec![-10, -3]]);
    }

    #[test]
    fn loops_match_interpreter() {
        let src = r#"
            int:16 fact(int:16 n) {
                int:16 r = 1;
                while (n > 1) { r = r * n; n = n - 1; }
                return r;
            }
        "#;
        differential(src, "fact", &[vec![0], vec![1], vec![5], vec![7]]);
    }

    #[test]
    fn globals_and_conditions_match() {
        let src = r#"
            condition DONE;
            int:16 total = 10;
            void add(int:16 n) { total = total + n; DONE = total > 20; }
        "#;
        let ir = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();
        for arch in [TepArch::minimal(), TepArch::md16_optimized()] {
            let p = compile_program(&ir, &arch, &CodegenOptions::default());
            let mut m = TepMachine::new(&p);
            let mut hm = RecordingHost::new();
            m.call("add", &[7], &mut hm).unwrap();
            m.call("add", &[9], &mut hm).unwrap();

            let mut i = Interp::new(&ir);
            let mut hi = RecordingHost::new();
            i.call("add", &[7], &mut hi).unwrap();
            i.call("add", &[9], &mut hi).unwrap();

            assert_eq!(m.global_by_name("total"), i.global("total"));
            assert_eq!(hm.cond_writes, hi.cond_writes);
        }
    }

    #[test]
    fn port_traffic_matches() {
        let src = r#"
            port In : 8 @ 1 in;
            port Out : 16 @ 2 out;
            void pump() { Out = In * 3 + 1; }
        "#;
        let ir = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();
        for arch in [TepArch::minimal(), TepArch::md16_unoptimized()] {
            let p = compile_program(&ir, &arch, &CodegenOptions::default());
            let mut m = TepMachine::new(&p);
            let mut hm = RecordingHost::new();
            hm.queue_input(0, [14]);
            m.call("pump", &[], &mut hm).unwrap();
            assert_eq!(hm.writes, vec![(1, 43)], "arch w={}", arch.calc.width);
        }
    }

    #[test]
    fn minimal_arch_is_much_slower_on_muldiv() {
        let src = "int:16 f(int:16 a, int:16 b) { return a * b / (b + 1); }";
        let ir = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();

        let run = |arch: &TepArch| {
            let p = compile_program(&ir, arch, &CodegenOptions::default());
            let mut m = TepMachine::new(&p);
            let mut h = RecordingHost::new();
            m.call("f", &[123, 45], &mut h).unwrap();
            m.cycles()
        };
        let slow = run(&TepArch::minimal());
        let fast = run(&TepArch::md16_unoptimized());
        assert!(
            slow > 4 * fast,
            "software mul/div on 8-bit must dominate: {slow} vs {fast}"
        );
    }

    #[test]
    fn optimized_code_uses_fewer_cycles() {
        let src = "int:16 f(int:16 a) { int:16 x = a + 1; int:16 y = x * 2; return y - a; }";
        let ir = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();
        let run = |arch: &TepArch| {
            let p = compile_program(&ir, arch, &CodegenOptions::default());
            let mut m = TepMachine::new(&p);
            let mut h = RecordingHost::new();
            m.call("f", &[10], &mut h).unwrap();
            m.cycles()
        };
        assert!(run(&TepArch::md16_optimized()) < run(&TepArch::md16_unoptimized()));
    }

    #[test]
    fn array_programs_match() {
        let src = r#"
            int:16 tab[4] = {5, 10, 15, 20};
            int:16 f(int:8 i, int:16 v) { tab[i] = v; return tab[0] + tab[i]; }
        "#;
        differential(src, "f", &[vec![1, 100], vec![3, -7], vec![0, 42]]);
    }

    #[test]
    fn cycle_limit_enforced() {
        let src = "void f() { while (1) { } }";
        let ir = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();
        let p = compile_program(&ir, &TepArch::md16_optimized(), &CodegenOptions::default());
        let mut m = TepMachine::new(&p).with_cycle_limit(10_000);
        let mut h = RecordingHost::new();
        assert!(matches!(m.call("f", &[], &mut h), Err(TepError::CycleLimit { .. })));
    }
}
