//! Reference interpreter for the IR.
//!
//! The interpreter defines the functional semantics the TEP code
//! generator must reproduce; differential tests execute the same routine
//! on both and compare results, globals, port traffic and chart effects.

use crate::ir::{BinOp, Function, Inst, Program, UnOp, VReg};
use std::fmt;

/// Host environment supplying port/condition/event behaviour.
pub trait Host {
    /// Reads a data port.
    fn port_read(&mut self, port: u32) -> i64;
    /// Writes a data port.
    fn port_write(&mut self, port: u32, value: i64);
    /// Raises a chart event.
    fn raise_event(&mut self, event: u32);
    /// Writes a chart condition.
    fn set_condition(&mut self, cond: u32, value: bool);
    /// Reads a chart condition.
    fn read_condition(&mut self, cond: u32) -> bool;
}

/// A host that records all interactions (default for tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingHost {
    /// Values returned by `port_read`, per port (cycled; 0 when empty).
    pub port_inputs: Vec<Vec<i64>>,
    /// Observed port writes `(port, value)`.
    pub writes: Vec<(u32, i64)>,
    /// Raised events.
    pub raised: Vec<u32>,
    /// Condition writes `(cond, value)`.
    pub cond_writes: Vec<(u32, bool)>,
    /// Current condition values (grown on demand).
    pub conditions: Vec<bool>,
    read_cursors: Vec<usize>,
}

impl RecordingHost {
    /// Creates an empty recording host.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues input values for a port.
    pub fn queue_input(&mut self, port: u32, values: impl IntoIterator<Item = i64>) {
        let p = port as usize;
        if self.port_inputs.len() <= p {
            self.port_inputs.resize(p + 1, Vec::new());
            self.read_cursors.resize(p + 1, 0);
        }
        self.port_inputs[p].extend(values);
    }
}

impl Host for RecordingHost {
    fn port_read(&mut self, port: u32) -> i64 {
        let p = port as usize;
        if p < self.port_inputs.len() {
            let c = self.read_cursors[p];
            if c < self.port_inputs[p].len() {
                self.read_cursors[p] += 1;
                return self.port_inputs[p][c];
            }
        }
        0
    }

    fn port_write(&mut self, port: u32, value: i64) {
        self.writes.push((port, value));
    }

    fn raise_event(&mut self, event: u32) {
        self.raised.push(event);
    }

    fn set_condition(&mut self, cond: u32, value: bool) {
        if self.conditions.len() <= cond as usize {
            self.conditions.resize(cond as usize + 1, false);
        }
        self.conditions[cond as usize] = value;
        self.cond_writes.push((cond, value));
    }

    fn read_condition(&mut self, cond: u32) -> bool {
        self.conditions.get(cond as usize).copied().unwrap_or(false)
    }
}

/// Runtime errors of the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Division or remainder by zero.
    DivideByZero {
        /// Function where it happened.
        function: String,
        /// Instruction index.
        pc: usize,
    },
    /// Array index outside the global area.
    OutOfBounds {
        /// Function where it happened.
        function: String,
        /// Offending slot.
        slot: i64,
    },
    /// The step budget was exhausted (runaway loop).
    StepLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// Unknown function name.
    NoSuchFunction(String),
    /// Wrong number of arguments.
    ArityMismatch {
        /// Function name.
        function: String,
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::DivideByZero { function, pc } => {
                write!(f, "divide by zero in `{function}` at {pc}")
            }
            InterpError::OutOfBounds { function, slot } => {
                write!(f, "global slot {slot} out of bounds in `{function}`")
            }
            InterpError::StepLimit { limit } => write!(f, "step limit {limit} exhausted"),
            InterpError::NoSuchFunction(n) => write!(f, "no such function `{n}`"),
            InterpError::ArityMismatch { function, expected, got } => {
                write!(f, "`{function}` expects {expected} arguments, got {got}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// The interpreter: program plus mutable global memory.
#[derive(Debug, Clone)]
pub struct Interp<'p> {
    program: &'p Program,
    globals: Vec<i64>,
    steps: u64,
    step_limit: u64,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter with globals at their reset values.
    pub fn new(program: &'p Program) -> Self {
        Interp {
            program,
            globals: program.globals.iter().map(|g| g.init).collect(),
            steps: 0,
            step_limit: 10_000_000,
        }
    }

    /// Overrides the runaway-loop step budget.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Current global memory.
    pub fn globals(&self) -> &[i64] {
        &self.globals
    }

    /// Reads one global slot by diagnostic name.
    pub fn global(&self, name: &str) -> Option<i64> {
        self.program
            .globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| self.globals[i])
    }

    /// Instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Calls a function by name.
    ///
    /// # Errors
    ///
    /// Returns the runtime errors documented on [`InterpError`].
    pub fn call<H: Host>(
        &mut self,
        name: &str,
        args: &[i64],
        host: &mut H,
    ) -> Result<Option<i64>, InterpError> {
        let fi = self
            .program
            .function_index(name)
            .ok_or_else(|| InterpError::NoSuchFunction(name.to_string()))?;
        self.call_indexed(fi, args, host)
    }

    /// Calls a function by index.
    ///
    /// # Errors
    ///
    /// Same as [`Interp::call`].
    pub fn call_indexed<H: Host>(
        &mut self,
        fi: u32,
        args: &[i64],
        host: &mut H,
    ) -> Result<Option<i64>, InterpError> {
        let f = &self.program.functions[fi as usize];
        if args.len() != f.params.len() {
            return Err(InterpError::ArityMismatch {
                function: f.name.clone(),
                expected: f.params.len(),
                got: args.len(),
            });
        }
        let mut regs = vec![0i64; f.vreg_count()];
        for (i, (&a, &t)) in args.iter().zip(&f.params).enumerate() {
            regs[i] = t.wrap(a);
        }
        self.run(f, &mut regs, host)
    }

    fn run<H: Host>(
        &mut self,
        f: &Function,
        regs: &mut [i64],
        host: &mut H,
    ) -> Result<Option<i64>, InterpError> {
        let mut pc = 0usize;
        loop {
            if pc >= f.insts.len() {
                return Ok(None);
            }
            self.steps += 1;
            if self.steps > self.step_limit {
                return Err(InterpError::StepLimit { limit: self.step_limit });
            }
            let wrap = |v: VReg, x: i64| f.vreg_type(v).wrap(x);
            match &f.insts[pc] {
                Inst::Const { dst, value } => regs[dst.0 as usize] = wrap(*dst, *value),
                Inst::Copy { dst, src } => regs[dst.0 as usize] = wrap(*dst, regs[src.0 as usize]),
                Inst::Bin { op, dst, lhs, rhs } => {
                    let a = regs[lhs.0 as usize];
                    let b = regs[rhs.0 as usize];
                    let r = match op {
                        BinOp::Add => a.wrapping_add(b),
                        BinOp::Sub => a.wrapping_sub(b),
                        BinOp::Mul => a.wrapping_mul(b),
                        BinOp::Div => {
                            if b == 0 {
                                return Err(InterpError::DivideByZero {
                                    function: f.name.clone(),
                                    pc,
                                });
                            }
                            a.wrapping_div(b)
                        }
                        BinOp::Rem => {
                            if b == 0 {
                                return Err(InterpError::DivideByZero {
                                    function: f.name.clone(),
                                    pc,
                                });
                            }
                            a.wrapping_rem(b)
                        }
                        BinOp::And => a & b,
                        BinOp::Or => a | b,
                        BinOp::Xor => a ^ b,
                        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
                        BinOp::Shr => {
                            if f.vreg_type(*lhs).signed {
                                a.wrapping_shr((b & 63) as u32)
                            } else {
                                let m = f.vreg_type(*lhs).mask();
                                (((a as u64) & m) >> ((b & 63) as u64)) as i64
                            }
                        }
                        BinOp::CmpEq => (a == b) as i64,
                        BinOp::CmpNe => (a != b) as i64,
                        BinOp::CmpLt => (a < b) as i64,
                        BinOp::CmpLe => (a <= b) as i64,
                    };
                    regs[dst.0 as usize] = wrap(*dst, r);
                }
                Inst::Un { op, dst, src } => {
                    let a = regs[src.0 as usize];
                    let r = match op {
                        UnOp::Neg => a.wrapping_neg(),
                        UnOp::Not => !a,
                    };
                    regs[dst.0 as usize] = wrap(*dst, r);
                }
                Inst::LoadGlobal { dst, slot } => {
                    regs[dst.0 as usize] = wrap(*dst, self.globals[*slot as usize]);
                }
                Inst::StoreGlobal { slot, src } => {
                    let ty = self.program.globals[*slot as usize].ty;
                    self.globals[*slot as usize] = ty.wrap(regs[src.0 as usize]);
                }
                Inst::LoadIndexed { dst, base, index } => {
                    let slot = *base as i64 + regs[index.0 as usize];
                    if slot < 0 || slot as usize >= self.globals.len() {
                        return Err(InterpError::OutOfBounds {
                            function: f.name.clone(),
                            slot,
                        });
                    }
                    regs[dst.0 as usize] = wrap(*dst, self.globals[slot as usize]);
                }
                Inst::StoreIndexed { base, index, src } => {
                    let slot = *base as i64 + regs[index.0 as usize];
                    if slot < 0 || slot as usize >= self.globals.len() {
                        return Err(InterpError::OutOfBounds {
                            function: f.name.clone(),
                            slot,
                        });
                    }
                    let ty = self.program.globals[slot as usize].ty;
                    self.globals[slot as usize] = ty.wrap(regs[src.0 as usize]);
                }
                Inst::PortRead { dst, port } => {
                    regs[dst.0 as usize] = wrap(*dst, host.port_read(*port));
                }
                Inst::PortWrite { port, src } => host.port_write(*port, regs[src.0 as usize]),
                Inst::ReadCondition { dst, cond } => {
                    regs[dst.0 as usize] = host.read_condition(*cond) as i64;
                }
                Inst::SetCondition { cond, src } => {
                    host.set_condition(*cond, regs[src.0 as usize] != 0);
                }
                Inst::RaiseEvent { event } => host.raise_event(*event),
                Inst::Call { func, args, dst } => {
                    let vals: Vec<i64> = args.iter().map(|a| regs[a.0 as usize]).collect();
                    let r = self.call_indexed(*func, &vals, host)?;
                    if let Some(d) = dst {
                        regs[d.0 as usize] = wrap(*d, r.unwrap_or(0));
                    }
                }
                Inst::Ret { value } => {
                    return Ok(value.map(|v| regs[v.0 as usize]));
                }
                Inst::Jump { target } => {
                    pc = f.label_pos(*target);
                    continue;
                }
                Inst::Branch { cond, if_true, if_false } => {
                    pc = if regs[cond.0 as usize] != 0 {
                        f.label_pos(*if_true)
                    } else {
                        f.label_pos(*if_false)
                    };
                    continue;
                }
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_with_env, ProgramEnv};

    fn run(src: &str, func: &str, args: &[i64]) -> Option<i64> {
        let p = compile_with_env(src, &ProgramEnv::default()).unwrap();
        let mut i = Interp::new(&p);
        let mut h = RecordingHost::new();
        i.call(func, args, &mut h).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("int:16 f(int:16 a, int:16 b) { return a * b - 3; }", "f", &[6, 7]), Some(39));
    }

    #[test]
    fn width_wrapping() {
        assert_eq!(run("int:8 f(int:8 a) { return a + 1; }", "f", &[127]), Some(-128));
        assert_eq!(run("uint:8 f(uint:8 a) { return a + 1; }", "f", &[255]), Some(0));
    }

    #[test]
    fn loops_and_branches() {
        let src = r#"
            int:16 sum(int:16 n) {
                int:16 s = 0;
                int:16 i = 1;
                while (i <= n) { s += i; i += 1; }
                return s;
            }
        "#;
        assert_eq!(run(src, "sum", &[10]), Some(55));
        assert_eq!(run(src, "sum", &[0]), Some(0));
    }

    #[test]
    fn short_circuit_does_not_evaluate_rhs() {
        // If && evaluated its rhs, the division by zero would trip.
        let src = r#"
            int:16 f(int:16 a) {
                if (a != 0 && 10 / a > 1) { return 1; }
                return 0;
            }
        "#;
        assert_eq!(run(src, "f", &[0]), Some(0));
        assert_eq!(run(src, "f", &[4]), Some(1));
        assert_eq!(run(src, "f", &[20]), Some(0));
    }

    #[test]
    fn nested_calls() {
        let src = r#"
            int:16 sq(int:16 x) { return x * x; }
            int:16 f(int:16 a) { return sq(a) + sq(a + 1); }
        "#;
        assert_eq!(run(src, "f", &[3]), Some(25));
    }

    #[test]
    fn globals_persist_between_calls() {
        let src = "int:16 total = 5;\nvoid bump(int:16 n) { total += n; }";
        let p = compile_with_env(src, &ProgramEnv::default()).unwrap();
        let mut i = Interp::new(&p);
        let mut h = RecordingHost::new();
        i.call("bump", &[3], &mut h).unwrap();
        i.call("bump", &[4], &mut h).unwrap();
        assert_eq!(i.global("total"), Some(12));
    }

    #[test]
    fn struct_and_array_access() {
        let src = r#"
            typedef struct pt { int:16 x; int:16 y; } Pt;
            Pt p = {3, 4};
            int:16 tab[3] = {10, 20, 30};
            int:16 f(int:8 i) { return p.x + p.y + tab[i]; }
            void set(int:8 i, int:16 v) { tab[i] = v; p.y = 9; }
        "#;
        let p = compile_with_env(src, &ProgramEnv::default()).unwrap();
        let mut i = Interp::new(&p);
        let mut h = RecordingHost::new();
        assert_eq!(i.call("f", &[1], &mut h).unwrap(), Some(27));
        i.call("set", &[2, 99], &mut h).unwrap();
        assert_eq!(i.call("f", &[2], &mut h).unwrap(), Some(3 + 9 + 99));
    }

    #[test]
    fn ports_conditions_events() {
        let src = r#"
            port In : 8 @ 1 in;
            port Out : 8 @ 2 out;
            condition DONE;
            event FIN;
            void f() {
                int:8 v = In;
                Out = v * 2;
                DONE = v > 10;
                raise FIN;
            }
        "#;
        let p = compile_with_env(src, &ProgramEnv::default()).unwrap();
        let mut i = Interp::new(&p);
        let mut h = RecordingHost::new();
        h.queue_input(0, [21]);
        i.call("f", &[], &mut h).unwrap();
        assert_eq!(h.writes, vec![(1, 42)]);
        assert_eq!(h.cond_writes, vec![(0, true)]);
        assert_eq!(h.raised, vec![0]);
    }

    #[test]
    fn divide_by_zero_detected() {
        let p = compile_with_env(
            "int:16 f(int:16 a) { return 10 / a; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let mut i = Interp::new(&p);
        let mut h = RecordingHost::new();
        assert!(matches!(
            i.call("f", &[0], &mut h),
            Err(InterpError::DivideByZero { .. })
        ));
    }

    #[test]
    fn step_limit_stops_runaway() {
        let p = compile_with_env("void f() { while (1) { } }", &ProgramEnv::default()).unwrap();
        let mut i = Interp::new(&p).with_step_limit(1000);
        let mut h = RecordingHost::new();
        assert!(matches!(i.call("f", &[], &mut h), Err(InterpError::StepLimit { .. })));
    }

    #[test]
    fn out_of_bounds_detected() {
        let p = compile_with_env(
            "int:8 t[2];\nint:8 f(int:8 i) { return t[i]; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let mut i = Interp::new(&p);
        let mut h = RecordingHost::new();
        assert!(matches!(
            i.call("f", &[100], &mut h),
            Err(InterpError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn unsigned_shift_right_is_logical() {
        assert_eq!(run("uint:8 f(uint:8 a) { return a >> 1; }", "f", &[0x80]), Some(0x40));
        assert_eq!(run("int:8 f(int:8 a) { return a >> 1; }", "f", &[-2]), Some(-1));
    }
}
