//! AST → IR lowering.
//!
//! Straightforward syntax-directed translation. Logical `&&`/`||` are
//! lowered with short-circuit control flow; `for` was already desugared
//! by the parser. Conditions read as `uint:1` values; writing a
//! condition emits [`Inst::SetCondition`], which the TEP code generator
//! turns into condition-cache port operations.

use crate::ast::{self, Expr, FunctionDecl, LValue, Stmt};
use crate::ir::{BinOp, Function, GlobalInit, Inst, Label, PortInfo, Program, UnOp, VReg};
use crate::sema::{CheckedProgram, GlobalBinding};
use crate::types::Scalar;
use std::collections::BTreeMap;

/// Lowers a checked program to IR.
pub fn lower(checked: &CheckedProgram) -> Program {
    let functions = checked
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| FnLowerer::new(checked, i).lower(f))
        .collect();
    Program {
        functions,
        globals: checked
            .global_slots
            .iter()
            .map(|g| GlobalInit { name: g.name.clone(), ty: g.ty, init: g.init })
            .collect(),
        ports: checked
            .ports
            .iter()
            .map(|p| PortInfo {
                name: p.name.clone(),
                width: p.width,
                address: p.address,
                readable: p.readable,
                writable: p.writable,
            })
            .collect(),
        events: checked.events.clone(),
        conditions: checked.conditions.clone(),
        consts: checked.enum_values.clone(),
        topo_order: checked.topo_order.clone(),
    }
}

struct FnLowerer<'c> {
    checked: &'c CheckedProgram,
    fn_index: usize,
    insts: Vec<Inst>,
    labels: Vec<usize>,
    vreg_types: Vec<Scalar>,
    scopes: Vec<BTreeMap<String, VReg>>,
}

impl<'c> FnLowerer<'c> {
    fn new(checked: &'c CheckedProgram, fn_index: usize) -> Self {
        FnLowerer {
            checked,
            fn_index,
            insts: Vec::new(),
            labels: Vec::new(),
            vreg_types: Vec::new(),
            scopes: vec![BTreeMap::new()],
        }
    }

    fn fresh(&mut self, ty: Scalar) -> VReg {
        let v = VReg(self.vreg_types.len() as u32);
        self.vreg_types.push(ty);
        v
    }

    fn new_label(&mut self) -> Label {
        let l = Label(self.labels.len() as u32);
        self.labels.push(usize::MAX);
        l
    }

    fn place(&mut self, l: Label) {
        self.labels[l.0 as usize] = self.insts.len();
    }

    fn emit(&mut self, i: Inst) {
        self.insts.push(i);
    }

    fn lower(mut self, f: &FunctionDecl) -> Function {
        let sig = &self.checked.signatures[self.fn_index];
        // Arguments arrive in v0..vN.
        for ((name, _), &ty) in f.params.iter().zip(&sig.params) {
            let v = self.fresh(ty);
            self.scopes.last_mut().unwrap().insert(name.clone(), v);
        }
        self.stmts(&f.body);
        // Implicit return for void functions falling off the end.
        if !matches!(self.insts.last(), Some(Inst::Ret { .. })) {
            let value = sig.ret.map(|t| {
                // Non-void function falling off the end returns 0.
                let v = self.fresh(t);
                self.insts.push(Inst::Const { dst: v, value: 0 });
                v
            });
            self.emit(Inst::Ret { value });
        }
        Function {
            name: f.name.clone(),
            params: sig.params.clone(),
            ret: sig.ret,
            insts: self.insts,
            labels: self.labels,
            vreg_types: self.vreg_types,
        }
    }

    fn lookup_local(&self, name: &str) -> Option<VReg> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn stmts(&mut self, body: &[Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Local { name, ty, init, .. } => {
                let scalar = self
                    .checked_scalar(ty)
                    .expect("sema guarantees scalar locals");
                let v = self.fresh(scalar);
                match init {
                    Some(e) => {
                        let src = self.expr(e);
                        self.emit(Inst::Copy { dst: v, src });
                    }
                    None => self.emit(Inst::Const { dst: v, value: 0 }),
                }
                self.scopes.last_mut().unwrap().insert(name.clone(), v);
            }
            Stmt::Assign { lvalue, op, value, .. } => {
                let rhs = self.expr(value);
                let rhs = match op {
                    Some(binop) => {
                        let cur = self.read_lvalue(lvalue);
                        let ty = self.vreg_types[cur.0 as usize]
                            .join(self.vreg_types[rhs.0 as usize]);
                        let dst = self.fresh(ty);
                        self.emit(Inst::Bin {
                            op: ast_binop(*binop),
                            dst,
                            lhs: cur,
                            rhs,
                        });
                        dst
                    }
                    None => rhs,
                };
                self.write_lvalue(lvalue, rhs);
            }
            Stmt::Expr(e) => {
                if let Expr::Call { func, args, .. } = e {
                    let fi = self.checked.func_map[func];
                    let args: Vec<VReg> = args.iter().map(|a| self.expr(a)).collect();
                    let dst =
                        self.checked.signatures[fi as usize].ret.map(|t| self.fresh(t));
                    self.emit(Inst::Call { func: fi, args, dst });
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                let c = self.expr(cond);
                let lt = self.new_label();
                let lf = self.new_label();
                let lend = self.new_label();
                self.emit(Inst::Branch { cond: c, if_true: lt, if_false: lf });
                self.place(lt);
                self.scopes.push(BTreeMap::new());
                self.stmts(then_body);
                self.scopes.pop();
                self.emit(Inst::Jump { target: lend });
                self.place(lf);
                self.scopes.push(BTreeMap::new());
                self.stmts(else_body);
                self.scopes.pop();
                self.place(lend);
            }
            Stmt::While { cond, body } => {
                let lhead = self.new_label();
                let lbody = self.new_label();
                let lend = self.new_label();
                self.place(lhead);
                let c = self.expr(cond);
                self.emit(Inst::Branch { cond: c, if_true: lbody, if_false: lend });
                self.place(lbody);
                self.scopes.push(BTreeMap::new());
                self.stmts(body);
                self.scopes.pop();
                self.emit(Inst::Jump { target: lhead });
                self.place(lend);
            }
            Stmt::For => {}
            Stmt::Return(value, _) => {
                let value = value.as_ref().map(|e| self.expr(e));
                self.emit(Inst::Ret { value });
            }
            Stmt::Raise(name, _) => {
                let event = self.checked.event_map[name];
                self.emit(Inst::RaiseEvent { event });
            }
        }
    }

    fn checked_scalar(&self, ty: &crate::types::Type) -> Option<Scalar> {
        match ty {
            crate::types::Type::Scalar(s) => Some(*s),
            crate::types::Type::Struct(n) if self.checked.enums.contains_key(n) => {
                Some(Scalar::uint(8))
            }
            other => other.as_scalar(),
        }
    }

    fn read_lvalue(&mut self, lv: &LValue) -> VReg {
        match lv {
            LValue::Name(n, s) => self.expr(&Expr::Name(n.clone(), *s)),
            LValue::Index(n, i, s) => self.expr(&Expr::Index(n.clone(), Box::new(i.clone()), *s)),
            LValue::Member(n, f, s) => self.expr(&Expr::Member(n.clone(), f.clone(), *s)),
        }
    }

    fn write_lvalue(&mut self, lv: &LValue, src: VReg) {
        match lv {
            LValue::Name(name, _) => {
                if let Some(v) = self.lookup_local(name) {
                    self.emit(Inst::Copy { dst: v, src });
                    return;
                }
                if let Some(GlobalBinding::Scalar { slot, .. }) = self.checked.globals.get(name)
                {
                    self.emit(Inst::StoreGlobal { slot: *slot, src });
                    return;
                }
                if let Some(&cond) = self.checked.condition_map.get(name) {
                    self.emit(Inst::SetCondition { cond, src });
                    return;
                }
                if let Some(&port) = self.checked.port_map.get(name) {
                    self.emit(Inst::PortWrite { port, src });
                    return;
                }
                unreachable!("sema resolved all lvalues");
            }
            LValue::Index(name, idx, _) => {
                let Some(GlobalBinding::Array { base, .. }) = self.checked.globals.get(name)
                else {
                    unreachable!("sema checked array lvalue")
                };
                let base = *base;
                let index = self.expr(idx);
                self.emit(Inst::StoreIndexed { base, index, src });
            }
            LValue::Member(name, field, _) => {
                let Some(GlobalBinding::Struct { base, layout }) =
                    self.checked.globals.get(name)
                else {
                    unreachable!("sema checked struct lvalue")
                };
                let (off, _) = self.checked.structs[layout].field(field).unwrap();
                let slot = *base + off;
                self.emit(Inst::StoreGlobal { slot, src });
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> VReg {
        match e {
            Expr::Int { value, width, .. } => {
                let ty = match width {
                    Some(w) => Scalar::uint(*w),
                    None => Scalar::fitting(*value),
                };
                let dst = self.fresh(ty);
                self.emit(Inst::Const { dst, value: *value });
                dst
            }
            Expr::Name(name, _) => {
                if let Some(v) = self.lookup_local(name) {
                    return v;
                }
                if let Some(GlobalBinding::Scalar { slot, ty }) = self.checked.globals.get(name)
                {
                    let dst = self.fresh(*ty);
                    self.emit(Inst::LoadGlobal { dst, slot: *slot });
                    return dst;
                }
                if let Some(&val) = self.checked.enum_values.get(name) {
                    let dst = self.fresh(Scalar::uint(8));
                    self.emit(Inst::Const { dst, value: val });
                    return dst;
                }
                if let Some(&cond) = self.checked.condition_map.get(name) {
                    let dst = self.fresh(Scalar::bool());
                    self.emit(Inst::ReadCondition { dst, cond });
                    return dst;
                }
                if let Some(&port) = self.checked.port_map.get(name) {
                    let ty = Scalar::uint(self.checked.ports[port as usize].width);
                    let dst = self.fresh(ty);
                    self.emit(Inst::PortRead { dst, port });
                    return dst;
                }
                unreachable!("sema resolved all names")
            }
            Expr::Index(name, idx, _) => {
                let Some(GlobalBinding::Array { base, ty, .. }) =
                    self.checked.globals.get(name)
                else {
                    unreachable!("sema checked array read")
                };
                let (base, ty) = (*base, *ty);
                let index = self.expr(idx);
                let dst = self.fresh(ty);
                self.emit(Inst::LoadIndexed { dst, base, index });
                dst
            }
            Expr::Member(name, field, _) => {
                let Some(GlobalBinding::Struct { base, layout }) =
                    self.checked.globals.get(name)
                else {
                    unreachable!("sema checked struct read")
                };
                let (off, ty) = self.checked.structs[layout].field(field).unwrap();
                let slot = *base + off;
                let dst = self.fresh(ty);
                self.emit(Inst::LoadGlobal { dst, slot });
                dst
            }
            Expr::Bin { op: ast::BinOp::LogicAnd, lhs, rhs, .. } => {
                self.short_circuit(lhs, rhs, true)
            }
            Expr::Bin { op: ast::BinOp::LogicOr, lhs, rhs, .. } => {
                self.short_circuit(lhs, rhs, false)
            }
            Expr::Bin { op, lhs, rhs, .. } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                let ta = self.vreg_types[a.0 as usize];
                let tb = self.vreg_types[b.0 as usize];
                let ty = if op.is_boolean() { Scalar::bool() } else { ta.join(tb) };
                // Gt/Ge lower to swapped Lt/Le.
                let (irop, a, b) = match op {
                    ast::BinOp::Gt => (BinOp::CmpLt, b, a),
                    ast::BinOp::Ge => (BinOp::CmpLe, b, a),
                    other => (ast_binop(*other), a, b),
                };
                let dst = self.fresh(ty);
                self.emit(Inst::Bin { op: irop, dst, lhs: a, rhs: b });
                dst
            }
            Expr::Un { op, expr, .. } => {
                let src = self.expr(expr);
                let t = self.vreg_types[src.0 as usize];
                match op {
                    ast::UnOp::Neg => {
                        let dst = self.fresh(Scalar::int(t.width.saturating_add(1).min(32)));
                        self.emit(Inst::Un { op: UnOp::Neg, dst, src });
                        dst
                    }
                    ast::UnOp::BitNot => {
                        let dst = self.fresh(t);
                        self.emit(Inst::Un { op: UnOp::Not, dst, src });
                        dst
                    }
                    ast::UnOp::Not => {
                        let zero = self.fresh(t);
                        self.emit(Inst::Const { dst: zero, value: 0 });
                        let dst = self.fresh(Scalar::bool());
                        self.emit(Inst::Bin { op: BinOp::CmpEq, dst, lhs: src, rhs: zero });
                        dst
                    }
                }
            }
            Expr::Call { func, args, .. } => {
                let fi = self.checked.func_map[func];
                let args: Vec<VReg> = args.iter().map(|a| self.expr(a)).collect();
                let ret = self.checked.signatures[fi as usize]
                    .ret
                    .expect("sema rejects void call as value");
                let dst = self.fresh(ret);
                self.emit(Inst::Call { func: fi, args, dst: Some(dst) });
                dst
            }
        }
    }

    /// `a && b` / `a || b` with short-circuit evaluation.
    fn short_circuit(&mut self, lhs: &Expr, rhs: &Expr, is_and: bool) -> VReg {
        let dst = self.fresh(Scalar::bool());
        let a = self.expr(lhs);
        let l_rhs = self.new_label();
        let l_short = self.new_label();
        let l_end = self.new_label();
        if is_and {
            self.emit(Inst::Branch { cond: a, if_true: l_rhs, if_false: l_short });
        } else {
            self.emit(Inst::Branch { cond: a, if_true: l_short, if_false: l_rhs });
        }
        self.place(l_rhs);
        let b = self.expr(rhs);
        // Normalise to 0/1.
        let zero = self.fresh(self.vreg_types[b.0 as usize]);
        self.emit(Inst::Const { dst: zero, value: 0 });
        self.emit(Inst::Bin { op: BinOp::CmpNe, dst, lhs: b, rhs: zero });
        self.emit(Inst::Jump { target: l_end });
        self.place(l_short);
        self.emit(Inst::Const { dst, value: if is_and { 0 } else { 1 } });
        self.place(l_end);
        dst
    }
}

fn ast_binop(op: ast::BinOp) -> BinOp {
    match op {
        ast::BinOp::Add => BinOp::Add,
        ast::BinOp::Sub => BinOp::Sub,
        ast::BinOp::Mul => BinOp::Mul,
        ast::BinOp::Div => BinOp::Div,
        ast::BinOp::Rem => BinOp::Rem,
        ast::BinOp::And => BinOp::And,
        ast::BinOp::Or => BinOp::Or,
        ast::BinOp::Xor => BinOp::Xor,
        ast::BinOp::Shl => BinOp::Shl,
        ast::BinOp::Shr => BinOp::Shr,
        ast::BinOp::Eq => BinOp::CmpEq,
        ast::BinOp::Ne => BinOp::CmpNe,
        ast::BinOp::Lt => BinOp::CmpLt,
        ast::BinOp::Le => BinOp::CmpLe,
        ast::BinOp::Gt | ast::BinOp::Ge => unreachable!("handled by operand swap"),
        ast::BinOp::LogicAnd | ast::BinOp::LogicOr => {
            unreachable!("handled by short_circuit")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_with_env, ProgramEnv};
    use crate::ir::Inst;

    #[test]
    fn lowers_simple_function() {
        let p = compile_with_env(
            "int:16 add(int:16 a, int:16 b) { return a + b; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let f = p.function("add").unwrap();
        assert!(matches!(f.insts[0], Inst::Bin { op: BinOp::Add, .. }));
        assert!(matches!(f.insts[1], Inst::Ret { value: Some(_) }));
    }

    #[test]
    fn while_loop_has_back_edge() {
        let p = compile_with_env(
            "void f() { int:8 i = 0; while (i < 4) { i += 1; } }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let f = p.function("f").unwrap();
        let jumps: Vec<_> = f
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Jump { target } => Some(f.label_pos(*target)),
                _ => None,
            })
            .collect();
        let pos_of_jump = f
            .insts
            .iter()
            .position(|i| matches!(i, Inst::Jump { .. }))
            .unwrap();
        assert!(jumps.iter().any(|&t| t < pos_of_jump), "back edge expected");
    }

    #[test]
    fn condition_write_and_event_raise() {
        let p = compile_with_env(
            "condition C;\nevent E;\nvoid f() { C = 1; raise E; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let f = p.function("f").unwrap();
        assert!(f.insts.iter().any(|i| matches!(i, Inst::SetCondition { .. })));
        assert!(f.insts.iter().any(|i| matches!(i, Inst::RaiseEvent { .. })));
    }

    #[test]
    fn gt_swaps_to_lt() {
        let p = compile_with_env(
            "uint:1 f(int:8 a, int:8 b) { return a > b; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let f = p.function("f").unwrap();
        assert!(matches!(
            f.insts[0],
            Inst::Bin { op: BinOp::CmpLt, lhs: VReg(1), rhs: VReg(0), .. }
        ));
    }

    #[test]
    fn histogram_counts_operators() {
        let p = compile_with_env(
            "int:16 f(int:16 a) { int:16 x = a * 3; x = x / 2; return x + (a << 1); }",
            &ProgramEnv::default(),
        )
        .unwrap();
        let h = p.function("f").unwrap().op_histogram();
        assert_eq!(h.mul, 1);
        assert_eq!(h.div, 1);
        assert_eq!(h.shift, 1);
        assert!(h.alu >= 1);
    }

    #[test]
    fn max_width_reflects_declarations() {
        let p = compile_with_env(
            "void f() { int:24 x = 0; x = x + 1; }",
            &ProgramEnv::default(),
        )
        .unwrap();
        assert_eq!(p.function("f").unwrap().max_width(), 24);
    }
}
