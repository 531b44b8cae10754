//! Semantic analysis: symbol resolution, bit-width type checking, the
//! recursion ban, and flattening of configuration data.
//!
//! Struct- and enum-typed globals (the Fig. 2b `Port` / `EventCondition`
//! records) are *configuration* data: they are flattened into scalar
//! global slots at compile time, so the executable IR only ever touches
//! scalars — exactly the paper's observation that "these code pieces are
//! not actually executed, but used by the compiler".

use crate::ast::*;
use crate::diag::Emitter;
use crate::error::{CompileError, Span};
use crate::types::{Scalar, Type};
use std::collections::BTreeMap;

/// Placeholder type substituted for declarations whose real type could
/// not be resolved, so later uses type-check instead of cascading.
const RECOVERY_SCALAR: Scalar = Scalar { width: 16, signed: false };

/// Chart-supplied external symbols injected into the program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramEnv {
    /// Events `raise` may target.
    pub events: Vec<String>,
    /// Conditions usable as boolean variables.
    pub conditions: Vec<String>,
    /// External data ports.
    pub ports: Vec<PortSpec>,
}

/// An external data port as seen by the compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSpec {
    /// Port name.
    pub name: String,
    /// Word width in bits.
    pub width: u8,
    /// Port address.
    pub address: u16,
    /// Reads allowed?
    pub readable: bool,
    /// Writes allowed?
    pub writable: bool,
}

/// Field layout of a struct: fields occupy consecutive scalar slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructLayout {
    /// `(name, scalar)` per field, slot offset = position.
    pub fields: Vec<(String, Scalar)>,
}

impl StructLayout {
    /// Offset and type of a field.
    pub fn field(&self, name: &str) -> Option<(u32, Scalar)> {
        self.fields
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| (i as u32, self.fields[i].1))
    }
}

/// How a global variable name maps onto flattened scalar slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalBinding {
    /// A single scalar at `slot`.
    Scalar {
        /// Slot index.
        slot: u32,
        /// Element type.
        ty: Scalar,
    },
    /// An array of `len` scalars starting at `base`.
    Array {
        /// First slot.
        base: u32,
        /// Element count.
        len: u32,
        /// Element type.
        ty: Scalar,
    },
    /// A struct occupying consecutive slots starting at `base`.
    Struct {
        /// First slot.
        base: u32,
        /// Layout name (key into [`CheckedProgram::structs`]).
        layout: String,
    },
}

/// One flattened global scalar slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalSlot {
    /// Diagnostic name (`var`, `var[3]`, `var.field`).
    pub name: String,
    /// Slot type.
    pub ty: Scalar,
    /// Initial value (reset state).
    pub init: i64,
}

/// Function signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Parameter types.
    pub params: Vec<Scalar>,
    /// Return type, `None` for `void`.
    pub ret: Option<Scalar>,
}

/// The fully-checked program handed to the lowering pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedProgram {
    /// Enum declarations.
    pub enums: BTreeMap<String, Vec<String>>,
    /// Enum variant values (global namespace, as in C).
    pub enum_values: BTreeMap<String, i64>,
    /// Struct layouts.
    pub structs: BTreeMap<String, StructLayout>,
    /// Flattened global slots.
    pub global_slots: Vec<GlobalSlot>,
    /// Variable-name → binding.
    pub globals: BTreeMap<String, GlobalBinding>,
    /// External data ports (chart-injected first, then in-source).
    pub ports: Vec<PortSpec>,
    /// Port name → index.
    pub port_map: BTreeMap<String, u32>,
    /// Raisable events.
    pub events: Vec<String>,
    /// Event name → index.
    pub event_map: BTreeMap<String, u32>,
    /// Chart conditions.
    pub conditions: Vec<String>,
    /// Condition name → index.
    pub condition_map: BTreeMap<String, u32>,
    /// Checked function ASTs.
    pub functions: Vec<FunctionDecl>,
    /// Function name → index.
    pub func_map: BTreeMap<String, u32>,
    /// Signatures, parallel to `functions`.
    pub signatures: Vec<Signature>,
    /// Callee-before-caller topological order (recursion-free).
    pub topo_order: Vec<u32>,
}

/// Runs semantic analysis, recovering from errors: every finding is
/// reported through `em` and the passes keep going (unresolvable types
/// degrade to a 16-bit placeholder, failed declarations get stand-in
/// bindings so uses don't cascade). Returns the checked program only
/// when *this* analysis emitted no errors.
pub(crate) fn analyze_into(
    items: &[Item],
    env: &ProgramEnv,
    em: &mut Emitter,
) -> Option<CheckedProgram> {
    let errors_at_entry = em.errors();
    let mut cx = Context::default();

    for e in &env.events {
        cx.add_event(e.clone());
    }
    for c in &env.conditions {
        cx.add_condition(c.clone());
    }
    for p in &env.ports {
        if let Err(e) = cx.add_port(p.clone(), Span::default()) {
            em.emit(e);
        }
    }

    // Pass 1: type declarations and externs.
    for item in items {
        match item {
            Item::Enum(e) => {
                if cx.enums.insert(e.name.clone(), e.variants.clone()).is_some() {
                    em.emit(CompileError::sema(e.span, format!("duplicate enum `{}`", e.name)));
                    continue;
                }
                for (i, v) in e.variants.iter().enumerate() {
                    if cx.enum_values.insert(v.clone(), i as i64).is_some() {
                        em.emit(CompileError::sema(
                            e.span,
                            format!("duplicate enum variant `{v}`"),
                        ));
                    }
                }
            }
            Item::Struct(s) => {
                let mut fields = Vec::new();
                for f in &s.fields {
                    let scalar = match cx.resolve_type(&f.ty, s.span) {
                        Ok(ty) => match ty.as_scalar() {
                            Some(sc) => sc,
                            None => {
                                em.emit(CompileError::sema(
                                    s.span,
                                    format!("struct field `{}` must be scalar or enum", f.name),
                                ));
                                RECOVERY_SCALAR
                            }
                        },
                        Err(e) => {
                            em.emit(e);
                            RECOVERY_SCALAR
                        }
                    };
                    fields.push((f.name.clone(), scalar));
                }
                if cx.structs.insert(s.name.clone(), StructLayout { fields }).is_some() {
                    em.emit(CompileError::sema(
                        s.span,
                        format!("duplicate struct `{}`", s.name),
                    ));
                }
            }
            Item::ExternEvent(name, _) => cx.add_event(name.clone()),
            Item::ExternCondition(name, _) => cx.add_condition(name.clone()),
            Item::ExternPort(p) => {
                let (readable, writable) = match p.direction.as_str() {
                    "in" => (true, false),
                    "out" => (false, true),
                    "bidir" => (true, true),
                    other => {
                        em.emit(CompileError::sema(
                            p.span,
                            format!("invalid port direction `{other}`"),
                        ));
                        (true, true)
                    }
                };
                if let Err(e) = cx.add_port(
                    PortSpec {
                        name: p.name.clone(),
                        width: p.width,
                        address: p.address,
                        readable,
                        writable,
                    },
                    p.span,
                ) {
                    em.emit(e);
                }
            }
            _ => {}
        }
    }

    // Pass 2: globals (flattened) and function signatures.
    for item in items {
        match item {
            Item::Global(g) => {
                if let Err(e) = cx.add_global(g) {
                    em.emit(e);
                    cx.placeholder_global(&g.name);
                }
            }
            Item::Function(f) => {
                let ret = match cx.resolve_type(&f.ret, f.span) {
                    Ok(Type::Void) => None,
                    Ok(t) => match t.as_scalar() {
                        Some(s) => Some(s),
                        None => {
                            em.emit(CompileError::sema(
                                f.span,
                                "function must return void or a scalar",
                            ));
                            None
                        }
                    },
                    Err(e) => {
                        em.emit(e);
                        None
                    }
                };
                let mut params = Vec::new();
                for (pname, pty) in &f.params {
                    let s = match cx.resolve_type(pty, f.span) {
                        Ok(t) => match t.as_scalar() {
                            Some(s) => s,
                            None => {
                                em.emit(CompileError::sema(
                                    f.span,
                                    format!("parameter `{pname}` must be scalar (struct parameters are not supported)"),
                                ));
                                RECOVERY_SCALAR
                            }
                        },
                        Err(e) => {
                            em.emit(e);
                            RECOVERY_SCALAR
                        }
                    };
                    params.push(s);
                }
                if cx.func_map.contains_key(&f.name) {
                    // Keep the first definition; uses still resolve.
                    em.emit(CompileError::sema(
                        f.span,
                        format!("duplicate function `{}`", f.name),
                    ));
                    continue;
                }
                cx.func_map.insert(f.name.clone(), cx.functions.len() as u32);
                cx.signatures.push(Signature { params, ret });
                cx.functions.push(f.clone());
            }
            _ => {}
        }
    }

    // Pass 3: check bodies, statement by statement.
    for fi in 0..cx.functions.len() {
        let f = cx.functions[fi].clone();
        let mut scopes = Scopes::new();
        for ((pname, _), sig_ty) in f.params.iter().zip(&cx.signatures[fi].params) {
            if let Err(e) = scopes.declare(pname.clone(), *sig_ty, f.span) {
                em.emit(e);
            }
        }
        let ret = cx.signatures[fi].ret;
        cx.check_body_into(&f.body, &mut scopes, ret, em);
    }

    // Pass 4: call graph, recursion ban, topological order.
    let topo_order = cx.topo_sort_into(em);

    if em.errors() > errors_at_entry {
        return None;
    }
    Some(CheckedProgram {
        enums: cx.enums,
        enum_values: cx.enum_values,
        structs: cx.structs,
        global_slots: cx.global_slots,
        globals: cx.globals,
        ports: cx.ports,
        port_map: cx.port_map,
        events: cx.events,
        event_map: cx.event_map,
        conditions: cx.conditions,
        condition_map: cx.condition_map,
        functions: cx.functions,
        func_map: cx.func_map,
        signatures: cx.signatures,
        topo_order,
    })
}

#[derive(Default)]
struct Context {
    enums: BTreeMap<String, Vec<String>>,
    enum_values: BTreeMap<String, i64>,
    structs: BTreeMap<String, StructLayout>,
    global_slots: Vec<GlobalSlot>,
    globals: BTreeMap<String, GlobalBinding>,
    ports: Vec<PortSpec>,
    port_map: BTreeMap<String, u32>,
    events: Vec<String>,
    event_map: BTreeMap<String, u32>,
    conditions: Vec<String>,
    condition_map: BTreeMap<String, u32>,
    functions: Vec<FunctionDecl>,
    func_map: BTreeMap<String, u32>,
    signatures: Vec<Signature>,
}

struct Scopes {
    stack: Vec<BTreeMap<String, Scalar>>,
}

impl Scopes {
    fn new() -> Self {
        Scopes { stack: vec![BTreeMap::new()] }
    }

    fn push(&mut self) {
        self.stack.push(BTreeMap::new());
    }

    fn pop(&mut self) {
        self.stack.pop();
    }

    fn declare(&mut self, name: String, ty: Scalar, span: Span) -> Result<(), CompileError> {
        let top = self.stack.last_mut().expect("scope stack");
        if top.insert(name.clone(), ty).is_some() {
            return Err(CompileError::sema(span, format!("duplicate local `{name}`")));
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Scalar> {
        self.stack.iter().rev().find_map(|s| s.get(name)).copied()
    }
}

impl Context {
    // Extern declarations (events/conditions/ports) are idempotent: a
    // chart-injected symbol may be re-declared in source without harm.
    fn add_event(&mut self, name: String) {
        if !self.event_map.contains_key(&name) {
            self.event_map.insert(name.clone(), self.events.len() as u32);
            self.events.push(name);
        }
    }

    fn add_condition(&mut self, name: String) {
        if !self.condition_map.contains_key(&name) {
            self.condition_map.insert(name.clone(), self.conditions.len() as u32);
            self.conditions.push(name);
        }
    }

    /// Binds `name` to a fresh placeholder scalar slot after its real
    /// declaration failed, so later uses resolve instead of cascading
    /// into `unknown variable` noise.
    fn placeholder_global(&mut self, name: &str) {
        if self.globals.contains_key(name) {
            return;
        }
        let slot = self.global_slots.len() as u32;
        self.global_slots.push(GlobalSlot {
            name: name.to_string(),
            ty: RECOVERY_SCALAR,
            init: 0,
        });
        self.globals
            .insert(name.to_string(), GlobalBinding::Scalar { slot, ty: RECOVERY_SCALAR });
    }

    fn add_port(&mut self, spec: PortSpec, span: Span) -> Result<(), CompileError> {
        if let Some(&i) = self.port_map.get(&spec.name) {
            if self.ports[i as usize] != spec {
                return Err(CompileError::sema(
                    span,
                    format!("port `{}` re-declared with a different shape", spec.name),
                ));
            }
            return Ok(());
        }
        self.port_map.insert(spec.name.clone(), self.ports.len() as u32);
        self.ports.push(spec);
        Ok(())
    }

    /// Reclassifies parser `Struct(name)` placeholders into enums where
    /// the name names an enum.
    fn resolve_type(&self, ty: &Type, span: Span) -> Result<Type, CompileError> {
        match ty {
            Type::Struct(n) => {
                if self.enums.contains_key(n) {
                    Ok(Type::Enum(n.clone()))
                } else if self.structs.contains_key(n) {
                    Ok(Type::Struct(n.clone()))
                } else {
                    Err(CompileError::sema(span, format!("unknown type `{n}`")))
                }
            }
            other => Ok(other.clone()),
        }
    }

    fn const_eval(&self, e: &Expr) -> Result<i64, CompileError> {
        match e {
            Expr::Int { value, .. } => Ok(*value),
            Expr::Name(n, span) => self
                .enum_values
                .get(n)
                .copied()
                .ok_or_else(|| CompileError::sema(*span, format!("`{n}` is not a constant"))),
            Expr::Un { op: UnOp::Neg, expr, .. } => Ok(-self.const_eval(expr)?),
            other => Err(CompileError::sema(
                other.span(),
                "initialiser must be a constant expression",
            )),
        }
    }

    fn add_global(&mut self, g: &GlobalDecl) -> Result<(), CompileError> {
        if self.globals.contains_key(&g.name) {
            return Err(CompileError::sema(g.span, format!("duplicate global `{}`", g.name)));
        }
        let ty = self.resolve_type(&g.ty, g.span)?;
        let base = self.global_slots.len() as u32;
        match &ty {
            Type::Scalar(s) => {
                let init = match &g.init {
                    Some(Initializer::Expr(e)) => s.wrap(self.const_eval(e)?),
                    Some(Initializer::List(_)) => {
                        return Err(CompileError::sema(g.span, "scalar cannot take a list initialiser"))
                    }
                    None => 0,
                };
                self.global_slots.push(GlobalSlot { name: g.name.clone(), ty: *s, init });
                self.globals.insert(g.name.clone(), GlobalBinding::Scalar { slot: base, ty: *s });
            }
            Type::Enum(_) => {
                let s = Scalar::uint(8);
                let init = match &g.init {
                    Some(Initializer::Expr(e)) => self.const_eval(e)?,
                    Some(Initializer::List(_)) => {
                        return Err(CompileError::sema(g.span, "enum cannot take a list initialiser"))
                    }
                    None => 0,
                };
                self.global_slots.push(GlobalSlot { name: g.name.clone(), ty: s, init });
                self.globals.insert(g.name.clone(), GlobalBinding::Scalar { slot: base, ty: s });
            }
            Type::Array(elem, len) => {
                let inits: Vec<i64> = match &g.init {
                    Some(Initializer::List(l)) => {
                        if l.len() > *len as usize {
                            return Err(CompileError::sema(
                                g.span,
                                format!("too many initialisers for `{}[{}]`", g.name, len),
                            ));
                        }
                        l.iter().map(|e| self.const_eval(e)).collect::<Result<_, _>>()?
                    }
                    Some(Initializer::Expr(_)) => {
                        return Err(CompileError::sema(g.span, "array needs a list initialiser"))
                    }
                    None => Vec::new(),
                };
                for i in 0..*len {
                    let init = elem.wrap(inits.get(i as usize).copied().unwrap_or(0));
                    self.global_slots.push(GlobalSlot {
                        name: format!("{}[{}]", g.name, i),
                        ty: *elem,
                        init,
                    });
                }
                self.globals.insert(
                    g.name.clone(),
                    GlobalBinding::Array { base, len: *len, ty: *elem },
                );
            }
            Type::Struct(sname) => {
                let layout = self.structs.get(sname).cloned().expect("resolved struct");
                let inits: Vec<i64> = match &g.init {
                    Some(Initializer::List(l)) => {
                        if l.len() > layout.fields.len() {
                            return Err(CompileError::sema(
                                g.span,
                                format!("too many initialisers for struct `{}`", g.name),
                            ));
                        }
                        l.iter().map(|e| self.const_eval(e)).collect::<Result<_, _>>()?
                    }
                    Some(Initializer::Expr(_)) => {
                        return Err(CompileError::sema(g.span, "struct needs a list initialiser"))
                    }
                    None => Vec::new(),
                };
                for (i, (fname, fty)) in layout.fields.iter().enumerate() {
                    let init = fty.wrap(inits.get(i).copied().unwrap_or(0));
                    self.global_slots.push(GlobalSlot {
                        name: format!("{}.{}", g.name, fname),
                        ty: *fty,
                        init,
                    });
                }
                self.globals.insert(
                    g.name.clone(),
                    GlobalBinding::Struct { base, layout: sname.clone() },
                );
            }
            Type::Void => {
                return Err(CompileError::sema(g.span, "global cannot have type void"))
            }
        }
        Ok(())
    }

    // ---- body checking ---------------------------------------------------

    /// Checks a body with statement-level recovery: a bad statement is
    /// reported and the walk continues, declarations that fail still
    /// enter scope with a placeholder type, and nested `if`/`while`
    /// bodies recover statement-by-statement too.
    fn check_body_into(
        &self,
        body: &[Stmt],
        scopes: &mut Scopes,
        ret: Option<Scalar>,
        em: &mut Emitter,
    ) {
        for stmt in body {
            match stmt {
                Stmt::Local { name, ty, init, span } => {
                    let s = match self.resolve_type(ty, *span) {
                        Ok(t) => match t.as_scalar() {
                            Some(s) => s,
                            None => {
                                em.emit(CompileError::sema(
                                    *span,
                                    format!(
                                        "local `{name}` must be scalar (aggregates are globals-only)"
                                    ),
                                ));
                                RECOVERY_SCALAR
                            }
                        },
                        Err(e) => {
                            em.emit(e);
                            RECOVERY_SCALAR
                        }
                    };
                    if let Some(e) = init {
                        if let Err(err) = self.type_of(e, scopes) {
                            em.emit(err);
                        }
                    }
                    if let Err(e) = scopes.declare(name.clone(), s, *span) {
                        em.emit(e);
                    }
                }
                Stmt::If { cond, then_body, else_body } => {
                    if let Err(e) = self.type_of(cond, scopes) {
                        em.emit(e);
                    }
                    scopes.push();
                    self.check_body_into(then_body, scopes, ret, em);
                    scopes.pop();
                    scopes.push();
                    self.check_body_into(else_body, scopes, ret, em);
                    scopes.pop();
                }
                Stmt::While { cond, body } => {
                    if let Err(e) = self.type_of(cond, scopes) {
                        em.emit(e);
                    }
                    scopes.push();
                    self.check_body_into(body, scopes, ret, em);
                    scopes.pop();
                }
                other => {
                    if let Err(e) = self.check_stmt(other, scopes, ret) {
                        em.emit(e);
                    }
                }
            }
        }
    }

    /// Checks one non-compound statement (the compound forms recover in
    /// [`Context::check_body_into`]).
    fn check_stmt(
        &self,
        stmt: &Stmt,
        scopes: &mut Scopes,
        ret: Option<Scalar>,
    ) -> Result<(), CompileError> {
        match stmt {
            Stmt::Assign { lvalue, value, .. } => {
                self.type_of(value, scopes)?;
                self.check_lvalue(lvalue, scopes)
            }
            Stmt::Expr(e) => {
                // Only calls make sense as expression statements.
                match e {
                    Expr::Call { .. } => {
                        self.type_of_call(e, scopes, true)?;
                        Ok(())
                    }
                    other => Err(CompileError::sema(
                        other.span(),
                        "expression statement has no effect (only calls are allowed)",
                    )),
                }
            }
            Stmt::Local { .. } | Stmt::If { .. } | Stmt::While { .. } | Stmt::For => Ok(()),
            Stmt::Return(value, span) => match (value, ret) {
                (Some(e), Some(_)) => {
                    self.type_of(e, scopes)?;
                    Ok(())
                }
                (None, None) => Ok(()),
                (Some(_), None) => {
                    Err(CompileError::sema(*span, "void function returns a value"))
                }
                (None, Some(_)) => {
                    Err(CompileError::sema(*span, "non-void function returns nothing"))
                }
            },
            Stmt::Raise(name, span) => {
                if self.event_map.contains_key(name) {
                    Ok(())
                } else {
                    Err(CompileError::sema(*span, format!("unknown event `{name}`")))
                }
            }
        }
    }

    fn check_lvalue(&self, lv: &LValue, scopes: &Scopes) -> Result<(), CompileError> {
        match lv {
            LValue::Name(name, span) => {
                if scopes.lookup(name).is_some() {
                    return Ok(());
                }
                if let Some(b) = self.globals.get(name) {
                    return match b {
                        GlobalBinding::Scalar { .. } => Ok(()),
                        _ => Err(CompileError::sema(
                            *span,
                            format!("cannot assign aggregate `{name}` as a whole"),
                        )),
                    };
                }
                if self.condition_map.contains_key(name) {
                    return Ok(());
                }
                if let Some(&pi) = self.port_map.get(name) {
                    return if self.ports[pi as usize].writable {
                        Ok(())
                    } else {
                        Err(CompileError::sema(
                            *span,
                            format!("port `{name}` is input-only"),
                        ))
                    };
                }
                Err(CompileError::sema(*span, format!("unknown variable `{name}`")))
            }
            LValue::Index(name, idx, span) => {
                self.type_of(idx, scopes)?;
                match self.globals.get(name) {
                    Some(GlobalBinding::Array { .. }) => Ok(()),
                    Some(_) => {
                        Err(CompileError::sema(*span, format!("`{name}` is not an array")))
                    }
                    None => Err(CompileError::sema(*span, format!("unknown array `{name}`"))),
                }
            }
            LValue::Member(name, field, span) => match self.globals.get(name) {
                Some(GlobalBinding::Struct { layout, .. }) => {
                    let l = &self.structs[layout];
                    if l.field(field).is_some() {
                        Ok(())
                    } else {
                        Err(CompileError::sema(
                            *span,
                            format!("struct `{name}` has no field `{field}`"),
                        ))
                    }
                }
                Some(_) => Err(CompileError::sema(*span, format!("`{name}` is not a struct"))),
                None => Err(CompileError::sema(*span, format!("unknown struct `{name}`"))),
            },
        }
    }

    /// Type of an expression. Public to the lowering pass via
    /// [`CheckedProgram::expr_type`].
    fn type_of(&self, e: &Expr, scopes: &Scopes) -> Result<Scalar, CompileError> {
        match e {
            Expr::Int { value, width, .. } => Ok(match width {
                Some(w) => Scalar::uint(*w),
                None => Scalar::fitting(*value),
            }),
            Expr::Name(name, span) => {
                if let Some(t) = scopes.lookup(name) {
                    return Ok(t);
                }
                if let Some(GlobalBinding::Scalar { ty, .. }) = self.globals.get(name) {
                    return Ok(*ty);
                }
                if self.globals.contains_key(name) {
                    return Err(CompileError::sema(
                        *span,
                        format!("aggregate `{name}` cannot be used as a value"),
                    ));
                }
                if self.enum_values.contains_key(name) {
                    return Ok(Scalar::uint(8));
                }
                if self.condition_map.contains_key(name) {
                    return Ok(Scalar::bool());
                }
                if let Some(&pi) = self.port_map.get(name) {
                    let p = &self.ports[pi as usize];
                    return if p.readable {
                        Ok(Scalar::uint(p.width))
                    } else {
                        Err(CompileError::sema(*span, format!("port `{name}` is output-only")))
                    };
                }
                Err(CompileError::sema(*span, format!("unknown name `{name}`")))
            }
            Expr::Index(name, idx, span) => {
                self.type_of(idx, scopes)?;
                match self.globals.get(name) {
                    Some(GlobalBinding::Array { ty, .. }) => Ok(*ty),
                    _ => Err(CompileError::sema(*span, format!("`{name}` is not an array"))),
                }
            }
            Expr::Member(name, field, span) => match self.globals.get(name) {
                Some(GlobalBinding::Struct { layout, .. }) => self.structs[layout]
                    .field(field)
                    .map(|(_, t)| t)
                    .ok_or_else(|| {
                        CompileError::sema(
                            *span,
                            format!("struct `{name}` has no field `{field}`"),
                        )
                    }),
                _ => Err(CompileError::sema(*span, format!("`{name}` is not a struct"))),
            },
            Expr::Bin { op, lhs, rhs, .. } => {
                let a = self.type_of(lhs, scopes)?;
                let b = self.type_of(rhs, scopes)?;
                Ok(if op.is_boolean() { Scalar::bool() } else { a.join(b) })
            }
            Expr::Un { op, expr, .. } => {
                let t = self.type_of(expr, scopes)?;
                Ok(match op {
                    UnOp::Neg => Scalar::int(t.width.saturating_add(1).min(32)),
                    UnOp::BitNot => t,
                    UnOp::Not => Scalar::bool(),
                })
            }
            Expr::Call { .. } => self
                .type_of_call(e, scopes, false)?
                .ok_or_else(|| CompileError::sema(e.span(), "void call used as a value")),
        }
    }

    fn type_of_call(
        &self,
        e: &Expr,
        scopes: &Scopes,
        allow_void: bool,
    ) -> Result<Option<Scalar>, CompileError> {
        let Expr::Call { func, args, span } = e else { unreachable!() };
        let fi = *self
            .func_map
            .get(func)
            .ok_or_else(|| CompileError::sema(*span, format!("unknown function `{func}`")))?;
        let sig = &self.signatures[fi as usize];
        if sig.params.len() != args.len() {
            return Err(CompileError::sema(
                *span,
                format!("`{func}` expects {} arguments, got {}", sig.params.len(), args.len()),
            ));
        }
        for a in args {
            self.type_of(a, scopes)?;
        }
        if sig.ret.is_none() && !allow_void {
            return Ok(None);
        }
        Ok(sig.ret)
    }

    // ---- call graph -------------------------------------------------------

    /// Orders functions callee-first, reporting *every* unknown callee
    /// and cycle instead of stopping at the first. The order is only
    /// meaningful when no errors were emitted (callers discard it
    /// otherwise), so edges to unknown functions are simply dropped and
    /// an aborted cycle visit leaves its path unordered.
    fn topo_sort_into(&self, em: &mut Emitter) -> Vec<u32> {
        let n = self.functions.len();
        let mut callees: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, f) in self.functions.iter().enumerate() {
            let r = collect_calls(&f.body, &mut |name, span| {
                match self.func_map.get(name) {
                    Some(&fi) => {
                        if !callees[i].contains(&fi) {
                            callees[i].push(fi);
                        }
                    }
                    None => em.emit(CompileError::sema(
                        span,
                        format!("unknown function `{name}`"),
                    )),
                }
                Ok(())
            });
            debug_assert!(r.is_ok(), "recovering collect closure never errors");
        }
        // DFS with colour marking; grey->grey edge = recursion.
        let mut colour = vec![0u8; n]; // 0 white, 1 grey, 2 black
        let mut order = Vec::with_capacity(n);
        fn visit(
            v: usize,
            callees: &[Vec<u32>],
            colour: &mut [u8],
            order: &mut Vec<u32>,
            names: &[FunctionDecl],
        ) -> Result<(), CompileError> {
            colour[v] = 1;
            for &c in &callees[v] {
                match colour[c as usize] {
                    0 => visit(c as usize, callees, colour, order, names)?,
                    1 => {
                        return Err(CompileError::sema(
                            names[v].span,
                            format!(
                                "recursion is not permitted: `{}` (directly or indirectly) calls itself",
                                names[c as usize].name
                            ),
                        ))
                    }
                    _ => {}
                }
            }
            colour[v] = 2;
            order.push(v as u32);
            Ok(())
        }
        for v in 0..n {
            if colour[v] == 0 {
                if let Err(e) = visit(v, &callees, &mut colour, &mut order, &self.functions) {
                    em.emit(e);
                }
            }
        }
        order
    }
}

fn collect_calls<F>(body: &[Stmt], f: &mut F) -> Result<(), CompileError>
where
    F: FnMut(&str, Span) -> Result<(), CompileError>,
{
    fn in_expr<F>(e: &Expr, f: &mut F) -> Result<(), CompileError>
    where
        F: FnMut(&str, Span) -> Result<(), CompileError>,
    {
        match e {
            Expr::Call { func, args, span } => {
                f(func, *span)?;
                for a in args {
                    in_expr(a, f)?;
                }
                Ok(())
            }
            Expr::Bin { lhs, rhs, .. } => {
                in_expr(lhs, f)?;
                in_expr(rhs, f)
            }
            Expr::Un { expr, .. } => in_expr(expr, f),
            Expr::Index(_, i, _) => in_expr(i, f),
            _ => Ok(()),
        }
    }
    for s in body {
        match s {
            Stmt::Local { init: Some(e), .. } => in_expr(e, f)?,
            Stmt::Assign { value, lvalue, .. } => {
                in_expr(value, f)?;
                if let LValue::Index(_, i, _) = lvalue {
                    in_expr(i, f)?;
                }
            }
            Stmt::Expr(e) => in_expr(e, f)?,
            Stmt::If { cond, then_body, else_body } => {
                in_expr(cond, f)?;
                collect_calls(then_body, f)?;
                collect_calls(else_body, f)?;
            }
            Stmt::While { cond, body } => {
                in_expr(cond, f)?;
                collect_calls(body, f)?;
            }
            Stmt::Return(Some(e), _) => in_expr(e, f)?,
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_into;
    use pscp_diag::{Diagnostic, DiagnosticSink};

    fn analyze(src: &str, env: &ProgramEnv) -> Result<CheckedProgram, Diagnostic> {
        let mut sink = DiagnosticSink::new();
        let mut em = Emitter::new(&mut sink);
        let items = parse_into(src, &mut em);
        assert!(!em.errored(), "fixture must parse: {src:?}");
        let checked = analyze_into(&items, env, &mut em);
        sink.into_result(checked)
    }

    fn check(src: &str) -> Result<CheckedProgram, Diagnostic> {
        analyze(src, &ProgramEnv::default())
    }

    /// The message of the semantic error `src` fails with.
    fn sema_err(src: &str) -> String {
        let err = check(src).unwrap_err();
        assert_eq!(err.code, "AL301", "{err}");
        err.message
    }

    #[test]
    fn flattens_struct_globals() {
        let src = r#"
            enum ECD {Event, Condition, Data};
            typedef struct port { ECD Type; int:8 Width; int:8 Address; } Port;
            Port PE0 = {Event, 1, 0700};
        "#;
        let p = check(src).unwrap();
        assert_eq!(p.global_slots.len(), 3);
        assert_eq!(p.global_slots[0].name, "PE0.Type");
        assert_eq!(p.global_slots[0].init, 0); // Event = 0
        assert_eq!(p.global_slots[2].init, Scalar::int(8).wrap(0o700));
    }

    #[test]
    fn array_globals_flatten_with_inits() {
        let p = check("int:16 tab[4] = {10, 20};").unwrap();
        assert_eq!(p.global_slots.len(), 4);
        assert_eq!(p.global_slots[1].init, 20);
        assert_eq!(p.global_slots[3].init, 0);
    }

    #[test]
    fn recursion_rejected() {
        let direct = "void f() { f(); }";
        assert!(sema_err(direct).contains("recursion"));
        assert!(sema_err("void f() { g(); }\nvoid g() { f(); }").contains("recursion"));
    }

    #[test]
    fn topo_order_is_callee_first() {
        let src = "void leaf() { }\nvoid mid() { leaf(); }\nvoid top() { mid(); leaf(); }";
        let p = check(src).unwrap();
        let pos = |n: &str| p.topo_order.iter().position(|&i| p.functions[i as usize].name == n);
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("top"));
    }

    #[test]
    fn condition_assignment_and_raise() {
        let src = r#"
            condition XFINISH;
            event END_MOVE;
            void SetTrue() { XFINISH = 1; raise END_MOVE; }
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn unknown_event_rejected() {
        assert!(sema_err("void f() { raise NOPE; }").contains("NOPE"));
    }

    #[test]
    fn port_direction_enforced() {
        let src = "port In : 8 @ 1 in;\nvoid f() { In = 3; }";
        assert!(sema_err(src).contains("input-only"));
        let src = "port Out : 8 @ 1 out;\nvoid f() { int:8 x = Out; }";
        assert!(sema_err(src).contains("output-only"));
        let src = "port B : 8 @ 1 bidir;\nvoid f() { int:8 x = B; B = x; }";
        assert!(check(src).is_ok());
    }

    #[test]
    fn struct_params_rejected() {
        let src = "typedef struct s { int:8 a; } S;\nvoid f(S x) { }";
        assert!(sema_err(src).contains("scalar"));
    }

    #[test]
    fn arity_checked() {
        let src = "void g(int:8 a) { }\nvoid f() { g(); }";
        assert!(sema_err(src).contains("expects 1"));
    }

    #[test]
    fn return_type_checked() {
        sema_err("void f() { return 1; }");
        sema_err("int:8 f() { return; }");
        assert!(check("int:8 f() { return 1; }").is_ok());
    }

    #[test]
    fn env_injection_works() {
        let env = ProgramEnv {
            events: vec!["E".into()],
            conditions: vec!["C".into()],
            ports: vec![PortSpec {
                name: "P".into(),
                width: 8,
                address: 7,
                readable: true,
                writable: true,
            }],
        };
        assert!(analyze("void f() { C = P > 3; raise E; P = 1; }", &env).is_ok());
    }

    #[test]
    fn member_access_types() {
        let src = r#"
            typedef struct s { int:16 a; int:8 b; } S;
            S g = {100, 2};
            int:16 f() { return g.a + g.b; }
        "#;
        assert!(check(src).is_ok());
        let bad = r#"
            typedef struct s { int:16 a; } S;
            S g;
            int:16 f() { return g.nope; }
        "#;
        assert!(sema_err(bad).contains("no field"));
    }
}
