//! Recursive-descent parser for the action language.
//!
//! The parser is deliberately close to a classic C subset parser; the
//! only ambiguity — "is `Foo bar …` a declaration?" — is resolved the
//! usual lexer-feedback-free way: *identifier identifier* starts a
//! declaration, anything else is an expression statement.

use crate::ast::*;
use crate::diag::Emitter;
use crate::error::{CompileError, Span};
use crate::lexer::{tokenize_into, SpannedTok, Tok};
use crate::types::{Scalar, Type};

/// Parses a complete program, recovering from syntax errors: a failed
/// statement resynchronises at the next `;` or closing `}`, a failed
/// item at the next plausible item start, and every problem lands in
/// `em` in source order. Returns whatever items parsed cleanly.
pub(crate) fn parse_into(source: &str, em: &mut Emitter) -> Vec<Item> {
    let tokens = tokenize_into(source, em);
    let mut p = Parser { toks: &tokens, pos: 0, diags: Vec::new() };
    let mut items = Vec::new();
    while !p.at_eof() {
        let before = p.pos;
        match p.item() {
            Ok(i) => items.push(i),
            Err(e) => {
                p.diags.push(e);
                p.sync_item(before);
            }
        }
        for d in p.diags.drain(..) {
            em.emit(d);
        }
    }
    for d in p.diags.drain(..) {
        em.emit(d);
    }
    items
}

/// Keywords (and type-leading identifiers) that can begin a top-level
/// item — the resynchronisation anchors for item-level recovery.
const ITEM_START_KWS: &[&str] =
    &["enum", "typedef", "struct", "event", "condition", "port", "void", "int", "uint", "bool"];

struct Parser<'t> {
    toks: &'t [SpannedTok],
    pos: usize,
    /// Statement-level errors recovered in place, in source order.
    diags: Vec<CompileError>,
}

impl Parser<'_> {
    /// Skips to the next plausible item start after a failed item:
    /// past the next top-level `;`, past a brace-balanced `}` (plus a
    /// trailing `;`), or to a known item-starting keyword. Always makes
    /// progress.
    fn sync_item(&mut self, before: usize) {
        if self.pos == before && !self.at_eof() {
            self.bump();
        }
        let mut depth = 0i32;
        while !self.at_eof() {
            match &self.peek().tok {
                Tok::Sym("{") => depth += 1,
                Tok::Sym("}") => {
                    depth -= 1;
                    if depth <= 0 {
                        self.bump();
                        self.eat_sym(";");
                        return;
                    }
                }
                Tok::Sym(";") if depth == 0 => {
                    self.bump();
                    return;
                }
                Tok::Ident(id) if depth == 0 && ITEM_START_KWS.contains(&id.as_str()) => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips to the end of a failed statement: past the next `;`, or
    /// up to (not past) the enclosing `}`. Nested braces are skipped
    /// whole. Always makes progress.
    fn sync_stmt(&mut self, before: usize) {
        if self.pos == before && !self.at_eof() {
            self.bump();
        }
        let mut depth = 0i32;
        while !self.at_eof() {
            match &self.peek().tok {
                Tok::Sym("{") => depth += 1,
                Tok::Sym("}") => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                Tok::Sym(";") if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }
    fn peek(&self) -> &SpannedTok {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn peek2(&self) -> &SpannedTok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().tok, Tok::Eof)
    }

    fn bump(&mut self) -> SpannedTok {
        let t = self.peek().clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::parse(self.peek().span, msg)
    }

    fn at_sym(&self, s: &str) -> bool {
        matches!(&self.peek().tok, Tok::Sym(x) if *x == s)
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.at_sym(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<Span, CompileError> {
        if self.at_sym(s) {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{s}`, found {}", self.peek().tok)))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(x) if x == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), CompileError> {
        match &self.peek().tok {
            Tok::Ident(s) => {
                let s = s.clone();
                let span = self.bump().span;
                Ok((s, span))
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn expect_number(&mut self) -> Result<i64, CompileError> {
        match self.peek().tok {
            Tok::Int { value, .. } => {
                self.bump();
                Ok(value)
            }
            Tok::BinLit { value, .. } => {
                self.bump();
                Ok(value)
            }
            ref other => Err(self.err(format!("expected number, found {other}"))),
        }
    }

    // ---- items ---------------------------------------------------------

    fn item(&mut self) -> Result<Item, CompileError> {
        let span = self.peek().span;
        if self.eat_kw("enum") {
            return self.enum_decl(span);
        }
        if self.at_kw("typedef") || self.at_kw("struct") {
            return self.struct_decl(span);
        }
        if self.eat_kw("event") {
            let (name, _) = self.expect_ident()?;
            self.expect_sym(";")?;
            return Ok(Item::ExternEvent(name, span));
        }
        if self.eat_kw("condition") {
            let (name, _) = self.expect_ident()?;
            self.expect_sym(";")?;
            return Ok(Item::ExternCondition(name, span));
        }
        if self.eat_kw("port") {
            let (name, _) = self.expect_ident()?;
            self.expect_sym(":")?;
            let width = self.expect_number()? as u8;
            self.expect_sym("@")?;
            let address = self.expect_number()? as u16;
            let direction = if self.at_kw("in") || self.at_kw("out") || self.at_kw("bidir") {
                let (d, _) = self.expect_ident()?;
                d
            } else {
                "bidir".to_string()
            };
            self.expect_sym(";")?;
            return Ok(Item::ExternPort(PortDecl { name, width, address, direction, span }));
        }

        // Type-led: function or global.
        let ty = self.parse_type()?;
        let (name, nspan) = self.expect_ident()?;
        if self.at_sym("(") {
            self.function_rest(ty, name, span)
        } else {
            self.global_rest(ty, name, nspan)
        }
    }

    fn enum_decl(&mut self, span: Span) -> Result<Item, CompileError> {
        let (name, _) = self.expect_ident()?;
        self.expect_sym("{")?;
        let mut variants = Vec::new();
        loop {
            if self.eat_sym("}") {
                break;
            }
            let (v, _) = self.expect_ident()?;
            variants.push(v);
            if !self.eat_sym(",") && !self.at_sym("}") {
                return Err(self.err("expected `,` or `}` in enum"));
            }
        }
        self.expect_sym(";")?;
        Ok(Item::Enum(EnumDecl { name, variants, span }))
    }

    fn struct_decl(&mut self, span: Span) -> Result<Item, CompileError> {
        let typedef = self.eat_kw("typedef");
        if !self.eat_kw("struct") {
            return Err(self.err("expected `struct`"));
        }
        // Optional tag.
        let tag = if !self.at_sym("{") {
            let (t, _) = self.expect_ident()?;
            Some(t)
        } else {
            None
        };
        self.expect_sym("{")?;
        let mut fields = Vec::new();
        while !self.eat_sym("}") {
            let ty = self.parse_type()?;
            let (fname, _) = self.expect_ident()?;
            self.expect_sym(";")?;
            fields.push(Field { name: fname, ty });
        }
        let name = if typedef {
            let (alias, _) = self.expect_ident()?;
            alias
        } else {
            tag.ok_or_else(|| self.err("struct without tag or typedef name"))?
        };
        self.expect_sym(";")?;
        Ok(Item::Struct(StructDecl { name, fields, span }))
    }

    fn function_rest(
        &mut self,
        ret: Type,
        name: String,
        span: Span,
    ) -> Result<Item, CompileError> {
        self.expect_sym("(")?;
        let mut params = Vec::new();
        if !self.at_sym(")") {
            loop {
                if self.eat_kw("void") && self.at_sym(")") {
                    break; // `f(void)`
                }
                let ty = self.parse_type()?;
                let (pname, _) = self.expect_ident()?;
                params.push((pname, ty));
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        self.expect_sym(")")?;
        let body = self.block()?;
        Ok(Item::Function(FunctionDecl { name, ret, params, body, span }))
    }

    fn global_rest(
        &mut self,
        mut ty: Type,
        name: String,
        span: Span,
    ) -> Result<Item, CompileError> {
        if self.eat_sym("[") {
            let n = self.expect_number()? as u32;
            self.expect_sym("]")?;
            let scalar = match ty {
                Type::Scalar(s) => s,
                other => {
                    return Err(self.err(format!("array element must be scalar, found {other}")))
                }
            };
            ty = Type::Array(scalar, n);
        }
        let init = if self.eat_sym("=") {
            if self.eat_sym("{") {
                let mut list = Vec::new();
                while !self.eat_sym("}") {
                    list.push(self.expr()?);
                    if !self.eat_sym(",") && !self.at_sym("}") {
                        return Err(self.err("expected `,` or `}` in initialiser list"));
                    }
                }
                Some(Initializer::List(list))
            } else {
                Some(Initializer::Expr(self.expr()?))
            }
        } else {
            None
        };
        self.expect_sym(";")?;
        Ok(Item::Global(GlobalDecl { name, ty, init, span }))
    }

    fn parse_type(&mut self) -> Result<Type, CompileError> {
        let (name, _) = self.expect_ident()?;
        match name.as_str() {
            "void" => Ok(Type::Void),
            "bool" => Ok(Type::Scalar(Scalar::bool())),
            "int" | "uint" => {
                let width = if self.eat_sym(":") {
                    let w = self.expect_number()?;
                    if !(1..=32).contains(&w) {
                        return Err(self.err(format!("width {w} out of range 1..=32")));
                    }
                    w as u8
                } else {
                    16 // plain `int` defaults to 16 bits on this class of machine
                };
                Ok(Type::Scalar(if name == "int" {
                    Scalar::int(width)
                } else {
                    Scalar::uint(width)
                }))
            }
            _ => Ok(Type::Struct(name)), // sema reclassifies enum vs struct
        }
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect_sym("{")?;
        let mut out = Vec::new();
        while !self.eat_sym("}") {
            if self.at_eof() {
                return Err(self.err("expected `}`"));
            }
            let before = self.pos;
            match self.stmt() {
                Ok(s) => out.push(s),
                Err(e) => {
                    // Recover at the statement boundary: later
                    // statements in the same body still get checked.
                    self.diags.push(e);
                    self.sync_stmt(before);
                }
            }
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.peek().span;

        if self.at_sym("{") {
            // Nested block: flatten into an if(1)-free representation by
            // returning the statements wrapped in an always-true if.
            let body = self.block()?;
            return Ok(Stmt::If {
                cond: Expr::Int { value: 1, width: Some(1), span },
                then_body: body,
                else_body: Vec::new(),
            });
        }
        if self.eat_kw("if") {
            self.expect_sym("(")?;
            let cond = self.expr()?;
            self.expect_sym(")")?;
            let then_body = self.block_or_single()?;
            let else_body = if self.eat_kw("else") {
                if self.at_kw("if") {
                    vec![self.stmt()?]
                } else {
                    self.block_or_single()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If { cond, then_body, else_body });
        }
        if self.eat_kw("while") {
            self.expect_sym("(")?;
            let cond = self.expr()?;
            self.expect_sym(")")?;
            let body = self.block_or_single()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.eat_kw("for") {
            self.expect_sym("(")?;
            let init = if self.at_sym(";") { None } else { Some(self.simple_stmt()?) };
            self.expect_sym(";")?;
            let cond = if self.at_sym(";") {
                Expr::Int { value: 1, width: Some(1), span }
            } else {
                self.expr()?
            };
            self.expect_sym(";")?;
            let step = if self.at_sym(")") { None } else { Some(self.simple_stmt()?) };
            self.expect_sym(")")?;
            let mut body = self.block_or_single()?;
            if let Some(s) = step {
                body.push(s);
            }
            let while_stmt = Stmt::While { cond, body };
            return Ok(match init {
                Some(i) => Stmt::If {
                    cond: Expr::Int { value: 1, width: Some(1), span },
                    then_body: vec![i, while_stmt],
                    else_body: Vec::new(),
                },
                None => while_stmt,
            });
        }
        if self.eat_kw("return") {
            let value = if self.at_sym(";") { None } else { Some(self.expr()?) };
            self.expect_sym(";")?;
            return Ok(Stmt::Return(value, span));
        }
        if self.eat_kw("raise") {
            let (name, _) = self.expect_ident()?;
            self.expect_sym(";")?;
            return Ok(Stmt::Raise(name, span));
        }

        let s = self.simple_stmt()?;
        self.expect_sym(";")?;
        Ok(s)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if self.at_sym("{") {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// Declaration, assignment, `x++`/`x--`, or expression — without the
    /// trailing semicolon (shared by `for` headers and plain statements).
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.peek().span;

        // Declaration heuristic: IDENT IDENT, or int/uint/bool leading.
        let is_decl = match (&self.peek().tok, &self.peek2().tok) {
            (Tok::Ident(t), _) if t == "int" || t == "uint" || t == "bool" => true,
            (Tok::Ident(_), Tok::Ident(_)) => true,
            _ => false,
        };
        if is_decl {
            let ty = self.parse_type()?;
            let (name, _) = self.expect_ident()?;
            let init = if self.eat_sym("=") { Some(self.expr()?) } else { None };
            return Ok(Stmt::Local { name, ty, init, span });
        }

        // lvalue-led statement or call.
        let expr = self.expr()?;
        if self.at_sym("=")
            || self.at_sym("+=")
            || self.at_sym("-=")
            || self.at_sym("*=")
            || self.at_sym("/=")
            || self.at_sym("%=")
            || self.at_sym("&=")
            || self.at_sym("|=")
            || self.at_sym("^=")
        {
            let opsym = match self.bump().tok {
                Tok::Sym(s) => s,
                _ => unreachable!(),
            };
            let op = match opsym {
                "=" => None,
                "+=" => Some(BinOp::Add),
                "-=" => Some(BinOp::Sub),
                "*=" => Some(BinOp::Mul),
                "/=" => Some(BinOp::Div),
                "%=" => Some(BinOp::Rem),
                "&=" => Some(BinOp::And),
                "|=" => Some(BinOp::Or),
                "^=" => Some(BinOp::Xor),
                _ => unreachable!(),
            };
            let lvalue = expr_to_lvalue(expr, span)?;
            let value = self.expr()?;
            return Ok(Stmt::Assign { lvalue, op, value, span });
        }
        if self.at_sym("++") || self.at_sym("--") {
            let inc = self.at_sym("++");
            self.bump();
            let lvalue = expr_to_lvalue(expr, span)?;
            return Ok(Stmt::Assign {
                lvalue,
                op: Some(if inc { BinOp::Add } else { BinOp::Sub }),
                value: Expr::Int { value: 1, width: None, span },
                span,
            });
        }
        Ok(Stmt::Expr(expr))
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.binary(0)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match &self.peek().tok {
                Tok::Sym("||") => (BinOp::LogicOr, 1),
                Tok::Sym("&&") => (BinOp::LogicAnd, 2),
                Tok::Sym("|") => (BinOp::Or, 3),
                Tok::Sym("^") => (BinOp::Xor, 4),
                Tok::Sym("&") => (BinOp::And, 5),
                Tok::Sym("==") => (BinOp::Eq, 6),
                Tok::Sym("!=") => (BinOp::Ne, 6),
                Tok::Sym("<") => (BinOp::Lt, 7),
                Tok::Sym("<=") => (BinOp::Le, 7),
                Tok::Sym(">") => (BinOp::Gt, 7),
                Tok::Sym(">=") => (BinOp::Ge, 7),
                Tok::Sym("<<") => (BinOp::Shl, 8),
                Tok::Sym(">>") => (BinOp::Shr, 8),
                Tok::Sym("+") => (BinOp::Add, 9),
                Tok::Sym("-") => (BinOp::Sub, 9),
                Tok::Sym("*") => (BinOp::Mul, 10),
                Tok::Sym("/") => (BinOp::Div, 10),
                Tok::Sym("%") => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let span = self.bump().span;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let span = self.peek().span;
        if self.eat_sym("-") {
            return Ok(Expr::Un { op: UnOp::Neg, expr: Box::new(self.unary()?), span });
        }
        if self.eat_sym("~") {
            return Ok(Expr::Un { op: UnOp::BitNot, expr: Box::new(self.unary()?), span });
        }
        if self.eat_sym("!") {
            return Ok(Expr::Un { op: UnOp::Not, expr: Box::new(self.unary()?), span });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        let span = self.peek().span;
        match self.peek().tok.clone() {
            Tok::Int { value, width } => {
                self.bump();
                Ok(Expr::Int { value, width, span })
            }
            Tok::BinLit { value, width } => {
                self.bump();
                Ok(Expr::Int { value, width: Some(width), span })
            }
            Tok::Sym("(") => {
                self.bump();
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                if self.eat_sym("(") {
                    let mut args = Vec::new();
                    if !self.at_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                    }
                    self.expect_sym(")")?;
                    Ok(Expr::Call { func: name, args, span })
                } else if self.eat_sym("[") {
                    let idx = self.expr()?;
                    self.expect_sym("]")?;
                    Ok(Expr::Index(name, Box::new(idx), span))
                } else if self.eat_sym(".") {
                    let (field, _) = self.expect_ident()?;
                    Ok(Expr::Member(name, field, span))
                } else {
                    Ok(Expr::Name(name, span))
                }
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

fn expr_to_lvalue(e: Expr, span: Span) -> Result<LValue, CompileError> {
    match e {
        Expr::Name(n, s) => Ok(LValue::Name(n, s)),
        Expr::Index(n, i, s) => Ok(LValue::Index(n, *i, s)),
        Expr::Member(n, f, s) => Ok(LValue::Member(n, f, s)),
        _ => Err(CompileError::parse(span, "expression is not assignable")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `source`, failing with the first lexical or syntactic
    /// error.
    fn parse(source: &str) -> Result<Vec<Item>, pscp_diag::Diagnostic> {
        let mut sink = pscp_diag::DiagnosticSink::new();
        let items = parse_into(source, &mut Emitter::new(&mut sink));
        sink.into_result(Some(items))
    }

    #[test]
    fn parses_fig2b_preamble() {
        let src = r#"
            enum ECD {Event, Condition, Data};
            enum Encoding {Onehot, Binary};
            enum PortDir {Input, Output, Bidirectional};
            typedef struct port {
                ECD    Type;
                int:8  Width;
                int:8  Address;
                PortDir Direction;
            } Port;
            Port PE0 = {Event, 1, 0700, Output};
        "#;
        let items = parse(src).unwrap();
        assert_eq!(items.len(), 5);
        assert!(matches!(&items[0], Item::Enum(e) if e.variants.len() == 3));
        assert!(matches!(&items[3], Item::Struct(s) if s.fields.len() == 4));
        match &items[4] {
            Item::Global(g) => {
                assert_eq!(g.name, "PE0");
                match &g.init {
                    Some(Initializer::List(l)) => assert_eq!(l.len(), 4),
                    other => panic!("expected list init, got {other:?}"),
                }
            }
            other => panic!("expected global, got {other:?}"),
        }
    }

    #[test]
    fn parses_function_with_control_flow() {
        let src = r#"
            int:16 DeltaT(int:16 n, int:16 t) {
                int:16 next = t;
                while (n > 0) {
                    next = next - next / (4 * n + 1);
                    n = n - 1;
                }
                if (next < 10) { next = 10; } else next = next + 1;
                return next;
            }
        "#;
        let items = parse(src).unwrap();
        match &items[0] {
            Item::Function(f) => {
                assert_eq!(f.name, "DeltaT");
                assert_eq!(f.params.len(), 2);
                assert_eq!(f.body.len(), 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_desugars_to_while() {
        let src = "void f() { int:8 s = 0; for (int:8 i = 0; i < 4; i++) { s += i; } }";
        let items = parse(src).unwrap();
        let Item::Function(f) = &items[0] else { panic!() };
        // decl + wrapper-if containing init + while
        assert!(matches!(&f.body[1], Stmt::If { then_body, .. }
            if matches!(then_body[1], Stmt::While { .. })));
    }

    #[test]
    fn extern_declarations() {
        let src = "event END_MOVE;\ncondition XFINISH;\nport Buffer : 8 @ 0x1CF bidir;";
        let items = parse(src).unwrap();
        assert!(matches!(&items[0], Item::ExternEvent(n, _) if n == "END_MOVE"));
        assert!(matches!(&items[1], Item::ExternCondition(n, _) if n == "XFINISH"));
        assert!(
            matches!(&items[2], Item::ExternPort(p) if p.width == 8 && p.address == 0x1CF)
        );
    }

    #[test]
    fn raise_statement() {
        let src = "event E;\nvoid f() { raise E; }";
        let items = parse(src).unwrap();
        let Item::Function(f) = &items[1] else { panic!() };
        assert!(matches!(&f.body[0], Stmt::Raise(n, _) if n == "E"));
    }

    #[test]
    fn b_literals_in_expressions() {
        let src = "void f() { uint:8 x = B:001011; }";
        let items = parse(src).unwrap();
        let Item::Function(f) = &items[0] else { panic!() };
        let Stmt::Local { init: Some(Expr::Int { value, width, .. }), .. } = &f.body[0] else {
            panic!()
        };
        assert_eq!(*value, 0b001011);
        assert_eq!(*width, Some(6));
    }

    #[test]
    fn precedence() {
        let src = "void f() { int:16 x = 1 + 2 * 3 == 7 && 1 < 2; }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn compound_assignment() {
        let src = "int:16 g;\nvoid f() { g += 2; g <<= 1; }";
        // `<<=` is not in the operator set; expect an error.
        assert!(parse(src).is_err());
        let ok = "int:16 g;\nvoid f() { g += 2; g *= 3; }";
        assert!(parse(ok).is_ok());
    }

    #[test]
    fn error_position() {
        let err = parse("void f() { int:16 = 3; }").unwrap_err();
        assert_eq!(err.code, "AL201");
        assert_eq!(err.span.start.line, 1);
        assert!(err.message.contains("identifier"));
    }

    #[test]
    fn width_bounds_checked() {
        assert!(parse("int:0 x;").is_err());
        assert!(parse("int:33 x;").is_err());
        assert!(parse("int:32 x;").is_ok());
    }
}
