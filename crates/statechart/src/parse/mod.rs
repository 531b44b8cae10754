//! Parser for the textual statechart format (Fig. 2a of the paper),
//! extended with declaration syntax for events, conditions and data
//! ports so a chart is self-contained.
//!
//! ```text
//! // comment
//! chart PickupHead;                       // optional chart name
//! event DATA_VALID period 1500;          // arrival period in cycles
//! event X_PULSE port PE0 period 300;
//! event END_DATA internal;
//! condition MOVEMENT;                    // persistent boolean
//! condition OK initial true;
//! port Buffer width 8 addr 0x1CF bidir;  // external data port
//!
//! orstate DataPreparation {
//!     contains OpcodeReady, EmptyBuf, Bounds, NoData;
//!     default OpcodeReady;
//!     transition { target Idle1; label "INIT or ALLRESET/InitializeAll()"; }
//! }
//! andstate Operation {
//!     contains DataPreparation, ReachPosition;
//!     transition { target ErrState; label "ERROR/Stop()"; }
//! }
//! basicstate Errstate {
//!     transition { target Idle1; label "INIT or ALLRESET/InitializeAll()"; cost 50; }
//! }
//! ```
//!
//! Undeclared names appearing in `contains` lists or as transition
//! targets become implicit basic states, exactly as in the builder API.

mod lexer;

use lexer::{Lexer, Token, TokenKind};

use crate::builder::ChartBuilder;
use crate::diag::Emitter;
use crate::error::ParseError;
use crate::model::{Chart, ConditionDecl, EventDecl, PortDirection, StateKind};
use pscp_diag::{Diagnostic, DiagnosticSink};

/// Parses a chart from the textual format, stopping at the first
/// problem.
///
/// # Errors
///
/// Returns the first diagnostic in emission order: a positioned syntax
/// error (`SC101`) or a structural error from chart assembly (`SC2xx`).
/// Lint does not run.
pub fn parse_chart(source: &str) -> Result<Chart, Diagnostic> {
    let mut sink = DiagnosticSink::new();
    let chart = parse_pages_into(&[source], &mut Emitter::new(&mut sink));
    sink.into_result(chart)
}

/// Parses a chart split across one or more diagram *pages*, with error
/// recovery: every syntax error is accumulated into `sink` (code
/// `SC101`) and parsing resumes at the next declaration; structural
/// errors from chart assembly (`SC2xx`) and lint warnings (`SC3xx`) are
/// appended. Returns the chart only when this parse added no errors to
/// the sink.
///
/// The paper's figures reference states on other pages with `@Name`
/// connectors (Fig. 5 is the motion page referenced by Fig. 6's
/// `@MoveX`, `@MoveY`, `@MOVE_PHI`). Since the textual format declares
/// states flat and connects them by name, composition is concatenation:
/// all pages share one namespace, and a `reference;`-marked (or simply
/// undeclared) state on one page binds to its definition on another.
/// With more than one page, syntax errors name their page (`page 1:
/// …`); structural errors (duplicate definitions across pages,
/// unresolved names) come from the final assembly.
pub fn parse_chart_pages(sources: &[&str], sink: &mut DiagnosticSink) -> Option<Chart> {
    let mut em = Emitter::new(sink);
    let chart = parse_pages_into(sources, &mut em)?;
    for w in crate::validate::lint(&chart) {
        em.warn(&w);
    }
    Some(chart)
}

/// Recovering core of the parse entry points: tokenises and parses
/// every page (each syntax error resumes at the next declaration), then
/// assembles the chart, so syntax *and* structural findings land in one
/// report. Returns the chart only when nothing was emitted.
fn parse_pages_into(sources: &[&str], em: &mut Emitter) -> Option<Chart> {
    let errors_at_entry = em.errors();
    let mut builder = ChartBuilder::new("chart");
    let mut named = false;
    let paged = sources.len() > 1;
    for (i, src) in sources.iter().enumerate() {
        let mut errs = Vec::new();
        let tokens = Lexer::new(src).tokenize_diag(&mut errs);
        let mut p = Parser { tokens, pos: 0, page: paged.then_some(i) };
        for e in errs {
            p.emit(em, e);
        }
        p.parse_into_diag(&mut builder, &mut named, em);
    }
    let chart = builder.build_into(em);
    if em.errors() > errors_at_entry {
        return None;
    }
    chart
}

/// Keywords that may start a top-level declaration; the recovery points
/// of [`Parser::sync_toplevel`].
const TOPLEVEL_KWS: &[&str] =
    &["chart", "event", "condition", "port", "basicstate", "orstate", "andstate"];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The page index syntax errors carry, when there are several pages.
    page: Option<usize>,
}

impl Parser {
    /// Reports a syntax error, prefixed with its page when there is one.
    fn emit(&self, em: &mut Emitter, mut e: ParseError) {
        if let Some(page) = self.page {
            e.message = format!("page {page}: {}", e.message);
        }
        em.emit_parse(e);
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError::new(t.line, t.column, msg)
    }

    fn expect_punct(&mut self, ch: char) -> Result<(), ParseError> {
        match &self.peek().kind {
            TokenKind::Punct(c) if *c == ch => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{ch}`, found {other}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn expect_number(&mut self) -> Result<u64, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Number(n) => {
                self.bump();
                Ok(n)
            }
            other => Err(self.error(format!("expected number, found {other}"))),
        }
    }

    fn expect_string(&mut self) -> Result<String, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Str(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected string literal, found {other}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Parses one page's declarations into a shared builder, recovering
    /// at declaration granularity: a syntax error is reported through
    /// `em` and parsing resumes at the next top-level keyword.
    fn parse_into_diag(&mut self, builder: &mut ChartBuilder, named: &mut bool, em: &mut Emitter) {
        while !matches!(self.peek().kind, TokenKind::Eof) {
            let before = self.pos;
            if let Err(e) = self.item(builder, named, em) {
                self.emit(em, e);
                self.sync_toplevel(before);
            }
        }
    }

    /// Parses one top-level declaration.
    fn item(
        &mut self,
        builder: &mut ChartBuilder,
        named: &mut bool,
        em: &mut Emitter,
    ) -> Result<(), ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(word) => match word.as_str() {
                "chart" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    if *named {
                        return Err(self.error("duplicate `chart` directive"));
                    }
                    *named = true;
                    builder.set_name(name);
                    self.expect_punct(';')
                }
                "event" => {
                    self.bump();
                    let decl = self.parse_event_decl()?;
                    builder.event_decl(decl);
                    Ok(())
                }
                "condition" => {
                    self.bump();
                    let decl = self.parse_condition_decl()?;
                    builder.condition_decl(decl);
                    Ok(())
                }
                "port" => {
                    self.bump();
                    self.parse_port_decl(builder)
                }
                "basicstate" => {
                    self.bump();
                    self.parse_state(builder, StateKind::Basic, em)
                }
                "orstate" => {
                    self.bump();
                    self.parse_state(builder, StateKind::Or, em)
                }
                "andstate" => {
                    self.bump();
                    self.parse_state(builder, StateKind::And, em)
                }
                other => {
                    Err(self.error(format!("expected a declaration keyword, found `{other}`")))
                }
            },
            other => Err(self.error(format!("expected a declaration, found {other}"))),
        }
    }

    /// Skips ahead to the next plausible top-level declaration: a
    /// declaration keyword outside any braces, or end of input. Always
    /// makes progress past `before`.
    fn sync_toplevel(&mut self, before: usize) {
        if self.pos == before {
            self.bump();
        }
        let mut depth = 0u32;
        loop {
            match &self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::Punct('{') => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    self.bump();
                }
                TokenKind::Ident(s) if depth == 0 && TOPLEVEL_KWS.contains(&s.as_str()) => {
                    return
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skips to the end of a bad state-body item: past the next `;`
    /// outside nested braces, or to the `}` that closes the state (left
    /// for the caller), or end of input. Always makes progress past
    /// `before`.
    fn sync_state_item(&mut self, before: usize) {
        if self.pos == before {
            self.bump();
        }
        let mut depth = 0u32;
        loop {
            match &self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::Punct(';') if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::Punct('{') => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::Punct('}') => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn parse_event_decl(&mut self) -> Result<EventDecl, ParseError> {
        let name = self.expect_ident()?;
        let mut decl =
            EventDecl { name, width: 1, port: None, period: None, internal: false };
        loop {
            if self.eat_keyword("width") {
                decl.width = self.expect_number()? as u8;
            } else if self.eat_keyword("port") {
                decl.port = Some(self.expect_ident()?);
            } else if self.eat_keyword("period") {
                decl.period = Some(self.expect_number()?);
            } else if self.eat_keyword("internal") {
                decl.internal = true;
            } else {
                break;
            }
        }
        self.expect_punct(';')?;
        Ok(decl)
    }

    fn parse_condition_decl(&mut self) -> Result<ConditionDecl, ParseError> {
        let name = self.expect_ident()?;
        let mut decl = ConditionDecl { name, width: 1, port: None, initial: false };
        loop {
            if self.eat_keyword("width") {
                decl.width = self.expect_number()? as u8;
            } else if self.eat_keyword("port") {
                decl.port = Some(self.expect_ident()?);
            } else if self.eat_keyword("initial") {
                let v = self.expect_ident()?;
                decl.initial = match v.as_str() {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(
                            self.error(format!("expected `true` or `false`, found `{other}`"))
                        )
                    }
                };
            } else {
                break;
            }
        }
        self.expect_punct(';')?;
        Ok(decl)
    }

    fn parse_port_decl(&mut self, builder: &mut ChartBuilder) -> Result<(), ParseError> {
        let name = self.expect_ident()?;
        let mut width = 8u8;
        let mut addr = 0u16;
        let mut dir = PortDirection::Bidirectional;
        loop {
            if self.eat_keyword("width") {
                width = self.expect_number()? as u8;
            } else if self.eat_keyword("addr") {
                addr = self.expect_number()? as u16;
            } else if self.eat_keyword("in") {
                dir = PortDirection::Input;
            } else if self.eat_keyword("out") {
                dir = PortDirection::Output;
            } else if self.eat_keyword("bidir") {
                dir = PortDirection::Bidirectional;
            } else {
                break;
            }
        }
        self.expect_punct(';')?;
        builder.data_port(name, width, addr, dir);
        Ok(())
    }

    fn parse_state(
        &mut self,
        builder: &mut ChartBuilder,
        kind: StateKind,
        em: &mut Emitter,
    ) -> Result<(), ParseError> {
        let name = self.expect_ident()?;
        let mut scope = builder.state(name, kind);
        self.expect_punct('{')?;
        loop {
            match &self.peek().kind {
                TokenKind::Punct('}') => {
                    self.bump();
                    break;
                }
                TokenKind::Eof => {
                    return Err(self.error(format!(
                        "expected `contains`, `default`, `transition` or `}}`, found {}",
                        self.peek().kind
                    )))
                }
                _ => {}
            }
            let before = self.pos;
            if let Err(e) = self.state_item(&mut scope) {
                self.emit(em, e);
                self.sync_state_item(before);
            }
        }
        Ok(())
    }

    /// Parses one item of a state body (`contains`, `default`,
    /// `reference`, `history`, `entry`, `exit`, or a transition block).
    fn state_item(&mut self, scope: &mut crate::builder::StateScope<'_>) -> Result<(), ParseError> {
        if self.eat_keyword("contains") {
            loop {
                let child = self.expect_ident()?;
                scope.contains([child]);
                match &self.peek().kind {
                    TokenKind::Punct(',') => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            self.expect_punct(';')
        } else if self.eat_keyword("default") {
            let d = self.expect_ident()?;
            scope.default_child(d);
            self.expect_punct(';')
        } else if self.eat_keyword("reference") {
            scope.reference();
            self.expect_punct(';')
        } else if self.eat_keyword("history") {
            scope.history();
            self.expect_punct(';')
        } else if self.at_keyword("entry") {
            let kw = self.bump();
            let call = self.expect_string()?;
            self.expect_punct(';')?;
            crate::builder::parse_label(&format!("/{call}"))
                .map_err(|e| ParseError::new(kw.line, kw.column, format!("entry: {e}")))?;
            scope.on_entry(&call);
            Ok(())
        } else if self.at_keyword("exit") {
            let kw = self.bump();
            let call = self.expect_string()?;
            self.expect_punct(';')?;
            crate::builder::parse_label(&format!("/{call}"))
                .map_err(|e| ParseError::new(kw.line, kw.column, format!("exit: {e}")))?;
            scope.on_exit(&call);
            Ok(())
        } else if self.at_keyword("transition") {
            let kw = self.bump();
            self.expect_punct('{')?;
            let mut target: Option<String> = None;
            let mut label = String::new();
            let mut cost: Option<u64> = None;
            loop {
                if self.eat_keyword("target") {
                    target = Some(self.expect_ident()?);
                    self.expect_punct(';')?;
                } else if self.eat_keyword("label") {
                    label = self.expect_string()?;
                    self.expect_punct(';')?;
                } else if self.eat_keyword("cost") {
                    cost = Some(self.expect_number()?);
                    self.expect_punct(';')?;
                } else if matches!(&self.peek().kind, TokenKind::Punct('}')) {
                    self.bump();
                    break;
                } else {
                    return Err(self.error(format!(
                        "expected `target`, `label`, `cost` or `}}` in transition, found {}",
                        self.peek().kind
                    )));
                }
            }
            let target = target.ok_or_else(|| {
                ParseError::new(kw.line, kw.column, "transition is missing `target`")
            })?;
            scope
                .try_transition(target, &label, cost)
                .map_err(|e| self.error(format!("invalid label: {e}")))?;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `contains`, `default`, `transition` or `}}`, found {}",
                self.peek().kind
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StateKind;

    const FIG2A: &str = r#"
        // Events referenced in Fig. 2a labels.
        event INIT;
        event ALLRESET;
        event ERROR;

        basicstate Errstate {
            transition {
                target Idle1;
                label "INIT or ALLRESET/InitializeAll()";
            }
        }
        andstate Operation {
            contains DataPreparation, ReachPosition;
            transition {
                target Idle1;
                label "INIT or ALLRESET/InitializeAll()";
            }
            transition {
                target Errstate;
                label "ERROR/Stop()";
            }
        }
        orstate DataPreparation {
            contains OpcodeReady, EmptyBuf, Bounds, NoData;
            default OpcodeReady;
        }
    "#;

    #[test]
    fn parses_fig2a_shapes() {
        let chart = parse_chart(FIG2A).unwrap();
        let op = chart.state_by_name("Operation").unwrap();
        assert_eq!(chart.state(op).kind, StateKind::And);
        assert_eq!(chart.state(op).children.len(), 2);
        let dp = chart.state_by_name("DataPreparation").unwrap();
        assert_eq!(chart.state(dp).children.len(), 4);
        let def = chart.state(dp).default.unwrap();
        assert_eq!(chart.state(def).name, "OpcodeReady");
        // Implicit basic states inferred for targets/children.
        assert!(chart.state_by_name("Idle1").is_some());
        assert!(chart.state_by_name("ReachPosition").is_some());
        // Implicit root adopted the orphans.
        assert_eq!(chart.state(chart.root()).name, crate::builder::IMPLICIT_ROOT);
    }

    #[test]
    fn parses_declarations() {
        let src = r#"
            chart Demo;
            event DATA_VALID period 1500;
            event X_PULSE port PE0 period 300;
            event END internal;
            condition MOVEMENT;
            condition OK initial true;
            port Buffer width 8 addr 463 bidir;
            basicstate A {
                transition { target B; label "DATA_VALID"; cost 42; }
            }
        "#;
        let chart = parse_chart(src).unwrap();
        assert_eq!(chart.name(), "Demo");
        let dv = chart.event(chart.event_by_name("DATA_VALID").unwrap());
        assert_eq!(dv.period, Some(1500));
        let xp = chart.event(chart.event_by_name("X_PULSE").unwrap());
        assert_eq!(xp.port.as_deref(), Some("PE0"));
        let end = chart.event(chart.event_by_name("END").unwrap());
        assert!(end.internal);
        let ok = chart.condition(chart.condition_by_name("OK").unwrap());
        assert!(ok.initial);
        assert_eq!(chart.data_ports().next().unwrap().width, 8);
        let t = chart.transitions().next().unwrap();
        assert_eq!(t.explicit_cost, Some(42));
    }

    #[test]
    fn hex_numbers_accepted() {
        let src = "port P width 8 addr 0x1CF in;\nbasicstate A { }";
        let chart = parse_chart(src).unwrap();
        assert_eq!(chart.data_ports().next().unwrap().address, 0x1CF);
    }

    #[test]
    fn error_positions_reported() {
        let src = "basicstate A {\n  transition { label \"X\"; }\n}";
        let err = parse_chart(src).unwrap_err();
        assert_eq!(err.code, "SC101");
        assert_eq!((err.span.start.line, err.span.start.column), (2, 3));
        assert_eq!(err.message, "transition is missing `target`");
    }

    #[test]
    fn rejects_unknown_toplevel() {
        let err = parse_chart("frobnicate A;").unwrap_err();
        assert_eq!(err.code, "SC101");
        assert_eq!(err.message, "expected a declaration keyword, found `frobnicate`");
    }

    #[test]
    fn rejects_bad_label() {
        let src = r#"basicstate A { transition { target B; label "E or"; } }"#;
        let err = parse_chart(src).unwrap_err();
        assert_eq!(err.code, "SC101");
        assert!(err.message.starts_with("invalid label: "), "{err}");
    }

    #[test]
    fn structural_errors_surface_with_their_code() {
        let err = parse_chart("orstate Root { contains A; default Zed; }").unwrap_err();
        assert_eq!(err.code, "SC201");
        assert_eq!(err.message, "unknown state `Zed`");
        assert!(!err.span.is_known());
    }

    #[test]
    fn pretty_print_round_trip() {
        let chart = parse_chart(FIG2A).unwrap();
        let printed = crate::pretty::to_text(&chart);
        let reparsed = parse_chart(&printed).unwrap();
        assert_eq!(chart.state_count(), reparsed.state_count());
        assert_eq!(chart.transition_count(), reparsed.transition_count());
        for s in chart.states() {
            let rid = reparsed.state_by_name(&s.name).unwrap();
            assert_eq!(reparsed.state(rid).kind, s.kind, "state {}", s.name);
        }
    }
}
