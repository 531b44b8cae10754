//! Bridges the statechart's typed errors onto the shared
//! [`pscp_diag`] model.
//!
//! Stable codes: `SC101` for textual-format syntax errors; one code per
//! structural `ChartError` variant — `SC201`, `SC204`..`SC209`,
//! `SC213` and `SC214` (the gaps belong to retired variants and are not
//! reused); and `SC301`..`SC304` for the non-fatal lint [`Warning`]s.
//! Every pass reports through an `Emitter` into the caller's
//! [`DiagnosticSink`], the one error path of the crate.

use crate::error::{ChartError, ParseError};
use crate::validate::Warning;
use pscp_diag::{Diagnostic, DiagnosticSink, Source, Span};

/// Stable diagnostic code for a structural chart error.
pub(crate) fn chart_code(e: &ChartError) -> &'static str {
    match e {
        ChartError::UnknownState(_) => "SC201",
        ChartError::DuplicateName(_) => "SC204",
        ChartError::MultipleParents(_) => "SC205",
        ChartError::ContainmentCycle(_) => "SC206",
        ChartError::MissingDefault(_) => "SC207",
        ChartError::DefaultNotChild { .. } => "SC208",
        ChartError::BasicWithChildren(_) => "SC209",
        ChartError::UnresolvedAtom(_) => "SC213",
        ChartError::Empty => "SC214",
    }
}

/// Stable diagnostic code for a lint warning.
pub fn warning_code(w: &Warning) -> &'static str {
    match w {
        Warning::DegenerateAnd(_) => "SC301",
        Warning::PossiblyUnreachable(_) => "SC302",
        Warning::NondeterministicChoice { .. } => "SC303",
        Warning::UnusedEvent(_) => "SC304",
    }
}

/// Converts a structural error to a shared diagnostic (chart errors
/// carry no source position, so the span is unknown).
pub(crate) fn diagnostic_for_chart(e: &ChartError) -> Diagnostic {
    Diagnostic::error(Source::Chart, chart_code(e), e.to_string())
}

/// Converts a positioned syntax error to a shared diagnostic.
pub(crate) fn diagnostic_for_parse(e: &ParseError) -> Diagnostic {
    Diagnostic::error(Source::Chart, "SC101", e.message.clone())
        .with_span(Span::point(e.line, e.column, 0))
}

/// Converts a lint warning to a shared (warning-severity) diagnostic.
pub fn diagnostic_for_warning(w: &Warning) -> Diagnostic {
    let message = match w {
        Warning::DegenerateAnd(n) => {
            format!("and-state `{n}` has fewer than two children")
        }
        Warning::PossiblyUnreachable(n) => format!("state `{n}` may be unreachable"),
        Warning::NondeterministicChoice { state, first, second } => format!(
            "state `{state}` has nondeterministic transitions #{first} and #{second}"
        ),
        Warning::UnusedEvent(n) => format!("event `{n}` is declared but never used"),
    };
    Diagnostic::warning(Source::Chart, warning_code(w), message)
}

/// Converts typed chart errors to diagnostics in a shared sink,
/// counting the errors it pushed.
pub(crate) struct Emitter<'a> {
    sink: &'a mut DiagnosticSink,
    errors: usize,
}

impl<'a> Emitter<'a> {
    pub fn new(sink: &'a mut DiagnosticSink) -> Self {
        Emitter { sink, errors: 0 }
    }

    /// Records a syntax error and keeps going.
    pub fn emit_parse(&mut self, e: ParseError) {
        self.sink.push(diagnostic_for_parse(&e));
        self.errors += 1;
    }

    /// Records a structural error and keeps going.
    pub fn emit_chart(&mut self, e: ChartError) {
        self.sink.push(diagnostic_for_chart(&e));
        self.errors += 1;
    }

    /// Records a non-fatal lint warning.
    pub fn warn(&mut self, w: &Warning) {
        self.sink.push(diagnostic_for_warning(w));
    }

    /// How many errors this emitter has seen (warnings excluded).
    pub fn errors(&self) -> usize {
        self.errors
    }
}
