//! Bridges the action-language's typed `CompileError` onto the
//! shared [`pscp_diag`] model.
//!
//! Every pass reports through an `Emitter`: the error is converted to
//! a [`Diagnostic`] (stable codes `AL101`/`AL201`/`AL301` for
//! lex/parse/sema) and pushed into the caller's sink, the one error
//! path of the crate.

use crate::error::{CompileError, Phase, Span};
use pscp_diag::{Diagnostic, DiagnosticSink, Pos, Source};

/// Stable diagnostic code for a compiler phase.
pub(crate) fn phase_code(phase: Phase) -> &'static str {
    match phase {
        Phase::Lex => "AL101",
        Phase::Parse => "AL201",
        Phase::Sema => "AL301",
    }
}

/// Converts an action-language span to the shared model.
pub fn span_to_diag(s: Span) -> pscp_diag::Span {
    pscp_diag::Span::new(
        Pos::new(s.line, s.column, s.start_offset),
        Pos::new(s.end_line, s.end_column, s.end_offset),
    )
}

/// Converts a typed compile error to a shared diagnostic.
pub(crate) fn diagnostic_for(e: &CompileError) -> Diagnostic {
    Diagnostic::error(Source::Action, phase_code(e.phase), e.message.clone())
        .with_span(span_to_diag(e.span))
}

/// Converts typed errors to diagnostics in a shared sink, counting the
/// errors it pushed.
pub(crate) struct Emitter<'a> {
    sink: &'a mut DiagnosticSink,
    errors: usize,
}

impl<'a> Emitter<'a> {
    pub fn new(sink: &'a mut DiagnosticSink) -> Self {
        Emitter { sink, errors: 0 }
    }

    /// Records an error and keeps going.
    pub fn emit(&mut self, e: CompileError) {
        self.errors += 1;
        self.sink.push(diagnostic_for(&e));
    }

    /// Whether any error has been emitted *through this emitter*.
    pub fn errored(&self) -> bool {
        self.errors > 0
    }

    /// How many errors this emitter has seen.
    pub fn errors(&self) -> usize {
        self.errors
    }
}
