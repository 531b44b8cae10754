//! Source spans and the typed errors of the action-language passes,
//! converted to diagnostics by [`crate::diag`].

use std::fmt;

/// A source range. `line`/`column` are the 1-based start position (the
/// fields every existing caller reads); `end_line`/`end_column` mark
/// the first position *after* the spanned text, and the byte offsets
/// give the half-open `[start_offset, end_offset)` range, so
/// diagnostics can underline what they point at. [`fmt::Display`]
/// renders only the start (`line:col`), byte-identical to the
/// historical format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based start line.
    pub line: u32,
    /// 1-based start column.
    pub column: u32,
    /// 1-based line just past the spanned text (start line for
    /// zero-width spans).
    pub end_line: u32,
    /// 1-based column just past the spanned text.
    pub end_column: u32,
    /// 0-based byte offset of the start.
    pub start_offset: u32,
    /// 0-based byte offset just past the end.
    pub end_offset: u32,
}

impl Span {
    /// Creates a zero-width span at a start position (no byte offsets).
    pub fn new(line: u32, column: u32) -> Self {
        Span { line, column, end_line: line, end_column: column, start_offset: 0, end_offset: 0 }
    }

    /// Creates a full range with byte offsets.
    pub fn range(
        (line, column, start_offset): (u32, u32, u32),
        (end_line, end_column, end_offset): (u32, u32, u32),
    ) -> Self {
        Span { line, column, end_line, end_column, start_offset, end_offset }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// A compile error with phase, position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompileError {
    /// Which compiler phase produced the error.
    pub phase: Phase,
    /// Source position, when known.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

/// Compiler phases, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Tokenisation.
    Lex,
    /// Parsing.
    Parse,
    /// Semantic analysis.
    Sema,
}

impl CompileError {
    /// Lexer error.
    pub(crate) fn lex(span: Span, message: impl Into<String>) -> Self {
        CompileError { phase: Phase::Lex, span, message: message.into() }
    }

    /// Parser error.
    pub(crate) fn parse(span: Span, message: impl Into<String>) -> Self {
        CompileError { phase: Phase::Parse, span, message: message.into() }
    }

    /// Semantic error.
    pub(crate) fn sema(span: Span, message: impl Into<String>) -> Self {
        CompileError { phase: Phase::Sema, span, message: message.into() }
    }
}
