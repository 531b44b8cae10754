//! Shared spanned-diagnostics model for the PSCP frontends.
//!
//! Every pass of the statechart and action-language pipelines — and the
//! system-level binding in `pscp-core` — reports problems through one
//! [`Diagnostic`] shape: a severity, a stable code, a start/end
//! [`Span`], a message, and optional notes. Passes push into a
//! [`DiagnosticSink`] and *keep going* instead of returning on the
//! first error. The sink is the only error path: a fail-fast entry
//! point runs its stage into a fresh sink and returns
//! [`DiagnosticSink::into_result`] (the first error in emission order),
//! while [`DiagnosticSink::finish`] produces the full report:
//! span-sorted and deduplicated, so the same source always yields the
//! same list regardless of which pass found what first.
//!
//! The crate is dependency-free on purpose: the wire codec in
//! `pscp_core::serve::wire` encodes diagnostics canonically by hand, so
//! an in-process compile and a `Compile` frame over the wire produce
//! byte-identical diagnostic lists.

use std::fmt;

/// How bad a diagnostic is. `Error` blocks compilation; `Warning`
/// (lint findings) never does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Compilation fails when at least one of these is present.
    Error,
    /// Advisory only; the compile still produces a system.
    Warning,
}

impl Severity {
    /// Stable wire byte for this severity.
    pub fn code(self) -> u8 {
        match self {
            Severity::Error => 0,
            Severity::Warning => 1,
        }
    }

    /// Inverse of [`Severity::code`].
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(Severity::Error),
            1 => Some(Severity::Warning),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// Which layer of the pipeline produced a diagnostic. This is the
/// provenance the one-report-per-compile contract depends on: chart,
/// action and system findings all land in the same list, still
/// attributable to their layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Source {
    /// Statechart text: parse, builder, validation, trigger resolution.
    Chart,
    /// Action-language text: lex, parse, semantic analysis.
    Action,
    /// System-level binding and TEP storage/codegen budgets.
    System,
}

impl Source {
    /// Stable wire byte for this provenance.
    pub fn code(self) -> u8 {
        match self {
            Source::Chart => 0,
            Source::Action => 1,
            Source::System => 2,
        }
    }

    /// Inverse of [`Source::code`].
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(Source::Chart),
            1 => Some(Source::Action),
            2 => Some(Source::System),
            _ => None,
        }
    }
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Source::Chart => "chart",
            Source::Action => "action",
            Source::System => "system",
        })
    }
}

/// A position in source text. Lines and columns are 1-based; `offset`
/// is the 0-based byte offset. Line 0 means "no position" (errors that
/// concern the chart as a whole, or system-level findings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pos {
    pub line: u32,
    pub column: u32,
    pub offset: u32,
}

impl Pos {
    pub fn new(line: u32, column: u32, offset: u32) -> Self {
        Pos { line, column, offset }
    }
}

/// A half-open source range `[start, end)`. A zero (default) span means
/// the diagnostic has no source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    pub start: Pos,
    pub end: Pos,
}

impl Span {
    /// A span with no position — sorts before every real span.
    pub const NONE: Span = Span {
        start: Pos { line: 0, column: 0, offset: 0 },
        end: Pos { line: 0, column: 0, offset: 0 },
    };

    pub fn new(start: Pos, end: Pos) -> Self {
        Span { start, end }
    }

    /// A zero-width span at one position.
    pub fn point(line: u32, column: u32, offset: u32) -> Self {
        let p = Pos::new(line, column, offset);
        Span { start: p, end: p }
    }

    /// Whether this span carries a real position.
    pub fn is_known(&self) -> bool {
        self.start.line != 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.start.line, self.start.column)
    }
}

/// One finding: severity, provenance, stable code, span, message and
/// optional notes. Codes are stable across releases (documented per
/// emitting crate): `SCxxx` for statechart, `ALxxx` for action-lang,
/// `PSxxx` for system-level binding/budget findings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Diagnostic {
    pub severity: Severity,
    pub source: Source,
    pub code: String,
    pub span: Span,
    pub message: String,
    pub notes: Vec<String>,
}

impl Diagnostic {
    pub fn error(source: Source, code: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            source,
            code: code.to_string(),
            span: Span::NONE,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    pub fn warning(source: Source, code: &str, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Warning, ..Diagnostic::error(source, code, message) }
    }

    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// The sort key used for the final report: position first, then
    /// severity (errors ahead of warnings at the same spot), then code
    /// and text so equal-position findings order deterministically.
    fn sort_key(&self) -> (Span, Severity, Source, &str, &str, &[String]) {
        (self.span, self.severity, self.source, &self.code, &self.message, &self.notes)
    }

    /// One-line rendering: `error[SC205] at 3:1: message`.
    pub fn render(&self) -> String {
        let mut s = if self.span.is_known() {
            format!("{}[{}] at {}: {}", self.severity, self.code, self.span, self.message)
        } else {
            format!("{}[{}]: {}", self.severity, self.code, self.message)
        };
        for note in &self.notes {
            s.push_str("\n  note: ");
            s.push_str(note);
        }
        s
    }

    /// Multi-line rendering with the offending source line and a caret
    /// underline from the span's start to its end (clamped to the
    /// line). Used by `pscp-serve check`.
    ///
    /// Span columns count bytes; the caret is padded in characters, so
    /// a multi-byte character earlier on the line does not push it off
    /// its target.
    pub fn render_with_source(&self, source: &str) -> String {
        let mut out = self.render();
        if !self.span.is_known() {
            return out;
        }
        let line_no = self.span.start.line as usize;
        let Some(line) = source.lines().nth(line_no - 1) else {
            return out;
        };
        let start_col = char_column(line, self.span.start.column);
        let width = line.chars().count().max(start_col);
        let end_col = if self.span.end.line == self.span.start.line {
            char_column(line, self.span.end.column).clamp(start_col, width + 1)
        } else {
            width + 1
        };
        let carets = (end_col - start_col).max(1);
        out.push_str(&format!(
            "\n  {line_no:4} | {line}\n       | {}{}",
            " ".repeat(start_col - 1),
            "^".repeat(carets)
        ));
        out
    }
}

/// Maps a 1-based byte column on `line` to the 1-based column of the
/// character holding that byte. Columns past the end of the line keep
/// their distance from it.
fn char_column(line: &str, byte_column: u32) -> usize {
    let byte = byte_column.max(1) as usize - 1;
    if byte >= line.len() {
        return line.chars().count() + 1 + (byte - line.len());
    }
    line.char_indices().take_while(|&(i, _)| i <= byte).count()
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl std::error::Error for Diagnostic {}

/// Sorts a diagnostic list by span/severity/code/message and removes
/// exact duplicates. This is the canonical report order: every path to
/// the same findings (in-process, over the wire, repeated runs) yields
/// the same bytes.
pub fn sort_dedup(diags: &mut Vec<Diagnostic>) {
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    diags.dedup();
}

/// Accumulates diagnostics across passes.
///
/// Emission order is preserved: [`DiagnosticSink::into_result`] turns
/// a sink into a fail-fast result carrying the first emitted error, and
/// [`DiagnosticSink::finish`] hands out the sorted, deduplicated report.
#[derive(Debug, Default, Clone)]
pub struct DiagnosticSink {
    diags: Vec<Diagnostic>,
    errors: usize,
    first_error: Option<usize>,
}

impl DiagnosticSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        if d.severity == Severity::Error {
            if self.first_error.is_none() {
                self.first_error = Some(self.diags.len());
            }
            self.errors += 1;
        }
        self.diags.push(d);
    }

    /// Convenience: push an error with a span.
    pub fn error(&mut self, source: Source, code: &str, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::error(source, code, message).with_span(span));
    }

    /// Convenience: push a warning with a span.
    pub fn warning(&mut self, source: Source, code: &str, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::warning(source, code, message).with_span(span));
    }

    pub fn has_errors(&self) -> bool {
        self.errors > 0
    }

    pub fn error_count(&self) -> usize {
        self.errors
    }

    pub fn len(&self) -> usize {
        self.diags.len()
    }

    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// The first *error* in emission order — what
    /// [`DiagnosticSink::into_result`] returns.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.first_error.map(|i| &self.diags[i])
    }

    /// Diagnostics in emission order (pre-sort).
    pub fn emitted(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Consumes the sink as the result of a fail-fast entry point: the
    /// first error in emission order when there is one, else the
    /// stage's `value`. Warnings never fail the result.
    ///
    /// # Panics
    ///
    /// Panics when the sink holds no error but `value` is `None`: a
    /// stage that produces nothing must say why.
    pub fn into_result<T>(mut self, value: Option<T>) -> Result<T, Diagnostic> {
        match self.first_error {
            Some(i) => Err(self.diags.swap_remove(i)),
            None => Ok(value.expect("a stage that produced nothing must report an error")),
        }
    }

    /// Consumes the sink and returns the canonical report: span-sorted,
    /// deduplicated.
    pub fn finish(self) -> Vec<Diagnostic> {
        let mut diags = self.diags;
        sort_dedup(&mut diags);
        diags
    }
}

/// Renders a full report (one diagnostic per block) with source
/// excerpts, followed by an `N error(s), M warning(s)` summary line.
pub fn render_report(diags: &[Diagnostic], source: &str) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render_with_source(source));
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.len() - errors;
    out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(code: &str, line: u32, col: u32) -> Diagnostic {
        Diagnostic::error(Source::Chart, code, format!("problem {code}"))
            .with_span(Span::point(line, col, 0))
    }

    #[test]
    fn sink_tracks_first_error_in_emission_order() {
        let mut sink = DiagnosticSink::new();
        sink.push(Diagnostic::warning(Source::Chart, "SC900", "lint"));
        sink.push(d("SC205", 9, 1));
        sink.push(d("SC202", 2, 3));
        assert_eq!(sink.first_error().unwrap().code, "SC205");
        assert!(sink.has_errors());
        assert_eq!(sink.error_count(), 2);
    }

    #[test]
    fn into_result_returns_the_first_error_in_emission_order() {
        let mut sink = DiagnosticSink::new();
        sink.push(Diagnostic::warning(Source::Chart, "SC304", "lint"));
        sink.push(d("SC205", 9, 1));
        sink.push(d("SC101", 2, 3));
        assert_eq!(sink.into_result(Some(7)).unwrap_err().code, "SC205");

        let mut warned = DiagnosticSink::new();
        warned.push(Diagnostic::warning(Source::Chart, "SC304", "lint"));
        assert_eq!(warned.into_result(Some(7)), Ok(7));
    }

    #[test]
    fn finish_sorts_by_span_and_dedups() {
        let mut sink = DiagnosticSink::new();
        sink.push(d("SC205", 9, 1));
        sink.push(d("SC202", 2, 3));
        sink.push(d("SC202", 2, 3));
        let report = sink.finish();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].code, "SC202");
        assert_eq!(report[1].code, "SC205");
    }

    #[test]
    fn unknown_span_sorts_first_and_renders_bare() {
        let mut sink = DiagnosticSink::new();
        sink.push(d("SC205", 1, 1));
        sink.push(Diagnostic::error(Source::Chart, "SC201", "chart is empty"));
        let report = sink.finish();
        assert_eq!(report[0].code, "SC201");
        assert_eq!(report[0].render(), "error[SC201]: chart is empty");
    }

    #[test]
    fn caret_rendering_underlines_the_span() {
        let src = "chart C\nbadtoken here\n";
        let diag = Diagnostic::error(Source::Chart, "SC101", "unexpected token")
            .with_span(Span::new(Pos::new(2, 1, 8), Pos::new(2, 9, 16)));
        let rendered = diag.render_with_source(src);
        assert!(rendered.contains("badtoken here"));
        assert!(rendered.contains("^^^^^^^^"));
        assert!(!rendered.contains("^^^^^^^^^"));
    }

    #[test]
    fn caret_counts_characters_not_bytes() {
        // The lexers count columns in bytes: `é` is two of them.
        let src = "basicstate A { transition { target B; label \"TICKé\"; } } $";
        let byte_col = src.find('$').unwrap() as u32 + 1;
        let diag = Diagnostic::error(Source::Chart, "SC101", "unexpected character `$`")
            .with_span(Span::point(1, byte_col, byte_col - 1));
        let rendered = diag.render_with_source(src);
        let lines: Vec<&str> = rendered.lines().collect();
        let column = |line: &str, c: char| line.chars().position(|x| x == c).unwrap();
        assert_eq!(column(lines[2], '^'), column(lines[1], '$'), "{rendered}");
    }

    #[test]
    fn errors_sort_before_warnings_at_the_same_span() {
        let mut sink = DiagnosticSink::new();
        sink.warning(Source::Chart, "SC900", Span::point(1, 1, 0), "lint");
        sink.error(Source::Chart, "SC205", Span::point(1, 1, 0), "missing default");
        let report = sink.finish();
        assert_eq!(report[0].severity, Severity::Error);
    }
}
