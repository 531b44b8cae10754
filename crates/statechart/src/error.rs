//! Typed findings of chart construction and parsing, converted to
//! diagnostics by [`crate::diag`].

use std::fmt;

/// Error produced while building or analysing a chart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChartError {
    /// A state name was referenced but never declared or created.
    UnknownState(String),
    /// Two states (or two events, …) share a name.
    DuplicateName(String),
    /// A state is contained in more than one parent.
    MultipleParents(String),
    /// The containment relation has a cycle through the named state.
    ContainmentCycle(String),
    /// An OR-state has no default child.
    MissingDefault(String),
    /// The named default is not a child of the OR-state.
    DefaultNotChild { state: String, default: String },
    /// A basic state was given children.
    BasicWithChildren(String),
    /// A trigger/guard atom could not be resolved to an event or condition.
    UnresolvedAtom(String),
    /// The chart is empty.
    Empty,
}

impl fmt::Display for ChartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChartError::UnknownState(n) => write!(f, "unknown state `{n}`"),
            ChartError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            ChartError::MultipleParents(n) => {
                write!(f, "state `{n}` is contained in more than one parent")
            }
            ChartError::ContainmentCycle(n) => {
                write!(f, "containment cycle through state `{n}`")
            }
            ChartError::MissingDefault(n) => {
                write!(f, "or-state `{n}` has no default child")
            }
            ChartError::DefaultNotChild { state, default } => {
                write!(f, "default `{default}` is not a child of or-state `{state}`")
            }
            ChartError::BasicWithChildren(n) => {
                write!(f, "basic state `{n}` must not contain children")
            }
            ChartError::UnresolvedAtom(n) => {
                write!(f, "label atom `{n}` is neither an event nor a condition")
            }
            ChartError::Empty => write!(f, "chart contains no states"),
        }
    }
}

/// Error produced by the textual-format parser, with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub column: u32,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error at the given position.
    pub fn new(line: u32, column: u32, message: impl Into<String>) -> Self {
        ParseError { line, column, message: message.into() }
    }
}
