//! The extended-C action language of the PSCP flow.
//!
//! §2 of the paper introduces "C as notation for the action parts of
//! transition labels", with two deviations from plain C: declarations of
//! the form `int:16` give exact bit widths, and constants such as
//! `B:001011` specify binary values of known width. Careful range
//! specification "helps the ASIP generator to select an optimal
//! architecture". Function calls are allowed; recursion is not.
//!
//! The C code plays two roles (Fig. 2b): *configuration* — `enum`,
//! `struct` and port declarations that are never executed but drive the
//! generation of the hardware port architecture — and *action routines*
//! written by the designers, which become the executable modules.
//!
//! This crate implements the complete front and middle end:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — syntax;
//! * [`types`] — bit-width scalar types, enums, structs;
//! * [`sema`] — symbol resolution, type checking, call-graph construction
//!   and the recursion ban;
//! * [`ir`] / [`lower`] — a three-address intermediate representation and
//!   AST→IR lowering (the "assembler-level representation is mostly used
//!   to analyze the data-path requirements" — the IR is where those
//!   requirements are read off);
//! * [`interp`] — a reference interpreter used to cross-check the TEP
//!   code generator.
//!
//! Interaction with the statechart: routines may read/write external
//! *data ports*, assign chart *conditions* (`XFINISH = 1;`), and `raise`
//! chart *events*. These chart symbols are either declared in-source
//! (`event END_MOVE;`, `condition XFINISH;`, `port Buffer : 8 @ 0x1CF;`)
//! or injected via [`sema::ProgramEnv`].
//!
//! # Example
//!
//! ```
//! use pscp_action_lang::{compile_with_env, ProgramEnv};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     condition XFINISH;
//!     int:16 total;
//!
//!     void SetDone(int:16 n) {
//!         total = total + n * 2;
//!         if (total > 100) { XFINISH = 1; }
//!     }
//! "#;
//! let program = compile_with_env(src, &ProgramEnv::default())?;
//! assert!(program.function("SetDone").is_some());
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod diag;
pub mod error;
pub mod interp;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod sema;
pub mod types;

pub use error::Span;
pub use ir::{Function, Program};
pub use sema::ProgramEnv;

use pscp_diag::{Diagnostic, DiagnosticSink};

/// Compiles action-language source against a chart environment that
/// supplies externally-declared events, conditions and data ports
/// (`&ProgramEnv::default()` when there is no chart).
///
/// # Errors
///
/// Returns the first lexical, syntactic or semantic error in emission
/// order (codes `AL101`/`AL201`/`AL301`).
pub fn compile_with_env(source: &str, env: &ProgramEnv) -> Result<Program, Diagnostic> {
    let mut sink = DiagnosticSink::new();
    let program = compile_diag(source, env, &mut sink);
    sink.into_result(program)
}

/// Compiles with error recovery: every lexical, syntactic and semantic
/// problem found is accumulated into `sink` (stable codes `AL101` /
/// `AL201` / `AL301`) instead of stopping at the first. Returns the
/// program only when this compile added no errors to the sink.
pub fn compile_diag(
    source: &str,
    env: &ProgramEnv,
    sink: &mut DiagnosticSink,
) -> Option<Program> {
    let mut em = diag::Emitter::new(sink);
    let items = parser::parse_into(source, &mut em);
    let checked = sema::analyze_into(&items, env, &mut em)?;
    // A recovered-but-broken token stream or item list can still reach
    // here shaped well enough to analyze; never lower it.
    if em.errored() {
        return None;
    }
    Some(lower::lower(&checked))
}

/// Syntax-checks only (lex + parse), accumulating every error into
/// `sink`. For callers that have no chart environment (so semantic
/// analysis would produce spurious unknown-name findings) but still
/// want the action text's syntax covered by the same report.
pub fn syntax_check_diag(source: &str, sink: &mut DiagnosticSink) {
    let mut em = diag::Emitter::new(sink);
    let _ = parser::parse_into(source, &mut em);
}
