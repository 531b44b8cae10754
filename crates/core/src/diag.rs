//! Hosts the whole-pipeline [`compile_sources`] entry point on the
//! shared [`pscp_diag`] model.
//!
//! Stable system codes: `PS401` (unknown routine in a label), `PS402`
//! (unresolvable label argument), `PS403` (label arity mismatch),
//! `PS404` (TEP storage budget exceeded). Action-language errors keep
//! their own `ALxxx` codes; chart errors their `SCxxx` codes — one
//! report, three provenances.

use crate::arch::PscpArch;
use crate::compile::{chart_env, compile_system_collect, CompiledSystem, SystemArtifacts};

// Public re-exports so downstream crates (the `pscp-serve` binary,
// tools) can drive `compile_sources` through this one module.
pub use pscp_diag::{render_report, Diagnostic, DiagnosticSink, Severity, Source, Span};
pub use pscp_tep::codegen::CodegenOptions;

/// Compiles a full system from chart and action sources, accumulating
/// every finding from every layer into `sink`: chart syntax and
/// structure (`SC1xx`/`SC2xx`, plus `SC3xx` lint warnings), action
/// language (`AL1xx`/`AL2xx`/`AL3xx`), label binding
/// (`PS401`..`PS403`) and the TEP storage budget (`PS404`). Returns the
/// compiled system only when this compile added no errors.
///
/// When the chart fails, the action source is still syntax-checked (its
/// semantic pass needs the chart's event/condition/port environment),
/// so one report covers both texts.
pub fn compile_sources(
    chart_source: &str,
    action_source: &str,
    arch: &PscpArch,
    options: &CodegenOptions,
    sink: &mut DiagnosticSink,
) -> Option<CompiledSystem> {
    let errors_at_entry = sink.error_count();
    let Some(chart) = pscp_statechart::parse::parse_chart_pages(&[chart_source], sink) else {
        pscp_action_lang::syntax_check_diag(action_source, sink);
        return None;
    };
    let env = chart_env(&chart);
    let ir = pscp_action_lang::compile_diag(action_source, &env, sink)?;
    let artifacts = SystemArtifacts::build(&chart, arch.encoding);
    let sys = compile_system_collect(&artifacts, &ir, arch, options, None, sink);
    // TEP storage budget: the code generator itself never fails, so the
    // architecture fit is checked here, where it can land in the same
    // report as frontend findings.
    if sys.program.internal_words_used > sys.arch.tep.internal_ram_words {
        sink.push(Diagnostic::error(
            Source::System,
            "PS404",
            format!(
                "TEP storage budget exceeded: internal RAM needs {} words, architecture provides {}",
                sys.program.internal_words_used, sys.arch.tep.internal_ram_words
            ),
        ));
    }
    if sys.program.external_words_used > sys.arch.tep.external_ram_words {
        sink.push(Diagnostic::error(
            Source::System,
            "PS404",
            format!(
                "TEP storage budget exceeded: external RAM needs {} words, architecture provides {}",
                sys.program.external_words_used, sys.arch.tep.external_ram_words
            ),
        ));
    }
    if sink.error_count() > errors_at_entry {
        return None;
    }
    Some(sys)
}
