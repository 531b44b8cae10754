//! The recovering action-language frontend: every error fixture is
//! diagnosed, recovery reports more than the first error, mutilated
//! sources never panic, failures always diagnose, and reports are
//! deterministic and canonically sorted.

use proptest::prelude::*;
use pscp_action_lang::sema::ProgramEnv;
use pscp_action_lang::{compile_diag, compile_with_env};
use pscp_diag::DiagnosticSink;

/// Error-path inputs, one per failure class: lexical, syntactic and
/// semantic.
const ERROR_INPUTS: &[&str] = &[
    // Lex: bad byte, malformed binary literal, unterminated comment.
    "int:16 x = `;",
    "int:16 x = B:;",
    "/* never closed",
    // Parse: missing `;`, missing `)`, stray token, truncated body.
    "void f() { x = 1 }",
    "void f(int:16 a { }",
    "void f() { } }",
    "void f() {",
    // Sema: unknown name, type mismatch, recursion, duplicate
    // definition, unknown callee.
    "void f() { ghost = 1; }",
    "void f() { f(); }",
    "int:16 g; int:16 g;",
    "void f() { h(1); }",
    "int:16 f() { return; }",
];

#[test]
fn every_error_fixture_is_diagnosed() {
    let env = ProgramEnv::default();
    for src in ERROR_INPUTS {
        let mut sink = DiagnosticSink::new();
        assert!(compile_diag(src, &env, &mut sink).is_none(), "fixture must fail: {src:?}");
        assert!(sink.has_errors(), "failed compile carries an error: {src:?}");
        let err = compile_with_env(src, &env).expect_err(&format!("view must fail: {src:?}"));
        assert!(["AL101", "AL201", "AL301"].contains(&err.code.as_str()), "{err}");
    }
}

#[test]
fn recovery_reports_every_phase() {
    // One lexical, one syntactic and two semantic problems in a single
    // source: recovery reports them all.
    let src = "\
        int:16 a = `1;\n\
        void f() { a = b }\n\
        void g() { c = 2; d(); }\n";
    let env = ProgramEnv::default();
    let mut sink = DiagnosticSink::new();
    assert!(compile_diag(src, &env, &mut sink).is_none());
    assert!(
        sink.error_count() >= 3,
        "expected >= 3 recovered errors, got {}: {:?}",
        sink.error_count(),
        sink.emitted()
    );
}

fn action_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("int:16".to_string()),
            Just("uint:8".to_string()),
            Just("void".to_string()),
            Just("enum".to_string()),
            Just("struct".to_string()),
            Just("event".to_string()),
            Just("condition".to_string()),
            Just("port".to_string()),
            Just("raise".to_string()),
            Just("if".to_string()),
            Just("else".to_string()),
            Just("while".to_string()),
            Just("return".to_string()),
            Just("f".to_string()),
            Just("x".to_string()),
            Just("ghost".to_string()),
            Just("(".to_string()),
            Just(")".to_string()),
            Just("{".to_string()),
            Just("}".to_string()),
            Just(";".to_string()),
            Just("=".to_string()),
            Just("+".to_string()),
            Just("*".to_string()),
            Just("42".to_string()),
            Just("B:1010".to_string()),
            Just("B:".to_string()),
            Just("`".to_string()),
            Just("@".to_string()),
        ],
        0..40,
    )
    .prop_map(|toks| toks.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutilated_sources_never_panic_and_always_diagnose(src in action_soup()) {
        let env = ProgramEnv::default();
        let mut sink = DiagnosticSink::new();
        let recovered = compile_diag(&src, &env, &mut sink);

        // A failed compile always yields >= 1 error diagnostic, and a
        // successful one none.
        prop_assert_eq!(recovered.is_none(), sink.has_errors());

        // Deterministic, canonically sorted report.
        let report = sink.finish();
        let mut resorted = report.clone();
        pscp_diag::sort_dedup(&mut resorted);
        prop_assert_eq!(&report, &resorted);

        let mut sink2 = DiagnosticSink::new();
        let _ = compile_diag(&src, &env, &mut sink2);
        prop_assert_eq!(report, sink2.finish());
    }

    #[test]
    fn raw_bytes_never_panic(src in ".{0,160}") {
        let env = ProgramEnv::default();
        let mut sink = DiagnosticSink::new();
        if compile_diag(&src, &env, &mut sink).is_none() {
            prop_assert!(sink.error_count() >= 1);
        }
    }
}
