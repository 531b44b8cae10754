//! The recovering chart frontend: every error fixture is diagnosed,
//! recovery reports more than the first error, randomly mutilated
//! sources never panic, a failed parse always yields at least one error
//! diagnostic, and the finished report is deterministic and canonically
//! sorted.

use proptest::prelude::*;
use pscp_diag::DiagnosticSink;
use pscp_statechart::parse::{parse_chart, parse_chart_pages};

/// Error-path inputs covering the syntax and structural failure
/// classes.
const ERROR_INPUTS: &[&str] = &[
    // Syntax: bad token, missing `;`, truncated declaration.
    "orstate Root { contains A; default A; } @@@",
    "basicstate Off { transition { target On label \"TICK\"; } }",
    "orstate Root { contains",
    "event ;",
    "chart",
    // Structure: unknown default, unresolved atom, duplicate name,
    // basic with children, empty chart.
    "orstate Root { contains A, B; default Zed; } basicstate A {} basicstate B {}",
    "orstate Root { contains A; default A; } basicstate A { transition { target A; label \"NOPE\"; } }",
    "orstate Root { contains A; default A; } basicstate A {} basicstate A {}",
    "basicstate Solo { contains Child; }",
    "",
    // Default names a declared state that is not a child.
    "orstate Root { contains A; default A; } basicstate A {} \
     orstate Half { contains B; default A; } basicstate B {}",
];

#[test]
fn every_error_fixture_is_diagnosed() {
    for src in ERROR_INPUTS {
        let mut sink = DiagnosticSink::new();
        assert!(parse_chart_pages(&[src], &mut sink).is_none(), "fixture must fail: {src:?}");
        assert!(sink.has_errors(), "failed parse carries an error: {src:?}");
        let err = parse_chart(src).expect_err(&format!("fail-fast view must fail: {src:?}"));
        assert!(err.code.starts_with("SC1") || err.code.starts_with("SC2"), "{err}");
    }
}

#[test]
fn recovery_reports_every_syntax_error() {
    // Three independent syntax errors in one source: the recovering
    // parse reports all three.
    let src = "\
        event TICK period 100;\n\
        orstate Root { contains A, B; default A; }\n\
        basicstate A { transition { target B label \"TICK\"; } }\n\
        basicstate B { transition { target A; lbael \"TICK\"; } }\n\
        orstate Spare { contains ; }\n";
    let mut sink = DiagnosticSink::new();
    assert!(parse_chart_pages(&[src], &mut sink).is_none());
    assert!(
        sink.error_count() >= 3,
        "expected >= 3 recovered errors, got {}: {:?}",
        sink.error_count(),
        sink.emitted()
    );
}

fn chart_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("orstate".to_string()),
            Just("basicstate".to_string()),
            Just("andstate".to_string()),
            Just("event".to_string()),
            Just("condition".to_string()),
            Just("port".to_string()),
            Just("contains".to_string()),
            Just("default".to_string()),
            Just("transition".to_string()),
            Just("target".to_string()),
            Just("label".to_string()),
            Just("reference".to_string()),
            Just("history".to_string()),
            Just("Root".to_string()),
            Just("A".to_string()),
            Just("B".to_string()),
            Just("\"TICK\"".to_string()),
            Just("\"TICK/Act(1)\"".to_string()),
            Just("100".to_string()),
            Just("{".to_string()),
            Just("}".to_string()),
            Just(";".to_string()),
            Just(",".to_string()),
            Just("@".to_string()),
            Just("$".to_string()),
        ],
        0..48,
    )
    .prop_map(|toks| toks.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutilated_sources_never_panic_and_always_diagnose(src in chart_soup()) {
        let mut sink = DiagnosticSink::new();
        let recovered = parse_chart_pages(&[&src], &mut sink);

        // A failed parse always yields >= 1 error diagnostic, and a
        // successful one none.
        prop_assert_eq!(recovered.is_none(), sink.has_errors());

        // Deterministic, canonically sorted report.
        let report = sink.finish();
        let mut resorted = report.clone();
        pscp_diag::sort_dedup(&mut resorted);
        prop_assert_eq!(&report, &resorted);

        let mut sink2 = DiagnosticSink::new();
        let _ = parse_chart_pages(&[&src], &mut sink2);
        prop_assert_eq!(report, sink2.finish());
    }

    #[test]
    fn raw_bytes_never_panic(src in ".{0,160}") {
        let mut sink = DiagnosticSink::new();
        if parse_chart_pages(&[&src], &mut sink).is_none() {
            prop_assert!(sink.error_count() >= 1);
        }
    }
}
