//! Multi-page chart composition (`@` connectors): the top-level page
//! references the motion page by name, exactly like Fig. 6 references
//! Fig. 5 via `@MoveX` / `@MoveY` / `@MOVE_PHI`.

use pscp::core::diag::{Diagnostic, DiagnosticSink};
use pscp::statechart::parse::{parse_chart, parse_chart_pages};
use pscp::statechart::semantics::{ActionEffects, Executor};
use pscp::statechart::Chart;

/// Parses `pages` into one chart, failing with the first error.
fn parse_pages(pages: &[&str]) -> Result<Chart, Diagnostic> {
    let mut sink = DiagnosticSink::new();
    let chart = parse_chart_pages(pages, &mut sink);
    sink.into_result(chart)
}

const TOP_PAGE: &str = r#"
    chart TwoPage;
    event GO;
    event DONE_EV;
    orstate Main {
        contains Idle, Motion;
        default Idle;
    }
    basicstate Idle {
        transition { target Motion; label "GO"; }
    }
    // Off-page connector: Motion is defined on the second page.
    orstate Motion {
        reference;
        transition { target Idle; label "DONE_EV"; }
    }
"#;

const MOTION_PAGE: &str = r#"
    event STEP;
    orstate Motion {
        contains Ramp, Cruise;
        default Ramp;
    }
    basicstate Ramp {
        transition { target Cruise; label "STEP"; }
    }
    basicstate Cruise {
        transition { target Ramp; label "STEP"; }
    }
"#;

#[test]
fn pages_compose_into_one_chart() {
    let chart = parse_pages(&[TOP_PAGE, MOTION_PAGE]).unwrap();
    assert_eq!(chart.name(), "TwoPage");
    // Page-2 states are children of the page-2 Motion definition...
    let motion = chart.state_by_name("Motion").unwrap();
    assert_eq!(chart.state(motion).children.len(), 2);
    // ...but wait: both pages declared `Motion`.
    // Composition resolved it because page 1 marked it `reference;`.
    assert!(chart.state_by_name("Ramp").is_some());
    // Events from both pages merged.
    assert!(chart.event_by_name("GO").is_some());
    assert!(chart.event_by_name("STEP").is_some());
}

#[test]
fn composed_chart_executes_across_pages() {
    let chart = parse_pages(&[TOP_PAGE, MOTION_PAGE]).unwrap();
    let mut e = Executor::new(&chart);
    let no_fx = |_: &pscp::statechart::model::ActionCall| ActionEffects::default();
    e.step_named(["GO"], no_fx);
    assert!(e.configuration().is_active(chart.state_by_name("Ramp").unwrap()));
    e.step_named(["STEP"], no_fx);
    assert!(e.configuration().is_active(chart.state_by_name("Cruise").unwrap()));
    e.step_named(["DONE_EV"], no_fx);
    assert!(e.configuration().is_active(chart.state_by_name("Idle").unwrap()));
}

#[test]
fn page_errors_carry_page_index() {
    let err = parse_pages(&[TOP_PAGE, "orstate X {"]).unwrap_err();
    assert_eq!(err.code, "SC101");
    assert!(err.message.starts_with("page 1: "), "{err}");
    // A single page has no index to name.
    let err = parse_chart("orstate X {").unwrap_err();
    assert_eq!(err.code, "SC101");
    assert!(!err.message.starts_with("page"), "{err}");
}

#[test]
fn pickup_head_splits_into_fig6_and_fig5_pages() {
    // The shipped asset splits at the motion region — exactly the
    // Fig. 6 (top page) / Fig. 5 (motion page) boundary of the paper.
    let src = pscp::motors::PICKUP_HEAD_SOURCE;
    let cut = src.find("orstate ReachPosition").expect("motion region present");
    let (top_page, motion_page) = src.split_at(cut);
    let composed = parse_pages(&[top_page, motion_page]).unwrap();
    assert_eq!(composed, pscp::motors::pickup_head_chart());
}

#[test]
fn single_page_behaviour_unchanged() {
    let single = format!("{TOP_PAGE}\n{MOTION_PAGE}");
    let via_pages = parse_pages(&[TOP_PAGE, MOTION_PAGE]).unwrap();
    let via_concat = parse_chart(&single).unwrap();
    assert_eq!(via_pages, via_concat);
}
