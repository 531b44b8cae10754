//! Property-based differential test for incremental timing
//! revalidation: for random small charts and random cost
//! perturbations, [`TimingGraph::revalidate`] must produce
//! byte-identical `TimingReport`s to a fresh full evaluation and to
//! the reference §4 DFS walk (`validate_timing_full`).

use proptest::prelude::*;
use pscp_core::arch::PscpArch;
use pscp_core::compile::compile_system;
use pscp_core::timing::{validate_timing, validate_timing_full, TimingGraph, TimingOptions};
use pscp_statechart::{Chart, ChartBuilder, StateKind};
use pscp_tep::codegen::CodegenOptions;

/// A random chart shape: a root OR holding an AND block (two OR
/// regions of leaves) plus a few extra top-level basic states, with
/// costed transitions inside each sibling group. Costs are the only
/// thing the two charts of a test case differ in.
#[derive(Debug, Clone)]
struct Spec {
    region_a: usize,
    region_b: usize,
    extra: usize,
    /// (group, from, to, on E?) — indices folded into the group.
    edges: Vec<(usize, usize, usize, bool)>,
    period: u64,
    dual_tep: bool,
}

fn build(spec: &Spec, costs: &[u16]) -> Chart {
    let mut b = ChartBuilder::new("rnd");
    b.event("E", Some(spec.period));
    b.event("GO", None);

    let a_names: Vec<String> = (0..spec.region_a).map(|i| format!("A{i}")).collect();
    let b_names: Vec<String> = (0..spec.region_b).map(|i| format!("B{i}")).collect();
    let x_names: Vec<String> = (0..spec.extra).map(|i| format!("X{i}")).collect();

    let mut top: Vec<&str> = vec!["Block"];
    top.extend(x_names.iter().map(String::as_str));
    b.state("Top", StateKind::Or).contains(top).default_child("Block");
    b.state("Block", StateKind::And).contains(["RA", "RB"]);
    b.state("RA", StateKind::Or)
        .contains(a_names.iter().map(String::as_str))
        .default_child(a_names[0].clone());
    b.state("RB", StateKind::Or)
        .contains(b_names.iter().map(String::as_str))
        .default_child(b_names[0].clone());

    // (target, trigger, cost) rows per declared state.
    type Edges = Vec<(String, String, u64)>;
    let groups: [&[String]; 3] = [&a_names, &b_names, &x_names];
    let mut decls: Vec<(String, Edges)> = Vec::new();
    for name in a_names.iter().chain(&b_names).chain(&x_names) {
        decls.push((name.clone(), Vec::new()));
    }
    for (k, &(g, from, to, on_e)) in spec.edges.iter().enumerate() {
        let group = groups[g % groups.len()];
        if group.is_empty() {
            continue;
        }
        let src = &group[from % group.len()];
        let dst = &group[to % group.len()];
        let trigger = if on_e { "E" } else { "GO" };
        let cost = costs[k % costs.len()] as u64;
        let row = decls.iter_mut().find(|(n, _)| n == src).unwrap();
        row.1.push((dst.clone(), trigger.to_string(), cost));
    }
    for (name, transitions) in decls {
        let mut st = b.state(name, StateKind::Basic);
        for (dst, trigger, cost) in transitions {
            st.transition_costed(dst, &trigger, cost);
        }
    }
    b.build().unwrap()
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        2usize..=3,
        2usize..=3,
        0usize..=2,
        proptest::collection::vec(
            (0usize..3, 0usize..8, 0usize..8, any::<bool>()),
            1..=10,
        ),
        prop_oneof![Just(50u64), Just(400), Just(2000)],
        any::<bool>(),
    )
        .prop_map(|(region_a, region_b, extra, edges, period, dual_tep)| Spec {
            region_a,
            region_b,
            extra,
            edges,
            period,
            dual_tep,
        })
}

fn costs_vec(n: usize) -> impl Strategy<Value = Vec<u16>> {
    proptest::collection::vec(0u16..500, n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_is_byte_identical_to_full(
        s in spec(),
        base_costs in costs_vec(10),
        new_costs in costs_vec(10),
    ) {
        let arch = if s.dual_tep {
            PscpArch::dual_md16(false)
        } else {
            PscpArch::md16_unoptimized()
        };
        let options = TimingOptions::default();

        // Same structure, different explicit costs: the second chart is
        // what a DSE candidate's cost table looks like to the graph.
        let chart1 = build(&s, &base_costs);
        let chart2 = build(&s, &new_costs);
        let sys1 = compile_system(&chart1, "", &arch, &CodegenOptions::default()).unwrap();
        let sys2 = compile_system(&chart2, "", &arch, &CodegenOptions::default()).unwrap();

        let explicit = |sys: &pscp_core::CompiledSystem| -> Vec<u64> {
            sys.chart
                .transition_ids()
                .map(|t| sys.chart.transition(t).explicit_cost.unwrap_or(0))
                .collect()
        };

        let graph = TimingGraph::build(&sys1, &options);
        prop_assert!(graph.matches(&sys2, &options), "same structure, same graph");

        let base = graph.evaluate(explicit(&sys1), arch.n_teps);
        let incremental = graph.revalidate(&base, explicit(&sys2), arch.n_teps);
        let fresh = graph.evaluate(explicit(&sys2), arch.n_teps);
        prop_assert_eq!(&incremental, &fresh, "eval state diverged");

        // Equality of the reports, against both the fresh graph
        // evaluation and the reference DFS walk.
        let inc_report = graph.report(&incremental);
        let full_report = validate_timing_full(&sys2, &options);
        prop_assert_eq!(&inc_report, &full_report, "reports diverged");
        prop_assert_eq!(
            &validate_timing(&sys2, &options),
            &full_report,
            "validate_timing diverged from reference walk"
        );
    }

    #[test]
    fn graph_path_matches_reference_on_random_charts(
        s in spec(),
        costs in costs_vec(10),
    ) {
        let arch = if s.dual_tep {
            PscpArch::dual_md16(false)
        } else {
            PscpArch::md16_unoptimized()
        };
        let options = TimingOptions::default();
        let chart = build(&s, &costs);
        let sys = compile_system(&chart, "", &arch, &CodegenOptions::default()).unwrap();
        prop_assert_eq!(validate_timing(&sys, &options), validate_timing_full(&sys, &options));
    }
}
