//! The benchmark's own checks: order statistics, compare verdicts, the
//! result-file schema, seed determinism, and tiny runs of every workload
//! that must pass their verify step.

use pscp_benchmark::cli::{parse, result_line, Mode};
use pscp_benchmark::compare::{compare, verdict, Verdict, MIN_RUNS};
use pscp_benchmark::record::{
    end_to_end, lookup, per_layer, workloads, Better, Host, Invocation, ResultFile, Value,
    WorkloadResult, SCHEMA,
};
use pscp_benchmark::runner::RunConfig;
use pscp_benchmark::stats::{iq_mean, iqr, median, quantile, quartiles, spread, tail_percentile};
use pscp_benchmark::workloads::run_named;
use pscp_obs::json::{self, JsonValue};

fn smoke(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
    }
}

#[test]
fn median_handles_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn quantile_interpolates_between_closest_ranks() {
    let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(quantile(&ten, 0.0), Some(1.0));
    assert_eq!(quantile(&ten, 1.0), Some(10.0));
    assert_eq!(quantile(&ten, 0.5), median(&ten));
    assert!((quantile(&ten, 0.9).unwrap() - 9.1).abs() < 1e-12);
    assert_eq!(quantile(&[4.0], 0.9), Some(4.0));
    assert_eq!(quantile(&[], 0.9), None);
    assert_eq!(quantile(&ten, 1.5), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(data, n=4), default exclusive method.
    assert_eq!(
        quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
        Some([1.25, 3.5, 5.75])
    );
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[10.0, 12.0]), Some([9.5, 11.0, 12.5]));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(iqr(&ten), Some(5.5));
    assert_eq!(spread(&ten), Some(1.0));
    assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    let samples = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64).collect() };
    assert_eq!(tail_percentile(&samples(1000), 0.99), Some(989.0));
    assert_eq!(tail_percentile(&samples(999), 0.99), None);
    assert_eq!(tail_percentile(&samples(20), 0.5), Some(9.0));
    assert_eq!(tail_percentile(&samples(19), 0.5), None);
}

#[test]
fn interquartile_mean_ignores_outliers() {
    let mut v = vec![10.0; 8];
    v.extend([1e9, 0.0]);
    assert_eq!(iq_mean(&v), Some(10.0));
    assert_eq!(iq_mean(&[7.0]), Some(7.0));
    assert_eq!(iq_mean(&[]), None);
}

#[test]
fn verdicts_follow_the_pair_and_noise_rule() {
    let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
    let faster: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
    let slower: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
    assert_eq!(
        verdict(&base, &faster, Better::Higher, Some(0.1)),
        Verdict::Improved
    );
    assert_eq!(
        verdict(&base, &slower, Better::Higher, Some(0.1)),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(&base, &slower, Better::Lower, Some(0.1)),
        Verdict::Improved
    );
    assert_eq!(
        verdict(&base, &base, Better::Higher, Some(0.1)),
        Verdict::Unchanged
    );

    // Winning 9 of 10 pairs is not enough when the medians sit within
    // the parent's own interquartile distance.
    let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 10.0 * f64::from(i)).collect();
    let nudged: Vec<f64> = noisy.iter().map(|x| x + 1.0).collect();
    assert_eq!(
        verdict(&noisy, &nudged, Better::Higher, Some(1.0)),
        Verdict::Unchanged
    );

    // 8 wins of 10 is not 9 of 10.
    let mut mostly = faster.clone();
    mostly[0] = base[0] * 0.5;
    mostly[1] = base[1] * 0.5;
    assert_ne!(
        verdict(&base, &mostly, Better::Higher, Some(0.5)),
        Verdict::Improved
    );

    // A median worse by more than the bound regresses even when the
    // pairs split.
    let split: Vec<f64> = (0..10)
        .map(|i| if i % 2 == 0 { 60.0 } else { 101.0 })
        .collect();
    assert_eq!(
        verdict(&base, &split, Better::Higher, Some(0.1)),
        Verdict::Regressed
    );

    // A spread wider than the bound leaves the metric unresolved.
    assert_eq!(
        verdict(&noisy, &nudged, Better::Higher, Some(0.1)),
        Verdict::Unresolved
    );
}

fn workload(name: &str, ops: f64, cycles: u64) -> WorkloadResult {
    let mut w = WorkloadResult {
        workload: name.into(),
        correct: true,
        attempted: 1,
        ..WorkloadResult::default()
    };
    w.metrics
        .insert("ops_per_s".into(), Value::new(ops, "1/s", 5));
    w.exact.insert("sim.config_cycles".into(), cycles);
    w
}

fn file(runs: usize, ops: impl Fn(u64) -> f64, cycles: u64) -> ResultFile {
    ResultFile {
        invocations: (0..runs as u64)
            .map(|seed| Invocation {
                seed,
                seconds: 10,
                host: Host::default(),
                workloads: vec![workload("cosim_plant", ops(seed), cycles)],
                ..Invocation::default()
            })
            .collect(),
    }
}

#[test]
fn compare_reports_verdicts_and_behaviour_changes() {
    let parent = file(MIN_RUNS, |s| 100.0 + s as f64 % 2.0, 7);
    let change = file(MIN_RUNS, |s| 130.0 + s as f64 % 2.0, 7);
    let c = compare(&parent, &change).expect("ten runs a side");
    assert_eq!(c.rows.len(), 1);
    assert_eq!(
        (c.rows[0].metric.as_str(), c.rows[0].verdict),
        ("ops_per_s", Verdict::Improved)
    );
    assert!(c.behaviour_changes.is_empty());

    let changed =
        compare(&parent, &file(MIN_RUNS, |s| 100.0 + s as f64 % 2.0, 8)).expect("ten runs a side");
    assert_eq!(changed.rows[0].verdict, Verdict::Unchanged);
    assert_eq!(
        changed.behaviour_changes,
        vec![(
            "cosim_plant".to_string(),
            "exact sim.config_cycles".to_string()
        )]
    );

    assert!(compare(&parent, &file(MIN_RUNS - 1, |_| 1.0, 7)).is_err());
}

#[test]
fn compare_pairs_runs_by_seed() {
    // The parent ran every seed twice, the change each seed once: every
    // change run pairs with the parent's first run of its seed.
    let once = file(MIN_RUNS, |s| 100.0 + s as f64, 7);
    let mut twice = once.clone();
    twice.invocations.extend(once.invocations.clone());
    twice.invocations.sort_by_key(|i| i.seed);
    let mut change = once.clone();
    change.invocations[MIN_RUNS - 1].workloads[0]
        .exact
        .insert("sim.config_cycles".into(), 8);
    let c = compare(&twice, &change).expect("ten seed-matched pairs");
    assert_eq!(
        (c.rows[0].pairs, c.rows[0].verdict),
        (MIN_RUNS, Verdict::Unchanged)
    );
    assert_eq!(
        c.behaviour_changes,
        vec![(
            "cosim_plant".to_string(),
            "exact sim.config_cycles".to_string()
        )]
    );

    // Ten runs a side that share only half their seeds pair too few.
    let mut shifted = once.clone();
    for inv in &mut shifted.invocations {
        inv.seed += MIN_RUNS as u64 / 2;
    }
    assert!(compare(&once, &shifted).is_err());
}

#[test]
fn lookup_finds_end_to_end_metrics_only() {
    for def in end_to_end() {
        assert_eq!(lookup(&def.name), Some(def));
    }
    assert_eq!(
        lookup("serve.p99_us").map(|d| d.better),
        Some(Better::Lower)
    );
    for def in per_layer() {
        assert!(lookup(&def.name).is_none(), "{}", def.name);
    }
}

#[test]
fn result_files_round_trip_and_refuse_other_schemas() {
    let mut f = file(2, |s| 1.5 + s as f64, 3);
    f.invocations[0].workloads[0]
        .reps
        .insert("ops_per_s".into(), vec![1.0, 2.5]);
    f.invocations[0].workloads[0]
        .layers
        .insert("stage.parse_us".into(), Value::new(12.25, "us", 40));
    let text = f.to_json();
    assert_eq!(ResultFile::from_json(&text), Ok(f));
    let other = text.replacen(&format!("\"schema\": {SCHEMA}"), "\"schema\": 999", 1);
    assert!(ResultFile::from_json(&other).is_err());
}

#[test]
fn merged_processes_take_medians_and_add_counts() {
    let part = |ops: f64, cycles: u64| {
        let mut w = workload("cosim_plant", ops, cycles);
        w.reps.insert("ops_per_s".into(), vec![ops]);
        w
    };
    let merged = WorkloadResult::merge(vec![part(3.0, 7), part(1.0, 7), part(2.0, 7)]);
    assert!(merged.correct, "{:?}", merged.problems);
    assert_eq!(merged.metrics["ops_per_s"], Value::new(2.0, "1/s", 15));
    assert_eq!(merged.reps["ops_per_s"], [3.0, 1.0, 2.0]);
    assert_eq!(merged.attempted, 3);

    // Processes of one seed that simulate differently make it incorrect.
    let split = WorkloadResult::merge(vec![part(1.0, 7), part(1.0, 8)]);
    assert!(!split.correct);
    assert_eq!(split.problems.len(), 1);
}

#[test]
fn result_line_carries_exactly_the_four_keys() {
    let mut w = workload("dse_beam2", 90.5, 1);
    for def in end_to_end() {
        w.metrics
            .entry(def.name.clone())
            .or_insert(Value::new(2.0, &def.unit, 1));
    }
    let v = json::parse(&result_line(&w, false)).expect("valid JSON");
    let JsonValue::Object(top) = &v else {
        panic!("an object")
    };
    assert_eq!(
        top.keys().collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
    let JsonValue::Object(metrics) = v.get("metrics").expect("metrics") else {
        panic!("an object")
    };
    assert_eq!(metrics.len(), end_to_end().len());
    for def in end_to_end() {
        let m = &metrics[&def.name];
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(def.unit.as_str())
        );
        assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
    }
    // A traced line without its layer metrics is not correct.
    let traced = json::parse(&result_line(&w, true)).expect("valid JSON");
    assert_eq!(traced.get("correct"), Some(&JsonValue::Bool(false)));
}

#[test]
fn the_command_line_takes_the_run_arguments() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let Ok(Mode::Run(run)) = parse(&args(
        "--workload serve_mix --seed 7 --seconds 10 --trace 0",
    )) else {
        panic!("a run")
    };
    assert_eq!(
        (run.workloads, run.seed, run.seconds, run.trace),
        (vec!["serve_mix".to_string()], 7, 10, false)
    );
    let Ok(Mode::Run(run)) = parse(&args("--trace --smoke")) else {
        panic!("a run")
    };
    assert!(run.trace && run.smoke);
    assert_eq!(run.workloads, workloads());
    assert!(parse(&args("--workload nonesuch")).is_err());
    assert!(parse(&args("--seconds 0")).is_err());
    assert!(matches!(
        parse(&args("--compare a.json b.json")),
        Ok(Mode::Compare(..))
    ));
}

/// Every workload, tiny: it must verify, the same seed must give the
/// same inputs and outputs, and another seed other inputs wherever the
/// workload takes any from the seed.
#[test]
fn smoke_runs_verify_and_are_seed_deterministic() {
    for name in workloads() {
        let a = run_named(name, &smoke(7, false)).expect("a workload");
        assert!(a.correct, "{name}: {:?}", a.problems);
        assert_eq!(a.failed, 0, "{name}");
        for def in end_to_end() {
            assert!(a.metrics[&def.name].value > 0.0, "{name}: {}", def.name);
        }
        let b = run_named(name, &smoke(7, false)).expect("a workload");
        assert_eq!(
            (&a.inputs_digest, &a.verify_digest, &a.exact),
            (&b.inputs_digest, &b.verify_digest, &b.exact)
        );
        let other = run_named(name, &smoke(8, false)).expect("a workload");
        let seeded = !matches!(name.as_str(), "dse_beam2" | "explore_wide");
        assert_eq!(other.inputs_digest != a.inputs_digest, seeded, "{name}");
    }
}

#[test]
fn traced_smoke_runs_report_every_layer_metric() {
    for name in workloads() {
        let r = run_named(name, &smoke(3, true)).expect("a workload");
        assert!(r.correct, "{name}: {:?}", r.problems);
        for def in per_layer() {
            assert!(
                r.layers.get(&def.name).is_some_and(|v| v.value.is_finite()),
                "{name}: {}",
                def.name
            );
        }
        let trace = std::fs::read_to_string(format!("target/bench/trace-{name}.json"))
            .expect("a trace file");
        assert!(json::parse(&trace).is_ok(), "{name}: trace is JSON");
    }
}
