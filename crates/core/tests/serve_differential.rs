//! Differential harness for the scenario server: every outcome that
//! crosses the wire must be byte-identical to the same scenario run
//! through an in-process [`SimPool`] — that equivalence is the spec.
//!
//! The test chart exercises the §6 hardware-timer extension (a routine
//! arms a down-counter by port write; expiry raises a chart event), so
//! the differential covers timer state alongside events, conditions
//! and step limits. Random scripts inject external events *and* the
//! timer's expiry event directly, in random interleavings, checked
//! across 1/2/4 shard workers and 1/4/16 concurrent clients.

use proptest::prelude::*;
use pscp_core::arch::{PscpArch, TimerSpec};
use pscp_core::compile::{compile_system, CompiledSystem};
use pscp_core::machine::ScriptedEnvironment;
use pscp_core::pool::{BatchOptions, SimPool};
use pscp_core::serve::{
    self, wire::WireOutcome, ScenarioClient, ServeOptions,
};
use pscp_statechart::{Chart, ChartBuilder, StateKind};
use pscp_tep::codegen::CodegenOptions;
use std::sync::Arc;

/// Timer reload port address (must match the `TLOAD` data port).
const TLOAD_ADDR: u16 = 0x40;

fn timer_chart() -> Chart {
    let mut b = ChartBuilder::new("timed");
    b.event("TICK", Some(400));
    b.event("PING", None);
    // Raised by hardware timer 0 on expiry — and injectable from the
    // script, like any external event.
    b.event("T_EXP", Some(2_000));
    b.condition("OVER", false);
    use pscp_statechart::model::PortDirection::Output;
    b.data_port("TLOAD", 16, TLOAD_ADDR, Output);
    b.state("Top", StateKind::Or)
        .contains(["Idle", "Armed", "Fired", "Done"])
        .default_child("Idle");
    b.state("Idle", StateKind::Basic).transition("Armed", "TICK/Arm(3)");
    b.state("Armed", StateKind::Basic)
        .transition("Fired", "T_EXP/Note(1)")
        .transition("Idle", "PING/Disarm()");
    b.state("Fired", StateKind::Basic)
        .transition("Idle", "TICK [not OVER]/Note(2)")
        .transition("Done", "TICK [OVER]");
    b.basic("Done");
    b.build().unwrap()
}

const TIMER_ACTIONS: &str = r#"
    int:16 fired;
    void Arm(int:16 n) { TLOAD = n; }
    void Disarm() { TLOAD = 0; }
    void Note(int:16 k) { fired = fired + k; OVER = fired >= 6; }
"#;

fn timer_system() -> CompiledSystem {
    let mut arch = PscpArch::dual_md16(true);
    arch.timers.push(TimerSpec {
        name: "t0".into(),
        event: "T_EXP".into(),
        port_address: TLOAD_ADDR,
    });
    compile_system(&timer_chart(), TIMER_ACTIONS, &arch, &CodegenOptions::default())
        .unwrap()
}

/// One random scenario: a script plus its own run limits.
#[derive(Debug, Clone)]
struct Scenario {
    script: Vec<Vec<String>>,
    limits: BatchOptions,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let cycle = prop_oneof![
        Just(Vec::<String>::new()),
        Just(vec!["TICK".to_string()]),
        Just(vec!["PING".to_string()]),
        Just(vec!["T_EXP".to_string()]),
        Just(vec!["TICK".to_string(), "PING".to_string()]),
        Just(vec!["TICK".to_string(), "T_EXP".to_string()]),
    ];
    (proptest::collection::vec(cycle, 0..12), 1u64..=20).prop_map(|(script, max_steps)| {
        Scenario {
            script,
            limits: BatchOptions { deadline: u64::MAX, max_steps },
        }
    })
}

/// The reference bytes: each scenario through an in-process pool with
/// its own limits, canonically encoded.
fn reference_bytes(sys: &CompiledSystem, scenarios: &[Scenario]) -> Vec<Vec<u8>> {
    let pool = SimPool::with_threads(1);
    scenarios
        .iter()
        .map(|s| {
            let out = pool.run_batch(
                sys,
                vec![ScriptedEnvironment::new(s.script.clone())],
                &s.limits,
            );
            WireOutcome::from_batch(&out[0]).encode()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random scenarios with per-scenario limits, submitted over the
    /// wire, must come back byte-identical to the in-process pool —
    /// for every shard-worker count.
    #[test]
    fn server_is_byte_identical_to_pool(
        scenarios in proptest::collection::vec(scenario(), 1..8),
    ) {
        let sys = Arc::new(timer_system());
        let expected = reference_bytes(&sys, &scenarios);
        for workers in [1usize, 2, 4] {
            let opts = ServeOptions { threads: workers, ..ServeOptions::default() };
            let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();
            let mut client = ScenarioClient::connect(server.addr()).unwrap();
            for s in &scenarios {
                client.submit(s.script.clone(), s.limits).unwrap();
            }
            for (i, want) in expected.iter().enumerate() {
                let (seq, got) = client.recv().unwrap();
                prop_assert_eq!(seq, i as u64, "workers={}", workers);
                prop_assert_eq!(
                    &got.encode(),
                    want,
                    "outcome {} diverged with {} workers",
                    i,
                    workers
                );
            }
            drop(client);
            server.stop().unwrap();
        }
    }

    /// Out-of-order interleavings: two clients on one server submit
    /// alternately while receiving at different paces; each still sees
    /// its own outcomes, byte-identical and in submission order.
    #[test]
    fn interleaved_clients_reassemble_their_own_outcomes(
        a in proptest::collection::vec(scenario(), 1..5),
        b_scenarios in proptest::collection::vec(scenario(), 1..5),
        eager_recv in any::<bool>(),
    ) {
        let sys = Arc::new(timer_system());
        let expected_a = reference_bytes(&sys, &a);
        let expected_b = reference_bytes(&sys, &b_scenarios);
        let opts = ServeOptions { threads: 2, ..ServeOptions::default() };
        let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();

        let mut ca = ScenarioClient::connect(server.addr()).unwrap();
        let mut cb = ScenarioClient::connect(server.addr()).unwrap();

        // Interleave submissions; optionally drain A eagerly so its
        // recv pattern differs from B's bulk drain.
        let max = a.len().max(b_scenarios.len());
        let mut got_a = Vec::new();
        for i in 0..max {
            if let Some(s) = a.get(i) {
                ca.submit(s.script.clone(), s.limits).unwrap();
            }
            if let Some(s) = b_scenarios.get(i) {
                cb.submit(s.script.clone(), s.limits).unwrap();
            }
            if eager_recv && got_a.len() < a.len() && i % 2 == 0 {
                got_a.push(ca.recv().unwrap().1.encode());
            }
        }
        while got_a.len() < a.len() {
            got_a.push(ca.recv().unwrap().1.encode());
        }
        let got_b: Vec<_> = (0..b_scenarios.len())
            .map(|_| cb.recv().unwrap().1.encode())
            .collect();

        prop_assert_eq!(got_a, expected_a);
        prop_assert_eq!(got_b, expected_b);
        drop((ca, cb));
        server.stop().unwrap();
    }
}

/// The acceptance pin: 1, 4 and 16 concurrent clients, each streaming
/// its own deterministic scenario mix, all byte-identical to the pool.
#[test]
fn concurrent_clients_1_4_16_are_byte_identical() {
    let sys = Arc::new(timer_system());
    let menu: [&[&str]; 5] =
        [&["TICK"], &["PING"], &["T_EXP"], &["TICK", "T_EXP"], &[]];
    let script_for = |client: usize, i: usize| -> Vec<Vec<String>> {
        (0..4 + (client + i) % 6)
            .map(|step| {
                menu[(client * 5 + i * 3 + step) % menu.len()]
                    .iter()
                    .map(|e| (*e).to_string())
                    .collect()
            })
            .collect()
    };
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 12 };

    for clients in [1usize, 4, 16] {
        let per_client = 6usize;
        let scenarios: Vec<Scenario> = (0..clients)
            .flat_map(|c| {
                (0..per_client).map(move |i| Scenario { script: script_for(c, i), limits })
            })
            .collect();
        let expected = reference_bytes(&sys, &scenarios);

        let opts = ServeOptions { threads: 4, ..ServeOptions::default() };
        let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();
        let addr = server.addr();

        std::thread::scope(|s| {
            for c in 0..clients {
                let expected = &expected;
                let script_for = &script_for;
                s.spawn(move || {
                    let mut client = ScenarioClient::connect(addr).unwrap();
                    let scripts: Vec<_> =
                        (0..per_client).map(|i| script_for(c, i)).collect();
                    let outcomes = client.run_batch(&scripts, limits).unwrap();
                    for (i, out) in outcomes.iter().enumerate() {
                        assert_eq!(
                            out.encode(),
                            expected[c * per_client + i],
                            "client {c} outcome {i} diverged ({clients} clients)"
                        );
                    }
                });
            }
        });
        server.stop().unwrap();
    }
}

/// Batched shards: a worker that pops several queued scenarios at once
/// and runs them one after another on its one machine must produce wire
/// outcomes byte-identical to the in-process pool at every worker count.
/// The client floods submissions so queue depth actually lets workers
/// pop multi-job batches.
#[test]
fn batched_shards_are_byte_identical() {
    let sys = Arc::new(timer_system());
    let menu: [&[&str]; 5] = [&["TICK"], &["PING"], &["T_EXP"], &["TICK", "T_EXP"], &[]];
    let scripts: Vec<Vec<Vec<String>>> = (0..96)
        .map(|i| {
            (0..3 + i % 7)
                .map(|step| {
                    menu[(i * 5 + step * 3) % menu.len()]
                        .iter()
                        .map(|e| (*e).to_string())
                        .collect()
                })
                .collect()
        })
        .collect();
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 14 };
    let scenarios: Vec<Scenario> =
        scripts.iter().map(|s| Scenario { script: s.clone(), limits }).collect();
    let expected = reference_bytes(&sys, &scenarios);

    for workers in [1usize, 2, 4] {
        let opts = ServeOptions { threads: workers, max_window: 128, ..ServeOptions::default() };
        let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", opts).unwrap();
        let mut client = ScenarioClient::connect_with(server.addr(), 128, 0).unwrap();
        let outcomes = client.run_batch(&scripts, limits).unwrap();
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(out.encode(), expected[i], "outcome {i} diverged (workers={workers})");
        }
        drop(client);
        server.stop().unwrap();
    }
}

/// A client pinning the wrong system fingerprint is refused with a
/// typed mismatch error before any scenario runs.
#[test]
fn fingerprint_mismatch_is_refused() {
    let sys = Arc::new(timer_system());
    let right = serve::system_fingerprint(&sys);
    let server =
        serve::spawn(Arc::clone(&sys), "127.0.0.1:0", ServeOptions::default()).unwrap();

    match ScenarioClient::connect_with(server.addr(), 4, right ^ 1) {
        Err(serve::WireError::Remote { code, .. }) => {
            assert_eq!(code, serve::wire::error_code::SYSTEM_MISMATCH);
        }
        other => panic!("expected a typed mismatch refusal, got {other:?}"),
    }

    // The right fingerprint (and the 0 wildcard) still work.
    let mut ok = ScenarioClient::connect_with(server.addr(), 4, right).unwrap();
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 4 };
    ok.submit(vec![vec!["TICK".to_string()]], limits).unwrap();
    ok.recv().unwrap();
    drop(ok);
    server.stop().unwrap();
}

/// An untrusted script interns in time linear in its names: one
/// `Submit` carrying 100 000 distinct names (the chart declares none of
/// them; every seventh row also carries `TICK` or `T_EXP`) completes
/// well inside a fixed bound that scanning the name list once per name
/// would not meet, and its outcome is byte-identical to the in-process
/// pool's, the remaining script included.
#[test]
fn a_script_of_many_distinct_names_is_served_in_linear_time() {
    const ROWS: usize = 1_000;
    const NAMES_PER_ROW: usize = 100;
    let sys = Arc::new(timer_system());
    let script: Vec<Vec<String>> = (0..ROWS)
        .map(|r| {
            let known = ["TICK", "T_EXP"][r / 7 % 2].to_string();
            (0..NAMES_PER_ROW)
                .map(|k| format!("N{}", r * NAMES_PER_ROW + k))
                .chain((r % 7 == 0).then_some(known))
                .collect()
        })
        .collect();
    // The run stops before the script ends, so the outcome carries most
    // of the names back.
    let limits = BatchOptions { deadline: u64::MAX, max_steps: (ROWS - 100) as u64 };
    let scenario = Scenario { script, limits };
    let want = reference_bytes(&sys, std::slice::from_ref(&scenario)).remove(0);

    let server = serve::spawn(Arc::clone(&sys), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = ScenarioClient::connect(server.addr()).unwrap();
    let start = std::time::Instant::now();
    client.submit(scenario.script, limits).unwrap();
    let (seq, got) = client.recv().unwrap();
    let took = start.elapsed();
    assert_eq!(seq, 0);
    assert_eq!(got.encode(), want, "outcome diverged from the pool");
    assert!(got.reports.iter().any(|r| !r.fired.is_empty()), "nothing fired");
    assert!(took < std::time::Duration::from_secs(5), "one submit took {took:?}");
    drop(client);
    server.stop().unwrap();
}
