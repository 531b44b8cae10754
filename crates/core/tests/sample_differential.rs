//! Differential harness for scripted sampling by event id: a
//! [`ScriptedEnvironment`] sampled through its own
//! [`Environment::sample_event_ids`] must be byte-identical to the same
//! script sampled by name.
//!
//! The oracle is [`ByName`], a forwarding wrapper that keeps the
//! default `sample_event_ids`, so the machine resolves every name
//! `sample_events` returns against the chart's name table. The subject
//! is the bare environment, whose override hands each row over as ids
//! resolved once per name table. Scripts mix names the chart does not
//! declare, names repeated within a row and empty rows, and runs
//! outlast them. Reports, statistics, clock, faults, port writes and
//! the remaining script must match, at one and two workers, for the
//! default environment, and when one environment (or its clone) is
//! sampled by machines over two systems that number the same names
//! differently.

use pscp_core::arch::PscpArch;
use pscp_core::compile::{compile_system, CompiledSystem};
use pscp_core::machine::{
    CycleReport, Environment, MachineError, PscpMachine, ScriptedEnvironment,
};
use pscp_core::pool::{BatchOptions, BatchOutcome, SimPool};
use pscp_statechart::model::PortDirection::Output;
use pscp_statechart::{ChartBuilder, StateKind};
use pscp_tep::codegen::CodegenOptions;

/// The oracle: forwards everything but `sample_event_ids`, so sampled
/// names take the default resolution by name.
#[derive(Debug, Clone)]
struct ByName(ScriptedEnvironment);

impl Environment for ByName {
    fn sample_events(&mut self, now: u64) -> Vec<String> {
        self.0.sample_events(now)
    }

    fn port_write(&mut self, address: u16, value: i64, now: u64) {
        self.0.port_write(address, value, now)
    }

    fn quiet_sample(&mut self, now: u64) -> bool {
        self.0.quiet_sample(now)
    }
}

/// Output port the routines write (must match the `OUT` data port).
const OUT_ADDR: u16 = 0x20;

/// A three-state chart over `TICK`, `PING` and `GO`, declared in the
/// order given, so two systems can number the same names differently.
/// Every transition writes its own value to `OUT`.
fn system(events: [&str; 3]) -> CompiledSystem {
    let mut b = ChartBuilder::new("ids");
    for e in events {
        b.event(e, None);
    }
    b.data_port("OUT", 16, OUT_ADDR, Output);
    b.state("Top", StateKind::Or).contains(["Idle", "Busy", "Done"]).default_child("Idle");
    b.state("Idle", StateKind::Basic).transition("Busy", "TICK/Put(1)");
    b.state("Busy", StateKind::Basic)
        .transition("Idle", "PING/Put(2)")
        .transition("Done", "GO and not PING/Put(3)");
    b.state("Done", StateKind::Basic).transition("Idle", "TICK/Put(4)");
    let actions = "void Put(int:16 k) { OUT = k; }";
    compile_system(
        &b.build().unwrap(),
        actions,
        &PscpArch::dual_md16(true),
        &CodegenOptions::default(),
    )
    .unwrap()
}

/// Seeded scripts of 0–39 rows: each row holds up to four names drawn
/// from the declared events, two undeclared names (one differs from a
/// declared name only in case) and repeats, and about a third of the
/// rows are empty.
fn scripts(n: usize) -> Vec<ScriptedEnvironment> {
    const VOCAB: [&str; 5] = ["TICK", "PING", "GO", "NOPE", "tick"];
    let mut seed = 0x1d5_u64;
    let mut next = move |m: u64| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) % m
    };
    (0..n)
        .map(|_| {
            let rows = next(40) as usize;
            let script: Vec<Vec<&str>> = (0..rows)
                .map(|_| {
                    let len = next(6).saturating_sub(1);
                    (0..len).map(|_| VOCAB[next(VOCAB.len() as u64) as usize]).collect()
                })
                .collect();
            ScriptedEnvironment::new(script)
        })
        .collect()
}

fn same_env(got: &ScriptedEnvironment, want: &ScriptedEnvironment, at: &str) {
    assert_eq!(got.port_writes, want.port_writes, "{at}: port writes");
    assert_eq!(got.script(), want.script(), "{at}: remaining script");
}

/// Runs `envs` by name on one worker and by id at one and two workers,
/// asserting the outcomes equal; returns the oracle's outcomes.
fn check(
    sys: &CompiledSystem,
    envs: &[ScriptedEnvironment],
    limits: &BatchOptions,
) -> Vec<BatchOutcome<ByName>> {
    let oracle =
        SimPool::with_threads(1).run_batch(sys, envs.iter().cloned().map(ByName).collect(), limits);
    for workers in [1, 2] {
        let got = SimPool::with_threads(workers).run_batch(sys, envs.to_vec(), limits);
        assert_eq!(got.len(), oracle.len());
        for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
            let at = format!("scenario {i}, workers {workers}");
            assert!(g.reports == o.reports, "{at}: reports diverged");
            assert_eq!(g.stats, o.stats, "{at}: stats");
            assert_eq!(g.clock_cycles, o.clock_cycles, "{at}: clock");
            assert_eq!(g.error, o.error, "{at}: fault");
            same_env(&g.env, &o.env.0, &at);
        }
    }
    oracle
}

/// Runs longer than every script, so each scenario also samples past
/// its end.
#[test]
fn seeded_scripts_match_the_by_name_oracle() {
    let sys = system(["TICK", "PING", "GO"]);
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 50 };
    let oracle = check(&sys, &scripts(80), &limits);
    // Every transition fired somewhere, so no comparison is vacuous.
    for t in sys.chart.transition_ids() {
        assert!(
            oracle.iter().any(|o| o.reports.iter().any(|r| r.fired.contains(&t))),
            "transition {t:?} never fired"
        );
    }
}

/// The edge rows on their own: an all-undeclared row, a repeated
/// name, empty rows, a script of only empty rows, an empty script and
/// the default environment, each run past its end.
#[test]
fn edge_scripts_match_the_by_name_oracle() {
    let sys = system(["TICK", "PING", "GO"]);
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 12 };
    let envs = vec![
        ScriptedEnvironment::new([
            vec!["NOPE", "tick"],
            vec!["TICK", "TICK"],
            vec![],
            vec!["GO", "GO", "NOPE"],
        ]),
        ScriptedEnvironment::new([vec!["TICK", "PING", "TICK"], vec![], vec![], vec!["PING"]]),
        ScriptedEnvironment::new(vec![Vec::<String>::new(); 5]),
        ScriptedEnvironment::new(Vec::<Vec<String>>::new()),
        ScriptedEnvironment::default(),
    ];
    check(&sys, &envs, &limits);
    assert_eq!(ScriptedEnvironment::default().script(), Vec::<Vec<String>>::new());
}

/// Which of two systems a step runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Leg {
    A,
    B,
}

type Steps = Vec<(Leg, Result<CycleReport, MachineError>)>;

/// Steps a machine over `a` and one over `b` on `env` and its clone
/// as `plan` says: `(leg, cycles, on_clone)`. The clone is taken
/// before the first step on it, so it carries whatever `env` resolved.
/// Returns every step's system and result, and both environments.
fn replay<E: Environment + Clone>(
    a: &CompiledSystem,
    b: &CompiledSystem,
    env: E,
    plan: &[(Leg, usize, bool)],
) -> (Steps, E, Option<E>) {
    let (mut ma, mut mb) = (PscpMachine::new(a), PscpMachine::new(b));
    let (mut env, mut twin) = (env, None);
    let mut out = Vec::new();
    for &(leg, cycles, on_clone) in plan {
        let m = match leg {
            Leg::A => &mut ma,
            Leg::B => &mut mb,
        };
        let e = if on_clone { twin.get_or_insert_with(|| env.clone()) } else { &mut env };
        for _ in 0..cycles {
            out.push((leg, m.step(e)));
        }
    }
    (out, env, twin)
}

/// One environment sampled by machines over two systems that number
/// `TICK`, `PING` and `GO` differently: in alternation, and through a
/// clone taken after the original resolved its names on the first
/// system.
#[test]
fn one_script_sampled_against_two_numberings() {
    let a = system(["TICK", "PING", "GO"]);
    let b = system(["GO", "TICK", "PING"]);
    let id = |sys: &CompiledSystem, name: &str| sys.chart.event_by_name(name).unwrap();
    assert!(["TICK", "PING", "GO"].iter().all(|n| id(&a, n) != id(&b, n)));
    let alternating: Vec<(Leg, usize, bool)> =
        (0..40).map(|k| (if k % 2 == 0 { Leg::A } else { Leg::B }, 1, false)).collect();
    let cloned = [(Leg::A, 6, false), (Leg::B, 20, true), (Leg::A, 20, false)];
    let mut fired_on_b = false;
    for (i, script) in scripts(40).into_iter().enumerate() {
        for (p, plan) in [&alternating[..], &cloned[..]].into_iter().enumerate() {
            let at = format!("script {i}, plan {p}");
            let (got, env, twin) = replay(&a, &b, script.clone(), plan);
            let (want, oracle, oracle_twin) = replay(&a, &b, ByName(script.clone()), plan);
            assert_eq!(got, want, "{at}: reports");
            same_env(&env, &oracle.0, &at);
            assert_eq!(twin.is_some(), oracle_twin.is_some());
            if let (Some(t), Some(o)) = (twin, oracle_twin) {
                same_env(&t, &o.0, &format!("{at}, clone"));
            }
            fired_on_b |= want
                .iter()
                .any(|(leg, r)| *leg == Leg::B && r.as_ref().is_ok_and(|r| !r.fired.is_empty()));
        }
    }
    assert!(fired_on_b, "the second system never fired");
}
