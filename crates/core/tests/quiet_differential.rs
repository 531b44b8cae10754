//! Differential harness for quiet configuration cycles: a machine that
//! completes quiet cycles without sampling or transition selection
//! ([`Environment::quiet_sample`]) must be byte-identical to one that
//! samples every cycle.
//!
//! The oracle is [`Sampling`], a forwarding wrapper that keeps the
//! default `quiet_sample` (always `false`), so every cycle takes the
//! sampling path. The subject is [`Counted`], a forwarding wrapper that
//! passes `quiet_sample` through and counts the quiet cycles it
//! granted, so no comparison below passes vacuously. Both run the SMD
//! pickup head against the `SmdHead` plant and sparse scripted
//! scenarios on a chart with a hardware timer and a negated internal
//! trigger, at workers {1, 2}. Reports, statistics, clock, faults and
//! everything the environment recorded must match, including when a
//! `done` predicate, a step limit or a deadline ends a scenario in the
//! middle of a quiet stretch.

use pscp_core::arch::{PscpArch, TimerSpec};
use pscp_core::compile::{compile_system, CompiledSystem};
use pscp_core::machine::{CycleReport, Environment, PscpMachine, ScriptedEnvironment};
use pscp_core::pool::{BatchOptions, BatchOutcome, SimPool};
use pscp_motors::head::{Move, SmdHead};
use pscp_motors::{pickup_head_actions, pickup_head_chart};
use pscp_statechart::{Chart, ChartBuilder, StateKind};
use pscp_tep::codegen::CodegenOptions;

/// The oracle: forwards sampling and ports, keeps the default
/// `quiet_sample`, so every cycle samples.
#[derive(Debug, Clone)]
struct Sampling<E>(E);

impl<E: Environment> Environment for Sampling<E> {
    fn sample_events(&mut self, now: u64) -> Vec<String> {
        self.0.sample_events(now)
    }

    fn sample_conditions(&mut self, now: u64) -> Vec<(String, bool)> {
        self.0.sample_conditions(now)
    }

    fn port_read(&mut self, address: u16, now: u64) -> i64 {
        self.0.port_read(address, now)
    }

    fn port_write(&mut self, address: u16, value: i64, now: u64) {
        self.0.port_write(address, value, now)
    }
}

/// The subject: forwards everything, `quiet_sample` included, and
/// counts the quiet samples the environment granted.
#[derive(Debug, Clone)]
struct Counted<E> {
    env: E,
    quiet: u64,
}

impl<E: Environment> Environment for Counted<E> {
    fn sample_events(&mut self, now: u64) -> Vec<String> {
        self.env.sample_events(now)
    }

    fn sample_conditions(&mut self, now: u64) -> Vec<(String, bool)> {
        self.env.sample_conditions(now)
    }

    fn port_read(&mut self, address: u16, now: u64) -> i64 {
        self.env.port_read(address, now)
    }

    fn port_write(&mut self, address: u16, value: i64, now: u64) {
        self.env.port_write(address, value, now)
    }

    fn quiet_sample(&mut self, now: u64) -> bool {
        let quiet = self.env.quiet_sample(now);
        self.quiet += u64::from(quiet);
        quiet
    }
}

/// The worker counts every scenario runs at.
const GRID: [usize; 2] = [1, 2];

type Done<E> = fn(&PscpMachine<'_>, &E, &CycleReport) -> bool;

/// Runs `envs` on the cycle-by-cycle oracle and on the quiet path at
/// every grid point, asserts the outcomes equal with `same_env`
/// comparing what each environment recorded, and returns the oracle's
/// outcomes plus the quiet cycles the subject took at the first grid
/// point.
fn check_grid<E, D>(
    sys: &CompiledSystem,
    envs: &[E],
    limits: &BatchOptions,
    done: D,
    same_env: impl Fn(&E, &E, &str),
) -> (Vec<BatchOutcome<Sampling<E>>>, u64)
where
    E: Environment + Clone + Send,
    D: Fn(&PscpMachine<'_>, &E, &CycleReport) -> bool + Sync,
{
    let oracle = SimPool::with_threads(1).run_batch_until(
        sys,
        envs.iter().cloned().map(Sampling).collect(),
        limits,
        |m, env: &Sampling<E>, r| done(m, &env.0, r),
    );
    let mut quiet_cycles = None;
    for workers in GRID {
        let got = SimPool::with_threads(workers).run_batch_until(
            sys,
            envs.iter().cloned().map(|env| Counted { env, quiet: 0 }).collect(),
            limits,
            |m, env: &Counted<E>, r| done(m, &env.env, r),
        );
        assert_eq!(got.len(), oracle.len());
        for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
            let at = format!("scenario {i}, workers {workers}");
            assert_eq!(g.reports.len(), o.reports.len(), "{at}: cycle count");
            assert!(g.reports == o.reports, "{at}: reports diverged");
            assert_eq!(g.stats, o.stats, "{at}: stats");
            assert_eq!(g.clock_cycles, o.clock_cycles, "{at}: clock");
            assert_eq!(g.error, o.error, "{at}: fault");
            same_env(&g.env.env, &o.env.0, &at);
        }
        quiet_cycles.get_or_insert(got.iter().map(|o| o.env.quiet).sum::<u64>());
    }
    (oracle, quiet_cycles.unwrap_or(0))
}

// --- The SMD pickup head against the plant --------------------------

fn pickup_system() -> CompiledSystem {
    compile_system(
        &pickup_head_chart(),
        &pickup_head_actions(),
        &PscpArch::dual_md16(true),
        &CodegenOptions::default(),
    )
    .expect("pickup head compiles")
}

/// Short seeded moves: a few steps per axis, so a scenario is a few
/// tens of thousands of cycles that are almost all quiet.
fn heads(n: usize) -> Vec<SmdHead> {
    (0..n)
        .map(|i| {
            let moves: Vec<Move> = (0..1 + i % 2)
                .map(|k| Move {
                    x: (1 + (i + k) % 3) as u16,
                    y: (1 + (i * 2 + k) % 3) as u16,
                    phi: ((i * 7 + k * 3) % 12) as u16,
                })
                .collect();
            SmdHead::with_moves(&moves)
        })
        .collect()
}

/// Asserts two heads recorded the same run: STATUS writes, faults,
/// motor positions and pulse counts, then every other field.
fn same_head(got: &SmdHead, want: &SmdHead, at: &str) {
    let view = |h: &SmdHead| {
        let motors = [&h.motor_x, &h.motor_y, &h.motor_phi, &h.motor_z];
        (h.status_writes.clone(), h.faults(), motors.map(|m| (m.position(), m.pulses)), h.stops)
    };
    assert_eq!(view(got), view(want), "{at}: the plant saw a different run");
    assert!(got == want, "{at}: the plant's state diverged");
}

fn idle1(sys: &CompiledSystem) -> pscp_statechart::StateId {
    sys.chart.state_by_name("Idle1").expect("pickup head has Idle1")
}

/// The Fig. 7 co-simulation, each scenario run until the stream is
/// consumed, the motors are idle and the controller is back in Idle1.
#[test]
fn pickup_head_runs_to_completion_identically() {
    let sys = pickup_system();
    let idle1 = idle1(&sys);
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 400_000 };
    let done = |m: &PscpMachine<'_>, head: &SmdHead, _: &CycleReport| {
        head.pending_bytes() == 0
            && head.all_idle()
            && m.executor().configuration().is_active(idle1)
    };
    let (oracle, quiet) = check_grid(&sys, &heads(9), &limits, done, same_head);
    for o in &oracle {
        assert!(o.error.is_none() && o.env.0.pending_bytes() == 0, "scenario completes");
        assert_eq!(o.env.0.missed_pulses(), 0);
    }
    let cycles: usize = oracle.iter().map(|o| o.reports.len()).sum();
    assert!(quiet * 2 > cycles as u64, "only {quiet} of {cycles} cycles were quiet");
}

/// True when the last two cycles of an outcome were idle: the scenario
/// ended inside an idle stretch, not on a firing cycle.
fn ends_mid_stretch<E>(o: &BatchOutcome<E>) -> bool {
    let n = o.reports.len();
    n >= 2 && o.reports[n - 1].fired.is_empty() && o.reports[n - 2].fired.is_empty()
}

/// A `done` predicate reading the clock, a step limit and a deadline,
/// each chosen to end scenarios in the middle of a quiet stretch.
#[test]
fn pickup_head_cuts_mid_stretch_identically() {
    let sys = pickup_system();
    let never: Done<SmdHead> = |_, _, _| false;
    let by_clock: Done<SmdHead> = |m, _, _| m.now() >= 7_777;
    let unlimited = BatchOptions { deadline: u64::MAX, max_steps: 400_000 };
    let cases = [
        ("done reads m.now()", unlimited, by_clock),
        ("max_steps", BatchOptions { deadline: u64::MAX, max_steps: 2_345 }, never),
        ("deadline", BatchOptions { deadline: 9_999, max_steps: 400_000 }, never),
    ];
    for (what, limits, done) in cases {
        let (oracle, quiet) = check_grid(&sys, &heads(5), &limits, done, same_head);
        assert!(quiet > 0, "{what}: no quiet cycle ran");
        for o in &oracle {
            assert!(ends_mid_stretch(o), "{what}: the cut fell on a firing cycle");
        }
    }
}

// --- Sparse scripts on a timer chart --------------------------------

/// Timer reload port address (must match the `TLOAD` data port).
const TLOAD_ADDR: u16 = 0x40;

/// `Arm` loads the hardware timer with enough clock cycles to expire
/// inside an idle stretch; `Kick` raises the internal event `P`, and
/// `Relay` leaves on `not P` — so a cycle that fires nothing while `P`
/// is pending is followed by one that fires, and must not start a quiet
/// stretch.
fn timer_chart() -> Chart {
    let mut b = ChartBuilder::new("quiet_timed");
    b.event("TICK", Some(400));
    b.event("PING", None);
    b.event("T_EXP", Some(2_000));
    b.internal_event("P");
    b.condition("OVER", false);
    use pscp_statechart::model::PortDirection::Output;
    b.data_port("TLOAD", 16, TLOAD_ADDR, Output);
    b.state("Top", StateKind::Or)
        .contains(["Idle", "Armed", "Fired", "Relay", "Done"])
        .default_child("Idle");
    b.state("Idle", StateKind::Basic).transition("Armed", "TICK/Arm(37)");
    b.state("Armed", StateKind::Basic)
        .transition("Fired", "T_EXP/Note(1)")
        .transition("Idle", "PING/Disarm()");
    b.state("Fired", StateKind::Basic)
        .transition("Relay", "TICK [not OVER]/Kick()")
        .transition("Done", "TICK [OVER]");
    b.state("Relay", StateKind::Basic).transition("Idle", "not P");
    b.basic("Done");
    b.build().unwrap()
}

const TIMER_ACTIONS: &str = r#"
    event P;
    int:16 fired;
    void Arm(int:16 n) { TLOAD = n; }
    void Disarm() { TLOAD = 0; }
    void Note(int:16 k) { fired = fired + k; OVER = fired >= 6; }
    void Kick() { fired = fired + 2; OVER = fired >= 6; raise P; }
"#;

fn timer_system() -> CompiledSystem {
    let mut arch = PscpArch::dual_md16(true);
    arch.timers.push(TimerSpec {
        name: "t0".into(),
        event: "T_EXP".into(),
        port_address: TLOAD_ADDR,
    });
    compile_system(&timer_chart(), TIMER_ACTIONS, &arch, &CodegenOptions::default()).unwrap()
}

/// Sparse scripts: an event every 5–20 rows, mostly `TICK`, so timers
/// armed by a `TICK` expire inside the empty rows that follow; the
/// scripts end at different lengths, before the step limit.
fn scripts(n: usize) -> Vec<ScriptedEnvironment> {
    (0..n)
        .map(|i| {
            let len = 40 + (i * 13) % 50;
            let gap = 5 + i % 16;
            let script: Vec<Vec<&str>> = (0..len)
                .map(|k| match (k % gap, (i + k) % 7) {
                    (0, 3) => vec!["PING"],
                    (0, _) => vec!["TICK"],
                    _ => vec![],
                })
                .collect();
            ScriptedEnvironment::new(script)
        })
        .collect()
}

fn same_script(got: &ScriptedEnvironment, want: &ScriptedEnvironment, at: &str) {
    assert_eq!(got.port_writes, want.port_writes, "{at}: port writes");
    assert_eq!(got.script, want.script, "{at}: leftover script");
}

/// 130 sparse scenarios, split into several chunks at both worker
/// counts.
#[test]
fn sparse_scripts_match_the_sampling_oracle() {
    let sys = timer_system();
    let limits = BatchOptions { deadline: u64::MAX, max_steps: 120 };
    let never: Done<ScriptedEnvironment> = |_, _, _| false;
    let (oracle, quiet) = check_grid(&sys, &scripts(130), &limits, never, same_script);
    assert!(quiet > 0, "no quiet cycle ran");
    // The timer and the negated internal trigger both fired somewhere.
    let fired = |name: &str| {
        let t = sys
            .chart
            .transition_ids()
            .find(|&t| sys.chart.state(sys.chart.transition(t).source).name == name)
            .unwrap();
        oracle.iter().any(|o| o.reports.iter().any(|r| r.fired.contains(&t)))
    };
    assert!(fired("Armed"), "no timer expiry fired");
    assert!(fired("Relay"), "the `not P` transition never fired");
}

/// Clock-reading `done`, step limits and deadlines that end sparse
/// scenarios inside quiet stretches.
#[test]
fn sparse_scripts_cut_mid_stretch_identically() {
    let sys = timer_system();
    let never: Done<ScriptedEnvironment> = |_, _, _| false;
    let by_clock: Done<ScriptedEnvironment> = |m, _, _| m.now() >= 301;
    let unlimited = BatchOptions { deadline: u64::MAX, max_steps: 200 };
    let cases = [
        (unlimited, by_clock),
        (BatchOptions { deadline: u64::MAX, max_steps: 77 }, never),
        (BatchOptions { deadline: 433, max_steps: 200 }, never),
    ];
    for (limits, done) in cases {
        check_grid(&sys, &scripts(70), &limits, done, same_script);
    }
}

// --- Waveforms ------------------------------------------------------

/// Steps one machine `cycles` times with a VCD probe attached and
/// returns the document.
fn vcd_of<E: Environment>(sys: &CompiledSystem, env: &mut E, cycles: usize) -> String {
    let mut m = PscpMachine::new(sys);
    m.attach_vcd();
    for _ in 0..cycles {
        m.step(env).expect("no fault");
    }
    m.detach_vcd().expect("probe attached")
}

#[test]
fn vcd_is_identical_on_the_quiet_path() {
    let sys = pickup_system();
    let head = heads(1).remove(0);
    let mut quiet = Counted { env: head.clone(), quiet: 0 };
    let want = vcd_of(&sys, &mut Sampling(head), 4_000);
    assert_eq!(vcd_of(&sys, &mut quiet, 4_000), want, "pickup head waveform");
    assert!(quiet.quiet > 0);

    let sys = timer_system();
    let script = scripts(3).remove(2);
    let mut quiet = Counted { env: script.clone(), quiet: 0 };
    let want = vcd_of(&sys, &mut Sampling(script), 100);
    assert_eq!(vcd_of(&sys, &mut quiet, 100), want, "timer chart waveform");
    assert!(quiet.quiet > 0);
}
