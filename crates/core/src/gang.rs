//! Gang simulation: up to 64 scenarios in SLA lock-step.
//!
//! A `GangRig` owns one scalar [`PscpMachine`] per scenario lane plus
//! a bit-sliced [`GangSim`] over the system's synthesised SLA. Each
//! gang cycle it samples every live lane's environment (after the
//! lane's quiet stretch, see below), packs the
//! lanes' CR bits into `u64` words (bit `l` = lane `l`), runs *one*
//! word-parallel network pass, and uses the resulting any-fire mask to
//! route each lane:
//!
//! * fire bit clear → the lane takes the machine's idle fast path
//!   (`PscpMachine::idle_phase`): no transition selection, no
//!   condition snapshot, no per-transition buffers. This is where the
//!   gang speedup comes from — the per-lane SLA cost collapses into
//!   `1/width` of a shared bitwise pass.
//! * fire bit set → the lane runs the full scalar execute phase
//!   (`PscpMachine::execute_phase`), TEP execution and all, then its
//!   state-word column is re-encoded from the executor.
//!
//! A lane whose machine is quiet (`PscpMachine::quiet_step`: the last
//! cycle fired nothing on an empty input and the environment's next
//! sample is empty too) runs its whole quiet stretch, cycle by cycle,
//! inside one gang iteration, applying its `done` predicate and limits
//! after every cycle, and only then samples. Lanes that did not sample
//! are masked out of the shared pass, and an iteration in which no lane
//! sampled skips the pass.
//!
//! **Handoff invariant.** Every lane *is* a scalar machine; the gang
//! only decides which of two bit-identical cycle completions runs.
//! When a lane retires — script/limit reached, `done` predicate,
//! fault — its mask bit clears and the remaining lanes continue
//! unaffected; the retired lane's machine state equals a scalar run's
//! at the same cycle, so falling back to scalar stepping mid-scenario
//! is a no-op. Debug builds re-verify every idle verdict against
//! `select_transitions` (`Executor::step_idle`), and the differential
//! suites pin gang == scalar byte-for-byte.
//!
//! Word-column maintenance: event and condition lanes are rebuilt from
//! the lane's sampled/pending events and condition caches every cycle
//! (events live one cycle; conditions are cheap to re-read); the state
//! part is only re-encoded when a lane fires, because an idle cycle
//! cannot change the configuration. Retired lanes, and lanes that did
//! not sample this iteration, leave stale or empty columns behind —
//! harmless, because bitwise lanes are independent and the fire mask is
//! ANDed with the mask of lanes that sampled.

use crate::compile::CompiledSystem;
use crate::machine::{CycleReport, Environment, MachineError, PscpMachine};
use crate::pool::{BatchOptions, BatchOutcome, CycleLog};
use pscp_sla::gang::{GangScratch, GangSim, GANG_WIDTH};

/// A reusable gang of scalar machines with a shared bit-sliced SLA.
/// Build once per worker, feed it successive job chunks via
/// [`GangRig::run`].
pub(crate) struct GangRig<'s> {
    system: &'s CompiledSystem,
    sim: GangSim<'s>,
    machines: Vec<PscpMachine<'s>>,
    /// CR lane words: one `u64` per CR bit, bit `l` = lane `l`.
    words: Vec<u64>,
    scratch: GangScratch,
    /// Net-pass memo: the lane words of the previous cycle and the
    /// any-fire mask they produced. The network is a pure function of
    /// the words, so an unchanged word vector (the common case across
    /// idle stretches: event columns all zero, state columns untouched)
    /// reuses the previous mask for an O(cr_width) compare instead of
    /// an O(net) evaluation.
    prev_words: Vec<u64>,
    prev_any: Option<u64>,
}

impl<'s> GangRig<'s> {
    /// A rig for `system`; its lanes run on the system's selection
    /// tables.
    pub(crate) fn new(system: &'s CompiledSystem) -> Self {
        GangRig {
            system,
            sim: GangSim::new(&system.chart, &system.layout, &system.sla),
            machines: Vec::new(),
            words: Vec::new(),
            scratch: GangScratch::default(),
            prev_words: Vec::new(),
            prev_any: None,
        }
    }

    /// Runs up to [`GANG_WIDTH`] scenarios in lock-step, returning one
    /// outcome per job in job order — byte-identical to running each
    /// job through `pool::run_scenario` on a scalar machine.
    pub(crate) fn run<E, F>(
        &mut self,
        worker: usize,
        jobs: Vec<(E, BatchOptions)>,
        done: &F,
    ) -> Vec<BatchOutcome<E>>
    where
        E: Environment,
        F: Fn(&PscpMachine<'_>, &E, &CycleReport) -> bool,
    {
        assert!(jobs.len() <= GANG_WIDTH, "at most {GANG_WIDTH} lanes per gang");
        let _span = pscp_obs::trace::span("gang.run");
        let n = jobs.len();
        while self.machines.len() < n {
            self.machines.push(PscpMachine::new(self.system));
        }
        let layout = &self.system.layout;
        let chart = &self.system.chart;
        let state_width = layout.state_width() as usize;

        let mut envs: Vec<E> = Vec::with_capacity(n);
        let mut limits: Vec<BatchOptions> = Vec::with_capacity(n);
        for (env, lim) in jobs {
            envs.push(env);
            limits.push(lim);
        }
        let mut reports: Vec<CycleLog> = (0..n).map(|_| CycleLog::new()).collect();
        let mut errors: Vec<Option<MachineError>> = (0..n).map(|_| None).collect();
        let mut steps = vec![0u64; n];

        self.words.clear();
        self.words.resize(self.sim.cr_width(), 0);
        self.prev_any = None;

        // Reset every lane; lanes whose limits forbid even one step are
        // never live (matching the scalar loop's entry condition).
        let mut live: u64 = 0;
        for (l, lim) in limits.iter().enumerate() {
            self.machines[l].reset();
            if lim.deadline > 0 && lim.max_steps > 0 {
                live |= 1 << l;
                let bits = layout.encode(chart, self.machines[l].executor().configuration());
                write_column(&mut self.words[..state_width], &bits, l);
            }
        }

        // Logs a lane's completed cycle and applies its `done` predicate
        // and limits, exactly as the scalar loop does; true retires it.
        let finish = |m: &PscpMachine<'_>,
                      env: &E,
                      report: CycleReport,
                      log: &mut CycleLog,
                      steps: &mut u64,
                      lim: &BatchOptions| {
            let stop = done(m, env, &report);
            log.push(report);
            if stop {
                return true;
            }
            *steps += 1;
            !(m.now() < lim.deadline && *steps < lim.max_steps)
        };

        let mut gang_cycle = 0u64;
        while live != 0 {
            let _cycle_span = pscp_obs::trace::span_sampled("gang.step", gang_cycle);
            gang_cycle += 1;

            // Every live lane first runs its quiet stretch, cycle by
            // cycle, then samples; the event and condition lane words
            // are rebuilt from the lanes that sampled (the state part
            // persists between cycles and is only touched when a lane
            // fires).
            for w in &mut self.words[state_width..] {
                *w = 0;
            }
            let mut sampled = 0u64;
            let mut retired = 0u64;
            let mut mask = live;
            'lanes: while mask != 0 {
                let l = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let m = &mut self.machines[l];
                while let Some(report) = m.quiet_step(&mut envs[l]) {
                    if finish(m, &envs[l], report, &mut reports[l], &mut steps[l], &limits[l]) {
                        retired |= 1 << l;
                        continue 'lanes;
                    }
                }
                m.sample_phase(&mut envs[l]);
                load_lane_inputs(&mut self.words, self.system, m, l);
                sampled |= 1 << l;
            }

            // One shared bit-sliced SLA pass for the lanes that sampled.
            let any = if sampled == 0 { 0 } else { self.any_fire() & sampled };

            let mut mask = sampled;
            while mask != 0 {
                let l = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let lane_bit = 1u64 << l;
                let fired = any & lane_bit != 0;
                let m = &mut self.machines[l];
                let result = if fired { m.execute_phase(&mut envs[l]) } else { Ok(m.idle_phase()) };
                match result {
                    Ok(report) => {
                        if fired {
                            let bits = layout.encode(chart, m.executor().configuration());
                            write_column(&mut self.words[..state_width], &bits, l);
                        }
                        if finish(m, &envs[l], report, &mut reports[l], &mut steps[l], &limits[l]) {
                            retired |= lane_bit;
                        }
                    }
                    Err(e) => {
                        errors[l] = Some(e);
                        retired |= lane_bit;
                    }
                }
            }
            live &= !retired;
        }

        let mut out = Vec::with_capacity(n);
        for (l, (env, (reports, error))) in
            envs.into_iter().zip(reports.into_iter().zip(errors)).enumerate()
        {
            pscp_obs::metrics::POOL_SCENARIOS.add(worker, 1);
            pscp_obs::metrics::POOL_STEPS.add(worker, reports.len() as u64);
            out.push(BatchOutcome {
                reports,
                stats: self.machines[l].stats().clone(),
                clock_cycles: self.machines[l].now(),
                env,
                error,
            });
        }
        out
    }

    /// The any-fire mask of the current lane words: one bit-sliced SLA
    /// pass, skipped when the words equal the previous pass's (the net
    /// is a pure function of them, so the memoised mask still holds).
    fn any_fire(&mut self) -> u64 {
        match self.prev_any {
            Some(prev) if self.prev_words == self.words => prev,
            _ => {
                let any = self.sim.any_fire_words(&self.words, &mut self.scratch);
                self.prev_words.clear();
                self.prev_words.extend_from_slice(&self.words);
                self.prev_any = Some(any);
                any
            }
        }
    }
}

/// ORs one lane's inputs into the event and condition lane words: the
/// events it sampled, its pending internal events and its true
/// conditions.
fn load_lane_inputs(
    words: &mut [u64],
    system: &CompiledSystem,
    m: &PscpMachine<'_>,
    lane: usize,
) {
    let layout = &system.layout;
    let lane_bit = 1u64 << lane;
    for &e in m.sampled_events() {
        words[layout.event_bit(e) as usize] |= lane_bit;
    }
    for e in m.executor().pending_events() {
        words[layout.event_bit(e) as usize] |= lane_bit;
    }
    for c in system.chart.condition_ids() {
        if m.executor().condition(c) {
            words[layout.condition_bit(c) as usize] |= lane_bit;
        }
    }
}

/// Writes one lane's bit column into the state-part lane words.
fn write_column(words: &mut [u64], bits: &[bool], lane: usize) {
    let lane_bit = 1u64 << lane;
    for (w, &b) in words.iter_mut().zip(bits) {
        if b {
            *w |= lane_bit;
        } else {
            *w &= !lane_bit;
        }
    }
}
