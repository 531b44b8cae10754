//! Wide-chart selection differential: on the gang workload chart (560
//! transitions over 16 parallel rotors, with probe events shared across
//! regions), the executor's indexed transition selection must equal the
//! synthesised SLA's fire set, and the hardware next-state bits must
//! track the executor's configuration, under both encodings.
//!
//! Deterministic: each walk is driven by a seeded generator through
//! reachable configurations, with event sets ranging from empty through
//! single region or probe events to dense random subsets, so every
//! cycle mixes enabled transitions of equal and different scope and
//! same-region conflicts the claimed-state check must resolve.

use pscp_sla::sim::SlaSim;
use pscp_sla::synth::synthesize;
use pscp_statechart::encoding::{CrLayout, EncodingStyle};
use pscp_statechart::semantics::{ActionEffects, Executor};
use pscp_statechart::{EventId, TransitionId};
use std::collections::BTreeSet;

const SEEDS: [u64; 3] = [1, 0x5eed, 0xdead_beef];
const CYCLES: usize = 300;

/// splitmix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One cycle's event set.
fn events(rng: &mut Rng, all: &[EventId]) -> BTreeSet<EventId> {
    match rng.below(6) {
        0 => BTreeSet::new(),
        1 | 2 => [all[rng.below(all.len())]].into(),
        3 => all.iter().copied().filter(|_| rng.below(4) == 0).collect(),
        4 => all.iter().copied().filter(|_| rng.below(2) == 0).collect(),
        _ => all.iter().copied().collect(),
    }
}

#[test]
fn gang_chart_selection_matches_sla() {
    let chart = pscp_bench::gang_chart();
    assert_eq!(chart.transition_count(), 560);
    let all: Vec<EventId> = chart.event_ids().collect();
    for style in [EncodingStyle::Exclusivity, EncodingStyle::OneHot] {
        let layout = CrLayout::new(&chart, style);
        let sla = synthesize(&chart, &layout);
        let sim = SlaSim::new(&chart, &layout, &sla);
        let mut fired_total = 0usize;
        let mut preempted = 0usize;
        for seed in SEEDS {
            let mut rng = Rng(seed);
            let mut exec = Executor::new(&chart);
            let mut hw_bits = sim.cr_bits(exec.configuration(), &BTreeSet::new(), &|_| false);
            for cycle in 0..CYCLES {
                let evs = events(&mut rng, &all);
                for &e in &all {
                    hw_bits[layout.event_bit(e) as usize] = evs.contains(&e);
                }
                let selected = exec.select_transitions(&evs);
                let expected: BTreeSet<TransitionId> = selected.iter().copied().collect();
                let fired: BTreeSet<TransitionId> = sim.fired(&hw_bits).into_iter().collect();
                assert_eq!(fired, expected, "seed {seed:#x} cycle {cycle} ({style:?})");
                let enabled = chart
                    .transition_ids()
                    .filter(|&t| exec.configuration().is_active(chart.transition(t).source))
                    .filter(|&t| {
                        let present =
                            |name: &str| chart.event_by_name(name).is_some_and(|e| evs.contains(&e));
                        chart.transition(t).trigger.as_ref().is_some_and(|x| x.eval(present))
                    })
                    .count();
                fired_total += selected.len();
                preempted += enabled - selected.len();

                hw_bits = sim.next_cr(&hw_bits);
                let report = exec.step(&evs, |_| ActionEffects::default());
                assert_eq!(report.fired, selected, "seed {seed:#x} cycle {cycle}");
                for s in chart.state_ids() {
                    assert_eq!(
                        layout.is_active_in(&chart, &hw_bits, s),
                        exec.configuration().is_active(s),
                        "seed {seed:#x} cycle {cycle} state {} ({style:?})",
                        chart.state(s).name
                    );
                }
            }
        }
        // The walks exercise both sides of the conflict check.
        assert!(fired_total > 1000, "walks fired only {fired_total} transitions");
        assert!(preempted > 100, "walks resolved only {preempted} conflicts");
    }
}
