//! Bit-sliced gang evaluation: 64 CR snapshots per `u64` word.
//!
//! The paper's SLA is a combinational network precisely so the hardware
//! evaluates every transition condition in parallel each cycle. The
//! software analogue of that parallelism across *scenarios* is
//! bit-slicing: [`GangNet`] holds one `u64` word per net node, where
//! bit `l` of every word belongs to lane `l`, and each gate becomes a
//! single bitwise AND/OR/NOT over the whole gang. One pass over the
//! instruction list therefore evaluates the SLA for up to
//! [`GANG_WIDTH`] lanes at once.
//!
//! [`GangNet`] is built from the exact same flattened instruction list
//! as [`CompiledNet`] — same node order (topological because
//! [`LogicNet`] is append-only), same `cr{N}` input resolution, same
//! missing-input and out-of-range semantics (those lanes read 0). This
//! makes the scalar path the differential oracle: for every node,
//! lane `l` of the gang scratch must equal the scalar scratch of
//! lane `l`'s bits, which the tests below pin.
//!
//! Its one user is [`GangSim::any_fire_words`], the per-lane "does any
//! transition fire" probe, which the benchmark times against the scalar
//! [`SlaSim`](crate::SlaSim); the tests below pin its mask to the
//! scalar fire set under both encodings.

use crate::compiled::{CompiledNet, Op};
use crate::net::{LogicNet, NodeId};
use crate::synth::SlaSynthesis;
use pscp_statechart::encoding::CrLayout;
use pscp_statechart::Chart;

/// Number of scenario lanes in one gang word.
pub const GANG_WIDTH: usize = 64;

/// Reusable buffers for gang evaluation. Construct once, pass to
/// [`GangSim::any_fire_words`] every call; capacity is retained across
/// calls.
#[derive(Debug, Clone, Default)]
pub struct GangScratch {
    vals: Vec<u64>,
}

/// A [`LogicNet`] compiled for 64-wide bit-sliced evaluation.
///
/// Shares [`CompiledNet`]'s instruction list; only the word type
/// differs (`u64` lane words instead of `bool`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GangNet {
    compiled: CompiledNet,
}

impl GangNet {
    /// Compiles a network for gang evaluation.
    pub fn compile(net: &LogicNet) -> Self {
        GangNet { compiled: CompiledNet::compile(net) }
    }

    /// Compiles only the transitive fan-in of `roots`, with node ids
    /// remapped to the compacted order. Returns the pruned net plus
    /// each root's position in it. Evaluating the pruned net gives the
    /// same root values as the full net at a fraction of the pass cost
    /// — the synthesised SLA bundles fire and next-state logic into one
    /// network, so a fire-only caller otherwise pays for the (typically
    /// much larger) next-state majority every cycle.
    pub fn compile_for_roots(net: &LogicNet, roots: &[NodeId]) -> (Self, Vec<u32>) {
        let full = CompiledNet::compile(net);
        let n = full.ops.len();
        let mut keep = vec![false; n];
        let mut stack: Vec<usize> = roots.iter().map(|r| r.0 as usize).collect();
        while let Some(i) = stack.pop() {
            if keep[i] {
                continue;
            }
            keep[i] = true;
            match full.ops[i] {
                Op::And { start, len } | Op::Or { start, len } => {
                    for &a in &full.args[start as usize..(start + len) as usize] {
                        if !keep[a as usize] {
                            stack.push(a as usize);
                        }
                    }
                }
                Op::Not(a) => {
                    if !keep[a as usize] {
                        stack.push(a as usize);
                    }
                }
                Op::Input(_) | Op::Missing | Op::Const(_) => {}
            }
        }
        // Compact in original (topological) order, rewriting args
        // through the id map as we go — operands always precede users.
        let mut map = vec![u32::MAX; n];
        let mut ops = Vec::new();
        let mut args: Vec<u32> = Vec::new();
        for i in 0..n {
            if !keep[i] {
                continue;
            }
            let op = match full.ops[i] {
                Op::And { start, len } => {
                    let s = args.len() as u32;
                    args.extend(
                        full.args[start as usize..(start + len) as usize]
                            .iter()
                            .map(|&a| map[a as usize]),
                    );
                    Op::And { start: s, len }
                }
                Op::Or { start, len } => {
                    let s = args.len() as u32;
                    args.extend(
                        full.args[start as usize..(start + len) as usize]
                            .iter()
                            .map(|&a| map[a as usize]),
                    );
                    Op::Or { start: s, len }
                }
                Op::Not(a) => Op::Not(map[a as usize]),
                leaf => leaf,
            };
            map[i] = ops.len() as u32;
            ops.push(op);
        }
        let root_ids = roots.iter().map(|r| map[r.0 as usize]).collect();
        (GangNet { compiled: CompiledNet { ops, args } }, root_ids)
    }

    /// Number of compiled nodes (equals the source network's length).
    pub fn len(&self) -> usize {
        self.compiled.len()
    }

    /// True when the source network had no nodes.
    pub fn is_empty(&self) -> bool {
        self.compiled.is_empty()
    }

    /// Evaluates every node against a slice of CR lane words (one
    /// `u64` per CR bit; bit `l` of each word is lane `l`'s value).
    /// Node values land in `scratch`, indexed by `NodeId.0`. Bits
    /// beyond `words.len()` read 0 in every lane, matching the scalar
    /// evaluator's out-of-range rule lane-for-lane.
    pub fn eval_into(&self, words: &[u64], scratch: &mut Vec<u64>) {
        pscp_obs::metrics::SLA_NET_EVALS.inc();
        scratch.clear();
        scratch.resize(self.compiled.ops.len(), 0);
        for (i, op) in self.compiled.ops.iter().enumerate() {
            let w = match *op {
                Op::Input(bit) => words.get(bit as usize).copied().unwrap_or(0),
                Op::Missing => 0,
                Op::Const(b) => {
                    if b {
                        u64::MAX
                    } else {
                        0
                    }
                }
                Op::And { start, len } => self.compiled.args
                    [start as usize..(start + len) as usize]
                    .iter()
                    .fold(u64::MAX, |acc, &a| acc & scratch[a as usize]),
                Op::Or { start, len } => self.compiled.args
                    [start as usize..(start + len) as usize]
                    .iter()
                    .fold(0, |acc, &a| acc | scratch[a as usize]),
                Op::Not(a) => !scratch[a as usize],
            };
            scratch[i] = w;
        }
    }
}

/// The gang any-fire probe over a synthesised SLA.
#[derive(Debug, Clone)]
pub struct GangSim {
    /// Enable-only pruned net: source activity ∧ trigger ∧ guard per
    /// transition, without the O(T²) priority inhibitions. Some
    /// transition is enabled iff some transition fires (the
    /// highest-priority enabled one is never inhibited), so this
    /// evaluates the any-fire mask at a fraction of the fire net's
    /// cost.
    enable_net: GangNet,
    enable_roots: Vec<u32>,
}

impl GangSim {
    /// Creates the probe from the same synthesis products as
    /// `SlaSim::new`; it reads only `sla`.
    pub fn new(_chart: &Chart, _layout: &CrLayout, sla: &SlaSynthesis) -> Self {
        let (enable_net, enable_roots) = GangNet::compile_for_roots(&sla.net, &sla.enable);
        GangSim { enable_net, enable_roots }
    }

    /// The "does any transition fire" lane mask of `words` (one `u64`
    /// per CR bit, bit `l` = lane `l`): bit `l` is set exactly when
    /// `SlaSim::fired` is non-empty for lane `l`'s bits. Evaluates only
    /// the enable plane (source activity ∧ trigger ∧ guard per
    /// transition): a transition fires iff it is enabled and no
    /// conflicting higher-priority transition fires, and the
    /// highest-priority enabled transition is never inhibited, so
    /// *some* transition is enabled in a lane exactly when *some*
    /// transition fires there.
    pub fn any_fire_words(&self, words: &[u64], scratch: &mut GangScratch) -> u64 {
        self.enable_net.eval_into(words, &mut scratch.vals);
        self.enable_roots
            .iter()
            .fold(0u64, |acc, &r| acc | scratch.vals[r as usize])
    }
}

/// Packs per-lane bit vectors into gang lane words: word `b` holds bit
/// `b` of every lane, lane `l` in bit position `l`. Lanes may have
/// differing lengths; missing bits read 0. At most [`GANG_WIDTH`]
/// lanes.
pub fn pack_lanes(lanes: &[&[bool]]) -> Vec<u64> {
    assert!(lanes.len() <= GANG_WIDTH, "at most {GANG_WIDTH} lanes per gang");
    let width = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut words = vec![0u64; width];
    for (l, bits) in lanes.iter().enumerate() {
        for (b, &v) in bits.iter().enumerate() {
            if v {
                words[b] |= 1 << l;
            }
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SlaScratch, SlaSim};
    use crate::synth::{cr_input_name, synthesize};
    use pscp_statechart::encoding::EncodingStyle;
    use pscp_statechart::semantics::{ActionEffects, Executor};
    use pscp_statechart::{ChartBuilder, EventId, StateKind};
    use std::collections::BTreeSet;

    fn no_fx(_: &pscp_statechart::model::ActionCall) -> ActionEffects {
        ActionEffects::default()
    }

    fn parallel_chart() -> Chart {
        let mut b = ChartBuilder::new("p");
        b.event("GO", None);
        b.event("X", None);
        b.event("Y", None);
        b.event("STOP", None);
        b.state("Top", StateKind::Or).contains(["Idle", "Run"]).default_child("Idle");
        b.state("Idle", StateKind::Basic).transition("Run", "GO");
        b.state("Run", StateKind::And)
            .contains(["MX", "MY"])
            .transition("Idle", "STOP");
        b.state("MX", StateKind::Or).contains(["X1", "X2"]).default_child("X1");
        b.state("X1", StateKind::Basic).transition("X2", "X");
        b.state("X2", StateKind::Basic).transition("X1", "X");
        b.state("MY", StateKind::Or).contains(["Y1", "Y2"]).default_child("Y1");
        b.state("Y1", StateKind::Basic).transition("Y2", "Y");
        b.state("Y2", StateKind::Basic).transition("Y1", "Y");
        b.build().unwrap()
    }

    /// Extracts one lane from gang words as a bit vector.
    fn unpack_lane(words: &[u64], lane: usize) -> Vec<bool> {
        words.iter().map(|&w| w & (1 << lane) != 0).collect()
    }

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn gang_net_matches_compiled_net_on_random_lanes() {
        let mut net = LogicNet::new();
        let a = net.input(cr_input_name(0));
        let b = net.input(cr_input_name(1));
        let c = net.input(cr_input_name(2));
        let foreign = net.input("not_a_cr_bit");
        let hi = net.input(cr_input_name(63)); // out of range for 3 bits
        let t = net.and(vec![]);
        let f = net.or(vec![]);
        let nb = net.not(b);
        let and = net.and(vec![a, nb, t]);
        let or = net.or(vec![and, c, f, foreign, hi]);
        net.set_output("f", or);

        let compiled = CompiledNet::compile(&net);
        let gang = GangNet::compile(&net);
        assert_eq!(gang.len(), compiled.len());

        let mut seed = 0x5eed_1234u64;
        let lanes: Vec<Vec<bool>> = (0..GANG_WIDTH)
            .map(|_| {
                let m = xorshift(&mut seed);
                (0..3).map(|i| m & (1 << i) != 0).collect()
            })
            .collect();
        let lane_refs: Vec<&[bool]> = lanes.iter().map(|l| l.as_slice()).collect();
        let words = pack_lanes(&lane_refs);

        let mut gang_scratch = Vec::new();
        gang.eval_into(&words, &mut gang_scratch);
        let mut scalar_scratch = Vec::new();
        for (l, bits) in lanes.iter().enumerate() {
            compiled.eval_into(bits, &mut scalar_scratch);
            let lane_vals = unpack_lane(&gang_scratch, l);
            assert_eq!(lane_vals, scalar_scratch, "lane {l}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let lanes: Vec<Vec<bool>> = vec![
            vec![true, false, true],
            vec![false, false],
            vec![true, true, true, false],
        ];
        let lane_refs: Vec<&[bool]> = lanes.iter().map(|l| l.as_slice()).collect();
        let words = pack_lanes(&lane_refs);
        assert_eq!(words.len(), 4);
        for (l, bits) in lanes.iter().enumerate() {
            let got = unpack_lane(&words, l);
            // Short lanes read 0 in the padded positions.
            for (b, &v) in bits.iter().enumerate() {
                assert_eq!(got[b], v, "lane {l} bit {b}");
            }
            for (b, &v) in got.iter().enumerate().skip(bits.len()) {
                assert!(!v, "lane {l} pad bit {b}");
            }
        }
    }

    /// Drives 64 independent executors through distinct random scripts
    /// and pins the any-fire probe's mask lane-for-lane: bit `l` is set
    /// exactly when the scalar `SlaSim` fires something on lane `l`.
    fn gang_differential(style: EncodingStyle) {
        let chart = parallel_chart();
        let layout = CrLayout::new(&chart, style);
        let sla = synthesize(&chart, &layout);
        let scalar = SlaSim::new(&chart, &layout, &sla);
        let gang = GangSim::new(&chart, &layout, &sla);

        let names = ["GO", "X", "Y", "STOP"];
        let mut execs: Vec<Executor> = (0..GANG_WIDTH).map(|_| Executor::new(&chart)).collect();
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut sla_scratch = SlaScratch::default();
        let mut gang_scratch = GangScratch::default();
        let mut fired = Vec::new();
        let (mut firing, mut idle) = (0, 0);

        for cycle in 0..50 {
            // Per-lane event sets and CR bits.
            let mut lane_bits: Vec<Vec<bool>> = Vec::with_capacity(GANG_WIDTH);
            let mut lane_events: Vec<BTreeSet<EventId>> = Vec::with_capacity(GANG_WIDTH);
            for exec in &execs {
                let m = xorshift(&mut seed) as usize;
                let events: BTreeSet<EventId> = names
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| m & (1 << i) != 0)
                    .filter_map(|(_, n)| chart.event_by_name(n))
                    .collect();
                lane_bits.push(scalar.cr_bits(exec.configuration(), &events, &|_| false));
                lane_events.push(events);
            }
            let lane_refs: Vec<&[bool]> = lane_bits.iter().map(|l| l.as_slice()).collect();
            let any = gang.any_fire_words(&pack_lanes(&lane_refs), &mut gang_scratch);

            for (l, exec) in execs.iter_mut().enumerate() {
                scalar.fired_into(&lane_bits[l], &mut sla_scratch, &mut fired);
                assert_eq!(
                    any & (1 << l) != 0,
                    !fired.is_empty(),
                    "cycle {cycle} lane {l} any-fire ({style:?})"
                );
                if fired.is_empty() {
                    idle += 1;
                } else {
                    firing += 1;
                }
                exec.step(&lane_events[l], no_fx);
            }
        }
        assert!(firing > 0 && idle > 0, "both mask values occur ({style:?})");
    }

    #[test]
    fn gang_sim_matches_scalar_sim_exclusivity() {
        gang_differential(EncodingStyle::Exclusivity);
    }

    #[test]
    fn gang_sim_matches_scalar_sim_onehot() {
        gang_differential(EncodingStyle::OneHot);
    }
}
