//! Property-based differential test: for random charts and random event
//! scripts, the synthesised SLA's fire set and next-state bits must
//! agree with the reference executor, under both encodings. Some random
//! transitions leave or enter a composite region rather than a leaf, so
//! outer-first preemption across nested scopes and default/history
//! re-entry are checked on random charts, not only on the pickup head.
//! Random labels take every shape the executor's event-keyed selection
//! treats differently — a plain, negated, conjoined or disjoined
//! trigger, an event or condition guard with or without a trigger, and
//! the empty label — over events and two constant conditions (`C0`
//! false, `C1` true), so a transition filed under the wrong key event,
//! or under none when it needs one, shows up as a fire-set divergence.
//!
//! An inhibition oracle pins the priority chain itself: each `fire[t]`
//! must be inhibited by exactly the earlier-placed transitions whose
//! scope is not orthogonal to `t`'s, checked pair by pair on the random
//! charts, the pickup head, the gang chart and a fixture whose scopes
//! are exclusive siblings under an OR-state.

use proptest::prelude::*;
use pscp_motors::pickup_head_chart;
use pscp_sla::net::{Node, NodeId};
use pscp_sla::sim::SlaSim;
use pscp_sla::synth::{synthesize, SlaSynthesis};
use pscp_sla::CompiledNet;
use pscp_statechart::encoding::{CrLayout, EncodingStyle};
use pscp_statechart::semantics::{ActionEffects, Executor};
use pscp_statechart::{Chart, ChartBuilder, EventId, StateKind, TransitionId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::OnceLock;

#[derive(Debug, Clone)]
struct Spec {
    /// Per region: (leaf count, shallow history?).
    regions: Vec<(usize, bool)>,
    edges: Vec<Edge>,
}

/// One random transition between leaves `from` and `to` (indices taken
/// modulo the leaf count), labelled `shape` over events `event` and
/// `other` and condition `cond` (each taken modulo its count). Either
/// endpoint may be lifted to the leaf's enclosing region: a region
/// source is the composite-source case, whose Top-level scope must
/// preempt every leaf transition inside it (outer-first priority); a
/// region target re-enters the region by default or history.
#[derive(Debug, Clone)]
struct Edge {
    from: usize,
    to: usize,
    event: usize,
    other: usize,
    cond: usize,
    shape: Shape,
    from_region: bool,
    to_region: bool,
}

/// A transition label's shape, written with `a` and `b` for the edge's
/// events and `c` for its condition.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `a`
    Event,
    /// `not a`
    NotEvent,
    /// `a and b`
    And,
    /// `a or b`
    Or,
    /// `not (a or b)`
    NotOr,
    /// `a [c]`
    GuardedEvent,
    /// `[a]`
    EventGuard,
    /// `[c]`
    ConditionGuard,
    /// The empty label: always enabled while its source is active.
    Empty,
}

impl Shape {
    const ALL: [Shape; 9] = [
        Shape::Event,
        Shape::NotEvent,
        Shape::And,
        Shape::Or,
        Shape::NotOr,
        Shape::GuardedEvent,
        Shape::EventGuard,
        Shape::ConditionGuard,
        Shape::Empty,
    ];
}

impl Edge {
    fn label(&self) -> String {
        let a = format!("E{}", self.event % N_EVENTS);
        let b = format!("E{}", self.other % N_EVENTS);
        let c = format!("C{}", self.cond % N_CONDITIONS);
        match self.shape {
            Shape::Event => a,
            Shape::NotEvent => format!("not {a}"),
            Shape::And => format!("{a} and {b}"),
            Shape::Or => format!("{a} or {b}"),
            Shape::NotOr => format!("not ({a} or {b})"),
            Shape::GuardedEvent => format!("{a} [{c}]"),
            Shape::EventGuard => format!("[{a}]"),
            Shape::ConditionGuard => format!("[{c}]"),
            Shape::Empty => String::new(),
        }
    }
}

const N_EVENTS: usize = 3;
/// Conditions `C0` (reset false) and `C1` (reset true); no action
/// writes them.
const N_CONDITIONS: usize = 2;

fn build(spec: &Spec) -> Chart {
    let mut b = ChartBuilder::new("rnd");
    for e in 0..N_EVENTS {
        b.event(format!("E{e}"), None);
    }
    for c in 0..N_CONDITIONS {
        b.condition(format!("C{c}"), c == 1);
    }
    let names: Vec<String> = (0..spec.regions.len()).map(|r| format!("R{r}")).collect();
    b.state("Top", StateKind::And).contains(names.iter().map(String::as_str));
    let leaves: Vec<(usize, usize)> = spec
        .regions
        .iter()
        .enumerate()
        .flat_map(|(r, &(n, _))| (0..n).map(move |l| (r, l)))
        .collect();
    // Every edge as (source, target, label) state names, after lifting.
    let edges: Vec<(String, String, String)> = spec
        .edges
        .iter()
        .map(|e| {
            let (fr, fl) = leaves[e.from % leaves.len()];
            let (tr, tl) = leaves[e.to % leaves.len()];
            let from = if e.from_region { format!("R{fr}") } else { format!("L{fr}_{fl}") };
            let to = if e.to_region { format!("R{tr}") } else { format!("L{tr}_{tl}") };
            (from, to, e.label())
        })
        .collect();
    let leaving = |source: &str| {
        let source = source.to_string();
        edges.iter().filter(move |(from, _, _)| *from == source)
    };
    for (r, &(n, hist)) in spec.regions.iter().enumerate() {
        let children: Vec<String> = (0..n).map(|l| format!("L{r}_{l}")).collect();
        let name = format!("R{r}");
        let mut st = b.state(&name, StateKind::Or);
        st.contains(children.iter().map(String::as_str))
            .default_child(children[0].clone());
        if hist {
            st.history();
        }
        for (_, to, label) in leaving(&name) {
            st.transition(to.as_str(), label);
        }
    }
    for &(r, l) in &leaves {
        let name = format!("L{r}_{l}");
        let mut st = b.state(&name, StateKind::Basic);
        for (_, to, label) in leaving(&name) {
            st.transition(to.as_str(), label);
        }
    }
    b.build().unwrap()
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        proptest::collection::vec((1usize..=4, proptest::bool::ANY), 1..=3),
        proptest::collection::vec(
            (
                0usize..32,
                0usize..32,
                0usize..N_EVENTS,
                0usize..N_EVENTS,
                0usize..N_CONDITIONS,
                0usize..Shape::ALL.len(),
                0u8..8,
            ),
            0..8,
        ),
    )
        .prop_map(|(regions, edges)| Spec {
            regions,
            edges: edges
                .into_iter()
                // Mostly leaf-to-leaf; one edge in four has a composite
                // endpoint (source, target or both).
                .map(|(from, to, event, other, cond, shape, kind)| Edge {
                    from,
                    to,
                    event,
                    other,
                    cond,
                    shape: Shape::ALL[shape],
                    from_region: kind == 0 || kind == 2,
                    to_region: kind == 1 || kind == 2,
                })
                .collect(),
        })
}

/// The pickup-head chart of the paper, synthesised once for the whole
/// test binary (the differential below re-walks it per proptest case).
fn pickup_head_parts() -> &'static (Chart, CrLayout, SlaSynthesis) {
    static PARTS: OnceLock<(Chart, CrLayout, SlaSynthesis)> = OnceLock::new();
    PARTS.get_or_init(|| {
        let chart = pickup_head_chart();
        let layout = CrLayout::new(&chart, EncodingStyle::Exclusivity);
        let sla = synthesize(&chart, &layout);
        (chart, layout, sla)
    })
}

/// One inhibition literal of a `fire[t]` conjunction: `Neg(f)` is a
/// pushed `¬f`; `Pos(x)` is what `¬fire[h]` folds to when `fire[h]` is
/// itself `¬x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Lit {
    Pos(NodeId),
    Neg(NodeId),
}

/// The inhibition literals `fire[t]` holds: its conjunction's operands
/// other than `enable[t]`.
fn inhibition_literals(sla: &SlaSynthesis, t: usize) -> Vec<Lit> {
    let (fire, enable) = (sla.fire[t], sla.enable[t]);
    if fire == enable {
        return Vec::new();
    }
    let Node::And(ops) = sla.net.node(fire) else {
        panic!("fire[{t}] is neither enable[{t}] nor a conjunction");
    };
    let mut lits: Vec<Lit> = ops
        .iter()
        .filter(|&&o| o != enable)
        .map(|&o| match sla.net.node(o) {
            Node::Not(x) => Lit::Neg(*x),
            _ => Lit::Pos(o),
        })
        .collect();
    lits.sort_unstable();
    lits
}

/// The oracle: the pairwise rule, kept as a test-only copy. `fire[t]`
/// is inhibited by every transition placed before it (in address-table
/// order) whose scope is not orthogonal to `t`'s — same scope, nested
/// scopes, or exclusive scopes under an OR-state — normalised the way
/// `LogicNet::and` folds its operands.
fn expected_literals(chart: &Chart, sla: &SlaSynthesis, t: usize) -> Vec<Lit> {
    let scope = |i: usize| {
        let tr = chart.transition(TransitionId::from_index(i));
        chart.transition_scope(tr.source, tr.target)
    };
    let order: Vec<usize> = sla.table.entries.iter().map(|t| t.index()).collect();
    let placed = order.iter().position(|&i| i == t).expect("t is in the table");
    let mut lits: Vec<Lit> = order[..placed]
        .iter()
        .filter(|&&h| !chart.orthogonal(scope(t), scope(h)))
        .map(|&h| match sla.net.node(sla.fire[h]) {
            Node::Not(x) => Lit::Pos(*x),
            _ => Lit::Neg(sla.fire[h]),
        })
        // `¬¬enable[t]` folds into `enable[t]` itself.
        .filter(|&l| l != Lit::Pos(sla.enable[t]))
        .collect();
    lits.sort_unstable();
    // Equal folded literals are one operand; every `¬f` is a fresh node.
    lits.dedup_by(|a, b| a == b && matches!(a, Lit::Pos(_)));
    lits
}

/// Checks every transition's inhibition literals against the oracle,
/// under both encodings.
fn check_inhibition(chart: &Chart) -> Result<(), TestCaseError> {
    for style in [EncodingStyle::Exclusivity, EncodingStyle::OneHot] {
        let sla = synthesize(chart, &CrLayout::new(chart, style));
        for t in 0..chart.transition_count() {
            prop_assert_eq!(
                inhibition_literals(&sla, t),
                expected_literals(chart, &sla, t),
                "inhibitors of T{} ({:?})", t, style
            );
        }
    }
    Ok(())
}

/// An OR root holding two OR-states, each with an internal ring, plus a
/// transition across them. The ring scopes `A` and `B` are exclusive
/// siblings: not orthogonal, yet neither contains the other, so a rule
/// that only looks at a scope's ancestors and descendants would drop
/// the inhibition between the rings.
fn exclusive_scopes_chart() -> Chart {
    let mut b = ChartBuilder::new("exclusive");
    b.event("E", None);
    b.event("F", None);
    b.state("Top", StateKind::Or).contains(["A", "B"]).default_child("A");
    b.state("A", StateKind::Or).contains(["A0", "A1", "A2"]).default_child("A0");
    b.state("B", StateKind::Or).contains(["B0", "B1"]).default_child("B0");
    b.state("A0", StateKind::Basic).transition("A1", "E").transition("B1", "F");
    b.state("A1", StateKind::Basic).transition("A2", "E");
    b.state("A2", StateKind::Basic).transition("A0", "E or F");
    b.state("B0", StateKind::Basic).transition("B1", "E");
    b.state("B1", StateKind::Basic).transition("B0", "F");
    b.build().unwrap()
}

#[test]
fn inhibition_matches_pairwise_oracle_on_fixed_charts() {
    let exclusive = exclusive_scopes_chart();
    for chart in [pickup_head_chart(), pscp_bench::gang_chart(), exclusive.clone()] {
        check_inhibition(&chart).unwrap_or_else(|e| panic!("{}: {e}", chart.name()));
    }

    // The fixture really exercises exclusive sibling scopes: some ring
    // transition of B is inhibited by a ring transition of A.
    let sla = synthesize(&exclusive, &CrLayout::new(&exclusive, EncodingStyle::Exclusivity));
    let in_ring = |t: usize, region: &str| {
        let tr = exclusive.transition(TransitionId::from_index(t));
        exclusive.transition_scope(tr.source, tr.target) == exclusive.state_by_name(region).unwrap()
    };
    let crossed = (0..exclusive.transition_count()).filter(|&t| in_ring(t, "B")).any(|t| {
        (0..exclusive.transition_count())
            .filter(|&h| in_ring(h, "A"))
            .any(|h| inhibition_literals(&sla, t).contains(&Lit::Neg(sla.fire[h])))
    });
    assert!(crossed, "no A-ring literal in a B-ring fire signal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sla_matches_executor(s in spec(), script in proptest::collection::vec(any::<u8>(), 0..24)) {
        let chart = build(&s);
        for style in [EncodingStyle::Exclusivity, EncodingStyle::OneHot] {
            let layout = CrLayout::new(&chart, style);
            let sla = synthesize(&chart, &layout);
            let sim = SlaSim::new(&chart, &layout, &sla);
            let mut exec = Executor::new(&chart);
            // The hardware CR evolves only through next_cr — exactly like
            // the real registers. (Re-encoding each cycle would hide
            // history-retention bugs.)
            let mut hw_bits =
                sim.cr_bits(exec.configuration(), &BTreeSet::new(), &|c| exec.condition(c));

            for &mask in &script {
                let events: BTreeSet<EventId> = (0..N_EVENTS)
                    .filter(|e| mask & (1 << e) != 0)
                    .filter_map(|e| chart.event_by_name(&format!("E{e}")))
                    .collect();
                for e in chart.event_ids() {
                    hw_bits[layout.event_bit(e) as usize] = events.contains(&e);
                }
                for c in chart.condition_ids() {
                    hw_bits[layout.condition_bit(c) as usize] = exec.condition(c);
                }
                let expected: BTreeSet<TransitionId> =
                    exec.select_transitions(&events).into_iter().collect();
                let fired: BTreeSet<TransitionId> =
                    sim.fired(&hw_bits).into_iter().collect();
                prop_assert_eq!(&fired, &expected, "fire set diverged ({:?})", style);

                hw_bits = sim.next_cr(&hw_bits);
                exec.step(&events, |_| ActionEffects::default());
                for st in chart.state_ids() {
                    let active = exec.configuration().is_active(st);
                    let decoded = layout.is_active_in(&chart, &hw_bits, st);
                    prop_assert_eq!(
                        decoded, active,
                        "state {} diverged ({:?})", &chart.state(st).name, style
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_net_matches_reference_on_pickup_head(masks in proptest::collection::vec(any::<u32>(), 0..12)) {
        let (chart, layout, sla) = pickup_head_parts();
        let sim = SlaSim::new(chart, layout, sla);
        let compiled = CompiledNet::compile(&sla.net);
        let events: Vec<EventId> = chart.event_ids().collect();

        // The reference evaluator reads named inputs; the compiled one
        // reads the raw bit vector. Same network, whole node array.
        let check = |bits: &[bool]| -> Result<(), TestCaseError> {
            let mut named: BTreeMap<String, bool> = BTreeMap::new();
            for (i, &v) in bits.iter().enumerate() {
                named.insert(format!("cr{i}"), v);
            }
            prop_assert_eq!(compiled.eval(bits), sla.net.eval(&named));
            Ok(())
        };

        // Every CR image reachable from the default configuration by
        // single-event stimuli (capped breadth-first walk). Checking the
        // full node array at each image covers both the fire outputs and
        // the next-state logic of every visited configuration.
        let initial =
            sim.cr_bits(Executor::new(chart).configuration(), &BTreeSet::new(), &|_| false);
        let mut seen: BTreeSet<Vec<bool>> = BTreeSet::new();
        let mut queue: VecDeque<Vec<bool>> = VecDeque::from([initial.clone()]);
        while let Some(bits) = queue.pop_front() {
            if seen.len() >= 200 || !seen.insert(bits.clone()) {
                continue;
            }
            check(&bits)?;
            for &e in &events {
                let mut stimulated = bits.clone();
                stimulated[layout.event_bit(e) as usize] = true;
                check(&stimulated)?;
                let mut next = sim.next_cr(&stimulated);
                for &clear in &events {
                    next[layout.event_bit(clear) as usize] = false;
                }
                queue.push_back(next);
            }
        }

        // Random event subsets on the initial configuration.
        for mask in masks {
            let mut bits = initial.clone();
            for (k, &e) in events.iter().enumerate() {
                bits[layout.event_bit(e) as usize] = mask >> (k % 32) & 1 == 1;
            }
            check(&bits)?;
        }
    }

    #[test]
    fn inhibition_matches_pairwise_oracle(s in spec()) {
        check_inhibition(&build(&s))?;
    }

    #[test]
    fn blif_and_vhdl_export_never_panic(s in spec()) {
        let chart = build(&s);
        let layout = CrLayout::new(&chart, EncodingStyle::Exclusivity);
        let sla = synthesize(&chart, &layout);
        let blif = pscp_sla::blif::to_blif(&sla.net, "m");
        let vhdl = pscp_sla::vhdl::to_vhdl(&sla.net, "m");
        prop_assert!(blif.contains(".model m"));
        prop_assert!(vhdl.contains("entity m is"));
        // Every fire output present in both.
        for i in 0..chart.transition_count() {
            let name = format!("T{i}");
            prop_assert!(blif.contains(&name), "blif missing {}", name);
            prop_assert!(vhdl.contains(&name), "vhdl missing {}", name);
        }
    }
}
