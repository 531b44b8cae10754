//! SLA synthesis: chart + CR layout → logic network.
//!
//! For every transition `t` the SLA computes
//!
//! ```text
//! enable_t = active(source_t) ∧ trigger_t(events) ∧ guard_t(conditions)
//! fire_t   = enable_t ∧ ⋀ { ¬fire_h | h conflicts with t, h prior }
//! ```
//!
//! `active(s)` is the conjunction of configuration-register literals
//! from the exclusivity-set encoding; triggers and guards are flattened
//! to sum-of-products (the SLA is a logic array). The inhibition chain
//! implements the same outer-first priority as the reference executor,
//! and doubles as the guard signals `G0..Gm` that Fig. 1 shows
//! controlling the state-part update of the CR.
//!
//! Next-state equations: a transition's *static entry set* (path from
//! its scope to the target plus default completion) determines which
//! OR-state fields it writes and with which codes; every written field
//! gets `next = Σ fire_t·code_t + hold·¬Σ fire_t`.

use crate::net::{LogicNet, NodeId};
use pscp_statechart::encoding::CrLayout;
use pscp_statechart::intern::{ConditionNames, EventNames};
use pscp_statechart::trigger::Expr;
use pscp_statechart::{Chart, StateId, StateKind, TransitionId};
use std::collections::BTreeMap;

/// Name of the CR-bit input `i` in the synthesised network.
pub fn cr_input_name(bit: u32) -> String {
    format!("cr{bit}")
}

/// The transition address table: fire-signal order ↔ transition ids.
/// "The SLA … produces a set of signals for the Transition Address
/// Table" — the scheduler pops addresses from here.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransitionAddressTable {
    /// `entries[i]` is the transition whose address lives in row `i`.
    pub entries: Vec<TransitionId>,
}

impl TransitionAddressTable {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The synthesised SLA.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct SlaSynthesis {
    /// The logic network (inputs `cr0..crN`).
    pub net: LogicNet,
    /// Fire signal per transition, in chart transition order.
    pub fire: Vec<NodeId>,
    /// Enable signal per transition (source activity ∧ trigger ∧
    /// guard), in chart transition order — `fire` before the priority
    /// inhibitions. The highest-priority enabled transition is never
    /// inhibited, so "some transition enabled" ⇔ "some transition
    /// fires"; the gang simulator's any-fire probe evaluates this much
    /// smaller plane instead of the O(T²) inhibition logic.
    pub enable: Vec<NodeId>,
    /// Per CR state bit: the next-state function node.
    pub next_state_bits: BTreeMap<u32, NodeId>,
    /// The transition address table (priority order).
    pub table: TransitionAddressTable,
    /// Width of the CR.
    pub cr_width: u32,
}

impl SlaSynthesis {
    /// Number of AND terms — the product-term area proxy.
    pub fn product_terms(&self) -> usize {
        self.net
            .nodes()
            .filter(|(_, n)| matches!(n, crate::net::Node::And(_)))
            .count()
    }
}

/// Synthesises the SLA for a chart and CR layout.
///
/// Cost grows with the emitted network, not with the square of the
/// transition count: each transition's scope is computed once,
/// conflict is decided once per pair of distinct scopes, and a
/// transition's inhibition chain visits only the earlier-placed
/// transitions it actually conflicts with (DESIGN.md, "SLA synthesis
/// cost").
pub fn synthesize(chart: &Chart, layout: &CrLayout) -> SlaSynthesis {
    let mut net = LogicNet::new();
    // Make every CR bit an input up front, in order; everything below
    // indexes these instead of looking inputs up by name.
    let cr: Vec<NodeId> = (0..layout.width()).map(|bit| net.input(cr_input_name(bit))).collect();

    let events = EventNames::new(chart);
    let conditions = ConditionNames::new(chart);
    let atom_node = |atom: &str| -> NodeId {
        let bit = match events.get(atom) {
            Some(e) => layout.event_bit(e),
            None => layout.condition_bit(conditions.get(atom).expect("validated atom")),
        };
        cr[bit as usize]
    };

    // enable_t for every transition.
    let mut enable: Vec<NodeId> = Vec::with_capacity(chart.transition_count());
    for t in chart.transitions() {
        let mut conj: Vec<NodeId> = Vec::new();
        // Source activity literals.
        for (bit, val) in layout.activity_literals(chart, t.source) {
            let inp = cr[bit as usize];
            let lit = if val { inp } else { net.not(inp) };
            conj.push(lit);
        }
        // Trigger and guard as SOP over CR bits.
        for expr in [&t.trigger, &t.guard].into_iter().flatten() {
            conj.push(expr_to_net(expr, &mut net, &atom_node));
        }
        enable.push(net.and(conj));
    }

    // Each transition's scope, once, grouped into scope classes.
    let scopes: Vec<StateId> =
        chart.transitions().map(|t| chart.transition_scope(t.source, t.target)).collect();
    let mut class_of_state: Vec<u32> = vec![u32::MAX; chart.state_count()];
    let mut class_scopes: Vec<StateId> = Vec::new();
    let class: Vec<usize> = scopes
        .iter()
        .map(|&s| {
            let slot = &mut class_of_state[s.index()];
            if *slot == u32::MAX {
                *slot = class_scopes.len() as u32;
                class_scopes.push(s);
            }
            *slot as usize
        })
        .collect();

    // Priority order identical to the executor: scope depth, then index.
    let class_depth: Vec<usize> = class_scopes.iter().map(|&s| chart.depth(s)).collect();
    let mut order: Vec<usize> = (0..chart.transition_count()).collect();
    order.sort_by_key(|&i| (class_depth[class[i]], i));

    // Class-pair conflict: two scopes conflict unless orthogonal (the
    // same scope, nested scopes, and exclusive scopes under an OR-state
    // all conflict). One `orthogonal` query per pair of distinct scopes.
    let k = class_scopes.len();
    let mut conflicts: Vec<Vec<usize>> = (0..k).map(|c| vec![c]).collect();
    for a in 0..k {
        for b in a + 1..k {
            if !chart.orthogonal(class_scopes[a], class_scopes[b]) {
                conflicts[a].push(b);
                conflicts[b].push(a);
            }
        }
    }

    // fire_t with inhibition by prior conflicting fires. `inhibitors[c]`
    // lists the placed transitions that conflict with class `c`, in
    // placement order: `net.not` pushes a node per literal, so that
    // order fixes every later `NodeId` (and so the BLIF/VHDL bytes).
    let mut fire: Vec<NodeId> = vec![NodeId(0); chart.transition_count()];
    let mut inhibitors: Vec<Vec<usize>> = vec![Vec::new(); k];
    for &i in &order {
        let mut conj = vec![enable[i]];
        for &h in &inhibitors[class[i]] {
            conj.push(net.not(fire[h]));
        }
        fire[i] = net.and(conj);
        for &c in &conflicts[class[i]] {
            inhibitors[c].push(i);
        }
    }

    // Next-state equations.
    let mut next_state_bits = BTreeMap::new();
    if layout.style() == pscp_statechart::encoding::EncodingStyle::Exclusivity {
        // Each field's (transition, code) writers, in transition order,
        // found by walking every entry set once through a child →
        // (field, code index) map.
        let mut field_of_child: Vec<Option<(usize, usize)>> = vec![None; chart.state_count()];
        for (fi, field) in layout.fields().iter().enumerate() {
            for (ci, &child) in chart.state(field.owner).children.iter().enumerate() {
                field_of_child[child.index()] = Some((fi, ci));
            }
        }
        let mut writers: Vec<Vec<(usize, u32)>> = vec![Vec::new(); layout.fields().len()];
        for (t, &scope) in scopes.iter().enumerate() {
            let entered = entry_set_kinds(chart, TransitionId::from_index(t), scope);
            for (j, &(s, explicit)) in entered.iter().enumerate() {
                // A state entered both ways sorts `false` first; only
                // that first entry counts.
                if j > 0 && entered[j - 1].0 == s {
                    continue;
                }
                let Some((fi, ci)) = field_of_child[s.index()] else { continue };
                let field = &layout.fields()[fi];
                // History fields only latch on explicit entries.
                if explicit || !chart.state(field.owner).history {
                    writers[fi].push((t, field.codes[ci]));
                }
            }
        }
        for (field, ws) in layout.fields().iter().zip(&writers) {
            // any_write = Σ fire_t over writers.
            let any_ops: Vec<NodeId> = ws.iter().map(|&(t, _)| fire[t]).collect();
            let any_write = net.or(any_ops);
            let not_any = net.not(any_write);
            for b in 0..field.width {
                let bit = field.offset + b;
                let hold = net.and(vec![cr[bit as usize], not_any]);
                let mut set_ops: Vec<NodeId> = Vec::new();
                for &(t, code) in ws {
                    if code & (1 << b) != 0 {
                        set_ops.push(fire[t]);
                    }
                }
                let set = net.or(set_ops);
                let next = net.or(vec![set, hold]);
                next_state_bits.insert(bit, next);
            }
        }
    } else {
        // One-hot: a firing transition sets every entered state's bit and
        // clears every other bit inside its scope.
        let mut setters: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut touchers: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (t, &scope) in scopes.iter().enumerate() {
            let entered = entry_set_kinds(chart, TransitionId::from_index(t), scope);
            let explicit_entry = |s: StateId| -> bool {
                entered.iter().any(|&(x, e)| x == s && e)
            };
            for s in chart.descendants_inclusive(scope) {
                if s == scope {
                    continue;
                }
                let Some(bit) = layout.onehot_bit(s) else { continue };
                let hist_parent = chart
                    .state(s)
                    .parent
                    .is_some_and(|p| chart.state(p).history);
                let entry = entered.iter().find(|(x, _)| *x == s);
                if hist_parent {
                    // Children of history regions keep their bits across
                    // exits; only an explicit entry of this child or of a
                    // sibling rewrites them.
                    let sibling_explicit = chart
                        .state(s)
                        .parent
                        .map(|p| {
                            chart
                                .state(p)
                                .children
                                .iter()
                                .any(|&c| c != s && explicit_entry(c))
                        })
                        .unwrap_or(false);
                    if explicit_entry(s) || sibling_explicit {
                        touchers.entry(bit).or_default().push(t);
                    }
                    if explicit_entry(s) {
                        setters.entry(bit).or_default().push(t);
                    }
                } else {
                    touchers.entry(bit).or_default().push(t);
                    if entry.is_some() {
                        setters.entry(bit).or_default().push(t);
                    }
                }
            }
        }
        for s in chart.state_ids() {
            if let Some(bit) = layout.onehot_bit(s) {
                let touch_ops: Vec<NodeId> = touchers
                    .get(&bit)
                    .map(|v| v.iter().map(|&t| fire[t]).collect())
                    .unwrap_or_default();
                let any_touch = net.or(touch_ops);
                let not_touch = net.not(any_touch);
                let hold = net.and(vec![cr[bit as usize], not_touch]);
                let set_ops: Vec<NodeId> = setters
                    .get(&bit)
                    .map(|v| v.iter().map(|&t| fire[t]).collect())
                    .unwrap_or_default();
                let set = net.or(set_ops);
                let next = net.or(vec![set, hold]);
                next_state_bits.insert(bit, next);
            }
        }
    }

    // Declare outputs: fire signals (transition address table strobes,
    // also the guard signals G0..Gm) and next-state bits.
    for (i, &f) in fire.iter().enumerate() {
        net.set_output(format!("T{i}"), f);
    }
    for (&bit, &node) in &next_state_bits {
        net.set_output(format!("next_cr{bit}"), node);
    }

    let table = TransitionAddressTable {
        entries: order.iter().map(|&i| TransitionId::from_index(i)).collect(),
    };

    SlaSynthesis { net, fire, enable, next_state_bits, table, cr_width: layout.width() }
}

/// Lowers a trigger/guard expression into the network via SOP;
/// `input_of` maps an atom to its CR-bit input.
fn expr_to_net<F: Fn(&str) -> NodeId>(expr: &Expr, net: &mut LogicNet, input_of: &F) -> NodeId {
    let sop = expr.to_sop();
    let mut terms = Vec::with_capacity(sop.len());
    for term in sop {
        let mut lits = Vec::with_capacity(term.len());
        for (atom, negated) in term {
            let inp = input_of(&atom);
            lits.push(if negated { net.not(inp) } else { inp });
        }
        terms.push(net.and(lits));
    }
    net.or(terms)
}

/// The states a transition enters, computed statically: the path from
/// its scope down to the target, sibling AND components entered along
/// the way, and the default completion below the target. Mirrors the
/// reference executor's entry logic (which is configuration-independent
/// except for shallow-history regions).
pub fn static_entry_set(chart: &Chart, tid: TransitionId) -> Vec<StateId> {
    static_entry_set_kinds(chart, tid).into_iter().map(|(s, _)| s).collect()
}

/// Like [`static_entry_set`], but each state carries whether it was
/// entered *explicitly* (on the path from scope to target) or by default
/// completion. Shallow-history regions only latch a new child on
/// explicit entries — their CR fields must not be written on default
/// completion (the retained value *is* the history).
pub fn static_entry_set_kinds(chart: &Chart, tid: TransitionId) -> Vec<(StateId, bool)> {
    let t = chart.transition(tid);
    entry_set_kinds(chart, tid, chart.transition_scope(t.source, t.target))
}

/// [`static_entry_set_kinds`] for a transition whose scope is known.
fn entry_set_kinds(chart: &Chart, tid: TransitionId, scope: StateId) -> Vec<(StateId, bool)> {
    let t = chart.transition(tid);
    let mut entered: Vec<(StateId, bool)> = Vec::new();

    let mut path: Vec<StateId> = Vec::new();
    let mut cur = t.target;
    while cur != scope {
        path.push(cur);
        match chart.state(cur).parent {
            Some(p) => cur = p,
            None => break,
        }
    }
    path.reverse();
    // An AND scope's other children are re-entered with their defaults
    // (mirrors the executor's entry logic for root-region crossings).
    let scope_state = chart.state(scope);
    if scope_state.kind == StateKind::And {
        let first_on_path = path.first().copied();
        for &c in &scope_state.children {
            if Some(c) != first_on_path {
                default_completion(chart, c, &mut entered);
            }
        }
    }
    for (i, &s) in path.iter().enumerate() {
        entered.push((s, true));
        let next_on_path = path.get(i + 1).copied();
        let st = chart.state(s);
        if st.kind == StateKind::And {
            for &c in &st.children {
                if Some(c) != next_on_path {
                    default_completion(chart, c, &mut entered);
                }
            }
        }
    }
    // Below the target.
    let target = chart.state(t.target);
    match target.kind {
        StateKind::Or => {
            if let Some(d) = target.default {
                if !target.history {
                    default_completion(chart, d, &mut entered);
                }
            }
        }
        StateKind::And => {
            for &c in &target.children {
                default_completion(chart, c, &mut entered);
            }
        }
        StateKind::Basic => {}
    }
    entered.sort_unstable();
    entered.dedup();
    entered
}

/// Default completion marks everything as non-explicit; descent stops
/// at shallow-history regions (the hardware holds their fields).
fn default_completion(chart: &Chart, s: StateId, out: &mut Vec<(StateId, bool)>) {
    out.push((s, false));
    let st = chart.state(s);
    match st.kind {
        StateKind::Or => {
            if st.history {
                return; // field held, child statically unknown
            }
            if let Some(d) = st.default {
                default_completion(chart, d, out);
            }
        }
        StateKind::And => {
            for &c in &st.children {
                default_completion(chart, c, out);
            }
        }
        StateKind::Basic => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_statechart::encoding::EncodingStyle;
    use pscp_statechart::ChartBuilder;

    fn toggle() -> Chart {
        let mut b = ChartBuilder::new("t");
        b.event("TICK", None);
        b.state("Top", StateKind::Or).contains(["Off", "On"]).default_child("Off");
        b.state("Off", StateKind::Basic).transition("On", "TICK");
        b.state("On", StateKind::Basic).transition("Off", "TICK");
        b.build().unwrap()
    }

    #[test]
    fn synthesizes_fire_and_next_state() {
        let chart = toggle();
        let layout = CrLayout::new(&chart, EncodingStyle::Exclusivity);
        let sla = synthesize(&chart, &layout);
        assert_eq!(sla.fire.len(), 2);
        // One field bit (Top: 2 children) with a next function.
        assert_eq!(sla.next_state_bits.len(), 1);
        assert_eq!(sla.table.len(), 2);
        assert!(sla.product_terms() > 0);
    }

    #[test]
    fn static_entry_set_includes_defaults() {
        let mut b = ChartBuilder::new("c");
        b.event("E", None);
        b.state("Top", StateKind::Or).contains(["A", "P"]).default_child("A");
        b.state("A", StateKind::Basic).transition("P", "E");
        b.state("P", StateKind::And).contains(["L", "R"]);
        b.state("L", StateKind::Or).contains(["L1", "L2"]).default_child("L1");
        b.basic("L1");
        b.basic("L2");
        b.state("R", StateKind::Or).contains(["R1"]).default_child("R1");
        b.basic("R1");
        let chart = b.build().unwrap();
        let tid = chart.transition_ids().next().unwrap();
        let entered = static_entry_set(&chart, tid);
        let names: Vec<&str> =
            entered.iter().map(|&s| chart.state(s).name.as_str()).collect();
        for n in ["P", "L", "L1", "R", "R1"] {
            assert!(names.contains(&n), "missing {n} in {names:?}");
        }
        assert!(!names.contains(&"L2"));
    }

    #[test]
    fn onehot_synthesis_works_too() {
        let chart = toggle();
        let layout = CrLayout::new(&chart, EncodingStyle::OneHot);
        let sla = synthesize(&chart, &layout);
        assert_eq!(sla.fire.len(), 2);
        // One-hot: both Off and On bits get next-state functions.
        assert_eq!(sla.next_state_bits.len(), 2);
    }
}
