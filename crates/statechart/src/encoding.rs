//! Exclusivity-set state encoding and the configuration-register layout.
//!
//! The efficient state encoding of a chart "involves the generation of
//! exclusivity sets" (§2, after Drusinsky's single-block state-assignment
//! procedure): the children of every OR-state are mutually exclusive and
//! can therefore share one binary-encoded field of `ceil(log2(n))` bits,
//! while the children of AND-states are concurrent and need independent
//! fields. The resulting *state part*, together with one bit per event
//! and condition, forms the configuration register (CR) that the SLA
//! reads and writes (Fig. 1).
//!
//! A [`CrLayout`] maps every state to the conjunction of CR-bit literals
//! that is true exactly when the state is active —
//! [`CrLayout::activity_literals`] — which is precisely what the SLA
//! synthesiser needs to build its product terms. A one-hot encoding is
//! also provided for the area/latency ablation benchmarks.

use crate::model::{Chart, ConditionId, EventId, StateId, StateKind};
use crate::semantics::Configuration;

/// State-encoding style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingStyle {
    /// Exclusivity sets: one binary field per OR-state (the paper's
    /// encoding).
    Exclusivity,
    /// One flip-flop per state (baseline for the ablation).
    OneHot,
}

/// A binary field in the state part of the CR, owned by one OR-state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateField {
    /// The OR-state whose active child this field encodes.
    pub owner: StateId,
    /// Bit offset inside the CR.
    pub offset: u32,
    /// Field width in bits (`ceil(log2(children))`, may be 0).
    pub width: u32,
    /// `codes[i]` is the code assigned to `children[i]` of the owner.
    pub codes: Vec<u32>,
}

/// The complete configuration-register layout for a chart.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CrLayout {
    style: EncodingStyle,
    /// Binary fields (exclusivity style) in hierarchy order.
    fields: Vec<StateField>,
    /// One-hot bit per state (one-hot style); `u32::MAX` when absent.
    onehot_bits: Vec<u32>,
    state_width: u32,
    /// Offset of each event's bit.
    event_offsets: Vec<u32>,
    /// Offset of each condition's bit (conditions may be wider than 1).
    condition_offsets: Vec<u32>,
    condition_widths: Vec<u32>,
    total_width: u32,
}

impl CrLayout {
    /// Builds the CR layout for `chart` with the chosen style.
    pub fn new(chart: &Chart, style: EncodingStyle) -> Self {
        let mut fields = Vec::new();
        let mut onehot_bits = vec![u32::MAX; chart.state_count()];
        let mut offset = 0u32;

        match style {
            EncodingStyle::Exclusivity => {
                // Preorder over the hierarchy gives stable field order.
                for s in chart.descendants_inclusive(chart.root()) {
                    let st = chart.state(s);
                    if st.kind == StateKind::Or && !st.children.is_empty() {
                        let n = st.children.len() as u32;
                        let width = 32 - (n - 1).leading_zeros().min(31);
                        let width = if n <= 1 { 0 } else { width };
                        // The default child always takes code 0, so a
                        // never-entered (all-zero) field decodes to the
                        // default — which also makes history fields work
                        // for free: an inactive region's field simply
                        // retains the last active child's code.
                        let default_idx = st
                            .default
                            .and_then(|d| st.children.iter().position(|&c| c == d))
                            .unwrap_or(0) as u32;
                        let codes: Vec<u32> = (0..n)
                            .map(|i| {
                                if i == default_idx {
                                    0
                                } else if i < default_idx {
                                    i + 1
                                } else {
                                    i
                                }
                            })
                            .collect();
                        fields.push(StateField { owner: s, offset, width, codes });
                        offset += width;
                    }
                }
            }
            EncodingStyle::OneHot => {
                for s in chart.state_ids() {
                    if s != chart.root() {
                        onehot_bits[s.index()] = offset;
                        offset += 1;
                    }
                }
            }
        }
        let state_width = offset;

        let mut event_offsets = Vec::with_capacity(chart.events().len());
        for _ev in chart.events() {
            event_offsets.push(offset);
            offset += 1;
        }
        let mut condition_offsets = Vec::new();
        let mut condition_widths = Vec::new();
        for c in chart.conditions() {
            condition_offsets.push(offset);
            condition_widths.push(c.width.max(1) as u32);
            offset += c.width.max(1) as u32;
        }

        CrLayout {
            style,
            fields,
            onehot_bits,
            state_width,
            event_offsets,
            condition_offsets,
            condition_widths,
            total_width: offset,
        }
    }

    /// Encoding style used.
    pub fn style(&self) -> EncodingStyle {
        self.style
    }

    /// Total CR width in bits.
    pub fn width(&self) -> u32 {
        self.total_width
    }

    /// Width of the state part.
    pub fn state_width(&self) -> u32 {
        self.state_width
    }

    /// Number of event bits.
    pub fn event_width(&self) -> u32 {
        self.event_offsets.len() as u32
    }

    /// Width of the condition part.
    pub fn condition_width(&self) -> u32 {
        self.condition_widths.iter().sum()
    }

    /// The binary fields of the state part (exclusivity style).
    pub fn fields(&self) -> &[StateField] {
        &self.fields
    }

    /// One-hot bit of a state (one-hot style only; `None` for the root
    /// or in exclusivity style).
    pub fn onehot_bit(&self, s: StateId) -> Option<u32> {
        match self.onehot_bits.get(s.index()) {
            Some(&b) if b != u32::MAX => Some(b),
            _ => None,
        }
    }

    /// Bit offset of an event's bit in the CR.
    pub fn event_bit(&self, e: EventId) -> u32 {
        self.event_offsets[e.index()]
    }

    /// Bit offset of a condition's least-significant bit in the CR.
    pub fn condition_bit(&self, c: ConditionId) -> u32 {
        self.condition_offsets[c.index()]
    }

    /// The conjunction of CR-bit literals `(bit, value)` that holds
    /// exactly when `s` is active. Empty for the root (always active).
    pub fn activity_literals(&self, chart: &Chart, s: StateId) -> Vec<(u32, bool)> {
        match self.style {
            EncodingStyle::OneHot => {
                // The full ancestor chain: history regions retain their
                // child bits while inactive, so a single bit is not
                // sufficient evidence of activity.
                let mut lits: Vec<(u32, bool)> = Vec::new();
                let mut cur = Some(s);
                while let Some(x) = cur {
                    if x == chart.root() {
                        break;
                    }
                    if let Some(&b) = self.onehot_bits.get(x.index()) {
                        if b != u32::MAX {
                            lits.push((b, true));
                        }
                    }
                    cur = chart.state(x).parent;
                }
                lits.sort_unstable();
                lits
            }
            EncodingStyle::Exclusivity => {
                let mut lits = Vec::new();
                let mut child = s;
                for anc in chart.ancestors(s) {
                    if chart.state(anc).kind == StateKind::Or {
                        if let Some(f) = self.fields.iter().find(|f| f.owner == anc) {
                            let idx = chart
                                .state(anc)
                                .children
                                .iter()
                                .position(|&c| c == child)
                                .expect("child on ancestor path");
                            let code = f.codes[idx];
                            for b in 0..f.width {
                                lits.push((f.offset + b, code & (1 << b) != 0));
                            }
                        }
                    }
                    child = anc;
                }
                lits.sort_unstable();
                lits
            }
        }
    }

    /// Encodes a configuration into CR state-part bits (events and
    /// conditions left zero).
    pub fn encode(&self, chart: &Chart, config: &Configuration) -> Vec<bool> {
        let mut bits = vec![false; self.total_width as usize];
        match self.style {
            EncodingStyle::Exclusivity => {
                for f in &self.fields {
                    if config.is_active(f.owner) {
                        let owner = chart.state(f.owner);
                        if let Some(idx) =
                            owner.children.iter().position(|&c| config.is_active(c))
                        {
                            let code = f.codes[idx];
                            for b in 0..f.width {
                                bits[(f.offset + b) as usize] = code & (1 << b) != 0;
                            }
                        }
                    }
                }
            }
            EncodingStyle::OneHot => {
                for s in chart.state_ids() {
                    let bit = self.onehot_bits[s.index()];
                    if bit != u32::MAX {
                        bits[bit as usize] = config.is_active(s);
                    }
                }
            }
        }
        bits
    }

    /// Decides from CR bits whether state `s` is active.
    pub fn is_active_in(&self, chart: &Chart, bits: &[bool], s: StateId) -> bool {
        // With exclusivity encoding an inactive subtree's fields are
        // dangling; activity therefore requires the *whole* literal chain.
        self.activity_literals(chart, s).iter().all(|&(bit, v)| bits[bit as usize] == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChartBuilder;
    use crate::semantics::Executor;

    fn sample() -> Chart {
        let mut b = ChartBuilder::new("enc");
        b.event("E", None);
        b.event("F", None);
        b.condition("C", false);
        b.state("Top", StateKind::Or).contains(["A", "P"]).default_child("A");
        b.basic("A");
        b.state("P", StateKind::And).contains(["L", "R"]);
        b.state("L", StateKind::Or)
            .contains(["L1", "L2", "L3"])
            .default_child("L1");
        b.basic("L1");
        b.basic("L2");
        b.basic("L3");
        b.state("R", StateKind::Or).contains(["R1", "R2"]).default_child("R1");
        b.basic("R1");
        b.basic("R2");
        b.build().unwrap()
    }

    #[test]
    fn exclusivity_width_is_logarithmic() {
        let c = sample();
        let l = CrLayout::new(&c, EncodingStyle::Exclusivity);
        // Top: 2 children -> 1 bit, L: 3 children -> 2 bits, R: 2 -> 1.
        assert_eq!(l.state_width(), 4);
        assert_eq!(l.event_width(), 2);
        assert_eq!(l.condition_width(), 1);
        assert_eq!(l.width(), 7);
    }

    #[test]
    fn onehot_width_is_linear() {
        let c = sample();
        let l = CrLayout::new(&c, EncodingStyle::OneHot);
        assert_eq!(l.state_width(), c.state_count() as u32 - 1);
    }

    #[test]
    fn exclusivity_beats_onehot_on_wide_or() {
        let mut b = ChartBuilder::new("wide");
        b.event("E", None);
        let names: Vec<String> = (0..16).map(|i| format!("S{i}")).collect();
        b.state("Top", StateKind::Or)
            .contains(names.iter().map(|s| s.as_str()))
            .default_child("S0");
        let c = b.build().unwrap();
        let ex = CrLayout::new(&c, EncodingStyle::Exclusivity);
        let oh = CrLayout::new(&c, EncodingStyle::OneHot);
        assert_eq!(ex.state_width(), 4);
        assert_eq!(oh.state_width(), 16);
    }

    #[test]
    fn activity_literals_chain_through_hierarchy() {
        let c = sample();
        let l = CrLayout::new(&c, EncodingStyle::Exclusivity);
        let root_lits = l.activity_literals(&c, c.root());
        assert!(root_lits.is_empty());
        let l2 = c.state_by_name("L2").unwrap();
        let lits = l.activity_literals(&c, l2);
        // L2 needs: Top field selects P (1 bit) + L field selects L2 (2 bits).
        assert_eq!(lits.len(), 3);
    }

    #[test]
    fn encode_decode_round_trip_both_styles() {
        let c = sample();
        for style in [EncodingStyle::Exclusivity, EncodingStyle::OneHot] {
            let l = CrLayout::new(&c, style);
            let mut exec = Executor::new(&c);
            // Walk through a few configurations.
            for evs in [vec![], vec!["E"], vec!["F"], vec!["E", "F"]] {
                exec.step_named(evs, |_| Default::default());
                let bits = l.encode(&c, exec.configuration());
                for s in c.state_ids() {
                    assert_eq!(
                        l.is_active_in(&c, &bits, s),
                        exec.configuration().is_active(s),
                        "style {style:?} state {}",
                        c.state(s).name
                    );
                }
            }
        }
    }

    #[test]
    fn single_child_or_needs_no_bits() {
        let mut b = ChartBuilder::new("c");
        b.state("Top", StateKind::Or).contains(["Only"]).default_child("Only");
        b.basic("Only");
        let c = b.build().unwrap();
        let l = CrLayout::new(&c, EncodingStyle::Exclusivity);
        assert_eq!(l.state_width(), 0);
        // Only is still decodably active.
        let exec = Executor::new(&c);
        let bits = l.encode(&c, exec.configuration());
        assert!(l.is_active_in(&c, &bits, c.state_by_name("Only").unwrap()));
    }
}
