//! Structural queries over the state hierarchy.
//!
//! All queries are O(depth) or O(subtree) and walk the chart afresh on
//! every call. The ancestor queries ([`Chart::lca`],
//! [`Chart::transition_scope`], [`Chart::orthogonal`]) allocate nothing;
//! the subtree queries return a `Vec`. They serve one-off passes over a
//! chart: SLA synthesis asks for each transition's scope once and for
//! each pair of distinct scopes' orthogonality once, never per pair of
//! transitions. The executor's per-cycle transition selection does not
//! call them: [`SelectionTables`](crate::semantics::SelectionTables)
//! stores each transition's scope and precomputes preorder subtree
//! spans once per chart, and its tests pin them to these queries.
//! Selection itself finds its candidates through the tables' key-event
//! lists, not by walking the hierarchy.

use crate::model::{Chart, StateId, StateKind};

impl Chart {
    /// Iterator over `s` and its ancestors up to the root, innermost first.
    pub fn ancestors_inclusive(&self, s: StateId) -> AncestorsInclusive<'_> {
        AncestorsInclusive { chart: self, cur: Some(s) }
    }

    /// Iterator over the proper ancestors of `s`, innermost first.
    pub fn ancestors(&self, s: StateId) -> AncestorsInclusive<'_> {
        AncestorsInclusive { chart: self, cur: self.state(s).parent }
    }

    /// Depth of `s` (root has depth 0).
    pub fn depth(&self, s: StateId) -> usize {
        self.ancestors(s).count()
    }

    /// True when `a` is a proper ancestor of `b`.
    pub fn is_ancestor(&self, a: StateId, b: StateId) -> bool {
        self.ancestors(b).any(|x| x == a)
    }

    /// True when `a` equals `b` or is a proper ancestor of `b`.
    pub fn is_ancestor_or_self(&self, a: StateId, b: StateId) -> bool {
        a == b || self.is_ancestor(a, b)
    }

    /// Least common ancestor of two states (may be one of them): the
    /// deeper state walks up to the other's depth, then both walk up in
    /// step until they meet. O(depth), no allocation.
    pub fn lca(&self, mut a: StateId, mut b: StateId) -> StateId {
        let parent = |s: StateId| self.state(s).parent;
        let (mut da, mut db) = (self.depth(a), self.depth(b));
        while da > db {
            a = parent(a).expect("a deeper state has a parent");
            da -= 1;
        }
        while db > da {
            b = parent(b).expect("a deeper state has a parent");
            db -= 1;
        }
        while a != b {
            match (parent(a), parent(b)) {
                (Some(pa), Some(pb)) => (a, b) = (pa, pb),
                // Separate trees: fall back to the root.
                _ => return self.root(),
            }
        }
        a
    }

    /// The *scope* of a transition from `src` to `dst`: the innermost
    /// OR-state that properly contains both. Exiting/entering happens
    /// strictly inside this scope.
    pub fn transition_scope(&self, src: StateId, dst: StateId) -> StateId {
        let mut scope = self.lca(src, dst);
        // If the LCA is one of the endpoints (self-loop into an ancestor),
        // widen to its parent; also widen past AND-states, since a
        // transition cannot re-dispatch a single AND child.
        while scope == src
            || scope == dst
            || self.state(scope).kind == StateKind::And && scope != self.root()
        {
            match self.state(scope).parent {
                Some(p) => scope = p,
                None => break,
            }
        }
        scope
    }

    /// True when `a` and `b` are orthogonal: distinct, neither contains
    /// the other, and their LCA is an AND-state (so both can be active at
    /// once, in different parallel components).
    pub fn orthogonal(&self, a: StateId, b: StateId) -> bool {
        if a == b || self.is_ancestor(a, b) || self.is_ancestor(b, a) {
            return false;
        }
        self.state(self.lca(a, b)).kind == StateKind::And
    }

    /// All states in the subtree rooted at `s`, preorder, including `s`.
    pub fn descendants_inclusive(&self, s: StateId) -> Vec<StateId> {
        let mut out = Vec::new();
        let mut stack = vec![s];
        while let Some(x) = stack.pop() {
            out.push(x);
            for &c in self.state(x).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Basic (leaf) states in the subtree rooted at `s`.
    pub fn leaves_under(&self, s: StateId) -> Vec<StateId> {
        self.descendants_inclusive(s)
            .into_iter()
            .filter(|&x| self.state(x).children.is_empty())
            .collect()
    }

    /// The parallel siblings of `s`: for each AND-state ancestor `p` of
    /// `s`, the children of `p` not on the path to `s`. These are the
    /// subtrees whose execution time the timing validator bounds while it
    /// explores the component containing `s` (Fig. 4).
    pub fn parallel_siblings(&self, s: StateId) -> Vec<StateId> {
        let mut out = Vec::new();
        let mut child = s;
        for p in self.ancestors(s) {
            if self.state(p).kind == StateKind::And {
                for &c in &self.state(p).children {
                    if c != child {
                        out.push(c);
                    }
                }
            }
            child = p;
        }
        out
    }

    /// Maximum nesting depth of the chart.
    pub fn max_depth(&self) -> usize {
        self.state_ids().map(|s| self.depth(s)).max().unwrap_or(0)
    }
}

/// Iterator created by [`Chart::ancestors_inclusive`].
#[derive(Debug)]
pub struct AncestorsInclusive<'a> {
    chart: &'a Chart,
    cur: Option<StateId>,
}

impl Iterator for AncestorsInclusive<'_> {
    type Item = StateId;

    fn next(&mut self) -> Option<StateId> {
        let cur = self.cur?;
        self.cur = self.chart.state(cur).parent;
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChartBuilder;

    /// Builds the shape of the paper's Fig. 4:
    /// Assembly(OR) -> { Off, Operating(AND) -> { Idle?, ... } }
    /// Operating contains DataPreparation(OR) and Sibling(OR).
    fn fig4_like() -> Chart {
        let mut b = ChartBuilder::new("fig4");
        b.event("DATA_VALID", Some(1500));
        b.state("Assembly", crate::StateKind::Or)
            .contains(["Off", "Operating"])
            .default_child("Off");
        b.basic("Off");
        b.state("Operating", crate::StateKind::And)
            .contains(["DataPreparation", "Sibling"]);
        b.state("DataPreparation", crate::StateKind::Or)
            .contains(["OpReady", "Empty", "Bounds", "NoData"])
            .default_child("OpReady");
        b.state("Sibling", crate::StateKind::Or).contains(["Idle", "Run"]).default_child("Idle");
        b.state("OpReady", crate::StateKind::Basic).transition("Empty", "DATA_VALID");
        b.build().unwrap()
    }

    #[test]
    fn ancestors_and_depth() {
        let c = fig4_like();
        let op_ready = c.state_by_name("OpReady").unwrap();
        let chain: Vec<String> =
            c.ancestors(op_ready).map(|s| c.state(s).name.clone()).collect();
        assert_eq!(chain, vec!["DataPreparation", "Operating", "Assembly"]);
        assert_eq!(c.depth(op_ready), 3);
        assert_eq!(c.depth(c.root()), 0);
    }

    #[test]
    fn lca_cases() {
        let c = fig4_like();
        let op_ready = c.state_by_name("OpReady").unwrap();
        let empty = c.state_by_name("Empty").unwrap();
        let idle = c.state_by_name("Idle").unwrap();
        let off = c.state_by_name("Off").unwrap();
        let dp = c.state_by_name("DataPreparation").unwrap();
        let operating = c.state_by_name("Operating").unwrap();
        let assembly = c.state_by_name("Assembly").unwrap();

        assert_eq!(c.lca(op_ready, empty), dp);
        assert_eq!(c.lca(op_ready, idle), operating);
        assert_eq!(c.lca(op_ready, off), assembly);
        assert_eq!(c.lca(op_ready, op_ready), op_ready);
        assert_eq!(c.lca(op_ready, dp), dp);
    }

    #[test]
    fn orthogonality() {
        let c = fig4_like();
        let op_ready = c.state_by_name("OpReady").unwrap();
        let idle = c.state_by_name("Idle").unwrap();
        let empty = c.state_by_name("Empty").unwrap();
        let dp = c.state_by_name("DataPreparation").unwrap();
        assert!(c.orthogonal(op_ready, idle));
        assert!(!c.orthogonal(op_ready, empty)); // same OR region
        assert!(!c.orthogonal(op_ready, dp)); // containment
    }

    #[test]
    fn parallel_siblings_found() {
        let c = fig4_like();
        let op_ready = c.state_by_name("OpReady").unwrap();
        let sibs: Vec<String> =
            c.parallel_siblings(op_ready).iter().map(|&s| c.state(s).name.clone()).collect();
        assert_eq!(sibs, vec!["Sibling"]);
        let off = c.state_by_name("Off").unwrap();
        assert!(c.parallel_siblings(off).is_empty());
    }

    #[test]
    fn transition_scope_is_or_state() {
        let c = fig4_like();
        let op_ready = c.state_by_name("OpReady").unwrap();
        let empty = c.state_by_name("Empty").unwrap();
        let idle = c.state_by_name("Idle").unwrap();
        assert_eq!(c.transition_scope(op_ready, empty), c.state_by_name("DataPreparation").unwrap());
        // Crossing parallel components widens past the AND-state.
        assert_eq!(c.transition_scope(op_ready, idle), c.state_by_name("Assembly").unwrap());
    }

    #[test]
    fn descendants_and_leaves() {
        let c = fig4_like();
        let operating = c.state_by_name("Operating").unwrap();
        let leaves: Vec<String> =
            c.leaves_under(operating).iter().map(|&s| c.state(s).name.clone()).collect();
        assert_eq!(leaves, vec!["OpReady", "Empty", "Bounds", "NoData", "Idle", "Run"]);
        assert_eq!(c.descendants_inclusive(operating).len(), 9);
    }
}
