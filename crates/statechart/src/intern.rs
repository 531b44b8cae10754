//! Name interning for the simulation hot path.
//!
//! [`Chart::event_by_name`] and [`Chart::condition_by_name`] are linear
//! scans over the declaration arrays — fine while building a chart,
//! wasteful when a co-simulation resolves the same environment-supplied
//! names every configuration cycle. A [`NameIndex`] is built once from
//! the declarations — a chart's pair lives in its
//! [`SelectionTables`](crate::semantics::SelectionTables) — and answers
//! lookups by binary search with no hashing or allocation.
//!
//! [`Chart::event_by_name`]: crate::Chart::event_by_name
//! [`Chart::condition_by_name`]: crate::Chart::condition_by_name

use crate::model::{Chart, ConditionId, EventId};

/// A sorted name → index table for O(log n) allocation-free lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameIndex {
    /// `(name, declaration index)`, sorted by name.
    entries: Vec<(String, u32)>,
}

impl NameIndex {
    /// Builds an index from `(name, index)` pairs. When a name occurs
    /// more than once the lowest index wins, matching the first-match
    /// behaviour of a linear scan.
    pub fn new<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (String, u32)>,
    {
        let mut entries: Vec<(String, u32)> = pairs.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        entries.dedup_by(|b, a| a.0 == b.0);
        NameIndex { entries }
    }

    /// Looks up a name.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index holds no names.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An interned event-name table for a chart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventNames(NameIndex);

impl EventNames {
    /// Builds the table from a chart's event declarations.
    pub fn new(chart: &Chart) -> Self {
        EventNames(NameIndex::new(
            chart.events().enumerate().map(|(i, e)| (e.name.clone(), i as u32)),
        ))
    }

    /// Resolves an event name; equivalent to
    /// [`Chart::event_by_name`](crate::Chart::event_by_name).
    pub fn get(&self, name: &str) -> Option<EventId> {
        self.0.get(name).map(EventId)
    }
}

/// An interned condition-name table for a chart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionNames(NameIndex);

impl ConditionNames {
    /// Builds the table from a chart's condition declarations.
    pub fn new(chart: &Chart) -> Self {
        ConditionNames(NameIndex::new(
            chart.conditions().enumerate().map(|(i, c)| (c.name.clone(), i as u32)),
        ))
    }

    /// Resolves a condition name; equivalent to
    /// [`Chart::condition_by_name`](crate::Chart::condition_by_name).
    pub fn get(&self, name: &str) -> Option<ConditionId> {
        self.0.get(name).map(ConditionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChartBuilder;
    use crate::model::StateKind;

    #[test]
    fn matches_linear_scan() {
        let mut b = ChartBuilder::new("t");
        b.event("ALPHA", None);
        b.event("BETA", Some(100));
        b.event("GAMMA", None);
        b.condition("OK", false);
        b.condition("ARMED", true);
        b.state("A", StateKind::Basic).transition("B", "ALPHA");
        b.basic("B");
        let chart = b.build().unwrap();

        let evs = EventNames::new(&chart);
        let conds = ConditionNames::new(&chart);
        for e in chart.events() {
            assert_eq!(evs.get(&e.name), chart.event_by_name(&e.name));
        }
        for c in chart.conditions() {
            assert_eq!(conds.get(&c.name), chart.condition_by_name(&c.name));
        }
        assert_eq!(evs.get("NO_SUCH_EVENT"), None);
        assert_eq!(conds.get("NO_SUCH_COND"), None);
    }

    #[test]
    fn duplicate_names_keep_first_index() {
        let idx = NameIndex::new(vec![
            ("x".to_string(), 3),
            ("x".to_string(), 1),
            ("y".to_string(), 0),
        ]);
        assert_eq!(idx.get("x"), Some(1));
        assert_eq!(idx.get("y"), Some(0));
        assert_eq!(idx.len(), 2);
    }
}
