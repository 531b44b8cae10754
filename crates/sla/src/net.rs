//! A small multi-level combinational logic network.
//!
//! Nodes are AND/OR with arbitrary fan-in, NOT, constants, and named
//! inputs (the CR bits). The network is the synthesis target for the
//! SLA and the unit of area/depth accounting for the FPGA model.

use std::collections::BTreeMap;

/// Handle to a node in a [`LogicNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A logic node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// Primary input with a diagnostic name.
    Input(String),
    /// Constant.
    Const(bool),
    /// Conjunction of the operands.
    And(Vec<NodeId>),
    /// Disjunction of the operands.
    Or(Vec<NodeId>),
    /// Negation.
    Not(NodeId),
}

/// The network: a DAG of [`Node`]s, inputs first.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct LogicNet {
    nodes: Vec<Node>,
    input_index: BTreeMap<String, NodeId>,
    outputs: Vec<(String, NodeId)>,
}

impl LogicNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (inputs included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Iterates over all nodes in id order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Declared outputs in declaration order.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Adds (or returns the existing) primary input.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        if let Some(&id) = self.input_index.get(&name) {
            return id;
        }
        let id = self.push(Node::Input(name.clone()));
        self.input_index.insert(name, id);
        id
    }

    /// All primary inputs in creation order.
    pub fn inputs(&self) -> Vec<(String, NodeId)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n {
                Node::Input(name) => Some((name.clone(), NodeId(i as u32))),
                _ => None,
            })
            .collect()
    }

    /// Adds a constant node.
    pub fn constant(&mut self, v: bool) -> NodeId {
        self.push(Node::Const(v))
    }

    /// Adds an AND node (constant-folds trivial cases).
    pub fn and(&mut self, mut ops: Vec<NodeId>) -> NodeId {
        ops.sort_unstable();
        ops.dedup();
        match ops.len() {
            0 => self.constant(true),
            1 => ops[0],
            _ => self.push(Node::And(ops)),
        }
    }

    /// Adds an OR node (constant-folds trivial cases).
    pub fn or(&mut self, mut ops: Vec<NodeId>) -> NodeId {
        ops.sort_unstable();
        ops.dedup();
        match ops.len() {
            0 => self.constant(false),
            1 => ops[0],
            _ => self.push(Node::Or(ops)),
        }
    }

    /// Adds a NOT node (collapses double negation).
    pub fn not(&mut self, x: NodeId) -> NodeId {
        if let Node::Not(inner) = self.node(x) {
            return *inner;
        }
        self.push(Node::Not(x))
    }

    /// Declares a named output.
    pub fn set_output(&mut self, name: impl Into<String>, id: NodeId) {
        self.outputs.push((name.into(), id));
    }

    fn push(&mut self, n: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(n);
        id
    }

    /// Evaluates the whole network for the given input assignment
    /// (missing inputs default to false). Returns one value per node.
    pub fn eval(&self, inputs: &BTreeMap<String, bool>) -> Vec<bool> {
        let mut vals = vec![false; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            vals[i] = match n {
                Node::Input(name) => inputs.get(name).copied().unwrap_or(false),
                Node::Const(v) => *v,
                Node::And(ops) => ops.iter().all(|o| vals[o.0 as usize]),
                Node::Or(ops) => ops.iter().any(|o| vals[o.0 as usize]),
                Node::Not(x) => !vals[x.0 as usize],
            };
        }
        vals
    }

    /// Evaluates and returns just the declared outputs by name.
    pub fn eval_outputs(&self, inputs: &BTreeMap<String, bool>) -> BTreeMap<String, bool> {
        let vals = self.eval(inputs);
        self.outputs.iter().map(|(n, id)| (n.clone(), vals[id.0 as usize])).collect()
    }

    /// Total literal count (sum of gate fan-ins) — the area proxy used
    /// by the FPGA CLB estimator.
    pub fn literal_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::And(ops) | Node::Or(ops) => ops.len(),
                Node::Not(_) => 1,
                _ => 0,
            })
            .sum()
    }

    /// Logic depth in gate levels (inputs at 0), the delay proxy.
    pub fn depth(&self) -> usize {
        let mut d = vec![0usize; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            d[i] = match n {
                Node::Input(_) | Node::Const(_) => 0,
                Node::And(ops) | Node::Or(ops) => {
                    1 + ops.iter().map(|o| d[o.0 as usize]).max().unwrap_or(0)
                }
                Node::Not(x) => 1 + d[x.0 as usize],
            };
        }
        self.outputs.iter().map(|(_, id)| d[id.0 as usize]).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(pairs: &[(&str, bool)]) -> BTreeMap<String, bool> {
        pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn eval_basic_gates() {
        let mut net = LogicNet::new();
        let a = net.input("a");
        let b = net.input("b");
        let ab = net.and(vec![a, b]);
        let nb = net.not(b);
        let out = net.or(vec![ab, nb]);
        net.set_output("f", out);
        // f = ab + !b
        assert!(net.eval_outputs(&truth(&[("a", true), ("b", true)]))["f"]);
        assert!(!net.eval_outputs(&truth(&[("a", false), ("b", true)]))["f"]);
        assert!(net.eval_outputs(&truth(&[("a", false), ("b", false)]))["f"]);
    }

    #[test]
    fn inputs_are_interned() {
        let mut net = LogicNet::new();
        let a1 = net.input("a");
        let a2 = net.input("a");
        assert_eq!(a1, a2);
        assert_eq!(net.inputs().len(), 1);
    }

    #[test]
    fn trivial_gates_fold() {
        let mut net = LogicNet::new();
        let a = net.input("a");
        assert_eq!(net.and(vec![a]), a);
        assert_eq!(net.or(vec![a, a]), a);
        let t = net.and(vec![]);
        assert!(matches!(net.node(t), Node::Const(true)));
        let n = net.not(a);
        assert_eq!(net.not(n), a, "double negation collapses");
    }

    #[test]
    fn depth_and_literals() {
        let mut net = LogicNet::new();
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let ab = net.and(vec![a, b]);
        let abc = net.or(vec![ab, c]);
        net.set_output("f", abc);
        assert_eq!(net.depth(), 2);
        assert_eq!(net.literal_count(), 4);
    }

    #[test]
    fn missing_inputs_default_false() {
        let mut net = LogicNet::new();
        let a = net.input("a");
        net.set_output("f", a);
        assert!(!net.eval_outputs(&BTreeMap::new())["f"]);
    }
}
