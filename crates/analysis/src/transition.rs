//! Transition graphs over the state representation (Sec. 4.4).
//!
//! Linking every state-representation row to its successor and counting
//! occurrences yields a transition graph; rare transitions indicate
//! potential errors.

use std::collections::HashMap;

use ivnt_frame::prelude::*;

use crate::error::Result;

/// A directed transition graph with occurrence counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransitionGraph {
    /// Node labels, in first-seen order.
    nodes: Vec<String>,
    index: HashMap<String, usize>,
    /// Edge counts keyed by `(from, to)` node indices.
    edges: HashMap<(usize, usize), u64>,
}

/// One ranked transition.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedTransition {
    /// Source state.
    pub from: String,
    /// Target state.
    pub to: String,
    /// Occurrence count.
    pub count: u64,
    /// Count divided by total transitions.
    pub frequency: f64,
}

impl TransitionGraph {
    /// Creates an empty graph.
    pub fn new() -> TransitionGraph {
        TransitionGraph::default()
    }

    /// Builds the graph from consecutive values of one column of a state
    /// representation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Frame`] for unknown columns.
    pub fn from_column(state: &DataFrame, column: &str) -> Result<TransitionGraph> {
        let values = state.column_values(column)?;
        let mut graph = TransitionGraph::new();
        let labels: Vec<String> = values
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect();
        for w in labels.windows(2) {
            graph.record(&w[0], &w[1]);
        }
        Ok(graph)
    }

    /// Records one transition.
    pub fn record(&mut self, from: &str, to: &str) {
        let fi = self.node_index(from);
        let ti = self.node_index(to);
        *self.edges.entry((fi, ti)).or_default() += 1;
    }

    fn node_index(&mut self, label: &str) -> usize {
        if let Some(&i) = self.index.get(label) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(label.to_string());
        self.index.insert(label.to_string(), i);
        i
    }

    /// Node labels, in first-seen order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Total recorded transitions (sum of counts).
    pub fn total_transitions(&self) -> u64 {
        self.edges.values().sum()
    }

    /// Count for a specific transition (0 when never seen).
    pub fn count(&self, from: &str, to: &str) -> u64 {
        match (self.index.get(from), self.index.get(to)) {
            (Some(&f), Some(&t)) => self.edges.get(&(f, t)).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// All transitions ranked rarest-first — the paper's error-candidate
    /// ordering.
    pub fn rare_transitions(&self) -> Vec<RankedTransition> {
        let total = self.total_transitions().max(1) as f64;
        let mut out: Vec<RankedTransition> = self
            .edges
            .iter()
            .map(|(&(f, t), &count)| RankedTransition {
                from: self.nodes[f].clone(),
                to: self.nodes[t].clone(),
                count,
                frequency: count as f64 / total,
            })
            .collect();
        out.sort_by(|a, b| {
            a.count
                .cmp(&b.count)
                .then_with(|| a.from.cmp(&b.from))
                .then_with(|| a.to.cmp(&b.to))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> DataFrame {
        let schema = Schema::from_pairs([("t", DataType::Float), ("s", DataType::Str)])
            .unwrap()
            .into_shared();
        let labels = ["a", "b", "a", "b", "a", "c"];
        DataFrame::from_rows(
            schema,
            labels
                .iter()
                .enumerate()
                .map(|(i, &l)| vec![Value::Float(i as f64), Value::from(l)]),
        )
        .unwrap()
    }

    #[test]
    fn column_graph_counts() {
        let g = TransitionGraph::from_column(&state(), "s").unwrap();
        assert_eq!(g.count("a", "b"), 2);
        assert_eq!(g.count("b", "a"), 2);
        assert_eq!(g.count("a", "c"), 1);
        assert_eq!(g.count("c", "a"), 0);
        assert_eq!(g.total_transitions(), 5);
    }

    #[test]
    fn rare_transitions_ranked_first() {
        let g = TransitionGraph::from_column(&state(), "s").unwrap();
        let rare = g.rare_transitions();
        assert_eq!(rare[0].from, "a");
        assert_eq!(rare[0].to, "c");
        assert_eq!(rare[0].count, 1);
        assert!((rare[0].frequency - 0.2).abs() < 1e-9);
    }
}
