//! Transition graphs over the state representation (Sec. 4.4).
//!
//! Linking every state-representation row to its successor and counting
//! occurrences yields a transition graph; rare transitions indicate
//! potential errors, and path analysis isolates error causes.

use std::collections::HashMap;

use ivnt_frame::prelude::*;

use crate::error::{Error, Result};

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

    /// Builds the graph over full state rows (all columns but time),
    /// formatting each row as a `|`-joined label.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn from_state_rows(state: &DataFrame) -> Result<TransitionGraph> {
        let rows = state.collect_rows()?;
        let mut graph = TransitionGraph::new();
        let label = |r: &[Value]| {
            r.iter()
                .skip(1)
                .map(|v| match v {
                    Value::Null => "-".to_string(),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        };
        for w in rows.windows(2) {
            graph.record(&label(&w[0]), &label(&w[1]));
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

    /// Successor states of `from` with counts, most frequent first.
    pub fn successors(&self, from: &str) -> Vec<(String, u64)> {
        let Some(&fi) = self.index.get(from) else {
            return Vec::new();
        };
        let mut out: Vec<(String, u64)> = self
            .edges
            .iter()
            .filter(|(&(f, _), _)| f == fi)
            .map(|(&(_, t), &c)| (self.nodes[t].clone(), c))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Renders the graph in Graphviz DOT format (visual inspection, as the
    /// paper proposes).
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = format!("digraph \"{name}\" {{\n");
        for (&(f, t), &c) in &self.edges {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
                self.nodes[f], self.nodes[t], c
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Paths of length `depth` ending in `target`, rarest-first by their
    /// minimum edge count — the paper's "chain of states prior to an
    /// error".
    pub fn paths_into(&self, target: &str, depth: usize) -> Vec<Vec<String>> {
        let Some(&ti) = self.index.get(target) else {
            return Vec::new();
        };
        let mut paths: Vec<(Vec<usize>, u64)> = vec![(vec![ti], u64::MAX)];
        for _ in 0..depth {
            let mut next = Vec::new();
            for (path, min_count) in &paths {
                let head = path[0];
                for (&(f, t), &c) in &self.edges {
                    if t == head && !path.contains(&f) {
                        let mut p = Vec::with_capacity(path.len() + 1);
                        p.push(f);
                        p.extend_from_slice(path);
                        next.push((p, (*min_count).min(c)));
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            paths = next;
        }
        paths.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        paths
            .into_iter()
            .map(|(p, _)| p.into_iter().map(|i| self.nodes[i].clone()).collect())
            .collect()
    }
}

/// Validates a column exists before building (convenience wrapper that
/// produces a clearer error).
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] for the time column and propagates
/// unknown-column failures.
pub fn column_graph(state: &DataFrame, column: &str) -> Result<TransitionGraph> {
    if column == "t" {
        return Err(Error::InvalidArgument(
            "transition graphs are built over signal columns, not time".into(),
        ));
    }
    TransitionGraph::from_column(state, column)
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

    #[test]
    fn successors_sorted() {
        let g = TransitionGraph::from_column(&state(), "s").unwrap();
        let succ = g.successors("a");
        assert_eq!(succ[0], ("b".to_string(), 2));
        assert_eq!(succ[1], ("c".to_string(), 1));
        assert!(g.successors("zzz").is_empty());
    }

    #[test]
    fn full_state_rows_graph() {
        let schema = Schema::from_pairs([
            ("t", DataType::Float),
            ("x", DataType::Str),
            ("y", DataType::Str),
        ])
        .unwrap()
        .into_shared();
        let state = DataFrame::from_rows(
            schema,
            vec![
                vec![Value::Float(0.0), Value::from("on"), Value::Null],
                vec![Value::Float(1.0), Value::from("on"), Value::from("hi")],
                vec![Value::Float(2.0), Value::from("off"), Value::from("hi")],
            ],
        )
        .unwrap();
        let g = TransitionGraph::from_state_rows(&state).unwrap();
        assert_eq!(g.count("on|-", "on|hi"), 1);
        assert_eq!(g.count("on|hi", "off|hi"), 1);
    }

    #[test]
    fn dot_output() {
        let g = TransitionGraph::from_column(&state(), "s").unwrap();
        let dot = g.to_dot("test");
        assert!(dot.starts_with("digraph \"test\""));
        assert!(dot.contains("\"a\" -> \"c\" [label=\"1\"]"));
    }

    #[test]
    fn paths_into_target() {
        let g = TransitionGraph::from_column(&state(), "s").unwrap();
        let paths = g.paths_into("c", 2);
        assert!(!paths.is_empty());
        // The chain b -> a -> c exists.
        assert!(paths.contains(&vec!["b".to_string(), "a".to_string(), "c".to_string()]));
        assert!(g.paths_into("zzz", 2).is_empty());
    }

    #[test]
    fn time_column_rejected() {
        assert!(matches!(
            column_graph(&state(), "t"),
            Err(Error::InvalidArgument(_))
        ));
        assert!(column_graph(&state(), "s").is_ok());
    }
}
