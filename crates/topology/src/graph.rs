//! Simple undirected graphs.
//!
//! [`Graph`] is the abstract network `G = (C, E)` of the paper: the graph
//! whose nodes become *clusters* after augmentation. It is a plain
//! adjacency-list structure with validation, suitable for the small-to-
//! medium graphs clock-synchronization experiments use.

use std::collections::BTreeSet;
use std::fmt;

/// An undirected simple graph with dense vertex ids `0..n`.
///
/// # Examples
///
/// ```
/// use ftgcs_topology::Graph;
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(0, 1) && !g.has_edge(0, 2));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Graph {
    adjacency: Vec<Vec<usize>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an edgeless graph with `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Builds a graph from an edge list: the graph that
    /// [`Graph::add_edge`] on each edge in turn builds, with every
    /// neighbour list sized once and duplicates found in O(d log d) per
    /// list instead of O(d) per edge.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut degree = vec![0usize; n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            assert_ne!(a, b, "self-loops are not allowed");
            degree[a] += 1;
            degree[b] += 1;
        }
        let mut adjacency: Vec<Vec<usize>> =
            degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for &(a, b) in edges {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        // The counts are spent: their buffer holds each list, sorted.
        let mut sorted = degree;
        for (a, list) in adjacency.iter().enumerate() {
            sorted.clear();
            sorted.extend_from_slice(list);
            sorted.sort_unstable();
            if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
                panic!("duplicate edge {a}-{}", pair[0]);
            }
        }
        Graph {
            adjacency,
            edge_count: edges.len(),
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds an undirected edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        let n = self.node_count();
        assert!(a < n && b < n, "edge endpoint out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        assert!(!self.has_edge(a, b), "duplicate edge {a}-{b}");
        self.adjacency[a].push(b);
        self.adjacency[b].push(a);
        self.edge_count += 1;
    }

    /// Returns whether `{a, b}` is an edge.
    #[must_use]
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a < self.node_count() && self.adjacency[a].contains(&b)
    }

    /// Neighbors of `v`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjacency[v]
    }

    /// Degree of `v`.
    #[must_use]
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Iterates over all edges as `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(a, nbrs)| nbrs.iter().filter(move |&&b| a < b).map(move |&b| (a, b)))
    }

    /// Iterates over all vertices.
    pub fn nodes(&self) -> impl Iterator<Item = usize> {
        0..self.node_count()
    }

    /// Maximum degree, or 0 for the empty graph.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Checks structural invariants (symmetric adjacency, no loops, no
    /// duplicates). Intended for tests and debug assertions.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let mut count = 0;
        for (a, nbrs) in self.adjacency.iter().enumerate() {
            let set: BTreeSet<_> = nbrs.iter().copied().collect();
            if set.len() != nbrs.len() || set.contains(&a) {
                return false;
            }
            for &b in nbrs {
                if b >= self.node_count() || !self.adjacency[b].contains(&a) {
                    return false;
                }
                if a < b {
                    count += 1;
                }
            }
        }
        count == self.edge_count
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.node_count(), self.edge_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert!(g.has_edge(3, 0));
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(0, 2));
        assert!(g.is_consistent());
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        assert_eq!(g.nodes().count(), 4);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_edge() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }

    #[test]
    fn from_edges_builds_what_add_edge_builds() {
        let edges = [(2, 0), (0, 1), (3, 2), (1, 3), (0, 3)];
        let mut g = Graph::new(4);
        for &(a, b) in &edges {
            g.add_edge(a, b);
        }
        let bulk = Graph::from_edges(4, &edges);
        assert_eq!(bulk, g);
        assert!(bulk.is_consistent());
    }

    #[test]
    #[should_panic(expected = "duplicate edge 1-2")]
    fn add_edge_rejects_a_duplicate_by_name() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(1, 2);
    }

    #[test]
    #[should_panic(expected = "duplicate edge 1-2")]
    fn from_edges_rejects_a_duplicate_by_name() {
        let _ = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        let _ = Graph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn from_edges_rejects_self_loop() {
        let _ = Graph::from_edges(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        g.add_edge(0, 2);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_consistent());
        assert!(!format!("{g:?}").is_empty());
    }
}
