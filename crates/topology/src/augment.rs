//! The cluster augmentation `G → G(k)` (paper, Section 2, "Network").
//!
//! Each vertex `C` of the abstract graph `G = (C, E)` is replaced by a set
//! of `k ≥ 3f+1` *physical* nodes forming a clique (cluster edges), and
//! each abstract edge `(B, C) ∈ E` by a complete bipartite graph between
//! the corresponding clusters (intercluster edges). [`ClusterGraph`] owns
//! both graphs and the node ⇄ (cluster, slot) indexing, plus the
//! node/edge-overhead accounting of Theorem 1.1 (`Θ(f)` nodes, `Θ(f²)`
//! edges).

use crate::graph::Graph;

/// An augmented network: the abstract cluster graph plus its physical
/// realization.
///
/// Physical node ids are dense: the members of cluster `c` are
/// `c·k .. (c+1)·k`.
///
/// # Examples
///
/// ```
/// use ftgcs_topology::{generators::line, ClusterGraph};
///
/// // A line of 3 clusters, each a 4-clique (tolerating f = 1 fault).
/// let cg = ClusterGraph::new(line(3), 4, 1);
/// assert_eq!(cg.physical().node_count(), 12);
/// assert_eq!(cg.cluster_of(5), 1);
/// assert_eq!(cg.slot_of(5), 1);
/// assert_eq!(cg.node_id(2, 3), 11);
/// // Cluster edges: 3 · C(4,2) = 18; intercluster: 2 · 4² = 32.
/// assert_eq!(cg.physical().edge_count(), 18 + 32);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterGraph {
    base: Graph,
    cluster_size: usize,
    max_faults: usize,
    physical: Graph,
}

impl ClusterGraph {
    /// Augments `base` with clusters of `cluster_size = k` nodes tolerating
    /// up to `max_faults = f` Byzantine members each.
    ///
    /// # Panics
    ///
    /// Panics unless `k ≥ 3f + 1` (the resilience bound of [DHS'84]) and
    /// `k ≥ 1`.
    #[must_use]
    #[allow(clippy::int_plus_one, reason = "mirror the paper's k >= 3f+1 form")]
    pub fn new(base: Graph, cluster_size: usize, max_faults: usize) -> Self {
        assert!(cluster_size >= 1, "clusters must be non-empty");
        assert!(
            cluster_size >= 3 * max_faults + 1,
            "need k >= 3f+1 (got k={cluster_size}, f={max_faults})"
        );
        let k = cluster_size;
        let n = base.node_count();
        let mut edges = Vec::with_capacity(n * k * (k - 1) / 2 + base.edge_count() * k * k);
        // Cluster edges: each cluster is a clique.
        for c in 0..n {
            for i in 0..k {
                for j in (i + 1)..k {
                    edges.push((c * k + i, c * k + j));
                }
            }
        }
        // Intercluster edges: complete bipartite between adjacent clusters.
        for (b, c) in base.edges() {
            for i in 0..k {
                for j in 0..k {
                    edges.push((b * k + i, c * k + j));
                }
            }
        }
        // Every list is sized once, to its degree `(k − 1) + k·deg(c)`.
        let physical = Graph::from_edges(n * k, &edges);
        ClusterGraph {
            base,
            cluster_size,
            max_faults,
            physical,
        }
    }

    /// The abstract cluster graph `G`.
    #[must_use]
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// The physical graph `G` on which the algorithm runs.
    #[must_use]
    pub fn physical(&self) -> &Graph {
        &self.physical
    }

    /// Cluster size `k`.
    #[must_use]
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// Fault budget `f` per cluster.
    #[must_use]
    pub fn max_faults(&self) -> usize {
        self.max_faults
    }

    /// Number of clusters.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.base.node_count()
    }

    /// The cluster containing physical node `v`.
    #[must_use]
    pub fn cluster_of(&self, v: usize) -> usize {
        assert!(v < self.physical.node_count(), "node out of range");
        v / self.cluster_size
    }

    /// The slot (index within its cluster) of physical node `v`.
    #[must_use]
    pub fn slot_of(&self, v: usize) -> usize {
        assert!(v < self.physical.node_count(), "node out of range");
        v % self.cluster_size
    }

    /// The physical node at `(cluster, slot)`.
    #[must_use]
    pub fn node_id(&self, cluster: usize, slot: usize) -> usize {
        assert!(cluster < self.cluster_count(), "cluster out of range");
        assert!(slot < self.cluster_size, "slot out of range");
        cluster * self.cluster_size + slot
    }

    /// Physical members of a cluster.
    #[must_use]
    pub fn members(&self, cluster: usize) -> std::ops::Range<usize> {
        assert!(cluster < self.cluster_count(), "cluster out of range");
        let k = self.cluster_size;
        cluster * k..(cluster + 1) * k
    }

    /// Clusters adjacent to `cluster` in the base graph.
    #[must_use]
    pub fn neighbor_clusters(&self, cluster: usize) -> &[usize] {
        self.base.neighbors(cluster)
    }

    /// Number of cluster (intra-clique) edges.
    #[must_use]
    pub fn cluster_edge_count(&self) -> usize {
        self.cluster_count() * self.cluster_size * (self.cluster_size - 1) / 2
    }

    /// Number of intercluster (bipartite) edges.
    #[must_use]
    pub fn intercluster_edge_count(&self) -> usize {
        self.base.edge_count() * self.cluster_size * self.cluster_size
    }

    /// Node overhead factor over the base graph (= `k`).
    #[must_use]
    pub fn node_overhead(&self) -> usize {
        self.cluster_size
    }

    /// Edge overhead factor over the base graph: total physical edges per
    /// base edge, counting clique edges amortized over base edges
    /// (`∞` is avoided by returning `None` for edgeless bases).
    #[must_use]
    pub fn edge_overhead(&self) -> Option<f64> {
        if self.base.edge_count() == 0 {
            return None;
        }
        Some(self.physical.edge_count() as f64 / self.base.edge_count() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::diameter;
    use crate::generators::{complete, line, ring};

    #[test]
    fn indexing_round_trips() {
        let cg = ClusterGraph::new(ring(5), 7, 2);
        for c in 0..5 {
            for s in 0..7 {
                let v = cg.node_id(c, s);
                assert_eq!(cg.cluster_of(v), c);
                assert_eq!(cg.slot_of(v), s);
                assert!(cg.members(c).contains(&v));
            }
        }
    }

    #[test]
    fn edge_counts_match_formulas() {
        let base = ring(6);
        let k = 4;
        let cg = ClusterGraph::new(base.clone(), k, 1);
        assert_eq!(cg.cluster_edge_count(), 6 * (k * (k - 1) / 2));
        assert_eq!(cg.intercluster_edge_count(), base.edge_count() * k * k);
        assert_eq!(
            cg.physical().edge_count(),
            cg.cluster_edge_count() + cg.intercluster_edge_count()
        );
        assert!(cg.physical().is_consistent());
    }

    #[test]
    fn clusters_are_cliques_and_bipartite_connections_complete() {
        let cg = ClusterGraph::new(line(3), 4, 1);
        let g = cg.physical();
        // Clique inside cluster 1.
        for i in cg.members(1) {
            for j in cg.members(1) {
                if i != j {
                    assert!(g.has_edge(i, j));
                }
            }
        }
        // Complete bipartite 0↔1, no edges 0↔2.
        for i in cg.members(0) {
            for j in cg.members(1) {
                assert!(g.has_edge(i, j));
            }
            for j in cg.members(2) {
                assert!(!g.has_edge(i, j));
            }
        }
    }

    #[test]
    fn augmentation_preserves_diameter() {
        let base = line(5);
        let cg = ClusterGraph::new(base.clone(), 4, 1);
        assert_eq!(diameter(cg.physical()), diameter(&base));
    }

    #[test]
    fn overhead_factors() {
        let cg = ClusterGraph::new(complete(4), 7, 2);
        assert_eq!(cg.node_overhead(), 7);
        let per_edge = cg.edge_overhead().unwrap();
        // 6 base edges -> 6·49 inter + 4·21 intra = 294 + 84 = 378 edges.
        assert!((per_edge - 378.0 / 6.0).abs() < 1e-12);
        assert!(ClusterGraph::new(Graph::new(2), 4, 1)
            .edge_overhead()
            .is_none());
    }

    #[test]
    fn f_zero_allows_singleton_clusters() {
        let cg = ClusterGraph::new(line(3), 1, 0);
        assert_eq!(cg.physical().node_count(), 3);
        assert_eq!(cg.physical().edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "3f+1")]
    fn rejects_insufficient_cluster_size() {
        let _ = ClusterGraph::new(line(2), 3, 1);
    }
}
