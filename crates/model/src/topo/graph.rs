//! The core undirected graph type.

use std::fmt;

use crate::ids::Slot;

/// An immutable undirected topology graph.
///
/// Vertices are dense [`Slot`]s in `0..n`. Self-loops are rejected;
/// duplicate edges are idempotent. Adjacency lists are kept sorted and
/// deduplicated, so all iteration over neighbors is deterministic and
/// each edge is stored once per endpoint and nowhere else.
///
/// Construct one with [`Topology::from_edges`], a named builder such as
/// [`Topology::clique`], or incrementally via [`TopologyBuilder`].
#[derive(Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    /// Number of undirected edges: half the adjacency entries.
    m: usize,
    adj: Vec<Vec<Slot>>,
}

impl Topology {
    /// Creates a topology with `n` vertices and the given undirected
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range or if an edge is a
    /// self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut b = TopologyBuilder::new(n);
        for &(u, v) in edges {
            b.edge(u, v);
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the topology has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Sorted neighbors of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn neighbors(&self, slot: Slot) -> &[Slot] {
        &self.adj[slot.0]
    }

    /// Degree of `slot`.
    #[inline]
    pub fn degree(&self, slot: Slot) -> usize {
        self.adj[slot.0].len()
    }

    /// `true` iff `u` and `v` are adjacent.
    pub fn has_edge(&self, u: Slot, v: Slot) -> bool {
        self.adj[u.0].binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        (0..self.n).map(Slot)
    }

    /// Iterator over all undirected edges as `(smaller, larger)` slots,
    /// in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (Slot, Slot)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, adj)| {
            let upper = adj.partition_point(|v| v.0 <= u);
            adj[upper..].iter().map(move |&v| (Slot(u), v))
        })
    }

    /// Returns a new topology with the same vertices plus the given
    /// extra edges.
    pub fn with_extra_edges(&self, extra: &[(usize, usize)]) -> Self {
        let mut b = TopologyBuilder {
            n: self.n,
            adj: self.adj.clone(),
        };
        for &(u, v) in extra {
            b.edge(u, v);
        }
        b.build()
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Topology(n={}, m={})", self.n, self.m)
    }
}

/// Incremental builder for [`Topology`].
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    n: usize,
    /// Both directions of every added edge, duplicates included;
    /// [`TopologyBuilder::build`] sorts and deduplicates each list.
    adj: Vec<Vec<Slot>>,
}

impl TopologyBuilder {
    /// Starts a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    /// Adds an undirected edge `{u, v}`. Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn edge(&mut self, u: usize, v: usize) -> &mut Self {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range (n={})",
            self.n
        );
        assert_ne!(u, v, "self-loop at {u}");
        self.adj[u].push(Slot(v));
        self.adj[v].push(Slot(u));
        self
    }

    /// Adds a path along the given vertex sequence.
    pub fn path(&mut self, seq: &[usize]) -> &mut Self {
        for w in seq.windows(2) {
            self.edge(w[0], w[1]);
        }
        self
    }

    /// Adds all `k*(k-1)/2` edges among the given vertices.
    pub fn clique_among(&mut self, verts: &[usize]) -> &mut Self {
        for (i, &u) in verts.iter().enumerate() {
            for &v in &verts[i + 1..] {
                self.edge(u, v);
            }
        }
        self
    }

    /// Finalizes the topology.
    pub fn build(self) -> Topology {
        let mut adj = self.adj;
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        let m = adj.iter().map(Vec::len).sum::<usize>() / 2;
        Topology { n: self.n, m, adj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_sorted_adjacency() {
        let t = Topology::from_edges(4, &[(2, 0), (0, 1), (3, 0)]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.neighbors(Slot(0)), &[Slot(1), Slot(2), Slot(3)]);
        assert_eq!(t.degree(Slot(0)), 3);
        assert_eq!(t.degree(Slot(1)), 1);
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Topology::from_edges(3, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        Topology::from_edges(3, &[(0, 3)]);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let t = Topology::from_edges(3, &[(0, 2)]);
        assert!(t.has_edge(Slot(0), Slot(2)));
        assert!(t.has_edge(Slot(2), Slot(0)));
        assert!(!t.has_edge(Slot(0), Slot(1)));
    }

    #[test]
    fn builder_path_and_clique() {
        let mut b = TopologyBuilder::new(5);
        b.path(&[0, 1, 2]).clique_among(&[2, 3, 4]);
        let t = b.build();
        assert_eq!(t.edge_count(), 2 + 3);
        assert!(t.has_edge(Slot(3), Slot(4)));
    }

    #[test]
    fn with_extra_edges_adds() {
        let t = Topology::from_edges(3, &[(0, 1)]);
        let t2 = t.with_extra_edges(&[(1, 2)]);
        assert_eq!(t2.edge_count(), 2);
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    fn edges_iterator_is_normalized() {
        let t = Topology::from_edges(3, &[(2, 1), (1, 0)]);
        let edges: Vec<_> = t.edges().collect();
        assert_eq!(edges, vec![(Slot(0), Slot(1)), (Slot(1), Slot(2))]);
    }
}
