//! Property tests for [`Topology`]: the sorted adjacency lists are the
//! graph's only storage, so every query must agree with a plain
//! `BTreeSet<(smaller, larger)>` edge set built here from the same
//! input — edge lists with duplicates, both orientations, and every
//! vertex count up to 40.

use std::collections::BTreeSet;

use amacl_model::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

/// A vertex count and raw edges for it, self-loops dropped.
fn graph(max_edges: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..=40).prop_flat_map(move |n| {
        vec((0..n, 0..n), 0..max_edges).prop_map(move |raw| {
            let edges = raw.into_iter().filter(|&(u, v)| u != v).collect();
            (n, edges)
        })
    })
}

/// The edge set the deleted representation kept: normalized pairs.
fn oracle(edges: &[(usize, usize)]) -> BTreeSet<(usize, usize)> {
    edges
        .iter()
        .map(|&(u, v)| if u <= v { (u, v) } else { (v, u) })
        .collect()
}

/// Asserts that `t` is exactly the graph `set` describes on `n`
/// vertices.
fn assert_matches(t: &Topology, n: usize, set: &BTreeSet<(usize, usize)>) {
    assert_eq!(t.len(), n);
    assert_eq!(t.edge_count(), set.len());
    let edges: Vec<(usize, usize)> = t.edges().map(|(u, v)| (u.0, v.0)).collect();
    let expected: Vec<(usize, usize)> = set.iter().copied().collect();
    assert_eq!(edges, expected, "edges() must walk the set in order");
    for u in 0..n {
        for v in 0..n {
            let key = if u <= v { (u, v) } else { (v, u) };
            assert_eq!(
                t.has_edge(Slot(u), Slot(v)),
                set.contains(&key),
                "has_edge({u}, {v})"
            );
        }
        let neighbors: Vec<usize> = (0..n)
            .filter(|&v| set.contains(&if u <= v { (u, v) } else { (v, u) }))
            .collect();
        let got: Vec<usize> = t.neighbors(Slot(u)).iter().map(|s| s.0).collect();
        assert_eq!(got, neighbors, "neighbors({u})");
        assert_eq!(t.degree(Slot(u)), neighbors.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn adjacency_agrees_with_an_edge_set((n, edges) in graph(120)) {
        let set = oracle(&edges);
        let t = Topology::from_edges(n, &edges);
        assert_matches(&t, n, &set);

        // Insertion order and orientation do not matter: the reversed,
        // flipped list with every edge twice builds an equal graph.
        let mut flipped: Vec<(usize, usize)> = edges.iter().rev().map(|&(u, v)| (v, u)).collect();
        flipped.extend_from_slice(&edges);
        prop_assert_eq!(Topology::from_edges(n, &flipped), t.clone());
        prop_assert_eq!(t.clone(), Topology::from_edges(n, &set.iter().copied().collect::<Vec<_>>()));
    }

    #[test]
    fn with_extra_edges_is_the_union(
        (n, base) in graph(60),
        extra_seed in vec((0usize..40, 0usize..40), 0..40),
    ) {
        let extra: Vec<(usize, usize)> = extra_seed
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .filter(|&(u, v)| u != v)
            .collect();
        let t = Topology::from_edges(n, &base);
        let grown = t.with_extra_edges(&extra);
        let mut set = oracle(&base);
        set.extend(oracle(&extra));
        assert_matches(&grown, n, &set);
        // The original is untouched.
        assert_matches(&t, n, &oracle(&base));
        let mut all = base.clone();
        all.extend_from_slice(&extra);
        prop_assert_eq!(grown.clone(), Topology::from_edges(n, &all));
        prop_assert_eq!(grown == t, extra.iter().all(|&(u, v)| t.has_edge(Slot(u), Slot(v))));
    }
}
