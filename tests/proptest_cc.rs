//! Property-based tests over random graphs: algorithm agreement, CSR
//! builder invariants, and union-find invariants under random workloads.
//!
//! Randomness is the workspace's own deterministic PCG32 stream with
//! fixed seeds, so every case is hermetic and exactly reproducible.

use ecl_graph::generate::Pcg32;
use ecl_integration::all_algorithms;
use ecl_unionfind::ParentStore;

/// Random edge list over up to 64 vertices (dense enough to form
/// interesting component structures, small enough to run every algorithm).
fn random_edges(rng: &mut Pcg32) -> (usize, Vec<(u32, u32)>) {
    let n = 2 + rng.below(62) as usize;
    let m = rng.below(200) as usize;
    let edges = (0..m)
        .map(|_| (rng.below(n as u32), rng.below(n as u32)))
        .collect();
    (n, edges)
}

#[test]
fn all_algorithms_agree_on_random_graphs() {
    let mut rng = Pcg32::new(0xa9bee);
    for _ in 0..48 {
        let (n, edges) = random_edges(&mut rng);
        let g = ecl_graph::builder::from_edges(n, &edges);
        let reference =
            ecl_graph::stats::canonicalize_labels(&ecl_graph::stats::reference_labels(&g));
        for (name, run) in all_algorithms() {
            if let Some(result) = run(&g) {
                let canon = ecl_graph::stats::canonicalize_labels(&result.labels);
                assert_eq!(&canon, &reference, "algorithm {name}");
            }
        }
    }
}

#[test]
fn builder_produces_valid_csr() {
    let mut rng = Pcg32::new(0xc5a);
    for _ in 0..48 {
        let (n, edges) = random_edges(&mut rng);
        let g = ecl_graph::builder::from_edges(n, &edges);
        // Re-validating through the checked constructor must succeed.
        let revalidated =
            ecl_graph::CsrGraph::from_parts(g.offsets().to_vec(), g.adjacency().to_vec());
        assert!(revalidated.is_ok(), "{:?}", revalidated.err());
        // Edge count conservation: distinct non-loop undirected inputs.
        let mut distinct: Vec<(u32, u32)> = edges
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(g.num_edges(), distinct.len());
    }
}

#[test]
fn union_find_partition_matches_graph_components() {
    let mut rng = Pcg32::new(0x9a27);
    for _ in 0..48 {
        let (n, edges) = random_edges(&mut rng);
        let g = ecl_graph::builder::from_edges(n, &edges);
        let mut ds = ecl_unionfind::DisjointSets::new(g.num_vertices());
        for (u, v) in g.edges() {
            ds.union(u, v);
        }
        assert_eq!(ds.count_sets(), ecl_graph::stats::count_components(&g));
        // flatten: every parent is a root, and equals the component min.
        ds.flatten();
        let reference = ecl_graph::stats::reference_labels(&g);
        assert_eq!(ds.parents(), &reference[..]);
    }
}

#[test]
fn concurrent_union_find_agrees_with_sequential() {
    let mut rng = Pcg32::new(0xc0bc);
    for _ in 0..48 {
        let (n, edges) = random_edges(&mut rng);
        let g = ecl_graph::builder::from_edges(n, &edges);
        let par = ecl_unionfind::AtomicParents::new(g.num_vertices());
        {
            let par = &par;
            let edge_vec: Vec<_> = g.edges().collect();
            ecl_parallel::parallel_for(
                4,
                edge_vec.len(),
                ecl_parallel::Schedule::Dynamic { chunk: 3 },
                move |i| {
                    let (u, v) = edge_vec[i];
                    par.unite(u, v);
                },
            );
        }
        assert_eq!(par.count_sets(), ecl_graph::stats::count_components(&g));
        // Representatives must be component minima (min-wins hooking).
        let reference = ecl_graph::stats::reference_labels(&g);
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(par.find_repres(v), reference[v as usize]);
        }
    }
}

#[test]
fn path_lengths_never_grow_under_find() {
    let mut rng = Pcg32::new(0x9478);
    for _ in 0..48 {
        let len = 1 + rng.below(79) as usize;
        let seq: Vec<(u32, u32)> = (0..len).map(|_| (rng.below(40), rng.below(40))).collect();
        let mut ds = ecl_unionfind::DisjointSets::new(40);
        for &(a, b) in &seq {
            ds.union(a, b);
        }
        for v in 0..40u32 {
            let before = ds.path_length(v);
            ds.find(v);
            let after = ds.path_length(v);
            assert!(
                after <= before,
                "find lengthened path of {v}: {before} -> {after}"
            );
        }
    }
}

#[test]
fn canonicalize_is_idempotent() {
    let mut rng = Pcg32::new(0x1de8);
    for _ in 0..48 {
        let len = rng.below(60) as usize;
        let labels: Vec<u32> = (0..len)
            .map(|_| rng.below(20) % (len.max(1) as u32))
            .collect();
        let once = ecl_graph::stats::canonicalize_labels(&labels);
        let twice = ecl_graph::stats::canonicalize_labels(&once);
        assert_eq!(once, twice);
    }
}
