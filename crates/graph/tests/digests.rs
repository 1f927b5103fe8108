//! Golden digests of every seeded generator and every catalog graph.
//!
//! Each digest is FNV-1a over the CSR `offsets` (as little-endian `u64`)
//! followed by the `adjacency` (as little-endian `u32`). Simulated cycles,
//! cache statistics and every downstream golden depend on the exact CSR
//! layout, so a change to a generator or to `GraphBuilder::build` that
//! moves one byte of any graph shows up here first.
//!
//! The `#[ignore]` test pins the bench-scale job shapes (the `jobs`
//! workload's RMAT, Kronecker and grid graphs); run it in release with
//! `cargo test --release --offline -p ecl-graph -- --ignored`.

use ecl_graph::catalog::{PaperGraph, Scale};
use ecl_graph::generate::{self, RmatParams};
use ecl_graph::CsrGraph;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn digest(g: &CsrGraph) -> u64 {
    let mut h = FNV_OFFSET;
    for &o in g.offsets() {
        h = fnv1a(h, &(o as u64).to_le_bytes());
    }
    for &v in g.adjacency() {
        h = fnv1a(h, &v.to_le_bytes());
    }
    h
}

/// Compares every `(name, graph)` digest with its pin. On any difference
/// it prints the whole current table, formatted so a deliberate change
/// can be re-pinned by pasting it.
fn check(cases: Vec<(String, CsrGraph)>, pinned: &[(&str, u64)]) {
    let got: Vec<(String, u64)> = cases.iter().map(|(n, g)| (n.clone(), digest(g))).collect();
    let same = got.len() == pinned.len()
        && got
            .iter()
            .zip(pinned)
            .all(|((n, d), &(pn, pd))| n == pn && *d == pd);
    let table: Vec<String> = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),"))
        .collect();
    assert!(same, "digests moved; current values:\n{}", table.join("\n"));
}

fn generator_cases() -> Vec<(String, CsrGraph)> {
    let g = |name: &str, graph: CsrGraph| (name.to_string(), graph);
    vec![
        g("path(50)", generate::path(50)),
        g("cycle(50)", generate::cycle(50)),
        g("star(40)", generate::star(40)),
        g("complete(12)", generate::complete(12)),
        g("disjoint_cliques(5,7)", generate::disjoint_cliques(5, 7)),
        g("binary_tree(100)", generate::binary_tree(100)),
        g("grid2d(17,23)", generate::grid2d(17, 23)),
        g("delaunay_like(20,20,3)", generate::delaunay_like(20, 20, 3)),
        g(
            "road_network(24,24,0.05,1.0,4)",
            generate::road_network(24, 24, 0.05, 1.0, 4),
        ),
        g(
            "road_network(24,24,0.2,0.5,5)",
            generate::road_network(24, 24, 0.2, 0.5, 5),
        ),
        g("gnm_random(500,1500,6)", generate::gnm_random(500, 1500, 6)),
        g("gnp_random(300,0.02,7)", generate::gnp_random(300, 0.02, 7)),
        g(
            "preferential_attachment(600,4,8)",
            generate::preferential_attachment(600, 4, 8),
        ),
        g(
            "web_graph(600,6,0.5,0.08,9)",
            generate::web_graph(600, 6, 0.5, 0.08, 9),
        ),
        g(
            "citation_graph(600,4,0.6,10)",
            generate::citation_graph(600, 4, 0.6, 10),
        ),
        g(
            "rmat(10,8,GALOIS,11)",
            generate::rmat(10, 8, RmatParams::GALOIS, 11),
        ),
        g(
            "rmat(9,16,GRAPH500,12)",
            generate::rmat(9, 16, RmatParams::GRAPH500, 12),
        ),
        g("kronecker(10,8,13)", generate::kronecker(10, 8, 13)),
        g("kronecker(11,16,14)", generate::kronecker(11, 16, 14)),
    ]
}

const GENERATORS: &[(&str, u64)] = &[
    ("path(50)", 0x726638cf110bda57),
    ("cycle(50)", 0xc296bfdb3052a3f3),
    ("star(40)", 0x1ef355403960d08d),
    ("complete(12)", 0x84cb11d83fbab905),
    ("disjoint_cliques(5,7)", 0x213373c79f32798d),
    ("binary_tree(100)", 0x26353d2847e112d1),
    ("grid2d(17,23)", 0x59ca121d7282ed8f),
    ("delaunay_like(20,20,3)", 0x03ecfc1bb235616e),
    ("road_network(24,24,0.05,1.0,4)", 0xf8457c04439391d5),
    ("road_network(24,24,0.2,0.5,5)", 0x9f1aa14a069a7504),
    ("gnm_random(500,1500,6)", 0x260cd6931579b30f),
    ("gnp_random(300,0.02,7)", 0x976d27bb8d78ee4d),
    ("preferential_attachment(600,4,8)", 0x3dee1ebec422b423),
    ("web_graph(600,6,0.5,0.08,9)", 0x36dfe8f59553497e),
    ("citation_graph(600,4,0.6,10)", 0xbb0bd95ee6bbc9ef),
    ("rmat(10,8,GALOIS,11)", 0xfdbb94b94df775f8),
    ("rmat(9,16,GRAPH500,12)", 0xcbea2f2f8eb325ab),
    ("kronecker(10,8,13)", 0x31a8d8f0702ee206),
    ("kronecker(11,16,14)", 0x2510f7c5c6319b43),
];

const CATALOG_TINY: &[(&str, u64)] = &[
    ("2d-2e20.sym", 0x996a6fc9bbad2dcd),
    ("amazon0601", 0xc9247545b2e009bc),
    ("as-skitter", 0x3d33440936720b33),
    ("citationCiteseer", 0x3308efbab9411814),
    ("cit-Patents", 0x8434c39acab83505),
    ("coPapersDBLP", 0x060468cdf7460281),
    ("delaunay_n24", 0x44d1680c6733f4cb),
    ("europe_osm", 0x25d49424a5d52a23),
    ("in-2004", 0x3d4232b602188a03),
    ("internet", 0x87659681fe191ce5),
    ("kron_g500-logn21", 0x152390efaa709971),
    ("r4-2e23.sym", 0x0fa45e9f2a097de0),
    ("rmat16.sym", 0x92a7d026f0a23428),
    ("rmat22.sym", 0x70557a9b8f8859ca),
    ("soc-LiveJournal1", 0x50129288f1b631f4),
    ("uk-2002", 0x1e6c037d2480be61),
    ("USA-road-d.NY", 0xe6a6df3a89c28911),
    ("USA-road-d.USA", 0x5d6f3a496d3729f3),
];

const BENCH_JOBS: &[(&str, u64)] = &[
    ("kronecker(17,8,1)", 0x70bbd2cc2bd0ab99),
    ("rmat(16,8,GALOIS,1)", 0xe7e776c27c6a2d95),
    ("kronecker(17,8,7)", 0x62b2e6d2d568d43b),
    ("rmat(16,8,GALOIS,7)", 0xd26de68256c51b6b),
    ("grid2d(704,704)", 0x260848730ab5fe40),
];

#[test]
fn seeded_generators_are_pinned() {
    check(generator_cases(), GENERATORS);
}

#[test]
fn catalog_tiny_graphs_are_pinned() {
    let cases = PaperGraph::ALL
        .iter()
        .map(|&p| (p.info().name.to_string(), p.generate(Scale::Tiny)))
        .collect();
    check(cases, CATALOG_TINY);
}

/// The `jobs` workload's graph shapes at their bench size, for two seeds.
/// Slow in a debug build, hence ignored by default.
#[test]
#[ignore]
fn bench_job_shapes_are_pinned() {
    let mut cases = Vec::new();
    for seed in [1u64, 7] {
        cases.push((
            format!("kronecker(17,8,{seed})"),
            generate::kronecker(17, 8, seed),
        ));
        cases.push((
            format!("rmat(16,8,GALOIS,{seed})"),
            generate::rmat(16, 8, RmatParams::GALOIS, seed),
        ));
    }
    cases.push(("grid2d(704,704)".to_string(), generate::grid2d(704, 704)));
    check(cases, BENCH_JOBS);
}
