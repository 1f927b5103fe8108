//! Graph I/O round-trips composed with the CC pipeline: a graph written
//! to any supported format and read back must produce identical
//! components.

use ecl_graph::{generate, io};

fn roundtrip_formats(g: &ecl_graph::CsrGraph) {
    // Binary: exact round-trip.
    let mut buf = Vec::new();
    io::write_binary(g, &mut buf).unwrap();
    let g2 = io::read_binary(&buf[..]).unwrap();
    assert_eq!(g, &g2);
    assert_eq!(
        ecl_cc::connected_components(g).labels,
        ecl_cc::connected_components(&g2).labels
    );

    // Edge list: its header declares the vertex count, so a file we
    // wrote reads back as the same graph.
    let mut buf = Vec::new();
    io::write_edge_list(g, &mut buf).unwrap();
    assert_eq!(g, &io::read_edge_list(&buf[..]).unwrap());
}

#[test]
fn roundtrip_random() {
    roundtrip_formats(&generate::gnm_random(300, 900, 1));
}

#[test]
fn roundtrip_rmat_with_isolated_vertices() {
    roundtrip_formats(&generate::rmat(9, 4, generate::RmatParams::GALOIS, 2));
}

#[test]
fn roundtrip_road() {
    roundtrip_formats(&generate::road_network(15, 15, 0.3, 1.0, 3));
}

#[test]
fn dimacs_pipeline() {
    // Write a DIMACS file by hand, read it, and run the full pipeline.
    let text = "c tiny road network\np sp 6 4\na 1 2 7\na 2 3 7\na 4 5 9\na 5 4 9\n";
    let g = io::read_dimacs(text.as_bytes()).unwrap();
    assert_eq!(g.num_vertices(), 6);
    let r = ecl_cc::connected_components(&g);
    r.verify(&g).unwrap();
    assert_eq!(r.num_components(), 3); // {0,1,2}, {3,4}, {5}
}

#[test]
fn matrix_market_pipeline() {
    let text = "%%MatrixMarket matrix coordinate pattern symmetric\n5 5 4\n1 2\n2 3\n4 5\n5 5\n";
    let g = io::read_matrix_market(text.as_bytes()).unwrap();
    let r = ecl_cc::connected_components_par(&g, 2);
    r.verify(&g).unwrap();
    assert_eq!(r.num_components(), 2);
}
