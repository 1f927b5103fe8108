//! Shared utilities for the cross-crate integration tests: a named corpus
//! of graphs and a registry of every CC implementation in the workspace.

use ecl_cc::{CcResult, EclConfig};
use ecl_gpu_sim::{DeviceProfile, Gpu};
use ecl_graph::{generate, CsrGraph};

/// A varied corpus exercising every degree/topology regime the paper's
/// kernels bucket on, plus degenerate shapes.
pub fn corpus() -> Vec<(String, CsrGraph)> {
    let mut graphs: Vec<(String, CsrGraph)> = vec![
        ("empty".into(), ecl_graph::GraphBuilder::new(0).build()),
        ("singleton".into(), ecl_graph::GraphBuilder::new(1).build()),
        ("isolated".into(), ecl_graph::GraphBuilder::new(37).build()),
        ("path".into(), generate::path(400)),
        ("cycle".into(), generate::cycle(401)),
        ("star".into(), generate::star(500)),
        ("tree".into(), generate::binary_tree(255)),
        ("cliques".into(), generate::disjoint_cliques(9, 8)),
        ("grid".into(), generate::grid2d(19, 21)),
        ("delaunay".into(), generate::delaunay_like(16, 16, 3)),
        ("road".into(), generate::road_network(22, 22, 0.25, 1.0, 4)),
        (
            "road-frag".into(),
            generate::road_network(20, 20, 0.3, 0.0, 5),
        ),
        ("random".into(), generate::gnm_random(700, 1800, 6)),
        (
            "rmat".into(),
            generate::rmat(9, 7, generate::RmatParams::GALOIS, 7),
        ),
        ("kron".into(), generate::kronecker(9, 9, 8)),
        ("ba".into(), generate::preferential_attachment(600, 3, 9)),
        ("web".into(), generate::web_graph(600, 8, 0.5, 0.1, 10)),
    ];
    // One catalog entry per topology family at tiny scale.
    for pg in [
        ecl_graph::catalog::PaperGraph::EuropeOsm,
        ecl_graph::catalog::PaperGraph::Rmat16,
        ecl_graph::catalog::PaperGraph::Amazon,
    ] {
        graphs.push((
            pg.info().name.to_string(),
            pg.generate(ecl_graph::catalog::Scale::Tiny),
        ));
    }
    graphs
}

/// Every CC implementation in the workspace, by name. Returns `None` when
/// an implementation legitimately refuses an input (CRONO's memory model).
pub type Algorithm = (&'static str, fn(&CsrGraph) -> Option<CcResult>);

fn ecl_serial(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_cc::connected_components(g))
}
fn ecl_parallel(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_cc::connected_components_par(g, 4))
}
fn ecl_gpu(g: &CsrGraph) -> Option<CcResult> {
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    Some(ecl_cc::gpu::run(&mut gpu, g, &EclConfig::default()).0)
}
fn b_soman(g: &CsrGraph) -> Option<CcResult> {
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    Some(ecl_baselines::gpu::soman::run(&mut gpu, g).result)
}
fn b_groute(g: &CsrGraph) -> Option<CcResult> {
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    Some(ecl_baselines::gpu::groute::run(&mut gpu, g).result)
}
fn b_gunrock(g: &CsrGraph) -> Option<CcResult> {
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    Some(ecl_baselines::gpu::gunrock::run(&mut gpu, g).result)
}
fn b_irgl(g: &CsrGraph) -> Option<CcResult> {
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    Some(ecl_baselines::gpu::irgl::run(&mut gpu, g).result)
}
fn b_lp(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_baselines::cpu::label_prop::run(g, 4))
}
fn b_bfscc(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_baselines::cpu::bfscc::run(g, 4))
}
fn b_bfscc_hybrid(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_baselines::cpu::bfscc::run_direction_optimizing(g, 4))
}
fn b_afforest(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_cc::parallel::run(g, 4, &EclConfig::with_sampling(2)))
}
fn b_multistep(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_baselines::cpu::multistep::run(g, 4))
}
fn b_crono(g: &CsrGraph) -> Option<CcResult> {
    ecl_baselines::cpu::crono::run(g, 4)
}
fn b_galois(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_baselines::cpu::galois_async::run(g, 4))
}
fn b_ndhybrid(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_baselines::cpu::ndhybrid::run(g, 4))
}
fn s_dfs(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_baselines::serial::dfs_cc(g))
}
fn s_bfs(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_baselines::serial::bfs_cc(g))
}
fn s_igraph(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_baselines::serial::igraph_cc(g))
}
fn s_uf(g: &CsrGraph) -> Option<CcResult> {
    Some(ecl_baselines::serial::unionfind_cc(g))
}

/// All nineteen implementations.
pub fn all_algorithms() -> Vec<Algorithm> {
    vec![
        ("ecl-serial", ecl_serial),
        ("ecl-parallel", ecl_parallel),
        ("ecl-gpu", ecl_gpu),
        ("soman", b_soman),
        ("groute", b_groute),
        ("gunrock", b_gunrock),
        ("irgl", b_irgl),
        ("label-prop", b_lp),
        ("bfscc", b_bfscc),
        ("bfscc-hybrid", b_bfscc_hybrid),
        ("afforest", b_afforest),
        ("multistep", b_multistep),
        ("crono", b_crono),
        ("galois-async", b_galois),
        ("ndhybrid", b_ndhybrid),
        ("serial-dfs", s_dfs),
        ("serial-bfs", s_bfs),
        ("serial-igraph", s_igraph),
        ("serial-uf", s_uf),
    ]
}
