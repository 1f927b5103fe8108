//! Cross-crate behavioural checks of the simulated-GPU results: the
//! qualitative claims of the paper's §5.1/§5.2 must hold on the simulator.

use ecl_cc::{EclConfig, FiniKind, JumpKind};
use ecl_gpu_sim::{DeviceProfile, Gpu};
use ecl_graph::catalog::{PaperGraph, Scale};

fn cycles(profile: &DeviceProfile, g: &ecl_graph::CsrGraph, cfg: &EclConfig) -> u64 {
    let mut gpu = Gpu::new(profile.clone());
    let (r, s) = ecl_cc::gpu::run(&mut gpu, g, cfg);
    r.verify(g).unwrap();
    s.total_cycles()
}

#[test]
fn jump3_slowest_on_high_diameter_graphs() {
    // Fig. 8: "no pointer jumping performs the worst", especially on road
    // maps and grids where paths grow long.
    let g = PaperGraph::EuropeOsm.generate(Scale::Tiny);
    let titan = DeviceProfile::titan_x();
    let j4 = cycles(&titan, &g, &EclConfig::with_jump(JumpKind::Intermediate));
    let j3 = cycles(&titan, &g, &EclConfig::with_jump(JumpKind::None));
    assert!(j3 > j4, "Jump3 {j3} must exceed Jump4 {j4} on europe_osm");
}

#[test]
fn jump1_two_traversals_slower_than_jump4() {
    let g = PaperGraph::Rmat16.generate(Scale::Tiny);
    let titan = DeviceProfile::titan_x();
    let j4 = cycles(&titan, &g, &EclConfig::with_jump(JumpKind::Intermediate));
    let j1 = cycles(&titan, &g, &EclConfig::with_jump(JumpKind::Multiple));
    assert!(j1 > j4, "Jump1 {j1} must exceed Jump4 {j4}");
}

#[test]
fn fini2_slower_than_fini3() {
    // Fig. 9: multiple-jump finalization pays a second traversal.
    let g = PaperGraph::Delaunay.generate(Scale::Tiny);
    let titan = DeviceProfile::titan_x();
    let f3 = cycles(&titan, &g, &EclConfig::with_fini(FiniKind::Single));
    let f2 = cycles(&titan, &g, &EclConfig::with_fini(FiniKind::Multiple));
    assert!(f2 > f3, "Fini2 {f2} must exceed Fini3 {f3}");
}

#[test]
fn k40_slower_than_titan_x() {
    // Tables 5 vs 6: "the newer, more parallel, and faster Titan X almost
    // always outperforms the K40" — in wall-clock (pseudo-ms), since the
    // K40 has fewer SMs, a slower clock, and slower atomics.
    let g = PaperGraph::Rmat16.generate(Scale::Tiny);
    let titan = DeviceProfile::titan_x();
    let k40 = DeviceProfile::k40();
    let t = titan.cycles_to_ms(cycles(&titan, &g, &EclConfig::default()));
    let k = k40.cycles_to_ms(cycles(&k40, &g, &EclConfig::default()));
    assert!(k > t, "K40 {k:.3} ms must exceed Titan X {t:.3} ms");
}

#[test]
fn ecl_beats_all_gpu_baselines_on_most_graphs() {
    // Fig. 11's headline: ECL-CC faster than Gunrock/IrGL/Soman on all
    // inputs and faster than Groute on most. At tiny scale we require:
    // ECL wins vs every baseline on a strict majority of graphs, and the
    // geomean favors ECL against each baseline.
    use ecl_bench::geomean;
    let titan = DeviceProfile::titan_x();
    let graphs: Vec<_> = [
        PaperGraph::Grid2d,
        PaperGraph::EuropeOsm,
        PaperGraph::Rmat16,
        PaperGraph::Random4,
        PaperGraph::Amazon,
        PaperGraph::Kron21,
    ]
    .iter()
    .map(|pg| pg.generate(Scale::Tiny))
    .collect();

    for (name, runner) in &ecl_bench::runners::GPU_CODES[1..] {
        let mut ratios = Vec::new();
        for g in &graphs {
            let ecl =
                ecl_bench::runners::run_gpu_code(ecl_bench::runners::GPU_CODES[0].1, &titan, g);
            let other = ecl_bench::runners::run_gpu_code(*runner, &titan, g);
            ratios.push(other / ecl);
        }
        let gm = geomean(&ratios);
        assert!(
            gm > 1.0,
            "{name}: geomean ratio {gm:.2} should favor ECL-CC (ratios {ratios:?})"
        );
        let wins = ratios.iter().filter(|&&r| r > 1.0).count();
        assert!(
            wins * 2 > ratios.len(),
            "{name}: ECL-CC should win a majority, won {wins}/{}",
            ratios.len()
        );
    }
}

#[test]
fn breakdown_dominated_by_compute_phase() {
    // Fig. 10: "84.5% of the total runtime is spent in the computation
    // phase" — require a clear majority on the simulator.
    let g = PaperGraph::SocLivejournal.generate(Scale::Tiny);
    let mut gpu = Gpu::new(DeviceProfile::titan_x());
    let (r, s) = ecl_cc::gpu::run(&mut gpu, &g, &EclConfig::default());
    r.verify(&g).unwrap();
    let total = s.total_cycles() as f64;
    let compute: u64 = s
        .kernels
        .iter()
        .filter(|k| k.name.starts_with("compute"))
        .map(|k| k.cycles)
        .sum();
    assert!(
        compute as f64 / total > 0.5,
        "compute share {:.1}% too small",
        100.0 * compute as f64 / total
    );
}

#[test]
fn worklist_counts_match_degree_buckets() {
    for pg in [PaperGraph::Kron21, PaperGraph::Amazon, PaperGraph::Grid2d] {
        let g = pg.generate(Scale::Tiny);
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let cfg = EclConfig::default();
        let (_, s) = ecl_cc::gpu::run(&mut gpu, &g, &cfg);
        let expected_mid = g
            .vertices()
            .filter(|&v| g.degree(v) > cfg.warp_threshold && g.degree(v) <= cfg.block_threshold)
            .count();
        let expected_big = g
            .vertices()
            .filter(|&v| g.degree(v) > cfg.block_threshold)
            .count();
        assert_eq!(s.worklist_mid, expected_mid, "{pg:?} mid bucket");
        assert_eq!(s.worklist_big, expected_big, "{pg:?} big bucket");
    }
}
