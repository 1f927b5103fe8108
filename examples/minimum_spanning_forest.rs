//! Minimum spanning forest on the ECL union-find — the extension the
//! paper's conclusion proposes ("intermediate pointer jumping … should be
//! able to accelerate other GPU algorithms that are based on union find,
//! such as Kruskal's algorithm").
//!
//! Builds a weighted road network, computes its MSF three ways (serial
//! Kruskal, parallel Borůvka, simulated-GPU Borůvka), checks they agree,
//! and demonstrates the conclusion's prediction by timing the GPU Borůvka
//! under each pointer-jumping variant.
//!
//! ```sh
//! cargo run -p ecl-examples --bin minimum_spanning_forest --release -- --grid 60
//! ```

use ecl_examples::arg_or;
use ecl_gpu_sim::{DeviceProfile, Gpu};
use ecl_graph::generate;
use ecl_unionfind::JumpKind;
use std::time::Instant;

fn main() {
    let grid: usize = arg_or("--grid", 60);
    let g = generate::road_network(grid, grid, 0.4, 1.0, 3);
    println!(
        "weighted road network: {} intersections, {} roads",
        g.num_vertices(),
        g.num_edges()
    );

    let t = Instant::now();
    let kruskal = ecl_spanning::kruskal::run(&g, JumpKind::Intermediate);
    println!(
        "\nKruskal (serial, path halving): weight {}, {} edges, {:.2} ms",
        kruskal.total_weight,
        kruskal.edges.len(),
        t.elapsed().as_secs_f64() * 1e3
    );

    let t = Instant::now();
    let boruvka = ecl_spanning::boruvka::run(&g, 4);
    println!(
        "Boruvka (parallel, 4 threads):  weight {}, {} edges, {:.2} ms",
        boruvka.total_weight,
        boruvka.edges.len(),
        t.elapsed().as_secs_f64() * 1e3
    );

    let mut gpu = Gpu::new(DeviceProfile::titan_x());
    let gpu_forest = ecl_spanning::gpu_boruvka::run(&mut gpu, &g, JumpKind::Intermediate);
    println!(
        "Boruvka (simulated GPU):        weight {}, {} edges, {} cycles",
        gpu_forest.total_weight,
        gpu_forest.edges.len(),
        gpu.total_cycles()
    );

    assert_eq!(kruskal.total_weight, boruvka.total_weight);
    assert_eq!(kruskal.total_weight, gpu_forest.total_weight);
    kruskal.validate(&g).unwrap();
    boruvka.validate(&g).unwrap();
    gpu_forest.validate(&g).unwrap();
    println!("all three forests have minimum weight ✓");

    // The paper's closing prediction, measured: pointer jumping inside the
    // union-find find dominates GPU Borůvka's runtime too.
    println!("\nGPU Boruvka under each pointer-jumping variant (simulated cycles):");
    for (name, jump) in [
        ("Jump1 multiple    ", JumpKind::Multiple),
        ("Jump2 single      ", JumpKind::Single),
        ("Jump3 none        ", JumpKind::None),
        ("Jump4 intermediate", JumpKind::Intermediate),
    ] {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        let f = ecl_spanning::gpu_boruvka::run(&mut gpu, &g, jump);
        assert_eq!(f.total_weight, kruskal.total_weight);
        println!("  {name}  {:>12} cycles", gpu.total_cycles());
    }
}
