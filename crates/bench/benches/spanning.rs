//! Benches for the spanning-forest extension (the paper's conclusion:
//! "[intermediate pointer jumping] should be able to accelerate other GPU
//! algorithms that are based on union find, such as Kruskal's algorithm").
//!
//! Two sweeps test that prediction directly:
//! * Kruskal with each pointer-jumping variant inside its finds,
//! * GPU Borůvka with each pointer-jumping variant inside its finds.

use ecl_bench::microbench::Group;
use ecl_gpu_sim::{DeviceProfile, Gpu};
use ecl_graph::catalog::{PaperGraph, Scale};
use ecl_unionfind::JumpKind;
use std::hint::black_box;

const JUMPS: [(&str, JumpKind); 4] = [
    ("jump1_multiple", JumpKind::Multiple),
    ("jump2_single", JumpKind::Single),
    ("jump3_none", JumpKind::None),
    ("jump4_intermediate", JumpKind::Intermediate),
];

fn bench_kruskal_jumps() {
    let group = Group::new("kruskal_jump");
    for pg in [PaperGraph::EuropeOsm, PaperGraph::Rmat16] {
        let g = pg.generate(Scale::Tiny);
        let name = pg.info().name;
        for (vname, jump) in JUMPS {
            group.bench(&format!("{vname}/{name}"), || {
                black_box(ecl_spanning::kruskal::run(&g, jump));
            });
        }
    }
}

fn bench_gpu_boruvka_jumps() {
    let group = Group::new("gpu_boruvka_jump");
    let g = PaperGraph::EuropeOsm.generate(Scale::Tiny);
    for (vname, jump) in JUMPS {
        group.bench(vname, || {
            let mut gpu = Gpu::new(DeviceProfile::titan_x());
            black_box(ecl_spanning::gpu_boruvka::run(&mut gpu, &g, jump));
        });
    }
}

fn bench_boruvka_vs_kruskal() {
    let group = Group::new("msf_algorithms");
    let g = PaperGraph::Random4.generate(Scale::Tiny);
    group.bench("kruskal_intermediate", || {
        black_box(ecl_spanning::kruskal::run(&g, JumpKind::Intermediate));
    });
    group.bench("boruvka_par4", || {
        black_box(ecl_spanning::boruvka::run(&g, 4));
    });
}

fn main() {
    bench_kruskal_jumps();
    bench_gpu_boruvka_jumps();
    bench_boruvka_vs_kruskal();
}
