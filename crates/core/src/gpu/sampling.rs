//! Tests of the sampling configuration of the one GPU pipeline: seven
//! launches built from the five kernel bodies plus `sample_hook` (see the
//! [`super`] module docs).

mod tests {
    use super::super::GpuRunStats;
    use crate::config::EclConfig;
    use crate::result::CcResult;
    use ecl_gpu_sim::{DeviceProfile, Gpu};
    use ecl_graph::generate;

    fn run_sampled(g: &ecl_graph::CsrGraph, k: usize) -> (CcResult, GpuRunStats) {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        super::super::run(&mut gpu, g, &EclConfig::with_sampling(k))
    }

    #[test]
    fn seven_kernels_in_order() {
        let (r, s) = run_sampled(&generate::gnm_random(300, 900, 1), 2);
        r.verify(&generate::gnm_random(300, 900, 1)).unwrap();
        let names: Vec<_> = s.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "init",
                "sample_hook",
                "compress",
                "final_hook_skip",
                "compute2",
                "compute3",
                "finalize"
            ]
        );
    }

    #[test]
    fn labels_byte_identical_to_baseline_gpu_and_serial() {
        for g in [
            generate::gnm_random(500, 1500, 11),
            generate::kronecker(9, 8, 4),
            generate::star(800),
            generate::grid2d(13, 19),
            ecl_graph::GraphBuilder::new(0).build(),
            ecl_graph::GraphBuilder::new(5).build(),
        ] {
            let serial = crate::serial::run(&g, &EclConfig::default());
            for k in [1, 2, 4] {
                let (r, _) = run_sampled(&g, k);
                assert_eq!(r.labels, serial.labels, "k={k}");
            }
        }
    }

    #[test]
    fn counters_match_cpu_sampling_path() {
        let g = generate::kronecker(10, 8, 7);
        let cfg = EclConfig::with_sampling(2);
        let (_, cpu_stats) = crate::sampling::run_serial(&g, &cfg);
        let (_, s) = run_sampled(&g, 2);
        assert_eq!(s.sampling, Some(cpu_stats));
    }

    #[test]
    fn sampling_reduces_cycles_and_dram_on_powerlaw() {
        // The point of the whole exercise: fewer edge inspections must
        // show up as fewer simulated cycles and less L2/DRAM traffic.
        let g = generate::kronecker(11, 8, 3);
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let (rb, sb) = super::super::run(&mut gpu, &g, &EclConfig::default());
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let (rs, ss) = super::super::run(&mut gpu, &g, &EclConfig::with_sampling(2));
        assert_eq!(rb.labels, rs.labels);
        assert!(
            ss.total_cycles() < sb.total_cycles(),
            "cycles {} !< {}",
            ss.total_cycles(),
            sb.total_cycles()
        );
        assert!(
            ss.l2_reads() < sb.l2_reads(),
            "l2 reads {} !< {}",
            ss.l2_reads(),
            sb.l2_reads()
        );
    }

    #[test]
    fn worklist_routing_by_remaining_degree() {
        // Star(1000): center degree 999; with k=2 its remaining degree is
        // 997 > 352 → block kernel. Leaves have 0 remaining edges.
        let (r, s) = run_sampled(&generate::star(1000), 2);
        assert_eq!(r.labels, vec![0; 1000]);
        // Either the center was skipped (probe found the giant root and
        // the center is labeled 0 after sampling) or it routed big.
        let stats = s.sampling.unwrap();
        assert!(s.worklist_big <= 1);
        assert!(stats.skipped_vertices > 0 || s.worklist_big == 1);
    }

    #[test]
    fn path_probe_is_untimed_under_sampling() {
        // The probe runs ahead of every find, `sample_hook`'s included,
        // and must not move a single counter of any launch.
        let g = generate::kronecker(10, 8, 7);
        let (r_plain, s_plain) = run_sampled(&g, 2);
        let cfg = EclConfig {
            record_path_lengths: true,
            ..EclConfig::with_sampling(2)
        };
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let (r_rec, s_rec) = super::super::run(&mut gpu, &g, &cfg);
        assert_eq!(r_rec.labels, r_plain.labels);
        assert!(s_rec.path_lengths.unwrap().samples > 0);
        assert!(s_plain.path_lengths.is_none());
        let rows =
            |s: &GpuRunStats| -> Vec<String> { s.kernels.iter().map(|k| k.to_json()).collect() };
        assert_eq!(rows(&s_rec), rows(&s_plain));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generate::kronecker(9, 8, 4);
        let (r1, s1) = run_sampled(&g, 2);
        let (r2, s2) = run_sampled(&g, 2);
        assert_eq!(r1.labels, r2.labels);
        assert_eq!(s1.total_cycles(), s2.total_cycles());
        assert_eq!(s1.sampling, s2.sampling);
    }
}
