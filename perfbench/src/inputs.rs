//! Seeded inputs. Every input is a pure function of the workload seed and
//! is built only through the public seeded generators
//! (`ecl_graph::generate::*`) and engine `GraphSpec` seeds.

use ecl_engine::{GraphSpec, JobSpec};
use ecl_graph::generate::{self, Pcg32};
use ecl_graph::CsrGraph;

/// Vertices of the `social` graph (2^20).
pub const SOCIAL_VERTICES: usize = 1 << 20;
/// Attachments per new vertex in the `social` graph.
pub const SOCIAL_DEGREE: usize = 8;
/// Side of the `road` lattice (1400 x 1400 = 1.96M vertices).
pub const ROAD_SIDE: usize = 1400;
/// Vertex space of the `serve-mixed` server (2^20).
pub const SERVE_VERTICES: usize = 1 << 20;
/// The serve traffic's hot vertex range: half of all endpoints fall in
/// it, so a giant component forms and finds walk real parent chains.
pub const SERVE_HOT: u32 = 1 << 14;

/// Stream tags, so that each input draws from its own seed stream.
const TAG_SOCIAL: u64 = 1;
const TAG_ROAD: u64 = 2;
const TAG_JOBS: u64 = 3;
const TAG_SERVE: u64 = 4;

/// splitmix64 of `seed` and a stream tag: decorrelates the generator
/// seeds of different inputs and of neighbouring workload seeds.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `social` power-law graph at `n` vertices.
pub fn social_graph(n: usize, seed: u64) -> CsrGraph {
    generate::preferential_attachment(n, SOCIAL_DEGREE, derive(seed, TAG_SOCIAL))
}

/// The `road` mesh on a `side x side` lattice.
pub fn road_graph(side: usize, seed: u64) -> CsrGraph {
    generate::road_network(side, side, 0.2, 1.0, derive(seed, TAG_ROAD))
}

/// Sides of the three `grid` jobs.
const GRID_SIDES: [usize; 3] = [704, 640, 576];

/// The `jobs` batch: a fixed mix of three RMAT, two Kronecker and three
/// grid jobs; `seed` draws the RMAT and Kronecker generator seeds. Each
/// job takes roughly 0.1-0.3 s on the simulated Titan X. The power-law
/// jobs route through the warp/block kernels, the meshes through the
/// thread kernel. The order is fixed, longest first, so that the two
/// workers' share of the batch does not depend on the seed.
pub fn job_mix(seed: u64) -> Vec<JobSpec> {
    let mut rng = Pcg32::new(derive(seed, TAG_JOBS));
    let mut draw = || rng.next_u64() >> 1;
    let specs = [
        GraphSpec::Grid(GRID_SIDES[0], GRID_SIDES[0]),
        GraphSpec::Kronecker(17, 8, draw()),
        GraphSpec::Kronecker(17, 8, draw()),
        GraphSpec::Grid(GRID_SIDES[1], GRID_SIDES[1]),
        GraphSpec::Grid(GRID_SIDES[2], GRID_SIDES[2]),
        GraphSpec::Rmat(16, 8, draw()),
        GraphSpec::Rmat(16, 8, draw()),
        GraphSpec::Rmat(16, 8, draw()),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(i, graph)| JobSpec {
            id: i as u64,
            name: format!("j{i}"),
            graph,
        })
        .collect()
}

/// One `serve-mixed` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `ADD u v`
    Add(u32, u32),
    /// `CONN u v`
    Conn(u32, u32),
    /// `COMP v`
    Comp(u32),
}

impl Op {
    /// The request line as sent on the wire.
    pub fn line(&self) -> String {
        match *self {
            Op::Add(u, v) => format!("ADD {u} {v}"),
            Op::Conn(u, v) => format!("CONN {u} {v}"),
            Op::Comp(v) => format!("COMP {v}"),
        }
    }
}

/// The endless request stream of one `serve-mixed` connection: 20% ADD,
/// 70% CONN, 10% COMP. Each endpoint is drawn from the hot range with
/// probability 1/2, else uniformly from the whole vertex space.
pub struct RequestStream {
    rng: Pcg32,
    vertices: u32,
}

impl RequestStream {
    /// The stream of connection `conn` for workload seed `seed`.
    pub fn new(seed: u64, conn: usize, vertices: usize) -> RequestStream {
        let vertices = u32::try_from(vertices).expect("vertex space fits in u32");
        RequestStream {
            rng: Pcg32::new(derive(derive(seed, TAG_SERVE), conn as u64 + 1)),
            vertices,
        }
    }

    fn vertex(&mut self) -> u32 {
        if self.rng.below(2) == 0 {
            self.rng.below(SERVE_HOT.min(self.vertices))
        } else {
            self.rng.below(self.vertices)
        }
    }
}

impl Iterator for RequestStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let roll = self.rng.below(10);
        Some(match roll {
            0 | 1 => Op::Add(self.vertex(), self.vertex()),
            2..=8 => Op::Conn(self.vertex(), self.vertex()),
            _ => Op::Comp(self.vertex()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_graphs() {
        assert_eq!(social_graph(4096, 7), social_graph(4096, 7));
        assert_eq!(road_graph(48, 7), road_graph(48, 7));
    }

    #[test]
    fn different_seed_gives_different_graphs() {
        assert_ne!(social_graph(4096, 7), social_graph(4096, 8));
        assert_ne!(road_graph(48, 7), road_graph(48, 8));
    }

    #[test]
    fn job_mix_is_seeded() {
        assert_eq!(job_mix(3), job_mix(3));
        assert_ne!(job_mix(3), job_mix(4));
        let jobs = job_mix(3);
        assert_eq!(jobs.len(), 8);
        let grids = jobs
            .iter()
            .filter(|j| matches!(j.graph, GraphSpec::Grid(..)))
            .count();
        assert_eq!(grids, 3);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i as u64);
        }
    }

    #[test]
    fn request_streams_are_seeded_per_connection() {
        let take = |seed, conn| -> Vec<Op> {
            RequestStream::new(seed, conn, SERVE_VERTICES)
                .take(500)
                .collect()
        };
        assert_eq!(take(5, 0), take(5, 0));
        assert_ne!(take(5, 0), take(6, 0));
        assert_ne!(take(5, 0), take(5, 1));
    }

    #[test]
    fn request_mix_is_close_to_20_70_10() {
        let ops: Vec<Op> = RequestStream::new(1, 0, SERVE_VERTICES)
            .take(100_000)
            .collect();
        let adds = ops.iter().filter(|o| matches!(o, Op::Add(..))).count();
        let conns = ops.iter().filter(|o| matches!(o, Op::Conn(..))).count();
        let comps = ops.len() - adds - conns;
        assert!((19_000..21_000).contains(&adds), "{adds}");
        assert!((69_000..71_000).contains(&conns), "{conns}");
        assert!((9_000..11_000).contains(&comps), "{comps}");
        assert!(ops.iter().all(|o| match *o {
            Op::Add(u, v) | Op::Conn(u, v) =>
                (u as usize) < SERVE_VERTICES && (v as usize) < SERVE_VERTICES,
            Op::Comp(v) => (v as usize) < SERVE_VERTICES,
        }));
    }

    #[test]
    fn request_lines_parse_as_the_server_parses_them() {
        for op in RequestStream::new(2, 0, SERVE_VERTICES).take(200) {
            let parsed = ecl_serve::parse_request(&op.line()).expect("valid line");
            let expect = match op {
                Op::Add(u, v) => ecl_serve::Request::Add(u, v),
                Op::Conn(u, v) => ecl_serve::Request::Conn(u, v),
                Op::Comp(v) => ecl_serve::Request::Comp(v),
            };
            assert_eq!(parsed, expect);
        }
    }
}
