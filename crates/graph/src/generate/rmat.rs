//! RMAT / Kronecker recursive-matrix generators (Chakrabarti et al. 2004;
//! Graph500). Stand-ins for the paper's `rmat16.sym`, `rmat22.sym`, and
//! `kron_g500-logn21` inputs: heavy-tailed degree distributions, many tiny
//! components, isolated vertices (dmin 0).
//!
//! Each level of the recursion picks a quadrant from one `u32` draw `r`,
//! read as the uniform `r · 2^-32` in `[0, 1)`: top-left below `a`,
//! top-right below `a + b`, bottom-left below `a + b + c` (the `f64` sums),
//! bottom-right otherwise. The sampler compares `r` with integer
//! thresholds `T(x) = ⌈x · 2^32⌉` instead, computed once per graph, and
//! sets the two bits without a branch. The two tests agree for every `r`:
//!
//! * `r as f64` is exact (a `u32` fits the 53-bit mantissa), and so are
//!   the multiplications by `2^-32` and by `2^32`, which only change the
//!   exponent. Hence `r · 2^-32 < x ⇔ r < x · 2^32` in `f64`, with no
//!   rounding on either side;
//! * for an integer `r` and a real `y`, `r < y ⇔ r < ⌈y⌉`;
//! * `0 ≤ x < 1 + 1e-9` after validation, so `T(x) ≤ 2^32 + 5` fits a `u64`.

use super::rng::Pcg32;
use crate::{CsrGraph, GraphBuilder, Vertex};

/// Quadrant probabilities for the recursive matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability (`1 - a - b - c`).
    pub d: f64,
}

impl RmatParams {
    /// The classic RMAT parameters used by the GTgraph / Galois generators.
    pub const GALOIS: RmatParams = RmatParams {
        a: 0.45,
        b: 0.15,
        c: 0.15,
        d: 0.25,
    };

    /// Graph500 Kronecker parameters (skewed much harder: dmax in the
    /// hundreds of thousands at scale, > 25% isolated vertices).
    pub const GRAPH500: RmatParams = RmatParams {
        a: 0.57,
        b: 0.19,
        c: 0.19,
        d: 0.05,
    };

    fn validate(&self) {
        let sum = self.a + self.b + self.c + self.d;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "RMAT quadrant probabilities must sum to 1, got {sum}"
        );
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0,
            "negative quadrant probability"
        );
    }
}

/// RMAT graph with `2^scale` vertices and `edge_factor * 2^scale` undirected
/// edge samples (duplicates collapse, so the final edge count is slightly
/// lower, mirroring how the paper's RMAT inputs were produced and cleaned).
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> CsrGraph {
    params.validate();
    assert!(scale < 31, "scale {scale} too large for u32 vertices");
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = Pcg32::new(seed);
    let t = Thresholds::new(params);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..m {
        let (u, v) = sample_cell(scale, &t, &mut rng);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.ensure_vertices(n);
    b.build()
}

/// Kronecker (Graph500) graph: RMAT with the Graph500 quadrant weights
/// ([`RmatParams::GRAPH500`]), whose heavier top-left weight sharpens the
/// degree skew. No per-level probability noise is added.
pub fn kronecker(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    rmat(scale, edge_factor, RmatParams::GRAPH500, seed)
}

/// Integer quadrant thresholds `⌈x · 2^32⌉` for the cumulative
/// probabilities `a`, `a + b` and `a + b + c` (see the module doc).
#[derive(Debug)]
struct Thresholds {
    a: u64,
    ab: u64,
    abc: u64,
}

impl Thresholds {
    fn new(p: RmatParams) -> Thresholds {
        let t = |x: f64| (x * 4294967296.0).ceil() as u64;
        Thresholds {
            a: t(p.a),
            ab: t(p.a + p.b),
            abc: t(p.a + p.b + p.c),
        }
    }

    /// The (row, column) bits of the quadrant that draw `r` picks:
    /// top-left below `T(a)`, top-right below `T(a+b)`, bottom-left below
    /// `T(a+b+c)`, bottom-right otherwise. Comparisons only, no branch.
    #[inline]
    fn quadrant(&self, r: u32) -> (u32, u32) {
        let r = r as u64;
        let bottom = r >= self.ab;
        let right = ((r >= self.a) & !bottom) | (r >= self.abc);
        (bottom as u32, right as u32)
    }
}

/// One cell of the `2^scale`-square matrix, one draw per level.
#[inline]
fn sample_cell(scale: u32, t: &Thresholds, rng: &mut Pcg32) -> (Vertex, Vertex) {
    let mut u: u32 = 0;
    let mut v: u32 = 0;
    for _ in 0..scale {
        let (bu, bv) = t.quadrant(rng.next_u32());
        u = (u << 1) | bu;
        v = (v << 1) | bv;
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quadrant choice as the module doc states it, in floating
    /// point, for one draw: returns the (u, v) bits.
    fn float_quadrant(p: RmatParams, r: u32) -> (u32, u32) {
        let r = r as f64 * (1.0 / 4294967296.0);
        if r < p.a {
            (0, 0)
        } else if r < p.a + p.b {
            (0, 1)
        } else if r < p.a + p.b + p.c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    fn float_sample_cell(scale: u32, p: RmatParams, rng: &mut Pcg32) -> (Vertex, Vertex) {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let (bu, bv) = float_quadrant(p, rng.next_u32());
            u = (u << 1) | bu;
            v = (v << 1) | bv;
        }
        (u, v)
    }

    fn params(a: f64, b: f64, c: f64, d: f64) -> RmatParams {
        let p = RmatParams { a, b, c, d };
        p.validate();
        p
    }

    /// Parameter sets for the exactness tests: the two shipped presets and
    /// the edge cases where a threshold sits at 0, at or above 2^32, or on
    /// a value that `f64` cannot represent exactly.
    fn edge_params() -> Vec<RmatParams> {
        let third = 1.0 / 3.0;
        vec![
            RmatParams::GALOIS,
            RmatParams::GRAPH500,
            params(0.0, 0.5, 0.25, 0.25),
            params(0.4, 0.3, 0.3, 0.0),
            params(1.0, 0.0, 0.0, 0.0),
            params(0.0, 0.0, 0.0, 1.0),
            params(third, third, third, 0.0),
            params(0.25, 0.25, 0.25, 0.25),
            params(0.1, 0.2, 0.3, 1.0 - 0.1 - 0.2 - 0.3),
            params(0.6, 0.3, 0.1 + 5e-10, 0.0),
        ]
    }

    #[test]
    fn integer_thresholds_match_float_comparison() {
        for p in edge_params() {
            let t = Thresholds::new(p);
            let mut probes = vec![0u32, 1, u32::MAX];
            for th in [t.a, t.ab, t.abc] {
                for d in -2i64..=1 {
                    let r = th as i64 + d;
                    if (0..=u32::MAX as i64).contains(&r) {
                        probes.push(r as u32);
                    }
                }
            }
            for r in probes {
                assert_eq!(t.quadrant(r), float_quadrant(p, r), "{p:?}, r = {r}, {t:?}");
            }
        }
    }

    #[test]
    fn sample_cell_matches_float_sampler() {
        for (i, p) in edge_params().into_iter().enumerate() {
            let t = Thresholds::new(p);
            let mut a = Pcg32::new(100 + i as u64);
            let mut b = a.clone();
            // 10^6 draws for each preset, 1.6 * 10^5 for the edge cases.
            let cells = if i < 2 { 1_000_000 / 16 } else { 10_000 };
            for _ in 0..cells {
                assert_eq!(
                    sample_cell(16, &t, &mut a),
                    float_sample_cell(16, p, &mut b)
                );
            }
        }
    }

    #[test]
    fn rmat_shape() {
        let g = rmat(10, 8, RmatParams::GALOIS, 1);
        assert_eq!(g.num_vertices(), 1024);
        // Duplicates collapse: expect fewer than 8192 but the bulk kept.
        assert!(
            g.num_edges() > 4000 && g.num_edges() <= 8192,
            "{}",
            g.num_edges()
        );
    }

    #[test]
    fn rmat_skewed_degrees() {
        let g = rmat(12, 8, RmatParams::GALOIS, 2);
        // Heavy tail: max degree far above average.
        assert!(g.max_degree() as f64 > 6.0 * g.avg_degree());
        // RMAT leaves isolated vertices (dmin 0) like rmat16/22 in Table 2.
        assert_eq!(g.min_degree(), 0);
    }

    #[test]
    fn kronecker_more_skewed_than_rmat() {
        let r = rmat(12, 16, RmatParams::GALOIS, 3);
        let k = kronecker(12, 16, 3);
        assert!(k.max_degree() > r.max_degree());
        let iso_k = k.vertices().filter(|&v| k.degree(v) == 0).count();
        let iso_r = r.vertices().filter(|&v| r.degree(v) == 0).count();
        assert!(iso_k > iso_r, "kron isolated {iso_k} vs rmat {iso_r}");
    }

    #[test]
    fn rmat_deterministic() {
        assert_eq!(
            rmat(8, 8, RmatParams::GALOIS, 5),
            rmat(8, 8, RmatParams::GALOIS, 5)
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_params_panic() {
        rmat(
            4,
            1,
            RmatParams {
                a: 0.9,
                b: 0.9,
                c: 0.0,
                d: 0.0,
            },
            1,
        );
    }
}
