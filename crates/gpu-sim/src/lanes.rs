//! Warp-vector value and mask types.
//!
//! Simulated kernels manipulate [`Lanes`] — one `u32` per lane of a warp —
//! under an active-lane [`Mask`]. Comparisons produce masks; arithmetic is
//! lane-wise. This is the explicit-SIMT style in which all kernels in the
//! workspace are written.
//!
//! The value-level operations (select, masked assign, comparisons, masked
//! reductions) are written in branch-free structure-of-arrays form: fixed
//! `0..32` loops over the `[u32; 32]` lane array with conditions folded
//! into all-ones/all-zeros bit masks (`(cond as u32).wrapping_neg()`),
//! never early exits or per-lane `if`s. The host compiler's
//! autovectorizer turns each into a handful of SIMD ops, which is where
//! the simulator spends its inner-loop time. Only the memory
//! path ([`Mask::iter`]'s bit scan) keeps the sparse per-active-lane
//! walk: memory operations must touch exactly the active lanes.

/// Number of lanes in a warp (CUDA warp size).
pub const LANES: usize = 32;

/// A set of active lanes, one bit per lane (bit `i` = lane `i`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Mask(pub u32);

impl Mask {
    /// No lanes active.
    pub const NONE: Mask = Mask(0);
    /// All 32 lanes active.
    pub const ALL: Mask = Mask(u32::MAX);

    /// Mask with the first `n` lanes active.
    #[inline]
    pub fn first(n: usize) -> Mask {
        if n >= LANES {
            Mask::ALL
        } else {
            Mask((1u32 << n) - 1)
        }
    }

    /// True if any lane is active.
    #[inline]
    pub fn any(self) -> bool {
        self.0 != 0
    }

    /// True if no lane is active.
    #[inline]
    pub fn none(self) -> bool {
        self.0 == 0
    }

    /// Number of active lanes.
    #[inline]
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if lane `i` is active.
    #[inline]
    pub fn lane(self, i: usize) -> bool {
        (self.0 >> i) & 1 == 1
    }

    /// Set membership of lane `i`.
    #[inline]
    pub fn set(&mut self, i: usize, on: bool) {
        if on {
            self.0 |= 1 << i;
        } else {
            self.0 &= !(1 << i);
        }
    }

    /// Iterator over the indices of active lanes, in ascending order.
    /// Implemented as a bit scan (`trailing_zeros` + clear-lowest-set-bit)
    /// so sparse masks cost one step per active lane, not 32 — this is the
    /// inner loop of every simulated memory operation.
    #[inline]
    pub fn iter(self) -> MaskIter {
        MaskIter(self.0)
    }
}

/// Iterator over active lane indices (see [`Mask::iter`]).
#[derive(Clone, Copy, Debug)]
pub struct MaskIter(u32);

impl Iterator for MaskIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let lane = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(lane)
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for MaskIter {}

impl std::ops::BitAnd for Mask {
    type Output = Mask;
    #[inline]
    fn bitand(self, rhs: Mask) -> Mask {
        Mask(self.0 & rhs.0)
    }
}

impl std::ops::BitOr for Mask {
    type Output = Mask;
    #[inline]
    fn bitor(self, rhs: Mask) -> Mask {
        Mask(self.0 | rhs.0)
    }
}

impl std::ops::Not for Mask {
    type Output = Mask;
    #[inline]
    fn not(self) -> Mask {
        Mask(!self.0)
    }
}

impl std::ops::BitAndAssign for Mask {
    #[inline]
    fn bitand_assign(&mut self, rhs: Mask) {
        self.0 &= rhs.0;
    }
}

impl std::ops::BitOrAssign for Mask {
    #[inline]
    fn bitor_assign(&mut self, rhs: Mask) {
        self.0 |= rhs.0;
    }
}

/// One 32-bit register per lane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lanes(pub [u32; LANES]);

impl Default for Lanes {
    fn default() -> Self {
        Lanes([0; LANES])
    }
}

impl Lanes {
    /// Every lane holds `v`.
    #[inline]
    pub fn splat(v: u32) -> Lanes {
        Lanes([v; LANES])
    }

    /// Lane `i` holds `base + i * stride` (the canonical thread-ID shape).
    #[inline]
    pub fn iota(base: u32, stride: u32) -> Lanes {
        let mut l = [0; LANES];
        for (i, slot) in l.iter_mut().enumerate() {
            *slot = base.wrapping_add(stride.wrapping_mul(i as u32));
        }
        Lanes(l)
    }

    /// Value of lane `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.0[i]
    }

    /// Sets lane `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: u32) {
        self.0[i] = v;
    }

    /// Lane-wise map.
    #[inline]
    pub fn map(&self, f: impl Fn(u32) -> u32) -> Lanes {
        let mut out = [0; LANES];
        for (o, &v) in out.iter_mut().zip(&self.0) {
            *o = f(v);
        }
        Lanes(out)
    }

    /// Lane-wise binary op.
    #[inline]
    pub fn zip(&self, other: &Lanes, f: impl Fn(u32, u32) -> u32) -> Lanes {
        let mut out = [0; LANES];
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(self.0[i], other.0[i]);
        }
        Lanes(out)
    }

    /// Lane-wise wrapping add.
    #[inline]
    pub fn add(&self, other: &Lanes) -> Lanes {
        self.zip(other, u32::wrapping_add)
    }

    /// Adds a scalar to every lane.
    #[inline]
    pub fn add_scalar(&self, v: u32) -> Lanes {
        self.map(|x| x.wrapping_add(v))
    }

    /// Mask of lanes where `self < other`.
    #[inline]
    pub fn lt(&self, other: &Lanes) -> Mask {
        self.cmp_mask(other, |a, b| a < b)
    }

    /// Mask of lanes where `self > other`.
    #[inline]
    pub fn gt(&self, other: &Lanes) -> Mask {
        self.cmp_mask(other, |a, b| a > b)
    }

    /// Mask of lanes where `self <= other`.
    #[inline]
    pub fn le(&self, other: &Lanes) -> Mask {
        self.cmp_mask(other, |a, b| a <= b)
    }

    /// Mask of lanes where `self == other`.
    #[inline]
    pub fn eq_mask(&self, other: &Lanes) -> Mask {
        self.cmp_mask(other, |a, b| a == b)
    }

    /// Mask of lanes where `self != other`.
    #[inline]
    pub fn ne_mask(&self, other: &Lanes) -> Mask {
        self.cmp_mask(other, |a, b| a != b)
    }

    /// Mask of lanes where `self < v`. Branch-free: the comparison bit of
    /// every lane is computed and or-folded into place, no early exits.
    #[inline]
    pub fn lt_scalar(&self, v: u32) -> Mask {
        let mut bits = 0u32;
        for i in 0..LANES {
            bits |= ((self.0[i] < v) as u32) << i;
        }
        Mask(bits)
    }

    /// Generic comparison producing a mask (branch-free bit fold).
    #[inline]
    pub fn cmp_mask(&self, other: &Lanes, f: impl Fn(u32, u32) -> bool) -> Mask {
        let mut bits = 0u32;
        for i in 0..LANES {
            bits |= (f(self.0[i], other.0[i]) as u32) << i;
        }
        Mask(bits)
    }

    /// Lane-wise select: take `self` where `mask` is set, `other`
    /// elsewhere. Branch-free blend: each mask bit is widened to an
    /// all-ones/all-zeros word and both sources are combined with
    /// and/or — a fixed 32-iteration loop the autovectorizer digests.
    #[inline]
    pub fn select(&self, other: &Lanes, mask: Mask) -> Lanes {
        let mut out = [0u32; LANES];
        for (i, o) in out.iter_mut().enumerate() {
            let take = ((mask.0 >> i) & 1).wrapping_neg();
            *o = (self.0[i] & take) | (other.0[i] & !take);
        }
        Lanes(out)
    }

    /// Writes `v` into the lanes selected by `mask`, in place
    /// (branch-free blend, see [`Lanes::select`]).
    #[inline]
    pub fn assign_masked(&mut self, v: &Lanes, mask: Mask) {
        for i in 0..LANES {
            let take = ((mask.0 >> i) & 1).wrapping_neg();
            self.0[i] = (v.0[i] & take) | (self.0[i] & !take);
        }
    }

    /// Lane-wise minimum of two vectors.
    #[inline]
    pub fn min_lanes(&self, other: &Lanes) -> Lanes {
        let mut out = [0u32; LANES];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i].min(other.0[i]);
        }
        Lanes(out)
    }

    /// Minimum over the lanes selected by `mask` (None when mask empty).
    /// Inactive lanes are blended to `u32::MAX`, then the 32 survivors
    /// are reduced through fixed-width chunk accumulators — a select-mask
    /// min reduction with no data-dependent control flow.
    #[inline]
    pub fn min_masked(&self, mask: Mask) -> Option<u32> {
        if mask.none() {
            return None;
        }
        let mut acc = [u32::MAX; 8];
        for (c, chunk) in self.0.chunks_exact(8).enumerate() {
            for i in 0..8 {
                let take = ((mask.0 >> (c * 8 + i)) & 1).wrapping_neg();
                acc[i] = acc[i].min(chunk[i] | !take);
            }
        }
        let mut m = u32::MAX;
        for v in acc {
            m = m.min(v);
        }
        Some(m)
    }

    /// Wrapping sum over the lanes selected by `mask` (0 when mask
    /// empty). Inactive lanes are blended to 0; wrapping addition is
    /// associative and commutative mod 2³², so the fixed reduction order
    /// matches any per-active-lane accumulation exactly.
    #[inline]
    pub fn sum_masked(&self, mask: Mask) -> u32 {
        let mut acc = [0u32; 8];
        for (c, chunk) in self.0.chunks_exact(8).enumerate() {
            for i in 0..8 {
                let take = ((mask.0 >> (c * 8 + i)) & 1).wrapping_neg();
                acc[i] = acc[i].wrapping_add(chunk[i] & take);
            }
        }
        let mut s = 0u32;
        for v in acc {
            s = s.wrapping_add(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_first() {
        assert_eq!(Mask::first(0), Mask::NONE);
        assert_eq!(Mask::first(32), Mask::ALL);
        assert_eq!(Mask::first(3).count(), 3);
        assert!(Mask::first(3).lane(2));
        assert!(!Mask::first(3).lane(3));
    }

    #[test]
    fn mask_ops() {
        let a = Mask::first(4);
        let b = Mask(0b1100);
        assert_eq!((a & b).0, 0b1100);
        assert_eq!((a | b).0, 0b1111);
        assert_eq!((!a & a), Mask::NONE);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn iota_and_arith() {
        let t = Lanes::iota(10, 2);
        assert_eq!(t.get(0), 10);
        assert_eq!(t.get(5), 20);
        let u = t.add_scalar(1);
        assert_eq!(u.get(5), 21);
        let sum = t.add(&u);
        assert_eq!(sum.get(5), 41);
    }

    #[test]
    fn comparisons() {
        let a = Lanes::iota(0, 1);
        let b = Lanes::splat(5);
        assert_eq!(a.lt(&b).count(), 5);
        assert_eq!(a.lt_scalar(5).count(), 5);
        assert_eq!(a.eq_mask(&b).count(), 1);
        assert_eq!(a.gt(&b).count(), 32 - 6);
        assert_eq!(a.ne_mask(&b).count(), 31);
        assert_eq!(a.le(&b).count(), 6);
    }

    #[test]
    fn select_and_assign() {
        let a = Lanes::splat(1);
        let b = Lanes::splat(2);
        let m = Mask::first(8);
        let s = a.select(&b, m);
        assert_eq!(s.get(0), 1);
        assert_eq!(s.get(8), 2);
        let mut c = Lanes::splat(0);
        c.assign_masked(&a, m);
        assert_eq!(c.get(7), 1);
        assert_eq!(c.get(8), 0);
    }

    #[test]
    fn min_masked() {
        let a = Lanes::iota(100, 1);
        assert_eq!(a.min_masked(Mask::NONE), None);
        assert_eq!(a.min_masked(Mask(0b1010)), Some(101));
        assert_eq!(a.min_masked(Mask::ALL), Some(100));
    }

    #[test]
    fn min_lanes_is_lanewise() {
        let a = Lanes::iota(0, 2);
        let b = Lanes::iota(31, 0); // splat-ish: 31 everywhere
        let m = a.min_lanes(&b);
        for i in 0..LANES {
            assert_eq!(m.get(i), (2 * i as u32).min(31));
        }
    }

    /// The branch-free blends and reductions must agree with the obvious
    /// scalar per-active-lane formulations on adversarial mask patterns.
    #[test]
    fn vector_ops_match_scalar_reference() {
        let vals = Lanes::iota(0, 1).map(|x| x.wrapping_mul(2654435761));
        let alt = Lanes::iota(7, 13);
        let masks = [
            Mask::NONE,
            Mask::ALL,
            Mask(0b1),
            Mask(1 << 31),
            Mask(0xAAAA_5555),
            Mask(0x00FF_FF00),
            Mask::first(17),
        ];
        for m in masks {
            // select / assign_masked
            let sel = vals.select(&alt, m);
            let mut asg = alt;
            asg.assign_masked(&vals, m);
            for i in 0..LANES {
                let want = if m.lane(i) { vals.get(i) } else { alt.get(i) };
                assert_eq!(sel.get(i), want, "select lane {i} mask {:#x}", m.0);
                assert_eq!(asg.get(i), want, "assign lane {i} mask {:#x}", m.0);
            }
            // min_masked / sum_masked
            assert_eq!(
                vals.min_masked(m),
                m.iter().map(|i| vals.get(i)).min(),
                "min mask {:#x}",
                m.0
            );
            let want_sum = m.iter().fold(0u32, |s, i| s.wrapping_add(vals.get(i)));
            assert_eq!(vals.sum_masked(m), want_sum, "sum mask {:#x}", m.0);
            // cmp_mask / lt_scalar bit folds
            assert_eq!(vals.lt_scalar(1 << 30).0, {
                let mut bits = 0u32;
                for i in 0..LANES {
                    if vals.get(i) < (1 << 30) {
                        bits |= 1 << i;
                    }
                }
                bits
            });
        }
    }
}
