//! Simulated device-to-device interconnect with verified frames.
//!
//! Exchange frames between simulated devices travel over an
//! [`Interconnect`] that models transfer latency (base cost plus a
//! per-byte charge, NVLink-shaped) and injects seeded faults from the
//! [`FaultPlan`] interconnect knobs: a frame can be *dropped* in flight
//! (the receiver never sees it and the sender retransmits after a
//! timeout) or *corrupted* (delivered with flipped payload bytes).
//! Every frame carries an FNV-1a digest over its header and payload;
//! the receiver recomputes it and NAKs on mismatch, so corruption is
//! always detected and always answered by a retransmission — a corrupt
//! frame can delay convergence but never poison a label.
//!
//! All fault decisions come from a [`FaultRng`] stream derived from the
//! plan seed, so a given (plan, exchange schedule) pair replays
//! bit-for-bit — the property the chaos matrix in the test suite and
//! `ci.sh` relies on.

use ecl_gpu_sim::{FaultPlan, FaultRng};
use ecl_obs::durable::fnv1a;

/// Latency model for one link: `base_cycles + bytes * cycles_per_byte`
/// per frame attempt (retransmissions pay full price again, plus a
/// timeout penalty for drops).
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Fixed per-frame cost (launch + handshake).
    pub base_cycles: u64,
    /// Marginal cost per transferred byte.
    pub cycles_per_byte: u64,
    /// Extra cycles the receiver waits before declaring a frame lost.
    pub timeout_cycles: u64,
}

impl Default for LinkModel {
    fn default() -> Self {
        // Loosely NVLink-shaped at the simulator's cycle scale: a few
        // microseconds of fixed cost, ~4 bytes per cycle of bandwidth.
        LinkModel {
            base_cycles: 2_000,
            cycles_per_byte: 1,
            timeout_cycles: 10_000,
        }
    }
}

/// Terminal interconnect failure: a frame could not be delivered within
/// the retransmission budget (only reachable under extreme fault
/// plans). The coordinator treats this like a device loss.
#[derive(Clone, Debug)]
pub struct LinkError {
    /// Sending device.
    pub src: usize,
    /// Receiving device.
    pub dst: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link {}->{} dead: frame undeliverable after {} attempts",
            self.src, self.dst, self.attempts
        )
    }
}

/// Cumulative interconnect counters (also surfaced as `shard.*`
/// metrics and in `BENCH_sharded.json`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExchangeStats {
    /// Frames put on the wire, including retransmissions.
    pub frames_sent: u64,
    /// Frames retransmitted after a drop or digest mismatch.
    pub retransmits: u64,
    /// Frames dropped in flight by fault injection.
    pub drops: u64,
    /// Frames delivered with a digest mismatch (NAKed).
    pub corruptions: u64,
    /// Bytes transferred, including retransmissions.
    pub bytes_sent: u64,
    /// Modeled transfer cycles, including timeouts and retransmissions.
    pub cycles: u64,
}

/// Maximum delivery attempts per frame before the link is declared
/// dead. 64 retries survive any permille below 1000 with astronomical
/// probability while still terminating on a 100%-loss plan.
const MAX_ATTEMPTS: u32 = 64;

/// The simulated interconnect shared by all device pairs.
#[derive(Debug)]
pub struct Interconnect {
    model: LinkModel,
    drop_permille: u32,
    corrupt_permille: u32,
    rng: FaultRng,
    /// Cumulative counters.
    pub stats: ExchangeStats,
}

impl Interconnect {
    /// Builds the interconnect for a fault plan. The RNG stream constant
    /// separates interconnect decisions from the simulator launches that
    /// share the same plan seed.
    pub fn new(plan: &FaultPlan, model: LinkModel) -> Interconnect {
        Interconnect {
            model,
            drop_permille: plan.frame_drop_permille,
            corrupt_permille: plan.frame_corrupt_permille,
            rng: FaultRng::new(plan.seed, 0x01c0_77ec7),
            stats: ExchangeStats::default(),
        }
    }

    /// Serialized size of a frame carrying `pairs` (vertex, label)
    /// pairs: 24-byte header (src, dst, round), 8-byte digest, 8 bytes
    /// per pair.
    pub fn frame_bytes(pairs: usize) -> u64 {
        32 + 8 * pairs as u64
    }

    /// Transmits one frame of `(global vertex, label)` pairs from
    /// device `src` to device `dst`, retransmitting on drop or digest
    /// mismatch until delivered (or the attempt budget is exhausted).
    /// Returns the payload exactly as the receiver decoded it.
    pub fn transmit(
        &mut self,
        src: usize,
        dst: usize,
        round: u64,
        payload: &[(u32, u32)],
    ) -> Result<Vec<(u32, u32)>, LinkError> {
        // Wire encoding: header then payload pairs, all little-endian.
        let mut wire = Vec::with_capacity(24 + payload.len() * 8);
        wire.extend_from_slice(&(src as u64).to_le_bytes());
        wire.extend_from_slice(&(dst as u64).to_le_bytes());
        wire.extend_from_slice(&round.to_le_bytes());
        for &(v, l) in payload {
            wire.extend_from_slice(&v.to_le_bytes());
            wire.extend_from_slice(&l.to_le_bytes());
        }
        let digest = fnv1a(&wire);
        let bytes = Self::frame_bytes(payload.len());

        for attempt in 1..=MAX_ATTEMPTS {
            self.stats.frames_sent += 1;
            self.stats.bytes_sent += bytes;
            self.stats.cycles += self.model.base_cycles + bytes * self.model.cycles_per_byte;
            if attempt > 1 {
                self.stats.retransmits += 1;
            }

            if self.rng.chance(self.drop_permille) {
                // Lost in flight: the receiver times out, the sender
                // retransmits.
                self.stats.drops += 1;
                self.stats.cycles += self.model.timeout_cycles;
                continue;
            }

            let mut delivered = wire.clone();
            if self.rng.chance(self.corrupt_permille) {
                // Flip one payload byte (or a header byte on a tiny
                // frame) at a seeded position.
                let pos = self.rng.below(delivered.len() as u64) as usize;
                delivered[pos] ^= 0x40 | (1 + (self.rng.next_u64() as u8 & 0x3f));
            }
            if fnv1a(&delivered) != digest {
                // Receiver NAKs; sender retransmits.
                self.stats.corruptions += 1;
                continue;
            }

            // Decode from the delivered bytes — not the original
            // payload — so the digest really is the only thing standing
            // between a corrupt frame and a poisoned label.
            let decoded = delivered[24..]
                .chunks_exact(8)
                .map(|c| {
                    (
                        u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                        u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                    )
                })
                .collect();
            return Ok(decoded);
        }
        Err(LinkError {
            src,
            dst,
            attempts: MAX_ATTEMPTS,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(drop: u32, corrupt: u32, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            frame_drop_permille: drop,
            frame_corrupt_permille: corrupt,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn clean_link_delivers_verbatim_and_charges_latency() {
        let mut net = Interconnect::new(&plan(0, 0, 1), LinkModel::default());
        let payload: Vec<(u32, u32)> = (0..10).map(|i| (i, i * 2)).collect();
        let got = net.transmit(0, 1, 1, &payload).unwrap();
        assert_eq!(got, payload);
        assert_eq!(net.stats.frames_sent, 1);
        assert_eq!(net.stats.retransmits, 0);
        assert_eq!(net.stats.bytes_sent, Interconnect::frame_bytes(10));
        assert!(net.stats.cycles >= 2_000);
    }

    #[test]
    fn faulty_link_retransmits_until_payload_arrives_intact() {
        let mut net = Interconnect::new(&plan(300, 300, 42), LinkModel::default());
        let payload: Vec<(u32, u32)> = (0..64).map(|i| (i, 1000 + i)).collect();
        for round in 1..=50 {
            let got = net
                .transmit(round as usize % 3, 1, round, &payload)
                .unwrap();
            assert_eq!(got, payload, "round {round} delivered a corrupted payload");
        }
        assert!(
            net.stats.retransmits > 0,
            "30%/30% drop/corrupt over 50 frames must retransmit at least once"
        );
        assert_eq!(
            net.stats.frames_sent,
            50 + net.stats.retransmits,
            "every extra frame is accounted as a retransmission"
        );
        assert!(net.stats.drops + net.stats.corruptions == net.stats.retransmits);
    }

    #[test]
    fn total_loss_reports_a_dead_link() {
        let mut net = Interconnect::new(&plan(1000, 0, 7), LinkModel::default());
        let err = net.transmit(2, 5, 9, &[(1, 1)]).unwrap_err();
        assert_eq!((err.src, err.dst), (2, 5));
        assert_eq!(err.attempts, MAX_ATTEMPTS);
    }

    #[test]
    fn replays_bit_for_bit_per_seed() {
        let run = |seed| {
            let mut net = Interconnect::new(&plan(200, 200, seed), LinkModel::default());
            for r in 0..20 {
                net.transmit(0, 1, r, &[(r as u32, 2 * r as u32)]).unwrap();
            }
            net.stats
        };
        let (a, b, c) = (run(5), run(5), run(6));
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.cycles, b.cycles);
        assert_ne!(
            (a.frames_sent, a.cycles),
            (c.frames_sent, c.cycles),
            "different seeds should draw different fault schedules"
        );
    }

    #[test]
    fn empty_payload_frames_still_flow() {
        let mut net = Interconnect::new(&plan(100, 100, 3), LinkModel::default());
        assert_eq!(net.transmit(0, 1, 1, &[]).unwrap(), Vec::new());
    }
}
