//! The per-packet exact reference for [`PathChannel`]: no epoch cache,
//! every hop pays the blackout binary search, one loss-process state step
//! and draw, and the time-dependent delay sample, for every packet. Built
//! only from [`HopChannel`]'s public parts, it is the oracle the engine's
//! approximations are pinned against (`fastpath.rs`) and, on lossless
//! paths, the bit-identity reference (`fastpath.rs`, `batch.rs`).

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use vns_netsim::{Dur, HopChannel, PathOutcome, SimTime};

/// A path evaluated exactly, packet by packet.
pub struct ExactPath {
    hops: Vec<HopChannel>,
    delay_rngs: Vec<SmallRng>,
}

impl ExactPath {
    /// Seeds one delay RNG per hop, in hop order, from `rng` — the way
    /// [`vns_netsim::PathChannel::new`] does, so that on lossless hops the
    /// two consume identical delay streams.
    pub fn new(hops: Vec<HopChannel>, mut rng: SmallRng) -> Self {
        let delay_rngs = hops
            .iter()
            .map(|_| SmallRng::seed_from_u64(rng.next_u64()))
            .collect();
        Self { hops, delay_rngs }
    }

    /// Sends one packet at `sent`.
    pub fn send(&mut self, sent: SimTime) -> PathOutcome {
        let mut now = sent;
        for (i, (hop, rng)) in self
            .hops
            .iter_mut()
            .zip(self.delay_rngs.iter_mut())
            .enumerate()
        {
            if hop.blackouts.blacked_out(now) || hop.loss.packet_lost(now) {
                return PathOutcome::Lost { hop: i };
            }
            now += Dur::from_nanos(hop.delay.sample_ns(now, rng));
        }
        PathOutcome::Delivered {
            arrival: now,
            delay: now - sent,
        }
    }
}
