//! Live-set engine equivalence for [`PathChannel`].
//!
//! [`PathChannel::send_live`] moves a chunk of up to [`BATCH_LEN`] packets
//! hop-major; [`PathChannel::send`] moves one. Chunking is a pure
//! reorganisation: it must consume the same RNG draws in the same order
//! and produce byte-identical outcomes, including the hop each dropped
//! packet was lost at. These tests pin that down across Bernoulli and
//! Gilbert–Elliott loss, blackout windows straddling epoch edges, inputs
//! that cross both chunk and epoch boundaries, and the jittered,
//! out-of-order clocks a reverse leg receives — and, on lossless paths,
//! against the per-packet exact reference (`exact::ExactPath`).

mod exact;

use exact::ExactPath;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vns_netsim::{
    scratch, BlackoutSchedule, Dur, HopChannel, LossModel, LossProcess, PathChannel, PathOutcome,
    SimTime, BATCH_LEN,
};

fn lossy_hop(base_ms: f64, model: LossModel, seed: u64) -> HopChannel {
    let mut hop = HopChannel::ideal(base_ms);
    hop.loss = LossProcess::new(model, SmallRng::seed_from_u64(seed));
    hop
}

/// A 3-hop path exercising both loss families plus a clean hop.
fn hops(p: f64, burst: f64, seed: u64) -> Vec<HopChannel> {
    vec![
        lossy_hop(2.0, LossModel::Bernoulli { p }, seed),
        lossy_hop(
            8.0,
            LossModel::bursty(p.max(0.001), burst, 2.0),
            seed ^ 0x9e37,
        ),
        HopChannel::ideal(15.0),
    ]
}

/// A lossless 3-hop path whose middle hop carries blackout windows
/// misaligned with the 1 s epoch grid, including one shorter than an
/// epoch, all inside the span of the shortest-stride input.
fn lossless_hops() -> Vec<HopChannel> {
    let s = |ms: u64| SimTime::EPOCH + Dur::from_millis(ms);
    let mut mid = HopChannel::ideal(8.0);
    mid.blackouts =
        BlackoutSchedule::new(vec![(s(150), s(450)), (s(520), s(700)), (s(800), s(2_300))]);
    vec![HopChannel::ideal(2.0), mid, HopChannel::ideal(15.0)]
}

/// Per-packet reference: one `send` per instant.
fn sequential(mut ch: PathChannel, times: &[SimTime]) -> Vec<PathOutcome> {
    times.iter().map(|&t| ch.send(t)).collect()
}

/// The exact reference, one packet at a time.
fn exact(mut ch: ExactPath, times: &[SimTime]) -> Vec<PathOutcome> {
    times.iter().map(|&t| ch.send(t)).collect()
}

/// Live-set: chunked `send_live`, outcomes reconstructed from the
/// delivered clocks / sparse loss columns.
fn live(mut ch: PathChannel, times: &[SimTime]) -> Vec<PathOutcome> {
    let mut out = Vec::with_capacity(times.len());
    let mut s = scratch();
    for chunk in times.chunks(BATCH_LEN) {
        let base = out.len();
        out.resize(base + chunk.len(), PathOutcome::Lost { hop: usize::MAX });
        s.clear();
        s.now.extend(chunk.iter().map(|t| t.as_nanos()));
        let k = ch.send_live(&mut s);
        assert_eq!(k, s.now.len());
        for &pk in &s.lost {
            out[base + (pk >> 8) as usize] = PathOutcome::Lost {
                hop: (pk & 0xff) as usize,
            };
        }
        for (j, &clock) in s.now.iter().enumerate() {
            let orig = if s.idx.is_empty() {
                j
            } else {
                s.idx[j] as usize
            };
            let arrival = SimTime::from_nanos(clock);
            out[base + orig] = PathOutcome::Delivered {
                arrival,
                delay: arrival - chunk[orig],
            };
        }
    }
    out
}

/// `n` send instants at a `spacing_us` stride, spanning several cache
/// epochs (1 s) and several `BATCH_LEN` chunks, landing on both sides of
/// epoch edges. With `jitter_us > 0` each instant is pushed later by a
/// uniform draw below it — a reverse leg's input: forward arrival clocks,
/// out of order wherever the jitter exceeds the stride.
fn times(n: usize, spacing_us: u64, jitter_us: u64, seed: u64) -> Vec<SimTime> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|i| {
            let j = if jitter_us > 0 {
                rng.gen_range(0..jitter_us)
            } else {
                0
            };
            SimTime::EPOCH + Dur::from_micros(i * spacing_us + j)
        })
        .collect()
}

/// Input jitter: none (monotonic send instants) or up to 20 ms, several
/// strides wide (out-of-order arrival clocks).
fn jitter() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(20_000u64)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lossy paths: chunked live-set sends must be byte-equal to one
    /// `send` per packet, including which hop dropped each packet. The
    /// stride range makes chunks straddle the 1 s epoch grid at many
    /// offsets.
    #[test]
    fn live_matches_sequential_sends(
        p in 0.0f64..0.15,
        burst in 0.25f64..0.7,
        seed in 0u64..500,
        spacing_us in 300u64..5_000,
        jitter_us in jitter(),
    ) {
        let ts = times(3 * BATCH_LEN + 17, spacing_us, jitter_us, seed);
        let mk = || PathChannel::new(hops(p, burst, seed), SmallRng::seed_from_u64(seed ^ 5));
        prop_assert_eq!(live(mk(), &ts), sequential(mk(), &ts));
    }

    /// Lossless paths with blackouts: the engine, chunked or per packet,
    /// is bit-identical to the exact per-packet reference.
    #[test]
    fn lossless_live_matches_exact_reference(
        seed in 0u64..500,
        spacing_us in 300u64..5_000,
        jitter_us in jitter(),
    ) {
        let ts = times(3 * BATCH_LEN + 17, spacing_us, jitter_us, seed);
        let rng = || SmallRng::seed_from_u64(seed ^ 7);
        let reference = exact(ExactPath::new(lossless_hops(), rng()), &ts);
        prop_assert_eq!(&live(PathChannel::new(lossless_hops(), rng()), &ts), &reference);
        prop_assert_eq!(&sequential(PathChannel::new(lossless_hops(), rng()), &ts), &reference);
    }
}

/// Blackout edges: windows misaligned with the epoch grid (including one
/// shorter than an epoch) classify identically under chunked and
/// per-packet sends, packet for packet.
#[test]
fn live_blackout_edges_match_sequential() {
    let s = |ms: u64| SimTime::EPOCH + Dur::from_millis(ms);
    let sched = BlackoutSchedule::new(vec![
        (s(10_250), s(12_750)),
        (s(20_400), s(20_700)),
        (s(30_000), s(33_000)),
    ]);
    let mk = || {
        let mut hop = HopChannel::ideal(1.0);
        hop.blackouts = sched.clone();
        PathChannel::new(vec![hop], SmallRng::seed_from_u64(3))
    };
    // 17 ms stride scans every window edge and epoch start over 40 s.
    let ts = times(2_400, 17_000, 0, 0);
    assert_eq!(live(mk(), &ts), sequential(mk(), &ts));
}
