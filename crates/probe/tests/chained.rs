//! The chained-leg probes against a per-packet formulation.
//!
//! [`loss_train`] and [`rtt_probe`] send the forward leg as live-set
//! chunks and feed the delivered arrival clocks straight into a live-set
//! reverse leg. The reference here sends each request with a scalar
//! `send` on the forward channel, then echoes each delivery with a scalar
//! `send` on the reverse channel. Both must give equal results, with the
//! minimum RTT bit-equal, on every path shape the campaigns use: Bernoulli
//! and Gilbert–Elliott hops, blackout windows, multi-hop paths, trains
//! longer than one [`BATCH_LEN`] chunk, and trains that lose everything.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use vns_netsim::{
    BlackoutSchedule, Dur, HopChannel, LossModel, LossProcess, PathChannel, PathOutcome, SimTime,
    BATCH_LEN,
};
use vns_probe::{loss_train, rtt_probe, LossTrain, RttProbe};

/// Sends request `i` at `start + gap·i` on `fwd`, and echoes it on `rev`
/// at its arrival; calls `echo(sent, back)` per returned request.
fn scalar_echoes(
    fwd: &mut PathChannel,
    rev: &mut PathChannel,
    start: SimTime,
    count: u32,
    gap: Dur,
    mut echo: impl FnMut(SimTime, SimTime),
) {
    for i in 0..count {
        let sent = start + gap.mul(u64::from(i));
        if let PathOutcome::Delivered { arrival, .. } = fwd.send(sent) {
            if let PathOutcome::Delivered { arrival: back, .. } = rev.send(arrival) {
                echo(sent, back);
            }
        }
    }
}

fn loss_train_reference(
    fwd: &mut PathChannel,
    rev: &mut PathChannel,
    at: SimTime,
    count: u32,
) -> LossTrain {
    let mut returned = 0;
    scalar_echoes(fwd, rev, at, count, Dur::from_micros(100), |_, _| {
        returned += 1;
    });
    LossTrain {
        at,
        sent: count,
        lost: count - returned,
    }
}

fn rtt_probe_reference(
    fwd: &mut PathChannel,
    rev: &mut PathChannel,
    start: SimTime,
    count: u32,
    gap: Dur,
) -> RttProbe {
    let mut received = 0;
    let mut min_rtt: Option<f64> = None;
    scalar_echoes(fwd, rev, start, count, gap, |sent, back| {
        received += 1;
        let rtt = (back - sent).as_millis_f64();
        min_rtt = Some(min_rtt.map_or(rtt, |m: f64| m.min(rtt)));
    });
    RttProbe {
        sent: count,
        received,
        min_rtt_ms: min_rtt,
    }
}

/// A path of `n_hops` lossy hops, alternating Bernoulli and
/// Gilbert–Elliott; with `blackout`, the first hop is blacked out for two
/// windows inside the first seconds of the simulation.
fn path(n_hops: usize, p: f64, burst: f64, blackout: bool, seed: u64) -> PathChannel {
    let hops = (0..n_hops as u64)
        .map(|h| {
            let model = if h % 2 == 0 {
                LossModel::Bernoulli { p }
            } else {
                LossModel::bursty(p.max(0.001), burst, 1.5)
            };
            let mut hop = HopChannel::ideal(4.0 + 7.0 * h as f64);
            hop.loss = LossProcess::new(model, SmallRng::seed_from_u64(seed ^ (h << 32)));
            if blackout && h == 0 {
                let ms = |ms: u64| SimTime::EPOCH + Dur::from_millis(ms);
                hop.blackouts =
                    BlackoutSchedule::new(vec![(ms(60), ms(90)), (ms(1_400), ms(2_100))]);
            }
            hop
        })
        .collect();
    PathChannel::new(hops, SmallRng::seed_from_u64(seed ^ 0xC0FFEE))
}

/// Builds the forward and reverse paths of one case.
fn legs(n_hops: usize, p: f64, burst: f64, blackout: bool, seed: u64) -> [PathChannel; 2] {
    [
        path(n_hops, p, burst, blackout, seed),
        path(n_hops, p / 2.0, burst, blackout, seed.wrapping_add(1)),
    ]
}

fn assert_rtt_equal(a: RttProbe, b: RttProbe) {
    assert_eq!(a, b);
    assert_eq!(
        a.min_rtt_ms.map(f64::to_bits),
        b.min_rtt_ms.map(f64::to_bits)
    );
}

/// Trains of one chunk and of several (with a ragged tail).
fn count() -> impl Strategy<Value = u32> {
    prop_oneof![Just(100u32), Just(2 * BATCH_LEN as u32 + 37)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn loss_train_matches_scalar_reference(
        p in 0.0f64..0.2,
        burst in 0.25f64..0.7,
        seed in 0u64..1_000,
        n_hops in 1usize..4,
        blackout in any::<bool>(),
        count in count(),
        at_ms in 0u64..2_000,
    ) {
        let at = SimTime::EPOCH + Dur::from_millis(at_ms);
        let [mut f, mut r] = legs(n_hops, p, burst, blackout, seed);
        let [mut fr, mut rr] = legs(n_hops, p, burst, blackout, seed);
        prop_assert_eq!(
            loss_train(&mut f, &mut r, at, count),
            loss_train_reference(&mut fr, &mut rr, at, count)
        );
    }

    #[test]
    fn rtt_probe_matches_scalar_reference(
        p in 0.0f64..0.2,
        burst in 0.25f64..0.7,
        seed in 0u64..1_000,
        n_hops in 1usize..4,
        blackout in any::<bool>(),
        count in count(),
        gap_us in 50u64..2_000,
    ) {
        let gap = Dur::from_micros(gap_us);
        let [mut f, mut r] = legs(n_hops, p, burst, blackout, seed);
        let [mut fr, mut rr] = legs(n_hops, p, burst, blackout, seed);
        assert_rtt_equal(
            rtt_probe(&mut f, &mut r, SimTime::EPOCH, count, gap),
            rtt_probe_reference(&mut fr, &mut rr, SimTime::EPOCH, count, gap),
        );
    }
}

/// Trains that lose every packet, on either leg, for both probes.
#[test]
fn total_loss_matches_scalar_reference() {
    let count = BATCH_LEN as u32 + 5;
    for p in [(1.0, 0.0), (0.0, 1.0)] {
        // One hop per leg: a Gilbert–Elliott hop cannot target 100% loss.
        let mk = || [path(1, p.0, 0.5, false, 3), path(1, p.1, 0.5, false, 4)];
        let [mut f, mut r] = mk();
        let [mut fr, mut rr] = mk();
        let train = loss_train(&mut f, &mut r, SimTime::EPOCH, count);
        assert_eq!(train.lost, count);
        assert_eq!(
            train,
            loss_train_reference(&mut fr, &mut rr, SimTime::EPOCH, count)
        );
        let gap = Dur::from_millis(1);
        let probe = rtt_probe(&mut f, &mut r, SimTime::EPOCH, count, gap);
        assert_eq!(probe.received, 0);
        assert_rtt_equal(
            probe,
            rtt_probe_reference(&mut fr, &mut rr, SimTime::EPOCH, count, gap),
        );
    }
}
