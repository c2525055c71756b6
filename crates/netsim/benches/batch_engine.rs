//! Criterion microbenchmarks for the live-set packet engine: chunked
//! live-set sends vs one `send` per packet on representative multi-hop
//! channels, and the arena scratch pool vs fresh heap allocation on the
//! session-setup path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vns_netsim::{
    scratch, BatchScratch, DiurnalProfile, DiurnalShape, Dur, HopChannel, LossModel, LossProcess,
    PathChannel, SimTime,
};

/// A media-like 5-hop path: two clean access hops, a contended transit
/// hop with Bernoulli loss, a bursty hop, and a clean long-haul hop.
fn media_hops(seed: u64) -> Vec<HopChannel> {
    let profile = DiurnalProfile::new(DiurnalShape::Business, 0.3, 0.6, 0.0);
    let mk = |base: f64, model: LossModel, s: u64| {
        let mut h = HopChannel::ideal(base);
        h.loss = LossProcess::new(model, SmallRng::seed_from_u64(s));
        h
    };
    let mut contended = mk(12.0, LossModel::Bernoulli { p: 0.004 }, seed + 2);
    contended.delay = vns_netsim::DelaySampler::contended(12.0, profile);
    vec![
        mk(2.0, LossModel::None, seed),
        mk(5.0, LossModel::None, seed + 1),
        contended,
        mk(
            8.0,
            LossModel::GilbertElliott {
                g2b_per_sec: 1.0 / 30.0,
                b2g_per_sec: 3.0,
                loss_good: 0.0001,
                loss_bad: 0.3,
            },
            seed + 3,
        ),
        mk(25.0, LossModel::None, seed + 4),
    ]
}

fn times(n: u64) -> Vec<SimTime> {
    // ~1200-byte packets of a 4 Mb/s stream: one every ~2.4 ms.
    (0..n)
        .map(|i| SimTime::EPOCH + Dur::from_micros(i * 2400))
        .collect()
}

/// Sends `ts` through `ch` in [`vns_netsim::BATCH_LEN`] live-set chunks;
/// returns the delivered count.
fn send_live_chunks(ch: &mut PathChannel, ts: &[SimTime]) -> usize {
    let mut s = scratch();
    let mut delivered = 0;
    for chunk in ts.chunks(vns_netsim::BATCH_LEN) {
        s.now.clear();
        s.now.extend(chunk.iter().map(|t| t.as_nanos()));
        delivered += ch.send_live(&mut s);
    }
    delivered
}

fn bench_send_scalar_vs_live(c: &mut Criterion) {
    let ts = times(8192);
    let mut g = c.benchmark_group("channel");
    g.bench_function("send/scalar_8k", |b| {
        b.iter(|| {
            let mut ch = PathChannel::new(media_hops(7), SmallRng::seed_from_u64(9));
            let mut delivered = 0u32;
            for &t in &ts {
                if ch.send(t).delivered() {
                    delivered += 1;
                }
            }
            black_box(delivered);
        });
    });
    // The live-set call the session loop drives: delivered clocks left in
    // `now`, losses in the sparse column.
    g.bench_function("send/live_8k", |b| {
        b.iter(|| {
            let mut ch = PathChannel::new(media_hops(7), SmallRng::seed_from_u64(9));
            black_box(send_live_chunks(&mut ch, &ts));
        });
    });
    g.finish();
}

fn bench_arena_vs_heap(c: &mut Criterion) {
    let ts = times(512);
    let mut g = c.benchmark_group("arena");
    // Session-setup shape: take scratch, run one short batch, drop it.
    g.bench_function("setup/pooled_scratch", |b| {
        b.iter(|| {
            let mut s = scratch();
            s.times.extend_from_slice(&ts);
            black_box(s.times.len());
        });
    });
    g.bench_function("setup/fresh_heap", |b| {
        b.iter(|| {
            let mut s = BatchScratch::default();
            s.times.extend_from_slice(&ts);
            black_box(s.times.len());
        });
    });
    g.finish();
}

criterion_main!(benches, probes);

fn bench_components(c: &mut Criterion) {
    let ts = times(8192);
    let mut g = c.benchmark_group("probe");
    g.bench_function("ideal_1hop_live_8k", |b| {
        b.iter(|| {
            let mut ch = PathChannel::new(vec![HopChannel::ideal(5.0)], SmallRng::seed_from_u64(9));
            black_box(send_live_chunks(&mut ch, &ts));
        });
    });
    g.bench_function("ideal_5hop_live_8k", |b| {
        b.iter(|| {
            let hops = vec![
                HopChannel::ideal(2.0),
                HopChannel::ideal(5.0),
                HopChannel::ideal(12.0),
                HopChannel::ideal(8.0),
                HopChannel::ideal(25.0),
            ];
            let mut ch = PathChannel::new(hops, SmallRng::seed_from_u64(9));
            black_box(send_live_chunks(&mut ch, &ts));
        });
    });
    g.finish();
}

criterion_group!(benches, bench_send_scalar_vs_live, bench_arena_vs_heap);
criterion_group!(probes, bench_components);
