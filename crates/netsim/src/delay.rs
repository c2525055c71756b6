//! Per-hop delay sampling: fixed propagation plus utilisation-dependent
//! queueing jitter.
//!
//! The paper reports jitter almost always under 10 ms (Sec 5.1.1) because
//! queueing delay on sane links is small compared to wide-area propagation.
//! We model per-packet one-way hop delay as
//!
//! `base + Exp(mean_queue(utilisation))`, capped at the hop's buffer bound,
//!
//! with `mean_queue` following the M/M/1-style `ρ/(1−ρ)` blow-up so jitter
//! and congestion loss rise together on hot links.

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::RngCore;

use crate::diurnal::DiurnalProfile;
use crate::time::SimTime;

/// Bin-count exponent of the [`queue_draw`] piecewise-linear inverse
/// CDF: the top `EXP_BITS` bits of a draw select among `2^EXP_BITS` equal
/// probability bins.
const EXP_BITS: u32 = 11;
/// Number of inverse-CDF bins.
const EXP_BINS: usize = 1 << EXP_BITS;
/// Bins below this index (the deep tail, where `-ln` curves hardest and a
/// chord would err by >0.1%) fall back to the exact log.
const EXP_TAIL: usize = 16;

/// Lookup tables for the hot delay math: for [`fast_ln`], each of 256
/// mantissa bins' midpoint reciprocal `1/c` and exact `ln(c)`; for
/// [`queue_draw`], the `Exp(1)` inverse-CDF edge values `-ln(i/N)`.
#[derive(Debug)]
pub(crate) struct LnTables {
    inv: [f64; 256],
    lnc: [f64; 256],
    exp_edges: [f64; EXP_BINS + 1],
}

static LN_TABLES: OnceLock<LnTables> = OnceLock::new();

/// The shared delay tables (~20 KiB, built once, cache-resident under the
/// uniform access of the draw loops). Hot loops fetch this once per batch
/// and thread it through [`queue_draw`] so the per-packet path has no
/// atomic load.
pub(crate) fn ln_tables() -> &'static LnTables {
    LN_TABLES.get_or_init(|| {
        let mut inv = [0.0; 256];
        let mut lnc = [0.0; 256];
        for i in 0..256 {
            let c = 1.0 + (i as f64 + 0.5) / 256.0;
            inv[i] = 1.0 / c;
            lnc[i] = c.ln();
        }
        let mut exp_edges = [0.0; EXP_BINS + 1];
        for (i, e) in exp_edges.iter_mut().enumerate().skip(1) {
            *e = -((i as f64) / EXP_BINS as f64).ln();
        }
        // Edge 0 sits inside the exact-log fallback region and is never
        // interpolated against; any finite value works.
        exp_edges[0] = exp_edges[1];
        LnTables {
            inv,
            lnc,
            exp_edges,
        }
    })
}

/// Natural log of a positive normal `f64`, accurate to ~4e-12 absolute.
///
/// Splits `x = m·2^e` (`m ∈ [1,2)`), reduces `m` against the midpoint `c`
/// of its 256-wide mantissa bin (`r = m/c − 1`, `|r| < 2^-9`) and applies a
/// cubic `ln(1+r)` series — a table lookup and a handful of mul/adds
/// instead of a libm call, and the compiler can keep it in registers
/// inside the columnar delay loops. The error is parts-per-trillion of a
/// millisecond on sampled delays, far below every model tolerance.
#[inline]
pub(crate) fn fast_ln(t: &LnTables, x: f64) -> f64 {
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    let i = ((bits >> 44) & 0xff) as usize;
    let r = m * t.inv[i] - 1.0;
    let ln_m = t.lnc[i] + r * (1.0 - r * (0.5 - r * (1.0 / 3.0)));
    (e as f64) * std::f64::consts::LN_2 + ln_m
}

/// Maps one raw `u64` draw onto the open interval `(0, 1)`: the 53 high
/// bits, low bit forced on so the result is never zero (and `fast_ln`
/// never sees it).
#[inline]
pub(crate) fn unit_open01_from(raw: u64) -> f64 {
    (((raw >> 11) | 1) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// One exponential queueing-delay draw: `min(−mean·ln(U), cap)`, via a
/// piecewise-linear inverse CDF. The top [`EXP_BITS`] bits of one
/// `next_u64` pick an equal-probability bin, the next 42 bits interpolate
/// between the bin's exact `-ln` edge values — a shift, two loads and a
/// handful of mul/adds per draw. The [`EXP_TAIL`] deepest-tail bins
/// (`U < 1/128`, where the chord error would exceed 0.1%) take the exact
/// [`fast_ln`] path instead, so the sampled distribution stays within
/// ~1e-4 relative of a true exponential everywhere and keeps the unbounded
/// tail (up to the buffer cap).
///
/// Unit-agnostic: `mean` and `cap` just need a consistent scale, and the
/// result comes back in that scale — the hot paths pass nanoseconds so the
/// per-packet ms→ns conversion disappears. This is the single definition
/// both the packet engine and [`DelaySampler::sample_ns`] go through, so
/// they consume the RNG identically (one `next_u64` per draw) and produce
/// bit-equal delays.
#[inline]
pub(crate) fn queue_draw(t: &LnTables, mean: f64, cap: f64, rng: &mut SmallRng) -> f64 {
    let r = rng.next_u64();
    let i = (r >> (64 - EXP_BITS)) as usize;
    if i >= EXP_TAIL {
        let frac = ((r >> 11) & ((1u64 << 42) - 1)) as f64 * (1.0 / (1u64 << 42) as f64);
        let a = t.exp_edges[i];
        let b = t.exp_edges[i + 1];
        (mean * (a + frac * (b - a))).min(cap)
    } else {
        (-mean * fast_ln(t, unit_open01_from(r))).min(cap)
    }
}

/// Samples one-way delay for packets crossing a hop.
#[derive(Debug, Clone)]
pub struct DelaySampler {
    /// Fixed component (propagation + serialisation + processing), ms.
    pub base_ms: f64,
    /// Utilisation curve driving the queueing component; `None` means an
    /// uncontended hop with a tiny fixed jitter floor.
    pub profile: Option<DiurnalProfile>,
    /// Queueing delay at 50% utilisation, ms (scales the ρ/(1−ρ) curve).
    pub queue_scale_ms: f64,
    /// Hard cap on the queueing component (finite buffers), ms.
    pub max_queue_ms: f64,
}

impl DelaySampler {
    /// An uncontended hop: fixed base delay and a hair of jitter.
    pub fn fixed(base_ms: f64) -> Self {
        Self {
            base_ms,
            profile: None,
            queue_scale_ms: 0.05,
            max_queue_ms: 0.5,
        }
    }

    /// A contended hop whose queueing tracks `profile`.
    pub fn contended(base_ms: f64, profile: DiurnalProfile) -> Self {
        Self {
            base_ms,
            profile: Some(profile),
            queue_scale_ms: 0.6,
            max_queue_ms: 40.0,
        }
    }

    /// Mean queueing delay at time `t`, ms.
    pub fn mean_queue_ms(&self, t: SimTime) -> f64 {
        match &self.profile {
            None => self.queue_scale_ms,
            Some(p) => {
                let rho = p.utilization(t).clamp(0.0, 0.99);
                // queue_scale_ms is the mean at rho = 0.5 where rho/(1-rho)=1.
                (self.queue_scale_ms * rho / (1.0 - rho)).min(self.max_queue_ms)
            }
        }
    }

    /// Samples a one-way delay in ms for a packet sent at `t`.
    pub fn sample_ms(&self, t: SimTime, rng: &mut SmallRng) -> f64 {
        self.sample_with_mean_ms(self.mean_queue_ms(t), rng)
    }

    /// Samples a one-way delay given a precomputed mean queueing delay.
    /// The packet engine caches [`DelaySampler::mean_queue_ms`] per epoch (it
    /// walks the diurnal trig) and draws through this, which consumes the
    /// RNG exactly like [`DelaySampler::sample_ms`]: one `next_u64` per
    /// packet through `queue_draw`.
    pub fn sample_with_mean_ms(&self, mean_queue_ms: f64, rng: &mut SmallRng) -> f64 {
        self.base_ms + queue_draw(ln_tables(), mean_queue_ms, self.max_queue_ms, rng)
    }

    /// Samples a one-way delay in integer nanoseconds for a packet sent at
    /// `t` — the form the packet engine's clock arithmetic consumes. The
    /// whole computation runs in the nanosecond scale
    /// (`base·10⁶ + 0.5 + queue_draw(mean·10⁶, cap·10⁶)`, truncated), which
    /// is also exactly how the epoch-cached packet engine assembles its
    /// delays, so per-packet exact evaluation and the engine stay bit-equal
    /// on lossless hops.
    pub fn sample_ns(&self, t: SimTime, rng: &mut SmallRng) -> u64 {
        let mean_ns = self.mean_queue_ms(t) * 1_000_000.0;
        let q = queue_draw(ln_tables(), mean_ns, self.max_queue_ms * 1_000_000.0, rng);
        (self.base_ms * 1_000_000.0 + 0.5 + q) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalShape;
    use crate::time::Dur;
    use rand::SeedableRng;

    #[test]
    fn fixed_hop_close_to_base() {
        let s = DelaySampler::fixed(10.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let d = s.sample_ms(SimTime::EPOCH, &mut rng);
            assert!((10.0..=10.5 + 1e-9).contains(&d), "delay {d}");
        }
    }

    #[test]
    fn contended_hop_peak_vs_trough() {
        let profile = DiurnalProfile::new(DiurnalShape::Business, 0.3, 0.6, 0.0);
        let s = DelaySampler::contended(5.0, profile);
        let noon = SimTime::EPOCH + Dur::from_hours(13);
        let night = SimTime::EPOCH + Dur::from_hours(3);
        assert!(s.mean_queue_ms(noon) > 3.0 * s.mean_queue_ms(night));
    }

    #[test]
    fn queue_capped() {
        let profile = DiurnalProfile::flat(0.99);
        let s = DelaySampler::contended(1.0, profile);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let d = s.sample_ms(SimTime::EPOCH, &mut rng);
            assert!(d <= 1.0 + 40.0 + 1e-9, "delay {d} exceeds buffer cap");
        }
    }

    #[test]
    fn fast_ln_matches_libm_ln() {
        let t = ln_tables();
        let mut rng = SmallRng::seed_from_u64(7);
        // Uniform draws as the sampler sees them, plus magnitudes far
        // outside (0,1) to pin the exponent handling.
        for _ in 0..100_000 {
            let u = unit_open01_from(rng.next_u64());
            assert!((fast_ln(t, u) - u.ln()).abs() < 1e-10, "u = {u}");
        }
        for x in [1e-300, 1e-9, 0.5, 1.0, 1.0 + 1e-12, 2.0, 3.7, 1e12] {
            assert!(
                (fast_ln(t, x) - x.ln()).abs() < 1e-9,
                "x = {x}: {} vs {}",
                fast_ln(t, x),
                x.ln()
            );
        }
    }

    #[test]
    fn queue_draw_tracks_exact_log() {
        // For the same raw draw, the interpolated branch must stay within
        // 2e-4 relative of the exact inverse CDF; the tail bins are exact
        // by construction (they run the fast_ln path on the same bits).
        let t = ln_tables();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..200_000 {
            let mut peek = rng.clone();
            let raw = peek.next_u64();
            let q = queue_draw(t, 1.0, f64::INFINITY, &mut rng);
            let exact = -unit_open01_from(raw).ln();
            assert!(
                (q - exact).abs() <= 2e-4 * exact.max(1e-3),
                "q {q} vs exact {exact}"
            );
        }
    }

    #[test]
    fn unit_open01_stays_in_open_interval() {
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..100_000 {
            let u = unit_open01_from(rng.next_u64());
            assert!(u > 0.0 && u < 1.0, "u = {u}");
        }
    }

    #[test]
    fn mean_matches_exponential() {
        let profile = DiurnalProfile::flat(0.5);
        let s = DelaySampler::contended(0.0, profile);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| s.sample_ms(SimTime::EPOCH, &mut rng)).sum();
        let mean = sum / n as f64;
        // At rho=0.5 mean queue = queue_scale (0.6 ms); capping trims a bit.
        assert!((mean - 0.6).abs() < 0.03, "mean {mean}");
    }
}
