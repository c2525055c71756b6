//! From resolved paths to live channels: loss/delay profile assignment.
//!
//! This is where the paper's measured world is encoded as model parameters.
//! The calibration targets (see EXPERIMENTS.md for the fit):
//!
//! * **Dedicated VNS hops** — near-lossless: the paper sees zero loss
//!   intra-region and <0.01% residual cross-region (L2 circuits are
//!   multiplexed at a lower layer, so a tiny residual remains).
//! * **Shared transit hauls** — a small random baseline plus congestion
//!   loss whose diurnal clock is the hop's local time; the AP region runs
//!   hot (its local peak dominates everything routed through it — Fig 12),
//!   EU runs coolest, NA in between. Long hauls accumulate more loss
//!   (more internal hops), scaled by distance.
//! * **Convergence blackouts** — Poisson windows shared by every flow on a
//!   hop (Fig 10's bursty outliers).
//! * **Last miles** — per (AS type, region) mean-loss targets derived from
//!   Table 1: CAHPs are residential-congested (evening peak), ECs peak in
//!   business hours, LTP/STP edges are cleaner; NA is flat across types
//!   because LTPs there also serve residences.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vns_geo::{city, CityId, Region};
use vns_netsim::{
    BlackoutSchedule, DelaySampler, DiurnalProfile, Dur, FaultGenerator, HopChannel, LossModel,
    LossProcess, PathChannel, RngTree, SimTime,
};

use crate::astype::AsType;
use crate::path::{HopKind, ResolvedHop, ResolvedPath};

use vns_netsim::diurnal::DiurnalShape;

/// Regional shared-transit congestion parameters.
#[derive(Debug, Clone, Copy)]
pub struct TransitProfile {
    /// Off-peak utilisation.
    pub base_util: f64,
    /// Peak add-on.
    pub amplitude: f64,
    /// Loss knee.
    pub knee: f64,
    /// Target long-run mean congestion loss per 4000 km of haul
    /// (fraction); the peak probability is derived from it.
    pub mean_per_4000km: f64,
    /// Random loss floor per 4000 km of haul (fraction).
    pub bernoulli_per_4000km: f64,
    /// Cap on the per-window loss probability (how bad a congested
    /// five-minute window can get on this region's hauls).
    pub window_cap: f64,
}

/// All tunable numbers.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Shared-transit profile per region.
    pub transit_eu: TransitProfile,
    /// See [`CalibrationConfig::transit_eu`].
    pub transit_na: TransitProfile,
    /// See [`CalibrationConfig::transit_eu`].
    pub transit_ap: TransitProfile,
    /// Profile for the remaining regions (OC/SA/ME/AF).
    pub transit_rest: TransitProfile,
    /// Random loss on a dedicated (VNS) L2 hop.
    pub dedicated_bernoulli: f64,
    /// Bursty residual on dedicated hops (lower-layer multiplexing):
    /// long-run rate.
    pub dedicated_burst_rate: f64,
    /// Convergence blackout events per day on each shared haul.
    pub blackout_events_per_day: f64,
    /// Blackout horizon (schedules are generated once per hop for this
    /// span).
    pub blackout_horizon: Dur,
    /// Mean last-mile loss targets, `[region][type]` with regions
    /// EU/NA/AP/rest and types LTP/STP/CAHP/EC, as *fractions*.
    pub last_mile_targets: [[f64; 4]; 4],
    /// Short-term congestion fluctuation (lognormal sigma).
    pub fluctuation_sigma: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            // Transit runs below the knee deterministically; loss happens
            // when a five-minute lognormal fluctuation window pushes a haul
            // over it. With sigma 0.35 and knee 0.80 the knee-crossing
            // probability is ~1.6% at utilisation 0.40, ~6% at 0.50, ~16%
            // at 0.60, ~29% at 0.70 — these levels set how often streams
            // meet a congested window (Fig 9's exceedance fractions).
            transit_eu: TransitProfile {
                base_util: 0.35,
                amplitude: 0.12,
                knee: 0.80,
                mean_per_4000km: 0.00010,
                bernoulli_per_4000km: 1.5e-5,
                window_cap: 0.04,
            },
            // NA a bit hotter.
            transit_na: TransitProfile {
                base_util: 0.40,
                amplitude: 0.12,
                knee: 0.80,
                mean_per_4000km: 0.00028,
                bernoulli_per_4000km: 2.5e-5,
                window_cap: 0.05,
            },
            // AP runs hot around the clock (its trough still crosses the
            // knee ~6% of windows), and its *local* business day dominates
            // — Fig 12's masking effect.
            transit_ap: TransitProfile {
                base_util: 0.45,
                amplitude: 0.18,
                knee: 0.80,
                mean_per_4000km: 0.00180,
                bernoulli_per_4000km: 6e-5,
                window_cap: 0.12,
            },
            transit_rest: TransitProfile {
                base_util: 0.54,
                amplitude: 0.24,
                knee: 0.80,
                mean_per_4000km: 0.00200,
                bernoulli_per_4000km: 5e-5,
                window_cap: 0.12,
            },
            dedicated_bernoulli: 8e-6,
            dedicated_burst_rate: 2e-6,
            blackout_events_per_day: 4.0,
            blackout_horizon: Dur::from_days(30),
            // Means as fractions: rows EU, NA, AP, rest; cols LTP, STP,
            // CAHP, EC. Derived from Table 1 minus the transit component.
            // One-way means; a ping round trip crosses the last mile
            // twice, so the measured Table 1 values are ~2x these plus
            // transit.
            last_mile_targets: [
                [0.0003, 0.0027, 0.0073, 0.0023], // EU
                [0.0018, 0.0015, 0.0015, 0.0018], // NA (flat; LTPs serve homes)
                [0.0002, 0.0017, 0.0044, 0.0028], // AP
                [0.0004, 0.0022, 0.0050, 0.0032], // OC/SA/ME/AF
            ],
            fluctuation_sigma: 0.35,
        }
    }
}

impl CalibrationConfig {
    /// Transit profile for a region.
    pub fn transit(&self, region: Region) -> TransitProfile {
        match region {
            Region::Europe => self.transit_eu,
            Region::NorthAmerica => self.transit_na,
            Region::AsiaPacific => self.transit_ap,
            _ => self.transit_rest,
        }
    }

    /// Mean last-mile loss target.
    pub fn last_mile_target(&self, ty: AsType, region: Region) -> f64 {
        let r = match region {
            Region::Europe => 0,
            Region::NorthAmerica => 1,
            Region::AsiaPacific => 2,
            _ => 3,
        };
        let t = match ty {
            AsType::Ltp => 0,
            AsType::Stp => 1,
            AsType::Cahp => 2,
            AsType::Ec => 3,
        };
        self.last_mile_targets[r][t]
    }
}

/// The diurnal shape a last mile of the given AS type follows.
fn last_mile_shape(ty: AsType) -> DiurnalShape {
    match ty {
        AsType::Cahp => DiurnalShape::Residential,
        AsType::Ec => DiurnalShape::Business,
        AsType::Ltp | AsType::Stp => DiurnalShape::Mixed,
    }
}

/// Clamps a congestion model's peak window probability.
fn cap_max_p(model: LossModel, cap: f64) -> LossModel {
    match model {
        LossModel::Congestion {
            profile,
            knee,
            max_p,
            fluctuation_sigma,
        } => LossModel::Congestion {
            profile,
            knee,
            max_p: max_p.min(cap),
            fluctuation_sigma,
        },
        other => other,
    }
}

/// Builds a congestion model whose long-run mean equals `target` by scaling
/// `max_p` (the mean is linear in `max_p`).
fn congestion_with_mean(
    target: f64,
    shape: DiurnalShape,
    base: f64,
    amplitude: f64,
    knee: f64,
    utc_offset: f64,
    sigma: f64,
) -> LossModel {
    // mean_rate integrates over both the diurnal curve and the lognormal
    // fluctuation, and is linear in max_p — so one probe evaluation
    // calibrates the peak probability exactly.
    let probe = LossModel::Congestion {
        profile: DiurnalProfile::new(shape, base, amplitude, utc_offset),
        knee,
        max_p: 1.0,
        fluctuation_sigma: sigma,
    };
    let unit_mean = probe.mean_rate();
    let max_p = if unit_mean > 0.0 {
        (target / unit_mean).min(1.0)
    } else {
        0.0
    };
    LossModel::Congestion {
        profile: DiurnalProfile::new(shape, base, amplitude, utc_offset),
        knee,
        max_p,
        fluctuation_sigma: sigma,
    }
}

/// A hop's flow-independent channel parts: its loss model, delay sampler,
/// blackout schedule and label, built once per distinct hop and direction.
///
/// The key fields are every input [`ChannelFactory::loss_model`] and
/// [`ChannelFactory::delay_sampler`] read. The label alone is not enough:
/// [`ResolvedPath::reversed`] keeps each hop's label but swaps its cities,
/// and the models read the from-city's region and both cities' UTC offsets.
#[derive(Debug)]
struct HopTemplate {
    kind: HopKind,
    from_city: CityId,
    to_city: CityId,
    km: f64,
    loss: LossModel,
    delay: DelaySampler,
    blackouts: BlackoutSchedule,
    label: Arc<str>,
}

impl HopTemplate {
    /// Whether this template was built from a hop equal to `hop` in every
    /// field the models read (the label is the memo's outer key).
    fn serves(&self, hop: &ResolvedHop) -> bool {
        self.kind == hop.kind
            && self.from_city == hop.from_city
            && self.to_city == hop.to_city
            && self.km.to_bits() == hop.km.to_bits()
    }
}

/// The memo's entries under one hop label: its templates (normally the two
/// directions) and the blackout schedule they share.
#[derive(Debug)]
struct LabelTemplates {
    label: Arc<str>,
    /// Generated at the first faultable template; both directions of a hop
    /// see the same outages.
    blackouts: Option<BlackoutSchedule>,
    hops: Vec<Arc<HopTemplate>>,
}

/// Builds [`PathChannel`]s from resolved paths.
///
/// Each hop's loss model, delay sampler and blackout schedule depend only on
/// the hop and the factory's [`CalibrationConfig`], which cannot change after
/// [`ChannelFactory::new`]. The factory builds them once per distinct hop and
/// direction into a template memo that never needs invalidating;
/// [`ChannelFactory::channel_args`] looks each hop up and builds only the
/// per-flow state — the loss process and the delay RNGs.
///
/// Every schedule and seed is derived from the factory's [`RngTree`] by
/// label, never from call order — so [`ChannelFactory::channel`] takes
/// `&self` and can be called from campaign worker threads concurrently
/// with byte-identical results at any thread count. The memo sits behind a
/// [`Mutex`]; a hit and a rebuild return equal templates.
#[derive(Debug)]
pub struct ChannelFactory {
    config: CalibrationConfig,
    rng: RngTree,
    templates: Mutex<BTreeMap<String, LabelTemplates>>,
}

impl ChannelFactory {
    /// Creates a factory. `rng` should be a dedicated subtree (e.g.
    /// `tree.subtree("channels")`).
    pub fn new(config: CalibrationConfig, rng: RngTree) -> Self {
        Self {
            config,
            rng,
            templates: Mutex::new(BTreeMap::new()),
        }
    }

    /// The template memo. A template is inserted only once fully built, so
    /// the map is valid at every step: recover from poisoning rather than
    /// cascading a worker's panic into misleading poisoned-lock aborts
    /// under `par_map`.
    fn memo(&self) -> MutexGuard<'_, BTreeMap<String, LabelTemplates>> {
        self.templates
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of hop templates memoized so far, one per distinct hop and
    /// direction (diagnostics).
    pub fn cached_hop_templates(&self) -> usize {
        self.memo().values().map(|e| e.hops.len()).sum()
    }

    /// Configuration access.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// The shared-haul loss model for a hop of `km` between two regions.
    ///
    /// Cross-region hauls take the *milder* endpoint profile: submarine
    /// long-haul systems are managed point-to-point capacity, and the
    /// congestion the paper measures lives in domestic aggregation — which
    /// is also why its SJS vantage reaches AP destinations about as well
    /// as AP's own PoPs do (Sec 5.2.2).
    fn transit_model(&self, from: Region, to: Region, km: f64, mid_offset: f64) -> LossModel {
        let a = self.config.transit(from);
        let b = self.config.transit(to);
        // Regions with scarce international capacity (OC/SA/ME/AF) keep
        // their hot profile on any haul touching them. The EU<->AP route
        // (Suez/overland) was congested in the measurement era, so it takes
        // the heavier AP profile; the trans-Pacific and trans-Atlantic
        // systems were premium capacity, so those hauls take the milder
        // endpoint — which is why the paper's SJS vantage reaches AP about
        // as well as AP's own PoPs, and NA->EU looks like EU->EU.
        let rest_group = |r: Region| {
            !matches!(
                r,
                Region::Europe | Region::NorthAmerica | Region::AsiaPacific
            )
        };
        let eu_ap = |x: Region, y: Region| {
            matches!(
                (x, y),
                (Region::Europe, Region::AsiaPacific) | (Region::AsiaPacific, Region::Europe)
            )
        };
        let t = if rest_group(from) || rest_group(to) {
            self.config.transit_rest
        } else if eu_ap(from, to) {
            self.config.transit_ap
        } else if a.base_util + a.amplitude <= b.base_util + b.amplitude {
            a
        } else {
            b
        };
        let spans = 0.5 + (km / 4000.0);
        LossModel::Composite(vec![
            LossModel::Bernoulli {
                p: (t.bernoulli_per_4000km * spans).min(0.01),
            },
            cap_max_p(
                congestion_with_mean(
                    (t.mean_per_4000km * spans).min(0.05),
                    DiurnalShape::Mixed,
                    t.base_util,
                    t.amplitude,
                    t.knee,
                    mid_offset,
                    self.config.fluctuation_sigma,
                ),
                // Sustained transit congestion tops out at several
                // percent even in a terrible five-minute window (Fig 10's
                // upper-right outliers reach ~5–10% per stream, not 50%).
                t.window_cap,
            ),
        ])
    }

    /// The loss model for one hop (public for calibration tests).
    pub fn loss_model(&self, hop: &ResolvedHop) -> LossModel {
        let mid_offset = (city(hop.from_city).location.utc_offset_hours()
            + city(hop.to_city).location.utc_offset_hours())
            / 2.0;
        match hop.kind {
            HopKind::IntraAs {
                dedicated: true, ..
            } => LossModel::Composite(vec![
                LossModel::Bernoulli {
                    p: self.config.dedicated_bernoulli,
                },
                LossModel::bursty(self.config.dedicated_burst_rate, 0.15, 0.5),
            ]),
            HopKind::IntraAs { region, .. } => {
                self.transit_model(city(hop.from_city).region, region, hop.km, mid_offset)
            }
            // A very long "interconnect" is a leased backhaul port (the
            // London transit port landing in Ashburn): oversubscribed
            // bargain capacity — the scarce-capacity profile applies.
            HopKind::InterAs { .. } if hop.km > 2000.0 => {
                let t = self.config.transit_rest;
                let spans = 0.5 + (hop.km / 4000.0);
                LossModel::Composite(vec![
                    LossModel::Bernoulli {
                        p: (t.bernoulli_per_4000km * spans).min(0.01),
                    },
                    cap_max_p(
                        congestion_with_mean(
                            (t.mean_per_4000km * spans).min(0.05),
                            DiurnalShape::Mixed,
                            t.base_util,
                            t.amplitude,
                            t.knee,
                            mid_offset,
                            self.config.fluctuation_sigma,
                        ),
                        t.window_cap,
                    ),
                ])
            }
            // A medium "interconnect" is an access circuit: regional haul
            // profile.
            HopKind::InterAs { region } if hop.km > 500.0 => {
                self.transit_model(city(hop.from_city).region, region, hop.km, mid_offset)
            }
            HopKind::InterAs { .. } => LossModel::Bernoulli { p: 1e-5 },
            HopKind::LastMile { ty, region } => {
                let target = self.config.last_mile_target(ty, region);
                let offset = city(hop.to_city).location.utc_offset_hours();
                LossModel::Composite(vec![
                    // A fifth of the target is state-free random loss …
                    LossModel::Bernoulli { p: target * 0.2 },
                    // … the rest follows the type's diurnal congestion.
                    congestion_with_mean(
                        target * 0.8,
                        last_mile_shape(ty),
                        0.50,
                        0.42,
                        0.70,
                        offset,
                        self.config.fluctuation_sigma,
                    ),
                ])
            }
        }
    }

    /// The delay sampler for one hop.
    pub fn delay_sampler(&self, hop: &ResolvedHop) -> DelaySampler {
        let prop_ms = vns_geo::coords::propagation_delay_ms(hop.km);
        match hop.kind {
            HopKind::IntraAs {
                dedicated: true, ..
            } => {
                // Dedicated circuits: propagation + small switching margin.
                DelaySampler::fixed(prop_ms + 0.15)
            }
            HopKind::IntraAs { region, .. } => {
                let t = self.config.transit(region);
                let mid_offset = (city(hop.from_city).location.utc_offset_hours()
                    + city(hop.to_city).location.utc_offset_hours())
                    / 2.0;
                DelaySampler::contended(
                    prop_ms + 0.3,
                    DiurnalProfile::new(DiurnalShape::Mixed, t.base_util, t.amplitude, mid_offset),
                )
            }
            HopKind::InterAs { .. } => DelaySampler::fixed(prop_ms + 0.2),
            HopKind::LastMile { ty, .. } => {
                let offset = city(hop.to_city).location.utc_offset_hours();
                DelaySampler::contended(
                    3.0,
                    DiurnalProfile::new(last_mile_shape(ty), 0.5, 0.42, offset),
                )
            }
        }
    }

    /// Whether `hop` suffers convergence blackouts.
    fn faultable(&self, hop: &ResolvedHop) -> bool {
        let subject_to_faults = matches!(
            hop.kind,
            HopKind::IntraAs {
                dedicated: false,
                ..
            }
        ) || (matches!(hop.kind, HopKind::InterAs { .. })
            && hop.km > 500.0);
        subject_to_faults && self.config.blackout_events_per_day > 0.0
    }

    /// The template for `hop`, built on first use. A hit looks the label up
    /// by `&str` and allocates nothing.
    fn template(&self, hop: &ResolvedHop) -> Arc<HopTemplate> {
        let mut memo = self.memo();
        if let Some(t) = memo
            .get(hop.label.as_str())
            .and_then(|e| e.hops.iter().find(|t| t.serves(hop)))
        {
            return Arc::clone(t);
        }
        let entry = memo
            .entry(hop.label.clone())
            .or_insert_with(|| LabelTemplates {
                label: Arc::from(hop.label.as_str()),
                blackouts: None,
                hops: Vec::new(),
            });
        let blackouts = if self.faultable(hop) {
            // A pure function of (factory seed, hop label).
            let schedule = entry.blackouts.get_or_insert_with(|| {
                let gen = FaultGenerator::convergence(self.config.blackout_events_per_day);
                let mut rng = self.rng.stream(&format!("blackout:{}", hop.label));
                gen.generate(SimTime::EPOCH, self.config.blackout_horizon, &mut rng)
            });
            schedule.clone()
        } else {
            BlackoutSchedule::none()
        };
        let template = Arc::new(HopTemplate {
            kind: hop.kind,
            from_city: hop.from_city,
            to_city: hop.to_city,
            km: hop.km,
            loss: self.loss_model(hop),
            delay: self.delay_sampler(hop),
            blackouts,
            label: Arc::clone(&entry.label),
        });
        entry.hops.push(Arc::clone(&template));
        template
    }

    /// Builds a per-flow channel for `path`. `flow_label` individualises
    /// the flow's loss-process state and delay draws; reusing a label
    /// reproduces the identical packet fate sequence.
    pub fn channel(&self, path: &ResolvedPath, flow_label: &str) -> PathChannel {
        self.channel_args(path, format_args!("{flow_label}"))
    }

    /// Like [`ChannelFactory::channel`], but takes the flow label as
    /// `format_args!` so campaign hot paths (one channel per probe) derive
    /// seeds without materialising a label `String`. Hash-compatible with
    /// the `&str` form: `channel_args(p, format_args!("x"))` ==
    /// `channel(p, "x")`.
    pub fn channel_args(&self, path: &ResolvedPath, flow_label: fmt::Arguments<'_>) -> PathChannel {
        let mut hops = Vec::with_capacity(path.hops.len());
        for (i, hop) in path.hops.iter().enumerate() {
            let template = self.template(hop);
            let seed = self
                .rng
                .seed_for_args(format_args!("flow:{flow_label}:hop{i}:{}", hop.label));
            hops.push(HopChannel {
                loss: LossProcess::new(template.loss.clone(), SmallRng::seed_from_u64(seed)),
                delay: template.delay.clone(),
                blackouts: template.blackouts.clone(),
                label: Arc::clone(&template.label),
            });
        }
        let rng = self.rng.stream_args(format_args!("flowdelay:{flow_label}"));
        PathChannel::new(hops, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vns_bgp::Asn;
    use vns_geo::cities::city_by_name;
    use vns_netsim::PathOutcome;

    fn hop(kind: HopKind, from: &str, to: &str, km: f64, label: &str) -> ResolvedHop {
        ResolvedHop {
            kind,
            from_city: city_by_name(from).unwrap().0,
            to_city: city_by_name(to).unwrap().0,
            km,
            label: label.to_string(),
        }
    }

    fn factory() -> ChannelFactory {
        ChannelFactory::new(CalibrationConfig::default(), RngTree::new(42).subtree("ch"))
    }

    #[test]
    fn dedicated_hops_nearly_lossless() {
        let f = factory();
        let h = hop(
            HopKind::IntraAs {
                asn: Asn(1),
                ty: AsType::Stp,
                region: Region::Europe,
                dedicated: true,
            },
            "Amsterdam",
            "London",
            360.0,
            "l2",
        );
        let rate = f.loss_model(&h).mean_rate();
        assert!(rate < 1e-4, "dedicated rate {rate}");
    }

    #[test]
    fn ap_transit_lossier_than_eu() {
        let f = factory();
        let eu = hop(
            HopKind::IntraAs {
                asn: Asn(1),
                ty: AsType::Ltp,
                region: Region::Europe,
                dedicated: false,
            },
            "Amsterdam",
            "Frankfurt",
            360.0,
            "eu",
        );
        let ap = hop(
            HopKind::IntraAs {
                asn: Asn(1),
                ty: AsType::Ltp,
                region: Region::AsiaPacific,
                dedicated: false,
            },
            "Singapore",
            "HongKong",
            2600.0,
            "ap",
        );
        let eu_rate = f.loss_model(&eu).mean_rate();
        let ap_rate = f.loss_model(&ap).mean_rate();
        assert!(
            ap_rate > 3.0 * eu_rate,
            "AP {ap_rate} should dwarf EU {eu_rate}"
        );
    }

    #[test]
    fn longer_hauls_lose_more() {
        let f = factory();
        let mk = |km| {
            hop(
                HopKind::IntraAs {
                    asn: Asn(1),
                    ty: AsType::Ltp,
                    region: Region::NorthAmerica,
                    dedicated: false,
                },
                "NewYork",
                "LosAngeles",
                km,
                "na",
            )
        };
        assert!(
            f.loss_model(&mk(8000.0)).mean_rate() > 1.5 * f.loss_model(&mk(1000.0)).mean_rate()
        );
    }

    #[test]
    fn last_mile_means_match_targets() {
        let f = factory();
        let cfg = CalibrationConfig::default();
        for (ty, region, cname) in [
            (AsType::Cahp, Region::AsiaPacific, "Singapore"),
            (AsType::Ltp, Region::Europe, "Amsterdam"),
            (AsType::Ec, Region::NorthAmerica, "Atlanta"),
        ] {
            let h = hop(HopKind::LastMile { ty, region }, cname, cname, 30.0, "lm");
            let target = cfg.last_mile_target(ty, region);
            let got = f.loss_model(&h).mean_rate();
            assert!(
                (got - target).abs() / target < 0.25,
                "{ty} {region}: target {target}, got {got}"
            );
        }
    }

    /// `LossModel::mean_rate`'s congestion arm as first written: the
    /// fluctuation factor evaluated inside the hour loop.
    fn mean_rate_per_hour_factor(profile: DiurnalProfile, knee: f64, sigma: f64) -> f64 {
        const Q16: [f64; 16] = [
            -1.863, -1.318, -1.010, -0.776, -0.579, -0.402, -0.237, -0.078, 0.078, 0.237, 0.402,
            0.579, 0.776, 1.010, 1.318, 1.863,
        ];
        let congestion_p = |util: f64| {
            if util <= knee || knee >= 1.0 {
                0.0
            } else {
                let x = ((util - knee) / (1.0 - knee)).clamp(0.0, 1.0);
                x * x
            }
        };
        let quantiles: &[f64] = if sigma > 0.0 { &Q16 } else { &[0.0] };
        let n = 96;
        let mut acc = 0.0;
        for i in 0..n {
            let u0 = profile.utilization_at_hour(24.0 * i as f64 / n as f64);
            for &z in quantiles {
                let fluct = (z * sigma - 0.5 * sigma * sigma).exp();
                acc += congestion_p((u0 * fluct).clamp(0.0, 1.0));
            }
        }
        acc / (n as f64 * quantiles.len() as f64)
    }

    #[test]
    fn mean_rate_hoisted_factors_are_bit_identical() {
        let cfg = CalibrationConfig::default();
        // (shape, base, amplitude, knee) of every congestion component the
        // factory calibrates: the four transit profiles and the last mile
        // of each AS type.
        let mut profiles: Vec<(DiurnalShape, f64, f64, f64)> = [
            cfg.transit_eu,
            cfg.transit_na,
            cfg.transit_ap,
            cfg.transit_rest,
        ]
        .iter()
        .map(|t| (DiurnalShape::Mixed, t.base_util, t.amplitude, t.knee))
        .collect();
        profiles.extend(
            AsType::ALL
                .iter()
                .map(|&ty| (last_mile_shape(ty), 0.50, 0.42, 0.70)),
        );
        for (shape, base, amplitude, knee) in profiles {
            for sigma in [cfg.fluctuation_sigma, 0.0] {
                // max_p 1.0 is calibration's probe; the mean is linear in it.
                let profile = DiurnalProfile::new(shape, base, amplitude, 0.0);
                let model = LossModel::Congestion {
                    profile,
                    knee,
                    max_p: 1.0,
                    fluctuation_sigma: sigma,
                };
                assert_eq!(
                    model.mean_rate().to_bits(),
                    mean_rate_per_hour_factor(profile, knee, sigma).to_bits(),
                    "{shape:?} base {base} amplitude {amplitude} sigma {sigma}"
                );
            }
        }
    }

    #[test]
    fn table1_ordering_holds_in_targets() {
        // AP & EU: CAHP > EC > STP > LTP; NA: roughly flat.
        let cfg = CalibrationConfig::default();
        for region in [Region::AsiaPacific, Region::Europe] {
            let lm = |t| cfg.last_mile_target(t, region);
            assert!(lm(AsType::Cahp) > lm(AsType::Ec), "{region}");
            assert!(lm(AsType::Ec) > lm(AsType::Ltp), "{region}");
            assert!(lm(AsType::Stp) > lm(AsType::Ltp), "{region}");
        }
        let na: Vec<f64> = AsType::ALL
            .iter()
            .map(|t| cfg.last_mile_target(*t, Region::NorthAmerica))
            .collect();
        let spread = na.iter().cloned().fold(f64::MIN, f64::max)
            / na.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1.5, "NA should be flat, spread {spread}");
    }

    #[test]
    fn blackout_schedules_shared_across_flows() {
        // Lossless haul: a packet is lost exactly when it meets a blackout.
        let clean = TransitProfile {
            mean_per_4000km: 0.0,
            bernoulli_per_4000km: 0.0,
            ..CalibrationConfig::default().transit_eu
        };
        let f = ChannelFactory::new(
            CalibrationConfig {
                transit_eu: clean,
                ..CalibrationConfig::default()
            },
            RngTree::new(42).subtree("ch"),
        );
        let h = hop(
            HopKind::IntraAs {
                asn: Asn(1),
                ty: AsType::Ltp,
                region: Region::Europe,
                dedicated: false,
            },
            "Amsterdam",
            "Frankfurt",
            360.0,
            "shared-haul",
        );
        let path = ResolvedPath {
            hops: vec![h],
            routers: vec![],
        };
        let mut flows = [
            f.channel(&path, "flow-a"),
            f.channel(&path, "flow-b"),
            f.channel(&path.reversed(), "flow-a"),
        ];
        // One template per direction; both share the label's schedule.
        assert_eq!(f.cached_hop_templates(), 2);
        let schedule = f.memo()["shared-haul"]
            .blackouts
            .clone()
            .expect("faultable hop has a schedule");
        assert!(!schedule.is_empty());
        let before = |t: SimTime| SimTime::from_nanos(t.as_nanos() - 1);
        let (mut t, mut windows) = (SimTime::EPOCH, 0);
        loop {
            // `t` is clear; its segment ends where the next window starts.
            let (_, start, _) = schedule.segment_at(t);
            if start == SimTime::MAX {
                break;
            }
            let (_, end, blacked) = schedule.segment_at(start);
            assert!(blacked);
            // Every flow and both directions: delivered just outside the
            // window, lost at hop 0 on its first and last nanosecond.
            for ch in &mut flows {
                assert!(ch.send(before(start)).delivered(), "before {start:?}");
                assert_eq!(ch.send(start), PathOutcome::Lost { hop: 0 });
                assert_eq!(ch.send(before(end)), PathOutcome::Lost { hop: 0 });
                assert!(ch.send(end).delivered(), "at {end:?}");
            }
            windows += 1;
            t = end;
        }
        assert_eq!(windows, schedule.len());
    }

    #[test]
    fn channel_construction_deterministic() {
        let mk = || {
            let f = factory();
            let h = hop(
                HopKind::LastMile {
                    ty: AsType::Cahp,
                    region: Region::Europe,
                },
                "Amsterdam",
                "Amsterdam",
                30.0,
                "lm-x",
            );
            let path = ResolvedPath {
                hops: vec![h],
                routers: vec![],
            };
            let mut ch = f.channel(&path, "flow");
            let mut outcomes = Vec::new();
            for i in 0..2000u64 {
                let t = SimTime::EPOCH + Dur::from_secs(i * 40);
                outcomes.push(ch.send(t).delivered());
            }
            outcomes
        };
        assert_eq!(mk(), mk());
    }
}

#[cfg(test)]
mod blackout_tests {
    use super::*;
    use vns_bgp::Asn;
    use vns_geo::cities::city_by_name;

    #[test]
    fn faultable_hops_get_blackout_schedules() {
        let f = ChannelFactory::new(CalibrationConfig::default(), RngTree::new(7).subtree("ch"));
        let hop = ResolvedHop {
            kind: HopKind::IntraAs {
                asn: Asn(1),
                ty: AsType::Ltp,
                region: Region::NorthAmerica,
                dedicated: false,
            },
            from_city: city_by_name("NewYork").unwrap().0,
            to_city: city_by_name("Ashburn").unwrap().0,
            km: 455.0,
            label: "bb:test".into(),
        };
        let path = ResolvedPath {
            hops: vec![hop],
            routers: vec![],
        };
        let ch = f.channel(&path, "flow");
        let _ = ch;
        let sched = f.memo()["bb:test"]
            .blackouts
            .clone()
            .expect("schedule cached");
        // 30-day horizon at 4 events/day: ~120 windows.
        assert!(
            (60..240).contains(&sched.len()),
            "blackout windows {}",
            sched.len()
        );
        // A dense packet train over 30 days must hit some of them.
        let mut ch = f.channel(&path, "flow2");
        let mut lost = 0;
        let mut t = SimTime::EPOCH;
        for _ in 0..(30 * 24 * 360) {
            if !ch.send(t).delivered() {
                lost += 1;
            }
            t += Dur::from_secs(10);
        }
        // Expected blackout hits alone: ~120 windows * 4.5 s / 10 s ≈ 54.
        assert!(lost > 30, "lost {lost}");
    }
}
