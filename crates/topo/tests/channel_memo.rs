//! Differential test for the channel factory's per-hop template memo.
//!
//! A factory that has already built other flows, and the opposite direction,
//! over the same hops must hand a flow label the same channel as a fresh
//! factory: the same packet fates and arrival clocks, on the forward path
//! and on its `reversed()` twin. `reversed()` keeps each hop's label but
//! swaps its cities, so a memo keyed on the label alone fails here on every
//! shape whose models read the from-city's region or the to-city's clock.

use vns_bgp::Asn;
use vns_geo::cities::city_by_name;
use vns_geo::Region;
use vns_netsim::{Dur, Par, PathChannel, PathOutcome, RngTree, SimTime};
use vns_topo::path::{HopKind, ResolvedHop, ResolvedPath};
use vns_topo::{AsType, CalibrationConfig, ChannelFactory};

fn factory() -> ChannelFactory {
    ChannelFactory::new(
        CalibrationConfig::default(),
        RngTree::new(5).subtree("memo"),
    )
}

fn hop(kind: HopKind, from: &str, to: &str, km: f64, label: &str) -> ResolvedHop {
    ResolvedHop {
        kind,
        from_city: city_by_name(from).expect("known city").0,
        to_city: city_by_name(to).expect("known city").0,
        km,
        label: label.to_string(),
    }
}

/// One hop of each shape the factory profiles differently.
fn shapes() -> Vec<ResolvedHop> {
    let intra = |region, dedicated| HopKind::IntraAs {
        asn: Asn(7),
        ty: AsType::Ltp,
        region,
        dedicated,
    };
    let inter = |region| HopKind::InterAs { region };
    vec![
        // Cities an hour and more apart: the to-city's clock drives both
        // the loss and the delay curve.
        hop(
            HopKind::LastMile {
                ty: AsType::Cahp,
                region: Region::Europe,
            },
            "London",
            "Moscow",
            30.0,
            "lm",
        ),
        hop(
            intra(Region::Europe, true),
            "Amsterdam",
            "London",
            360.0,
            "l2",
        ),
        // From-region (SA) differs from the kind's region (NA): the
        // forward haul takes the scarce-capacity profile, the reverse NA's.
        hop(
            intra(Region::NorthAmerica, false),
            "SaoPaulo",
            "Miami",
            6600.0,
            "haul",
        ),
        hop(
            inter(Region::Europe),
            "Frankfurt",
            "Amsterdam",
            360.0,
            "ix-short",
        ),
        hop(
            inter(Region::NorthAmerica),
            "Bogota",
            "Miami",
            1500.0,
            "ix-access",
        ),
        hop(
            inter(Region::NorthAmerica),
            "London",
            "Miami",
            7100.0,
            "ix-backhaul",
        ),
    ]
}

/// Every one-hop path, then one path through all the shapes.
fn paths() -> Vec<ResolvedPath> {
    let one = |h: ResolvedHop| ResolvedPath {
        hops: vec![h],
        routers: vec![],
    };
    let mut paths: Vec<ResolvedPath> = shapes().into_iter().map(one).collect();
    paths.push(ResolvedPath {
        hops: shapes(),
        routers: vec![],
    });
    paths
}

/// Fates of a packet every 5 s over 28 simulated hours, so every hour of
/// the diurnal curves is crossed.
fn fates(mut ch: PathChannel) -> Vec<PathOutcome> {
    (0..20_000u64)
        .map(|i| ch.send(SimTime::EPOCH + Dur::from_secs(5 * i)))
        .collect()
}

#[test]
fn warm_memo_builds_the_channels_of_a_fresh_factory() {
    let mut mismatches = Vec::new();
    for path in paths() {
        let back = path.reversed();
        for (dir, (this, other)) in [("fwd", (&path, &back)), ("rev", (&back, &path))] {
            let fresh = fates(factory().channel(this, "flow"));
            // Warm the memo with the opposite direction first, then with
            // other flows in this direction.
            let warm = factory();
            for other_flow in ["a", "b"] {
                warm.channel(other, other_flow);
            }
            warm.channel(this, "other");
            let warmed = fates(warm.channel(this, "flow"));
            if let Some(i) = warmed.iter().zip(&fresh).position(|(w, f)| w != f) {
                let labels: Vec<&str> = path.hops.iter().map(|h| h.label.as_str()).collect();
                mismatches.push(format!("{dir} {labels:?} from packet {i}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "warm != fresh: {mismatches:#?}");
}

#[test]
fn channels_built_in_parallel_equal_sequential_ones() {
    let mut items = Vec::new();
    for path in paths() {
        for flow in ["x", "y"] {
            items.push((path.reversed(), flow));
            items.push((path.clone(), flow));
        }
    }
    let build = |par: Par| {
        let f = factory();
        par.map(&items, |_, (path, flow)| fates(f.channel(path, flow)))
    };
    assert!(
        build(Par::new(2)) == build(Par::seq()),
        "channels built on 2 threads differ from sequential ones"
    );
}
