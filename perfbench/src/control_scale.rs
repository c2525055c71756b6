//! `control-scale`: a larger world, the two-stage verification and a
//! fixed edit script. Topo, bgp, core, verify and service path resolution
//! do all the work; the packet engine does none.
//!
//! The script: a PoP-border `RouterDown`/`RouterUp` (SIN, the failover
//! campaign's pop-border-loss scenario), an eBGP `SessionCut`/
//! `SessionRestore` (AMS to its primary upstream, the upstream-cut
//! scenario), and a management force-exit set then cleared on a last-mile
//! prefix. Every edit is followed by `BgpNet::run`, the scoped
//! control-plane verifier, a `PathTable` rebuild and the scoped data-plane
//! verifier including WAYPOINT against the rebuilt table.

use std::time::Instant;

use vns_bench::World;
use vns_bgp::Prefix;
use vns_core::{FaultEvent, FaultInjector, PopId, Vns};
use vns_service::EndpointTable;
use vns_topo::Internet;
use vns_verify::{verify_dataplane_with_service, verify_scoped, DataplaneConfig, VerifyScope};

use crate::pass::{build_paths, build_world, preflight, world_config, Pass};

/// Pre-flights per pass, each one `verify_s` sample. One: the scoped
/// verifications after every edit are the timed work, and a short pass
/// leaves room for more passes, so more moments of the run, per edit.
pub const VERIFY_REPS: usize = 1;
/// World scale.
pub const SCALE: f64 = 2.0;

/// One scripted edit.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Fault(FaultEvent),
    ForceExit(Prefix, PopId),
    Clear(Prefix),
}

impl std::fmt::Display for Edit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Edit::Fault(ev) => write!(f, "{ev}"),
            Edit::ForceExit(prefix, pop) => write!(f, "force-exit {prefix} at pop {}", pop.0),
            Edit::Clear(prefix) => write!(f, "clear-override {prefix}"),
        }
    }
}

/// Runs one pass; edit `n` of the script is the work's part `edit<n>`.
pub fn run(p: &mut Pass, seed: u64) {
    let cfg = world_config(p, seed, SCALE);
    let Some(mut world) = build_world(p, &cfg) else {
        return;
    };
    let (endpoints, paths) = preflight(p, &world, VERIFY_REPS);
    p.tr.span("bench.teardown", || drop(paths));
    let script = script(&world);
    p.expect(
        format!("edit script has {} edits", script.len()),
        script.len() == 6,
    );

    let work0 = Instant::now();
    let mut inj = FaultInjector::new();
    for (n, edit) in script.into_iter().enumerate() {
        let t = Instant::now();
        let clean = apply(p, &mut world, &mut inj, &endpoints, edit);
        let secs = t.elapsed().as_secs_f64();
        p.sample("edit_s", secs);
        p.part(&format!("edit{n}"), secs);
        p.expect(format!("{edit}: scoped verification is clean"), clean);
    }
    p.timings.insert("work_s", work0.elapsed().as_secs_f64());
    p.expect("every fault restored", inj.fully_restored());
    p.tr.span("bench.teardown", || drop((world, endpoints)));
}

/// Applies one edit, reconverges, verifies both stages scoped to the
/// surviving topology and rebuilds the path table. True when both stages
/// are clean.
fn apply(
    p: &mut Pass,
    world: &mut World,
    inj: &mut FaultInjector,
    endpoints: &EndpointTable,
    edit: Edit,
) -> bool {
    let applied = p.tr.span("core.fault", || match edit {
        Edit::Fault(ev) => inj
            .apply(&mut world.internet, &world.vns, ev)
            .map_err(|e| e.to_string()),
        Edit::ForceExit(prefix, pop) => override_table(&world.vns, &mut world.internet, |o| {
            o.force_exit(prefix, pop);
        }),
        Edit::Clear(prefix) => {
            override_table(&world.vns, &mut world.internet, |o| o.clear(&prefix))
        }
    });
    p.ops.call("core.fault", applied);
    let budget = world.vns.message_budget();
    let run =
        p.tr.span("bgp.reconverge", || world.internet.net.run(budget));
    if let Some(stats) = p.ops.call("bgp.reconverge", run) {
        p.add("bgp.reconverge.msgs", stats.messages);
        p.add("bgp.reconverge.activations", stats.activations);
    }
    let quiescent = world.internet.net.is_quiescent();
    p.ops
        .check(format!("{edit} left the net quiescent"), quiescent);

    let scope = VerifyScope::with_dead_routers(inj.dead_routers());
    let control = p.tr.span("verify.control", || {
        verify_scoped(&world.internet, &world.vns, &scope)
    });
    p.stage("verify.control", control.error_count());
    let paths = build_paths(p, world, endpoints);
    let data = p.tr.span("verify.dataplane", || {
        verify_dataplane_with_service(
            &world.internet,
            &world.vns,
            &scope,
            &DataplaneConfig::default(),
            endpoints,
            &paths,
        )
    });
    p.dataplane(&data);
    p.tr.span("bench.teardown", || drop(paths));
    quiescent && control.passes() && data.passes()
}

/// Changes the management override table and asks every VNS border for a
/// route refresh, as `Vns::mgmt_force_exit`/`mgmt_clear` do before they
/// reconverge; the benchmark runs the reconvergence itself so its cost
/// and message count land in `bgp.reconverge`.
fn override_table(
    vns: &Vns,
    internet: &mut Internet,
    change: impl FnOnce(&mut vns_core::Overrides),
) -> Result<(), String> {
    change(&mut *vns.overrides().write().map_err(|e| e.to_string())?);
    for pop in vns.pops() {
        for b in pop.borders {
            internet
                .net
                .speaker_mut(b)
                .ok_or_else(|| format!("VNS border {b} is not registered"))?
                .request_refresh_all();
        }
    }
    Ok(())
}

/// The fixed edit script for this world.
fn script(world: &World) -> Vec<Edit> {
    let vns = &world.vns;
    let internet = &world.internet;
    let sin = vns.pop(PopId(7)).borders[0];
    let ams = PopId(9);
    let (up_as, up_city) = vns.primary_upstream(ams);
    let mut script = vec![
        Edit::Fault(FaultEvent::RouterDown { router: sin }),
        Edit::Fault(FaultEvent::RouterUp { router: sin }),
    ];
    if let Some(upstream) = internet.router_of(up_as, up_city) {
        let a = vns.pop(ams).borders[0];
        script.push(Edit::Fault(FaultEvent::SessionCut { a, b: upstream }));
        script.push(Edit::Fault(FaultEvent::SessionRestore { a, b: upstream }));
    }
    if let Some((prefix, pop)) = steerable_prefix(internet, vns) {
        script.push(Edit::ForceExit(prefix, pop));
        script.push(Edit::Clear(prefix));
    }
    script
}

/// The first last-mile prefix with a geo egress from the first PoP, plus
/// another PoP whose transit border also holds an external route to it.
fn steerable_prefix(internet: &Internet, vns: &Vns) -> Option<(Prefix, PopId)> {
    let vantage = vns.pops()[0].id();
    internet
        .prefixes()
        .filter(|p| p.last_mile)
        .find_map(|info| {
            let geo = vns.egress_pop(internet, vantage, info.prefix.first_host())?;
            vns.pops()
                .iter()
                .find(|p| {
                    p.id() != geo
                        && internet
                            .net
                            .speaker(p.borders[0])
                            .is_some_and(|sp| sp.best_external_route(&info.prefix).is_some())
                })
                .map(|p| (info.prefix, p.id()))
        })
}
