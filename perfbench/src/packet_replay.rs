//! `packet-replay`: the fig9 media campaign, then the fig11 last-mile
//! loss-train campaign, at scale 1.
//!
//! The packet engine does almost all the work; the control plane is only
//! set-up. The two halves drive two different send paths on long flows:
//! fig9 the live-set batch engine (1440 two-minute 1080p sessions), fig11
//! the probe layer's scalar `send_many`/`send` path.

use std::time::Instant;

use vns_bench::experiments::{fig11, fig9};
use vns_netsim::par::units_processed;
use vns_netsim::{packets_sent, Dur, SimTime};

use crate::pass::{build_world, preflight, world_config, Pass};

/// Pre-flights per pass, each one `verify_s` sample.
pub const VERIFY_REPS: usize = 5;
/// World scale.
pub const SCALE: f64 = 1.0;
/// fig9 sessions per (client, echo server, via) arm, as `vns-bench fig9`.
pub const SESSIONS_PER_ARM: usize = 40;
/// fig11 hosts per (AS type, region) cell, as `vns-bench fig11`.
pub const HOSTS_PER_CELL: usize = 10;
/// fig11 train interval and campaign span, as `vns-bench fig11`.
pub const TRAIN_INTERVAL: Dur = Dur::from_mins(30);
/// Two days of trains.
pub const TRAIN_SPAN: Dur = Dur::from_mins(2 * 24 * 60);

/// Runs one pass.
pub fn run(p: &mut Pass, seed: u64) {
    let cfg = world_config(p, seed, SCALE);
    let Some(world) = build_world(p, &cfg) else {
        return;
    };
    let _tables = preflight(p, &world, VERIFY_REPS);
    let par = p.par;

    let units0 = units_processed();
    let pk0 = packets_sent();
    let t0 = Instant::now();
    let nine =
        p.tr.span("media.session", || fig9::run(&world, SESSIONS_PER_ARM, par));
    let media_s = t0.elapsed().as_secs_f64();
    let media_pkts = packets_sent() - pk0;
    let arms = fig9::CLIENTS.len() * world.vns.echo_servers().len() * 2;
    let sessions = (arms * SESSIONS_PER_ARM) as u64;
    p.ops
        .units("media.session", sessions, nine.sessions.len() as u64);
    p.count("media.session.count", nine.sessions.len() as u64);
    p.count("media.session.packets", media_pkts);
    p.timings.insert("media.session.s", media_s);
    p.part("media", media_s);
    p.timings
        .insert("media_pkts_per_s", media_pkts as f64 / media_s);
    for (code, _) in fig9::CLIENTS {
        let vns = nine.frac_over_150m(code, "AP", true);
        let transit = nine.frac_over_150m(code, "AP", false);
        p.expect(
            format!(
                "fig9 {code}->AP: VNS {vns:.4} <= transit {transit:.4} streams over 0.15% loss"
            ),
            vns <= transit,
        );
    }

    let pk1 = packets_sent();
    let t1 = Instant::now();
    let data = p.tr.span("probe.trains", || {
        fig11::run_campaign(&world, HOSTS_PER_CELL, TRAIN_INTERVAL, TRAIN_SPAN, par)
    });
    let probe_s = t1.elapsed().as_secs_f64();
    let probe_pkts = packets_sent() - pk1;
    let rounds = vns_probe::rounds(SimTime::EPOCH, TRAIN_INTERVAL, TRAIN_SPAN).len() as u64;
    let trains = (fig11::VANTAGES.len() * data.hosts.len()) as u64 * rounds;
    p.ops
        .units("probe.trains", trains, data.records.len() as u64);
    p.count("probe.trains.count", data.records.len() as u64);
    p.count("probe.trains.packets", probe_pkts);
    p.timings.insert("probe.trains.s", probe_s);
    p.part("probe", probe_s);
    p.timings
        .insert("probe_pkts_per_s", probe_pkts as f64 / probe_s);
    p.expect(
        format!("fig11: {} trains recorded", data.records.len()),
        !data.records.is_empty(),
    );

    p.count("netsim.packets", media_pkts + probe_pkts);
    p.count("netsim.par.units", units_processed() - units0);
    p.timings.insert("work_s", media_s + probe_s);
    p.artefact = format!("{nine}{}", fig11::run(&data));
    p.tr.span("bench.teardown", || drop((nine, data, world)));
}
