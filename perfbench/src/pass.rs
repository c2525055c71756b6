//! One pass of a workload: world set-up, pre-flight verification and the
//! workload's timed work, with its operation accounting, deterministic
//! counters, host timings and memory readings kept apart.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

use vns_bench::{World, WorldConfig};
use vns_core::build_vns;
use vns_netsim::{Par, RngTree};
use vns_service::{EndpointTable, PathTable};
use vns_topo::{generate, CalibrationConfig, ChannelFactory};
use vns_verify::{verify_dataplane_with_service, DataplaneConfig, DataplaneReport, VerifyScope};

use crate::host::rss_mib;
use crate::trace::Tracer;

/// Attempted and failed operations. Every layer call the benchmark makes
/// is one operation, and so is every session and call it measures.
/// Simulated rejections and losses are model outputs, not failures.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned `Err`, panicked, left BGP not quiescent,
    /// or (verifier stages) reported an error-severity finding.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation that succeeded when `ok`.
    pub fn check(&mut self, what: impl Display, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// Counts one operation returning a `Result`, passing the value on.
    pub fn call<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts `expected` units of which `got` produced a result.
    pub fn units(&mut self, what: &str, expected: u64, got: u64) {
        self.attempted += expected;
        if got < expected {
            self.failed += expected - got;
            self.failures.push(format!(
                "{what}: {} of {expected} units failed",
                expected - got
            ));
        }
    }
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Spans (recording only in a traced pass).
    pub tr: Tracer,
    /// Worker threads for the program's `Par` fan-outs.
    pub par: Par,
    /// Operation accounting.
    pub ops: Ops,
    /// Host timings and rates by metric name.
    pub timings: BTreeMap<&'static str, f64>,
    /// Repeated timings within the pass (e.g. one per edit), and the
    /// parts of the timed work under [`WORK_PART`] names.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Deterministic counters: two passes of the same code and seed agree
    /// on every one of them exactly.
    pub counters: BTreeMap<String, u64>,
    /// Resident-set deltas in MiB, and the derived bytes per Adj-RIB-In
    /// entry.
    pub memory: BTreeMap<&'static str, f64>,
    /// Output checks, `(description, passed)`.
    pub checks: Vec<(String, bool)>,
    /// The rendered artefact of the pass (figures, campaign report):
    /// deterministic, so every pass of a run must render it identically.
    pub artefact: String,
    /// Host seconds of the whole pass.
    pub wall_s: f64,
}

impl Pass {
    /// An empty pass.
    pub fn new(traced: bool, par: Par) -> Self {
        Self {
            tr: Tracer::new(traced),
            par,
            ops: Ops::default(),
            timings: BTreeMap::new(),
            samples: BTreeMap::new(),
            counters: BTreeMap::new(),
            memory: BTreeMap::new(),
            checks: Vec::new(),
            artefact: String::new(),
            wall_s: 0.0,
        }
    }

    /// Records a deterministic counter.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Adds to a deterministic counter.
    pub fn add(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_default() += value;
    }

    /// Records one more sample of a timing repeated within the pass.
    pub fn sample(&mut self, name: impl Into<String>, seconds: f64) {
        self.samples.entry(name.into()).or_default().push(seconds);
    }

    /// Records one run of a part of the workload's timed work. A part
    /// keeps its name from pass to pass; `work_s` is the sum over parts of
    /// each part's median over every run of it in every untraced pass.
    pub fn part(&mut self, name: &str, seconds: f64) {
        self.sample(format!("{WORK_PART}{name}"), seconds);
    }

    /// Records an output check.
    pub fn expect(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Counts one verifier stage: failed on any error-severity finding.
    pub fn stage(&mut self, what: &str, errors: usize) {
        self.ops
            .check(format!("{what}: {errors} error findings"), errors == 0);
    }

    /// Runs a data-plane report's bookkeeping: the stage itself, its pair
    /// count, and its per-check timings as child spans.
    pub fn dataplane(&mut self, report: &DataplaneReport) {
        self.stage("verify.dataplane", report.error_count());
        self.add("verify.dataplane.pairs", report.pairs as u64);
        let stages: Vec<(&'static str, f64)> = report
            .timings
            .iter()
            .map(|t| (check_span(t.stage), t.seconds))
            .collect();
        self.tr.adopt_stages("verify.dataplane", &stages);
    }
}

/// The prefix of the sample names of the parts of the timed work.
pub const WORK_PART: &str = "work.";

/// The data-plane verifier's stages: `(StageTiming name, span name,
/// per-layer metric)`.
pub const DATAPLANE_CHECKS: [(&str, &str, &str); 6] = [
    (
        "graph",
        "verify.dataplane.graph",
        "verify.dataplane.graph_s",
    ),
    (
        "loop-free",
        "verify.dataplane.loop_free",
        "verify.dataplane.loop_free_s",
    ),
    (
        "no-blackhole",
        "verify.dataplane.no_blackhole",
        "verify.dataplane.no_blackhole_s",
    ),
    (
        "anycast-nearest",
        "verify.dataplane.anycast_nearest",
        "verify.dataplane.anycast_nearest_s",
    ),
    (
        "waypoint",
        "verify.dataplane.waypoint",
        "verify.dataplane.waypoint_s",
    ),
    (
        "stretch-bound",
        "verify.dataplane.stretch_bound",
        "verify.dataplane.stretch_bound_s",
    ),
];

/// The span name of a data-plane stage.
fn check_span(stage: &str) -> &'static str {
    DATAPLANE_CHECKS
        .iter()
        .find(|(name, _, _)| *name == stage)
        .map_or("verify.dataplane.other", |&(_, span, _)| span)
}

/// The world of a workload: the default deployment at `scale`, with BGP
/// convergence on as many threads as the `Par` fan-outs (the thread count
/// changes wall-clock only, never the built world).
pub fn world_config(p: &Pass, seed: u64, scale: f64) -> WorldConfig {
    let mut cfg = WorldConfig {
        seed,
        scale,
        ..WorldConfig::default()
    };
    cfg.vns.convergence_threads = p.par.threads();
    cfg
}

/// Builds the world exactly as [`World::build`] does, with a span and a
/// resident-set reading around each layer: `generate`, then `build_vns`.
/// Records `setup_s` and the world's size and convergence counters.
pub fn build_world(p: &mut Pass, cfg: &WorldConfig) -> Option<World> {
    let t0 = Instant::now();
    let rss0 = rss_mib();
    let generated = p.tr.span("topo.generate", || generate(&cfg.topo()));
    let mut internet = p.ops.call("topo.generate", generated)?;
    let rss1 = rss_mib();
    let built =
        p.tr.span("core.build_vns", || build_vns(&mut internet, &cfg.vns));
    let vns = p.ops.call("core.build_vns", built)?;
    let rss2 = rss_mib();
    let factory = ChannelFactory::new(
        CalibrationConfig::default(),
        RngTree::new(cfg.seed).subtree("channels"),
    );
    p.timings.insert("setup_s", t0.elapsed().as_secs_f64());
    p.memory.insert("topo.generate.rss_mib", rss1 - rss0);
    p.memory.insert("core.build_vns.rss_mib", rss2 - rss1);

    let world = World {
        internet,
        vns,
        factory,
        config: cfg.clone(),
    };
    let net = &world.internet.net;
    let sessions = net
        .speaker_ids()
        .filter_map(|id| net.speaker(id))
        .map(|s| s.peer_ids().count() as u64)
        .sum::<u64>()
        / 2;
    let entries = net
        .speaker_ids()
        .filter_map(|id| net.speaker(id))
        .map(|s| s.adj_rib_in_entries().count() as u64)
        .sum::<u64>();
    let log = &world.internet.convergence_log;
    p.count("topo.ases", world.internet.as_count() as u64);
    p.count("topo.prefixes", world.internet.prefixes().count() as u64);
    p.count("topo.sessions", sessions);
    p.count("bgp.converge.msgs", log.iter().map(|c| c.messages).sum());
    p.count("bgp.converge.rounds", log.iter().map(|c| c.rounds).sum());
    p.count(
        "bgp.converge.activations",
        log.iter().map(|c| c.activations).sum(),
    );
    p.count("bgp.adj_rib_in.entries", entries);
    p.ops.check("bgp quiescent after build", net.is_quiescent());
    if entries > 0 {
        p.memory.insert(
            "bgp.adj_rib_in.bytes_per_entry",
            (rss2 - rss0) * 1024.0 * 1024.0 / entries as f64,
        );
    }
    Some(world)
}

/// The pre-flight: control-plane verification, the service tables, and
/// the data-plane checks including WAYPOINT against the fresh tables, run
/// `reps` times. The verification is read-only, so every repetition is one
/// more `verify_s` sample; returns the last tables.
pub fn preflight(p: &mut Pass, world: &World, reps: usize) -> (EndpointTable, PathTable) {
    let mut secs = Vec::with_capacity(reps);
    let mut tables = None;
    for _ in 0..reps.max(1) {
        drop(tables.take());
        let t0 = Instant::now();
        tables = Some(verify_once(p, world));
        secs.push(t0.elapsed().as_secs_f64());
        p.sample("verify_s", secs[secs.len() - 1]);
    }
    p.timings.insert("verify_s", crate::metrics::median(&secs));
    tables.expect("at least one pre-flight")
}

fn verify_once(p: &mut Pass, world: &World) -> (EndpointTable, PathTable) {
    let control = p.tr.span("verify.control", || {
        vns_verify::verify(&world.internet, &world.vns)
    });
    p.stage("verify.control", control.error_count());
    let endpoints = p.tr.span("service.endpoints.build", || {
        EndpointTable::build(&world.internet, &world.vns)
    });
    p.ops
        .check("service.endpoints.build", !endpoints.is_empty());
    let paths = build_paths(p, world, &endpoints);
    let data = p.tr.span("verify.dataplane", || {
        verify_dataplane_with_service(
            &world.internet,
            &world.vns,
            &VerifyScope::default(),
            &DataplaneConfig::default(),
            &endpoints,
            &paths,
        )
    });
    p.dataplane(&data);
    p.count("service.endpoints", endpoints.len() as u64);
    p.expect(
        "pre-flight verification is clean",
        control.passes() && data.passes(),
    );
    (endpoints, paths)
}

/// `PathTable::build` with a span and a resident-set reading; the first
/// build of a pass records `service.paths.rss_mib`.
pub fn build_paths(p: &mut Pass, world: &World, endpoints: &EndpointTable) -> PathTable {
    let rss0 = rss_mib();
    let paths = p.tr.span("service.paths.build", || {
        PathTable::build(&world.internet, &world.vns, endpoints)
    });
    p.ops
        .check("service.paths.build", paths.routable_endpoints() > 0);
    p.memory
        .entry("service.paths.rss_mib")
        .or_insert(rss_mib() - rss0);
    p.add("service.paths.routable", paths.routable_endpoints() as u64);
    paths
}
