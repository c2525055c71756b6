//! `call-churn`: the steady-state service campaign at scale 1, composed
//! from its public parts.
//!
//! `World` build, the verifier pre-flight, `EndpointTable`/`PathTable`,
//! then the service plane one window at a time. Arrivals are Poisson in
//! *simulated* time at the `ServiceConfig::sized` rate (open loop: a slow
//! host never thins the load). Partway through, the busiest PoP's first
//! border goes `RouterDown` and later `RouterUp`; each edit runs
//! `BgpNet::run`, both scoped verifier stages, a `PathTable` rebuild and
//! the WAYPOINT re-certification, exactly as `steady_state::run` does.
//!
//! The untraced pass drives `Orchestrator::run_windows(.., 1, ..)`. Its
//! per-call measurement is private, so the traced pass replays the same
//! public calls in the same order over the same call stream —
//! `sample_pair`, `landing_pop`, `offer`, `call_path`, `channel_args`×2,
//! `setup_call`, then on every `qos_stride`-th call `run_echo_session` and
//! `teardown_call` — with a span around each. Both passes render the same
//! [`SteadyStateResult`], byte for byte, or the run fails.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::Rng;
use vns_bench::experiments::steady_state::{SteadyStateOpts, SteadyStateResult};
use vns_bench::{World, WorldConfig};
use vns_core::{FaultEvent, FaultInjector, PopId};
use vns_media::{run_echo_session, setup_call, teardown_call, SessionConfig, VideoSpec};
use vns_netsim::diurnal::DiurnalShape;
use vns_netsim::{
    packets_sent, ArrivalProcess, DiurnalProfile, Dur, Engine, RngTree, SimTime, Window,
};
use vns_service::{
    Admission, AdmissionController, CallOutcome, CallRecord, EndpointTable, Orchestrator,
    PathTable, ServiceConfig, ServiceEnv, ServiceError, ServiceEvent, ServiceTelemetry,
    WindowReport,
};
use vns_verify::{
    verify_dataplane_scoped, verify_dataplane_with_service, verify_scoped, DataplaneConfig,
    VerifyScope,
};

use crate::pass::{build_paths, build_world, preflight, world_config, Pass};
use crate::trace::Clock;

/// Pre-flights per pass, each one `verify_s` sample.
pub const VERIFY_REPS: usize = 5;
/// World scale.
pub const SCALE: f64 = 1.0;
/// The benchmark's sizing: 32 000 concurrent calls (`vns-bench
/// steady-state --sessions 10`) over the minimum six steady windows.
pub const OPTS: SteadyStateOpts = SteadyStateOpts {
    target_concurrent: 32_000,
    windows: 6,
};
/// Telemetry window width, as `steady_state`.
const WINDOW: Dur = Dur::from_mins(5);
/// Windows with the PoP failed, then after recovery, as `steady_state`.
const FAULT_WINDOWS: u64 = 2;
const RECOVERY_WINDOWS: u64 = 2;

/// Runs one pass.
pub fn run(p: &mut Pass, seed: u64) {
    let cfg = world_config(p, seed, SCALE);
    let Some(r) = compose(p, &cfg, OPTS) else {
        return;
    };
    p.expect(
        format!(
            "sustained {} >= 4/5 of target {}",
            r.steady_sustained, r.target_concurrent
        ),
        r.steady_sustained >= r.target_concurrent * 4 / 5,
    );
    p.expect(
        format!(
            "all_verified (verify errors {}, dataplane errors {})",
            r.verify_errors, r.dataplane_errors
        ),
        r.all_verified(),
    );
    let t = &r.telemetry;
    p.count("service.window.count", t.windows.len() as u64);
    p.count("service.window.arrivals", t.total_arrivals());
    p.count(
        "service.admit.admitted",
        t.windows.iter().map(|w| w.admitted).sum(),
    );
    p.count("service.admit.spilled", t.total_spilled());
    p.count("service.admit.rejected", t.total_rejected());
    p.count("service.admit.unreachable", t.total_unreachable());
    p.count(
        "service.window.measured",
        t.windows.iter().map(|w| w.setup.count() + w.no_route).sum(),
    );
    p.count(
        "media.session.count",
        t.windows.iter().map(|w| w.qos_samples).sum(),
    );
    p.count("service.sustained", r.steady_sustained);
    p.count("service.torn_down", r.torn_down);
    let measured = p.counters["service.window.measured"];
    p.ops.units("call", measured, measured);
    p.artefact.push_str(&r.to_string());
}

/// The campaign, composed: builds the world, runs the pre-flight and the
/// three phases, and returns the same result `steady_state::run` does.
/// `None` when the world could not be built.
pub fn compose(
    p: &mut Pass,
    cfg: &WorldConfig,
    opts: SteadyStateOpts,
) -> Option<SteadyStateResult> {
    let mut world = build_world(p, cfg)?;
    let (endpoints, mut paths) = preflight(p, &world, VERIFY_REPS);
    let total_endpoints = endpoints.len();
    let units0 = vns_netsim::par::units_processed();
    let pk0 = packets_sent();
    let work0 = Instant::now();

    let svc = service_config(opts);
    let tree = RngTree::new(cfg.seed).subtree("steady-state");
    let mut driver = if p.tr.is_on() {
        Driver::Traced(Box::new(Churn::new(&world, svc, tree)))
    } else {
        Driver::Plain(Box::new(Orchestrator::new(&world.vns, svc, tree)))
    };

    // Phase 1: steady churn.
    windows(p, &mut driver, &world, &endpoints, &paths, opts.windows);
    let steady_sustained = driver.telemetry().sustained_concurrent();

    // Phase 2: fail the busiest PoP — control plane, then service plane.
    let victim_id = driver.busiest_pop();
    let victim = world.vns.pop(victim_id).code();
    let border = world.vns.pop(victim_id).borders[0];
    let mut inj = FaultInjector::new();
    let mut errors = (0, 0, 0);
    let t = Instant::now();
    edit(
        p,
        &mut world,
        &mut inj,
        FaultEvent::RouterDown { router: border },
        &mut errors,
    );
    let fail =
        p.tr.span("service.admit.fail_pop", || driver.fail_pop(victim_id));
    let (prev_cap, torn_down) = p.ops.call("service.admit.fail_pop", fail).unwrap_or((0, 0));
    paths = build_paths(p, &world, &endpoints);
    errors.2 += certify(p, &world, &inj, &endpoints, &paths);
    let secs = t.elapsed().as_secs_f64();
    p.sample("edit_s", secs);
    p.part("fault", secs);
    let routable_during_fault = (paths.routable_endpoints(), total_endpoints);
    windows(p, &mut driver, &world, &endpoints, &paths, FAULT_WINDOWS);

    // Phase 3: recovery.
    let t = Instant::now();
    edit(
        p,
        &mut world,
        &mut inj,
        FaultEvent::RouterUp { router: border },
        &mut errors,
    );
    let restore = p.tr.span("service.admit.restore_pop", || {
        driver.restore_pop(victim_id, prev_cap)
    });
    p.ops.call("service.admit.restore_pop", restore);
    paths = build_paths(p, &world, &endpoints);
    errors.2 += certify(p, &world, &inj, &endpoints, &paths);
    let secs = t.elapsed().as_secs_f64();
    p.sample("edit_s", secs);
    p.part("recovery", secs);
    windows(p, &mut driver, &world, &endpoints, &paths, RECOVERY_WINDOWS);

    let window_s: f64 = p
        .samples
        .get("service.window.s")
        .map_or(0.0, |s| s.iter().sum());
    let telemetry = driver.into_telemetry();
    p.timings.insert("work_s", work0.elapsed().as_secs_f64());
    p.timings
        .insert("calls_per_s", telemetry.total_arrivals() as f64 / window_s);
    p.count("netsim.packets", packets_sent() - pk0);
    p.count(
        "netsim.par.units",
        vns_netsim::par::units_processed() - units0,
    );
    p.tr.span("bench.teardown", || drop((world, endpoints, paths)));
    Some(SteadyStateResult {
        telemetry,
        steady_windows: opts.windows,
        steady_sustained,
        target_concurrent: opts.target_concurrent,
        victim,
        torn_down,
        reconvergence_messages: errors.0,
        verify_errors: errors.1,
        dataplane_errors: errors.2,
        routable_during_fault,
    })
}

/// The campaign's service configuration, as `steady_state::run` sets it.
fn service_config(opts: SteadyStateOpts) -> ServiceConfig {
    let horizon_ms = WINDOW.as_millis_f64() * opts.windows as f64;
    let hold = Dur::from_millis_f64(horizon_ms / 3.3);
    let profile = DiurnalProfile::new(DiurnalShape::Mixed, 0.55, 0.35, 0.0);
    let mut cfg = ServiceConfig::sized(opts.target_concurrent, hold, WINDOW, profile);
    cfg.warmup_windows = (opts.windows * 3 / 5) as usize;
    cfg.setup_stride = 4;
    cfg.qos_stride = 64;
    cfg
}

/// Runs `count` windows one at a time, timing each; window `n` of the
/// campaign is the work's part `window<n>`.
fn windows(
    p: &mut Pass,
    driver: &mut Driver,
    world: &World,
    endpoints: &EndpointTable,
    paths: &PathTable,
    count: u64,
) {
    let env = ServiceEnv {
        internet: &world.internet,
        vns: &world.vns,
        factory: &world.factory,
        endpoints,
        paths,
    };
    for _ in 0..count {
        let t = Instant::now();
        let open = p.tr.enter("service.window");
        driver.window(&env, p);
        p.tr.exit(open);
        let secs = t.elapsed().as_secs_f64();
        let n = p.samples.get("service.window.s").map_or(0, Vec::len);
        p.sample("service.window.s", secs);
        p.part(&format!("window{n:02}"), secs);
        p.ops.check("service.window", true);
    }
}

/// Applies one fault event, reconverges, and re-runs both verifier stages
/// scoped to the surviving topology. Accumulates `(messages, control
/// errors, data-plane errors)`.
fn edit(
    p: &mut Pass,
    world: &mut World,
    inj: &mut FaultInjector,
    ev: FaultEvent,
    acc: &mut (u64, usize, usize),
) {
    let applied = p.tr.span("core.fault", || {
        inj.apply(&mut world.internet, &world.vns, ev)
    });
    p.ops.call("core.fault", applied);
    let budget = world.vns.message_budget();
    let run =
        p.tr.span("bgp.reconverge", || world.internet.net.run(budget));
    if let Some(stats) = p.ops.call("bgp.reconverge", run) {
        acc.0 += stats.messages;
        p.add("bgp.reconverge.msgs", stats.messages);
        p.add("bgp.reconverge.activations", stats.activations);
    }
    p.ops.check(
        format!("{ev} left the net quiescent"),
        world.internet.net.is_quiescent(),
    );
    let scope = VerifyScope::with_dead_routers(inj.dead_routers());
    let control = p.tr.span("verify.control", || {
        verify_scoped(&world.internet, &world.vns, &scope)
    });
    p.stage("verify.control", control.error_count());
    acc.1 += control.error_count();
    let data = p.tr.span("verify.dataplane", || {
        verify_dataplane_scoped(
            &world.internet,
            &world.vns,
            &scope,
            &DataplaneConfig::default(),
        )
    });
    p.dataplane(&data);
    acc.2 += data.error_count();
}

/// Re-certifies a rebuilt path table against the forwarding graph
/// (WAYPOINT) for the new routing epoch; returns its error count.
fn certify(
    p: &mut Pass,
    world: &World,
    inj: &FaultInjector,
    endpoints: &EndpointTable,
    paths: &PathTable,
) -> usize {
    let scope = VerifyScope::with_dead_routers(inj.dead_routers());
    let data = p.tr.span("verify.dataplane", || {
        verify_dataplane_with_service(
            &world.internet,
            &world.vns,
            &scope,
            &DataplaneConfig::default(),
            endpoints,
            paths,
        )
    });
    p.dataplane(&data);
    data.error_count()
}

/// The service plane: the program's orchestrator, or the benchmark's
/// traced replay of it.
enum Driver {
    Plain(Box<Orchestrator>),
    Traced(Box<Churn>),
}

impl Driver {
    fn window(&mut self, env: &ServiceEnv<'_>, p: &mut Pass) {
        match self {
            Driver::Plain(o) => o.run_windows(env, 1, p.par),
            Driver::Traced(c) => c.window(env, p),
        }
    }

    fn telemetry(&self) -> &ServiceTelemetry {
        match self {
            Driver::Plain(o) => o.telemetry(),
            Driver::Traced(c) => &c.telemetry,
        }
    }

    fn into_telemetry(self) -> ServiceTelemetry {
        match self {
            Driver::Plain(o) => o.into_telemetry(),
            Driver::Traced(c) => c.telemetry,
        }
    }

    fn admission(&self) -> &AdmissionController {
        match self {
            Driver::Plain(o) => o.admission(),
            Driver::Traced(c) => &c.admission,
        }
    }

    /// The PoP with the highest occupancy (lowest id on ties).
    fn busiest_pop(&self) -> PopId {
        self.admission()
            .occupancy_rows()
            .iter()
            .copied()
            .max_by_key(|&(p, occ, _)| (occ, std::cmp::Reverse(p)))
            .map(|(p, _, _)| p)
            .expect("pops exist")
    }

    fn fail_pop(&mut self, pop: PopId) -> Result<(u64, u64), ServiceError> {
        match self {
            Driver::Plain(o) => o.fail_pop(pop),
            Driver::Traced(c) => c.fail_pop(pop),
        }
    }

    fn restore_pop(&mut self, pop: PopId, cap: u64) -> Result<(), ServiceError> {
        match self {
            Driver::Plain(o) => o.restore_pop(pop, cap),
            Driver::Traced(c) => c.admission.restore_pop(pop, cap),
        }
    }
}

/// The traced replay of `Orchestrator`: the same three passes per window
/// (arrivals, sequential bookkeeping in event-time order, parallel
/// per-call measurement folded in call-id order), built from public calls.
struct Churn {
    cfg: ServiceConfig,
    tree: RngTree,
    arrivals: ArrivalProcess,
    admission: AdmissionController,
    engine: Engine<ServiceEvent>,
    active: BTreeMap<u64, PopId>,
    next_id: u64,
    telemetry: ServiceTelemetry,
}

/// What one traced call measurement returns to the window.
struct Measured {
    outcome: CallOutcome,
    signaling_packets: u64,
    spans: Vec<(&'static str, u64, u64)>,
}

impl Churn {
    fn new(world: &World, cfg: ServiceConfig, tree: RngTree) -> Self {
        let vns = &world.vns;
        Self {
            arrivals: ArrivalProcess::new(cfg.peak_rate_per_s, cfg.profile, cfg.window),
            admission: AdmissionController::new(vns, cfg.capacity_budget(), cfg.spill_depth),
            engine: Engine::new(),
            active: BTreeMap::new(),
            next_id: 0,
            telemetry: ServiceTelemetry {
                windows: Vec::new(),
                warmup_windows: cfg.warmup_windows,
                pop_codes: vns.pops().iter().map(|p| (p.id(), p.code())).collect(),
            },
            cfg,
            tree,
        }
    }

    fn fail_pop(&mut self, pop: PopId) -> Result<(u64, u64), ServiceError> {
        let prev = self.admission.capacity(pop);
        self.admission.fail_pop(pop)?;
        let doomed: Vec<u64> = self
            .active
            .iter()
            .filter(|&(_, &p)| p == pop)
            .map(|(&id, _)| id)
            .collect();
        for id in &doomed {
            self.active.remove(id);
            self.admission.release(pop)?;
        }
        Ok((prev, doomed.len() as u64))
    }

    fn window(&mut self, env: &ServiceEnv<'_>, p: &mut Pass) {
        let idx = self.telemetry.windows.len() as u64;
        let win = Window {
            index: idx,
            width: self.cfg.window,
        };
        let mut report = WindowReport::empty(win);
        let clock = p.tr.clock();
        for &t in &self.arrivals.window_arrivals(&self.tree, idx) {
            self.engine.schedule(t, ServiceEvent::Arrival);
        }

        // Bookkeeping, sequential in event-time order.
        let mut admitted_calls: Vec<CallRecord> = Vec::new();
        let mut rows = Vec::new();
        let mut offer_errors = 0u64;
        {
            let Self {
                cfg,
                tree,
                admission,
                engine,
                active,
                next_id,
                ..
            } = self;
            let until = SimTime::from_nanos(win.end().as_nanos().saturating_sub(1));
            engine.run_until(until, |ctx, ev| match ev {
                ServiceEvent::Arrival => {
                    report.arrivals += 1;
                    let id = *next_id;
                    *next_id += 1;
                    let mut rng = tree.stream_args(format_args!("call:{id}"));
                    let (caller, callee) =
                        clock.time(&mut rows, "service.endpoints.sample_pair", || {
                            env.endpoints.sample_pair(&mut rng)
                        });
                    let landing = clock.time(&mut rows, "service.paths.landing_pop", || {
                        env.paths.landing_pop(caller)
                    });
                    let Some(landing) = landing else {
                        report.unreachable += 1;
                        return;
                    };
                    let offer = clock.time(&mut rows, "service.admit.offer", || {
                        admission.offer(landing)
                    });
                    let (admitted, spilled) = match offer {
                        Ok(Admission::Primary(pop)) => (pop, false),
                        Ok(Admission::Spilled { admitted, .. }) => (admitted, true),
                        Ok(Admission::Rejected) => {
                            report.rejected += 1;
                            return;
                        }
                        Err(_) => {
                            offer_errors += 1;
                            report.rejected += 1;
                            return;
                        }
                    };
                    report.admitted += 1;
                    if spilled {
                        report.spilled += 1;
                    }
                    let u: f64 = rng.gen();
                    let hold_ms = (-(1.0 - u).ln() * cfg.hold_mean.as_millis_f64()).max(1.0);
                    let departure = ctx.now() + Dur::from_millis_f64(hold_ms);
                    ctx.schedule_at(departure, ServiceEvent::Departure { id, pop: admitted });
                    active.insert(id, admitted);
                    admitted_calls.push(CallRecord {
                        id,
                        arrival: ctx.now(),
                        departure,
                        caller,
                        callee,
                        landing,
                        admitted,
                        spilled,
                    });
                }
                ServiceEvent::Departure { id, pop } => {
                    if active.remove(&id).is_some() {
                        let released = clock.time(&mut rows, "service.admit.release", || {
                            admission.release(pop)
                        });
                        if released.is_err() {
                            offer_errors += 1;
                        }
                        report.departures += 1;
                    }
                }
            });
        }
        p.tr.adopt(rows);
        let offers = report.arrivals - report.unreachable;
        p.ops.units(
            "service.admit",
            offers + report.departures,
            offers + report.departures - offer_errors,
        );
        p.add("service.admit.offers", offers);

        // Measurement, parallel, folded in call-id order.
        let measured: Vec<CallRecord> = admitted_calls
            .into_iter()
            .filter(|r| r.id.is_multiple_of(self.cfg.setup_stride))
            .collect();
        let (cfg, tree) = (&self.cfg, &self.tree);
        // The ledger total is read only here, between fan-outs: `par_map`
        // merges each worker's tally as it joins, so a worker's own reading
        // can include a sibling's.
        let pk0 = packets_sent();
        let outcomes = p
            .par
            .map(&measured, |_, rec| measure_call(env, cfg, tree, rec, clock));
        let signaling: u64 = outcomes.iter().map(|o| o.signaling_packets).sum();
        p.add("media.signaling.packets", signaling);
        p.add("media.session.packets", packets_sent() - pk0 - signaling);
        for Measured {
            outcome: o, spans, ..
        } in outcomes
        {
            p.tr.adopt(spans);
            if o.no_route {
                report.no_route += 1;
                continue;
            }
            report.setup.record(o.setup_ms);
            if !o.established {
                report.setup_failures += 1;
            }
            if let Some((loss_pct, jitter_ms)) = o.qos {
                report.qos_samples += 1;
                report.loss.record(loss_pct);
                report.jitter.record(jitter_ms);
            }
            if let Some(confirmed) = o.teardown_confirmed {
                report.teardowns += 1;
                if confirmed {
                    report.teardowns_confirmed += 1;
                }
            }
        }
        report.concurrent_end = self.admission.total_occupancy();
        report.pop_occupancy = self.admission.occupancy_rows();
        self.telemetry.windows.push(report);
    }
}

/// Measures one admitted call with the public calls `Orchestrator` makes,
/// in its order, with a span around each.
fn measure_call(
    env: &ServiceEnv<'_>,
    cfg: &ServiceConfig,
    tree: &RngTree,
    rec: &CallRecord,
    clock: Clock,
) -> Measured {
    let id = rec.id;
    let mut out = Measured {
        outcome: CallOutcome {
            id,
            no_route: true,
            established: false,
            setup_ms: 0.0,
            qos: None,
            teardown_confirmed: None,
        },
        signaling_packets: 0,
        spans: Vec::with_capacity(8),
    };
    let spans = &mut out.spans;
    let path = clock.time(spans, "service.paths.call_path", || {
        env.paths.call_path(rec.caller, rec.callee, rec.admitted)
    });
    let Some(path) = path else {
        return out;
    };
    out.outcome.no_route = false;
    let back = path.reversed();
    let mut fwd = clock.time(spans, "topo.channels", || {
        env.factory
            .channel_args(&path, format_args!("svc:{id}:fwd"))
    });
    let mut rev = clock.time(spans, "topo.channels", || {
        env.factory
            .channel_args(&back, format_args!("svc:{id}:rev"))
    });
    let setup = clock.time(spans, "media.signaling.setup", || {
        setup_call(&mut fwd, &mut rev, rec.arrival)
    });
    out.outcome.established = setup.established;
    out.outcome.setup_ms = setup.setup_ms;
    out.signaling_packets += u64::from(setup.messages_sent);
    if setup.established && id.is_multiple_of(cfg.qos_stride) {
        let media_start = rec.arrival + Dur::from_millis_f64(setup.setup_ms);
        let mut media_rng = tree.stream_args(format_args!("svc:{id}:media"));
        let session_cfg = SessionConfig {
            slot: cfg.qos_burst,
            duration: cfg.qos_burst,
        };
        let r = clock.time(spans, "media.session", || {
            run_echo_session(
                VideoSpec::HD720.packets(media_start, cfg.qos_burst, &mut media_rng),
                &session_cfg,
                &mut fwd,
                &mut rev,
            )
        });
        out.outcome.qos = Some((r.rt_loss_pct(), r.jitter_ms));
        let bye_at = rec.departure.max(media_start + cfg.qos_burst);
        let bye = clock.time(spans, "media.signaling.teardown", || {
            teardown_call(&mut fwd, &mut rev, bye_at)
        });
        out.outcome.teardown_confirmed = Some(bye.confirmed);
        out.signaling_packets += u64::from(bye.messages_sent);
    }
    out
}
