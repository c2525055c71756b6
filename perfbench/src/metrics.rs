//! Metric definitions and their reduction over passes.
//!
//! End-to-end metrics come from untraced passes only; per-layer metrics
//! from traced passes. Every workload reports every metric of both lists,
//! so a metric of a layer a workload does not load reads 0 there — the
//! prediction that it does not move.

use std::collections::{BTreeMap, BTreeSet};

use crate::pass::{Pass, DATAPLANE_CHECKS, WORK_PART};
use crate::summary::Summary;

/// One reported value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// End-to-end metrics gated by `BENCHMARK.json`, with units. All are
/// lower-is-better.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("work_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, with units.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("topo.generate.s", "s"),
    ("topo.generate.rss_mib", "MiB"),
    ("core.build_vns.s", "s"),
    ("core.build_vns.rss_mib", "MiB"),
    ("bgp.converge.msgs", "count"),
    ("bgp.converge.rounds", "count"),
    ("bgp.converge.activations", "count"),
    ("bgp.adj_rib_in.entries", "count"),
    ("bgp.adj_rib_in.bytes_per_entry", "B"),
    ("bgp.reconverge.s", "s"),
    ("bgp.reconverge.msgs", "count"),
    ("bgp.reconverge.activations", "count"),
    ("core.fault.s", "s"),
    ("verify.control.s", "s"),
    ("verify.dataplane.s", "s"),
    ("verify.dataplane.graph_s", "s"),
    ("verify.dataplane.loop_free_s", "s"),
    ("verify.dataplane.no_blackhole_s", "s"),
    ("verify.dataplane.anycast_nearest_s", "s"),
    ("verify.dataplane.waypoint_s", "s"),
    ("verify.dataplane.stretch_bound_s", "s"),
    ("verify.dataplane.pairs", "count"),
    ("service.endpoints.s", "s"),
    ("service.paths.build_s", "s"),
    ("service.paths.rss_mib", "MiB"),
    ("service.paths.call_path_us", "us"),
    ("service.admit.offers", "count"),
    ("service.admit.us_per_offer", "us"),
    ("service.admit.spill_ratio", "ratio"),
    ("service.admit.reject_ratio", "ratio"),
    ("service.window.s", "s"),
    ("service.window.arrivals", "count"),
    ("topo.channels.count", "count"),
    ("topo.channels.us_per_channel", "us"),
    ("media.signaling.us_per_call", "us"),
    ("media.signaling.packets", "count"),
    ("media.session.count", "count"),
    ("media.session.s", "s"),
    ("media.session.packets", "count"),
    ("netsim.ns_per_pkt", "ns"),
    ("netsim.packets", "count"),
    ("netsim.par.units", "count"),
    ("probe.trains.s", "s"),
    ("probe.trains.packets", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Median (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over passes of one timing.
pub fn median_timing(passes: &[&Summary], name: &str) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.timings.get(name).copied())
        .collect();
    median(&v)
}

/// Median over every sample of `name` in every pass.
pub fn median_samples(passes: &[&Summary], name: &str) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.samples.get(name))
        .flatten()
        .copied()
        .collect();
    median(&v)
}

/// The timed work: the sum over its parts of each part's median over
/// every run of the part in every pass. A burst of host noise moves the
/// runs it hits, not the median of every part.
pub fn work_s(passes: &[&Summary]) -> f64 {
    let parts: BTreeSet<&str> = passes
        .iter()
        .flat_map(|p| p.samples.keys())
        .filter(|k| k.starts_with(WORK_PART))
        .map(String::as_str)
        .collect();
    parts.iter().map(|k| median_samples(passes, k)).sum()
}

/// The end-to-end metrics over untraced passes: `setup_s` the median,
/// `work_s` the sum of per-part medians ([`work_s`]), `peak_rss_mib` the
/// median of each pass process's `VmHWM` at exit.
pub fn end_to_end(passes: &[&Summary]) -> Vec<Metric> {
    let peaks: Vec<f64> = passes.iter().map(|p| p.peak_rss_mib).collect();
    END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: match name {
                "peak_rss_mib" => median(&peaks),
                "work_s" => work_s(passes),
                _ => median_timing(passes, name),
            },
        })
        .collect()
}

/// Figures printed beside the gated end-to-end metrics (0 where a
/// workload has none). `verify_s` and `edit_s` pool every sample of every
/// pass; the rates are medians over passes.
pub fn workload_figures(passes: &[&Summary]) -> Vec<Metric> {
    [
        ("verify_s", "s", true),
        ("media_pkts_per_s", "pkt/s", false),
        ("probe_pkts_per_s", "pkt/s", false),
        ("calls_per_s", "calls/s", false),
        ("edit_s", "s", true),
    ]
    .into_iter()
    .map(|(name, unit, pooled)| Metric {
        name,
        unit,
        value: if pooled {
            median_samples(passes, name)
        } else {
            median_timing(passes, name)
        },
    })
    .collect()
}

/// Span totals of one traced pass, by layer prefix.
struct Layers {
    by_name: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl Layers {
    /// Self seconds of every span named `layer` or `layer.*`.
    fn self_s(&self, layer: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| {
                **n == layer || n.strip_prefix(layer).is_some_and(|r| r.starts_with('.'))
            })
            .map(|(_, &(_, _, own))| own)
            .sum::<u64>() as f64
            / 1e9
    }

    /// `(count, total duration ns)` of spans named exactly `name`.
    fn exact(&self, name: &str) -> (u64, u64) {
        self.by_name.get(name).map_or((0, 0), |&(c, d, _)| (c, d))
    }

    /// Mean duration of spans named `name`, µs (0 with none).
    fn mean_us(&self, name: &str) -> f64 {
        let (c, d) = self.exact(name);
        if c == 0 {
            0.0
        } else {
            d as f64 / c as f64 / 1e3
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Seconds covered by a traced pass's top-level spans: `(layer spans,
/// the benchmark's own bench.* spans)`.
pub fn top_spans(p: &Pass) -> (f64, f64) {
    let top = |bench: bool| -> f64 {
        p.tr.spans()
            .iter()
            .filter(|s| s.parent.is_none() && s.name.starts_with("bench.") == bench)
            .map(|s| s.dur())
            .sum::<u64>() as f64
            / 1e9
    };
    (top(false), top(true))
}

/// The per-layer metrics of one traced pass, except the `trace.*` pair,
/// which needs the untraced passes.
pub fn per_layer(p: &Pass) -> BTreeMap<&'static str, f64> {
    let l = Layers {
        by_name: p.tr.by_name(),
    };
    let c = |name: &str| p.counters.get(name).copied().unwrap_or(0);
    let mem = |name: &str| p.memory.get(name).copied().unwrap_or(0.0);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut set = |name: &'static str, v: f64| {
        m.insert(name, v);
    };
    set("topo.generate.s", l.self_s("topo.generate"));
    set("topo.generate.rss_mib", mem("topo.generate.rss_mib"));
    set("core.build_vns.s", l.self_s("core.build_vns"));
    set("core.build_vns.rss_mib", mem("core.build_vns.rss_mib"));
    for name in [
        "bgp.converge.msgs",
        "bgp.converge.rounds",
        "bgp.converge.activations",
        "bgp.adj_rib_in.entries",
        "bgp.reconverge.msgs",
        "bgp.reconverge.activations",
        "verify.dataplane.pairs",
        "service.admit.offers",
        "service.window.arrivals",
        "media.signaling.packets",
        "media.session.count",
        "media.session.packets",
        "netsim.packets",
        "netsim.par.units",
        "probe.trains.packets",
    ] {
        set(name, c(name) as f64);
    }
    set(
        "bgp.adj_rib_in.bytes_per_entry",
        mem("bgp.adj_rib_in.bytes_per_entry"),
    );
    set("bgp.reconverge.s", l.self_s("bgp.reconverge"));
    set("core.fault.s", l.self_s("core.fault"));
    set("verify.control.s", l.self_s("verify.control"));
    set("verify.dataplane.s", l.self_s("verify.dataplane"));
    for (_, span, metric) in DATAPLANE_CHECKS {
        set(metric, l.self_s(span));
    }
    set("service.endpoints.s", l.self_s("service.endpoints"));
    set("service.paths.build_s", l.self_s("service.paths.build"));
    set("service.paths.rss_mib", mem("service.paths.rss_mib"));
    set(
        "service.paths.call_path_us",
        l.mean_us("service.paths.call_path"),
    );
    set(
        "service.admit.us_per_offer",
        l.mean_us("service.admit.offer"),
    );
    set(
        "service.admit.spill_ratio",
        ratio(c("service.admit.spilled"), c("service.admit.admitted")),
    );
    set(
        "service.admit.reject_ratio",
        ratio(
            c("service.admit.rejected"),
            c("service.window.arrivals").saturating_sub(c("service.admit.unreachable")),
        ),
    );
    set("service.window.s", l.self_s("service.window"));
    set("topo.channels.count", l.exact("topo.channels").0 as f64);
    set("topo.channels.us_per_channel", l.mean_us("topo.channels"));
    let (setups, setup_ns) = l.exact("media.signaling.setup");
    let (_, teardown_ns) = l.exact("media.signaling.teardown");
    set(
        "media.signaling.us_per_call",
        if setups == 0 {
            0.0
        } else {
            (setup_ns + teardown_ns) as f64 / setups as f64 / 1e3
        },
    );
    set("media.session.s", l.self_s("media.session"));
    set("probe.trains.s", l.self_s("probe.trains"));
    let packet_s = l.self_s("media") + l.self_s("probe.trains");
    set(
        "netsim.ns_per_pkt",
        if c("netsim.packets") == 0 {
            0.0
        } else {
            packet_s * 1e9 / c("netsim.packets") as f64
        },
    );
    m
}
