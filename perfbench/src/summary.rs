//! The summary a pass process hands to the coordinating process.
//!
//! Every pass runs in a process of its own, so each starts on a fresh
//! heap: its set-up pays the same page faults a user's process pays, its
//! `VmHWM` is the peak of that one pass, and its per-layer resident-set
//! deltas are not blurred by memory an earlier pass freed. The summary
//! travels over the child's standard output as tab-separated
//! `kind name value` lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::hwm_mib;
use crate::metrics;
use crate::pass::Pass;

/// One pass, as the coordinator sees it.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Whether the pass recorded spans.
    pub traced: bool,
    /// Host seconds of the pass.
    pub wall_s: f64,
    /// `VmHWM` of the pass process at exit, MiB.
    pub peak_rss_mib: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failed checks and failed operations, one line each.
    pub problems: Vec<String>,
    /// Host timings and rates.
    pub timings: BTreeMap<String, f64>,
    /// Repeated timings within the pass.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Deterministic counters.
    pub counters: BTreeMap<String, u64>,
    /// Per-layer metrics of a traced pass (without `trace.*`).
    pub layers: BTreeMap<String, f64>,
    /// Seconds covered by the traced pass's top-level spans: layer spans,
    /// and the benchmark's own `bench.*` spans.
    pub top_layer_s: f64,
    /// See [`Summary::top_layer_s`].
    pub top_bench_s: f64,
    /// Digest of the pass's rendered artefact.
    pub artefact: String,
}

impl Summary {
    /// Summarises a finished pass in the pass process.
    pub fn of(p: &Pass) -> Self {
        let mut problems: Vec<String> = p
            .checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(what, _)| format!("check failed: {what}"))
            .collect();
        problems.extend(p.ops.failures.iter().cloned());
        let (top_layer_s, top_bench_s) = metrics::top_spans(p);
        Self {
            traced: p.tr.is_on(),
            wall_s: p.wall_s,
            peak_rss_mib: hwm_mib(),
            attempted: p.ops.attempted,
            failed: p.ops.failed,
            problems,
            timings: p
                .timings
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            samples: p.samples.clone(),
            counters: p.counters.clone(),
            layers: if p.tr.is_on() {
                metrics::per_layer(p)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            } else {
                BTreeMap::new()
            },
            top_layer_s,
            top_bench_s,
            artefact: digest(&p.artefact),
        }
    }

    /// The line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let mut line = |kind: &str, name: &str, value: &dyn std::fmt::Display| {
            let _ = writeln!(out, "{kind}\t{}\t{value}", clean(name));
        };
        line("traced", "", &u8::from(self.traced));
        line("wall_s", "", &self.wall_s);
        line("peak_rss_mib", "", &self.peak_rss_mib);
        line("attempted", "", &self.attempted);
        line("failed", "", &self.failed);
        line("top_layer_s", "", &self.top_layer_s);
        line("top_bench_s", "", &self.top_bench_s);
        line("artefact", "", &self.artefact);
        for p in &self.problems {
            line("problem", p, &"");
        }
        for (k, v) in &self.timings {
            line("timing", k, v);
        }
        for (k, vs) in &self.samples {
            for v in vs {
                line("sample", k, v);
            }
        }
        for (k, v) in &self.counters {
            line("counter", k, v);
        }
        for (k, v) in &self.layers {
            line("layer", k, v);
        }
        out
    }

    /// Parses [`Summary::encode`]'s output.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut s = Summary::default();
        for row in text.lines() {
            let mut cols = row.splitn(3, '\t');
            let (Some(kind), Some(name), Some(value)) = (cols.next(), cols.next(), cols.next())
            else {
                return Err(format!("malformed summary line {row:?}"));
            };
            let f =
                || -> Result<f64, String> { value.parse().map_err(|e| format!("{row:?}: {e}")) };
            let n =
                || -> Result<u64, String> { value.parse().map_err(|e| format!("{row:?}: {e}")) };
            match kind {
                "traced" => s.traced = value == "1",
                "wall_s" => s.wall_s = f()?,
                "peak_rss_mib" => s.peak_rss_mib = f()?,
                "attempted" => s.attempted = n()?,
                "failed" => s.failed = n()?,
                "top_layer_s" => s.top_layer_s = f()?,
                "top_bench_s" => s.top_bench_s = f()?,
                "artefact" => s.artefact = value.to_string(),
                "problem" => s.problems.push(name.to_string()),
                "timing" => {
                    s.timings.insert(name.to_string(), f()?);
                }
                "sample" => s.samples.entry(name.to_string()).or_default().push(f()?),
                "counter" => {
                    s.counters.insert(name.to_string(), n()?);
                }
                "layer" => {
                    s.layers.insert(name.to_string(), f()?);
                }
                _ => return Err(format!("unknown summary line {row:?}")),
            }
        }
        Ok(s)
    }
}

/// A field with no tabs or line breaks.
fn clean(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ")
}

/// FNV-1a 64 of the artefact, with its length.
fn digest(s: &str) -> String {
    let h = s.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}:{}", s.len())
}
