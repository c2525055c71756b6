//! The vns benchmark: three workloads that load different layers of the
//! system, end-to-end metrics from untraced passes, and per-layer metrics
//! from a traced pass that records a span around every call the benchmark
//! makes into a layer's public functions.
//!
//! | Workload | Loads | Predicted to move |
//! |---|---|---|
//! | [`packet_replay`] | netsim, media, probe | packet-engine changes |
//! | [`call_churn`] | service, topo channels, signaling | per-flow set-up cost |
//! | [`control_scale`] | topo, bgp, core, verify, service paths | control plane, route-state memory, verifier |

pub mod call_churn;
pub mod control_scale;
pub mod host;
pub mod metrics;
pub mod packet_replay;
pub mod pass;
pub mod summary;
pub mod trace;

use vns_netsim::Par;

use crate::pass::Pass;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["packet-replay", "call-churn", "control-scale"];

/// The default seed, and the held-out seed a later performance claim must
/// also hold on.
pub const DEFAULT_SEED: u64 = 77;
/// See [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 21;

/// `Par` worker threads: two, or fewer on a smaller host.
pub fn threads() -> usize {
    host::nproc().min(2)
}

/// Runs one pass of `workload`; `None` for an unknown name.
pub fn run_pass(workload: &str, seed: u64, traced: bool, par: Par) -> Option<Pass> {
    let run: fn(&mut Pass, u64) = match workload {
        "packet-replay" => packet_replay::run,
        "call-churn" => call_churn::run,
        "control-scale" => control_scale::run,
        _ => return None,
    };
    let mut p = Pass::new(traced, par);
    let t0 = std::time::Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut p, seed)));
    p.wall_s = t0.elapsed().as_secs_f64();
    if let Err(e) = outcome {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        p.ops.check(format!("pass panicked: {msg}"), false);
        p.expect("pass completed", false);
    }
    Some(p)
}
