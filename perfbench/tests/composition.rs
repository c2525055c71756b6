//! The benchmark's call-churn workload stands for the steady-state
//! campaign: at a small sizing, its composition renders byte-identically
//! to `steady_state::run`, untraced (through `Orchestrator`) and traced
//! (through the benchmark's own replay of the per-call measurement).

use vns_bench::experiments::steady_state::{self, SteadyStateOpts};
use vns_bench::WorldConfig;
use vns_netsim::Par;
use vns_perfbench::call_churn::compose;
use vns_perfbench::pass::Pass;

#[test]
fn composed_call_churn_renders_like_steady_state() {
    let cfg = WorldConfig::tiny(77);
    let opts = SteadyStateOpts {
        target_concurrent: 900,
        windows: 6,
    };
    let par = Par::new(2);
    let campaign = steady_state::run(&cfg, opts, par).to_string();
    for traced in [false, true] {
        let mut pass = Pass::new(traced, par);
        let composed = compose(&mut pass, &cfg, opts).expect("world builds");
        assert_eq!(composed.to_string(), campaign, "traced: {traced}");
        assert_eq!(pass.ops.failed, 0, "{:?}", pass.ops.failures);
    }
}
