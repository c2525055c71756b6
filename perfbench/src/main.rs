//! `vns-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs passes of one workload for `--seconds` of host time: as many as
//! end within it, and at least [`MIN_PASSES`] untraced passes, or with
//! `--trace 1` at least one pair of a traced and an untraced pass. Each
//! pass runs in a child process of this same program (`--pass`), so every
//! pass starts on a fresh heap.
//! The coordinator checks every pass's outputs and that all passes agree
//! on every deterministic counter and artefact byte, then prints the
//! metrics. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! report with the host fingerprint, counters and every figure goes to
//! `results/` beside this package's manifest, with the spans of the first
//! traced pass.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use vns_netsim::Par;
use vns_perfbench::host::{json_str, Fingerprint};
use vns_perfbench::metrics::{self, Metric, PER_LAYER};
use vns_perfbench::summary::Summary;
use vns_perfbench::{run_pass, threads, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};

/// Untraced passes a `--trace 0` run makes at least, for its medians.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: vns-perfbench --workload <packet-replay|call-churn|control-scale> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run a single pass in this process and print its summary.
    pass: bool,
    /// Where a traced single pass writes its spans.
    spans: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        pass: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pass" {
            args.pass = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                };
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.pass {
        return single_pass(&args);
    }
    match coordinate(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vns-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The child: one pass, its spans to `--spans`, its summary to stdout.
fn single_pass(args: &Args) -> ExitCode {
    let par = Par::new(threads());
    let Some(p) = run_pass(&args.workload, args.seed, args.trace, par) else {
        return ExitCode::from(2);
    };
    if let Some(path) = &args.spans {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            p.tr.write_tsv(&mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("{}: {e}", path.display());
        }
    }
    print!("{}", Summary::of(&p).encode());
    ExitCode::SUCCESS
}

/// Runs one pass in a child process and waits for it.
fn spawn_pass(args: &Args, traced: bool, spans: Option<&Path>) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--pass", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    let out = cmd.output().map_err(|e| format!("spawning a pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "pass process exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Summary::decode(&stdout)
}

fn coordinate(args: &Args) -> Result<(), String> {
    let threads = threads();
    let host = Fingerprint::read(args.seed, threads);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "# vns-perfbench workload={} seed={} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) \
         seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {}", host.to_json());

    // Rounds of passes — one untraced pass, or a traced/untraced pair —
    // while the next round, as long as the longest so far, still ends
    // within `--seconds`, once there are enough for the medians.
    let t0 = Instant::now();
    let mut passes: Vec<Summary> = Vec::new();
    // A pass process that dies counts as one failed operation.
    let mut problems: Vec<String> = Vec::new();
    let spans_path = dir.join(format!("{stem}.spans.tsv"));
    let mut longest_round = 0.0_f64;
    loop {
        let round0 = Instant::now();
        let first_traced = !passes.iter().any(|p| p.traced);
        let kinds: &[bool] = if args.trace { &[true, false] } else { &[false] };
        for &traced in kinds {
            let spans = (traced && first_traced).then_some(spans_path.as_path());
            match spawn_pass(args, traced, spans) {
                Ok(s) => passes.push(s),
                Err(e) => problems.push(e),
            }
        }
        longest_round = longest_round.max(round0.elapsed().as_secs_f64());
        let untraced = passes.iter().filter(|p| !p.traced).count();
        let enough = args.trace || untraced >= MIN_PASSES;
        let next_end = t0.elapsed().as_secs_f64() + longest_round;
        if !problems.is_empty() || (enough && next_end > args.seconds) {
            break;
        }
    }
    let dead = problems.len() as u64;

    // Correctness: every check of every pass, and exact agreement of the
    // deterministic counters and artefacts between passes.
    for (i, p) in passes.iter().enumerate() {
        problems.extend(p.problems.iter().map(|f| format!("pass {i}: {f}")));
    }
    if let Some(first) = passes.first() {
        for (i, p) in passes.iter().enumerate().skip(1) {
            problems.extend(
                counter_mismatches(first, p)
                    .into_iter()
                    .map(|m| format!("pass {i}: {m}")),
            );
            if p.artefact != first.artefact {
                problems.push(format!(
                    "pass {i}: rendered artefact {} differs from pass 0's {}",
                    p.artefact, first.artefact
                ));
            }
        }
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum::<u64>() + dead;
    let failed: u64 = passes.iter().map(|p| p.failed).sum::<u64>() + dead;
    let correct = problems.is_empty() && !passes.is_empty();

    let untraced: Vec<&Summary> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Summary> = passes.iter().filter(|p| p.traced).collect();
    let untraced_wall = metrics::median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let end_to_end = metrics::end_to_end(&untraced);
    let figures = metrics::workload_figures(&untraced);
    let error_rate = failed as f64 / attempted.max(1) as f64;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# passes: {} untraced, {} traced; wall {:.3} s",
        untraced.len(),
        traced.len(),
        t0.elapsed().as_secs_f64()
    );
    for (i, p) in passes.iter().enumerate() {
        let t: Vec<String> = p
            .timings
            .iter()
            .map(|(k, v)| format!("{k}={v:.4}"))
            .collect();
        let _ = writeln!(
            report,
            "# pass {i} traced={} wall_s={:.4} peak_rss_mib={:.1} {}",
            u8::from(p.traced),
            p.wall_s,
            p.peak_rss_mib,
            t.join(" ")
        );
    }
    if let Some(first) = passes.first() {
        let _ = writeln!(report, "# counters {}", counters_json(&first.counters));
    }
    for m in end_to_end.iter().chain(&figures) {
        let _ = writeln!(report, "# metric {} {} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        report,
        "# metric error_rate {error_rate} ratio ({failed} of {attempted} operations failed)"
    );

    let mut layer: Vec<Metric> = Vec::new();
    if !traced.is_empty() {
        // Coverage and overhead of each traced pass against the median
        // untraced pass; every per-layer figure is a median over passes.
        let trace_rows: Vec<BTreeMap<String, f64>> = traced
            .iter()
            .map(|p| {
                let mut m = p.layers.clone();
                m.insert(
                    "trace.coverage".into(),
                    (p.top_layer_s + p.top_bench_s) / untraced_wall,
                );
                m.insert("trace.overhead_s".into(), p.wall_s - untraced_wall);
                m
            })
            .collect();
        for &(name, unit) in &PER_LAYER {
            let values: Vec<f64> = trace_rows
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect();
            layer.push(Metric {
                name,
                unit,
                value: metrics::median(&values),
            });
        }
        for m in &layer {
            let _ = writeln!(report, "# layer {} {} {}", m.name, m.value, m.unit);
        }
        let first = traced[0];
        let _ = writeln!(
            report,
            "# trace coverage {:.4} of untraced wall {untraced_wall:.3} s (target >= 0.95), \
             {:.4} of its own wall {:.3} s; overhead {:.3} s",
            (first.top_layer_s + first.top_bench_s) / untraced_wall,
            (first.top_layer_s + first.top_bench_s) / first.wall_s,
            first.wall_s,
            first.wall_s - untraced_wall
        );
        let _ = writeln!(
            report,
            "# unattributed {:.4} s: bench.teardown (dropping worlds and tables)",
            first.top_bench_s
        );
        let _ = writeln!(
            report,
            "# unattributed {:.4} s: between top-level spans (benchmark glue, counters, checks)",
            (first.wall_s - first.top_layer_s - first.top_bench_s).max(0.0)
        );
    }
    for p in &problems {
        let _ = writeln!(report, "# problem {p}");
    }
    print!("{report}");

    let written = std::fs::File::create(dir.join(format!("{stem}.txt"))).and_then(|mut f| {
        writeln!(f, "# host {}", host.to_json())?;
        f.write_all(report.as_bytes())?;
        f.flush()
    });
    if let Err(e) = written {
        eprintln!("could not write the report: {e}");
    }

    let shown = if args.trace { &layer } else { &end_to_end };
    let metrics_json: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics_json.join(", ")
    );
    Ok(())
}

/// Counters that differ between two passes. Keys both passes record must
/// agree exactly; passes of the same kind must record the same keys.
fn counter_mismatches(a: &Summary, b: &Summary) -> Vec<String> {
    let mut out = Vec::new();
    for (k, va) in &a.counters {
        match b.counters.get(k) {
            Some(vb) if vb != va => out.push(format!("counter {k}: {vb} != {va}")),
            None if a.traced == b.traced => out.push(format!("counter {k} missing")),
            _ => {}
        }
    }
    out
}

/// A JSON number (non-finite values read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn counters_json(c: &BTreeMap<String, u64>) -> String {
    let rows: Vec<String> = c
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", rows.join(", "))
}
