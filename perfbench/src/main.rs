//! matchkit's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-paper|solve-large|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every instance, dynamic epoch and arrival schedule is generated from
//! `--seed`; the program under test receives only the generated inputs,
//! through its public API. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`; the
//! line before it records the seed, the host and the sample counts.
//! See `perfbench/README.md` for the workloads and what each metric means.

mod check;
mod layers;
mod offline;
mod serve_mix;
mod stats;

use check::Tally;
use stats::Metrics;
use std::process::ExitCode;

/// The workloads, by the names results cite.
const WORKLOADS: &[&str] = &["solve-paper", "solve-large", "serve-mix"];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s_p50", "s"),
    ("solve_throughput", "solves/s"),
    ("cost_ratio", "ratio"),
    ("remap_ms_p50", "ms"),
    ("remap_ms_p90", "ms"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("max_rate_rps", "req/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("ce.sample_s", "s"),
    ("ce.evaluate_s", "s"),
    ("ce.update_s", "s"),
    ("ce.iterations", "count"),
    ("ce.sample_ms_per_iter", "ms"),
    ("ga.vary_s", "s"),
    ("ga.evaluate_s", "s"),
    ("ga.select_s", "s"),
    ("eval.plan_build_ms", "ms"),
    ("eval.rows", "count"),
    ("eval.rows_per_s", "1/s"),
    ("eval.bytes_per_row", "B"),
    ("ml.coarsen_s", "s"),
    ("ml.coarse_solve_s", "s"),
    ("ml.refine_s", "s"),
    ("ml.levels", "count"),
    ("remap.refine_ms_p50", "ms"),
    ("remap.changed_tasks", "count"),
    ("remap.migrated_frac", "ratio"),
    ("graph.parse_us_p50", "us"),
    ("serve.frontend_ms_p50", "ms"),
    ("serve.frontend_ms_p99", "ms"),
    ("serve.decode_us_p50", "us"),
    ("serve.hash_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.rejected_frac", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.solve_ms_p50", "ms"),
    ("serve.solve_ms_p99", "ms"),
    ("warm.hit_ratio", "ratio"),
    ("warm.iterations_saved_frac", "ratio"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Print per-layer metrics from a traced run instead of end-to-end.
    pub trace: bool,
    /// Shrink every instance to smoke-test size.
    pub tiny: bool,
}

/// What one workload run produced.
pub struct Outcome {
    /// Measured metrics, by name.
    pub metrics: Metrics,
    /// Checked operations.
    pub tally: Tally,
    /// Sample counts behind the figures.
    pub samples: Vec<(&'static str, f64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Host facts recorded with every result.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512) = (false, false);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"avx2\": {avx2}, \"avx512f\": {avx512}, \
         \"rustc\": \"{}\"}}",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "serve-mix" {
        serve_mix::run(&args)
    } else {
        offline::run(&args)
    };
    let Outcome {
        metrics,
        tally,
        samples,
    } = outcome;
    for note in &tally.notes {
        eprintln!("perfbench: failed: {note}");
    }
    let samples: Vec<String> = samples
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"samples\": {{{}}}, \"failed_frac\": {:?}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_json(),
        samples.join(", "),
        tally.failed_frac(),
    );
    if tally.attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        return ExitCode::FAILURE;
    }
    let metrics = if args.trace {
        metrics.to_json(PER_LAYER, true)
    } else {
        metrics.to_json(END_TO_END, false)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
    );
    ExitCode::SUCCESS
}
