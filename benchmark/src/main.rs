//! End-to-end and per-layer benchmark of the hamming-suite workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-read-512 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads: `serve-read-512`, `serve-mixed-64`, `join-mr-64` (see
//! `README.md`). Inputs are generated from `--seed`; the program only
//! sees them through its public API. The run measures for `--seconds`,
//! checks every answer, and prints as its last stdout line one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. The line before it records the host, the share of CPU
//! time the hypervisor stole during the run, and the seed.

mod host;
mod join;
mod load;
mod replay;
mod report;
mod rng;
mod selftime;
mod serve;
mod stats;

use std::process::ExitCode;

use report::{Metrics, END_TO_END, PER_LAYER};

/// What one workload run produced.
pub struct Outcome {
    /// Measured metrics.
    pub metrics: Metrics,
    /// Every checked answer matched its oracle.
    pub correct: bool,
    /// Operations (serving) or jobs (join) attempted.
    pub attempted: u64,
    /// Of those, refused, shed or failed.
    pub failed: u64,
    /// What the correctness check found, for stderr.
    pub note: String,
}

/// The workloads, with the per-layer metric prefixes each one leaves idle
/// (reported as 0 in a traced run).
const WORKLOADS: &[(&str, &[&str])] = &[
    ("serve-read-512", SERVE_IDLE),
    ("serve-mixed-64", SERVE_IDLE),
    ("join-mr-64", JOIN_IDLE),
];

const SERVE_IDLE: &[&str] = &[
    "bench.join_s",
    "bench.shuffle_mb",
    "distributed.",
    "mapreduce.job.",
    "mapreduce.tasks.",
    "mapreduce.spill.",
    "mapreduce.shuffle.",
    "mapreduce.sort.",
];

const JOIN_IDLE: &[&str] = &[
    "bench.gen.late_us_p99",
    "bench.gen.self_share",
    "bench.select_",
    "bench.knn_",
    "bench.write_",
    "bench.capacity_qps",
    "service.",
    "core.",
    "bitcode.",
    "mapreduce.wal.",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(25.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Sets every undeclared per-layer metric under an idle prefix to 0.
fn fill_idle(m: &mut Metrics, idle: &[&str]) {
    for &(name, _) in PER_LAYER {
        if m.get(name).is_none() && idle.iter().any(|p| name.starts_with(p)) {
            m.set(name, 0.0);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(&(name, idle)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let (steal_before, total_before) = host::cpu_ticks();
    let result = match name {
        "serve-read-512" => serve::run(&serve::READ_512, args.seed, args.seconds, args.trace),
        "serve-mixed-64" => serve::run(&serve::MIXED_64, args.seed, args.seconds, args.trace),
        _ => join::run(args.seed, args.seconds, args.trace),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Run metadata, with the share of CPU time the hypervisor stole while
    // the run lasted: timings from a run with high steal are suspect.
    let (steal_after, total_after) = host::cpu_ticks();
    let steal = steal_after.saturating_sub(steal_before) as f64
        / total_after.saturating_sub(total_before).max(1) as f64;
    println!(
        "{{\"host\": {{\"nproc\": {}, \"kernel\": \"{}\", \"rustc\": \"{}\", \"steal_frac\": {steal:.4}}}, \"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        host::nproc(),
        ha_bitcode::Kernel::detect().name(),
        env!("BENCH_RUSTC_VERSION"),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let catalog = if args.trace {
        fill_idle(&mut outcome.metrics, idle);
        PER_LAYER
    } else {
        END_TO_END
    };
    let line =
        match outcome
            .metrics
            .render(catalog, outcome.correct, outcome.attempted, outcome.failed)
        {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: wrong answers: {}", outcome.note);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_prefixes_name_real_metrics() {
        for &(workload, idle) in WORKLOADS {
            for prefix in idle {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n.starts_with(prefix)),
                    "{workload}: idle prefix {prefix} matches no metric"
                );
            }
        }
    }

    #[test]
    fn every_per_layer_metric_is_measured_by_some_workload() {
        for &(name, _) in PER_LAYER {
            assert!(
                WORKLOADS
                    .iter()
                    .any(|(_, idle)| !idle.iter().any(|p| name.starts_with(p))),
                "{name} is idle in every workload"
            );
        }
    }
}
