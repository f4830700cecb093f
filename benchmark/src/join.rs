//! The `join-mr-64` workload: the paper's §6.2 self-Hamming-join through
//! `ha_distributed::try_mrha_self_join` (Option B, h = 3, 8 partitions,
//! `workers = nproc`) over NUS-WIDE-shaped vectors hashed to 64-bit codes
//! by the pipeline's own learned spectral hash.
//!
//! One run repeats the whole three-phase job back to back for the
//! measured time. Every job must return the same pairs, and those must
//! equal a nested-loop join of the same codes under the same learned
//! hash, computed after the clock stops.

use std::collections::BTreeMap;
use std::time::Instant;

use ha_bitcode::BinaryCode;
use ha_core::select::nested_loop_join;
use ha_core::TupleId;
use ha_datagen::{generate, DatasetProfile};
use ha_distributed::preprocess::preprocess;
use ha_distributed::{try_mrha_self_join, JoinOption, JoinOutcome, MrHaConfig, VecTuple};
use ha_hashing::SimilarityHasher;
use ha_mapreduce::FaultInjector;

use crate::host::{nproc, secs};
use crate::report::Metrics;
use crate::stats::{max, median, median_of_windows};
use crate::{selftime, Outcome};

/// Vectors joined per job.
const N: usize = 20_000;
/// NUS-WIDE's clusters are spread over this many times more centres, so
/// result pairs do not dominate the job (see the fig7_9 experiment).
const CLUSTER_SPREAD: usize = 64;
/// Learned code length.
const CODE_LEN: usize = 64;
/// Join radius.
const H: u32 = 3;
/// Partitions (reducers).
const PARTITIONS: usize = 8;
/// Consecutive jobs per latency window.
const JOBS_PER_WINDOW: usize = 3;
/// Fewest jobs per run, however long each takes.
const MIN_JOBS: usize = JOBS_PER_WINDOW;

fn config(seed: u64) -> MrHaConfig {
    MrHaConfig {
        partitions: PARTITIONS,
        workers: nproc(),
        code_len: CODE_LEN,
        h: H,
        option: JoinOption::B,
        seed,
        ..MrHaConfig::default()
    }
}

fn inputs(seed: u64) -> Vec<VecTuple> {
    let nus = DatasetProfile::nuswide();
    let profile = DatasetProfile {
        clusters: nus.clusters * CLUSTER_SPREAD,
        ..nus
    };
    generate(&profile, N, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, i as TupleId))
        .collect()
}

/// One timed job.
struct Job {
    wall_s: f64,
    outcome: JoinOutcome,
}

fn job(data: &[VecTuple], cfg: &MrHaConfig) -> Result<Job, String> {
    let t = Instant::now();
    let outcome = try_mrha_self_join(data, cfg, &FaultInjector::none())
        .map_err(|e| format!("join failed: {e}"))?;
    Ok(Job {
        wall_s: secs(t.elapsed()),
        outcome,
    })
}

/// Runs jobs until `seconds` have passed (at least [`MIN_JOBS`]).
fn jobs(data: &[VecTuple], cfg: &MrHaConfig, seconds: f64) -> Result<Vec<Job>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_JOBS || secs(start.elapsed()) < seconds {
        out.push(job(data, cfg)?);
    }
    Ok(out)
}

/// The self-join's pairs by nested loop over the distinct codes under the
/// pipeline's learned hash — identical to a nested loop over all tuples,
/// with each group of equal codes compared once.
fn oracle(data: &[VecTuple], cfg: &MrHaConfig) -> Vec<(TupleId, TupleId)> {
    let pre = preprocess(
        data,
        data,
        cfg.sample_rate,
        cfg.code_len,
        cfg.partitions,
        cfg.seed,
    );
    let mut by_code: BTreeMap<BinaryCode, Vec<TupleId>> = BTreeMap::new();
    for (v, id) in data {
        by_code.entry(pre.hasher.hash(v)).or_default().push(*id);
    }
    let groups: Vec<(BinaryCode, TupleId)> = by_code
        .keys()
        .enumerate()
        .map(|(g, c)| (c.clone(), g as TupleId))
        .collect();
    let members: Vec<&Vec<TupleId>> = by_code.values().collect();
    let mut pairs = Vec::new();
    for (a, b) in nested_loop_join(&groups, &groups, cfg.h) {
        for &x in members[a as usize] {
            for &y in members[b as usize] {
                if x < y {
                    pairs.push((x, y));
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Runs the join workload for `seconds` of measurement.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let data = inputs(seed);
    let cfg = config(seed);
    let untraced = jobs(&data, &cfg, seconds)?;
    let walls: Vec<f64> = untraced.iter().map(|j| j.wall_s).collect();
    let setups: Vec<f64> = untraced
        .iter()
        .map(|j| secs(j.outcome.times.sampling + j.outcome.times.hash_learning))
        .collect();
    let traffic = untraced[0].outcome.metrics.total_traffic_bytes() as f64;
    eprintln!(
        "[join-mr-64] {} jobs over {N} vectors: {:?} s, {} pairs, {traffic} traffic bytes",
        walls.len(),
        walls,
        untraced[0].outcome.pairs.len()
    );

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    // Like the serving workloads' time windows: consecutive jobs form
    // windows, and each figure is the median over windows.
    let windows: Vec<Vec<f64>> = walls
        .chunks_exact(JOBS_PER_WINDOW)
        .map(<[f64]>::to_vec)
        .collect();
    m.set("latency_p50_us", median_of_windows(&windows, 0.5) * 1e6);
    m.set("latency_p99_us", median_of_windows(&windows, 0.99) * 1e6);
    m.set("capacity_per_s", N as f64 / median(&walls));
    m.set("bytes_per_item", traffic / N as f64);

    let mut all = untraced;
    if traced {
        m.set("bench.gen.attempted", all.len() as f64);
        m.set("bench.failed_frac", 0.0);
        m.set("bench.join_s", median(&walls));
        m.set("bench.shuffle_mb", traffic / 1e6);
        ha_obs::reset();
        let traced_jobs = jobs(&data, &cfg, seconds)?;
        let trace = ha_obs::take_trace();
        ha_obs::disable();
        let traced_walls: Vec<f64> = traced_jobs.iter().map(|j| j.wall_s).collect();
        m.set("bench.untraced_p50_us", median(&walls) * 1e6);
        m.set("bench.traced_p50_us", median(&traced_walls) * 1e6);
        m.set(
            "bench.trace_overhead_pct",
            (median(&traced_walls) - median(&walls)) / median(&walls) * 100.0,
        );
        job_layers(&traced_jobs, &trace, &mut m);
        selftime::join_shares(&trace, &mut m);
        all.extend(traced_jobs);
    }

    let want = oracle(&data, &cfg);
    let mismatches = all.iter().filter(|j| j.outcome.pairs != want).count() as u64;
    if want.is_empty() {
        return Err("the join produced no pairs to check".to_string());
    }
    Ok(Outcome {
        metrics: m,
        correct: mismatches == 0,
        attempted: all.len() as u64,
        failed: 0,
        note: format!(
            "{mismatches} of {} jobs disagree with the nested-loop join",
            all.len()
        ),
    })
}

/// Pipeline-phase and MapReduce-runtime metrics, per traced job.
fn job_layers(jobs: &[Job], trace: &ha_obs::Trace, m: &mut Metrics) {
    let per_job = |f: &dyn Fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    m.set(
        "distributed.preprocess.sampling_s",
        per_job(&|j| secs(j.outcome.times.sampling)),
    );
    m.set(
        "distributed.preprocess.hash_learning_s",
        per_job(&|j| secs(j.outcome.times.hash_learning)),
    );
    m.set(
        "distributed.global_index.build_s",
        per_job(&|j| secs(j.outcome.times.index_build)),
    );
    m.set(
        "distributed.global_index.broadcast_bytes",
        per_job(&|j| j.outcome.metrics.broadcast_bytes as f64),
    );
    m.set(
        "distributed.join.probe_s",
        per_job(&|j| secs(j.outcome.times.join)),
    );
    m.set(
        "distributed.join.pairs",
        per_job(&|j| j.outcome.pairs.len() as f64),
    );
    let tasks_ms = |reduce: bool| -> Vec<f64> {
        jobs.iter()
            .flat_map(|j| {
                let mt = &j.outcome.metrics;
                if reduce {
                    &mt.reduce_tasks
                } else {
                    &mt.map_tasks
                }
                .iter()
                .map(|t| secs(t.duration) * 1e3)
            })
            .collect()
    };
    let (map_ms, reduce_ms) = (tasks_ms(false), tasks_ms(true));
    m.set("mapreduce.job.map_task_ms_p50", median(&map_ms));
    m.set("mapreduce.job.map_task_ms_max", max(&map_ms));
    m.set("mapreduce.job.reduce_task_ms_p50", median(&reduce_ms));
    m.set("mapreduce.job.reduce_task_ms_max", max(&reduce_ms));
    m.set(
        "mapreduce.job.reduce_skew",
        per_job(&|j| j.outcome.metrics.reduce_skew()),
    );
    let n = jobs.len().max(1) as f64;
    m.set(
        "mapreduce.job.shuffle_s",
        secs(trace.total_named("mr.shuffle")) / n,
    );
    m.set(
        "mapreduce.job.sort_s",
        secs(trace.total_named("mr.sort")) / n,
    );
    m.set(
        "mapreduce.job.attempts",
        per_job(&|j| f64::from(j.outcome.metrics.total_attempts())),
    );
    m.set(
        "mapreduce.job.retries",
        per_job(&|j| f64::from(j.outcome.metrics.total_retries())),
    );
}
