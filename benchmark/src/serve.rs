//! The serving workloads: `serve-read-512` and `serve-mixed-64`.
//!
//! Both drive `ha_service::HaServe` only through its public API with
//! `ServeConfig { workers: nproc, .. }`. The end-to-end figures come from
//! `nproc` closed-loop clients running the workload's operation mix for
//! the measured time. A traced run adds an untraced and a traced open
//! loop at the workload's fixed Poisson rate (half the measured time
//! each), which give the open-loop latency per request class, the tracing
//! overhead and the per-layer figures. Inputs come from the seed and are
//! generated before any clock starts; every answer is checked after the
//! clocks stop.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ha_bitcode::BinaryCode;
use ha_core::testkit::{clustered_dataset, random_dataset};
use ha_core::{ExecConfig, MihIndex, TupleId};
use ha_mapreduce::InMemoryDfs;
use ha_service::{HaServe, ServeConfig, ServeMetrics};

use crate::host::{micros, nproc, rss_bytes, secs};
use crate::load::{closed_loop, open_loop, Answer, Class, LoadReport, Op, Params};
use crate::report::Metrics;
use crate::rng::{poisson_schedule, Rng, Zipf};
use crate::stats::{max, mean, median, median_of_windows, quantile, samples_beyond, windows};
use crate::{replay, selftime, Outcome};

/// Shape of one serving workload. All of it is fixed here; only the seed
/// varies between runs.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Bits per code.
    pub code_len: usize,
    /// Codes indexed at set-up.
    pub n: usize,
    /// Select radius.
    pub h: u32,
    /// Offered open-loop rate, operations per second. Fixed at about a
    /// quarter of the closed-loop capacity measured when the benchmark
    /// was written (2-core host); never recomputed per run.
    pub rate: f64,
    /// Share of operations that are kNN-selects.
    pub knn_share: f64,
    /// Share of operations that are inserts (as many more are deletes).
    pub insert_share: f64,
    /// Durable service (`bootstrap_durable` on an `InMemoryDfs`) instead
    /// of `HaServe::build`.
    pub durable: bool,
    /// Delta size that triggers a background merge.
    pub delta_cap: usize,
}

/// Read-only serving of clustered 512-bit codes, routed to HA-Flat.
pub const READ_512: ServeSpec = ServeSpec {
    name: "serve-read-512",
    code_len: 512,
    n: 40_000,
    h: 6,
    rate: 1_000.0,
    knn_share: 0.10,
    insert_share: 0.0,
    durable: false,
    delta_cap: 512,
};

/// Read-write durable serving of sparse 64-bit codes, routed to MIH.
pub const MIXED_64: ServeSpec = ServeSpec {
    name: "serve-mixed-64",
    code_len: 64,
    n: 50_000,
    h: 3,
    rate: 700.0,
    knn_share: 0.02,
    insert_share: 0.10,
    durable: true,
    delta_cap: 128,
};

/// kNN `k`.
const K: usize = 10;
/// Operations per second the closed-loop stream is sized for; a client
/// that runs out of operations just stops early.
const CAPACITY_HINT: f64 = 5_000.0;
/// Centres of the clustered 512-bit dataset.
const READ_CLUSTERS: usize = 32;
/// Bits flipped at random from a centre to make each 512-bit code.
const READ_SPREAD: usize = 24;
/// Bits flipped from a data code to make a 512-bit query.
const READ_QUERY_FLIPS: usize = 3;
/// Distinct read queries of the mixed workload; below the 4096-entry
/// result cache, so repeated reads can hit it between mutations.
const HOT_SET: usize = 1_024;
/// Zipf exponent of read popularity over the hot set.
const HOT_SKEW: f64 = 1.0;
/// Windows the closed loop is cut into for its median figures.
const WINDOWS: f64 = 10.0;
/// Service set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Selects and kNNs checked against the oracle once the load has
/// stopped (mixed).
const MIXED_CHECKS: usize = 600;
/// Queries replayed against the per-shard replicas in a traced run.
const REPLAY_QUERIES: usize = 1_000;

fn serve_config(spec: &ServeSpec, seed: u64) -> ServeConfig {
    let cores = nproc();
    ServeConfig {
        workers: cores,
        delta_cap: spec.delta_cap,
        seed,
        exec: ExecConfig::default().with_workers(cores),
        ..ServeConfig::default()
    }
}

/// The workload's generated inputs.
struct Inputs {
    data: Vec<(BinaryCode, TupleId)>,
    /// Operations and send offsets of the untraced open loop.
    open: (Vec<Op>, Vec<f64>),
    /// Operations of the closed loop.
    closed: Vec<Op>,
    /// Operations and send offsets of the traced open loop.
    traced: (Vec<Op>, Vec<f64>),
    /// Read queries of the final check (mixed only).
    checks: Vec<BinaryCode>,
}

/// Generates operations; the read-only workload never repeats a query,
/// the mixed one draws reads from a Zipf-skewed hot set and mutates.
struct OpGen {
    spec: ServeSpec,
    rng: Rng,
    /// Read-only: every query issued so far (kept unique).
    seen: HashSet<BinaryCode>,
    hot: Vec<BinaryCode>,
    zipf: Option<Zipf>,
    /// Initial ids in deletion order; each is deleted at most once.
    delete_pool: Vec<TupleId>,
    next_id: TupleId,
}

impl OpGen {
    fn read_code(&mut self, data: &[(BinaryCode, TupleId)]) -> BinaryCode {
        if let Some(z) = &self.zipf {
            return self.hot[z.sample(&mut self.rng)].clone();
        }
        loop {
            let base = &data[self.rng.below(data.len())].0;
            let q = self.rng.perturb(base, READ_QUERY_FLIPS);
            if self.seen.insert(q.clone()) {
                return q;
            }
        }
    }

    fn op(&mut self, data: &[(BinaryCode, TupleId)]) -> Op {
        let u = self.rng.unit();
        let s = &self.spec;
        if u < s.insert_share {
            let id = self.next_id;
            self.next_id += 1;
            Op::Insert(self.rng.code(s.code_len), id)
        } else if u < 2.0 * s.insert_share && !self.delete_pool.is_empty() {
            let id = self.delete_pool.pop().expect("non-empty pool");
            Op::Delete(data[id as usize].0.clone(), id)
        } else if u < 2.0 * s.insert_share + s.knn_share {
            Op::Knn(self.read_code(data))
        } else {
            Op::Select(self.read_code(data))
        }
    }

    fn ops(&mut self, data: &[(BinaryCode, TupleId)], count: usize) -> Vec<Op> {
        (0..count).map(|_| self.op(data)).collect()
    }
}

fn generate(spec: &ServeSpec, seed: u64, seconds: f64) -> Inputs {
    let data = if spec.durable {
        random_dataset(spec.n, spec.code_len, seed)
    } else {
        clustered_dataset(spec.n, spec.code_len, READ_CLUSTERS, READ_SPREAD, seed)
    };
    let mut qrng = Rng::new(seed, 2);
    let (hot, zipf, checks) = if spec.durable {
        let hot: Vec<BinaryCode> = (0..HOT_SET)
            .map(|_| {
                let base = data[qrng.below(data.len())].0.clone();
                let flips = 1 + qrng.below(2);
                qrng.perturb(&base, flips)
            })
            .collect();
        let checks: Vec<BinaryCode> = (0..MIXED_CHECKS)
            .map(|i| {
                if i % 2 == 0 {
                    hot[qrng.below(hot.len())].clone()
                } else {
                    qrng.code(spec.code_len)
                }
            })
            .collect();
        (hot, Some(Zipf::new(HOT_SET, HOT_SKEW)), checks)
    } else {
        (Vec::new(), None, Vec::new())
    };
    let mut delete_pool: Vec<TupleId> = (0..spec.n as TupleId).collect();
    // Fisher-Yates with the query stream, so deletions are seeded too.
    for i in (1..delete_pool.len()).rev() {
        delete_pool.swap(i, qrng.below(i + 1));
    }
    let mut gen = OpGen {
        spec: *spec,
        rng: Rng::new(seed, 3),
        seen: HashSet::new(),
        hot,
        zipf,
        delete_pool,
        next_id: spec.n as TupleId,
    };
    let closed = gen.ops(&data, (CAPACITY_HINT * seconds) as usize + 1_000);
    let mut srng = Rng::new(seed, 4);
    // A traced run adds two open loops (untraced, then traced) of half the
    // measured time each.
    let open_sched = poisson_schedule(spec.rate, seconds / 2.0, &mut srng);
    let traced_sched = poisson_schedule(spec.rate, seconds / 2.0, &mut srng);
    let open_ops = gen.ops(&data, open_sched.len());
    let traced_ops = gen.ops(&data, traced_sched.len());
    Inputs {
        data,
        open: (open_ops, open_sched),
        closed,
        traced: (traced_ops, traced_sched),
        checks,
    }
}

/// Builds the service `SETUPS` times (keeping the last) and returns it
/// with the set-up wall times and the resident-set growth of the first.
fn set_up(
    spec: &ServeSpec,
    seed: u64,
    data: &[(BinaryCode, TupleId)],
) -> Result<(HaServe, Vec<f64>, u64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut rss_growth = 0;
    let mut kept = None;
    for i in 0..SETUPS {
        // Dropping the previous service first keeps one resident at a time.
        drop(kept.take());
        let items = data.to_vec();
        let dfs = Arc::new(InMemoryDfs::new());
        let before = rss_bytes();
        let t = Instant::now();
        let serve = if spec.durable {
            HaServe::bootstrap_durable(
                &dfs,
                "/bench/serve",
                spec.code_len,
                items,
                serve_config(spec, seed),
            )
        } else {
            HaServe::build(spec.code_len, items, serve_config(spec, seed))
        }
        .map_err(|e| format!("set-up failed: {e}"))?;
        times.push(secs(t.elapsed()));
        if i == 0 {
            rss_growth = rss_bytes().saturating_sub(before);
        }
        kept = Some((serve, dfs));
    }
    let (serve, _dfs) = kept.expect("at least one set-up");
    Ok((serve, times, rss_growth))
}

/// Runs a serving workload for `seconds` of measurement.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let inputs = generate(spec, seed, seconds);
    let (serve, setup_times, rss_growth) = set_up(spec, seed, &inputs.data)?;
    let p = Params { h: spec.h, k: K };

    let closed = closed_loop(
        &serve,
        &inputs.closed,
        nproc(),
        Duration::from_secs_f64(seconds),
        p,
    );
    // Every figure is a median over windows, so a stall of the host that
    // hits a few windows does not move it.
    let width = seconds / WINDOWS;
    let latency = windows(&closed.timeline(None), width, seconds);
    let selects = windows(&closed.timeline(Some(Class::Select)), width, seconds);
    let capacity = median(
        &selects
            .iter()
            .map(|w| w.len() as f64 / width)
            .collect::<Vec<_>>(),
    );
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_times));
    m.set("latency_p50_us", median_of_windows(&latency, 0.5));
    m.set("latency_p99_us", median_of_windows(&latency, 0.99));
    m.set("capacity_per_s", capacity);
    m.set("bytes_per_item", rss_growth as f64 / spec.n as f64);
    let least = latency.iter().map(Vec::len).min().unwrap_or(0);
    eprintln!(
        "[{}] closed loop: {} operations in {} windows (at least {} past each p99), {capacity:.0} selects/s",
        spec.name,
        closed.samples.len(),
        latency.len(),
        samples_beyond(least, 0.99),
    );

    let mut phases = vec![(&inputs.closed, closed)];
    if traced {
        let open = open_loop(&serve, &inputs.open.0, &inputs.open.1, p, None);
        let traced_open = trace_layers(spec, &serve, &inputs, p, &phases[0].1, &open, &mut m);
        phases.push((&inputs.open.0, open));
        phases.push((&inputs.traced.0, traced_open));
    }

    let mut attempted = 0;
    let mut failed = 0;
    for (_, r) in &phases {
        attempted += r.attempted;
        failed += r.failures.total();
    }
    let mismatches = if spec.durable {
        check_mixed(&serve, spec, &inputs, &phases)
    } else {
        check_read(spec, &inputs.data, &phases)
    };
    Ok(Outcome {
        metrics: m,
        correct: mismatches == 0,
        attempted,
        failed,
        note: format!("{mismatches} mismatching answers"),
    })
}

/// The traced part of a run, after the untraced closed loop and open
/// loop: per-class open-loop latencies, then a traced open loop with the
/// `ha-obs` registry on, then the replica replay. Returns the traced open
/// loop's report, whose answers are checked like the others.
fn trace_layers(
    spec: &ServeSpec,
    serve: &HaServe,
    inputs: &Inputs,
    p: Params,
    closed: &LoadReport,
    open: &LoadReport,
    m: &mut Metrics,
) -> LoadReport {
    let untraced_p50 = quantile(&open.latency_us(None), 0.5);
    for (class, p50, p99) in [
        (Class::Select, "bench.select_p50_us", "bench.select_p99_us"),
        (Class::Knn, "bench.knn_p50_us", "bench.knn_p99_us"),
        (Class::Write, "bench.write_p50_us", "bench.write_p99_us"),
    ] {
        let lat = open.latency_us(Some(class));
        m.set(p50, quantile(&lat, 0.5));
        m.set(p99, quantile(&lat, 0.99));
    }
    let attempted = open.attempted + closed.attempted;
    let failed = open.failures.total() + closed.failures.total();
    m.set("bench.gen.attempted", attempted as f64);
    m.set("bench.gen.late_us_p99", quantile(&open.late_us, 0.99));
    m.set("bench.failed_frac", failed as f64 / attempted.max(1) as f64);
    m.set(
        "bench.capacity_qps",
        closed.latency_us(Some(Class::Select)).len() as f64 / secs(closed.elapsed),
    );

    let before = serve.metrics();
    ha_obs::reset();
    let report = open_loop(
        serve,
        &inputs.traced.0,
        &inputs.traced.1,
        p,
        Some(Duration::from_millis(50)),
    );
    let trace = ha_obs::take_trace();
    ha_obs::disable();
    let after = serve.metrics();

    let traced_all = report.latency_us(None);
    let traced_p50 = quantile(&traced_all, 0.5);
    m.set("bench.untraced_p50_us", untraced_p50);
    m.set("bench.traced_p50_us", traced_p50);
    m.set(
        "bench.trace_overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
    service_layers(&before, &after, &trace, &report, m);
    let total_latency_ns: f64 = traced_all.iter().sum::<f64>() * 1e3;
    let late_ns: f64 = report.late_us.iter().sum::<f64>() * 1e3;
    selftime::serve_shares(&trace, total_latency_ns, late_ns, m);
    replay::serve_layers(
        &serve_config(spec, 0),
        serve,
        spec.h,
        &inputs.data,
        &inputs.traced.0,
        REPLAY_QUERIES,
        m,
    );
    report
}

/// Service-layer metrics of the traced phase: counter differences of the
/// service's own `ServeMetrics`, timings from the `ha-obs` trace.
fn service_layers(
    before: &ServeMetrics,
    after: &ServeMetrics,
    trace: &ha_obs::Trace,
    report: &LoadReport,
    m: &mut Metrics,
) {
    let d = |f: fn(&ServeMetrics) -> u64| f(after).saturating_sub(f(before)) as f64;
    let wait = trace.metrics.histogram("serve.queue_wait_ns");
    m.set("service.queue.wait_us_p50", micros(wait.quantile(0.5)));
    m.set("service.queue.wait_us_p99", micros(wait.quantile(0.99)));
    let batches = d(|s| s.batches_formed);
    m.set("service.queue.batches", batches);
    let executed = d(|s| s.cache_misses);
    m.set(
        "service.queue.mean_batch",
        if batches > 0.0 {
            executed / batches
        } else {
            0.0
        },
    );
    m.set("service.queue.rejected", d(|s| s.rejected));
    m.set("service.queue.shed", d(|s| s.deadline_shed));
    let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
    m.set(
        "service.cache.hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    m.set("service.cache.evictions", d(|s| s.cache_evictions));
    m.set(
        "service.cache.lookup_us",
        mean_span_us(trace, "serve.cache_lookup"),
    );
    let probe = trace.metrics.histogram("serve.shard_probe_ns");
    m.set(
        "service.exec.shard_probe_us_p50",
        micros(probe.quantile(0.5)),
    );
    m.set(
        "service.exec.shard_probe_us_p99",
        micros(probe.quantile(0.99)),
    );
    m.set(
        "service.exec.fan_out_self_us",
        mean(&selftime::self_times_us(trace, "exec.fan_out")),
    );
    m.set("service.gen.merges", d(|s| s.merges_completed));
    let merges_ms: Vec<f64> = span_us(trace, "serve.gen.merge")
        .iter()
        .map(|u| u / 1e3)
        .collect();
    m.set("service.gen.merge_ms_p50", quantile(&merges_ms, 0.5));
    m.set("service.gen.merge_ms_max", max(&merges_ms));
    m.set(
        "service.gen.swap_us_max",
        max(&span_us(trace, "serve.gen.swap")),
    );
    m.set("service.gen.merge_panics", d(|s| s.merge_panics));
    m.set("mapreduce.wal.appends", d(|s| s.wal_appends));
    let wal = span_us(trace, "serve.gen.wal_append");
    m.set("mapreduce.wal.append_us_p50", quantile(&wal, 0.5));
    m.set("mapreduce.wal.append_us_p99", quantile(&wal, 0.99));
    m.set("core.delta.ops_mean", mean(&report.delta_samples));
    m.set("core.delta.ops_max", max(&report.delta_samples));
}

/// Durations in µs of every span called `name`.
pub fn span_us(trace: &ha_obs::Trace, name: &str) -> Vec<f64> {
    trace
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| micros(s.duration()))
        .collect()
}

fn mean_span_us(trace: &ha_obs::Trace, name: &str) -> f64 {
    mean(&span_us(trace, name))
}

/// Read-only check: every select against a MIH oracle over the data, and
/// every kNN's distances against a linear scan.
fn check_read(
    spec: &ServeSpec,
    data: &[(BinaryCode, TupleId)],
    phases: &[(&Vec<Op>, LoadReport)],
) -> u64 {
    let oracle = MihIndex::build(spec.code_len, data.iter().cloned());
    let jobs: Vec<(&Op, &Answer)> = phases
        .iter()
        .flat_map(|(ops, r)| r.answers.iter().map(move |(i, a)| (&ops[*i], a)))
        .collect();
    let workers = nproc();
    let chunk = jobs.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                let oracle = &oracle;
                s.spawn(move || {
                    part.iter()
                        .filter(|(op, a)| !read_answer_ok(spec, data, oracle, op, a))
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker"))
            .sum()
    })
}

fn read_answer_ok(
    spec: &ServeSpec,
    data: &[(BinaryCode, TupleId)],
    oracle: &MihIndex,
    op: &Op,
    answer: &Answer,
) -> bool {
    match (op, answer) {
        (Op::Select(q), Answer::Ids(ids)) => {
            let mut want = oracle
                .search_with_distances(q, spec.h)
                .into_iter()
                .map(|(id, _)| id)
                .collect::<Vec<_>>();
            want.sort_unstable();
            let mut got = ids.clone();
            got.sort_unstable();
            got == want
        }
        (Op::Knn(q), Answer::Near(near)) => {
            knn_ok(q, K, near, data.iter().map(|(c, id)| (c, *id)), |id| {
                data.get(id as usize).map(|(c, _)| c.clone())
            })
        }
        _ => false,
    }
}

/// A kNN answer is right when it has `min(k, live)` entries, each entry's
/// distance is the true distance of its id, and the distances equal the
/// `k` smallest of a linear scan.
fn knn_ok<'a>(
    q: &BinaryCode,
    k: usize,
    near: &[(TupleId, u32)],
    live: impl Iterator<Item = (&'a BinaryCode, TupleId)>,
    code_of: impl Fn(TupleId) -> Option<BinaryCode>,
) -> bool {
    let mut all: Vec<u32> = live.map(|(c, _)| c.hamming(q)).collect();
    let kk = k.min(all.len());
    if near.len() != kk {
        return false;
    }
    if kk > 0 {
        all.select_nth_unstable(kk - 1);
    }
    let mut want: Vec<u32> = all[..kk].to_vec();
    want.sort_unstable();
    let mut got: Vec<u32> = near.iter().map(|&(_, d)| d).collect();
    got.sort_unstable();
    got == want
        && near
            .iter()
            .all(|&(id, d)| code_of(id).is_some_and(|c| c.hamming(q) == d))
}

/// Mixed check: every write acknowledged as expected, then, with the
/// service quiet, a sample of selects and kNNs against an oracle over the
/// acknowledged mutations.
fn check_mixed(
    serve: &HaServe,
    spec: &ServeSpec,
    inputs: &Inputs,
    phases: &[(&Vec<Op>, LoadReport)],
) -> u64 {
    let mut bad = 0u64;
    let mut live: HashMap<TupleId, BinaryCode> =
        inputs.data.iter().map(|(c, id)| (*id, c.clone())).collect();
    for (ops, r) in phases {
        for (i, a) in &r.answers {
            match (&ops[*i], a) {
                (Op::Insert(c, id), Answer::Inserted) => {
                    live.insert(*id, c.clone());
                }
                (Op::Delete(_, id), Answer::Deleted(true)) => {
                    live.remove(id);
                }
                (Op::Delete(..), _) | (Op::Insert(..), _) => bad += 1,
                _ => {}
            }
        }
    }
    let rows: Vec<(&BinaryCode, TupleId)> = live.iter().map(|(id, c)| (c, *id)).collect();
    for (i, q) in inputs.checks.iter().enumerate() {
        let ok = if i % 4 == 3 {
            match serve.knn(q, K) {
                Ok(near) => knn_ok(q, K, &near, rows.iter().copied(), |id| {
                    live.get(&id).cloned()
                }),
                Err(_) => false,
            }
        } else {
            let mut want: Vec<TupleId> = rows
                .iter()
                .filter(|(c, _)| c.hamming(q) <= spec.h)
                .map(|&(_, id)| id)
                .collect();
            want.sort_unstable();
            match serve.select(q, spec.h) {
                Ok(mut got) => {
                    got.sort_unstable();
                    got == want
                }
                Err(_) => false,
            }
        };
        if !ok {
            bad += 1;
        }
    }
    if serve.len() != live.len() {
        bad += 1;
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(spec: ServeSpec) -> ServeSpec {
        ServeSpec { n: 300, ..spec }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for spec in [tiny(READ_512), tiny(MIXED_64)] {
            let a = generate(&spec, 7, 0.05);
            let b = generate(&spec, 7, 0.05);
            let c = generate(&spec, 8, 0.05);
            assert_eq!(a.data, b.data, "{}", spec.name);
            assert_eq!(a.closed, b.closed, "{}", spec.name);
            assert_eq!(a.open, b.open, "{}", spec.name);
            assert_eq!(a.traced, b.traced, "{}", spec.name);
            assert_eq!(a.checks, b.checks, "{}", spec.name);
            assert_ne!(a.data, c.data, "{}", spec.name);
            assert_ne!(a.closed, c.closed, "{}", spec.name);
        }
    }

    #[test]
    fn read_queries_never_repeat_and_mixed_writes_stay_consistent() {
        let read = generate(&tiny(READ_512), 3, 0.05);
        let mut seen = HashSet::new();
        for op in read.closed.iter().chain(&read.open.0).chain(&read.traced.0) {
            match op {
                Op::Select(q) | Op::Knn(q) => assert!(seen.insert(q.clone()), "repeated query"),
                _ => panic!("read-only workload wrote"),
            }
        }
        let mixed = generate(&tiny(MIXED_64), 3, 0.05);
        let mut deleted = HashSet::new();
        let mut inserted = HashSet::new();
        for op in mixed
            .closed
            .iter()
            .chain(&mixed.open.0)
            .chain(&mixed.traced.0)
        {
            match op {
                Op::Delete(code, id) => {
                    assert!(
                        *id < 300 && deleted.insert(*id),
                        "each initial id deleted once"
                    );
                    assert_eq!(code, &mixed.data[*id as usize].0);
                }
                Op::Insert(_, id) => assert!(*id >= 300 && inserted.insert(*id), "fresh ids"),
                _ => {}
            }
        }
        assert!(!deleted.is_empty() && !inserted.is_empty());
    }
}
