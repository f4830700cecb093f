//! The metric catalog and the one-line JSON result.
//!
//! Every metric the benchmark can print is declared here with its unit.
//! A run with tracing off prints exactly [`END_TO_END`]; a traced run
//! prints exactly [`PER_LAYER`]. Both lists must match `BENCHMARK.json`
//! (a unit test checks this), and a run that failed to measure a declared
//! metric refuses to print a result at all.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with tracing off. Each
/// one applies to all three workloads; see `README.md` for the
/// per-workload definition.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("capacity_per_s", "1/s"),
    ("bytes_per_item", "B"),
];

/// Per-layer metrics, printed by every workload in a traced run. A layer
/// a workload leaves idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The load generator and the end-to-end breakdown by request class.
    ("bench.gen.attempted", "count"),
    ("bench.gen.late_us_p99", "us"),
    ("bench.failed_frac", "ratio"),
    ("bench.select_p50_us", "us"),
    ("bench.select_p99_us", "us"),
    ("bench.knn_p50_us", "us"),
    ("bench.knn_p99_us", "us"),
    ("bench.write_p50_us", "us"),
    ("bench.write_p99_us", "us"),
    ("bench.capacity_qps", "1/s"),
    ("bench.join_s", "s"),
    ("bench.shuffle_mb", "MB"),
    ("bench.untraced_p50_us", "us"),
    ("bench.traced_p50_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    // ha-service: admission queue, result cache, shard fan-out, generations.
    ("service.queue.wait_us_p50", "us"),
    ("service.queue.wait_us_p99", "us"),
    ("service.queue.batches", "count"),
    ("service.queue.mean_batch", "count"),
    ("service.queue.rejected", "count"),
    ("service.queue.shed", "count"),
    ("service.cache.hit_rate", "ratio"),
    ("service.cache.evictions", "count"),
    ("service.cache.lookup_us", "us"),
    ("service.exec.shard_probe_us_p50", "us"),
    ("service.exec.shard_probe_us_p99", "us"),
    ("service.exec.fan_out_self_us", "us"),
    ("service.gen.merges", "count"),
    ("service.gen.merge_ms_p50", "ms"),
    ("service.gen.merge_ms_max", "ms"),
    ("service.gen.swap_us_max", "us"),
    ("service.gen.merge_panics", "count"),
    // ha-core: planner, HA-Flat, MIH, delta overlay, memory.
    ("core.planner.backend.ha-flat", "count"),
    ("core.planner.backend.mih", "count"),
    ("core.planner.backend.arena", "count"),
    ("core.planner.backend.linear", "count"),
    ("core.planner.route_ns", "ns"),
    ("core.flat.search_us", "us"),
    ("core.flat.nodes_visited_per_query", "count"),
    ("core.mih.search_us", "us"),
    ("core.mih.probes_per_query", "count"),
    ("core.delta.ops_mean", "count"),
    ("core.delta.ops_max", "count"),
    ("core.memory.arena_B_per_code", "B"),
    ("core.memory.flat_B_per_code", "B"),
    ("core.memory.mih_B_per_code", "B"),
    // ha-bitcode kernels against a plain XOR+popcount stream.
    ("bitcode.kernels.ns_per_word", "ns/word"),
    ("bitcode.kernels.ceiling_ns_per_word", "ns/word"),
    ("bitcode.kernels.pct_of_ceiling", "%"),
    // ha-mapreduce: the serving WAL and the job runtime.
    ("mapreduce.wal.appends", "count"),
    ("mapreduce.wal.append_us_p50", "us"),
    ("mapreduce.wal.append_us_p99", "us"),
    ("mapreduce.job.map_task_ms_p50", "ms"),
    ("mapreduce.job.map_task_ms_max", "ms"),
    ("mapreduce.job.reduce_task_ms_p50", "ms"),
    ("mapreduce.job.reduce_task_ms_max", "ms"),
    ("mapreduce.job.reduce_skew", "ratio"),
    ("mapreduce.job.shuffle_s", "s"),
    ("mapreduce.job.sort_s", "s"),
    ("mapreduce.job.attempts", "count"),
    ("mapreduce.job.retries", "count"),
    // ha-distributed: the three pipeline phases.
    ("distributed.preprocess.sampling_s", "s"),
    ("distributed.preprocess.hash_learning_s", "s"),
    ("distributed.global_index.build_s", "s"),
    ("distributed.global_index.broadcast_bytes", "B"),
    ("distributed.join.probe_s", "s"),
    ("distributed.join.pairs", "count"),
    // Self-time share of the workload's end-to-end time, per layer.
    ("bench.gen.self_share", "ratio"),
    ("service.queue.self_share", "ratio"),
    ("service.batch.self_share", "ratio"),
    ("service.cache.self_share", "ratio"),
    ("service.exec.self_share", "ratio"),
    ("service.knn.self_share", "ratio"),
    ("core.search.self_share", "ratio"),
    ("mapreduce.wal.self_share", "ratio"),
    ("distributed.pipeline.self_share", "ratio"),
    ("distributed.preprocess.self_share", "ratio"),
    ("distributed.global_index.self_share", "ratio"),
    ("distributed.join.self_share", "ratio"),
    ("mapreduce.tasks.self_share", "ratio"),
    ("mapreduce.spill.self_share", "ratio"),
    ("mapreduce.shuffle.self_share", "ratio"),
    ("mapreduce.sort.self_share", "ratio"),
    ("bench.unattributed.self_share", "ratio"),
];

/// Metric values collected during one run, keyed by catalog name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`, which must be declared in a catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the result object for `catalog`, or explains which metric
    /// is missing or not a finite number.
    pub fn render(
        &self,
        catalog: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not a finite number ({v})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        ))
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name: starts with a letter or digit, at most 64 characters
    /// of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit: at most 16 characters of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section end")];
        let field = |obj: &str, key: &str| -> String {
            let k = obj.find(&format!("\"{key}\"")).expect(key);
            let rest = &obj[k + key.len() + 2..];
            let open = rest.find('"').expect("value") + 1;
            let close = rest[open..].find('"').expect("value end") + open;
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn catalog(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), catalog(END_TO_END));
        assert_eq!(declared("per_layer"), catalog(PER_LAYER));
    }

    #[test]
    fn names_and_units_use_the_allowed_charset_once() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(!valid_name("select p50"));
        assert!(!valid_name("µs"));
        assert!(!valid_unit("µs"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn render_requires_every_declared_metric() {
        let mut m = Metrics::default();
        for &(name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = m.render(END_TO_END, true, 10, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(
            m.render(PER_LAYER, true, 10, 0).is_err(),
            "per-layer metrics missing"
        );
        m.set("setup_s", f64::NAN);
        assert!(m.render(END_TO_END, true, 10, 0).is_err());
    }
}
