//! Layer self time from an `ha-obs` trace.
//!
//! A span's self time is its duration minus the part of it covered by its
//! child spans. Sibling spans that ran concurrently (parallel shard
//! probes, parallel MapReduce tasks) share wall time, so each one's
//! contribution is scaled by `union / sum` of the siblings' durations;
//! that keeps every share a share of wall time on the request's path.
//! Shard probes run on the fan-out pool's threads with no parent link,
//! so they are adopted by the `exec.fan_out` span that contains them.

use std::collections::HashMap;

use ha_obs::{SpanId, SpanRecord, Trace};

use crate::report::Metrics;
use crate::stats::union_len;

/// Spans as a forest, with orphaned pool-thread spans re-attached.
struct Forest<'a> {
    spans: &'a [SpanRecord],
    children: HashMap<SpanId, Vec<usize>>,
    roots: Vec<usize>,
}

impl<'a> Forest<'a> {
    /// `adopt` lists `(child name, parent name)`: a parentless span of the
    /// child name becomes a child of the latest-starting span of the
    /// parent name whose interval contains it.
    fn new(spans: &'a [SpanRecord], adopt: &[(&str, &str)]) -> Forest<'a> {
        let mut children: HashMap<SpanId, Vec<usize>> = HashMap::new();
        let mut roots = Vec::new();
        let mut hosts: HashMap<&str, Vec<usize>> = HashMap::new();
        for &(_, parent) in adopt {
            let mut v: Vec<usize> = (0..spans.len())
                .filter(|&i| spans[i].name == parent)
                .collect();
            v.sort_by_key(|&i| spans[i].start_ns);
            hosts.insert(parent, v);
        }
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.or_else(|| {
                let &(_, host) = adopt.iter().find(|(c, _)| *c == s.name)?;
                let cands = &hosts[host];
                let upto = cands.partition_point(|&j| spans[j].start_ns <= s.start_ns);
                cands[..upto]
                    .iter()
                    .rev()
                    .find(|&&j| spans[j].end_ns >= s.end_ns)
                    .map(|&j| spans[j].id)
            });
            match parent {
                Some(p) => children.entry(p).or_default().push(i),
                None => roots.push(i),
            }
        }
        Forest {
            spans,
            children,
            roots,
        }
    }

    /// Adds `weight ×` the wall-scaled self time of span `i` and its
    /// subtree to `acc`, keyed by `layer(name, inherited layer)`.
    fn walk(
        &self,
        i: usize,
        scale: f64,
        weight: f64,
        inherited: &'static str,
        layer: &dyn Fn(&str, &'static str) -> &'static str,
        acc: &mut HashMap<&'static str, f64>,
    ) {
        let s = &self.spans[i];
        let here = layer(s.name, inherited);
        let kids = self.children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let mut clipped: Vec<(u64, u64)> = kids
            .iter()
            .map(|&k| {
                let c = &self.spans[k];
                (
                    c.start_ns.max(s.start_ns),
                    c.end_ns.min(s.end_ns).max(c.start_ns.max(s.start_ns)),
                )
            })
            .collect();
        let covered = union_len(&mut clipped);
        let self_ns = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64;
        *acc.entry(here).or_default() += weight * scale * self_ns;
        let sum: u64 = kids
            .iter()
            .map(|&k| self.spans[k].end_ns - self.spans[k].start_ns)
            .sum();
        let mut raw: Vec<(u64, u64)> = kids
            .iter()
            .map(|&k| (self.spans[k].start_ns, self.spans[k].end_ns))
            .collect();
        let kid_scale = if sum > 0 {
            union_len(&mut raw) as f64 / sum as f64
        } else {
            1.0
        };
        for &k in kids {
            self.walk(k, scale * kid_scale, weight, here, layer, acc);
        }
    }
}

/// Self time in µs of every span called `name` (children adopted as in
/// the share computation).
pub fn self_times_us(trace: &Trace, name: &str) -> Vec<f64> {
    let f = Forest::new(&trace.spans, SERVE_ADOPT);
    (0..trace.spans.len())
        .filter(|&i| trace.spans[i].name == name)
        .map(|i| {
            let s = &trace.spans[i];
            let mut kids: Vec<(u64, u64)> = f
                .children
                .get(&s.id)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|&k| {
                    (
                        f.spans[k].start_ns.max(s.start_ns),
                        f.spans[k].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| a < b)
                .collect();
            (s.end_ns - s.start_ns).saturating_sub(union_len(&mut kids)) as f64 / 1e3
        })
        .collect()
}

const SERVE_ADOPT: &[(&str, &str)] = &[("serve.shard_probe", "exec.fan_out")];

fn serve_layer(name: &str, _inherited: &'static str) -> &'static str {
    match name {
        "serve.batch" => "service.batch",
        "serve.cache_lookup" => "service.cache",
        "serve.exec" | "exec.fan_out" => "service.exec",
        "serve.shard_probe" => "core.search",
        "serve.knn" => "service.knn",
        "serve.gen.wal_append" => "mapreduce.wal",
        _ => "bench.unattributed",
    }
}

fn join_layer(name: &str, inherited: &'static str) -> &'static str {
    match name {
        "pipeline.mrha_join" => "distributed.pipeline",
        "pipeline.preprocess" => "distributed.preprocess",
        "pipeline.index_build" => "distributed.global_index",
        "pipeline.join" => "distributed.join",
        // User map and reduce functions belong to the pipeline phase
        // that runs them (H-Build in phase 2, probing in phase 3).
        "mr.map" | "mr.reduce" => phase_of(inherited),
        "mr.spill" => "mapreduce.spill",
        "mr.shuffle" => "mapreduce.shuffle",
        "mr.sort" => "mapreduce.sort",
        "mr.job" | "mr.map_phase" | "mr.reduce_phase" | "mr.map_task" | "mr.reduce_task" => {
            // Runtime spans keep the phase for their descendants by
            // encoding it in the layer they inherit.
            match inherited {
                "distributed.preprocess" | "mapreduce.tasks@preprocess" => {
                    "mapreduce.tasks@preprocess"
                }
                "distributed.global_index" | "mapreduce.tasks@global_index" => {
                    "mapreduce.tasks@global_index"
                }
                "distributed.join" | "mapreduce.tasks@join" => "mapreduce.tasks@join",
                _ => "mapreduce.tasks",
            }
        }
        _ => "bench.unattributed",
    }
}

/// The pipeline phase a span's parent layer belongs to: the phase itself,
/// or the phase a tagged runtime layer was entered from.
fn phase_of(parent: &'static str) -> &'static str {
    match parent {
        "distributed.preprocess" | "mapreduce.tasks@preprocess" => "distributed.preprocess",
        "distributed.global_index" | "mapreduce.tasks@global_index" => "distributed.global_index",
        "distributed.join" | "mapreduce.tasks@join" => "distributed.join",
        _ => "bench.unattributed",
    }
}

/// Folds phase-tagged runtime layers back into `mapreduce.tasks`.
fn untag(layer: &str) -> &str {
    layer.split('@').next().unwrap_or(layer)
}

/// Serving self-time shares of the total client-observed latency
/// `total_ns`: request-path spans (select batches weighted by batch size,
/// kNNs, WAL appends), the generator's lateness `late_ns`, and the rest —
/// queue wait and hand-off — as `service.queue`.
pub fn serve_shares(trace: &Trace, total_ns: f64, late_ns: f64, m: &mut Metrics) {
    let f = Forest::new(&trace.spans, SERVE_ADOPT);
    let mut acc: HashMap<&'static str, f64> = HashMap::new();
    for &r in &f.roots {
        let s = &f.spans[r];
        let weight = match s.name {
            "serve.batch" => batch_size(&s.label),
            "serve.knn" | "serve.gen.wal_append" => 1.0,
            _ => continue,
        };
        f.walk(r, 1.0, weight, "bench.unattributed", &serve_layer, &mut acc);
    }
    let total = total_ns.max(1.0);
    let share = |l: &str| acc.get(l).copied().unwrap_or(0.0) / total;
    let layers = [
        "service.batch",
        "service.cache",
        "service.exec",
        "core.search",
        "service.knn",
        "mapreduce.wal",
        "bench.unattributed",
    ];
    let attributed: f64 = layers.iter().map(|l| share(l)).sum::<f64>() + late_ns / total;
    for l in layers {
        m.set(share_name(l), share(l));
    }
    m.set("bench.gen.self_share", late_ns / total);
    m.set("service.queue.self_share", (1.0 - attributed).max(0.0));
}

/// MapReduce-join self-time shares of the total job wall time.
pub fn join_shares(trace: &Trace, m: &mut Metrics) {
    let f = Forest::new(&trace.spans, &[]);
    let mut acc: HashMap<&'static str, f64> = HashMap::new();
    let mut total = 0.0;
    for &r in &f.roots {
        let s = &f.spans[r];
        if s.name == "pipeline.mrha_join" {
            total += (s.end_ns - s.start_ns) as f64;
            f.walk(r, 1.0, 1.0, "bench.unattributed", &join_layer, &mut acc);
        }
    }
    let mut folded: HashMap<&str, f64> = HashMap::new();
    for (l, v) in acc {
        *folded.entry(untag(l)).or_default() += v;
    }
    let total = if total > 0.0 { total } else { 1.0 };
    let layers = [
        "distributed.pipeline",
        "distributed.preprocess",
        "distributed.global_index",
        "distributed.join",
        "mapreduce.tasks",
        "mapreduce.spill",
        "mapreduce.shuffle",
        "mapreduce.sort",
    ];
    let mut attributed = 0.0;
    for l in layers {
        let v = folded.get(l).copied().unwrap_or(0.0) / total;
        attributed += v;
        m.set(share_name(l), v);
    }
    m.set("bench.unattributed.self_share", (1.0 - attributed).max(0.0));
}

/// `<layer>.self_share` as a catalog name.
fn share_name(layer: &str) -> &'static str {
    crate::report::PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| n.strip_suffix(".self_share") == Some(layer))
        .unwrap_or_else(|| panic!("no share metric for layer {layer}"))
}

/// Selects answered by one batch span (`"h=6 size=12"` → 12).
fn batch_size(label: &str) -> f64 {
    label
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("size="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            label: String::new(),
            start_ns: start,
            end_ns: end,
            thread: 0,
        }
    }

    #[test]
    fn self_time_scales_concurrent_children_to_wall_time() {
        // Root 0..100 with two overlapping children 10..30 and 20..50:
        // root self = 100 - 40 covered; the children share 40 ns of wall
        // time in proportion to their durations.
        let spans = vec![
            span(1, None, "pipeline.mrha_join", 0, 100),
            span(2, Some(1), "mr.shuffle", 10, 30),
            span(3, Some(1), "mr.sort", 20, 50),
        ];
        let f = Forest::new(&spans, &[]);
        let mut acc = HashMap::new();
        f.walk(0, 1.0, 1.0, "bench.unattributed", &join_layer, &mut acc);
        assert_eq!(acc["distributed.pipeline"], 60.0);
        assert!((acc["mapreduce.shuffle"] - 16.0).abs() < 1e-9);
        assert!((acc["mapreduce.sort"] - 24.0).abs() < 1e-9);
        let total: f64 = acc.values().sum();
        assert!((total - 100.0).abs() < 1e-9, "shares add up to the root");
    }

    #[test]
    fn orphan_probes_are_adopted_by_the_containing_fan_out() {
        let spans = vec![
            span(1, None, "serve.batch", 0, 100),
            span(2, Some(1), "serve.exec", 10, 90),
            span(3, Some(2), "exec.fan_out", 20, 80),
            span(4, None, "serve.shard_probe", 30, 60),
        ];
        let f = Forest::new(&spans, SERVE_ADOPT);
        assert_eq!(f.roots, vec![0], "the probe is no longer a root");
        let mut acc = HashMap::new();
        f.walk(0, 1.0, 2.0, "bench.unattributed", &serve_layer, &mut acc);
        assert_eq!(acc["core.search"], 60.0, "weighted by batch size 2");
        assert_eq!(acc["service.exec"], 2.0 * (20.0 + 30.0));
        assert_eq!(acc["service.batch"], 40.0);
    }

    #[test]
    fn user_functions_belong_to_their_pipeline_phase() {
        let spans = vec![
            span(1, None, "pipeline.mrha_join", 0, 100),
            span(2, Some(1), "pipeline.index_build", 0, 100),
            span(3, Some(2), "mr.job", 0, 100),
            span(4, Some(3), "mr.reduce_task", 0, 100),
            span(5, Some(4), "mr.reduce", 10, 60),
        ];
        let f = Forest::new(&spans, &[]);
        let mut acc = HashMap::new();
        f.walk(0, 1.0, 1.0, "bench.unattributed", &join_layer, &mut acc);
        assert_eq!(acc["distributed.global_index"], 50.0);
        assert_eq!(acc["mapreduce.tasks@global_index"], 50.0);
        assert_eq!(batch_size("h=6 size=12"), 12.0);
    }
}
