//! Per-layer replay: the traced run's queries, re-issued against each
//! inner layer's public functions on per-shard replicas of the service's
//! generation 0, with the benchmark's own `ha-obs` spans around the
//! calls. The replicas are partitioned with `HaServe::shard_of` and
//! built with the service's plan configuration, so they hold exactly the
//! rows and routing inputs the service's shards were built from.

use std::hint::black_box;

use ha_bitcode::{masked_distance_group, BinaryCode, GroupLayout};
use ha_core::planner::{PlanConfig, PlannedIndex};
use ha_core::{Backend, FreezePolicy, HammingIndex, TupleId};
use ha_service::{HaServe, ServeConfig};
use ha_store::FlatParts;

use crate::load::Op;
use crate::report::Metrics;

/// Queries whose traversal is traced node by node (the trace renders
/// every node, so it is far slower than a search).
const TRACED_QUERIES: usize = 50;
/// Queries whose kernel sweep is timed against the ceiling stream.
const KERNEL_QUERIES: usize = 200;
/// Routing decisions per span (one decision is far below span cost).
const ROUTES_PER_SPAN: usize = 100;

/// The plan configuration `HaServe` builds every shard with under `cfg`
/// (adaptive layouts, runtime-detected kernel, default prefetch).
fn plan_config(cfg: &ServeConfig) -> PlanConfig {
    let mut freeze = FreezePolicy::adaptive();
    if let Some(kernel) = cfg.exec.kernel {
        freeze = freeze.with_kernel(kernel);
    }
    if let Some(distance) = cfg.exec.prefetch {
        freeze = freeze.prefetch_distance(distance);
    }
    PlanConfig {
        dha: cfg.dha.clone(),
        mih_chunks: None,
        model: cfg.model.clone(),
        freeze,
    }
}

/// Every sibling group of a snapshot: layout, pattern words, group size.
fn groups<'a>(parts: &FlatParts<'a>) -> Vec<(GroupLayout, &'a [u64], usize)> {
    let w = parts.words;
    let layout =
        |gi: usize| GroupLayout::from_flag(parts.group_layout.get(gi).copied().unwrap_or(0));
    let mut out = vec![(
        layout(0),
        &parts.planes[..2 * w * parts.root_count],
        parts.root_count,
    )];
    for p in 0..parts.child_start.len().saturating_sub(1) {
        let lo = parts.child_start[p] as usize;
        let g = parts.child_start[p + 1] as usize - lo;
        if g > 0 {
            let base = 2 * w * (parts.root_count + lo);
            out.push((layout(p + 1), &parts.planes[base..base + 2 * w * g], g));
        }
    }
    out
}

/// The ceiling: one XOR, AND and popcount per pair of words, streamed
/// over the same pattern words the kernel sweeps, with no pruning,
/// layout or per-sibling bookkeeping.
fn ceiling_stream(q: u64, planes: &[u64]) -> u64 {
    planes
        .chunks_exact(2)
        .map(|pair| u64::from(((q ^ pair[0]) & pair[1]).count_ones()))
        .sum()
}

/// Replays up to `queries` selects of `ops` and records the planner,
/// HA-Flat, kernel, MIH and memory metrics.
pub fn serve_layers(
    cfg: &ServeConfig,
    serve: &HaServe,
    h: u32,
    data: &[(BinaryCode, TupleId)],
    ops: &[Op],
    queries: usize,
    m: &mut Metrics,
) {
    let code_len = serve.code_len();
    let mut parts: Vec<Vec<(BinaryCode, TupleId)>> = vec![Vec::new(); serve.shard_count()];
    for (c, id) in data {
        parts[serve.shard_of(c)].push((c.clone(), *id));
    }
    let replicas: Vec<PlannedIndex> = parts
        .into_iter()
        .map(|p| PlannedIndex::build_with(code_len, p, plan_config(cfg)))
        .collect();
    let qs: Vec<&BinaryCode> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Select(q) => Some(q),
            _ => None,
        })
        .take(queries)
        .collect();

    ha_obs::reset();
    let mut routes = [0u64; 4];
    let mut nodes = 0usize;
    let mut swept_words = 0usize;
    for (qi, q) in qs.iter().enumerate() {
        for r in &replicas {
            let backend = {
                let _s = ha_obs::span("bench.replay.route");
                for _ in 1..ROUTES_PER_SPAN {
                    black_box(r.backend_for(black_box(h)));
                }
                r.backend_for(h)
            };
            routes[Backend::ALL
                .iter()
                .position(|b| *b == backend)
                .expect("known backend")] += 1;
            if let Some(flat) = r.dha().flat() {
                let _s = ha_obs::span("bench.replay.flat");
                black_box(flat.search(q, h));
            }
            {
                let _s = ha_obs::span("bench.replay.mih");
                black_box(r.mih().search(q, h));
            }
            if qi < TRACED_QUERIES {
                let (_, steps) = r.dha().search_trace(q, h);
                nodes += steps.iter().map(|s| s.events.len()).sum::<usize>();
            }
            if qi < KERNEL_QUERIES {
                if let Some(flat) = r.dha().flat() {
                    let view = flat.view();
                    let kernel = view.kernel();
                    let gs = groups(view.parts());
                    let words: usize = gs.iter().map(|(_, p, _)| p.len()).sum();
                    let mut acc: Vec<u32> = Vec::new();
                    {
                        let _s = ha_obs::span("bench.replay.kernel");
                        for &(layout, planes, g) in &gs {
                            acc.clear();
                            acc.resize(g, 0);
                            masked_distance_group(
                                kernel,
                                layout,
                                q.words(),
                                planes,
                                g,
                                u32::MAX,
                                &mut acc,
                            );
                            black_box(&acc);
                        }
                    }
                    {
                        let _s = ha_obs::span("bench.replay.ceiling");
                        for &(_, planes, _) in &gs {
                            black_box(ceiling_stream(q.words()[0], black_box(planes)));
                        }
                    }
                    swept_words += words;
                }
            }
        }
    }
    let trace = ha_obs::take_trace();
    ha_obs::disable();

    let nq = qs.len().max(1) as f64;
    let ns = |name: &str| trace.total_named(name).as_nanos() as f64;
    // Counts in `Backend::ALL` order.
    for (count, name) in routes.iter().zip([
        "core.planner.backend.ha-flat",
        "core.planner.backend.mih",
        "core.planner.backend.arena",
        "core.planner.backend.linear",
    ]) {
        m.set(name, *count as f64);
    }
    let decisions = (routes.iter().sum::<u64>() as usize * ROUTES_PER_SPAN).max(1) as f64;
    m.set(
        "core.planner.route_ns",
        ns("bench.replay.route") / decisions,
    );
    m.set("core.flat.search_us", ns("bench.replay.flat") / 1e3 / nq);
    m.set(
        "core.flat.nodes_visited_per_query",
        nodes as f64 / qs.len().clamp(1, TRACED_QUERIES) as f64,
    );
    m.set("core.mih.search_us", ns("bench.replay.mih") / 1e3 / nq);
    m.set(
        "core.mih.probes_per_query",
        replicas
            .iter()
            .map(|r| r.mih().probe_estimate(h) as f64)
            .sum(),
    );
    let kernel_ns = ns("bench.replay.kernel") / swept_words.max(1) as f64;
    let ceiling_ns = ns("bench.replay.ceiling") / swept_words.max(1) as f64;
    m.set("bitcode.kernels.ns_per_word", kernel_ns);
    m.set("bitcode.kernels.ceiling_ns_per_word", ceiling_ns);
    m.set(
        "bitcode.kernels.pct_of_ceiling",
        if kernel_ns > 0.0 {
            ceiling_ns / kernel_ns * 100.0
        } else {
            0.0
        },
    );
    let n = data.len().max(1) as f64;
    let per_code =
        |f: &dyn Fn(&PlannedIndex) -> usize| replicas.iter().map(f).sum::<usize>() as f64 / n;
    m.set(
        "core.memory.arena_B_per_code",
        per_code(&|r| r.dha().memory_report().total()),
    );
    m.set(
        "core.memory.flat_B_per_code",
        per_code(&|r| r.dha().flat().map_or(0, |f| f.memory_bytes())),
    );
    m.set(
        "core.memory.mih_B_per_code",
        per_code(&|r| r.mih().memory_report().total()),
    );
}
