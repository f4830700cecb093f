//! The `par` experiment — HA-Par query-time parallelism (no counterpart
//! figure in the paper; see docs/ARCHITECTURE.md "The search executor"
//! and docs/KERNELS.md "Runtime dispatch & prefetch tuning").
//!
//! Three tables, one per single-query HA-Par mechanism (the service's
//! kNN fan-out is measured end to end by the repository benchmark, see
//! EXPERIMENTS.md "HA-Par"):
//!
//! * **prefetch** — frontier software-prefetch hints on vs off, per
//!   code width. Pure hints: the identical column must always be yes.
//! * **kernel dispatch** — every kernel timed on the same workload,
//!   with the runtime probe's per-process pick marked.
//! * **scratch reuse** — a fresh `Scratch` allocation per query vs the
//!   thread-local reuse the convenience entry points now share (the
//!   EXPERIMENTS.md before/after row).
//!
//! Every cell is best-of-3: on a loaded or single-core host a single
//! sample is mostly scheduler noise.

use std::time::Duration;

use ha_bitcode::Kernel;
use ha_core::testkit::clustered_dataset;
use ha_core::{DynamicHaIndex, FreezePolicy};
use ha_store::Scratch;

use crate::{fmt_duration, print_table, query_workload, time_per_call, Scale};

const SAMPLES: usize = 3;

/// Runs all three HA-Par tables.
pub fn run(scale: &Scale) {
    prefetch_table(scale);
    kernel_dispatch_table(scale);
    scratch_reuse_table(scale);
}

fn best_of(samples: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..samples.max(1)).map(|_| f()).min().unwrap_or(Duration::MAX)
}

/// Frontier prefetch hints on vs off. The hint cannot change answers;
/// the ratio column records what the look-ahead bought on this host.
fn prefetch_table(scale: &Scale) {
    let mut rows = Vec::new();
    // Larger than the other tables on purpose: prefetch pays exactly
    // when the frontier walks more plane memory than the cache holds.
    for (code_len, base_n, clusters, spread, h, seed) in [
        (64usize, 120_000usize, 48usize, 4usize, 6u32, 9320u64),
        (512, 12_000, 24, 8, 60, 9321),
    ] {
        let n = scale.n(base_n);
        let data = clustered_dataset(n, code_len, clusters, spread, seed);
        let queries = query_workload(&data, scale.queries.min(64), seed + 1);
        let mut idx = DynamicHaIndex::build(data);
        idx.freeze_with(FreezePolicy::adaptive());
        let Some(flat) = idx.flat() else { continue };

        let timed = |distance: usize| {
            let view = flat.view().with_prefetch(distance);
            best_of(SAMPLES, || {
                let mut qi = 0usize;
                time_per_call(queries.len(), || {
                    std::hint::black_box(view.search(&queries[qi % queries.len()], h));
                    qi += 1;
                })
            })
        };
        // Interleaved best-of-9 (off/on alternating) so slow drift on a
        // shared host cannot systematically favour either side.
        let mut off = Duration::MAX;
        let mut on = Duration::MAX;
        for _ in 0..9 {
            off = off.min(timed(0));
            on = on.min(timed(flat.view().prefetch().max(1)));
        }
        let identical = queries.iter().all(|q| {
            flat.view().with_prefetch(0).search(q, h)
                == flat.view().search(q, h)
        });
        rows.push(vec![
            format!("{code_len}"),
            format!("{n}"),
            format!("{h}"),
            fmt_duration(off),
            fmt_duration(on),
            format!("{:.2}x", off.as_secs_f64() / on.as_secs_f64().max(1e-12)),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    print_table(
        "HA-Par frontier prefetch: hints off vs on (frozen H-Search, adaptive layout)",
        &["bits", "n", "h", "prefetch off", "prefetch on", "on speedup", "identical"],
        &rows,
    );
}

/// Every kernel on the same frozen workload, with the runtime probe's
/// pick marked — the dispatch decision the process makes once at start.
fn kernel_dispatch_table(scale: &Scale) {
    let code_len = 64;
    let n = scale.n(30_000);
    let data = clustered_dataset(n, code_len, 24, 4, 9330);
    let queries = query_workload(&data, scale.queries.min(64), 9331);
    let mut idx = DynamicHaIndex::build(data);
    idx.freeze_with(FreezePolicy::adaptive());
    let Some(flat) = idx.flat() else {
        println!("par: freeze produced no snapshot");
        return;
    };
    let h = 6u32;
    let detected = Kernel::detect();

    let mut rows = Vec::new();
    for kernel in Kernel::ALL {
        let view = flat.view().with_kernel(kernel);
        let per = best_of(SAMPLES, || {
            let mut qi = 0usize;
            time_per_call(queries.len(), || {
                std::hint::black_box(view.search(&queries[qi % queries.len()], h));
                qi += 1;
            })
        });
        rows.push(vec![
            kernel.name().to_string(),
            fmt_duration(per),
            if kernel == detected { "<- detected" } else { "" }.to_string(),
        ]);
    }
    print_table(
        &format!(
            "HA-Par runtime kernel dispatch: per-kernel H-Search \
             (bits={code_len}, n={n}, h={h}; Kernel::detect() = {})",
            detected.name()
        ),
        &["kernel", "per query", "dispatch"],
        &rows,
    );
}

/// Fresh traversal buffers per query vs the thread-local reuse the
/// convenience entry points share — the allocation the HA-Par PR
/// removed from the steady-state query path.
fn scratch_reuse_table(scale: &Scale) {
    let mut rows = Vec::new();
    for (code_len, base_n, clusters, spread, h, seed) in [
        (64usize, 30_000usize, 24usize, 4usize, 6u32, 9340u64),
        (512, 6_000, 12, 8, 60, 9341),
    ] {
        let n = scale.n(base_n);
        let data = clustered_dataset(n, code_len, clusters, spread, seed);
        let queries = query_workload(&data, scale.queries.min(64), seed + 1);
        let mut idx = DynamicHaIndex::build(data);
        idx.freeze_with(FreezePolicy::adaptive());
        let Some(flat) = idx.flat() else { continue };
        let view = flat.view();

        // Before: the old shape — every query allocates its frontier
        // and distance buffers from scratch. After: `search` borrows
        // the thread-local scratch. Interleaved best-of-5 rounds.
        let mut fresh = Duration::MAX;
        let mut reused = Duration::MAX;
        for _ in 0..5 {
            fresh = fresh.min({
                let mut qi = 0usize;
                time_per_call(queries.len(), || {
                    let mut scratch = Scratch::default();
                    let mut out = Vec::new();
                    view.search_into(&queries[qi % queries.len()], h, &mut scratch, &mut out);
                    std::hint::black_box(out);
                    qi += 1;
                })
            });
            reused = reused.min({
                let mut qi = 0usize;
                time_per_call(queries.len(), || {
                    std::hint::black_box(view.search(&queries[qi % queries.len()], h));
                    qi += 1;
                })
            });
        }
        rows.push(vec![
            format!("{code_len}"),
            format!("{n}"),
            format!("{h}"),
            fmt_duration(fresh),
            fmt_duration(reused),
            format!("{:.2}x", fresh.as_secs_f64() / reused.as_secs_f64().max(1e-12)),
        ]);
    }
    print_table(
        "HA-Par scratch reuse: fresh buffers per query vs thread-local reuse",
        &["bits", "n", "h", "fresh alloc", "reused", "speedup"],
        &rows,
    );
}
