//! HA-Par criterion microbenchmark (see the `par` experiment for the
//! tabled sweep and BENCH_par.json for a captured run):
//! `par_search_prefetch` — 512-bit frozen-view H-Search with frontier
//! prefetch hints off vs at the default look-ahead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ha_core::testkit::clustered_dataset;
use ha_core::{DynamicHaIndex, FreezePolicy};

fn bench_prefetch(c: &mut Criterion) {
    let code_len = 512;
    let data = clustered_dataset(4_000, code_len, 12, 8, 13_020);
    let queries: Vec<_> = data.iter().step_by(100).map(|(c, _)| c.clone()).collect();
    let mut idx = DynamicHaIndex::build(data);
    idx.freeze_with(FreezePolicy::adaptive());
    let flat = idx.flat().expect("frozen").clone();

    let mut g = c.benchmark_group("par_search_prefetch");
    for (label, distance) in [("off", 0usize), ("on", flat.view().prefetch().max(1))] {
        let view = flat.view().with_prefetch(distance);
        g.bench_function(BenchmarkId::new("prefetch", label), |b| {
            let mut qi = 0usize;
            b.iter(|| {
                std::hint::black_box(view.search(&queries[qi % queries.len()], 60));
                qi += 1;
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_prefetch
}
criterion_main!(benches);
