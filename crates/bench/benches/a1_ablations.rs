//! A1 — ablations of the reproduction's own design choices:
//!
//! * **database index**: equality extraction rules with and without a
//!   secondary index on the filtered column (the minidb planner uses
//!   conjunctive-equality index lookups);
//! * **mediator worker count**: 1 → 16 workers over a fixed 32-source
//!   deployment. NB: wall-clock here shows only the threading overhead
//!   (sources are in-process; simulated latency does not sleep) — the
//!   latency-bound knee appears in the *simulated* makespans printed by
//!   `cargo run --bin experiments` (E3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use s2s_bench::{catalog_db, deploy_sharded, records};
use s2s_core::extract::Strategy;
use s2s_netsim::{CostModel, FailureModel};

fn bench_index(c: &mut Criterion) {
    let recs = records(5_000, 21);
    let plain = catalog_db(&recs);
    let mut indexed = catalog_db(&recs);
    indexed.execute("CREATE INDEX ON watches (brand)").unwrap();

    let q = "SELECT price FROM watches WHERE brand = 'Seiko'";
    let expect = plain.query(q).unwrap().len();
    assert_eq!(indexed.query(q).unwrap().len(), expect);

    let mut group = c.benchmark_group("a1_index_ablation");
    group.bench_function("scan", |b| b.iter(|| plain.query(q).unwrap().len()));
    group.bench_function("indexed", |b| b.iter(|| indexed.query(q).unwrap().len()));
    group.finish();
}

fn bench_workers(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_worker_sweep");
    group.sample_size(10);
    for &workers in &[1usize, 2, 4, 8, 16] {
        let s2s = deploy_sharded(
            32,
            10,
            CostModel::lan(),
            FailureModel::reliable(),
            Strategy::Parallel { workers },
        );
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| {
                let o = s2s.query("SELECT watch").unwrap();
                assert_eq!(o.individuals().len(), 320);
                o.stats.simulated
            })
        });
    }
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    use s2s_bench::{catalog_db, deploy_mixed, map_db, ontology, records};
    use s2s_core::source::Connection;
    use s2s_core::S2s;
    use std::sync::Arc;

    // Slice-cache (materialized views) ablation on repeat queries.
    let _ = deploy_mixed(1, 0); // keep imports honest for future edits

    let build = |cached: bool| {
        let recs = records(500, 33);
        let mut s2s = S2s::new(ontology());
        if cached {
            s2s = s2s.with_views();
        }
        s2s.register_source("DB", Connection::Database { db: Arc::new(catalog_db(&recs)) })
            .unwrap();
        map_db(&mut s2s, "DB");
        // Materialize the views with one query.
        let _ = s2s.query("SELECT watch").unwrap();
        s2s
    };

    let mut group = c.benchmark_group("a1_cache_ablation");
    group.sample_size(10);
    let cold = build(false);
    group.bench_function("no_cache_repeat_query", |b| {
        b.iter(|| cold.query("SELECT watch").unwrap().individuals().len())
    });
    let warm = build(true);
    group.bench_function("cached_repeat_query", |b| {
        b.iter(|| {
            let o = warm.query("SELECT watch").unwrap();
            assert_eq!(o.stats.view_hits as usize, o.stats.tasks);
            o.individuals().len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_index, bench_workers, bench_cache);
criterion_main!(benches);
