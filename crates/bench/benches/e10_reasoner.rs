//! E10 — structural reasoner cost (paper §2.2, reproduction band note
//! "ontology reasoning missing" in the Rust ecosystem): subsumption
//! closure construction, instance materialization, and consistency
//! checking vs ontology size.
//!
//! Expected shape: closure ~O(classes × depth); materialization linear
//! in triples × average superclass count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use s2s_bench::synthetic_ontology;
use s2s_owl::Reasoner;
use s2s_rdf::{Graph, Iri, Literal, Triple};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_reasoner");
    group.sample_size(10);

    for &classes in &[64usize, 512] {
        let o = synthetic_ontology(classes, 2);
        group.bench_with_input(BenchmarkId::new("closure_build", classes), &classes, |b, _| {
            // The ontology keeps its closure once computed, so every
            // sample builds a cold one (timed with it).
            b.iter(|| {
                let cold = synthetic_ontology(classes, 2);
                std::hint::black_box(Reasoner::new(&cold));
            })
        });

        // An instance graph: one individual per class, typed with it.
        let mut base = Graph::new();
        for (i, cl) in o.classes().enumerate() {
            let ind = Iri::new(format!("http://bench.example/data/i{i}")).unwrap();
            base.insert(Triple::new(ind.clone(), s2s_rdf::vocab::rdf::type_(), cl.iri().clone()));
            base.insert(Triple::new(
                ind,
                Iri::new(format!("http://bench.example/big#p{i}_0")).unwrap(),
                Literal::string("v"),
            ));
        }
        let reasoner = Reasoner::new(&o);
        group.bench_with_input(BenchmarkId::new("materialize", classes), &classes, |b, _| {
            b.iter(|| {
                let mut g = base.clone();
                reasoner.materialize(&mut g);
                g.len()
            })
        });

        let mut materialized = base.clone();
        reasoner.materialize(&mut materialized);
        group.bench_with_input(BenchmarkId::new("consistency_check", classes), &classes, |b, _| {
            b.iter(|| reasoner.check_consistency(&materialized).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
