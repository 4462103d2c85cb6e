//! A parser builds its graph once: it collects the document's triples and
//! the store sorts them once, so parsing is linear in the document and
//! blind to the order the triples are listed in. A parser that inserted
//! triple by triple into the sorted store would shift the whole store on
//! every insert of a document listed in reverse SPO order — quadratic,
//! seconds at this size.

use std::time::{Duration, Instant};

use s2s_rdf::{ntriples, turtle, Graph, Iri, Literal, RdfError, Triple};

const TRIPLES: usize = 40_000;

/// `TRIPLES` distinct triples in SPO order: 10 000 subjects, four
/// predicates each.
fn triples() -> Vec<Triple> {
    let iri = |text: String| Iri::new(text).unwrap();
    let mut triples: Vec<Triple> = (0..TRIPLES)
        .map(|i| {
            let subject = iri(format!("http://bulk.example/s{:05}", i / 4));
            let predicate = iri(format!("http://bulk.example/p{}", i % 4));
            Triple::new(subject, predicate, Literal::string(format!("v{i}")))
        })
        .collect();
    triples.sort();
    triples
}

/// One statement per line: N-Triples, and Turtle too.
fn document<'t>(triples: impl Iterator<Item = &'t Triple>) -> String {
    triples.map(|t| format!("{t}\n")).collect()
}

/// The graph `parse` makes of `text`, and the fastest of three parses.
fn fastest(parse: fn(&str) -> Result<Graph, RdfError>, text: &str) -> (Graph, Duration) {
    let mut best = Duration::MAX;
    let mut graph = Graph::new();
    for _ in 0..3 {
        let start = Instant::now();
        graph = parse(text).unwrap();
        best = best.min(start.elapsed());
    }
    (graph, best)
}

#[test]
fn a_document_in_reverse_order_parses_as_fast_as_in_order() {
    let triples = triples();
    let forward = document(triples.iter());
    let reverse = document(triples.iter().rev());
    let expected: Graph = triples.iter().cloned().collect();
    for (syntax, parse) in [
        ("N-Triples", ntriples::parse as fn(&str) -> Result<Graph, RdfError>),
        ("Turtle", turtle::parse),
    ] {
        let (in_order, forward_time) = fastest(parse, &forward);
        let (reversed, reverse_time) = fastest(parse, &reverse);
        assert_eq!(in_order.len(), TRIPLES, "{syntax}");
        assert!(in_order == expected && reversed == expected, "{syntax}: the orders disagree");
        assert!(
            reverse_time <= forward_time * 4,
            "{syntax}: reverse order took {reverse_time:?}, forward {forward_time:?}"
        );
    }
}
