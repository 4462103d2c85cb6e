//! Spans recorded by the benchmark around its calls into each layer,
//! and the staged replay that walks the paper's pipeline one public
//! call at a time: parse → plan → mapping lookup → one extraction per
//! mapping → instance generation → render.
//!
//! Spans inside the engine are a later issue; here the engine is only
//! ever timed from outside, as one root span per op.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use s2s_core::extract::{extract_one, AttributeResult, ExtractionReport, ExtractorManager};
use s2s_core::instance::{self, InstanceSet};
use s2s_core::mapping::{MappingModule, RecordScenario};
use s2s_core::query;
use s2s_core::source::SourceRegistry;
use s2s_netsim::{CostModel, FailureModel};
use s2s_owl::AttributePath;

use crate::gen::Workload;
use crate::workload::connect;

/// Root span of the real `S2s::query` (+ render) of an op.
pub const ENGINE: &str = "engine";
/// Root span of the staged replay of the same op.
pub const STAGED: &str = "staged";

/// One timed interval. `parent` indexes into the same span list;
/// spans of one op share `query`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub query: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory; nothing is written until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    query: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), query: 0 }
    }

    /// Spans recorded from here on belong to op `query`.
    pub fn at_query(&mut self, query: u32) {
        self.query = query;
    }

    /// Times `f` as a span under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            query: self.query,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"query\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.query, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let covered =
                s.end_ns.min(parent.end_ns).saturating_sub(s.start_ns.max(parent.start_ns));
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// Self time per span name, per op: `result[name][k]` is what op `k`
/// spent in `name` itself.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u32, u64>> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, BTreeMap<u32, u64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_default().entry(s.query).or_default() += own;
    }
    by_name
}

/// The read-side tables of a workload, rebuilt outside the engine from
/// the same generated inputs, for the staged replay to call into.
pub struct Twin {
    pub registry: SourceRegistry,
    pub mappings: MappingModule,
}

pub fn build_twin(w: &Workload) -> Twin {
    let mut registry = SourceRegistry::new();
    let mut mappings = MappingModule::new();
    for spec in &w.sources {
        let connection = connect(spec);
        if w.remote {
            registry.register_remote(
                spec.id.as_str(),
                connection,
                CostModel::wan(),
                FailureModel::reliable(),
            )
        } else {
            registry.register_local(spec.id.as_str(), connection)
        }
        .expect("source ids are unique");
        for (path, rule) in &spec.rules {
            let path: AttributePath = path.parse().expect("generated paths parse");
            mappings
                .register(
                    &w.ontology,
                    path,
                    rule.clone(),
                    spec.id.as_str().into(),
                    RecordScenario::MultiRecord,
                )
                .expect("generated mappings resolve");
        }
    }
    Twin { registry, mappings }
}

/// Replays one query stage by stage under [`STAGED`], one span per
/// public call. Returns the instances and the values extracted.
pub fn staged_op(t: &mut Tracer, w: &Workload, twin: &Twin, text: &str) -> (InstanceSet, usize) {
    t.span(STAGED, |t| {
        t.span("query.normalize", |_| std::hint::black_box(query::normalize(text)));
        let parsed = t.span("query.parse", |_| query::parse(text)).expect("generated S2SQL");
        let plan = t
            .span("query.plan", |_| query::plan(&parsed, &w.ontology))
            .expect("generated S2SQL plans");
        let mapped: Vec<AttributePath> = t.span("mapping.lookup", |_| {
            plan.attributes.iter().filter(|p| twin.mappings.contains(p)).cloned().collect()
        });
        let schemas = t
            .span("mapping.obtain_schemas", |_| {
                ExtractorManager::obtain_schemas(&twin.mappings, &mapped)
            })
            .expect("every kept path is mapped");
        let mut values = 0;
        let results = schemas
            .into_iter()
            .map(|schema| {
                let name = match schema.mapping.rule().language() {
                    "sql" => "extract.sql",
                    "xpath" => "extract.xpath",
                    "webl" => "extract.webl",
                    _ => "extract.regex",
                };
                let (extracted, elapsed) = t
                    .span(name, |_| extract_one(&twin.registry, &schema.mapping))
                    .expect("generated rules run");
                values += extracted.len();
                AttributeResult { mapping: schema.mapping, values: extracted, elapsed }
            })
            .collect();
        let report = ExtractionReport { results, ..Default::default() };
        let set = t.span("instance.generate", |_| instance::generate(&w.ontology, &plan, &report));
        if let Some(format) = w.render {
            t.span("instance.render", |_| {
                std::hint::black_box(instance::render(&set, &w.ontology, format))
            });
        }
        (set, values)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, query: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40), // nested child with a child of its own
            span("a1", Some(1), 15, 25), // grandchild: charged to `a`, not to `root`
            span("b", Some(0), 40, 70), // adjacent to `a`
            span("c", Some(0), 90, 100), // ends with the parent
        ];
        assert_eq!(self_times(&spans), [30, 20, 10, 30, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"][&1], 30);
        let total: u64 = by_name.values().map(|ops| ops[&1]).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let mut t = Tracer::new();
        t.at_query(1);
        t.span("root", |t| {
            t.span("first", |_| ());
            t.span("second", |t| t.span("inner", |_| ()));
        });
        t.at_query(2);
        t.span("root", |_| ());
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.query)).collect();
        assert_eq!(
            names,
            [
                ("root", None, 1),
                ("first", Some(0), 1),
                ("second", Some(0), 1),
                ("inner", Some(2), 1),
                ("root", None, 2),
            ]
        );
        for s in &t.spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let p = &t.spans[p as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns, "children nest");
            }
        }
        // Siblings do not overlap.
        assert!(t.spans[1].end_ns <= t.spans[2].start_ns);
    }
}
