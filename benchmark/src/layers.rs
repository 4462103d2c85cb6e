//! Substrate entry points timed directly, on the workload's own
//! inputs: what each layer costs with the engine out of the picture.
//! A workload without a source of some kind reports that kind's
//! metrics as zero.

use std::time::Duration;

use s2s_core::instance::InstanceSet;
use s2s_core::mapping::{ExtractionRule, MappingModule, RecordScenario};
use s2s_minidb::Database;
use s2s_netsim::{decode, decode_batch, encode_batch, FrameKind};
use s2s_owl::AttributePath;
use s2s_rdf::turtle::PrefixMap;
use s2s_textmatch::Regex;
use s2s_webdoc::{HtmlDocument, WebStore, WeblProgram};
use s2s_xml::xpath::XPath;

use crate::gen::{Payload, SourceSpec, Workload};
use crate::measure::median_ns;

/// The first source whose payload `pick` accepts, with what it picked.
fn first<'a, T>(
    w: &'a Workload,
    pick: fn(&'a Payload) -> Option<T>,
) -> Option<(&'a SourceSpec, T)> {
    w.sources.iter().find_map(|s| pick(&s.payload).map(|picked| (s, picked)))
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

/// Times every substrate the workload's sources use, `budget` each.
pub fn substrates(w: &Workload, budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    // textmatch: compile the source's patterns, scan its text.
    let (mut compile_us, mut scan, mut matches) = (0.0, 0.0, 0.0);
    if let Some((spec, text)) = first(w, |p| match p {
        Payload::Text(text) => Some(text),
        _ => None,
    }) {
        let patterns: Vec<&str> = spec.rules.iter().map(|(_, r)| r.text()).collect();
        let compile = |p: &&str| Regex::new(p).expect("generated patterns compile");
        compile_us = median_ns(budget, || patterns.iter().map(compile).collect::<Vec<_>>())
            / 1e3
            / patterns.len() as f64;
        let compiled: Vec<Regex> = patterns.iter().map(compile).collect();
        let scan_all = || compiled.iter().map(|re| re.find_iter(text).count()).sum::<usize>();
        matches = scan_all() as f64;
        scan = mb_per_s(text.len() * compiled.len(), median_ns(budget, scan_all));
    }
    out.push(("textmatch.compile_us", compile_us));
    out.push(("textmatch.scan_mb_per_s", scan));
    out.push(("textmatch.matches", matches));

    // minidb: load the source's statements, run its first rule.
    let (mut select_us, mut rows_returned, mut load) = (0.0, 0.0, 0.0);
    if let Some((spec, statements)) = first(w, |p| match p {
        Payload::Sql(statements) => Some(statements),
        _ => None,
    }) {
        let load_db = || {
            let mut db = Database::new("bench");
            let rows: usize =
                statements.iter().map(|sql| db.execute(sql).expect("generated SQL loads").0).sum();
            (db, rows)
        };
        let (db, rows) = load_db();
        load = rows as f64 / (median_ns(budget, load_db) / 1e9);
        let sql = spec.rules[0].1.text();
        rows_returned = db.query(sql).expect("generated rules run").len() as f64;
        select_us = median_ns(budget, || db.query(sql)) / 1e3;
    }
    out.push(("minidb.select_us", select_us));
    out.push(("minidb.rows_returned", rows_returned));
    out.push(("minidb.load_rows_per_s", load));

    // xml: parse the document, evaluate its first rule.
    let (mut parse, mut xpath_us) = (0.0, 0.0);
    if let Some((spec, xml)) = first(w, |p| match p {
        Payload::Xml(xml) => Some(xml),
        _ => None,
    }) {
        parse = mb_per_s(xml.len(), median_ns(budget, || s2s_xml::parse(xml)));
        let doc = s2s_xml::parse(xml).expect("generated XML parses");
        let path = spec.rules[0].1.text();
        xpath_us = median_ns(budget, || {
            XPath::new(path).expect("generated paths compile").eval_strings(&doc)
        }) / 1e3;
    }
    out.push(("xml.parse_mb_per_s", parse));
    out.push(("xml.xpath_us", xpath_us));

    // webdoc: tokenize the page, run its first rule as a whole program.
    let (mut html_parse, mut webl_us) = (0.0, 0.0);
    if let Some((spec, html)) = first(w, |p| match p {
        Payload::Html(html) => Some(html),
        _ => None,
    }) {
        html_parse = mb_per_s(html.len(), median_ns(budget, || HtmlDocument::parse(html)));
        let mut store = WebStore::new();
        store.register_html(spec.url(), html.clone());
        // The engine's web wrapper pre-binds PAGE; standalone, the
        // program fetches it itself.
        let program = format!("var PAGE = GetURL(\"{}\"); {}", spec.url(), spec.rules[0].1.text());
        webl_us = median_ns(budget, || {
            WeblProgram::parse(&program).expect("generated WebL parses").run_strings(&store)
        }) / 1e3;
    }
    out.push(("webdoc.html_parse_mb_per_s", html_parse));
    out.push(("webdoc.webl_run_us", webl_us));

    // netsim: the batch frames one source's rules and results ride in.
    let rule_texts: Vec<&str> = w.sources[0].rules.iter().map(|(_, r)| r.text()).collect();
    let encode_ns = median_ns(budget, || encode_batch(FrameKind::BatchRequest, &rule_texts));
    let decode_ns = median_ns(budget, || {
        // Decoding consumes the frame, so each call gets a fresh one;
        // its cost is subtracted below.
        let frame = encode_batch(FrameKind::BatchRequest, &rule_texts);
        decode(frame).and_then(|f| decode_batch(f.payload)).expect("own frames decode")
    });
    out.push(("netsim.encode_batch_ns", encode_ns));
    out.push(("netsim.decode_batch_ns", (decode_ns - encode_ns).max(0.0)));
}

/// Times the RDF serializers on one answer's graph.
pub fn serializers(
    w: &Workload,
    answer: &InstanceSet,
    budget: Duration,
    out: &mut Vec<(&'static str, f64)>,
) {
    let mut prefixes = PrefixMap::with_well_known();
    prefixes.insert("s", w.ontology.namespace());
    let graph = &answer.graph;
    let rdfxml = median_ns(budget, || s2s_rdf::rdfxml::serialize(graph, &prefixes));
    let turtle = median_ns(budget, || s2s_rdf::turtle::serialize(graph, &prefixes));
    out.push(("rdf.rdfxml_serialize_us", rdfxml / 1e3));
    out.push(("rdf.turtle_serialize_us", turtle / 1e3));
    out.push(("rdf.triples", graph.len() as f64));
}

/// Times the mapping module's write path (`register`, at the
/// workload's full size and, where it has that many, at 512 mappings,
/// so growth with size shows) and its read path (`mappings_for`).
pub fn mapping_module(w: &Workload, budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let entries: Vec<(AttributePath, &ExtractionRule, &str)> = w
        .sources
        .iter()
        .flat_map(|s| {
            s.rules.iter().map(|(path, rule)| {
                (path.parse().expect("generated paths parse"), rule, s.id.as_str())
            })
        })
        .collect();
    let register = |n: usize| {
        let mut module = MappingModule::new();
        for (path, rule, source) in &entries[..n] {
            module
                .register(
                    &w.ontology,
                    path.clone(),
                    (*rule).clone(),
                    (*source).into(),
                    RecordScenario::MultiRecord,
                )
                .expect("generated mappings resolve");
        }
        module
    };
    let per_attr_us = |n: usize| median_ns(budget, || register(n)) / 1e3 / n as f64;
    out.push(("mapping.register_us_per_attr", per_attr_us(entries.len())));
    out.push((
        "mapping.register_us_per_attr_512",
        if entries.len() >= 512 { per_attr_us(512) } else { 0.0 },
    ));
    let module = register(entries.len());
    let probes: Vec<&AttributePath> = entries.iter().step_by(7).map(|(p, _, _)| p).collect();
    let lookup =
        median_ns(budget, || probes.iter().map(|p| module.mappings_for(p).len()).sum::<usize>());
    out.push(("mapping.lookup_ns", lookup / probes.len() as f64));
}
