//! Seeded scenario generation: deployments, queries, fault schedules.
//!
//! A [`Scenario`] is a small, fully deterministic description of one
//! differential-test case: a shared record catalog, a set of data
//! sources (each of one of the four kinds, with a fault class from the
//! equality-preserving set), and a valid-by-construction S2SQL query.
//! [`Scenario::build`] materializes it as a fresh [`S2s`] engine under
//! any execution-path configuration.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2s_core::extract::{ResiliencePolicy, Strategy};
use s2s_core::mapping::{ExtractionRule, RecordScenario};
use s2s_core::source::Connection;
use s2s_core::S2s;
use s2s_minidb::Database;
use s2s_netsim::{ChangeKind, CostModel, FailureModel, FaultKind, FaultSchedule, RetryPolicy};
use s2s_owl::Ontology;
use s2s_webdoc::WebStore;

/// Brand vocabulary (word-only so every source kind extracts the value
/// verbatim).
pub const BRANDS: [&str; 8] =
    ["seiko", "casio", "citizen", "orient", "tissot", "fossil", "timex", "rado"];

/// Case-material vocabulary.
pub const CASES: [&str; 6] = ["steel", "gold", "titanium", "ceramic", "resin", "carbon"];

/// The attributes every source maps, in canonical order.
pub const ATTRS: [&str; 3] = ["brand", "price", "case"];

/// Retry budget shared by every generated engine. Scheduled transient
/// faults are capped at `RETRY_ATTEMPTS - 1` per endpoint, so a retry
/// always rescues them in every execution path — the constraint that
/// keeps cross-path answer equality a theorem (see the crate docs).
pub const RETRY_ATTEMPTS: u32 = 3;

/// One of the four source kinds of the paper's taxonomy (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKindSpec {
    /// Relational database (SQL rules).
    Db,
    /// XML document (XPath rules).
    Xml,
    /// Web page (WebL rules).
    Web,
    /// Plain-text file (regex rules).
    Text,
}

impl SourceKindSpec {
    /// All kinds, in generation order.
    pub const ALL: [SourceKindSpec; 4] =
        [SourceKindSpec::Db, SourceKindSpec::Xml, SourceKindSpec::Web, SourceKindSpec::Text];

    /// The token used in case files.
    pub fn token(self) -> &'static str {
        match self {
            SourceKindSpec::Db => "db",
            SourceKindSpec::Xml => "xml",
            SourceKindSpec::Web => "web",
            SourceKindSpec::Text => "text",
        }
    }
}

/// Fault behaviour of one source, drawn from the equality-preserving
/// classes (call-count independent, or rescued within the retry
/// budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultClass {
    /// Never fails.
    Reliable,
    /// Every call fails (hard outage, no replica).
    HardDown,
    /// Hard-down primary with one reliable replica; failover rescues
    /// every call.
    HardDownWithReplica,
    /// Scheduled forced faults at specific call indices. The generator
    /// caps these at `RETRY_ATTEMPTS - 1` per endpoint so every
    /// logical call is rescued by retries.
    Transient(Vec<(u64, FaultKind)>),
    /// Like [`FaultClass::Transient`], plus one reliable replica. The
    /// primary still answers every logical call (retries rescue the
    /// scheduled faults), so the replica is idle under plain failover —
    /// it exists to give hedged dispatch a standby to race against the
    /// retry-slowed primary.
    TransientWithReplica(Vec<(u64, FaultKind)>),
    /// A reliable endpoint whose mappings all carry a hostile rule: every
    /// task on the source fails at rule compilation with a coded,
    /// permanent error, on every execution path alike, and nothing
    /// panics. Never generated; corpus cases name it.
    HostileRule(Hostile),
}

/// Which hostile rule a [`FaultClass::HostileRule`] source carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hostile {
    /// Nesting past a parser's depth cap: [`hostile_sql`] on a database
    /// source, [`hostile_webl`] on a web source, [`hostile_regex`] on any
    /// other.
    Nesting,
    /// [`hostile_regex_groups`], on a text or web source.
    RegexGroups,
}

/// A regex rule whose groups nest far past the parser's depth cap:
/// before the cap, compiling it overflowed the stack.
pub fn hostile_regex() -> String {
    format!("{}a{}", "(".repeat(200_000), ")".repeat(200_000))
}

/// A regex rule alternating 8 000 capture groups: before the matcher's
/// thread table was bounded, one search of a 4-byte haystack took 1.9 s
/// and 1.96 GB.
pub fn hostile_regex_groups() -> String {
    vec!["(a)"; 8_000].join("|")
}

/// A SQL rule for `column` whose `WHERE` clause nests parentheses far
/// past the parser's depth cap: before the cap, parsing it overflowed
/// the stack.
pub fn hostile_sql(column: &str) -> String {
    let (open, close) = ("(".repeat(10_000), ")".repeat(10_000));
    format!("SELECT {column} FROM watches WHERE {open}id > 0{close} ORDER BY id")
}

/// A WebL rule whose expression nests parentheses far past the parser's
/// depth cap: before the cap, parsing it overflowed the stack.
pub fn hostile_webl() -> String {
    format!("var v = {}1{};", "(".repeat(200_000), ")".repeat(200_000))
}

/// One data source of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSpec {
    /// The source kind.
    pub kind: SourceKindSpec,
    /// Whether all attributes use `RecordScenario::SingleRecord`
    /// (the source describes one record) instead of `MultiRecord`.
    pub single_record: bool,
    /// The fault class.
    pub fault: FaultClass,
}

impl SourceSpec {
    /// The extraction rule this source's mapping for `ATTRS[attr]`
    /// carries.
    pub(crate) fn rule(&self, attr: usize) -> ExtractionRule {
        match (&self.fault, rule_for(self.kind, attr)) {
            (FaultClass::HostileRule(Hostile::RegexGroups), _) => {
                ExtractionRule::TextRegex { pattern: hostile_regex_groups(), group: 1 }
            }
            (FaultClass::HostileRule(_), ExtractionRule::Sql { column, .. }) => {
                ExtractionRule::Sql { query: hostile_sql(&column), column }
            }
            (FaultClass::HostileRule(_), ExtractionRule::Webl { .. }) => {
                ExtractionRule::Webl { program: hostile_webl() }
            }
            (FaultClass::HostileRule(_), _) => {
                ExtractionRule::TextRegex { pattern: hostile_regex(), group: 1 }
            }
            (_, rule) => rule,
        }
    }
}

/// One `WHERE` leaf: `ATTRS[attr] op value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// Index into [`ATTRS`].
    pub attr: usize,
    /// Operator token (`<`, `<=`, `>`, `>=`, `=`, `!=`, `LIKE`).
    pub op: String,
    /// Comparison value (unquoted).
    pub value: String,
}

/// A generated differential-test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The scenario seed: drives the catalog, endpoint seeds, and
    /// metamorphic variants.
    pub seed: u64,
    /// Records in the shared catalog (≥ 1).
    pub rows: usize,
    /// The data sources (≥ 1), registered as `SRC_0`, `SRC_1`, …
    pub sources: Vec<SourceSpec>,
    /// The query's `WHERE` conditions (AND-joined; may be empty).
    pub conditions: Vec<Condition>,
}

/// One catalog record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Brand (word-only).
    pub brand: String,
    /// Integer price, rendered without a decimal point.
    pub price: i64,
    /// Case material (word-only).
    pub case: String,
}

impl Scenario {
    /// Generates the scenario for `seed` — a pure function of it.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(1..6);
        let n_sources = rng.gen_range(1..5);
        let sources = (0..n_sources)
            .map(|_| {
                let kind = SourceKindSpec::ALL[rng.gen_range(0..4)];
                let single_record = rng.gen_bool(0.15);
                let fault = match rng.gen_range(0..11) {
                    0..=4 => FaultClass::Reliable,
                    5 | 6 => FaultClass::HardDown,
                    7 => FaultClass::HardDownWithReplica,
                    10 => FaultClass::TransientWithReplica(generate_transients(&mut rng)),
                    _ => FaultClass::Transient(generate_transients(&mut rng)),
                };
                SourceSpec { kind, single_record, fault }
            })
            .collect();
        let n_conditions = rng.gen_range(0..3);
        let conditions = (0..n_conditions).map(|_| generate_condition(&mut rng)).collect();
        Scenario { seed, rows, sources, conditions }
    }

    /// The shared catalog, derived from the scenario seed.
    pub fn records(&self) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC0FF_EE00_D15E_A5E5);
        (0..self.rows)
            .map(|_| Record {
                brand: BRANDS[rng.gen_range(0..BRANDS.len())].to_string(),
                price: rng.gen_range(20..500) as i64,
                case: CASES[rng.gen_range(0..CASES.len())].to_string(),
            })
            .collect()
    }

    /// The canonical S2SQL text of the query.
    pub fn query_text(&self) -> String {
        let mut text = String::from("SELECT watch");
        for (i, c) in self.conditions.iter().enumerate() {
            text.push_str(if i == 0 { " WHERE " } else { " AND " });
            text.push_str(&render_condition(c));
        }
        text
    }

    /// The deterministic endpoint seed for source index `i` — derived
    /// from the scenario seed so the failure/jitter streams vary per
    /// scenario even though source ids repeat across scenarios.
    pub fn endpoint_seed(&self, i: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1000_0000_01B3u64.wrapping_mul(i as u64 + 1))
    }

    /// Materializes the scenario as a fresh engine under the given
    /// execution-path configuration. `source_order` and `attr_order`
    /// permute the registration sequences (used by the metamorphic
    /// oracles); `None` keeps canonical order.
    pub fn build(&self, config: &BuildConfig) -> S2s {
        let records = self.records();
        let mut s2s = S2s::new(ontology()).with_strategy(config.strategy).with_resilience(
            ResiliencePolicy::default().with_retry(RetryPolicy::attempts(RETRY_ATTEMPTS)),
        );
        if config.result_cache {
            s2s = s2s.with_result_cache();
        }
        if config.pushdown {
            s2s = s2s.with_pushdown();
        }
        if config.views {
            s2s = s2s.with_views();
        }
        let source_order: Vec<usize> = match &config.source_order {
            Some(order) => order.clone(),
            None => (0..self.sources.len()).collect(),
        };
        for &i in &source_order {
            self.register_source(&mut s2s, i, &records);
        }
        let attr_order: Vec<usize> = match &config.attr_order {
            Some(order) => order.clone(),
            None => (0..ATTRS.len()).collect(),
        };
        for &i in &source_order {
            let spec = &self.sources[i];
            let id = format!("SRC_{i}");
            let scenario = if spec.single_record {
                RecordScenario::SingleRecord
            } else {
                RecordScenario::MultiRecord
            };
            for &a in &attr_order {
                s2s.register_attribute(
                    &format!("thing.product.watch.{}", ATTRS[a]),
                    spec.rule(a),
                    &id,
                    scenario,
                )
                .expect("generated mappings are valid by construction");
            }
        }
        s2s
    }

    pub(crate) fn register_source(&self, s2s: &mut S2s, i: usize, records: &[Record]) {
        let spec = &self.sources[i];
        let id = format!("SRC_{i}");
        let connection = connection_for(spec.kind, records);
        let seed = Some(self.endpoint_seed(i));
        match &spec.fault {
            FaultClass::Reliable | FaultClass::HostileRule(_) => s2s
                .register_remote_source_detailed(
                    &id,
                    connection,
                    CostModel::wan(),
                    FailureModel::reliable(),
                    seed,
                    FaultSchedule::new(),
                )
                .expect("fresh id"),
            FaultClass::HardDown => s2s
                .register_remote_source_detailed(
                    &id,
                    connection,
                    CostModel::wan(),
                    FailureModel::unreachable(),
                    seed,
                    FaultSchedule::new(),
                )
                .expect("fresh id"),
            FaultClass::HardDownWithReplica => {
                s2s.register_remote_source(
                    &id,
                    connection,
                    CostModel::wan(),
                    FailureModel::unreachable(),
                )
                .expect("fresh id");
                s2s.add_source_replica(&id, FailureModel::reliable()).expect("just registered");
            }
            FaultClass::Transient(faults) | FaultClass::TransientWithReplica(faults) => {
                let mut schedule = FaultSchedule::new();
                for (index, kind) in faults {
                    schedule = schedule.fail_call(*index, *kind);
                }
                s2s.register_remote_source_detailed(
                    &id,
                    connection,
                    CostModel::wan(),
                    FailureModel::reliable(),
                    seed,
                    schedule,
                )
                .expect("fresh id");
                if matches!(spec.fault, FaultClass::TransientWithReplica(_)) {
                    s2s.add_source_replica(&id, FailureModel::reliable()).expect("just registered");
                }
            }
        }
    }

    /// Whether every source is fault-free (the class where the oracles
    /// additionally require completeness 1 and zero retries/failovers).
    pub fn fault_free(&self) -> bool {
        self.sources.iter().all(|s| s.fault == FaultClass::Reliable)
    }

    /// Whether any source can answer nothing — hard-down with no
    /// replica, or mapped through rules that do not compile (the only
    /// classes that legally degrade completeness).
    pub fn has_hard_outage(&self) -> bool {
        self.sources
            .iter()
            .any(|s| matches!(s.fault, FaultClass::HardDown | FaultClass::HostileRule(_)))
    }
}

/// Execution-path configuration for [`Scenario::build`].
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Extraction strategy (how far wire exchanges overlap).
    pub strategy: Strategy,
    /// Enable the whole-answer result cache.
    pub result_cache: bool,
    /// Enable the federated pushdown planner.
    pub pushdown: bool,
    /// Enable materialized semantic views (delta maintenance).
    pub views: bool,
    /// Source registration order override (indices into `sources`).
    pub source_order: Option<Vec<usize>>,
    /// Attribute registration order override (indices into [`ATTRS`]).
    pub attr_order: Option<Vec<usize>>,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            strategy: Strategy::Parallel { workers: 1 },
            result_cache: false,
            pushdown: false,
            views: false,
            source_order: None,
            attr_order: None,
        }
    }
}

impl BuildConfig {
    /// The reference path: one exchange per source, one at a time.
    pub fn batched() -> Self {
        BuildConfig::default()
    }

    /// The batched path with the result cache (replay oracle).
    pub fn replay() -> Self {
        BuildConfig { result_cache: true, ..BuildConfig::batched() }
    }

    /// The concurrent path: N threads share one engine's lanes.
    pub fn pooled(workers: usize) -> Self {
        BuildConfig { strategy: Strategy::Parallel { workers }, ..Default::default() }
    }

    /// The batched path with the federated pushdown planner enabled.
    pub fn pushdown() -> Self {
        BuildConfig { pushdown: true, ..BuildConfig::batched() }
    }

    /// The batched path with materialized semantic views (delta
    /// maintenance against source change feeds).
    pub fn delta() -> Self {
        BuildConfig { views: true, ..BuildConfig::batched() }
    }
}

/// Draws 1..`RETRY_ATTEMPTS` scheduled faults at distinct call
/// indices — few enough that retries rescue every logical call.
fn generate_transients(rng: &mut StdRng) -> Vec<(u64, FaultKind)> {
    let n = rng.gen_range(1..(RETRY_ATTEMPTS as usize));
    let mut faults: Vec<(u64, FaultKind)> = Vec::new();
    while faults.len() < n {
        let index = rng.gen_range(0..6) as u64;
        if faults.iter().any(|(i, _)| *i == index) {
            continue;
        }
        let kind = if rng.gen_bool(0.5) { FaultKind::Unreachable } else { FaultKind::Timeout };
        faults.push((index, kind));
    }
    faults.sort();
    faults
}

fn generate_condition(rng: &mut StdRng) -> Condition {
    let attr = rng.gen_range(0..3);
    if attr == 1 {
        let op = ["<", "<=", ">", ">="][rng.gen_range(0..4)].to_string();
        Condition { attr, op, value: rng.gen_range(20..500).to_string() }
    } else {
        let vocabulary: &[&str] = if attr == 0 { &BRANDS } else { &CASES };
        let word = vocabulary[rng.gen_range(0..vocabulary.len())];
        match rng.gen_range(0..3) {
            0 => Condition { attr, op: "=".into(), value: word.into() },
            1 => Condition { attr, op: "!=".into(), value: word.into() },
            _ => Condition { attr, op: "LIKE".into(), value: format!("{}%", &word[..1]) },
        }
    }
}

/// Renders one condition in canonical S2SQL (string values quoted).
pub fn render_condition(c: &Condition) -> String {
    if c.attr == 1 {
        format!("{} {} {}", ATTRS[c.attr], c.op, c.value)
    } else {
        format!("{} {} '{}'", ATTRS[c.attr], c.op, c.value)
    }
}

/// The watch ontology shared by every scenario.
pub fn ontology() -> Ontology {
    Ontology::builder("http://conform.example/schema#")
        .class("Product", None)
        .unwrap()
        .class("Watch", Some("Product"))
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .datatype_property("price", "Product", "http://www.w3.org/2001/XMLSchema#decimal")
        .unwrap()
        .datatype_property("case", "Watch", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap()
}

pub(crate) fn connection_for(kind: SourceKindSpec, records: &[Record]) -> Connection {
    match kind {
        SourceKindSpec::Db => {
            let mut db = Database::new("catalog");
            db.execute(
                "CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price INTEGER, case_m TEXT)",
            )
            .unwrap();
            for (i, r) in records.iter().enumerate() {
                db.execute(&format!(
                    "INSERT INTO watches VALUES ({}, '{}', {}, '{}')",
                    i + 1,
                    r.brand,
                    r.price,
                    r.case
                ))
                .unwrap();
            }
            Connection::Database { db: Arc::new(db) }
        }
        SourceKindSpec::Xml => {
            let mut xml = String::from("<catalog>");
            for r in records {
                xml.push_str(&format!(
                    "<watch><brand>{}</brand><price>{}</price><case>{}</case></watch>",
                    r.brand, r.price, r.case
                ));
            }
            xml.push_str("</catalog>");
            Connection::Xml { document: Arc::new(s2s_xml::parse(&xml).unwrap()) }
        }
        SourceKindSpec::Web => {
            let mut html = String::from("<html><body><ul>");
            for r in records {
                html.push_str(&format!(
                    "<li><b>{}</b> <span class=\"price\">{}</span> <i>{}</i></li>",
                    r.brand, r.price, r.case
                ));
            }
            html.push_str("</ul></body></html>");
            let mut store = WebStore::new();
            store.register_html("http://conform/list", html);
            Connection::Web { store: Arc::new(store), url: "http://conform/list".into() }
        }
        SourceKindSpec::Text => {
            let mut text = String::new();
            for r in records {
                text.push_str(&format!(
                    "brand: {} | price: {} | case: {}\n",
                    r.brand, r.price, r.case
                ));
            }
            let mut store = WebStore::new();
            store.register_text("file:///conform.txt", text);
            Connection::Text { store: Arc::new(store), url: "file:///conform.txt".into() }
        }
    }
}

/// The change kind a data mutation of this source kind reports on its
/// feed: row edits for relational sources, node edits for tree-shaped
/// documents, whole-document replacement for flat text.
pub(crate) fn change_kind_for(kind: SourceKindSpec) -> ChangeKind {
    match kind {
        SourceKindSpec::Db => ChangeKind::RowUpdate,
        SourceKindSpec::Xml | SourceKindSpec::Web => ChangeKind::NodeEdit,
        SourceKindSpec::Text => ChangeKind::DocReplace,
    }
}

pub(crate) fn rule_for(kind: SourceKindSpec, attr: usize) -> ExtractionRule {
    match kind {
        SourceKindSpec::Db => {
            let column = ["brand", "price", "case_m"][attr];
            ExtractionRule::Sql {
                query: format!("SELECT {column} FROM watches ORDER BY id"),
                column: column.into(),
            }
        }
        SourceKindSpec::Xml => {
            ExtractionRule::XPath { path: format!("/catalog/watch/{}/text()", ATTRS[attr]) }
        }
        SourceKindSpec::Web => match attr {
            0 => ExtractionRule::Webl { program: "var b = TagTexts(Text(PAGE), \"b\");".into() },
            // `Str_Search` yields [group0, group1] per match and the
            // list-to-text flattening concatenates the groups, so the
            // price must come from its own tag, not a capture group.
            1 => ExtractionRule::Webl { program: "var p = TagTexts(Text(PAGE), \"span\");".into() },
            _ => ExtractionRule::Webl { program: "var c = TagTexts(Text(PAGE), \"i\");".into() },
        },
        SourceKindSpec::Text => {
            let pattern = [r"brand: ([\w-]+)", r"price: ([0-9]+)", r"case: ([\w-]+)"][attr];
            ExtractionRule::TextRegex { pattern: pattern.into(), group: 1 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in 0..50 {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
        assert_ne!(Scenario::generate(1), Scenario::generate(2));
    }

    #[test]
    fn generated_queries_parse_and_engines_build() {
        for seed in 0..30 {
            let sc = Scenario::generate(seed);
            let s2s = sc.build(&BuildConfig::batched());
            let outcome = s2s.query(&sc.query_text());
            assert!(outcome.is_ok(), "seed {seed}: {:?}", outcome.err());
        }
    }

    #[test]
    fn all_source_kinds_extract_the_same_values() {
        // One reliable source of each kind over the same catalog must
        // contribute identical value sets.
        let sc = Scenario {
            seed: 7,
            rows: 3,
            sources: SourceKindSpec::ALL
                .iter()
                .map(|&kind| SourceSpec { kind, single_record: false, fault: FaultClass::Reliable })
                .collect(),
            conditions: Vec::new(),
        };
        let s2s = sc.build(&BuildConfig::batched());
        let outcome = s2s.query("SELECT watch").unwrap();
        assert_eq!(outcome.stats.completeness, 1.0);
        let mut per_source: std::collections::BTreeMap<&str, Vec<String>> = Default::default();
        for i in outcome.individuals() {
            per_source.entry(i.source.as_str()).or_default().push(format!("{:?}", i.values));
        }
        for values in per_source.values_mut() {
            values.sort();
        }
        let first = per_source.values().next().unwrap().clone();
        for (source, values) in &per_source {
            assert_eq!(values, &first, "{source} disagrees");
        }
    }
}
