//! Seeded scenario generation: deployments, queries, fault schedules.
//!
//! A [`Scenario`] is a small, fully deterministic description of one
//! test case: a shared record catalog, a set of data sources (each of
//! one of the four kinds, with a fault class whose effect does not
//! depend on how often an arm calls the endpoint), and a
//! valid-by-construction S2SQL query. [`Scenario::build`] materializes
//! it as a fresh [`S2s`] engine under any execution-path configuration;
//! [`Scenario::expected`](crate::expected) states what it must answer.

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

/// Brand vocabulary.
pub const BRANDS: [&str; 8] =
    ["seiko", "casio", "citizen", "orient", "tissot", "fossil", "timex", "rado"];

/// Case-material vocabulary.
pub const CASES: [&str; 6] = ["steel", "gold", "titanium", "ceramic", "resin", "carbon"];

/// Brands a spelled catalog adds: numeric-looking words (a string
/// range orders them by code point, so `10 < 9`), non-ASCII words and
/// words with an apostrophe. Every kind serves each verbatim: no space,
/// `|`, `<` or `&` in any.
pub const SPELLED_BRANDS: [&str; 8] = ["10", "9", "007", "1e1", "NaN", "zénith", "時計", "o'clock"];

/// Case materials a spelled catalog adds, in the same kinds.
pub const SPELLED_CASES: [&str; 6] = ["10", "9", "007", "céramique", "チタン", "d'or"];

/// The scenario ontology's namespace.
pub const NS: &str = "http://conform.example/schema#";

/// The XSD namespace the scenario ontology's ranges are in.
pub const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// The declared range of each of [`ATTRS`]: brand and case are
/// `xsd:string`, price `xsd:decimal`. [`ontology`] declares them and
/// [`Scenario::expected`] compares in them.
pub const RANGES: [&str; 3] = ["string", "decimal", "string"];

/// The attributes every source maps, in canonical order.
pub const ATTRS: [&str; 3] = ["brand", "price", "case"];

/// Retry budget shared by every generated engine. Scheduled transient
/// faults are capped at `RETRY_ATTEMPTS - 1` per endpoint, so a retry
/// always rescues them in every execution path — the constraint that
/// lets [`Scenario::expected`] count such a source as answering.
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

/// Fault behaviour of one source: call-count independent, or rescued
/// within the retry budget, so every arm owes the same answer.
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
    /// carries when registered as `SRC_{index}`: an XML source at an odd
    /// index selects its records with `//watch`, one at an even index
    /// with `/catalog/watch`.
    pub(crate) fn rule(&self, index: usize, attr: usize) -> ExtractionRule {
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
            (_, ExtractionRule::XPath { .. }) if index % 2 == 1 => {
                ExtractionRule::XPath { path: format!("//watch/{}/text()", ATTRS[attr]) }
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

/// A `WHERE` conjunct: a leaf, or `NOT` / `AND` / `OR` over conjuncts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond {
    /// One comparison.
    Leaf(Condition),
    /// Negation.
    Not(Box<Cond>),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
}

impl Cond {
    /// Whether the conjunct holds where `leaf` says which leaves do.
    pub fn holds(&self, leaf: &impl Fn(&Condition) -> bool) -> bool {
        match self {
            Cond::Leaf(c) => leaf(c),
            Cond::Not(e) => !e.holds(leaf),
            Cond::And(a, b) => a.holds(leaf) && b.holds(leaf),
            Cond::Or(a, b) => a.holds(leaf) || b.holds(leaf),
        }
    }

    /// The attributes ([`ATTRS`] indices) every record the conjunct
    /// selects has a value of: a leaf's own, what either side of an
    /// `AND` requires, what both sides of an `OR` do, nothing under a
    /// `NOT`.
    pub fn required(&self) -> Vec<usize> {
        match self {
            Cond::Leaf(c) => vec![c.attr],
            Cond::Not(_) => Vec::new(),
            Cond::And(a, b) => [a.required(), b.required()].concat(),
            Cond::Or(a, b) => {
                let right = b.required();
                a.required().into_iter().filter(|attr| right.contains(attr)).collect()
            }
        }
    }

    /// The conjunct in canonical S2SQL: each operator parenthesized.
    pub fn render(&self) -> String {
        match self {
            Cond::Leaf(c) => render_condition(c),
            Cond::Not(e) => format!("NOT ({})", e.render()),
            Cond::And(a, b) => format!("({} AND {})", a.render(), b.render()),
            Cond::Or(a, b) => format!("({} OR {})", a.render(), b.render()),
        }
    }
}

/// A generated test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The scenario seed: drives the catalog, endpoint seeds, and
    /// metamorphic variants.
    pub seed: u64,
    /// Records in the shared catalog (≥ 1).
    pub rows: usize,
    /// The data sources (≥ 1), registered as `SRC_0`, `SRC_1`, …
    pub sources: Vec<SourceSpec>,
    /// The query's `WHERE` conjuncts (AND-joined; may be empty).
    pub conditions: Vec<Cond>,
    /// Whether the catalog respells some records' values in forms that
    /// tell value spaces apart ([`Scenario::records`]). Generated
    /// scenarios do; case files written before the spellings existed
    /// leave it off and keep their catalogs.
    pub spelled: bool,
}

/// One catalog record, each value as every source spells it (an XML or
/// web source pads some prices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Brand.
    pub brand: String,
    /// Price: an integer, or in a spelled catalog any form of
    /// [`spell_price`].
    pub price: String,
    /// Case material.
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
        let conditions = (0..n_conditions).map(|_| generate_cond(&mut rng, 3)).collect();
        Scenario { seed, rows, sources, conditions, spelled: true }
    }

    /// The shared catalog, derived from the scenario seed. A spelled
    /// catalog then respells values from a second stream, so the plain
    /// draws stay what they were: two prices in five in a form of
    /// [`spell_price`], one brand and one case in four from the
    /// spelled vocabularies.
    pub fn records(&self) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC0FF_EE00_D15E_A5E5);
        let mut records: Vec<Record> = (0..self.rows)
            .map(|_| Record {
                brand: BRANDS[rng.gen_range(0..BRANDS.len())].to_string(),
                price: rng.gen_range(20..500).to_string(),
                case: CASES[rng.gen_range(0..CASES.len())].to_string(),
            })
            .collect();
        if self.spelled {
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5BE1_1ED0_0CA7_A106);
            for r in &mut records {
                if rng.gen_bool(0.4) {
                    r.price = spell_price(&mut rng, &r.price);
                }
                if rng.gen_bool(0.25) {
                    r.brand = SPELLED_BRANDS[rng.gen_range(0..SPELLED_BRANDS.len())].to_string();
                }
                if rng.gen_bool(0.25) {
                    r.case = SPELLED_CASES[rng.gen_range(0..SPELLED_CASES.len())].to_string();
                }
            }
        }
        records
    }

    /// The canonical S2SQL text of the query.
    pub fn query_text(&self) -> String {
        let mut text = String::from("SELECT watch");
        for (i, c) in self.conditions.iter().enumerate() {
            text.push_str(if i == 0 { " WHERE " } else { " AND " });
            text.push_str(&c.render());
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
        self.build_with(config, None)
    }

    /// [`Scenario::build`] whose endpoints are `flaky(p)` instead of
    /// their fault class (`Some(p)`; see [`Scenario::deploy`]).
    pub(crate) fn build_with(&self, config: &BuildConfig, flaky: Option<f64>) -> S2s {
        let mut s2s = self.deploy(config, flaky);
        let attr_order: Vec<usize> = match &config.attr_order {
            Some(order) => order.clone(),
            None => (0..ATTRS.len()).collect(),
        };
        for i in self.source_order(config) {
            let spec = &self.sources[i];
            let id = format!("SRC_{i}");
            let scenario = if spec.single_record {
                RecordScenario::SingleRecord
            } else {
                RecordScenario::MultiRecord
            };
            for &a in &attr_order {
                s2s.register_attribute(&attribute_path(a), spec.rule(i, a), &id, scenario)
                    .expect("generated mappings are valid by construction");
            }
        }
        s2s
    }

    /// The engine `config` describes with every source registered and
    /// nothing mapped. With `flaky = Some(p)` every endpoint is
    /// `flaky(p)` behind its seed, with no schedule and no replica,
    /// whatever its fault class (hostile rules stay hostile).
    pub(crate) fn deploy(&self, config: &BuildConfig, flaky: Option<f64>) -> S2s {
        let records = self.records();
        let mut s2s = S2s::new(ontology()).with_strategy(config.strategy).with_resilience(
            ResiliencePolicy::default().with_retry(RetryPolicy::attempts(RETRY_ATTEMPTS)),
        );
        if config.result_cache {
            s2s = s2s.with_result_cache();
        }
        if config.views {
            s2s = s2s.with_views();
        }
        for i in self.source_order(config) {
            self.register_source(&mut s2s, i, &records, flaky);
        }
        s2s
    }

    fn source_order(&self, config: &BuildConfig) -> Vec<usize> {
        match &config.source_order {
            Some(order) => order.clone(),
            None => (0..self.sources.len()).collect(),
        }
    }

    fn register_source(&self, s2s: &mut S2s, i: usize, records: &[Record], flaky: Option<f64>) {
        let spec = &self.sources[i];
        let id = format!("SRC_{i}");
        let seed = Some(self.endpoint_seed(i));
        let scheduled = |faults: &[(u64, FaultKind)]| {
            faults.iter().fold(FaultSchedule::new(), |s, &(index, kind)| s.fail_call(index, kind))
        };
        // (primary, its seed, its schedule, whether a reliable replica stands by)
        let (failure, seed, schedule, replica) = match (flaky, &spec.fault) {
            (Some(p), _) => (FailureModel::flaky(p), seed, FaultSchedule::new(), false),
            (None, FaultClass::Reliable | FaultClass::HostileRule(_)) => {
                (FailureModel::reliable(), seed, FaultSchedule::new(), false)
            }
            (None, FaultClass::HardDown) => {
                (FailureModel::unreachable(), seed, FaultSchedule::new(), false)
            }
            (None, FaultClass::HardDownWithReplica) => {
                (FailureModel::unreachable(), None, FaultSchedule::new(), true)
            }
            (None, FaultClass::Transient(faults)) => {
                (FailureModel::reliable(), seed, scheduled(faults), false)
            }
            (None, FaultClass::TransientWithReplica(faults)) => {
                (FailureModel::reliable(), seed, scheduled(faults), true)
            }
        };
        let connection = connection_for(spec.kind, records);
        s2s.register_remote_source_detailed(
            &id,
            connection,
            CostModel::wan(),
            failure,
            seed,
            schedule,
        )
        .expect("fresh id");
        if replica {
            s2s.add_source_replica(&id, FailureModel::reliable()).expect("just registered");
        }
    }

    /// Whether every source is fault-free (the class where the oracles
    /// additionally require zero retries and failovers and one exchange
    /// per source, and where the delta and bootstrap arms run).
    pub fn fault_free(&self) -> bool {
        self.sources.iter().all(|s| s.fault == FaultClass::Reliable)
    }
}

/// Execution-path configuration for [`Scenario::build`].
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Extraction strategy (how far wire exchanges overlap).
    pub strategy: Strategy,
    /// Enable the whole-answer result cache.
    pub result_cache: bool,
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

/// A price `n` as a source might spell it: signed, zero-padded, with a
/// fraction (all decimals), with an exponent, non-finite (doubles but
/// not decimals) or a placeholder (neither).
pub fn spell_price(rng: &mut StdRng, n: &str) -> String {
    match rng.gen_range(0..12) {
        0 => format!("+{n}"),
        1 => format!("-{n}"),
        2 => format!("0{n}"),
        3 => format!("{n}.50"),
        4 => format!("{n}.0"),
        5 => format!("{n}e0"),
        6 => format!("{}.{}E1", &n[..n.len() - 1], &n[n.len() - 1..]),
        7 => "inf".into(),
        8 => ["NaN", "INF", "-infinity"][rng.gen_range(0..3)].into(),
        9 => "-".into(),
        10 => "N/A".into(),
        _ => format!("00{n}"),
    }
}

/// A conjunct at most `depth` operators deep: a leaf half the time,
/// otherwise `NOT`, `AND` or `OR` over shallower ones.
fn generate_cond(rng: &mut StdRng, depth: usize) -> Cond {
    if depth == 0 || rng.gen_bool(0.5) {
        return Cond::Leaf(generate_condition(rng));
    }
    let op = rng.gen_range(0..3);
    let mut operand = || Box::new(generate_cond(rng, depth - 1));
    match op {
        0 => Cond::Not(operand()),
        1 => Cond::And(operand(), operand()),
        _ => Cond::Or(operand(), operand()),
    }
}

fn generate_condition(rng: &mut StdRng) -> Condition {
    const OPS: [&str; 7] = ["=", "!=", "<", "<=", ">", ">=", "LIKE"];
    let attr = rng.gen_range(0..3);
    if attr == 1 {
        let op = OPS[rng.gen_range(0..6)].to_string();
        let n = rng.gen_range(20..500).to_string();
        let value = match rng.gen_range(0..8) {
            0 => spell_price(rng, &n),
            1 => format!("{n}.5"),
            _ => n,
        };
        return Condition { attr, op, value };
    }
    let vocabulary: &[&str] = match (attr, rng.gen_bool(0.3)) {
        (0, false) => &BRANDS,
        (0, true) => &SPELLED_BRANDS,
        (_, false) => &CASES,
        (_, true) => &SPELLED_CASES,
    };
    let word = vocabulary[rng.gen_range(0..vocabulary.len())];
    let op = OPS[rng.gen_range(0..OPS.len())];
    let value = match op {
        "LIKE" => format!("{}%", word.chars().next().expect("no empty word")),
        _ => word.to_string(),
    };
    Condition { attr, op: op.into(), value }
}

/// Renders one condition in canonical S2SQL: a price the parser reads
/// bare written bare, anything else quoted.
pub fn render_condition(c: &Condition) -> String {
    if c.attr == 1 && spells_bare(&c.value) {
        format!("{} {} {}", ATTRS[c.attr], c.op, c.value)
    } else {
        format!("{} {} '{}'", ATTRS[c.attr], c.op, c.value.replace('\'', "''"))
    }
}

/// Whether the parser reads `value` back when it is written without
/// quotes: a number (sign, digits, dots) or a word of identifier
/// characters.
pub(crate) fn spells_bare(value: &str) -> bool {
    match value.as_bytes().first() {
        None => false,
        Some(b'0'..=b'9' | b'-' | b'+') => {
            value[1..].bytes().all(|b| b.is_ascii_digit() || b == b'.')
        }
        Some(_) => {
            value.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        }
    }
}

/// The watch ontology shared by every scenario.
pub fn ontology() -> Ontology {
    Ontology::builder(NS)
        .class("Product", None)
        .unwrap()
        .class("Watch", Some("Product"))
        .unwrap()
        .datatype_property("brand", "Product", &format!("{XSD}{}", RANGES[0]))
        .unwrap()
        .datatype_property("price", "Product", &format!("{XSD}{}", RANGES[1]))
        .unwrap()
        .datatype_property("case", "Watch", &format!("{XSD}{}", RANGES[2]))
        .unwrap()
        .build()
        .unwrap()
}

/// The attribute path `ATTRS[attr]` is registered under.
pub(crate) fn attribute_path(attr: usize) -> String {
    format!("thing.product.watch.{}", ATTRS[attr])
}

/// How a source of `kind` spells `ATTRS[attr]` of its record `index`:
/// XML and web pad some prices with whitespace (chosen by the index, so
/// the catalog draws stay as they were); everything else verbatim.
pub(crate) fn payload_value(
    kind: SourceKindSpec,
    index: usize,
    record: &Record,
    attr: usize,
) -> String {
    match attr {
        0 => record.brand.clone(),
        2 => record.case.clone(),
        _ if matches!(kind, SourceKindSpec::Xml | SourceKindSpec::Web) => match index % 3 {
            0 => format!(" {} ", record.price),
            1 => record.price.clone(),
            _ => format!("\t{}\n", record.price),
        },
        _ => record.price.clone(),
    }
}

/// The `unit_price` a text or web record carries before its `price`: a
/// label that ends in another one, chosen by the record index.
fn unit_price(index: usize) -> usize {
    index % 9 + 1
}

pub(crate) fn connection_for(kind: SourceKindSpec, records: &[Record]) -> Connection {
    match kind {
        SourceKindSpec::Db => {
            // An `INTEGER` column stores only the spellings it prints
            // back; a catalog with any other keeps its prices as text.
            let integer = |p: &String| p.parse::<i64>().is_ok_and(|n| n.to_string() == *p);
            let numeric = records.iter().all(|r| integer(&r.price));
            let mut db = Database::new("catalog");
            db.execute(&format!(
                "CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price {}, case_m TEXT)",
                if numeric { "INTEGER" } else { "TEXT" }
            ))
            .unwrap();
            let quoted = |s: &str| format!("'{}'", s.replace('\'', "''"));
            for (i, r) in records.iter().enumerate() {
                let price = if numeric { r.price.clone() } else { quoted(&r.price) };
                db.execute(&format!(
                    "INSERT INTO watches VALUES ({}, {}, {price}, {})",
                    i + 1,
                    quoted(&r.brand),
                    quoted(&r.case)
                ))
                .unwrap();
            }
            Connection::Database { db: Arc::new(db) }
        }
        SourceKindSpec::Xml => {
            let mut xml = String::from("<catalog>");
            for (i, r) in records.iter().enumerate() {
                xml.push_str(&format!(
                    "<watch><brand>{}</brand><price>{}</price><case>{}</case></watch>",
                    r.brand,
                    payload_value(kind, i, r, 1),
                    r.case
                ));
            }
            xml.push_str("</catalog>");
            Connection::Xml { document: Arc::new(s2s_xml::parse(&xml).unwrap()) }
        }
        SourceKindSpec::Web => {
            let mut html = String::from("<html><body><ul>");
            for (i, r) in records.iter().enumerate() {
                html.push_str(&format!(
                    "<li><b>{}</b> unit_price: {} <span class=\"price\">{}</span> <i>{}</i></li>",
                    r.brand,
                    unit_price(i),
                    payload_value(kind, i, r, 1),
                    r.case
                ));
            }
            html.push_str("</ul></body></html>");
            let mut store = WebStore::new();
            store.register_html("http://conform/list", html);
            Connection::Web { store: Arc::new(store), url: "http://conform/list".into() }
        }
        SourceKindSpec::Text => {
            let mut text = String::new();
            for (i, r) in records.iter().enumerate() {
                text.push_str(&format!(
                    "brand: {} | unit_price: {} | price: {} | case: {}\n",
                    r.brand,
                    unit_price(i),
                    r.price,
                    r.case
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
            // Anchored after the separator: `price: ` also ends `unit_price: `.
            // A value runs to the next space, `|` or line end.
            let pattern =
                [r"brand: ([^ |\n]+)", r"[|] price: ([^ |\n]+)", r"case: ([^ |\n]+)"][attr];
            ExtractionRule::TextRegex { pattern: pattern.into(), group: 1 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Reader;

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
    fn every_source_kind_answers_the_expected_lines() {
        // One reliable source of each kind, multi- and single-record,
        // over a catalog with padded prices and a `unit_price` label.
        for single_record in [false, true] {
            let sc = Scenario {
                seed: 7,
                rows: 4,
                sources: SourceKindSpec::ALL
                    .iter()
                    .map(|&kind| SourceSpec { kind, single_record, fault: FaultClass::Reliable })
                    .collect(),
                conditions: Vec::new(),
                spelled: true,
            };
            let outcome = sc.build(&BuildConfig::batched()).query(&sc.query_text()).unwrap();
            let answer = Reader::new(sc.seed).read(&outcome, 0);
            assert_eq!(answer, sc.expected(), "single_record {single_record}");
        }
    }
}
