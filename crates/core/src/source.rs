//! Data sources and the source registry.
//!
//! Paper §2.3.2: "Registering data sources separately from the
//! extraction rules is useful to create a centralized connection
//! information store, allowing reuse and preventing information
//! redundancy." Source ids follow the paper's style: `DB_ID_45`,
//! `wpage_81`.

use std::collections::BTreeMap;
use std::sync::Arc;

use s2s_minidb::Database;
use s2s_netsim::feed::{ChangeEvent, ChangeFeed, ChangeKind, FeedGap};
use s2s_netsim::{CostModel, Endpoint, FailureModel, FaultSchedule};
use s2s_webdoc::WebStore;
use s2s_xml::Document;

use crate::error::S2sError;
use crate::instance::push_sanitized;

/// A data source identifier (paper style: `DB_ID_45`, `wpage_81`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(String);

impl SourceId {
    /// Wraps an id string.
    pub fn new(id: impl Into<String>) -> Self {
        SourceId(id.into())
    }

    /// The id text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Ids order and compare as their text, so maps keyed by `SourceId`
/// can be probed with a `&str`.
impl std::borrow::Borrow<str> for SourceId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for SourceId {
    fn from(s: &str) -> Self {
        SourceId::new(s)
    }
}

/// The taxonomy of §2.1: structured, semi-structured, unstructured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SourceKind {
    /// A relational database (structured).
    Database,
    /// An XML document (semi-structured).
    Xml,
    /// A web page (unstructured).
    WebPage,
    /// A plain-text file (unstructured).
    TextFile,
}

impl std::fmt::Display for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SourceKind::Database => "database",
            SourceKind::Xml => "xml",
            SourceKind::WebPage => "web-page",
            SourceKind::TextFile => "text-file",
        })
    }
}

/// Connection information per source type (paper §2.3.2: "Web pages
/// require URLs, files require paths, and databases require location,
/// login, password, and driver type").
#[derive(Debug, Clone)]
pub enum Connection {
    /// A database handle (stands in for location/login/driver).
    Database {
        /// The database snapshot queried by extraction rules.
        db: Arc<Database>,
    },
    /// A parsed XML document (stands in for a stream URL/path).
    Xml {
        /// The document.
        document: Arc<Document>,
    },
    /// A URL into the simulated web.
    Web {
        /// The web store holding the page.
        store: Arc<WebStore>,
        /// The page URL.
        url: String,
    },
    /// A plain-text file addressed by URL/path in the store.
    Text {
        /// The store holding the file.
        store: Arc<WebStore>,
        /// The file path/URL.
        url: String,
    },
}

impl Connection {
    /// The source kind this connection serves.
    pub fn kind(&self) -> SourceKind {
        crate::wrapper::with(self, |w| w.kind())
    }
}

/// A registered source: connection plus its (possibly remote) endpoint
/// and any replica endpoints serving the same data.
#[derive(Debug, Clone)]
pub struct RegisteredSource {
    id: SourceId,
    connection: Connection,
    endpoint: Arc<Endpoint>,
    replicas: Vec<Arc<Endpoint>>,
    feed: ChangeFeed,
}

impl RegisteredSource {
    /// The source id.
    pub fn id(&self) -> &SourceId {
        &self.id
    }

    /// The connection information.
    pub fn connection(&self) -> &Connection {
        &self.connection
    }

    /// The primary network endpoint fronting the source.
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.endpoint
    }

    /// Replica endpoints, in failover order (may be empty).
    pub fn replicas(&self) -> &[Arc<Endpoint>] {
        &self.replicas
    }

    /// Primary endpoint followed by the replicas — the failover order.
    pub fn endpoints(&self) -> impl Iterator<Item = &Arc<Endpoint>> {
        std::iter::once(&self.endpoint).chain(self.replicas.iter())
    }

    /// The source kind.
    pub fn kind(&self) -> SourceKind {
        self.connection.kind()
    }

    /// The monotone data version of this source (0 = never mutated).
    pub fn version(&self) -> u64 {
        self.feed.version()
    }

    /// The source's mutation log (what changed since version N).
    pub fn feed(&self) -> &ChangeFeed {
        &self.feed
    }
}

/// The centralized connection-information store.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use s2s_core::source::{Connection, SourceRegistry};
/// use s2s_minidb::Database;
///
/// # fn main() -> Result<(), s2s_core::S2sError> {
/// let mut db = Database::new("catalog");
/// db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY)").unwrap();
/// let mut registry = SourceRegistry::new();
/// registry.register_local("DB_ID_45", Connection::Database { db: Arc::new(db) })?;
/// assert!(registry.get(&"DB_ID_45".into()).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SourceRegistry {
    sources: BTreeMap<SourceId, RegisteredSource>,
    /// The IRI segment each source's individuals are minted under, to
    /// the source.
    segments: BTreeMap<String, SourceId>,
}

impl SourceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SourceRegistry::default()
    }

    /// Registers a local source (no network cost, never fails).
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::DuplicateSource`] if the id is taken and
    /// [`S2sError::IriSegmentCollision`] if another id mints under the
    /// same IRI segment (`DB` and `db`, `DB 1` and `db-1`).
    pub fn register_local(
        &mut self,
        id: impl Into<SourceId>,
        connection: Connection,
    ) -> Result<(), S2sError> {
        self.register_remote(id, connection, CostModel::instant(), FailureModel::reliable())
    }

    /// Registers a remote source behind a simulated endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::DuplicateSource`] if the id is taken and
    /// [`S2sError::IriSegmentCollision`] if another id mints under the
    /// same IRI segment (`DB` and `db`, `DB 1` and `db-1`).
    pub fn register_remote(
        &mut self,
        id: impl Into<SourceId>,
        connection: Connection,
        cost: CostModel,
        failure: FailureModel,
    ) -> Result<(), S2sError> {
        self.register_remote_detailed(id, connection, cost, failure, None, FaultSchedule::new())
    }

    /// Registers a remote source with full control over the endpoint's
    /// determinism: an explicit RNG seed (`None` falls back to the
    /// id-derived [`stable_seed`]) and a scripted [`FaultSchedule`].
    /// This is the hook conformance tests use to vary endpoint
    /// randomness and force faults independently of source ids.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::DuplicateSource`] if the id is taken and
    /// [`S2sError::IriSegmentCollision`] if another id mints under the
    /// same IRI segment (`DB` and `db`, `DB 1` and `db-1`).
    pub fn register_remote_detailed(
        &mut self,
        id: impl Into<SourceId>,
        connection: Connection,
        cost: CostModel,
        failure: FailureModel,
        seed: Option<u64>,
        schedule: FaultSchedule,
    ) -> Result<(), S2sError> {
        let id = id.into();
        let seed = seed.unwrap_or_else(|| stable_seed(id.as_str()));
        let endpoint =
            Arc::new(Endpoint::new(id.as_str(), cost, failure, seed).with_schedule(schedule));
        self.insert(id, connection, endpoint)
    }

    /// Appends one replica endpoint to an already registered source,
    /// reusing the primary's cost model: id `"<id>#r<k>"`, its own
    /// failure model and deterministic seed, the same connection. The
    /// resilience layer fails over along the replicas in the order they
    /// were added.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::UnknownSource`] if `id` is not registered.
    pub fn add_replica(&mut self, id: &SourceId, failure: FailureModel) -> Result<(), S2sError> {
        let source = self
            .sources
            .get_mut(id)
            .ok_or_else(|| S2sError::UnknownSource { id: id.as_str().to_string() })?;
        let replica_id = format!("{}#r{}", id.as_str(), source.replicas.len() + 1);
        let cost = *source.endpoint.cost_model();
        source.replicas.push(Arc::new(Endpoint::new(
            replica_id.as_str(),
            cost,
            failure,
            stable_seed(&replica_id),
        )));
        Ok(())
    }

    fn insert(
        &mut self,
        id: SourceId,
        connection: Connection,
        endpoint: Arc<Endpoint>,
    ) -> Result<(), S2sError> {
        if self.sources.contains_key(&id) {
            return Err(S2sError::DuplicateSource { id: id.as_str().to_string() });
        }
        // The generator's segment of the id: two ids with one segment
        // would mint one IRI for two records.
        let segment = iri_segment(id.as_str());
        if let Some(existing) = self.segments.get(&segment) {
            return Err(S2sError::IriSegmentCollision {
                id: id.as_str().to_string(),
                existing: existing.as_str().to_string(),
                segment,
            });
        }
        self.segments.insert(segment, id.clone());
        self.sources.insert(
            id.clone(),
            RegisteredSource {
                id,
                connection,
                endpoint,
                replicas: Vec::new(),
                feed: ChangeFeed::new(),
            },
        );
        Ok(())
    }

    /// Applies a data mutation: swaps the source's immutable connection
    /// snapshot for the mutated one, bumps the monotone version, and
    /// records a [`ChangeEvent`] on the source's feed. `fields` names
    /// the source-side columns/elements the mutation touched (empty =
    /// potentially everything). Returns the new version.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::UnknownSource`] if `id` is not registered and
    /// [`S2sError::MutationKindMismatch`] if the replacement connection
    /// has a different kind than the registered one.
    pub fn apply_mutation(
        &mut self,
        id: &SourceId,
        connection: Connection,
        kind: ChangeKind,
        fields: Vec<String>,
    ) -> Result<u64, S2sError> {
        let source = self
            .sources
            .get_mut(id)
            .ok_or_else(|| S2sError::UnknownSource { id: id.as_str().to_string() })?;
        if connection.kind() != source.connection.kind() {
            return Err(S2sError::MutationKindMismatch {
                id: id.as_str().to_string(),
                expected: source.connection.kind().to_string(),
                actual: connection.kind().to_string(),
            });
        }
        source.connection = connection;
        Ok(source.feed.record(kind, fields))
    }

    /// The current data version of a source, if registered. Looked up
    /// by the id's text, so a caller holding a `&str` allocates nothing.
    pub fn version_of(&self, id: &str) -> Option<u64> {
        self.sources.get(id).map(|s| s.feed.version())
    }

    /// Polls a source's change feed: every event after `since`.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::UnknownSource`] for unregistered ids; the
    /// inner `Err(FeedGap)` means `since` predates retained history and
    /// only a full refresh is sound.
    pub fn poll_changes(
        &self,
        id: &SourceId,
        since: u64,
    ) -> Result<Result<Vec<ChangeEvent>, FeedGap>, S2sError> {
        Ok(self.require(id)?.feed.poll_changes(since))
    }

    /// Looks up a source definition (paper §2.4.2 "Obtain Data Source
    /// Definition").
    pub fn get(&self, id: &SourceId) -> Option<&RegisteredSource> {
        self.sources.get(id)
    }

    /// Like [`SourceRegistry::get`] but with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`S2sError::UnknownSource`] when absent.
    pub fn require(&self, id: &SourceId) -> Result<&RegisteredSource, S2sError> {
        self.get(id).ok_or_else(|| S2sError::UnknownSource { id: id.as_str().to_string() })
    }

    /// Iterates over all sources in id order.
    pub fn iter(&self) -> impl Iterator<Item = &RegisteredSource> {
        self.sources.values()
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

/// The path segment the Instance Generator mints a source's individuals
/// under.
fn iri_segment(id: &str) -> String {
    let mut segment = String::new();
    push_sanitized(&mut segment, id);
    segment
}

/// Deterministic seed from a source id (FNV-1a), so endpoint behaviour
/// is stable across runs without global state. Public so tests and the
/// conformance harness can log or reproduce the exact seed a
/// registration derived.
pub fn stable_seed(id: &str) -> u64 {
    stable_seed_of(&[id])
}

/// [`stable_seed`] of the concatenated `parts`, without building it:
/// FNV-1a reads bytes one at a time, so the parts simply follow on.
pub(crate) fn stable_seed_of(parts: &[&str]) -> u64 {
    parts
        .iter()
        .flat_map(|part| part.bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_conn() -> Connection {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        Connection::Database { db: Arc::new(db) }
    }

    #[test]
    fn register_and_lookup() {
        let mut r = SourceRegistry::new();
        r.register_local("DB_ID_45", db_conn()).unwrap();
        let s = r.get(&"DB_ID_45".into()).unwrap();
        assert_eq!(s.kind(), SourceKind::Database);
        assert_eq!(s.id().as_str(), "DB_ID_45");
        assert!(r.require(&"DB_ID_45".into()).is_ok());
    }

    #[test]
    fn duplicate_rejected() {
        let mut r = SourceRegistry::new();
        r.register_local("X", db_conn()).unwrap();
        assert!(matches!(r.register_local("X", db_conn()), Err(S2sError::DuplicateSource { .. })));
    }

    #[test]
    fn unknown_source_error() {
        let r = SourceRegistry::new();
        assert!(matches!(r.require(&"nope".into()), Err(S2sError::UnknownSource { .. })));
    }

    #[test]
    fn kinds_cover_taxonomy() {
        let store = Arc::new(WebStore::new());
        let doc = Arc::new(s2s_xml::parse("<a/>").unwrap());
        assert_eq!(db_conn().kind(), SourceKind::Database);
        assert_eq!(Connection::Xml { document: doc }.kind(), SourceKind::Xml);
        assert_eq!(
            Connection::Web { store: store.clone(), url: "http://x".into() }.kind(),
            SourceKind::WebPage
        );
        assert_eq!(
            Connection::Text { store, url: "file:///x".into() }.kind(),
            SourceKind::TextFile
        );
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(stable_seed("a"), stable_seed("a"));
        assert_ne!(stable_seed("a"), stable_seed("b"));
    }

    #[test]
    fn remote_registration_carries_models() {
        let mut r = SourceRegistry::new();
        r.register_remote("W", db_conn(), CostModel::wan(), FailureModel::reliable()).unwrap();
        let ep = r.get(&"W".into()).unwrap().endpoint();
        assert_eq!(ep.cost_model(), &CostModel::wan());
    }

    #[test]
    fn replicas_get_derived_ids_and_primary_cost() {
        let mut r = SourceRegistry::new();
        r.register_remote("DB", db_conn(), CostModel::wan(), FailureModel::unreachable()).unwrap();
        for replica in [FailureModel::reliable(), FailureModel::flaky(0.2)] {
            r.add_replica(&"DB".into(), replica).unwrap();
        }
        let s = r.get(&"DB".into()).unwrap();
        assert_eq!(s.replicas().len(), 2);
        let ids: Vec<_> = s.endpoints().map(|e| e.id().to_string()).collect();
        assert_eq!(ids, ["DB", "DB#r1", "DB#r2"]);
        assert!(s.endpoints().all(|e| e.cost_model() == &CostModel::wan()));
    }

    #[test]
    fn detailed_registration_controls_seed_and_schedule() {
        use s2s_netsim::FaultKind;
        let mut r = SourceRegistry::new();
        r.register_remote_detailed(
            "D",
            db_conn(),
            CostModel::lan(),
            FailureModel::reliable(),
            Some(99),
            FaultSchedule::new().fail_call(0, FaultKind::Unreachable),
        )
        .unwrap();
        let ep = r.get(&"D".into()).unwrap().endpoint();
        assert_eq!(ep.schedule().len(), 1);
        assert!(ep.invoke(1).is_err(), "call 0 is scheduled to fail");
        assert!(ep.invoke(1).is_ok());
    }

    #[test]
    fn mutation_bumps_version_and_feeds_events() {
        let mut r = SourceRegistry::new();
        r.register_local("DB", db_conn()).unwrap();
        assert_eq!(r.version_of("DB"), Some(0));
        let v = r
            .apply_mutation(&"DB".into(), db_conn(), ChangeKind::RowUpdate, vec!["price".into()])
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(r.version_of("DB"), Some(1));
        let events = r.poll_changes(&"DB".into(), 0).unwrap().unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].touches("price"));
        assert!(!events[0].touches("brand"));
        assert!(r.poll_changes(&"DB".into(), 1).unwrap().unwrap().is_empty());
    }

    #[test]
    fn mutation_rejects_unknown_source_and_kind_swap() {
        let mut r = SourceRegistry::new();
        r.register_local("DB", db_conn()).unwrap();
        assert!(matches!(
            r.apply_mutation(&"nope".into(), db_conn(), ChangeKind::RowInsert, vec![]),
            Err(S2sError::UnknownSource { .. })
        ));
        let doc = Arc::new(s2s_xml::parse("<a/>").unwrap());
        assert!(matches!(
            r.apply_mutation(
                &"DB".into(),
                Connection::Xml { document: doc },
                ChangeKind::DocReplace,
                vec![]
            ),
            Err(S2sError::MutationKindMismatch { .. })
        ));
        assert_eq!(r.version_of("DB"), Some(0), "failed mutations must not bump");
    }

    #[test]
    fn add_replica_requires_registered_source() {
        let mut r = SourceRegistry::new();
        assert!(matches!(
            r.add_replica(&"nope".into(), FailureModel::reliable()),
            Err(S2sError::UnknownSource { .. })
        ));
    }
}
