//! The simulated web: a URL → document registry.
//!
//! The paper's Web wrapper connects to live sites
//! (`GetURL("http://www.shop.com/...")`). Reproduction substitution: a
//! deterministic in-process store plays the web, so the same `GetURL`
//! code path is exercised without network access. Latency and failure
//! are injected one level up, by `s2s-netsim`.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::error::WebdocError;
use crate::html::HtmlDocument;

/// A document retrievable by URL: an HTML page or a plain-text file.
///
/// Immutable, and cheap to clone: clones share the source text and, for
/// an HTML page, its token stream, which is built the first time
/// anything asks for it and kept. A changed page is a new document
/// (registered over the old one), so a kept parse is never stale.
#[derive(Debug, Clone)]
pub struct WebDocument {
    source: Arc<str>,
    /// `Some` for an HTML page: its parse, once made.
    parsed: Option<Arc<OnceLock<HtmlDocument>>>,
}

impl WebDocument {
    /// An HTML page (raw markup).
    pub fn html(source: impl Into<String>) -> Self {
        WebDocument { source: source.into().into(), parsed: Some(Arc::default()) }
    }

    /// A plain-text file.
    pub fn plain_text(source: impl Into<String>) -> Self {
        WebDocument { source: source.into().into(), parsed: None }
    }

    /// The raw bytes-as-text of the document.
    pub fn raw(&self) -> &str {
        &self.source
    }

    /// The human-visible text: tag-stripped for HTML, the file itself
    /// for plain text.
    pub fn text(&self) -> Cow<'_, str> {
        match self.parsed() {
            Some(html) => Cow::Owned(html.text()),
            None => Cow::Borrowed(&self.source),
        }
    }

    /// Whether this is an HTML page.
    pub fn is_html(&self) -> bool {
        self.parsed.is_some()
    }

    /// The parsed page, `None` for plain text. Tokenizes on the first
    /// call; every later call, on this document or a clone, returns the
    /// same parse.
    pub fn parsed(&self) -> Option<&HtmlDocument> {
        let parsed = self.parsed.as_ref()?;
        Some(parsed.get_or_init(|| HtmlDocument::parse_shared(self.source.clone())))
    }

    /// The same text as a plain-text file: what the text wrapper sees
    /// of a page, markup and all.
    pub fn as_plain_text(&self) -> WebDocument {
        WebDocument { source: self.source.clone(), parsed: None }
    }
}

/// Documents are equal when their content is; whether a page has been
/// tokenized yet is not content.
impl PartialEq for WebDocument {
    fn eq(&self, other: &Self) -> bool {
        self.source == other.source && self.is_html() == other.is_html()
    }
}

impl Eq for WebDocument {}

/// A URL-addressed document store.
///
/// # Examples
///
/// ```
/// use s2s_webdoc::store::WebStore;
///
/// let mut web = WebStore::new();
/// web.register_html("http://shop.example/w1", "<b>Seiko</b>");
/// assert!(web.fetch("http://shop.example/w1").is_ok());
/// assert!(web.fetch("http://shop.example/missing").is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WebStore {
    documents: BTreeMap<String, WebDocument>,
}

impl WebStore {
    /// An empty store.
    pub fn new() -> Self {
        WebStore::default()
    }

    /// Registers an HTML page under `url`, replacing any previous
    /// document.
    pub fn register_html(&mut self, url: impl Into<String>, html: impl Into<String>) {
        self.documents.insert(url.into(), WebDocument::html(html));
    }

    /// Registers a plain-text file under `url`.
    pub fn register_text(&mut self, url: impl Into<String>, text: impl Into<String>) {
        self.documents.insert(url.into(), WebDocument::plain_text(text));
    }

    /// Fetches a document.
    ///
    /// # Errors
    ///
    /// Returns [`WebdocError::UrlNotFound`] for unregistered URLs.
    pub fn fetch(&self, url: &str) -> Result<&WebDocument, WebdocError> {
        self.documents.get(url).ok_or_else(|| WebdocError::UrlNotFound { url: url.to_string() })
    }

    /// Number of registered documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Iterates over `(url, document)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &WebDocument)> {
        self.documents.iter().map(|(u, d)| (u.as_str(), d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::html::tokenize_calls;

    #[test]
    fn register_and_fetch() {
        let mut w = WebStore::new();
        w.register_html("http://x/1", "<b>hi</b>");
        w.register_text("http://x/2", "plain");
        assert_eq!(w.len(), 2);
        assert_eq!(w.fetch("http://x/1").unwrap().text(), "hi");
        assert_eq!(w.fetch("http://x/2").unwrap().text(), "plain");
        assert!(w.fetch("http://x/1").unwrap().is_html());
        assert!(!w.fetch("http://x/2").unwrap().is_html());
    }

    #[test]
    fn missing_url_errors() {
        let w = WebStore::new();
        assert!(matches!(w.fetch("http://nope"), Err(WebdocError::UrlNotFound { .. })));
    }

    #[test]
    fn reregistration_replaces() {
        let mut w = WebStore::new();
        w.register_html("http://x", "<b>old</b>");
        w.register_html("http://x", "<b>new</b>");
        assert_eq!(w.len(), 1);
        assert_eq!(w.fetch("http://x").unwrap().text(), "new");
    }

    #[test]
    fn page_is_tokenized_on_first_use_and_once() {
        let mut w = WebStore::new();
        w.register_html("http://x", "<b>hi</b> <i>there</i>");
        let before = tokenize_calls();
        let doc = w.fetch("http://x").unwrap();
        assert_eq!(tokenize_calls(), before, "registration and fetch tokenize nothing");
        let copy = doc.clone();
        assert_eq!(doc.text(), "hi there");
        assert_eq!(copy.parsed().unwrap().tag_texts("i"), ["there"]);
        assert_eq!(w.clone().fetch("http://x").unwrap().text(), "hi there");
        assert_eq!(tokenize_calls(), before + 1, "clones share the one parse");
    }

    #[test]
    fn reregistration_never_serves_the_old_parse() {
        let mut w = WebStore::new();
        w.register_html("http://x", "<b>old</b>");
        assert_eq!(w.fetch("http://x").unwrap().parsed().unwrap().tag_texts("b"), ["old"]);
        w.register_html("http://x", "<b>new</b>");
        assert_eq!(w.fetch("http://x").unwrap().parsed().unwrap().tag_texts("b"), ["new"]);
    }

    #[test]
    fn plain_text_is_borrowed_and_never_parsed() {
        let doc = WebDocument::plain_text("a <b>c</b>");
        assert!(matches!(doc.text(), Cow::Borrowed("a <b>c</b>")));
        assert!(doc.parsed().is_none());
        // A page seen as a file keeps its markup.
        let page = WebDocument::html("a <b>c</b>");
        assert_eq!(page.text(), "a c");
        assert_eq!(page.as_plain_text().text(), "a <b>c</b>");
    }

    #[test]
    fn equality_is_by_content() {
        let (a, b) = (WebDocument::html("<b>x</b>"), WebDocument::html("<b>x</b>"));
        a.parsed();
        assert_eq!(a, b, "having been tokenized is not content");
        assert_ne!(a, WebDocument::plain_text("<b>x</b>"));
        assert_ne!(a, WebDocument::html("<b>y</b>"));
    }

    #[test]
    fn raw_preserves_markup() {
        let mut w = WebStore::new();
        w.register_html("http://x", "<b>hi</b>");
        assert_eq!(w.fetch("http://x").unwrap().raw(), "<b>hi</b>");
    }
}
