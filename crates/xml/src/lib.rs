//! # s2s-xml
//!
//! XML support for the S2S middleware: a well-formedness-checking parser,
//! a lightweight DOM, an XPath subset for extraction rules, and a
//! serializer.
//!
//! The paper (§2.3.1, step 2) prescribes XPath/XQuery as the extraction
//! rule language for XML data sources: "For XML data sources, XPath and
//! XQuery can be used." The [`xpath`] module implements the subset those
//! rules need: absolute and descendant paths, wildcards, attribute and
//! `text()` steps, positional and value predicates, and `contains()`.
//!
//! # Examples
//!
//! ```
//! use s2s_xml::{parse, xpath::XPath};
//!
//! # fn main() -> Result<(), s2s_xml::XmlError> {
//! let doc = parse("<catalog><watch id=\"81\"><brand>Seiko</brand></watch></catalog>")?;
//! let path = XPath::new("/catalog/watch/brand/text()")?;
//! assert_eq!(path.eval_strings(&doc), ["Seiko"]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod dom;
pub mod error;
pub mod parser;
pub mod shape;
pub mod writer;
pub mod xpath;
pub mod xquery;

pub use dom::{Document, Element, Node};
pub use error::XmlError;
pub use parser::parse;
pub use shape::{document_shape, DocumentShape, XmlField};
pub use writer::{serialize, serialize_element};
pub use xpath::push_child_predicate;
