//! Tests-only reference: the owned `Element`/`Node` tree, the parser
//! that built it over a `Vec<(usize, char)>`, the writer and the XPath
//! step evaluator over it, as `s2s_xml` had them before a document
//! became one read-only arena. Kept verbatim but for import paths and
//! their unit tests, so `proptests.rs` can hold the arena parser to the
//! same trees and the same errors, the arena writer to the same bytes
//! and the arena evaluator to the same strings and elements. Not part
//! of the library.

#![allow(dead_code)]

pub mod dom;
pub mod parser;
pub mod writer;
pub mod xpath;
