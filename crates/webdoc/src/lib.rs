//! # s2s-webdoc
//!
//! Unstructured data sources for the S2S middleware.
//!
//! The paper's unstructured sources are "Web pages and plain text files"
//! (§2.1), wrapped with rules "written in a Web extraction language
//! (WebL)" (§2.3.1). WebL — Kistler & Marais's 1998 language, the paper's
//! reference \[6\] — is proprietary and long unavailable, so this crate
//! implements:
//!
//! * [`html`] — a tolerant HTML tokenizer/tree builder (real-world pages
//!   are rarely well-formed XML),
//! * [`store`] — a simulated web: a URL → document registry standing in
//!   for the 2006 live web (see DESIGN.md substitution notes); a stored
//!   page is tokenized once, on first use, and every rule that reads it
//!   afterwards — through `GetURL`, `Text`, `TagTexts`, … — shares that
//!   parse,
//! * [`webl`] — an interpreter for a WebL-like extraction language
//!   covering the constructs the paper's Figure 3 code sample uses
//!   (`GetURL`, `Text`, `Str_Search`, `Str_Split`, `Select`, regular
//!   expressions via backtick literals, `+` concatenation, indexing).
//!
//! # Examples
//!
//! ```
//! use s2s_webdoc::{store::WebStore, webl::WeblProgram};
//!
//! # fn main() -> Result<(), s2s_webdoc::WebdocError> {
//! let mut web = WebStore::new();
//! web.register_html(
//!     "http://www.shop.com/watch81",
//!     "<p><b>Seiko Men's Automatic Dive Watch</b></p>",
//! );
//! let program = WeblProgram::parse(r#"
//!     var P = GetURL("http://www.shop.com/watch81");
//!     var pText = Text(P);
//!     var regexpr = "<p><b>" + `[0-9a-zA-Z']+`;
//!     var St = Str_Search(pText, regexpr);
//!     var spliter = Str_Split(St[0][0], "<>");
//!     var brand = Select(spliter[2], 0, 5);
//! "#)?;
//! let result = program.run(&web)?;
//! assert_eq!(result.as_str(), Some("Seiko"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod html;
pub mod store;
pub mod webl;

pub use error::WebdocError;
pub use html::{HtmlDocument, TagStat};
pub use store::{WebDocument, WebStore};
pub use webl::{WeblProgram, WeblValue};
