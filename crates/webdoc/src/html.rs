//! Tolerant HTML parsing.
//!
//! Real web pages (the paper's primary unstructured source) are rarely
//! well-formed XML, so this parser never fails: unclosed tags are
//! auto-closed, unknown constructs are skipped, entities that do not
//! resolve are kept verbatim.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Elements that never have content (`<br>`, `<img>`, …).
const VOID_ELEMENTS: &[&str] =
    &["area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "source", "wbr"];

/// A parsed HTML document: a token stream plus a lazily-built element
/// tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtmlDocument {
    source: Arc<str>,
    tokens: Vec<HtmlToken>,
}

/// One token of the HTML stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HtmlToken {
    /// An opening tag with its attributes; `self_closing` covers both
    /// `<br/>` and void elements.
    Open {
        /// Lowercased tag name.
        name: String,
        /// Attributes (names lowercased).
        attributes: BTreeMap<String, String>,
        /// Whether the tag closes itself.
        self_closing: bool,
    },
    /// A closing tag (lowercased).
    Close(String),
    /// A text run with entities decoded.
    Text(String),
}

/// Shape statistics for one tag name — see [`HtmlDocument::tag_survey`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagStat {
    /// Lowercased tag name.
    pub name: String,
    /// Number of occurrences.
    pub count: usize,
    /// Distinct `class` attribute values, in first-appearance order.
    pub classes: Vec<String>,
    /// Up to eight non-empty direct text contents, in document order.
    pub samples: Vec<String>,
}

impl HtmlDocument {
    /// Parses HTML. Never fails: malformed constructs degrade to text or
    /// are skipped.
    pub fn parse(html: &str) -> Self {
        HtmlDocument::parse_shared(html.into())
    }

    /// [`HtmlDocument::parse`] of a source the caller already shares.
    pub(crate) fn parse_shared(source: Arc<str>) -> Self {
        TOKENIZE_CALLS.with(|n| n.set(n.get() + 1));
        let tokens = tokenize(&source);
        HtmlDocument { source, tokens }
    }

    /// The raw source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The token stream.
    pub fn tokens(&self) -> &[HtmlToken] {
        &self.tokens
    }

    /// All text content with tags stripped and entities decoded —
    /// the equivalent of WebL's `Text(page)`.
    ///
    /// `<script>`/`<style>` bodies are excluded.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let mut skip_depth = 0usize;
        for t in &self.tokens {
            match t {
                HtmlToken::Open { name, self_closing, .. } => {
                    if !self_closing && (name == "script" || name == "style") {
                        skip_depth += 1;
                    }
                }
                HtmlToken::Close(name) => {
                    if (name == "script" || name == "style") && skip_depth > 0 {
                        skip_depth -= 1;
                    }
                }
                HtmlToken::Text(text) => {
                    if skip_depth == 0 {
                        out.push_str(text);
                    }
                }
            }
        }
        out
    }

    /// The text content of every `<name>` element, in document order.
    pub fn tag_texts(&self, name: &str) -> Vec<String> {
        let name = name.to_ascii_lowercase();
        let mut out = Vec::new();
        let mut depth = 0usize;
        let mut buf = String::new();
        for t in &self.tokens {
            match t {
                HtmlToken::Open { name: n, self_closing, .. } => {
                    if *n == name && !self_closing {
                        if depth == 0 {
                            buf.clear();
                        }
                        depth += 1;
                    }
                }
                HtmlToken::Close(n) => {
                    if *n == name && depth > 0 {
                        depth -= 1;
                        if depth == 0 {
                            out.push(buf.clone());
                        }
                    }
                }
                HtmlToken::Text(text) => {
                    if depth > 0 {
                        buf.push_str(text);
                    }
                }
            }
        }
        out
    }

    /// Surveys the tag shape of the page: one [`TagStat`] per distinct
    /// tag name, in first-appearance order, with occurrence count, the
    /// distinct `class` attribute values seen, and up to eight direct
    /// text samples. This is the introspection surface the semantic
    /// bootstrap pass reads: repeated leaf tags are candidate record
    /// fields, and a consistent `class` value is a name hint (e.g.
    /// `<span class="price">` → the `price` attribute).
    pub fn tag_survey(&self) -> Vec<TagStat> {
        const MAX_SAMPLES: usize = 8;
        let mut stats: Vec<TagStat> = Vec::new();
        let mut open: Vec<(String, String)> = Vec::new();
        for t in &self.tokens {
            match t {
                HtmlToken::Open { name, attributes, self_closing } => {
                    let stat = match stats.iter_mut().find(|s| s.name == *name) {
                        Some(s) => s,
                        None => {
                            stats.push(TagStat {
                                name: name.clone(),
                                count: 0,
                                classes: Vec::new(),
                                samples: Vec::new(),
                            });
                            stats.last_mut().expect("just pushed")
                        }
                    };
                    stat.count += 1;
                    if let Some(class) = attributes.get("class") {
                        if !stat.classes.iter().any(|c| c == class) {
                            stat.classes.push(class.clone());
                        }
                    }
                    if !self_closing {
                        open.push((name.clone(), String::new()));
                    }
                }
                HtmlToken::Close(name) => {
                    if let Some(at) = open.iter().rposition(|(n, _)| n == name) {
                        let (_, buf) = open.remove(at);
                        if let Some(stat) = stats.iter_mut().find(|s| s.name == *name) {
                            let trimmed = buf.trim();
                            if !trimmed.is_empty() && stat.samples.len() < MAX_SAMPLES {
                                stat.samples.push(trimmed.to_string());
                            }
                        }
                    }
                }
                HtmlToken::Text(text) => {
                    if let Some((_, buf)) = open.last_mut() {
                        buf.push_str(text);
                    }
                }
            }
        }
        stats
    }

    /// The value of `attribute` on every `<name>` tag, in document order.
    pub fn tag_attributes(&self, name: &str, attribute: &str) -> Vec<String> {
        let name = name.to_ascii_lowercase();
        let attribute = attribute.to_ascii_lowercase();
        self.tokens
            .iter()
            .filter_map(|t| match t {
                HtmlToken::Open { name: n, attributes, .. } if *n == name => {
                    attributes.get(&attribute).cloned()
                }
                _ => None,
            })
            .collect()
    }
}

thread_local! {
    static TOKENIZE_CALLS: Cell<usize> = const { Cell::new(0) };
}

/// How many documents this thread has tokenized so far. A diagnostic for
/// tests and perf assertions: a query over stored pages should leave it
/// unchanged once each page has been parsed.
pub fn tokenize_calls() -> usize {
    TOKENIZE_CALLS.with(Cell::get)
}

fn tokenize(html: &str) -> Vec<HtmlToken> {
    let chars: Vec<char> = html.chars().collect();
    let mut i = 0usize;
    let mut out = Vec::new();
    let mut text = String::new();
    let flush = |text: &mut String, out: &mut Vec<HtmlToken>| {
        if !text.is_empty() {
            out.push(HtmlToken::Text(std::mem::take(text)));
        }
    };
    while i < chars.len() {
        if chars[i] == '<' {
            // Comment?
            if chars[i..].starts_with(&['<', '!', '-', '-']) {
                flush(&mut text, &mut out);
                i += 4;
                while i < chars.len() && !chars[i..].starts_with(&['-', '-', '>']) {
                    i += 1;
                }
                i = (i + 3).min(chars.len());
                continue;
            }
            // Doctype / PI: skip to '>'.
            if matches!(chars.get(i + 1), Some('!') | Some('?')) {
                flush(&mut text, &mut out);
                while i < chars.len() && chars[i] != '>' {
                    i += 1;
                }
                i = (i + 1).min(chars.len());
                continue;
            }
            // Closing tag.
            if chars.get(i + 1) == Some(&'/') {
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && chars[j] != '>' {
                    j += 1;
                }
                if j < chars.len() {
                    let name: String =
                        chars[start..j].iter().collect::<String>().trim().to_ascii_lowercase();
                    if !name.is_empty() && name.chars().next().unwrap().is_ascii_alphabetic() {
                        flush(&mut text, &mut out);
                        out.push(HtmlToken::Close(name));
                        i = j + 1;
                        continue;
                    }
                }
                // Malformed: treat `<` as text.
                text.push('<');
                i += 1;
                continue;
            }
            // Opening tag.
            if chars.get(i + 1).is_some_and(|c| c.is_ascii_alphabetic()) {
                if let Some((token, next)) = parse_open_tag(&chars, i) {
                    flush(&mut text, &mut out);
                    // Script/style content is raw until the closing tag.
                    if let HtmlToken::Open { name, self_closing: false, .. } = &token {
                        if name == "script" || name == "style" {
                            let close = format!("</{name}");
                            let rest: String = chars[next..].iter().collect();
                            let end = rest.to_ascii_lowercase().find(&close);
                            let name = name.clone();
                            out.push(token);
                            match end {
                                Some(e) => {
                                    let body: String = rest.chars().take(e).collect();
                                    out.push(HtmlToken::Text(body));
                                    // skip to after "</name...>"
                                    let after = next + e;
                                    let mut j = after;
                                    while j < chars.len() && chars[j] != '>' {
                                        j += 1;
                                    }
                                    out.push(HtmlToken::Close(name));
                                    i = (j + 1).min(chars.len());
                                }
                                None => {
                                    out.push(HtmlToken::Text(rest));
                                    out.push(HtmlToken::Close(name));
                                    i = chars.len();
                                }
                            }
                            continue;
                        }
                    }
                    out.push(token);
                    i = next;
                    continue;
                }
            }
            // Bare `<`: text.
            text.push('<');
            i += 1;
        } else if chars[i] == '&' {
            let (decoded, next) = decode_entity(&chars, i);
            text.push_str(&decoded);
            i = next;
        } else {
            text.push(chars[i]);
            i += 1;
        }
    }
    flush(&mut text, &mut out);
    out
}

fn parse_open_tag(chars: &[char], start: usize) -> Option<(HtmlToken, usize)> {
    let mut i = start + 1;
    let mut name = String::new();
    while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '-') {
        name.push(chars[i].to_ascii_lowercase());
        i += 1;
    }
    if name.is_empty() {
        return None;
    }
    let mut attributes = BTreeMap::new();
    let mut self_closing = false;
    loop {
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        match chars.get(i) {
            None => break, // unterminated tag: tolerate
            Some('>') => {
                i += 1;
                break;
            }
            Some('/') => {
                self_closing = true;
                i += 1;
            }
            Some(_) => {
                // Attribute.
                let mut attr = String::new();
                while i < chars.len()
                    && !chars[i].is_whitespace()
                    && !matches!(chars[i], '=' | '>' | '/')
                {
                    attr.push(chars[i].to_ascii_lowercase());
                    i += 1;
                }
                if attr.is_empty() {
                    i += 1;
                    continue;
                }
                while i < chars.len() && chars[i].is_whitespace() {
                    i += 1;
                }
                let value = if chars.get(i) == Some(&'=') {
                    i += 1;
                    while i < chars.len() && chars[i].is_whitespace() {
                        i += 1;
                    }
                    match chars.get(i) {
                        Some(&q @ ('"' | '\'')) => {
                            i += 1;
                            let mut v = String::new();
                            while i < chars.len() && chars[i] != q {
                                v.push(chars[i]);
                                i += 1;
                            }
                            i = (i + 1).min(chars.len());
                            v
                        }
                        _ => {
                            let mut v = String::new();
                            while i < chars.len() && !chars[i].is_whitespace() && chars[i] != '>' {
                                v.push(chars[i]);
                                i += 1;
                            }
                            v
                        }
                    }
                } else {
                    String::new()
                };
                attributes.insert(attr, value);
            }
        }
    }
    if VOID_ELEMENTS.contains(&name.as_str()) {
        self_closing = true;
    }
    Some((HtmlToken::Open { name, attributes, self_closing }, i))
}

fn decode_entity(chars: &[char], start: usize) -> (String, usize) {
    // chars[start] == '&'
    let mut name = String::new();
    let mut i = start + 1;
    while i < chars.len() && i - start <= 9 {
        let c = chars[i];
        if c == ';' {
            let decoded = match name.as_str() {
                "lt" => Some("<".to_string()),
                "gt" => Some(">".to_string()),
                "amp" => Some("&".to_string()),
                "quot" => Some("\"".to_string()),
                "apos" => Some("'".to_string()),
                "nbsp" => Some(" ".to_string()),
                n if n.starts_with('#') => {
                    let v = if let Some(hex) = n[1..].strip_prefix(['x', 'X']) {
                        u32::from_str_radix(hex, 16).ok()
                    } else {
                        n[1..].parse().ok()
                    };
                    v.and_then(char::from_u32).map(|c| c.to_string())
                }
                _ => None,
            };
            return match decoded {
                Some(d) => (d, i + 1),
                None => (format!("&{name};"), i + 1), // unknown: keep verbatim
            };
        }
        if c.is_ascii_alphanumeric() || c == '#' {
            name.push(c);
            i += 1;
        } else {
            break;
        }
    }
    ("&".to_string(), start + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_snippet_text() {
        // The paper's §2.3.1 HTML fragment.
        let d = HtmlDocument::parse("<p> <b>Seiko Men's Automatic Dive Watch</b> </p>");
        assert_eq!(d.text().trim(), "Seiko Men's Automatic Dive Watch");
    }

    #[test]
    fn tag_texts() {
        let d = HtmlDocument::parse("<ul><li>a</li><li>b<i>!</i></li></ul>");
        assert_eq!(d.tag_texts("li"), ["a", "b!"]);
    }

    #[test]
    fn attributes_parsed() {
        let d = HtmlDocument::parse(r#"<a href="http://x.org" class=link>go</a><a href='y'>2</a>"#);
        assert_eq!(d.tag_attributes("a", "href"), ["http://x.org", "y"]);
        assert_eq!(d.tag_attributes("a", "class"), ["link"]);
    }

    #[test]
    fn void_elements_do_not_nest() {
        let d = HtmlDocument::parse("<p>a<br>b<img src=\"x\">c</p>");
        assert_eq!(d.text(), "abc");
        assert_eq!(d.tag_texts("p"), ["abc"]);
    }

    #[test]
    fn unclosed_tags_tolerated() {
        let d = HtmlDocument::parse("<div><p>one<p>two");
        assert_eq!(d.text(), "onetwo");
    }

    #[test]
    fn entities_decoded_and_unknown_kept() {
        let d = HtmlDocument::parse("a &amp; b &lt;x&gt; &nbsp; &bogus; &#65;&#x42;");
        assert_eq!(d.text(), "a & b <x>   &bogus; AB");
    }

    #[test]
    fn script_and_style_excluded_from_text() {
        let d = HtmlDocument::parse(
            "<p>before</p><script>var x = '<p>not text</p>';</script><style>p{}</style><p>after</p>",
        );
        assert_eq!(d.text(), "beforeafter");
    }

    #[test]
    fn comments_skipped() {
        let d = HtmlDocument::parse("a<!-- <p>hidden</p> -->b");
        assert_eq!(d.text(), "ab");
    }

    #[test]
    fn bare_angle_bracket_is_text() {
        let d = HtmlDocument::parse("1 < 2 and 3 > 2");
        assert_eq!(d.text(), "1 < 2 and 3 > 2");
    }

    #[test]
    fn case_insensitive_tags() {
        let d = HtmlDocument::parse("<P><B>x</B></P>");
        assert_eq!(d.tag_texts("b"), ["x"]);
    }

    #[test]
    fn doctype_skipped() {
        let d = HtmlDocument::parse("<!DOCTYPE html><html><body>x</body></html>");
        assert_eq!(d.text(), "x");
    }

    #[test]
    fn never_panics_on_garbage() {
        for s in ["<", "<<<>>>", "</", "<a", "<a href=", "&", "&#", "&#xZZ;", "<a/<b>"] {
            let _ = HtmlDocument::parse(s).text();
        }
    }
}
