//! # s2s-textmatch
//!
//! A self-contained regular-expression engine used throughout the S2S
//! middleware: by the WebL-like web extraction language, by XPath string
//! predicates, and by the plain-text extractor.
//!
//! The engine has three stages:
//!
//! 1. [`ast`] — a recursive-descent parser producing a syntax tree; group
//!    nesting is capped, so a hostile pattern is an error, not a stack
//!    overflow,
//! 2. [`compiler`] — compilation to a non-deterministic finite automaton
//!    expressed as a linear instruction program, plus the literal prefix
//!    every match must begin with (`brand: ` for `brand: (\w+)`; empty
//!    when the pattern opens with a class, alternation or anchor) and
//!    its terminal runs (the `\w+` there); a program whose thread table
//!    (capture slots × waiting instructions) would exceed a fixed budget
//!    is refused,
//! 3. [`vm`] — a Pike-style virtual machine, the one matcher behind
//!    every method of [`Regex`]. It starts threads only where the prefix
//!    occurs and skips from one occurrence to the next with a substring
//!    search, so the haystack between candidates is never stepped
//!    through; from a candidate it runs the program over the haystack's
//!    bytes in `O(program × input)` time with full capture-group support
//!    (no exponential backtracking), in working memory that is sized by
//!    the live threads and reused from one match to the next, and it
//!    finishes a thread that outranks every other on a terminal run in
//!    one step.
//!
//! Supported syntax: literals, `.`, character classes (`[a-z0-9_]`,
//! negation, escapes), predefined classes (`\d \w \s \D \W \S`), anchors
//! (`^`, `$`, `\b`, `\B`), greedy and lazy quantifiers (`* + ? {m,n}`),
//! alternation (`|`), capture groups `(...)` and non-capturing groups
//! `(?:...)`.
//!
//! # Examples
//!
//! ```
//! use s2s_textmatch::Regex;
//!
//! # fn main() -> Result<(), s2s_textmatch::RegexError> {
//! let re = Regex::new(r"<b>([0-9a-zA-Z']+)")?;
//! let caps = re.captures("<p><b>Seiko Men's Watch</b></p>").unwrap();
//! assert_eq!(caps.get(1).unwrap().text(), "Seiko");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod compiler;
pub mod constraint;
pub mod error;
pub mod sniff;
pub mod vm;

pub use constraint::{like_match, Comparand, ConstraintOp, ValueSpace};
pub use error::RegexError;
pub use sniff::{sniff_labeled_fields, LabeledField};

use std::rc::Rc;

use compiler::Program;

/// A compiled regular expression.
///
/// Construction parses and compiles the pattern once; matching methods may
/// then be called any number of times. `Regex` is cheap to clone (the
/// program is immutable) and is `Send + Sync`.
///
/// # Examples
///
/// ```
/// use s2s_textmatch::Regex;
///
/// # fn main() -> Result<(), s2s_textmatch::RegexError> {
/// let re = Regex::new(r"\d{4}-\d{2}-\d{2}")?;
/// assert!(re.is_match("shipped 2026-07-04 from Lisboa"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
}

/// A single match: the byte range of the overall match plus any capture
/// groups.
///
/// A match shares its capture slots with the [`FindIter`] that yielded
/// it; the iterator writes the next match into the same block when this
/// one has been dropped, and into a new one when it is still held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match<'h> {
    haystack: &'h str,
    /// Capture slots: `2i` and `2i + 1` bound group `i` (0 = the whole
    /// match), [`vm::UNSET`] if the match did not go through it.
    slots: Rc<[usize]>,
}

/// One capture group of a [`Match`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capture<'h> {
    haystack: &'h str,
    start: usize,
    end: usize,
}

impl<'h> Capture<'h> {
    /// Byte offset where this capture begins.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Byte offset one past the end of this capture.
    pub fn end(&self) -> usize {
        self.end
    }

    /// The captured text.
    pub fn text(&self) -> &'h str {
        &self.haystack[self.start..self.end]
    }

    /// Length of the captured text in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the captured text is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl<'h> Match<'h> {
    /// The capture group `i` (0 is the whole match), if it participated in
    /// the match.
    pub fn get(&self, i: usize) -> Option<Capture<'h>> {
        let (start, end) = (*self.slots.get(2 * i)?, *self.slots.get(2 * i + 1)?);
        (start != vm::UNSET && end != vm::UNSET).then_some(Capture {
            haystack: self.haystack,
            start,
            end,
        })
    }

    /// The whole matched text.
    pub fn text(&self) -> &'h str {
        self.get(0).map(|c| c.text()).unwrap_or("")
    }

    /// Byte offset where the whole match begins.
    pub fn start(&self) -> usize {
        self.get(0).map(|c| c.start()).unwrap_or(0)
    }

    /// Byte offset one past the end of the whole match.
    pub fn end(&self) -> usize {
        self.get(0).map(|c| c.end()).unwrap_or(0)
    }

    /// Number of capture slots (including the implicit group 0).
    pub fn group_count(&self) -> usize {
        self.slots.len() / 2
    }
}

impl Regex {
    /// Parses and compiles `pattern`.
    ///
    /// # Errors
    ///
    /// Returns [`RegexError`] if the pattern is syntactically invalid
    /// (unbalanced parentheses, bad repetition bounds, trailing escape, …).
    pub fn new(pattern: &str) -> Result<Self, RegexError> {
        let tree = ast::parse(pattern)?;
        let program = compiler::compile(&tree)?;
        Ok(Regex { pattern: pattern.to_string(), program })
    }

    /// The original pattern string.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of capture groups, not counting the implicit whole-match
    /// group.
    pub fn capture_count(&self) -> usize {
        self.program.captures
    }

    /// Whether the regex matches anywhere in `haystack`.
    pub fn is_match(&self, haystack: &str) -> bool {
        self.find(haystack).is_some()
    }

    /// Finds the leftmost match, if any.
    pub fn find<'h>(&self, haystack: &'h str) -> Option<Match<'h>> {
        self.find_at(haystack, 0)
    }

    /// Finds the leftmost match starting at or after byte offset `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a char boundary of `haystack`.
    pub fn find_at<'h>(&self, haystack: &'h str, start: usize) -> Option<Match<'h>> {
        assert!(haystack.is_char_boundary(start), "start must lie on a char boundary");
        let mut scratch = vm::Scratch::new(&self.program);
        let slots = vm::search(&self.program, haystack, start, &mut scratch)?;
        Some(Match { haystack, slots: Rc::from(slots) })
    }

    /// Alias of [`Regex::find`] returning the capture groups; mirrors the
    /// API shape of mainstream regex libraries.
    pub fn captures<'h>(&self, haystack: &'h str) -> Option<Match<'h>> {
        self.find(haystack)
    }

    /// Iterates over all non-overlapping matches, leftmost-first.
    ///
    /// Each search resumes where the previous match ended and reuses its
    /// working memory, so iterating over many matches stays linear; a
    /// match dropped before the next one is asked for lends that one its
    /// slots, so a scan allocates the same blocks for any number of
    /// matches.
    pub fn find_iter<'r, 'h>(&'r self, haystack: &'h str) -> FindIter<'r, 'h> {
        FindIter {
            regex: self,
            haystack,
            scratch: vm::Scratch::new(&self.program),
            slots: std::iter::repeat_n(vm::UNSET, self.program.slots).collect(),
            next_start: Some(0),
        }
    }

    /// Splits `haystack` by matches of the regex.
    ///
    /// Adjacent matches produce empty fields, matching the behaviour of
    /// `str::split` with a pattern.
    pub fn split<'r, 'h>(&'r self, haystack: &'h str) -> Split<'r, 'h> {
        Split { it: self.find_iter(haystack), last: 0, haystack, done: false }
    }

    /// Replaces every match with `replacement`. `$0`–`$9` in the
    /// replacement refer to capture groups; `$$` is a literal `$`.
    pub fn replace_all(&self, haystack: &str, replacement: &str) -> String {
        let mut out = String::with_capacity(haystack.len());
        let mut last = 0;
        for m in self.find_iter(haystack) {
            out.push_str(&haystack[last..m.start()]);
            expand(replacement, &m, &mut out);
            last = m.end();
        }
        out.push_str(&haystack[last..]);
        out
    }
}

impl std::fmt::Display for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.pattern)
    }
}

impl std::str::FromStr for Regex {
    type Err = RegexError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Regex::new(s)
    }
}

fn expand(replacement: &str, m: &Match<'_>, out: &mut String) {
    let mut chars = replacement.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '$' {
            out.push(c);
            continue;
        }
        match chars.peek() {
            Some('$') => {
                chars.next();
                out.push('$');
            }
            Some(d) if d.is_ascii_digit() => {
                let idx = d.to_digit(10).unwrap() as usize;
                chars.next();
                if let Some(cap) = m.get(idx) {
                    out.push_str(cap.text());
                }
            }
            _ => out.push('$'),
        }
    }
}

/// Iterator over non-overlapping matches; see [`Regex::find_iter`].
#[derive(Debug)]
pub struct FindIter<'r, 'h> {
    regex: &'r Regex,
    haystack: &'h str,
    scratch: vm::Scratch,
    /// The slots of the match yielded last, shared with it.
    slots: Rc<[usize]>,
    /// Byte offset where the next search starts; `None` once exhausted.
    next_start: Option<usize>,
}

impl<'r, 'h> Iterator for FindIter<'r, 'h> {
    type Item = Match<'h>;

    fn next(&mut self) -> Option<Match<'h>> {
        let start = self.next_start.take()?;
        let found = vm::search(&self.regex.program, self.haystack, start, &mut self.scratch)?;
        match Rc::get_mut(&mut self.slots) {
            // The previous match is gone: its block is free.
            Some(free) => free.copy_from_slice(found),
            None => self.slots = Rc::from(found),
        }
        let m = Match { haystack: self.haystack, slots: Rc::clone(&self.slots) };
        let end = m.end();
        self.next_start = if end > m.start() {
            Some(end)
        } else {
            // Empty match: step one char past it to guarantee progress;
            // one at the very end of the haystack is the last.
            self.haystack[end..].chars().next().map(|c| end + c.len_utf8())
        };
        Some(m)
    }
}

/// Iterator over the fields produced by [`Regex::split`].
#[derive(Debug)]
pub struct Split<'r, 'h> {
    it: FindIter<'r, 'h>,
    last: usize,
    haystack: &'h str,
    done: bool,
}

impl<'r, 'h> Iterator for Split<'r, 'h> {
    type Item = &'h str;

    fn next(&mut self) -> Option<&'h str> {
        if self.done {
            return None;
        }
        match self.it.next() {
            Some(m) => {
                let field = &self.haystack[self.last..m.start()];
                self.last = m.end();
                Some(field)
            }
            None => {
                self.done = true;
                Some(&self.haystack[self.last..])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        let re = Regex::new("abc").unwrap();
        assert!(re.is_match("xxabcxx"));
        assert!(!re.is_match("ab"));
        let m = re.find("xxabcxx").unwrap();
        assert_eq!((m.start(), m.end()), (2, 5));
    }

    #[test]
    fn leftmost_match_wins() {
        let re = Regex::new("a+").unwrap();
        let m = re.find("baaa caa").unwrap();
        assert_eq!(m.text(), "aaa");
        assert_eq!(m.start(), 1);
    }

    #[test]
    fn captures_nested() {
        let re = Regex::new(r"(a(b+))c").unwrap();
        let m = re.find("zabbbcz").unwrap();
        assert_eq!(m.get(0).unwrap().text(), "abbbc");
        assert_eq!(m.get(1).unwrap().text(), "abbb");
        assert_eq!(m.get(2).unwrap().text(), "bbb");
    }

    #[test]
    fn alternation_prefers_left() {
        let re = Regex::new("foo|foobar").unwrap();
        let m = re.find("foobar").unwrap();
        assert_eq!(m.text(), "foo");
    }

    #[test]
    fn classes_and_predefined() {
        let re = Regex::new(r"[0-9a-zA-Z']+").unwrap();
        assert_eq!(re.find("<b>Seiko's</b>").unwrap().text(), "b");
        let re = Regex::new(r"\d+\.\d+").unwrap();
        assert_eq!(re.find("price 129.99 usd").unwrap().text(), "129.99");
    }

    #[test]
    fn negated_class() {
        let re = Regex::new(r"[^<>]+").unwrap();
        assert_eq!(re.find("<tag>body</tag>").unwrap().text(), "tag");
    }

    #[test]
    fn anchors() {
        let re = Regex::new(r"^abc$").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("xabc"));
        assert!(!re.is_match("abcx"));
    }

    #[test]
    fn word_boundary() {
        let re = Regex::new(r"\bcat\b").unwrap();
        assert!(re.is_match("a cat sat"));
        assert!(!re.is_match("concatenate"));
    }

    #[test]
    fn bounded_repetition() {
        let re = Regex::new(r"a{2,3}").unwrap();
        assert_eq!(re.find("aaaa").unwrap().text(), "aaa");
        assert!(!re.is_match("a"));
        let re = Regex::new(r"a{2}").unwrap();
        assert_eq!(re.find("aaa").unwrap().text(), "aa");
        let re = Regex::new(r"a{2,}").unwrap();
        assert_eq!(re.find("aaaaa").unwrap().text(), "aaaaa");
    }

    #[test]
    fn lazy_quantifier() {
        let re = Regex::new(r"<.+?>").unwrap();
        assert_eq!(re.find("<a><b>").unwrap().text(), "<a>");
        let re = Regex::new(r"<.+>").unwrap();
        assert_eq!(re.find("<a><b>").unwrap().text(), "<a><b>");
    }

    #[test]
    fn optional() {
        let re = Regex::new(r"colou?r").unwrap();
        assert!(re.is_match("color"));
        assert!(re.is_match("colour"));
    }

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new(r"\d+").unwrap();
        let all: Vec<_> = re.find_iter("a1b22c333").map(|m| m.text().to_string()).collect();
        assert_eq!(all, ["1", "22", "333"]);
    }

    #[test]
    fn empty_match_progress() {
        let re = Regex::new(r"a*").unwrap();
        let n = re.find_iter("bbb").count();
        assert_eq!(n, 4); // empty match at each position incl. end
    }

    #[test]
    fn split_basic() {
        let re = Regex::new(r",\s*").unwrap();
        let parts: Vec<_> = re.split("a, b,c ,d").collect();
        assert_eq!(parts, ["a", "b", "c ", "d"]);
    }

    #[test]
    fn split_like_webl_tags() {
        // The paper's WebL example splits on "<>" characters.
        let re = Regex::new(r"[<>]+").unwrap();
        let parts: Vec<_> = re.split("<p><b>Seiko Men's").collect();
        assert_eq!(parts, ["", "p", "b", "Seiko Men's"]);
    }

    #[test]
    fn replace_all_with_groups() {
        let re = Regex::new(r"(\w+)@(\w+)").unwrap();
        let out = re.replace_all("bob@home alice@work", "$2/$1");
        assert_eq!(out, "home/bob work/alice");
    }

    #[test]
    fn replace_dollar_escape() {
        let re = Regex::new(r"x").unwrap();
        assert_eq!(re.replace_all("x", "$$1"), "$1");
    }

    #[test]
    fn unicode_haystack() {
        let re = Regex::new(r"\w+").unwrap();
        let m = re.find("päivä 42").unwrap();
        // \w is ASCII-word plus alphabetic per our definition
        assert!(!m.text().is_empty());
    }

    #[test]
    fn paper_webl_brand_extraction() {
        // Mirrors the paper's WebL snippet: regexpr = "<p><b>" + [0-9a-zA-Z']+
        let page = "<p><b>Seiko Men's Automatic Dive Watch</b></p>";
        let re = Regex::new(r"<p><b>[0-9a-zA-Z']+").unwrap();
        let m = re.find(page).unwrap();
        assert_eq!(m.text(), "<p><b>Seiko");
    }

    #[test]
    fn invalid_patterns_error() {
        assert!(Regex::new("(abc").is_err());
        assert!(Regex::new("abc)").is_err());
        assert!(Regex::new("a{3,2}").is_err());
        assert!(Regex::new("[z-a]").is_err());
        assert!(Regex::new("a\\").is_err());
        assert!(Regex::new("*a").is_err());
    }

    #[test]
    fn from_str_and_display() {
        let re: Regex = r"\d+".parse().unwrap();
        assert_eq!(re.to_string(), r"\d+");
        assert_eq!(re.pattern(), r"\d+");
    }

    #[test]
    fn capture_count() {
        let re = Regex::new(r"(a)(?:b)(c(d))").unwrap();
        assert_eq!(re.capture_count(), 3);
    }

    #[test]
    fn find_at_offset() {
        let re = Regex::new("ab").unwrap();
        let m = re.find_at("abab", 1).unwrap();
        assert_eq!(m.start(), 2);
    }

    #[test]
    fn pathological_no_blowup() {
        // Classic catastrophic-backtracking case is linear on a Pike VM.
        let re = Regex::new("a*a*a*a*a*a*a*b").unwrap();
        let haystack = "a".repeat(2000);
        assert!(!re.is_match(&haystack));
    }
}
