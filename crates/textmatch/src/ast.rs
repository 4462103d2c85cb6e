//! Pattern syntax tree and recursive-descent parser.

use crate::error::RegexError;

/// A node of the parsed pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// A single literal character.
    Literal(char),
    /// `.` — any character except `\n`.
    AnyChar,
    /// A character class.
    Class(ClassSet),
    /// Concatenation of subexpressions.
    Concat(Vec<Ast>),
    /// Alternation (`a|b`); tried left to right.
    Alternate(Vec<Ast>),
    /// Repetition of a subexpression.
    Repeat {
        /// The repeated subexpression.
        node: Box<Ast>,
        /// Minimum number of repetitions.
        min: u32,
        /// Maximum number of repetitions; `None` = unbounded.
        max: Option<u32>,
        /// Whether the quantifier is lazy (`*?`, `+?`, …).
        lazy: bool,
    },
    /// A capturing group with 1-based index.
    Group { index: u32, node: Box<Ast> },
    /// A non-capturing group `(?:...)`.
    NonCapturing(Box<Ast>),
    /// `^` — start of haystack.
    AnchorStart,
    /// `$` — end of haystack.
    AnchorEnd,
    /// `\b` — word boundary.
    WordBoundary,
    /// `\B` — not a word boundary.
    NotWordBoundary,
}

/// A set of character ranges, possibly negated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSet {
    /// Inclusive character ranges, sorted and non-overlapping after
    /// normalization.
    pub ranges: Vec<(char, char)>,
    /// Whether the class is negated (`[^...]`).
    pub negated: bool,
}

impl ClassSet {
    /// Builds a normalized class from arbitrary ranges.
    pub fn new(mut ranges: Vec<(char, char)>, negated: bool) -> Self {
        ranges.sort_unstable();
        // Merge overlapping/adjacent ranges.
        let mut merged: Vec<(char, char)> = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some((_, phi)) if (*phi as u32) + 1 >= lo as u32 => {
                    if hi > *phi {
                        *phi = hi;
                    }
                }
                _ => merged.push((lo, hi)),
            }
        }
        ClassSet { ranges: merged, negated }
    }

    /// Whether `c` is a member of the class.
    pub fn contains(&self, c: char) -> bool {
        let inside = self
            .ranges
            .binary_search_by(|&(lo, hi)| {
                if c < lo {
                    std::cmp::Ordering::Greater
                } else if c > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok();
        inside != self.negated
    }

    fn digits() -> Vec<(char, char)> {
        vec![('0', '9')]
    }

    fn word() -> Vec<(char, char)> {
        vec![('0', '9'), ('A', 'Z'), ('_', '_'), ('a', 'z')]
    }

    fn space() -> Vec<(char, char)> {
        vec![('\t', '\r'), (' ', ' ')]
    }
}

/// Is `c` a word character for `\b` purposes?
pub fn is_word_char(c: char) -> bool {
    c == '_' || c.is_ascii_alphanumeric()
}

/// Parses `pattern` into an [`Ast`].
///
/// # Errors
///
/// Returns [`RegexError`] on any syntax error, with the byte position of
/// the offending construct.
pub fn parse(pattern: &str) -> Result<Ast, RegexError> {
    let mut p = Parser { chars: pattern.char_indices().collect(), pos: 0, next_group: 1, depth: 0 };
    let ast = p.parse_alternation()?;
    if p.pos < p.chars.len() {
        return Err(RegexError::new(p.byte_pos(), "unmatched `)`"));
    }
    Ok(ast)
}

/// Deepest group nesting the parser accepts. It recurses once per open
/// group, so without a cap a pattern of a few hundred thousand `(`
/// overflows the stack.
const MAX_GROUP_DEPTH: usize = 250;

struct Parser {
    chars: Vec<(usize, char)>,
    pos: usize,
    next_group: u32,
    /// Groups open around the current position.
    depth: usize,
}

impl Parser {
    fn byte_pos(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(b, _)| b)
            .unwrap_or_else(|| self.chars.last().map(|&(b, c)| b + c.len_utf8()).unwrap_or(0))
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_alternation(&mut self) -> Result<Ast, RegexError> {
        let mut branches = vec![self.parse_concat()?];
        while self.eat('|') {
            branches.push(self.parse_concat()?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().unwrap())
        } else {
            Ok(Ast::Alternate(branches))
        }
    }

    fn parse_concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        loop {
            match self.peek() {
                None | Some('|') | Some(')') => break,
                _ => {}
            }
            let atom = self.parse_atom()?;
            let atom = self.parse_quantifier(atom)?;
            items.push(atom);
        }
        match items.len() {
            0 => Ok(Ast::Empty),
            1 => Ok(items.pop().unwrap()),
            _ => Ok(Ast::Concat(items)),
        }
    }

    fn parse_quantifier(&mut self, atom: Ast) -> Result<Ast, RegexError> {
        let (min, max) = match self.peek() {
            Some('*') => {
                self.bump();
                (0, None)
            }
            Some('+') => {
                self.bump();
                (1, None)
            }
            Some('?') => {
                self.bump();
                (0, Some(1))
            }
            Some('{') => {
                let save = self.pos;
                self.bump();
                match self.parse_bounds() {
                    Ok(b) => b,
                    Err(_) => {
                        // `{` not followed by valid bounds is a literal.
                        self.pos = save;
                        return Ok(atom);
                    }
                }
            }
            _ => return Ok(atom),
        };
        if quantifiable(&atom).is_err() {
            return Err(RegexError::new(self.byte_pos(), "quantifier follows nothing repeatable"));
        }
        if let Some(mx) = max {
            if min > mx {
                return Err(RegexError::new(self.byte_pos(), "repetition minimum exceeds maximum"));
            }
        }
        let lazy = self.eat('?');
        Ok(Ast::Repeat { node: Box::new(atom), min, max, lazy })
    }

    fn parse_bounds(&mut self) -> Result<(u32, Option<u32>), RegexError> {
        let min = self.parse_number()?;
        let bounds = if self.eat(',') {
            if self.peek() == Some('}') {
                (min, None)
            } else {
                (min, Some(self.parse_number()?))
            }
        } else {
            (min, Some(min))
        };
        if !self.eat('}') {
            return Err(RegexError::new(self.byte_pos(), "expected `}` after repetition bounds"));
        }
        Ok(bounds)
    }

    fn parse_number(&mut self) -> Result<u32, RegexError> {
        let mut n: u32 = 0;
        let mut seen = false;
        while let Some(c) = self.peek() {
            if let Some(d) = c.to_digit(10) {
                seen = true;
                n = n.checked_mul(10).and_then(|n| n.checked_add(d)).ok_or_else(|| {
                    RegexError::new(self.byte_pos(), "repetition bound too large")
                })?;
                if n > 10_000 {
                    return Err(RegexError::new(self.byte_pos(), "repetition bound exceeds 10000"));
                }
                self.bump();
            } else {
                break;
            }
        }
        if !seen {
            return Err(RegexError::new(self.byte_pos(), "expected a number"));
        }
        Ok(n)
    }

    fn parse_atom(&mut self) -> Result<Ast, RegexError> {
        let start = self.byte_pos();
        let c = self.bump().ok_or_else(|| RegexError::new(start, "unexpected end of pattern"))?;
        match c {
            '(' => {
                if self.depth == MAX_GROUP_DEPTH {
                    return Err(RegexError::new(
                        start,
                        format!("groups nested deeper than {MAX_GROUP_DEPTH}"),
                    ));
                }
                self.depth += 1;
                let group = if self.peek() == Some('?') {
                    self.bump();
                    if !self.eat(':') {
                        return Err(RegexError::new(
                            self.byte_pos(),
                            "only `(?:...)` groups are supported after `(?`",
                        ));
                    }
                    let inner = self.parse_alternation()?;
                    if !self.eat(')') {
                        return Err(RegexError::new(self.byte_pos(), "missing `)`"));
                    }
                    Ast::NonCapturing(Box::new(inner))
                } else {
                    let index = self.next_group;
                    self.next_group += 1;
                    let inner = self.parse_alternation()?;
                    if !self.eat(')') {
                        return Err(RegexError::new(self.byte_pos(), "missing `)`"));
                    }
                    Ast::Group { index, node: Box::new(inner) }
                };
                self.depth -= 1;
                Ok(group)
            }
            '[' => self.parse_class(start),
            '.' => Ok(Ast::AnyChar),
            '^' => Ok(Ast::AnchorStart),
            '$' => Ok(Ast::AnchorEnd),
            '\\' => self.parse_escape(start),
            '*' | '+' | '?' => Err(RegexError::new(start, "quantifier follows nothing repeatable")),
            c => Ok(Ast::Literal(c)),
        }
    }

    fn parse_escape(&mut self, start: usize) -> Result<Ast, RegexError> {
        let c = self
            .bump()
            .ok_or_else(|| RegexError::new(start, "pattern ends with a trailing backslash"))?;
        Ok(match c {
            'd' => Ast::Class(ClassSet::new(ClassSet::digits(), false)),
            'D' => Ast::Class(ClassSet::new(ClassSet::digits(), true)),
            'w' => Ast::Class(ClassSet::new(ClassSet::word(), false)),
            'W' => Ast::Class(ClassSet::new(ClassSet::word(), true)),
            's' => Ast::Class(ClassSet::new(ClassSet::space(), false)),
            'S' => Ast::Class(ClassSet::new(ClassSet::space(), true)),
            'b' => Ast::WordBoundary,
            'B' => Ast::NotWordBoundary,
            'n' => Ast::Literal('\n'),
            't' => Ast::Literal('\t'),
            'r' => Ast::Literal('\r'),
            '0' => Ast::Literal('\0'),
            'x' => {
                let hi = self.hex_digit(start)?;
                let lo = self.hex_digit(start)?;
                let v = (hi * 16 + lo) as u8;
                Ast::Literal(v as char)
            }
            c if c.is_ascii_alphanumeric() => {
                return Err(RegexError::new(start, format!("unknown escape `\\{c}`")));
            }
            c => Ast::Literal(c),
        })
    }

    fn hex_digit(&mut self, start: usize) -> Result<u32, RegexError> {
        let c = self.bump().ok_or_else(|| RegexError::new(start, "truncated \\x escape"))?;
        c.to_digit(16).ok_or_else(|| RegexError::new(start, "invalid hex digit in \\x escape"))
    }

    fn parse_class(&mut self, start: usize) -> Result<Ast, RegexError> {
        let negated = self.eat('^');
        let mut ranges: Vec<(char, char)> = Vec::new();
        // A `]` directly after `[` or `[^` is a literal member.
        if self.peek() == Some(']') {
            self.bump();
            ranges.push((']', ']'));
        }
        loop {
            let c = match self.bump() {
                None => return Err(RegexError::new(start, "unterminated character class")),
                Some(']') => break,
                Some(c) => c,
            };
            let lo = if c == '\\' {
                match self.class_escape(start)? {
                    ClassItem::Char(c) => c,
                    ClassItem::Set(set) => {
                        ranges.extend(set);
                        continue;
                    }
                }
            } else {
                c
            };
            if self.peek() == Some('-')
                && self.chars.get(self.pos + 1).map(|&(_, c)| c) != Some(']')
            {
                self.bump(); // '-'
                let hi_c = self
                    .bump()
                    .ok_or_else(|| RegexError::new(start, "unterminated character class"))?;
                let hi = if hi_c == '\\' {
                    match self.class_escape(start)? {
                        ClassItem::Char(c) => c,
                        ClassItem::Set(_) => {
                            return Err(RegexError::new(
                                start,
                                "class shorthand cannot be a range endpoint",
                            ));
                        }
                    }
                } else {
                    hi_c
                };
                if lo > hi {
                    return Err(RegexError::new(start, "character range is out of order"));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        if ranges.is_empty() {
            return Err(RegexError::new(start, "empty character class"));
        }
        Ok(Ast::Class(ClassSet::new(ranges, negated)))
    }

    fn class_escape(&mut self, start: usize) -> Result<ClassItem, RegexError> {
        let c = self.bump().ok_or_else(|| RegexError::new(start, "trailing backslash in class"))?;
        Ok(match c {
            'd' => ClassItem::Set(ClassSet::digits()),
            'w' => ClassItem::Set(ClassSet::word()),
            's' => ClassItem::Set(ClassSet::space()),
            'n' => ClassItem::Char('\n'),
            't' => ClassItem::Char('\t'),
            'r' => ClassItem::Char('\r'),
            c if c.is_ascii_alphanumeric() => {
                return Err(RegexError::new(start, format!("unknown class escape `\\{c}`")));
            }
            c => ClassItem::Char(c),
        })
    }
}

enum ClassItem {
    Char(char),
    Set(Vec<(char, char)>),
}

fn quantifiable(ast: &Ast) -> Result<(), ()> {
    match ast {
        Ast::AnchorStart
        | Ast::AnchorEnd
        | Ast::WordBoundary
        | Ast::NotWordBoundary
        | Ast::Empty => Err(()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_literal_concat() {
        let ast = parse("ab").unwrap();
        assert_eq!(ast, Ast::Concat(vec![Ast::Literal('a'), Ast::Literal('b')]));
    }

    #[test]
    fn parses_alternation() {
        let ast = parse("a|b|c").unwrap();
        match ast {
            Ast::Alternate(v) => assert_eq!(v.len(), 3),
            other => panic!("expected alternation, got {other:?}"),
        }
    }

    #[test]
    fn group_indices_assigned_in_order() {
        let ast = parse("(a)((b)c)").unwrap();
        fn collect(ast: &Ast, out: &mut Vec<u32>) {
            match ast {
                Ast::Group { index, node } => {
                    out.push(*index);
                    collect(node, out);
                }
                Ast::Concat(v) | Ast::Alternate(v) => v.iter().for_each(|n| collect(n, out)),
                Ast::Repeat { node, .. } | Ast::NonCapturing(node) => collect(node, out),
                _ => {}
            }
        }
        let mut ids = Vec::new();
        collect(&ast, &mut ids);
        assert_eq!(ids, [1, 2, 3]);
    }

    #[test]
    fn class_normalization_merges() {
        let set = ClassSet::new(vec![('a', 'd'), ('c', 'f'), ('h', 'h')], false);
        assert_eq!(set.ranges, vec![('a', 'f'), ('h', 'h')]);
        assert!(set.contains('e'));
        assert!(!set.contains('g'));
        assert!(set.contains('h'));
    }

    #[test]
    fn negated_class_contains() {
        let set = ClassSet::new(vec![('0', '9')], true);
        assert!(set.contains('a'));
        assert!(!set.contains('5'));
    }

    #[test]
    fn literal_close_bracket_first() {
        let ast = parse("[]a]").unwrap();
        match ast {
            Ast::Class(set) => {
                assert!(set.contains(']'));
                assert!(set.contains('a'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn dash_at_end_is_literal() {
        let ast = parse("[a-]").unwrap();
        match ast {
            Ast::Class(set) => {
                assert!(set.contains('-'));
                assert!(set.contains('a'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn brace_without_bounds_is_literal() {
        let ast = parse("a{b").unwrap();
        assert_eq!(ast, Ast::Concat(vec![Ast::Literal('a'), Ast::Literal('{'), Ast::Literal('b')]));
    }

    #[test]
    fn hex_escape() {
        assert_eq!(parse(r"\x41").unwrap(), Ast::Literal('A'));
    }

    #[test]
    fn rejects_double_quantifier() {
        assert!(parse("a**").is_err());
        assert!(parse("^*").is_err());
    }

    #[test]
    fn group_nesting_is_capped() {
        let nested = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert!(parse(&nested(MAX_GROUP_DEPTH)).is_ok());
        let err = parse(&nested(MAX_GROUP_DEPTH + 1)).unwrap_err();
        assert_eq!(err.position, MAX_GROUP_DEPTH);
        // Hostile input: deep enough to overflow the stack if uncapped.
        assert!(parse(&nested(200_000)).is_err());
        assert!(parse(&"(?:".repeat(200_000)).is_err());
        // Depth counts open groups, not groups seen.
        assert!(parse(&"(a)".repeat(MAX_GROUP_DEPTH + 1)).is_ok());
    }

    #[test]
    fn lazy_flag_set() {
        match parse("a+?").unwrap() {
            Ast::Repeat { lazy, min, max, .. } => {
                assert!(lazy);
                assert_eq!((min, max), (1, None));
            }
            other => panic!("expected repeat, got {other:?}"),
        }
    }
}
