//! The mediator's comparison.
//!
//! [`ConstraintOp`] is the one operator enum of an S2SQL condition
//! (`s2s_core::query::CondOp` re-exports it) and [`Comparand::test`]
//! the one function that decides `candidate op constant`: in one XSD
//! value space ([`space`], the one module that says which forms belong
//! to a space and how its values order), or SQL `LIKE` with `%`/`_` on
//! the text as it is. A condition compares in its property's declared
//! range; a side outside that space satisfies no operator, `!=`
//! included. Rule text names no range, so an XPath child comparison
//! compares in the decimal space when its constant is a decimal and as
//! a string otherwise. A [`Comparand`] holds its constant as written,
//! reads it once when it is built — whether it lies in the space, and
//! in the decimal and double spaces its nearest `f64` — and reads a
//! candidate per test, allocating nothing. A candidate that is an `f64`
//! is compared as a number wherever that answers what its text would
//! ([`Comparand::test_number`]).

pub mod space;

use std::cmp::Ordering;

pub use space::ValueSpace;

/// A comparison operator of an S2SQL condition or a pushed constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `LIKE` (`%` matches any run, `_` any single char).
    Like,
}

impl ConstraintOp {
    /// The canonical operator token.
    pub fn token(self) -> &'static str {
        match self {
            ConstraintOp::Eq => "=",
            ConstraintOp::Ne => "!=",
            ConstraintOp::Lt => "<",
            ConstraintOp::Le => "<=",
            ConstraintOp::Gt => ">",
            ConstraintOp::Ge => ">=",
            ConstraintOp::Like => "LIKE",
        }
    }

    /// Parses an operator token (the inverse of [`ConstraintOp::token`]).
    pub fn parse(token: &str) -> Option<ConstraintOp> {
        Some(match token {
            "=" => ConstraintOp::Eq,
            "!=" => ConstraintOp::Ne,
            "<" => ConstraintOp::Lt,
            "<=" => ConstraintOp::Le,
            ">" => ConstraintOp::Gt,
            ">=" => ConstraintOp::Ge,
            "LIKE" => ConstraintOp::Like,
            _ => return None,
        })
    }

    /// Whether an ordering of `candidate` against the constant satisfies
    /// the operator (`LIKE` orders nothing).
    #[inline]
    fn accepts(self, ord: Ordering) -> bool {
        match self {
            ConstraintOp::Eq => ord.is_eq(),
            ConstraintOp::Ne => ord.is_ne(),
            ConstraintOp::Lt => ord.is_lt(),
            ConstraintOp::Le => ord.is_le(),
            ConstraintOp::Gt => ord.is_gt(),
            ConstraintOp::Ge => ord.is_ge(),
            ConstraintOp::Like => false,
        }
    }
}

impl std::fmt::Display for ConstraintOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// `op constant` in one value space — the right-hand side of the one
/// comparison a condition's leaf and an XPath child comparison share.
/// `S` is how the constant is held: owned by a resolved query
/// condition, borrowed for the length of a scan.
#[derive(Debug, Clone, Copy)]
pub struct Comparand<S = String> {
    op: ConstraintOp,
    constant: S,
    space: ValueSpace,
    /// Derived from the other three, so it takes no part in equality.
    reading: Reading,
}

/// What a comparand's constant reads as, once, when it is built.
#[derive(Debug, Clone, Copy)]
enum Reading {
    /// Read with each candidate: `LIKE`, and constants of the string,
    /// integer and boolean spaces.
    Text,
    /// Outside the space, which is not the string space: no candidate
    /// satisfies the operator.
    Outside,
    /// A decimal or double constant, and the `f64` nearest its value.
    Number(f64),
}

impl<S: PartialEq> PartialEq for Comparand<S> {
    fn eq(&self, other: &Self) -> bool {
        (self.op, self.space) == (other.op, other.space) && self.constant == other.constant
    }
}

impl<S: AsRef<str>> Comparand<S> {
    /// `op constant` compared in `space`, a condition's declared range.
    pub fn in_space(op: ConstraintOp, constant: S, space: ValueSpace) -> Self {
        let text = constant.as_ref();
        let reading = if op == ConstraintOp::Like || space == ValueSpace::String {
            Reading::Text
        } else if let Some(c) = space.nearest_f64(text) {
            Reading::Number(c)
        } else if space.contains(text) {
            Reading::Text
        } else {
            Reading::Outside
        };
        Comparand { op, constant, space, reading }
    }

    /// `op constant` as rule text spells it, naming no range: compared
    /// in the decimal space when the constant is a decimal, as a string
    /// otherwise.
    pub fn new(op: ConstraintOp, constant: S) -> Self {
        let space = if ValueSpace::Decimal.contains(constant.as_ref()) {
            ValueSpace::Decimal
        } else {
            ValueSpace::String
        };
        Comparand::in_space(op, constant, space)
    }

    /// The operator.
    pub fn op(&self) -> ConstraintOp {
        self.op
    }

    /// The constant's text (a pattern for `LIKE`).
    pub fn constant(&self) -> &str {
        self.constant.as_ref()
    }

    /// The value space the comparison is made in.
    pub fn space(&self) -> ValueSpace {
        self.space
    }

    /// Whether `candidate op constant` holds: [`like_match`] on the
    /// candidate as it is for `LIKE`; otherwise
    /// [`ValueSpace::compare`], so a side outside the space or a NaN
    /// satisfies no operator. Strings are equal when their bytes are,
    /// so `=` and `!=` there read no byte of a candidate of another
    /// length.
    #[inline]
    pub fn test(&self, candidate: &str) -> bool {
        let constant = self.constant.as_ref();
        match (self.op, self.space, self.reading) {
            (ConstraintOp::Like, ..) => like_match(candidate, constant),
            (_, _, Reading::Outside) => false,
            (ConstraintOp::Eq, ValueSpace::String, _) => candidate == constant,
            (ConstraintOp::Ne, ValueSpace::String, _) => candidate != constant,
            (op, space, _) => space.compare(candidate, constant).is_some_and(|ord| op.accepts(ord)),
        }
    }

    /// Whether `x op constant` holds, where `x`'s text is the shortest
    /// positional decimal that reads back as `x` (what `{x}` prints):
    /// `Some(self.test(text))` without the text, or `None` when only
    /// the text can tell.
    ///
    /// It answers in the decimal and double spaces, for an operator
    /// other than `LIKE` and a constant in the space. A non-finite `x`
    /// prints `inf`, `-inf` or `NaN`, which satisfy nothing there. A
    /// finite `x` that is not `c`, the `f64` nearest the constant,
    /// orders against the constant as it orders against `c`: rounding
    /// to the nearest `f64` is monotonic and the text rounds to `x`, so
    /// a constant at or past the text's value would round to a `c` at or
    /// past `x`. A tie (`x == c`, `-0` against `0` included) is left to
    /// the text: the constant may lie anywhere that rounds to `x`.
    #[inline]
    pub fn test_number(&self, x: f64) -> Option<bool> {
        let Reading::Number(c) = self.reading else { return None };
        if !x.is_finite() {
            return Some(false);
        }
        match x.partial_cmp(&c)? {
            Ordering::Equal => None,
            ord => Some(self.op.accepts(ord)),
        }
    }
}

/// SQL `LIKE` matching: `%` matches any run, `_` any single character;
/// case-sensitive. Semantics match `s2s_minidb::value::like_match` so
/// a constraint pushed to a text source filters identically to the
/// same predicate pushed to a database.
///
/// Iterative with one backtrack point (the latest `%`): no allocation,
/// no recursion, `O(value × pattern)` — the pattern is client input
/// (an S2SQL `LIKE` constant), so a backtracker per `%` would let one
/// query pin a core.
pub fn like_match(value: &str, pattern: &str) -> bool {
    let (mut v, mut p) = (value.chars(), pattern.chars());
    // Where to resume after a mismatch: the pattern just past the
    // latest `%`, and the value position that `%` has absorbed up to.
    let mut retry: Option<(std::str::Chars<'_>, std::str::Chars<'_>)> = None;
    loop {
        let mut rest = p.clone();
        match rest.next() {
            Some('%') => {
                p = rest;
                retry = Some((v.clone(), p.clone()));
                continue;
            }
            Some(pc) => {
                let mut ahead = v.clone();
                if ahead.next().is_some_and(|vc| pc == '_' || pc == vc) {
                    (v, p) = (ahead, rest);
                    continue;
                }
            }
            None if v.as_str().is_empty() => return true,
            None => {}
        }
        // Mismatch: let the latest `%` absorb one more character.
        let Some((rv, rp)) = &mut retry else { return false };
        if rv.next().is_none() {
            return false;
        }
        (v, p) = (rv.clone(), rp.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_tokens_roundtrip() {
        for op in [
            ConstraintOp::Eq,
            ConstraintOp::Ne,
            ConstraintOp::Lt,
            ConstraintOp::Le,
            ConstraintOp::Gt,
            ConstraintOp::Ge,
            ConstraintOp::Like,
        ] {
            assert_eq!(ConstraintOp::parse(op.token()), Some(op));
        }
        assert_eq!(ConstraintOp::parse("<>"), None);
    }

    #[test]
    fn rule_text_reads_a_decimal_constant_in_the_decimal_space() {
        let lt = Comparand::new(ConstraintOp::Lt, "100");
        assert_eq!(lt.space(), ValueSpace::Decimal);
        assert!(lt.test("99.5") && lt.test("9") && lt.test("-1"));
        assert!(!lt.test("100") && !lt.test("250") && !lt.test("100.00"));
        // Forms outside the decimal space satisfy nothing, `!=` included.
        for other in ["1e1", "inf", "NaN", "-", "N/A", "1 5", ""] {
            assert!(!lt.test(other), "{other:?}");
            assert!(!Comparand::new(ConstraintOp::Ne, "100").test(other), "{other:?}");
        }
    }

    #[test]
    fn decimal_reading_trims_either_side() {
        let lt = Comparand::new(ConstraintOp::Lt, "20");
        assert!(!lt.test(" 59.5 "));
        assert!(!lt.test("\n  129.99\n"));
        assert!(lt.test("\t15 "));
        assert!(Comparand::new(ConstraintOp::Eq, "59.5").test(" 59.50 "));
        assert!(Comparand::new(ConstraintOp::Eq, " 15").test("15"));
        // Text and patterns keep their padding.
        assert!(!Comparand::new(ConstraintOp::Eq, "Seiko").test(" Seiko "));
        assert!(!Comparand::new(ConstraintOp::Like, "15").test(" 15 "));
    }

    #[test]
    fn a_range_fixes_the_space() {
        let string = |op, c| Comparand::in_space(op, c, ValueSpace::String);
        assert!(string(ConstraintOp::Lt, "9").test("10"), "code-point order");
        assert!(!string(ConstraintOp::Eq, "007").test("7"));
        let decimal = |op, c| Comparand::in_space(op, c, ValueSpace::Decimal);
        assert!(!decimal(ConstraintOp::Ne, "abc").test("1"), "a constant outside the space");
        assert!(decimal(ConstraintOp::Gt, "+7").test("0010"));
        let eq = string(ConstraintOp::Eq, "seiko");
        assert!(eq.test("seiko") && !eq.test("casio"));
        assert!(string(ConstraintOp::Gt, "casio").test("seiko"));
        assert!(!string(ConstraintOp::Gt, "casio").test("120"));
    }

    #[test]
    fn a_number_answers_off_a_tie_in_the_numeric_spaces() {
        let decimal = |op, c| Comparand::in_space(op, c, ValueSpace::Decimal);
        assert_eq!(decimal(ConstraintOp::Lt, "45").test_number(20.63), Some(true));
        assert_eq!(decimal(ConstraintOp::Ge, "45").test_number(59.5), Some(true));
        assert_eq!(decimal(ConstraintOp::Eq, "45").test_number(45.5), Some(false));
        assert_eq!(decimal(ConstraintOp::Ne, " +007 ").test_number(7.5), Some(true));
        // A tie is the text's: `0.1` prints as less than this constant.
        let longer = decimal(ConstraintOp::Lt, "0.10000000000000000001");
        assert_eq!(longer.test_number(0.1), None);
        assert!(longer.test("0.1"));
        assert_eq!(decimal(ConstraintOp::Eq, "0").test_number(-0.0), None);
        // A non-finite cell prints `inf` or `NaN`: outside both spaces.
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(decimal(ConstraintOp::Ne, "1").test_number(x), Some(false));
        }
        let double = |op, c| Comparand::in_space(op, c, ValueSpace::Double);
        assert_eq!(double(ConstraintOp::Lt, "INF").test_number(1e300), Some(true));
        assert_eq!(double(ConstraintOp::Gt, "1e5").test_number(1e6), Some(true));
        assert_eq!(double(ConstraintOp::Ne, "NaN").test_number(1.0), None);
        // `LIKE`, a constant outside the space and the other spaces
        // leave it to the text.
        assert_eq!(decimal(ConstraintOp::Like, "4%").test_number(45.0), None);
        assert_eq!(decimal(ConstraintOp::Lt, "1e5").test_number(1.0), None);
        for space in [ValueSpace::String, ValueSpace::Integer, ValueSpace::Boolean] {
            let comparand = Comparand::in_space(ConstraintOp::Lt, "1", space);
            assert_eq!(comparand.test_number(0.5), None, "{space:?}");
        }
        // What it reads of its constant takes no part in equality.
        assert_eq!(decimal(ConstraintOp::Lt, "45"), decimal(ConstraintOp::Lt, "45"));
        assert_ne!(decimal(ConstraintOp::Lt, "45"), decimal(ConstraintOp::Lt, "45.0"));
    }

    #[test]
    fn like_patterns() {
        let like = Comparand::new(ConstraintOp::Like, "s%");
        assert!(like.test("seiko"));
        assert!(!like.test("casio"));
        assert!(like_match("stainless-steel", "%steel"));
        assert!(like_match("Seiko", "S_iko"));
        assert!(!like_match("", "_"));
        assert!(like_match("", "%"));
    }

    /// A `%`-heavy pattern that cannot match must be refused in linear
    /// time: a backtracker per `%` needs over a minute for this one.
    #[test]
    fn like_is_linear_on_a_hostile_pattern() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let (value, pattern) = ("a".repeat(40), "%a".repeat(12) + "b");
            let free = like_match(&value, &pattern);
            let held = Comparand::new(ConstraintOp::Like, pattern).test(&value);
            tx.send((free, held)).expect("the test thread is receiving");
        });
        let answer = rx.recv_timeout(std::time::Duration::from_secs(1));
        assert_eq!(answer, Ok((false, false)), "LIKE did not answer within 1 s");
        worker.join().expect("matcher thread panicked");
    }
}
