//! The mediator's comparison, and constraints pushed to text sources.
//!
//! [`ConstraintOp`] is the one operator enum of an S2SQL condition
//! (`s2s_core::query::CondOp` re-exports it) and [`Comparand::test`]
//! the one function that decides `candidate op constant` — numeric when
//! both sides read as `f64` (the candidate with the whitespace around it
//! ignored), byte-wise string comparison otherwise, SQL `LIKE` with
//! `%`/`_`. The mediator's residual filter and every
//! predicate pushed into a source (an XPath child comparison, a WebL
//! `Where` guard) call it, so pushing a conjunct down cannot change
//! which values survive. A [`Comparand`] reads its constant once,
//! however many candidates it then tests.

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

    /// Whether `candidate op constant` holds: a [`Comparand`] built and
    /// tested once. Build the comparand yourself to test many candidates
    /// against one constant.
    #[inline]
    pub fn holds(self, candidate: &str, constant: &str) -> bool {
        Comparand::new(self, constant).test(candidate)
    }
}

impl std::fmt::Display for ConstraintOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// `op constant` with the constant read once — the right-hand side of
/// the one comparison the mediator's residual filter and every pushed
/// predicate (XPath child comparison, WebL `Where`) share. `S` is how
/// the constant is held: owned by a resolved query condition, borrowed
/// for the length of a scan.
#[derive(Debug, Clone, Copy)]
pub struct Comparand<S = String> {
    op: ConstraintOp,
    constant: S,
    /// The constant as an `f64`, if it parses as one (never looked at
    /// for `LIKE`).
    number: Option<f64>,
}

impl<S: AsRef<str>> Comparand<S> {
    /// Reads `constant` for comparisons under `op`.
    pub fn new(op: ConstraintOp, constant: S) -> Self {
        let number = match op {
            ConstraintOp::Like => None,
            _ => constant.as_ref().parse::<f64>().ok(),
        };
        Comparand { op, constant, number }
    }

    /// The operator.
    pub fn op(&self) -> ConstraintOp {
        self.op
    }

    /// The constant's text (a pattern for `LIKE`).
    pub fn constant(&self) -> &str {
        self.constant.as_ref()
    }

    /// Whether `candidate op constant` holds: numeric when both sides
    /// parse as `f64` (a NaN on either side satisfies nothing),
    /// byte-wise string comparison otherwise, [`like_match`] for `LIKE`.
    /// The candidate is parsed only when the constant is a number, and
    /// with the whitespace around it ignored: a source pads its numbers
    /// (`<price> 59.5 </price>`), the Instance Generator trims what it
    /// types, and a value must compare as the number it is emitted as.
    /// String comparison and `LIKE` see the candidate as it is.
    #[inline]
    pub fn test(&self, candidate: &str) -> bool {
        let constant = self.constant.as_ref();
        if self.op == ConstraintOp::Like {
            return like_match(candidate, constant);
        }
        let numbers =
            self.number.and_then(|b| candidate.trim().parse::<f64>().ok().map(|a| (a, b)));
        let ord = match numbers {
            Some((a, b)) => a.partial_cmp(&b),
            None => Some(candidate.cmp(constant)),
        };
        let Some(ord) = ord else { return false };
        match self.op {
            ConstraintOp::Eq => ord.is_eq(),
            ConstraintOp::Ne => ord.is_ne(),
            ConstraintOp::Lt => ord.is_lt(),
            ConstraintOp::Le => ord.is_le(),
            ConstraintOp::Gt => ord.is_gt(),
            ConstraintOp::Ge => ord.is_ge(),
            ConstraintOp::Like => unreachable!("handled above"),
        }
    }
}

/// Two comparands are equal when they spell the same comparison; the
/// number is a reading of the constant, not part of it.
impl<S: AsRef<str>> PartialEq for Comparand<S> {
    fn eq(&self, other: &Self) -> bool {
        self.op == other.op && self.constant() == other.constant()
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
    fn numeric_when_both_sides_parse() {
        let lt = Comparand::new(ConstraintOp::Lt, "100");
        assert!(lt.test("99.5"));
        assert!(!lt.test("100"));
        assert!(!lt.test("250"));
        // "9" < "100" numerically even though "9" > "100" as strings.
        assert!(lt.test("9"));
    }

    #[test]
    fn numeric_reading_ignores_the_whitespace_around_a_candidate() {
        let lt = Comparand::new(ConstraintOp::Lt, "20");
        assert!(!lt.test(" 59.5 "));
        assert!(!lt.test("\n  129.99\n"));
        assert!(lt.test("\t15 "));
        assert!(Comparand::new(ConstraintOp::Eq, "59.5").test(" 59.50 "));
        // Inside the number it is not padding, and the constant is the
        // client's text as written: both fall to string comparison.
        assert!(lt.test("1 5") && !Comparand::new(ConstraintOp::Eq, "15").test("1 5"));
        assert!(!Comparand::new(ConstraintOp::Eq, " 15").test("15"));
        assert!(Comparand::new(ConstraintOp::Eq, " 15").test(" 15"));
        // Text and patterns keep their padding.
        assert!(!Comparand::new(ConstraintOp::Eq, "Seiko").test(" Seiko "));
        assert!(!Comparand::new(ConstraintOp::Like, "15").test(" 15 "));
    }

    #[test]
    fn string_when_either_side_is_non_numeric() {
        let eq = Comparand::new(ConstraintOp::Eq, "seiko");
        assert!(eq.test("seiko"));
        assert!(!eq.test("casio"));
        let ne = Comparand::new(ConstraintOp::Ne, "seiko");
        assert!(ne.test("casio"));
        // Numeric candidate vs word value falls back to string compare.
        let gt = Comparand::new(ConstraintOp::Gt, "casio");
        assert!(gt.test("seiko"));
        assert!(!gt.test("120"));
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
