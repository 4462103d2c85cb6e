//! The mediator's comparison, and constraints pushed to text sources.
//!
//! [`ConstraintOp`] is the one operator enum of an S2SQL condition
//! (`s2s_core::query::CondOp` re-exports it) and
//! [`ConstraintOp::holds`] the one function that decides `candidate op
//! constant` — numeric when both sides parse as `f64`, byte-wise string
//! comparison otherwise, SQL `LIKE` with `%`/`_`. The mediator's
//! residual filter and every predicate pushed into a source (an XPath
//! child comparison, a WebL `Where` guard, both held as a
//! [`Constraint`]) call it, so pushing a conjunct down cannot change
//! which values survive.

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

    /// Whether `candidate op constant` holds — the one comparison the
    /// mediator's residual filter and every pushed predicate (XPath
    /// child comparison, WebL `Where`) share: numeric when both sides
    /// parse as `f64` (a NaN on either side satisfies nothing),
    /// byte-wise string comparison otherwise, [`like_match`] for `LIKE`.
    #[inline]
    pub fn holds(self, candidate: &str, constant: &str) -> bool {
        if self == ConstraintOp::Like {
            return like_match(candidate, constant);
        }
        let ord = match (candidate.parse::<f64>(), constant.parse::<f64>()) {
            (Ok(a), Ok(b)) => a.partial_cmp(&b),
            _ => Some(candidate.cmp(constant)),
        };
        let Some(ord) = ord else { return false };
        match self {
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

impl std::fmt::Display for ConstraintOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// One pushed comparison: `candidate op value`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// The operator.
    pub op: ConstraintOp,
    /// The right-hand comparison value (unquoted; a pattern for `LIKE`).
    pub value: String,
}

impl Constraint {
    /// Creates a constraint.
    pub fn new(op: ConstraintOp, value: impl Into<String>) -> Self {
        Constraint { op, value: value.into() }
    }

    /// Whether `candidate` satisfies the constraint
    /// ([`ConstraintOp::holds`]).
    pub fn matches(&self, candidate: &str) -> bool {
        self.op.holds(candidate, &self.value)
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
        let lt = Constraint::new(ConstraintOp::Lt, "100");
        assert!(lt.matches("99.5"));
        assert!(!lt.matches("100"));
        assert!(!lt.matches("250"));
        // "9" < "100" numerically even though "9" > "100" as strings.
        assert!(lt.matches("9"));
    }

    #[test]
    fn string_when_either_side_is_non_numeric() {
        let eq = Constraint::new(ConstraintOp::Eq, "seiko");
        assert!(eq.matches("seiko"));
        assert!(!eq.matches("casio"));
        let ne = Constraint::new(ConstraintOp::Ne, "seiko");
        assert!(ne.matches("casio"));
        // Numeric candidate vs word value falls back to string compare.
        let gt = Constraint::new(ConstraintOp::Gt, "casio");
        assert!(gt.matches("seiko"));
        assert!(!gt.matches("120"));
    }

    #[test]
    fn like_patterns() {
        let like = Constraint::new(ConstraintOp::Like, "s%");
        assert!(like.matches("seiko"));
        assert!(!like.matches("casio"));
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
            let held = Constraint::new(ConstraintOp::Like, pattern).matches(&value);
            tx.send((free, held)).expect("the test thread is receiving");
        });
        let answer = rx.recv_timeout(std::time::Duration::from_secs(1));
        assert_eq!(answer, Ok((false, false)), "LIKE did not answer within 1 s");
        worker.join().expect("matcher thread panicked");
    }
}
