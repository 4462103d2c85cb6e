//! SQL values and data types.

use std::cmp::Ordering;
use std::fmt;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Integer,
    /// 64-bit float.
    Real,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Boolean,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataType::Integer => "INTEGER",
            DataType::Real => "REAL",
            DataType::Text => "TEXT",
            DataType::Boolean => "BOOLEAN",
        })
    }
}

/// A runtime SQL value.
///
/// `NULL` compares as the smallest value for ordering purposes but never
/// equals anything (including itself) in predicate evaluation, matching
/// SQL three-valued logic closely enough for the middleware's needs.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Text value.
    Text(String),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// The text inside, if this is a `Text` value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The integer inside (or a losslessly-convertible float).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// The numeric value as a float.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean inside.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether the value conforms to (or can be stored in) a column type.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Integer)
                | (Value::Int(_), DataType::Real)
                | (Value::Float(_), DataType::Real)
                | (Value::Text(_), DataType::Text)
                | (Value::Bool(_), DataType::Boolean)
        )
    }

    /// SQL comparison: numeric types compare numerically across
    /// Int/Float; NULL is incomparable (`None`).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (a, b) = (a.as_float()?, b.as_float()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// SQL equality (NULL never equals anything).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.compare(other).map(|o| o == Ordering::Equal)
    }

    /// Canonical rendering used for display and for index keys.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out).expect("writing to a String cannot fail");
        out
    }

    /// Appends the canonical rendering ([`Value::render`]) to `out`:
    /// text as it is stored, nothing built in between.
    ///
    /// # Errors
    ///
    /// Only what `out` itself reports.
    pub fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Null => out.write_str("NULL"),
            Value::Int(i) => write!(out, "{i}"),
            Value::Float(f) => write_float(*f, out),
            Value::Text(s) => out.write_str(s),
            Value::Bool(b) => write!(out, "{b}"),
        }
    }
}

/// Writes `f` as `{f}` does — the shortest decimal that reads back as
/// `f`, always positional — without the shortest-digits search when `f`
/// is a short decimal, which is what a `REAL` column of prices holds.
///
/// For `k = 0, 1, … 6` take `n = round(|f|·10^k)`; if `n < 10^15` and
/// `n / 10^k == |f|`, the digits of `n` with the point `k` places from
/// the right are the answer. Both operands of that division are exact
/// doubles (`n < 2^53`, `10^k ≤ 10^6`) and IEEE division is correctly
/// rounded, so the test says `|f|` *is* the double nearest the decimal
/// `n·10^-k`. That decimal has at most 15 significant digits, and below
/// 16 digits decimal → double is injective (`10^15 < 2^53`; `|f| ≥ 10^-6`
/// is far from subnormal), so no other decimal of 15 digits or fewer —
/// in particular no shorter one — reads back as `f`: it is the string
/// `Display` prints. The smallest `k` leaves no trailing zero: were the
/// last digit of `n` zero, `n/10` would have passed at `k - 1` (the
/// product is within 0.2 of the integer it is rounded to, so rounding
/// finds it). Everything else — `NaN`, `±inf`, `|f| ≥ 10^15`, more than
/// six decimals, 16 or 17 digits — takes `Display`.
fn write_float(f: f64, out: &mut impl fmt::Write) -> fmt::Result {
    const POW10: [f64; 7] = [1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6];
    let magnitude = f.abs();
    for (k, scale) in POW10.iter().enumerate() {
        // `as` saturates: a NaN becomes 0 and fails the division test,
        // an infinity stops at the bound.
        let n = (magnitude * scale + 0.5) as u64;
        if n >= 1_000_000_000_000_000 {
            break;
        }
        if n as f64 / scale != magnitude {
            continue;
        }
        // A sign, 15 digits and a point at most, filled from the right:
        // `k` decimals, a slot skipped for the point (every slot starts
        // as one), the whole part down to its last digit.
        let mut text = [b'.'; 20];
        let mut at = text.len();
        let mut rest = n;
        for place in 0.. {
            if place == k && k > 0 {
                at -= 1;
            }
            at -= 1;
            text[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 && place >= k {
                break;
            }
        }
        if f.is_sign_negative() {
            at -= 1;
            text[at] = b'-';
        }
        let text = std::str::from_utf8(&text[at..]).expect("ASCII digits, a point and a sign");
        return out.write_str(text);
    }
    write!(out, "{f}")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

// Total ordering for index keys and ORDER BY: Null < Bool < numbers < Text.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Value {
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Text(_) => 3,
        }
    }

    /// Total order used for sorting and index keys (distinct from SQL
    /// predicate semantics, where NULL is incomparable).
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) if a.rank() == 2 && b.rank() == 2 => {
                let (x, y) = (a.as_float().unwrap_or(f64::NAN), b.as_float().unwrap_or(f64::NAN));
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// SQL `LIKE` pattern matching: `%` matches any run, `_` any single
/// character; matching is case-sensitive.
///
/// Iterative over the two strings' characters with one backtrack point
/// (the latest `%`): no allocation, no recursion, `O(value × pattern)`.
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
    fn sql_comparison_cross_numeric() {
        assert_eq!(Value::Int(2).compare(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Int(2).compare(&Value::Float(2.5)), Some(Ordering::Less));
        assert_eq!(Value::Float(3.0).compare(&Value::Int(2)), Some(Ordering::Greater));
    }

    #[test]
    fn null_is_incomparable_in_sql() {
        assert_eq!(Value::Null.compare(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
    }

    #[test]
    fn text_vs_number_incomparable_in_sql() {
        assert_eq!(Value::Text("a".into()).compare(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_is_total() {
        let mut vals = [
            Value::Text("b".into()),
            Value::Null,
            Value::Int(5),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Text("a".into()),
            Value::Int(-1),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert!(matches!(vals[1], Value::Bool(true)));
        assert_eq!(vals.last().unwrap().as_text(), Some("b"));
    }

    #[test]
    fn int_float_equal_in_total_order() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        // And they hash identically (required by Eq+Hash consistency).
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(2)), h(&Value::Float(2.0)));
    }

    #[test]
    fn conformance() {
        assert!(Value::Int(1).conforms_to(DataType::Integer));
        assert!(Value::Int(1).conforms_to(DataType::Real));
        assert!(!Value::Int(1).conforms_to(DataType::Text));
        assert!(Value::Null.conforms_to(DataType::Text));
        assert!(!Value::Float(1.5).conforms_to(DataType::Integer));
        assert!(Value::Bool(true).conforms_to(DataType::Boolean));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Seiko", "Seiko"));
        assert!(like_match("Seiko", "Se%"));
        assert!(like_match("Seiko", "%iko"));
        assert!(like_match("Seiko", "%eik%"));
        assert!(like_match("Seiko", "S_iko"));
        assert!(!like_match("Seiko", "s%"));
        assert!(!like_match("Seiko", "Seiko_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("stainless-steel", "%steel"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Float(2.0).as_int(), Some(2));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Text("x".into()).to_string(), "x");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
    }
}
