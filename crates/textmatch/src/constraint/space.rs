//! The XSD value spaces a comparison compares in (XML Schema Part 2,
//! §3.2): `xsd:string`, `xsd:boolean`, `xsd:decimal`, `xsd:integer` and
//! `xsd:double`. [`ValueSpace`] decides two things, and nothing else in
//! the workspace decides them: which lexical forms belong to a space,
//! and how two values in it order.
//!
//! A string is read as it is. Every other space reads a form with the
//! whitespace around it ignored (XSD's `collapse` facet, `str::trim`
//! saying what is whitespace): `<price> 59.5 </price>` is the decimal
//! 59.5. Decimals and integers order exactly, by sign and digits and
//! never through an `f64`: `59.50 = 59.5`, `0100 = 100`, `-0 = 0`.
//! Doubles order as IEEE 754 does, and a NaN orders with nothing.
//! `false < true`. Strings order by code point.

use std::cmp::Ordering;

/// One XSD value space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueSpace {
    /// `xsd:string`: every text, ordered by code point.
    String,
    /// `xsd:boolean`: `true`, `false`, `1`, `0`.
    Boolean,
    /// `xsd:decimal`: `[+-]?(\d+(\.\d*)?|\.\d+)`.
    Decimal,
    /// `xsd:integer`: `[+-]?\d+`, of any size.
    Integer,
    /// `xsd:double`: a decimal with an optional exponent, `INF`,
    /// `+INF`, `-INF` or `NaN`.
    Double,
}

impl ValueSpace {
    /// `lexical` as the space reads it (trimmed, except in a string), if
    /// it is in the space.
    pub fn form(self, lexical: &str) -> Option<&str> {
        let inside = match self {
            ValueSpace::String => return Some(lexical),
            ValueSpace::Boolean => boolean(lexical).is_some(),
            ValueSpace::Decimal => Decimal::parse(lexical).is_some(),
            ValueSpace::Integer => integer(lexical).is_some(),
            ValueSpace::Double => double(lexical).is_some(),
        };
        inside.then(|| lexical.trim())
    }

    /// Whether `lexical` is in the space.
    pub fn contains(self, lexical: &str) -> bool {
        self.form(lexical).is_some()
    }

    /// The `f64` nearest the value `lexical` spells, in the decimal and
    /// double spaces (a double's `INF` and `NaN` as themselves); `None`
    /// outside the space, and in the others.
    pub(crate) fn nearest_f64(self, lexical: &str) -> Option<f64> {
        match self {
            ValueSpace::Decimal => {
                Decimal::parse(lexical).and_then(|_| lexical.trim().parse().ok())
            }
            ValueSpace::Double => double(lexical),
            _ => None,
        }
    }

    /// How the values `a` and `b` spell order in the space: `None` when
    /// either is outside it, or the two are unordered (a NaN).
    #[inline]
    pub fn compare(self, a: &str, b: &str) -> Option<Ordering> {
        match self {
            ValueSpace::String => Some(a.cmp(b)),
            ValueSpace::Boolean => Some(boolean(a)?.cmp(&boolean(b)?)),
            ValueSpace::Decimal => Some(Decimal::parse(a)?.cmp(&Decimal::parse(b)?)),
            ValueSpace::Integer => Some(integer(a)?.cmp(&integer(b)?)),
            ValueSpace::Double => double(a)?.partial_cmp(&double(b)?),
        }
    }
}

/// A decimal value, borrowed from a lexical form: its sign, its whole
/// digits without leading zeros and its fraction digits without
/// trailing zeros, so equal values are equal structs and order compares
/// them digit by digit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Decimal<'a> {
    negative: bool,
    whole: &'a str,
    fraction: &'a str,
}

impl<'a> Decimal<'a> {
    /// Reads a form in the decimal lexical space, trimmed: one pass over
    /// the bytes, allocating nothing.
    #[inline]
    fn parse(lexical: &'a str) -> Option<Decimal<'a>> {
        let text = lexical.trim();
        let form = text.as_bytes();
        let (negative, mut at) = match form.first()? {
            b'-' => (true, 1),
            b'+' => (false, 1),
            _ => (false, 0),
        };
        let digits_from = at;
        while form.get(at) == Some(&b'0') {
            at += 1;
        }
        let whole = at;
        while form.get(at).is_some_and(u8::is_ascii_digit) {
            at += 1;
        }
        let (whole, mut fraction) = (whole..at, at..at);
        let mut digits = at - digits_from;
        if form.get(at) == Some(&b'.') {
            at += 1;
            fraction.start = at;
            while form.get(at).is_some_and(u8::is_ascii_digit) {
                at += 1;
            }
            digits += at - fraction.start;
            fraction.end = at;
            while fraction.end > fraction.start && form[fraction.end - 1] == b'0' {
                fraction.end -= 1;
            }
        }
        if at != form.len() || digits == 0 {
            return None;
        }
        // The form is ASCII, so every cut is a char boundary.
        let (whole, fraction) = (&text[whole], &text[fraction]);
        let negative = negative && !(whole.is_empty() && fraction.is_empty());
        Some(Decimal { negative, whole, fraction })
    }
}

impl Ord for Decimal<'_> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let magnitude = (self.whole.len(), self.whole, self.fraction).cmp(&(
            other.whole.len(),
            other.whole,
            other.fraction,
        ));
        match (self.negative, other.negative) {
            (false, false) => magnitude,
            (true, true) => magnitude.reverse(),
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
        }
    }
}

impl PartialOrd for Decimal<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn boolean(lexical: &str) -> Option<bool> {
    match lexical.trim() {
        "true" | "1" => Some(true),
        "false" | "0" => Some(false),
        _ => None,
    }
}

fn integer(lexical: &str) -> Option<Decimal<'_>> {
    Decimal::parse(lexical).filter(|_| !lexical.contains('.'))
}

fn double(lexical: &str) -> Option<f64> {
    let form = lexical.trim();
    match form {
        "INF" | "+INF" => return Some(f64::INFINITY),
        "-INF" => return Some(f64::NEG_INFINITY),
        "NaN" => return Some(f64::NAN),
        _ => {}
    }
    let (mantissa, exponent) = form.split_once(['e', 'E']).unwrap_or((form, "0"));
    let exponent = exponent.strip_prefix(['+', '-']).unwrap_or(exponent);
    Decimal::parse(mantissa)?;
    if exponent.is_empty() || !exponent.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    form.parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_forms_and_order() {
        for form in ["12", "-.5", "+3.", "0012", " 59.5 ", "\t-0\n", "\u{a0}1"] {
            assert!(ValueSpace::Decimal.contains(form), "{form:?}");
        }
        for form in ["1e5", "NaN", "inf", "INF", ".", "+", "", "1.2.3", "1 5", "N/A", "-", "1_000"]
        {
            assert!(!ValueSpace::Decimal.contains(form), "{form:?}");
        }
        let cmp = |a, b| ValueSpace::Decimal.compare(a, b);
        assert_eq!(cmp("59.50", "59.5"), Some(Ordering::Equal));
        assert_eq!(cmp("0100", "100"), Some(Ordering::Equal));
        assert_eq!(cmp("-0.00", "+0"), Some(Ordering::Equal));
        assert_eq!(cmp("9", "10"), Some(Ordering::Less));
        assert_eq!(cmp("-10", "-9"), Some(Ordering::Less));
        assert_eq!(cmp("0.5", "0.49"), Some(Ordering::Greater));
        assert_eq!(cmp("-0.5", "0.49"), Some(Ordering::Less));
        assert_eq!(cmp(".1", "0.10000000000000000001"), Some(Ordering::Less));
        assert_eq!(cmp("99999999999999999999", "99999999999999999998"), Some(Ordering::Greater));
        assert_eq!(cmp("N/A", "1"), None);
        assert_eq!(cmp("1", "1e1"), None);
    }

    #[test]
    fn integer_boolean_double_and_string() {
        assert!(ValueSpace::Integer.contains(" +007 ") && !ValueSpace::Integer.contains("1.0"));
        assert_eq!(ValueSpace::Integer.compare("007", "7"), Some(Ordering::Equal));
        assert_eq!(ValueSpace::Boolean.compare("0", "true"), Some(Ordering::Less));
        assert!(!ValueSpace::Boolean.contains("yes"));
        for form in ["1e5", "-1.5E-3", "INF", "-INF", "NaN", ".5e0", "12"] {
            assert!(ValueSpace::Double.contains(form), "{form:?}");
        }
        for form in ["inf", "nan", "infinity", "1e", "e5", "1e+", "0x10"] {
            assert!(!ValueSpace::Double.contains(form), "{form:?}");
        }
        assert_eq!(ValueSpace::Double.compare("1e2", "100"), Some(Ordering::Equal));
        assert_eq!(ValueSpace::Double.compare("NaN", "NaN"), None);
        assert_eq!(ValueSpace::String.compare("10", "9"), Some(Ordering::Less));
        assert_eq!(ValueSpace::String.form(" x "), Some(" x "));
        assert_eq!(ValueSpace::Decimal.form(" 5 "), Some("5"));
    }
}
