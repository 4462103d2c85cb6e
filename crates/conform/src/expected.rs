//! The ground truth: the answer a scenario's query must give, computed
//! from the scenario alone.
//!
//! Paper §2.6 defines an answer by the source records and the mapping,
//! not by another way of running the engine. [`Scenario::expected`]
//! states it so, from [`Scenario::records`], the conditions, and each
//! source's kind, `single_record` flag and fault class. This module runs
//! no engine code: it names no crate of the workspace, so a bug on the
//! path every arm shares (a wrapper, the generator, the comparison)
//! cannot make the reference agree with it.
//!
//! Per source, the answer is:
//!
//! * for a source that answers nothing (`HardDown`, `HostileRule`): no
//!   individual, and every attribute failed;
//! * for any other source (its faults are rescued by a replica or the
//!   retry budget): one individual per record that passes the `WHERE`
//!   — record 0 alone for a single-record source — named as its IRI
//!   names it (the source's path segment and the record number), whose
//!   lines are its property → literal pairs: a value in its range's
//!   lexical space a literal of that datatype, its text trimmed (D28);
//!   any other a plain string, as the source's payload spells it (an
//!   XML or web price may be padded).
//!
//! A condition compares in its attribute's declared range
//! ([`RANGES`]), as SPARQL compares in an operand's datatype: a decimal
//! range orders decimal values exactly, whatever their spelling and the
//! whitespace around it, and a value or constant outside the decimal
//! lexical space satisfies no operator, `!=` included; a string range
//! orders by code point. `LIKE` matches `%` and `_` on the text as it
//! is. A condition on an attribute the source does not map fails.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use crate::scenario::{
    attribute_path, payload_value, Condition, FaultClass, Record, Scenario, ATTRS, RANGES,
};

/// One answer, free of order: a line per individual and the failed
/// `(source, attribute path)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Answer {
    /// `segment#record property="value"^^datatype …` per individual,
    /// properties by name, no `^^` on a plain string; sorted, and a
    /// multiset (equal records give equal lines).
    pub individuals: Vec<String>,
    /// The failed `(source, attribute path)` pairs.
    pub failed: BTreeSet<(String, String)>,
}

impl Answer {
    /// The answer holding these individual lines and failures.
    pub(crate) fn new(
        mut individuals: Vec<String>,
        failed: impl IntoIterator<Item = (String, String)>,
    ) -> Answer {
        individuals.sort();
        Answer { individuals, failed: failed.into_iter().collect() }
    }

    /// The line of one individual, record `record` of the source whose
    /// IRI segment is `segment`, from its `(property, lexical form,
    /// datatype)` triples in any order: the datatype as `^^xsd:name`
    /// (`@tag` for a language), empty for a plain string.
    pub(crate) fn line<'a>(
        segment: &str,
        record: impl fmt::Display,
        values: impl IntoIterator<Item = (&'a str, String, String)>,
    ) -> String {
        let mut values: Vec<String> =
            values.into_iter().map(|(p, lexical, d)| format!(" {p}={lexical:?}{d}")).collect();
        values.sort();
        format!("{segment}#{record}{}", values.concat())
    }

    /// Whether every individual of `self` is one of `other`'s, counted
    /// with multiplicity (failures are not compared).
    pub(crate) fn individuals_within(&self, other: &Answer) -> bool {
        let mut rest = other.individuals.iter().peekable();
        self.individuals.iter().all(|line| {
            while rest.next_if(|o| *o < line).is_some() {}
            rest.next_if(|o| *o == line).is_some()
        })
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.individuals {
            writeln!(f, "{line}")?;
        }
        for (source, attribute) in &self.failed {
            writeln!(f, "!{source} {attribute}")?;
        }
        Ok(())
    }
}

impl Scenario {
    /// The answer the scenario's query must give.
    pub fn expected(&self) -> Answer {
        self.expected_over(&self.records())
    }

    /// The answer over `records` in place of the scenario's catalog (a
    /// delta round's mutated one).
    pub(crate) fn expected_over(&self, records: &[Record]) -> Answer {
        let mut individuals = Vec::new();
        let mut failed = Vec::new();
        for (i, spec) in self.sources.iter().enumerate() {
            if matches!(spec.fault, FaultClass::HardDown | FaultClass::HostileRule(_)) {
                failed.extend((0..ATTRS.len()).map(|a| (format!("SRC_{i}"), attribute_path(a))));
                continue;
            }
            let described = if spec.single_record { &records[..1] } else { records };
            for (index, record) in described.iter().enumerate() {
                if self.selects(record, |_| true) {
                    let values = (0..ATTRS.len())
                        .map(|a| literal(a, &payload_value(spec.kind, index, record, a)));
                    individuals.push(Answer::line(&format!("src_{i}"), index, values));
                }
            }
        }
        Answer::new(individuals, failed)
    }

    /// Whether `record` passes every conjunct at a source that maps the
    /// attributes `mapped` accepts (by index into [`ATTRS`]): a leaf on
    /// an attribute it does not map fails, and `NOT` flips that as any
    /// other.
    pub(crate) fn selects(&self, record: &Record, mapped: impl Fn(usize) -> bool) -> bool {
        let leaf = |c: &Condition| {
            let value = [&record.brand, &record.price, &record.case][c.attr];
            mapped(c.attr) && holds(RANGES[c.attr], &c.op, value, &c.value)
        };
        self.conditions.iter().all(|c| c.holds(&leaf))
    }
}

/// The `(property, lexical form, datatype)` that `value` of `ATTRS[attr]`
/// becomes: typed by its range when it is in the range's lexical space
/// (only `decimal` besides `string` is declared), its text trimmed; a
/// plain string as spelled otherwise.
pub(crate) fn literal(attr: usize, value: &str) -> (&'static str, String, String) {
    match RANGES[attr] {
        "decimal" if decimal(value).is_some() => {
            (ATTRS[attr], value.trim().to_string(), "^^xsd:decimal".to_string())
        }
        _ => (ATTRS[attr], value.to_string(), String::new()),
    }
}

/// `value op constant` in the range named by its XSD local name:
/// decimal order on `decimal`, code-point order on anything else (the
/// scenario declares only `string` besides); `LIKE` matches a pattern.
fn holds(range: &str, op: &str, value: &str, constant: &str) -> bool {
    if op == "LIKE" {
        return like(value, constant);
    }
    let order = match range {
        "decimal" => decimal_order(value, constant),
        _ => Some(value.cmp(constant)),
    };
    order.is_some_and(|o| match op {
        "=" => o.is_eq(),
        "!=" => o.is_ne(),
        "<" => o.is_lt(),
        "<=" => o.is_le(),
        ">" => o.is_gt(),
        ">=" => o.is_ge(),
        _ => false,
    })
}

/// How two decimal forms order, `None` unless both are in the lexical
/// space `[+-]?(\d+(\.\d*)?|\.\d+)` once trimmed. Both magnitudes are
/// padded to one width, whole digits on the left and fraction digits on
/// the right, so their text orders as their values do.
fn decimal_order(a: &str, b: &str) -> Option<Ordering> {
    let ((a_neg, a_whole, a_frac), (b_neg, b_whole, b_frac)) = (decimal(a)?, decimal(b)?);
    let (w, f) = (a_whole.len().max(b_whole.len()), a_frac.len().max(b_frac.len()));
    let magnitude = |whole: &str, frac: &str| format!("{whole:0>w$}{frac:0<f$}");
    let (a_mag, b_mag) = (magnitude(a_whole, a_frac), magnitude(b_whole, b_frac));
    // Zero has no sign: `-0` is `+0`.
    let zero = "0".repeat(w + f);
    let (a_neg, b_neg) = (a_neg && a_mag != zero, b_neg && b_mag != zero);
    Some(match (a_neg, b_neg) {
        (false, false) => a_mag.cmp(&b_mag),
        (true, true) => b_mag.cmp(&a_mag),
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
    })
}

/// A decimal form's sign, whole digits and fraction digits, `None`
/// unless it is in the lexical space `[+-]?(\d+(\.\d*)?|\.\d+)` once
/// trimmed.
fn decimal(form: &str) -> Option<(bool, &str, &str)> {
    let form = form.trim();
    let (negative, unsigned) = match form.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, form.strip_prefix('+').unwrap_or(form)),
    };
    let (whole, fraction) = unsigned.split_once('.').unwrap_or((unsigned, ""));
    let digits = |s: &str| s.chars().all(|c| c.is_ascii_digit());
    let valid = digits(whole) && digits(fraction) && whole.len() + fraction.len() > 0;
    valid.then_some((negative, whole, fraction))
}

/// SQL `LIKE`: `%` matches any run of characters, `_` any one.
fn like(value: &str, pattern: &str) -> bool {
    let mut p = pattern.chars();
    match p.next() {
        None => value.is_empty(),
        Some('%') => value
            .char_indices()
            .map(|(k, _)| k)
            .chain([value.len()])
            .any(|k| like(&value[k..], p.as_str())),
        Some(want) => {
            let mut v = value.chars();
            v.next().is_some_and(|got| (want == '_' || want == got) && like(v.as_str(), p.as_str()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Cond, SourceKindSpec, SourceSpec};

    /// The oracle pinned by hand, not through the engine: a multi-record
    /// DB source, a single-record web source and a hard-down XML source
    /// under `price < 300 AND brand LIKE 's%'`, then under an `OR` with a
    /// `NOT`.
    #[test]
    fn a_hand_written_scenario_expects_these_lines() {
        let source = |kind, single_record, fault| SourceSpec { kind, single_record, fault };
        let scenario = Scenario {
            seed: 18,
            rows: 3,
            sources: vec![
                source(SourceKindSpec::Db, false, FaultClass::Reliable),
                source(SourceKindSpec::Web, true, FaultClass::Reliable),
                source(SourceKindSpec::Xml, false, FaultClass::HardDown),
            ],
            conditions: vec![Cond::Leaf(leaf(1, "<", "300")), Cond::Leaf(leaf(0, "LIKE", "s%"))],
            spelled: false,
        };
        let records = scenario.records();
        let catalog: Vec<[&str; 3]> =
            records.iter().map(|r| [r.brand.as_str(), &r.price, &r.case]).collect();
        assert_eq!(
            catalog,
            [["seiko", "169", "steel"], ["timex", "137", "carbon"], ["rado", "214", "resin"]]
        );
        let expected = scenario.expected();
        assert_eq!(
            expected.individuals,
            [
                r#"src_0#0 brand="seiko" case="steel" price="169"^^xsd:decimal"#,
                r#"src_1#0 brand="seiko" case="steel" price="169"^^xsd:decimal"#,
            ]
        );
        let failed: Vec<(&str, &str)> =
            expected.failed.iter().map(|(s, a)| (s.as_str(), a.as_str())).collect();
        assert_eq!(
            failed,
            [
                ("SRC_2", "thing.product.watch.brand"),
                ("SRC_2", "thing.product.watch.case"),
                ("SRC_2", "thing.product.watch.price"),
            ]
        );
        // `NOT (brand = 'seiko') OR price < 150` keeps timex and rado.
        let not = Cond::Not(Box::new(Cond::Leaf(leaf(0, "=", "seiko"))));
        let or = Cond::Or(Box::new(not), Box::new(Cond::Leaf(leaf(1, "<", "150"))));
        let scenario = Scenario { conditions: vec![or], ..scenario };
        assert_eq!(
            scenario.expected().individuals,
            [
                r#"src_0#1 brand="timex" case="carbon" price="137"^^xsd:decimal"#,
                r#"src_0#2 brand="rado" case="resin" price="214"^^xsd:decimal"#,
            ]
        );
    }

    fn leaf(attr: usize, op: &str, value: &str) -> Condition {
        Condition { attr, op: op.into(), value: value.into() }
    }

    #[test]
    fn like_and_comparison_read_the_value_in_its_range() {
        assert!(like("seiko", "s%") && like("seiko", "_ei%o") && like("", "%"));
        assert!(!like("casio", "s%") && !like("seiko", "seik") && !like("seiko", "_"));
        let decimal = |op, value, constant| holds("decimal", op, value, constant);
        assert!(decimal("<", "32", "100") && !decimal("<", "320", "100"), "numbers, not text");
        assert!(decimal("=", " 0100.50 ", "+100.5") && decimal("<", "-.5", "0"));
        assert!(decimal("=", "-0", "0.00") && decimal(">", "10.01", "10.009"));
        for outside in ["1e1", "inf", "NaN", "-", "N/A", ".", ""] {
            assert!(!decimal("<", outside, "100") && !decimal("!=", outside, "100"), "{outside}");
            assert!(!decimal("!=", "100", outside), "{outside}");
        }
        let string = |op, value, constant| holds("string", op, value, constant);
        assert!(string("!=", "seiko", "casio") && string(">", "seiko", "casio"));
        assert!(string("<", "10", "9") && !string("=", "007", "7"), "code points, not numbers");
        assert!(!string("!=", "nan", "nan") && string("!=", "NaN", "9"));
    }

    #[test]
    fn a_subset_counts_multiplicity() {
        let answer =
            |lines: &[&str]| Answer::new(lines.iter().map(|l| l.to_string()).collect(), []);
        let full = answer(&["a", "b", "b", "c"]);
        assert!(answer(&["b", "b"]).individuals_within(&full));
        assert!(answer(&[]).individuals_within(&full));
        assert!(!answer(&["b", "b", "b"]).individuals_within(&full));
        assert!(!answer(&["d"]).individuals_within(&full));
    }
}
