//! Self-contained case files.
//!
//! A failing scenario is serialized as a small line-oriented text file
//! that carries everything needed to replay it: the seed (which fixes
//! the catalog and endpoint RNG streams), the source list with fault
//! classes, and the query conditions. Files live in
//! `crates/conform/corpus/` and are replayed by the
//! `corpus_replay` test and by
//! `experiments --conform-fuzz --replay <file>`.
//!
//! Format (`#` starts a comment, order of keys is fixed):
//!
//! ```text
//! # s2s-conform case v1
//! seed = 42
//! rows = 3
//! source = db reliable
//! source = xml single harddown
//! source = text transient 0:unreachable 2:timeout
//! source = web hedged 1:timeout
//! source = text hostile-rule
//! source = text hostile-rule groups
//! cond = price < 100
//! cond = brand LIKE s%
//! ```

use s2s_netsim::FaultKind;

use crate::scenario::{
    Condition, FaultClass, Hostile, Scenario, SourceKindSpec, SourceSpec, ATTRS,
};

/// Serializes a scenario as a case file.
pub fn to_case(scenario: &Scenario) -> String {
    let mut out = String::from("# s2s-conform case v1\n");
    out.push_str(&format!("# query: {}\n", scenario.query_text()));
    out.push_str(&format!("seed = {}\n", scenario.seed));
    out.push_str(&format!("rows = {}\n", scenario.rows));
    for s in &scenario.sources {
        out.push_str("source = ");
        out.push_str(s.kind.token());
        if s.single_record {
            out.push_str(" single");
        }
        match &s.fault {
            FaultClass::Reliable => out.push_str(" reliable"),
            FaultClass::HardDown => out.push_str(" harddown"),
            FaultClass::HardDownWithReplica => out.push_str(" replica"),
            FaultClass::HostileRule(Hostile::Nesting) => out.push_str(" hostile-rule"),
            FaultClass::HostileRule(Hostile::RegexGroups) => out.push_str(" hostile-rule groups"),
            FaultClass::Transient(faults) => {
                out.push_str(" transient");
                for (index, kind) in faults {
                    out.push_str(&format!(" {index}:{kind}"));
                }
            }
            FaultClass::TransientWithReplica(faults) => {
                out.push_str(" hedged");
                for (index, kind) in faults {
                    out.push_str(&format!(" {index}:{kind}"));
                }
            }
        }
        out.push('\n');
    }
    for c in &scenario.conditions {
        out.push_str(&format!("cond = {} {} {}\n", ATTRS[c.attr], c.op, c.value));
    }
    out
}

/// Parses a case file back into a scenario.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn from_case(text: &str) -> Result<Scenario, String> {
    let mut seed: Option<u64> = None;
    let mut rows: Option<usize> = None;
    let mut sources = Vec::new();
    let mut conditions = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`, got {raw:?}", lineno + 1))?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "seed" => {
                seed =
                    Some(value.parse().map_err(|e| format!("line {}: bad seed: {e}", lineno + 1))?)
            }
            "rows" => {
                rows =
                    Some(value.parse().map_err(|e| format!("line {}: bad rows: {e}", lineno + 1))?)
            }
            "source" => sources.push(parse_source(value, lineno + 1)?),
            "cond" => conditions.push(parse_condition(value, lineno + 1)?),
            other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
        }
    }
    let scenario = Scenario {
        seed: seed.ok_or("missing `seed`")?,
        rows: rows.ok_or("missing `rows`")?,
        sources,
        conditions,
    };
    if scenario.rows == 0 {
        return Err("`rows` must be at least 1".into());
    }
    if scenario.sources.is_empty() {
        return Err("at least one `source` line is required".into());
    }
    Ok(scenario)
}

fn parse_source(value: &str, lineno: usize) -> Result<SourceSpec, String> {
    let mut tokens = value.split_whitespace();
    let kind = match tokens.next() {
        Some("db") => SourceKindSpec::Db,
        Some("xml") => SourceKindSpec::Xml,
        Some("web") => SourceKindSpec::Web,
        Some("text") => SourceKindSpec::Text,
        other => return Err(format!("line {lineno}: unknown source kind {other:?}")),
    };
    let mut single_record = false;
    let mut fault = FaultClass::Reliable;
    let mut rest: Vec<&str> = tokens.collect();
    if rest.first() == Some(&"single") {
        single_record = true;
        rest.remove(0);
    }
    match rest.split_first() {
        None | Some((&"reliable", [])) => {}
        Some((&"harddown", [])) => fault = FaultClass::HardDown,
        Some((&"replica", [])) => fault = FaultClass::HardDownWithReplica,
        Some((&"hostile-rule", [])) => fault = FaultClass::HostileRule(Hostile::Nesting),
        Some((&"hostile-rule", ["groups"]))
            if matches!(kind, SourceKindSpec::Text | SourceKindSpec::Web) =>
        {
            fault = FaultClass::HostileRule(Hostile::RegexGroups)
        }
        Some((&"transient", entries)) if !entries.is_empty() => {
            fault = FaultClass::Transient(parse_faults(entries, lineno)?);
        }
        Some((&"hedged", entries)) => {
            fault = FaultClass::TransientWithReplica(parse_faults(entries, lineno)?);
        }
        Some(_) => return Err(format!("line {lineno}: bad fault class in {value:?}")),
    }
    Ok(SourceSpec { kind, single_record, fault })
}

fn parse_faults(entries: &[&str], lineno: usize) -> Result<Vec<(u64, FaultKind)>, String> {
    let mut faults = Vec::new();
    for entry in entries {
        let (index, kind) = entry
            .split_once(':')
            .ok_or_else(|| format!("line {lineno}: bad fault entry {entry:?}"))?;
        let index: u64 =
            index.parse().map_err(|e| format!("line {lineno}: bad fault index {index:?}: {e}"))?;
        let kind = match kind {
            "unreachable" => FaultKind::Unreachable,
            "timeout" => FaultKind::Timeout,
            other => return Err(format!("line {lineno}: unknown fault kind {other:?}")),
        };
        faults.push((index, kind));
    }
    faults.sort();
    Ok(faults)
}

fn parse_condition(value: &str, lineno: usize) -> Result<Condition, String> {
    let mut tokens = value.split_whitespace();
    let (attr_name, op, val) = match (tokens.next(), tokens.next(), tokens.next(), tokens.next()) {
        (Some(a), Some(op), Some(v), None) => (a, op, v),
        _ => return Err(format!("line {lineno}: expected `cond = attr op value`, got {value:?}")),
    };
    let attr = ATTRS
        .iter()
        .position(|&a| a == attr_name)
        .ok_or_else(|| format!("line {lineno}: unknown attribute {attr_name:?}"))?;
    match op {
        "<" | "<=" | ">" | ">=" | "=" | "!=" | "LIKE" => {}
        other => return Err(format!("line {lineno}: unknown operator {other:?}")),
    }
    Ok(Condition { attr, op: op.into(), value: val.into() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_generated_scenarios() {
        for seed in 0..200 {
            let scenario = Scenario::generate(seed);
            let text = to_case(&scenario);
            let back = from_case(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(back, scenario, "seed {seed}\n{text}");
        }
    }

    #[test]
    fn round_trips_hostile_rules() {
        for source in ["text hostile-rule", "web hostile-rule groups"] {
            let text = format!("seed = 1\nrows = 1\nsource = {source}\n");
            let scenario = from_case(&text).unwrap();
            assert_eq!(from_case(&to_case(&scenario)).unwrap(), scenario, "{source}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_case("").is_err(), "missing keys");
        assert!(from_case("seed = 1\nrows = 0\nsource = db reliable\n").is_err(), "zero rows");
        assert!(from_case("seed = 1\nrows = 1\n").is_err(), "no sources");
        assert!(from_case("seed = 1\nrows = 1\nsource = ftp reliable\n").is_err(), "bad kind");
        assert!(
            from_case("seed = 1\nrows = 1\nsource = db hostile-rule groups\n").is_err(),
            "a regex rule on a database"
        );
        assert!(
            from_case("seed = 1\nrows = 1\nsource = db reliable\ncond = colour = red\n").is_err(),
            "bad attribute"
        );
    }
}
