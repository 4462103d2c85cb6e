//! Greedy scenario minimization.
//!
//! Given a failing scenario and a predicate that re-checks it, the
//! shrinker tries structure-aware reductions — drop a source, drop a
//! condition, simplify a fault class, shed catalog rows — and keeps
//! any reduction that still fails, looping to a fixpoint. The result
//! is the small repro serialized into `crates/conform/corpus/`.

use s2s_netsim::FaultKind;

use crate::scenario::{FaultClass, Scenario};

/// Upper bound on predicate evaluations per shrink, so a pathological
/// case cannot stall the fuzz loop.
const MAX_CHECKS: usize = 400;

/// Minimizes `scenario` with respect to `still_fails` (which must hold
/// for the input). Returns the smallest failing scenario found.
pub fn shrink(scenario: &Scenario, mut still_fails: impl FnMut(&Scenario) -> bool) -> Scenario {
    let mut best = scenario.clone();
    let mut checks = 0;
    let mut made_progress = true;
    while made_progress && checks < MAX_CHECKS {
        made_progress = false;
        for candidate in reductions(&best) {
            checks += 1;
            if checks >= MAX_CHECKS {
                break;
            }
            if still_fails(&candidate) {
                best = candidate;
                made_progress = true;
                break; // restart the reduction pass from the smaller case
            }
        }
    }
    best
}

/// One round of candidate reductions, most aggressive first.
fn reductions(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Drop one source.
    if sc.sources.len() > 1 {
        for i in 0..sc.sources.len() {
            let mut candidate = sc.clone();
            candidate.sources.remove(i);
            out.push(candidate);
        }
    }
    // Drop one condition.
    for i in 0..sc.conditions.len() {
        let mut candidate = sc.clone();
        candidate.conditions.remove(i);
        out.push(candidate);
    }
    // Shed rows.
    if sc.rows > 1 {
        let mut candidate = sc.clone();
        candidate.rows = 1;
        out.push(candidate);
        if sc.rows > 2 {
            let mut candidate = sc.clone();
            candidate.rows = sc.rows / 2;
            out.push(candidate);
        }
    }
    // Simplify fault classes (toward Reliable) and record scenarios.
    for i in 0..sc.sources.len() {
        match &sc.sources[i].fault {
            FaultClass::Reliable => {}
            FaultClass::Transient(faults) if faults.len() > 1 => {
                for f in 0..faults.len() {
                    let mut candidate = sc.clone();
                    let mut remaining = faults.clone();
                    remaining.remove(f);
                    candidate.sources[i].fault = FaultClass::Transient(remaining);
                    out.push(candidate);
                }
                let mut candidate = sc.clone();
                candidate.sources[i].fault = FaultClass::Reliable;
                out.push(candidate);
            }
            FaultClass::Transient(_) | FaultClass::HostileRule(_) => {
                let mut candidate = sc.clone();
                candidate.sources[i].fault = FaultClass::Reliable;
                out.push(candidate);
            }
            FaultClass::TransientWithReplica(faults) => {
                // Try dropping the replica first, then going reliable.
                let mut candidate = sc.clone();
                candidate.sources[i].fault = FaultClass::Transient(faults.clone());
                out.push(candidate);
                let mut candidate = sc.clone();
                candidate.sources[i].fault = FaultClass::Reliable;
                out.push(candidate);
            }
            FaultClass::HardDownWithReplica | FaultClass::HardDown => {
                let mut candidate = sc.clone();
                candidate.sources[i].fault = FaultClass::Reliable;
                out.push(candidate);
                let mut candidate = sc.clone();
                candidate.sources[i].fault =
                    FaultClass::Transient(vec![(0, FaultKind::Unreachable)]);
                out.push(candidate);
            }
        }
        if sc.sources[i].single_record {
            let mut candidate = sc.clone();
            candidate.sources[i].single_record = false;
            out.push(candidate);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SourceKindSpec, SourceSpec};

    /// A synthetic monotone failure ("at least two sources and at
    /// least one condition") must shrink to exactly that boundary.
    #[test]
    fn shrinks_to_the_minimal_failing_boundary() {
        let scenario = Scenario::generate(0xDEAD);
        let mut fat = scenario.clone();
        while fat.sources.len() < 4 {
            fat.sources.push(SourceSpec {
                kind: SourceKindSpec::Db,
                single_record: false,
                fault: FaultClass::HardDown,
            });
        }
        while fat.conditions.len() < 2 {
            fat.conditions.push(crate::scenario::Condition {
                attr: 1,
                op: "<".into(),
                value: "100".into(),
            });
        }
        let shrunk = shrink(&fat, |sc| sc.sources.len() >= 2 && !sc.conditions.is_empty());
        assert_eq!(shrunk.sources.len(), 2);
        assert_eq!(shrunk.conditions.len(), 1);
        assert_eq!(shrunk.rows, 1);
        assert!(shrunk.sources.iter().all(|s| s.fault == FaultClass::Reliable));
    }

    /// Shrinking must preserve the failure predicate.
    #[test]
    fn shrunk_scenario_still_fails() {
        let scenario = Scenario::generate(42);
        let shrunk = shrink(&scenario, |sc| !sc.sources.is_empty());
        assert!(!shrunk.sources.is_empty());
    }
}
