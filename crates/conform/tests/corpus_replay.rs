//! Replays every case file in `crates/conform/corpus/` through the full
//! oracle suite. A case lands in the corpus because a fuzz run (or a
//! hand audit) once found it interesting — usually the shrunk repro of
//! a fixed divergence — so each one is a pinned regression test.

use std::fs;
use std::path::PathBuf;

use s2s_conform::{check_scenario, from_case};

#[test]
fn corpus_cases_pass_every_oracle() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut paths: Vec<PathBuf> = fs::read_dir(&corpus)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {}: {e}", corpus.display()))
        .map(|entry| entry.expect("corpus dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "corpus must contain at least one .case file");

    for path in &paths {
        let name = path.file_name().unwrap().to_string_lossy();
        let text = fs::read_to_string(path).expect("read case file");
        let scenario = from_case(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        println!("replaying {name} (seed {})", scenario.seed);
        let violations = check_scenario(&scenario);
        assert!(
            violations.is_empty(),
            "{name} (seed {}) regressed:\n{}",
            scenario.seed,
            violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }
    println!("{} corpus cases replayed clean", paths.len());
}

/// The two overload corpus cases are not just "pass every oracle"
/// regressions — each must actually exercise the mechanism it is named
/// for. This pins the hedge case to a real launched-and-won hedge and
/// the shed case to a real arrival-time refusal.
#[test]
fn overload_cases_exercise_their_mechanisms() {
    use s2s_conform::scenario::{BuildConfig, RETRY_ATTEMPTS};
    use s2s_core::extract::ResiliencePolicy;
    use s2s_core::QueryOptions;
    use s2s_netsim::{AdmissionConfig, HedgeConfig, RetryPolicy, SimDuration};

    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let load = |name: &str| {
        let text = fs::read_to_string(corpus.join(name)).expect("read case file");
        from_case(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"))
    };

    let straggler = load("hedge-beats-straggler.case");
    let engine = straggler.build(&BuildConfig::batched()).with_resilience(
        ResiliencePolicy::default().with_retry(RetryPolicy::attempts(RETRY_ATTEMPTS)).with_hedging(
            HedgeConfig { percentile: 50, min_samples: 1, min_delay: SimDuration::ZERO },
        ),
    );
    let outcome = engine.query(&straggler.query_text()).expect("query parses");
    assert!(outcome.hedges() >= 1, "no hedge launched against the straggler");
    assert!(outcome.hedge_wins() >= 1, "the replica never won the race");
    assert!(outcome.hedge_wins() <= outcome.hedges());
    assert_eq!(outcome.stats.completeness, 1.0);

    let burst = load("shed-under-burst.case");
    let engine =
        burst.build(&BuildConfig::batched()).with_admission(AdmissionConfig::with_permits(1));
    let controller = engine.admission().expect("admission configured");
    let hog = controller.admit("hog", None, false).expect("first permit is free");
    let opts =
        QueryOptions::default().with_tenant("meek").with_deadline(SimDuration::from_millis(1));
    let shed = engine.query_with_options(&burst.query_text(), &opts).expect("query parses");
    assert!(shed.stats.shed, "burst query was not refused at arrival");
    assert_eq!(shed.stats.round_trips, 0);
    drop(hog);
    let full = engine.query(&burst.query_text()).expect("query parses");
    assert!(!full.stats.shed);
    assert_eq!(full.stats.completeness, 1.0);
}

/// The hostile-rule cases must reach the limit they are named for (a
/// parser's depth cap, the matcher's thread table; not some earlier
/// refusal): every task of the hostile source fails with the stable code
/// and message of that limit, and the healthy sources answer in full.
#[test]
fn hostile_rule_cases_fail_coded_not_aborted() {
    use s2s_conform::scenario::BuildConfig;

    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    for (file, code, message) in [
        ("hostile-regex-nesting.case", "s2s::webdoc", "nested deeper"),
        ("hostile-regex-groups.case", "s2s::webdoc", "thread table"),
        ("hostile-sql-nesting.case", "s2s::db::nesting_too_deep", "nested deeper"),
        ("hostile-webl-nesting.case", "s2s::webl::nesting_too_deep", "nested deeper"),
    ] {
        let text = fs::read_to_string(corpus.join(file)).expect("read case");
        let hostile = from_case(&text).expect("case parses");
        for config in [BuildConfig::batched(), BuildConfig::replay(), BuildConfig::pooled(4)] {
            let outcome =
                hostile.build(&config).query(&hostile.query_text()).expect("query parses");
            assert_eq!(outcome.errors().len(), 3, "{file}: one failure per hostile mapping");
            for failure in outcome.errors() {
                assert_eq!(failure.source, "SRC_0", "{file}");
                assert_eq!(failure.error.code(), code, "{file}");
                assert!(failure.error.to_string().contains(message), "{file}");
            }
            assert_eq!(outcome.individuals().len(), 3 * hostile.rows, "{file}: healthy answer");
        }
    }
}

/// The batched arm asks its engine once per attribute because its one
/// exchange per source would otherwise never reach a fault scheduled past
/// call index 1: here the faults at db call 2 and xml call 1 fire only on
/// the repeat query, and every answer is still complete.
#[test]
fn repeat_queries_reach_the_late_scheduled_faults() {
    use s2s_conform::scenario::{BuildConfig, ATTRS};

    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let text = fs::read_to_string(corpus.join("transient-retries.case")).expect("read case");
    let scenario = from_case(&text).expect("case parses");
    let engine = scenario.build(&BuildConfig::batched());
    let retries: Vec<u64> = (0..ATTRS.len())
        .map(|_| {
            let outcome = engine.query(&scenario.query_text()).expect("query parses");
            assert_eq!(outcome.stats.completeness, 1.0);
            outcome.retries()
        })
        .collect();
    assert_eq!(retries, [1, 2, 0], "db call 0; db call 2 and xml call 1; none");
}
