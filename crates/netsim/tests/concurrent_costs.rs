//! Callers sharing one endpoint are each charged their own attempts.

use std::sync::Barrier;

use s2s_netsim::{
    invoke_with_retry, CostModel, Endpoint, FailureModel, RetryOutcome, RetryPolicy, SimDuration,
};

/// Two threads hammer one flaky endpoint: what the callers were charged
/// for their attempts (elapsed minus backoff waits, which never reach
/// the endpoint) must add up to exactly what the endpoint served —
/// successes, refusals and timeouts alike. An attempt priced as a
/// difference of the shared `total_time` counter also pays for whatever
/// the other thread ran in between.
#[test]
fn concurrent_callers_are_charged_exactly_what_the_endpoint_served() {
    const THREADS: usize = 2;
    const CALLS: u64 = 200_000;
    let endpoint = Endpoint::new("shared", CostModel::wan(), FailureModel::flaky(0.2), 42);
    let policy = RetryPolicy::attempts(2);
    let start = Barrier::new(THREADS);
    let charged: SimDuration = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..CALLS)
                        .map(|seed| {
                            let RetryOutcome { elapsed, backoff, .. } =
                                invoke_with_retry(&endpoint, &policy, seed, 64, || ());
                            elapsed.saturating_sub(backoff)
                        })
                        .sum::<SimDuration>()
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().expect("caller panicked")).sum()
    });
    let served = endpoint.stats();
    assert!(served.failures > 0 && served.failures < served.calls, "both outcomes exercised");
    assert_eq!(charged, served.total_time);
}
