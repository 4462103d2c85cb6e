//! Retry with exponential backoff in virtual time.
//!
//! A [`RetryPolicy`] describes how many attempts a caller may spend on
//! one logical remote call, how long to back off between attempts
//! (exponential with deterministic seeded jitter), an optional
//! client-side per-attempt timeout, and an optional overall deadline.
//! All durations are virtual [`SimDuration`]s: retrying never sleeps,
//! it just charges simulated time, so experiments with thousands of
//! retries stay fast and deterministic.
//!
//! [`invoke_with_retry`] drives an [`Endpoint`] under a policy and
//! reports the combined outcome: the final result, attempts used, and
//! the total virtual time spent across attempts and backoff waits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::SimDuration;
use crate::endpoint::Endpoint;
use crate::error::NetError;

/// How a caller spends attempts on one logical remote call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first call. Clamped to at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; later waits grow by
    /// [`RetryPolicy::multiplier`].
    pub base_backoff: SimDuration,
    /// Exponential growth factor between consecutive backoffs.
    pub multiplier: u32,
    /// Upper bound on a single backoff wait (before jitter).
    pub max_backoff: SimDuration,
    /// Jitter fraction in `[0, 1]`: each wait is scaled by a
    /// deterministic seeded draw from `[1 - jitter/2, 1 + jitter/2]`.
    pub jitter: f64,
    /// Client-side cap on one attempt's virtual time. An attempt that
    /// comes back slower counts as a timeout even if the endpoint
    /// replied.
    pub attempt_timeout: Option<SimDuration>,
    /// Overall virtual-time budget across all attempts and backoffs.
    pub deadline: Option<SimDuration>,
}

impl RetryPolicy {
    /// No retries: a single attempt, no backoff, no deadline.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            multiplier: 2,
            max_backoff: SimDuration::ZERO,
            jitter: 0.0,
            attempt_timeout: None,
            deadline: None,
        }
    }

    /// `n` total attempts with the default schedule: 10 ms base
    /// backoff doubling up to 1 s, 50 % jitter.
    pub fn attempts(n: u32) -> Self {
        RetryPolicy {
            max_attempts: n.max(1),
            base_backoff: SimDuration::from_millis(10),
            multiplier: 2,
            max_backoff: SimDuration::from_millis(1_000),
            jitter: 0.5,
            attempt_timeout: None,
            deadline: None,
        }
    }

    /// Replaces the backoff schedule.
    pub fn with_backoff(mut self, base: SimDuration, multiplier: u32, max: SimDuration) -> Self {
        self.base_backoff = base;
        self.multiplier = multiplier.max(1);
        self.max_backoff = max;
        self
    }

    /// Replaces the jitter fraction (clamped into `[0, 1]`).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = if jitter.is_nan() { 0.0 } else { jitter.clamp(0.0, 1.0) };
        self
    }

    /// Sets the client-side per-attempt timeout.
    pub fn with_attempt_timeout(mut self, timeout: SimDuration) -> Self {
        self.attempt_timeout = Some(timeout);
        self
    }

    /// Sets the overall virtual-time deadline.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The pre-jitter backoff before attempt `next_attempt` (2-based:
    /// the wait before the second attempt is `base_backoff`).
    pub fn backoff_before(&self, next_attempt: u32) -> SimDuration {
        if next_attempt <= 1 {
            return SimDuration::ZERO;
        }
        let mut wait = self.base_backoff;
        for _ in 2..next_attempt {
            wait = SimDuration::from_micros(
                wait.as_micros().saturating_mul(u64::from(self.multiplier.max(1))),
            );
            if wait >= self.max_backoff {
                return self.max_backoff;
            }
        }
        wait.min(self.max_backoff)
    }

    fn jittered(&self, wait: SimDuration, draw: f64) -> SimDuration {
        if self.jitter <= 0.0 || wait == SimDuration::ZERO {
            return wait;
        }
        let factor = 1.0 - self.jitter / 2.0 + self.jitter * draw;
        SimDuration::from_micros((wait.as_micros() as f64 * factor).round() as u64)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// The combined result of a retried call.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryOutcome<T> {
    /// Final verdict: the first success, or the last error.
    pub result: Result<T, NetError>,
    /// Attempts actually made (≥ 1).
    pub attempts: u32,
    /// Total virtual time: every attempt plus every backoff wait.
    pub elapsed: SimDuration,
    /// The backoff portion of `elapsed`.
    pub backoff: SimDuration,
    /// Whether the overall deadline cut the schedule short.
    pub deadline_hit: bool,
}

impl<T> RetryOutcome<T> {
    /// Retries beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Invokes `endpoint` under `policy`, charging virtual time for every
/// attempt and backoff wait.
///
/// `seed` drives the jitter draws, so a given (seed, policy, endpoint
/// state) triple always produces the same schedule. Transient errors
/// ([`NetError::Unreachable`], [`NetError::Timeout`]) are retried;
/// [`NetError::BadFrame`] is protocol corruption and fails fast.
pub fn invoke_with_retry<T>(
    endpoint: &Endpoint,
    policy: &RetryPolicy,
    seed: u64,
    bytes: usize,
    mut f: impl FnMut() -> T,
) -> RetryOutcome<T> {
    let max_attempts = policy.max_attempts.max(1);
    let mut jitter_rng = StdRng::seed_from_u64(seed);
    let mut elapsed = SimDuration::ZERO;
    let mut backoff_total = SimDuration::ZERO;
    let mut attempts = 0;
    let mut deadline_hit = false;
    loop {
        attempts += 1;
        // Failed attempts cost time too; the call itself says how much.
        let (mut result, mut attempt_cost) = endpoint.invoke_charged(bytes, &mut f);
        if let Some(cap) = policy.attempt_timeout {
            if attempt_cost > cap {
                // The caller hung up first: charge only the cap and
                // treat the reply as lost.
                attempt_cost = cap;
                result = Err(NetError::Timeout {
                    endpoint: endpoint.id().to_string(),
                    timeout_us: cap.as_micros(),
                });
            }
        }
        elapsed += attempt_cost;
        let error = match result {
            Ok(value) => {
                return finish(RetryOutcome {
                    result: Ok(value),
                    attempts,
                    elapsed,
                    backoff: backoff_total,
                    deadline_hit,
                })
            }
            Err(e) => e,
        };
        let exhausted = attempts >= max_attempts || !error.is_transient();
        if exhausted {
            return finish(RetryOutcome {
                result: Err(error),
                attempts,
                elapsed,
                backoff: backoff_total,
                deadline_hit,
            });
        }
        let wait = policy.jittered(policy.backoff_before(attempts + 1), jitter_rng.gen::<f64>());
        if let Some(deadline) = policy.deadline {
            if elapsed + wait >= deadline {
                deadline_hit = true;
                return finish(RetryOutcome {
                    result: Err(error),
                    attempts,
                    elapsed,
                    backoff: backoff_total,
                    deadline_hit,
                });
            }
        }
        elapsed += wait;
        backoff_total += wait;
    }
}

/// Feeds the process-wide retry metrics on the way out (no-op while
/// observability is disabled).
fn finish<T>(outcome: RetryOutcome<T>) -> RetryOutcome<T> {
    if s2s_obs::enabled() {
        let metrics = s2s_obs::global();
        if outcome.retries() > 0 {
            metrics.counter("s2s_retry_retries_total").add(u64::from(outcome.retries()));
            metrics.histogram("s2s_retry_backoff_sim_us").observe(outcome.backoff.as_micros());
        }
        if outcome.deadline_hit {
            metrics.counter("s2s_retry_deadline_hits_total").inc();
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::endpoint::FailureModel;

    fn hard_down() -> FailureModel {
        FailureModel {
            p_unreachable: 1.0,
            p_timeout: 0.0,
            timeout: SimDuration::from_millis(30_000),
        }
    }

    #[test]
    fn single_attempt_policy_never_retries() {
        let ep = Endpoint::new("a", CostModel::lan(), hard_down(), 1);
        let out = invoke_with_retry(&ep, &RetryPolicy::none(), 7, 8, || ());
        assert!(out.result.is_err());
        assert_eq!(out.attempts, 1);
        assert_eq!(out.retries(), 0);
        assert_eq!(ep.stats().calls, 1);
    }

    #[test]
    fn retries_spend_all_attempts_on_hard_failure() {
        let ep = Endpoint::new("a", CostModel::lan(), hard_down(), 1);
        let out = invoke_with_retry(&ep, &RetryPolicy::attempts(4), 7, 8, || ());
        assert!(out.result.is_err());
        assert_eq!(out.attempts, 4);
        assert_eq!(ep.stats().calls, 4);
        assert!(out.backoff > SimDuration::ZERO);
        assert!(out.elapsed > out.backoff);
    }

    #[test]
    fn retry_recovers_transient_flakiness() {
        // Seed chosen so the first draw fails and a later one succeeds.
        let flaky = FailureModel::flaky(0.5);
        let mut recovered = 0;
        for seed in 0..32 {
            let ep = Endpoint::new("a", CostModel::lan(), flaky, seed);
            let once = invoke_with_retry(&ep, &RetryPolicy::none(), 1, 8, || ());
            let ep2 = Endpoint::new("a", CostModel::lan(), flaky, seed);
            let retried = invoke_with_retry(&ep2, &RetryPolicy::attempts(6), 1, 8, || ());
            if once.result.is_err() && retried.result.is_ok() {
                recovered += 1;
            }
        }
        assert!(recovered > 0, "retries never recovered a transient failure");
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let p = RetryPolicy::attempts(10)
            .with_backoff(SimDuration::from_millis(10), 2, SimDuration::from_millis(60))
            .with_jitter(0.0);
        assert_eq!(p.backoff_before(1), SimDuration::ZERO);
        assert_eq!(p.backoff_before(2), SimDuration::from_millis(10));
        assert_eq!(p.backoff_before(3), SimDuration::from_millis(20));
        assert_eq!(p.backoff_before(4), SimDuration::from_millis(40));
        assert_eq!(p.backoff_before(5), SimDuration::from_millis(60));
        assert_eq!(p.backoff_before(9), SimDuration::from_millis(60));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = |seed| {
            let ep = Endpoint::new("a", CostModel::wan(), hard_down(), 3);
            invoke_with_retry(&ep, &RetryPolicy::attempts(5), seed, 64, || ()).elapsed
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different jitter seeds should differ");
    }

    #[test]
    fn deadline_stops_the_schedule_early() {
        let p = RetryPolicy::attempts(10)
            .with_backoff(SimDuration::from_millis(50), 2, SimDuration::from_millis(400))
            .with_jitter(0.0)
            .with_deadline(SimDuration::from_millis(120));
        let ep = Endpoint::new("a", CostModel::lan(), hard_down(), 1);
        let out = invoke_with_retry(&ep, &p, 9, 8, || ());
        assert!(out.result.is_err());
        assert!(out.deadline_hit);
        assert!(out.attempts < 10);
        assert!(out.elapsed < SimDuration::from_millis(120));
    }

    #[test]
    fn deadline_expiring_during_backoff_is_deadline_exceeded_not_transient() {
        // Regression: the overall deadline lands *inside* the first
        // backoff sleep. The schedule must stop right there, classify
        // the outcome as deadline-exceeded (deadline_hit, not merely
        // another transient error), spend no part of the truncated
        // wait, and report exactly the wire attempts actually made.
        let p = RetryPolicy::attempts(10)
            .with_backoff(SimDuration::from_millis(50), 2, SimDuration::from_millis(400))
            .with_jitter(0.0)
            .with_deadline(SimDuration::from_millis(30));
        let ep = Endpoint::new("a", CostModel::lan(), hard_down(), 1);
        let out = invoke_with_retry(&ep, &p, 9, 8, || ());

        // An unreachable LAN endpoint charges ~0.5 ms per attempt, so
        // the first attempt fits the 30 ms budget but the 50 ms
        // backoff before attempt 2 overshoots it mid-sleep.
        assert!(out.deadline_hit, "must classify as deadline-exceeded");
        assert!(
            matches!(out.result, Err(ref e) if e.is_transient()),
            "the last wire error stays transient; deadline_hit is the classifier"
        );
        assert_eq!(out.attempts, 1, "stops immediately: no attempt after the cut");
        assert_eq!(ep.stats().calls, 1, "the endpoint saw exactly the attempts made");
        assert_eq!(out.backoff, SimDuration::ZERO, "truncated wait is not charged");
        assert!(out.elapsed < SimDuration::from_millis(30), "never overdraws the budget");
    }

    #[test]
    fn attempt_timeout_converts_slow_success() {
        let slow = CostModel::new(SimDuration::from_millis(100), SimDuration::ZERO, 0);
        let ep = Endpoint::new("slow", slow, FailureModel::reliable(), 1);
        let p = RetryPolicy::none().with_attempt_timeout(SimDuration::from_millis(10));
        let out = invoke_with_retry(&ep, &p, 1, 0, || ());
        assert!(matches!(out.result, Err(NetError::Timeout { .. })));
        // Charged the cap, not the full slow reply.
        assert_eq!(out.elapsed, SimDuration::from_millis(10));
    }

    #[test]
    fn bad_frame_is_not_retried() {
        // BadFrame never comes out of an endpoint; check the
        // classification directly.
        assert!(!NetError::BadFrame { message: "x".into() }.is_transient());
        assert!(NetError::Unreachable { endpoint: "e".into() }.is_transient());
        assert!(NetError::Timeout { endpoint: "e".into(), timeout_us: 1 }.is_transient());
    }
}
