//! Per-endpoint circuit breakers in virtual time.
//!
//! A [`CircuitBreaker`] protects callers from hammering an endpoint
//! that is failing hard: after a configured number of *consecutive*
//! failures the breaker opens and rejects calls without touching the
//! endpoint; after a virtual cooldown it lets one probe through
//! (half-open) and closes again on a healthy reply.
//!
//! The state machine is driven by an explicit virtual `now` — the
//! caller's accumulated [`SimDuration`] — so breaker behaviour is as
//! deterministic as the rest of the simulation.

use parking_lot::Mutex;
use s2s_obs::names;

use crate::cost::SimDuration;

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Virtual time the breaker stays open before allowing a probe.
    pub cooldown: SimDuration,
}

impl BreakerConfig {
    /// A breaker tripping after `failure_threshold` consecutive
    /// failures and probing again after `cooldown`.
    pub fn new(failure_threshold: u32, cooldown: SimDuration) -> Self {
        BreakerConfig { failure_threshold: failure_threshold.max(1), cooldown }
    }
}

impl Default for BreakerConfig {
    /// Five consecutive failures; five virtual seconds of cooldown.
    fn default() -> Self {
        BreakerConfig { failure_threshold: 5, cooldown: SimDuration::from_millis(5_000) }
    }
}

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally.
    Closed,
    /// Calls are rejected without reaching the endpoint.
    Open,
    /// One probe call is allowed through to test recovery.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Transition and rejection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerCounters {
    /// Closed/HalfOpen → Open transitions.
    pub opened: u64,
    /// Open → HalfOpen transitions (cooldown expiries).
    pub half_opened: u64,
    /// HalfOpen → Closed transitions (successful probes).
    pub closed: u64,
    /// Calls rejected while open.
    pub rejected: u64,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimDuration,
    counters: BreakerCounters,
}

/// A circuit breaker for one endpoint.
///
/// # Examples
///
/// ```
/// use s2s_netsim::{BreakerConfig, BreakerState, CircuitBreaker, SimDuration};
///
/// let b = CircuitBreaker::new(BreakerConfig::new(2, SimDuration::from_millis(100)));
/// let t0 = SimDuration::ZERO;
/// assert!(b.allow(t0));
/// b.record_failure(t0);
/// b.record_failure(t0);
/// assert_eq!(b.state(), BreakerState::Open);
/// assert!(!b.allow(t0));
/// // After the cooldown a probe goes through; success closes it.
/// let later = SimDuration::from_millis(150);
/// assert!(b.allow(later));
/// b.record_success(later);
/// assert_eq!(b.state(), BreakerState::Closed);
/// ```
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker with zeroed counters.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: SimDuration::ZERO,
                counters: BreakerCounters::default(),
            }),
        }
    }

    /// The tuning this breaker was built with.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Current state (transitioning Open → HalfOpen only happens in
    /// [`CircuitBreaker::allow`], so this is a pure read).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// Counter snapshot.
    pub fn counters(&self) -> BreakerCounters {
        self.inner.lock().counters
    }

    /// Whether a call may proceed at virtual time `now`. While open,
    /// rejects (and counts) callers until `now` passes the cooldown,
    /// then flips to half-open and admits a probe.
    pub fn allow(&self, now: SimDuration) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= inner.opened_at + self.config.cooldown {
                    inner.state = BreakerState::HalfOpen;
                    inner.counters.half_opened += 1;
                    bump(names::BREAKER_HALF_OPENED_TOTAL);
                    true
                } else {
                    inner.counters.rejected += 1;
                    bump(names::BREAKER_REJECTED_TOTAL);
                    false
                }
            }
        }
    }

    /// Records a healthy reply at virtual time `now`.
    pub fn record_success(&self, _now: SimDuration) {
        let mut inner = self.inner.lock();
        if inner.state == BreakerState::HalfOpen {
            inner.counters.closed += 1;
            bump(names::BREAKER_CLOSED_TOTAL);
        }
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
    }

    /// Records a failed call at virtual time `now`. A failed half-open
    /// probe reopens immediately; in the closed state the breaker
    /// opens once the consecutive-failure threshold is reached.
    pub fn record_failure(&self, now: SimDuration) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Open => {}
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at = now;
                inner.consecutive_failures = 0;
                inner.counters.opened += 1;
                bump(names::BREAKER_OPENED_TOTAL);
            }
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at = now;
                    inner.consecutive_failures = 0;
                    inner.counters.opened += 1;
                    bump(names::BREAKER_OPENED_TOTAL);
                }
            }
        }
    }
}

/// Increments a process-wide breaker counter (no-op while observability
/// is disabled).
fn bump(name: &str) {
    if s2s_obs::enabled() {
        s2s_obs::global().counter(name).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::endpoint::{Endpoint, FailureModel};

    fn cfg(threshold: u32, cooldown_ms: u64) -> BreakerConfig {
        BreakerConfig::new(threshold, SimDuration::from_millis(cooldown_ms))
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(cfg(3, 100));
        let t = SimDuration::ZERO;
        b.record_failure(t);
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.counters().opened, 1);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = CircuitBreaker::new(cfg(3, 100));
        let t = SimDuration::ZERO;
        b.record_failure(t);
        b.record_failure(t);
        b.record_success(t);
        b.record_failure(t);
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Closed, "count must reset on success");
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_breaker_short_circuits_endpoint_calls() {
        let down = FailureModel {
            p_unreachable: 1.0,
            p_timeout: 0.0,
            timeout: SimDuration::from_millis(30_000),
        };
        let ep = Endpoint::new("dead", CostModel::lan(), down, 1);
        let b = CircuitBreaker::new(cfg(3, 1_000));
        let mut now = SimDuration::ZERO;
        for _ in 0..10 {
            if b.allow(now) {
                let before = ep.stats().total_time;
                let r = ep.invoke(8);
                now += ep.stats().total_time.saturating_sub(before);
                match r {
                    Ok(_) => b.record_success(now),
                    Err(_) => b.record_failure(now),
                }
            }
        }
        // Three real calls tripped it; the remaining seven were rejected
        // without touching the endpoint.
        assert_eq!(ep.stats().calls, 3, "breaker failed to short-circuit");
        assert_eq!(b.counters().rejected, 7);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn half_open_probe_closes_on_healthy_reply() {
        let b = CircuitBreaker::new(cfg(2, 100));
        let mut now = SimDuration::ZERO;
        b.record_failure(now);
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown not yet over.
        now += SimDuration::from_millis(50);
        assert!(!b.allow(now));
        // Cooldown over: probe admitted, healthy reply closes.
        now += SimDuration::from_millis(60);
        assert!(b.allow(now));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success(now);
        assert_eq!(b.state(), BreakerState::Closed);
        let c = b.counters();
        assert_eq!((c.opened, c.half_opened, c.closed, c.rejected), (1, 1, 1, 1));
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let b = CircuitBreaker::new(cfg(1, 100));
        let mut now = SimDuration::ZERO;
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Open);
        now += SimDuration::from_millis(100);
        assert!(b.allow(now));
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.counters().opened, 2);
        // The cooldown restarts from the failed probe.
        assert!(!b.allow(now + SimDuration::from_millis(99)));
        assert!(b.allow(now + SimDuration::from_millis(100)));
    }

    #[test]
    fn threshold_clamps_to_one() {
        let b = CircuitBreaker::new(BreakerConfig::new(0, SimDuration::from_millis(10)));
        b.record_failure(SimDuration::ZERO);
        assert_eq!(b.state(), BreakerState::Open);
    }
}
