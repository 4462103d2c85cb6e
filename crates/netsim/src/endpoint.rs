//! Remote endpoints: cost accounting plus failure injection.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::{CostModel, SimDuration};
use crate::error::NetError;

/// Failure behaviour of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Probability a call finds the endpoint unreachable.
    pub p_unreachable: f64,
    /// Probability a call times out (after consuming the timeout).
    pub p_timeout: f64,
    /// The timeout applied to every call.
    pub timeout: SimDuration,
}

impl FailureModel {
    const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_millis(30_000);

    /// A validated model: probabilities are clamped into `[0, 1]`
    /// (NaN becomes 0), so nonsense inputs cannot produce a model that
    /// fails more than always or less than never.
    pub fn new(p_unreachable: f64, p_timeout: f64, timeout: SimDuration) -> Self {
        FailureModel {
            p_unreachable: clamp_probability(p_unreachable),
            p_timeout: clamp_probability(p_timeout),
            timeout,
        }
    }

    /// Never fails; generous timeout.
    pub fn reliable() -> Self {
        FailureModel { p_unreachable: 0.0, p_timeout: 0.0, timeout: Self::DEFAULT_TIMEOUT }
    }

    /// Fails a fraction `p` of calls (half unreachable, half timeout).
    /// `p` is clamped into `[0, 1]` first, so `flaky(3.0)` is simply
    /// always-failing rather than nonsense.
    pub fn flaky(p: f64) -> Self {
        let p = clamp_probability(p);
        FailureModel::new(p / 2.0, p / 2.0, Self::DEFAULT_TIMEOUT)
    }

    /// Every call finds the endpoint down (a hard outage).
    pub fn unreachable() -> Self {
        FailureModel::new(1.0, 0.0, Self::DEFAULT_TIMEOUT)
    }
}

fn clamp_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// The fault a scheduled entry forces on one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The call finds the endpoint down (costs one base RTT).
    Unreachable,
    /// The call times out (costs the failure model's timeout).
    Timeout,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Unreachable => "unreachable",
            FaultKind::Timeout => "timeout",
        })
    }
}

/// A scripted fault schedule: selected call indices (0-based, counted
/// per endpoint) fail with a forced [`FaultKind`], overriding the
/// probabilistic [`FailureModel`] draws for exactly those calls.
///
/// A scheduled call still consumes the endpoint's three RNG draws, so
/// adding or removing scheduled faults never shifts the jitter/failure
/// stream of the surrounding calls — the property differential tests
/// rely on when comparing execution paths call-for-call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    faults: BTreeMap<u64, FaultKind>,
}

impl FaultSchedule {
    /// An empty schedule (purely probabilistic behaviour).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Forces call number `index` (0-based) to fail with `kind`.
    pub fn fail_call(mut self, index: u64, kind: FaultKind) -> Self {
        self.faults.insert(index, kind);
        self
    }

    /// The forced fault for call `index`, if any.
    pub fn get(&self, index: u64) -> Option<FaultKind> {
        self.faults.get(&index).copied()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the schedule forces no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates over `(call_index, kind)` entries in call order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, FaultKind)> + '_ {
        self.faults.iter().map(|(i, k)| (*i, *k))
    }
}

/// Per-endpoint counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Calls attempted.
    pub calls: u64,
    /// Calls that failed (unreachable or timeout).
    pub failures: u64,
    /// Total simulated time spent, including failed calls.
    pub total_time: SimDuration,
    /// Total payload bytes moved by successful calls.
    pub bytes: u64,
}

/// A simulated remote endpoint: a cost-and-fault meter.
///
/// It holds no resource and runs nothing. Each call
/// ([`Endpoint::invoke`]) names the bytes it moves; the endpoint charges
/// it simulated time under its cost model, or fails it under its
/// failure model and fault schedule, and counts both. Deterministic: an
/// endpoint seeded identically produces the identical jitter/failure
/// sequence.
///
/// # Examples
///
/// ```
/// use s2s_netsim::{CostModel, Endpoint, FailureModel};
///
/// let ep = Endpoint::new("db-eu-1", CostModel::lan(), FailureModel::reliable(), 7);
/// let elapsed = ep.invoke(128).unwrap();
/// assert!(elapsed.as_micros() >= 500); // at least base latency
/// ```
#[derive(Debug)]
pub struct Endpoint {
    id: String,
    cost: CostModel,
    failure: FailureModel,
    schedule: FaultSchedule,
    rng: Mutex<StdRng>,
    stats: Mutex<EndpointStats>,
}

impl Endpoint {
    /// Creates an endpoint with a deterministic RNG stream.
    pub fn new(id: impl Into<String>, cost: CostModel, failure: FailureModel, seed: u64) -> Self {
        Endpoint {
            id: id.into(),
            cost,
            failure,
            schedule: FaultSchedule::new(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            stats: Mutex::new(EndpointStats::default()),
        }
    }

    /// Attaches a scripted fault schedule. Scheduled calls fail with
    /// the forced kind regardless of the probabilistic model; their RNG
    /// draws are still consumed so the surrounding stream is unshifted.
    pub fn with_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The scripted fault schedule (empty unless configured).
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// The endpoint id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Snapshot of the endpoint counters.
    pub fn stats(&self) -> EndpointStats {
        *self.stats.lock()
    }

    /// One call moving `bytes` of payload: the simulated network +
    /// service time it was charged.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unreachable`] or [`NetError::Timeout`] per
    /// the failure model and the fault schedule.
    pub fn invoke(&self, bytes: usize) -> Result<SimDuration, NetError> {
        let (result, elapsed) = self.invoke_charged(bytes);
        result.map(|()| elapsed)
    }

    /// [`Endpoint::invoke`] with this call's charge returned on failure
    /// too. [`EndpointStats::total_time`] cannot supply it: concurrent
    /// callers share that counter.
    pub(crate) fn invoke_charged(&self, bytes: usize) -> (Result<(), NetError>, SimDuration) {
        let (u_draw, t_draw, j_draw) = {
            let mut rng = self.rng.lock();
            (rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>())
        };
        let timed_out = || NetError::Timeout {
            endpoint: self.id.clone(),
            timeout_us: self.failure.timeout.as_micros(),
        };
        let mut stats = self.stats.lock();
        let call_index = stats.calls;
        stats.calls += 1;
        let forced = self.schedule.get(call_index);
        let (charged, error) =
            if forced == Some(FaultKind::Unreachable) || u_draw < self.failure.p_unreachable {
                // A refused connection costs one base RTT.
                (self.cost.base, Some(NetError::Unreachable { endpoint: self.id.clone() }))
            } else if forced == Some(FaultKind::Timeout) || t_draw < self.failure.p_timeout {
                (self.failure.timeout, Some(timed_out()))
            } else {
                let elapsed = self.cost.cost(bytes, j_draw);
                if elapsed > self.failure.timeout {
                    (self.failure.timeout, Some(timed_out()))
                } else {
                    (elapsed, None)
                }
            };
        stats.total_time += charged;
        if error.is_some() {
            stats.failures += 1;
        } else {
            stats.bytes += bytes as u64;
        }
        drop(stats);
        // With pacing on, the calling thread blocks for the scaled real
        // equivalent of the charge — this is what E13-style throughput
        // runs overlap across concurrent clients.
        self.cost.pace(charged);
        (error.map_or(Ok(()), Err), charged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_probabilities_are_clamped() {
        let over = FailureModel::flaky(3.0);
        assert_eq!((over.p_unreachable, over.p_timeout), (0.5, 0.5));
        let under = FailureModel::flaky(-1.0);
        assert_eq!((under.p_unreachable, under.p_timeout), (0.0, 0.0));
        let mixed = FailureModel::new(1.5, -0.25, SimDuration::from_millis(10));
        assert_eq!((mixed.p_unreachable, mixed.p_timeout), (1.0, 0.0));
        let nan = FailureModel::new(f64::NAN, f64::NAN, SimDuration::from_millis(10));
        assert_eq!((nan.p_unreachable, nan.p_timeout), (0.0, 0.0));
        // Exact boundaries survive untouched.
        let exact = FailureModel::new(0.0, 1.0, SimDuration::from_millis(10));
        assert_eq!((exact.p_unreachable, exact.p_timeout), (0.0, 1.0));
    }

    #[test]
    fn unreachable_is_hard_down() {
        let down = Endpoint::new("b", CostModel::lan(), FailureModel::unreachable(), 5);
        for _ in 0..100 {
            assert!(matches!(down.invoke(1), Err(NetError::Unreachable { .. })));
        }
    }

    #[test]
    fn reliable_endpoint_never_fails() {
        let ep = Endpoint::new("a", CostModel::lan(), FailureModel::reliable(), 1);
        for _ in 0..1000 {
            ep.invoke(64).unwrap();
        }
        let s = ep.stats();
        assert_eq!(s.calls, 1000);
        assert_eq!(s.failures, 0);
        assert_eq!(s.bytes, 64_000);
        assert!(s.total_time > SimDuration::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let ep = Endpoint::new("a", CostModel::wan(), FailureModel::flaky(0.3), 42);
            (0..50).map(|_| ep.invoke(128).map_err(|e| format!("{e}"))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flaky_endpoint_fails_about_p() {
        let ep = Endpoint::new("a", CostModel::lan(), FailureModel::flaky(0.4), 9);
        let mut failures = 0;
        for _ in 0..2000 {
            if ep.invoke(1).is_err() {
                failures += 1;
            }
        }
        let rate = failures as f64 / 2000.0;
        assert!((0.3..0.5).contains(&rate), "rate={rate}");
        assert_eq!(ep.stats().failures, failures);
    }

    #[test]
    fn slow_call_times_out() {
        let cost = CostModel::new(SimDuration::from_millis(100), SimDuration::ZERO, 0);
        let failure = FailureModel {
            p_unreachable: 0.0,
            p_timeout: 0.0,
            timeout: SimDuration::from_millis(50),
        };
        let ep = Endpoint::new("slow", cost, failure, 1);
        assert!(matches!(ep.invoke(0), Err(NetError::Timeout { .. })));
    }

    #[test]
    fn scheduled_faults_fire_at_their_call_index() {
        let schedule = FaultSchedule::new()
            .fail_call(0, FaultKind::Unreachable)
            .fail_call(2, FaultKind::Timeout);
        let ep = Endpoint::new("a", CostModel::lan(), FailureModel::reliable(), 7)
            .with_schedule(schedule);
        assert!(matches!(ep.invoke(1), Err(NetError::Unreachable { .. })));
        assert!(ep.invoke(1).is_ok());
        assert!(matches!(ep.invoke(1), Err(NetError::Timeout { .. })));
        assert!(ep.invoke(1).is_ok());
        assert_eq!(ep.stats().failures, 2);
    }

    #[test]
    fn scheduled_faults_do_not_shift_the_rng_stream() {
        // The same endpoint with and without a scheduled fault must
        // produce identical jitter on the calls the schedule spares.
        let elapsed = |schedule: FaultSchedule| {
            let ep = Endpoint::new("a", CostModel::wan(), FailureModel::reliable(), 11)
                .with_schedule(schedule);
            (0..6).filter_map(|_| ep.invoke(64).ok()).collect::<Vec<_>>()
        };
        let clean = elapsed(FaultSchedule::new());
        let faulted = elapsed(FaultSchedule::new().fail_call(2, FaultKind::Unreachable));
        assert_eq!(faulted.len(), 5);
        assert_eq!(faulted[..2], clean[..2]);
        assert_eq!(faulted[2..], clean[3..]);
    }

    #[test]
    fn bigger_payloads_cost_more() {
        let ep = Endpoint::new(
            "a",
            CostModel::new(SimDuration::from_millis(1), SimDuration::ZERO, 1_000),
            FailureModel::reliable(),
            1,
        );
        let small = ep.invoke(100).unwrap();
        let big = ep.invoke(100_000).unwrap();
        assert!(big > small);
    }
}
