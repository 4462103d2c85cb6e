//! Virtual time and latency/bandwidth cost models.

use std::cell::Cell;
use std::fmt;
use std::ops::{Add, AddAssign};

thread_local! {
    /// Wall-clock microseconds of pacing collected instead of slept
    /// while a [`defer_pacing`] scope is active on this thread.
    /// `None` = no scope active, sleeps happen for real.
    static DEFERRED_PACE_US: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Runs `f` with real-time pacing *deferred* on the calling thread:
/// every [`CostModel::pace`] inside the closure accumulates its
/// would-be sleep instead of blocking. Returns the closure's result
/// plus the total deferred wall-clock microseconds.
///
/// This is how overlapped waits are paid once instead of once per
/// exchange: the caller executes an exchange under deferral, reads off
/// how much wall time it *would* have blocked, and pays back only the
/// longest (the engine's all-in-flight dispatch) or one sleep per
/// virtual-clock advance (the E13 harness's event loop). Scopes nest —
/// a query that loop runs re-emits its paid-back time through
/// [`pace_sleep`], which the outer scope captures in turn.
pub fn defer_pacing<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let prev = DEFERRED_PACE_US.with(|c| c.replace(Some(0)));
    let out = f();
    let deferred = DEFERRED_PACE_US.with(|c| c.replace(prev)).unwrap_or(0);
    (out, deferred)
}

/// Sleeps `us` wall-clock microseconds — unless a [`defer_pacing`]
/// scope is active on this thread, in which case the time is added to
/// that scope's accumulator and the call returns immediately.
pub fn pace_sleep(us: u64) {
    if us == 0 {
        return;
    }
    let deferred = DEFERRED_PACE_US.with(|c| match c.get() {
        Some(acc) => {
            c.set(Some(acc.saturating_add(us)));
            true
        }
        None => false,
    });
    if !deferred {
        std::thread::sleep(std::time::Duration::from_micros(us));
    }
}

/// A span of simulated time, in microseconds.
///
/// Simulated time never sleeps; endpoints *account* it so experiments
/// are deterministic and fast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration {
    micros: u64,
}

impl SimDuration {
    /// Zero time.
    pub const ZERO: SimDuration = SimDuration { micros: 0 };

    /// From microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration { micros }
    }

    /// From milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration { micros: millis * 1_000 }
    }

    /// As microseconds.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.micros as f64 / 1_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration { micros: self.micros.saturating_sub(other.micros) }
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.micros >= other.micros {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration { micros: self.micros.saturating_add(rhs.micros) }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.micros >= 1_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.micros)
        }
    }
}

/// Latency/bandwidth model of one network path.
///
/// Cost of a call = `base + U(0..jitter) + bytes × per_byte`, with the
/// jitter drawn from a deterministic per-endpoint stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed round-trip base latency.
    pub base: SimDuration,
    /// Upper bound of uniform jitter added per call.
    pub jitter: SimDuration,
    /// Transfer cost per payload byte (both directions combined).
    pub per_byte_nanos: u64,
    /// Real-time pacing: wall-clock microseconds slept per simulated
    /// millisecond charged to a call. `0` (the default everywhere)
    /// keeps calls instant; throughput benchmarks opt in via
    /// [`CostModel::with_pace`] so a calling thread genuinely *blocks*
    /// for a scaled-down replica of the simulated latency — which is
    /// what lets concurrent clients overlap their waits like a real
    /// I/O-bound service, independent of core count.
    pub pace_us_per_sim_ms: u64,
}

impl CostModel {
    /// A LAN-ish profile: 0.5 ms ± 0.2 ms, ~1 Gbps.
    pub fn lan() -> Self {
        CostModel {
            base: SimDuration::from_micros(500),
            jitter: SimDuration::from_micros(200),
            per_byte_nanos: 8,
            pace_us_per_sim_ms: 0,
        }
    }

    /// A WAN-ish profile: 20 ms ± 10 ms, ~50 Mbps.
    pub fn wan() -> Self {
        CostModel {
            base: SimDuration::from_millis(20),
            jitter: SimDuration::from_millis(10),
            per_byte_nanos: 160,
            pace_us_per_sim_ms: 0,
        }
    }

    /// Free and instant (for "local" sources).
    pub fn instant() -> Self {
        CostModel {
            base: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            per_byte_nanos: 0,
            pace_us_per_sim_ms: 0,
        }
    }

    /// A custom profile (no real-time pacing).
    pub fn new(base: SimDuration, jitter: SimDuration, per_byte_nanos: u64) -> Self {
        CostModel { base, jitter, per_byte_nanos, pace_us_per_sim_ms: 0 }
    }

    /// Enables real-time pacing: every call against this path sleeps
    /// `us_per_sim_ms` wall-clock microseconds per simulated
    /// millisecond it was charged. E.g. `wan().with_pace(150)` turns a
    /// ~25 ms simulated exchange into a ~3.75 ms real wait.
    pub fn with_pace(mut self, us_per_sim_ms: u64) -> Self {
        self.pace_us_per_sim_ms = us_per_sim_ms;
        self
    }

    /// The cost of moving `bytes` over this path, with `jitter_draw` a
    /// uniform sample in `[0, 1)`.
    pub fn cost(&self, bytes: usize, jitter_draw: f64) -> SimDuration {
        let jitter = (self.jitter.as_micros() as f64 * jitter_draw) as u64;
        let transfer_us = (bytes as u64).saturating_mul(self.per_byte_nanos) / 1_000;
        self.base + SimDuration::from_micros(jitter) + SimDuration::from_micros(transfer_us)
    }

    /// Blocks the calling thread for the paced real-time equivalent of
    /// `charged` simulated time. A no-op unless pacing is enabled.
    /// Inside a [`defer_pacing`] scope the sleep is accumulated rather
    /// than taken, so an event loop can pay it back per clock advance
    /// instead of per blocked task.
    pub fn pace(&self, charged: SimDuration) {
        if self.pace_us_per_sim_ms == 0 {
            return;
        }
        pace_sleep(charged.as_micros().saturating_mul(self.pace_us_per_sim_ms) / 1_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(2);
        let b = SimDuration::from_micros(500);
        assert_eq!((a + b).as_micros(), 2_500);
        assert_eq!(a.saturating_sub(b).as_micros(), 1_500);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(total.as_micros(), 3_000);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimDuration::from_micros(250).to_string(), "250us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.00ms");
    }

    #[test]
    fn cost_includes_all_components() {
        let m = CostModel::new(SimDuration::from_millis(10), SimDuration::from_millis(4), 1_000);
        // zero jitter draw
        assert_eq!(m.cost(0, 0.0).as_micros(), 10_000);
        // full jitter
        assert_eq!(m.cost(0, 0.999).as_micros(), 10_000 + 3_996);
        // bytes: 2000 bytes × 1000ns = 2ms
        assert_eq!(m.cost(2_000, 0.0).as_micros(), 12_000);
    }

    #[test]
    fn instant_is_free() {
        assert_eq!(CostModel::instant().cost(1 << 20, 0.5), SimDuration::ZERO);
    }

    #[test]
    fn profiles_ordered_sensibly() {
        assert!(CostModel::lan().cost(1024, 0.5) < CostModel::wan().cost(1024, 0.5));
    }

    #[test]
    fn pacing_defaults_off_and_does_not_change_cost() {
        let plain = CostModel::wan();
        let paced = CostModel::wan().with_pace(100);
        assert_eq!(plain.pace_us_per_sim_ms, 0);
        assert_eq!(plain.cost(512, 0.3), paced.cost(512, 0.3));
        // Unpaced: returns immediately even for a huge charge.
        plain.pace(SimDuration::from_millis(100_000));
    }

    #[test]
    fn pacing_sleeps_scaled_real_time() {
        let paced = CostModel::instant().with_pace(100); // 0.1 ms real per sim ms
        let started = std::time::Instant::now();
        paced.pace(SimDuration::from_millis(20));
        assert!(started.elapsed() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn deferred_pacing_accumulates_instead_of_sleeping() {
        let paced = CostModel::instant().with_pace(1_000); // 1 ms real per sim ms
        let started = std::time::Instant::now();
        let ((), deferred) = defer_pacing(|| {
            paced.pace(SimDuration::from_millis(100));
            paced.pace(SimDuration::from_millis(150));
        });
        // 250 sim ms × 1000 us/ms would be a 250 ms sleep; deferral
        // must make this effectively instant.
        assert!(started.elapsed() < std::time::Duration::from_millis(100));
        assert_eq!(deferred, 250_000);
    }

    #[test]
    fn deferred_pacing_scopes_nest() {
        let paced = CostModel::instant().with_pace(1_000);
        let ((inner_deferred, relayed), outer_deferred) = defer_pacing(|| {
            let ((), inner) = defer_pacing(|| {
                paced.pace(SimDuration::from_millis(40));
            });
            // An inner scope's owner pays its collected time back
            // through pace_sleep; the outer scope captures that.
            pace_sleep(inner / 2);
            (inner, inner / 2)
        });
        assert_eq!(inner_deferred, 40_000);
        assert_eq!(outer_deferred, relayed);
    }

    #[test]
    fn pace_sleep_outside_scope_sleeps() {
        let started = std::time::Instant::now();
        pace_sleep(2_000);
        assert!(started.elapsed() >= std::time::Duration::from_millis(2));
    }
}
