//! Property tests for the network simulator: scheduling bounds on both
//! clocks, cost monotonicity, framing round-trips.

use bytes::Bytes;
use proptest::prelude::*;
use s2s_netsim::wire::{decode, encode, FrameKind};
use s2s_netsim::{makespan, CostModel, Endpoint, FailureModel, Lanes, SimDuration};

fn arb_durations() -> impl Strategy<Value = Vec<SimDuration>> {
    proptest::collection::vec((0u64..10_000).prop_map(SimDuration::from_micros), 0..40)
}

proptest! {
    /// max(durations) <= makespan(k) <= sum(durations) for any k.
    #[test]
    fn makespan_bounds(durations in arb_durations(), workers in 1usize..20) {
        let m = makespan(&durations, workers);
        let sum: SimDuration = durations.iter().copied().sum();
        let max = durations.iter().copied().max().unwrap_or(SimDuration::ZERO);
        prop_assert!(m <= sum);
        prop_assert!(m >= max);
    }

    /// Serial makespan equals the sum exactly.
    #[test]
    fn serial_is_sum(durations in arb_durations()) {
        let m = makespan(&durations, 1);
        let sum: SimDuration = durations.iter().copied().sum();
        prop_assert_eq!(m, sum);
    }

    /// Unbounded workers equal the max exactly.
    #[test]
    fn unbounded_is_max(durations in arb_durations()) {
        let m = makespan(&durations, durations.len().max(1));
        let max = durations.iter().copied().max().unwrap_or(SimDuration::ZERO);
        prop_assert_eq!(m, max);
    }

    /// More workers never increase the greedy makespan... within the
    /// greedy list-scheduling guarantee: adding workers can reshuffle
    /// assignments, but never beyond the 2x bound. We assert the weaker
    /// classical property directly against bounds.
    #[test]
    fn greedy_two_approximation(durations in arb_durations(), workers in 1usize..16) {
        let m = makespan(&durations, workers);
        let sum: SimDuration = durations.iter().copied().sum();
        let max = durations.iter().copied().max().unwrap_or(SimDuration::ZERO);
        // OPT >= max(sum/k, max); greedy <= sum/k + max <= 2*OPT.
        let lower = (sum.as_micros() / workers as u64).max(max.as_micros());
        prop_assert!(m.as_micros() <= lower * 2 + 1, "m={} lower={}", m.as_micros(), lower);
    }

    /// Frame encode/decode round-trips arbitrary payloads.
    #[test]
    fn frame_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        for kind in [FrameKind::Request, FrameKind::Response, FrameKind::Error] {
            let f = decode(encode(kind, &payload)).unwrap();
            prop_assert_eq!(f.kind, kind);
            prop_assert_eq!(&f.payload[..], &payload[..]);
        }
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode(Bytes::from(bytes));
    }

    /// Fresh lanes owe, in wall microseconds, exactly the virtual
    /// makespan of the same waits at the same width.
    #[test]
    fn fresh_lanes_reproduce_makespan(durations in arb_durations(), width in 1usize..8) {
        let waits_us: Vec<u64> = durations.iter().map(|d| d.as_micros()).collect();
        let owed = Lanes::new(width).reserve_at(std::time::Instant::now(), &waits_us);
        prop_assert_eq!(owed, makespan(&durations, width).as_micros());
    }

    /// Endpoint cost is monotone in payload size (same jitter stream
    /// alignment: we compare two endpoints with the same seed).
    #[test]
    fn cost_monotone_in_bytes(small in 0usize..1000, extra in 1usize..10_000, seed in any::<u64>()) {
        let cost = CostModel::new(SimDuration::from_millis(1), SimDuration::ZERO, 500);
        let a = Endpoint::new("a", cost, FailureModel::reliable(), seed);
        let b = Endpoint::new("b", cost, FailureModel::reliable(), seed);
        let ta = a.invoke(small).unwrap();
        let tb = b.invoke(small + extra).unwrap();
        prop_assert!(tb >= ta);
    }

    /// Endpoint streams are reproducible per seed.
    #[test]
    fn endpoint_reproducible(seed in any::<u64>(), p in 0.0f64..0.9) {
        let run = || {
            let ep = Endpoint::new("x", CostModel::lan(), FailureModel::flaky(p), seed);
            (0..30).map(|_| ep.invoke(10).ok()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Failure counters always equal observed failures.
    #[test]
    fn stats_consistent(seed in any::<u64>(), p in 0.0f64..1.0, calls in 1usize..100) {
        let ep = Endpoint::new("x", CostModel::lan(), FailureModel::flaky(p), seed);
        let mut failures = 0u64;
        for _ in 0..calls {
            if ep.invoke(8).is_err() {
                failures += 1;
            }
        }
        let stats = ep.stats();
        prop_assert_eq!(stats.calls, calls as u64);
        prop_assert_eq!(stats.failures, failures);
        prop_assert_eq!(stats.bytes, (calls as u64 - failures) * 8);
    }
}
