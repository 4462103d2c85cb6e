//! Greedy list scheduling on k lanes, on both clocks.
//!
//! Nothing here runs anything: the wrappers and the wire legs have
//! already run on the calling thread. What is left of a batch of remote
//! calls is how long it *takes* under k-way overlap — in virtual time
//! ([`makespan`], experiment E3's serial-vs-parallel figure) and in wall
//! time ([`Lanes`], the paced wait a caller owes when concurrent callers
//! share the same k slots). Both take the same step: each wait goes, in
//! submission order, to the earliest-free lane.

use std::time::Instant;

use parking_lot::Mutex;

use crate::cost::SimDuration;

/// The list-scheduling step: puts `wait` on the earliest-free lane,
/// starting no earlier than `now`, and returns when it finishes.
fn assign(free: &mut [u64], now: u64, wait: u64) -> u64 {
    let lane = free.iter_mut().min().expect("at least one lane");
    *lane = (*lane).max(now).saturating_add(wait);
    *lane
}

/// Simulated completion time of `durations` under `workers` parallel
/// workers, greedy list scheduling in submission order (each task goes
/// to the earliest-free worker).
///
/// `workers == 1` degenerates to the sum; `workers >= len` to the max.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn makespan(durations: &[SimDuration], workers: usize) -> SimDuration {
    assert!(workers > 0, "at least one worker required");
    let mut free = vec![0; workers.min(durations.len().max(1))];
    let done = durations.iter().map(|d| assign(&mut free, 0, d.as_micros())).max();
    SimDuration::from_micros(done.unwrap_or(0))
}

/// The wall-clock twin of [`makespan`]: k busy-until instants shared by
/// every caller of one engine — a FIFO k-server queue with no thread
/// behind it. A caller reserves its paced waits and sleeps once, on its
/// own thread, until the last of them would have finished; callers that
/// arrive while the lanes are busy queue behind the earlier ones.
#[derive(Debug)]
pub struct Lanes {
    /// What the lane times are measured from.
    epoch: Instant,
    /// Per lane, microseconds after `epoch` at which it falls idle.
    free_us: Mutex<Vec<u64>>,
}

impl Lanes {
    /// `lanes` idle lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "at least one lane required");
        Lanes { epoch: Instant::now(), free_us: Mutex::new(vec![0; lanes]) }
    }

    /// [`Lanes::reserve_at`] the current instant.
    pub fn reserve(&self, waits_us: &[u64]) -> u64 {
        self.reserve_at(Instant::now(), waits_us)
    }

    /// Books `waits_us` (wall-clock microseconds, submission order) onto
    /// the lanes as of `now` and returns how long after `now` the last
    /// of them finishes — what the caller owes. A lane that fell idle
    /// before `now` gives no credit for the gap. An all-zero list books
    /// nothing and returns 0 without taking the lock, so an unpaced
    /// engine never touches it.
    pub fn reserve_at(&self, now: Instant, waits_us: &[u64]) -> u64 {
        if waits_us.iter().all(|&w| w == 0) {
            return 0;
        }
        let now_us = now.saturating_duration_since(self.epoch).as_micros() as u64;
        let mut free = self.free_us.lock();
        let done = waits_us.iter().map(|&w| assign(&mut free, now_us, w)).max();
        done.map_or(0, |done| done - now_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn serial_is_sum() {
        assert_eq!(makespan(&[ms(1), ms(2), ms(3)], 1), ms(6));
    }

    #[test]
    fn fully_parallel_is_max() {
        assert_eq!(makespan(&[ms(1), ms(2), ms(3)], 3), ms(3));
        assert_eq!(makespan(&[ms(1), ms(2), ms(3)], 100), ms(3));
    }

    #[test]
    fn two_workers_greedy() {
        // 3,1,1,1 with 2 workers: w0=3, w1=1+1+1 → 3.
        assert_eq!(makespan(&[ms(3), ms(1), ms(1), ms(1)], 2), ms(3));
        // 1,3,1,1: w0=1+1, w1=3, then 1 goes to w0 → w0=3, w1=3 → 3.
        assert_eq!(makespan(&[ms(1), ms(3), ms(1), ms(1)], 2), ms(3));
    }

    #[test]
    fn empty_batch_is_zero() {
        assert_eq!(makespan(&[], 4), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        makespan(&[ms(1)], 0);
    }

    /// `makespan` over raw microsecond waits.
    fn makespan_us(waits: &[u64], lanes: usize) -> u64 {
        let durations: Vec<_> = waits.iter().map(|&w| SimDuration::from_micros(w)).collect();
        makespan(&durations, lanes).as_micros()
    }

    #[test]
    fn callers_at_one_instant_queue_behind_each_other() {
        let lanes = Lanes::new(2);
        let now = Instant::now();
        let (first, second) = ([3_000, 1_000, 1_000], [2_000, 2_000, 500]);
        assert_eq!(lanes.reserve_at(now, &first), makespan_us(&first, 2));
        // The second caller finishes when the concatenation would.
        let both = [first, second].concat();
        assert_eq!(lanes.reserve_at(now, &second), makespan_us(&both, 2));
    }

    #[test]
    fn lanes_idle_in_the_past_give_no_credit() {
        let lanes = Lanes::new(2);
        let now = Instant::now();
        assert_eq!(lanes.reserve_at(now, &[1_000, 4_000]), 4_000);
        // 2 ms on: lane 0 has been idle for 1 ms, lane 1 has 2 ms to go.
        let later = now + Duration::from_millis(2);
        assert_eq!(lanes.reserve_at(later, &[500]), 500, "starts at `later`, not at 1 ms");
        // Lanes now free at 2.5 ms and 4 ms: 3 ms → 5.5 ms, 1 ms → 5 ms.
        assert_eq!(lanes.reserve_at(later, &[3_000, 1_000]), 3_500);
        // Long after everything drained the lanes are as good as fresh.
        let idle = now + Duration::from_secs(1);
        assert_eq!(lanes.reserve_at(idle, &[700, 700, 700]), 1_400);
    }

    #[test]
    fn all_zero_waits_book_nothing() {
        let lanes = Lanes::new(1);
        let now = Instant::now();
        assert_eq!(lanes.reserve_at(now, &[5_000]), 5_000);
        let before = lanes.free_us.lock().clone();
        assert_eq!(lanes.reserve_at(now, &[]), 0);
        assert_eq!(lanes.reserve_at(now, &[0, 0, 0]), 0, "not queued behind the 5 ms");
        assert_eq!(*lanes.free_us.lock(), before);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        Lanes::new(0);
    }
}
