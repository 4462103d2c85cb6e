//! Makespan accounting.
//!
//! Experiment E3 (serial vs parallel mediator) needs the *simulated*
//! completion time of a batch of remote calls under k workers. Nothing
//! here runs anything: the wrappers have already run on the calling
//! thread, and [`crate::WorkerPool`] only overlaps the paced waits.

use crate::cost::SimDuration;

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
    let mut free = vec![SimDuration::ZERO; workers.min(durations.len().max(1))];
    for &d in durations {
        // earliest-free worker
        let (idx, _) = free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.as_micros())
            .expect("non-empty worker list");
        free[idx] += d;
    }
    free.into_iter().max().unwrap_or(SimDuration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
