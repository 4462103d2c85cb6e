//! An event-driven reactor over virtual time.
//!
//! A thread per in-flight *client* tops concurrency out near core count
//! even though nearly all of a client's "work" is simulated network
//! wait. The [`Reactor`] turns each client into a state machine
//! advanced by *timer events* on a virtual clock: a task fires, charges
//! its simulated cost, and parks on a timer until that cost has
//! "elapsed" — no thread blocks, so one core holds thousands of clients
//! (the E13 throughput harness runs 10 000 on it). The engine itself
//! schedules nothing here: wrappers run on the thread that called
//! `query`, and overlapping one query's exchanges is a loop over
//! [`crate::cost::defer_pacing`] scopes, not a second scheduler.
//!
//! ## Model
//!
//! * **Event types.** There is exactly one event kind: a timer
//!   expiring for a task. A task's [`EventTask::fire`] either re-arms
//!   itself ([`Poll::Sleep`]) or completes ([`Poll::Done`]). Richer
//!   protocols (start → wait → complete, or a client issuing a
//!   sequence of queries) are expressed as state inside the task.
//! * **Timer wheel.** Timers live in per-shard binary min-heaps keyed
//!   `(deadline, sequence)`. The run loop repeatedly pops the globally
//!   earliest timer — ties broken by the globally allocated,
//!   monotonically increasing sequence number — so execution order is
//!   a pure function of spawn order and requested delays, independent
//!   of the shard count.
//! * **Shard ownership.** A task is owned by shard `task_id % shards`
//!   for its whole life; its timers never migrate. Shards here bound
//!   heap depth (and map 1:1 onto reactor threads if the loop is ever
//!   run multi-threaded); the merge rule keeps the combined schedule
//!   deterministic regardless of shard count.
//! * **Invariants.** The virtual clock never goes backwards; a task
//!   fires at most once per owned timer; every spawned task fires at
//!   least once (first timer at `now`); `completed ≤ spawned` with
//!   equality when `run` returns.
//!
//! ## Real-time pacing
//!
//! Paced cost models ([`crate::CostModel::with_pace`]) normally *block* the
//! calling thread so wall time mirrors virtual overlap. Under the
//! reactor every fire runs inside [`crate::cost::defer_pacing`], which
//! captures the would-be sleep instead; the reactor then sleeps once
//! per virtual-clock advance, scaled by the observed pace rate. Net
//! effect: wall time tracks the virtual *makespan* (max over overlapped
//! waits) rather than the per-task sum, exactly as if every task had
//! its own blocked thread — without the threads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cost::{defer_pacing, pace_sleep, SimDuration};

/// What a task wants after a fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Re-arm: fire this task again after `0` or more virtual
    /// microseconds (zero fires again in the same instant, after any
    /// already-queued timers for that instant).
    Sleep(SimDuration),
    /// The task is finished; drop it.
    Done,
}

/// A state machine advanced by reactor timer events.
///
/// `fire` is called with the current virtual time whenever one of the
/// task's timers expires. Tasks run on the reactor's thread, so they
/// may freely hold non-`Send` state.
pub trait EventTask {
    /// Advances the state machine. `now` is the reactor's virtual
    /// clock at the expiring timer's deadline.
    fn fire(&mut self, now: SimDuration) -> Poll;
}

/// Counters describing one reactor's life so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Timer shards the reactor was built with.
    pub shards: usize,
    /// Tasks spawned over the reactor's lifetime.
    pub spawned: u64,
    /// Timer events fired.
    pub events: u64,
    /// Tasks that returned [`Poll::Done`].
    pub completed: u64,
    /// High-water mark of live (spawned, not yet done) tasks.
    pub peak_in_flight: usize,
    /// High-water mark of pending timers across all shards.
    pub peak_timer_depth: usize,
    /// Events fired per shard (length = `shards`).
    pub shard_events: Vec<u64>,
    /// Virtual time at the last `run` return.
    pub virtual_elapsed: SimDuration,
}

impl ReactorStats {
    /// Busiest shard's event count over the per-shard mean; 1.0 means
    /// perfectly balanced, 0.0 means no events fired yet.
    pub fn shard_balance(&self) -> f64 {
        if self.events == 0 || self.shard_events.is_empty() {
            return 0.0;
        }
        let max = self.shard_events.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.events as f64 / self.shard_events.len() as f64;
        max / mean
    }
}

/// One pending timer. Ordering (through [`Reverse`] in a max-heap)
/// is earliest-deadline-first with FIFO sequence tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Timer {
    at_us: u64,
    seq: u64,
    task: usize,
}

/// A single-threaded, N-sharded discrete-event scheduler over virtual
/// time.
///
/// # Examples
///
/// ```
/// use s2s_netsim::{EventTask, Poll, Reactor, SimDuration};
///
/// struct Ping(u32);
/// impl EventTask for Ping {
///     fn fire(&mut self, _now: SimDuration) -> Poll {
///         self.0 -= 1;
///         if self.0 == 0 { Poll::Done } else { Poll::Sleep(SimDuration::from_millis(5)) }
///     }
/// }
///
/// let mut reactor = Reactor::new(2);
/// reactor.spawn(Box::new(Ping(3)));
/// reactor.run();
/// assert_eq!(reactor.stats().completed, 1);
/// assert_eq!(reactor.now(), SimDuration::from_millis(10));
/// ```
pub struct Reactor<'a> {
    shards: Vec<BinaryHeap<Reverse<Timer>>>,
    tasks: Vec<Option<Box<dyn EventTask + 'a>>>,
    now_us: u64,
    next_seq: u64,
    in_flight: usize,
    timer_depth: usize,
    /// Observed pace rate: wall-clock microseconds per simulated
    /// millisecond, inferred from deferred sleeps (0 = unpaced).
    pace_us_per_sim_ms: u64,
    stats: ReactorStats,
}

impl<'a> Reactor<'a> {
    /// Creates a reactor with `shards` timer shards (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Reactor {
            shards: (0..shards).map(|_| BinaryHeap::new()).collect(),
            tasks: Vec::new(),
            now_us: 0,
            next_seq: 0,
            in_flight: 0,
            timer_depth: 0,
            pace_us_per_sim_ms: 0,
            stats: ReactorStats { shards, shard_events: vec![0; shards], ..Default::default() },
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimDuration {
        SimDuration::from_micros(self.now_us)
    }

    /// Snapshot of the reactor's counters.
    pub fn stats(&self) -> ReactorStats {
        let mut stats = self.stats.clone();
        stats.virtual_elapsed = self.now();
        stats
    }

    /// Spawns a task; its first fire happens at the current virtual
    /// time, after any timers already queued for that instant.
    pub fn spawn(&mut self, task: Box<dyn EventTask + 'a>) {
        let id = self.tasks.len();
        self.tasks.push(Some(task));
        self.in_flight += 1;
        self.stats.spawned += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight);
        self.arm(id, 0);
        if s2s_obs::enabled() {
            let metrics = s2s_obs::global();
            metrics.counter(s2s_obs::names::REACTOR_TASKS_TOTAL).add(1);
            metrics.gauge(s2s_obs::names::REACTOR_IN_FLIGHT).set(self.in_flight as f64);
        }
    }

    fn arm(&mut self, task: usize, delay_us: u64) {
        let timer = Timer { at_us: self.now_us.saturating_add(delay_us), seq: self.next_seq, task };
        self.next_seq += 1;
        let shard = task % self.shards.len();
        self.shards[shard].push(Reverse(timer));
        self.timer_depth += 1;
        self.stats.peak_timer_depth = self.stats.peak_timer_depth.max(self.timer_depth);
    }

    /// Pops the globally earliest timer: min `(deadline, seq)`. The
    /// sequence number is allocated globally at arm time, so the merge
    /// order is identical for every shard count.
    fn pop_next(&mut self) -> Option<(usize, Timer)> {
        let mut best: Option<(usize, Timer)> = None;
        for (shard, heap) in self.shards.iter().enumerate() {
            if let Some(Reverse(timer)) = heap.peek() {
                let better = match best {
                    None => true,
                    Some((_, b)) => (timer.at_us, timer.seq) < (b.at_us, b.seq),
                };
                if better {
                    best = Some((shard, *timer));
                }
            }
        }
        let (shard, _) = best?;
        let Reverse(timer) = self.shards[shard].pop().expect("peeked timer");
        self.timer_depth -= 1;
        Some((shard, timer))
    }

    /// Runs until every spawned task has completed. Returns the
    /// virtual time consumed by this call.
    pub fn run(&mut self) -> SimDuration {
        let started_us = self.now_us;
        let obs = s2s_obs::enabled();
        while let Some((shard, timer)) = self.pop_next() {
            if timer.at_us > self.now_us {
                // Advance the clock, paying back deferred pacing once
                // per advance rather than once per parked task.
                let delta_us = timer.at_us - self.now_us;
                if self.pace_us_per_sim_ms > 0 {
                    pace_sleep(delta_us.saturating_mul(self.pace_us_per_sim_ms) / 1_000);
                }
                self.now_us = timer.at_us;
            }
            let now = self.now();
            let task = self.tasks[timer.task].as_mut().expect("armed timer for live task");
            let (poll, deferred_us) = defer_pacing(|| task.fire(now));
            self.stats.events += 1;
            self.stats.shard_events[shard] += 1;
            match poll {
                Poll::Sleep(delay) => {
                    if deferred_us > 0 && delay.as_micros() > 0 {
                        // The fire blocked `deferred_us` of wall time
                        // for `delay` of virtual time; remember the
                        // steepest rate and pay it back on advances.
                        let rate = deferred_us.saturating_mul(1_000) / delay.as_micros();
                        self.pace_us_per_sim_ms = self.pace_us_per_sim_ms.max(rate);
                    } else if deferred_us > 0 {
                        // No virtual span to amortize over: pay now.
                        pace_sleep(deferred_us);
                    }
                    self.arm(timer.task, delay.as_micros());
                }
                Poll::Done => {
                    if deferred_us > 0 {
                        pace_sleep(deferred_us);
                    }
                    self.tasks[timer.task] = None;
                    self.in_flight -= 1;
                    self.stats.completed += 1;
                }
            }
            if obs {
                let metrics = s2s_obs::global();
                metrics.counter(s2s_obs::names::REACTOR_EVENTS_TOTAL).add(1);
                metrics.gauge(s2s_obs::names::REACTOR_IN_FLIGHT).set(self.in_flight as f64);
                metrics.gauge(s2s_obs::names::REACTOR_TIMER_DEPTH).set(self.timer_depth as f64);
            }
        }
        if obs {
            s2s_obs::global()
                .gauge(s2s_obs::names::REACTOR_SHARD_BALANCE)
                .set(self.stats().shard_balance());
        }
        SimDuration::from_micros(self.now_us - started_us)
    }
}

impl std::fmt::Debug for Reactor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").field("now", &self.now()).field("stats", &self.stats).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Fires `n` times with `delay` between fires, recording fire times.
    struct Beeper {
        remaining: u32,
        delay: SimDuration,
        log: Rc<RefCell<Vec<(usize, u64)>>>,
        id: usize,
    }

    impl EventTask for Beeper {
        fn fire(&mut self, now: SimDuration) -> Poll {
            self.log.borrow_mut().push((self.id, now.as_micros()));
            if self.remaining == 0 {
                return Poll::Done;
            }
            self.remaining -= 1;
            Poll::Sleep(self.delay)
        }
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut reactor = Reactor::new(1);
        for (id, delay_ms) in [(0, 30u64), (1, 10), (2, 20)] {
            reactor.spawn(Box::new(Beeper {
                remaining: 1,
                delay: SimDuration::from_millis(delay_ms),
                log: Rc::clone(&log),
                id,
            }));
        }
        reactor.run();
        let fires = log.borrow().clone();
        // t=0: all three start in spawn order, then completions by delay.
        assert_eq!(fires, [(0, 0), (1, 0), (2, 0), (1, 10_000), (2, 20_000), (0, 30_000)]);
        assert_eq!(reactor.now(), SimDuration::from_millis(30));
    }

    #[test]
    fn schedule_is_identical_across_shard_counts() {
        let run_with = |shards: usize| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut reactor = Reactor::new(shards);
            for id in 0..9 {
                reactor.spawn(Box::new(Beeper {
                    remaining: 3,
                    delay: SimDuration::from_micros(100 + 37 * id as u64),
                    log: Rc::clone(&log),
                    id,
                }));
            }
            reactor.run();
            let fires = log.borrow().clone();
            fires
        };
        let one = run_with(1);
        assert_eq!(one, run_with(4));
        assert_eq!(one, run_with(8));
    }

    #[test]
    fn stats_count_events_and_tasks() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut reactor = Reactor::new(4);
        for id in 0..8 {
            reactor.spawn(Box::new(Beeper {
                remaining: 2,
                delay: SimDuration::from_millis(1),
                log: Rc::clone(&log),
                id,
            }));
        }
        reactor.run();
        let stats = reactor.stats();
        assert_eq!(stats.spawned, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.events, 8 * 3);
        assert_eq!(stats.peak_in_flight, 8);
        assert_eq!(stats.shard_events.iter().sum::<u64>(), stats.events);
        // 8 tasks over 4 shards is perfectly balanced.
        assert!((stats.shard_balance() - 1.0).abs() < 1e-9, "{stats:?}");
        assert!(stats.peak_timer_depth >= 8);
    }

    /// One paced exchange: takes (or defers) its real-time wait when it
    /// starts, then parks until its charge has elapsed on the virtual
    /// clock.
    struct PacedWait {
        path: CostModel,
        charge: SimDuration,
        parked: bool,
    }

    impl EventTask for PacedWait {
        fn fire(&mut self, _now: SimDuration) -> Poll {
            if self.parked {
                return Poll::Done;
            }
            self.parked = true;
            self.path.pace(self.charge);
            Poll::Sleep(self.charge)
        }
    }

    fn spawn_paced(reactor: &mut Reactor<'_>, path: CostModel, charge_ms: u64, tasks: usize) {
        for _ in 0..tasks {
            let charge = SimDuration::from_millis(charge_ms);
            reactor.spawn(Box::new(PacedWait { path, charge, parked: false }));
        }
    }

    #[test]
    fn paced_fires_sleep_per_advance_not_per_task() {
        // 16 tasks each charging 20 sim ms at 100 us/ms: a threaded
        // pool of 1 would sleep 16 × 2 ms = 32 ms; the reactor overlaps
        // them into one 2 ms advance.
        let mut reactor = Reactor::new(1);
        spawn_paced(&mut reactor, CostModel::instant().with_pace(100), 20, 16);
        let started = std::time::Instant::now();
        reactor.run();
        let wall = started.elapsed();
        assert_eq!(reactor.now(), SimDuration::from_millis(20));
        assert!(wall >= std::time::Duration::from_millis(2), "paid the advance: {wall:?}");
        assert!(wall < std::time::Duration::from_millis(20), "did not serialize: {wall:?}");
    }

    #[test]
    fn nested_reactors_defer_to_the_outer_scope() {
        // A reactor pays its advances back through `pace_sleep`, so an
        // enclosing defer scope captures them instead of sleeping.
        let mut reactor = Reactor::new(2);
        spawn_paced(&mut reactor, CostModel::instant().with_pace(1_000), 10, 4);
        let (virtual_elapsed, deferred_us) = defer_pacing(|| reactor.run());
        assert_eq!(virtual_elapsed, SimDuration::from_millis(10));
        // One overlapped 10 ms advance at 1000 us/ms = 10_000 us.
        assert_eq!(deferred_us, 10_000);
    }
}
