//! Admission control in front of the shared engine: a bounded queue
//! with per-tenant deficit-round-robin dequeue, early load shedding,
//! and the latency tracker that drives hedged requests.
//!
//! The engine's shared [`crate::Lanes`] happily accept unbounded offered
//! load. They hold no work — wrappers and wire legs run on each caller's
//! own thread — only the paced *waits* of in-flight exchanges, so under
//! overload every query's waits queue behind every other's and p99
//! latency grows without bound. The admission controller sits
//! *in front* of the engine and makes the overload decision explicit:
//!
//! * **Bounded concurrency** — at most `permits` queries execute at
//!   once; at most `capacity` more may wait.
//! * **Early shedding** — a query is refused *before* it queues when
//!   the queue is full or when the estimated wait already exceeds the
//!   caller's remaining deadline budget (queueing it would only waste
//!   a slot on an answer nobody can use).
//! * **Per-tenant fairness** — waiting queries are dequeued by deficit
//!   round robin over tenants: each pass a tenant's deficit grows by
//!   the configured service estimate and it may dispatch queries while
//!   its deficit covers their estimated cost. One misbehaving tenant
//!   saturates only its own backlog; other tenants keep their share of
//!   the permits.
//! * **Hedging support** — [`Hedger`] records per-exchange simulated
//!   latencies and exposes a percentile-based hedge delay; the query
//!   ledger counts the hedges launched and won.
//!
//! Everything observable is deterministic for a single-threaded
//! caller: with an empty queue the fast path never blocks and the DRR
//! state never engages, so conformance scenarios replay bit-identically.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::cost::SimDuration;

/// Tuning knobs for [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queries allowed to execute concurrently.
    pub permits: usize,
    /// Queries allowed to wait for a permit; arrivals beyond this are
    /// shed immediately.
    pub capacity: usize,
    /// Estimated simulated service time of one query; drives the
    /// estimated-wait shed decision until completions calibrate it, and
    /// is the deficit each tenant earns per DRR pass (about one query
    /// per tenant per pass).
    pub service_estimate: SimDuration,
}

impl AdmissionConfig {
    /// A controller sized for `permits` concurrent queries with a
    /// queue of twice that and a 20 ms service estimate (one WAN
    /// exchange).
    pub fn with_permits(permits: usize) -> Self {
        AdmissionConfig {
            permits: permits.max(1),
            capacity: permits.max(1) * 2,
            service_estimate: SimDuration::from_millis(20),
        }
    }

    /// Replaces the waiting-queue capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Replaces the per-query service estimate.
    pub fn with_service_estimate(mut self, estimate: SimDuration) -> Self {
        self.service_estimate = estimate;
        self
    }
}

/// Why a query was refused instead of queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShedReason {
    /// The waiting queue is at capacity.
    QueueFull {
        /// Queries already waiting.
        depth: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// The estimated wait for a permit already exceeds the caller's
    /// remaining deadline budget.
    BudgetExceeded {
        /// Estimated simulated wait at arrival.
        estimated_wait: SimDuration,
        /// The caller's remaining budget.
        budget: SimDuration,
    },
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull { depth, capacity } => {
                write!(f, "admission queue full ({depth}/{capacity} waiting)")
            }
            ShedReason::BudgetExceeded { estimated_wait, budget } => {
                write!(f, "estimated wait {estimated_wait} exceeds remaining budget {budget}")
            }
        }
    }
}

/// Counter snapshot of the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries granted a permit over the controller's lifetime.
    pub admitted: u64,
    /// Queries refused (all [`ShedReason`]s combined).
    pub shed: u64,
    /// Queries currently executing under a permit.
    pub in_flight: usize,
    /// Queries currently waiting for a permit.
    pub queued: usize,
    /// High-water mark of `queued`.
    pub peak_queued: usize,
}

/// One tenant's waiting queue plus its DRR deficit.
#[derive(Debug, Default)]
struct TenantQueue {
    /// Waiting tickets: (serial, estimated cost in sim-µs).
    waiting: VecDeque<(u64, u64)>,
    /// Accumulated deficit in sim-µs; spent when a ticket dispatches.
    deficit: u64,
}

#[derive(Debug, Default)]
struct State {
    in_flight: usize,
    queued: usize,
    peak_queued: usize,
    next_serial: u64,
    tenants: BTreeMap<String, TenantQueue>,
    /// Tickets granted a permit but not yet collected by their waiter
    /// (the permit is already charged to `in_flight`).
    granted: Vec<u64>,
    /// DRR rotation pointer: the tenant served last.
    last_tenant: Option<String>,
    /// EWMA of observed per-query service times in sim-µs, fed by
    /// [`AdmissionController::record_completion`]. `0` = no completion
    /// observed yet; fall back to the configured estimate.
    service_ewma_us: u64,
}

/// Bounded, tenant-fair admission in front of the engine.
///
/// [`AdmissionController::admit`] either returns an [`AdmissionGuard`]
/// (drop it when the query finishes) or a [`ShedReason`]. The decision
/// to shed is made **at arrival**, before the query consumes a queue
/// slot, from the queue depth and the estimated wait versus the
/// caller's remaining budget.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    freed: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl AdmissionController {
    /// Builds a controller from its config.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            state: Mutex::new(State::default()),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The config this controller was built with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AdmissionStats {
        let st = self.state.lock().expect("admission state lock");
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            in_flight: st.in_flight,
            queued: st.queued,
            peak_queued: st.peak_queued,
        }
    }

    /// Queries currently waiting for a permit.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("admission state lock").queued
    }

    /// Queries of `tenant` currently waiting for a permit.
    pub fn tenant_backlog(&self, tenant: &str) -> usize {
        let st = self.state.lock().expect("admission state lock");
        st.tenants.get(tenant).map_or(0, |t| t.waiting.len())
    }

    /// Estimated simulated wait a query arriving now would incur, from
    /// the work already queued or in flight ahead of it.
    pub fn estimated_wait(&self) -> SimDuration {
        let st = self.state.lock().expect("admission state lock");
        self.estimate_locked(&st)
    }

    /// The live per-query service estimate: the EWMA of observed
    /// completions once any have been recorded, the configured
    /// estimate until then.
    pub fn service_estimate(&self) -> SimDuration {
        let st = self.state.lock().expect("admission state lock");
        SimDuration::from_micros(self.service_estimate_us_locked(&st))
    }

    /// Recalibrates the service estimate from one completed query's
    /// simulated service time (EWMA, α = 1/8; the first observation
    /// seeds the average). The engine calls this per completion event,
    /// so shed decisions track what queries *actually* cost under the
    /// current dispatch strategy and workload rather than the static
    /// configured guess — which goes stale the moment the strategy
    /// changes the cost shape (a query's simulated time is the k-worker
    /// makespan of its exchanges, their maximum with every exchange in
    /// flight at once).
    pub fn record_completion(&self, service: SimDuration) {
        let observed = service.as_micros().max(1);
        let mut st = self.state.lock().expect("admission state lock");
        st.service_ewma_us = if st.service_ewma_us == 0 {
            observed
        } else {
            (st.service_ewma_us.saturating_mul(7).saturating_add(observed)) / 8
        };
        let live = st.service_ewma_us;
        drop(st);
        if s2s_obs::enabled() {
            s2s_obs::global().gauge(s2s_obs::names::ADMISSION_SERVICE_ESTIMATE_US).set(live as f64);
        }
    }

    fn service_estimate_us_locked(&self, st: &State) -> u64 {
        if st.service_ewma_us > 0 {
            st.service_ewma_us
        } else {
            self.cfg.service_estimate.as_micros()
        }
    }

    fn estimate_locked(&self, st: &State) -> SimDuration {
        // Everything queued, plus the portion of in-flight work beyond
        // what free permits absorb, spread over the permit count.
        let backlog = st.queued + st.in_flight.saturating_sub(self.cfg.permits.saturating_sub(1));
        let us = self.service_estimate_us_locked(st).saturating_mul(backlog as u64)
            / self.cfg.permits.max(1) as u64;
        SimDuration::from_micros(us)
    }

    /// Requests a permit for `tenant`.
    ///
    /// * `budget` — the caller's remaining deadline budget; when the
    ///   estimated wait already exceeds it the query is shed at
    ///   arrival (`None` = no budget, never budget-shed).
    ///
    /// Blocks while waiting for a permit; fairness across tenants is
    /// deficit round robin. Returns the guard that must be held for
    /// the duration of the query.
    pub fn admit(
        &self,
        tenant: &str,
        budget: Option<SimDuration>,
    ) -> Result<AdmissionGuard<'_>, ShedReason> {
        let mut st = self.state.lock().expect("admission state lock");

        // Fast path: a free permit and nobody waiting ahead of us.
        if st.in_flight < self.cfg.permits && st.queued == 0 {
            st.in_flight += 1;
            drop(st);
            self.admitted.fetch_add(1, Ordering::Relaxed);
            self.publish_gauges(0, None);
            return Ok(AdmissionGuard { controller: self });
        }

        // Shed decisions happen here, before the query takes a slot.
        if st.queued >= self.cfg.capacity {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ShedReason::QueueFull { depth: st.queued, capacity: self.cfg.capacity });
        }
        if let Some(budget) = budget {
            let estimated_wait = self.estimate_locked(&st);
            if estimated_wait >= budget {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ShedReason::BudgetExceeded { estimated_wait, budget });
            }
        }

        // Queue under this tenant and wait for the DRR dispatcher.
        let serial = st.next_serial;
        st.next_serial += 1;
        let cost = self.service_estimate_us_locked(&st).max(1);
        st.tenants.entry(tenant.to_string()).or_default().waiting.push_back((serial, cost));
        st.queued += 1;
        st.peak_queued = st.peak_queued.max(st.queued);
        let depth = st.queued;
        let backlog = st.tenants[tenant].waiting.len();
        self.publish_gauges(depth, Some((tenant, backlog)));
        // A permit may already be free (e.g. it freed while the queue
        // was non-empty only because of this very arrival).
        self.dispatch_locked(&mut st);

        loop {
            if let Some(pos) = st.granted.iter().position(|&s| s == serial) {
                st.granted.swap_remove(pos);
                let depth = st.queued;
                let backlog = st.tenants.get(tenant).map_or(0, |t| t.waiting.len());
                drop(st);
                self.admitted.fetch_add(1, Ordering::Relaxed);
                self.publish_gauges(depth, Some((tenant, backlog)));
                return Ok(AdmissionGuard { controller: self });
            }
            st = self.freed.wait(st).expect("admission state lock");
        }
    }

    /// Grants free permits to waiting tickets, tenant-fair.
    ///
    /// Deficit round robin: walk tenants in rotation order starting
    /// after the last-served one; each visited tenant earns the
    /// configured service estimate as deficit and dispatches queued tickets while its deficit
    /// covers their estimated cost.
    fn dispatch_locked(&self, st: &mut State) {
        let quantum = self.cfg.service_estimate.as_micros().max(1);
        while st.in_flight < self.cfg.permits && st.queued > 0 {
            // Rotation order: tenant names after `last_tenant`, then
            // wrapping around. BTreeMap keys give a stable total order.
            let names: Vec<String> = st.tenants.keys().cloned().collect();
            let start = match &st.last_tenant {
                Some(last) => names.iter().position(|n| n > last).unwrap_or(0),
                None => 0,
            };
            let mut served = false;
            for offset in 0..names.len() {
                let name = &names[(start + offset) % names.len()];
                let tq = st.tenants.get_mut(name).expect("tenant exists");
                if tq.waiting.is_empty() {
                    // Idle tenants carry no deficit between busy
                    // periods (classic DRR resets on empty).
                    tq.deficit = 0;
                    continue;
                }
                tq.deficit = tq.deficit.saturating_add(quantum);
                let mut dispatched = false;
                while st.in_flight < self.cfg.permits {
                    match tq.waiting.front() {
                        Some(&(serial, cost)) if tq.deficit >= cost => {
                            tq.waiting.pop_front();
                            tq.deficit -= cost;
                            st.queued -= 1;
                            st.in_flight += 1;
                            st.granted.push(serial);
                            dispatched = true;
                        }
                        _ => break,
                    }
                }
                if dispatched {
                    st.last_tenant = Some(name.clone());
                    served = true;
                    break;
                }
            }
            if served {
                self.freed.notify_all();
            } else {
                // Nothing dispatchable this pass (all deficits still
                // below cost — possible only when calibration raised the
                // cost above the configured estimate); let
                // deficits accumulate on the next pass.
                continue;
            }
        }
        st.tenants.retain(|_, t| !t.waiting.is_empty() || t.deficit > 0);
    }

    fn release(&self) {
        let mut st = self.state.lock().expect("admission state lock");
        st.in_flight -= 1;
        self.dispatch_locked(&mut st);
        let depth = st.queued;
        drop(st);
        self.publish_gauges(depth, None);
    }

    fn publish_gauges(&self, depth: usize, tenant: Option<(&str, usize)>) {
        if !s2s_obs::enabled() {
            return;
        }
        let metrics = s2s_obs::global();
        metrics.gauge(s2s_obs::names::ADMISSION_QUEUE_DEPTH).set(depth as f64);
        if let Some((tenant, backlog)) = tenant {
            metrics.gauge(&s2s_obs::names::tenant_backlog_gauge(tenant)).set(backlog as f64);
        }
    }
}

/// Holds one admission permit; dropping it releases the permit and
/// dispatches the next waiting query.
#[derive(Debug)]
pub struct AdmissionGuard<'a> {
    controller: &'a AdmissionController,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.controller.release();
    }
}

/// Records per-exchange simulated latencies and derives the
/// percentile-based delay after which a straggling exchange should be
/// hedged to a replica. The hedges launched and won are counted on the
/// query ledger's rows, not here.
#[derive(Debug)]
pub struct Hedger {
    cfg: HedgeConfig,
    samples: Mutex<Vec<u64>>,
}

/// Tuning knobs for [`Hedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Latency percentile (0–100) that sets the hedge delay: an
    /// exchange slower than this is re-issued to a replica.
    pub percentile: u8,
    /// Samples required before any hedge launches (a cold tracker has
    /// no idea what "straggling" means yet).
    pub min_samples: usize,
    /// Floor for the hedge delay, so a uniformly fast history cannot
    /// trigger hedges on noise.
    pub min_delay: SimDuration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig { percentile: 95, min_samples: 8, min_delay: SimDuration::from_millis(1) }
    }
}

/// Cap on retained latency samples (drop-oldest beyond this).
const HEDGE_SAMPLE_CAP: usize = 512;

impl Hedger {
    /// Builds a tracker from its config.
    pub fn new(cfg: HedgeConfig) -> Self {
        Hedger { cfg, samples: Mutex::new(Vec::new()) }
    }

    /// Records one completed exchange's simulated latency.
    pub fn record(&self, elapsed: SimDuration) {
        let mut samples = self.samples.lock().expect("hedge samples lock");
        if samples.len() >= HEDGE_SAMPLE_CAP {
            samples.remove(0);
        }
        samples.push(elapsed.as_micros());
    }

    /// The current hedge delay: the configured percentile of recorded
    /// latencies, floored at `min_delay`. `None` until `min_samples`
    /// exchanges have been recorded.
    pub fn delay(&self) -> Option<SimDuration> {
        let samples = self.samples.lock().expect("hedge samples lock");
        if samples.len() < self.cfg.min_samples.max(1) {
            return None;
        }
        let mut sorted = samples.clone();
        drop(samples);
        sorted.sort_unstable();
        let idx = (sorted.len() - 1) * usize::from(self.cfg.percentile.min(100)) / 100;
        Some(SimDuration::from_micros(sorted[idx]).max(self.cfg.min_delay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn cfg(permits: usize, capacity: usize) -> AdmissionConfig {
        AdmissionConfig::with_permits(permits).with_capacity(capacity)
    }

    #[test]
    fn fast_path_admits_without_queueing() {
        let ctl = AdmissionController::new(cfg(2, 4));
        let a = ctl.admit("t1", None).unwrap();
        let b = ctl.admit("t2", Some(ms(1))).unwrap();
        let stats = ctl.stats();
        assert_eq!((stats.admitted, stats.shed, stats.in_flight, stats.queued), (2, 0, 2, 0));
        drop(a);
        drop(b);
        assert_eq!(ctl.stats().in_flight, 0);
    }

    #[test]
    fn sheds_when_queue_is_full() {
        let ctl = AdmissionController::new(cfg(1, 0));
        let held = ctl.admit("t1", None).unwrap();
        let refused = ctl.admit("t1", None);
        assert_eq!(refused.err(), Some(ShedReason::QueueFull { depth: 0, capacity: 0 }));
        assert_eq!(ctl.stats().shed, 1);
        drop(held);
        // With the permit back, admission succeeds again.
        assert!(ctl.admit("t1", None).is_ok());
    }

    #[test]
    fn sheds_on_exhausted_budget_before_queueing() {
        let ctl = AdmissionController::new(cfg(1, 8).with_service_estimate(ms(100)));
        let held = ctl.admit("t1", None).unwrap();
        // One query in flight → estimated wait 100 ms ≥ 5 ms budget.
        let refused = ctl.admit("t1", Some(ms(5)));
        assert!(matches!(refused.err(), Some(ShedReason::BudgetExceeded { .. })));
        assert_eq!(ctl.queue_depth(), 0, "shed before taking a queue slot");
        // With the permit back, the same budget clears the fast path.
        drop(held);
        assert!(ctl.admit("t1", Some(ms(5))).is_ok());
    }

    #[test]
    fn queued_query_runs_when_permit_frees() {
        let ctl = AdmissionController::new(cfg(1, 4));
        let held = ctl.admit("t1", None).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let guard = ctl.admit("t2", None).unwrap();
                drop(guard);
            });
            // Let the waiter queue, then free the permit.
            while ctl.queue_depth() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(ctl.tenant_backlog("t2"), 1);
            drop(held);
            waiter.join().unwrap();
        });
        let stats = ctl.stats();
        assert_eq!((stats.admitted, stats.queued, stats.in_flight), (2, 0, 0));
        assert_eq!(stats.peak_queued, 1);
    }

    #[test]
    fn drr_interleaves_tenants_fairly() {
        // One permit; tenant "hog" queues 4 tickets, tenant "meek"
        // queues 2 interleaved later. DRR must alternate grants, not
        // drain the hog first.
        let ctl = AdmissionController::new(cfg(1, 16));
        let order = Mutex::new(Vec::new());
        let running = AtomicUsize::new(0);
        let held = ctl.admit("warmup", None).unwrap();
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for (tenant, n) in [("hog", 4usize), ("meek", 2usize)] {
                for _ in 0..n {
                    let (ctl, order, running) = (&ctl, &order, &running);
                    joins.push(s.spawn(move || {
                        let guard = ctl.admit(tenant, None).unwrap();
                        assert_eq!(
                            running.fetch_add(1, Ordering::SeqCst),
                            0,
                            "one permit → one query at a time"
                        );
                        order.lock().unwrap().push(tenant);
                        std::thread::sleep(Duration::from_millis(2));
                        running.fetch_sub(1, Ordering::SeqCst);
                        drop(guard);
                    }));
                    // Deterministic queue order: wait until this
                    // ticket is actually queued before spawning the
                    // next one.
                    while ctl.queue_depth() < joins.len() {
                        std::thread::yield_now();
                    }
                }
            }
            drop(held);
            for j in joins {
                j.join().unwrap();
            }
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 6);
        // The meek tenant's 2 queries must both run before the hog's
        // backlog fully drains: fairness interleaves them.
        let last_meek = order.iter().rposition(|t| *t == "meek").unwrap();
        let hog_after_meek = order[last_meek..].iter().filter(|t| **t == "hog").count();
        assert!(hog_after_meek >= 1, "DRR should leave hog backlog after meek finishes: {order:?}");
    }

    #[test]
    fn estimated_wait_scales_with_backlog() {
        let ctl = AdmissionController::new(cfg(2, 8).with_service_estimate(ms(10)));
        assert_eq!(ctl.estimated_wait(), SimDuration::ZERO);
        let _a = ctl.admit("t", None).unwrap();
        assert_eq!(ctl.estimated_wait(), SimDuration::ZERO, "a free permit absorbs one");
        let _b = ctl.admit("t", None).unwrap();
        // Both permits busy: next arrival waits ~half a service time
        // (two permits drain the backlog in parallel).
        assert_eq!(ctl.estimated_wait(), SimDuration::from_millis(5));
    }

    #[test]
    fn completions_recalibrate_the_service_estimate() {
        let ctl = AdmissionController::new(cfg(1, 8).with_service_estimate(ms(100)));
        assert_eq!(ctl.service_estimate(), ms(100), "configured estimate until calibrated");
        // First observation seeds the EWMA outright.
        ctl.record_completion(ms(8));
        assert_eq!(ctl.service_estimate(), ms(8));
        // Subsequent observations blend in at α = 1/8.
        ctl.record_completion(ms(16));
        assert_eq!(ctl.service_estimate(), ms(9));
        // Convergence: a run of consistent observations pulls the
        // estimate to them regardless of the configured starting point.
        for _ in 0..64 {
            ctl.record_completion(ms(16));
        }
        let settled = ctl.service_estimate().as_micros();
        assert!((15_000..=16_000).contains(&settled), "settled at {settled}us");
    }

    #[test]
    fn recalibrated_estimate_drives_shed_decisions() {
        // Configured estimate says 100 ms/query — far above the 5 ms
        // budget — but observed completions say 1 ms, so an arrival
        // with one query ahead should be admitted, not shed.
        let ctl = AdmissionController::new(cfg(1, 8).with_service_estimate(ms(100)));
        for _ in 0..8 {
            ctl.record_completion(ms(1));
        }
        let held = ctl.admit("t1", None).unwrap();
        assert!(ctl.estimated_wait() <= ms(2), "estimate tracks completions");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| ctl.admit("t1", Some(ms(5))).map(drop));
            while ctl.queue_depth() == 0 && !waiter.is_finished() {
                std::thread::yield_now();
            }
            drop(held);
            assert!(waiter.join().unwrap().is_ok(), "honest estimate admits within budget");
        });
        // And the mirror image: observed completions far above the
        // configured estimate make the same arrival pattern shed.
        let ctl = AdmissionController::new(cfg(1, 8).with_service_estimate(ms(1)));
        for _ in 0..8 {
            ctl.record_completion(ms(200));
        }
        let _held = ctl.admit("t1", None).unwrap();
        let refused = ctl.admit("t1", Some(ms(5)));
        assert!(matches!(refused.err(), Some(ShedReason::BudgetExceeded { .. })));
    }

    #[test]
    fn hedger_needs_samples_then_tracks_percentile() {
        let hedger = Hedger::new(HedgeConfig {
            percentile: 90,
            min_samples: 4,
            min_delay: SimDuration::from_micros(1),
        });
        assert_eq!(hedger.delay(), None);
        for v in [10u64, 20, 30, 1000] {
            hedger.record(ms(v));
        }
        // p90 over 4 samples indexes the 3rd-smallest (idx 2).
        assert_eq!(hedger.delay(), Some(ms(30)));
    }

    #[test]
    fn hedger_delay_respects_floor() {
        let hedger = Hedger::new(HedgeConfig { percentile: 99, min_samples: 1, min_delay: ms(50) });
        hedger.record(ms(2));
        assert_eq!(hedger.delay(), Some(ms(50)));
    }
}
