//! The wall-clock harnesses behind the concurrency (E13) and overload
//! (E14) gates of the `experiments` binary.
//!
//! Unlike the rest of the crate these read the wall clock: the remote
//! endpoints are *paced* ([`CostModel::with_pace`]), so a simulated
//! network wait is also a real one and concurrent clients genuinely
//! overlap their waits. Their numbers vary from run to run and are not
//! part of the pinned record; the gates check answers against a serial
//! baseline and bound the tail, shedding and goodput.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use s2s_core::extract::Strategy;
use s2s_core::{QueryOptions, S2s};
use s2s_netsim::{AdmissionConfig, CostModel, FailureModel, SimDuration};

use crate::{catalog_sources, map_catalog, ontology, records, result_key};

/// A paced remote deployment: the `n`-record catalog in all four
/// formats, each behind a WAN endpoint whose simulated latency is
/// *real-time paced* (see [`CostModel::with_pace`]) so concurrent
/// clients genuinely overlap their waits. `pace = 0` yields the
/// instant-execution baseline with identical simulated costs and
/// identical answers.
pub fn deploy_paced(
    n: usize,
    seed: u64,
    pace_us_per_sim_ms: u64,
    strategy: Strategy,
    result_cache: bool,
) -> S2s {
    let cost = CostModel::wan().with_pace(pace_us_per_sim_ms);
    let mut s2s = S2s::new(ontology()).with_strategy(strategy);
    if result_cache {
        s2s = s2s.with_result_cache();
    }
    for (id, connection) in catalog_sources(&records(n, seed)) {
        s2s.register_remote_source(id, connection, cost, FailureModel::reliable()).unwrap();
    }
    map_catalog(&mut s2s);
    s2s
}

/// A cache-cold workload: every client gets `per_client` *distinct*
/// query texts (distinct price thresholds), so no query repeats
/// anywhere and every engine cache misses.
pub fn cold_workload(clients: usize, per_client: usize) -> Vec<Vec<String>> {
    (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|i| format!("SELECT watch WHERE price < {}", 30 + c * per_client + i))
                .collect()
        })
        .collect()
}

/// A cache-warm workload: `total` queries cycling through `shared`
/// distinct texts, split evenly across clients. Client `c` starts
/// `c·shared/clients` texts into the cycle, so concurrent clients warm
/// different entries instead of racing on the same cold miss.
pub fn warm_workload(clients: usize, shared: usize, total: usize) -> Vec<Vec<String>> {
    let texts: Vec<String> =
        (0..shared).map(|i| format!("SELECT watch WHERE price < {}", 500 + i)).collect();
    let per_client = total / clients;
    (0..clients)
        .map(|c| {
            let offset = c * shared / clients;
            (0..per_client).map(|i| texts[(offset + i) % shared].clone()).collect()
        })
        .collect()
}

/// Runs every distinct text of `workload` serially on `reference` and
/// returns text → [`result_key`]. The reference engine is typically an
/// unpaced, cache-free twin of the engine under test.
pub fn serial_baseline(reference: &S2s, workload: &[Vec<String>]) -> BTreeMap<String, String> {
    let mut baseline = BTreeMap::new();
    for t in workload.iter().flatten() {
        baseline
            .entry(t.clone())
            .or_insert_with(|| result_key(&reference.query(t).expect("baseline query")));
    }
    baseline
}

/// What one throughput run measured.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Concurrent clients.
    pub clients: usize,
    /// Total queries executed (all clients).
    pub queries: usize,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Queries per second of wall-clock time.
    pub qps: f64,
    /// Median per-query latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_us: u64,
    /// Queries whose [`result_key`] differed from the serial baseline.
    pub mismatches: usize,
    /// The worst per-query completeness observed.
    pub min_completeness: f64,
    /// Plan-cache counters at the end of the run.
    pub plan_cache: s2s_core::CacheStats,
    /// Result-cache counters at the end of the run.
    pub result_cache: s2s_core::CacheStats,
}

impl ThroughputReport {
    /// Renders the report as a single JSON object (the `e13.json` smoke
    /// artifact).
    pub fn to_json(&self) -> String {
        fn cache(stats: s2s_core::CacheStats) -> String {
            format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{}}}",
                stats.hits, stats.misses, stats.evictions
            )
        }
        format!(
            concat!(
                "{{\"clients\":{},\"queries\":{},\"wall_us\":{},\"qps\":{:.1},",
                "\"p50_us\":{},\"p99_us\":{},\"mismatches\":{},\"min_completeness\":{},",
                "\"plan_cache\":{},\"result_cache\":{}}}"
            ),
            self.clients,
            self.queries,
            self.wall.as_micros(),
            self.qps,
            self.p50_us,
            self.p99_us,
            self.mismatches,
            self.min_completeness,
            cache(self.plan_cache),
            cache(self.result_cache),
        )
    }
}

/// Runs `workload[c]` on client thread `c`, all threads sharing the one
/// `engine`, and checks every answer against `baseline`.
pub fn run_throughput(
    engine: &S2s,
    workload: &[Vec<String>],
    baseline: &BTreeMap<String, String>,
) -> ThroughputReport {
    let started = Instant::now();
    let per_client: Vec<Vec<(u64, bool, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workload
            .iter()
            .map(|texts| {
                scope.spawn(move || {
                    texts
                        .iter()
                        .map(|t| {
                            let q = Instant::now();
                            let outcome = engine.query(t).expect("throughput query");
                            (
                                q.elapsed().as_micros() as u64,
                                baseline.get(t) == Some(&result_key(&outcome)),
                                outcome.stats.completeness,
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = started.elapsed();
    throughput_report(engine, workload.len(), wall, per_client.into_iter().flatten().collect())
}

/// Runs `workload` on a single OS thread as a discrete-event loop over
/// virtual time: every client issues its queries in order and waits out
/// each answer's simulated cost on a timer before issuing the next.
/// Timers fire in `(deadline, sequence)` order, so the schedule is a
/// function of the workload alone. No thread blocks per client, so the
/// client count can exceed the core count by orders of magnitude; with
/// a paced engine every query runs under `defer_pacing` and the loop
/// sleeps once per virtual-clock advance at the steepest pace rate it
/// has seen, so wall time tracks the virtual makespan across all
/// clients as a thread-per-client run would.
///
/// Latency percentiles report *virtual* per-query service time
/// (simulated microseconds): under a multiplexer, per-query wall time
/// would mostly measure other clients' compute.
pub fn run_throughput_reactor(
    engine: &S2s,
    workload: &[Vec<String>],
    baseline: &BTreeMap<String, String>,
) -> ThroughputReport {
    use std::cmp::Reverse;

    let started = Instant::now();
    let mut samples = Vec::new();
    let mut issued = vec![0usize; workload.len()];
    // (due_us, sequence, client): every client's first timer is due now.
    let mut timers: std::collections::BinaryHeap<_> =
        (0..workload.len()).map(|client| Reverse((0u64, client, client))).collect();
    let mut sequence = workload.len();
    let (mut now_us, mut pace_us_per_sim_ms) = (0u64, 0u64);
    while let Some(Reverse((due_us, _, client))) = timers.pop() {
        if due_us > now_us {
            s2s_netsim::pace_sleep((due_us - now_us).saturating_mul(pace_us_per_sim_ms) / 1_000);
            now_us = due_us;
        }
        let Some(text) = workload[client].get(issued[client]) else { continue };
        issued[client] += 1;
        let (outcome, deferred_us) =
            s2s_netsim::defer_pacing(|| engine.query(text).expect("reactor throughput query"));
        let service_us = outcome.stats.simulated.as_micros();
        samples.push((
            service_us,
            baseline.get(text) == Some(&result_key(&outcome)),
            outcome.stats.completeness,
        ));
        // The query would have blocked `deferred_us` of wall time for
        // `service_us` of virtual time: remember the steepest rate and
        // pay it back on clock advances (at once when there is no
        // virtual span to spread it over).
        match deferred_us.saturating_mul(1_000).checked_div(service_us) {
            Some(rate) => pace_us_per_sim_ms = pace_us_per_sim_ms.max(rate),
            None => s2s_netsim::pace_sleep(deferred_us),
        }
        timers.push(Reverse((now_us + service_us, sequence, client)));
        sequence += 1;
    }
    throughput_report(engine, workload.len(), started.elapsed(), samples)
}

/// Folds per-query `(latency_us, key_matches, completeness)` samples
/// and the engine's end-of-run counters into a [`ThroughputReport`].
fn throughput_report(
    engine: &S2s,
    clients: usize,
    wall: Duration,
    samples: Vec<(u64, bool, f64)>,
) -> ThroughputReport {
    let mut latencies: Vec<u64> = samples.iter().map(|s| s.0).collect();
    latencies.sort_unstable();
    let percentile = |p: usize| latencies.get((latencies.len().max(1) - 1) * p / 100).copied();
    let queries = latencies.len();
    ThroughputReport {
        clients,
        queries,
        wall,
        qps: if wall.as_secs_f64() > 0.0 { queries as f64 / wall.as_secs_f64() } else { 0.0 },
        p50_us: percentile(50).unwrap_or(0),
        p99_us: percentile(99).unwrap_or(0),
        mismatches: samples.iter().filter(|s| !s.1).count(),
        min_completeness: samples.iter().map(|s| s.2).fold(1.0, f64::min),
        plan_cache: engine.plan_cache_stats(),
        result_cache: engine.result_cache_stats(),
    }
}

/// One tenant of an overload run: a name and its share of arrivals
/// (weights, not percentages — shares `[1, 1, 3]` give the third
/// tenant 60% of the traffic, the classic misbehaving neighbour).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, passed through [`QueryOptions::with_tenant`].
    pub name: &'static str,
    /// Arrival-share weight relative to the other tenants.
    pub share: u32,
}

/// Parameters of one open-loop overload run: arrivals are scheduled at
/// a fixed rate (a multiple of the engine's calibrated capacity) and
/// issued whether or not earlier queries have finished — the arrival
/// process never waits on the service process, which is what lets an
/// unprotected engine melt down.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Arrival rate as a multiple of calibrated capacity.
    pub load: f64,
    /// Wall-clock length of the arrival window.
    pub window: Duration,
    /// Per-query deadline budget (simulated time) when shedding is on.
    pub deadline: SimDuration,
    /// Admission permits when shedding is on.
    pub permits: usize,
    /// Whether admission control + deadline budgets are enabled.
    pub shedding: bool,
    /// The tenants and their arrival shares.
    pub tenants: Vec<TenantSpec>,
}

/// Per-tenant outcome counts of one overload run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantOutcome {
    /// Queries this tenant submitted.
    pub arrivals: usize,
    /// Complete answers returned.
    pub served: usize,
    /// Queries refused at arrival.
    pub shed: usize,
}

/// What one overload run measured.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Arrival-rate multiple of capacity.
    pub load: f64,
    /// Whether admission control + budgets were enabled.
    pub shedding: bool,
    /// Calibrated capacity estimate, queries/sec.
    pub capacity_qps: f64,
    /// Total arrivals issued.
    pub arrivals: usize,
    /// Complete answers (not shed, completeness 1.0).
    pub served: usize,
    /// Queries refused at arrival.
    pub shed: usize,
    /// Answers returned degraded (not shed, completeness < 1.0).
    pub degraded: usize,
    /// Median wall latency of served queries, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile wall latency of served queries, milliseconds.
    pub p99_ms: f64,
    /// Served queries per second of whole-run wall time (arrival
    /// window plus drain).
    pub goodput_qps: f64,
    /// Whole-run wall time.
    pub wall: Duration,
    /// Peak admission queue depth (0 with shedding off).
    pub peak_queued: usize,
    /// Per-tenant outcome counts, in [`OverloadConfig::tenants`] order.
    pub tenants: Vec<(String, TenantOutcome)>,
}

impl OverloadReport {
    /// Renders the report as one JSON object (a run of the `e14.json`
    /// smoke artifact).
    pub fn to_json(&self) -> String {
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|(name, t)| {
                format!(
                    "{{\"name\":\"{}\",\"arrivals\":{},\"served\":{},\"shed\":{}}}",
                    name, t.arrivals, t.served, t.shed
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"load\":{},\"shedding\":{},\"capacity_qps\":{:.1},",
                "\"arrivals\":{},\"served\":{},\"shed\":{},\"degraded\":{},",
                "\"p50_ms\":{:.2},\"p99_ms\":{:.2},\"goodput_qps\":{:.1},",
                "\"wall_ms\":{},\"peak_queued\":{},\"tenants\":[{}]}}"
            ),
            self.load,
            self.shedding,
            self.capacity_qps,
            self.arrivals,
            self.served,
            self.shed,
            self.degraded,
            self.p50_ms,
            self.p99_ms,
            self.goodput_qps,
            self.wall.as_millis(),
            self.peak_queued,
            tenants.join(","),
        )
    }
}

/// Runs one open-loop overload experiment.
///
/// The engine is the paced four-source WAN deployment under
/// `Strategy::Parallel { workers }`. Capacity is calibrated from three
/// isolated queries (median wall time, `permits` concurrent), then `load ×
/// capacity × window` arrivals are scheduled at fixed intervals across
/// the tenants by smooth weighted round-robin. Every arrival runs on
/// its own thread whether or not earlier queries have finished. Each
/// query text is distinct, so no cache shortcuts the wire.
pub fn run_overload(
    cfg: &OverloadConfig,
    pace_us_per_sim_ms: u64,
    workers: usize,
) -> OverloadReport {
    let mut engine =
        deploy_paced(12, 42, pace_us_per_sim_ms, Strategy::Parallel { workers }, false);

    // Calibrate: median wall time and worst simulated cost of three
    // isolated queries (before admission is installed, so the probe
    // sees the raw service path).
    let mut walls = Vec::new();
    let mut sim = SimDuration::ZERO;
    for i in 0..3 {
        let text = format!("SELECT watch WHERE price > {}", 900 + i);
        let q = Instant::now();
        let outcome = engine.query(&text).expect("calibration query");
        walls.push(q.elapsed());
        sim = sim.max(outcome.stats.simulated);
    }
    walls.sort();
    let service = walls[1];
    let capacity_qps = cfg.permits as f64 / service.as_secs_f64().max(1e-6);

    if cfg.shedding {
        engine = engine.with_admission(
            AdmissionConfig::with_permits(cfg.permits)
                .with_service_estimate(sim.max(SimDuration::from_millis(1))),
        );
    }

    let rate = cfg.load * capacity_qps;
    let arrivals = ((cfg.window.as_secs_f64() * rate).round() as usize).clamp(12, 400);
    let interval = Duration::from_secs_f64(1.0 / rate);

    // Smooth weighted round-robin tenant assignment: deterministic,
    // and it interleaves the heavy tenant instead of bursting it.
    let total_share: i64 = cfg.tenants.iter().map(|t| i64::from(t.share)).sum();
    let mut credits: Vec<i64> = vec![0; cfg.tenants.len()];
    let assign: Vec<usize> = (0..arrivals)
        .map(|_| {
            for (c, t) in credits.iter_mut().zip(&cfg.tenants) {
                *c += i64::from(t.share);
            }
            let k = (0..credits.len()).max_by_key(|&k| credits[k]).expect("tenants non-empty");
            credits[k] -= total_share;
            k
        })
        .collect();

    let started = Instant::now();
    let results: Vec<(usize, Duration, bool, f64)> = std::thread::scope(|scope| {
        let engine = &engine;
        let handles: Vec<_> = (0..arrivals)
            .map(|i| {
                let k = assign[i];
                let tenant = cfg.tenants[k].name;
                let deadline = cfg.shedding.then_some(cfg.deadline);
                scope.spawn(move || {
                    let due = started + interval.mul_f64(i as f64);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let text = format!("SELECT watch WHERE price < {}", 30 + i);
                    let mut opts = QueryOptions::default().with_tenant(tenant);
                    if let Some(d) = deadline {
                        opts = opts.with_deadline(d);
                    }
                    let q = Instant::now();
                    let outcome = engine.query_with_options(&text, &opts).expect("overload query");
                    (k, q.elapsed(), outcome.stats.shed, outcome.stats.completeness)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("arrival thread")).collect()
    });
    let wall = started.elapsed();

    let mut tenants: Vec<(String, TenantOutcome)> =
        cfg.tenants.iter().map(|t| (t.name.to_string(), TenantOutcome::default())).collect();
    let mut served_latencies: Vec<Duration> = Vec::new();
    let mut degraded = 0usize;
    for &(k, latency, was_shed, completeness) in &results {
        let t = &mut tenants[k].1;
        t.arrivals += 1;
        if was_shed {
            t.shed += 1;
        } else if completeness >= 1.0 {
            t.served += 1;
            served_latencies.push(latency);
        } else {
            degraded += 1;
        }
    }
    served_latencies.sort_unstable();
    let pct = |p: usize| {
        served_latencies
            .get((served_latencies.len().max(1) - 1) * p / 100)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    };
    let served = served_latencies.len();
    OverloadReport {
        load: cfg.load,
        shedding: cfg.shedding,
        capacity_qps,
        arrivals,
        served,
        shed: tenants.iter().map(|(_, t)| t.shed).sum(),
        degraded,
        p50_ms: pct(50),
        p99_ms: pct(99),
        goodput_qps: if wall.as_secs_f64() > 0.0 {
            served as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        wall,
        peak_queued: engine.admission_stats().map_or(0, |s| s.peak_queued),
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_harness_matches_serial_baseline() {
        let workload = cold_workload(2, 3);
        let reference = deploy_paced(10, 5, 0, Strategy::Parallel { workers: 1 }, false);
        let baseline = serial_baseline(&reference, &workload);
        assert_eq!(baseline.len(), 6);

        let engine = deploy_paced(10, 5, 0, Strategy::Parallel { workers: 4 }, true);
        let report = run_throughput(&engine, &workload, &baseline);
        assert_eq!(report.queries, 6);
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.min_completeness, 1.0);
        assert!(report.qps > 0.0);
        // Distinct texts: the result cache never hits cold.
        assert_eq!(report.result_cache.hits, 0);
        let json = report.to_json();
        assert!(json.contains("\"mismatches\":0"), "{json}");
    }

    #[test]
    fn reactor_harness_matches_serial_baseline_at_high_client_counts() {
        // 32 clients on one thread — already past what the
        // thread-per-client runner would tolerate at this granularity.
        let workload = cold_workload(32, 2);
        let reference = deploy_paced(10, 5, 0, Strategy::Parallel { workers: 1 }, false);
        let baseline = serial_baseline(&reference, &workload);

        let engine = deploy_paced(10, 5, 0, Strategy::Reactor, true);
        let report = run_throughput_reactor(&engine, &workload, &baseline);
        assert_eq!(report.clients, 32);
        assert_eq!(report.queries, 64);
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.min_completeness, 1.0);
        assert!(report.qps > 0.0);
    }

    #[test]
    fn warm_workload_shares_texts_and_hits_result_cache() {
        let workload = warm_workload(2, 4, 16);
        let distinct: std::collections::BTreeSet<&String> = workload.iter().flatten().collect();
        assert_eq!(distinct.len(), 4);
        assert_eq!(workload.iter().map(Vec::len).sum::<usize>(), 16);

        let reference = deploy_paced(10, 5, 0, Strategy::Parallel { workers: 1 }, false);
        let baseline = serial_baseline(&reference, &workload);
        let engine = deploy_paced(10, 5, 0, Strategy::Parallel { workers: 4 }, true);
        let report = run_throughput(&engine, &workload, &baseline);
        assert_eq!(report.mismatches, 0);
        // 4 distinct texts, 16 queries: most replay from the result
        // cache. A concurrent client may re-miss a text another client
        // is still extracting (no request coalescing), so allow a few
        // extra misses beyond the 4 cold ones.
        assert!(report.result_cache.hits >= 8, "{:?}", report.result_cache);
    }

    #[test]
    fn overload_harness_sheds_under_pressure_and_not_at_idle() {
        let tenants =
            vec![TenantSpec { name: "calm", share: 1 }, TenantSpec { name: "noisy", share: 3 }];
        let overloaded = OverloadConfig {
            load: 4.0,
            window: Duration::from_millis(120),
            deadline: SimDuration::from_millis(150),
            permits: 2,
            shedding: true,
            tenants: tenants.clone(),
        };
        let report = run_overload(&overloaded, 60, 8);
        assert_eq!(report.arrivals, report.served + report.shed + report.degraded);
        assert!(report.shed > 0, "4x load never shed: {report:?}");
        assert!(report.served > 0, "4x load served nothing: {report:?}");
        let by_tenant: usize = report.tenants.iter().map(|(_, t)| t.arrivals).sum();
        assert_eq!(by_tenant, report.arrivals);
        // The noisy tenant sends 3x the traffic, so it absorbs the
        // bulk of the shedding.
        assert!(report.tenants[1].1.shed > report.tenants[0].1.shed, "{report:?}");

        let idle = OverloadConfig { load: 0.5, shedding: false, ..overloaded };
        let report = run_overload(&idle, 60, 8);
        assert_eq!(report.shed, 0, "unprotected run cannot shed: {report:?}");
        assert_eq!(report.peak_queued, 0);
        assert_eq!(report.served, report.arrivals, "{report:?}");
    }
}
