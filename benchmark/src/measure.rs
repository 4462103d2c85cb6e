//! Reducing samples to metrics: percentiles, calibration against the
//! machine's speed, and the process's own CPU and memory counters.

use std::time::{Duration, Instant};

use crate::workload::{OpSample, WindowResult};

/// The tail percentile the benchmark reports. On the 2-core box the
/// workloads were sized on, p99 moved ±15 % between windows and p95
/// ±10 %, so p95 is the tail.
pub const TAIL: f64 = 0.95;

/// A percentile is only meaningful with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "a percentile needs samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn median_u64(values: &[u64]) -> f64 {
    median(&mut values.iter().map(|v| *v as f64).collect::<Vec<_>>())
}

/// What the speed probe takes on the undisturbed 2-core box the
/// workloads were sized on. Timings are scaled to a machine on which
/// it takes exactly this long.
pub const PROBE_NOMINAL_NS: f64 = 270_000.0;

/// A window with the machine's speed divided out.
///
/// On the shared box this was sized on, a neighbour slows *everything*
/// (CPU time included) by a factor of 1.3 to 2.3 for seconds to
/// minutes at a time: ten back-to-back runs of one commit spread
/// 18–35 % on raw median latency (IQR ÷ median), and no part of a slow
/// run is quiet, so picking quiet slices does not help. The slowdown is
/// close to uniform across code, though. So each client runs a fixed
/// probe between ops (every 20 ms, outside every timed interval), the
/// window is cut into 100 ms slices, and every duration in a slice is
/// multiplied by `PROBE_NOMINAL_NS ÷ the slice's median probe time`.
/// The same ten runs then spread 3–5 %.
pub struct Calibrated<'a> {
    /// Per client: each op with its calibrated latency in ns.
    clients: Vec<Vec<(f64, &'a OpSample)>>,
    /// Calibrated process CPU over the window.
    pub cpu_ms: f64,
    /// Median of the slices' probe time ÷ nominal: 1.0 on a quiet box.
    pub slowdown: f64,
}

impl<'a> Calibrated<'a> {
    pub fn of(result: &'a WindowResult) -> Self {
        let slices = result.cpu_ms_at.len() - 1;
        let slice_us = result.slice.as_micros() as u64;
        let slice_of = |end_us: u32| ((end_us as u64 / slice_us) as usize).min(slices - 1);
        let mut probes: Vec<Vec<u64>> = vec![Vec::new(); slices];
        for (end_us, ns) in result.clients.iter().flat_map(|c| &c.probes) {
            probes[slice_of(*end_us)].push(*ns as u64);
        }
        // A slice without a probe (one long op spans it) takes the
        // factor of the slice before it.
        let mut factor = 1.0;
        let factors: Vec<f64> = probes
            .iter()
            .map(|p| {
                if !p.is_empty() {
                    factor = median_u64(p) / PROBE_NOMINAL_NS;
                }
                factor
            })
            .collect();
        Calibrated {
            clients: result
                .clients
                .iter()
                .map(|c| {
                    c.samples
                        .iter()
                        .map(|s| (s.latency_ns as f64 / factors[slice_of(s.end_us)], s))
                        .collect()
                })
                .collect(),
            cpu_ms: (0..slices)
                .map(|i| (result.cpu_ms_at[i + 1] - result.cpu_ms_at[i]) / factors[i])
                .sum(),
            slowdown: median(&mut factors.clone()),
        }
    }

    pub fn ops(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    /// Calibrated latencies in nanoseconds, ascending.
    pub fn latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.clients.iter().flatten().map(|(ns, _)| *ns as u64).collect();
        all.sort_unstable();
        all
    }

    /// `weight` per second of busy time. Each client contributes
    /// `Σ weight ÷ Σ latency` and clients add up: busy time excludes
    /// the benchmark's own verification and probes between ops.
    pub fn rate(&self, weight: fn(&OpSample) -> f64) -> f64 {
        self.clients
            .iter()
            .filter(|ops| !ops.is_empty())
            .map(|ops| {
                let busy_ns: f64 = ops.iter().map(|(ns, _)| ns).sum();
                ops.iter().map(|(_, s)| weight(s)).sum::<f64>() / (busy_ns / 1e9)
            })
            .sum()
    }
}

/// A fixed piece of work shaped like the engine's own (string
/// formatting, ordered-map inserts, small allocations, hashing), built
/// from the standard library only so no PR can change its cost.
pub fn probe() -> u64 {
    let mut h = 0u64;
    for round in 0..16u32 {
        let mut map: std::collections::BTreeMap<String, Vec<String>> = Default::default();
        for i in 0..64u32 {
            let key = format!("http://bench.example/probe#{}", i.wrapping_mul(2_654_435_761) % 997);
            map.entry(key).or_default().push(format!("{}.{:02}", i + round, i % 100));
        }
        for (k, vs) in &map {
            for v in vs {
                h = h.wrapping_mul(31).wrapping_add(k.len() as u64 * 7 + v.len() as u64);
                h ^= v.bytes().fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(b as u64));
            }
        }
    }
    h
}

/// Runs `f` until `budget` is spent (at least three times) and returns
/// the median duration of one call in nanoseconds.
pub fn median_ns<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_nanos() as f64);
    }
    median(&mut times)
}

/// User + system CPU time of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks; Linux fixes
/// `USER_HZ` at 100). Zero where `/proc` is missing.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 =
        after_comm.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 * 10.0
}

/// Peak resident set size of this process (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(200, TAIL), 10);
        assert!(supports(200, TAIL));
        assert!(!supports(199, TAIL));
        assert!(supports(250, TAIL));
        // p99 needs a thousand ops, which is why it is not the tail.
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(samples_beyond(0, TAIL), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn calibration_divides_out_a_slow_spell() {
        // Six 100 ms slices of 1 ms ops on a machine at nominal speed;
        // during slices 2 and 3 a neighbour makes everything, probe
        // included, take 1.5 times as long.
        let slow = |now_us: u32| (200_000..400_000).contains(&now_us);
        let (mut samples, mut probes) = (Vec::new(), Vec::new());
        let mut now_us = 0u32;
        while now_us < 600_000 {
            let latency_us = if slow(now_us) { 1_500 } else { 1_000 };
            now_us += latency_us;
            samples.push(OpSample {
                end_us: now_us,
                latency_ns: latency_us * 1000,
                instances: 2,
                view_hits: 0,
                replay: false,
                plan_hit: false,
            });
            if samples.len() % 20 == 0 {
                let probe_ns = PROBE_NOMINAL_NS * if slow(now_us - 1) { 1.5 } else { 1.0 };
                probes.push((now_us, probe_ns as u32));
            }
        }
        let result = WindowResult {
            clients: vec![crate::workload::ClientLog { samples, probes, ..Default::default() }],
            slice: Duration::from_millis(100),
            cpu_ms_at: vec![0.0, 90.0, 180.0, 315.0, 450.0, 540.0, 630.0],
        };
        let calibrated = Calibrated::of(&result);
        let latencies = calibrated.latencies();
        assert_eq!(percentile(&latencies, 0.5), 1_000_000);
        assert_eq!(percentile(&latencies, TAIL), 1_000_000);
        // The two ops that straddle a change of speed are scaled by
        // the factor of the slice they end in; hence the tolerance.
        assert!((calibrated.rate(|_| 1.0) - 1000.0).abs() < 1.0);
        assert!((calibrated.rate(|s| s.instances as f64) - 2000.0).abs() < 2.0);
        assert!((calibrated.cpu_ms - 540.0).abs() < 1e-9);
        assert_eq!(calibrated.slowdown, 1.0);
    }

    #[test]
    fn proc_counters_read() {
        // Burn a little CPU so the tick counter has something to show.
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ms() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
