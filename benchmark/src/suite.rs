//! A whole set of runs, and the comparison of two such sets.
//!
//! Each run is a child invocation of this same binary, one at a time,
//! so memory high-water marks and caches are per run. Rounds are
//! interleaved across workloads (A B C D A B C D …) and every reported
//! value is the median over rounds: on a shared box a noisy neighbour
//! slows whole windows, and interleaving spreads that over workloads
//! instead of sinking one.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::gen::WORKLOADS;
use crate::json::Json;
use crate::measure::{median, samples_beyond, TAIL};
use crate::run::{END_TO_END, PER_LAYER};

/// What a suite runs: round `r` of every workload uses `seed + r`.
pub struct Plan {
    pub seed: u64,
    pub rounds: u64,
    pub seconds: u64,
}

fn child(workload: &str, seed: u64, seconds: u64, trace: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(trace)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last =
        stdout.lines().last().ok_or_else(|| format!("the {workload} run printed nothing"))?;
    Json::parse(last).map_err(|e| format!("the {workload} run's result line: {e}"))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn metric_value(run: &Json, name: &str) -> Result<f64, String> {
    run.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("a run reported no {name}"))
}

fn count(run: &Json, key: &str) -> f64 {
    run.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Runs the plan and, when `out` is given, writes the result file:
/// everything needed to read the numbers later sits beside them.
pub fn run(plan: &Plan, out: Option<&str>, trace_dir: Option<&str>) -> Result<ExitCode, String> {
    let mut rounds: BTreeMap<&str, Vec<Json>> = BTreeMap::new();
    for round in 0..plan.rounds {
        for w in WORKLOADS {
            let args = ["--trace".to_string(), "0".to_string()];
            rounds.entry(w).or_default().push(child(w, plan.seed + round, plan.seconds, &args)?);
        }
    }
    let mut failed = 0.0;
    let mut workloads = BTreeMap::new();
    for w in WORKLOADS {
        let mut args = vec!["--trace".to_string(), "1".to_string()];
        if let Some(dir) = trace_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
            args.extend(["--trace-out".to_string(), format!("{dir}/trace_{w}.jsonl")]);
        }
        let traced = child(w, plan.seed, plan.seconds, &args)?;
        let runs = &rounds[w];
        failed += count(&traced, "failed") + runs.iter().map(|r| count(r, "failed")).sum::<f64>();

        let mut end_to_end = BTreeMap::new();
        for (name, unit) in END_TO_END {
            let values: Vec<f64> =
                runs.iter().map(|r| metric_value(r, name)).collect::<Result<_, _>>()?;
            let entry = Json::obj([
                ("unit", Json::Str(unit.into())),
                ("median", Json::Num(median(&mut values.clone()))),
                ("rounds", Json::nums(values)),
            ]);
            end_to_end.insert(name.to_string(), entry);
        }
        let mut per_layer = BTreeMap::new();
        for (name, unit) in PER_LAYER {
            let entry = Json::obj([
                ("unit", Json::Str(unit.into())),
                ("value", Json::Num(metric_value(&traced, name)?)),
            ]);
            per_layer.insert(name.to_string(), entry);
        }
        let ops: Vec<f64> = runs.iter().map(|r| count(r, "attempted")).collect();
        let entry = Json::obj([
            (
                "tail_samples",
                Json::nums(ops.iter().map(|n| samples_beyond(*n as usize, TAIL) as f64)),
            ),
            ("ops", Json::nums(ops)),
            ("failed", Json::nums(runs.iter().map(|r| count(r, "failed")))),
            ("traced_ops", Json::Num(count(&traced, "attempted"))),
            ("traced_failed", Json::Num(count(&traced, "failed"))),
            ("end_to_end", Json::Obj(end_to_end)),
            ("per_layer", Json::Obj(per_layer)),
        ]);
        workloads.insert(w.to_string(), entry);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(plan.seed as f64)),
        ("rounds", Json::Num(plan.rounds as f64)),
        ("seconds", Json::Num(plan.seconds as f64)),
        ("tail_percentile", Json::Num(TAIL)),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("profile", Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(path) = out {
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if failed > 0.0 {
        eprintln!("{failed} ops failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles `statistics.quantiles(values, n=4)`
/// gives (the exclusive method).
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let mid = median(&mut v);
    if v.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let quartile = |q: f64| {
        let at = q * (v.len() + 1) as f64 - 1.0;
        let low = (at.floor().max(0.0) as usize).min(v.len() - 1);
        let high = (low + 1).min(v.len() - 1);
        v[low] + (v[high] - v[low]) * (at - low as f64).clamp(0.0, 1.0)
    };
    (quartile(0.75) - quartile(0.25)) / mid.abs()
}

/// How `b` compares with `a` on one metric.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs spread wider than the bound: no verdict either way.
    Unresolved,
}

/// `a` and `b` are the per-round values of the base and the candidate.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if ma == 0.0 { 0.0 } else { sign * (mb - ma) / ma.abs() };
    let every_b_better =
        a.iter().all(|x| b.iter().all(|y| if lower_is_better { y < x } else { y > x }));
    if spread(a).max(spread(b)) > bound && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares two result files metric by metric against the bounds in
/// `BENCHMARK.json`; `a` is the base of every ratio.
pub fn agree(a: &str, b: &str, bounds: &str) -> Result<ExitCode, String> {
    let (a, b, bounds) = (load(a)?, load(b)?, load(bounds)?);
    let rounds = |doc: &Json, w: &str, metric: &str| -> Result<Vec<f64>, String> {
        doc.get("workloads")
            .and_then(|x| x.get(w))
            .and_then(|x| x.get("end_to_end"))
            .and_then(|x| x.get(metric))
            .and_then(|x| x.get("rounds"))
            .and_then(Json::as_arr)
            .map(|v| v.iter().filter_map(Json::as_f64).collect())
            .ok_or_else(|| format!("no rounds for {w}/{metric}"))
    };
    println!(
        "{:<22} {:<26} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "spread", "bound"
    );
    let mut worse = 0;
    for w in WORKLOADS {
        for m in bounds.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end bounds")? {
            let name = m.get("name").and_then(Json::as_str).ok_or("a metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("a metric without a bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (ra, rb) = (rounds(&a, w, name)?, rounds(&b, w, name)?);
            let (ma, mb) = (median(&mut ra.clone()), median(&mut rb.clone()));
            let v = verdict(&ra, &rb, lower, bound);
            println!(
                "{w:<22} {name:<26} {ma:>14.4} {mb:>14.4} {:>9.4} {:>8.4} {bound:>7.3}  {}",
                if ma == 0.0 { 0.0 } else { mb / ma },
                spread(&ra).max(spread(&rb)),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
            worse += (v == Verdict::Worse) as u32;
        }
    }
    Ok(if worse > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 15, 13], n=4) == [10.5, 12.0, 14.0]
        assert!((spread(&[10.0, 12.0, 11.0, 15.0, 13.0]) - 3.5 / 12.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.3, 100.4, 99.8];
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 150.0, 100.0, 60.0, 130.0];
        assert_eq!(verdict(&base, &same, true, 0.1), Verdict::Ok);
        assert_eq!(verdict(&base, &slow, true, 0.1), Verdict::Worse);
        // Higher is better: the same numbers are an improvement.
        assert_eq!(verdict(&base, &slow, false, 0.1), Verdict::Ok);
        assert_eq!(verdict(&slow, &base, false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &noisy, true, 0.1), Verdict::Unresolved);
        // Wide, but every run of b beats every run of a: resolved.
        let fast_noisy = [40.0, 70.0, 50.0, 30.0, 65.0];
        assert_eq!(verdict(&base, &fast_noisy, true, 0.1), Verdict::Ok);
    }
}
