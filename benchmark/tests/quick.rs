//! `benchmark --quick`: one 1-second round of all four workloads plus
//! the traced pass of each, as child runs of the real binary.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn quick_mode_covers_every_workload_and_fails_nothing() {
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--quick")
        .output()
        .expect("the benchmark binary starts");
    let took = started.elapsed();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "--quick exits non-zero when any op fails:\n{stderr}");
    assert!(!stderr.contains("FAILED"), "{stderr}");
    for w in ["mixed_scan", "structured_selective", "remote_fanout", "fleet_churn"] {
        let runs = stderr.lines().filter(|l| l.starts_with(&format!("{w}: "))).count();
        assert_eq!(runs, 2, "{w}: one end-to-end run and one traced pass\n{stderr}");
    }
    // The time limit holds for the optimized build the benchmark is
    // meant to be run with; an unoptimized test build is only checked
    // for correctness.
    if !cfg!(debug_assertions) {
        assert!(took < Duration::from_secs(15), "--quick took {took:?}");
    }
}
