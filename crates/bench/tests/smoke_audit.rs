//! The smoke audit as a test: `experiments --smoke-audit` writes and
//! validates `trace.jsonl` and `metrics.prom` (exports parse, view
//! metrics equal the outcomes' sums, every series is a name of
//! `s2s_obs::names`) and exits non-zero on any violation.

use std::process::Command;

#[test]
fn smoke_audit_passes() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-audit");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--smoke-audit")
        .arg(&dir)
        .output()
        .expect("run experiments");
    assert!(
        out.status.success(),
        "smoke audit failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    for artifact in ["trace.jsonl", "metrics.prom"] {
        assert!(dir.join(artifact).is_file(), "{artifact} not written");
    }
}
