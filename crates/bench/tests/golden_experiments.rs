//! The experiment record, pinned byte for byte.
//!
//! `experiments` prints [`s2s_bench::record::run`]'s text: instance
//! counts, rendered bytes, wire bytes, round trips and simulated network
//! time, a function of seeds alone. Three of its sweeps (E15, E16, E17)
//! are pinned as JSON reports too. A change that moves any of these
//! numbers fails here, naming the first line that differs. If the move
//! is meant, re-pin all four files with
//!
//! ```text
//! S2S_REPIN=1 cargo test -p s2s-bench --test golden_experiments
//! ```
//!
//! and update the tables of EXPERIMENTS.md that moved.

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

const PINNED: [(&str, &str); 4] = [
    ("experiments.txt", include_str!("golden/experiments.txt")),
    ("e15.json", include_str!("golden/e15.json")),
    ("e16.json", include_str!("golden/e16.json")),
    ("e17.json", include_str!("golden/e17.json")),
];

#[test]
fn the_experiment_record_matches_its_pinned_copy() {
    let t = s2s_bench::record::run();
    let now = [t.text, t.e15.to_json(), t.e16.to_json(), t.e17.to_json()];
    if std::env::var_os("S2S_REPIN").is_some() {
        for ((name, _), now) in PINNED.iter().zip(&now) {
            std::fs::write(format!("{GOLDEN_DIR}/{name}"), now).expect("write golden file");
        }
        return;
    }
    for ((name, pinned), now) in PINNED.iter().zip(&now) {
        if pinned == now {
            continue;
        }
        let (pinned_lines, now_lines): (Vec<_>, Vec<_>) =
            (pinned.split('\n').collect(), now.split('\n').collect());
        let line = (0..pinned_lines.len().max(now_lines.len()))
            .find(|&i| pinned_lines.get(i) != now_lines.get(i))
            .unwrap_or(0);
        panic!(
            "{name} moved at line {}:\n  pinned: {:?}\n  now:    {:?}",
            line + 1,
            pinned_lines.get(line).unwrap_or(&"<end>"),
            now_lines.get(line).unwrap_or(&"<end>"),
        );
    }
}
